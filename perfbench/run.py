"""gwrec benchmark: run one workload, check every result, print every metric.

    python3 perfbench/run.py --workload negative --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(perfbench/child.py), one after another, as long as another pass is likely
to end within --seconds, and at least MIN_PASSES times.  Before each
untraced pass and after the last, SETUP_PROBES extra interpreters only
import gwrec and build the inputs; setup_s is the median over those and
the passes' own set-ups, so its samples are spread over the whole run.
Timings are medians over passes.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced pass, each
traced pass paired with an untraced one for trace.overhead_s.  Workloads,
metrics and the layer each metric should move are described in
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, median_low

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("negative", "fit", "eo", "cli-session")
MIN_PASSES = 2
SETUP_PROBES = 5  # per pass
TIME_LIMIT_S = 170  # every run ends well inside the 180 s a run may take


class BenchError(RuntimeError):
    pass


def child(args, deadline, *flags):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed), *flags]
    if args.small:
        cmd.append("--small")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the {TIME_LIMIT_S} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


UNITS = {"cpu_s": "s", "cold_cpu_s": "s", "warm_cpu_s": "s", "op_cpu_ms.p99": "ms",
         "peak_rss_mb": "MB"}


def end_to_end(passes, setups):
    out = {"setup_s": (median(setups), "s")}
    for name, unit in UNITS.items():
        out[name] = (median(p[name] for p in passes), unit)
    return out


def per_layer(traced, untraced):
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        # median_low keeps counts whole when a run holds an even number of passes
        out[name] = (median_low(p["layers"][name][0] for p in traced), unit)
    overhead = median(p["cpu_s"] for p in traced) - median(p["cpu_s"] for p in untraced)
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced-size inputs, for the self-test only")
    p.add_argument("--wrong-reference", action="store_true",
                   help="judge one correct output as wrong, for the self-test only")
    p.add_argument("--crash-op", action="store_true",
                   help="make the first op raise, for the self-test only")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gwrec", "__init__.py")):
        print(f"error: no gwrec sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    flags = [f for f, on in (("--wrong-reference", args.wrong_reference),
                             ("--crash-op", args.crash_op)) if on]
    untraced, traced, took, setups = [], [], [], []

    def probe_setup():
        if not args.trace:
            setups.extend(child(args, deadline, "--setup-only")["setup_s"]
                          for _ in range(SETUP_PROBES))

    min_passes = 1 if args.trace else MIN_PASSES
    start = time.monotonic()
    while True:
        t = time.monotonic()
        probe_setup()
        untraced.append(child(args, deadline, *flags))
        if args.trace:
            traced.append(child(args, deadline, "--trace", *flags))
        took.append(time.monotonic() - t)
        # Stop when one more pass would likely run past --seconds.
        if (len(untraced) >= min_passes
                and time.monotonic() - start + median(took) > args.seconds):
            break
    probe_setup()
    passes = untraced + traced
    setups += [q["setup_s"] for q in untraced]

    known = sum(q["known"] for q in passes)
    wrong = sum(q["wrong"] for q in passes)
    first = passes[0]["digests"]
    for q in passes[1:]:
        changed = sorted(k for k, d in q["digests"].items() if first.get(k) != d)
        wrong += len(changed)
        if changed:
            q["examples"].append(f"{changed[0]}: output changed between passes")
    for example in sorted({e for q in passes for e in q["examples"]}):
        print("failed op:", example, file=sys.stderr)

    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setups)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(q["attempted"] for q in passes),
        "failed": known + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
