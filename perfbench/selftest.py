"""Self-test of the benchmark on reduced-size inputs.

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py with --small and checks that
  * every end-to-end metric of BENCHMARK.json is printed with its unit
    (untraced run) and every per-layer metric likewise (traced run);
  * the wrapped functions count work where the layer table in
    perfbench/README.md expects it, and none where it predicts a bypass;
  * a deliberately wrong reference, and an op that raises, are each
    counted as a failed op and make the run incorrect;
and that run.py exits non-zero without a result line when the checkout
holds only BENCHMARK.json and perfbench/.  Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per workload: per-layer counters that must be nonzero, and counters that
# must stay zero because the workload bypasses that layer.
EXPECT = {
    "negative": (
        ["engine.invariant.calls", "engine.keys_computed", "engine.trr0_expand.calls",
         "engine.wdvv_primary.calls", "algebra.symrat.calls", "algebra.c_factor.calls",
         "quasifit.family_value.calls", "quasifit.families.size"],
        ["eo.omega.calls", "algebra.laurent_mul.calls", "cli.main.calls",
         "quasifit.quasi_fit.calls"],
    ),
    "fit": (
        ["quasifit.quasi_fit.calls", "quasifit.quasi_fit.samples",
         "quasifit.fit_stationary.calls", "algebra.multipoly_eval.calls",
         "moduli.psi.calls", "engine.trrg_expand.calls", "engine.beta_bracket.calls",
         "engine.bb_memo.size"],
        ["eo.omega.calls", "algebra.laurent_mul.calls", "cli.main.calls"],
    ),
    "eo": (
        ["eo.omega.calls", "eo.omega.terms", "eo.chart.calls", "algebra.laurent_mul.calls",
         "algebra.laurent_invert.calls", "moduli.psi.calls"],
        ["engine.invariant.calls", "quasifit.quasi_fit.calls",
         "quasifit.family_value.calls", "cli.main.calls"],
    ),
    "cli-session": (
        ["cli.main.calls", "cli.cache_records", "cli.cache_bytes", "cli.cache_reuse_ratio",
         "engine.invariant.calls", "eo.omega.calls", "quasifit.quasi_fit.calls",
         "algebra.c_factor.calls"],
        [],
    ),
}


def bench(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--seed", "0",
         "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def fail(msg):
    print("FAIL", msg)
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload, (busy, idle) in EXPECT.items():
        results = {}
        for label, extra in (("plain", ["--trace", "0"]), ("traced", ["--trace", "1"]),
                             ("wrong", ["--trace", "0", "--wrong-reference"]),
                             ("crash", ["--trace", "0", "--crash-op"])):
            proc, results[label] = bench(ROOT, "--workload", workload, "--small", *extra)
            if results[label] is None:
                fail(f"{workload} {label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        for label, section in (("plain", "end_to_end"), ("traced", "per_layer")):
            metrics = results[label]["metrics"]
            for m in spec[section]:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail(f"{workload}: {m['name']} missing or without unit {m['unit']}")
                if section == "end_to_end" and not got["value"] > 0:
                    fail(f"{workload}: {m['name']} = {got['value']}")
        layers = results["traced"]["metrics"]
        for name in busy:
            if not layers[name]["value"] > 0:
                fail(f"{workload}: {name} is zero where the layer should work")
        for name in idle:
            if layers[name]["value"] != 0:
                fail(f"{workload}: {name} = {layers[name]['value']} on a bypass workload")
        plain = results["plain"]
        if not plain["correct"]:
            fail(f"{workload}: incorrect without any injected fault")
        for label in ("wrong", "crash"):
            bad = results[label]
            if not bad["failed"] > plain["failed"] or bad["correct"]:
                fail(f"{workload}: {label} op not counted "
                     f"(failed {plain['failed']} -> {bad['failed']}, correct {bad['correct']})")
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(layers)} per-layer metrics, attempted {plain['attempted']}, "
              f"failed {plain['failed']}, wrong-reference failed {results['wrong']['failed']}, "
              f"crash failed {results['crash']['failed']}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = bench(bare, "--workload", "fit", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None or proc.stdout.strip():
        fail("run.py succeeded without gwrec sources")
    print(f"ok bare checkout: exit {proc.returncode}, no result")


if __name__ == "__main__":
    main()
