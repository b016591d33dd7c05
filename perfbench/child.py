"""One pass of one workload in a fresh, single-threaded interpreter.

    python3 perfbench/child.py --workload negative --seed 0 [--trace]
        [--setup-only] [--small] [--wrong-reference] [--crash-op]

run.py starts this once per pass.  It imports gwrec from the checkout's
`src` and builds the inputs (set-up).  The pass runs every op cold, then
warm (`warm_repeat` timed runs, of which the first is checked);
cold_cpu_s and warm_cpu_s sum the cold times and the median warm times,
so both are spread over the whole pass.  Every time is CPU time scaled to
a reference host speed by gauge.py: wall-clock time on a shared virtual
machine also counts the time the hypervisor gives the CPU to other
guests, and CPU time alone still swings by up to 2x with the host's load.
Set-up is timed from the first line of this file and scaled by gauge
samples taken right after it.  Outputs are checked outside the timed
region and one JSON object is printed on the last line of stdout.  With
--trace the gwrec layers are wrapped before the inputs are built, the
cold and the checked warm run of every op are traced, and the per-layer
metrics are added.
--wrong-reference and --crash-op exist for perfbench/selftest.py: the
first judges one correct output as wrong, the second makes the first op
raise.
"""

import time

T0 = time.thread_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 40


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def p99(xs):
    """The 99th percentile, interpolating between order statistics."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[98]


def timed(op, gauge):
    """Run one op; returns its output and the gauge span of its CPU time.
    An exception is an output too, and always a wrong one."""
    mark = gauge.begin()
    try:
        out = op.run()
    except Exception as exc:  # a crash in gwrec is a wrong op, not a harness error
        out = exc
    return out, gauge.end(mark)


def judge(ops, outs, wrong_reference, tally):
    """Check each output against its reference; returns {op name: digest}
    for the ops that passed.  Tallies "known" (the documented baseline
    defect) and "wrong" (everything else that did not pass)."""
    digests = {}
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            verdict = ("wrong", f"raised {type(out).__name__}: {out}")
        else:
            try:
                verdict = op.check(out)
                digest = _digest(op.digest(out))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                verdict = ("wrong", f"malformed output: {exc!r}")
            if wrong_reference and verdict is None:
                verdict = ("wrong", "deliberately wrong reference")
                wrong_reference = False
        if verdict:
            tally[verdict[0]] += 1
            if len(tally["examples"]) < 5:
                tally["examples"].append(f"{op.name}: {verdict[1]}")
        else:
            digests[op.name] = digest
    return digests


def _crash():
    raise RuntimeError("deliberate crash")


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true")
    p.add_argument("--wrong-reference", action="store_true")
    p.add_argument("--crash-op", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import gwrec

    if not os.path.abspath(gwrec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gwrec imported from {gwrec.__file__}, not from {SRC}")
    import workloads
    from gauge import Gauge

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    wl = workloads.BUILDERS[args.workload](args.seed, args.small, workdir)
    setup_s = time.thread_time() - T0
    gauge = Gauge()
    gauge.probe(SETUP_SAMPLES)
    result = {"setup_s": setup_s * gauge.scale(0, SETUP_SAMPLES)}
    if args.crash_op:
        wl.ops[0].run = _crash
    if args.setup_only:
        wl.cleanup()
        print(json.dumps(result))
        return

    tally = {"known": 0, "wrong": 0, "examples": []}
    cold, warm, cold_outs, warm_outs = [], [], [], []
    if tracer:
        tracer.start()
    gauge.start()
    try:
        for i, op in enumerate(wl.ops):
            if tracer:
                tracer.begin_op(i)
            out, span = timed(op, gauge)
            cold_outs.append(out)
            cold.append(span)
            out, span = timed(op, gauge)
            warm_outs.append(out)
            if tracer:
                tracer.end_op()
                tracer.on = False  # the timing-only repeats stay out of the layer counts
            warm.append([span] + [timed(op, gauge)[1] for _ in range(wl.warm_repeat - 1)])
            if tracer:
                tracer.on = True
    finally:
        gauge.stop()
    if tracer:
        tracer.stop()
    cold = [gauge.reference(span) for span in cold]
    warm = [[gauge.reference(span) for span in spans] for spans in warm]

    digests = judge(wl.ops, cold_outs, args.wrong_reference, tally)
    again = judge(wl.ops, warm_outs, False, tally)
    for name, d in again.items():
        if digests.get(name, d) != d:
            tally["wrong"] += 1
            tally["examples"].append(f"{name}: warm output differs from cold")
    result.update({
        "cpu_s": sum(cold) + sum(map(sum, warm)),
        "cold_cpu_s": sum(cold),
        "warm_cpu_s": sum(map(statistics.median, warm)),
        "op_cpu_ms.p99": p99(cold) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(cold_outs) + len(warm_outs),
        "known": tally["known"],
        "wrong": tally["wrong"],
        "examples": tally["examples"],
        "digests": digests,
    })
    if tracer:
        result["layers"] = tracer.report(wl)
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}"))
    wl.cleanup()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
