"""Per-layer tracing for the benchmark's traced passes.

`Tracer.install()` wraps the public functions and methods of each gwrec
module, plus the private evaluator step `Engine._compute` (one call per key
computed), at the defining module and at every gwrec module that imported
them with `from .x import y`.  Each call made while tracing is on becomes
a span: name, start, end, parent span and the op it belongs to.  Spans are
kept in memory, per-layer self times are derived from them after the pass,
and they are written out at exit as `<stem>.bin` (five arrays) plus
`<stem>.json` (names and layout).

gwrec itself is not modified; everything happens in this process only.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import sys
import time
import types
from array import array
from fractions import Fraction

LAYERS = ("algebra", "moduli", "engine", "quasifit", "eo", "cli")

# Trivial helpers on the innermost loops: wrapping them would multiply the
# span count without saying anything; their time counts to the caller.
SKIP = {
    "algebra.ceil_div", "algebra.SymRat.rational", "algebra.LaurentSeries.is_zero",
    "engine.degree_of", "engine.InvariantKey.degree", "engine.InvariantKey.canonical",
}
DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__neg__", "__truediv__"}
PRIVATE = {"engine.Engine._compute"}
MEMOS = ("_g0_memo", "_bb_memo", "_wdvv_memo")

SYMRAT_OPS = {f"algebra.SymRat.{d}" for d in DUNDERS}
LAURENT_MUL = {"algebra.LaurentSeries.__mul__", "algebra.LaurentSeries.__rmul__"}
VERIFY = {"quasifit.verify_top_coefficients", "quasifit.verify_negative_evaluation",
          "quasifit.verify_p_string_divisor", "quasifit.verify_dilaton_derivative",
          "quasifit.asymptotics_report"}
EO_CHECKS = {"eo.pole_asymptotics_check", "eo.eo_string_dilaton_check",
             "eo.compare_eo_gw"}


class CountingDict(dict):
    """A memo table that counts its inserts (the memo's size, summed over
    engines, since gwrec never evicts)."""

    __slots__ = ("tally", "key")

    def __setitem__(self, k, v):
        self.tally[self.key] += 1
        dict.__setitem__(self, k, v)


def _bits(v):
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    scalar = getattr(v, "scalar", None)
    if scalar is None:
        return 0
    return max([_bits(scalar)] + [_bits(c) for c in v.atoms.values()])


class Tracer:
    """Span recorder and per-layer counters for one traced pass."""

    def __init__(self):
        self.on = False
        self.names: list = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start_t = array("d")
        self.end_t = array("d")
        self.stack = [-1]
        self.op = -1
        self._op_span = -1
        self.tally = {k: 0 for k in ("trr0_terms", "trrg_terms", "omega_terms",
                                     "quasi_fit_samples", "cache_records",
                                     "exit_nonzero", "value_bits", *MEMOS)}
        self.omegas: set = set()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # ------------------------------------------------------------------
    # spans

    def _open(self, name_id):
        idx = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.op_of.append(self.op)
        self.start_t.append(time.perf_counter())
        self.end_t.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end_t[idx] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, i):
        self.op = i
        self._op_span = self._open(self._name("bench.op"))

    def end_op(self):
        self._close(self._op_span)

    def _name(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name):
        tracer = self
        name_id = self._name(name)
        post = self._post_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post:
                try:
                    post(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature or result type leaves the counter at 0
            return result

        return wrapper

    def _post_hook(self, name):
        t = self.tally

        def bits(args, kwargs, result):
            b = _bits(result)
            if b > t["value_bits"]:
                t["value_bits"] = b

        def add(key, size):
            def hook(args, kwargs, result):
                t[key] += size(args, kwargs, result)
            return hook

        def omega(args, kwargs, result):
            if id(result) not in self.omegas:
                self.omegas.add(id(result))
                t["omega_terms"] += len(result.coeffs)

        hooks = {
            "engine.Engine.trr0_expand": add("trr0_terms", lambda a, k, r: len(r)),
            "engine.Engine.trrg_expand": add("trrg_terms", lambda a, k, r: len(r)),
            "quasifit.quasi_fit": add(
                "quasi_fit_samples", lambda a, k, r: len(a[0] if a else k["samples"])),
            "cli.load_cache": add("cache_records", lambda a, k, r: len(r)),
            "cli.main": add("exit_nonzero", lambda a, k, r: int(r != 0)),
            "eo.SpectralCurve.omega": omega,
            "algebra.c_factor": bits,
        }
        if name in SYMRAT_OPS:
            return bits
        return hooks.get(name)

    # ------------------------------------------------------------------
    # installation

    def install(self):
        mods = {m: importlib.import_module(f"gwrec.{m}") for m in LAYERS}
        importers = [v for k, v in sys.modules.items() if k.split(".")[0] == "gwrec"]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    if attr.startswith("_") or name in SKIP:
                        continue
                    wrapped = self._wrap(obj, name)
                    for m in importers:
                        for a, o in list(vars(m).items()):
                            if o is obj:
                                setattr(m, a, wrapped)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    if attr.startswith("_"):
                        continue
                    for meth, fn in list(vars(obj).items()):
                        name = f"{layer}.{attr}.{meth}"
                        public = not meth.startswith("_") or meth in DUNDERS
                        if (not isinstance(fn, types.FunctionType) or name in SKIP
                                or not (public or name in PRIVATE)):
                            continue
                        setattr(obj, meth, self._wrap(fn, name))
        engine_cls = mods["engine"].Engine
        init = engine_cls.__init__
        tracer = self

        @functools.wraps(init)
        def counting_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            for memo in MEMOS:
                old = getattr(engine, memo, None)
                if type(old) is dict:
                    new = CountingDict(old)
                    new.tally, new.key = tracer.tally, memo
                    setattr(engine, memo, new)

        engine_cls.__init__ = counting_init

    def start(self):
        gc.callbacks.append(self._gc)
        self.on = True

    def stop(self):
        self.on = False
        gc.callbacks.remove(self._gc)

    def _gc(self, phase, info):
        if not self.on:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    # ------------------------------------------------------------------
    # derived metrics

    def self_times(self):
        """Per span name: (calls, self seconds, inclusive seconds).  Self
        time is a span's duration minus the durations of its child spans."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end_t[i] - self.start_t[i]
        per = {}
        for i in range(n):
            dur = self.end_t[i] - self.start_t[i]
            row = per.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        return per

    def report(self, workload):
        per = self.self_times()
        t = self.tally

        def calls(*names):
            return sum(per.get(n, (0,))[0] for n in names)

        def self_s(names):
            return sum(per[n][1] for n in per if n in names)

        def layer_s(layer):
            return self_s({n for n in per if n.split(".")[0] == layer})

        def ratio(num, den):
            return num / den if den else 0.0

        def size(module, attr):
            return len(getattr(sys.modules[f"gwrec.{module}"], attr, ()))

        bb_calls = calls("engine.Engine.beta_bracket")
        wdvv_calls = calls("engine.Engine.wdvv_primary")
        keys = calls("engine.Engine._compute")
        cache_path = workload.cache_path
        m = {
            "algebra.laurent_mul.calls": (calls(*LAURENT_MUL), "count"),
            "algebra.laurent_mul.self_s": (self_s(LAURENT_MUL), "s"),
            "algebra.laurent_invert.calls": (calls("algebra.LaurentSeries.invert"), "count"),
            "algebra.laurent_invert.self_s": (self_s({"algebra.LaurentSeries.invert"}), "s"),
            "algebra.symrat.calls": (calls(*SYMRAT_OPS), "count"),
            "algebra.symrat.self_s": (self_s(SYMRAT_OPS), "s"),
            "algebra.multipoly_eval.calls": (calls("algebra.MultiPoly.eval"), "count"),
            "algebra.multipoly_eval.self_s": (self_s({"algebra.MultiPoly.eval"}), "s"),
            "algebra.c_factor.calls": (calls("algebra.c_factor"), "count"),
            "algebra.c_factor.self_s": (self_s({"algebra.c_factor"}), "s"),
            "algebra.value_bits.max": (t["value_bits"], "bits"),
            "algebra.self_s": (layer_s("algebra"), "s"),
            "engine.invariant.calls": (calls("engine.Engine.invariant"), "count"),
            "engine.keys_computed": (keys, "count"),
            "engine.self_s": (layer_s("engine"), "s"),
            "engine.trr0_expand.calls": (calls("engine.Engine.trr0_expand"), "count"),
            "engine.trr0_expand.terms": (t["trr0_terms"], "count"),
            "engine.trrg_expand.calls": (calls("engine.Engine.trrg_expand"), "count"),
            "engine.trrg_expand.terms": (t["trrg_terms"], "count"),
            "engine.beta_bracket.calls": (bb_calls, "count"),
            "engine.beta_bracket.hit_ratio": (ratio(bb_calls - t["_bb_memo"], bb_calls), "ratio"),
            "engine.wdvv_primary.calls": (wdvv_calls, "count"),
            "engine.wdvv_primary.hit_ratio": (ratio(wdvv_calls - t["_wdvv_memo"], wdvv_calls), "ratio"),
            "engine.g0_memo.size": (t["_g0_memo"], "count"),
            "engine.bb_memo.size": (t["_bb_memo"], "count"),
            "engine.wdvv_memo.size": (t["_wdvv_memo"], "count"),
            "quasifit.quasi_fit.calls": (calls("quasifit.quasi_fit"), "count"),
            "quasifit.quasi_fit.samples": (t["quasi_fit_samples"], "count"),
            "quasifit.quasi_fit.self_s": (self_s({"quasifit.quasi_fit"}), "s"),
            "quasifit.fit_stationary.calls": (calls("quasifit.fit_stationary"), "count"),
            "quasifit.family_value.calls": (calls("quasifit.StationaryFamily.value"), "count"),
            "quasifit.family_value.self_s": (self_s({"quasifit.StationaryFamily.value"}), "s"),
            "quasifit.verify.self_s": (self_s(VERIFY), "s"),
            "quasifit.self_s": (layer_s("quasifit"), "s"),
            "quasifit.families.size": (size("quasifit", "_FAMILIES"), "count"),
            "moduli.psi.calls": (calls("moduli.psi_intersection"), "count"),
            "moduli.psi.self_s": (self_s({"moduli.psi_intersection"}), "s"),
            "moduli.self_s": (layer_s("moduli"), "s"),
            "moduli.psi_cache.size": (size("moduli", "_PSI_CACHE"), "count"),
            "moduli.point_cache.size": (size("moduli", "_POINT_CACHE"), "count"),
            "eo.omega.calls": (calls("eo.SpectralCurve.omega"), "count"),
            "eo.omega.self_s": (self_s({"eo.SpectralCurve.omega"}), "s"),
            "eo.omega.terms": (t["omega_terms"], "count"),
            "eo.chart.calls": (calls("eo.SpectralCurve.chart"), "count"),
            "eo.check.self_s": (self_s(EO_CHECKS), "s"),
            "eo.self_s": (layer_s("eo"), "s"),
            "cli.main.calls": (calls("cli.main"), "count"),
            "cli.self_s": (layer_s("cli"), "s"),
            "cli.cache_load.s": (per.get("cli.load_cache", (0, 0, 0.0))[2], "s"),
            "cli.cache_save.s": (per.get("cli.save_cache", (0, 0, 0.0))[2], "s"),
            "cli.cache_records": (t["cache_records"], "count"),
            "cli.cache_bytes": (
                os.path.getsize(cache_path) if cache_path and os.path.exists(cache_path) else 0,
                "bytes"),
            "cli.cache_reuse_ratio": (ratio(t["cache_records"], t["cache_records"] + keys), "ratio"),
            "cli.exit_nonzero": (t["exit_nonzero"], "count"),
            "runtime.gc_s": (self.gc_s, "s"),
            "runtime.gc_collections": (self.gc_collections, "count"),
        }
        self._per = per
        return m

    def write(self, stem):
        """Write every span: <stem>.bin holds the arrays name, parent, op
        (int32) and start, end (float64, perf_counter seconds), in that
        order; <stem>.json names them and carries the per-name totals."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name_of, self.parent, self.op_of, self.start_t, self.end_t):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({
                "spans": len(self.name_of),
                "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                           ["start", "d"], ["end", "d"]],
                "names": self.names,
                "per_name": {k: {"calls": v[0], "self_s": v[1], "incl_s": v[2]}
                             for k, v in sorted(self._per.items())},
            }, fh, indent=1)
