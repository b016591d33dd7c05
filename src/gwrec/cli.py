"""Command-line interface: invariant evaluation, fitting, the verification
battery, and persistence of the invariant cache.

Exit codes: 0 all checks pass, 1 a non-exploratory check failed, 2 usage or
parse errors.  All output is line-delimited JSON records.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .algebra import MissingAtomError, SymRat, _str_int, format_rat, parse_rat
from .engine import Engine, InvariantKey
from .eo import (
    compare_eo_gw,
    eo_invariant,
    eo_string_dilaton_check,
    pole_asymptotics_check,
)
from .moduli import n0_polynomial, point_invariant, psi_intersection
from .quasifit import (
    FitSpec,
    InconsistentSamplesError,
    VerificationReport,
    asymptotics_report,
    fit_stationary,
    verify_dilaton_derivative,
    verify_negative_evaluation,
    verify_p_string_divisor,
    verify_top_coefficients,
)


class UsageError(ValueError):
    pass


class CacheConflictError(ValueError):
    pass


def load_atoms(path) -> dict:
    """The rational values a JSON config file assigns to symbolic atoms,
    {name: Fraction}; UsageError for a malformed file or value."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or not isinstance(obj.get("atoms", {}), dict):
        raise UsageError(f"{path}: a config is a JSON object with an object of atoms")
    atoms = {}
    for name, val in obj.get("atoms", {}).items():
        try:
            atoms[name] = parse_rat(str(val))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad atom value for {name}: {val!r}") from exc
    return atoms


# One cache record exactly as `save_cache` writes an atom-free value: a
# canonical key (N >= 1, decimals without leading zeros) and a scalar "0",
# "p" or "p/q".  A line of this form is read from the match alone.
_RECORD = re.compile(
    r'\{"key": "gw\[N=([1-9]\d*);g=(0|[1-9]\d*);'
    r'ins=((?:\((?:0|[1-9]\d*),(?:0|[1-9]\d*)\),)*\((?:0|[1-9]\d*),(?:0|[1-9]\d*)\)|)\]", '
    r'"value": \{"scalar": "(?:0|(-?[1-9]\d*)(?:/([1-9]\d*))?)", "atoms": \{\}\}\}\n?',
    re.ASCII,
)


def load_cache(path, records=None, lines=None) -> dict:
    """Merge the line-delimited cache records of `path` into `records` (a
    fresh dict by default) and return it.  Each key is parsed once into an
    InvariantKey and checked like engine input, so two spellings of one key
    are one record; a genus-0 value is held as a Fraction and may carry no
    atom.  A key no degree fits must hold 0, checked here once for either
    reader.  A value that differs from one already held is a conflict.

    A line already in the form `save_cache` writes is stored in `lines`, if
    given, under its key, so that a save can write it back unchanged."""
    records = {} if records is None else records
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            match = _RECORD.fullmatch(line)
            try:
                if match:
                    key, val, canonical = _read_match(match)
                else:
                    line = line.strip()
                    if not line:
                        continue
                    key, val, canonical = _read_json(line)
                if val and key.degree() is None:
                    raise ValueError("nonzero value where no degree fits")
            except (ValueError, LookupError, TypeError, AttributeError,
                    ArithmeticError) as exc:
                raise UsageError(f"{path}:{lineno}: malformed cache record") from exc
            if key in records and records[key] != val:
                raise CacheConflictError(
                    f"{path}:{lineno}: conflicting value for {key.canonical()}"
                )
            records[key] = val
            if canonical and lines is not None:
                lines[key] = line if line.endswith("\n") else line + "\n"
    return records


def _read_match(match):
    """(key, value, whether the line is canonical) from a `_RECORD` match,
    with the key and value checks `_read_json` makes."""
    N_text, g_text, ins_text, p_text, q_text = match.groups()
    N, g = int(N_text), int(g_text)
    ints = list(map(int, ins_text[1:-1].replace("),(", ",").split(","))) if ins_text else []
    if ints and max(ints[1::2]) > N:
        raise ValueError("class exponent outside [0, N]")
    ins = tuple(zip(ints[::2], ints[1::2]))
    key = InvariantKey(N, g, tuple(sorted(ins)))
    if p_text is None:
        val, canonical = Fraction(0), True
    else:
        q = 1 if q_text is None else _str_int(q_text)
        val = Fraction(_str_int(p_text), q)
        canonical = q_text is None or val.denominator == q != 1
    return key, SymRat(val) if g else val, canonical and key.ins == ins


def _read_json(line):
    """(key, value, False) from any other record line."""
    obj = json.loads(line)
    key = InvariantKey.parse(obj["key"]).checked()
    val = SymRat.from_obj(obj["value"])
    if key.g == 0:
        val = val.rational()
    return key, val, False


def _record_line(key, val) -> str:
    """The cache line of one record: one f-string for an atom-free
    Fraction, the JSON encoder for anything else."""
    if type(val) is Fraction:
        return (f'{{"key": "{key.canonical()}", "value": '
                f'{{"scalar": "{format_rat(val)}", "atoms": {{}}}}}}\n')
    return json.dumps({"key": key.canonical(), "value": SymRat.of(val).to_obj()}) + "\n"


def save_cache(records, path, lines=None):
    """Write the InvariantKey records sorted by canonical key to a temporary
    file beside `path` and rename it over `path`, so a failed write leaves
    the previous cache intact.  A record with a line in `lines` (as
    `load_cache` fills it) is written as that line; every other record is
    formatted afresh."""
    lines = lines or {}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            # Each line is `{"key": "` and then its canonical key, which no
            # other key extends (a key ends at its one "]"), so the lines
            # sort as their keys do.
            fh.writelines(sorted(
                lines.get(key) or _record_line(key, val) for key, val in records.items()
            ))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def parse_insertions(text, N):
    """Comma-separated m:k insertions; "pt" is sugar for k = N."""
    out = []
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise UsageError(f"bad insertion {chunk!r}, expected m:k or m:pt")
        m_str, k_str = chunk.split(":", 1)
        try:
            m = int(m_str)
            k = N if k_str == "pt" else int(k_str)
        except ValueError as exc:
            raise UsageError(f"bad insertion {chunk!r}") from exc
        if m < 0:
            raise UsageError(f"negative descendant level in {chunk!r}")
        if not 0 <= k <= N:
            raise UsageError(f"invalid-exponent: k={k} outside [0, {N}]")
        out.append((m, k))
    return out


def emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _emit_report(rep: VerificationReport) -> bool:
    emit(rep.to_obj())
    return rep.ok


def cmd_invariant(args, atoms, engine):
    ins = parse_insertions(args.ins, args.N)
    key = InvariantKey.make(args.N, args.g, ins)
    val = engine.invariant(args.N, args.g, ins)
    record = {
        "key": key.canonical(),
        "value": val.to_obj(),
        "degree": key.degree(),
    }
    if args.resolve_atoms:
        record["atomsResolved"] = format_rat(val.resolve(atoms))
    emit(record)
    return 0


def cmd_psi(args, atoms, engine):
    beta = [int(x) for x in args.beta.split(",")] if args.beta else []
    emit({"g": args.g, "beta": beta, "value": format_rat(psi_intersection(args.g, beta))})
    return 0


def cmd_n0(args, atoms, engine):
    if args.point is not None:
        ms = [int(x) for x in args.point.split(",")]
        val = point_invariant(args.g, ms, args.d)
        emit({"g": args.g, "m": ms, "d": args.d, "value": format_rat(val)})
    else:
        emit(n0_polynomial(args.g, args.n).to_obj())
    return 0


def cmd_fit(args, atoms, engine):
    kappa = tuple(parse_insertions(args.kappa, args.N)) if args.kappa else ()
    spec = FitSpec(
        N=args.N, g=args.g, n=args.n, fixed_insertions=kappa, min_m=args.min_m
    )
    emit(fit_stationary(spec, engine).to_obj())
    return 0


def cmd_eo(args, atoms, engine):
    emit(eo_invariant(args.g, args.n).to_obj())
    return 0


def cmd_verify(args, atoms, engine):
    sub = args.what
    # These checks exist only on the projective line.
    if sub in ("dilaton", "eo-compare", "eo-string", "pole", "example-f") and args.N != 1:
        raise UsageError(f"verify {sub} is specific to N = 1")
    try:
        ok = _verify(sub, args, atoms, engine)
    except InconsistentSamplesError as exc:
        # Values off a quasi-polynomial fail, unless only through atoms.
        status = "inconclusive-atoms" if exc.atoms_only else "fail"
        ok = _emit_report(VerificationReport(f"verify {sub}", status, {"error": str(exc)}))
    return 0 if ok else 1


def _verify(sub, args, atoms, engine) -> bool:
    if sub == "top":
        q = fit_stationary(FitSpec(N=args.N, g=args.g, n=args.n), engine)
        return _emit_report(verify_top_coefficients(q, args.g, args.n, args.N))
    if sub == "negative":
        ks = [int(x) for x in args.k.split(",")] if args.k else []
        ms = [int(x) for x in args.m.split(",")] if args.m else []
        return _emit_report(
            verify_negative_evaluation(args.N, args.g, ks, ms, engine)
        )
    if sub == "string-divisor":
        return _emit_report(
            verify_p_string_divisor(args.N, args.g, args.n, engine, max_m=args.max_m)
        )
    if sub == "dilaton":
        return _emit_report(verify_dilaton_derivative(args.g, args.n, engine))
    if sub == "asymptotics":
        ray = [int(x) for x in args.ray.split(",")]
        return _emit_report(
            asymptotics_report(
                args.N, args.g, args.n, ray, args.max_m, engine, atoms
            )
        )
    if sub == "eo-compare":
        return _emit_report(
            compare_eo_gw(args.g, args.n, args.depth, engine, atom_values=atoms)
        )
    if sub == "eo-string":
        return _emit_report(eo_string_dilaton_check(args.g, args.n, args.string_power))
    if sub == "pole":
        return _emit_report(pole_asymptotics_check(args.g, args.n))
    # example-f; argparse admits no other choice
    if args.max_m < 3:
        raise UsageError("example-f needs --max-m >= 3 to check any recursion step")
    return _verify_example_f(engine, args.max_m)


def _verify_example_f(engine, max_m):
    """The non-quasi-polynomial witness: report the claimed two-step
    recursion and the second differences of the engine values."""
    ok = True
    values = {m: engine.counterexample_f(m) for m in range(1, max_m + 1, 2)}
    for m in range(3, max_m + 1, 2):
        d = -((-m) // 2)
        claimed = (1 - Fraction(1, d)) * values[m - 2] - 1
        rep = VerificationReport(
            f"example-f recursion m={m}",
            "pass" if values[m] == claimed else "fail",
            {"engine": values[m], "recursion": claimed},
        )
        ok = _emit_report(rep) and ok
    ms = sorted(values)
    if len(ms) >= 4:
        diffs = [values[b] - values[a] for a, b in zip(ms, ms[1:])]
        second = [b - a for a, b in zip(diffs, diffs[1:])]
        rep = VerificationReport(
            "example-f second differences non-constant",
            "pass" if len(set(second)) > 1 else "fail",
            {"second_differences": second},
        )
        ok = _emit_report(rep) and ok
    return ok


def build_parser():
    p = argparse.ArgumentParser(prog="gwrec")
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument(
        "--cache", help="invariant cache file (merged; saved when new or a record was added)"
    )
    p.add_argument(
        "--resolve-atoms", action="store_true",
        help="resolve symbolic atoms through the configured assignments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("invariant", help="evaluate one bracket")
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--ins", default="", help='insertions "m:k,m:pt,..."')
    c.set_defaults(func=cmd_invariant)

    c = sub.add_parser("psi", help="psi intersection number")
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--beta", default="")
    c.set_defaults(func=cmd_psi)

    c = sub.add_parser("n0", help="point invariants and their polynomial")
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--point", help="evaluate the point invariant at m1,m2,...")
    c.add_argument("--d", type=int, default=0)
    c.set_defaults(func=cmd_n0)

    c = sub.add_parser("fit", help="fit the stationary quasi-polynomial")
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--kappa", help="fixed insertions for the decorated fit")
    c.add_argument("--min-m", type=int, dest="min_m")
    c.set_defaults(func=cmd_fit)

    c = sub.add_parser("eo", help="spectral-curve invariant in the pole basis")
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=cmd_eo)

    c = sub.add_parser("verify", help="run one verification")
    c.add_argument(
        "what",
        choices=[
            "top", "negative", "string-divisor", "dilaton", "asymptotics",
            "eo-compare", "eo-string", "pole", "example-f",
        ],
    )
    c.add_argument("--N", type=int, default=1)
    c.add_argument("--g", type=int, default=0)
    c.add_argument("--n", type=int, default=3)
    c.add_argument("--k", default="")
    c.add_argument("--m", default="")
    c.add_argument("--ray", default="1")
    c.add_argument("--max-m", type=int, dest="max_m", default=10)
    c.add_argument("--depth", type=int, default=10)
    c.add_argument("--string-power", type=int, dest="string_power", default=0)
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("cache", help="validate or merge cache files")
    c.add_argument("action", choices=["validate", "merge"])
    c.add_argument("paths", nargs="+")
    c.add_argument("--out")
    c.set_defaults(func=cmd_cache)
    return p


def cmd_cache(args, atoms, engine):
    if args.action == "validate":
        for path in args.paths:
            emit({"path": path, "records": len(load_cache(path))})
        return 0
    if not args.out:
        raise UsageError("cache merge needs --out")
    merged: dict = {}
    lines: dict = {}
    for path in args.paths:
        load_cache(path, merged, lines)
    save_cache(merged, args.out, lines)
    emit({"out": args.out, "records": len(merged)})
    return 0


@functools.cache
def _parser():
    """The argparse tree, built on the first `main` call of the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    engine = Engine()
    lines: dict = {}
    try:
        atoms = load_atoms(args.config) if args.config else {}
        loaded = None
        if args.cache:
            with contextlib.suppress(FileNotFoundError):
                loaded = len(load_cache(args.cache, engine.cache, lines))
        try:
            rc = args.func(args, atoms, engine)
        except InconsistentSamplesError as exc:
            # A fit whose engine values are not quasi-polynomial: a failed
            # check.  The memo holds only exact values, so it is still saved.
            print(f"error: {exc}", file=sys.stderr)
            rc = 1
        # The memo only grows, so a larger memo means the command added a
        # record; a warm run leaves a cache file it read untouched.
        if args.cache and len(engine.cache) != loaded:
            save_cache(engine.cache, args.cache, lines)
        return rc
    except MissingAtomError as exc:
        print(f"error: no value assigned to atom {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # UsageError and CacheConflictError are ValueErrors; an OSError is an
        # unreadable or unwritable --config or --cache path.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
