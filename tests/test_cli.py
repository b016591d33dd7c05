import json
import os
import runpy
import sys
import tempfile
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrec import moduli
from gwrec.algebra import QuasiPoly, SymRat, parse_rat
from gwrec.cli import (
    CacheConflictError,
    UsageError,
    load_atoms,
    load_cache,
    main,
    parse_insertions,
    save_cache,
)
from gwrec.engine import Engine, InvariantKey


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    lines = [json.loads(l) for l in out.out.splitlines() if l.strip()]
    return rc, lines, out.err


_keys = st.builds(
    InvariantKey.make,
    st.integers(1, 3),
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=4),
)
_fractions = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**6))
_atom_names = st.text(alphabet=st.sampled_from('ab"\\é☃]'), min_size=1, max_size=4)
_values = st.one_of(
    st.integers(-50, 50),
    _fractions,
    st.builds(SymRat, _fractions, st.dictionaries(_atom_names, _fractions, max_size=2)),
)


class TestParsing:
    def test_pt_sugar(self):
        assert parse_insertions("2:pt,0:1", 2) == [(2, 2), (0, 1)]

    def test_invalid_exponent(self):
        with pytest.raises(UsageError):
            parse_insertions("0:5", 2)

    def test_malformed(self):
        with pytest.raises(UsageError):
            parse_insertions("nope", 1)


class TestInvariantCommand:
    def test_one_point(self, capsys):
        rc, recs, _ = run(capsys, "invariant", "--N", "1", "--g", "0", "--ins", "2:pt")
        assert rc == 0
        assert recs[0]["value"] == {"scalar": "1/4", "atoms": {}}
        assert recs[0]["degree"] == 2

    def test_no_insertions(self, capsys):
        # the line has one degree-1 map with no marked point
        rc, recs, _ = run(capsys, "invariant", "--N", "1", "--g", "0")
        assert rc == 0
        assert recs[0]["value"] == {"scalar": "1", "atoms": {}}
        assert recs[0]["degree"] == 1

    def test_divisor_alone_at_degree_zero(self, capsys):
        rc, recs, _ = run(capsys, "invariant", "--N", "3", "--g", "0", "--ins", "0:1")
        assert rc == 0
        assert recs[0]["value"] == {"scalar": "0", "atoms": {}}
        assert recs[0]["degree"] == 0

    def test_module_entry_point(self, monkeypatch, capsys):
        # python -m gwrec.cli runs a fresh copy of the module as __main__
        monkeypatch.delitem(sys.modules, "gwrec.cli")
        monkeypatch.setattr(sys, "argv", ["gwrec", "psi", "--g", "1", "--beta", "1"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("gwrec.cli", run_name="__main__")
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["value"] == "1/24"

    def test_unstable_domain_is_zero(self, capsys):
        # genus 1, no marked point, degree 0: no bracket, and no atom
        rc, recs, _ = run(capsys, "invariant", "--N", "1", "--g", "1")
        assert rc == 0
        assert recs[0] == {
            "key": "gw[N=1;g=1;ins=]", "degree": 0,
            "value": {"scalar": "0", "atoms": {}},
        }

    def test_atom_record(self, capsys):
        rc, recs, _ = run(capsys, "invariant", "--N", "1", "--g", "1", "--ins", "0:1")
        assert rc == 0
        assert recs[0]["value"]["atoms"] == {"gw[N=1;g=1;ins=(0,1)]": "1"}

    def test_bad_exponent_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "invariant", "--N", "2", "--g", "0", "--ins", "0:5")
        assert rc == 2
        assert "invalid-exponent" in err

    def test_negative_genus_is_usage_error(self, capsys):
        for argv in (["psi", "--beta", "1,0,0,0,0,0,0"], ["n0", "--n", "5"]):
            rc, recs, err = run(capsys, *argv, "--g", "-1")
            assert rc == 2
            assert recs == []
            assert err.startswith("error:") and "negative genus" in err

    def test_unassigned_atom_is_usage_error(self, capsys):
        rc, recs, err = run(
            capsys, "--resolve-atoms", "invariant", "--N", "1", "--g", "1", "--ins", "0:1"
        )
        assert rc == 2
        assert recs == []
        assert err.startswith("error:") and "gw[N=1;g=1;ins=(0,1)]" in err

    def test_resolve_atoms(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"atoms": {"gw[N=1;g=1;ins=(0,1)]": "-1/24"}}))
        rc, recs, _ = run(
            capsys, "--config", str(cfg), "--resolve-atoms",
            "invariant", "--N", "1", "--g", "1", "--ins", "2:pt",
        )
        assert rc == 0
        assert recs[0]["atomsResolved"] == "1/24"


class TestVerifyCommands:
    def test_top(self, capsys):
        rc, recs, _ = run(capsys, "verify", "top", "--N", "1", "--g", "0", "--n", "4")
        assert rc == 0
        assert recs[0]["status"] == "pass"

    def test_negative(self, capsys):
        rc, recs, _ = run(
            capsys, "verify", "negative", "--N", "2", "--g", "0",
            "--k", "1,2", "--m", "4,7",
        )
        assert rc == 0
        assert recs[0]["status"] == "pass"

    def test_negative_without_primaries_is_usage_error(self, capsys):
        rc, recs, err = run(capsys, "verify", "negative", "--N", "1", "--g", "0")
        assert rc == 2
        assert recs == []
        assert err.startswith("error:")

    def test_eo_compare_needs_atoms(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"atoms": {"gw[N=1;g=1;ins=(0,1)]": "-1/24"}}))
        rc, recs, _ = run(
            capsys, "--config", str(cfg),
            "verify", "eo-compare", "--g", "1", "--n", "1", "--depth", "8",
        )
        assert rc == 0

    def test_samples_off_a_quasi_polynomial_fail_the_check(self, capsys, monkeypatch):
        class OneBracketOff(Engine):
            def invariant(self, N, g, insertions):
                val = super().invariant(N, g, insertions)
                off = InvariantKey.make(N, g, insertions).canonical()
                return val + 1 if off == "gw[N=1;g=0;ins=(0,1),(1,1),(3,1)]" else val

        monkeypatch.setattr("gwrec.cli.Engine", OneBracketOff)
        # The string side reads the three-slot family at level -1, which
        # extrapolates through the wrong bracket.
        rc, recs, err = run(capsys, "verify", "string-divisor", "--n", "2")
        assert rc == 1
        assert [(r["claim"], r["status"]) for r in recs] == [("verify string-divisor", "fail")]
        assert "is not polynomial" in recs[0]["witness"]["error"]
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("negative", "--N", "1", "--g", "2", "--k", "1,1", "--m", "6"),
            ("top", "--N", "1", "--g", "2", "--n", "2"),
        ],
    )
    def test_surplus_in_unresolved_atoms_is_inconclusive(self, capsys, argv):
        # Every nonzero difference beyond the degree bound is an equation in
        # genus-2 atoms: no evidence against quasi-polynomiality.
        rc, recs, err = run(capsys, "verify", *argv)
        assert rc == 1
        assert [r["status"] for r in recs] == ["inconclusive-atoms"]
        assert "gw[N=1;g=2;" in recs[0]["witness"]["error"]
        assert err == ""

    @pytest.mark.parametrize(
        "argv, off",
        [
            # The family through (-1, 1, 2) extrapolates its first slot from
            # the levels 1 and 3; the bracket at level 3 is off.
            (("negative", "--N", "1", "--g", "0", "--k", "0", "--m", "1,2"),
             "gw[N=1;g=0;ins=(1,1),(2,1),(3,1)]"),
            # The fit's coset (1, 1, 1, 1) has surplus nodes at levels 5 and 7
            # on its first axis.
            (("top", "--N", "1", "--g", "0", "--n", "4"),
             "gw[N=1;g=0;ins=(1,1),(1,1),(1,1),(7,1)]"),
        ],
    )
    def test_atom_free_surplus_fails(self, capsys, monkeypatch, argv, off):
        class OneBracketOff(Engine):
            def invariant(self, N, g, insertions):
                val = super().invariant(N, g, insertions)
                key = InvariantKey.make(N, g, insertions).canonical()
                return val + 1 if key == off else val

        monkeypatch.setattr("gwrec.cli.Engine", OneBracketOff)
        rc, recs, _ = run(capsys, "verify", *argv)
        assert rc == 1
        assert [r["status"] for r in recs] == ["fail"]

    def test_asymptotics_with_no_level_on_the_ray_is_usage_error(self, capsys):
        rc, recs, err = run(
            capsys, "verify", "asymptotics", "--N", "1", "--g", "1", "--n", "1",
            "--ray", "1", "--max-m", "-5",
        )
        assert rc == 2
        assert recs == []
        assert "no admissible point up to m = -5" in err

    def test_asymptotics_ray_of_wrong_length_is_usage_error(self, capsys):
        rc, recs, err = run(
            capsys, "verify", "asymptotics", "--N", "1", "--g", "0", "--n", "3",
            "--ray", "1,1",
        )
        assert rc == 2
        assert recs == []
        assert "ray has 2 entries for n = 3 points" in err

    def test_example_f_reports_the_broken_recursion(self, capsys):
        # the two-step recursion printed in the source material does not
        # hold for the engine values; the command reports it honestly
        rc, recs, _ = run(capsys, "verify", "example-f", "--max-m", "9")
        assert rc == 1
        by_claim = {r["claim"]: r for r in recs}
        assert by_claim["example-f second differences non-constant"]["status"] == "pass"
        assert any(
            r["status"] == "fail" for c, r in by_claim.items() if "recursion" in c
        )

    @pytest.mark.parametrize("max_m, recursion", [
        ("3", {"example-f recursion m=3": "-1"}),
        ("5", {"example-f recursion m=3": "-1", "example-f recursion m=5": "-11/3"}),
    ])
    def test_example_f_recursion_witness(self, capsys, max_m, recursion):
        # --max-m 3 is the least that checks a recursion step; the stated
        # recursion's values are pinned, as its verdict is fail either way.
        rc, recs, _ = run(capsys, "verify", "example-f", "--max-m", max_m)
        assert rc == 1
        assert {r["claim"]: r["witness"]["recursion"] for r in recs} == recursion

    @pytest.mark.parametrize(
        "argv",
        [
            ("eo-compare", "--g", "0", "--n", "1", "--depth", "1"),
            ("eo-compare", "--g", "0", "--n", "2", "--depth", "3"),
            ("example-f", "--max-m", "2"),
            ("string-divisor", "--max-m", "-1"),
            ("asymptotics", "--N", "1", "--g", "1", "--n", "1", "--ray", "1", "--max-m", "0"),
        ],
    )
    def test_vacuous_check_is_usage_error(self, capsys, argv):
        rc, recs, err = run(capsys, "verify", *argv)
        assert rc == 2
        assert recs == []
        assert err.startswith("error:")

    def test_dilaton_requires_line(self, capsys):
        rc, _, err = run(capsys, "verify", "dilaton", "--N", "2", "--g", "0")
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("eo-compare", "--N", "2"),
            ("eo-string", "--N", "2"),
            ("pole", "--N", "3"),
            ("example-f", "--N", "2", "--max-m", "5"),
            ("asymptotics", "--N", "1", "--g", "0", "--n", "1", "--ray", "3", "--max-m", "50"),
            ("asymptotics", "--N", "1", "--g", "0", "--n", "2", "--ray", "1,1", "--max-m", "50"),
        ],
    )
    def test_check_outside_its_range_is_usage_error(self, capsys, argv):
        # the line-only checks given another N, and an unstable family,
        # which has no top form
        rc, recs, err = run(capsys, "verify", *argv)
        assert rc == 2
        assert recs == []
        assert err.startswith("error:") and ("N = 1" in err or "unstable" in err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--N", "1", "--k", "1", "--m", "3"),
            ("--N", "1", "--m", "3,4"),
            ("--N", "2", "--m", "3"),
            ("--N", "1", "--k", "0,1"),
        ],
    )
    def test_negative_off_the_coset_passes(self, capsys, argv):
        rc, recs, _ = run(capsys, "verify", "negative", "--g", "0", *argv)
        assert rc == 0
        assert recs[0]["status"] == "pass"

    @pytest.mark.parametrize("argv", [("--N", "2", "--k", "0"), ("--N", "1", "--k", "0,0")])
    def test_negative_at_a_closed_form_pole_is_usage_error(self, capsys, argv):
        rc, recs, err = run(capsys, "verify", "negative", "--g", "0", *argv)
        assert rc == 2
        assert recs == []
        assert "pole" in err

    def test_eo_string(self, capsys):
        rc, recs, _ = run(
            capsys, "verify", "eo-string", "--g", "1", "--n", "1", "--string-power", "1"
        )
        assert rc == 0
        assert recs[0]["status"] == "pass"

    def test_usage_error_exit_code(self, capsys):
        rc = main(["verify", "bogus"])
        assert rc == 2

    def test_parser_is_reused_across_calls(self, capsys):
        # main builds its argparse tree once per process: a second call
        # parses afresh, with no option carried over from the first
        ins = ("invariant", "--N", "1", "--g", "0", "--ins", "0:1,0:1,0:1")
        rc, recs, _ = run(capsys, "--resolve-atoms", *ins)
        assert rc == 0 and recs[0]["atomsResolved"] == "1"
        rc, recs, _ = run(capsys, *ins)
        assert rc == 0 and "atomsResolved" not in recs[0]
        rc, recs, err = run(capsys, "verify", "bogus")
        assert rc == 2 and recs == [] and "invalid choice" in err
        rc, recs, _ = run(capsys, "psi", "--g", "1", "--beta", "1")
        assert rc == 0 and recs[0]["value"] == "1/24"

    @pytest.mark.parametrize("argv", [("fit",), ("verify", "top")])
    def test_negative_degree_bound_is_usage_error(self, capsys, argv):
        rc, recs, err = run(capsys, *argv, "--N", "1", "--g", "0", "--n", "1")
        assert rc == 2
        assert recs == []
        assert "degree bound" in err

    @pytest.mark.parametrize("N", ["-1", "-2"])
    @pytest.mark.parametrize("argv", [
        ("fit", "--g", "0", "--n", "3"),
        ("verify", "top"),
        ("verify", "string-divisor"),
        ("verify", "asymptotics", "--n", "3", "--ray", "1,1,1"),
    ], ids=["fit", "top", "string-divisor", "asymptotics"])
    def test_target_dimension_below_one_is_usage_error(self, capsys, argv, N):
        rc, recs, err = run(capsys, *argv, "--N", N)
        assert rc == 2
        assert recs == []
        assert err == f"error: target dimension N = {N} must be >= 1\n"

    @pytest.mark.parametrize("argv", [("eo",), ("verify", "pole")])
    def test_negative_genus_is_usage_error(self, capsys, argv):
        rc, recs, err = run(capsys, *argv, "--g", "-1", "--n", "5")
        assert rc == 2
        assert recs == []
        assert err.startswith("error:") and "stable range" in err

    def test_unstable_eo_string_names_the_pair_asked_for(self, capsys):
        # the check also reads (g, n + 1) = (0, 2), which the message must
        # not name in place of (0, 1)
        rc, recs, err = run(capsys, "verify", "eo-string", "--g", "0", "--n", "1")
        assert rc == 2
        assert recs == []
        assert "(g, n) = (0, 1) is not in the stable range" in err


class TestPsiN0Commands:
    def test_psi(self, capsys):
        rc, recs, _ = run(capsys, "psi", "--g", "2", "--beta", "4")
        assert rc == 0
        assert recs[0]["value"] == "1/1152"

    def test_n0_polynomial(self, capsys):
        rc, recs, _ = run(capsys, "n0", "--g", "1", "--n", "2")
        assert rc == 0
        # (m1 (m1 - 1) + m1 m2 + m2 (m2 - 1)) / 24: every genus-1 two-point
        # psi number is 1/24
        got = QuasiPoly.from_obj(recs[0])
        assert got.branches[(0, 0)].eval((3, 4)) == Fraction(6 + 12 + 12, 24)

    def test_point_invariant(self, capsys):
        rc, recs, _ = run(capsys, "n0", "--g", "1", "--point", "2", "--d", "1")
        assert rc == 0
        assert recs[0]["value"] == "1/24"

    def test_point_invariant_of_many_extra_points(self, capsys, monkeypatch):
        monkeypatch.setattr(moduli, "_POINT_CACHE", {})
        rc, recs, _ = run(capsys, "n0", "--g", "0", "--point", "2000,0,0", "--d", "2000")
        assert rc == 0
        assert parse_rat(recs[0]["value"]) == Fraction(1, factorial(2000))


class TestCacheIO:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        records = {
            InvariantKey.make(1, 0, [(2, 1)]): SymRat(Fraction(1, 4)),
            InvariantKey.make(1, 1, [(0, 1)]): SymRat.atom("gw[N=1;g=1;ins=(0,1)]"),
        }
        save_cache(records, path)
        assert load_cache(path) == records

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        save_cache({InvariantKey.make(1, 0, [(2, 1)]): SymRat(Fraction(1, 4))}, path)
        path.write_text("\n" + path.read_text() + "\n  \n")
        rc, recs, _ = run(capsys, "cache", "validate", str(path))
        assert rc == 0
        assert recs == [{"path": str(path), "records": 1}]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_cache(path) == {}

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"key": "gw[N=1;g=0;ins=(2,1)]"}\n')
        with pytest.raises(UsageError) as err:
            load_cache(path)
        assert ":1:" in str(err.value)

    def test_conflict(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rec1 = {"key": "gw[N=1;g=0;ins=(2,1)]", "value": {"scalar": "1/4", "atoms": {}}}
        rec2 = {"key": "gw[N=1;g=0;ins=(2,1)]", "value": {"scalar": "1/5", "atoms": {}}}
        path.write_text(json.dumps(rec1) + "\n" + json.dumps(rec2) + "\n")
        with pytest.raises(CacheConflictError):
            load_cache(path)

    def test_cli_cache_flag_persists(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        rc, _, _ = run(
            capsys, "--cache", str(path),
            "invariant", "--N", "1", "--g", "0", "--ins", "4:pt",
        )
        assert rc == 0
        records = load_cache(path)
        assert InvariantKey.make(1, 0, [(4, 1)]) in records

    def test_cache_merge_command(self, tmp_path, capsys):
        a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "m.jsonl"
        save_cache({InvariantKey.make(1, 0, [(2, 1)]): SymRat(Fraction(1, 4))}, a)
        save_cache({InvariantKey.make(1, 0, [(4, 1)]): SymRat(Fraction(1, 36))}, b)
        rc, recs, _ = run(capsys, "cache", "merge", str(a), str(b), "--out", str(out))
        assert rc == 0
        assert len(load_cache(out)) == 2

    def test_failed_save_keeps_previous_cache(self, tmp_path):
        class Unwritable(SymRat):
            def to_obj(self):
                raise RuntimeError("record cannot be serialised")

        path = tmp_path / "cache.jsonl"
        good = {InvariantKey.make(1, 0, [(2, 1)]): SymRat(Fraction(1, 4))}
        save_cache(
            {**good, InvariantKey.make(1, 0, [(6, 1)]): SymRat(Fraction(1, 576))}, path
        )
        before = path.read_bytes()
        # The unwritable record fails the save once the temporary file is
        # open, and the file it would have replaced differs from the new one.
        bad = {**good, InvariantKey.make(1, 0, [(4, 1)]): Unwritable(Fraction(1, 36))}
        with pytest.raises(RuntimeError):
            save_cache(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]

    @pytest.mark.parametrize("line", [
        "[1]",
        '{"key": 5, "value": {"scalar": "1"}}',
        '{"key": "gw[N=1;g=0;ins=(2,1)]", "value": "1/4"}',
        '{"key": "gw[N=1;g=0;ins=(2,1)]", "value": {"scalar": "1/0"}}',
    ], ids=["not-an-object", "key-not-a-string", "value-not-an-object", "zero-denominator"])
    def test_malformed_record_shapes(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(UsageError, match=":1: malformed"):
            load_cache(path)

    def test_zero_record_where_no_degree_fits_loads(self, tmp_path, capsys):
        # Older cache files hold such records from the chain brackets.
        path = tmp_path / "cache.jsonl"
        key = "gw[N=1;g=1;ins=(0,0)]"
        value = {"scalar": "0", "atoms": {}}
        path.write_text(json.dumps({"key": key, "value": value}) + "\n")
        rc, recs, _ = run(
            capsys, "--cache", str(path), "invariant", "--N", "1", "--g", "1",
            "--ins", "0:0",
        )
        assert rc == 0
        assert recs == [{"key": key, "degree": None, "value": value}]

    def test_key_where_no_degree_fits_is_not_cached(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        rc, recs, _ = run(
            capsys, "--cache", str(path), "invariant", "--N", "1", "--g", "1",
            "--ins", "0:0",
        )
        assert rc == 0
        assert recs[0]["value"] == {"scalar": "0", "atoms": {}}
        assert path.read_bytes() == b""

    def test_engine_memo_round_trip(self, tmp_path):
        eng = Engine()
        eng.invariant(1, 0, [(2, 1)])
        eng.invariant(1, 1, [(0, 1)])
        path = tmp_path / "cache.jsonl"
        save_cache(eng.cache, path)
        assert load_cache(path, Engine().cache) == eng.cache

    def test_conflict_with_engine_memo(self, tmp_path):
        eng = Engine()
        eng.invariant(1, 0, [(2, 1)])
        key = next(iter(eng.cache))
        path = tmp_path / "bad.jsonl"
        save_cache({key: SymRat(999)}, path)
        with pytest.raises(CacheConflictError, match=":1: conflicting value"):
            load_cache(path, eng.cache)

    def test_warm_run_leaves_cache_file_untouched(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        argv = ("--cache", str(path), "invariant", "--N", "1", "--g", "0", "--ins", "4:pt")
        assert run(capsys, *argv)[0] == 0
        before = path.stat()
        data = path.read_bytes()
        assert run(capsys, *argv)[0] == 0
        after = path.stat()
        assert path.read_bytes() == data
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_missing_cache_is_created(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        rc, _, _ = run(capsys, "--cache", str(path), "psi", "--g", "1", "--beta", "1")
        assert rc == 0
        assert path.read_bytes() == b""


def _reference_load(path, records=None) -> dict:
    """The cache reader before canonical lines were read from a regex
    match: every line through the JSON decoder."""
    records = {} if records is None else records
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                key = InvariantKey.parse(obj["key"]).checked()
                val = SymRat.from_obj(obj["value"])
                if key.g == 0:
                    val = val.rational()
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
    return records


def _reference_line(key, val) -> str:
    return json.dumps({"key": key.canonical(), "value": SymRat.of(val).to_obj()}) + "\n"


def _reference_save(records) -> bytes:
    """The cache bytes before kept lines: every record through the JSON
    encoder, sorted by canonical key."""
    lines = sorted((key.canonical(), _reference_line(key, val)) for key, val in records.items())
    return "".join(line for _, line in lines).encode()


def _assert_loads_like_reference(path):
    """`load_cache` returns the reference reader's records, with the same
    value types, or raises its exception at the same line; each line it
    keeps is the reference writer's line for that record."""
    try:
        want = _reference_load(path)
    except (UsageError, CacheConflictError) as exc:
        with pytest.raises(type(exc)) as err:
            load_cache(path, None, {})
        assert str(err.value) == str(exc)
        return
    lines: dict = {}
    got = load_cache(path, None, lines)
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
    for key, line in lines.items():
        assert line == _reference_line(key, got[key])


def _line(key, value):
    return json.dumps({"key": key, "value": value})


# The spellings of a record that the two readers must treat alike: canonical
# records, records the JSON decoder accepts in another form, and malformed ones.
_VARIANT_LINES = {
    "canonical": _line("gw[N=1;g=0;ins=(0,1),(2,1)]", {"scalar": "1/4", "atoms": {}}),
    "canonical-genus-1": _line("gw[N=1;g=1;ins=(1,0)]", {"scalar": "1/24", "atoms": {}}),
    "canonical-zero": _line("gw[N=1;g=1;ins=(0,0)]", {"scalar": "0", "atoms": {}}),
    "canonical-integer": _line("gw[N=3;g=0;ins=(0,2),(0,2),(0,2),(0,2),(0,2),(0,2),(0,2),(0,2)]",
                               {"scalar": "92", "atoms": {}}),
    "canonical-negative": _line("gw[N=1;g=0;ins=(1,0)]", {"scalar": "-2", "atoms": {}}),
    "no-insertions": _line("gw[N=1;g=0;ins=]", {"scalar": "0", "atoms": {}}),
    "genus-0-zero-atom": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": "1/4", "atoms": {"x": "0"}}),
    "genus-0-null-atoms": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": "1/4", "atoms": None}),
    "atoms-omitted": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": "1/4"}),
    "genus-1-atom": _line("gw[N=1;g=1;ins=(0,0),(1,1)]", {"scalar": "0", "atoms": {"a": "1"}}),
    "value-not-a-dict": _line("gw[N=1;g=0;ins=(2,1)]", ["1/4"]),
    "scalar-not-a-string": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": 0.25, "atoms": {}}),
    "unreduced": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": "2/8", "atoms": {}}),
    "over-one": _line("gw[N=1;g=0;ins=(1,0)]", {"scalar": "-2/1", "atoms": {}}),
    "zero-over-q": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": "0/5", "atoms": {}}),
    "minus-zero": _line("gw[N=1;g=1;ins=(0,0)]", {"scalar": "-0", "atoms": {}}),
    "plus-sign": _line("gw[N=1;g=0;ins=(1,0)]", {"scalar": "+5", "atoms": {}}),
    "leading-space": _line("gw[N=1;g=0;ins=(1,0)]", {"scalar": " 5", "atoms": {}}),
    "underscore": _line("gw[N=1;g=0;ins=(1,0)]", {"scalar": "1_000", "atoms": {}}),
    "leading-zeros": _line("gw[N=1;g=0;ins=(1,0)]", {"scalar": "007", "atoms": {}}),
    "non-ascii-digit": json.dumps({"key": "gw[N=1;g=0;ins=(1,0)]",
                                   "value": {"scalar": "1٥", "atoms": {}}}, ensure_ascii=False),
    "non-ascii-level": json.dumps({"key": "gw[N=1;g=0;ins=(1٢,1)]",
                                   "value": {"scalar": "1/4", "atoms": {}}}, ensure_ascii=False),
    "zero-denominator": _line("gw[N=1;g=0;ins=(2,1)]", {"scalar": "1/0", "atoms": {}}),
    "fields-reordered": _line("gw[g=0;ins=(2,1);N=1]", {"scalar": "1/4", "atoms": {}}),
    "object-reordered": json.dumps({"value": {"atoms": {}, "scalar": "1/4"},
                                    "key": "gw[N=1;g=0;ins=(2,1)]"}),
    "compact-json": json.dumps({"key": "gw[N=1;g=0;ins=(2,1)]",
                                "value": {"scalar": "1/4", "atoms": {}}}, separators=(",", ":")),
    "spaces-in-insertions": _line("gw[N=1;g=0;ins=( 0, 1),(2 ,1)]", {"scalar": "1/4", "atoms": {}}),
    "double-parentheses": _line("gw[N=1;g=0;ins=((2,1))]", {"scalar": "1/4", "atoms": {}}),
    "unsorted": _line("gw[N=1;g=0;ins=(2,1),(0,1)]", {"scalar": "1/4", "atoms": {}}),
    "leading-zero-level": _line("gw[N=1;g=0;ins=(02,1)]", {"scalar": "1/4", "atoms": {}}),
    "k-above-N": _line("gw[N=1;g=0;ins=(1,2)]", {"scalar": "1/4", "atoms": {}}),
    "N-zero": _line("gw[N=0;g=0;ins=(2,0)]", {"scalar": "0", "atoms": {}}),
    "nonzero-without-degree": _line("gw[N=1;g=0;ins=(1,1)]", {"scalar": "3", "atoms": {}}),
    "conflict": _line("gw[N=1;g=0;ins=(0,1),(2,1)]", {"scalar": "1/5", "atoms": {}}),
    "long-value": _line("gw[N=1;g=0;ins=(2,1)]",
                        {"scalar": "1/" + "7" * 4301 + "3", "atoms": {}}),
    "long-unreduced-value": _line("gw[N=1;g=0;ins=(2,1)]",
                                  {"scalar": "2/" + "8" * 4500, "atoms": {}}),
    "long-level": _line("gw[N=1;g=0;ins=(" + "1" * 4400 + ",1)]", {"scalar": "0", "atoms": {}}),
    "not-json": "{\"key\": ",
    "blank": "   ",
}


class TestCacheText:
    """`load_cache` reads a canonical line from a regex match and keeps it,
    and `save_cache` writes kept lines back as they were read: the records
    and the bytes written are those of the JSON decoder and encoder."""

    @pytest.mark.parametrize("name", sorted(_VARIANT_LINES))
    def test_each_spelling_loads_like_the_reference(self, tmp_path, name):
        path = tmp_path / "cache.jsonl"
        path.write_text(_VARIANT_LINES["canonical"] + "\n" + _VARIANT_LINES[name] + "\n")
        _assert_loads_like_reference(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_endings_and_blank_lines(self, tmp_path, ending):
        path = tmp_path / "cache.jsonl"
        body = ["", _VARIANT_LINES["unreduced"], "  ", _VARIANT_LINES["canonical-genus-1"], ""]
        # The last record, a canonical one, has no line ending.
        path.write_bytes((ending.join(body) + _VARIANT_LINES["canonical"]).encode())
        _assert_loads_like_reference(path)
        lines: dict = {}
        records = load_cache(path, None, lines)
        assert len(records) == 3 and len(lines) == 2
        out = tmp_path / "out.jsonl"
        save_cache(records, out, lines)
        assert out.read_bytes() == _reference_save(records)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(sorted(_VARIANT_LINES)), max_size=8),
           st.lists(st.sampled_from(["\n", "\r\n"]), min_size=8, max_size=8), st.booleans())
    def test_any_mix_loads_like_the_reference(self, names, endings, final_newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            text = "".join(_VARIANT_LINES[n] + e for n, e in zip(names, endings))
            if text and not final_newline:
                text = text.rstrip("\r\n")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            _assert_loads_like_reference(path)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(_keys, _values, max_size=12))
    def test_save_writes_the_reference_bytes(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            save_cache(records, path)
            with open(path, "rb") as fh:
                data = fh.read()
            assert data == _reference_save(records)
            # A file the reader accepts is written back unchanged from the
            # lines it kept.
            try:
                _reference_load(path)
            except UsageError:
                return
            lines: dict = {}
            again = os.path.join(tmp, "again.jsonl")
            save_cache(load_cache(path, None, lines), again, lines)
            with open(again, "rb") as fh:
                assert fh.read() == data

    def test_non_canonical_file_is_rewritten_canonically(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        names = ["unsorted", "canonical-genus-1", "over-one", "canonical-integer",
                 "genus-1-atom", "long-unreduced-value", "canonical-zero"]
        path.write_text("\r\n".join(_VARIANT_LINES[n] for n in names) + "\n\n")
        lines: dict = {}
        records = load_cache(path, None, lines)
        assert len(records) == 7 and len(lines) == 3
        out = tmp_path / "out.jsonl"
        save_cache(records, out, lines)
        assert out.read_bytes() == _reference_save(_reference_load(path))


class TestCacheRecordsCheckedLikeInput:
    """A cache record whose key the engine would reject or names a field
    twice or a field other than N, g and ins, a genus-0 record that carries
    an atom, or a nonzero record for a key no degree fits, is malformed
    wherever a cache file is read."""

    @pytest.fixture(params=[
        ("gw[N=0;g=-1;ins=(-3,7)]", {"scalar": "5"}),
        ("gw[N=1;g=0;ins=(0,1),(2,1)]", {"scalar": "0", "atoms": {"x": "1"}}),
        ("gw[N=1;g=1;ins=(0,0)]", {"scalar": "5", "atoms": {}}),
        # The same record spelled off the canonical form, read as JSON.
        ("gw[g=1;N=1;ins=(0,0)]", {"scalar": "5", "atoms": {}}),
        ("gw[N=1;N=2;g=0;ins=(1,0)]", {"scalar": "0", "atoms": {}}),
        ("gw[N=1;g=0;ins=(1,0);foo=bar]", {"scalar": "0", "atoms": {}}),
    ], ids=["key-out-of-range", "genus-0-atom", "nonzero-where-no-degree-fits",
            "nonzero-where-no-degree-fits-json", "repeated-field", "unknown-field"])
    def bad(self, request, tmp_path):
        path = tmp_path / "bad.jsonl"
        key, value = request.param
        path.write_text(json.dumps({"key": key, "value": value}) + "\n")
        return path

    def test_validate(self, capsys, bad):
        rc, recs, err = run(capsys, "cache", "validate", str(bad))
        assert rc == 2
        assert recs == []
        assert "bad.jsonl:1: malformed cache record" in err

    def test_cache_flag(self, capsys, bad):
        rc, recs, err = run(
            capsys, "--cache", str(bad), "invariant", "--N", "1", "--g", "0",
            "--ins", "2:1,0:1,0:1",
        )
        assert rc == 2
        assert recs == []
        assert "bad.jsonl:1: malformed cache record" in err


class TestTwoSpellingsOfOneKey:
    """Two spellings of one key with different values conflict wherever a
    cache file is read."""

    @pytest.fixture
    def dup(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        recs = [
            ("gw[N=1;g=0;ins=(2,1)]", "1/4"),
            ("gw[N=1;g=0;ins=(4,1),(0,1)]", "7"),
            ("gw[N=1;g=0;ins=(0,1),(4,1)]", "5"),
        ]
        path.write_text("".join(
            json.dumps({"key": k, "value": {"scalar": v, "atoms": {}}}) + "\n"
            for k, v in recs
        ))
        return path

    def test_validate(self, capsys, dup):
        rc, recs, err = run(capsys, "cache", "validate", str(dup))
        assert rc == 2
        assert recs == []
        assert "dup.jsonl:3: conflicting value" in err

    def test_merge(self, capsys, tmp_path, dup):
        good, out = tmp_path / "good.jsonl", tmp_path / "m.jsonl"
        save_cache({InvariantKey.make(1, 0, [(2, 1)]): SymRat(Fraction(1, 4))}, good)
        rc, _, err = run(capsys, "cache", "merge", str(good), str(dup), "--out", str(out))
        assert rc == 2
        assert "conflicting value" in err
        assert not out.exists()

    def test_cache_flag(self, capsys, dup):
        rc, _, err = run(capsys, "--cache", str(dup), "psi", "--g", "1", "--beta", "1")
        assert rc == 2
        assert "conflicting value" in err


class TestConfig:
    def test_bad_atom_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"atoms": {"x": "not-a-number"}}))
        with pytest.raises(UsageError):
            load_atoms(cfg)

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        rc, recs, err = run(capsys, "--config", str(missing), "psi", "--g", "1", "--beta", "1")
        assert rc == 2
        assert recs == []
        assert err.startswith("error:") and "missing.json" in err

    @pytest.mark.parametrize("body", [[], {"atoms": ["x"]}])
    def test_non_object_config_is_usage_error(self, capsys, tmp_path, body):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        with pytest.raises(UsageError):
            load_atoms(cfg)
        rc, recs, err = run(capsys, "--config", str(cfg), "psi", "--g", "1", "--beta", "1")
        assert rc == 2
        assert recs == []
        assert err.startswith("error:")

    def test_cache_directory_is_usage_error(self, capsys, tmp_path):
        rc, recs, err = run(capsys, "--cache", str(tmp_path), "psi", "--g", "1", "--beta", "1")
        assert rc == 2
        assert recs == []
        assert err.startswith("error:")


class TestGoldenOutputs:
    def test_fit_on_an_unstable_domain_is_zero(self, capsys):
        rc, recs, _ = run(capsys, "fit", "--N", "1", "--g", "1", "--n", "0")
        assert rc == 0
        assert recs == [{"N": 1, "nvars": 0, "branches": []}]

    def test_fit_of_samples_off_a_quasi_polynomial_fails(self, capsys, monkeypatch):
        class ConstantEngine(Engine):
            # c-normalised values become c_2(m), which grows factorially
            def invariant(self, N, g, insertions):
                return SymRat(1)

        monkeypatch.setattr("gwrec.cli.Engine", ConstantEngine)
        rc, recs, err = run(capsys, "fit", "--N", "1", "--g", "1", "--n", "1")
        assert rc == 1
        assert recs == []
        assert err.startswith("error:") and "beyond degree" in err

    def test_failed_fit_saves_the_records_it_computed(self, capsys, tmp_path):
        # The genus-2 surplus differences are equations in atoms: `fit`
        # fails where `verify top` reports them, and both computed the same
        # exact memo.
        fit, top = tmp_path / "fit.jsonl", tmp_path / "top.jsonl"
        rc, recs, err = run(capsys, "--cache", str(fit), "fit", "--N", "1", "--g", "2", "--n", "2")
        assert (rc, recs) == (1, [])
        assert err.startswith("error:") and "beyond degree" in err
        rc, recs, _ = run(capsys, "--cache", str(top), "verify", "top", "--N", "1", "--g", "2",
                          "--n", "2")
        assert rc == 1 and recs[0]["status"] == "inconclusive-atoms"
        assert len(load_cache(fit)) == 292
        assert fit.read_bytes() == top.read_bytes()

    def test_fit_genus1_table_row(self, capsys):
        rc, recs, _ = run(capsys, "fit", "--N", "1", "--g", "1", "--n", "1",
                          "--min-m", "0")
        assert rc == 0
        (branch,) = recs[0]["branches"]
        assert branch["residues"] == [0]
        terms = {tuple(t["exps"]): t["coeff"] for t in branch["terms"]}
        assert terms[(1,)] == {"scalar": "1/24", "atoms": {}}
        assert terms[(0,)]["atoms"] == {"gw[N=1;g=1;ins=(0,1)]": "1"}

    def test_fit_with_fixed_insertions(self, capsys):
        rc, recs, _ = run(capsys, "fit", "--N", "1", "--g", "0", "--n", "2",
                          "--kappa", "0:1")
        assert rc == 0 and recs[0]["branches"]

    def test_eo_command(self, capsys):
        rc, recs, _ = run(capsys, "eo", "--g", "1", "--n", "1")
        assert rc == 0
        terms = {tuple(map(tuple, t["assignment"])): t["coeff"]
                 for t in recs[0]["terms"]}
        assert terms[((1, 4),)] == "1/16"
