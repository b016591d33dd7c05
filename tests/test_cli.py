import json
from fractions import Fraction

import pytest

from gwrec.algebra import SymRat
from gwrec.cli import (
    CacheConflictError,
    Config,
    UsageError,
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

    def test_atom_record(self, capsys):
        rc, recs, _ = run(capsys, "invariant", "--N", "1", "--g", "1", "--ins", "0:1")
        assert rc == 0
        assert recs[0]["value"]["atoms"] == {"gw[N=1;g=1;ins=(0,1)]": "1"}

    def test_bad_exponent_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "invariant", "--N", "2", "--g", "0", "--ins", "0:5")
        assert rc == 2
        assert "invalid-exponent" in err

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

    def test_usage_error_exit_code(self, capsys):
        rc = main(["verify", "bogus"])
        assert rc == 2

    @pytest.mark.parametrize("y_trunc", ["0", "-2"])
    def test_eo_truncation_below_one_is_usage_error(self, capsys, y_trunc):
        rc, recs, err = run(capsys, "eo", "--g", "1", "--n", "1", "--y-trunc", y_trunc)
        assert rc == 2
        assert recs == []
        assert "y_trunc must be >= 1" in err

    @pytest.mark.parametrize("argv", [("fit",), ("verify", "top")])
    def test_negative_degree_bound_is_usage_error(self, capsys, argv):
        rc, recs, err = run(capsys, *argv, "--N", "1", "--g", "0", "--n", "1")
        assert rc == 2
        assert recs == []
        assert "degree bound" in err

    @pytest.mark.parametrize("argv", [("eo",), ("verify", "pole")])
    def test_negative_genus_is_usage_error(self, capsys, argv):
        rc, recs, err = run(capsys, *argv, "--g", "-1", "--n", "5")
        assert rc == 2
        assert recs == []
        assert err.startswith("error:") and "stable range" in err


class TestPsiN0Commands:
    def test_psi(self, capsys):
        rc, recs, _ = run(capsys, "psi", "--g", "2", "--beta", "4")
        assert rc == 0
        assert recs[0]["value"] == "1/1152"

    def test_point_invariant(self, capsys):
        rc, recs, _ = run(capsys, "n0", "--g", "1", "--point", "2", "--d", "1")
        assert rc == 0
        assert recs[0]["value"] == "1/24"


class TestCacheIO:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cache.jsonl"
        records = {
            InvariantKey.make(1, 0, [(2, 1)]): SymRat(Fraction(1, 4)),
            InvariantKey.make(1, 1, [(0, 1)]): SymRat.atom("gw[N=1;g=1;ins=(0,1)]"),
        }
        save_cache(records, path)
        assert load_cache(path) == records

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
        # The unwritable record sorts after the good one, so the write fails
        # partway through, after a prefix that differs from the old file.
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


class TestCacheRecordsCheckedLikeInput:
    """A cache record whose key the engine would reject, or a genus-0 record
    that carries an atom, is malformed wherever a cache file is read."""

    @pytest.fixture(params=[
        ("gw[N=0;g=-1;ins=(-3,7)]", {"scalar": "5"}),
        ("gw[N=1;g=0;ins=(0,1),(2,1)]", {"scalar": "0", "atoms": {"x": "1"}}),
    ], ids=["key-out-of-range", "genus-0-atom"])
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
            Config.load(cfg)

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
            Config.load(cfg)
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
