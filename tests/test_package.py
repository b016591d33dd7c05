"""The package's lazy exports: `import gwrec` loads no submodule, a name
loads only the submodules it needs, and every export resolves to the
object its submodule defines."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gwrec

SRC = str(Path(gwrec.__file__).resolve().parents[1])

ALL = [
    "DEFAULT_ENGINE", "Engine", "FitSpec", "InfinitySeries", "InvariantKey",
    "LaurentSeries", "MultiPoly", "PoleBasisDifferential", "QuasiPoly",
    "SpectralCurve", "StationaryFamily", "SymRat", "UnstableKeyError",
    "VerificationReport", "algebra", "asymptotics_report", "c_factor",
    "compare_eo_gw", "degree_of", "engine", "eo", "eo_invariant",
    "eo_string_dilaton_check", "expand_at_infinity", "fit_stationary",
    "format_rat", "gw_generating", "moduli", "n0_polynomial", "parse_rat",
    "point_invariant", "point_invariant_closed", "point_invariant_string",
    "pole_asymptotics_check", "psi_intersection", "quasi_fit", "quasifit",
    "stationary_family", "verify_dilaton_derivative",
    "verify_negative_evaluation", "verify_p_string_divisor",
    "verify_top_coefficients",
]
SUBMODULES = {"algebra", "engine", "eo", "moduli", "quasifit"}


def _added_modules(statement) -> set:
    """The modules that `statement` adds to sys.modules in a fresh
    interpreter, beyond those that start-up (site) had already loaded."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(run.stdout))


class TestStartUp:
    def test_import_loads_no_submodule(self):
        assert _added_modules("import gwrec") == {"gwrec"}

    def test_engine_loads_only_the_algebra(self):
        added = _added_modules("from gwrec.engine import Engine")
        assert {m for m in added if m.split(".")[0] == "gwrec"} == {
            "gwrec", "gwrec.engine", "gwrec.algebra"
        }

    def test_cli_loads_no_introspection(self):
        added = _added_modules("import gwrec.cli")
        assert "gwrec.eo" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


class TestExports:
    def test_all_is_pinned(self):
        assert gwrec.__all__ == ALL

    @pytest.mark.parametrize("name", ALL)
    def test_export_is_the_submodules_object(self, name):
        value = getattr(gwrec, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"gwrec.{name}")
            return
        modules = [importlib.import_module(f"gwrec.{m}") for m in sorted(SUBMODULES)]
        holders = [m for m in modules if hasattr(m, name)]
        assert holders and all(getattr(m, name) is value for m in holders)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from gwrec import *", namespace)
        assert set(ALL) <= set(namespace)
        assert all(namespace[name] is getattr(gwrec, name) for name in ALL)

    def test_dir_lists_every_export(self):
        assert set(ALL) <= set(dir(gwrec))
        assert "__version__" in dir(gwrec)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gwrec.no_such_name
        assert not hasattr(gwrec, "no_such_name")
