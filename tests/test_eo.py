import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest

from gwrec.algebra import LaurentSeries
from gwrec.engine import DEFAULT_ENGINE as E
from gwrec.engine import Engine
from gwrec.eo import (
    PoleBasisDifferential,
    SpectralCurve,
    _chart_order,
    _w_series,
    compare_eo_gw,
    eo_invariant,
    eo_string_dilaton_check,
    expand_at_infinity,
    gw_generating,
    pole_asymptotics_check,
)
from gwrec.moduli import psi_intersection

ATOMS = {"gw[N=1;g=1;ins=(0,1)]": Fraction(-1, 24)}


class TestRecursion:
    def test_omega03_is_the_half_basis(self):
        w = eo_invariant(0, 3)
        assert w.coeffs == {
            ((1, 2), (1, 2), (1, 2)): Fraction(1, 2),
            ((-1, 2), (-1, 2), (-1, 2)): Fraction(1, 2),
        }

    def test_omega11_orders_and_leading(self):
        w = eo_invariant(1, 1)
        assert w.max_order() == 4
        assert w.coefficient(((1, 4),)) == Fraction(1, 16)
        assert w.coefficient(((-1, 4),)) == Fraction(1, 16)

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (0, 5), (2, 2)])
    def test_symmetry_and_residue_freeness(self, g, n):
        w = eo_invariant(g, n)
        assert w.is_symmetric()
        for assign in w.coeffs:
            for _, k in assign:
                assert 2 <= k <= 6 * g - 4 + 2 * n

    def test_asymmetric_differential_is_detected(self):
        assert not PoleBasisDifferential(0, 2, {((1, 2), (1, 3)): Fraction(1)}).is_symmetric()

    def test_asymmetry_in_the_last_slots_is_detected(self):
        # symmetric under swapping slots 0 and 1, not under slots 1 and 2
        pd = PoleBasisDifferential(0, 3, {((1, 2), (1, 2), (1, 3)): Fraction(1)})
        assert not pd.is_symmetric()
        pd.coeffs[((1, 2), (1, 3), (1, 2))] = Fraction(1)
        assert not pd.is_symmetric()
        pd.coeffs[((1, 3), (1, 2), (1, 2))] = Fraction(1)
        assert pd.is_symmetric()

    def test_genus2_leading_coefficient(self):
        w = eo_invariant(2, 1)
        want = (
            Fraction(2) ** (5 - 10 - 2)
            * Fraction(factorial(9), factorial(4))
            * psi_intersection(2, (4,))
        )
        assert w.coefficient(((1, 10),)) == want
        assert w.coefficient(((-1, 10),)) == want


def _y_truncated(z, M):
    """y_M(z) = -sum_{k=1}^{M} (1 - z^2)^k / (2k) on the series z: ln z to
    order M in 1 - z^2, which has valuation 1 at both branch points."""
    u = 1 - z * z
    out, uk = u * 0, u
    for k in range(1, M + 1):
        out = out - uk * Fraction(1, 2 * k)
        uk = uk * u
    return out


class TestChartLogarithm:
    """The chart's y is the exact series of ln z: each polynomial
    truncation y_M agrees with it through t^M and no further, at z and, with
    the sign of y(1/z) = -y(z), at zhat = 1/z."""

    @pytest.mark.parametrize("alpha", [1, -1])
    @pytest.mark.parametrize("M", [1, 2, 5, 9])
    def test_y_is_the_limit_of_its_truncations(self, alpha, M):
        ch = SpectralCurve().chart(alpha, 16)
        for arg, want in [(ch.z, ch.ym_z), (ch.zhat, -ch.ym_z)]:
            got = _y_truncated(arg, M)
            for e in range(M + 1):
                assert got.coefficient(e) == want.coefficient(e), (arg, e)
            assert got.coefficient(M + 1) != want.coefficient(M + 1)


class TestMirrorCharts:
    """omega only runs the chart at +1 and reflects it; these run the chart
    at -1 directly and hold it against the reflection."""

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1)])
    def test_minus_chart_is_the_reflected_plus_chart(self, g, n):
        curve = SpectralCurve()
        plus = curve._chart_terms(g, n, 1)
        minus = curve._chart_terms(g, n, -1)
        assert plus and all(a[0][0] == 1 for a in plus)
        reflected = {
            tuple((-a, k) for a, k in assign): c * (-1) ** sum(k for _, k in assign)
            for assign, c in plus.items()
        }
        assert minus == reflected
        assert curve.omega(g, n).coeffs == {**plus, **minus}


# sha256 of json.dumps(omega(g, n).to_obj(), sort_keys=True).  (1, 3), (2, 1),
# (2, 2) and (0, 5) were computed with the recursion run on both charts in
# Fraction arithmetic, the others with ln z replaced by its truncation y_M,
# M = 6g - 4 + 2n; the exact series of ln z gives the same digests.
GOLDEN_OMEGA = {
    (0, 3): "70545704a42a519d6278363741616a7a02ddc7bbcc8c5547a94f9342ff80f4b7",
    (0, 4): "0c04040dd6fa63e3ce024daa02d2ca4c37dcca02ee085f2f10d3a4452dd74ed4",
    (1, 1): "adf42259169ba4db414d0afed63a146859111af26a674db3231f68f8c4861b38",
    (1, 2): "98faff7f849f3873e41e928e2f594958cacc07c8a9d3fafe06d070e822f75075",
    (1, 4): "56be9c65107dfa64479d11542e759d61731f903e9a13f014113556258c092449",
    (1, 3): "2aaa849fed9cc478a9c5ce1f1473f753904f41b2b93d12fa6682198533be3d1f",
    (2, 1): "8e3abf8445c5864e505ebe77fc4093c8e6b4e8104a08303386eed0c2174f0002",
    (2, 2): "5748c4a37a1b10c370c0e87fcea58504cadcce39b6d002aaf2e8eefe4208c501",
    (0, 5): "330d0b4834a8b9f531cc3e10c183a7541a95b0405fc6f53e38e8f096cc16adf3",
}


@pytest.mark.parametrize("g,n", sorted(GOLDEN_OMEGA))
def test_omega_golden_digest(g, n):
    record = json.dumps(eo_invariant(g, n).to_obj(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_OMEGA[(g, n)]


class TestExpansion:
    def test_branch_solution_satisfies_the_curve(self):
        w = _w_series(16)
        # w + 1/w - 1/u should vanish to the tracked order at u = 1/10
        z = w.invert()
        x = LaurentSeries("u", "inf", -1, [1], 16)
        err = (z + w - x).eval_at(Fraction(1, 10))
        assert abs(err) <= Fraction(1, 10) ** 13

    def test_basis_element_head(self):
        pd = eo_invariant(0, 3)
        es = expand_at_infinity(pd, 10)
        # the all-minimal slot is the three-point count
        assert es.coefficient((2, 2, 2)) == 1

    def test_linearity_against_rational_point(self):
        # expansion of dz/(z-1)^2 evaluated at x0 = 10 matches the exact
        # rational value within the truncation tail
        from gwrec.eo import _basis_series, _zp_series

        depth = 24
        w = _w_series(depth)
        series = _basis_series(1, 2, w, _zp_series(w))
        x0 = Fraction(10)
        approx = series.eval_at(1 / x0)
        z0 = w.invert().eval_at(1 / x0)  # branch value, itself truncated
        exact = (1 / (1 - z0 ** -2)) / (z0 - 1) ** 2
        assert abs(approx - exact) <= Fraction(1, 10**15)


class TestGenerating:
    def test_one_point_series(self):
        gw = gw_generating(0, 1, 12)
        for d in range(1, 6):
            m = 2 * d - 2
            want = Fraction(factorial(2 * d - 1), factorial(d) ** 2)
            assert gw[(m,)].rational() == want

    def test_three_point_base_slot(self):
        gw = gw_generating(0, 3, 8)
        assert gw[(0, 0, 0)].rational() == 1

    def test_genus1_slot_resolves(self):
        gw = gw_generating(1, 1, 6)
        v = gw[(2,)].resolve(ATOMS)
        assert v == factorial(3) * (Fraction(1, 12) - Fraction(1, 24))


class TestComparison:
    @pytest.mark.parametrize(
        "g,n,depth",
        [
            (0, 3, 12), (0, 4, 12), (1, 1, 12), (1, 2, 10), (0, 1, 12), (0, 2, 12),
            (0, 2, 16),
        ],
    )
    def test_matches_gw(self, g, n, depth):
        rep = compare_eo_gw(g, n, depth, atom_values=ATOMS)
        assert rep.status == "pass", rep.to_obj()

    def test_atom_value_is_forced(self):
        # the x^-2 slot of the genus-1 expansion is the base atom itself
        es = expand_at_infinity(eo_invariant(1, 1), 6)
        assert es.coefficient((2,)) == Fraction(-1, 24)

    def test_unresolved_atoms_are_inconclusive(self):
        rep = compare_eo_gw(1, 1, 8)
        assert rep.status == "inconclusive-atoms"

    def test_genus2_exploratory(self):
        # conjectural range: slots with unknown constants are excluded and
        # the report is exploratory, never a hard assertion
        rep = compare_eo_gw(2, 1, 10)
        assert rep.status == "exploratory"

    def test_genus2_slots_match_with_hodge_values(self):
        # degree-0 genus-2 brackets are Hodge integrals; with those and the
        # degree-1 value read off the expansion, every deeper slot matches
        curve = SpectralCurve()
        es = expand_at_infinity(curve.omega(2, 1), 16)
        atoms = {
            "gw[N=1;g=2;ins=(2,1)]": Fraction(7, 5760),
            "gw[N=1;g=2;ins=(3,0)]": Fraction(-1, 240),
            "gw[N=1;g=2;ins=(4,1)]": es.coefficient((6,)) / factorial(5),
        }
        assert atoms["gw[N=1;g=2;ins=(4,1)]"] == Fraction(1, 1920)
        for m in range(0, 13, 2):
            want = E.invariant(1, 2, [(m, 1)]).resolve(atoms) * factorial(m + 1)
            assert es.coefficient((m + 2,)) == want, m


class TestStringDilaton:
    @pytest.mark.parametrize("g,n,m", [(0, 3, 0), (0, 3, 1), (1, 1, 0), (1, 1, 1)])
    def test_identities(self, g, n, m):
        rep = eo_string_dilaton_check(g, n, m)
        assert rep.status == "pass", rep.to_obj()

    def test_constant_shift_of_antiderivative_is_irrelevant(self):
        # the dilaton part reads phi at order k - 1 >= 1 only, since the
        # invariants carry no first-order poles, so phi + c leaves it whole
        for g, n in [(0, 3), (1, 1)]:
            curve = SpectralCurve()
            T = _chart_order(g, n + 1)  # the chart order the check reads
            for alpha in (1, -1):
                ch = curve.chart(alpha, T)
                ch.phi = ch.phi + LaurentSeries("t", ch.center, 0, [Fraction(7, 3)], T)
            rep = eo_string_dilaton_check(g, n, 0, curve)
            assert rep.status == "pass", rep.to_obj()


class TestPoleAsymptotics:
    @pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (1, 2), (2, 2), (0, 5)])
    def test_orders_and_leading_terms(self, g, n):
        rep = pole_asymptotics_check(g, n)
        assert rep.status == "pass", rep.to_obj()

    @pytest.mark.parametrize("g,n", [(0, 3), (1, 1), (1, 2), (0, 4)])
    def test_mixed_sign_terms(self, g, n):
        # a term is mixed when its slots sit at both branch points
        curve = SpectralCurve()
        want = sum(len({a for a, _ in assign}) > 1 for assign in curve.omega(g, n).coeffs)
        rep = pole_asymptotics_check(g, n, curve)
        assert rep.witness == {"mixed_sign_terms": want}

    def test_order_formula(self):
        assert eo_invariant(1, 2).max_order() == 6


class TestChecksReportFailures:
    """Every check can fail: each one is fed one wrong value and must
    report it, with its documented witness."""

    def test_eo_gw_comparison(self):
        class OneSlotOff(Engine):
            def invariant(self, N, g, insertions):
                val = super().invariant(N, g, insertions)
                return val + 1 if list(insertions) == [(0, 1)] * 3 else val

        rep = compare_eo_gw(0, 3, 8, OneSlotOff())
        assert rep.status == "fail"
        assert rep.witness == {"slot": (0, 0, 0), "eo": 1, "gw": 2}

    def test_string_part(self):
        curve = SpectralCurve()
        curve.omega(0, 4)
        lo = curve.omega(0, 3)
        lo.coeffs[((1, 2), (1, 2), (1, 2))] += 1
        rep = eo_string_dilaton_check(0, 3, 0, curve)
        assert rep.status == "fail"
        assert rep.witness["part"] == "string" and rep.witness["diff"]
        assert isinstance(rep.to_obj()["witness"]["diff"], dict)

    def test_dilaton_part(self):
        # phi + t changes the dilaton residues at second-order poles; the
        # string part never reads phi
        curve = SpectralCurve()
        T = _chart_order(0, 4)  # the chart order the check reads for (g, n + 1)
        for alpha in (1, -1):
            ch = curve.chart(alpha, T)
            ch.phi = ch.phi + LaurentSeries("t", ch.center, 1, [1], T)
        rep = eo_string_dilaton_check(0, 3, 0, curve)
        assert rep.status == "fail"
        assert rep.witness["part"] == "dilaton" and rep.witness["diff"]

    def test_pole_maximum_order(self):
        curve = SpectralCurve()
        curve.omega(0, 3).coeffs[((1, 4), (1, 2), (1, 2))] = Fraction(1)
        rep = pole_asymptotics_check(0, 3, curve)
        assert rep.status == "fail"
        assert rep.witness == {"max_order": 4, "expected": 2}

    def test_pole_leading_coefficient_at_minus_one(self):
        curve = SpectralCurve()
        curve.omega(0, 3).coeffs[((-1, 2), (-1, 2), (-1, 2))] -= 1
        rep = pole_asymptotics_check(0, 3, curve)
        assert rep.status == "fail"
        assert rep.witness == {
            "alpha": -1, "beta": (0, 0, 0), "got": Fraction(-1, 2), "expected": Fraction(1, 2),
        }

    def test_string_weight_reads_x(self):
        # x enters the string weight y x^m only for m = 1
        curve = SpectralCurve()
        T = _chart_order(0, 4)  # the chart order the check reads for (g, n + 1)
        for alpha in (1, -1):
            ch = curve.chart(alpha, T)
            ch.x = ch.x + LaurentSeries("t", ch.center, 0, [1], T)
        assert eo_string_dilaton_check(0, 3, 0, curve).status == "pass"
        rep = eo_string_dilaton_check(0, 3, 1, curve)
        assert rep.status == "fail"
        assert rep.witness["part"] == "string" and rep.witness["diff"]

    def test_pole_leading_coefficient(self):
        curve = SpectralCurve()
        curve.omega(0, 3).coeffs[((1, 2), (1, 2), (1, 2))] += 1
        rep = pole_asymptotics_check(0, 3, curve)
        assert rep.status == "fail"
        assert rep.witness == {
            "alpha": 1, "beta": (0, 0, 0), "got": Fraction(3, 2), "expected": Fraction(1, 2),
        }
