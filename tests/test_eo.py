import hashlib
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from gwrec.algebra import LaurentSeries, format_rat
from gwrec.engine import DEFAULT_ENGINE as E
from gwrec.engine import Engine
from gwrec.eo import (
    PoleBasisDifferential,
    SpectralCurve,
    _Chart,
    _corrected_01,
    _corrected_02,
    _pole_bound,
    _row,
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
# Fraction arithmetic, (2, 3) and (3, 1) with every factor at zhat = 1/z
# expanded as a Laurent series in its own right, the others with ln z
# replaced by its truncation y_M, M = 6g - 4 + 2n; the exact series of ln z
# and the linear loop equation give the same digests.
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
    (2, 3): "209fda4fb2c9c992515214d90ce0325fb8f076d15c8194448736697fd0436612",
    (3, 1): "876ac3745d9cab0e22605f4db64ddb4e5a273df3b0cca131b0ac80090203d24f",
}


@pytest.mark.parametrize("g,n", sorted(GOLDEN_OMEGA))
def test_omega_golden_digest(g, n):
    record = json.dumps(eo_invariant(g, n).to_obj(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_OMEGA[(g, n)]


class TestOneChart:
    """A curve keeps one chart per branch point, rebuilt to a larger order
    when a deeper invariant asks for one."""

    @pytest.fixture(scope="class")
    def curve32(self):
        curve = SpectralCurve()
        curve.omega(3, 2)
        return curve

    def test_one_chart_per_branch_point(self, curve32):
        assert curve32.chart(1, 2) is curve32.chart(1, 18)
        assert curve32.chart(1, 2).T == _pole_bound(3, 2)
        assert list(curve32._charts) == [1]
        assert curve32.chart(-1, 4) is curve32.chart(-1, 2)
        assert sorted(curve32._charts) == [-1, 1]

    def test_residues_do_not_depend_on_the_order(self, curve32):
        # a monomial with p <= 6 is read through t^7, so order 8 holds it
        deep = curve32.chart(1, 18)
        keys = [key for key in deep._res if key[0] <= 6]
        assert len(keys) > 100
        shallow = _Chart(1, 8)
        for key in keys:
            assert shallow.residues(*key) == deep.residues(*key), key

    def test_shallow_then_deep_on_one_curve(self):
        curve = SpectralCurve()
        for g, n in [(0, 3), (1, 1), (2, 2), (3, 1)]:
            record = json.dumps(curve.omega(g, n).to_obj(), sort_keys=True)
            assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_OMEGA[(g, n)]
        assert curve.chart(1, 2).T == _pole_bound(3, 1)


def _at_inverse(coeffs, slot) -> dict:
    """The image of a pole-basis differential under z -> 1/z in one slot:
    dz/(z - b)^l goes to -(-b)^l sum_i C(l-2, i) b^(l-2-i) dz/(z - b)^(l-i),
    since b = 1/b at the branch points b = +-1."""
    out: dict = {}
    for assign, c in coeffs.items():
        b, l = assign[slot]
        for i in range(l - 1):
            key = assign[:slot] + ((b, l - i),) + assign[slot + 1:]
            out[key] = out.get(key, 0) - c * (-b) ** l * comb(l - 2, i) * b ** (l - 2 - i)
    return {a: c for a, c in out.items() if c}


def _odd_in(coeffs, slot) -> bool:
    image = _at_inverse(coeffs, slot)
    return not any(coeffs.get(a, 0) + image.get(a, 0) for a in set(coeffs) | set(image))


class TestLinearLoopEquation:
    """omega^g_n(.., 1/z_i, ..) = -omega^g_n(.., z_i, ..) for stable (g, n),
    the identity by which the recursion reads every stable factor at z."""

    @pytest.fixture(scope="class")
    def curve(self):
        return SpectralCurve()

    def test_the_image_map_is_an_involution(self):
        coeffs = {((1, 5), (-1, 2)): Fraction(3), ((-1, 4), (-1, 3)): Fraction(-1, 7)}
        for slot in (0, 1):
            assert _at_inverse(_at_inverse(coeffs, slot), slot) == coeffs

    @pytest.mark.parametrize("g,n", sorted(GOLDEN_OMEGA))
    def test_every_slot(self, g, n, curve):
        w = curve.omega(g, n).coeffs
        for slot in range(n):
            assert _odd_in(w, slot), (g, n, slot)

    def test_one_wrong_coefficient_breaks_it(self, curve):
        # dz/(z - 1)^2 is odd by itself; dz/(z - 1)^3 is not
        w = dict(curve.omega(0, 4).coeffs)
        w[((1, 3),) + ((1, 2),) * 3] += 1
        assert not _odd_in(w, 0)


class TestExpansion:
    def test_branch_solution_satisfies_the_curve(self):
        # d/dx (z - alpha)^-1 = -z'/(z - alpha)^2 and d/dx = -u^2 d/du, so
        # F = 1/(z - alpha) has [u^(e-1)] F = row[e] / (e - 1).  With
        # z = alpha + 1/F, z^2 - x z + 1 = 0 reads
        # u (1 + 2 alpha F + 2 F^2) = F + alpha F^2 at alpha^2 = 1.
        depth = 16
        u = LaurentSeries("u", "inf", 1, [1], depth)
        for alpha in (1, -1):
            row = _row(alpha, 2, depth)
            assert row[:2] == [0, 0]
            F = LaurentSeries(
                "u", "inf", 0, [0] + [Fraction(row[e], e - 1) for e in range(2, depth + 1)],
                depth,
            )
            err = u * (1 + 2 * alpha * F + 2 * F * F) - F - alpha * F * F
            assert err.trunc == depth and err.is_zero(), alpha

    def test_basis_element_head(self):
        pd = eo_invariant(0, 3)
        es = expand_at_infinity(pd, 10)
        # the all-minimal slot is the three-point count
        assert es.coefficient((2, 2, 2)) == 1

    def test_linearity_against_rational_point(self):
        # the row of dz/(z-1)^2 summed at u = 1/x0, x0 = 10, matches the
        # exact value z'/(z-1)^2 at the branch point z0 of z + 1/z = x0
        # within the truncation tail
        x0 = Fraction(10)
        z0 = x0
        for _ in range(5):  # Newton steps on z + 1/z - x0
            z0 -= (z0 + 1 / z0 - x0) / (1 - z0 ** -2)
        assert abs(z0 + 1 / z0 - x0) <= Fraction(1, 10**40)
        approx = sum(c / x0 ** e for e, c in enumerate(_row(1, 2, 24)))
        exact = (1 / (1 - z0 ** -2)) / (z0 - 1) ** 2
        assert abs(approx - exact) <= Fraction(1, 10**15)


def _branch_series(depth) -> LaurentSeries:
    """w = 1/z on the z ~ x branch, as a series in u = 1/x through u^depth:
    the fixed point of w <- u (1 + w w), which fixes one more coefficient
    on every pass."""
    u = LaurentSeries("u", "inf", 1, [1], depth + 1)
    w = u
    while True:
        nxt = u * (1 + w * w)
        if nxt.coeffs == w.coeffs and nxt.min_exp == w.min_exp:
            return w
        w = nxt


def _head(series, depth) -> list:
    return [series.coefficient(e) for e in range(depth + 1)]


class TestRowsAgainstSeries:
    """The integer rows from Lagrange inversion against the same expansions
    built by series arithmetic on the branch w(u)."""

    DEPTH = 30

    @pytest.fixture(scope="class")
    def w(self):
        return _branch_series(self.DEPTH)

    @pytest.fixture(scope="class")
    def zp(self, w):
        return (1 - w * w).invert()  # z'(x) = 1 / (1 - w^2)

    def test_branch_is_catalan(self, w):
        assert _head(w, self.DEPTH) == [
            comb(e - 1, e // 2) // (e // 2 + 1) if e % 2 else 0 for e in range(self.DEPTH + 1)
        ]

    @pytest.mark.parametrize("alpha", [1, -1])
    @pytest.mark.parametrize("k", range(2, 15))
    def test_row(self, w, zp, alpha, k):
        inv = (1 - alpha * w).invert()
        series = zp
        for _ in range(k):
            series = series * w * inv
        assert _row(alpha, k, self.DEPTH) == _head(series, self.DEPTH)

    def test_corrected_01(self, w):
        v = w * w
        log = LaurentSeries.zero("u", "inf", v.trunc)
        term = LaurentSeries.const("u", "inf", 1, v.trunc)
        for j in range(1, self.DEPTH // 2 + 1):
            term = term * v
            log = log + term * Fraction((-1) ** (j - 1), j)
        want = {(e,): log.coefficient(e) for e in range(2, self.DEPTH + 1)}
        got = _corrected_01(self.DEPTH)
        assert got == want and list(got) == list(want)
        assert all(type(c) is Fraction for c in got.values())

    def test_corrected_02(self, w, zp):
        want: dict = {}
        wr = w * w
        for r in range(self.DEPTH):
            row = _head(wr * zp, self.DEPTH)
            for e1 in range(self.DEPTH + 1):
                for e2 in range(self.DEPTH + 1 - e1):
                    want[(e1, e2)] = want.get((e1, e2), 0) + (r + 1) * row[e1] * row[e2]
            wr = wr * w
        got = _corrected_02(self.DEPTH)
        assert got == {key: c for key, c in want.items() if c}
        assert all(type(c) is Fraction for c in got.values())


# sha256 of json.dumps(sorted((list(exps), format_rat(c)))) over the
# coefficients of expand_at_infinity(omega(g, n), depth), computed with the
# branch z(x) reverted as a truncated Laurent series and each basis element
# built from series products.
GOLDEN_EXPANSION = {
    (0, 3, 12): "d897cdd20668999560159b08304b59fb546d0257d067fb1f669e53d076f6ad04",
    (0, 4, 12): "ba3d26410f2df5ac07c862fe4ce10cbca9dbada4000fbf7036832de59cafeebe",
    (1, 1, 12): "4c08062902d74cceab0c057f7f19a5ca8fbb734d7009029fbe5ee8b8316ee2ed",
    (1, 2, 10): "13486a3b0dd5b6122c7e9134e871c2cc66aba47341da82c149c9e6433bc2f316",
    (2, 1, 16): "591771ae3e4a13d69a397eb5820e24ba3bff4828e9215b4a09e513be59237f74",
    (2, 2, 12): "940a0e75bc8dc204df58ddbac53384937b9cf6744dee01ea269a9463c97cfaa8",
    (2, 3, 10): "a61bea71103ffe586af9c97cc825549538849597b01764d7f8e5d3981e7b853d",
    (3, 1, 22): "c8d4c059991810e6f8b5ecc5a25e716ef979b8354041a537f377245ff6e53c44",
    (0, 5, 14): "00923d15e503885f15037a0edb159f925410b2b7b237f8bbf9d083c1c059532e",
}


@pytest.mark.parametrize("g,n,depth", sorted(GOLDEN_EXPANSION))
def test_expansion_golden_digest(g, n, depth):
    es = expand_at_infinity(eo_invariant(g, n), depth)
    assert all(type(c) is Fraction for c in es.coeffs.values())
    record = json.dumps(sorted((list(e), format_rat(c)) for e, c in es.coeffs.items()))
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_EXPANSION[(g, n, depth)]


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

    def test_string_power_is_checked_before_any_recursion(self):
        curve = SpectralCurve()
        with pytest.raises(ValueError):
            eo_string_dilaton_check(2, 2, 2, curve)
        assert curve._omegas == {}

    def test_constant_shift_of_antiderivative_is_irrelevant(self):
        # the dilaton part reads phi at order k - 1 >= 1 only, since the
        # invariants carry no first-order poles, so phi + c leaves it whole
        for g, n in [(0, 3), (1, 1)]:
            curve = SpectralCurve()
            T = _pole_bound(g, n + 1)  # the chart order the check reads
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
        T = _pole_bound(0, 4)  # the chart order the check reads for (g, n + 1)
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
        T = _pole_bound(0, 4)  # the chart order the check reads for (g, n + 1)
        for alpha in (1, -1):
            ch = curve.chart(alpha, T)
            ch.x = ch.x + LaurentSeries("t", ch.center, 0, [1], T)
        assert eo_string_dilaton_check(0, 3, 0, curve).status == "pass"
        rep = eo_string_dilaton_check(0, 3, 1, curve)
        assert rep.status == "fail"
        assert rep.witness["part"] == "string" and rep.witness["diff"]

    def test_pole_check_rereads_the_differential(self):
        # The expected coefficients are kept per (g, n) and the differential
        # is not: a passing check, then a tamper on the same curve, fails.
        curve = SpectralCurve()
        assert pole_asymptotics_check(0, 3, curve).status == "pass"
        curve.omega(0, 3).coeffs[((-1, 2), (-1, 2), (-1, 2))] += 1
        rep = pole_asymptotics_check(0, 3, curve)
        assert rep.witness == {
            "alpha": -1, "beta": (0, 0, 0), "got": Fraction(3, 2), "expected": Fraction(1, 2),
        }

    def test_pole_leading_coefficient(self):
        curve = SpectralCurve()
        curve.omega(0, 3).coeffs[((1, 2), (1, 2), (1, 2))] += 1
        rep = pole_asymptotics_check(0, 3, curve)
        assert rep.status == "fail"
        assert rep.witness == {
            "alpha": 1, "beta": (0, 0, 0), "got": Fraction(3, 2), "expected": Fraction(1, 2),
        }


@pytest.mark.parametrize(
    "call,good,bad",
    [
        (lambda v: SpectralCurve().omega(1, v).to_obj(), 1, 1.5),
        (lambda v: expand_at_infinity(eo_invariant(0, 3), v).coeffs, 10, 10.5),
        (lambda v: gw_generating(0, 3, v), 8, 8.5),
        (lambda v: compare_eo_gw(0, 3, v).to_obj(), 8, 8.5),
        (lambda v: pole_asymptotics_check(2, v).to_obj(), 2, 2.5),
        (lambda v: eo_string_dilaton_check(1, 1, v).to_obj(), 1, 1.5),
    ],
    ids=[
        "omega", "expand_at_infinity", "gw_generating", "compare_eo_gw",
        "pole_asymptotics_check", "eo_string_dilaton_check",
    ],
)
def test_integral_float_is_read_as_its_int(call, good, bad):
    assert call(float(good)) == call(good)
    with pytest.raises(ValueError, match=str(bad)):
        call(bad)
