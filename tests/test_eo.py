import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

from gwrec import eo
from gwrec.algebra import LaurentSeries, TruncationError, format_rat
from gwrec.engine import DEFAULT_ENGINE as E
from gwrec.engine import Engine
from gwrec.eo import (
    AsymmetricOrbitError,
    PoleBasisDifferential,
    SpectralCurve,
    _Chart,
    _corrected_01,
    _corrected_02,
    _pole_bound,
    _row,
    _string_terms,
    _string_weights,
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
    """The string weights' y is the exact series of ln z: each polynomial
    truncation y_M agrees with it through t^M and no further, at z and, with
    the sign of y(1/z) = -y(z), at zhat = 1/z."""

    @pytest.mark.parametrize("alpha", [1, -1])
    @pytest.mark.parametrize("M", [1, 2, 5, 9])
    def test_y_is_the_limit_of_its_truncations(self, alpha, M):
        y = _string_weights(alpha, 16)[0]
        z = LaurentSeries("t", str(alpha), 0, [alpha, 1], 16)
        for arg, sign in [(z, 1), (z.invert(), -1)]:
            got = _y_truncated(arg, M)
            for e in range(M + 1):
                assert got.coefficient(e) == sign * y[e], (arg, e)
            assert got.coefficient(M + 1) != sign * y[M + 1]


def _series_power(base, e):
    """base^e by repeated products; the int 1 for e = 0."""
    out = 1
    for _ in range(e):
        out = out * base
    return out


class TestChartAgainstSeries:
    """The chart's binomial sums and the closed-form string weights against
    the same quantities built from their definitions in series arithmetic:
    y = y_T, the truncation of ln z that is exact through t^T."""

    T = 18
    EXACT = 4 * T  # the truncation of a monomial t^e, which never binds

    @pytest.fixture(scope="class", params=[1, -1])
    def series(self, request):
        alpha, T = request.param, self.T
        z = LaurentSeries("t", str(alpha), 0, [alpha, 1], T + 1)
        zhat = z.invert()
        y = _y_truncated(z, T)
        s = zhat - alpha
        kfac = -(y * (1 - zhat * zhat) * 4).invert()
        kernels = {}
        for j in range(2, T + 1):
            tj = LaurentSeries("t", str(alpha), j - 1, [1], self.EXACT)
            kernels[j] = kfac * (tj - _series_power(s, j - 1))
        return alpha, z, zhat, y, s, kernels

    def test_residues(self, series):
        alpha, z, zhat, y, s, kernels = series
        chart = _Chart(alpha, self.T)
        inv = (z + alpha).invert()
        for r in [None] + list(range(9)):
            X = 1 if r is None else -zhat * zhat * _series_power(s, r)
            for q in range(9):
                Y = _series_power(inv, q) * X
                for p in range(17):
                    Yp = Y * LaurentSeries("t", str(alpha), -p, [1], self.EXACT)
                    want = [(kernels[j] * Yp).coefficient(-1) for j in range(2, p + 3 - (r or 0))]
                    assert chart.residues(p, q, r) == want, (alpha, p, q, r)

    def test_string_weights(self, series):
        alpha, z, zhat, y, _, _ = series
        K = self.T
        ys, yxs, phis = _string_weights(alpha, K)
        yx = y * (z + zhat)
        yxp = y * (1 - zhat * zhat)
        assert ys == [y.coefficient(e) for e in range(K)]
        assert yxs == [yx.coefficient(e) for e in range(K)]
        assert phis == [0] + [yxp.coefficient(e - 1) / e for e in range(1, K)]

    def test_a_read_past_the_truncation_raises(self):
        chart = _Chart(1, 8)
        assert len(chart.residues(7, 3, None)) == 8  # reads through t^7
        assert len(chart.residues(9, 3, 2)) == 8
        for key in [(8, 0, None), (8, 3, None), (10, 1, 2)]:
            with pytest.raises(TruncationError):
                chart.residues(*key)

    @pytest.mark.parametrize("alpha", [2, 0, -2, Fraction(1, 2)])
    def test_only_the_branch_points_have_charts(self, alpha):
        curve = SpectralCurve()
        with pytest.raises(ValueError):
            curve.chart(alpha, 5)
        assert curve._charts == {}


def _orderings(orbits) -> dict:
    """Every ordering of every orbit representative, with its coefficient."""
    out = {}
    for rep, c in orbits.items():
        for assign in permutations(rep):
            out[assign] = c
    return out


class TestMirrorCharts:
    """omega only runs the chart at +1 and reflects it; these run the chart
    at -1 directly and hold it against the re-sorted reflection."""

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1)])
    def test_minus_chart_is_the_reflected_plus_chart(self, g, n):
        curve = SpectralCurve()
        plus = curve._chart_terms(g, n, 1)
        minus = curve._chart_terms(g, n, -1)
        assert plus and all(list(rep) == sorted(rep) and rep[-1][0] == 1 for rep in plus)
        reflected = {
            tuple(sorted((-a, k) for a, k in rep)): c * (-1) ** sum(k for _, k in rep)
            for rep, c in plus.items()
        }
        assert minus == reflected
        assert curve.omega(g, n).coeffs == _orderings({**plus, **minus})


class TestOrbits:
    """The recursion keeps one coefficient per S_n orbit, and the routes
    that reach one orbit from different first slots must agree."""

    def test_only_the_requested_invariant_is_expanded(self):
        curve = SpectralCurve()
        pd = curve.omega(2, 2)
        assert list(curve._omegas) == [(2, 2)]
        assert {(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)} <= set(curve._orbits)
        for table in curve._orbits.values():
            assert all(list(rep) == sorted(rep) for rep in table)
        assert pd.coeffs == _orderings(curve._orbits[(2, 2)])

    def test_stable_factors_are_built_once_per_curve(self):
        # a stable factor does not read the pole bound: pass 0 to show it
        curve = SpectralCurve()
        curve.omega(2, 2)
        assert len(curve._factors) > 10
        fresh = SpectralCurve()
        for (gp, nz, m, alpha, zhat), built in curve._factors.items():
            assert curve._factor(gp, nz, m, alpha, 0, zhat) is built
            assert fresh._factor(gp, nz, m, alpha, 0, zhat) == built

    @pytest.mark.parametrize("lo,hi", [((0, 4), (0, 5)), ((1, 2), (1, 3))])
    def test_a_wrong_lower_coefficient_breaks_the_symmetry(self, lo, hi):
        # +1 on any one stored orbit makes two routes to some orbit disagree
        reps = list(SpectralCurve()._orbit(*lo))
        assert len(reps) > 5
        for rep in reps:
            curve = SpectralCurve()
            curve._orbit(*lo)[rep] += 1
            with pytest.raises(AsymmetricOrbitError):
                curve.omega(*hi)


# sha256 of json.dumps(omega(g, n).to_obj(), sort_keys=True).  (1, 3), (2, 1),
# (2, 2) and (0, 5) were computed with the recursion run on both charts in
# Fraction arithmetic, (2, 3) and (3, 1) with every factor at zhat = 1/z
# expanded as a Laurent series in its own right, (3, 2), (2, 4) and (3, 3)
# with the recursion run on every ordering of the spectators instead of on
# orbits, (4, 2) with the bracket and its contraction against the residues
# summed as Fractions term by term, the others with ln z replaced by its
# truncation y_M, M = 6g - 4 + 2n; the exact series of ln z and the linear
# loop equation give the same digests.
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
    (3, 2): "41d7b507544b1e69f5413b9efb2995dcecdc833bf8d4ae47ccec874d74379972",
    (2, 4): "ec914a9bc92feeb91fc719a86af9b148587f99c8b4bfaeeec2bfef8f7469f7c9",
    (3, 3): "21c3a3409586c98b0b8b12f3166757d069c28f3ade37a3fac017167ccf5fea3b",
    (4, 2): "9ea4f9d3d2ccd04d6f97b3054a817e50455407fd1da2742a90768c1e5c31372e",
}


@pytest.mark.parametrize("g,n", sorted(GOLDEN_OMEGA))
def test_omega_golden_digest(g, n):
    record = json.dumps(eo_invariant(g, n).to_obj(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_OMEGA[(g, n)]


def test_pole_basis_differential_is_a_record():
    # the constructor, repr, == and hash that dataclasses used to generate
    coeffs = {((1, 2), (1, 2), (1, 2)): Fraction(1, 2)}
    pd = PoleBasisDifferential(0, 3, coeffs)
    assert repr(pd) == (
        "PoleBasisDifferential(g=0, n=3, coeffs={((1, 2), (1, 2), (1, 2)): Fraction(1, 2)})"
    )
    assert pd == PoleBasisDifferential(g=0, n=3, coeffs=dict(coeffs))
    assert pd != PoleBasisDifferential(0, 3)
    assert pd != (0, 3, coeffs)
    assert pd.__eq__((0, 3, coeffs)) is NotImplemented
    empty = PoleBasisDifferential(1, 1)
    assert empty.coeffs == {} and empty.coeffs is not PoleBasisDifferential(1, 1).coeffs
    with pytest.raises(TypeError):
        hash(pd)


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
            assert err.trunc == depth and not err.nums, alpha

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


def _tensor_sum(pd, depth) -> dict:
    """expand_at_infinity by its definition: for every assignment, its
    coefficient times the full tensor product of its slots' rows, each
    product of one exponent tuple added as a Fraction."""
    per_var = depth - 2 * (pd.n - 1)
    out = {}

    def rec(rows, exps, acc):
        if len(exps) == len(rows):
            out[exps] = out.get(exps, Fraction(0)) + acc
            return
        room = depth - sum(exps) - 2 * (len(rows) - len(exps) - 1)
        for e, v in enumerate(rows[len(exps)][: room + 1]):
            if v:
                rec(rows, exps + (e,), acc * v)

    for assign, c in pd.coeffs.items():
        rec([_row(a, k, per_var) for a, k in assign], (), c)
    return {exps: c for exps, c in out.items() if c}


class TestContraction:
    """expand_at_infinity reads one slot at a time on integers; the oracle
    takes the full tensor product of every assignment in Fractions."""

    def test_against_the_tensor_sum(self):
        pd = eo_invariant(2, 3)
        got = expand_at_infinity(pd, 12).coeffs
        assert got == _tensor_sum(pd, 12)
        assert len(got) > 30 and all(type(c) is Fraction for c in got.values())

    def test_a_non_symmetric_differential(self):
        pd = eo_invariant(1, 3)
        coeffs = dict(pd.coeffs)
        key = ((1, 4), (1, 2), (1, 3))
        coeffs[key] += Fraction(1, 3)
        assert coeffs[key] != coeffs[tuple(sorted(key))]
        lopsided = PoleBasisDifferential(1, 3, coeffs)
        got = expand_at_infinity(lopsided, 12).coeffs
        want = _tensor_sum(lopsided, 12)
        assert got == want and got != expand_at_infinity(pd, 12).coeffs
        assert any(got[e] != got.get(e[::-1]) for e in got)
        assert all(type(c) is Fraction for c in got.values())


class TestKeyLength:
    """A key of the wrong length is an error, not a zero coefficient."""

    def test_pole_basis_coefficient(self):
        pd = eo_invariant(1, 2)
        with pytest.raises(ValueError, match="2 slots"):
            pd.coefficient([(1, 4)])
        with pytest.raises(ValueError, match="2 slots"):
            pd.coefficient([(1, 2), (1, 2), (1, 2)])
        assert pd.coefficient([(1, 4), (1, 2)]) == pd.coeffs[((1, 4), (1, 2))]

    def test_infinity_series_coefficient(self):
        es = expand_at_infinity(eo_invariant(1, 2), 10)
        with pytest.raises(ValueError, match="2 entries"):
            es.coefficient((2,))
        with pytest.raises(ValueError, match="2 entries"):
            es.coefficient((2, 2, 2))
        assert es.coefficient((2, 4)) == es.coeffs[(2, 4)] == Fraction(1, 4)


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

    @pytest.mark.parametrize("a", [1, -1])
    @pytest.mark.parametrize("m", [0, 1])
    def test_string_terms_integrate_to_the_weighted_pole(self, a, m):
        # the terms are d/dz of x^m / x' (z - a)^-k; that function and the
        # termwise antiderivative both vanish at infinity, so they are equal
        for k in range(2, 13):
            terms = _string_terms(a, k, m)
            for z in (Fraction(3), Fraction(5, 2), Fraction(-7, 3), Fraction(1, 4)):
                got = sum(c * (z - b) ** (1 - j) / (1 - j) for (b, j), c in terms.items())
                want = (z + 1 / z) ** m * z**2 / (z**2 - 1) / (z - a) ** k
                assert got == want, (a, m, k, z)

    def test_string_power_is_checked_before_any_recursion(self):
        curve = SpectralCurve()
        with pytest.raises(ValueError):
            eo_string_dilaton_check(2, 2, 2, curve)
        assert curve._omegas == {}

    def test_constant_shift_of_antiderivative_is_irrelevant(self, monkeypatch):
        # the dilaton part reads phi at order k - 1 >= 1 only, since the
        # invariants carry no first-order poles, so phi + c leaves it whole
        def shifted(alpha, K):
            y, yx, phi = _string_weights(alpha, K)
            return y, yx, [phi[0] + Fraction(7, 3)] + phi[1:]

        monkeypatch.setattr(eo, "_string_weights", shifted)
        for g, n in [(0, 3), (1, 1)]:
            rep = eo_string_dilaton_check(g, n, 0)
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

    def test_dilaton_part(self, monkeypatch):
        # phi + t changes the dilaton residues at second-order poles; the
        # string part never reads phi
        def shifted(alpha, K):
            y, yx, phi = _string_weights(alpha, K)
            return y, yx, [phi[0], phi[1] + 1] + phi[2:]

        monkeypatch.setattr(eo, "_string_weights", shifted)
        rep = eo_string_dilaton_check(0, 3, 0)
        assert rep.status == "fail"
        assert rep.witness["part"] == "dilaton" and rep.witness["diff"]

    def test_string_witness_does_not_follow_the_hash_seed(self):
        # the witness's diff is keyed by tuples of (branch point, pole
        # order) pairs, so its order must not come from iterating a set
        script = (
            "import json; from gwrec.eo import SpectralCurve, eo_string_dilaton_check\n"
            "curve = SpectralCurve(); curve.omega(0, 4)\n"
            "curve.omega(0, 3).coeffs[((1, 2), (1, 2), (1, 2))] += 1\n"
            "print(json.dumps(eo_string_dilaton_check(0, 3, 0, curve).to_obj()))\n"
        )
        src = str(Path(eo.__file__).resolve().parents[1])
        outs = set()
        for seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outs.add(run.stdout)
        assert len(outs) == 1
        assert '"status": "fail"' in outs.pop()

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

    def test_string_weight_reads_x(self, monkeypatch):
        # x enters the string weight y x^m only for m = 1: x + 1 adds y to y x
        def shifted(alpha, K):
            y, yx, phi = _string_weights(alpha, K)
            return y, [a + b for a, b in zip(yx, y)], phi

        monkeypatch.setattr(eo, "_string_weights", shifted)
        curve = SpectralCurve()
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
