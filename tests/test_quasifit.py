import random
from fractions import Fraction
from itertools import product

import pytest

from gwrec.algebra import MultiPoly, QuasiPoly, SymRat, c_factor
from gwrec.engine import DEFAULT_ENGINE as E
from gwrec.engine import degree_of
from gwrec.quasifit import (
    FitSpec,
    InconsistentSamplesError,
    UnderdeterminedSystemError,
    asymptotics_report,
    fit_stationary,
    quasi_fit,
    stationary_family,
    stationary_parity,
    verify_dilaton_derivative,
    verify_negative_evaluation,
    verify_p_string_divisor,
    verify_top_coefficients,
)

from gwrec.engine import Engine
from gwrec.quasifit import StationaryFamily

ATOM_A = "gw[N=1;g=1;ins=(0,1)]"
ATOMS = {ATOM_A: Fraction(-1, 24)}


class TestQuasiFit:
    def _sample(self, q, pts):
        return [(p, q.eval(p)) for p in pts]

    def test_recovers_known_polynomial(self):
        p = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 0): SymRat.atom("c")})
        q = QuasiPoly(1, 2, {(0, 0): p})
        pts = [(2 * a, 2 * b) for a in range(3) for b in range(3)]
        got = quasi_fit(self._sample(q, pts), 1, 2, 1)
        assert got.branches[(0, 0)] == p

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedSystemError):
            quasi_fit([((0,), SymRat(1))], 1, 1, 2)

    def test_inconsistent_samples(self):
        pts = [((2 * i,), SymRat(i)) for i in range(4)]
        pts.append(((8,), SymRat(99)))  # off the line
        with pytest.raises(InconsistentSamplesError):
            quasi_fit(pts, 1, 1, 1)

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(12):
            N = rng.choice([1, 2])
            nvars = rng.randint(1, 3)
            deg = rng.randint(0, 4 - nvars)
            mod = N + 1
            branches = {}
            for res in product(range(mod), repeat=nvars):
                if rng.random() < 0.4:
                    continue
                terms = {}
                for e in product(range(deg + 1), repeat=nvars):
                    if sum(e) <= deg and rng.random() < 0.7:
                        terms[e] = SymRat(
                            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                            {"u": rng.randint(-2, 2)},
                        )
                if terms:
                    branches[res] = MultiPoly(nvars, terms)
            if not branches:
                continue
            q = QuasiPoly(N, nvars, branches)
            samples = []
            for res in branches:
                for off in product(range(deg + 2), repeat=nvars):
                    pt = tuple(r + mod * o for r, o in zip(res, off))
                    samples.append((pt, q.eval(pt)))
            got = quasi_fit(samples, N, nvars, deg)
            assert got.branches == q.branches

    def test_samples_off_a_lower_set(self):
        # (4, 2) is sampled without (4, 0): not a lower set of the lattice
        pts = [((0, 0), 1), ((2, 0), 2), ((0, 2), 3), ((2, 2), 4), ((4, 2), 5)]
        with pytest.raises(ValueError, match="off the lattice"):
            quasi_fit(pts, 1, 2, 1)

    def test_two_samples_at_one_point(self):
        pts = [((0,), SymRat(1)), ((2,), SymRat(2)), ((2,), SymRat(3))]
        with pytest.raises(InconsistentSamplesError):
            quasi_fit(pts, 1, 1, 1)


class TestFitStationary:
    def test_four_point_line(self):
        q = fit_stationary(FitSpec(N=1, g=0, n=4))
        # even coset: sum(m_i)/2 plus the constant primary invariant
        p = q.branches[(0, 0, 0, 0)]
        for pt in [(0, 0, 0, 0), (2, 4, 0, 6)]:
            assert p.eval(pt) == sum(pt) // 2 + 1
        # a mixed coset: ceilings shift by one where the residue is odd
        p = q.branches[(1, 1, 0, 0)]
        got = p.eval((1, 1, 2, 2))
        want = E.invariant(1, 0, [(1, 1), (1, 1), (2, 1), (2, 1)]) * (
            c_factor(2, 1) ** 2 * c_factor(2, 2) ** 2
        )
        assert got == want

    def test_genus1_one_point_with_atom(self):
        q = fit_stationary(FitSpec(N=1, g=1, n=1, min_m=0))
        p = q.branches[(0,)]
        assert p.coeff((1,)) == Fraction(1, 24)
        assert p.coeff((0,)) == SymRat.atom(ATOM_A)

    def test_symmetry_of_branches(self):
        # permuting the arguments of one branch lands on the permuted branch
        q = fit_stationary(FitSpec(N=2, g=0, n=3))
        for res, poly in q.branches.items():
            pt = (res[0] + 3, res[1] + 6, res[2] + 9)
            for perm in [(1, 0, 2), (2, 0, 1)]:
                pres = tuple(res[p] for p in perm)
                ppt = tuple(pt[p] for p in perm)
                assert q.branches[pres].eval(ppt) == poly.eval(pt)

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_degree_bound_raises_before_sampling(self, n):
        eng = Engine()
        with pytest.raises(ValueError, match="degree bound"):
            fit_stationary(FitSpec(N=1, g=0, n=n), eng)
        assert eng.cache == {}

    def test_min_m_zero_equals_min_m_one_for_genus0(self):
        qa = fit_stationary(FitSpec(N=1, g=0, n=3, min_m=0))
        qb = fit_stationary(FitSpec(N=1, g=0, n=3, min_m=1))
        for res, pa in qa.branches.items():
            pb = qb.branches.get(res)
            if pb is not None:
                assert pa == pb


class TestStationaryFamily:
    def test_two_point_closed_form(self):
        fam = stationary_family(1, 0, 2)
        assert fam.value((0, 0)) == 1
        assert fam.value((1, 1)) == Fraction(1, 2)

    def test_one_point_closed_form(self):
        fam = stationary_family(2, 0, 1)
        assert fam.value((4,)) == Fraction(9, 36)

    def test_matches_fitted_branches(self):
        q = fit_stationary(FitSpec(N=1, g=0, n=3))
        fam = stationary_family(1, 0, 3)
        for pt in [(2, 4, 2), (1, 1, 2), (0, 1, 3), (-1, 3, 2), (0, 0, 2)]:
            assert fam.value(pt) == q.eval(pt), pt

    def test_negative_slots_match_primaries(self):
        fam = stationary_family(2, 0, 3)
        # k - N encodes a primary insertion of exponent k
        lhs = E.invariant(2, 0, [(0, 1), (4, 2), (3, 2)])
        lhs = lhs * c_factor(3, 4) * c_factor(3, 3)
        assert fam.value((-1, 4, 3)) == lhs

    def test_non_polynomial_slice_is_rejected(self):
        class ConstantEngine(Engine):
            # c-normalised values become c_2(m), which grows factorially
            def invariant(self, N, g, insertions):
                return SymRat(1)

        fam = StationaryFamily(1, 1, 1, ConstantEngine())
        assert fam.value((4,)) == c_factor(2, 4)
        with pytest.raises(InconsistentSamplesError):
            fam.value((-1,))


class TestVerifiers:
    def test_top_coefficients_examples(self):
        q = fit_stationary(FitSpec(N=1, g=0, n=4))
        rep = verify_top_coefficients(q, 0, 4, 1)
        assert rep.status == "pass"
        for res, p in q.branches.items():
            for i in range(4):
                e = tuple(1 if j == i else 0 for j in range(4))
                assert p.coeff(e) == Fraction(1, 2)

        q = fit_stationary(FitSpec(N=2, g=1, n=1, min_m=0))
        assert verify_top_coefficients(q, 1, 1, 2).status == "pass"
        assert q.branches[(2,)].coeff((1,)) == Fraction(1, 24)

        q = fit_stationary(FitSpec(N=1, g=1, n=2, min_m=0))
        assert verify_top_coefficients(q, 1, 2, 1).status == "pass"
        assert q.branches[(0, 0)].coeff((2, 0)) == Fraction(1, 48)

    def test_negative_evaluation_two_point_closed_form(self):
        # <tau_m(pt) tau_0(w^k)> c_{N+1}(m) = (N+1)/(m + k - N + N + 1)
        for N in (1, 2):
            fam = stationary_family(N, 0, 2)
            for k in range(N + 1):
                for m in range(0, 9):
                    assert fam.value((m, k - N)) == Fraction(N + 1, m + k + 1)
                    d = degree_of(N, 0, [(m, N), (0, k)])
                    if d is not None and d >= 1:
                        lhs = E.invariant(N, 0, [(m, N), (0, k)]) * c_factor(
                            N + 1, m
                        )
                        assert lhs == Fraction(N + 1, m + k + 1)

    def test_ceiling_identity_behind_theorem(self):
        from gwrec.algebra import ceil_div

        for N in (1, 2, 3):
            for k in range(N + 1):
                assert ceil_div(k - N, N + 1) == 0

    @pytest.mark.parametrize(
        "N,g,ks,ms",
        [
            (1, 0, (1,), (3, 5, 7)),
            (2, 0, (1, 2), (4, 7)),
            (1, 1, (0,), (2, 3, 4)),
            (2, 1, (2,), (3, 4)),
            (1, 1, (1, 1), (2, 4)),
        ],
    )
    def test_negative_evaluation(self, N, g, ks, ms):
        rep = verify_negative_evaluation(N, g, ks, ms)
        assert rep.status == "pass", rep.to_obj()

    def test_negative_evaluation_needs_an_insertion(self):
        with pytest.raises(ValueError):
            verify_negative_evaluation(1, 0, (), ())

    def test_p_string_divisor(self):
        assert verify_p_string_divisor(1, 0, 2, max_m=10).status == "pass"
        assert verify_p_string_divisor(2, 0, 3, max_m=6).status == "pass"
        assert verify_p_string_divisor(1, 1, 1, max_m=8).status == "pass"

    def test_dilaton_derivative(self):
        assert verify_dilaton_derivative(0, 3).status == "pass"
        assert verify_dilaton_derivative(1, 1).status == "pass"
        assert verify_dilaton_derivative(2, 1).status == "exploratory"

    def test_asymptotics(self):
        rep = asymptotics_report(
            1, 1, 1, (2,), 80, atom_values=ATOMS, bound=Fraction(1, 40)
        )
        assert rep.status == "pass"
        assert rep.witness["deviation"] == Fraction(1, 80)

    def test_asymptotics_unresolved_atoms(self):
        rep = asymptotics_report(1, 1, 1, (2,), 40)
        assert rep.status == "inconclusive-atoms"

    def test_asymptotics_rejects_degenerate_ray(self):
        with pytest.raises(ValueError):
            asymptotics_report(1, 0, 2, (1, 0), 40)

    def test_genus0_four_point_ratio_tends_to_one(self):
        rep = asymptotics_report(1, 0, 4, (1, 1, 1, 1), 60, bound=Fraction(1, 10))
        assert rep.status == "pass"


class TestParity:
    def test_stationary_parity_matches_engine(self):
        for N in (1, 2):
            for g in (0, 1):
                for n in (1, 2, 3):
                    want = stationary_parity(N, g, n)
                    for _ in range(10):
                        pass
                    for ms in product(range(0, 5), repeat=n):
                        d = degree_of(N, g, [(m, N) for m in ms])
                        if d is not None:
                            assert sum(ms) % (N + 1) == want


class TestDegreeBounds:
    def test_fitted_degree_bound_attained(self):
        for N, g, n in [(1, 0, 4), (1, 1, 2), (2, 1, 1)]:
            q = fit_stationary(FitSpec(N=N, g=g, n=n, min_m=0))
            D = 3 * g - 3 + n
            assert all(p.degree() <= D for p in q.branches.values())
            assert any(p.degree() == D for p in q.branches.values())

    def test_decorated_fit_matches_engine(self):
        # a fit with one fixed primary insertion, checked off-grid
        spec = FitSpec(N=1, g=0, n=2, fixed_insertions=((0, 1),))
        q = fit_stationary(spec)
        for ms in [(7, 8), (9, 12)]:
            want = E.invariant(1, 0, [(0, 1)] + [(m, 1) for m in ms])
            want = want * c_factor(2, ms[0]) * c_factor(2, ms[1])
            assert q.eval(ms) == want


class TestExplicitCosets:
    def test_single_coset_fit(self):
        spec = FitSpec(N=1, g=0, n=2, fixed_insertions=((0, 1),))
        q = fit_stationary(spec)
        want = E.invariant(1, 0, [(0, 1), (3, 1), (5, 1)]) * (
            c_factor(2, 3) * c_factor(2, 5)
        )
        assert q.eval((3, 5)) == want
