import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwrec.algebra import MultiPoly, QuasiPoly, SymRat, binomial, c_factor, compositions
from gwrec.engine import DEFAULT_ENGINE as E
from gwrec.engine import degree_of
from gwrec.quasifit import (
    FitSpec,
    InconsistentSamplesError,
    UnderdeterminedSystemError,
    VerificationReport,
    _difference_plan,
    _differences,
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

from gwrec.engine import Engine, InvariantKey
from gwrec.quasifit import StationaryFamily

NEGATIVE_TWO_PRIMARIES = "b8f367e83dc7c380e156b3b868ccc3755d924e2868913006977974e37d1793a3"

ATOM_A = "gw[N=1;g=1;ins=(0,1)]"
ATOMS = {ATOM_A: Fraction(-1, 24)}


class TestQuasiFit:
    def _table(self, q, base, offsets):
        mod = q.N + 1
        return {
            a: q.eval(tuple(b + mod * x for b, x in zip(base, a))) for a in offsets
        }

    def test_recovers_known_polynomial(self):
        p = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 0): SymRat.atom("c")})
        q = QuasiPoly(1, 2, {(0, 0): p})
        table = self._table(q, (0, 0), product(range(3), repeat=2))
        assert quasi_fit(table, (0, 0), 1, 1) == p

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedSystemError):
            quasi_fit({(0,): SymRat(1)}, (0,), 1, 2)

    def test_inconsistent_samples(self):
        table = {(i,): SymRat(i) for i in range(4)}
        table[(4,)] = SymRat(99)  # off the line
        with pytest.raises(InconsistentSamplesError):
            quasi_fit(table, (0,), 1, 1)

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
            offsets = list(product(range(deg + 2), repeat=nvars))
            got = {}
            for res in branches:
                poly = quasi_fit(self._table(q, res, offsets), res, N, deg)
                if poly.terms:
                    got[res] = poly
            assert got == q.branches

    def test_samples_off_a_lower_set(self):
        # (2, 1) is sampled without (2, 0): not a lower set of the lattice
        table = {(0, 0): SymRat(1), (1, 0): SymRat(2), (0, 1): SymRat(3),
                 (1, 1): SymRat(4), (2, 1): SymRat(5)}
        with pytest.raises(ValueError, match="off the lattice"):
            quasi_fit(table, (0, 0), 1, 1)

    def test_non_integral_sample_point_is_rejected(self):
        # A base of 0.5, the least sample point, would otherwise be read as 0
        table = {(0,): SymRat(1), (1,): SymRat(1)}
        with pytest.raises(ValueError, match="0.5"):
            quasi_fit(table, (0.5,), 1, 0)
        assert quasi_fit(table, (Fraction(0),), 1, 0) == quasi_fit(table, (0,), 1, 0)

    def test_offsets_of_unequal_length_are_rejected(self):
        table = {(0, 0): SymRat(1), (1,): SymRat(1)}
        with pytest.raises(ValueError, match="unequal length"):
            quasi_fit(table, (0, 0), 1, 0)

    def test_base_of_the_wrong_length_is_rejected(self):
        table = {(0,): SymRat(1), (1,): SymRat(1)}
        with pytest.raises(ValueError, match="differ in length"):
            quasi_fit(table, (0, 0), 1, 0)

    def test_failing_fit_names_the_first_surplus_offset(self):
        # The (1, 2, 2) fit fails on unresolved genus-2 atoms; in table
        # order, its first nonzero surplus difference is at offset (2, 4).
        pattern = r"difference at offset \(2, 4\)"
        with pytest.raises(InconsistentSamplesError, match=pattern) as exc:
            fit_stationary(FitSpec(1, 2, 2))
        assert exc.value.atoms_only


def _ref_differences(table, degree):
    """Forward differences one SymRat subtraction at a time, axis by axis."""
    table = dict(table)
    for k in range(len(next(iter(table)))):
        for r in range(1, max(a[k] for a in table) + 1):
            for a in sorted(table, key=lambda a: a[k], reverse=True):
                if a[k] < r:
                    break
                table[a] = table[a] - table[a[:k] + (a[k] - 1,) + a[k + 1 :]]
    for a, d in table.items():
        if sum(a) > degree and d:
            raise InconsistentSamplesError(a)
    return {a: d for a, d in table.items() if sum(a) <= degree}


class TestDifferences:
    def test_columns_match_one_symrat_at_a_time(self):
        rng = random.Random(29)
        for _ in range(60):
            nvars = rng.randint(1, 3)
            deg = rng.randint(0, 3)
            names = ["a", "b"][: rng.randint(0, 2)]
            # A lower set: the simplex of the degree and a random box.
            box = [rng.randint(0, 3) for _ in range(nvars)]
            pts = {a for d in range(deg + 1) for a in compositions(d, nvars)}
            pts |= set(product(*(range(b + 1) for b in box)))

            def rand():
                return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

            coeffs = {
                a: SymRat(rand(), {n: rand() for n in names})
                for d in range(deg + 1)
                for a in compositions(d, nvars)
            }
            table = {
                x: sum(
                    (c * prod(binomial(xi, ai) for xi, ai in zip(x, a))
                     for a, c in coeffs.items()),
                    SymRat(0),
                )
                for x in pts
            }
            if rng.random() < 0.3:
                x = rng.choice(sorted(pts))
                table[x] = table[x] + SymRat(0, {rng.choice(names or ["c"]): 1})
            try:
                want = _ref_differences(table, deg)
            except InconsistentSamplesError:
                with pytest.raises(InconsistentSamplesError):
                    _differences(dict(table), deg)
                continue
            got = _differences(dict(table), deg)
            assert got == want
            assert all(all(v.atoms.values()) for v in got.values())

    def test_cancelled_atom_leaves_no_zero_coefficient(self):
        table = {(i,): SymRat(i, {"x": 2}) for i in range(4)}
        got = _differences(table, 1)
        assert got[(0,)].atoms == {"x": 2}
        assert got[(1,)].atoms == {}
        assert got[(1,)] == 1

    @pytest.mark.parametrize("f4, atoms_only", [
        (SymRat(4, {"x": 4}), True),  # the level-4 difference vanishes
        (SymRat(4, {"x": 5}), True),  # it is x
        (SymRat(5, {"x": 4}), False),  # it is 1: atom-free
    ])
    def test_surplus_differences_all_in_atoms(self, f4, atoms_only):
        # The level-3 difference is x; the verdict reads every surplus one.
        table = {(i,): SymRat(i) for i in range(3)}
        table[(3,)] = SymRat(3, {"x": 1})
        table[(4,)] = f4
        with pytest.raises(InconsistentSamplesError) as exc:
            _differences(table, 1)
        assert exc.value.atoms_only is atoms_only

    def test_surplus_difference_in_an_atom_coefficient(self):
        table = {(i,): SymRat(i) for i in range(3)}
        table[(3,)] = SymRat(3, {"x": 1})
        with pytest.raises(InconsistentSamplesError):
            _differences(table, 1)


# Pairwise coprime denominators above 2^200, so that a column's common
# denominator runs to hundreds of digits.
HUGE_DENOMINATORS = [3**127, 5**87, 7**72, 11**58]


def _lower_set(nvars, degree, tops):
    """The simplex of total degree <= degree + 1 with the boxes below
    `tops`: a lower set of the lattice holding every surplus node."""
    pts = {a for d in range(degree + 2) for a in compositions(d, nvars)}
    for top in tops:
        pts |= set(product(*(range(t + 1) for t in top)))
    return sorted(pts)


@st.composite
def _polynomial_tables(draw):
    """(table, degree): the samples on a random lower set of a polynomial
    of total degree <= degree, with or without atoms, whose coefficients'
    denominators are small or huge."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars), max_size=3))
    names = draw(st.sampled_from([[], ["a"], ["a", "b"]]))
    rat = st.builds(
        Fraction,
        st.integers(-(2**70), 2**70),
        st.sampled_from([1, 2, 3, 24, *HUGE_DENOMINATORS]),
    )
    coeffs = {
        a: SymRat(draw(rat), {n: draw(rat) for n in names})
        for d in range(degree + 1)
        for a in compositions(d, nvars)
    }
    table = {
        x: sum(
            (c * prod(binomial(xi, ai) for xi, ai in zip(x, a)) for a, c in coeffs.items()),
            SymRat(0),
        )
        for x in _lower_set(nvars, degree, tops)
    }
    return table, degree


class TestIntegerDifferences:
    @given(_polynomial_tables(), st.data())
    def test_matches_one_symrat_at_a_time(self, td, data):
        table, degree = td
        if data.draw(st.booleans()):
            # Perturb a few nodes: the check must fail exactly when the
            # reference's does, at the same offset.
            for x in data.draw(st.lists(st.sampled_from(sorted(table)), max_size=3)):
                table[x] = table[x] + SymRat(data.draw(st.fractions(max_denominator=9)))
        try:
            want = _ref_differences(table, degree)
        except InconsistentSamplesError as exc:
            with pytest.raises(InconsistentSamplesError) as got:
                _differences(dict(table), degree)
            assert f"offset {exc.args[0]} " in str(got.value)
            return
        before = dict(table)
        got = _differences(table, degree)
        assert table == before
        assert got == want
        assert all(type(v) is SymRat and all(v.atoms.values()) for v in got.values())

    @given(_polynomial_tables(), st.data())
    def test_one_node_off_by_one_over_a_huge_q(self, td, data):
        table, degree = td
        x = data.draw(st.sampled_from(sorted(table)))
        q = data.draw(st.sampled_from(HUGE_DENOMINATORS)) + 1
        assert _differences(dict(table), degree)
        for bump in (SymRat(Fraction(1, q)), SymRat.atom("a", Fraction(1, q))):
            off = dict(table)
            off[x] = off[x] + bump
            with pytest.raises(InconsistentSamplesError, match="beyond degree"):
                _differences(off, degree)


def _schedule_differences(table, degree):
    """The per-table schedule loop that the difference plan replaced: the
    step-down pairs, the lower-set and degree checks and the Newton and
    surplus positions are rebuilt from the offsets of every table."""
    keys = list(table)
    pos = {a: i for i, a in enumerate(keys)}
    nvars = len(keys[0])
    steps = [[] for _ in range(nvars)]
    for i, a in enumerate(keys):
        for k in range(nvars):
            if a[k]:
                b = a[:k] + (a[k] - 1,) + a[k + 1 :]
                if b not in pos:
                    raise ValueError(f"samples off the lattice: offset {a} without {b}")
                steps[k].append((a[k], i, pos[b]))
    for a in compositions(degree, nvars):
        if a not in pos:
            raise UnderdeterminedSystemError(
                f"no sample at offset {a} for an interpolant of degree {degree}"
            )
    values = table.values()
    names = list(dict.fromkeys(n for v in values for n in v.atoms))
    columns, dens = [], []
    for col in [[v.scalar for v in values]] + [
        [v.atoms.get(n, 0) for v in values] for n in names
    ]:
        ratios = [x.as_integer_ratio() for x in col]
        den = lcm(*[q for _, q in ratios])
        columns.append([p * (den // q) for p, q in ratios])
        dens.append(den)
    for down in steps:
        down.sort(reverse=True)
        for r in range(1, down[0][0] + 1 if down else 0):
            for level, i, j in down:
                if level < r:
                    break
                for col in columns:
                    col[i] -= col[j]

    def value(i):
        return SymRat._make(Fraction(columns[0][i], dens[0]), {
            n: Fraction(col[i], d)
            for n, col, d in zip(names, columns[1:], dens[1:]) if col[i]
        })

    newton = {}
    for i, a in enumerate(keys):
        if sum(a) <= degree:
            newton[a] = value(i)
        elif any(col[i] for col in columns):
            surplus = [value(j) for j, b in enumerate(keys) if sum(b) > degree]
            raise InconsistentSamplesError(
                f"difference at offset {a} is {value(i)!r}, beyond degree {degree}",
                atoms_only=all(v.atoms for v in surplus if v),
            )
    return newton


@st.composite
def _offsets(draw):
    """(offsets, degree): a random lower set in 2 or 3 variables, with or
    without the simplex of the degree, in a random order; now and then one
    node is dropped, so that the set may no longer be a lower set."""
    nvars = draw(st.integers(2, 3))
    degree = draw(st.integers(0, 3))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=3))
    pts = set()
    for top in tops:
        pts |= set(product(*(range(t + 1) for t in top)))
    if draw(st.booleans()):
        pts |= {a for d in range(degree + 2) for a in compositions(d, nvars)}
    pts = sorted(pts)
    if len(pts) > 1 and draw(st.integers(0, 5)) == 0:
        pts.remove(draw(st.sampled_from(pts[1:])))
    return draw(st.permutations(pts)), degree


def _values(data, offsets, degree):
    """Samples at `offsets` of a random polynomial of total degree <= degree,
    with or without atoms; now and then one sample is bumped off it."""
    nvars = len(offsets[0])
    names = data.draw(st.sampled_from([[], ["a"], ["a", "b"]]))
    rat = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    coeffs = {
        a: SymRat(data.draw(rat), {n: data.draw(rat) for n in names})
        for d in range(degree + 1)
        for a in compositions(d, nvars)
    }
    values = [
        sum(
            (c * prod(binomial(xi, ai) for xi, ai in zip(x, a)) for a, c in coeffs.items()),
            SymRat(0),
        )
        for x in offsets
    ]
    if data.draw(st.integers(0, 3)) == 0:
        i = data.draw(st.integers(0, len(values) - 1))
        bump = data.draw(st.sampled_from([SymRat(1), SymRat.atom("a")]))
        values[i] = values[i] + bump
    return values


def _outcome(differences, table, degree):
    """The Newton table in its order, or the error's type, text and verdict."""
    try:
        return list(differences(dict(table), degree).items())
    except (ValueError, InconsistentSamplesError) as exc:
        return type(exc), str(exc), getattr(exc, "atoms_only", None)


class TestDifferencePlan:
    @given(_offsets(), st.data())
    def test_tables_sharing_offsets_match_the_schedule_loop(self, od, data):
        # The second table meets the plan that the first one left cached.
        offsets, degree = od
        for _ in range(2):
            table = dict(zip(offsets, _values(data, offsets, degree)))
            want = _outcome(_schedule_differences, table, degree)
            assert _outcome(_differences, table, degree) == want

    @given(_offsets(), st.data())
    def test_reordered_offsets_give_the_same_result(self, od, data):
        offsets, degree = od
        table = dict(zip(offsets, _values(data, offsets, degree)))
        order = data.draw(st.permutations(offsets))
        want = _outcome(_differences, table, degree)
        got = _outcome(_differences, {x: table[x] for x in order}, degree)
        if isinstance(want, list):
            assert dict(got) == dict(want)
        else:
            assert got[0] is want[0] and got[2] == want[2]

    def test_tables_sharing_offsets_share_one_plan(self):
        table = {(i, j): SymRat(i + 2 * j) for i in range(3) for j in range(3 - i)}
        _differences(table, 1)
        hits = _difference_plan.cache_info().hits
        _differences({a: v * 3 for a, v in table.items()}, 1)
        assert _difference_plan.cache_info().hits == hits + 1

    def test_the_plan_holds_no_sample_value(self):
        table = {(i,): SymRat(i, {"a": Fraction(1, 3)}) for i in range(4)}
        plan = _difference_plan(tuple(table), 2)

        def leaves(x):
            if isinstance(x, tuple):
                for y in x:
                    yield from leaves(y)
            else:
                yield x

        assert {type(x) for x in leaves(tuple(plan))} <= {int}

    def test_the_plan_cache_is_bounded(self):
        bound = _difference_plan.cache_info().maxsize
        assert bound is not None
        for n in range(bound + 3):
            _differences({(i,): SymRat(i) for i in range(n + 2)}, 1)
        assert _difference_plan.cache_info().currsize <= bound


# sha256 of json.dumps([fit.to_obj(), ...], sort_keys=True) over the
# benchmark's five fits, each on a fresh engine, computed while every grid
# point read the engine itself.
BENCHMARK_FITS = "0c58c99beacac2b58e53339e233d97fbaafe51300206037da6923b8811589fc3"


class CountingEngine(Engine):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def invariant(self, N, g, insertions):
        self.reads += 1
        return super().invariant(N, g, insertions)


def test_spec_and_report_are_records():
    # the constructor, repr, == and hash that dataclasses used to generate
    assert repr(FitSpec(1, 0, 3)) == "FitSpec(N=1, g=0, n=3, fixed_insertions=(), min_m=None)"
    assert repr(VerificationReport("c", "pass")) == (
        "VerificationReport(claim='c', status='pass', witness=None)"
    )
    spec = FitSpec(2, 1, 2, ((0, 1),), 5)
    assert spec == FitSpec(N=2, g=1, n=2, fixed_insertions=((0, 1),), min_m=5)
    assert spec != FitSpec(2, 1, 2, ((0, 1),))
    assert spec != (2, 1, 2, ((0, 1),), 5)
    assert spec.__eq__((2, 1, 2, ((0, 1),), 5)) is NotImplemented
    rep = VerificationReport("c", "fail", {"x": 1})
    assert rep == VerificationReport(claim="c", status="fail", witness={"x": 1})
    assert rep != VerificationReport("c", "fail")
    assert rep != ("c", "fail", {"x": 1})
    assert rep.__eq__(("c", "fail", {"x": 1})) is NotImplemented
    for obj in (spec, rep):
        with pytest.raises(TypeError):
            hash(obj)
    with pytest.raises(ValueError):
        FitSpec(0, 0, 3)


class TestFitStationary:
    def test_reads_the_engine_once_per_multiset_of_levels(self):
        # Seven cosets of 3^5 grid points and two surplus nodes each name
        # 443 multisets of levels; the symmetry checks reorder grid points.
        eng = CountingEngine()
        fit_stationary(FitSpec(2, 0, 5), eng)
        assert eng.reads == 443

    def test_benchmark_fits_are_unchanged(self):
        specs = [FitSpec(2, 0, 5), FitSpec(1, 1, 3), FitSpec(2, 1, 2),
                 FitSpec(1, 2, 1, min_m=5), FitSpec(2, 2, 1, min_m=5)]
        fits = [fit_stationary(spec, Engine()).to_obj() for spec in specs]
        text = json.dumps(fits, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == BENCHMARK_FITS

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

    @pytest.mark.parametrize("N", [0, -1, -2])
    def test_target_dimension_below_one_is_rejected(self, N):
        # No residue modulo N + 1 is taken first: at N = -1 that would
        # divide by zero, and below it sample nothing and pass.
        with pytest.raises(ValueError, match="must be >= 1"):
            FitSpec(N, 0, 3)
        with pytest.raises(ValueError, match="must be >= 1"):
            StationaryFamily(N, 0, 3)
        with pytest.raises(ValueError, match="must be >= 1"):
            verify_p_string_divisor(N, 0, 3)
        with pytest.raises(ValueError, match="must be >= 1"):
            asymptotics_report(N, 0, 3, (1, 1, 1), 20)

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

    @pytest.mark.parametrize("N,g,n", [(1, 0, 3), (2, 0, 3), (1, 1, 3), (2, 1, 3), (1, 1, 4)])
    def test_two_low_slots_match_the_fit(self, N, g, n):
        # The fit interpolates on per-coset grids and runs quasi_fit's own
        # checks; the family extrapolates from the simplex of nodes in the
        # low slots.  Every on-coset point with two or more low slots.
        q = fit_stationary(FitSpec(N, g, n))
        fam = StationaryFamily(N, g, n)
        floor = FitSpec(N, g, n).floor()
        pts = [
            v for v in product(range(-N, 3), repeat=n)
            if sum(v) % (N + 1) == stationary_parity(N, g, n)
            and sum(x < floor for x in v) >= 2
        ]
        assert pts
        for v in pts:
            assert fam.value(v) == q.eval(v), v

    # N = 1, g = 1, three slots: the degree is 3 and the floor 2, and the
    # query (-1, 0, 3) has the low slots on the bases 3 and 2, so each node
    # (j0, j1) is the bracket at levels (3 + 2 j0, 2 + 2 j1, 3) and no two
    # nodes share a key.
    @pytest.mark.parametrize("node", [(1, 1), (0, 3), (2, 2), (4, 0)])
    def test_one_wrong_node_is_caught(self, node):
        levels = (3 + 2 * node[0], 2 + 2 * node[1], 3)
        fam = StationaryFamily(1, 1, 3, OneBracketOff(1, 1, [(m, 1) for m in levels]))
        with pytest.raises(InconsistentSamplesError, match="is not polynomial"):
            fam.value((-1, 0, 3))

    def test_two_low_slots_sample_a_simplex(self):
        class Counting(Engine):
            calls = 0

            def invariant(self, N, g, insertions):
                self.calls += 1
                return super().invariant(N, g, insertions)

        eng = Counting()
        D = FitSpec(2, 1, 5).degree_bound
        StationaryFamily(2, 1, 5, eng).value((-2, -1, 2, 4, 7))
        assert eng.calls == comb(D + 3, 2) == 28

    def test_a_family_does_not_keep_its_engine_alive(self):
        first = Engine()
        assert stationary_family(1, 0, 2, first) is stationary_family(1, 0, 2, first)
        ref = weakref.ref(first)
        del first
        second = Engine()
        assert stationary_family(1, 0, 2, second).engine is second
        gc.collect()
        assert ref() is None

    def test_non_integral_argument_is_rejected(self):
        fam = stationary_family(1, 0, 2)
        with pytest.raises(ValueError, match="-1.5"):
            fam.value((-1.5, 4))
        assert fam.value((Fraction(-1), Fraction(4))) == fam.value((-1, 4))

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

    def test_negative_evaluation_two_primaries_pinned(self):
        # sha256 of the reports, as computed when the family extrapolated
        # one slot at a time: two primary insertions and one or two
        # stationary ones, so each query has up to two slots below the floor.
        eng = Engine()
        reps = []
        for N in (1, 2):
            for g in (0, 1):
                lo = max(0, 3 * g - 1)
                for ks in combinations_with_replacement(range(N + 1), 2):
                    for n in (1, 2):
                        for ms in combinations_with_replacement((lo, lo + 1, lo + 3), n):
                            reps.append(verify_negative_evaluation(N, g, ks, ms, eng).to_obj())
        assert len(reps) == 162 and {r["status"] for r in reps} == {"pass"}
        digest = hashlib.sha256(json.dumps(reps, sort_keys=True).encode()).hexdigest()
        assert digest == NEGATIVE_TWO_PRIMARIES

    def test_negative_evaluation_rejects_non_integral_input(self):
        # 1.7 and 3.2 would otherwise be read as 1 and 3, and pass
        with pytest.raises(ValueError, match="1.7"):
            verify_negative_evaluation(1, 0, [1.7], [3, 5])
        with pytest.raises(ValueError, match="3.2"):
            verify_negative_evaluation(1, 0, [1], [3.2, 5])
        rep = verify_negative_evaluation(1, 0, [Fraction(1)], [Fraction(3), 5])
        assert rep.to_obj() == verify_negative_evaluation(1, 0, [1], [3, 5]).to_obj()

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

    @pytest.mark.parametrize("check, args, points", [
        (verify_p_string_divisor, (1, 0, 2, E, 10), 66),
        (verify_p_string_divisor, (2, 0, 3, E, 6), 57),
        (verify_p_string_divisor, (1, 1, 1, E, 8), 7),
        (verify_dilaton_derivative, (0, 3), 85),
        (verify_dilaton_derivative, (1, 1), 4),
    ])
    def test_points_checked_are_pinned(self, check, args, points):
        # The count of grid points each check compares, so that a check
        # which skips or double-counts points cannot pass unnoticed.
        assert check(*args).witness == {"points": points}

    def test_asymptotics(self):
        rep = asymptotics_report(
            1, 1, 1, (2,), 80, atom_values=ATOMS, bound=Fraction(1, 40)
        )
        assert rep.status == "pass"
        assert rep.witness["deviation"] == Fraction(1, 80)

    def test_asymptotics_steps_down_to_an_admissible_point(self):
        # m = 81 is off the even coset, so the ray is read at m = 80
        rep = asymptotics_report(
            1, 1, 1, (1,), 81, atom_values=ATOMS, bound=Fraction(1, 40)
        )
        assert rep.witness["m"] == (80,)
        assert rep.witness["deviation"] == Fraction(1, 80)

    def test_asymptotics_unresolved_atoms(self):
        rep = asymptotics_report(1, 1, 1, (2,), 40)
        assert rep.status == "inconclusive-atoms"
        assert rep.witness == {"atom": "gw[N=1;g=1;ins=(0,1)]"}

    @pytest.mark.parametrize("m_max", [0, -5])
    def test_asymptotics_without_a_point_on_the_ray(self, m_max):
        with pytest.raises(ValueError, match=f"no admissible point up to m = {m_max}"):
            asymptotics_report(1, 1, 1, (1,), m_max)

    def test_asymptotics_rejects_degenerate_ray(self):
        with pytest.raises(ValueError, match="positive entries"):
            asymptotics_report(1, 0, 2, (1, 0), 40)

    @pytest.mark.parametrize("ray", [(1, 1), (1, 1, 1, 1)])
    def test_asymptotics_rejects_ray_of_wrong_length(self, ray):
        # a length mismatch names both counts, not the sign of the entries
        with pytest.raises(ValueError, match=f"ray has {len(ray)} entries for n = 3 points"):
            asymptotics_report(1, 0, 3, ray, 40)

    def test_asymptotics_rejects_non_integral_ray(self):
        # 1.9 would otherwise be read as 1 and the claim made for (1, 1, 1, 1)
        with pytest.raises(ValueError, match="1.9"):
            asymptotics_report(1, 0, 4, (1.9, 1, 1, 1), 20, bound=1)
        rep = asymptotics_report(1, 1, 1, (Fraction(2),), 80, atom_values=ATOMS)
        assert rep.witness["m"] == (80,)

    def test_genus0_four_point_ratio_tends_to_one(self):
        rep = asymptotics_report(1, 0, 4, (1, 1, 1, 1), 60, bound=Fraction(1, 10))
        assert rep.status == "pass"


class OneBracketOff(Engine):
    """An engine whose public answer for one bracket is off by one."""

    def __init__(self, N, g, insertions):
        super().__init__()
        self.off = InvariantKey.make(N, g, insertions)

    def invariant(self, N, g, insertions):
        val = super().invariant(N, g, insertions)
        return val + 1 if InvariantKey.make(N, g, insertions) == self.off else val


class TestVerifiersReportFailures:
    """Every check can fail: each one is fed one wrong value and must
    report it, with its documented witness."""

    def test_top_coefficients(self):
        q = fit_stationary(FitSpec(N=1, g=0, n=4))
        res, poly = sorted(q.branches.items())[0]
        e = (1, 0, 0, 0)
        wrong = MultiPoly(4, {**poly.terms, e: poly.coeff(e) + 1})
        rep = verify_top_coefficients(QuasiPoly(1, 4, {**q.branches, res: wrong}), 0, 4, 1)
        assert rep.status == "fail"
        assert rep.witness == {
            "coset": res, "monomial": e, "got": Fraction(3, 2), "expected": Fraction(1, 2),
        }

    def test_negative_evaluation(self):
        eng = OneBracketOff(2, 0, [(0, 1), (0, 2), (4, 2), (7, 2)])
        rep = verify_negative_evaluation(2, 0, (1, 2), (4, 7), eng)
        assert rep.status == "fail"
        assert set(rep.witness) == {"engine", "family"}
        assert rep.witness["engine"] - rep.witness["family"] == c_factor(3, 4) * c_factor(3, 7)
        assert rep.to_obj()["witness"]["engine"] == repr(rep.witness["engine"])

    def test_divisor_form(self):
        eng = OneBracketOff(1, 0, [(0, 1)] * 3)
        rep = verify_p_string_divisor(1, 0, 2, eng, max_m=4)
        assert rep.status == "fail"
        assert rep.witness == {"form": "divisor", "m": (0, 0), "lhs": 2, "rhs": 1}

    def test_string_form(self):
        # One wrong four-slot bracket would break the polynomial slice that
        # extrapolates the string side to level -1 (and raise).  Adding
        # m_0 m_1 m_2 m_3 to every normalised four-slot bracket keeps each
        # slice linear and vanishes at level 0, where the divisor form reads
        # the family, so only the string form sees it.
        class ProductOff(Engine):
            def invariant(self, N, g, insertions):
                val = super().invariant(N, g, insertions)
                if len(insertions) == 4:
                    ms = [m for m, _ in insertions]
                    val = val + Fraction(prod(ms), prod(c_factor(2, m) for m in ms))
                return val

        rep = verify_p_string_divisor(1, 0, 3, ProductOff(), max_m=4)
        assert rep.status == "fail"
        assert set(rep.witness) == {"form", "m", "lhs", "rhs"}
        assert rep.witness["form"] == "string"
        ms = rep.witness["m"]
        assert rep.witness["lhs"] - rep.witness["rhs"] == -prod(ms)

    def test_dilaton_derivative(self):
        eng = OneBracketOff(1, 0, [(1, 0), (0, 1), (0, 1), (0, 1)])
        rep = verify_dilaton_derivative(0, 3, eng)
        assert rep.status == "fail"
        assert set(rep.witness) == {"m", "lhs", "rhs"}
        assert rep.witness["m"] == (0, 0, 0)
        assert rep.witness["lhs"] - rep.witness["rhs"] == 1


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
