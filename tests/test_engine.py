import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gwrec.algebra import SymRat, c_factor, compositions, dot
from gwrec.cli import save_cache
from gwrec.engine import (
    DEFAULT_ENGINE,
    Engine,
    InvariantKey,
    _dim_excess,
    _forced_class,
    _forget_terms,
    _g0_one,
    _harmonic,
    _run_routes,
    _splits,
    _weighted_splits,
    degree_of,
)
from gwrec.moduli import point_invariant

E = DEFAULT_ENGINE


# sha256 of the save_cache bytes of a fresh engine after evaluating
# _golden_keys().  The 413 records are those computed before the genus-0
# memo held plain Fractions, byte for byte, less the 369 zero records of
# keys no degree fits, which _golden_keys() asks for directly and the
# engine no longer memoizes.
GOLDEN_ENGINE = "00d9ce821646fe5550c38eb5dde4414c4d4c202bd024663882dff7fce6c41c98"


def _golden_keys():
    """N in {1, 2}, g in {0, 1}: one or two primary insertions and one or
    two stationary ones at levels <= 8, at most three in all."""
    for N, g in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        for r in (1, 2):
            for ks in combinations_with_replacement(range(N + 1), r):
                for s in range(1, 4 - r):
                    for ms in combinations_with_replacement(range(9), s):
                        yield N, g, [(0, k) for k in ks] + [(m, N) for m in ms]


def _cache_digest(keys, tmp_path):
    eng = Engine()
    for N, g, ins in keys:
        eng.invariant(N, g, ins)
    path = tmp_path / "cache.jsonl"
    save_cache(eng.cache, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_engine_golden_digest(tmp_path):
    assert _cache_digest(_golden_keys(), tmp_path) == GOLDEN_ENGINE


# sha256 of the save_cache bytes of a fresh engine after evaluating
# _golden_keys_genus2(), computed once the chain brackets stopped evaluating
# factor keys no degree fits.  The 717 records are those of the closed-form
# one-point engine, byte for byte, less its 616 genus-0 records that were
# zero by dimension alone (test_memo_holds_no_key_without_a_degree).
GOLDEN_ENGINE_GENUS2 = "25c6b136cd1a217e5dc90942db466361f5e613279b9bc72c24cdc284f3da8cc1"


def _golden_keys_genus2():
    """N in {1, 2}, g = 2: one or two stationary insertions at levels 5..9,
    alone or with tau_0(w) or tau_0(pt), where the degree is integral.  The
    memo then holds genus-2 recursion terms and the chain brackets'
    genus-0 factors."""
    for N in (1, 2):
        for s in (1, 2):
            for ms in combinations_with_replacement(range(5, 10), s):
                for extra in ([], [(0, 1)], [(0, N)]):
                    ins = extra + [(m, N) for m in ms]
                    if degree_of(N, 2, ins) is not None:
                        yield N, 2, ins


def test_engine_golden_digest_genus2(tmp_path):
    assert _cache_digest(_golden_keys_genus2(), tmp_path) == GOLDEN_ENGINE_GENUS2


# sha256 of the save_cache bytes, and of the canonical keys in insertion
# order, of a fresh engine after evaluating _golden_keys_sweep(): 352
# records, among them the N = 3 two-point raises through the divisor
# equation, which the digests above do not reach.
GOLDEN_SWEEP = "ece25d561eff45d35d13bf99a9ec96926edf86b7b60c9c0baab9d1bd716cb400"
GOLDEN_SWEEP_ORDER = "44fb9d8ab1938a27f68ce5fb733f2347ca4f6ea994c35499c5d5d5a814c38424"


def _golden_keys_sweep():
    """<pt^(3d-1)> on P^2 for d <= 4, <(0,2)^8> on P^3, then every
    genus-0 two-point key with N <= 3 and levels <= 6."""
    for d in range(1, 5):
        yield 2, 0, [(0, 2)] * (3 * d - 1)
    yield 3, 0, [(0, 2)] * 8
    for N in (1, 2, 3):
        pairs = [(m, k) for m in range(7) for k in range(N + 1)]
        for a, b in combinations_with_replacement(pairs, 2):
            yield N, 0, [a, b]


def test_engine_golden_digest_sweep(tmp_path):
    assert _cache_digest(_golden_keys_sweep(), tmp_path) == GOLDEN_SWEEP
    eng = Engine()
    for N, g, ins in _golden_keys_sweep():
        eng.invariant(N, g, ins)
    order = "".join(key.canonical() + "\n" for key in eng.cache)
    assert len(eng.cache) == 352
    assert hashlib.sha256(order.encode()).hexdigest() == GOLDEN_SWEEP_ORDER


def test_memo_holds_no_key_without_a_degree():
    eng = Engine()
    for N, g, ins in _golden_keys_genus2():
        eng.invariant(N, g, ins)
    assert [key for key in eng.cache if key.degree() is None] == []


def test_values_of_keys_the_divisor_chain_cached():
    # The one-point divisor chain left these in the genus-2 digest's memo.
    assert Engine().invariant(1, 0, [(0, 1), (0, 1), (0, 1)]) == 1
    assert Engine().invariant(2, 0, [(0, 0), (0, 1), (0, 1)]) == 1


class TestDegreeOf:
    def test_examples(self):
        assert degree_of(1, 0, [(0, 1), (0, 1)]) == 1
        assert degree_of(1, 0, [(1, 1), (0, 1)]) is None
        assert degree_of(2, 0, [(4, 2)]) == 2

    def test_negative_degree_is_none(self):
        assert degree_of(1, 0, [(0, 0)]) is None


_insertions = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 5)), max_size=5
)


class TestForcedClass:
    @given(st.integers(1, 5), st.integers(0, 3), _insertions)
    def test_unique_class_completing_the_excess(self, N, g, ins):
        ins = [(m, min(k, N)) for m, k in ins]
        excess = _dim_excess(N, g, ins)
        solutions = [e for e in range(N + 1) if (excess + e) % (N + 1) == 0]
        assert solutions == [_forced_class(N, g, ins)]


class TestClosedForms:
    def test_one_point_formula(self):
        # <tau_{(N+1)d-2}(pt)> = 1/d!^(N+1)
        for N in (1, 2, 3):
            for d in range(1, 6):
                m = (N + 1) * d - 2
                fact = 1
                for i in range(2, d + 1):
                    fact *= i
                assert E.invariant(N, 0, [(m, N)]) == Fraction(
                    1, fact ** (N + 1)
                ), (N, d)

    def test_one_point_examples(self):
        assert E.invariant(1, 0, [(0, 1)]) == 1
        assert E.invariant(1, 0, [(2, 1)]) == Fraction(1, 4)

    def test_two_point_stationary(self):
        assert E.invariant(1, 0, [(1, 1), (1, 1)]) == Fraction(1, 2)
        # closed-form two-point values on a grid
        for N in (1, 2):
            for m1 in range(0, 8):
                for m2 in range(m1, 8):
                    d = degree_of(N, 0, [(m1, N), (m2, N)])
                    want = 0
                    if d is not None and d >= 1:
                        want = Fraction(
                            1, c_factor(N + 1, m1) * c_factor(N + 1, m2) * d
                        )
                    assert E.invariant(N, 0, [(m1, N), (m2, N)]) == want

    def test_two_point_mixed(self):
        # <tau_m(pt) tau_0(w^k)> = 1/(c_{N+1}(m) d)
        for N in (1, 2, 3):
            for k in range(N + 1):
                for m in range(0, 10):
                    d = degree_of(N, 0, [(m, N), (0, k)])
                    want = 0
                    if d is not None and d >= 1:
                        want = Fraction(1, c_factor(N + 1, m) * d)
                    assert E.invariant(N, 0, [(m, N), (0, k)]) == want, (N, k, m)

    def test_three_point_stationary(self):
        assert E.invariant(1, 0, [(0, 1)] * 3) == 1
        # <tau_m1 tau_m2 tau_m3> = 1/prod c
        for ms in [(2, 0, 0), (1, 1, 0), (2, 2, 2), (3, 2, 1)]:
            d = degree_of(1, 0, [(m, 1) for m in ms])
            want = 0
            if d is not None:
                want = Fraction(1)
                for m in ms:
                    want /= c_factor(2, m)
            assert E.invariant(1, 0, [(m, 1) for m in ms]) == want, ms

    def test_descendant_of_unit_one_point(self):
        # <tau_{2d-1}(1)>_d = -2 H_d / d!^2 on the line (J-function values)
        for d in range(1, 6):
            H = sum(Fraction(1, i) for i in range(1, d + 1))
            fact = 1
            for i in range(2, d + 1):
                fact *= i
            assert E.invariant(1, 0, [(2 * d - 1, 0)]) == -2 * H / fact**2


class TestOnePointClosedForm:
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 16))
    def test_matches_trr0_and_divisor(self, N, a, d):
        # <tau_0(w)^2 tau_m(w^a)>_d by the topological recursion is
        # d^2 <tau_m(w^a)> + 2d <tau_{m-1}(w^(a+1))> + <tau_{m-2}(w^(a+2))>
        # by the divisor rule, twice.
        a = min(a, N)
        m = (N + 1) * d + N - 2 - a
        assume(1 <= m <= 30)
        eng = Engine()
        three = _run(eng.trr0_expand(N, ((0, 1), (0, 1), (m, a))), eng)
        y = _g0_one(N, (m - 1, a + 1), d) if a < N else 0
        z = _g0_one(N, (m - 2, a + 2), d) if a + 2 <= N and m >= 2 else 0
        assert _g0_one(N, (m, a), d) == (three - 2 * d * y - z) / d**2

    def test_unstable_degree_zero(self):
        assert _g0_one(3, (0, 1), 0) == 0

    @pytest.mark.parametrize("d", [1, 2, 7, 30, 751])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_harmonic_sums(self, d, s):
        assert _harmonic(d, s) == sum(Fraction(1, r**s) for r in range(1, d + 1))


def _truncated_mul(p, q, n):
    """The product of two coefficient lists, truncated at x^n."""
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(p[: n + 1]):
        for j, b in enumerate(q[: n + 1 - i]):
            out[i + j] += a * b
    return out


def _j_function(N, e):
    """J_e(x) = prod_{r<=e} (1 + x/r)^(-(N+1)) / e!^(N+1) mod x^(N+1), by
    multiplying truncated geometric series."""
    J, fact = [Fraction(1)], 1
    for r in range(1, e + 1):
        fact *= r
        geometric = [Fraction(-1, r) ** j for j in range(N + 1)]
        for _ in range(N + 1):
            J = _truncated_mul(J, geometric, N)
    return [c / fact ** (N + 1) for c in J]


def _s_entry(N, e, i, a, c, J):
    """S_e(i; a, c): the degree-e, z^(-i) coefficient of the S-operator
    between w^a and w^c, [x^(N-a)] (x + e)^c J_e(x) for e, i >= 1."""
    if e == 0:
        return Fraction(int(i == 0 and a + c == N))
    if i == 0:
        return Fraction(0)
    poly = [Fraction(1)]
    for _ in range(c):
        poly = _truncated_mul(poly, [Fraction(e), Fraction(1)], N)
    return _truncated_mul(poly, J[e], N)[N - a]


def _two_point_oracle(N, k, a, l, b, d, J):
    """<tau_k(w^a) tau_l(w^b)>_{0,d} from V(z, w) = S(z)^T eta^-1 S(w) /
    (z + w), expanding 1/(z + w) in w/z."""
    total = Fraction(0)
    for s in range(k + 1):
        for d1 in range(d + 1):
            c = (N + 1) * d1 + N - a - (k - s)
            if 0 <= c <= N:
                total += (-1) ** s * (
                    _s_entry(N, d1, k - s, a, c, J)
                    * _s_entry(N, d - d1, l + 1 + s, b, N - c, J)
                )
    return total


class TestTwoPointOracle:
    def test_s_operator_matches_engine(self):
        # Every ordered genus-0 two-point key of positive degree with
        # N <= 3 and levels < 14; the oracle is not symmetric term by term.
        eng, nonzero = Engine(), 0
        for N in (1, 2, 3):
            J = [_j_function(N, e) for e in range(15)]  # d <= 14 here
            for (k, a), (l, b) in product(product(range(14), range(N + 1)), repeat=2):
                d = degree_of(N, 0, [(k, a), (l, b)])
                if not d:
                    continue
                want = _two_point_oracle(N, k, a, l, b, d, J)
                assert eng.invariant(N, 0, [(k, a), (l, b)]) == want, (N, k, a, l, b)
                nonzero += want != 0
        assert nonzero == 1749


class TestDispatch:
    def test_atom_for_genus1_survivor(self):
        v = E.invariant(1, 1, [(0, 1)])
        assert v.atoms == {"gw[N=1;g=1;ins=(0,1)]": Fraction(1)}
        assert v.scalar == 0

    def test_genus2_subthreshold_is_atomic(self):
        v = E.invariant(1, 2, [(4, 1)])
        assert v.atoms == {"gw[N=1;g=2;ins=(4,1)]": Fraction(1)}

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            E.invariant(2, 0, [(0, 5)])

    def test_non_integral_input_is_rejected(self):
        # 2.9 would otherwise be read as level 2
        with pytest.raises(ValueError, match="2.9"):
            InvariantKey.make(1, 0, [(2.9, 1), (0, 1), (0, 1)])
        with pytest.raises(ValueError, match=r"Fraction\(1, 2\)"):
            E.invariant(1, 0, [(Fraction(1, 2), 1), (0, 1), (0, 1)])
        with pytest.raises(ValueError, match="2.5"):
            InvariantKey.make(2.5, 0, [(0, 1)])
        key = InvariantKey.make(Fraction(1), 0, [(Fraction(4), 1), (0, 1), (0, 1)])
        assert key == InvariantKey.make(1, 0, [(4, 1), (0, 1), (0, 1)])
        assert all(type(x) is int for x in (key.N, key.g, *key.ins[-1]))

    def test_permutation_invariance_and_cache(self):
        ins = [(2, 1), (0, 1), (3, 1), (1, 1)]
        a = E.invariant(1, 0, ins)
        b = E.invariant(1, 0, list(reversed(ins)))
        assert a == b
        key = InvariantKey.make(1, 0, ins)
        assert key in E.cache

    def test_genus0_values_are_rational(self):
        rng = random.Random(3)
        for _ in range(20):
            N = rng.choice([1, 2])
            n = rng.randint(1, 4)
            ins = [(rng.randint(0, 4), rng.randint(0, N)) for _ in range(n)]
            assert E.invariant(N, 0, ins).is_rational

    def test_degree0_triple_products(self):
        # these must not be killed by a blind string/divisor reduction
        assert E.invariant(2, 0, [(0, 0), (0, 1), (0, 1)]) == 1
        assert E.invariant(2, 0, [(0, 1), (0, 1), (0, 0)]) == 1
        assert E.invariant(3, 0, [(0, 1), (0, 1), (0, 1)]) == 1
        assert E.invariant(2, 0, [(0, 0), (0, 0), (0, 2)]) == 1
        assert E.invariant(2, 0, [(0, 0), (0, 1), (0, 2)]) == 0


def _forget_reference(N, g, X, d, k0):
    """The right side of the string (k0 = 0) or divisor (k0 = 1) equation
    for <tau_0(w^k0) X>_{g,d}, transcribed term by term: d <X> for the
    divisor equation, then for each insertion tau_m(w^k) of X in turn the
    bracket with it replaced by tau_(m-1)(w^(k+k0)), a term that vanishes
    when m = 0 or when w^(k+k0) = 0, that is k + k0 > N."""
    out = [(d, InvariantKey.make(N, g, X))] if k0 == 1 else []
    for i, (m, k) in enumerate(X):
        if m == 0 or k + k0 > N:
            continue
        out.append((1, InvariantKey.make(N, g, X[:i] + ((m - 1, k + k0),) + X[i + 1 :])))
    return out


def _pivot_reference(ins):
    """Maximal level, then minimal exponent, then first in canonical order:
    the argmax loop the engine's pivot once was."""
    best = None
    for i, (m, k) in enumerate(ins):
        if best is None or (m, -k) > (ins[best][0], -ins[best][1]):
            best = i
    return best


class TestEngineRules:
    @pytest.mark.parametrize("k0", [0, 1])
    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_forget_terms_state_the_string_and_divisor_equations(self, N, g, k0):
        pairs = [(m, k) for m in range(4) for k in range(N + 1)]
        checked = 0
        for n in range(5):
            for X in combinations_with_replacement(pairs, n):
                d = degree_of(N, g, ((0, k0),) + X)
                if d is None:
                    continue
                got = list(_forget_terms(N, g, X, d, k0))
                assert got == _forget_reference(N, g, X, d, k0), (N, g, X, k0)
                checked += 1
        assert checked

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_pivot_is_the_argmax(self, N):
        pairs = [(m, k) for m in range(5) for k in range(N + 1)]
        for n in range(1, 6):
            for ins in combinations_with_replacement(pairs, n):
                assert Engine._pivot(ins) == _pivot_reference(ins), ins


class TestPostHocIdentities:
    def _random_keys(self, rng, g, count):
        out = []
        while len(out) < count:
            N = rng.choice([1, 2])
            n = rng.randint(1, 3)
            ins = [(rng.randint(0, 4), rng.randint(0, N)) for _ in range(n)]
            if degree_of(N, g, ins) is not None:
                out.append((N, ins))
        return out

    @pytest.mark.parametrize("g", [0, 1])
    def test_string_post_hoc(self, g):
        rng = random.Random(41 + g)
        for N, ins in self._random_keys(rng, g, 15):
            if 2 * g - 2 + len(ins) <= 0:
                continue
            lhs = E.invariant(N, g, ins + [(0, 0)])
            rhs = SymRat(0)
            for i, (m, k) in enumerate(ins):
                if m >= 1:
                    rhs = rhs + E.invariant(
                        N, g, ins[:i] + [(m - 1, k)] + ins[i + 1 :]
                    )
            assert lhs == rhs, (N, g, ins)

    @pytest.mark.parametrize("g", [0, 1])
    def test_divisor_post_hoc(self, g):
        rng = random.Random(59 + g)
        for N, ins in self._random_keys(rng, g, 15):
            if 2 * g - 2 + len(ins) <= 0:
                continue
            d = degree_of(N, g, ins)
            lhs = E.invariant(N, g, ins + [(0, 1)])
            rhs = d * E.invariant(N, g, ins)
            for i, (m, k) in enumerate(ins):
                if m >= 1 and k < N:
                    rhs = rhs + E.invariant(
                        N, g, ins[:i] + [(m - 1, k + 1)] + ins[i + 1 :]
                    )
            assert lhs == rhs, (N, g, ins)

    def test_divisor_on_stationary_has_no_corrections(self):
        # stationary-only keys: appending the divisor multiplies by d
        for N in (1, 2):
            for ms in [(2, 2), (4, 1, 1), (3,)]:
                ins = [(m, N) for m in ms]
                d = degree_of(N, 0, ins)
                if d is None:
                    continue
                assert E.invariant(N, 0, ins + [(0, 1)]) == d * E.invariant(N, 0, ins)

    def test_dilaton_post_hoc(self):
        for N, g, ins in [
            (1, 0, [(2, 1), (0, 1), (0, 1)]),
            (1, 1, [(2, 1)]),
            (2, 0, [(4, 2)]),
        ]:
            n = len(ins)
            lhs = E.invariant(N, g, ins + [(1, 0)])
            assert lhs == (2 * g - 2 + n) * E.invariant(N, g, ins)


def _run(route, engine):
    """Run one engine route to its value, answering each key it yields
    through `engine._invariant`."""
    val = None
    while True:
        try:
            key = route.send(val)
        except StopIteration as done:
            return done.value
        val = engine._invariant(key)


def _trr0_pairs(N, ins, piv):
    """The (k1, k2) key pairs of the genus-0 recursion pivoting on
    ins[piv]: the bracket is the sum of the products of their values."""
    m, k = ins[piv]
    rest = ins[:piv] + ins[piv + 1 :]
    return list(_splits(N, 0, ((m - 1, k),), rest[:2], rest[2:]))


def _pair_sum(N, pairs):
    return sum(
        E.invariant(N, 0, k1.ins).rational() * E.invariant(N, 0, k2.ins).rational()
        for k1, k2 in pairs
    )


class TestTrr0Expand:
    def test_sum_equals_invariant(self):
        cases = [
            (1, [(2, 1), (0, 1), (0, 1)]),
            (2, [(2, 2), (0, 2), (0, 2)]),
            (1, [(1, 1), (0, 1), (0, 1)]),  # dimension-trivial: both sides 0
            (1, [(3, 1), (2, 1), (1, 1)]),
            (2, [(4, 2), (1, 1), (0, 2)]),
            (1, [(3, 0), (0, 1), (2, 1)]),  # unit-class descendant pivot
            (2, [(2, 1), (1, 2), (0, 1), (0, 2)]),
        ]
        for N, ins in cases:
            key = tuple(sorted(ins))
            piv = max(range(len(key)), key=lambda i: key[i][0])
            want = E.invariant(N, 0, ins)
            assert _pair_sum(N, _trr0_pairs(N, key, piv)) == want, (N, ins)
            eng = Engine()
            assert _run(eng.trr0_expand(N, key), eng) == want, (N, ins)

    def test_pivot_choice_does_not_matter(self):
        ins = tuple(sorted([(3, 1), (2, 1), (1, 1)]))
        sums = {_pair_sum(1, _trr0_pairs(1, ins, piv)) for piv in range(3)}
        assert len(sums) == 1

    def test_dimension_filter_omits_splittings(self):
        ins = tuple(sorted([(2, 1), (0, 1), (0, 1), (2, 1)]))
        piv = max(range(4), key=lambda i: ins[i][0])
        terms = _trr0_pairs(1, ins, piv)
        # at most one splitting class survives per subset of the free slot
        assert 0 < len(terms) <= 2
        assert _pair_sum(1, terms) == E.invariant(1, 0, ins)


def _ref_bracket(N, first_class, pivot, extras, beta, engine):
    """The genus-0 chain bracket as the alternating sum over chains of kk
    factors: the contact order beta + 1 - kk spread over the factors by a
    composition, the extras assigned to them in every way, and the class
    joining two factors forced by dimension.  The last factor carries the
    pivot; each factor is read through `engine._invariant`."""
    m, k = pivot
    total = Fraction(0)
    for kk in range(1, beta + 2):
        for comp in compositions(beta + 1 - kk, kk):
            for assign in product(range(kk), repeat=len(extras)):
                groups = [[] for _ in range(kk)]
                for extra, grp in zip(extras, assign):
                    groups[grp].append(extra)
                prod = Fraction(1)
                c = first_class
                for i in range(kk):
                    if i < kk - 1:
                        base = [(0, c)] + groups[i]
                        e = _forced_class(N, 0, [(comp[i], 0)] + base)
                        ins, c = base + [(comp[i], e)], N - e
                    else:
                        ins = [(0, c), (comp[i] + m, k)] + groups[i]
                    prod *= engine._invariant(InvariantKey.make(N, 0, ins))
                    if not prod:
                        break
                total += (-1) ** (kk - 1) * prod
    return total


class TestBetaBracket:
    def test_beta_zero_is_two_point(self):
        v = _run(E.beta_bracket(1, 0, (3, 1), (), 0), E)
        assert v == E.invariant(1, 0, [(0, 0), (3, 1)]).rational()

    def test_routes_agree_with_extras(self):
        # the shift/subtract route against the alternating sum over chains:
        # on a spread of keys, on a fresh engine so that every bracket is
        # computed, then at every bracket the genus-2 golden keys reach
        eng = Engine()
        for N in (1, 2):
            for beta in range(0, 4):
                for c in range(N + 1):
                    for pivot, extras in [((2, N), ((0, N),)), ((1, N), ((0, 1), (1, N)))]:
                        got = _run(eng.beta_bracket(N, c, pivot, extras, beta), eng)
                        want = _ref_bracket(N, c, pivot, extras, beta, eng)
                        assert got == want, (N, c, pivot, extras, beta)
        eng = Engine()
        for N, g, ins in _golden_keys_genus2():
            eng.invariant(N, g, ins)
        assert len(eng._bb_memo) == 1568
        for (N, c, m, k, extras, beta), val in eng._bb_memo.items():
            assert val == _ref_bracket(N, c, (m, k), extras, beta, eng)

    def test_depth_one_chain_is_the_two_point_term(self):
        # at beta = 3g-2 the depth-one chain of the bracket is the plain
        # two-point invariant with the pivot level raised by beta; the
        # deeper chains carry the rest, so the bracket is not that term
        g, N = 2, 1
        beta = 3 * g - 2
        m = 8 - (3 * g - 1)
        bracket = _run(E.beta_bracket(N, 0, (m, 1), (), beta), E)
        assert bracket == _ref_bracket(N, 0, (m, 1), (), beta, E) == Fraction(-11, 64)
        direct = E.invariant(N, 0, [(0, 0), (m + beta, 1)]).rational()
        assert direct == Fraction(1, 576)
        assert _run(E.beta_bracket(N, 0, (m + beta, 1), (), 0), E) == direct
        assert bracket != direct


class TestTrrgExpand:
    def test_genus1_matches_dispatch(self):
        # the genus-1 evaluation uses its own recursion; the genus-g
        # expansion must reproduce it wherever the pivot is deep enough
        for N, ins in [(1, [(2, 1)]), (1, [(4, 1)]), (2, [(3, 2)]), (1, [(2, 1), (2, 1)])]:
            key = tuple(sorted(ins))
            if degree_of(N, 1, key) is None:
                continue
            piv = max(range(len(key)), key=lambda i: key[i][0])
            if key[piv][0] < 2:
                continue
            got = _run(E.trrg_expand(N, 1, key, piv), E)
            assert got == E.invariant(N, 1, ins), (N, ins)

    @pytest.mark.parametrize("N", [1, 2])
    def test_genus2_terms_against_every_class(self, N):
        g = 2
        lo = 3 * g - 1
        small = [(m, k) for m in range(2) for k in range(N + 1)]
        for m in (lo, lo + 1):
            for k in range(N + 1):
                for r in (0, 1, 2):
                    for rest in combinations_with_replacement(small, r):
                        ins = tuple(sorted(((m, k),) + rest))
                        piv = ins.index((m, k))
                        got = _run(E.trrg_expand(N, g, ins, piv), E)
                        assert got == _ref_trrg(N, g, ins, piv), (N, ins)

    def test_genus2_sum_equals_invariant(self):
        for m in (6, 8):
            got = _run(E.trrg_expand(1, 2, ((m, 1),), 0), E)
            assert got == E.invariant(1, 2, [(m, 1)])


def _ref_trrg(N, g, ins, piv):
    """The genus-g recursion, the class of the genus-g factor found by
    trying every j in [0, N] and each chain bracket read off
    `_ref_bracket`: summed over the split of the contact order, the subset
    of the other insertions that goes to the chain, and j."""
    m, k = ins[piv]
    rest = ins[:piv] + ins[piv + 1 :]
    pivot = (m - 3 * g + 1, k)
    terms = []
    for alpha in range(3 * g - 1):
        beta = 3 * g - 2 - alpha
        for r in range(len(rest) + 1):
            for U in combinations(range(len(rest)), r):
                left = tuple(rest[i] for i in U)
                right = [rest[i] for i in range(len(rest)) if i not in U]
                for j in range(N + 1):
                    gkey = InvariantKey.make(N, g, right + [(alpha, j)])
                    if gkey.degree() is None:
                        continue
                    bb = _ref_bracket(N, N - j, pivot, left, beta, E)
                    terms.append((bb, E._invariant(gkey)))
    return dot(terms)


def _pi0(g, ms):
    """Point invariant at the forced degree, 0 outside the stable range."""
    ms = tuple(ms)
    d = sum(ms) - (3 * g - 3 + len(ms))
    if d < 0 or 2 * g - 2 + len(ms) + d <= 0:
        return Fraction(0)
    return point_invariant(g, ms, d)


def _bb0(m, beta, extras):
    """The genus-0 chain bracket of the degree-decorated point theory,
    transcribed exactly like the engine's class-decorated version."""
    extras = tuple(extras)
    total = Fraction(0)
    for kk in range(1, beta + 2):
        for comp in _comps(beta + 1 - kk, kk):
            for assign in _assignments(len(extras), kk):
                groups = [[] for _ in range(kk)]
                for idx, grp in enumerate(assign):
                    groups[grp].append(extras[idx])
                prod = Fraction(1)
                for i in range(kk):
                    lvl = comp[i] + (m if i == kk - 1 else 0)
                    prod *= _pi0(0, (0, lvl) + tuple(groups[i]))
                    if prod == 0:
                        break
                total += (-1) ** (kk - 1) * prod
    return total


def _comps(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _comps(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def _assignments(n, kk):
    if n == 0:
        return [()]
    out = []
    for rest in _assignments(n - 1, kk):
        for g in range(kk):
            out.append(rest + (g,))
    return out


class TestGenusGRecursionAtN0:
    """The point invariants satisfy the same genus-g recursion; since every
    factor there has a known value, this validates the chain transcription
    independently of any symbolic atoms."""

    @pytest.mark.parametrize("g", [1, 2])
    def test_one_point(self, g):
        lo = 3 * g - 1
        for m in range(lo, lo + 5):
            want = _pi0(g, (m,))
            got = Fraction(0)
            for alpha in range(3 * g - 1):
                beta = 3 * g - 2 - alpha
                got += _bb0(m - (3 * g - 1), beta, ()) * _pi0(g, (alpha,))
            assert got == want, (g, m)

    @pytest.mark.parametrize("g", [1, 2])
    def test_two_point(self, g):
        lo = 3 * g - 1
        for m in range(lo, lo + 3):
            for w in range(0, 3):
                want = _pi0(g, (m, w))
                got = Fraction(0)
                for alpha in range(3 * g - 1):
                    beta = 3 * g - 2 - alpha
                    # extra insertion on either side of the split
                    got += _bb0(m - lo, beta, (w,)) * _pi0(g, (alpha,))
                    got += _bb0(m - lo, beta, ()) * _pi0(g, (alpha, w))
                assert got == want, (g, m, w)


def _primary(engine, N, exps):
    return engine.invariant(N, 0, [(0, a) for a in exps])


class TestWdvv:
    def test_classical_plane_counts(self):
        # rational curves of degree d through 3d - 1 points
        assert _primary(E, 2, [2] * 2) == 1
        assert _primary(E, 2, [2] * 5) == 1
        assert _primary(E, 2, [2] * 8) == 12
        assert _primary(E, 2, [2] * 11) == 620

    def test_space_counts(self):
        # lines in P^3: through 2 points; through a point meeting two lines;
        # meeting four general lines
        assert _primary(E, 3, [3, 3]) == 1
        assert _primary(E, 3, [3, 2, 2]) == 1
        assert _primary(E, 3, [2, 2, 2, 2]) == 2
        # conics through four general points do not exist
        assert _primary(E, 3, [3, 3, 3, 3]) == 0
        # conics meeting eight general lines
        assert _primary(E, 3, [2] * 8) == 92

    def test_line_three_point(self):
        assert _primary(E, 1, [1, 1, 1]) == 1

    def test_line_one_point(self):
        # <pt>_1 on the line: the one degree-1 map through a point
        assert _primary(E, 1, [1]) == 1

    def test_fractional_degree_is_zero(self):
        assert _primary(E, 1, [0]) == 0

    def test_divisor_padding(self):
        # <pt, pt, w> = d <pt, pt> = 1 on the plane
        assert _primary(E, 2, [2, 2, 1]) == 1

    def test_degree_zero(self):
        # the triple intersection; four classes >= 2 of degree 0 need N >= 7
        # and give nothing
        assert _primary(Engine(), 3, [0, 1, 2]) == 1
        assert _primary(Engine(), 7, [2, 2, 2, 2]) == 0

    def test_non_primary_rejected(self):
        with pytest.raises(ValueError):
            _primary(E, 2, [3])

    def test_non_integral_entry_is_rejected(self):
        # 2.7 would otherwise be read as 2: the one conic through five points
        with pytest.raises(ValueError, match="2.7"):
            _primary(Engine(), 2, [2.7, 2, 2, 2, 2])
        with pytest.raises(ValueError, match="2.5"):
            _primary(Engine(), 2.5, [2, 2, 2, 2, 2])
        assert _primary(Engine(), Fraction(2), [Fraction(2), 2, 2, 2, 2]) == 1


# sha256 of _primary_record(): one line per multiset of classes of P^1..P^4,
# with up to 8 insertions for N <= 2 and up to 7 for N >= 3 (1332 keys, 108
# of them nonzero), computed by the associativity solver that the genus-0
# recursion replaced.
GOLDEN_PRIMARIES = "69a4ba2b94c957ac7afefcaf8389f78e80b46e6922a2a70bf160144955622dd3"


def _primary_record():
    """Lines "N;exps;shared;fresh": each primary on one engine per N, in
    enumeration order, and on a fresh engine."""
    lines = []
    for N in range(1, 5):
        shared = Engine()
        for n in range(9 if N <= 2 else 8):
            for exps in combinations_with_replacement(range(N + 1), n):
                w = _primary(shared, N, exps)
                v = _primary(Engine(), N, exps)
                assert not w.atoms and not v.atoms
                lines.append(f"{N};{','.join(map(str, exps))};{w.scalar};{v.scalar}")
    return lines


def _kontsevich(dmax):
    """N_d, the number of rational plane curves of degree d through 3d - 1
    general points, by Kontsevich's recursion."""
    n = {1: 1}
    for d in range(2, dmax + 1):
        n[d] = sum(
            n[a] * n[d - a] * (
                a * a * (d - a) ** 2 * comb(3 * d - 4, 3 * a - 2)
                - a**3 * (d - a) * comb(3 * d - 4, 3 * a - 1)
            )
            for a in range(1, d)
        )
    return n


class TestPrimariesThroughRecursion:
    def test_golden_primaries(self):
        lines = _primary_record()
        assert len(lines) == 1332
        assert sum(line.rsplit(";", 1)[1] != "0" for line in lines) == 108
        record = "\n".join(lines)
        assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_PRIMARIES

    def test_kontsevich_plane_counts(self):
        shared = Engine()
        for d, want in _kontsevich(6).items():
            pts = [2] * (3 * d - 1)
            assert _primary(shared, 2, pts) == want, d
            assert _primary(Engine(), 2, pts) == want, d

    def test_order_of_asking_does_not_matter(self):
        # The recursion of <tau_1(w) pt^4>_2 has a term whose left factor is
        # a degree-0 two-point key and whose right factor is <pt^5>_2, and
        # the primary <pt^5>_2 is itself read through <tau_1(w) pt^4>_2.
        desc = [(1, 1)] + [(0, 2)] * 4
        conic = [(0, 2)] * 5
        first = Engine()
        assert first.invariant(2, 0, desc) == 1
        assert first.invariant(2, 0, conic) == 1
        second = Engine()
        assert second.invariant(2, 0, conic) == 1
        assert second.invariant(2, 0, desc) == 1

    def test_divisor_rule_on_primaries(self):
        # <tau_0(w^a) Y>_d = <tau_0(w) tau_1(w^(a-1)) Y>_d - d <tau_1(w^(a-1)) Y>_d
        for N, exps in [(2, (2,) * 8), (3, (2,) * 6 + (3,)), (3, (2, 2, 3, 3, 3))]:
            key = InvariantKey.make(N, 0, [(0, a) for a in exps])
            d = key.degree()
            a, Y = exps[0], [(0, y) for y in exps[1:]]
            raised = Engine().invariant(N, 0, [(0, 1), (1, a - 1)] + Y)
            lowered = Engine().invariant(N, 0, [(1, a - 1)] + Y)
            assert _primary(Engine(), N, exps) == raised - d * lowered, (N, exps)


class TestCounterexample:
    def test_values_match_harmonic_closed_form(self):
        # f(2d-1) = -2 d H_{d-1}, derived through the engine's own chains
        for d in range(1, 7):
            m = 2 * d - 1
            H = sum(Fraction(1, i) for i in range(1, d))
            assert E.counterexample_f(m) == -2 * d * H

    def test_even_levels_vanish(self):
        assert E.counterexample_f(4) == 0

    def test_true_two_step_recursion(self):
        # (d-1) f(m) = d f(m-2) - 2d with d = ceil(m/2)
        for m in range(3, 14, 2):
            d = (m + 1) // 2
            assert (d - 1) * E.counterexample_f(m) == d * E.counterexample_f(
                m - 2
            ) - 2 * d

    def test_second_differences_not_constant(self):
        vals = [E.counterexample_f(m) for m in range(1, 14, 2)]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        second = [b - a for a, b in zip(diffs, diffs[1:])]
        assert len(set(second)) > 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            E.counterexample_f(0)


def _frame_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestExplicitStack:
    def test_long_chain_needs_no_interpreter_depth(self):
        # The m = 301 witness under a limit a few frames above the caller's.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 100)
        try:
            got = Engine().counterexample_f(301)
        finally:
            sys.setrecursionlimit(limit)
        d = 151
        assert got == -2 * d * sum(Fraction(1, j) for j in range(1, d))

    def test_deep_route_needs_no_interpreter_depth(self):
        class Chain(Engine):
            # Each key waits on the one a level below: 5000 keys deep.
            def _compute(self, key):
                N, g, ((m, k),) = key
                if m == 0:
                    return Fraction(1)
                return 1 + (yield InvariantKey(N, g, ((m - 1, k),)))

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 100)
        try:
            got = Chain().invariant(1, 0, [(5000, 1)])
        finally:
            sys.setrecursionlimit(limit)
        assert got == 5001

    def test_primary_chain_needs_no_interpreter_depth(self):
        # <(w^2)^16>_4 on P^3, rational quartics meeting 16 lines (Kontsevich-
        # Manin), under a limit 30 frames above the caller's: each primary
        # in the chain reads the next through the stack, not a nested call.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 30)
        try:
            got = _primary(Engine(), 3, [2] * 16)
        finally:
            sys.setrecursionlimit(limit)
        assert got == 383306880

    def test_recursion_limit_untouched(self):
        limit = sys.getrecursionlimit()
        Engine().invariant(1, 0, [(41, 0), (0, 1), (0, 1)])
        assert sys.getrecursionlimit() == limit

    def test_self_dependent_key_raises(self):
        class Loop(Engine):
            def _compute(self, key):
                return (yield key)

        with pytest.raises(RecursionError, match="depends on its own value"):
            Loop().invariant(1, 0, [(2, 1)])

        def loop(key):
            return (yield key)

        # The guard is the runner's, whatever the keys and the cache.
        with pytest.raises(RecursionError, match="depends on its own value"):
            _run_routes((1, (2, 3)), {}, loop)


class TestCacheTransport:
    def test_key_parse_round_trip(self):
        key = InvariantKey.make(2, 1, [(3, 2), (0, 1)])
        assert InvariantKey.parse(key.canonical()) == key


class TestAtomGenusBound:
    def test_atoms_have_genus_at_most_key_genus(self):
        for N, g, ins in [
            (1, 1, [(4, 1)]),
            (1, 2, [(6, 1)]),
            (2, 1, [(3, 2), (2, 2)]),
            (1, 2, [(8, 1)]),
        ]:
            if degree_of(N, g, ins) is None:
                continue
            v = E.invariant(N, g, ins)
            for name in v.atoms:
                assert InvariantKey.parse(name).g <= g


class TestConcurrency:
    def test_parallel_evaluation_is_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor

        keys = [
            (1, 0, ((m1, 1), (m2, 1), (m3, 1)))
            for m1 in range(4)
            for m2 in range(4)
            for m3 in range(4)
        ]
        fresh = Engine()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda k: fresh.invariant(k[0], k[1], k[2]), keys)
            )
        for key, got in zip(keys, results):
            assert got == E.invariant(*key)


# ----------------------------------------------------------------------
# The split filter against a key-by-key enumeration: for every class j,
# build both factor keys and keep j when both have a degree.


def _ref_split(N, left, g, right):
    hits = []
    for j in range(N + 1):
        k0 = InvariantKey.make(N, 0, left + [(0, j)])
        k1 = InvariantKey.make(N, g, right + [(0, N - j)])
        if k0.degree() is not None and k1.degree() is not None:
            hits.append((k0, k1))
    assert len(hits) <= 1
    return hits


def _ref_splittings(head, fixed, free):
    """(left, right) for every subset U of the free insertions: head plus
    U on the left, the fixed insertions plus the rest on the right."""
    for r in range(len(free) + 1):
        for U in combinations(range(len(free)), r):
            left = [head] + [free[i] for i in U]
            right = list(fixed) + [free[i] for i in range(len(free)) if i not in U]
            yield left, right


def _grid(N, sizes):
    pairs = [(m, k) for m in range(3) for k in range(N + 1)]
    for n in sizes:
        for ins in combinations_with_replacement(pairs, n):
            if max(m for m, _ in ins) >= 1:
                yield ins


class TestSplitReference:
    @pytest.mark.parametrize("n", range(6))
    def test_weighted_splits_order(self, n):
        """By the size of the chosen part, then by its positions in
        lexicographic order, each with the chosen weights m + k - 1 summed;
        a repeated pair is told apart by its position."""
        items = [(2, 1), (0, 0), (2, 1), (5, 3), (1, 0)][:n]
        want = [
            (
                tuple(items[i] for i in U),
                tuple(items[i] for i in range(n) if i not in U),
                sum(items[i][0] + items[i][1] - 1 for i in U),
            )
            for r in range(n + 1)
            for U in combinations(range(n), r)
        ]
        assert _weighted_splits(items) == want
        assert len(want) == 2**n

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_trr0_expand_terms(self, N):
        for ins in _grid(N, (3, 4)):
            for piv in range(len(ins)):
                m, k = ins[piv]
                if m < 1:
                    continue
                rest = ins[:piv] + ins[piv + 1 :]
                want = [
                    hit
                    for left, right in _ref_splittings((m - 1, k), rest[:2], rest[2:])
                    for hit in _ref_split(N, left, 0, right)
                ]
                assert _trr0_pairs(N, ins, piv) == want, (N, ins, piv)

    @pytest.mark.parametrize("g", [0, 1])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_splits(self, N, g):
        """The generator on the recursions' shapes (two fixed insertions at
        genus 0, none at genus 1), including the splits it rejects: a
        factor of negative or fractional degree, which the recursions' own
        inputs rarely reach."""
        rejected = 0
        for ins in _grid(N, (1, 2, 3, 4)):
            for head in set(ins):
                piv = ins.index(head)
                rest = ins[:piv] + ins[piv + 1 :]
                fixed, free = (rest[:2], rest[2:]) if g == 0 else ((), rest)
                want = []
                for left, right in _ref_splittings(head, fixed, free):
                    hits = _ref_split(N, left, g, right)
                    want += hits
                    rejected += not hits
                got = list(_splits(N, g, (head,), fixed, free))
                assert got == want, (N, g, head, fixed, free)
        assert rejected

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_genus1_split_terms(self, N):
        for ins in _grid(N, (1, 2, 3)):
            piv = Engine._pivot(ins)
            m, k = ins[piv]
            rest = ins[:piv] + ins[piv + 1 :]
            want = [
                hit
                for left, right in _ref_splittings((m - 1, k), (), rest)
                for hit in _ref_split(N, left, 1, right)
            ]
            total = SymRat(0)
            for k0, k1 in want:
                total = total + E.invariant(N, 0, k0.ins).rational() * E.invariant(
                    N, 1, k1.ins
                )
            for j in range(N + 1):
                handle = list(rest) + [(m - 1, k), (0, j), (0, N - j)]
                total = total + Fraction(1, 24) * E.invariant(N, 0, handle).rational()
            key = InvariantKey.make(N, 1, ins)
            assert _run(E._genus1_trr(key), E) == total, (N, ins)
