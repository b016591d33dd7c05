import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gwrec.algebra import SymRat, c_factor, dot
from gwrec.cli import save_cache
from gwrec.engine import (
    DEFAULT_ENGINE,
    Engine,
    InvariantKey,
    _dim_excess,
    _forced_class,
    _g0_one,
    _splits,
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
        pairs = eng.trr0_expand(N, 0, [(0, 1), (0, 1), (m, a)], 2)
        three = dot((eng._invariant(k1), eng._invariant(k2)) for k1, k2 in pairs)
        y = _g0_one(N, (m - 1, a + 1), d) if a < N else 0
        z = _g0_one(N, (m - 2, a + 2), d) if a + 2 <= N and m >= 2 else 0
        assert _g0_one(N, (m, a), d) == (three - 2 * d * y - z) / d**2

    def test_unstable_degree_zero(self):
        assert _g0_one(3, (0, 1), 0) == 0


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
            total = Fraction(0)
            for k1, k2 in E.trr0_expand(N, 0, key, piv):
                total += (
                    E.invariant(N, 0, k1.ins).rational()
                    * E.invariant(N, 0, k2.ins).rational()
                )
            assert total == E.invariant(N, 0, ins).rational(), (N, ins)

    def test_pivot_choice_does_not_matter(self):
        ins = tuple(sorted([(3, 1), (2, 1), (1, 1)]))
        sums = []
        for piv in range(3):
            total = Fraction(0)
            for k1, k2 in E.trr0_expand(1, 0, ins, piv):
                total += (
                    E.invariant(1, 0, k1.ins).rational()
                    * E.invariant(1, 0, k2.ins).rational()
                )
            sums.append(total)
        assert len(set(sums)) == 1

    def test_pivot_level_zero_rejected(self):
        with pytest.raises(ValueError):
            E.trr0_expand(1, 0, [(0, 1), (2, 1), (0, 1)], 0)

    def test_non_integral_insertion_is_rejected(self):
        # 2.7 would otherwise be read as a level-2 pivot
        with pytest.raises(ValueError, match="2.7"):
            E.trr0_expand(1, 0, [(0, 1), (0, 1), (2.7, 1)], 2)
        ins = [(0, 1), (0, 1), (2, 1)]
        assert E.trr0_expand(1, 0, [(0, Fraction(1)), *ins[1:]], 2) == E.trr0_expand(
            1, 0, ins, 2
        )

    def test_dimension_filter_omits_splittings(self):
        ins = tuple(sorted([(2, 1), (0, 1), (0, 1), (2, 1)]))
        piv = max(range(4), key=lambda i: ins[i][0])
        terms = E.trr0_expand(1, 0, ins, piv)
        # at most one splitting class survives per subset of the free slot
        assert 0 < len(terms) <= 2
        total = Fraction(0)
        for k1, k2 in terms:
            total += (
                E.invariant(1, 0, k1.ins).rational()
                * E.invariant(1, 0, k2.ins).rational()
            )
        assert total == E.invariant(1, 0, ins).rational()


class TestBetaBracket:
    def test_beta_zero_is_two_point(self):
        v = E.beta_bracket(1, 0, (3, 1), (), 0)
        assert v == E.invariant(1, 0, [(0, 0), (3, 1)]).rational()

    def test_routes_agree_with_extras(self):
        # both internal routes are asserted equal; exercise a spread of keys
        for N in (1, 2):
            for beta in range(0, 4):
                for c in range(N + 1):
                    E.beta_bracket(N, c, (2, N), ((0, N),), beta)
                    E.beta_bracket(N, c, (1, N), ((1, N), (0, 1)), beta)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            E.beta_bracket(1, 0, (1, 1), (), -1)

    def test_non_integral_entry_is_rejected(self):
        # each of these would otherwise be truncated to an int
        for args in [(0.5, (1, 1), ()), (0, (1.5, 1), ()), (0, (1, 1), ((0, 1.2),))]:
            with pytest.raises(ValueError, match="non-integral"):
                E.beta_bracket(1, *args, 1)
        assert E.beta_bracket(1, Fraction(0), (Fraction(1), 1), (), 1) == E.beta_bracket(
            1, 0, (1, 1), (), 1
        )

    def test_depth_one_chain_is_the_two_point_term(self):
        # at beta = 3g-2 the depth-one chain of the bracket is the plain
        # two-point invariant with the pivot level raised by beta
        g, N = 2, 1
        beta = 3 * g - 2
        m = 8 - (3 * g - 1)
        direct = E.invariant(N, 0, [(0, 0), (m + beta, 1)]).rational()
        assert direct != 0
        remainder = E.beta_bracket(N, 0, (m, 1), (), beta) - direct
        # the remaining chains all start deeper, so they carry a sign
        assert remainder != E.beta_bracket(N, 0, (m, 1), (), beta)


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
            total = SymRat(0)
            for bb, gkey in E.trrg_expand(N, 1, key, piv):
                assert type(bb) is Fraction
                total = total + bb * E.invariant(gkey.N, 1, gkey.ins)
            assert total == E.invariant(N, 1, ins), (N, ins)

    def test_threshold_error(self):
        with pytest.raises(ValueError):
            E.trrg_expand(1, 2, [(4, 1)], 0)

    def test_non_integral_insertion_is_rejected(self):
        # 4.5 would otherwise be read as a level-4 pivot
        with pytest.raises(ValueError, match="4.5"):
            E.trrg_expand(1, 1, [(4.5, 1)], 0)
        assert E.trrg_expand(1, 1, [(Fraction(4), 1)], 0) == E.trrg_expand(1, 1, [(4, 1)], 0)

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
                        assert E.trrg_expand(N, g, ins, piv) == _ref_trrg(
                            N, g, ins, piv
                        ), (N, ins)

    def test_genus2_sum_equals_invariant(self):
        for m in (6, 8):
            total = SymRat(0)
            for bb, gkey in E.trrg_expand(1, 2, [(m, 1)], 0):
                total = total + bb * E.invariant(gkey.N, 2, gkey.ins)
            assert total == E.invariant(1, 2, [(m, 1)])


def _ref_trrg(N, g, ins, piv):
    """The genus-g recursion terms, the class of the genus-g factor found
    by trying every j in [0, N]: the terms are listed by the split of the
    contact order, then the subset of the other insertions that goes to the
    chain, then j."""
    m, k = ins[piv]
    rest = ins[:piv] + ins[piv + 1 :]
    out = []
    for alpha in range(3 * g - 1):
        beta = 3 * g - 2 - alpha
        for r in range(len(rest) + 1):
            for U in combinations(range(len(rest)), r):
                left = [rest[i] for i in U]
                right = [rest[i] for i in range(len(rest)) if i not in U]
                for j in range(N + 1):
                    gkey = InvariantKey.make(N, g, right + [(alpha, j)])
                    if gkey.degree() is None:
                        continue
                    bb = E.beta_bracket(N, N - j, (m - 3 * g + 1, k), left, beta)
                    if bb:
                        out.append((bb, gkey))
    return out


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


class TestWdvv:
    def test_classical_plane_counts(self):
        # rational curves of degree d through 3d - 1 points
        assert E.wdvv_primary(2, [2] * 2) == 1
        assert E.wdvv_primary(2, [2] * 5) == 1
        assert E.wdvv_primary(2, [2] * 8) == 12
        assert E.wdvv_primary(2, [2] * 11) == 620

    def test_space_counts(self):
        # lines in P^3: through 2 points; through a point meeting two lines;
        # meeting four general lines
        assert E.wdvv_primary(3, [3, 3]) == 1
        assert E.wdvv_primary(3, [3, 2, 2]) == 1
        assert E.wdvv_primary(3, [2, 2, 2, 2]) == 2
        # conics through four general points do not exist
        assert E.wdvv_primary(3, [3, 3, 3, 3]) == 0
        # conics meeting eight general lines
        assert E.wdvv_primary(3, [2] * 8) == 92

    def test_line_three_point(self):
        assert E.wdvv_primary(1, [1, 1, 1]) == 1

    def test_line_one_point(self):
        # <pt>_1 on the line: the one degree-1 map through a point
        assert E.wdvv_primary(1, [1]) == 1

    def test_fractional_degree_is_zero(self):
        assert E.wdvv_primary(1, [0]) == 0

    def test_divisor_padding(self):
        # <pt, pt, w> = d <pt, pt> = 1 on the plane
        assert E.wdvv_primary(2, [2, 2, 1]) == 1

    def test_agrees_with_dispatch(self):
        for N, exps in [
            (2, (2, 2, 2, 2, 2)), (1, (1, 1, 1)), (3, (3, 2, 2)),
            (1, ()), (2, ()), (3, ()),
        ]:
            assert E.invariant(N, 0, [(0, a) for a in exps]) == E.wdvv_primary(
                N, exps
            )

    def test_non_primary_rejected(self):
        with pytest.raises(ValueError):
            E.wdvv_primary(2, [3])


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


def _drive(route):
    """Run one engine route to its value, answering each key it yields by
    the public entry point, as a Fraction for a genus-0 key."""
    val = None
    while True:
        try:
            key = route.send(val)
        except StopIteration as done:
            return done.value
        val = E.invariant(*key)
        if key.g == 0:
            val = val.rational()


class TestSplitReference:
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
                assert E.trr0_expand(N, 0, ins, piv) == want, (N, ins, piv)

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
            assert _drive(E._genus1_trr(key)) == total, (N, ins)
