import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gwrec.algebra import (
    AtomProductError,
    LaurentSeries,
    MissingAtomError,
    MultiPoly,
    QuasiPoly,
    SymRat,
    TruncationError,
    bipartitions,
    c_factor,
    ceil_div,
    compositions,
    dot,
    format_rat,
    parse_rat,
)


def c_factor_closed(N: int, m: int) -> Fraction:
    """Closed form of c_N(m) for m > 0; independent route used as an oracle."""
    if m == 0:
        return Fraction(1)
    q = ceil_div(m, N)
    out = Fraction(1)
    for i in range(1, q + 1):
        out *= Fraction(i) ** N
    return out * Fraction(q) ** (m - N * q)


class TestCFactor:
    def test_generalises_factorial(self):
        assert c_factor(1, 5) == 120
        fact = 1
        for m in range(1, 21):
            fact *= m
            assert c_factor(1, m) == fact

    def test_base_case(self):
        assert c_factor(2, 0) == 1

    def test_recurrence_chain(self):
        # direct recurrence evaluation 1,1,1,2,4,12
        vals = [1]
        for m in range(1, 6):
            vals.append(ceil_div(m, 2) * vals[-1])
        assert vals == [1, 1, 1, 2, 4, 12]
        assert c_factor(2, 5) == 12

    def test_closed_form_value(self):
        # 3!^3 * 3^(7-9) = 216/9 = 24
        assert c_factor(3, 7) == 24
        assert c_factor_closed(3, 7) == 24

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_recurrence_agrees_with_closed_form(self, N):
        for m in range(0, 41):
            assert c_factor(N, m) == c_factor_closed(N, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            c_factor(0, 3)
        with pytest.raises(ValueError):
            c_factor(2, -1)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_closed_form_matches_literal_product(self, N):
        literal = 1
        for m in range(301):
            if m:
                literal *= -(-m // N)
            got = c_factor(N, m)
            assert type(got) is int and got == literal


class TestSymRat:
    def test_resolve_linear(self):
        v = SymRat(Fraction(3, 2), {"A": 2})
        assert v.resolve({"A": Fraction(-1, 24)}) == Fraction(17, 12)

    def test_resolve_atom_free(self):
        assert SymRat(5).resolve({}) == 5

    def test_missing_atom(self):
        v = SymRat(0, {"A": 1})
        with pytest.raises(MissingAtomError):
            v.resolve({"B": 1})

    def test_no_zero_atoms_stored(self):
        v = SymRat(1, {"A": 1}) - SymRat(0, {"A": 1})
        assert v.atoms == {}
        assert v == 1

    def test_atom_product_rejected(self):
        a = SymRat.atom("A")
        b = SymRat.atom("B")
        with pytest.raises(AtomProductError):
            a * b

    def test_resolve_is_linear(self):
        rng = random.Random(7)
        sigma = {"A": Fraction(1, 3), "B": Fraction(-2, 5)}
        for _ in range(50):
            def rand():
                return SymRat(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    {
                        "A": Fraction(rng.randint(-9, 9)),
                        "B": Fraction(rng.randint(-9, 9)),
                    },
                )

            a, b = rand(), rand()
            assert (a + b).resolve(sigma) == a.resolve(sigma) + b.resolve(sigma)

    def test_serialisation_round_trip(self):
        v = SymRat(Fraction(-3, 2), {"x": Fraction(5, 7)})
        assert SymRat.from_obj(v.to_obj()) == v

    def test_float_operand_is_rejected(self):
        with pytest.raises(TypeError):
            SymRat(1) + 0.5


class TestRatWire:
    def test_formats(self):
        assert format_rat(Fraction(-3, 2)) == "-3/2"
        assert format_rat(Fraction(4)) == "4"
        assert parse_rat("-3/2") == Fraction(-3, 2)
        assert parse_rat("7") == 7

    @pytest.mark.parametrize("digits", [4000, 4001, 4300, 4301, 8000, 12345])
    def test_long_integers_at_the_default_digit_limit(self, digits):
        # 10^(digits-1) + 7 and its decimal string, built without str(int)
        n = 10 ** (digits - 1) + 7
        text = "1" + "0" * (digits - 3) + "07"
        assert format_rat(n) == text
        assert format_rat(Fraction(-n, 3)) == f"-{text}/3"
        assert format_rat(Fraction(2, n)) == f"2/{text}"
        assert parse_rat(f"-{text}/3") == Fraction(-n, 3)
        assert parse_rat(f"+{text}") == n

    def test_chunk_boundaries_round_trip(self):
        for n in (10**8000, 10**8000 - 1, -(3**20000), 7 * 10**4000 + 123):
            assert parse_rat(format_rat(n)) == n
            assert parse_rat(format_rat(Fraction(1, n))) == Fraction(1, n)

    @pytest.mark.parametrize("text", ["1" * 5000 + "-2", "--" + "1" * 5000, "1" * 5000 + " 2"])
    def test_malformed_long_integer_is_rejected(self, text):
        with pytest.raises(ValueError):
            parse_rat(text)


class TestQuasiPoly:
    def _two_point_like(self):
        # A stand-in family: branch on the even coset only.
        p = MultiPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): 2})
        return QuasiPoly(1, 2, {(0, 0): p})

    def test_eval_selects_branch(self):
        q = self._two_point_like()
        assert q.eval((2, 4)) == 8
        assert q.eval((1, 1)) == 0  # absent coset is identically zero

    def test_arity_mismatch(self):
        q = self._two_point_like()
        with pytest.raises(ValueError):
            q.eval((1, 2, 3))

    def test_negative_arguments_pick_cosets(self):
        q = self._two_point_like()
        assert q.eval((-2, 0)) == 0 + 0 + 2 - 2

    def test_non_integral_point_has_no_coset(self):
        # 1.5 lies in no coset of 2Z; an integral Fraction is its integer
        q = QuasiPoly(1, 1, {(1,): MultiPoly(1, {(1,): 1})})
        with pytest.raises(ValueError, match="1.5"):
            q.eval((1.5,))
        assert q.eval((Fraction(6, 2),)) == 3

    def test_serialisation_round_trip(self):
        q = self._two_point_like()
        q2 = QuasiPoly.from_obj(q.to_obj())
        assert q2.branches == q.branches


def comb_signed(n, k):
    """binomial(n, k) = n (n - 1) ... (n - k + 1) / k! for any integer n."""
    out = Fraction(1)
    for i in range(k):
        out = out * (n - i) / (i + 1)
    return out


class TestMultiPoly:
    @pytest.mark.parametrize("base,step", [((0, 0), 1), ((3, -1), 2), ((-2, 5), 3)])
    def test_from_newton_is_the_binomial_sum(self, base, step):
        # sum_alpha c_alpha prod_k binomial((x_k - base_k)/step, alpha_k),
        # evaluated directly on the lattice base + step * Z^2
        newton = {(0, 0): 2, (1, 0): Fraction(-1, 3), (2, 1): 5, (0, 3): SymRat.atom("A")}
        p = MultiPoly.from_newton(newton, base, step)
        assert p.degree() == 3
        for t in [(0, 0), (1, 4), (-2, 3), (5, -1)]:
            pt = tuple(b + step * x for b, x in zip(base, t))
            want = sum(
                (c * comb_signed(t[0], a[0]) * comb_signed(t[1], a[1])
                 for a, c in newton.items()),
                SymRat(0),
            )
            assert p.eval(pt) == want

    @given(
        st.integers(1, 4),
        st.lists(st.integers(-9, 9), min_size=1, max_size=3),
        st.data(),
    )
    def test_from_newton_is_the_binomial_sum_anywhere(self, step, base, data):
        # The expansion against the binomial sum at every point of a grid
        # wide enough to fix the polynomial, off the lattice base + step Z^n
        # as well as on it, for any step and for negative bases.
        nvars = len(base)
        degree = data.draw(st.integers(0, 3))
        coeff = st.one_of(
            st.fractions(max_denominator=50),
            st.builds(SymRat.atom, st.sampled_from("AB"), st.fractions(max_denominator=50)),
        )
        newton = {
            a: data.draw(coeff) for d in range(degree + 1) for a in compositions(d, nvars)
        }
        p = MultiPoly.from_newton(newton, tuple(base), step)
        for pt in product(range(-2, degree), repeat=nvars):
            want = sum(
                (c * prod(comb_signed(Fraction(x - b, step), ak)
                          for x, b, ak in zip(pt, base, a))
                 for a, c in newton.items()),
                SymRat(0),
            )
            assert p.eval(pt) == want
        assert all(type(c) is SymRat and c for c in p.terms.values())

    @given(
        st.lists(st.integers(-30, 30), min_size=1, max_size=3).flatmap(
            lambda pt: st.tuples(
                st.just(tuple(pt)),
                st.dictionaries(
                    st.tuples(*[st.integers(0, 4)] * len(pt)),
                    st.one_of(
                        st.fractions(),
                        st.builds(SymRat, st.fractions(), st.dictionaries(
                            st.sampled_from("AB"), st.fractions(), max_size=2)),
                    ),
                    max_size=6,
                ),
            )
        )
    )
    def test_eval_at_ints_equals_eval_at_fractions(self, case):
        pt, terms = case
        p = MultiPoly(len(pt), terms)
        got = p.eval(pt)
        assert type(got) is SymRat
        assert got == p.eval(tuple(map(Fraction, pt)))

    def test_from_newton_drops_zero_coefficients(self):
        assert MultiPoly.from_newton({(0,): 0, (2,): 0}, (1,), 1).terms == {}

    def test_from_newton_without_variables(self):
        assert MultiPoly.from_newton({(): 5}, (), 1) == MultiPoly.const(0, 5)

    def test_relabel_is_substitution(self):
        p = MultiPoly(3, {(2, 1, 0): 1})
        # result(x0,x1,x2) = p(x1, x2, x0)
        r = p.relabel((1, 2, 0))
        for pt in [(2, 3, 5), (1, 4, 9)]:
            assert r.eval(pt) == p.eval((pt[1], pt[2], pt[0]))

    def test_deriv(self):
        p = MultiPoly(2, {(2, 1): Fraction(1, 2)})
        d = p.deriv(0)
        assert d.eval((3, 4)) == Fraction(1, 2) * 2 * 3 * 4


class TestBipartitions:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_combinations(self, n):
        items = "abcde"[:n]
        want = [
            ([items[i] for i in U], [items[i] for i in range(n) if i not in U])
            for r in range(n + 1)
            for U in combinations(range(n), r)
        ]
        assert list(bipartitions(items)) == want
        assert len(want) == 2**n


class TestCompositions:
    @pytest.mark.parametrize("parts", range(5))
    def test_matches_filtered_product(self, parts):
        for total in range(-2, 7):
            want = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
            assert list(compositions(total, parts)) == want


def _random_series(rng, var="t", center="0", lo=-5, n=9):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
    return LaurentSeries(var, center, lo, coeffs, lo + n)


class TestLaurentSeries:
    """The residue, as the tests' series oracles read it, is coefficient(-1)."""

    def test_residue_defining_case(self):
        s = LaurentSeries("t", "0", -1, [1], 5)
        assert s.coefficient(-1) == 1

    def test_residue_no_term(self):
        s = LaurentSeries("t", "0", -2, [1, 0, 3, 1], 2)
        assert s.coefficient(-1) == 0

    def test_residue_truncation_insufficient(self):
        s = LaurentSeries("t", "0", -3, [1, 2], -1)
        with pytest.raises(TruncationError):
            s.coefficient(-1)

    def test_mul_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(25):
            a = _random_series(rng)
            b = _random_series(rng)
            c = _random_series(rng)
            ab, ba = a * b, b * a
            assert ab.min_exp == ba.min_exp and ab.coeffs == ba.coeffs
            lhs = (a * b) * c
            rhs = a * (b * c)
            t = min(lhs.trunc, rhs.trunc)
            for e in range(min(lhs.min_exp, rhs.min_exp), t):
                assert lhs.coefficient(e) == rhs.coefficient(e)

    def test_invert_round_trip(self):
        rng = random.Random(17)
        for _ in range(25):
            s = _random_series(rng, lo=-2)
            if not s.coeffs or s.coeffs[0] == 0:
                continue
            one = s * s.invert()
            assert one.coefficient(0) == 1
            for e in range(one.min_exp, one.trunc):
                if e != 0:
                    assert one.coefficient(e) == 0

    def test_invert_needs_unit(self):
        s = LaurentSeries("t", "0", 0, [0, 0, 0], 3)
        with pytest.raises(ZeroDivisionError):
            s.invert()


# ----------------------------------------------------------------------
# The integer kernel of LaurentSeries against a plain-Fraction reference.
# A reference series is a triple (min_exp, coeffs, trunc) in normal form:
# no leading zero, coefficients known for min_exp <= e < trunc, and
# min_exp == trunc with no coefficients for the zero series.


def _ref_norm(min_exp, coeffs, trunc):
    coeffs = [Fraction(c) for c in coeffs][: trunc - min_exp]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        min_exp += 1
    if not coeffs:
        return (trunc, [], trunc)
    return (min_exp, coeffs + [Fraction(0)] * (trunc - min_exp - len(coeffs)), trunc)


def _ref_add(a, b):
    trunc = min(a[2], b[2])
    lo = min(a[0], b[0])
    out = [Fraction(0)] * (trunc - lo)
    for m, cs, _ in (a, b):
        for i, c in enumerate(cs):
            if m + i < trunc:
                out[m + i - lo] += c
    return _ref_norm(lo, out, trunc)


def _ref_mul(a, b):
    trunc = min(a[0] + b[2], b[0] + a[2])
    lo = a[0] + b[0]
    out = [Fraction(0)] * max(trunc - lo, 0)
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1]):
            if lo + i + j < trunc:
                out[i + j] += x * y
    return _ref_norm(lo, out, trunc)


def _ref_invert(a):
    m, cs, _ = a
    inv = [1 / cs[0]]
    for r in range(1, len(cs)):
        inv.append(-sum(cs[j] * inv[r - j] for j in range(1, r + 1)) / cs[0])
    return _ref_norm(-m, inv, -m + len(cs))


_scalars = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-12, max_value=12, max_denominator=10),
)


@st.composite
def _series_args(draw):
    """Constructor arguments, zeros and negative heads included."""
    lo = draw(st.integers(-4, 3))
    coeffs = draw(st.lists(_scalars, max_size=7))
    trunc = lo + draw(st.integers(0, len(coeffs) + 2))
    return lo, coeffs, trunc


def _build(args):
    lo, coeffs, trunc = args
    return LaurentSeries("t", "0", lo, coeffs, trunc), _ref_norm(lo, coeffs, trunc)


def _state(s):
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.den > 0
    return (s.min_exp, s.coeffs, s.trunc)


class TestLaurentKernel:
    @given(_series_args())
    def test_construction(self, a):
        s, ref = _build(a)
        assert _state(s) == ref
        assert s.is_zero() == (not ref[1])

    @given(_series_args(), _series_args())
    def test_add_and_sub(self, a, b):
        (s, ra), (t, rb) = _build(a), _build(b)
        assert _state(s + t) == _ref_add(ra, rb)
        neg = (rb[0], [-c for c in rb[1]], rb[2])
        assert _state(s - t) == _ref_add(ra, neg)

    @given(_series_args(), _series_args())
    def test_mul(self, a, b):
        (s, ra), (t, rb) = _build(a), _build(b)
        assert _state(s * t) == _ref_mul(ra, rb)

    @given(_series_args(), _scalars)
    def test_scalar_mul_and_add(self, a, c):
        s, ra = _build(a)
        c = Fraction(c)
        assert _state(s * c) == _ref_norm(ra[0], [x * c for x in ra[1]], ra[2])
        assert _state(c * s) == _state(s * c)
        assert _state(s + c) == _ref_add(ra, _ref_norm(0, [c], ra[2]))

    @given(_series_args())
    def test_invert(self, a):
        s, ra = _build(a)
        if not ra[1]:
            with pytest.raises(ZeroDivisionError):
                s.invert()
        else:
            assert _state(s.invert()) == _ref_invert(ra)

    @given(_series_args())
    def test_coefficient_lookup(self, a):
        s, (m, cs, trunc) = _build(a)
        for e in range(m - 2, trunc):
            want = cs[e - m] if e >= m else Fraction(0)
            got = s.coefficient(e)
            assert type(got) is Fraction and got == want
        with pytest.raises(TruncationError):
            s.coefficient(trunc)

    def test_charts_do_not_mix(self):
        s = LaurentSeries("t", "0", -1, [1], 2)
        other = LaurentSeries("t", "1", -1, [1], 2)
        for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(ValueError):
                op(s, other)


# ----------------------------------------------------------------------
# SymRat against a plain-Fraction reference: a value is a pair
# (scalar, {atom: coefficient}) with no zero coefficient.

_ATOM_NAMES = ("gw[a]", "gw[b]", "gw[c]")


@st.composite
def _symrats(draw):
    """SymRat constructor arguments; the atoms may be empty or zero."""
    scalar = draw(_scalars)
    atoms = draw(st.dictionaries(st.sampled_from(_ATOM_NAMES), _scalars, max_size=3))
    return ("sym", scalar, atoms)


_operands = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=10), _symrats())


def _value(x):
    return SymRat(x[1], x[2]) if isinstance(x, tuple) else x


def _sr_ref(x):
    if isinstance(x, tuple):
        return Fraction(x[1]), {k: Fraction(v) for k, v in x[2].items() if v}
    return Fraction(x), {}


def _sr_add(x, y):
    atoms = dict(x[1])
    for k, v in y[1].items():
        atoms[k] = atoms.get(k, Fraction(0)) + v
    return x[0] + y[0], {k: v for k, v in atoms.items() if v}


def _sr_neg(x):
    return -x[0], {k: -v for k, v in x[1].items()}


def _sr_mul(x, y):
    if x[1] and y[1]:
        raise AtomProductError
    if x[1]:
        x, y = y, x
    return x[0] * y[0], {k: x[0] * v for k, v in y[1].items() if x[0] * v}


def _sr_state(v):
    assert type(v) is SymRat
    assert type(v.scalar) is Fraction
    assert all(type(c) is Fraction and c != 0 for c in v.atoms.values())
    return v.scalar, v.atoms


class TestSymRatReference:
    @given(_symrats(), _operands)
    def test_ring_operations(self, x, y):
        a, b = _value(x), _value(y)
        ra, rb = _sr_ref(x), _sr_ref(y)
        assert _sr_state(a) == ra
        assert _sr_state(a + b) == _sr_add(ra, rb)
        assert _sr_state(b + a) == _sr_add(ra, rb)
        assert _sr_state(a - b) == _sr_add(ra, _sr_neg(rb))
        assert _sr_state(b - a) == _sr_add(rb, _sr_neg(ra))
        assert _sr_state(-a) == _sr_neg(ra)
        try:
            want = _sr_mul(ra, rb)
        except AtomProductError:
            with pytest.raises(AtomProductError):
                a * b
            with pytest.raises(AtomProductError):
                b * a
        else:
            assert _sr_state(a * b) == want
            assert _sr_state(b * a) == want

    @given(_symrats(), _operands)
    def test_equality(self, x, y):
        a, b = _value(x), _value(y)
        assert (a == b) == (_sr_ref(x) == _sr_ref(y))
        assert (b == a) == (_sr_ref(x) == _sr_ref(y))

    def test_fraction_scalar_kept_as_is(self):
        q = Fraction(3, 7)
        assert SymRat(q).scalar is q
        assert type(SymRat(2).scalar) is Fraction


# ----------------------------------------------------------------------
# dot against the sum of its products, each built from plain Fractions.


def _lowest(q):
    return type(q) is Fraction and q.denominator > 0 and gcd(q.numerator, q.denominator) == 1


def _dot_ref(raw):
    total = (Fraction(0), {})
    for x, y in raw:
        total = _sr_add(total, _sr_mul(_sr_ref(x), _sr_ref(y)))
    return total


class TestDot:
    @given(st.lists(st.tuples(_operands, _operands), max_size=6))
    @example([])
    @example([(0, ("sym", 0, {"gw[a]": 1})), (("sym", 2, {}), 0)])
    def test_against_reference(self, raw):
        pairs = [(_value(x), _value(y)) for x, y in raw]
        has_sym = any(isinstance(v, tuple) for xy in raw for v in xy)
        for ps in (pairs, [(b, a) for a, b in pairs]):
            try:
                want = _dot_ref(raw)
            except AtomProductError:
                with pytest.raises(AtomProductError):
                    dot(ps)
                continue
            got = dot(ps)
            if has_sym:
                assert _sr_state(got) == want
                assert all(map(_lowest, [got.scalar, *got.atoms.values()]))
            else:
                assert type(got) is Fraction and not want[1]
                assert got == want[0] and _lowest(got)

    def test_long_values(self):
        x, y = Fraction(3**400, 2**700 + 1), Fraction(2**5 * (2**700 + 1), 3**7)
        for pairs in ([(x, y)], [(x, 1), (x, -1), (y, x)], [(x, y), (x, 3)],
                      [(0, y), (x, y), (1, 1)]):
            got = dot(pairs)
            assert got == sum((a * b for a, b in pairs), Fraction(0)) and _lowest(got)

    def test_cancelled_atoms_are_dropped(self):
        a = SymRat.atom("gw[a]", Fraction(2, 3))
        got = dot([(3, a), (a, -3), (Fraction(1, 2), 4)])
        assert type(got) is SymRat and got.atoms == {} and got.scalar == 2

    def test_atom_times_atom_raises(self):
        a, b = SymRat.atom("gw[a]"), SymRat(1, {"gw[b]": 2})
        with pytest.raises(AtomProductError):
            dot([(1, 2), (a, b)])
