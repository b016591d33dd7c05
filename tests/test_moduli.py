import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from gwrec.moduli import (
    UnstableKeyError,
    n0_polynomial,
    point_invariant,
    point_invariant_closed,
    point_invariant_string,
    psi_intersection,
)


def _keys(g, n):
    """All dimension-valid sorted level tuples for (g, n)."""
    total = 3 * g - 3 + n
    if total < 0:
        return []
    return [
        b
        for b in combinations_with_replacement(range(total + 1), n)
        if sum(b) == total
    ]


GOLDEN = {
    (0, (0, 0, 0)): Fraction(1),
    (0, (1, 0, 0, 0)): Fraction(1),
    (0, (2, 0, 0, 0, 0)): Fraction(1),
    (0, (1, 1, 0, 0, 0)): Fraction(2),
    (1, (1,)): Fraction(1, 24),
    (1, (2, 0)): Fraction(1, 24),
    (1, (1, 1)): Fraction(1, 24),
    (1, (3, 0, 0)): Fraction(1, 24),
    (1, (2, 1, 0)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (4,)): Fraction(1, 1152),
    (2, (4, 1)): Fraction(1, 384),
    (2, (3, 2)): Fraction(29, 5760),
    (3, (7,)): Fraction(1, 82944),
    (3, (5, 3)): Fraction(503, 1451520),
}


class TestPsiIntersection:
    @pytest.mark.parametrize("key,value", sorted(GOLDEN.items()))
    def test_golden_values(self, key, value):
        g, beta = key
        assert psi_intersection(g, beta) == value

    def test_dimension_vanishing(self):
        assert psi_intersection(0, (1, 1, 1)) == 0
        assert psi_intersection(1, (2,)) == 0

    def test_unstable_is_an_error(self):
        with pytest.raises(UnstableKeyError):
            psi_intersection(0, (0, 0))
        with pytest.raises(UnstableKeyError):
            psi_intersection(1, ())

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_string_equation(self, g):
        # <tau_0 prod tau_{d_i}>_g = sum_i <... tau_{d_i - 1} ...>_g on the
        # shell sum(d) = 3g - 2 + n, for up to five points in total.
        for n in range(1, 5):
            total = 3 * g - 2 + n
            if total < 0 or 2 * g - 2 + n <= 0:
                continue
            for d in combinations_with_replacement(range(total + 1), n):
                if sum(d) != total:
                    continue
                lhs = psi_intersection(g, (0,) + d)
                rhs = sum(
                    psi_intersection(g, d[:i] + (d[i] - 1,) + d[i + 1 :])
                    for i in range(n)
                    if d[i] >= 1
                )
                assert lhs == rhs, (g, d)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_dilaton_equation(self, g):
        for n in range(1, 5):
            if 2 * g - 2 + n <= 0:
                continue
            for beta in _keys(g, n):
                assert psi_intersection(g, (1,) + beta) == (
                    2 * g - 2 + n
                ) * psi_intersection(g, beta)


    def test_non_integral_exponent_is_rejected(self):
        # 0.7 would otherwise be read as 0, giving <tau_0^3>_0 = 1
        with pytest.raises(ValueError, match="0.7"):
            psi_intersection(0, [0.7, 0, 0])
        assert psi_intersection(1, [Fraction(1)]) == Fraction(1, 24)


class TestPointInvariant:
    def test_dimension_zero_cases(self):
        assert point_invariant(0, (1, 1, 1), 0) == 0
        assert point_invariant(0, (0, 0, 0), 0) == 1

    def test_string_route_example(self):
        assert point_invariant(1, (2,), 1) == Fraction(1, 24)

    def test_unstable(self):
        with pytest.raises(UnstableKeyError):
            point_invariant(0, (0, 0), 0)

    def test_non_integral_level_is_rejected(self):
        # 1.5 would otherwise be read as 1
        for route in (point_invariant, point_invariant_closed, point_invariant_string):
            with pytest.raises(ValueError, match="1.5"):
                route(0, [1.5, 0, 0, 0], 0)
        assert point_invariant(1, (Fraction(2),), 1) == Fraction(1, 24)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_routes_agree(self, g):
        for n in range(1, 4):
            for d in range(0, 7):
                total = 3 * g - 3 + n + d
                if total < 0 or 2 * g - 2 + n + d <= 0:
                    continue
                for m in combinations_with_replacement(range(total + 1), n):
                    if sum(m) != total:
                        continue
                    a = point_invariant_closed(g, m, d)
                    b = point_invariant_string(g, m, d)
                    assert a == b, (g, m, d)


class TestN0Polynomial:
    def test_genus0_three_point(self):
        q = n0_polynomial(0, 3)
        poly = q.branches[(0, 0, 0)]
        assert poly.degree() == 0
        assert poly.eval((5, 1, 9)) == 1

    def test_genus1_one_point(self):
        poly = n0_polynomial(1, 1).branches[(0,)]
        for m in range(8):
            assert poly.eval((m,)) == Fraction(m, 24)

    def test_genus0_four_point(self):
        poly = n0_polynomial(0, 4).branches[(0,) * 4]
        for pt in [(0, 0, 0, 0), (1, 2, 3, 4), (5, 0, 2, 1)]:
            assert poly.eval(pt) == sum(pt)

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)])
    def test_degree_and_top_coefficients(self, g, n):
        poly = n0_polynomial(g, n).branches[(0,) * n]
        D = 3 * g - 3 + n
        assert poly.degree() == D
        for beta in _keys(g, n):
            for e in set(_perms(beta)):
                assert poly.coeff(e) == psi_intersection(g, e)

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2)])
    def test_reproduces_d0_values(self, g, n):
        # On the d = 0 shell the polynomial returns m_i!-weighted psi values
        # even at level vectors that match no single monomial.
        poly = n0_polynomial(g, n).branches[(0,) * n]
        total = 3 * g - 3 + n
        for m in combinations_with_replacement(range(total + 1), n):
            if sum(m) != total:
                continue
            fact = 1
            for x in m:
                for i in range(2, x + 1):
                    fact *= i
            assert poly.eval(m) == fact * psi_intersection(g, m)


# sha256 of json.dumps(n0_polynomial(g, n).to_obj(), sort_keys=True),
# computed while the falling factorials were multiplied out term by term.
GOLDEN_N0 = {
    (0, 3): "dc52fb20690b046ca8ecf2aab5299efebc3e1b9c4071a3b4cb5af91f63eba0b4",
    (0, 4): "a27eb5ed582df434247c61f7e4a7139071dafaab3e7fffbb406deb5820f9f5df",
    (0, 5): "9b4e7e41b18a82ca83a20a1f68e5febbd404148a2b24120ec0d55dbfef93a285",
    (1, 1): "220585a0aa1a4446996eb237989071ee1cec9b6a25cf5dd4cb0ea6493de06213",
    (1, 2): "f9b2027f6ee8c9c9764583cec36084cf561cd3f137a92e996d420a535d0ccabb",
    (1, 3): "e36a1cb9962d97263a70c4e6e85933062ec5eb9309d1a37627c57a801769e9cd",
    (2, 1): "54368eea11c5487a27b809f42a61831f615c35b793ac822f4fbc345fdcae58d5",
    (2, 2): "a8b0f2d4a54bc2068d3ac7f086ecf4e225d3d21847c63ac1971fa39733474b4a",
    (3, 1): "175df3a3951167c5c3ba85aca28533f7850c624ca28081781280d8aa49c3085e",
}


@pytest.mark.parametrize("g,n", sorted(GOLDEN_N0))
def test_n0_polynomial_golden_digest(g, n):
    record = json.dumps(n0_polynomial(g, n).to_obj(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_N0[(g, n)]


def _perms(beta):
    from itertools import permutations

    return [tuple(p) for p in permutations(beta)]
