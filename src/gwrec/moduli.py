"""Intersection numbers of psi classes on the moduli space of curves, and
the degree-decorated point invariants built from them.

psi_intersection computes <tau_{b_1}...tau_{b_n}>_g by a Virasoro-derived
recursion on the distinguished insertion of largest level, seeded by
<tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  It and the string route of the
point invariants are routes on the engine's stack loop, `_run_routes`.
Correctness is enforced by the string/dilaton property suite and golden
values in the tests, not by any single reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .algebra import MultiPoly, QuasiPoly, compositions, dot, exact_int
from .engine import _run_routes, _stable, _weighted_splits


class UnstableKeyError(ValueError):
    """2g - 2 + n <= 0: the bracket does not exist."""


def _dfact(n: int) -> int:
    """Double factorial n!! with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


_PSI_CACHE: dict = {}


def psi_intersection(g: int, beta) -> Fraction:
    """Exact value of <tau_{beta_1} ... tau_{beta_n}>_g.

    Returns 0 when the dimension constraint sum(beta) = 3g - 3 + n fails;
    raises ValueError on a negative genus or level, and UnstableKeyError
    when (g, n) fails the engine's stability test `_stable`.
    """
    g = exact_int(g)
    beta = tuple(sorted(map(exact_int, beta)))
    n = len(beta)
    if g < 0:
        raise ValueError(f"negative genus {g}")
    if any(b < 0 for b in beta):
        raise ValueError("negative psi exponent")
    if not _stable(g, n):
        raise UnstableKeyError(f"(g, n) = ({g}, {n}) is unstable")
    if sum(beta) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, beta) not in _PSI_CACHE:
        _run_routes((g, beta), _PSI_CACHE, _psi_route)
    return _PSI_CACHE[g, beta]


def _psi_route(key):
    """The route of a dimension-valid key (g, beta), beta sorted: the
    recursion pivots on the largest level, which is >= 1 except at the
    seeds.  Its boundary sum reads each split of the other levels once,
    weighted by level - 1, and the genus of the part with level a is forced
    by the subset sum s of those weights: 3 g1 = s + a + 2."""
    g, beta = key
    if key == (0, (0, 0, 0)):
        return Fraction(1)
    if key == (1, (1,)):
        return Fraction(1, 24)
    rest, i = beta[:-1], beta[-1]
    terms = []
    # Transfer terms: join the pivot with one of the other points.
    for j, pj in enumerate(rest):
        coeff = Fraction(_dfact(2 * i + 2 * pj - 1), _dfact(2 * i + 1) * _dfact(2 * pj - 1))
        sub = tuple(sorted(rest[:j] + rest[j + 1 :] + (i + pj - 1,)))
        terms.append((coeff, (yield (g, sub))))
    # Boundary terms: split off a rational tail or separate the surface.
    splits = _weighted_splits([(x, 0) for x in rest])
    half = Fraction(1, 2 * _dfact(2 * i + 1))
    for a in range(i - 1):
        b = i - 2 - a
        w = half * _dfact(2 * a + 1) * _dfact(2 * b + 1)
        if g >= 1 and _stable(g - 1, len(rest) + 2):
            terms.append((w, (yield (g - 1, tuple(sorted(rest + (a, b)))))))
        for I, J, s in splits:
            g1, r = divmod(s + a + 2, 3)
            if r or not 0 <= g1 <= g:
                continue
            if _stable(g1, len(I) + 1) and _stable(g - g1, len(J) + 1):
                v1 = yield (g1, tuple(sorted([a] + [x for x, _ in I])))
                v2 = yield (g - g1, tuple(sorted([b] + [x for x, _ in J])))
                terms.append((w * v1, v2))
    return dot(terms)


_POINT_CACHE: dict = {}


def point_invariant(g: int, m, d: int) -> Fraction:
    """(1/d!) * integral over curves with n + d points of prod psi_i^{m_i},
    the d extra points carrying no psi class.

    Evaluated by two independent routes that must agree: the n0
    polynomial read at m, over prod m_i!, and a downward recursion on d
    through the string equation.  Both are exposed for the tests.
    """
    val_a = point_invariant_closed(g, m, d)
    val_b = point_invariant_string(g, m, d)
    if val_a != val_b:
        raise AssertionError(
            f"point invariant routes disagree at (g={g}, m={tuple(m)}, d={d}): "
            f"{val_a} vs {val_b}"
        )
    return val_a


def _point_check(g, m, d):
    g, d = exact_int(g), exact_int(d)
    m = tuple(map(exact_int, m))
    if g < 0 or d < 0 or any(x < 0 for x in m):
        raise ValueError("negative data")
    if not _stable(g, len(m) + d):
        raise UnstableKeyError(f"(g, n + d) = ({g}, {len(m) + d}) is unstable")
    return g, m, d


def point_invariant_closed(g: int, m, d: int) -> Fraction:
    """The point invariant read off the n0 polynomial: its value at m over
    prod m_i!, relabelling zero-level points first when (g, n) is unstable.
    The polynomial's Newton form at m, over prod m_i!, is the sum over
    beta <= m of <tau_beta>_g / prod (m_i - beta_i)!, read directly."""
    g, m, d = _point_check(g, m, d)
    n = len(m)
    if sum(m) != 3 * g - 3 + n + d:
        return Fraction(0)
    # The binomial closed form needs 2g - 2 + n > 0; below that, relabel
    # just enough extra points as zero-level slots to stabilise (there are
    # d >= j of them, since the whole space is stable).
    if not _stable(g, n):
        j = 3 - 2 * g - n
        return point_invariant_closed(g, m + (0,) * j, d - j) * Fraction(
            factorial(d - j), factorial(d)
        )
    # Some beta <= m has |beta| = 3g - 3 + n <= |m|, so the sum is a Fraction.
    return sum([
        psi_intersection(g, beta) / prod([factorial(x - b) for x, b in zip(m, beta)])
        for beta in compositions(3 * g - 3 + n, n)
        if all([b <= x for b, x in zip(beta, m)])
    ])


def point_invariant_string(g: int, m, d: int) -> Fraction:
    g, m, d = _point_check(g, m, d)
    if sum(m) != 3 * g - 3 + len(m) + d:
        return Fraction(0)
    # The string equation forgets one extra point at a time, so the chain
    # is d keys deep: its route runs on the engine's stack over _POINT_CACHE.
    key = (g, tuple(sorted(m)), d)
    if key not in _POINT_CACHE:
        _run_routes(key, _POINT_CACHE, _point_route)
    return _POINT_CACHE[key]


def _point_route(key):
    g, ms, d = key
    if d == 0:
        return psi_intersection(g, ms)
    if not any(ms):
        # All levels zero: the string step would forget down to an unstable
        # space; the integrand is 1 and the space is a point.
        return Fraction(1, factorial(d))
    total = 0
    for i, x in enumerate(ms):
        if x:
            total += yield (g, tuple(sorted(ms[:i] + (x - 1,) + ms[i + 1 :])), d - 1)
    return total / d


def n0_polynomial(g: int, n: int) -> QuasiPoly:
    """The degree 3g-3+n polynomial whose value at m is
    prod m_i! * <prod tau_{m_i} . exp(tau_0)>_g, as a one-branch QuasiPoly.

    It is sum_beta <tau_beta>_g prod_i m_i (m_i - 1) ... (m_i - beta_i + 1),
    so its Newton coefficients at the origin are <tau_beta>_g prod beta_i!.
    """
    g, n = exact_int(g), exact_int(n)
    if g < 0:
        raise ValueError(f"negative genus {g}")
    if not _stable(g, n):
        raise UnstableKeyError(f"(g, n) = ({g}, {n}) is unstable")
    newton = {
        beta: psi_intersection(g, beta) * prod(map(factorial, beta))
        for beta in compositions(3 * g - 3 + n, n)
    }
    return QuasiPoly(0, n, {(0,) * n: MultiPoly.from_newton(newton, (0,) * n, 1)})
