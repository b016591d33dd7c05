"""Intersection numbers of psi classes on the moduli space of curves, and
the degree-decorated point invariants built from them.

psi_intersection computes <tau_{b_1}...tau_{b_n}>_g by a Virasoro-derived
recursion on the distinguished insertion of largest level, seeded by
<tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  Correctness is enforced by the
string/dilaton property suite and golden values in the tests, not by any
single reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .algebra import (
    MultiPoly,
    QuasiPoly,
    bipartitions,
    compositions,
    exact_int,
)


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
    raises UnstableKeyError when 2g - 2 + n <= 0.
    """
    g = exact_int(g)
    beta = tuple(sorted(map(exact_int, beta)))
    n = len(beta)
    if g < 0:
        raise ValueError(f"negative genus {g}")
    if any(b < 0 for b in beta):
        raise ValueError("negative psi exponent")
    if 2 * g - 2 + n <= 0:
        raise UnstableKeyError(f"(g, n) = ({g}, {n}) is unstable")
    if sum(beta) != 3 * g - 3 + n:
        return Fraction(0)
    return _psi(g, beta)


def _stable(g, n) -> bool:
    return 2 * g - 2 + n > 0


def _psi(g, beta) -> Fraction:
    key = (g, beta)
    if key in _PSI_CACHE:
        return _PSI_CACHE[key]
    if g == 0 and beta == (0, 0, 0):
        val = Fraction(1)
    elif g == 1 and beta == (1,):
        val = Fraction(1, 24)
    else:
        val = _psi_recurse(g, beta)
    _PSI_CACHE[key] = val
    return val


def _psi_recurse(g, beta) -> Fraction:
    # Pivot on the largest level; by the dimension constraint it is >= 1
    # except at the seeds handled above.
    rest = list(beta[:-1])
    i = beta[-1]
    assert i >= 1, (g, beta)
    total = Fraction(0)
    # Transfer terms: join the pivot with one of the other points.
    for j, pj in enumerate(rest):
        coeff = Fraction(_dfact(2 * i + 2 * pj - 1), _dfact(2 * i + 1) * _dfact(2 * pj - 1))
        sub = tuple(sorted(rest[:j] + rest[j + 1 :] + [i + pj - 1]))
        total += coeff * _psi(g, sub)
    # Boundary terms: split off a rational tail or separate the surface.
    half = Fraction(1, 2 * _dfact(2 * i + 1))
    for a in range(i - 1):
        b = i - 2 - a
        w = Fraction(_dfact(2 * a + 1) * _dfact(2 * b + 1))
        inner = Fraction(0)
        if g >= 1 and _stable(g - 1, len(rest) + 2):
            key = tuple(sorted(rest + [a, b]))
            if sum(key) == 3 * (g - 1) - 3 + len(key):
                inner += _psi(g - 1, key)
        for g1 in range(g + 1):
            g2 = g - g1
            for I, J in bipartitions(rest):
                if not _stable(g1, len(I) + 1) or not _stable(g2, len(J) + 1):
                    continue
                k1 = tuple(sorted([a] + I))
                k2 = tuple(sorted([b] + J))
                # The levels of k1 and k2 add up to their two dimensions
                # together, so k2 meets its own once k1 does.
                if sum(k1) != 3 * g1 - 3 + len(k1):
                    continue
                inner += _psi(g1, k1) * _psi(g2, k2)
        total += half * w * inner
    return total


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
    # is d keys deep: it runs on an explicit stack over _POINT_CACHE, each
    # key staying on it until the keys one point down are cached.
    top = (g, tuple(sorted(m)), d)
    stack = [top]
    while stack:
        key = stack[-1]
        if key in _POINT_CACHE:
            stack.pop()
            continue
        _, ms, d = key
        if d == 0:
            val = psi_intersection(g, ms)
        elif not any(ms):
            # All levels zero: the string step would forget down to an
            # unstable space; the integrand is 1 and the space is a point.
            val = Fraction(1, factorial(d))
        else:
            subs = [
                (g, tuple(sorted(ms[:i] + (x - 1,) + ms[i + 1 :])), d - 1)
                for i, x in enumerate(ms)
                if x
            ]
            missing = [sub for sub in subs if sub not in _POINT_CACHE]
            if missing:
                stack.extend(missing)
                continue
            val = sum(_POINT_CACHE[sub] for sub in subs) / d
        _POINT_CACHE[key] = val
        stack.pop()
    return _POINT_CACHE[top]


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
