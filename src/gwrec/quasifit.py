"""Fitting of the normalised stationary brackets by quasi-polynomials and
the mechanical verification battery built on top of the fits.

All checks are exact rational identities; the only tolerance anywhere is
the explicit deviation bound of the asymptotics report, itself compared
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import prod

from .algebra import (
    ZERO,
    MultiPoly,
    QuasiPoly,
    SymRat,
    binomial,
    c_factor,
    ceil_div,
    compositions,
    dot,
    format_rat,
)
from .engine import DEFAULT_ENGINE, Engine, _forced_class, degree_of
from .moduli import psi_intersection


class UnderdeterminedSystemError(ValueError):
    """Fewer samples than interpolation coefficients."""


class InconsistentSamplesError(ValueError):
    """A surplus sample disagrees with the unique interpolant: either a bug
    or a failure of quasi-polynomiality."""


def _fmt_witness(v):
    if isinstance(v, Fraction):
        return format_rat(v)
    if isinstance(v, SymRat):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return [_fmt_witness(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _fmt_witness(x) for k, x in v.items()}
    if isinstance(v, (int, str)):
        return v
    return repr(v)


@dataclass
class VerificationReport:
    claim: str
    status: str  # "pass" | "fail" | "inconclusive-atoms" | "exploratory"
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "exploratory")

    def to_obj(self):
        out = {"claim": self.claim, "status": self.status}
        if self.witness is not None:
            out["witness"] = {k: _fmt_witness(v) for k, v in self.witness.items()}
        return out


@dataclass
class FitSpec:
    """What to fit: the stationary slots of a bracket over P^N with an
    optional fixed multiset of extra insertions."""

    N: int
    g: int
    n: int
    fixed_insertions: tuple = ()
    min_m: int | None = None  # lower bound for sample levels

    @property
    def degree_bound(self) -> int:
        return 3 * self.g - 3 + self.n + len(self.fixed_insertions)

    def floor(self) -> int:
        if self.min_m is not None:
            return max(0, self.min_m)
        return max(0, 3 * self.g - 1)


def _differences(table, degree):
    """Newton coefficients of the lattice interpolant of total degree
    <= degree.

    `table` maps lattice offsets alpha to the samples f(alpha); the offsets
    must form a lower set (with alpha, every alpha - e_k with alpha_k > 0).
    The table is overwritten, one axis at a time, by the forward differences
    Delta^alpha f(0).  On a lower set the samples agree with a polynomial of
    total degree <= degree exactly when every higher difference vanishes,
    so that is the consistency check.  Returns {alpha: Delta^alpha f(0)}
    for |alpha| <= degree; the interpolant is their sum against
    prod_k binomial(x_k, alpha_k).
    """
    nvars = len(next(iter(table)))
    for a in table:
        for k in range(nvars):
            if a[k] and _step_down(a, k) not in table:
                raise ValueError(
                    f"samples off the lattice: offset {a} without {_step_down(a, k)}"
                )
    for a in compositions(degree, nvars):
        if a not in table:
            raise UnderdeterminedSystemError(
                f"no sample at offset {a} for an interpolant of degree {degree}"
            )
    for k in range(nvars):
        order = sorted(table, key=lambda a: a[k], reverse=True)
        for r in range(1, order[0][k] + 1):
            for a in order:
                if a[k] < r:
                    break
                table[a] = table[a] - table[_step_down(a, k)]
    newton = {}
    for a, d in table.items():
        if sum(a) <= degree:
            newton[a] = d
        elif d:
            raise InconsistentSamplesError(
                f"difference at offset {a} is {d!r}, beyond degree {degree}"
            )
    return newton


def _step_down(a, k):
    return a[:k] + (a[k] - 1,) + a[k + 1 :]


def _binomial_coeffs(base, step, k):
    """Monomial coefficients, lowest degree first, of binomial((x - base)/step, k)."""
    out = [Fraction(1)]
    for j in range(k):
        # times (x - base - j*step) / (step*(j+1))
        den = step * (j + 1)
        shift = Fraction(-(base + j * step), den)
        out = [shift * a + Fraction(b, den) for a, b in zip(out + [0], [0] + out)]
    return out


def quasi_fit(samples, N, nvars, degree_bound) -> QuasiPoly:
    """Exact interpolation of one quasi-polynomial from sampled values.

    Samples are grouped by coset; each coset is read as a lower set of the
    lattice (N+1)Z^nvars anchored at the componentwise minimum of its
    points, and interpolated by forward differences (`_differences`),
    which also checks every sample, surplus included, against the result.
    """
    mod = N + 1
    groups: dict = {}
    for point, value in samples:
        point = tuple(int(x) for x in point)
        if len(point) != nvars:
            raise ValueError("sample arity mismatch")
        group = groups.setdefault(tuple(x % mod for x in point), {})
        value = SymRat.of(value)
        if group.setdefault(point, value) != value:
            raise InconsistentSamplesError(
                f"two samples at {point}: {group[point]!r} and {value!r}"
            )
    branches = {}
    for res, pts in groups.items():
        base = tuple(map(min, zip(*pts)))
        table = {
            tuple((x - b) // mod for x, b in zip(point, base)): value
            for point, value in pts.items()
        }
        newton = _differences(table, degree_bound)
        binoms = [
            [_binomial_coeffs(b, mod, a) for a in range(degree_bound + 1)]
            for b in base
        ]
        terms: dict = {}
        for alpha, c in newton.items():
            if not c:
                continue
            for e in product(*(range(a + 1) for a in alpha)):
                w = prod(binoms[k][a][ek] for k, (a, ek) in enumerate(zip(alpha, e)))
                if w:
                    terms[e] = terms.get(e, ZERO) + c * w
        poly = MultiPoly(nvars, terms)
        if poly.terms:
            branches[res] = poly
    return QuasiPoly(N, nvars, branches)


def stationary_parity(N, g, n, fixed=()):
    """Residue class of sum(m_i) mod N+1 on which the bracket of `fixed`
    and n stationary slots can be nonzero: the class that the dimension
    constraint forces on the slots' levels, read off the bracket at level
    zero."""
    return _forced_class(N, g, list(fixed) + [(0, N)] * n)


def _normalized(engine, N, g, ms, fixed=()) -> SymRat:
    """The bracket of the `fixed` insertions and stationary slots at levels
    `ms`, times prod_i c_{N+1}(m_i)."""
    val = engine.invariant(N, g, list(fixed) + [(m, N) for m in ms])
    return val * prod(c_factor(N + 1, m) for m in ms)


def fit_stationary(spec: FitSpec, engine: Engine = DEFAULT_ENGINE) -> QuasiPoly:
    """Sample the engine on per-coset grids and fit the quasi-polynomial of
    the c-normalised stationary bracket.  Only canonical (sorted) cosets are
    sampled; the rest follow by symmetry and are spot-checked against the
    engine afterwards."""
    N, g, n = spec.N, spec.g, spec.n
    mod = N + 1
    D = spec.degree_bound
    if D < 0:
        raise ValueError(
            f"degree bound 3g-3+n+len(fixed) = {D} is negative: nothing to fit"
        )
    want = stationary_parity(N, g, n, spec.fixed_insertions)
    cosets = [
        r
        for r in combinations_with_replacement(range(mod), n)
        if sum(r) % mod == want
    ]

    def sample(ms):
        return _normalized(engine, N, g, ms, spec.fixed_insertions)

    floor = spec.floor()
    fitted = {}
    for res in cosets:
        bases = [floor + ((r - floor) % mod) for r in res]
        pts = list(product(*[[b + mod * i for i in range(D + 1)] for b in bases]))
        if n:
            # Two surplus nodes beyond the grid on the first axis keep the
            # samples a lower set of the lattice.
            pts += [(bases[0] + mod * i, *bases[1:]) for i in (D + 1, D + 2)]
        sub = quasi_fit([(p, sample(p)) for p in pts], N, n, D)
        fitted.update(sub.branches)

    # Complete the branch family under permutations of the slots.
    full = dict(fitted)
    for res, poly in fitted.items():
        for perm in permutations(range(n)):
            new_res = [0] * n
            for i, p in enumerate(perm):
                new_res[p] = res[i]
            new_res = tuple(new_res)
            if new_res in full:
                continue
            cand = poly.relabel(perm)
            full[new_res] = cand
            check = tuple(floor + ((r - floor) % mod) for r in new_res)
            if cand.eval(check) != sample(check):
                raise InconsistentSamplesError(
                    f"symmetry completion failed at coset {new_res}"
                )
    return QuasiPoly(N, n, full)


class StationaryFamily:
    """Evaluator for the c-normalised stationary quasi-polynomial family in
    a fixed number of slots, including at the negative arguments k - N.

    Arguments below the sampling floor (negative entries in particular) are
    evaluated by exact univariate extrapolation along their coset, one slot
    at a time, in Newton form from the forward differences of degree + 2
    nodes; the vanishing of the top difference is the embedded
    quasi-polynomiality check.  The genus-0 one- and two-slot families use
    their closed forms instead: they are rational in the arguments, not
    polynomial.
    """

    def __init__(self, N, g, nvars, engine: Engine = DEFAULT_ENGINE, min_m=None):
        if nvars < 1:
            raise ValueError("a stationary family needs at least one slot")
        self.N = N
        self.g = g
        self.nvars = nvars
        self.engine = engine
        self.floor = max(0, 3 * g - 1 if min_m is None else min_m)
        self.degree = 3 * g - 3 + nvars
        self._memo: dict = {}

    @property
    def closed_form(self) -> bool:
        return self.g == 0 and self.nvars <= 2

    def value(self, v) -> SymRat:
        v = tuple(int(x) for x in v)
        if len(v) != self.nvars:
            raise ValueError("arity mismatch")
        if self.closed_form:
            if self.nvars == 1:
                return SymRat(Fraction((self.N + 1) ** 2, (v[0] + 2) ** 2))
            return SymRat(Fraction(self.N + 1, v[0] + v[1] + self.N + 1))
        if v in self._memo:
            return self._memo[v]
        out = self._value(v)
        self._memo[v] = out
        return out

    def _value(self, v) -> SymRat:
        mod = self.N + 1
        for i, x in enumerate(v):
            if x < self.floor:
                base = self.floor + ((x - self.floor) % mod)
                table = {
                    (j,): self.value(v[:i] + (base + mod * j,) + v[i + 1 :])
                    for j in range(self.degree + 2)
                }
                try:
                    newton = _differences(table, self.degree)
                except InconsistentSamplesError as exc:
                    raise InconsistentSamplesError(
                        f"slice through {v} is not polynomial of degree "
                        f"{self.degree}: {exc}"
                    ) from None
                t = (x - base) // mod
                return SymRat.of(dot((d, binomial(t, j)) for (j,), d in newton.items()))
        return _normalized(self.engine, self.N, self.g, v)


_FAMILIES: dict = {}


def stationary_family(N, g, nvars, engine: Engine = DEFAULT_ENGINE, min_m=None):
    key = (id(engine), N, g, nvars, min_m)
    if key not in _FAMILIES:
        _FAMILIES[key] = StationaryFamily(N, g, nvars, engine, min_m)
    return _FAMILIES[key]


# ----------------------------------------------------------------------
# verification battery


def verify_top_coefficients(q: QuasiPoly, g, n, N) -> VerificationReport:
    """Top coefficients of every nontrivial branch must be the psi numbers
    scaled by (N+1)^(3-2g-n), atom-free, and identical across cosets."""
    claim = f"top-coefficients N={N} g={g} n={n}"
    D = 3 * g - 3 + n
    scale = Fraction(N + 1) ** (3 - 2 * g - n)
    tops = {}
    for res, poly in sorted(q.branches.items()):
        for e in compositions(D, n):
            coeff = poly.coeff(e)
            expected = scale * psi_intersection(g, e)
            if coeff.atoms:
                return VerificationReport(
                    claim, "fail",
                    {"coset": res, "monomial": e, "atoms": sorted(coeff.atoms)},
                )
            if coeff.scalar != expected:
                return VerificationReport(
                    claim, "fail",
                    {"coset": res, "monomial": e, "got": coeff.scalar,
                     "expected": expected},
                )
            prev = tops.setdefault(e, (res, coeff.scalar))
            if prev[1] != coeff.scalar:
                return VerificationReport(
                    claim, "fail",
                    {"monomial": e, "coset_a": prev[0], "coset_b": res},
                )
    return VerificationReport(claim, "pass")


def verify_negative_evaluation(
    N, g, k_exponents, m_vector, engine: Engine = DEFAULT_ENGINE
) -> VerificationReport:
    """Primary insertions are stationary slots evaluated at k - N: compare
    the engine bracket against the quasi-polynomial family."""
    ks = tuple(int(k) for k in k_exponents)
    ms = tuple(int(m) for m in m_vector)
    claim = f"negative-evaluation N={N} g={g} k={ks} m={ms}"
    if any(not 0 <= k <= N for k in ks):
        raise ValueError("primary exponent out of range")
    lhs = _normalized(engine, N, g, ms, [(0, k) for k in ks])
    fam = stationary_family(N, g, len(ks) + len(ms), engine)
    rhs = fam.value(tuple(k - N for k in ks) + ms)
    if lhs == rhs:
        return VerificationReport(claim, "pass")
    return VerificationReport(claim, "fail", {"engine": lhs, "family": rhs})


def verify_p_string_divisor(
    N, g, n, engine: Engine = DEFAULT_ENGINE, max_m=10
) -> VerificationReport:
    """The string and divisor equations written purely in terms of the
    stationary family, checked on a grid; ValueError when the grid holds no
    point to check."""
    claim = f"p-string-divisor N={N} g={g} n={n} grid<= {max_m}"
    mod = N + 1
    lo = max(0, 3 * g - 1)
    fam_n = stationary_family(N, g, n, engine)
    fam_n1 = stationary_family(N, g, n + 1, engine)
    checked = 0
    for ms in combinations_with_replacement(range(lo, max_m + 1), n):
        # divisor: p(1-N, m) = d * p(m)
        if sum(ms) % mod == stationary_parity(N, g, n):
            d = degree_of(N, g, [(m, N) for m in ms])
            lhs = fam_n1.value((1 - N,) + ms)
            rhs = d * fam_n.value(ms)
            if lhs != rhs:
                return VerificationReport(
                    claim, "fail", {"form": "divisor", "m": ms, "lhs": lhs, "rhs": rhs}
                )
            checked += 1
        # string: p(-N, m) = sum_i ceil(m_i/(N+1)) p(..., m_i - 1, ...)
        if (sum(ms) + 1) % mod == stationary_parity(N, g, n + 1):
            lhs = fam_n1.value((-N,) + ms)
            # A slot at level zero has no decremented term.
            rhs = SymRat.of(dot(
                (ceil_div(m, mod), fam_n.value(ms[:i] + (m - 1,) + ms[i + 1 :]))
                for i, m in enumerate(ms) if m
            ))
            if lhs != rhs:
                return VerificationReport(
                    claim, "fail", {"form": "string", "m": ms, "lhs": lhs, "rhs": rhs}
                )
            checked += 1
    if checked == 0:
        raise ValueError(f"{claim}: empty grid, nothing to check")
    return VerificationReport(claim, "pass", {"points": checked})


def verify_dilaton_derivative(
    g, n, engine: Engine = DEFAULT_ENGINE, max_m=8
) -> VerificationReport:
    """On the projective line, a level-one unit insertion equals twice the
    slot derivative of the stationary family at zero.  Proven for genus 0
    and 1; higher genus is only reported.  ValueError when the grid holds no
    point to check."""
    N = 1
    claim = f"dilaton-derivative g={g} n={n}"
    if g > 1:
        return VerificationReport(claim, "exploratory",
                                  {"reason": "unproven beyond genus 1"})
    lo = max(0, 3 * g - 1)
    spec = FitSpec(N=N, g=g, n=n + 1, min_m=0)
    q = fit_stationary(spec, engine)
    checked = 0
    for ms in combinations_with_replacement(range(lo, max_m + 1), n):
        if sum(ms) % 2 != stationary_parity(N, g, n + 1):
            continue
        res = tuple(m % 2 for m in ms) + (0,)
        branch = q.branches.get(res)
        if branch is None:
            continue
        rhs = 2 * branch.deriv(n).eval(ms + (0,))
        lhs = _normalized(engine, N, g, ms, [(1, 0)])
        if lhs != rhs:
            return VerificationReport(
                claim, "fail", {"m": ms, "lhs": lhs, "rhs": rhs}
            )
        checked += 1
    if checked == 0:
        raise ValueError(f"{claim}: empty grid, nothing to check")
    return VerificationReport(claim, "pass", {"points": checked})


def asymptotics_report(
    N, g, n, ray, m_max, engine: Engine = DEFAULT_ENGINE,
    atom_values=None, bound=Fraction(1, 100),
) -> VerificationReport:
    """Ratio of the normalised bracket to its top-degree form along a ray;
    the deviation from 1 is reported and compared to the bound exactly.
    ValueError when no point of the ray up to m_max is admissible."""
    ray = tuple(int(r) for r in ray)
    if len(ray) != n or any(r <= 0 for r in ray):
        raise ValueError("ray must have positive entries")
    claim = f"asymptotics N={N} g={g} n={n} ray={ray}"
    mod = N + 1
    lo = max(1, 3 * g - 1)
    t = m_max // max(ray)
    while t > 0:
        ms = tuple(t * r for r in ray)
        if min(ms) >= lo and sum(ms) % mod == stationary_parity(N, g, n):
            break
        t -= 1
    if t == 0:
        raise ValueError(f"{claim}: no admissible point up to m = {m_max}")
    ms = tuple(t * r for r in ray)
    val = _normalized(engine, N, g, ms)
    try:
        num = val.resolve(atom_values or {})
    except KeyError as exc:
        return VerificationReport(claim, "inconclusive-atoms", {"atom": str(exc)})
    D = 3 * g - 3 + n
    top = Fraction(0)
    scale = Fraction(N + 1) ** (3 - 2 * g - n)
    for e in compositions(D, n):
        w = psi_intersection(g, e)
        if w:
            top += scale * w * prod(m**k for m, k in zip(ms, e))
    if top == 0:
        return VerificationReport(claim, "fail", {"reason": "vanishing top form"})
    dev = abs(num / top - 1)
    status = "pass" if dev <= bound else "fail"
    return VerificationReport(
        claim, status, {"m": ms, "deviation": dev, "bound": bound}
    )
