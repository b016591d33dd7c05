"""Fitting of the normalised stationary brackets by quasi-polynomials and
the mechanical verification battery built on top of the fits.

All checks are exact rational identities; the only tolerance anywhere is
the explicit deviation bound of the asymptotics report, itself compared
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import lcm, prod

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
    exact_int,
    format_rat,
)
from .engine import DEFAULT_ENGINE, Engine, _forced_class, degree_of
from .moduli import psi_intersection


class UnderdeterminedSystemError(ValueError):
    """Fewer samples than interpolation coefficients."""


class InconsistentSamplesError(ArithmeticError):
    """A surplus sample disagrees with the unique interpolant: a bug or a
    failure of quasi-polynomiality, unless `atoms_only` (every offending
    difference carries an atom: an equation in unresolved atoms).  Not a
    ValueError: the input was valid and the values failed the check."""

    def __init__(self, message, atoms_only=False):
        super().__init__(message)
        self.atoms_only = atoms_only


def _fmt_witness(v):
    """A witness value as JSON: Fractions in the wire format, containers
    element by element, and anything else, a SymRat say, by its repr."""
    if isinstance(v, Fraction):
        return format_rat(v)
    if isinstance(v, (list, tuple)):
        return [_fmt_witness(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _fmt_witness(x) for k, x in v.items()}
    if isinstance(v, (int, str)):
        return v
    return repr(v)


class _Record:
    """A mutable record of the attributes named in `_fields`: repr and ==
    field by field, == only against the same class, and no hash."""

    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


class VerificationReport(_Record):
    _fields = ("claim", "status", "witness")

    def __init__(self, claim: str, status: str, witness: dict | None = None):
        self.claim = claim
        self.status = status  # "pass" | "fail" | "inconclusive-atoms" | "exploratory"
        self.witness = witness

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "exploratory")

    def to_obj(self):
        out = {"claim": self.claim, "status": self.status}
        if self.witness is not None:
            out["witness"] = {k: _fmt_witness(v) for k, v in self.witness.items()}
        return out


class FitSpec(_Record):
    """What to fit: the stationary slots of a bracket over P^N with an
    optional fixed multiset of extra insertions.  The one home of the
    family's sampling rules: the floor, the degree bound and the coset
    base."""

    _fields = ("N", "g", "n", "fixed_insertions", "min_m")

    def __init__(self, N: int, g: int, n: int, fixed_insertions: tuple = (),
                 min_m: int | None = None):
        if N < 1:
            raise ValueError(f"target dimension N = {N} must be >= 1")
        self.N, self.g, self.n = N, g, n
        self.fixed_insertions = fixed_insertions
        self.min_m = min_m  # lower bound for sample levels

    @property
    def degree_bound(self) -> int:
        return 3 * self.g - 3 + self.n + len(self.fixed_insertions)

    def floor(self) -> int:
        if self.min_m is not None:
            return max(0, self.min_m)
        return max(0, 3 * self.g - 1)

    def base(self, r) -> int:
        """The least level at or above the floor in the coset of r mod N+1."""
        floor = self.floor()
        return floor + ((r - floor) % (self.N + 1))


@lru_cache(maxsize=32)
def _difference_plan(offsets, degree):
    """(steps, newton, surplus) for a table with these offsets, in table
    order: the subtractions (i, j), col[i] -= col[j], of every forward
    difference, axis by axis and on each axis from the highest level
    down, and the (position, offset) pairs with |offset| <= degree and
    above it.  ValueError when the offsets differ in length or are not a
    lower set, UnderdeterminedSystemError when there are none or one of
    total degree `degree` is missing.  A fit's cosets, and a family's
    extrapolations with as many low slots, share their offsets, so the 32
    plans used last are kept; a plan holds no sample value."""
    if not offsets:
        raise UnderdeterminedSystemError("no samples to interpolate")
    nvars = len(offsets[0])
    pos = {a: i for i, a in enumerate(offsets)}
    # down[k]: (level on axis k, position, position one step down)
    down = [[] for _ in range(nvars)]
    for i, a in enumerate(offsets):
        if len(a) != nvars:
            raise ValueError(f"offsets of unequal length: {offsets[0]} and {a}")
        for k in range(nvars):
            if a[k]:
                b = a[:k] + (a[k] - 1,) + a[k + 1 :]
                if b not in pos:
                    raise ValueError(f"samples off the lattice: offset {a} without {b}")
                down[k].append((a[k], i, pos[b]))
    for a in compositions(degree, nvars):
        if a not in pos:
            raise UnderdeterminedSystemError(
                f"no sample at offset {a} for an interpolant of degree {degree}"
            )
    steps = []
    for axis in down:
        axis.sort(reverse=True)  # highest level first
        for r in range(1, axis[0][0] + 1 if axis else 0):
            steps += [(i, j) for level, i, j in axis if level >= r]
    return (
        tuple(steps),
        tuple((i, a) for i, a in enumerate(offsets) if sum(a) <= degree),
        tuple((i, a) for i, a in enumerate(offsets) if sum(a) > degree),
    )


def _differences(table, degree):
    """Newton coefficients of the lattice interpolant of total degree
    <= degree.

    `table` maps lattice offsets alpha to the samples f(alpha); the offsets
    must form a lower set (with alpha, every alpha - e_k with alpha_k > 0).
    What depends on the offsets alone, checks included, is their cached
    `_difference_plan`.  Per table, the forward differences Delta^alpha f(0)
    are taken by its schedule on integer columns, the scalars and each
    atom's coefficients, each as numerators over the lcm of its
    denominators; the table is left as it is.  On a lower set the samples
    agree with a polynomial of total degree <= degree exactly when every
    higher difference vanishes, so that is the consistency check, made on
    the integers.  Returns {alpha: Delta^alpha f(0)} for |alpha| <= degree,
    in table order; the interpolant is their sum against
    prod_k binomial(x_k, alpha_k).
    """
    steps, newton, surplus = _difference_plan(tuple(table), degree)
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
    for col in columns:
        for i, j in steps:
            col[i] -= col[j]

    def value(i):
        return SymRat._make(Fraction(columns[0][i], dens[0]), {
            n: Fraction(col[i], d)
            for n, col, d in zip(names, columns[1:], dens[1:]) if col[i]
        })

    for i, a in surplus:
        if any(col[i] for col in columns):
            diffs = [value(j) for j, _ in surplus]
            raise InconsistentSamplesError(
                f"difference at offset {a} is {value(i)!r}, beyond degree {degree}",
                atoms_only=all(v.atoms for v in diffs if v),
            )
    return {a: value(i) for i, a in newton}


def quasi_fit(table, base, N, degree_bound) -> MultiPoly:
    """The polynomial on one coset of (N+1)Z^n through `table`, which maps
    lattice offsets a, a lower set, to the SymRat samples at base + (N+1) a.
    `_differences` interpolates and checks every sample, surplus included.
    ValueError for a non-integral base or one of another length than the
    offsets; `fit_stationary` takes each base from `FitSpec.base`."""
    base = tuple(map(exact_int, base))
    if table and len(base) != len(next(iter(table))):
        raise ValueError(f"base {base} and offset {next(iter(table))} differ in length")
    return MultiPoly.from_newton(_differences(table, degree_bound), base, N + 1)


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
    the c-normalised stationary bracket: one `quasi_fit` per canonical
    (sorted) coset, at the offsets {0..D}^n, (D+1, 0, ...) and
    (D+2, 0, ...) from its `FitSpec.base`.  The rest follow by symmetry and
    are spot-checked against the engine afterwards.  The bracket is
    symmetric in its slots, so the engine is read once per multiset of
    levels: every grid or check point that reorders them reuses that value."""
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

    read: dict = {}  # sorted levels -> normalised bracket

    def sample(ms):
        ms = tuple(sorted(ms))
        val = read.get(ms)
        if val is None:
            val = read[ms] = _normalized(engine, N, g, ms, spec.fixed_insertions)
        return val

    offsets = list(product(range(D + 1), repeat=n))
    if n:
        # Two surplus nodes beyond the grid on the first axis keep the
        # samples a lower set of the lattice.
        offsets += [(i,) + (0,) * (n - 1) for i in (D + 1, D + 2)]
    fitted = {}
    for res in cosets:
        base = [spec.base(r) for r in res]
        table = {a: sample([b + mod * x for b, x in zip(base, a)]) for a in offsets}
        poly = quasi_fit(table, base, N, D)
        if poly.terms:
            fitted[res] = poly

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
            check = tuple(spec.base(r) for r in new_res)
            if cand.eval(check) != sample(check):
                raise InconsistentSamplesError(
                    f"symmetry completion failed at coset {new_res}"
                )
    return QuasiPoly(N, n, full)


class StationaryFamily:
    """Evaluator for the c-normalised stationary quasi-polynomial family in
    a fixed number of slots, including at the negative arguments k - N.
    Its sampling floor, degree bound and coset bases are those of the
    FitSpec of the same slots.

    Arguments below the sampling floor (negative entries in particular) are
    evaluated by exact extrapolation along their cosets, all such slots at
    once: the bracket is sampled on the simplex of nodes base + (N+1) j,
    |j| <= degree + 1, in those slots, and read off the Newton form of
    `_differences`, whose check that every difference at |j| = degree + 1
    vanishes is the embedded quasi-polynomiality check (the total-degree
    check of `quasi_fit`).  The genus-0 one- and two-slot families use
    their closed forms instead: they are rational in the arguments, not
    polynomial, and raise ValueError at their poles.  Every argument must
    be integral.
    """

    def __init__(self, N, g, nvars, engine: Engine = DEFAULT_ENGINE):
        if nvars < 1:
            raise ValueError("a stationary family needs at least one slot")
        self.spec = FitSpec(N, g, nvars)
        self.engine = engine
        self._memo: dict = {}

    def value(self, v) -> SymRat:
        v = tuple(map(exact_int, v))
        N, g, n = self.spec.N, self.spec.g, self.spec.n
        if len(v) != n:
            raise ValueError("arity mismatch")
        if g == 0 and n <= 2:
            if n == 1:
                num, den = (N + 1) ** 2, (v[0] + 2) ** 2
            else:
                num, den = N + 1, v[0] + v[1] + N + 1
            if not den:
                raise ValueError(f"the genus-0 closed form has a pole at {v}")
            return SymRat(Fraction(num, den))
        if v in self._memo:
            return self._memo[v]
        out = self._value(v)
        self._memo[v] = out
        return out

    def _value(self, v) -> SymRat:
        spec = self.spec
        mod = spec.N + 1
        degree = spec.degree_bound
        low = [i for i, x in enumerate(v) if x < spec.floor()]
        if not low:
            return _normalized(self.engine, spec.N, spec.g, v)
        bases = [spec.base(v[i]) for i in low]
        table = {}
        for total in range(degree + 2):
            for j in compositions(total, len(low)):
                w = list(v)
                for i, b, ji in zip(low, bases, j):
                    w[i] = b + mod * ji
                table[j] = _normalized(self.engine, spec.N, spec.g, w)
        try:
            newton = _differences(table, degree)
        except InconsistentSamplesError as exc:
            raise InconsistentSamplesError(
                f"the family through {v} is not polynomial of degree {degree} "
                f"in the slots {low}: {exc}",
                atoms_only=exc.atoms_only,
            ) from None
        t = [(v[i] - b) // mod for i, b in zip(low, bases)]
        return SymRat.of(dot(
            (d, prod(binomial(ti, ji) for ti, ji in zip(t, j)))
            for j, d in newton.items()
        ))


# One family per (N, g, nvars), for the engine that asked last: a family
# holds its engine, so keeping one per engine would keep every engine alive.
_FAMILIES: dict = {}


def stationary_family(N, g, nvars, engine: Engine = DEFAULT_ENGINE):
    fam = _FAMILIES.get((N, g, nvars))
    if fam is None or fam.engine is not engine:
        fam = _FAMILIES[N, g, nvars] = StationaryFamily(N, g, nvars, engine)
    return fam


# ----------------------------------------------------------------------
# verification battery


def _top_form(N, g, n) -> MultiPoly:
    """The top-degree part shared by every coset of the family: the psi
    numbers <tau_e>_g scaled by (N+1)^(3-2g-n), at the monomials m^e."""
    scale = Fraction(N + 1) ** (3 - 2 * g - n)
    return MultiPoly(
        n, {e: scale * psi_intersection(g, e) for e in compositions(3 * g - 3 + n, n)}
    )


def verify_top_coefficients(q: QuasiPoly, g, n, N) -> VerificationReport:
    """Top coefficients of every nontrivial branch must be the psi numbers
    scaled by (N+1)^(3-2g-n) and atom-free."""
    claim = f"top-coefficients N={N} g={g} n={n}"
    top = _top_form(N, g, n)
    for res, poly in sorted(q.branches.items()):
        for e in compositions(3 * g - 3 + n, n):
            coeff = poly.coeff(e)
            expected = top.coeff(e).scalar
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
    return VerificationReport(claim, "pass")


def verify_negative_evaluation(
    N, g, k_exponents, m_vector, engine: Engine = DEFAULT_ENGINE
) -> VerificationReport:
    """Primary insertions are stationary slots evaluated at k - N: compare
    the engine bracket against the quasi-polynomial family.  Off the coset
    that `stationary_parity` selects both sides vanish by dimension, and the
    family is not evaluated there."""
    ks = tuple(map(exact_int, k_exponents))
    ms = tuple(map(exact_int, m_vector))
    claim = f"negative-evaluation N={N} g={g} k={ks} m={ms}"
    if any(not 0 <= k <= N for k in ks):
        raise ValueError("primary exponent out of range")
    v = tuple(k - N for k in ks) + ms
    if not v:
        raise ValueError("negative evaluation needs at least one insertion")
    lhs = _normalized(engine, N, g, ms, [(0, k) for k in ks])
    rhs = ZERO
    if sum(v) % (N + 1) == stationary_parity(N, g, len(v)):
        rhs = stationary_family(N, g, len(v), engine).value(v)
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
    lo = FitSpec(N, g, n).floor()
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


def verify_dilaton_derivative(g, n, engine: Engine = DEFAULT_ENGINE) -> VerificationReport:
    """On the projective line, a level-one unit insertion equals twice the
    slot derivative of the stationary family at zero, on the levels up to
    8.  Proven for genus 0 and 1; higher genus is only reported.  ValueError
    when the grid holds no point to check."""
    N = 1
    claim = f"dilaton-derivative g={g} n={n}"
    if g > 1:
        return VerificationReport(claim, "exploratory",
                                  {"reason": "unproven beyond genus 1"})
    lo = FitSpec(N, g, n).floor()
    spec = FitSpec(N=N, g=g, n=n + 1, min_m=0)
    q = fit_stationary(spec, engine)
    checked = 0
    for ms in combinations_with_replacement(range(lo, 9), n):
        if sum(ms) % 2 != stationary_parity(N, g, n + 1):
            continue
        # An absent branch is identically zero.
        branch = q.branches.get(tuple(m % 2 for m in ms) + (0,), MultiPoly(n + 1))
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
    ValueError when (g, n) is unstable, so that there is no top form, or
    when no point of the ray up to m_max is admissible."""
    ray = tuple(map(exact_int, ray))
    if len(ray) != n:
        raise ValueError(f"ray has {len(ray)} entries for n = {n} points")
    if any(r <= 0 for r in ray):
        raise ValueError("ray must have positive entries")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"(g, n) = ({g}, {n}) is unstable: no top form")
    if N < 1:
        raise ValueError(f"target dimension N = {N} must be >= 1")
    claim = f"asymptotics N={N} g={g} n={n} ray={ray}"
    mod = N + 1
    lo = max(1, 3 * g - 1)
    t = m_max // max(ray)
    while t > 0:
        ms = tuple(t * r for r in ray)
        if min(ms) >= lo and sum(ms) % mod == stationary_parity(N, g, n):
            break
        t -= 1
    if t <= 0:
        raise ValueError(f"{claim}: no admissible point up to m = {m_max}")
    ms = tuple(t * r for r in ray)
    val = _normalized(engine, N, g, ms)
    try:
        num = val.resolve(atom_values or {})
    except KeyError as exc:
        return VerificationReport(claim, "inconclusive-atoms", {"atom": exc.args[0]})
    dev = abs(num / _top_form(N, g, n).eval(ms).scalar - 1)
    status = "pass" if dev <= bound else "fail"
    return VerificationReport(
        claim, status, {"m": ms, "deviation": dev, "bound": bound}
    )
