"""Topological recursion on the spectral curve x = z + 1/z, y = ln z.

y enters only through closed forms in the local chart at each branch point
z = +-1, on the branch (1/2) ln z^2 that vanishes at both, so that
y(1/z) = -y(z).  Multidifferentials are stored exactly as tensors over the
pole basis dz/(z - a)^k, a in {+1, -1}, k >= 2.  The recursion takes the
residue at alpha in the one variable t = z - alpha: by the linear loop
equation omega(1/z, ...) = -omega(z, ...) of a stable differential, every
stable factor of the bracket is read at z, where its poles are the monomials
t^-p (z + alpha)^-q.  A bracket is then a table of integer coefficients on
those monomials over one denominator, contracted against the chart's exact
residues of the kernel, also integers over one denominator, so every
coefficient that comes out is one exact rational number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, lcm

from .algebra import (
    LaurentSeries, SymRat, binomial, compositions, exact_int, format_rat
)
from .engine import DEFAULT_ENGINE, Engine
from .moduli import psi_intersection
from .quasifit import VerificationReport, _Record


class NonzeroResiduePartError(AssertionError):
    """The decomposition produced a first-order pole: the invariants must be
    residue-free, so this signals a bug."""


class AsymmetricOrbitError(AssertionError):
    """Two routes of the recursion reached one S_n orbit of omega^g_n with
    different coefficients: the invariants are symmetric, so this signals
    a bug or a corrupted lower table."""


class PoleBasisDifferential(_Record):
    """omega^g_n = sum over assignments ((a_i, k_i))_i of
    coeff * prod_i dz_i / (z_i - a_i)^{k_i}."""

    _fields = ("g", "n", "coeffs")

    def __init__(self, g: int, n: int, coeffs: dict | None = None):
        self.g, self.n = g, n
        self.coeffs = {} if coeffs is None else coeffs

    def max_order(self) -> int:
        return max((max(k for _, k in a) for a in self.coeffs), default=0)

    def coefficient(self, assignment) -> Fraction:
        assignment = tuple(assignment)
        if len(assignment) != self.n:
            raise ValueError(f"an assignment of omega^{self.g}_{self.n} has {self.n} slots")
        return self.coeffs.get(assignment, Fraction(0))

    def is_symmetric(self) -> bool:
        """Invariance under the adjacent transpositions, which generate S_n."""
        for a, c in self.coeffs.items():
            for i in range(self.n - 1):
                if self.coeffs.get(a[:i] + (a[i + 1], a[i]) + a[i + 2:], 0) != c:
                    return False
        return True

    def to_obj(self):
        return {
            "g": self.g,
            "n": self.n,
            "terms": [
                {"assignment": [list(x) for x in a], "coeff": format_rat(c)}
                for a, c in sorted(self.coeffs.items())
            ],
        }


class InfinitySeries:
    """Truncated expansion at x_i = infinity: coefficients of
    prod x_i^{-e_i} dx_i for total degree sum(e_i) <= depth."""

    def __init__(self, n, depth, coeffs=None):
        self.n = n
        self.depth = depth
        self.coeffs = dict(coeffs or {})

    def coefficient(self, exps) -> Fraction:
        exps = tuple(exps)
        if len(exps) != self.n:
            raise ValueError(f"an exponent tuple of this series has {self.n} entries")
        if sum(exps) > self.depth:
            raise ValueError("beyond truncation depth")
        return self.coeffs.get(exps, Fraction(0))


def _pole_bound(g, n) -> int:
    """The highest pole order in omega^g_n, and the truncation order of the
    charts its recursion reads: a bracket monomial has p <= bound - 2, and
    its residue reads the chart through t^(p + 1)."""
    return 6 * g - 4 + 2 * n


class _Chart:
    """Exact local data of the curve at the branch point alpha, in the
    variable t = z - alpha, to truncation T.

    The recursion reads every stable factor at z, where the pole basis is
    t^-p (z + alpha)^-q, so all it asks of the chart is `_nums`: the
    residues of the kernel against those monomials, with or without the
    factor dzhat s^r that omega^0_2 brings when it is read at zhat, as
    integers over one denominator per monomial.

    As alpha^2 = 1, y(z) - y(1/z) = 2 ln(1 + alpha t), x' = t (z + alpha)/z^2,
    s = 1/z - alpha = -alpha t/z and dzhat/dt = -1/z^2, so the coefficient of
    dz0/(z0 - alpha)^j in the kernel is -(alpha/4) t^(j-3) (z^2 - (-alpha)^(j-1)
    z^(3-j)) M_1, where M_b = L (z + alpha)^-b and L = alpha t/ln(1 + alpha t)
    is the kernel's one factor that is not binomial."""

    def __init__(self, alpha, T):
        if alpha not in (1, -1):
            raise ValueError(f"no branch point at z = {alpha}: they are z = 1 and z = -1")
        self.alpha = alpha = int(alpha)
        self.T = T
        log = [Fraction((-alpha) ** e, e + 1) for e in range(T)]  # ln(1 + alpha t)/(alpha t)
        self._inv = LaurentSeries("t", str(alpha), 0, [2 * alpha, 1], T).invert()
        self._rows = [LaurentSeries("t", str(alpha), 0, log, T).invert()]  # the M_b
        self._zpows = {}
        self._res = {}

    def _zpow(self, a) -> list:
        """[t^i] z^a = C(a, i) alpha^(a - i) for i < T."""
        if a not in self._zpows:
            self._zpows[a] = [binomial(a, i) * self.alpha ** ((a - i) % 2) for i in range(self.T)]
        return self._zpows[a]

    def residues(self, p, q, r) -> list:
        """`_nums(p, q, r)` as Fractions."""
        nums, den = self._nums(p, q, r)
        return [Fraction(v, den) for v in nums]

    def _nums(self, p, q, r) -> tuple:
        """[Res_t kernel(j) t^-p (z + alpha)^-q X for j = 2, 3, ...], where
        X = 1 if r is None and X = (dzhat/dt) s^r otherwise, as integer
        numerators over one denominator, 4 row.den.  Entry j is
        c [t^k] (z^e - (-alpha)^(j-1) z^(e+1-j)) M_(q+1), k = p + 2 - j - r,
        with e = 2 and c = -alpha/4 if r is None, e = -r and
        c = alpha (-alpha)^r/4 otherwise; the list stops at j = p + 2 - r."""
        key = (p, q, r)
        if key not in self._res:
            a = self.alpha
            e, c, r = (2, -a, 0) if r is None else (-r, a * (-a) ** r, r)
            while len(self._rows) <= q + 1:
                self._rows.append(self._rows[-1] * self._inv)
            row = self._rows[q + 1]
            row.coefficient(p - r)  # the deepest read: TruncationError beyond the row
            nums, head = row.nums, self._zpow(e)  # M_b is a unit: nums[k] = [t^k] M_b
            out = []
            for j in range(2, p + 3 - r):
                k, sign, tail = p + 2 - j - r, (-a) ** (j - 1), self._zpow(e + 1 - j)
                out.append(c * sum((head[i] - sign * tail[i]) * nums[k - i] for i in range(k + 1)))
            self._res[key] = (out, 4 * row.den)
        return self._res[key]


class SpectralCurve:
    """The curve x = z + 1/z, y = ln z, with memos of its invariants and of
    one local chart per branch point.

    omega^g_n is symmetric in its n points, so the recursion keeps one
    coefficient per S_n orbit of assignments, keyed by the sorted
    assignment, and reads and writes nothing else.  `omega` expands the
    orbits of the requested (g, n) alone into every ordering, once."""

    def __init__(self):
        self._omegas: dict = {}  # (g, n) -> PoleBasisDifferential, as requested
        self._orbits: dict = {}  # (g, n) -> {sorted assignment: coefficient}
        self._factors: dict = {}  # _factor's stable results, read only
        self._charts: dict = {}

    @classmethod
    def for_target(cls, g, n) -> "SpectralCurve":
        """A fresh curve; (g, n) is unused.  `perfbench/workloads.py` calls it."""
        return cls()

    def chart(self, alpha, T) -> _Chart:
        """The chart at alpha, rebuilt to truncation T when it is shorter:
        residues are exact, so a longer chart gives the same entries."""
        ch = self._charts.get(alpha)
        if ch is None or ch.T < T:
            ch = self._charts[alpha] = _Chart(alpha, T)
        return ch

    def omega(self, g, n) -> PoleBasisDifferential:
        g, n = exact_int(g), exact_int(n)
        if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
            raise ValueError(f"(g, n) = ({g}, {n}) is not in the stable range")
        key = (g, n)
        if key not in self._omegas:
            orbits = self._orbit(g, n)
            coeffs = {a: c for rep, c in orbits.items() for a in permutations(rep)}
            self._omegas[key] = PoleBasisDifferential(g, n, coeffs)
        return self._omegas[key]

    # ------------------------------------------------------------------

    def _orbit(self, g, n) -> dict:
        """The orbit table of omega^g_n, {sorted assignment: coefficient}."""
        key = (g, n)
        if key not in self._orbits:
            self._orbits[key] = self._recurse(g, n)
        return self._orbits[key]

    def _recurse(self, g, n) -> dict:
        bound = _pole_bound(g, n)
        out = self._chart_terms(g, n, 1)
        # The chart at -1 mirrors the one at +1 under z -> -z: negating every
        # a_i multiplies a coefficient by (-1)^(k_1 + ... + k_n).  An orbit
        # with slots at both branch points is reached from both charts.
        for rep, c in _reflect(out).items():
            _put(out, rep, c)
        for rep in out:
            for _, k in rep:
                if k < 2:
                    raise NonzeroResiduePartError(f"first-order pole in {rep}")
                if k > bound:
                    raise AssertionError(
                        f"pole order {k} beyond the bound {bound} at (g, n) = ({g}, {n})"
                    )
        return out

    def _chart_terms(self, g, n, alpha) -> dict:
        """The nonzero coefficients of omega^g_n whose first pole sits at
        alpha, from the residue at that branch point, keyed by orbit.

        A stable factor read at zhat = 1/z is minus the same factor read at
        z (the linear loop equation), so every bracket term is a coefficient
        on a monomial (p, q, r) of the chart: t^-p (z + alpha)^-q, times
        dzhat s^r when omega^0_2 is read at zhat.  The bracket is kept for
        each sorted spectator key S and contracted once against the
        residues.  An orbit is reached once for each distinct slot value
        at alpha, and every route must give the same coefficient."""
        m = n - 1
        bound = _pole_bound(g, n)
        ch = self.chart(alpha, bound)
        # Every bracket term is a product of two factors; the genus-reducing
        # term has both points in one factor and the unit as the other.
        products = []
        if g >= 1:
            products.append((self._factor(g - 1, 2, m, alpha, bound, zhat=True),
                             ({(): [((0, 0, None), 1)]}, 1)))
        for g1 in range(g + 1):
            for i in range(m + 1):  # spectators in the left factor
                if (g1 == 0 and i == 0) or (g1 == g and i == m):
                    continue
                products.append((self._factor(g1, 1, i, alpha, bound),
                                 self._factor(g - g1, 1, m - i, alpha, bound, zhat=True)))
        # S -> [prod of mult_S(v)!, {(p, q, r): the coefficient's numerator
        # over D}].  Left keys A and right keys B with the merge S come from
        # prod_v C(mult_S(v), mult_A(v)) labelled splits.
        D = lcm(*(ld * rd for (_, ld), (_, rd) in products))
        bracket: dict = {}
        for (left, ld), (right, rd) in products:
            scale = D // (ld * rd)
            rights = [(rkey, rterms, _multiplicity(rkey)) for rkey, rterms in right.items()]
            for lkey, lterms in left.items():
                lmult = _multiplicity(lkey)
                for rkey, rterms, rmult in rights:
                    skey = tuple(sorted(lkey + rkey))
                    entry = bracket.get(skey)
                    if entry is None:
                        entry = bracket[skey] = [_multiplicity(skey), {}]
                    w, sterms = entry[0] // (lmult * rmult) * scale, entry[1]
                    for (p1, q1, r1), c1 in lterms:
                        c1 *= w
                        for (p2, q2, r2), c2 in rterms:
                            mono = (p1 + p2, q1 + q2, r1 if r2 is None else r2)
                            sterms[mono] = sterms.get(mono, 0) + c1 * c2
        # The residue rows of the monomials that occur, over one denominator L.
        monos = {mono for _, terms in bracket.values() for mono, c in terms.items() if c}
        rows = {mono: ch._nums(*mono) for mono in monos}
        L = lcm(*(den for _, den in rows.values()))
        res = {mono: [v * (L // den) for v in nums] for mono, (nums, den) in rows.items()}
        width = max(map(len, res.values()), default=0)
        out: dict = {}
        for skey, (_, terms) in bracket.items():
            acc = [0] * width
            for mono, c in terms.items():
                if c:
                    for j, v in enumerate(res[mono]):
                        acc[j] += c * v
            for j, v in enumerate(acc):
                if v:
                    _put(out, tuple(sorted(skey + ((alpha, j + 2),))), Fraction(v, D * L))
        return out

    def _factor(self, gp, nz, m, alpha, bound, zhat=False) -> tuple:
        """omega^gp with nz of its slots at the recursion point, the last
        of them at zhat if zhat is set, and m on the spectators, as
        ({sorted spectator key: [((p, q, r), c)]}, d): integer c over the
        lcm d of the orbit table's denominators.  A stable factor read at
        zhat is minus the one read at z; omega^0_2 is expanded in its
        spectator through pole order bound + 4.

        Each orbit gives one term for each distinct value at the point, or
        for nz = 2 each distinct unordered pair of values, with weight 2
        when the two differ: the two orderings of the pair.  A stable
        factor does not depend on bound, and is built once per curve."""
        if gp == 0 and nz + m == 2:
            if nz == 2:
                # dz dzhat / (z - 1/z)^2 = -t^-2 (z + alpha)^-2 dz dz, as
                # z - 1/z = t (z + alpha) / z and dzhat = -dz / z^2
                return {(): [((2, 2, None), -1)]}, 1
            return {
                ((alpha, r + 2),): [((0, 0, r) if zhat else (-r, 0, None), r + 1)]
                for r in range(bound + 3)
            }, 1
        key = (gp, nz, m, alpha, zhat)
        if key in self._factors:
            return self._factors[key]
        table = self._orbit(gp, nz + m)
        den = lcm(*(c.denominator for c in table.values()))
        sign = -1 if zhat else 1
        out: dict = {}
        for rep, c in table.items():
            c = sign * c.numerator * (den // c.denominator)
            for i, x in enumerate(rep):
                if i and rep[i - 1] == x:
                    continue
                rest = rep[:i] + rep[i + 1:]
                if nz == 1:
                    out.setdefault(rest, []).append((_monomial(alpha, (x,)), c))
                    continue
                # the second point: each distinct value y >= x of the rest
                for l in range(i, len(rest)):
                    y = rest[l]
                    if l > i and rest[l - 1] == y:
                        continue
                    out.setdefault(rest[:l] + rest[l + 1:], []).append(
                        (_monomial(alpha, (x, y)), c if y == x else 2 * c)
                    )
        self._factors[key] = out, den
        return out, den


def _monomial(alpha, slots) -> tuple:
    """The chart monomial (p, q, None) of the pole-basis slots read at z:
    t^-p from the slots at alpha, (z + alpha)^-q from those at -alpha."""
    p = sum(k for a, k in slots if a == alpha)
    return (p, sum(k for _, k in slots) - p, None)


def _multiplicity(key) -> int:
    """prod over the distinct values v of a sorted key of mult(v)!."""
    out = run = 1
    for i in range(1, len(key)):
        run = run + 1 if key[i] == key[i - 1] else 1
        out *= run
    return out


def _put(orbits, rep, c):
    """Store c as the coefficient of the orbit rep, which another route
    may have reached already."""
    old = orbits.setdefault(rep, c)
    if old != c:
        raise AsymmetricOrbitError(f"orbit {rep} reached with {old} and with {c}")


def _reflect(terms) -> dict:
    """The mirror image of orbit terms under z -> -z, re-sorted."""
    return {
        tuple(sorted((-a, k) for a, k in rep)): -c if sum(k for _, k in rep) % 2 else c
        for rep, c in terms.items()
    }


def eo_invariant(g, n, curve: SpectralCurve | None = None) -> PoleBasisDifferential:
    return (curve or SpectralCurve()).omega(g, n)


# ----------------------------------------------------------------------
# expansion at infinity and the generating-function comparison


def _row(alpha, k, depth) -> list:
    """[u^e] z'(x)/(z - alpha)^k for e = 0..depth, with u = 1/x.

    On the branch z ~ x, w = 1/z solves w = u (1 + w^2), and
    z'(x)/(z - alpha)^k = w^k (1 - alpha w)^-k / (1 - w^2).  Lagrange
    inversion reads its u^e coefficient as [w^(e-k)] (1 + w^2)^(e-1)
    (1 - alpha w)^-k, a finite sum of integer binomials."""
    return [
        sum(
            comb(e - 1, i) * alpha ** (e - k - 2 * i) * comb(e - 2 * i - 1, k - 1)
            for i in range((e - k) // 2 + 1)
        )
        for e in range(depth + 1)
    ]


def expand_at_infinity(pd: PoleBasisDifferential, depth: int) -> InfinitySeries:
    """Substitute the x = infinity branch of z(x) into every basis element
    and collect the exact expansion in the 1/x_i."""
    depth = exact_int(depth)
    if depth < 2 * pd.n:
        raise ValueError("depth too small to hold any coefficient")
    per_var = depth - 2 * (pd.n - 1)
    rows = {ak: _row(*ak, per_var) for ak in {ak for assign in pd.coeffs for ak in assign}}
    return InfinitySeries(pd.n, depth, _contract(pd.coeffs, rows, depth))


def _contract(coeffs, rows, depth) -> dict:
    """The nonzero sum over keys of coeffs[key] times the tensor product of
    the int rows[slot] (coefficients of u^e, zero below e = 2) over the
    key's slots, on exponent tuples of total at most depth.  The sums run on
    numerators over one denominator, one slot at a time, first to last;
    terms that agree on the slots still unread merge before the next."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    layer = {  # unread slots -> {exps: numerator}
        key: {(): c.numerator * (den // c.denominator)} for key, c in coeffs.items() if c
    }
    for _ in range(len(next(iter(layer), ()))):
        nxt: dict = {}
        for slots, partial in layer.items():
            row, rest = rows[slots[0]], slots[1:]
            room = depth - 2 * len(rest)  # every later row starts at u^2
            acc = nxt.setdefault(rest, {})
            for exps, c in partial.items():
                for e, v in enumerate(row[: room - sum(exps) + 1]):
                    if v:
                        key = exps + (e,)
                        acc[key] = acc.get(key, 0) + c * v
        layer = nxt
    return {exps: Fraction(c, den) for exps, c in layer.get((), {}).items() if c}


def gw_generating(g, n, depth, engine: Engine = DEFAULT_ENGINE) -> dict:
    """Slot values <prod tau_{m_i}(pt)>^g of the projective line times
    prod (m_i + 1)!, for all slots with sum(m_i + 2) <= depth."""
    g, n, depth = map(exact_int, (g, n, depth))
    out = {}
    for total in range(depth - 2 * n + 1):
        for ms in compositions(total, n):
            val = engine.invariant(1, g, [(m, 1) for m in ms])
            if val:
                for m in ms:
                    val = val * factorial(m + 1)
                out[ms] = val
    return out


def compare_eo_gw(
    g,
    n,
    depth,
    engine: Engine = DEFAULT_ENGINE,
    curve: SpectralCurve | None = None,
    atom_values=None,
) -> VerificationReport:
    """Slot-by-slot comparison of the expanded invariants against the
    stationary generating function of the projective line.  Genus <= 1 is a
    hard assertion; genus 2 and above is exploratory."""
    g, n, depth = map(exact_int, (g, n, depth))
    if depth < 2 * n:
        raise ValueError("depth too small to hold any coefficient")
    claim = f"eo-gw ({g},{n}) depth {depth}"
    atom_values = atom_values or {}
    if (g, n) == (0, 1):
        eo = _corrected_01(depth)
    elif (g, n) == (0, 2):
        eo = _corrected_02(depth)
    else:
        pd = eo_invariant(g, n, curve)
        eo = expand_at_infinity(pd, depth).coeffs
    gw = gw_generating(g, n, depth, engine)
    excluded = []
    slots = set(gw) | {tuple(e - 2 for e in exps) for exps in eo}
    # Every slot has levels m >= 0 with sum(m + 2) <= depth: the basis
    # series start at u^2 and the expansions stop at depth.
    for ms in sorted(slots):
        val = gw.get(ms, SymRat(0))
        try:
            want = val.resolve(atom_values)
        except KeyError:
            if g >= 2:
                excluded.append(ms)
                continue
            return VerificationReport(
                claim, "inconclusive-atoms", {"slot": ms, "atoms": sorted(val.atoms)}
            )
        got = eo.get(tuple(m + 2 for m in ms), Fraction(0))
        if got != want:
            return VerificationReport(
                claim, "fail", {"slot": ms, "eo": got, "gw": want}
            )
    status = "exploratory" if g >= 2 else "pass"
    witness = {"slots": len(slots)}
    if excluded:
        witness["excluded_atom_slots"] = len(excluded)
    return VerificationReport(claim, status, witness)


def _corrected_01(depth) -> dict:
    """omega^0_1 + ln(x) dx expanded at infinity: ln(x/z) = ln(1 + w^2),
    whose u^e coefficient is (2/e) C(e-1, e/2 - 1) for even e and 0 for odd
    e, by Lagrange inversion; one entry for every e in 2..depth."""
    return {
        (e,): Fraction(2 * comb(e - 1, e // 2 - 1), e) if e % 2 == 0 else Fraction(0)
        for e in range(2, depth + 1)
    }


def _corrected_02(depth) -> dict:
    """omega^0_2 minus the Cauchy kernel in x.  On this curve the
    difference collapses to dz1 dz2 / (z1 z2 - 1)^2, which expands through
    powers of w1 w2: (r + 1) (w1 w2)^(r+2) z'(x1) z'(x2) for r >= 0, where
    [u^e] w^(r+2) z'(x) = C(e-1, (e-2-r)/2) for e >= r + 2, e = r mod 2;
    the term r starts at total degree 2r + 4 <= depth."""
    rows = {
        r: [comb(e - 1, (e - 2 - r) // 2) if e >= r + 2 and (e - r) % 2 == 0 else 0
            for e in range(depth + 1)]
        for r in range(depth // 2 - 1)
    }
    return _contract({(r, r): r + 1 for r in rows}, rows, depth)


# ----------------------------------------------------------------------
# string, dilaton and pole checks


def _tensor_add(store, key, c):
    if c:
        store[key] = store.get(key, Fraction(0)) + c
        if store[key] == 0:
            del store[key]


def _string_terms(a, k, m) -> dict:
    """d/dz [x^m / x' (z - a)^-k], k >= 2, as coefficients of poles
    ("p", b, j) = (z - b)^-j.  x^m / x' = x^m z^2 / ((z - a)(z + a)) has
    no polynomial part: at -a a simple pole of residue (-2a)^(m-1-k), since
    x(-a) = -2a; at a, with t = z - a, the coefficient of t^-j is
    [t^(k+1-j)] of x^m z^2 / (z + a) = P_m(t) + (-2a)^m / (2a + t), with
    P_0 = t and P_1 = 2 + a t + t^2."""
    s = Fraction(-2 * a)
    poly = ((0, 1), (2, a, 1))[m]
    out = {("p", -a, 2): -(s ** (m - 1 - k))}
    for j in range(1, k + 2):
        e = k + 1 - j
        c = (poly[e] if e < len(poly) else 0) - s ** (m - 1 - e)
        out["p", a, j + 1] = -j * c
    return out


def _string_weights(alpha, K) -> tuple:
    """[t^e] for e < K of y, y x and phi, the antiderivative of y x' that
    vanishes at t = 0, in the chart t = z - alpha: with alpha^2 = 1,
    y = ln(1 + alpha t), x = 2 alpha + sum_{e >= 2} (-1)^e alpha^(e+1) t^e
    and x' = -sum_{k >= 1} (k + 1) (-alpha)^k t^k."""
    y = [Fraction(0)] + [Fraction((-1) ** (e + 1) * alpha**e, e) for e in range(1, K)]
    x = [2 * alpha, 0] + [(-1) ** e * alpha ** (e + 1) for e in range(2, K)]
    xp = [0] + [-(k + 1) * (-alpha) ** k for k in range(1, K)]
    yx = [sum(y[i] * x[e - i] for i in range(e + 1)) for e in range(K)]
    phi = [Fraction(0)] + [sum(y[i] * xp[e - 1 - i] for i in range(e)) / e for e in range(1, K)]
    return y, yx, phi


def _last_slot(pd, weights, i, key) -> dict:
    """The sum over pd's terms of c [t^(k-1)] weights[a][i], (a, k) the
    last slot, as a tensor keyed by key(the other slots)."""
    out: dict = {}
    for assign, c in pd.coeffs.items():
        a, k = assign[-1]
        _tensor_add(out, key(assign[:-1]), c * weights[a][i][k - 1])
    return out


def _mismatch(claim, part, lhs, rhs) -> VerificationReport | None:
    """The failing report of one identity when its two sides differ."""
    if lhs == rhs:
        return None
    diff = {k: lhs.get(k, 0) - rhs.get(k, 0) for k in sorted(set(lhs) | set(rhs))}
    bad = {k: v for k, v in diff.items() if v}
    return VerificationReport(claim, "fail", {"part": part, "diff": bad})


def eo_string_dilaton_check(
    g, n, m=0, curve: SpectralCurve | None = None
) -> VerificationReport:
    """Exact identity checks: the string equation with weight x^m (m = 0, 1)
    and the dilaton equation, both as equalities of rational tensors."""
    g, n, m = map(exact_int, (g, n, m))
    claim = f"eo-string-dilaton ({g},{n}) m={m}"
    if m not in (0, 1):  # before any recursion
        raise ValueError("string equation power must be 0 or 1")
    curve = curve or SpectralCurve()
    lo = curve.omega(g, n)  # rejects an unstable (g, n) before (g, n + 1)
    hi = curve.omega(g, n + 1)
    # The last slot of hi reads each weight through its highest pole order.
    weights = {alpha: _string_weights(alpha, hi.max_order()) for alpha in (1, -1)}

    # String equation.  LHS: residues of y x^m against the last slot.
    lhs = _last_slot(hi, weights, m, lambda rest: tuple(("p", a, k) for a, k in rest))
    # RHS: minus the derivative terms of the lower invariant.
    rhs: dict = {}
    terms: dict = {}  # _string_terms per slot (a, k)
    for assign, c in lo.coeffs.items():
        for i in range(n):
            a, k = assign[i]
            if (a, k) not in terms:
                terms[a, k] = _string_terms(a, k, m)
            for ukey, uc in terms[a, k].items():
                key = tuple(
                    ("p", aa, kk) if l != i else ukey
                    for l, (aa, kk) in enumerate(assign)
                )
                _tensor_add(rhs, key, -c * uc)
    if failed := _mismatch(claim, "string", lhs, rhs):
        return failed

    # Dilaton equation against a local antiderivative of y dx.
    dl = _last_slot(hi, weights, 2, tuple)
    dr: dict = {}
    scale = Fraction(2 * g - 2 + n)
    for assign, c in lo.coeffs.items():
        _tensor_add(dr, tuple(assign), c * scale)
    return _mismatch(claim, "dilaton", dl, dr) or VerificationReport(claim, "pass")


@lru_cache(maxsize=64)
def _airy_leading(g, n) -> tuple:
    """The Airy limit of the leading coefficients, as (alpha, beta, key,
    value) in the order the pole check reads them: at alpha = 1, then at
    -1, the coefficient of key = ((alpha, 2b+2) for b in beta) is
    2^(5-5g-2n) <tau_beta>_g prod (2b+1)!/b!."""
    shift = 5 - 5 * g - 2 * n
    leading = []
    for beta in compositions(3 * g - 3 + n, n):
        weight = 1
        for b in beta:
            weight *= factorial(2 * b + 1) // factorial(b)
        scaled = weight << shift if shift >= 0 else Fraction(weight, 1 << -shift)
        leading.append((beta, scaled * psi_intersection(g, beta)))
    return tuple(
        (alpha, beta, tuple((alpha, 2 * b + 2) for b in beta), value)
        for alpha in (1, -1)
        for beta, value in leading
    )


def pole_asymptotics_check(
    g, n, curve: SpectralCurve | None = None
) -> VerificationReport:
    """Pole orders and the same-sign leading coefficients of the invariant,
    read against the psi intersection numbers.  The differential is read
    afresh on every call, in one pass over its terms; the expected leading
    coefficients and their keys depend on (g, n) alone and are built once
    per pair."""
    pd = eo_invariant(g, n, curve)
    g, n = pd.g, pd.n  # as ints, coerced by omega
    claim = f"pole-asymptotics ({g},{n})"
    bound = _pole_bound(g, n)
    top = 0
    mixed = 0
    for assign in pd.coeffs:
        sign = assign[0][0]
        same = True
        for a, k in assign:
            if k > top:
                top = k
            if a != sign:
                same = False
        if not same:
            mixed += 1
    if top != bound:
        return VerificationReport(claim, "fail", {"max_order": top, "expected": bound})
    coeffs = pd.coeffs
    for alpha, beta, key, expected in _airy_leading(g, n):
        if coeffs.get(key) != expected:
            return VerificationReport(
                claim, "fail",
                {"alpha": alpha, "beta": beta, "got": pd.coefficient(key), "expected": expected},
            )
    return VerificationReport(claim, "pass", {"mixed_sign_terms": mixed})
