"""Topological recursion on the spectral curve x = z + 1/z, y = ln z.

y enters only through its exact series in the local chart at each branch
point z = +-1, on the branch (1/2) ln z^2 that vanishes at both, so that
y(1/z) = -y(z).  Multidifferentials are stored exactly as tensors over the
pole basis dz/(z - a)^k, a in {+1, -1}, k >= 2.  The recursion takes the
residue at alpha in the one variable t = z - alpha: by the linear loop
equation omega(1/z, ...) = -omega(z, ...) of a stable differential, every
stable factor of the bracket is read at z, where its poles are the monomials
t^-p (z + alpha)^-q.  A bracket is then a table of rational coefficients on
those monomials, contracted against the chart's exact residues of the
kernel, so every coefficient that comes out is an exact rational number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .algebra import LaurentSeries, SymRat, bipartitions, compositions, dot, exact_int, format_rat
from .engine import DEFAULT_ENGINE, Engine
from .moduli import psi_intersection
from .quasifit import VerificationReport


class NonzeroResiduePartError(AssertionError):
    """The decomposition produced a first-order pole: the invariants must be
    residue-free, so this signals a bug."""


@dataclass
class PoleBasisDifferential:
    """omega^g_n = sum over assignments ((a_i, k_i))_i of
    coeff * prod_i dz_i / (z_i - a_i)^{k_i}."""

    g: int
    n: int
    coeffs: dict = field(default_factory=dict)

    def max_order(self) -> int:
        return max((max(k for _, k in a) for a in self.coeffs), default=0)

    def coefficient(self, assignment) -> Fraction:
        return self.coeffs.get(tuple(assignment), Fraction(0))

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
        if sum(exps) > self.depth:
            raise ValueError("beyond truncation depth")
        return self.coeffs.get(exps, Fraction(0))


def _pole_bound(g, n) -> int:
    """The highest pole order in omega^g_n, and the truncation order of the
    charts its recursion reads: a bracket monomial has p <= bound - 2, and
    its residue reads the chart through t^(p + 1)."""
    return 6 * g - 4 + 2 * n


def _power(pows, e):
    """pows[e] of the successive powers pows = [1, b, ...], extended as needed."""
    while len(pows) <= e:
        pows.append(pows[-1] * pows[1])
    return pows[e]


class _Chart:
    """Exact local data of the curve at the branch point alpha, in the
    variable t = z - alpha, to truncation T.

    The recursion reads every stable factor at z, where the pole basis is
    t^-p (z + alpha)^-q, so all it asks of the chart is `residues`: the
    residues of the kernel against those monomials, with or without the
    factor dzhat s^r that omega^0_2 brings when it is read at zhat."""

    def __init__(self, alpha, T):
        self.alpha = alpha
        self.T = T
        self.center = c = str(alpha)
        # zhat(t) = 1/(alpha + t)
        self.zhat = LaurentSeries(
            "t", c, 0, [(-1) ** r * alpha ** (r + 1) for r in range(T)], T
        )
        self.dzhat = self.zhat.deriv()
        self.z = z = LaurentSeries("t", c, 0, [alpha, 1], T)
        self.x = z + self.zhat
        # 1 - z^2 has valuation 1 in t, so y is the antiderivative of
        # dz/z = zhat dt that vanishes at t = 0, and y(z) - y(zhat) = 2 y(z).
        self.ym_z = self.zhat.integ()
        self.xp = 1 - self.zhat * self.zhat
        self.kfac = -(self.ym_z * self.xp * 4).invert()
        self.phi = (self.ym_z * self.xp).integ()
        one = LaurentSeries("t", c, 0, [1], T)
        self.s_pows = [one, self.zhat - alpha]  # s = zhat - alpha, valuation 1
        self.q_pows = [one, (z + alpha).invert()]  # the other branch point's poles
        self._dzs = {}
        self._kj = {}
        self._res = {}

    def kernel(self, j):
        """Coefficient series of dz0/(z0 - alpha)^j in the recursion kernel."""
        if j not in self._kj:
            r = j - 1
            tr = LaurentSeries("t", self.center, r, [1], self.T)
            self._kj[j] = self.kfac * (tr - _power(self.s_pows, r))
        return self._kj[j]

    def residues(self, p, q, r):
        """[Res_t kernel(j) t^-p (z + alpha)^-q X for j = 2, 3, ...], where
        X = 1 if r is None and X = (dzhat/dt) s^r otherwise.  The kernel has
        valuation at least j - 3, so the list stops at j = p + 2 - r."""
        key = (p, q, r)
        if key not in self._res:
            y = _power(self.q_pows, q)
            if r is not None:
                if r not in self._dzs:
                    self._dzs[r] = self.dzhat * _power(self.s_pows, r)
                y = y * self._dzs[r]
            y = y.shift(-p)
            self._res[key] = [
                self.kernel(j).product_residue(y) for j in range(2, p + 3 - (r or 0))
            ]
        return self._res[key]


class SpectralCurve:
    """The curve x = z + 1/z, y = ln z, with memos of its invariants and of
    one local chart per branch point."""

    def __init__(self):
        self._omegas: dict = {}
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
            self._omegas[key] = self._recurse(g, n)
        return self._omegas[key]

    # ------------------------------------------------------------------

    def _recurse(self, g, n) -> PoleBasisDifferential:
        bound = _pole_bound(g, n)
        out = self._chart_terms(g, n, 1)
        # The chart at -1 mirrors the one at +1 under z -> -z: negating every
        # a_i multiplies a coefficient by (-1)^(k_1 + ... + k_n).
        out.update(_reflect(out))
        for a in out:
            for _, k in a:
                if k < 2:
                    raise NonzeroResiduePartError(f"first-order pole in {a}")
                if k > bound:
                    raise AssertionError(
                        f"pole order {k} beyond the bound {bound} at (g, n) = ({g}, {n})"
                    )
        return PoleBasisDifferential(g, n, out)

    def _chart_terms(self, g, n, alpha) -> dict:
        """The nonzero coefficients of omega^g_n whose first pole sits at
        alpha, from the residue at that branch point.

        A stable factor read at zhat = 1/z is minus the same factor read at
        z (the linear loop equation), so every bracket term is a coefficient
        on a monomial (p, q, r) of the chart: t^-p (z + alpha)^-q, times
        dzhat s^r when omega^0_2 is read at zhat.  The coefficients of each
        spectator assignment are contracted once against the residues."""
        spect = list(range(1, n))
        bound = _pole_bound(g, n)
        ch = self.chart(alpha, bound)
        # Every bracket term is a product of two factors; the genus-reducing
        # term has both points in one factor and the unit as the other.
        products = []
        if g >= 1:
            both = self._factor(g - 1, 2, spect, alpha, bound, zhat=True)
            products.append((both, {(): [((0, 0, None), 1)]}))
        for g1 in range(g + 1):
            g2 = g - g1
            for gI, gJ in bipartitions(spect):
                if g1 == 0 and not gI:
                    continue
                if g2 == 0 and not gJ:
                    continue
                left = self._factor(g1, 1, gI, alpha, bound)
                products.append((left, self._factor(g2, 1, gJ, alpha, bound, zhat=True)))
        # spectator key -> {(p, q, r): pairs (a, b) whose sum of a * b is
        # the coefficient}
        bracket: dict = {}
        for left, right in products:
            for lkey, lterms in left.items():
                for rkey, rterms in right.items():
                    sterms = bracket.setdefault(tuple(sorted(lkey + rkey)), {})
                    for (p1, q1, r1), c1 in lterms:
                        for (p2, q2, r2), c2 in rterms:
                            mono = (p1 + p2, q1 + q2, r1 if r2 is None else r2)
                            sterms.setdefault(mono, []).append((c1, c2))
        out: dict = {}
        for skey, terms in bracket.items():
            rows = []
            for mono, pairs in terms.items():
                c = dot(pairs)
                if c:
                    rows.append((c, ch.residues(*mono)))
            rest = tuple(ak for _, ak in skey)  # skey is sorted by slot
            for j in range(max((len(res) for _, res in rows), default=0)):
                val = dot((c, res[j]) for c, res in rows if j < len(res))
                if val:
                    out[((alpha, j + 2),) + rest] = val
        return out

    def _factor(self, gp, nz, gvars, alpha, bound, zhat=False) -> dict:
        """omega^gp with its first nz slots at the recursion point, the last
        of them at zhat if zhat is set, and the rest on the spectators
        gvars, as {spectator key: [((p, q, r), c)]}.  A stable factor read
        at zhat is minus the one read at z; omega^0_2 is expanded in its
        spectator through pole order bound + 4."""
        if gp == 0 and nz + len(gvars) == 2:
            if nz == 2:
                # dz dzhat / (z - 1/z)^2 = -t^-2 (z + alpha)^-2 dz dz, as
                # z - 1/z = t (z + alpha) / z and dzhat = -dz / z^2
                return {(): [((2, 2, None), -1)]}
            (gvar,) = gvars
            return {
                ((gvar, (alpha, r + 2)),): [((0, 0, r) if zhat else (-r, 0, None), r + 1)]
                for r in range(bound + 3)
            }
        out: dict = {}
        for assign, c in self.omega(gp, nz + len(gvars)).coeffs.items():
            p = q = 0
            for a, k in assign[:nz]:
                if a == alpha:
                    p += k
                else:
                    q += k
            skey = tuple(zip(gvars, assign[nz:]))
            out.setdefault(skey, []).append(((p, q, None), -c if zhat else c))
        return out


def _reflect(terms) -> dict:
    """The mirror image of pole-basis terms under z -> -z."""
    return {
        tuple((-a, k) for a, k in assign): -c if sum(k for _, k in assign) % 2 else c
        for assign, c in terms.items()
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
    rows = {}  # (alpha, k) -> row
    out: dict = {}
    for assign, c in pd.coeffs.items():
        for ak in assign:
            if ak not in rows:
                rows[ak] = _row(*ak, per_var)
        _tensor_accumulate(out, [rows[ak] for ak in assign], c, depth)
    return InfinitySeries(pd.n, depth, out)


def _tensor_add(store, key, c):
    if c:
        store[key] = store.get(key, Fraction(0)) + c
        if store[key] == 0:
            del store[key]


def _tensor_accumulate(out, rows, c, depth):
    """Add c times the tensor product of the int rows (row i holds the
    coefficients of u_i^e, zero below e = 2) into out, over the exponent
    tuples of total at most depth; zero entries are skipped."""
    n = len(rows)

    def rec(i, exps, total, acc):
        if i == n:
            _tensor_add(out, exps, acc)
            return
        # every later row starts at u^2
        room = depth - total - 2 * (n - i - 1)
        for e, v in enumerate(rows[i][: room + 1]):
            if v:
                rec(i + 1, exps + (e,), total + e, acc * v)

    rec(0, (), 0, c)


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
    out: dict = {}
    for r in range(depth // 2 - 1):
        row = [
            comb(e - 1, (e - 2 - r) // 2) if e >= r + 2 and (e - r) % 2 == 0 else 0
            for e in range(depth + 1)
        ]
        _tensor_accumulate(out, [row, row], r + 1, depth)
    return out


# ----------------------------------------------------------------------
# string, dilaton and pole checks


def _xm_over_xp(m):
    """x(z)^m / x'(z) decomposed into poles at +-1 plus a polynomial part."""
    if m == 0:
        return {("m", 0): Fraction(1), ("p", 1, 1): Fraction(1, 2),
                ("p", -1, 1): Fraction(-1, 2)}
    if m == 1:
        return {("m", 1): Fraction(1), ("p", 1, 1): Fraction(1),
                ("p", -1, 1): Fraction(1)}
    raise ValueError("string equation power must be 0 or 1")


def _rep_mul_pole(rep, a, k):
    """Multiply a decomposition from `_xm_over_xp` by (z - a)^{-k}, k >= 2
    (the invariants have no first-order poles): its terms are z^0, z^1 and
    simple poles."""
    out: dict = {}
    for key, c in rep.items():
        if key == ("m", 0):
            _tensor_add(out, ("p", a, k), c)
        elif key == ("m", 1):
            # z = (z - a) + a
            _tensor_add(out, ("p", a, k - 1), c)
            _tensor_add(out, ("p", a, k), c * a)
        else:
            b = key[1]
            if b == a:
                _tensor_add(out, ("p", a, k + 1), c)
            else:
                for r in range(k):
                    _tensor_add(out, ("p", a, k - r), c * Fraction((-1) ** r, (a - b) ** (r + 1)))
                _tensor_add(out, ("p", b, 1), c * Fraction((-1) ** k, (a - b) ** k))
    return out


def _rep_deriv(rep):
    """Derivative of a sum of poles c (z - a)^{-j}."""
    out: dict = {}
    for (_, a, j), c in rep.items():
        _tensor_add(out, ("p", a, j + 1), -c * j)
    return out


def _last_slot(pd, series, key) -> dict:
    """The sum over pd's terms of c [t^(k-1)] series[a], (a, k) the last
    slot, as a tensor keyed by key(the other slots)."""
    out: dict = {}
    for assign, c in pd.coeffs.items():
        a, k = assign[-1]
        _tensor_add(out, key(assign[:-1]), c * series[a].coefficient(k - 1))
    return out


def _mismatch(claim, part, lhs, rhs) -> VerificationReport | None:
    """The failing report of one identity when its two sides differ."""
    if lhs == rhs:
        return None
    diff = {k: lhs.get(k, 0) - rhs.get(k, 0) for k in set(lhs) | set(rhs)}
    bad = {k: v for k, v in diff.items() if v}
    return VerificationReport(claim, "fail", {"part": part, "diff": bad})


def eo_string_dilaton_check(
    g, n, m=0, curve: SpectralCurve | None = None
) -> VerificationReport:
    """Exact identity checks: the string equation with weight x^m (m = 0, 1)
    and the dilaton equation, both as equalities of rational tensors."""
    g, n, m = map(exact_int, (g, n, m))
    claim = f"eo-string-dilaton ({g},{n}) m={m}"
    base = _xm_over_xp(m)  # rejects m outside {0, 1} before any recursion
    curve = curve or SpectralCurve()
    hi = curve.omega(g, n + 1)
    lo = curve.omega(g, n)
    # The last slot of hi reads each chart through its highest pole order.
    charts = {alpha: curve.chart(alpha, hi.max_order()) for alpha in (1, -1)}

    # String equation.  LHS: residues of y x^m against the last slot.
    weights = {a: ch.ym_z * ch.x if m else ch.ym_z for a, ch in charts.items()}
    lhs = _last_slot(hi, weights, lambda rest: tuple(("p", a, k) for a, k in rest))
    # RHS: minus the derivative terms of the lower invariant.
    rhs: dict = {}
    for assign, c in lo.coeffs.items():
        for i in range(n):
            a, k = assign[i]
            rep = _rep_deriv(_rep_mul_pole(base, a, k))
            for ukey, uc in rep.items():
                key = tuple(
                    ("p", aa, kk) if l != i else ukey
                    for l, (aa, kk) in enumerate(assign)
                )
                _tensor_add(rhs, key, -c * uc)
    if failed := _mismatch(claim, "string", lhs, rhs):
        return failed

    # Dilaton equation against a local antiderivative of y dx.
    dl = _last_slot(hi, {a: ch.phi for a, ch in charts.items()}, tuple)
    dr: dict = {}
    scale = Fraction(2 * g - 2 + n)
    for assign, c in lo.coeffs.items():
        _tensor_add(dr, tuple(assign), c * scale)
    return _mismatch(claim, "dilaton", dl, dr) or VerificationReport(claim, "pass")


@lru_cache(maxsize=64)
def _airy_leading(g, n) -> tuple:
    """The Airy limit of the leading coefficients, as (beta, value) pairs:
    2^(5-5g-2n) <tau_beta>_g prod (2b+1)!/b! at the orders 2b+2."""
    shift = 5 - 5 * g - 2 * n
    leading = []
    for beta in compositions(3 * g - 3 + n, n):
        weight = 1
        for b in beta:
            weight *= factorial(2 * b + 1) // factorial(b)
        scaled = weight << shift if shift >= 0 else Fraction(weight, 1 << -shift)
        leading.append((beta, scaled * psi_intersection(g, beta)))
    return tuple(leading)


def pole_asymptotics_check(
    g, n, curve: SpectralCurve | None = None
) -> VerificationReport:
    """Pole orders and the same-sign leading coefficients of the invariant,
    read against the psi intersection numbers.  The differential is read
    afresh on every call, in one pass over its terms; the expected leading
    coefficients depend on (g, n) alone and are built once per pair."""
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
    for alpha in (1, -1):
        for beta, expected in _airy_leading(g, n):
            got = pd.coefficient(tuple((alpha, 2 * b + 2) for b in beta))
            if got != expected:
                return VerificationReport(
                    claim, "fail",
                    {"alpha": alpha, "beta": beta, "got": got, "expected": expected},
                )
    return VerificationReport(claim, "pass", {"mixed_sign_terms": mixed})
