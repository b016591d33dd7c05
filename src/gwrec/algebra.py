"""Exact arithmetic substrate: rationals extended by symbolic atoms,
multivariate polynomials and quasi-polynomials over them, and truncated
Laurent series with exact rational coefficients.

Everything here is treated as immutable and all arithmetic is exact; no
floating point enters anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

Rat = Fraction


class MissingAtomError(KeyError):
    """An atom required by resolve() has no assigned value."""


class AtomProductError(ArithmeticError):
    """Product of two atom-carrying values (the algebra is Q-linear in atoms)."""


class TruncationError(ArithmeticError):
    """A series coefficient beyond the tracked truncation order was requested."""


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for integers, b > 0.  Works for negative a."""
    return -((-a) // b)


def c_factor(N: int, m: int) -> int:
    """The ceiling factorial c_N(m) = ceil(m/N) * c_N(m-1), c_N(0) = 1.

    Generalises the factorial: c_1(m) = m!.  For m > 0 it has the closed
    form ceil(m/N)!^N * ceil(m/N)^(m - N*ceil(m/N)), checked in the tests.
    """
    if N < 1:
        raise ValueError("c_factor needs N >= 1")
    if m < 0:
        raise ValueError("c_factor needs m >= 0")
    out = 1
    for i in range(1, m + 1):
        out *= ceil_div(i, N)
    return out


def c_factor_closed(N: int, m: int) -> Fraction:
    """Closed form of c_N(m) for m > 0; independent route used as an oracle."""
    if m == 0:
        return Fraction(1)
    q = ceil_div(m, N)
    out = Fraction(1)
    for i in range(1, q + 1):
        out *= Fraction(i) ** N
    return out * Fraction(q) ** (m - N * q)


def parse_rat(s: str) -> Fraction:
    """Parse the wire format "p/q" or "p" (sign on the numerator)."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def format_rat(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class SymRat:
    """A rational number plus a finite Q-linear combination of named atoms.

    Atoms stand for base invariants the recursions cannot reach; the engine
    only ever multiplies an atom-carrying value by a plain rational, so a
    product of two atom-carrying values raises AtomProductError.
    """

    __slots__ = ("scalar", "atoms")

    def __init__(self, scalar=0, atoms=None):
        self.scalar = Fraction(scalar)
        self.atoms = {}
        if atoms:
            for name, c in atoms.items():
                c = Fraction(c)
                if c:
                    self.atoms[name] = c

    @classmethod
    def atom(cls, name: str, coeff=1) -> "SymRat":
        return cls(0, {name: coeff})

    @classmethod
    def of(cls, v) -> "SymRat":
        return v if isinstance(v, SymRat) else cls(v)

    @property
    def is_rational(self) -> bool:
        return not self.atoms

    def rational(self) -> Fraction:
        if self.atoms:
            raise ValueError(f"value carries unresolved atoms: {sorted(self.atoms)}")
        return self.scalar

    def resolve(self, assignment) -> Fraction:
        """Substitute rational values for every atom; exact."""
        out = self.scalar
        for name, c in self.atoms.items():
            if name not in assignment:
                raise MissingAtomError(name)
            out += c * Fraction(assignment[name])
        return out

    @staticmethod
    def _coercible(other):
        return isinstance(other, (SymRat, int, Fraction))

    def __add__(self, other):
        if not self._coercible(other):
            return NotImplemented
        o = SymRat.of(other)
        atoms = dict(self.atoms)
        for k, v in o.atoms.items():
            atoms[k] = atoms.get(k, Fraction(0)) + v
        return SymRat(self.scalar + o.scalar, atoms)

    __radd__ = __add__

    def __neg__(self):
        return SymRat(-self.scalar, {k: -v for k, v in self.atoms.items()})

    def __sub__(self, other):
        if not self._coercible(other):
            return NotImplemented
        return self + (-SymRat.of(other))

    def __rsub__(self, other):
        return SymRat.of(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, SymRat):
            if self.atoms and other.atoms:
                raise AtomProductError(
                    f"atom * atom product: {sorted(self.atoms)} x {sorted(other.atoms)}"
                )
            if other.atoms:
                return other * self.scalar
            other = other.scalar
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return SymRat(self.scalar * c, {k: v * c for k, v in self.atoms.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __eq__(self, other):
        o = SymRat.of(other)
        return self.scalar == o.scalar and self.atoms == o.atoms

    def __hash__(self):
        return hash((self.scalar, frozenset(self.atoms.items())))

    def __bool__(self):
        return bool(self.scalar) or bool(self.atoms)

    def __repr__(self):
        if not self.atoms:
            return format_rat(self.scalar)
        parts = [format_rat(self.scalar)] if self.scalar else []
        for name in sorted(self.atoms):
            parts.append(f"({format_rat(self.atoms[name])})*{name}")
        return " + ".join(parts) if parts else "0"

    def to_obj(self):
        return {
            "scalar": format_rat(self.scalar),
            "atoms": {k: format_rat(v) for k, v in sorted(self.atoms.items())},
        }

    @classmethod
    def from_obj(cls, obj) -> "SymRat":
        return cls(
            parse_rat(obj["scalar"]),
            {k: parse_rat(v) for k, v in obj.get("atoms", {}).items()},
        )


ZERO = SymRat(0)
ONE = SymRat(1)


class MultiPoly:
    """Multivariate polynomial with SymRat coefficients, stored sparsely."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent arity mismatch")
                c = SymRat.of(c)
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: SymRat.of(c)})

    @classmethod
    def monomial(cls, nvars, exps, c=1):
        return cls(nvars, {tuple(exps): SymRat.of(c)})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coeff(self, exps) -> SymRat:
        return self.terms.get(tuple(exps), ZERO)

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = terms.get(e, ZERO) + c
            return MultiPoly(self.nvars, terms)
        return self + MultiPoly.const(self.nvars, other)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            return self + (-other)
        return self + MultiPoly.const(self.nvars, -SymRat.of(other))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    terms[e] = terms.get(e, ZERO) + c1 * c2
            return MultiPoly(self.nvars, terms)
        c = SymRat.of(other)
        return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    __rmul__ = __mul__

    def eval(self, point) -> SymRat:
        if len(point) != self.nvars:
            raise ValueError("evaluation arity mismatch")
        point = [Fraction(p) for p in point]
        out = ZERO
        for e, c in self.terms.items():
            mono = Fraction(1)
            for p, k in zip(point, e):
                mono *= p**k
            out = out + c * mono
        return out

    def relabel(self, perm) -> "MultiPoly":
        """Variable relabeling: result(x_0,..) = self(x_perm[0], x_perm[1], ..)."""
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * self.nvars
            for i, p in enumerate(perm):
                ne[p] = e[i]
            terms[tuple(ne)] = c
        return MultiPoly(self.nvars, terms)

    def deriv(self, var: int) -> "MultiPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            ne = list(e)
            ne[var] -= 1
            terms[tuple(ne)] = c * e[var]
        return MultiPoly(self.nvars, terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            mono = "*".join(f"m{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"({self.terms[e]!r})*{mono}")
        return " + ".join(bits)


class QuasiPoly:
    """A family of polynomials indexed by residue cosets of (N+1)Z^n.

    Branches absent from the map are identically zero.  Evaluation selects
    the branch by the coset of the argument; entries may be negative.
    """

    __slots__ = ("N", "nvars", "branches")

    def __init__(self, N: int, nvars: int, branches=None):
        self.N = N
        self.nvars = nvars
        self.branches = {}
        if branches:
            for r, p in branches.items():
                r = tuple(x % (N + 1) for x in r)
                if p.nvars != nvars:
                    raise ValueError("branch arity mismatch")
                self.branches[r] = p

    @property
    def modulus(self) -> int:
        return self.N + 1

    def residue(self, point):
        return tuple(int(x) % self.modulus for x in point)

    def eval(self, point) -> SymRat:
        if len(point) != self.nvars:
            raise ValueError("evaluation arity mismatch")
        branch = self.branches.get(self.residue(point))
        if branch is None:
            return ZERO
        return branch.eval(point)

    def degree(self) -> int:
        return max((p.degree() for p in self.branches.values()), default=0)

    def to_obj(self):
        return {
            "N": self.N,
            "nvars": self.nvars,
            "branches": [
                {
                    "residues": list(r),
                    "terms": [
                        {"exps": list(e), "coeff": c.to_obj()}
                        for e, c in sorted(p.terms.items())
                    ],
                }
                for r, p in sorted(self.branches.items())
            ],
        }

    @classmethod
    def from_obj(cls, obj) -> "QuasiPoly":
        branches = {}
        for b in obj["branches"]:
            terms = {
                tuple(t["exps"]): SymRat.from_obj(t["coeff"]) for t in b["terms"]
            }
            branches[tuple(b["residues"])] = MultiPoly(obj["nvars"], terms)
        return cls(obj["N"], obj["nvars"], branches)


class LaurentSeries:
    """Truncated Laurent series: coefficients for exponents
    min_exp <= e < trunc; exponents >= trunc are unknown (not zero).

    Arithmetic tracks the truncation order pessimistically, so a result
    never claims more precision than its inputs support.
    """

    __slots__ = ("var", "center", "min_exp", "coeffs", "trunc")

    def __init__(self, var, center, min_exp, coeffs, trunc=None):
        coeffs = [Fraction(c) for c in coeffs]
        if trunc is None:
            trunc = min_exp + len(coeffs)
        if trunc < min_exp + len(coeffs):
            coeffs = coeffs[: trunc - min_exp]
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            min_exp += 1
        while len(coeffs) < trunc - min_exp and coeffs:
            coeffs.append(Fraction(0))
        if not coeffs:
            min_exp = trunc
        self.var = var
        self.center = center
        self.min_exp = min_exp
        self.coeffs = coeffs
        self.trunc = trunc

    @classmethod
    def zero(cls, var, center, trunc):
        return cls(var, center, trunc, [])

    @classmethod
    def const(cls, var, center, value, trunc):
        return cls(var, center, 0, [value], trunc)

    @classmethod
    def x(cls, var, center, trunc):
        """The local coordinate itself."""
        return cls(var, center, 1, [1], trunc)

    def _check_compat(self, other):
        if self.var != other.var or self.center != other.center:
            raise ValueError("series live in different local charts")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, e: int) -> Fraction:
        if e >= self.trunc:
            raise TruncationError(
                f"coefficient of {self.var}^{e} beyond truncation {self.trunc}"
            )
        if e < self.min_exp:
            return Fraction(0)
        return self.coeffs[e - self.min_exp]

    def residue(self) -> Fraction:
        """Coefficient of exponent -1; errors when truncation hides it."""
        if self.trunc <= -1:
            raise TruncationError("series truncated before exponent -1")
        if self.min_exp > -1:
            return Fraction(0)
        return self.coeffs[-1 - self.min_exp]

    def truncate(self, trunc) -> "LaurentSeries":
        if trunc > self.trunc:
            raise TruncationError("cannot extend a truncated series")
        return LaurentSeries(self.var, self.center, self.min_exp, self.coeffs, trunc)

    def shift(self, k) -> "LaurentSeries":
        """Multiply by var^k."""
        return LaurentSeries(
            self.var, self.center, self.min_exp + k, self.coeffs, self.trunc + k
        )

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(self.var, self.center, other, self.trunc)
        self._check_compat(other)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.min_exp, other.min_exp)
        out = [Fraction(0)] * (trunc - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                e = s.min_exp + i
                if e < trunc:
                    out[e - lo] += c
        return LaurentSeries(self.var, self.center, lo, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(
            self.var, self.center, self.min_exp, [-c for c in self.coeffs], self.trunc
        )

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(self.var, self.center, other, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            c = Fraction(other)
            return LaurentSeries(
                self.var, self.center, self.min_exp,
                [c * v for v in self.coeffs], self.trunc,
            )
        self._check_compat(other)
        if self.is_zero() or other.is_zero():
            # A zero factor still cannot promise precision beyond its window.
            trunc = min(self.min_exp + other.trunc, other.min_exp + self.trunc)
            return LaurentSeries.zero(self.var, self.center, trunc)
        trunc = min(self.min_exp + other.trunc, other.min_exp + self.trunc)
        lo = self.min_exp + other.min_exp
        out = [Fraction(0)] * (trunc - lo)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            ea = self.min_exp + i
            for j, b in enumerate(other.coeffs):
                e = ea + other.min_exp + j
                if e >= trunc:
                    break
                out[e - lo] += a * b
        return LaurentSeries(self.var, self.center, lo, out, trunc)

    __rmul__ = __mul__

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroDivisionError("invert requires a nonzero leading coefficient")
        n = len(self.coeffs)
        lead = self.coeffs[0]
        u = [c / lead for c in self.coeffs]
        inv = [Fraction(0)] * n
        inv[0] = Fraction(1)
        for r in range(1, n):
            s = Fraction(0)
            for j in range(1, r + 1):
                s += u[j] * inv[r - j]
            inv[r] = -s
        inv = [c / lead for c in inv]
        # Known to relative order n, centred at exponent -min_exp.
        return LaurentSeries(
            self.var, self.center, -self.min_exp, inv, -self.min_exp + n
        )

    def __truediv__(self, other):
        if isinstance(other, LaurentSeries):
            return self * other.invert()
        return self * (Fraction(1) / Fraction(other))

    def deriv(self) -> "LaurentSeries":
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.min_exp + i
            out.append(c * e)
        return LaurentSeries(self.var, self.center, self.min_exp - 1, out, self.trunc - 1)

    def integ(self) -> "LaurentSeries":
        """Antiderivative with zero constant term; errors on a 1/x term."""
        out = []
        for i, c in enumerate(self.coeffs):
            e = self.min_exp + i
            if e == -1:
                if c != 0:
                    raise ValueError("antiderivative of 1/x term is not a Laurent series")
                out.append(Fraction(0))
            else:
                out.append(c / (e + 1))
        return LaurentSeries(self.var, self.center, self.min_exp + 1, out, self.trunc + 1)

    def compose(self, inner: "LaurentSeries") -> "LaurentSeries":
        """self(inner) for a power-series self (min_exp >= 0) and inner with
        positive valuation.  Horner evaluation, truncation tracked."""
        if self.min_exp < 0:
            raise ValueError("compose needs a power series on the outside")
        if inner.min_exp < 1:
            raise ValueError("compose needs positive valuation inside")
        n_terms = len(self.coeffs)
        trunc = min(inner.trunc, inner.min_exp * (self.min_exp + n_terms))
        out = LaurentSeries.zero(inner.var, inner.center, trunc)
        for c in reversed(self.coeffs):
            out = out * inner.truncate(min(trunc, inner.trunc)) + c
        for _ in range(self.min_exp):
            out = out * inner
        return out

    def eval_at(self, x0) -> Fraction:
        """Evaluate the known part at a rational point (truncation tail dropped)."""
        x0 = Fraction(x0)
        out = Fraction(0)
        for i, c in enumerate(self.coeffs):
            out += c * x0 ** (self.min_exp + i)
        return out

    def __repr__(self):
        bits = [
            f"{format_rat(c)}*{self.var}^{self.min_exp + i}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(bits) if bits else "0"
        return f"<{body} + O({self.var}^{self.trunc}) @ {self.center}>"


def binomial(n: int, k: int) -> int:
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k) if k <= n else 0
    # Falling-factorial definition for negative upper argument.
    out = 1
    for i in range(k):
        out *= n - i
    return out // factorial(k)


def compositions(total: int, parts: int):
    """Tuples of `parts` non-negative integers summing to `total`, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
