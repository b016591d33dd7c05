"""Exact arithmetic substrate: rationals extended by symbolic atoms,
multivariate polynomials and quasi-polynomials over them, and truncated
Laurent series with exact rational coefficients.

Everything here is treated as immutable and all arithmetic is exact; no
floating point enters anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub


class MissingAtomError(KeyError):
    """An atom required by resolve() has no assigned value."""


class AtomProductError(ArithmeticError):
    """Product of two atom-carrying values (the algebra is Q-linear in atoms)."""


class TruncationError(ArithmeticError):
    """A series coefficient beyond the tracked truncation order was requested."""


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for integers, b > 0.  Works for negative a."""
    return -((-a) // b)


def exact_int(x) -> int:
    """x as an int, for an int, an integral Fraction or the like; ValueError
    naming x when it is not integral, rather than truncate it."""
    if type(x) is int:
        return x
    n = int(x)
    if n != x:
        raise ValueError(f"non-integral value {x!r}")
    return n


def c_factor(N: int, m: int) -> int:
    """The ceiling factorial c_N(m) = ceil(m/N) * c_N(m-1), c_N(0) = 1.

    Generalises the factorial: c_1(m) = m!.  The factors are N ones, N
    twos, ..., N copies of q - 1 and m - N(q-1) copies of q = ceil(m/N),
    so c_N(m) = (q-1)!^N * q^(m - N(q-1)).
    """
    if N < 1:
        raise ValueError("c_factor needs N >= 1")
    if m < 0:
        raise ValueError("c_factor needs m >= 0")
    if m == 0:
        return 1
    q = ceil_div(m, N)
    return factorial(q - 1) ** N * q ** (m - N * (q - 1))


# Decimal conversion in chunks of this many digits stays below the
# interpreter's int-to-str digit limit (4300 by default), which a value
# in the thousands of digits would otherwise hit.
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


def _int_str(n: int) -> str:
    """str(n) for an int of any length."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    return sign + str(n) + "".join(reversed(chunks))


def _str_int(s: str) -> int:
    """int(s) for a decimal string of any length."""
    s = s.strip()
    if len(s) <= _CHUNK_DIGITS:
        return int(s)
    sign, digits = (-1, s[1:]) if s[0] == "-" else (1, s.lstrip("+"))
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer of {len(s)} characters")
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    out = int(digits[:head])
    for i in range(head, len(digits), _CHUNK_DIGITS):
        out = out * _CHUNK + int(digits[i : i + _CHUNK_DIGITS])
    return sign * out


def parse_rat(s: str) -> Fraction:
    """Parse the wire format "p/q" or "p" (sign on the numerator), decimal
    integers of any length."""
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Fraction(_str_int(p), _str_int(q))
    return Fraction(_str_int(s))


def format_rat(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


class SymRat:
    """A rational number plus a finite Q-linear combination of named atoms.

    Atoms stand for base invariants the recursions cannot reach; the engine
    only ever multiplies an atom-carrying value by a plain rational, so a
    product of two atom-carrying values raises AtomProductError.
    """

    __slots__ = ("scalar", "atoms")

    def __init__(self, scalar=0, atoms=None):
        self.scalar = scalar if type(scalar) is Fraction else Fraction(scalar)
        self.atoms = {}
        if atoms:
            for name, c in atoms.items():
                c = Fraction(c)
                if c:
                    self.atoms[name] = c

    @classmethod
    def _make(cls, scalar: Fraction, atoms=None) -> "SymRat":
        """Build from a Fraction scalar and Fraction atom coefficients
        without coercing them again; zero coefficients are still dropped."""
        out = object.__new__(cls)
        out.scalar = scalar
        out.atoms = {k: v for k, v in atoms.items() if v} if atoms else {}
        return out

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

    # Atom-free operands take plain Fraction arithmetic: an int or Fraction
    # combined with a Fraction scalar always yields a Fraction.

    def _combine(self, other, op):
        if isinstance(other, SymRat):
            scalar, atoms = other.scalar, other.atoms
        elif isinstance(other, (int, Fraction)):
            scalar, atoms = other, None
        else:
            return NotImplemented
        if not atoms:
            return SymRat._make(op(self.scalar, scalar), self.atoms)
        out = dict(self.atoms)
        for k, v in atoms.items():
            out[k] = op(out.get(k, 0), v)
        return SymRat._make(op(self.scalar, scalar), out)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return SymRat._make(-self.scalar, {k: -v for k, v in self.atoms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, SymRat):
            if self.atoms and other.atoms:
                raise AtomProductError(
                    f"atom * atom product: {sorted(self.atoms)} x {sorted(other.atoms)}"
                )
            if other.atoms:
                return other * self.scalar
            other = other.scalar
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return SymRat._make(
            self.scalar * other, {k: v * other for k, v in self.atoms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.atoms and self.scalar == other
        o = SymRat.of(other)
        return self.scalar == o.scalar and self.atoms == o.atoms

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


def dot(pairs):
    """The exact sum of a * b over (a, b) pairs of ints, Fractions and
    SymRats: a Fraction when no factor is a SymRat, a SymRat otherwise.

    Each coefficient, the scalar and every atom's, is summed as an integer
    numerator over an integer denominator and reduced to a Fraction once,
    at the end.  Atoms whose coefficients cancel are dropped.  A product of
    two atom-carrying factors raises AtomProductError."""
    num, den = 0, 1
    atoms = None  # atom name -> [numerator, denominator], once a SymRat is seen
    for a, b in pairs:
        if isinstance(a, SymRat) or isinstance(b, SymRat):
            atoms = {} if atoms is None else atoms
            if isinstance(b, SymRat) and b.atoms:
                if isinstance(a, SymRat) and a.atoms:
                    raise AtomProductError(
                        f"atom * atom product: {sorted(a.atoms)} x {sorted(b.atoms)}"
                    )
                a, b = b, a
            if isinstance(b, SymRat):
                b = b.scalar
            if isinstance(a, SymRat):
                for name, c in a.atoms.items():
                    acc = atoms.setdefault(name, [0, 1])
                    p, q = c.numerator * b.numerator, c.denominator * b.denominator
                    acc[0], acc[1] = acc[0] * q + p * acc[1], acc[1] * q
                a = a.scalar
        p = a.numerator * b.numerator
        if p:
            q = a.denominator * b.denominator
            if q == den:
                num += p
            else:
                num, den = num * q + p * den, den * q
    if atoms is None:
        return Fraction(num, den)
    return SymRat._make(
        Fraction(num, den), {k: Fraction(n, d) for k, (n, d) in atoms.items() if n}
    )


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
    def from_newton(cls, newton, base, step) -> "MultiPoly":
        """The monomial form of sum_alpha c_alpha prod_k
        binomial((x_k - base_k)/step, alpha_k), from the Newton coefficients
        `newton` = {alpha: c_alpha}.

        binomial((x - b)/step, a) is P_a(x) / (step^a a!) with the integer
        falling factorial P_a(x) = prod_{j<a} (x - b - j step), so each
        c_alpha is scaled once and every monomial is one `dot` of the
        scaled coefficients against integer products of P's coefficients."""
        top = max(map(sum, newton), default=0)
        falling = []  # falling[k][a]: coefficients of P_a at base[k], lowest first
        for b in base:
            rows = [[1]]
            for j in range(top):
                shift = b + j * step
                p = rows[-1]
                rows.append([u - shift * v for u, v in zip([0, *p], [*p, 0])])
            falling.append(rows)
        pairs: dict = {}
        for alpha, c in newton.items():
            if not c:
                continue
            scale = step ** sum(alpha) * prod(map(factorial, alpha))
            if scale != 1:
                c = c * Fraction(1, scale)
            polys = [falling[k][a] for k, a in enumerate(alpha)]
            for e in product(*(range(a + 1) for a in alpha)):
                w = prod(p[ek] for p, ek in zip(polys, e))
                if w:
                    pairs.setdefault(e, []).append((c, w))
        return cls(len(base), {e: dot(ps) for e, ps in pairs.items()})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coeff(self, exps) -> SymRat:
        return self.terms.get(tuple(exps), ZERO)

    def __add__(self, other):
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, ZERO) + c
        return MultiPoly(self.nvars, terms)

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
        # Integer points stay ints, so the powers are integer powers.
        point = [p if type(p) is int else Fraction(p) for p in point]
        return SymRat.of(dot(
            (c, prod(p**k for p, k in zip(point, e))) for e, c in self.terms.items()
        ))

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

    def residue(self, point):
        return tuple(exact_int(x) % (self.N + 1) for x in point)

    def eval(self, point) -> SymRat:
        if len(point) != self.nvars:
            raise ValueError("evaluation arity mismatch")
        branch = self.branches.get(self.residue(point))
        if branch is None:
            return ZERO
        return branch.eval(point)

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

    The coefficients are held exactly as Python-int numerators `nums` over
    one shared positive denominator `den`, in lowest terms, with a nonzero
    leading numerator unless the series is zero, so the arithmetic never
    builds a Fraction.  `coeffs` is the same data as a list of Fractions,
    built on first use.

    Arithmetic tracks the truncation order pessimistically, so a result
    never claims more precision than its inputs support.
    """

    __slots__ = ("var", "center", "min_exp", "trunc", "nums", "den", "_coeffs")

    def __init__(self, var, center, min_exp, coeffs, trunc):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        self._set(var, center, min_exp, nums, den, trunc)

    @classmethod
    def _make(cls, var, center, min_exp, nums, den, trunc):
        """Build from integer numerators over den > 0 (not yet reduced)."""
        out = object.__new__(cls)
        out._set(var, center, min_exp, nums, den, trunc)
        return out

    def _set(self, var, center, min_exp, nums, den, trunc):
        if trunc < min_exp + len(nums):
            nums = nums[: trunc - min_exp]
        lead = 0
        while lead < len(nums) and not nums[lead]:
            lead += 1
        if lead:
            nums = nums[lead:]
            min_exp += lead
        if nums:
            if len(nums) < trunc - min_exp:
                nums = nums + [0] * (trunc - min_exp - len(nums))
            g = gcd(den, *nums)
            if g != 1:
                nums = [v // g for v in nums]
                den //= g
        else:
            min_exp = trunc
            den = 1
        self.var = var
        self.center = center
        self.min_exp = min_exp
        self.trunc = trunc
        self.nums = nums
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self) -> list:
        """The known coefficients, exponents min_exp .. trunc - 1, as Fractions."""
        if self._coeffs is None:
            self._coeffs = [Fraction(v, self.den) for v in self.nums]
        return self._coeffs

    @classmethod
    def zero(cls, var, center, trunc):
        return cls._make(var, center, trunc, [], 1, trunc)

    @classmethod
    def const(cls, var, center, value, trunc):
        return cls(var, center, 0, [value], trunc)

    def _check_compat(self, other):
        if self.var != other.var or self.center != other.center:
            raise ValueError("series live in different local charts")

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, e: int) -> Fraction:
        if e >= self.trunc:
            raise TruncationError(
                f"coefficient of {self.var}^{e} beyond truncation {self.trunc}"
            )
        if e < self.min_exp:
            return Fraction(0)
        return self.coeffs[e - self.min_exp]

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries.const(self.var, self.center, other, self.trunc)
        self._check_compat(other)
        trunc = min(self.trunc, other.trunc)
        lo = min(self.min_exp, other.min_exp)
        den = lcm(self.den, other.den)
        out = [0] * (trunc - lo)
        for s in (self, other):
            f = den // s.den
            for i, v in enumerate(s.nums[: max(trunc - s.min_exp, 0)], s.min_exp - lo):
                out[i] += v * f
        return self._make(self.var, self.center, lo, out, den, trunc)

    __radd__ = __add__

    def __neg__(self):
        return self._make(
            self.var, self.center, self.min_exp, [-v for v in self.nums], self.den,
            self.trunc,
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
            return self._make(
                self.var, self.center, self.min_exp,
                [c.numerator * v for v in self.nums], self.den * c.denominator,
                self.trunc,
            )
        self._check_compat(other)
        trunc = min(self.min_exp + other.trunc, other.min_exp + self.trunc)
        if not self.nums or not other.nums:
            # A zero factor still cannot promise precision beyond its window.
            return LaurentSeries.zero(self.var, self.center, trunc)
        lo = self.min_exp + other.min_exp
        # Both factors are padded to their truncation, so the product's
        # window trunc - lo is no longer than either of them.
        a = self.nums
        b = other.nums[::-1]
        last = len(b) - 1
        out = [sum(map(mul, a, b[last - k:])) for k in range(trunc - lo)]
        return self._make(self.var, self.center, lo, out, self.den * other.den, trunc)

    __rmul__ = __mul__

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient.

        Fraction-free: with a = nums, the integers B_0 = 1 and
        B_r = -sum_{j>=1} a_j a_0^(j-1) B_(r-j) are a_0^(r+1) times the
        coefficients of (sum_i a_i t^i)^-1."""
        if not self.nums:
            raise ZeroDivisionError("invert requires a nonzero leading coefficient")
        a = self.nums
        a0 = a[0]
        n = len(a)
        scaled = []  # a_j a_0^(j-1) for j >= 1
        p = 1
        for v in a[1:]:
            scaled.append(v * p)
            p *= a0
        B = [1]
        for _ in range(1, n):
            B.append(-sum(map(mul, scaled, reversed(B))))
        # coefficient r is den B_r / a_0^(r+1) = den B_r a_0^(n-1-r) / a_0^n
        out = [0] * n
        p = self.den
        for r in range(n - 1, -1, -1):
            out[r] = B[r] * p
            p *= a0
        den = p // self.den
        if den < 0:
            out = [-v for v in out]
            den = -den
        # Known to relative order n, centred at exponent -min_exp.
        return self._make(self.var, self.center, -self.min_exp, out, den, -self.min_exp + n)

    def __repr__(self):
        bits = [
            f"{format_rat(c)}*{self.var}^{self.min_exp + i}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(bits) if bits else "0"
        return f"<{body} + O({self.var}^{self.trunc}) @ {self.center}>"


def binomial(n: int, k: int) -> int:
    """binomial(n, k) for k >= 0 and any integer n: n (n - 1) ... (n - k + 1) / k!,
    which for n < 0 is (-1)^k binomial(k - n - 1, k)."""
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def compositions(total: int, parts: int):
    """Tuples of `parts` non-negative integers summing to `total`, in
    lexicographic order.  Each one after the first moves a unit from the
    last nonzero part j > 0 to part j - 1 and the rest of part j to the end."""
    if parts == 0 or total < 0:
        yield from [()] if (total, parts) == (0, 0) else []
        return
    c = [0] * (parts - 1) + [total]
    while True:
        yield tuple(c)
        j = parts - 1
        while j and not c[j]:
            j -= 1
        if not j:
            return
        c[j - 1] += 1
        c[j], c[-1] = 0, c[j] - 1
