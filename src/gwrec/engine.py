"""Evaluator for descendant Gromov-Witten invariants of projective space.

Values are exact: a rational number plus a Q-linear combination of atoms,
one atom per invariant the implemented recursions cannot reach (genus >= 2
with all descendant levels below threshold, and the genus-1 primary
survivors).  The memo holds every genus-0 value as a plain Fraction (a
higher-genus value is a SymRat, or a Fraction where no SymRat entered it);
`Engine.invariant` returns a SymRat.  Each recursion step sums its product
terms in one `dot`.  The genus-0 and genus-1 recursions split insertions
by one generator, `_splits`, that carries the dimension excess.  One
generator, `_forget_terms`, states the string and divisor equations: the
string and divisor rules sum its terms, and the two-point raise and the
primary route solve the divisor equation for their own term.

The degree of a map is never stored: it is derived from the dimension
constraint of the key and a key whose derived degree is fractional or
negative evaluates to zero.

Keys are tuples (N, g, ins).  Each recursion route is a generator that
yields the keys it needs and receives their values; one loop,
`_run_routes`, runs the routes on an explicit stack, so the depth of a
recursion chain is bounded by memory, not by the interpreter's recursion
limit.  The same loop runs the psi recursion and the point string route
of `gwrec.moduli` over their own caches.  No route re-enters
`Engine._invariant`: the genus-g route reaches its genus-0 chain brackets
through `yield from`, at a depth bounded by beta <= 3g - 2, and they yield
their factor keys like any route.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import NamedTuple

from .algebra import SymRat, c_factor, dot, exact_int


class InvariantKey(NamedTuple):
    """Canonical identity of one bracket: target dimension, genus, and the
    sorted multiset of insertions (m, k).  A plain tuple, so hashing and
    equality run in C; the recursions build it directly from pairs of ints
    that are already sorted, and `make` coerces and sorts outside input,
    raising ValueError on a non-integral entry."""

    N: int
    g: int
    ins: tuple

    @classmethod
    def make(cls, N, g, insertions) -> "InvariantKey":
        ins = tuple(sorted([(exact_int(m), exact_int(k)) for m, k in insertions]))
        return cls(exact_int(N), exact_int(g), ins)

    def degree(self):
        return degree_of(self.N, self.g, self.ins)

    def canonical(self) -> str:
        body = ",".join(f"({m},{k})" for m, k in self.ins)
        return f"gw[N={self.N};g={self.g};ins={body}]"

    def checked(self) -> "InvariantKey":
        """This key, once it is known to name a bracket: N >= 1, g >= 0 and
        every insertion with m >= 0 and 0 <= k <= N; ValueError otherwise."""
        if self.N < 1:
            raise ValueError("target dimension must be >= 1")
        if self.g < 0:
            raise ValueError("genus must be >= 0")
        for m, k in self.ins:
            if m < 0:
                raise ValueError(f"negative descendant level in {self.canonical()}")
            if not 0 <= k <= self.N:
                raise ValueError(
                    f"class exponent {k} outside [0, {self.N}] in {self.canonical()}"
                )
        return self

    @classmethod
    def parse(cls, text: str) -> "InvariantKey":
        if not (text.startswith("gw[") and text.endswith("]")):
            raise ValueError(f"malformed key: {text!r}")
        fields = [p.split("=", 1) for p in text[3:-1].split(";")]
        parts = dict(fields)
        if len(fields) != 3 or parts.keys() != {"N", "g", "ins"}:
            raise ValueError(f"key needs the fields N, g and ins once each: {text!r}")
        ins = []
        body = parts["ins"]
        if body:
            for chunk in body.split("),("):
                chunk = chunk.strip("()")
                m, k = chunk.split(",")
                ins.append((int(m), int(k)))
        return cls(int(parts["N"]), int(parts["g"]), tuple(sorted(ins)))


def _dim_excess(N: int, g: int, insertions) -> int:
    """Insertion degree minus the virtual dimension at degree zero: N + 1
    times the map degree the dimension constraint forces."""
    return sum(m + k for m, k in insertions) - (N - 3) * (1 - g) - len(insertions)


def degree_of(N: int, g: int, insertions):
    """The map degree forced by the dimension constraint, or None when no
    non-negative integer degree exists (the invariant is then zero)."""
    num = _dim_excess(N, g, insertions)
    if num % (N + 1):
        return None
    d = num // (N + 1)
    return d if d >= 0 else None


def _forced_class(N: int, g: int, insertions) -> int:
    """The one class exponent e in [0, N] that, added to the exponent of one
    of the insertions, makes the dimension excess a multiple of N + 1: the
    only class a splitting or chain factor can carry.  Whether the degree it
    forces is non-negative is left to the caller."""
    return -_dim_excess(N, g, insertions) % (N + 1)


def _without(ins, idx):
    return ins[:idx] + ins[idx + 1 :]


def _replace(ins, idx, new):
    return ins[:idx] + (new,) + ins[idx + 1 :]


def _weighted_splits(items):
    """The list of every split of the pairs `items` into (chosen, rest)
    tuples, by the size of the chosen part, then by its positions in
    lexicographic order, each with the sum of the chosen weights m + k - 1.
    The dimension excess is linear in those weights, so a caller carries
    it over the splits as this subset sum."""
    w = [m + k - 1 for m, k in items]
    n = len(items)
    out = []  # a list, built in C: a generator would cost a frame per split
    for r in range(n + 1):
        # The complements of the r-subsets in lexicographic order are the
        # (n - r)-subsets in reverse lexicographic order.
        others = list(combinations(items, n - r))
        others.reverse()
        out += zip(combinations(items, r), others, map(sum, combinations(w, r)))
    return out


def _splits(N, g, head, tail, free):
    """The (genus-0 key, genus-g key) pair of every split of the tuple
    `free`, by the size of the chosen part, then by its positions in
    lexicographic order, whose factors have a degree: head + chosen +
    tau_0(w^j) and tail + the rest + tau_0(w^(N-j)), j forced by the left
    factor."""
    # N + 1 times each factor's degree, before the chosen weights and j.
    a0 = _dim_excess(N, 0, head + ((0, 0),))
    b0 = _dim_excess(N, g, tail + free + ((0, N),))
    mod = N + 1
    new = tuple.__new__  # InvariantKey without its Python-level __new__
    for chosen, other, s in _weighted_splits(free):
        a = a0 + s
        j = -a % mod
        b = b0 - s - j
        if a + j < 0 or b < 0 or b % mod:
            continue
        left = tuple(sorted(head + chosen + ((0, j),)))
        right = tuple(sorted(tail + other + ((0, N - j),)))
        yield new(InvariantKey, (N, 0, left)), new(InvariantKey, (N, g, right))


def _forget_terms(N, g, X, d, k0):
    """The right side of the string (k0 = 0) or divisor (k0 = 1) equation
    for <tau_0(w^k0) X>_{g,d}, sorted X, as (coefficient, key) pairs: d <X>
    for the divisor equation, then, in X's order, <X> with one descendant
    tau_m(w^k) lowered to tau_(m-1)(w^(k+k0)) where k + k0 <= N."""
    if k0:
        yield d, InvariantKey(N, g, X)
    for i, (m, k) in enumerate(X):
        if m >= 1 and k + k0 <= N:
            yield 1, InvariantKey(N, g, tuple(sorted(_replace(X, i, (m - 1, k + k0)))))


def _reduction_valid(d, g, n) -> bool:
    # Forgetting a point needs a stable target: positive degree, or enough
    # remaining points on the curve.
    return d > 0 or 2 * g - 2 + (n - 1) > 0


def _harmonic(d, s) -> Fraction:
    """H_d^(s) = sum_{r<=d} r^(-s), summed as an integer numerator over an
    integer denominator and reduced once."""
    num, den = 0, 1
    for r in range(1, d + 1):
        rs = r**s
        num, den = num * rs + den, den * rs
    return Fraction(num, den)


def _g0_one(N, A, d) -> Fraction:
    """The genus-0 one-point bracket <tau_m(w^a)>_{0,d}, A = (m, a), from
    Givental's J-function of P^N:

        [x^(N-a)] prod_{r=1}^{d} (1 + x/r)^(-(N+1)) / d!^(N+1),

    the coefficient read off exp(-(N+1) sum_s (-1)^(s-1) H_d^(s) x^s / s)
    with the harmonic sums H_d^(s) = sum_{r<=d} r^(-s), s <= N - a.  The
    level m is fixed by d and a through the dimension constraint."""
    _, a = A
    if d <= 0:
        return Fraction(0)
    n = N - a
    # c[s] is s times the x^s coefficient of the exponent; b[k] is the x^k
    # coefficient of its exponential, from k b[k] = sum_s c[s] b[k - s].
    c = [None] + [(N + 1) * (-1) ** s * _harmonic(d, s) for s in range(1, n + 1)]
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(sum(c[s] * b[k - s] for s in range(1, k + 1)) / k)
    return b[n] / factorial(d) ** (N + 1)


def _run_routes(key, cache, compute):
    """The value of `key`, a key missing from `cache`, where `compute(key)`
    is its route: a generator that yields each key it needs, is sent that
    key's value and returns its own.  Each route on the stack runs until it
    yields a key missing from the cache, which is pushed in turn; a finished
    route's value is cached and sent to the route below it."""
    stack = [(key, compute(key))]
    pending = {key}
    val = None
    while True:
        top, route = stack[-1]
        try:
            need = route.send(val)
        except StopIteration as done:
            val = cache[top] = done.value
            stack.pop()
            pending.remove(top)
            if not stack:
                return val
            continue
        val = cache.get(need)
        if val is None:
            # A key already waiting on this stack would wait forever.
            if need in pending:
                raise RecursionError(f"{need!r} depends on its own value")
            stack.append((need, compute(need)))
            pending.add(need)


class Engine:
    """Memoized evaluator on an explicit stack.  `_compute(key)` returns the
    key's route as a generator that yields the keys it needs; `_invariant`
    runs it with `_run_routes` over `Engine.cache`, never recursing through
    the interpreter.  No route re-enters `_invariant`; chain brackets are
    memoized in `_bb_memo`, apart from the key cache.  All methods are
    pure; the caches only ever receive idempotent writes, so concurrent use
    is safe."""

    def __init__(self):
        self.cache: dict = {}
        self._bb_memo: dict = {}

    # ------------------------------------------------------------------
    # public entry points

    def invariant(self, N, g, insertions) -> SymRat:
        val = self._invariant(InvariantKey.make(N, g, insertions).checked())
        return val if isinstance(val, SymRat) else SymRat._make(val)

    def _invariant(self, key: InvariantKey):
        """The value of `key` from `Engine.cache` or its route; a key no
        degree fits is zero and is not memoized."""
        val = self.cache.get(key)
        if val is not None:
            return val
        if key.degree() is None:
            return Fraction(0)
        return _run_routes(key, self.cache, self._compute)

    # ------------------------------------------------------------------
    # dispatch

    def _compute(self, key: InvariantKey):
        """The route that evaluates `key`, as a generator: it yields each
        key it needs, is sent that key's value, and returns its own."""
        N, g, ins = key
        n = len(ins)
        d = degree_of(N, g, ins)
        # No degree fits, or a constant map from an unstable curve: either
        # way the key names no bracket.
        if d is None or (d == 0 and 2 * g - 2 + n <= 0):
            return Fraction(0)

        if _reduction_valid(d, g, n):
            for k0 in (0, 1):  # the string, then the divisor equation
                if (0, k0) in ins:
                    rest = _without(ins, ins.index((0, k0)))
                    terms = []
                    for c, need in _forget_terms(N, g, rest, d, k0):
                        terms.append((c, (yield need)))
                    return dot(terms)
            if (1, 0) in ins:
                rest = _without(ins, ins.index((1, 0)))
                return (2 * g - 2 + n - 1) * (yield InvariantKey(N, g, rest))

        top = max((m for m, _ in ins), default=0)
        if g == 0:
            if n == 0:
                return Fraction(int(N == 1 and d == 1))
            if n == 1:
                return _g0_one(N, ins[0], d)
            if n == 2:
                return (yield from self._g0_two(N, ins, d))
            if top >= 1:
                return (yield from self.trr0_expand(N, ins))
            return (yield from self.wdvv_primary(N, ins, d))

        if g == 1 and top >= 1:
            return (yield from self._genus1_trr(key))

        if g >= 2 and top >= 3 * g - 1:
            return (yield from self.trrg_expand(N, g, ins, self._pivot(ins)))

        # Unreachable by the implemented recursions: keep it symbolic.
        return SymRat.atom(key.canonical())

    @staticmethod
    def _pivot(ins) -> int:
        """Distinguished insertion of the sorted, non-empty `ins`: maximal
        level, then minimal exponent, so the first at the top level."""
        return bisect_left(ins, (ins[-1][0],))

    # ------------------------------------------------------------------
    # genus zero, two insertions and primaries.  `_compute` answers n = 0
    # and the closed-form one-point function (`_g0_one`) itself.  Both
    # routes here solve the divisor equation for one of its terms through
    # `_solve_divisor`, as the divisor rule would loop back into them.

    def _g0_two(self, N, ins, d):
        (m1, k1), (m2, k2) = ins
        if k1 == N and k2 == N:
            return Fraction(
                1, c_factor(N + 1, m1) * c_factor(N + 1, m2) * d
            )
        # Two primaries at d >= 1 are both tau_0(pt), so the sorted pair is
        # a primary and a descendant when m1 == 0.
        if m1 == 0 and k2 == N:
            return Fraction(1, c_factor(N + 1, m2) * d)
        return (yield from self._solve_divisor(N, ins, d, ins))

    def wdvv_primary(self, N, ins, d):
        """The route of a primary key, sorted `ins` with n >= 3: the triple
        intersection at d = 0.  At d >= 1 `_compute` has taken the string
        and divisor rules, so every class is >= 2, and with a the smallest
        <tau_0(w^a) Y>_d = <tau_0(w) tau_1(w^(a-1)) Y>_d
        - d <tau_1(w^(a-1)) Y>_d.  Its factors are yielded like any
        route's, as no route re-enters `_invariant`.  The name is kept for
        the benchmark."""
        if d == 0:
            return Fraction(int(len(ins) == 3))
        # Sorted, since every other insertion is tau_0 of a class >= 2.
        lowered = ins[1:] + ((1, ins[0][1] - 1),)
        return (yield from self._solve_divisor(N, lowered, d, ins))

    def _solve_divisor(self, N, X, d, unknown):
        """The genus-0 bracket of the sorted insertions `unknown`, one of
        the terms of the divisor equation for <tau_0(w) X>_d, sorted X:
        <tau_0(w) X>_d from `trr0_expand`, less the equation's other terms,
        keys of degree d yielded like any route's, over the unknown's
        coefficient (d when it is X itself, 1 for a lowered X)."""
        val = yield from self.trr0_expand(N, tuple(sorted(((0, 1),) + X)))
        for c, key in _forget_terms(N, 0, X, d, 1):
            if key.ins == unknown:
                coef = c
            else:
                val -= c * (yield key)
        return val / coef

    # ------------------------------------------------------------------
    # genus-0 topological recursion

    def trr0_expand(self, N, ins):
        """The route of the genus-0 bracket of sorted `ins`, at least three
        insertions and one a descendant, by the topological recursion
        pivoting on `_pivot(ins)`: the two co-pivots are the first two
        remaining insertions in canonical order, every splitting of the
        rest is distributed over the two factors, and the splitting class
        is forced by dimension.  The name is kept for the benchmark."""
        piv = self._pivot(ins)
        m, k = ins[piv]
        rest = _without(ins, piv)
        terms = []
        for k1, k2 in _splits(N, 0, ((m - 1, k),), rest[:2], rest[2:]):
            # A zero left factor leaves the right one unread: it may be a
            # primary whose own evaluation is waiting on this bracket.
            v1 = yield k1
            if v1:
                terms.append((v1, (yield k2)))
        return dot(terms)

    # ------------------------------------------------------------------
    # genus-1 topological recursion

    def _genus1_trr(self, key: InvariantKey):
        N, _, ins = key
        piv = self._pivot(ins)
        m, k = ins[piv]
        rest = _without(ins, piv)
        terms = []
        for k0, k1 in _splits(N, 1, ((m - 1, k),), (), rest):
            terms.append(((yield k0), (yield k1)))
        # Contracted-handle term, 1/24 of the full dual-basis sum.
        handle = Fraction(1, 24)
        for j in range(N + 1):
            ins0 = tuple(sorted(rest + ((m - 1, k), (0, j), (0, N - j))))
            terms.append((handle, (yield InvariantKey(N, 0, ins0))))
        return dot(terms)

    # ------------------------------------------------------------------
    # genus-g topological recursion and its genus-0 chain brackets

    def beta_bracket(self, N, first_class, pivot, extras, beta):
        """The route of the genus-0 chain bracket: first insertion
        tau_0(w^first_class), distinguished descendant tau_m(w^k) given by
        pivot=(m, k), the sorted tuple `extras` distributed over the chain
        factors, chain depth controlled by beta.  At beta = 0 it is the
        bracket <tau_0(w^first_class) tau_m(w^k) extras>_0; above, the
        bracket with the pivot raised a level, minus, over each split of
        the extras into (L, R), the factor <tau_m(w^k) L tau_0(w^e)>_0
        times the bracket with pivot tau_0(w^(N-e)), extras R and beta - 1.
        Values live in `_bb_memo`, never in `Engine.cache`, whose records
        `save_cache` writes out.  The name is kept for the benchmark."""
        m, k = pivot
        memo_key = (N, first_class, m, k, extras, beta)
        val = self._bb_memo.get(memo_key)
        if val is not None:
            return val
        if beta == 0:
            ins = tuple(sorted(((0, first_class), (m, k)) + extras))
            val = yield InvariantKey(N, 0, ins)
        else:
            val = yield from self.beta_bracket(
                N, first_class, (m + 1, k), extras, beta - 1
            )
            # The dimension excess of <tau_m(w^k) L tau_0(w^e)>_0 at e = 0,
            # less the weights of L.
            a0 = _dim_excess(N, 0, ((m, k), (0, 0)))
            for left, right, s in _weighted_splits(extras):
                e = -(a0 + s) % (N + 1)
                f = yield InvariantKey(N, 0, tuple(sorted(((m, k), (0, e)) + left)))
                if f:
                    val -= f * (yield from self.beta_bracket(
                        N, first_class, (0, N - e), right, beta - 1
                    ))
        # Plain assignment, not setdefault: the benchmark's tracer counts
        # the memo's inserts.
        self._bb_memo[memo_key] = val
        return val

    def trrg_expand(self, N, g, ins, pivot_index):
        """The route of a genus-g key whose pivot is at level >= 3g - 1: a
        nonzero chain bracket times the value of a genus-g key, summed over
        the split of the contact order 3g-2 and over all distributions of
        the remaining insertions.  The name is kept for the benchmark."""
        m, k = ins[pivot_index]
        rest = _without(ins, pivot_index)
        mm = m - (3 * g - 1)
        # The dimension excess of <R tau_alpha(w^j)>_g at alpha = j = 0 with
        # R all of `rest`; a split takes the weights of L off it.
        c0 = _dim_excess(N, g, rest + ((0, 0),))
        terms = []
        for alpha in range(3 * g - 1):
            beta = 3 * g - 2 - alpha
            for left, right, s in _weighted_splits(rest):
                c = c0 + alpha - s
                j = -c % (N + 1)
                if c + j < 0:
                    continue
                gkey = InvariantKey(N, g, tuple(sorted(right + ((alpha, j),))))
                bb = yield from self.beta_bracket(N, N - j, (mm, k), left, beta)
                if bb:
                    terms.append((bb, (yield gkey)))
        return dot(terms)

    # ------------------------------------------------------------------
    # the non-quasi-polynomial witness

    def counterexample_f(self, m: int) -> Fraction:
        """c_2(m) times the three-point bracket with one level-m unit
        insertion and two point insertions on the projective line.  Nonzero
        only for odd m (dimension parity)."""
        if m < 1:
            raise ValueError("m out of range")
        v = self._invariant(InvariantKey(1, 0, ((0, 1), (0, 1), (m, 0))))
        return v * c_factor(2, m)


DEFAULT_ENGINE = Engine()
