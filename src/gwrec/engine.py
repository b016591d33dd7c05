"""Evaluator for descendant Gromov-Witten invariants of projective space.

Values are exact: a rational number plus a Q-linear combination of atoms,
one atom per invariant the implemented recursions cannot reach (genus >= 2
with all descendant levels below threshold, and the genus-1 primary
survivors).  The memo holds every genus-0 value as a plain Fraction (a
higher-genus value is a SymRat, or a Fraction where no SymRat entered it);
`Engine.invariant` returns a SymRat.  Each recursion step sums its product
terms in one `dot`.  The genus-0 and genus-1 recursions split insertions
by one generator, `_splits`, that carries the dimension excess.

The degree of a map is never stored: it is derived from the dimension
constraint of the key and a key whose derived degree is fractional or
negative evaluates to zero.

Keys are tuples (N, g, ins).  Each recursion route is a generator that
yields the keys it needs and receives their values; one loop runs the
routes on an explicit stack, so the depth of a recursion chain is bounded
by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import NamedTuple

from .algebra import SymRat, bipartitions, c_factor, compositions, dot, exact_int


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


def _splits(N, g, head, tail, free):
    """The (genus-0 key, genus-g key) pair of every split of the tuple
    `free`, in `bipartitions` order, whose factors have a degree:
    head + chosen + tau_0(w^j) and tail + the rest + tau_0(w^(N-j)), j
    forced by the left factor.  The dimension excess is linear in the
    weights m + k - 1, so it is carried as a subset sum of the weights."""
    # N + 1 times each factor's degree, before the chosen weights and j.
    a0 = sum(m + k - 1 for m, k in head) - 1 - (N - 3)
    w = [m + k - 1 for m, k in free]
    b0 = sum(m + k - 1 for m, k in tail) + sum(w) + N - 1 - (N - 3) * (1 - g)
    mod = N + 1
    new = tuple.__new__  # InvariantKey without its Python-level __new__
    n = len(free)
    for r in range(n + 1):
        # The complements of the r-subsets in lexicographic order are the
        # (n - r)-subsets in reverse lexicographic order.
        others = list(combinations(free, n - r))
        others.reverse()
        for chosen, other, s in zip(
            combinations(free, r), others, map(sum, combinations(w, r))
        ):
            a = a0 + s
            j = -a % mod
            b = b0 - s - j
            if a + j < 0 or b < 0 or b % mod:
                continue
            left = tuple(sorted(head + chosen + ((0, j),)))
            right = tuple(sorted(tail + other + ((0, N - j),)))
            yield new(InvariantKey, (N, 0, left)), new(InvariantKey, (N, g, right))


def _reduction_valid(d, g, n) -> bool:
    # Forgetting a point needs a stable target: positive degree, or enough
    # remaining points on the curve.
    return d > 0 or 2 * g - 2 + (n - 1) > 0


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
    c = [None] + [
        (N + 1) * (-1) ** s * sum(Fraction(1, r**s) for r in range(1, d + 1))
        for s in range(1, n + 1)
    ]
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(sum(c[s] * b[k - s] for s in range(1, k + 1)) / k)
    return b[n] / factorial(d) ** (N + 1)


class Engine:
    """Memoized evaluator on an explicit stack.  `_compute(key)` returns the
    key's route as a generator that yields the keys it needs; `_invariant`
    answers each from the cache or pushes it, and never recurses through
    the interpreter.  All methods are pure; the caches only ever receive
    idempotent writes, so concurrent use is safe."""

    def __init__(self):
        self.cache: dict = {}
        self._bb_memo: dict = {}
        self._wdvv_memo: dict = {}

    # ------------------------------------------------------------------
    # public entry points

    def invariant(self, N, g, insertions) -> SymRat:
        val = self._invariant(InvariantKey.make(N, g, insertions).checked())
        return val if isinstance(val, SymRat) else SymRat._make(val)

    def _invariant(self, key: InvariantKey):
        """The value of `key`: each route on the stack runs until it yields
        a key missing from the cache, which is pushed in turn; a finished
        route's value is cached and sent to the route below it.  A key no
        degree fits is zero and is not memoized."""
        cache = self.cache
        val = cache.get(key)
        if val is not None:
            return val
        if key.degree() is None:
            return Fraction(0)
        stack = [(key, self._compute(key))]
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
                    raise RecursionError(
                        f"{need.canonical()} depends on its own value"
                    )
                stack.append((need, self._compute(need)))
                pending.add(need)

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

        if (0, 0) in ins and _reduction_valid(d, g, n):
            return (yield from self._string(key))
        if (0, 1) in ins and _reduction_valid(d, g, n):
            return (yield from self._divisor(key, d))
        if (1, 0) in ins and _reduction_valid(d, g, n):
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
                return (yield from self._trr0(N, ins))
            return self.wdvv_primary(N, [k for _, k in ins])

        if g == 1 and top >= 1:
            return (yield from self._genus1_trr(key))

        if g >= 2 and top >= 3 * g - 1:
            terms = []
            for bb, gkey in self.trrg_expand(N, g, ins, self._pivot(ins)):
                terms.append((bb, (yield gkey)))
            return dot(terms)

        # Unreachable by the implemented recursions: keep it symbolic.
        return SymRat.atom(key.canonical())

    @staticmethod
    def _pivot(ins) -> int:
        """Distinguished insertion: maximal level, then minimal exponent,
        then first in canonical order."""
        best = None
        for i, (m, k) in enumerate(ins):
            if best is None or (m, -k) > (ins[best][0], -ins[best][1]):
                best = i
        return best

    def _string(self, key: InvariantKey):
        N, g, ins = key
        rest = _without(ins, ins.index((0, 0)))
        terms = []
        for i, (m, k) in enumerate(rest):
            if m >= 1:
                new = _replace(rest, i, (m - 1, k))
                terms.append((1, (yield InvariantKey(N, g, tuple(sorted(new))))))
        return dot(terms)

    def _divisor(self, key: InvariantKey, d):
        N, g, ins = key
        rest = _without(ins, ins.index((0, 1)))
        terms = [(d, (yield InvariantKey(N, g, rest)))]
        for i, (m, k) in enumerate(rest):
            if m >= 1 and k < N:
                new = _replace(rest, i, (m - 1, k + 1))
                terms.append((1, (yield InvariantKey(N, g, tuple(sorted(new))))))
        return dot(terms)

    # ------------------------------------------------------------------
    # genus zero, two insertions.  `_compute` answers n = 0 and the
    # closed-form one-point function (`_g0_one`) itself; this route holds
    # the two stationary closed forms and otherwise raises the key by a
    # divisor insertion through `_trr0`, then peels the divisor rule's
    # correction terms, two-point keys of the same degree d that it yields
    # like any route, so `Engine.cache` is their memo.

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
        three = yield from self._trr0(N, tuple(sorted(((0, 1),) + ins)))
        corr = Fraction(0)
        for i, (m, k) in enumerate(ins):
            if m >= 1 and k < N:
                new = _replace(ins, i, (m - 1, k + 1))
                corr += yield InvariantKey(N, 0, tuple(sorted(new)))
        return (three - corr) / d

    # ------------------------------------------------------------------
    # genus-0 topological recursion

    def _trr0(self, N, ins):
        """The genus-0 bracket of sorted `ins` (at least three insertions,
        one a descendant) by the topological recursion.  The two-point
        reductions call it directly for their three-point bracket, since the
        divisor rule would loop back into them."""
        terms = []
        for k1, k2 in self.trr0_expand(N, 0, ins, self._pivot(ins)):
            terms.append(((yield k1), (yield k2)))
        return dot(terms)

    def trr0_expand(self, N, g, insertions, pivot_index):
        """The (k1, k2) key pairs of the genus-0 recursion pivoting on the
        given insertion: the bracket is the sum of the products of their
        values.  The two co-pivots are the first two remaining insertions in
        canonical order; every splitting of the rest is distributed over the
        two factors and the splitting class is forced by dimension."""
        ins = tuple(sorted((exact_int(m), exact_int(k)) for m, k in insertions))
        if g != 0:
            raise ValueError("trr0_expand is genus-0 only")
        if len(ins) < 3:
            raise ValueError("trr0_expand needs at least three insertions")
        m, k = ins[pivot_index]
        if m < 1:
            raise ValueError("pivot has zero descendant level")
        rest = _without(ins, pivot_index)
        return list(_splits(N, 0, ((m - 1, k),), rest[:2], rest[2:]))

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

    def beta_bracket(self, N, first_class, pivot, extras, beta) -> Fraction:
        """The genus-0 chain bracket: first insertion tau_0(w^first_class),
        distinguished descendant tau_m(w^k) given by pivot=(m, k), extras
        distributed over the chain factors, chain depth controlled by beta.

        Computed by both the alternating-sum formula and the shift/subtract
        recursion; the two must agree and the shared value is returned.
        """
        if beta < 0:
            raise ValueError("beta must be >= 0")
        # The chain factors' keys are built from these without coercion.
        first_class, m, k = map(exact_int, (first_class, pivot[0], pivot[1]))
        extras = tuple(sorted((exact_int(a), exact_int(b)) for a, b in extras))
        memo_key = (N, first_class, m, k, extras, beta)
        if memo_key in self._bb_memo:
            return self._bb_memo[memo_key]
        alt = self._bb_sum(N, first_class, m, k, extras, beta)
        rec = self._bb_rec(N, first_class, m, k, extras, beta)
        if alt != rec:
            raise AssertionError(
                f"beta-bracket routes disagree at {memo_key}: {alt} vs {rec}"
            )
        self._bb_memo[memo_key] = alt
        return alt

    def _bb_sum(self, N, first_class, m, k, extras, beta) -> Fraction:
        total = Fraction(0)
        ne = len(extras)
        for kk in range(1, beta + 2):
            for comp in compositions(beta + 1 - kk, kk):
                for assign in product(range(kk), repeat=ne):
                    groups = [[] for _ in range(kk)]
                    for idx, grp in zip(range(ne), assign):
                        groups[grp].append(extras[idx])
                    prod = Fraction(1)
                    c = first_class
                    ok = True
                    for i in range(kk):
                        if i < kk - 1:
                            base = [(0, c)] + groups[i]
                            e = _forced_class(N, 0, [(comp[i], 0)] + base)
                            factor_ins = base + [(comp[i], e)]
                            nxt = N - e
                        else:
                            factor_ins = [(0, c), (comp[i] + m, k)] + groups[i]
                            nxt = None
                        v = self._chain_factor(N, factor_ins)
                        if v == 0:
                            ok = False
                            break
                        prod *= v
                        c = nxt
                    if ok:
                        total += (-1) ** (kk - 1) * prod
        return total

    def _bb_rec(self, N, first_class, m, k, extras, beta) -> Fraction:
        if beta == 0:
            return self._chain_factor(N, [(0, first_class), (m, k), *extras])
        total = self.beta_bracket(N, first_class, (m + 1, k), extras, beta - 1)
        for left, right in bipartitions(extras):
            head = [(m, k)] + left
            e = _forced_class(N, 0, head + [(0, 0)])
            f = self._chain_factor(N, head + [(0, e)])
            if f != 0:
                total -= f * self.beta_bracket(
                    N, first_class, (0, N - e), tuple(right), beta - 1
                )
        return total

    def _chain_factor(self, N, ins) -> Fraction:
        """The genus-0 chain factor with insertions `ins`."""
        return self._invariant(InvariantKey(N, 0, tuple(sorted(ins))))

    def trrg_expand(self, N, g, insertions, pivot_index):
        """The (bb, gkey) terms of the genus-g recursion: a nonzero chain
        bracket, a Fraction, times the value of a genus-g key, over the
        split of the contact order 3g-2 and over all distributions of the
        remaining insertions."""
        ins = tuple(sorted((exact_int(m), exact_int(k)) for m, k in insertions))
        if g < 1:
            raise ValueError("trrg_expand needs genus >= 1")
        m, k = ins[pivot_index]
        if m < 3 * g - 1:
            raise ValueError(
                f"pivot level {m} below the genus-{g} threshold {3 * g - 1}"
            )
        rest = _without(ins, pivot_index)
        mm = m - (3 * g - 1)
        terms = []
        for alpha in range(3 * g - 1):
            beta = 3 * g - 2 - alpha
            for left, right in bipartitions(rest):
                j = _forced_class(N, g, right + [(alpha, 0)])
                gkey = InvariantKey(N, g, tuple(sorted(right + [(alpha, j)])))
                if gkey.degree() is None:
                    continue
                bb = self.beta_bracket(N, N - j, (mm, k), left, beta)
                if bb == 0:
                    continue
                terms.append((bb, gkey))
        return terms

    # ------------------------------------------------------------------
    # genus-0 primary oracle via associativity

    def wdvv_primary(self, N, class_exponents) -> Fraction:
        """Genus-0 primary invariants from associativity of the quantum
        product, seeded by the triple intersections at degree zero and the
        two-point count <pt, pt>_1 = 1."""
        exps = tuple(sorted(int(a) for a in class_exponents))
        if any(not 0 <= a <= N for a in exps):
            raise ValueError("class exponent out of range")
        memo_key = (N, exps)
        if memo_key in self._wdvv_memo:
            return self._wdvv_memo[memo_key]
        val = self._wdvv(N, exps)
        self._wdvv_memo[memo_key] = val
        return val

    def _wdvv(self, N, exps) -> Fraction:
        d = degree_of(N, 0, [(0, a) for a in exps])
        n = len(exps)
        if d is None:
            return Fraction(0)
        if d == 0:
            return Fraction(1) if n == 3 else Fraction(0)
        if n <= 1:
            # <>_{0,1} and <pt>_{0,1} of the line are the only ones admissible.
            return Fraction(int(N == 1 and d == 1))
        if n == 2:
            return Fraction(1) if (exps == (N, N) and d == 1) else Fraction(0)
        if exps[0] == 0:
            return Fraction(0)
        if exps[0] == 1:
            return d * self.wdvv_primary(N, exps[1:])
        # All exponents >= 2.  Split w^a = w . w^(a-1) with a the smallest
        # exponent and move one unit onto the largest; the associativity
        # relation for (w, w^(a-1); w^b, w^c | E) vs (w, w^b; w^(a-1), w^c | E)
        # then isolates the requested invariant.
        a = exps[0]
        rest = sorted(exps[1:], reverse=True)
        b, c = rest[0], rest[1]
        E = tuple(sorted(rest[2:]))
        lhs = self._wdvv_f(N, (1, a - 1), (b, c), E, skip=N - a)
        rhs = self._wdvv_f(N, (1, b), (a - 1, c), E, skip=None)
        return rhs - lhs

    def _wdvv_f(self, N, pair1, pair2, E, skip) -> Fraction:
        """One side of the associativity identity: sum over splittings of E
        of products of two primary invariants, the dual class forced by the
        left factor.  The term with none of E on the left and dual exponent
        `skip` is omitted so the caller can solve for it."""
        total = Fraction(0)
        for chosen, other in bipartitions(E):
            left = list(pair1) + chosen
            e = _forced_class(N, 0, [(0, a) for a in left + [0]])
            if e == skip and not chosen:
                continue
            f1 = self.wdvv_primary(N, left + [e])
            if f1 == 0:
                continue
            f2 = self.wdvv_primary(N, list(pair2) + other + [N - e])
            if f2 == 0:
                continue
            total += f1 * f2
        return total

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
