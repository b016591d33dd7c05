"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line.  Every equality is an exact rational identity; the only tolerance is
the explicit deviation bound of the asymptotics criterion.

Two clauses are expected to fail and are reported honestly rather than
weakened: the two-step recursion printed for the non-quasi-polynomial
example (criterion 11) contradicts the values forced by the recursions
themselves, and the zero-atom-part clause at (g, n) = (2, 1) in criterion 4
cannot hold while sub-threshold genus-2 brackets stay symbolic.  See the
test docstrings for the verified replacements.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest

from gwrec.algebra import MultiPoly, SymRat, c_factor, ceil_div
from gwrec.engine import DEFAULT_ENGINE as E
from gwrec.engine import degree_of
from gwrec.eo import compare_eo_gw, eo_string_dilaton_check, pole_asymptotics_check
from gwrec.moduli import (
    n0_polynomial,
    point_invariant_closed,
    point_invariant_string,
    psi_intersection,
)
from gwrec.quasifit import (
    FitSpec,
    asymptotics_report,
    fit_stationary,
    stationary_family,
    stationary_parity,
    verify_negative_evaluation,
    verify_p_string_divisor,
    verify_top_coefficients,
)

ATOMS = {"gw[N=1;g=1;ins=(0,1)]": Fraction(-1, 24)}


def report(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {mark} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_one_point_formula():
    ok = True
    for N in (1, 2, 3):
        for d in range(1, 6):
            m = (N + 1) * d - 2
            got = E.invariant(N, 0, [(m, N)])
            if got != Fraction(1, factorial(d) ** (N + 1)):
                ok = False
    report(1, "genus-0 one-point closed form", ok)


def test_criterion_02_two_point_consistency():
    # Three- and four-point stationary values, c-normalised, reduce to the
    # two-point closed forms through the stationary string and divisor
    # equations on a grid m <= 10.
    ok = True
    details = []
    for N in (1, 2, 3):
        for n in (2, 3):
            rep = verify_p_string_divisor(N, 0, n, max_m=10)
            details.append(f"N={N},n={n}:{rep.status}")
            ok = ok and rep.status == "pass"
    report(2, "string/divisor reduction to two-point forms", ok, " ".join(details))


def _ceil_linear(nvars, slot, residue, mod, shift=0):
    """ceil((m - shift)/mod) restricted to m = residue (mod mod), as a
    polynomial in the slot variable."""
    c = (-(residue - shift)) % mod
    e = [0] * nvars
    e[slot] = 1
    return MultiPoly(
        nvars, {tuple(e): Fraction(1, mod), (0,) * nvars: Fraction(c - shift, mod)}
    )


def _bar(r, N):
    return (r + N) % (N + 1)


def _table_row(g, n, N, residues):
    mod = N + 1
    if (g, n) == (0, 3):
        return MultiPoly.const(3, 1)
    if (g, n) == (0, 4):
        poly = MultiPoly(4)
        for i in range(4):
            poly = poly + _ceil_linear(4, i, residues[i], mod)
        const = E.invariant(N, 0, [(0, _bar(r, N)) for r in residues])
        return poly + MultiPoly.const(4, const)
    if (g, n) == (1, 1):
        poly = Fraction(mod, 24) * _ceil_linear(1, 0, residues[0], mod)
        const = E.invariant(N, 1, [(0, 1)])
        return poly + MultiPoly.const(1, const)
    if (g, n) == (1, 2):
        r1, r2 = residues
        quad = MultiPoly(2)
        for i, r in enumerate(residues):
            quad = quad + _ceil_linear(2, i, r, mod) * _ceil_linear(2, i, r, mod, 1)
        quad = quad + _ceil_linear(2, 0, r1, mod) * _ceil_linear(2, 1, r2, mod)
        poly = Fraction(mod, 24) * quad
        for i, j in ((0, 1), (1, 0)):
            const = E.invariant(
                N, 1, [(0, _bar(residues[i] - 1, N)), (1, _bar(residues[j], N))]
            )
            poly = poly + const * _ceil_linear(2, i, residues[i], mod)
        tail = E.invariant(N, 1, [(0, _bar(r1, N)), (0, _bar(r2, N))])
        return poly + MultiPoly.const(2, tail)
    raise AssertionError((g, n))


def test_criterion_03_table_reproduction():
    ok = True
    details = []
    for N in (1, 2):
        for g, n in ((0, 3), (0, 4), (1, 1), (1, 2)):
            q = fit_stationary(FitSpec(N=N, g=g, n=n, min_m=0))
            good = True
            for res, poly in q.branches.items():
                if poly != _table_row(g, n, N, res):
                    good = False
            details.append(f"N={N}({g},{n}):{'ok' if good else 'BAD'}")
            ok = ok and good
        fam = stationary_family(N, 0, 2)
        for m1 in range(0, 8):
            for m2 in range(0, 8):
                if fam.value((m1, m2)) != Fraction(N + 1, m1 + m2 + N + 1):
                    ok = False
    report(3, "explicit table rows incl. symbolic constants", ok, " ".join(details))


def test_criterion_04_top_coefficients_genus_le_1():
    ok = True
    details = []
    for N in (1, 2):
        for g, n in ((0, 4), (0, 5), (1, 1), (1, 2)):
            q = fit_stationary(FitSpec(N=N, g=g, n=n))
            rep = verify_top_coefficients(q, g, n, N)
            details.append(f"N={N}({g},{n}):{rep.status}")
            ok = ok and rep.status == "pass"
    report(4, "top coefficients are scaled psi numbers (genus <= 1)", ok,
           " ".join(details))


def test_criterion_04_top_coefficients_genus_2():
    """The genus-2 clause as stated: top coefficients atom-free.  The fit
    necessarily carries the sub-threshold genus-2 brackets symbolically and
    the m^4 coefficient is a combination of them (its coefficient of
    <tau_4(pt)>_{d=1} is [m(m-2)/4]^2 on the even coset, in closed form),
    so the clause fails; the combination resolves to the correct
    (N+1)^(-2) <tau_4>_2, which is verified independently in the expansion
    tests.  Reported honestly rather than weakened."""
    ok = True
    details = []
    for N in (1, 2):
        q = fit_stationary(FitSpec(N=N, g=2, n=1, min_m=5))
        rep = verify_top_coefficients(q, 2, 1, N)
        details.append(f"N={N}(2,1):{rep.status}")
        ok = ok and rep.status == "pass"
        # the resolved value is nevertheless the scaled psi number
        top = q.branches[sorted(q.branches)[0]].coeff((4,))
        if N == 1:
            resolved = top.resolve(
                {
                    "gw[N=1;g=2;ins=(2,1)]": Fraction(7, 5760),
                    "gw[N=1;g=2;ins=(3,0)]": Fraction(-1, 240),
                    "gw[N=1;g=2;ins=(4,1)]": Fraction(1, 1920),
                }
            )
            assert resolved == Fraction(N + 1) ** (-2) * psi_intersection(2, (4,))
    report(4, "genus-2 top coefficients atom-free as stated", ok, " ".join(details))


def _grid(lo, n):
    if n == 1:
        vals = list(range(lo, 13))
    elif n == 2:
        vals = sorted(set([lo, lo + 1, lo + 2, lo + 5, 12]))
    else:
        vals = sorted(set([lo, lo + 2, lo + 5, 12]))
    return list(combinations_with_replacement(vals, n))


def test_criterion_05_negative_evaluation():
    ok = True
    checked = 0
    for N in (1, 2):
        for g in (0, 1):
            lo = max(0, 3 * g - 1)
            kvecs = [()]
            kvecs += [(k,) for k in range(N + 1)]
            kvecs += [
                ks for ks in combinations_with_replacement(range(N + 1), 2)
            ]
            for ks in kvecs:
                for n in (1, 2, 3):
                    if n + len(ks) <= 2:
                        continue
                    for ms in _grid(lo, n):
                        rep = verify_negative_evaluation(N, g, ks, ms)
                        checked += 1
                        if rep.status != "pass":
                            ok = False
                            print("   counterexample:", rep.to_obj())
    report(5, "primary insertions are negative stationary arguments", ok,
           f"{checked} points")


def test_criterion_06_point_theory_closed_form():
    ok = True
    for g in (0, 1, 2):
        for n in (1, 2, 3):
            for d in range(0, 7):
                total = 3 * g - 3 + n + d
                if total < 0 or 2 * g - 2 + n + d <= 0:
                    continue
                for m in combinations_with_replacement(range(total + 1), n):
                    if sum(m) != total:
                        continue
                    if point_invariant_closed(g, m, d) != point_invariant_string(
                        g, m, d
                    ):
                        ok = False
    for g, n in ((0, 3), (0, 4), (1, 1), (1, 2), (2, 1)):
        poly = n0_polynomial(g, n).branches[(0,) * n]
        D = 3 * g - 3 + n
        for e in product(range(D + 1), repeat=n):
            if sum(e) == D and poly.coeff(e) != psi_intersection(g, e):
                ok = False
    report(6, "point-theory routes agree; polynomial tops are psi numbers", ok)


def test_criterion_07_psi_oracle():
    ok = (
        psi_intersection(0, (0, 0, 0)) == 1
        and psi_intersection(1, (1,)) == Fraction(1, 24)
        and psi_intersection(2, (4,)) == Fraction(1, 1152)
    )
    for g in (0, 1, 2):
        for n in range(1, 5):
            total = 3 * g - 2 + n
            if total >= 0 and 2 * g - 2 + n > 0:
                for d in combinations_with_replacement(range(total + 1), n):
                    if sum(d) != total:
                        continue
                    lhs = psi_intersection(g, (0,) + d)
                    rhs = sum(
                        psi_intersection(g, d[:i] + (d[i] - 1,) + d[i + 1 :])
                        for i in range(n)
                        if d[i] >= 1
                    )
                    if lhs != rhs:
                        ok = False
            total = 3 * g - 3 + n
            if total >= 0 and 2 * g - 2 + n > 0:
                for d in combinations_with_replacement(range(total + 1), n):
                    if sum(d) != total:
                        continue
                    if psi_intersection(g, (1,) + d) != (
                        2 * g - 2 + n
                    ) * psi_intersection(g, d):
                        ok = False
    report(7, "psi oracle: goldens and string/dilaton identities", ok)


def test_criterion_08_eo_matches_gw():
    ok = True
    details = []
    for g, n, depth in (
        (0, 3, 16),
        (0, 4, 16),
        (1, 1, 12),
        (1, 2, 12),
        (0, 1, 12),
        (0, 2, 12),
    ):
        rep = compare_eo_gw(g, n, depth, atom_values=ATOMS)
        details.append(f"({g},{n})@{depth}:{rep.status}")
        ok = ok and rep.status == "pass"
    report(8, "spectral-curve invariants match the generating function", ok,
           " ".join(details))


def test_criterion_09_pole_structure():
    ok = True
    details = []
    for g, n in ((0, 3), (1, 1), (1, 2)):
        rep = pole_asymptotics_check(g, n)
        details.append(f"({g},{n}):{rep.status}")
        ok = ok and rep.status == "pass"
    report(9, "pole orders and leading coefficients", ok, " ".join(details))


def test_criterion_10_eo_string_dilaton():
    ok = True
    details = []
    for g, n in ((0, 3), (1, 1)):
        for m in (0, 1):
            rep = eo_string_dilaton_check(g, n, m)
            details.append(f"({g},{n})m={m}:{rep.status}")
            ok = ok and rep.status == "pass"
    report(10, "spectral-curve string and dilaton identities", ok, " ".join(details))


def test_criterion_11_non_quasi_polynomial_witness():
    values = {m: E.counterexample_f(m) for m in range(1, 14, 2)}
    ms = sorted(values)
    diffs = [values[b] - values[a] for a, b in zip(ms, ms[1:])]
    second = [b - a for a, b in zip(diffs, diffs[1:])]
    report(11, "second differences are non-constant", len(set(second)) > 1)


def test_criterion_11_stated_recursion():
    """The stated two-step recursion f(m) = (1 - 1/d) f(m-2) - 1 is checked
    verbatim on the admissible (odd) levels.  It does not hold for the
    values the recursions force (f(1), f(3), f(5), ... = 0, -4, -9, ...,
    i.e. f = -2 d H_{d-1}, independently confirmed by the dilaton and
    divisor-equation routes; they satisfy (d-1) f(m) = d f(m-2) - 2d).
    The failure is reported rather than patched."""
    values = {m: E.counterexample_f(m) for m in range(1, 14, 2)}
    recursion_ok = True
    for m in range(3, 13, 2):
        d = ceil_div(m, 2)
        if values[m] != (1 - Fraction(1, d)) * values[m - 2] - 1:
            recursion_ok = False
    # the values do satisfy the corrected two-step relation
    for m in range(3, 13, 2):
        d = ceil_div(m, 2)
        assert (d - 1) * values[m] == d * values[m - 2] - 2 * d
    report(
        11,
        "stated two-step recursion for f",
        recursion_ok,
        f"engine values f(1..11 odd) = {[str(values[m]) for m in sorted(values)[:6]]}",
    )


def test_criterion_12_asymptotics():
    rep = asymptotics_report(
        1, 1, 1, (2,), 200, atom_values=ATOMS, bound=Fraction(1, 100)
    )
    ok = rep.status == "pass" and rep.witness["m"] == (200,)
    report(12, "ratio to the top form within 1/100 at m = 200", ok,
           f"deviation {rep.witness.get('deviation')}")
