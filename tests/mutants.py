"""Mutants of the stored families and of the Poly kernels, for tests that a
check fails on a wrong table or a wrong kernel, and a counting stub for the
registry's checkers.

Every stored-family mutant goes in through sequences._EXTENDS, the one table
of stored families, so any of them can be corrupted the same way.  mutated()
is a plain context manager, so a golden file can be regenerated from a
mutant outside pytest.  A kernel mutant goes in by monkeypatching the name
in every module that binds it.
"""

import dataclasses
from contextlib import contextmanager

from degenmath import algebra, identities, sequences, series
from degenmath.algebra import Poly
from degenmath.identities import REGISTRY


@contextmanager
def mutated(family: str, extend):
    """Run the block with extend as the extend of family and an empty store,
    so every entry read inside is built afresh; both are restored after."""
    saved = sequences._EXTENDS[family], sequences._STORE
    sequences._EXTENDS[family], sequences._STORE = extend, {}
    try:
        yield
    finally:
        sequences._EXTENDS[family], sequences._STORE = saved


def at_entry_3(family: str, change, change_state=lambda state: state):
    """The real extend of family, with entry 3 replaced by change(entry 3)
    and the state by change_state(state) on the miss that first builds
    entry 3; entries built by later misses are left as they come."""
    real = sequences._EXTENDS[family]

    def extend(entries, state, upto, lam):
        fresh = len(entries) <= 3
        entries, state = real(entries, state, upto, lam)
        if fresh:
            entries = entries[:3] + (change(entries[3]),) + entries[4:]
            state = change_state(state)
        return entries, state

    return extend


def row_change(change):
    """The change of a stored triangle row, a Poly, that applies change to
    the row's tuple of Fractions."""

    def changed(row: Poly) -> Poly:
        return Poly(change(row.coeffs))

    return changed


def counting_checkers(monkeypatch) -> list:
    """Swap every registry checker for a passing stub; the list records each call."""
    calls = []

    def counting(*values):
        calls.append(values)
        return 0, 0

    for ident, spec in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, ident, dataclasses.replace(spec, checker=counting))
    return calls


def past_index_5(p: Poly) -> Poly:
    """p with 1 added to its x**6 coefficient, when it has one: wrong only past index 5."""
    cs = p.coeffs
    return p if len(cs) <= 6 else Poly(cs[:6] + (cs[6] + 1,) + cs[7:])


def mutate_poly_product(monkeypatch) -> None:
    """Make every Poly * Poly product wrong past index 5; scalar products stay right."""
    real = Poly.__mul__

    def mul(self, other):
        out = real(self, other)
        return past_index_5(out) if isinstance(other, Poly) else out

    monkeypatch.setattr(Poly, "__mul__", mul)
    monkeypatch.setattr(Poly, "__rmul__", mul)


def mutate_poly_combination(monkeypatch) -> None:
    """Make every poly_combination sum, and so Poly's +, - and scalar *, wrong past index 5."""
    real = algebra.poly_combination

    def combination(terms):
        return past_index_5(real(terms))

    for module in (algebra, identities, sequences):
        monkeypatch.setattr(module, "poly_combination", combination)


def mutate_convolution(monkeypatch) -> None:
    """Make every integer convolution, the one product kernel of Poly and of
    Series, wrong past index 5: 1 is added to its integer 6."""
    real = algebra._convolution

    def convolution(a, b, n):
        out = real(a, b, n)
        if len(out) > 6:
            out[6] += 1
        return out

    for module in (algebra, series):
        monkeypatch.setattr(module, "_convolution", convolution)


def mutate_rational_dot(monkeypatch) -> None:
    """Make every rational_dot that pairs more than six terms, so reaches a
    pair past index 5, wrong by 1."""
    real = algebra.rational_dot

    def dot(xs, ys, start=0):
        # both sides are Polys, paired from index 0 of xs and index start of ys
        paired = min(len(xs.coeffs), len(ys.coeffs) - start)
        out = real(xs, ys, start)
        return out + 1 if paired > 6 else out

    for module in (algebra, identities, sequences):
        monkeypatch.setattr(module, "rational_dot", dot)


def mutate_poly_int_over_t(monkeypatch) -> None:
    """Make every poly_int_over_t integral wrong past index 5."""
    real = algebra.poly_int_over_t

    def integral(p):
        return past_index_5(real(p))

    for module in (algebra, identities):
        monkeypatch.setattr(module, "poly_int_over_t", integral)
