"""Mutants of the stored families, for tests that a check fails on a wrong
table, and a counting stub for the registry's checkers.

Every mutant goes in through sequences._EXTENDS, the one table of stored
families, so any of them can be corrupted the same way.  mutated() is a
plain context manager, so a golden file can be regenerated from a mutant
outside pytest.
"""

import dataclasses
from contextlib import contextmanager

from degenmath import sequences
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


def counting_checkers(monkeypatch) -> list:
    """Swap every registry checker for a passing stub; the list records each call."""
    calls = []

    def counting(*values):
        calls.append(values)
        return 0, 0

    for ident, spec in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, ident, dataclasses.replace(spec, checker=counting))
    return calls
