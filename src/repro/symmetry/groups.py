"""Equivalence groups and unique symmetry groups (Definitions 4.1 and 4.2).

Given the ordered tuple of permutable indices ``P = (p1, ..., pn)`` with the
canonical-triangle constraint ``p1 <= ... <= pn``, every coordinate of the
triangle satisfies exactly one *equivalence pattern*: a chain assigning
either ``=`` or ``<`` to each consecutive pair.  There are ``2**(n-1)``
patterns; the all-``<`` one is the strict (off-diagonal) triangle and the
rest are the generalized diagonals.

For each pattern ``E`` the *unique symmetry group* ``S_P|E`` is the set of
permutations that generate every distinct update of the full iteration space
from one canonical read.  We represent a permutation as the tuple ``t`` where
slot ``j`` of the rewritten assignment receives index ``p[t[j]]`` (i.e. the
substitution ``p_j -> p_{t[j]}``), and keep exactly those ``t`` in which the
members of each equal-run appear in increasing slot order — applying two
permutations that differ only by a swap of equal indices would perform the
same update twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Dict, List, Sequence, Tuple

EQ = "="
LT = "<"


@dataclass(frozen=True)
class EquivalencePattern:
    """One equivalence group over ordered permutable indices.

    ``indices`` is the canonical ordering ``(p1, ..., pn)``; ``relations``
    has length ``n - 1`` with ``relations[t]`` in ``{"=", "<"}`` relating
    ``p[t]`` and ``p[t+1]``.
    """

    indices: Tuple[str, ...]
    relations: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.relations) != max(len(self.indices) - 1, 0):
            raise ValueError("need exactly n-1 relations")
        for rel in self.relations:
            if rel not in (EQ, LT):
                raise ValueError("bad relation %r" % (rel,))

    # ------------------------------------------------------------------
    @property
    def is_strict(self) -> bool:
        """True for the off-diagonal (no equalities) pattern."""
        return all(rel == LT for rel in self.relations)

    @property
    def has_equality(self) -> bool:
        return not self.is_strict

    def runs(self) -> Tuple[Tuple[int, ...], ...]:
        """Maximal runs of equal positions, e.g. ``(=, <)`` -> ((0,1),(2,))."""
        runs: List[List[int]] = [[0]] if self.indices else []
        for t, rel in enumerate(self.relations):
            if rel == EQ:
                runs[-1].append(t + 1)
            else:
                runs.append([t + 1])
        return tuple(tuple(r) for r in runs)

    def index_runs(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(tuple(self.indices[i] for i in run) for run in self.runs())

    def representative(self) -> Dict[str, str]:
        """Map each index to the first member of its equal-run.

        Substituting representatives makes assignments that denote the same
        update under this pattern's equalities syntactically identical.
        """
        rep: Dict[str, str] = {}
        for run in self.runs():
            head = self.indices[run[0]]
            for i in run:
                rep[self.indices[i]] = head
        return rep

    def conditions(self) -> Tuple[Tuple[str, str, str], ...]:
        """The pattern as ``(left, rel, right)`` comparisons between
        consecutive indices, with rel in ``{"==", "<"}``."""
        out = []
        for t, rel in enumerate(self.relations):
            out.append(
                (self.indices[t], "==" if rel == EQ else "<", self.indices[t + 1])
            )
        return tuple(out)

    def matches(self, coord: Sequence[int]) -> bool:
        """Whether a canonical coordinate tuple satisfies this pattern."""
        for t, rel in enumerate(self.relations):
            a, b = coord[t], coord[t + 1]
            if rel == EQ and a != b:
                return False
            if rel == LT and not a < b:
                return False
        return True

    def __str__(self) -> str:
        if not self.indices:
            return "()"
        bits = [self.indices[0]]
        for rel, idx in zip(self.relations, self.indices[1:]):
            bits.append(" %s %s" % ("==" if rel == EQ else "<", idx))
        return "".join(bits)


def enumerate_patterns(indices: Sequence[str]) -> Tuple[EquivalencePattern, ...]:
    """All ``2**(n-1)`` equivalence patterns over ordered *indices*.

    The strict pattern comes first, then patterns with increasing numbers of
    equalities — the order diagonal splitting prefers.
    """
    indices = tuple(indices)
    n = len(indices)
    if n == 0:
        return (EquivalencePattern((), ()),)
    patterns = [
        EquivalencePattern(indices, rels)
        for rels in product((LT, EQ), repeat=n - 1)
    ]
    patterns.sort(key=lambda p: sum(rel == EQ for rel in p.relations))
    return tuple(patterns)


def unique_permutations(pattern: EquivalencePattern) -> Tuple[Dict[str, str], ...]:
    """The unique symmetry group ``S_P|E`` as substitution dictionaries.

    Each returned mapping sends the index in slot ``j`` to the index that
    occupies that slot after the permutation, i.e. the substitution to apply
    to the assignment template.  ``len(result) == n! / prod(|run|!)``.
    """
    indices = pattern.indices
    n = len(indices)
    runs = pattern.runs()
    subs: List[Dict[str, str]] = []
    for t in permutations(range(n)):
        slot_of = [0] * n
        for slot, old in enumerate(t):
            slot_of[old] = slot
        ok = True
        for run in runs:
            for a, b in zip(run, run[1:]):
                if slot_of[a] > slot_of[b]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            subs.append({indices[j]: indices[t[j]] for j in range(n)})
    return tuple(subs)
