"""Finite directed relations with closure, joinability and confluence checks.

Everything here works by exhaustive search over an explicitly enumerated
carrier, so every question is decidable.  Domain code projects its (possibly
infinite) reduction relation onto a finite universe before calling in.

Each relation indexes its steps once; one closure search over that index
answers reachability, equivalence and connectibility below an element, and
``find_cycle`` is the one cycle search, shared with ``core.check_axioms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Any, Callable, Iterable, Optional, Sequence


@dataclass(frozen=True)
class FiniteRelation:
    """An explicit relation: an ordered, duplicate-free carrier plus a step set."""

    elements: tuple
    steps: frozenset

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("carrier contains duplicate elements")
        carrier = set(self.elements)
        for src, dst in self.steps:
            if src not in carrier or dst not in carrier:
                raise ValueError(f"step ({src!r}, {dst!r}) leaves the carrier")

    @staticmethod
    def make(elements: Iterable, steps: Iterable) -> "FiniteRelation":
        return FiniteRelation(tuple(elements), frozenset(tuple(s) for s in steps))

    @cached_property
    def _adjacency(self) -> tuple:
        """(successors, predecessors): element -> neighbours, successors in carrier order."""
        succ: dict = {e: [] for e in self.elements}
        pred: dict = {e: [] for e in self.elements}
        position = {e: k for k, e in enumerate(self.elements)}
        for src, dst in sorted(self.steps, key=lambda step: position[step[1]]):
            succ[src].append(dst)
            pred[dst].append(src)
        return succ, pred

    def successors(self, a) -> list:
        self._require(a)
        return list(self._adjacency[0][a])

    def _require(self, a) -> None:
        if a not in self.elements:
            raise ValueError(f"{a!r} is not a carrier element")


def _closure(rel: FiniteRelation, a, undirected: bool = False, allowed=None) -> set:
    """Everything a reaches by steps, including a itself.

    With ``undirected`` steps count in both directions; with ``allowed`` the
    search passes only through elements of that set.
    """
    succ, pred = rel._adjacency
    out = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in succ[x] + pred[x] if undirected else succ[x]:
            if y not in out and (allowed is None or y in allowed):
                out.add(y)
                stack.append(y)
    return out


def reachable(rel: FiniteRelation, a) -> set:
    """All b with a ->* b, including a itself."""
    rel._require(a)
    return _closure(rel, a)


def equivalent(rel: FiniteRelation, a, b) -> bool:
    """Whether a <->* b, i.e. a and b share an undirected component."""
    rel._require(a)
    rel._require(b)
    return b in _closure(rel, a, undirected=True)


def is_church_rosser(rel: FiniteRelation) -> bool:
    """Whether every equivalent pair has a common ->* successor."""
    reach = {e: _closure(rel, e) for e in rel.elements}
    return all(
        not reach[a].isdisjoint(reach[b])
        for a in rel.elements
        for b in _closure(rel, a, undirected=True)
    )


def is_locally_confluent(rel: FiniteRelation) -> bool:
    """Whether every one-step divergence b <- a -> c rejoins under ->*."""
    reach = {e: _closure(rel, e) for e in rel.elements}
    return all(
        not reach[b].isdisjoint(reach[c])
        for a in rel.elements
        for b, c in combinations(rel.successors(a), 2)
    )


def connectible_below(
    rel: FiniteRelation,
    less: Callable[[Any, Any], bool],
    a,
    b,
    z,
) -> bool:
    """Whether a and b are joined by an undirected chain lying strictly below z.

    Endpoints count: a and b themselves must satisfy less(_, z).
    """
    rel._require(a)
    rel._require(b)
    rel._require(z)
    if not less(a, z) or not less(b, z):
        return False
    allowed = {e for e in rel.elements if less(e, z)}
    return b in _closure(rel, a, undirected=True, allowed=allowed)


def generalized_newman_holds(rel: FiniteRelation, less: Callable[[Any, Any], bool]) -> bool:
    """Whether every local divergence b <- a -> c is connectible below a.

    The comparator must be irreflexive and acyclic on the carrier
    (well-founded, since the carrier is finite); otherwise ValueError.
    """
    for e in rel.elements:
        if less(e, e):
            raise ValueError(f"order is reflexive at {e!r}")
    if find_cycle(rel.elements, less) is not None:
        raise ValueError("order contains a cycle on the carrier")
    return all(
        connectible_below(rel, less, b, c, a)
        for a in rel.elements
        for b, c in combinations(rel.successors(a), 2)
    )


def find_cycle(elements: Sequence, less: Callable[[Any, Any], bool]) -> Optional[Any]:
    """The first element whose descent under ``less`` runs into a cycle, or None.

    Depth-first from each element in turn, on an explicit stack, stepping
    from x to every y with less(y, x) in carrier order; an element below
    itself is a cycle of length one.  None means ``less`` is acyclic, hence
    well-founded, on the elements.
    """
    state: dict = {}
    for e in elements:
        if e in state:
            continue
        state[e] = "open"
        stack = [(e, iter(elements))]  # the open path, each with its unscanned rest
        while stack:
            x, rest = stack[-1]
            for y in rest:
                if not less(y, x) or state.get(y) == "done":
                    continue
                if y in state:  # open, so on the current path
                    return e
                state[y] = "open"
                stack.append((y, iter(elements)))
                break
            else:
                state[x] = "done"
                stack.pop()
    return None
