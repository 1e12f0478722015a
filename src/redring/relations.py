"""Finite directed relations with closure, joinability and confluence checks.

Everything here works by exhaustive search over an explicitly enumerated
carrier, so every question is decidable.  Domain code projects its (possibly
infinite) reduction relation onto a finite universe before calling in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable


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

    def successors(self, a) -> list:
        self._require(a)
        idx = {e: k for k, e in enumerate(self.elements)}
        return sorted((dst for src, dst in self.steps if src == a), key=idx.__getitem__)

    def _require(self, a) -> None:
        if a not in self.elements:
            raise ValueError(f"{a!r} is not a carrier element")


def reachable(rel: FiniteRelation, a) -> set:
    """All b with a ->* b, including a itself."""
    rel._require(a)
    out = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for src, dst in rel.steps:
            if src == x and dst not in out:
                out.add(dst)
                stack.append(dst)
    return out


def equivalent(rel: FiniteRelation, a, b) -> bool:
    """Whether a <->* b, i.e. a and b share an undirected component."""
    rel._require(a)
    rel._require(b)
    return b in _component(rel, a)


def _component(rel: FiniteRelation, a) -> set:
    out = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for src, dst in rel.steps:
            if src == x and dst not in out:
                out.add(dst)
                stack.append(dst)
            if dst == x and src not in out:
                out.add(src)
                stack.append(src)
    return out


def is_church_rosser(rel: FiniteRelation) -> bool:
    """Whether every equivalent pair has a common ->* successor."""
    reach = {e: reachable(rel, e) for e in rel.elements}
    seen: set = set()
    for e in rel.elements:
        if e in seen:
            continue
        comp = sorted(_component(rel, e), key=rel.elements.index)
        seen.update(comp)
        for i, a in enumerate(comp):
            for b in comp[i + 1 :]:
                if not (reach[a] & reach[b]):
                    return False
    return True


def is_locally_confluent(rel: FiniteRelation) -> bool:
    """Whether every one-step divergence b <- a -> c rejoins under ->*."""
    reach = {e: reachable(rel, e) for e in rel.elements}
    for a in rel.elements:
        succ = rel.successors(a)
        for i, b in enumerate(succ):
            for c in succ[i + 1 :]:
                if not (reach[b] & reach[c]):
                    return False
    return True


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
    if a == b:
        return True
    allowed = {e for e in rel.elements if less(e, z)}
    seen = {a}
    stack = [a]
    while stack:
        x = stack.pop()
        for src, dst in rel.steps:
            for nxt in ((dst,) if src == x else ()) + ((src,) if dst == x else ()):
                if nxt == b:
                    return True
                if nxt in allowed and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return False


def generalized_newman_holds(rel: FiniteRelation, less: Callable[[Any, Any], bool]) -> bool:
    """Whether every local divergence b <- a -> c is connectible below a.

    The comparator must be acyclic on the carrier (well-founded, since the
    carrier is finite); a cycle raises ValueError.
    """
    _require_acyclic(rel.elements, less)
    for a in rel.elements:
        succ = rel.successors(a)
        for i, b in enumerate(succ):
            for c in succ[i + 1 :]:
                if not connectible_below(rel, less, b, c, a):
                    return False
    return True


def _require_acyclic(elements: tuple, less: Callable[[Any, Any], bool]) -> None:
    below = {e: [f for f in elements if f != e and less(f, e)] for e in elements}
    for e in elements:
        if less(e, e):
            raise ValueError(f"order is reflexive at {e!r}")
    state: dict = {}

    def visit(x) -> None:
        state[x] = "open"
        for y in below[x]:
            mark = state.get(y)
            if mark == "open":
                raise ValueError("order contains a cycle on the carrier")
            if mark is None:
                visit(y)
        state[x] = "done"

    for e in elements:
        if e not in state:
            visit(e)
