"""Critical-pair completion: the generalized Buchberger algorithm.

``gb`` processes every index pair of the evolving basis (self-pairs
included).  For each pair and each pair of multiplier indices it walks the
domain's canonical minimal common reducibles z, forms the critical pair by
one reduction step on each side, totally reduces both sides modulo the
current basis, and appends the difference h of the two normal forms whenever
it is nonzero, queueing the pairs that involve h.  Every appended element
carries an exact cofactor row over the original generators, and the whole
run is logged in a replayable trace.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional, Sequence

from .core import (
    DEFAULT_STEP_BOUND,
    ContractViolationError,
    Domain,
    NonTerminationError,
    normal_form,
)

DEFAULT_PAIR_BOUND = 200_000


@dataclass
class GBState:
    """The completion machine: basis, pair queue and the processed pairs."""

    basis: list
    pair_queue: deque
    done: set = field(default_factory=set)


@dataclass(frozen=True)
class CofactorRow:
    """h together with multipliers proving h = sum(cofactors[k] * generators[k])."""

    element: Any
    cofactors: dict


class GBTrace:
    """A line-oriented, deterministic log of one completion run."""

    def __init__(self) -> None:
        self.lines: list = []
        self.pairs_processed = 0
        self.critical_pairs_reduced = 0
        self.additions = 0
        self.chain_skips = 0

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def to_text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


class GBResult(NamedTuple):
    basis: tuple
    rows: list
    trace: GBTrace


def critical_pair(dom: Domain, z, g1, i1, g2, i2) -> tuple:
    """The two one-step reducts of z modulo {g1} at i1 and {g2} at i2."""
    m1 = dom.find_multiplier(z, g1, i1)
    m2 = dom.find_multiplier(z, g2, i2)
    if m1 is None or m2 is None:
        raise ContractViolationError(
            f"mntcr {dom.render(z)} is not reducible by both generators"
        )
    return dom.sub(z, dom.mul(m1, g1)), dom.sub(z, dom.mul(m2, g2))


def chain_criterion_skip(dom: Domain, state: GBState, i: int, j: int, z) -> bool:
    """Whether a third basis element already subsumes the pair (i, j) at z.

    True iff some k distinct from i and j reduces z on its own and both side
    pairs of k with i and j have been processed.  Domains without a
    single-element reducibility test never skip.
    """
    test = dom.single_reducibility_test
    if not callable(test):
        return False
    for k in range(len(state.basis)):
        if k == i or k == j:
            continue
        if not test(z, state.basis[k]):
            continue
        side_a = (min(i, k), max(i, k))
        side_b = (min(j, k), max(j, k))
        if side_a in state.done and side_b in state.done:
            return True
    return False


def _add_into(dom: Domain, acc: dict, pos: int, value) -> None:
    if pos in acc:
        acc[pos] = dom.add(acc[pos], value)
    else:
        acc[pos] = value


def gb(
    dom: Domain,
    generators: Sequence,
    *,
    chain_criterion: Optional[bool] = None,
    max_steps: int = DEFAULT_STEP_BOUND,
    max_pairs: int = DEFAULT_PAIR_BOUND,
) -> GBResult:
    """Complete the generator tuple into a Groebner basis.

    Returns the basis (input's nonzero elements as a prefix), one cofactor
    row per appended element, and the trace.  Zero generators are dropped up
    front.  ``chain_criterion`` defaults to on exactly when the domain
    provides a single-element reducibility test.
    """
    kept = [(k, g) for k, g in enumerate(generators) if not dom.is_zero(g)]
    basis = [g for _, g in kept]
    # cofactor rows over original generator positions, one per basis element
    basis_rows: list = [{orig: dom.one} for orig, _ in kept]
    rows_out: list = []
    trace = GBTrace()
    use_chain = (
        callable(dom.single_reducibility_test) if chain_criterion is None else chain_criterion
    )
    for pos, g in enumerate(basis):
        trace.emit(f"init {pos} {dom.render(g)}")
    queue: deque = deque((i, j) for j in range(len(basis)) for i in range(j + 1))
    state = GBState(basis=basis, pair_queue=queue)
    while queue:
        if trace.pairs_processed >= max_pairs:
            raise NonTerminationError(
                f"pair queue did not empty within {max_pairs} pairs"
            )
        i, j = queue.popleft()
        trace.pairs_processed += 1
        trace.emit(f"pair {i} {j}")
        pending = []
        for i1 in dom.multiplier_indices:
            for i2 in dom.multiplier_indices:
                for z in dom.mntcrs(basis[i], i1, basis[j], i2):
                    pending.append((z, (i1, i2)))
        for z, (i1, i2) in pending:
            trace.emit(f"mntcr {dom.render(z)} indices {i1} {i2}")
            if use_chain and chain_criterion_skip(dom, state, i, j, z):
                trace.chain_skips += 1
                trace.emit("skip chain-criterion")
                continue
            m1 = dom.find_multiplier(z, basis[i], i1)
            m2 = dom.find_multiplier(z, basis[j], i2)
            if m1 is None or m2 is None:
                raise ContractViolationError(
                    f"mntcr {dom.render(z)} is not reducible by both generators"
                )
            a1 = dom.sub(z, dom.mul(m1, basis[i]))
            a2 = dom.sub(z, dom.mul(m2, basis[j]))
            trace.critical_pairs_reduced += 1
            trace.emit(f"critical {dom.render(a1)} | {dom.render(a2)}")
            nf1, certs1 = normal_form(dom, a1, basis, max_steps)
            nf2, certs2 = normal_form(dom, a2, basis, max_steps)
            trace.emit(
                f"reduced {dom.render(nf1)} | {dom.render(nf2)}"
                f" steps {len(certs1)} {len(certs2)}"
            )
            h = dom.sub(nf1, nf2)
            if dom.is_zero(h):
                trace.emit("h zero")
                continue
            # h = -m1*basis[i] + m2*basis[j] - sum(certs1) + sum(certs2),
            # the z contributions cancel exactly
            acc: dict = {}
            _add_into(dom, acc, i, dom.neg(m1))
            _add_into(dom, acc, j, m2)
            for cert in certs1:
                _add_into(dom, acc, cert.reducer_pos, dom.neg(cert.multiplier))
            for cert in certs2:
                _add_into(dom, acc, cert.reducer_pos, cert.multiplier)
            row: dict = {}
            for pos, mult in acc.items():
                for orig, base_mult in basis_rows[pos].items():
                    _add_into(dom, row, orig, dom.mul(mult, base_mult))
            row = {orig: v for orig, v in sorted(row.items()) if not dom.is_zero(v)}
            new = len(basis)
            basis.append(h)
            basis_rows.append(row)
            rows_out.append(CofactorRow(h, row))
            trace.additions += 1
            trace.emit(f"add {new} {dom.render(h)}")
            for k in range(new + 1):
                queue.append((k, new))
        state.done.add((i, j))
        trace.emit(f"done {i} {j}")
    for g in basis:
        trace.emit(f"final {dom.render(g)}")
    return GBResult(tuple(basis), rows_out, trace)


def is_groebner_basis(
    dom: Domain, basis: Sequence, *, max_steps: int = DEFAULT_STEP_BOUND
) -> bool:
    """The finite criterion: every critical pair joins at equal normal forms."""
    G = list(basis)
    for g in G:
        if dom.is_zero(g):
            raise ValueError("basis must be zero-free")
    for j in range(len(G)):
        for i in range(j + 1):
            for i1 in dom.multiplier_indices:
                for i2 in dom.multiplier_indices:
                    for z in dom.mntcrs(G[i], i1, G[j], i2):
                        a1, a2 = critical_pair(dom, z, G[i], i1, G[j], i2)
                        nf1, _ = normal_form(dom, a1, G, max_steps)
                        nf2, _ = normal_form(dom, a2, G, max_steps)
                        if not dom.is_zero(dom.sub(nf1, nf2)):
                            return False
    return True


def member_ideal(
    dom: Domain,
    a,
    basis: Sequence,
    *,
    check: bool = False,
    max_steps: int = DEFAULT_STEP_BOUND,
) -> bool:
    """Whether a totally reduces to zero modulo the basis.

    Decides ideal membership when the basis is a Groebner basis; pass
    check=True to verify that first.
    """
    if check and not is_groebner_basis(dom, basis, max_steps=max_steps):
        raise ValueError("basis is not a Groebner basis")
    h, _ = normal_form(dom, a, basis, max_steps)
    return dom.is_zero(h)


def verify_cofactors(dom: Domain, rows: Sequence, original: Sequence) -> bool:
    """Replay every cofactor row exactly against the original generators."""
    for row in rows:
        acc = dom.zero
        for orig, mult in row.cofactors.items():
            acc = dom.add(acc, dom.mul(mult, original[orig]))
        if not dom.equal(acc, row.element):
            return False
    return True
