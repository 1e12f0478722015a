"""Critical-pair completion: the generalized Buchberger algorithm.

``gb`` and ``is_groebner_basis`` share one pair walk.  ``index_pairs``
yields every index pair (i, j), i <= j, of a basis that may grow while it
is walked, self-pairs included, in j-major order, so the pairs of an
appended element follow all earlier ones.  For each pair of multiplier
indices, ``critical_pairs`` walks the domain's canonical minimal common
reducibles (mntcrs) z and alone decides which need reduction.  It skips,
in this order, those whose critical pair provably joins:

* ``equal-sides``: a self-pair at one multiplier index (not even formed);
* ``product-criterion``: distinct elements whose leads are coprime, through
  the optional ``coprime_leads`` hook that only field-coefficient
  polynomials provide (Buchberger's product criterion);
* ``chain-criterion``, where asked for: some k < i reduces z on its own.
  In j-major order those k are exactly the ones whose side pairs {k, i}
  and {k, j} have been walked, so the skip rests on earlier pairs alone;
* ``equal-sides``: the two formed sides (``critical_pair``) are equal.

``gb`` totally reduces both sides of every other pair modulo the current
basis and appends the difference h of the normal forms when it is nonzero,
with an exact cofactor row over the original generators, all in a
replayable trace; ``is_groebner_basis`` (the finite criterion) asks that
each h be zero.  Skipped mntcrs are not re-checked for the mntcr contract;
``check_axioms`` tests it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from .core import (
    DEFAULT_STEP_BOUND,
    ContractViolationError,
    Domain,
    NonTerminationError,
    normal_form,
)

DEFAULT_PAIR_BOUND = 200_000


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
    """(m1, a1, m2, a2): the one-step reducts a_k = z - m_k*g_k of z at i1 and i2."""
    m1 = dom.find_multiplier(z, g1, i1)
    m2 = dom.find_multiplier(z, g2, i2)
    if m1 is None or m2 is None:
        raise ContractViolationError(f"mntcr {dom.render(z)} is not reducible by both generators")
    return m1, dom.sub(z, dom.mul(m1, g1)), m2, dom.sub(z, dom.mul(m2, g2))


def index_pairs(basis: list):
    """Yield (i, j), i <= j, for every index pair of ``basis`` in j-major order.

    The list may grow during the walk; each appended element's pairs come
    after all earlier ones.
    """
    j = 0
    while j < len(basis):
        for i in range(j + 1):
            yield i, j
        j += 1


def critical_pairs(dom: Domain, basis: list, i: int, j: int, chain: bool):
    """Yield (z, i1, i2, skip, sides) for each mntcr z of basis elements i and j.

    Index pairs (i1, i2) come in declared order.  Either ``skip`` names the
    rule that skips z (module docstring; the chain criterion only where
    ``chain`` is set), or it is None and ``sides`` is (m1, a1, m2, a2).
    """
    g1, g2 = basis[i], basis[j]
    coprime = dom.coprime_leads
    product = i < j and callable(coprime) and coprime(g1, g2)
    indices = dom.multiplier_indices
    walk = [(z, i1, i2) for i1 in indices for i2 in indices for z in dom.mntcrs(g1, i1, g2, i2)]
    for z, i1, i2 in walk:
        if i == j and i1 == i2:
            yield z, i1, i2, "equal-sides", None
        elif product:
            yield z, i1, i2, "product-criterion", None
        elif chain and chain_criterion_skip(dom, basis, i, z):
            yield z, i1, i2, "chain-criterion", None
        else:
            sides = critical_pair(dom, z, g1, i1, g2, i2)
            if sides[1] == sides[3]:  # a1 == a2
                yield z, i1, i2, "equal-sides", None
            else:
                yield z, i1, i2, None, sides


def chain_criterion_skip(dom: Domain, basis: Sequence, i: int, z) -> bool:
    """Whether some k < i reduces z on its own (module docstring); False without the hook."""
    test = dom.single_reducibility_test
    return callable(test) and any(test(z, g) for g in basis[:i])


def _add_into(dom: Domain, acc: dict, pos: int, value) -> None:
    if pos in acc:
        acc[pos] = dom.add(acc[pos], value)
    else:
        acc[pos] = value


def gb(
    dom: Domain,
    generators: Sequence,
    *,
    chain_criterion: bool = True,
    max_steps: int = DEFAULT_STEP_BOUND,
    max_pairs: int = DEFAULT_PAIR_BOUND,
) -> GBResult:
    """Complete the generator tuple into a Groebner basis.

    Returns the basis (input's nonzero elements as a prefix), one cofactor
    row per appended element, and the trace.  Zero generators are dropped up
    front.  ``chain_criterion`` switches the chain criterion alone; the
    other skips of ``critical_pairs`` always apply.
    """
    kept = [(k, g) for k, g in enumerate(generators) if g]
    basis = [g for _, g in kept]
    # cofactor rows over original generator positions, one per basis element
    basis_rows: list = [{orig: dom.one} for orig, _ in kept]
    rows_out: list = []
    trace = GBTrace()
    for pos, g in enumerate(basis):
        trace.emit(f"init {pos} {dom.render(g)}")
    for i, j in index_pairs(basis):
        if trace.pairs_processed >= max_pairs:
            raise NonTerminationError(f"pair walk did not finish within {max_pairs} pairs")
        trace.pairs_processed += 1
        trace.emit(f"pair {i} {j}")
        for z, i1, i2, skip, sides in critical_pairs(dom, basis, i, j, chain_criterion):
            trace.emit(f"mntcr {dom.render(z)} indices {i1} {i2}")
            if skip:
                if skip == "chain-criterion":
                    trace.chain_skips += 1
                trace.emit(f"skip {skip}")
                continue
            m1, a1, m2, a2 = sides
            trace.critical_pairs_reduced += 1
            trace.emit(f"critical {dom.render(a1)} | {dom.render(a2)}")
            nf1, steps1 = normal_form(dom, a1, basis, max_steps)
            nf2, steps2 = normal_form(dom, a2, basis, max_steps)
            steps = f"steps {len(steps1)} {len(steps2)}"
            trace.emit(f"reduced {dom.render(nf1)} | {dom.render(nf2)} {steps}")
            h = dom.sub(nf1, nf2)
            if not h:
                trace.emit("h zero")
                continue
            # h = -m1*basis[i] + m2*basis[j] - sum(steps1) + sum(steps2),
            # the z contributions cancel exactly
            acc: dict = {}
            _add_into(dom, acc, i, dom.neg(m1))
            _add_into(dom, acc, j, m2)
            for pos, m in steps1:
                _add_into(dom, acc, pos, dom.neg(m))
            for pos, m in steps2:
                _add_into(dom, acc, pos, m)
            row: dict = {}
            for pos, mult in acc.items():
                for orig, base_mult in basis_rows[pos].items():
                    _add_into(dom, row, orig, dom.mul(mult, base_mult))
            row = {orig: v for orig, v in sorted(row.items()) if v}
            new = len(basis)  # the walk reaches (k, new) for every k <= new
            basis.append(h)
            basis_rows.append(row)
            rows_out.append(CofactorRow(h, row))
            trace.additions += 1
            trace.emit(f"add {new} {dom.render(h)}")
        trace.emit(f"done {i} {j}")
    for g in basis:
        trace.emit(f"final {dom.render(g)}")
    return GBResult(tuple(basis), rows_out, trace)


def is_groebner_basis(dom: Domain, basis: Sequence, *, max_steps: int = DEFAULT_STEP_BOUND) -> bool:
    """The finite criterion: every critical pair that ``critical_pairs`` does not skip joins.

    Zero elements are dropped, as ``gb`` drops zero generators: a zero
    reduces nothing and has no mntcrs, so G is a basis exactly when its
    nonzero part is.
    """
    G = [g for g in basis if g]
    for i, j in index_pairs(G):
        for _z, _i1, _i2, skip, sides in critical_pairs(dom, G, i, j, True):
            if skip:
                continue
            _m1, a1, _m2, a2 = sides
            nf1, _ = normal_form(dom, a1, G, max_steps)
            nf2, _ = normal_form(dom, a2, G, max_steps)
            if dom.sub(nf1, nf2):
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
    return not h


def ideal_congruence_holds(dom: Domain, a, b, basis: Sequence) -> bool:
    """Whether a - b lies in the ideal generated by the basis.

    Completion plus reduction, exact on every domain: a Groebner basis
    reduces exactly the elements of its ideal to zero.
    """
    diff = dom.sub(a, b)
    return not diff or member_ideal(dom, diff, gb(dom, basis).basis)


def verify_cofactors(dom: Domain, rows: Sequence, original: Sequence) -> bool:
    """Replay every cofactor row exactly against the original generators."""
    for row in rows:
        acc = dom.zero
        for orig, mult in row.cofactors.items():
            acc = dom.add(acc, dom.mul(mult, original[orig]))
        if acc != row.element:
            return False
    return True
