"""Critical-pair completion: the generalized Buchberger algorithm.

``gb`` and ``is_groebner_basis`` run one walk (``_walk``) over one pair
set (``PairSet``) of pending index pairs (i, j), i <= j, self-pairs
included.  ``PairSet.add`` takes each element as it joins the basis: each
given element in order, then each element the walk appends.  Pending pairs
leave the set in the order they entered.

Without the field-only hook ``field_lead``, ``add`` enqueues every
(k, new), k <= new, so the walk visits every index pair of the growing
basis in j-major order.  With it (polynomials over a field) it is the
Gebauer-Moeller update (Gebauer and Moeller, J. Symb. Comp. 1988; UPDATE
in Becker and Weispfenning, *Groebner Bases*, 1993, section 5.5), on lead
power products: an element reduces exactly the terms whose power product
its lead divides.  Let z(a, b) be the lcm of the leads of elements a and b
(the power product of their mntcr) and h the new element.  The update
prunes, in this order:

* ``chain-criterion``, where asked for: (k, new) when k left the set (see
  below); when some other live element l has z(l, new) dividing z(k, new)
  and different from it (criterion M); when a live l < k has
  z(l, new) = z(k, new) (criterion F);
* ``product-criterion``: a surviving (k, new) whose leads are coprime
  (Buchberger's product criterion);
* ``chain-criterion``, where asked for: a pending (i, j) whose z(i, j) the
  lead of h divides, with z(i, new) != z(i, j) != z(j, new) (criterion B).

Where asked for, the elements whose lead the lead of h divides then leave
the set: their later pairs are pruned, while the pairs already pending, the
basis and the cofactor rows keep them.  Every other pair, and the self-pair
(new, new), is enqueued.

For each pair of multiplier indices, the walk takes the domain's canonical
minimal common reducibles (mntcrs) z of the pair it pops and forms the
critical pair of each (``critical_pair``: one ``Domain.reduct`` per side),
except where its sides are equal: a self-pair at one multiplier index (not
even formed) or two formed sides that coincide.  Every other pair a1, a2
gives h, the difference of the normal forms of its sides modulo the current
basis, and the walk appends h when it is nonzero.  With ``field_lead`` the
normal form is linear, so h is the one normal form of a1 - a2 (Buchberger's
S-polynomial); without it (Z, Z/nZ and polynomials over them) a step's
multiplier depends on the coefficient it reduces, and both sides are
normal-formed.  ``gb`` runs the walk to its end and keeps, for each h, an
exact cofactor row over the original generators, all in a replayable
trace.  ``is_groebner_basis`` (the finite criterion) runs the same walk on
the given basis and stops at the first element it would append: the basis
is a Groebner basis exactly when the walk appends nothing.  It reads
neither records nor steps, so its walk keeps no record and its normal
forms build no step multiplier.  The mntcrs of pruned pairs are not
re-checked for the mntcr contract; ``check_axioms`` tests it.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from operator import le
from typing import Any, NamedTuple, Sequence

from .core import (
    DEFAULT_STEP_BOUND,
    ContractViolationError,
    Domain,
    NonTerminationError,
    normal_form,  # noqa: F401 - kept as ``buchberger.normal_form``, which span tracing wraps
)

DEFAULT_PAIR_BOUND = 200_000


@dataclass(frozen=True)
class CofactorRow:
    """h together with multipliers proving h = sum(cofactors[k] * generators[k])."""

    element: Any
    cofactors: dict


class GBTrace:
    """A deterministic log of one completion run, kept as records, rendered when read.

    ``records`` holds one tuple ``(kind, *fields)`` per event; the fields
    are ints, words and the domain's (immutable) elements, so completion
    does no string work.  ``lines``, ``to_text()`` and ``digest()`` render
    the records with the domain's ``render`` each time they are read.  The
    kinds, their fields and their lines:

    * ``("init", pos, g)``: ``init <pos> <g>``, one per nonzero generator;
    * ``("prune", i, j, reason)``: ``prune <i> <j> <reason>``;
    * ``("pair", i, j)`` and ``("done", i, j)``: ``pair <i> <j>`` and
      ``done <i> <j>`` around the walk of one pair;
    * ``("mntcr", z, i1, i2)``: ``mntcr <z> indices <i1> <i2>``;
    * ``("skip", reason)``: ``skip <reason>``;
    * ``("critical", a1, a2)``: ``critical <a1> | <a2>``;
    * ``("reduced", nf1, nf2, n1, n2)``: ``reduced <nf1> | <nf2> steps <n1>
      <n2>``, where n1 and n2 count the reduction steps of each side; and,
      over field coefficients, where one normal form of a1 - a2 gives h,
      ``("reduced-difference", h, n)``: ``reduced <h> steps <n>``;
    * ``("h",)``: ``h zero``;
    * ``("add", pos, h)``: ``add <pos> <h>``;
    * ``("final", g)``: ``final <g>``, one per basis element.

    The counters ``pairs_processed``, ``critical_pairs_reduced``,
    ``additions`` and ``chain_skips`` count the ``pair``, ``critical``,
    ``add`` and chain-criterion ``prune`` records.
    """

    # kind: (line format, positions of the fields that are domain elements)
    _FORMATS = {
        "init": ("init {} {}", (1,)),
        "prune": ("prune {} {} {}", ()),
        "pair": ("pair {} {}", ()),
        "mntcr": ("mntcr {} indices {} {}", (0,)),
        "skip": ("skip {}", ()),
        "critical": ("critical {} | {}", (0, 1)),
        "reduced": ("reduced {} | {} steps {} {}", (0, 1)),
        "reduced-difference": ("reduced {} steps {}", (0,)),
        "h": ("h zero", ()),
        "add": ("add {} {}", (1,)),
        "done": ("done {} {}", ()),
        "final": ("final {}", (0,)),
    }

    def __init__(self, dom: Domain) -> None:
        self.dom = dom
        self.records: list = []
        self.emit = self.records.append

    def _count(self, kind: str) -> int:
        return sum(r[0] == kind for r in self.records)

    @property
    def pairs_processed(self) -> int:
        return self._count("pair")

    @property
    def critical_pairs_reduced(self) -> int:
        return self._count("critical")

    @property
    def additions(self) -> int:
        return self._count("add")

    @property
    def chain_skips(self) -> int:
        return sum(r[0] == "prune" and r[3] == "chain-criterion" for r in self.records)

    def _line(self, record: tuple) -> str:
        """The trace line of one record."""
        kind, *fields = record
        fmt, elements = self._FORMATS[kind]
        for k in elements:
            fields[k] = self.dom.render(fields[k])
        return fmt.format(*fields)

    @property
    def lines(self) -> list:
        return [self._line(r) for r in self.records]

    def to_text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.records else "")

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()


class GBResult(NamedTuple):
    basis: tuple
    rows: list
    trace: GBTrace


def critical_pair(dom: Domain, z, g1, i1, g2, i2) -> tuple:
    """(m1, a1, m2, a2): the one-step reducts a_k = z - m_k*g_k of z at i1 and i2.

    Each side is one ``dom.reduct`` call.
    """
    side1 = dom.reduct(z, g1, i1)
    side2 = dom.reduct(z, g2, i2)
    if side1 is None or side2 is None:
        raise ContractViolationError(f"mntcr {dom.render(z)} is not reducible by both generators")
    return (*side1, *side2)


class PairSet:
    """The pending index pairs of a basis that grows, in walk order (module docstring)."""

    def __init__(self, dom: Domain, basis: list, chain: bool) -> None:
        self.basis = basis
        # the field-only hook decides between the full walk and Gebauer-Moeller
        self.field_lead = dom.field_lead
        self.chain = chain and self.field_lead is not None
        self.pending: deque = deque()  # (i, j, z(i, j)), z None on the full walk
        self.live: list = []  # per element: whether its pairs with later elements are formed
        self.leads: list = []  # per element: its lead power product

    def add(self, new: int) -> list:
        """Enqueue the pairs (k, new), k <= new; return the pruned ones as (i, j, reason)."""
        if self.field_lead is None:
            self.pending.extend((k, new, None) for k in range(new + 1))
            return []
        leads, chain = self.leads, self.chain
        t = self.field_lead(self.basis[new])
        leads.append(t)
        z = [tuple(map(max, s, t)) for s in leads]  # z[k] = z(k, new); z[new] = t
        live = [k for k in range(new) if self.live[k]] if chain else []
        pruned, fresh = [], []
        for k in range(new):
            zk = z[k]
            # criteria M and F over the live elements; an element that left
            # the set forms no later pairs
            if chain and (
                not self.live[k]
                or any(l < k if z[l] == zk else all(map(le, z[l], zk)) for l in live)
            ):
                pruned.append((k, new, "chain-criterion"))
            elif not any(map(min, leads[k], t)):
                pruned.append((k, new, "product-criterion"))
            else:
                fresh.append((k, new, zk))
        if chain:
            kept = deque()
            for i, j, zij in self.pending:
                if all(map(le, t, zij)) and z[i] != zij != z[j]:
                    pruned.append((i, j, "chain-criterion"))
                else:
                    kept.append((i, j, zij))
            self.pending = kept
            for k in live:
                self.live[k] = not all(map(le, t, leads[k]))
            self.live.append(True)
        self.pending.extend(fresh)
        self.pending.append((new, new, t))
        return pruned


def _add_into(dom: Domain, acc: dict, pos: int, value) -> None:
    if pos in acc:
        acc[pos] = dom.add(acc[pos], value)
    else:
        acc[pos] = value


# a record sink that keeps nothing: the finite criterion's, whose walk nobody reads
_discard = deque(maxlen=0).append


def _walk(dom: Domain, basis: list, emit, chain: bool, max_steps: int, max_pairs: float):
    """Walk the critical pairs of the growing basis, appending each nonzero h to it.

    Yields, once h is appended, its step list [(pos, m), ...] over basis
    positions, as a normal form returns them: h = sum(m * basis[pos]).  h's
    pairs join the pair set only when the walk is resumed, so the finite
    criterion stops at the first yield.  Each normal form takes at most
    max_steps steps; where ``field_lead`` is set, h is the one normal form
    of a1 - a2 (module docstring), so the cap bounds that normal form,
    which may take more steps than either side alone.  ``chain`` switches
    the chain-criterion prunes (module docstring); each trace record
    (``GBTrace``) goes to ``emit``.  With ``emit`` None, the finite
    criterion's walk, no record is kept, the normal forms build no step
    multiplier (``Domain.normal_form`` with steps None) and the walk yields
    None.  The walk lists the given basis's reducer rows once
    (``Domain.reducer_rows``), extends that list by ``reducer_rows(basis,
    new)`` when h joins the basis at position new, and every normal form
    of the walk reads it.  Popping pair number max_pairs + 1 raises
    ``NonTerminationError``.  A ``NonTerminationError`` or
    ``ContractViolationError`` raised while a pair is formed or reduced
    leaves with ``at pair i j with K basis elements`` added to its message.
    """
    keep = emit is not None
    rows = dom.reducer_rows(basis)  # extended as the basis grows

    if keep:

        def reduce(a) -> tuple:
            steps: list = []
            return dom.normal_form(a, rows, max_steps, steps), steps

    else:
        emit = _discard

        def reduce(a) -> tuple:
            return dom.normal_form(a, rows, max_steps, None), ()

    pairs = PairSet(dom, basis, chain)
    linear = dom.field_lead is not None

    def enqueue(new: int) -> None:
        for i, j, reason in pairs.add(new):
            emit(("prune", i, j, reason))

    for pos, g in enumerate(basis):
        emit(("init", pos, g))
        enqueue(pos)
    indices = dom.multiplier_indices
    walked = 0
    while pairs.pending:
        i, j, _z = pairs.pending.popleft()
        if walked >= max_pairs:
            raise NonTerminationError(
                f"pair walk did not finish within {max_pairs} pairs: "
                f"stopped at pair {i} {j} with {len(basis)} basis elements"
            )
        walked += 1
        emit(("pair", i, j))
        try:
            g1, g2 = basis[i], basis[j]
            walk = [
                (z, i1, i2) for i1 in indices for i2 in indices for z in dom.mntcrs(g1, i1, g2, i2)
            ]
            for z, i1, i2 in walk:
                # a self-pair at one multiplier index has equal sides: not formed
                sides = None if i == j and i1 == i2 else critical_pair(dom, z, g1, i1, g2, i2)
                emit(("mntcr", z, i1, i2))
                if sides is None or sides[1] == sides[3]:
                    emit(("skip", "equal-sides"))
                    continue
                m1, a1, m2, a2 = sides
                emit(("critical", a1, a2))
                if linear:  # nf(a1) - nf(a2) = nf(a1 - a2), one normal form
                    h, steps1 = reduce(dom.sub(a1, a2))
                    steps2 = ()
                    emit(("reduced-difference", h, len(steps1)))
                else:
                    nf1, steps1 = reduce(a1)
                    nf2, steps2 = reduce(a2)
                    emit(("reduced", nf1, nf2, len(steps1), len(steps2)))
                    h = dom.sub(nf1, nf2)
                if not h:
                    emit(("h",))
                    continue
                new = len(basis)
                basis.append(h)
                rows.extend(dom.reducer_rows(basis, new))
                emit(("add", new, h))
                # h = -m1*basis[i] + m2*basis[j] - sum(steps1) + sum(steps2),
                # the z contributions cancel exactly
                yield (
                    [(i, dom.neg(m1)), (j, m2), *((p, dom.neg(m)) for p, m in steps1), *steps2]
                    if keep
                    else None
                )
                enqueue(new)
        except (NonTerminationError, ContractViolationError) as exc:
            exc.args = (f"{exc} at pair {i} {j} with {len(basis)} basis elements",)
            raise
        emit(("done", i, j))


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
    front.  A row is composed from h's step list (``_walk``): a generator is
    its own row, and an appended element's summed multiplier scales its row.
    ``chain_criterion`` switches the chain-criterion prunes of the pair set
    (module docstring) alone; the other rules always apply.  A
    ``NonTerminationError`` (the pair cap or a reduction's step cap) or
    ``ContractViolationError`` leaves with the trace so far as ``exc.trace``.
    """
    kept = [k for k, g in enumerate(generators) if g]  # basis position -> original index
    basis = [generators[k] for k in kept]
    n = len(kept)
    rows_out: list = []
    trace = GBTrace(dom)
    try:
        for steps in _walk(dom, basis, trace.emit, chain_criterion, max_steps, max_pairs):
            sums: dict = {}
            for pos, m in steps:
                _add_into(dom, sums, pos, m)
            row: dict = {}
            for pos, m in sums.items():
                if pos < n:  # a generator is its own row
                    _add_into(dom, row, kept[pos], m)
                else:
                    for orig, base in rows_out[pos - n].cofactors.items():
                        _add_into(dom, row, orig, dom.mul(m, base))
            row = {orig: v for orig, v in sorted(row.items()) if v}
            rows_out.append(CofactorRow(basis[-1], row))
        for g in basis:
            trace.emit(("final", g))
    except (NonTerminationError, ContractViolationError) as exc:
        exc.trace = trace  # the records up to the stop
        raise
    return GBResult(tuple(basis), rows_out, trace)


def is_groebner_basis(dom: Domain, basis: Sequence, *, max_steps: int = DEFAULT_STEP_BOUND) -> bool:
    """The finite criterion: completion's walk, with every rule on, appends nothing.

    Zero elements are dropped, as ``gb`` drops zero generators: a zero
    reduces nothing and has no mntcrs, so G is a basis exactly when its
    nonzero part is.  The walk keeps no record and its normal forms build
    no step multiplier (``_walk`` with ``emit`` None).
    """
    G = [g for g in basis if g]
    for _ in _walk(dom, G, None, True, max_steps, math.inf):
        return False  # the walk appends an element
    return True


def member_ideal(dom: Domain, a, basis: Sequence, *, max_steps: int = DEFAULT_STEP_BOUND) -> bool:
    """Whether a totally reduces to zero modulo the basis.

    Decides ideal membership when the basis is a Groebner basis, which
    ``is_groebner_basis`` checks.  The verdict reads h alone, so the normal
    form keeps no steps and builds no multiplier (``Domain.normal_form``).
    The rows are listed from the basis on each call (``Domain.reducer_rows``).
    """
    return not dom.normal_form(a, dom.reducer_rows(basis), max_steps, None)


def ideal_congruence_holds(dom: Domain, a, b, basis: Sequence) -> bool:
    """Whether a - b lies in the ideal generated by the basis.

    Completion plus reduction, exact on every domain: a Groebner basis
    reduces exactly the elements of its ideal to zero.
    """
    diff = dom.sub(a, b)
    return not diff or member_ideal(dom, diff, gb(dom, basis).basis)


def verify_cofactors(dom: Domain, rows: Sequence, original: Sequence) -> bool:
    """Replay every cofactor row exactly against the original generators.

    Each row's sum of cofactor times generator is one ``Domain.lincomb``.
    """
    for row in rows:
        if dom.lincomb([(mult, original[orig]) for orig, mult in row.cofactors.items()]) != row.element:
            return False
    return True
