"""The reduction-ring domain interface and the reduction calculus on top of it.

A domain packages a commutative ring with identity together with a strict
well-founded order (zero least), indexed multiplier witnesses, and an
enumeration of canonical minimal common reducibles.  Reduction, normal forms,
relation projection and a behavioural axiom suite are all written against
that interface, so every concrete ring plugs in uniformly.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .relations import FiniteRelation, find_cycle

DEFAULT_STEP_BOUND = 10**6


class NonTerminationError(RuntimeError):
    """A reduction loop exceeded its step bound; the order is likely not well-founded.

    ``trace`` is the ``GBTrace`` up to the stop when ``gb`` raised it, else None.
    """

    trace = None


class ContractViolationError(RuntimeError):
    """A domain broke one of its own promises, e.g. an irreducible mntcr.

    ``trace`` is the ``GBTrace`` up to the stop when ``gb`` raised it, else None.
    """

    trace = None


class Domain:
    """Carrier operations plus the structure reduction needs.

    Subclasses provide:

    * ring operations ``add``, ``neg``, ``mul`` with attributes ``zero`` and
      ``one`` (commutative, with identity), on elements compared with ``==``
      and falsy exactly when zero, as Python numbers are (the checked law
      "zero-falsy"), so ``is_zero`` needs no override;
    * ``less``, a strict well-founded order whose least element is zero;
    * ``find_multiplier(a, c, index)``, a complete constructive witness and
      the one encoding of a reduction step: it returns some multiplier m
      with a - m*c strictly below a, or None when no multiplier at that
      index can take a below itself;
    * ``mntcrs(c1, i1, c2, i2)``, a finite list of canonical representatives,
      one per equivalence class of minimal non-trivial common reducibles;
      each is reducible by c1 at index i1 and by c2 at index i2 (the checked
      law "mntcr-common-reducible");
    * ``render`` / ``parse`` for the element syntax, and ``sample_elements``
      for randomized law checking.

    ``enumerate_carrier`` returns the full carrier for finite domains and
    None otherwise; ``carrier_size`` gives its length without building it
    where the domain knows it.  ``reduct(a, c, index)`` is the step the
    witness takes: (m, a - m*c) for m = ``find_multiplier(a, c, index)``,
    or None when m is None.  Critical pairs and ``reduce_step`` form their
    steps through it.  The default is ``sub(a, mul(m, c))``, and a domain
    may override it with a shorter rule that gives the same values
    (``PolyRing.reduct``).  ``lincomb(pairs)`` is sum(m*p) over its (m, p)
    pairs, the sum ``buchberger.verify_cofactors`` replays for each
    cofactor row.  The default folds acc = add(acc, mul(m, p)) from zero,
    and a domain may override it with a rule that gives the same value
    (``FractionFreePolyRing.lincomb``).  ``reducer_rows(basis, start)``
    lists the rows of the nonzero elements of basis[start:], each tagged
    with its element's position pos in basis, in declared order: the
    rewrites a normal form tries, in the order it tries them.  A zero
    element reduces nothing (a - m*0 is never below a), so it has no rows.
    ``normal_form(a, rows, max_steps, steps)`` reads such rows, totally
    reduces a and returns the irreducible h.  When steps is a list it
    appends each step (pos, m) to it, and when steps is None it builds no
    multiplier m, which is all ``member_ideal`` needs.  The rows are the
    domain's own: by default one (pos, c) row per element, tried at every
    multiplier index in turn, so that the default normal form repeats the
    ``reduce_step`` rule.  A domain may override both hooks with a faster
    rule that keeps the results' meaning (``core.normal_form``): the
    polynomial rings keep each element's coefficient and power-product
    data with the element, and read it from its rows.  A basis that grows,
    as in completion, extends its row list by
    ``reducer_rows(basis, new)`` as the element at position new joins it.
    ``canonical_associate`` picks the display representative of an
    element's associates (``redring gb --monic``).
    Three optional hooks stay None where the domain has no sound, cheap
    answer: ``field_lead(c)``, the lead power product of c where c reduces
    exactly the terms whose power product it divides, which polynomial
    rings over a field provide and the pair set's Gebauer-Moeller criteria
    read (``buchberger.PairSet``).  Setting it also promises a linear normal
    form: nf(a - b) = nf(a) - nf(b), with the same summed multiplier per
    basis position, as the top-down normal form over a field gives, since
    it picks each reducer by power product alone and divides by its lead
    coefficient; completion then reduces a critical pair's difference once
    (``buchberger._walk``).  ``annihilator(c)``, a nonzero m with
    m*c = 0 or None where only zero annihilates c, which rings with zero
    divisors provide and polynomial rings over them reduce through (their
    multiplier index "ann"); and ``integer_image(cs)``, the integers ns
    over the least positive d with cs[k] = ns[k]/d, which the fraction
    field of the integers provides and ``make_poly_domain`` reads once, to
    build a ``FractionFreePolyRing`` whose normal form and reduct run on
    those integers.  A domain with ``integer_image`` also builds
    the element n/d of integers n and d != 0 as ``ratio(n, d)``.
    """

    name = "domain"
    multiplier_indices: tuple = (0,)
    zero: Any = None
    one: Any = None
    is_field = False
    field_lead = None
    annihilator = None
    integer_image = None

    # ring operations
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return not a

    # order and multipliers
    def less(self, a, b) -> bool:
        raise NotImplementedError

    def find_multiplier(self, a, c, index):
        raise NotImplementedError

    def reduct(self, a, c, index) -> Optional[tuple]:
        """(m, a - m*c) for the ``find_multiplier`` witness m, None without one."""
        m = self.find_multiplier(a, c, index)
        return None if m is None else (m, self.sub(a, self.mul(m, c)))

    def mntcrs(self, c1, i1, c2, i2) -> list:
        raise NotImplementedError

    def enumerate_carrier(self) -> Optional[list]:
        return None

    def carrier_size(self) -> Optional[int]:
        """The number of elements ``enumerate_carrier`` returns, None if infinite."""
        carrier = self.enumerate_carrier()
        return None if carrier is None else len(carrier)

    def reducer_rows(self, basis: Sequence, start: int = 0) -> list:
        """One (pos, c) row for each nonzero c at position pos >= start of the
        basis: c is tried at every multiplier index in turn."""
        return [(pos, c) for pos, c in enumerate(basis[start:], start) if c]

    def normal_form(self, a, rows: Sequence, max_steps: int, steps: Optional[list]):
        """``core.normal_form`` by repeated first steps: the generic rule, kept by scalars.

        Each step is the one ``reduce_step`` takes on the basis the (pos, c)
        rows list.
        """
        taken = 0
        current = a
        while True:
            step = _first_step(self, current, rows)
            if step is None:
                return current
            if taken == max_steps:
                raise step_cap_exceeded(self, a, max_steps)
            taken += 1
            current, pos, m = step
            if steps is not None:
                steps.append((pos, m))

    def lincomb(self, pairs: Iterable[tuple]):
        """sum(m*p for m, p in pairs): the fold acc = add(acc, mul(m, p)) from zero."""
        acc = self.zero
        for m, p in pairs:
            acc = self.add(acc, self.mul(m, p))
        return acc

    def canonical_associate(self, a):
        """The canonical display form of a's class of associates.

        The default is a itself; the rationals map every nonzero element to
        one, the integers take the magnitude, and polynomial rings over a
        field scale to a monic lead.
        """
        return a

    # syntax and sampling
    def render(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        raise NotImplementedError

    def sample_elements(self, rng: random.Random, count: int) -> list:
        raise NotImplementedError


def reduce_step(dom: Domain, a, basis: Sequence) -> Optional[tuple]:
    """One reduction step of a modulo the basis, or None if a is irreducible.

    Returns (b, pos, m) with b = a - m*basis[pos] strictly below a, as
    ``dom.reduct`` forms it.  Deterministic: the first (element, index)
    pair in declared order whose ``find_multiplier`` witness exists wins.
    This is the step of the generic ``Domain.normal_form``.  Polynomial
    rings normal-form top-down instead (``PolyRing.normal_form``), so there
    a sequence of these steps can take a different path to a different
    irreducible element.
    """
    return _first_step(dom, a, enumerate(basis))


def _first_step(dom: Domain, a, rows: Iterable) -> Optional[tuple]:
    """``reduce_step`` over (pos, c) rows: (b, pos, m) from the first row and index that reduce a."""
    for pos, c in rows:
        for index in dom.multiplier_indices:
            step = dom.reduct(a, c, index)
            if step is not None:
                m, b = step
                return b, pos, m
    return None


def step_cap_exceeded(dom: Domain, a, max_steps: int) -> NonTerminationError:
    """The error a normal form raises when a needs more than ``max_steps`` steps."""
    return NonTerminationError(
        f"reduction of {dom.render(a)} did not settle within {max_steps} steps"
    )


def normal_form(
    dom: Domain,
    a,
    basis: Sequence,
    max_steps: int = DEFAULT_STEP_BOUND,
) -> tuple:
    """Totally reduce a modulo the basis: the one entry point, ``dom.normal_form``.

    Returns (h, steps): h is irreducible (``find_multiplier`` finds no
    witness in h for any basis element at any index) and each step
    (pos, m) took the current element c strictly down to c - m*basis[pos],
    so a - h is the sum of the m*basis[pos].  At most ``max_steps`` steps
    are taken; a that needs one more raises ``NonTerminationError``.  Which
    steps are taken is the domain's rule: the generic one of
    ``Domain.normal_form``, or top-down on polynomial rings, reading the
    rows ``dom.reducer_rows(basis)`` lists.  A caller that reads no step
    calls ``dom.normal_form(a, dom.reducer_rows(basis), max_steps, None)``
    instead, which returns h alone and takes the same steps.
    """
    steps: list = []
    return dom.normal_form(a, dom.reducer_rows(basis), max_steps, steps), steps


def project_reduction_relation(dom: Domain, basis: Sequence, universe: Iterable) -> FiniteRelation:
    """The reduction relation modulo the basis, restricted to a finite universe.

    a -> b is a step when b < a and b = a - m*c for a basis element c and
    the witness m = find_multiplier(a - b, c, i) at some index i, that is,
    when a - b - m*c is zero.  So every step whose multiplier the domain
    admits is listed, not only the one the witness for a takes; on Q, Z
    and Z/nZ that is every multiple of c that takes a down.
    """
    elements = list(dict.fromkeys(universe))

    @functools.cache  # differences recur across pairs: Z/nZ has only n of them
    def is_multiple(d) -> bool:
        ms = ((c, dom.find_multiplier(d, c, i)) for c in basis for i in dom.multiplier_indices)
        return any(m is not None and not dom.sub(d, dom.mul(m, c)) for c, m in ms)

    steps = frozenset(
        (a, b)
        for a in elements
        for b in elements
        if dom.less(b, a) and is_multiple(dom.sub(a, b))
    )
    return FiniteRelation(tuple(elements), steps)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    status: str  # PASS | FAIL | SKIPPED
    witness: Optional[str] = None


@dataclass
class AxiomReport:
    domain: str
    checks: list
    mode: str  # "exhaustive" or "sampled"

    @property
    def ok(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c.status == "FAIL"]

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            suffix = f" [{c.witness}]" if c.witness else ""
            lines.append(f"{c.name}: {c.status}{suffix}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "ok": self.ok,
            "mode": self.mode,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
        }


# Axioms that cannot be probed through the domain interface; reported as
# SKIPPED rather than silently ignored or guessed at.
_UNCHECKED_AXIOMS = (
    ("multiplier-set-closure", "multiplier sets are implicit in the witness function"),
    ("connectibility-stability", "not observable through the witness interface"),
    ("completion-termination", "covered by completion step caps and acceptance runs"),
)


# Largest carrier check_axioms enumerates exhaustively: the triple laws make
# size**2 calls of each operation, into tables, and read size**3 table
# entries, 3,600 and 216,000 at this size.  Larger carriers are sampled.
EXHAUSTIVE_AXIOM_CARRIER = 60


def _laws(dom: Domain, carrier: Optional[list]) -> list:
    """The checked laws as (name, variables, test) rows, in report order.

    ``test`` takes one element per variable and returns a falsy value where
    the law holds.  Where it breaks, it returns True, and the bound
    variables are the witness, or it returns the witness string itself.
    Given the whole carrier, "order-acyclic" searches it for a cycle (a
    zero-variable row, run once); otherwise it probes pairs for
    antisymmetry.
    """
    add, mul, neg, less = dom.add, dom.mul, dom.neg, dom.less
    zero, one, render = dom.zero, dom.one, dom.render
    indices = dom.multiplier_indices

    def decreases(a, c):
        for index in indices:
            m = dom.find_multiplier(a, c, index)
            if m is not None and not less(dom.sub(a, mul(m, c)), a):
                return f"a={render(a)} c={render(c)} i={index} m={render(m)}"
        return None

    def mntcr_lists(c1, c2):
        if not (c1 and c2):
            return []
        return [(i1, i2, dom.mntcrs(c1, i1, c2, i2)) for i1 in indices for i2 in indices]

    def not_common(c1, c2):
        for i1, i2, zs in mntcr_lists(c1, c2):
            for z in zs:
                if dom.find_multiplier(z, c1, i1) is None or dom.find_multiplier(z, c2, i2) is None:
                    return f"z={render(z)} c1={render(c1)} i1={i1} c2={render(c2)} i2={i2}"
        return None

    def cycle():
        start = find_cycle(carrier, less)
        return start is not None and "cycle through " + render(start)

    return [
        ("add-commutative", "a b", lambda a, b: add(a, b) != add(b, a)),
        ("add-associative", "a b c", lambda a, b, c: add(add(a, b), c) != add(a, add(b, c))),
        ("mul-commutative", "a b", lambda a, b: mul(a, b) != mul(b, a)),
        ("mul-associative", "a b c", lambda a, b, c: mul(mul(a, b), c) != mul(a, mul(b, c))),
        (
            "mul-distributes-over-add",
            "a b c",
            lambda a, b, c: mul(a, add(b, c)) != add(mul(a, b), mul(a, c)),
        ),
        ("zero-falsy", "a", lambda a: bool(a) != (a != zero)),
        ("zero-additive-identity", "a", lambda a: add(a, zero) != a),
        ("one-multiplicative-identity", "a", lambda a: mul(a, one) != a),
        ("additive-inverse", "a", lambda a: add(a, neg(a)) != zero),
        ("order-irreflexive", "a", lambda a: less(a, a)),
        ("order-transitive", "a b c", lambda a, b, c: less(a, b) and less(b, c) and not less(a, c)),
        ("order-acyclic", "", cycle)
        if carrier is not None
        else ("order-acyclic", "a b", lambda a, b: less(a, b) and less(b, a)),
        ("zero-least", "a", lambda a: a and not less(zero, a)),
        ("reduction-decreases", "a c", decreases),
        (
            "mntcr-finite",
            "c1 c2",
            lambda c1, c2: any(not isinstance(zs, (list, tuple)) for *_, zs in mntcr_lists(c1, c2)),
        ),
        ("mntcr-common-reducible", "c1 c2", not_common),
    ]


def _table_laws(dom: Domain, carrier: list) -> dict:
    """The three-variable laws read from operation tables over the carrier.

    Maps each law's name to an iterator of the triples (a, b, c), in
    product order, at which the law's two sides differ.  ``add``, ``mul``
    and ``less`` are called once on each carrier pair, and each (a, b) row
    builds both sides for every c with ``map`` over table rows, compared as
    lists, so only a row where the sides differ is read element by element.
    The tables stand in for the calls only if operations are functions of
    element values.  If a value of ``add`` or ``mul`` is not a carrier
    element (it left the carrier, or is unhashable), the map is empty and
    ``check_axioms`` scans every triple.
    """
    def table(op) -> list:
        return [list(map(op, itertools.repeat(a), carrier)) for a in carrier]

    add, mul = table(dom.add), table(dom.mul)
    less = [list(map(bool, row)) for row in table(dom.less)]
    try:
        position = dict(zip(carrier, itertools.count())).__getitem__
        add_at = [list(map(position, row)) for row in add]
        mul_at = [list(map(position, row)) for row in mul]
    except (KeyError, TypeError):
        return {}

    def scan(sides) -> Iterable[tuple]:
        for (i, a), (j, b) in itertools.product(enumerate(carrier), repeat=2):
            left, right = sides(i, j)
            if left != right:
                yield from ((a, b, c) for c, x, y in zip(carrier, left, right) if x != y)

    return {
        # (a+b)+c and a+(b+c)
        "add-associative": scan(
            lambda i, j: (add[add_at[i][j]], list(map(add[i].__getitem__, add_at[j])))
        ),
        # (a*b)*c and a*(b*c)
        "mul-associative": scan(
            lambda i, j: (mul[mul_at[i][j]], list(map(mul[i].__getitem__, mul_at[j])))
        ),
        # a*(b+c) and a*b + a*c
        "mul-distributes-over-add": scan(
            lambda i, j: (
                list(map(mul[i].__getitem__, add_at[j])),
                list(map(add[mul_at[i][j]].__getitem__, mul_at[i])),
            )
        ),
        # in rows where a < b: b < c, and b < c with a < c
        "order-transitive": scan(
            lambda i, j: (less[j], list(map(operator.and_, less[j], less[i])))
            if less[i][j]
            else ((), ())
        ),
    }


def check_axioms(dom: Domain, sample_budget: int = 2000) -> AxiomReport:
    """Behavioural check of the reduction-ring laws.

    Exhaustive when the carrier is enumerable and has at most
    ``EXHAUSTIVE_AXIOM_CARRIER`` elements: every law then runs over all
    tuples of the carrier, in product order, and reports the first that
    breaks it.  The three-variable laws read ``add``, ``mul`` and ``less``
    from tables of their values on every carrier pair (``_table_laws``),
    which assumes, as judging a law by one call per tuple already does,
    that operations are functions of element values.  Each triple the
    tables flag is confirmed by the law's own test, which also builds the
    witness, so the report is the one a scan of every triple gives; that
    scan still runs when a sum or product is not a carrier element.
    Otherwise sampled: ``sample_budget`` random pairs and as many triples
    are drawn, with a fixed seed, from a pool of ``dom.sample_elements``,
    each list shared by all laws of that arity, and the one-variable laws
    see zero, one and the pool.  The report's ``mode`` says which.
    Failures carry a witness string; they are report entries, not
    exceptions.
    """
    size = dom.carrier_size()
    exhaustive = size is not None and size <= EXHAUSTIVE_AXIOM_CARRIER
    if exhaustive:
        carrier = dom.enumerate_carrier()
        flagged = _table_laws(dom, carrier)

        def tuples(arity: int) -> Iterable[tuple]:
            return itertools.product(carrier, repeat=arity)

    else:
        carrier = None
        flagged = {}
        rng = random.Random(0)
        pool = dom.sample_elements(rng, max(32, min(sample_budget, 256)))
        drawn = {1: [(a,) for a in [dom.zero, dom.one] + pool]}
        for arity in (2, 3):
            drawn[arity] = [
                tuple(rng.choice(pool) for _ in range(arity)) for _ in range(sample_budget)
            ]
        tuples = drawn.__getitem__

    checks: list = []
    for name, variables, test in _laws(dom, carrier):
        names = variables.split()
        if name in flagged:
            values = next((t for t in flagged[name] if test(*t)), None)
        else:
            # the first tuple that breaks the law, scanned at C speed; tests
            # are pure, so its verdict is recomputed rather than carried along
            verdicts = itertools.starmap(test, tuples(len(names)))
            values = next(itertools.compress(tuples(len(names)), verdicts), None)
        if values is None:
            checks.append(AxiomCheck(name, "PASS"))
            continue
        verdict = test(*values)
        if verdict is True:
            verdict = " ".join(f"{v}={dom.render(x)}" for v, x in zip(names, values))
        checks.append(AxiomCheck(name, "FAIL", verdict))
    for name, why in _UNCHECKED_AXIOMS:
        checks.append(AxiomCheck(name, "SKIPPED", why))
    return AxiomReport(dom.name, checks, "exhaustive" if exhaustive else "sampled")
