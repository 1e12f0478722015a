"""Sparse multivariate polynomials as ordered monomial tuples.

Power products are plain exponent tuples; a term order (lex, deglex or
degrevlex) sorts them; a polynomial is a strictly descending tuple of
(coefficient, power product) monomials with no zero coefficients.  The
``PolyRing`` domain lifts any coefficient reduction ring to the polynomial
ring over it: reduction rewrites the greatest reducible term through a
coefficient multiplier times a power-product quotient, and common reducibles
factor as a coefficient-level representative times the lcm of the leading
power products.

Arithmetic keeps term tuples sorted and never re-sorts them:

* a sum or difference is one merge of two strictly descending term tuples,
  which combines equal power products and drops zero coefficients;
* a monomial times a polynomial multiplies term by term and keeps the
  order, because the term order is multiplicative (s > t implies
  s*u > t*u); products that vanish, such as 6*4 in Z/24Z, drop out;
* a general product merges such monomial rows into one sum.

Only ``PolyRing.poly`` collects unordered (coefficient, power product) pairs
through a dict and a sort.  It validates its input and builds parsed and
user-supplied polynomials; no internal result goes through it.

A reduction step is one pass.  The rewritten term c*x^pp and the lead
lc*x^lpp of the reducing row meet at the same power product, so the step
combines them directly into c + (-mc)*lc, kept when nonzero (over Z and
Z/nZ a term can stay at its power product), and merges only the row's
tail, shifted and scaled, into the terms below pp.  ``normal_form``
appends each settled term to a list and keeps each unsettled term's rank,
computed once; ``reduct`` joins f's terms above pp, the combined term and
that merge.  ``reducer_rows(basis, start)`` lists the rows a normal form
reads.  ``PolyRing`` pairs each element's position with its ``_reducers``
rows (its lead, its tail and, over Z/nZ, those of its "ann" shadows),
built once per polynomial.  ``FractionFreePolyRing`` lists one row per
element and builds the element's integer image at the first step that
uses it, so an element that no step uses is never converted.  A completion
walk lists the given basis once and extends that list as each element
joins the basis, and every normal form of the walk reads it.

``make_poly_domain`` chooses the reduction rule once, from the coefficient
domain: where it offers the ``integer_image`` hook (Q) the ring is a
``FractionFreePolyRing``, whose normal form and reduct take the steps of
the generic rule on integer numerators over one denominator; otherwise it
is a ``PolyRing``.
"""

from __future__ import annotations

import random
import re
from math import gcd
from operator import add as _add_exps, le as _le, sub as _sub_exps
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .core import Domain, step_cap_exceeded

Pp = tuple

# tuple.__new__(Monomial, (c, pp)) builds Monomial(c, pp) without the
# Python-level __new__ of the named tuple: half the cost in the hot loops
_new_tuple = tuple.__new__


def _check_lengths(s: Pp, t: Pp) -> None:
    if len(s) != len(t):
        raise ValueError(f"power products of different lengths: {s} vs {t}")


def pp_lcm(s: Pp, t: Pp) -> Pp:
    _check_lengths(s, t)
    return tuple(max(x, y) for x, y in zip(s, t))


def pp_divides(s: Pp, t: Pp) -> bool:
    """Whether s divides t, componentwise."""
    _check_lengths(s, t)
    return all(x <= y for x, y in zip(s, t))


def pp_quotient(t: Pp, s: Pp) -> Pp:
    """t / s; requires s to divide t."""
    if not pp_divides(s, t):
        raise ValueError(f"{s} does not divide {t}")
    return tuple(y - x for x, y in zip(s, t))


def _deglex_rank(pp: Pp) -> tuple:
    return (sum(pp), pp)


def _degrevlex_rank(pp: Pp) -> tuple:
    return (-sum(pp), pp[::-1])


_RANKS = {"lex": tuple, "deglex": _deglex_rank, "degrevlex": _degrevlex_rank}


class TermOrder:
    """A total, multiplicative, well-founded order on power products.

    ``rank`` maps a power product to a tuple, and distinct power products
    compare as their ranks do, reversed when ``descending`` is set: s is
    above t iff (rank(s) > rank(t)) != descending.  Degrevlex takes the
    reversed exponents with a negated degree as its rank, cheaper than
    negating every exponent.  ``rank`` does not validate its argument;
    ``compare`` does.
    """

    KINDS = tuple(_RANKS)

    def __init__(self, kind: str, nvars: int) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown term order {kind!r}; choose from {self.KINDS}")
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.kind = kind
        self.nvars = nvars
        self.rank = _RANKS[kind]
        self.descending = kind == "degrevlex"

    def compare(self, s: Pp, t: Pp) -> int:
        """-1, 0 or 1 as s is below, equal to, or above t."""
        for pp in (s, t):
            if len(pp) != self.nvars:
                raise ValueError(f"expected {self.nvars} exponents, got {pp}")
        rs, rt = self.rank(tuple(s)), self.rank(tuple(t))
        if rs == rt:
            return 0
        return 1 if (rs > rt) != self.descending else -1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermOrder)
            and other.kind == self.kind
            and other.nvars == self.nvars
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.nvars))

    def __repr__(self) -> str:
        return f"TermOrder({self.kind!r}, {self.nvars})"


class Monomial(NamedTuple):
    coeff: Any
    pp: Pp


class Polynomial:
    """An immutable polynomial: monomials strictly descending in the ring's order.

    A polynomial is falsy exactly when it is zero.  The slot ``_rows``
    caches ``PolyRing._reducers(self)``, and ``_lift`` what a coefficient
    hook derives from self: ``PolyRing._ann_family(self)`` over coefficients
    with an ``annihilator`` (Z/nZ), ``FractionFreePolyRing._image(self)``
    over coefficients with an ``integer_image`` (Q).  A field has no
    annihilator, so no coefficient domain has both hooks.  The slots are
    set on first use, never in ``__init__``, and play no part in equality
    or hashing.
    """

    __slots__ = ("ring", "terms", "_rows", "_lift")

    def __init__(self, ring: "PolyRing", terms: tuple) -> None:
        self.ring = ring
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms[0]

    def leading_pp(self) -> Pp:
        return self.leading_monomial().pp

    def leading_coeff(self):
        return self.leading_monomial().coeff

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self.ring.add(self, other)

    def __neg__(self) -> "Polynomial":
        return self.ring.neg(self)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self.ring.sub(self, other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.ring.mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.terms == self.terms
            and (other.ring is self.ring or other.ring == self.ring)
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        return self.ring.render(self)

    def __repr__(self) -> str:
        return f"<poly {self.ring.render(self)}>"


def mono_mul(mono: Monomial, p: Polynomial) -> Polynomial:
    """Multiply a polynomial by a single monomial."""
    ring = p.ring
    return Polynomial(ring, ring._scale(mono.coeff, ring._valid_pp(mono.pp), p.terms))


_BAD_CHAR_RE = re.compile(r"[^\s\dA-Za-z_^*/+\-]")
# a sign | a coefficient p, maybe /q | a variable, maybe ^ or ** and an exponent | an operator
_SCAN_RE = re.compile(
    r"\s*(?:([+-])"
    r"|(\d+)(?:\s*/\s*(\d+))?"
    r"|([A-Za-z_][A-Za-z_0-9]*)(?:\s*(\^|\*\*)\s*(\d+)?)?"
    r"|(\*\*|[*/^]))"
)


class PolyRing(Domain):
    """The polynomial ring over a coefficient reduction ring.

    Reduction rewrites the greatest term t of f that both the leading power
    product of g divides and whose coefficient the coefficient domain can
    take down modulo the leading coefficient of g; the multiplier is that
    coefficient witness times the power-product quotient.  The element order
    compares monomial tuples positionally (power product first, then
    coefficient, then the tails, with a proper prefix below its extension),
    which strictly decreases under every such rewrite.

    Over coefficient rings with zero divisors a multiplier can annihilate
    the leading coefficient of g, so the rewrite acts through the tail of g
    instead; those multipliers form the separate index "ann", which works
    through the nonzero scalar multiples of g with successively annihilated
    leads.  The ring lists that index only where the coefficient domain
    provides the ``annihilator`` hook (Z/nZ); without zero divisors it would
    always be empty.  ``_reducers`` is the one encoding of what g rewrites
    with at each index.  The normal form works top-down (``normal_form``).
    Over field coefficients g reduces exactly the terms its leading power
    product divides, and every mntcr of two elements is one term at the lcm
    of their leads; the ring then offers ``field_lead``, through which the
    pair set reads those lcms.

    This class is the generic rule over any coefficients.  Over Q it is the
    reference for ``FractionFreePolyRing``, which ``make_poly_domain``
    builds there: ``PolyRing(Q, ...)`` built directly gives the same
    values, by arithmetic on ``Fraction`` coefficients, only more slowly.
    """

    def __init__(self, coeff: Domain, names: Iterable[str], order: TermOrder) -> None:
        self.coeff = coeff
        self.names = tuple(names)
        if not self.names:
            raise ValueError("need at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if order.nvars != len(self.names):
            raise ValueError("term order arity does not match the variable count")
        self.order = order
        self.nvars = len(self.names)
        self.name = f"{coeff.name}[{','.join(self.names)}]/{order.kind}"
        self.multiplier_indices = tuple(coeff.multiplier_indices)
        if callable(coeff.annihilator):
            self.multiplier_indices += ("ann",)
        if not coeff.is_field:
            # reducibility is pure power-product divisibility only over a field
            self.field_lead = None
        self.zero = Polynomial(self, ())
        self.one = self.poly([(coeff.one, (0,) * self.nvars)])

    # construction helpers
    def poly(self, items: Iterable[tuple]) -> Polynomial:
        """Normalize (coefficient, power product) pairs into a polynomial."""
        acc: dict = {}
        for c, pp in items:
            pp = self._valid_pp(pp)
            if pp in acc:
                acc[pp] = self.coeff.add(acc[pp], c)
            else:
                acc[pp] = c
        terms = [Monomial(c, pp) for pp, c in acc.items() if c]
        rank = self.order.rank
        terms.sort(key=lambda m: rank(m.pp), reverse=not self.order.descending)
        return Polynomial(self, tuple(terms))

    def monomial(self, c, pp: Pp) -> Polynomial:
        return self.poly([(c, pp)])

    def constant(self, c) -> Polynomial:
        return self.monomial(c, (0,) * self.nvars)

    def var(self, name: str) -> Polynomial:
        if name not in self.names:
            raise ValueError(f"unknown variable {name!r}")
        pp = tuple(1 if n == name else 0 for n in self.names)
        return self.monomial(self.coeff.one, pp)

    def _valid_pp(self, pp) -> Pp:
        """pp as a tuple of nvars nonnegative exponents; ValueError otherwise."""
        pp = tuple(pp)
        if len(pp) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {pp}")
        if any(e < 0 for e in pp):
            raise ValueError(f"negative exponent in {pp}")
        return pp

    def _require_same(self, *ps: Polynomial) -> None:
        for p in ps:
            if p.ring is not self and p.ring != self:
                raise ValueError("polynomials belong to different rings")

    def _term(self, c, pp: Pp) -> Polynomial:
        """c*x^pp from a valid power product; zero when c is."""
        if not c:
            return self.zero
        return Polynomial(self, (_new_tuple(Monomial, (c, pp)),))

    # sorted-term arithmetic; inputs are strictly descending term tuples
    def _merge(self, s: tuple, t: tuple, subtract: bool) -> tuple:
        """s + t, or s - t when subtract, in one pass over both tuples."""
        coeff = self.coeff
        neg = coeff.neg
        if not t:
            return s
        if not s:
            if not subtract:
                return t
            return tuple(_new_tuple(Monomial, (neg(m.coeff), m.pp)) for m in t)
        add = coeff.add
        rank, descending = self.order.rank, self.order.descending
        out = []
        append = out.append
        ns, nt = len(s), len(t)
        i = j = 0
        ms, mt = s[0], t[0]
        rs, rt = rank(ms.pp), rank(mt.pp)
        while True:
            if ms.pp == mt.pp:
                c = add(ms.coeff, neg(mt.coeff) if subtract else mt.coeff)
                if c:
                    append(_new_tuple(Monomial, (c, ms.pp)))
                i += 1
                j += 1
                if i == ns or j == nt:
                    break
                ms, mt = s[i], t[j]
                rs, rt = rank(ms.pp), rank(mt.pp)
            elif (rs < rt) == descending:
                # the head of s is above the head of t
                append(ms)
                i += 1
                if i == ns:
                    break
                ms = s[i]
                rs = rank(ms.pp)
            else:
                append(_new_tuple(Monomial, (neg(mt.coeff), mt.pp)) if subtract else mt)
                j += 1
                if j == nt:
                    break
                mt = t[j]
                rt = rank(mt.pp)
        if i < ns:
            out.extend(s[i:])
        elif subtract:
            out.extend(_new_tuple(Monomial, (neg(m.coeff), m.pp)) for m in t[j:])
        else:
            out.extend(t[j:])
        return tuple(out)

    def _scale(self, c, pp: Pp, terms: tuple) -> tuple:
        """c*x^pp times a term tuple, still descending; vanishing products drop."""
        mul = self.coeff.mul
        out = []
        for m in terms:
            d = mul(c, m.coeff)
            if d:
                out.append(_new_tuple(Monomial, (d, tuple(map(_add_exps, pp, m.pp)))))
        return tuple(out)

    def _times(self, s: tuple, t: tuple) -> tuple:
        """The product of two term tuples: a sum of monomial rows."""
        if len(s) > len(t):
            s, t = t, s  # one row per term of the shorter factor
        out = ()
        for m in s:
            out = self._merge(out, self._scale(m.coeff, m.pp, t), False)
        return out

    # Domain interface
    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        self._require_same(a, b)
        return Polynomial(self, self._merge(a.terms, b.terms, False))

    def neg(self, a: Polynomial) -> Polynomial:
        self._require_same(a)
        return Polynomial(self, self._merge((), a.terms, True))

    def sub(self, a: Polynomial, b: Polynomial) -> Polynomial:
        self._require_same(a, b)
        return Polynomial(self, self._merge(a.terms, b.terms, True))

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        self._require_same(a, b)
        return Polynomial(self, self._times(a.terms, b.terms))

    def less(self, p: Polynomial, q: Polynomial) -> bool:
        rank, descending = self.order.rank, self.order.descending
        for mp, mq in zip(p.terms, q.terms):
            if mp.pp != mq.pp:
                return (rank(mp.pp) < rank(mq.pp)) != descending
            if mp.coeff != mq.coeff:
                return self.coeff.less(mp.coeff, mq.coeff)
        return len(p.terms) < len(q.terms)

    def _ann_family(self, g: Polynomial) -> tuple:
        """(scalar, scalar*g) pairs whose leads were annihilated in cascade.

        Each step kills at least the current leading term, so the supports
        strictly shrink and the family is finite.  It is built once per
        polynomial object and cached in ``g._lift``.
        """
        try:
            return g._lift
        except AttributeError:
            pass
        family = []
        scalar = self.coeff.one
        current = g
        while current:
            m0 = self.coeff.annihilator(current.leading_coeff())
            if m0 is None:
                break
            scalar = self.coeff.mul(m0, scalar)
            current = mono_mul(Monomial(m0, (0,) * self.nvars), current)
            if not current:
                break
            family.append((scalar, current))
        g._lift = tuple(family)
        return g._lift

    def _reducers(self, g: Polynomial) -> tuple:
        """Every rewrite g offers, as (index, coefficient index, scalar, lead
        coefficient, lead power product, tail) rows.

        At an ordinary index the one row rewrites with g itself, and its
        scalar is None.  At "ann" there is a row for each shadow scalar*g of
        the ann family crossed with each coefficient index.  The tail is
        the row's terms after its lead.  The rows come in the order
        ``find_multiplier`` and ``normal_form`` both try them, and are
        built once per polynomial object and cached in ``g._rows``.
        """
        try:
            return g._rows
        except AttributeError:
            pass
        rows = []
        for index in self.multiplier_indices:
            if index != "ann":
                rows.append((index, index, None, *g.terms[0], g.terms[1:]))
                continue
            for scalar, shadow in self._ann_family(g):
                for cindex in self.coeff.multiplier_indices:
                    rows.append((index, cindex, scalar, *shadow.terms[0], shadow.terms[1:]))
        g._rows = tuple(rows)
        return g._rows

    def reducer_rows(self, basis: Sequence, start: int = 0) -> list:
        """The ``_reducers`` rows of each nonzero g at position pos >= start
        of the basis, each as (pos, row)."""
        reducers = self._reducers
        return [(pos, row) for pos, g in enumerate(basis[start:], start) if g for row in reducers(g)]

    def _hit(self, f: Polynomial, g: Polynomial, index) -> Optional[tuple]:
        """(k, mc, q, scalar, lc, tail) for the first row of g at index
        (``_reducers``) that reduces a term of f: the position k of the
        greatest term c*x^pp of f that the row's lead lc*x^lpp reduces, the
        multiplier mc*x^q, q = pp - lpp, that reduces it, and the row's
        scalar and tail; None when no row reduces a term."""
        if not f.terms or not g.terms:
            return None
        find = self.coeff.find_multiplier
        for i, cindex, scalar, lc, lpp, tail in self._reducers(g):
            if i != index:
                continue
            for k, (c, pp) in enumerate(f.terms):
                if all(map(_le, lpp, pp)):
                    mc = find(c, lc, cindex)
                    if mc is not None:
                        return k, mc, tuple(map(_sub_exps, pp, lpp)), scalar, lc, tail
        return None

    def find_multiplier(self, f: Polynomial, g: Polynomial, index) -> Optional[Polynomial]:
        hit = self._hit(f, g, index)
        if hit is None:
            return None
        _k, mc, q, scalar, _lc, _tail = hit
        return self._term(mc if scalar is None else self.coeff.mul(mc, scalar), q)

    def reduct(self, f: Polynomial, g: Polynomial, index) -> Optional[tuple]:
        """(m, f - m*g) for the ``find_multiplier`` witness m, None without one.

        The row that ``find_multiplier`` takes gives m = mc*x^q at an
        ordinary index and m = mc*scalar*x^q at "ann", where the row is
        that of the shadow scalar*g.  Either way m*g is mc*x^q times the
        row's terms, and its lead falls on the hit term c*x^pp, k-th in f.
        So f - m*g is f's terms above pp, then the term c + (-mc)*lc at pp
        where it is nonzero (over Z and Z/nZ a term can stay there), then
        one ``_merge`` of f's terms below pp with (-mc)*x^q times the row's
        tail: no product polynomial m*g and no negation of its terms.
        """
        hit = self._hit(f, g, index)
        if hit is None:
            return None
        k, mc, q, scalar, lc, tail = hit
        coeff = self.coeff
        m = self._term(mc if scalar is None else coeff.mul(mc, scalar), q)
        nmc = coeff.neg(mc)
        c, pp = f.terms[k]
        c = coeff.add(c, coeff.mul(nmc, lc))
        head = (_new_tuple(Monomial, (c, pp)),) if c else ()
        rest = self._merge(f.terms[k + 1 :], self._scale(nmc, q, tail), False)
        return m, Polynomial(self, f.terms[:k] + head + rest)

    def normal_form(self, a: Polynomial, rows: Sequence, max_steps: int, steps: Optional[list]) -> Polynomial:
        """Totally reduce a modulo the basis whose ``reducer_rows`` are rows, top-down.

        The terms are walked from the top.  The current term c*x^pp is
        rewritten by the first row, element after element in declared
        order and within one element in ``_reducers`` order (at "ann" the
        first shadow and coefficient index), that reduces it, with the
        coefficient witness mc and q = pp - lpp for the row's lead
        lc*x^lpp.  The step subtracts mc*x^q times the row's terms, which
        are those of g or, at "ann", of the shadow scalar*g, in one pass:
        the term becomes c + (-mc)*lc at pp, and the row's tail, shifted by
        q and scaled by -mc, is merged into the unsettled terms below pp.
        The step is appended to steps as (pos, mc*x^q) or
        (pos, mc*scalar*x^q), a multiplier of basis[pos] itself, unless
        steps is None: then that multiplier is never built.  A term that
        no row reduces is settled, appended to the result, and never probed
        again.  Over Z and Z/nZ the rewritten term may stay at the same
        power product (a Euclidean remainder, a smaller residue); it is
        then probed again.  Each unsettled term carries its rank
        (``TermOrder.rank``), computed once, so a step ranks only the tail
        terms it shifts.  ``max_steps`` steps are allowed.

        Why the result means what the generic loop's result means: every
        settled term is irreducible by every element, so the term being
        rewritten is the greatest reducible term of the whole polynomial.
        Each step therefore rewrites the greatest term that element reduces
        at that index, as ``find_multiplier`` does, and strictly descends;
        only the choice between elements, and at "ann" between shadows,
        differs from ``reduce_step``.  Reducibility is decided term by term,
        so the h returned is irreducible at every index: the finite
        criterion, ``member_ideal`` and the cofactor rows keep their
        meaning.
        """
        coeff = self.coeff
        find, add, mul, neg = coeff.find_multiplier, coeff.add, coeff.mul, coeff.neg
        rank, descending = self.order.rank, self.order.descending
        taken = 0
        done: list = []  # the settled terms
        r = [(rank(m.pp), m) for m in a.terms]  # the unsettled terms, ranked, from r[i] on
        i, n = 0, len(r)
        while i < n:
            rk, mono = r[i]
            c, pp = mono
            for pos, (_, cindex, scalar, lc, lpp, tail) in rows:
                if all(map(_le, lpp, pp)):
                    mc = find(c, lc, cindex)
                    if mc is not None:
                        break
            else:
                done.append(mono)
                i += 1
                continue
            if taken == max_steps:
                raise step_cap_exceeded(self, a, max_steps)
            taken += 1
            q = tuple(map(_sub_exps, pp, lpp))
            if steps is not None:
                steps.append((pos, self._term(mc if scalar is None else mul(mc, scalar), q)))
            nmc = neg(mc)
            c = add(c, mul(nmc, lc))
            out = [(rk, _new_tuple(Monomial, (c, pp)))] if c else []
            append = out.append
            i += 1
            for gc, gpp in tail:
                d = mul(nmc, gc)
                if not d:
                    continue
                tpp = tuple(map(_add_exps, q, gpp))
                trk = rank(tpp)
                while i < n:
                    term = r[i]
                    rr = term[0]
                    if rr == trk:
                        d = add(term[1][0], d)
                        i += 1
                        break
                    if (rr < trk) != descending:
                        break  # the shifted tail term is above r[i]
                    append(term)
                    i += 1
                if d:
                    append((trk, _new_tuple(Monomial, (d, tpp))))
            out += r[i:]
            r, i, n = out, 0, len(out)
        return Polynomial(self, tuple(done))

    def mntcrs(self, g1: Polynomial, i1, g2: Polynomial, i2) -> list:
        if not (g1 and g2):
            return []
        ci1 = i1 if i1 != "ann" else self.coeff.multiplier_indices[0]
        ci2 = i2 if i2 != "ann" else self.coeff.multiplier_indices[0]
        # a reduction at "ann" rewrites with the shadows of the ann family
        shadows1 = [s for _, s in self._ann_family(g1)] if i1 == "ann" else [g1]
        shadows2 = [s for _, s in self._ann_family(g2)] if i2 == "ann" else [g2]
        out = []
        for e1 in shadows1:
            lc1, pp1 = e1.terms[0]
            for e2 in shadows2:
                lc2, pp2 = e2.terms[0]
                lcm = tuple(map(max, pp1, pp2))
                for c in self.coeff.mntcrs(lc1, ci1, lc2, ci2):
                    z = self._term(c, lcm)
                    if z not in out:
                        out.append(z)
        return out

    def field_lead(self, g: Polynomial) -> Pp:
        """g's leading power product: over a field it alone decides which terms g reduces.

        Over ring coefficients the coefficients decide too (see ``__init__``).
        """
        return g.terms[0].pp

    def canonical_associate(self, p: Polynomial) -> Polynomial:
        """p scaled by its inverse leading coefficient over field coefficients, p itself otherwise."""
        if not (p and self.coeff.is_field):
            return p
        inv = self.coeff.find_multiplier(self.coeff.one, p.terms[0].coeff, self.multiplier_indices[0])
        return mono_mul(Monomial(inv, (0,) * self.nvars), p)

    # syntax
    def render(self, p: Polynomial) -> str:
        if not p:
            return self.coeff.render(self.coeff.zero)
        parts = []
        for coeff, pp in p.terms:
            factors = []
            for name, e in zip(self.names, pp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            var_part = "*".join(factors)
            cs = self.coeff.render(coeff)
            if not var_part:
                parts.append(cs)
            elif cs == "1":
                parts.append(var_part)
            elif cs == "-1":
                parts.append("-" + var_part)
            else:
                parts.append(f"{cs}*{var_part}")
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def parse(self, text: str) -> Polynomial:
        """The polynomial that text denotes; a ValueError names the first fault.

        Whitespace may sit between any two tokens::

            polynomial := sign* term (sign+ term)*
            sign       := "+" | "-"
            term       := "*"* factor ("*"* factor)* "*"*
            factor     := digits ("/" digits)? | name (("^" | "**") digits)?
            name       := [A-Za-z_][A-Za-z_0-9]*

        Signs fold ("-" flips, "+" does nothing), factors multiply, an
        exponent is a literal non-negative integer, and ``p`` or ``p/q`` is
        one literal that the coefficient domain parses.
        """
        bad = _BAD_CHAR_RE.search(text)
        if bad:
            raise ValueError(f"unexpected character {bad[0]!r} at column {bad.start() + 1}")
        if not text.strip():
            raise ValueError("empty polynomial text")
        coeff, names = self.coeff, self.names
        items, negative = [], False
        exps = None  # the exponents of the term being read; None between terms
        for m in _SCAN_RE.finditer(text):
            sign, num, den, name, power, exp, op = m.groups()
            if sign:
                if exps is not None:
                    if c is None:
                        raise ValueError(f"expected a term at column {m.start(1) + 1}")
                    items.append((coeff.neg(c) if negative else c, tuple(exps)))
                    negative, exps = False, None
                negative ^= sign == "-"
                continue
            if exps is None:
                c, exps = None, [0] * self.nvars  # c stays None until a factor is read
            if num:
                value = coeff.parse(num if den is None else f"{num}/{den}")
                c = value if c is None else coeff.mul(c, value)
            elif name:
                col = m.start(4) + 1
                if name not in names:
                    raise ValueError(f"unknown variable {name!r} at column {col}")
                if power and not exp:
                    raise ValueError(f"missing exponent after {name!r} at column {col}")
                exps[names.index(name)] += int(exp) if exp else 1
                c = coeff.one if c is None else c
            elif op != "*":
                raise ValueError(f"unexpected token {op!r} at column {m.start(7) + 1}")
        if exps is None:
            raise ValueError("dangling sign at end of polynomial")
        if c is None:
            raise ValueError("expected a term at column end")
        items.append((coeff.neg(c) if negative else c, tuple(exps)))
        return self.poly(items)

    def sample_elements(self, rng: random.Random, count: int) -> list:
        out = []
        coeffs = self.coeff.sample_elements(rng, max(count * 3, 8))
        for _ in range(count):
            items = []
            for _ in range(rng.randint(0, 3)):
                pp = tuple(rng.randint(0, 2) for _ in range(self.nvars))
                items.append((rng.choice(coeffs), pp))
            out.append(self.poly(items))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.coeff == self.coeff
            and other.names == self.names
            and other.order == self.order
        )

    def __hash__(self) -> int:
        return hash((self.names, self.order))


class FractionFreePolyRing(PolyRing):
    """The polynomial ring over Q, reducing integer numerators over one denominator.

    ``make_poly_domain`` builds it where the coefficient domain offers the
    ``integer_image`` hook (the rationals).  Its normal form takes the steps
    of ``PolyRing.normal_form`` and returns the same h exactly, and appends
    the same steps when the caller keeps them, but does its arithmetic on
    integers: the loop over ``Fraction`` coefficients spends most of its
    time normalising each sum and product through a gcd.  The method is
    pseudo-division with primitive parts (Knuth, *The Art of Computer
    Programming* vol. 2, section 4.6.1).  Its reduct, one step that forms a
    side of a critical pair, builds one ``Fraction`` per term of the
    element's tail from integers, and none for the term that cancels.
    """

    def _image(self, g: Polynomial) -> tuple:
        """(L, d, tail) with g = (L*x^lpp + tail)/d, lpp g's lead power product.

        The tail is a tuple of (integer, power product) terms over the
        denominator d of ``integer_image``.  Built at the first normal-form
        step or reduct that takes a term with g, and cached in ``g._lift``.
        """
        try:
            return g._lift
        except AttributeError:
            pass
        terms = g.terms
        ns, d = self.coeff.integer_image([m.coeff for m in terms])
        g._lift = (ns[0], d, tuple(zip(ns[1:], [m.pp for m in terms[1:]])))
        return g._lift

    def reduct(self, f: Polynomial, g: Polynomial, index) -> Optional[tuple]:
        """``PolyRing.reduct`` on integer numerators.

        Over a field g reduces the greatest term c*x^pp of f whose power
        product g's lead power product lpp divides, with the multiplier
        m = (c/lc)*x^q, q = pp - lpp, at each of the ring's indices.  With
        g = (L*x^lpp + tail)/d (``_image``) and c = n/D,

            m*g = c*x^pp + (c/L)*x^q*tail,

        so the hit term cancels exactly: f - m*g is f without it, merged with
        -(c/L)*x^q*tail, one ratio(-n*t, D*L) per tail term t*x^tpp.  The loop
        over ``Fraction`` forms a product and then a negation per term of g
        instead.  Every ``Fraction`` is in lowest terms, so the values are the
        same.
        """
        if index not in self.multiplier_indices or not g.terms:
            return None
        lpp = g.terms[0].pp
        terms = f.terms
        for k, (c, pp) in enumerate(terms):
            if all(map(_le, lpp, pp)):
                break
        else:
            return None
        L, d, tail = self._image(g)
        (n,), D = self.coeff.integer_image([c])
        ratio = self.coeff.ratio
        q = tuple(map(_sub_exps, pp, lpp))
        DL = D * L
        r = tuple(
            [_new_tuple(Monomial, (ratio(-n * t, DL), tuple(map(_add_exps, q, tpp)))) for t, tpp in tail]
        )
        if len(terms) > 1:
            r = terms[:k] + self._merge(terms[k + 1 :], r, False)
        return self._term(ratio(n * d, DL), q), Polynomial(self, r)

    def reducer_rows(self, basis: Sequence, start: int = 0) -> list:
        """One row (pos, lead power product, g) for each nonzero g at
        position pos >= start of the basis.

        Over a field g reduces exactly the terms its lead power product
        divides, at every index, so one row stands for all of them.  The
        row holds g itself: ``normal_form`` reads g's ``_image`` only at a
        step that takes a term with g.
        """
        return [(pos, g.terms[0].pp, g) for pos, g in enumerate(basis[start:], start) if g]

    def normal_form(self, a: Polynomial, rows: Sequence, max_steps: int, steps: Optional[list]) -> Polynomial:
        """``PolyRing.normal_form`` on integer numerators.

        The steps are those of the top-down loop: over a field the first
        element whose lead power product divides the current term rewrites it.
        On entry a is converted once to R/D, R a list of integer terms over
        one denominator D, each ranked once as in ``PolyRing.normal_form``;
        each basis element g is (L*x^lpp + tail)/d (``_image``, built at the
        first step that takes a term with g).  The step that takes the
        term C*x^pp of R with g, with e = gcd(C, L) signed as L, is one merge:

            R/D - C*d/(D*L) * x^q * g = ((L/e)*R - (C/e)*x^q*(L*x^lpp + tail)) / (D*L/e)

        whose lead cancels, so the merge skips it and D grows by L/e > 0.  The
        multiplier is appended to steps as ratio(C*d, D*L), and a settled term
        is built as ratio(C, D): the exact values the loop over ``Fraction``
        gives.  A term that no step has changed keeps a's own monomial, so it
        settles with no ``Fraction`` built, as it does in the loop over
        ``Fraction``.  When steps is None no multiplier is built, which saves a
        ``Fraction`` (a gcd) and a one-term polynomial per step.  Once D
        passes 2**64, the gcd of D and R's integers is divided out of both, and
        again each time D has grown by another factor of 2**64: the gcd costs a
        pass over R, and on katsura6 trying it after every step cost more than
        it saved.
        """
        ratio, image = self.coeff.ratio, self._image
        rank, descending = self.order.rank, self.order.descending
        taken = 0
        done: list = []  # the settled terms
        limit = 1 << 64  # D above it: divide out the content
        ns, D = self.coeff.integer_image([m.coeff for m in a.terms])
        # the unsettled terms (rank, numerator, monomial, power product), from
        # r[i] on; monomial is a's own term, None once a step has changed it
        r = [(rank(m.pp), C, m, m.pp) for C, m in zip(ns, a.terms)]
        i, n = 0, len(r)
        while i < n:
            _, C, mono, pp = r[i]
            for pos, lpp, g in rows:
                if all(map(_le, lpp, pp)):
                    break
            else:
                done.append(mono or _new_tuple(Monomial, (ratio(C, D), pp)))
                i += 1
                continue
            if taken == max_steps:
                raise step_cap_exceeded(self, a, max_steps)
            taken += 1
            L, d, tail = image(g)
            q = tuple(map(_sub_exps, pp, lpp))
            if steps is not None:
                steps.append((pos, self._term(ratio(C * d, D * L), q)))
            e = gcd(C, L) if L > 0 else -gcd(C, L)
            s, t = L // e, C // e
            out: list = []
            append = out.append
            i += 1
            for gc, gpp in tail:
                tpp = tuple(map(_add_exps, q, gpp))
                trk = rank(tpp)
                c = -t * gc
                while i < n:
                    term = r[i]
                    rr = term[0]
                    if rr == trk:
                        c += s * term[1]
                        i += 1
                        break
                    if (rr < trk) != descending:
                        break  # the shifted tail term is above r[i]
                    append(term if s == 1 else (rr, s * term[1], term[2], term[3]))
                    i += 1
                if c:
                    append((trk, c, None, tpp))
            if s == 1:
                out += r[i:]
            else:
                out += [(rr, s * c, m, tpp) for rr, c, m, tpp in r[i:]]
            r, i, n = out, 0, len(out)
            D *= s
            if D > limit:
                content = gcd(D, *[term[1] for term in r])
                if content > 1:
                    D //= content
                    r = [(rr, c // content, m, tpp) for rr, c, m, tpp in r]
                limit = D << 64
        return Polynomial(self, tuple(done))


def make_poly_domain(coeff: Domain, names: Iterable[str], order) -> PolyRing:
    """Polynomial reduction ring over a coefficient domain.

    ``order`` may be a TermOrder or one of the kind strings.  The ring is a
    ``FractionFreePolyRing`` where the coefficient domain offers
    ``integer_image`` (Q), and a ``PolyRing`` otherwise.
    """
    names = tuple(names)
    if isinstance(order, str):
        order = TermOrder(order, len(names))
    if coeff.integer_image is not None:
        return FractionFreePolyRing(coeff, names, order)
    return PolyRing(coeff, names, order)

