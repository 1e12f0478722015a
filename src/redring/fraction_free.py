"""The polynomial normal form and reduct over Q on integer numerators.

``PolyRing.normal_form`` runs ``normal_form`` here, and ``PolyRing.reduct``
runs ``reduct``, where the coefficient domain offers the ``integer_image``
hook (the rationals).  The normal form takes the steps of the top-down
loop and returns the same h exactly, and appends the same steps when the
caller keeps them, but does its arithmetic on integers over one
denominator: the loop over ``Fraction`` coefficients spends most of its
time normalising each sum and product through a gcd.  The method is
pseudo-division with primitive parts (Knuth, *The Art of Computer
Programming* vol. 2, section 4.6.1).  The reduct, one step that forms a
side of a critical pair, builds one ``Fraction`` per term of the
element's tail from integers, and none for the term that cancels.
"""

from __future__ import annotations

from math import gcd
from operator import add as _add_exps, le as _le, sub as _sub_exps
from typing import Optional, Sequence

from .core import step_cap_exceeded
from .poly import Monomial, Polynomial, _new_tuple


def _image(ring, g: Polynomial) -> tuple:
    """(L, d, tail) with g = (L*x^lpp + tail)/d, lpp g's lead power product.

    The tail is a tuple of (integer, power product) terms over the
    denominator d of ``integer_image``.  Built when a step or a reduct
    first rewrites with g, and cached in ``g._lift``.
    """
    try:
        return g._lift
    except AttributeError:
        pass
    terms = g.terms
    ns, d = ring.coeff.integer_image([m.coeff for m in terms])
    g._lift = (ns[0], d, tuple(zip(ns[1:], [m.pp for m in terms[1:]])))
    return g._lift


def _fused_step(r: list, i: int, s: int, t: int, q: tuple, tail: tuple, rank, descending: bool) -> list:
    """s*r[i:] - t*x^q*tail, both descending, as a new list of r's terms.

    r holds (rank, integer, monomial, power product) terms, where monomial
    is a's own term while the integer is a's coefficient scaled with D, and
    None once a step has changed it; tail holds (integer, power product)
    terms, ranked here after the shift by q.  Zero sums drop.
    """
    out = []
    append = out.append
    n = len(r)
    for gc, gpp in tail:
        pp = tuple(map(_add_exps, q, gpp))
        rk = rank(pp)
        c = -t * gc
        while i < n:
            term = r[i]
            rr = term[0]
            if rr == rk:
                c += s * term[1]
                i += 1
                break
            if (rr < rk) != descending:
                break  # the shifted tail term is above r[i]
            append(term if s == 1 else (rr, s * term[1], term[2], term[3]))
            i += 1
        if c:
            append((rk, c, None, pp))
    if s == 1:
        out += r[i:]
    else:
        out += [(rr, s * c, mono, pp) for rr, c, mono, pp in r[i:]]
    return out


def reduct(ring, f: Polynomial, g: Polynomial, index) -> Optional[tuple]:
    """``PolyRing.reduct`` over the rationals, on integer numerators; g is nonzero.

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
    if index not in ring.multiplier_indices:
        return None
    lpp = g.terms[0].pp
    terms = f.terms
    for k, (c, pp) in enumerate(terms):
        if all(map(_le, lpp, pp)):
            break
    else:
        return None
    L, d, tail = _image(ring, g)
    (n,), D = ring.coeff.integer_image([c])
    ratio = ring.coeff.ratio
    q = tuple(map(_sub_exps, pp, lpp))
    DL = D * L
    r = tuple(
        [_new_tuple(Monomial, (ratio(-n * t, DL), tuple(map(_add_exps, q, tpp)))) for t, tpp in tail]
    )
    if len(terms) > 1:
        r = terms[:k] + ring._merge(terms[k + 1 :], r, False)
    return ring._term(ratio(n * d, DL), q), Polynomial(ring, r)


def normal_form(ring, a: Polynomial, basis: Sequence, max_steps: int, steps: Optional[list]) -> Polynomial:
    """``PolyRing.normal_form`` over the rationals, on integer numerators.

    The steps are those of the top-down loop: over a field the first
    element whose lead power product divides the current term rewrites it.
    A settled term that no step has changed is a's own monomial, as it is
    in the loop over ``Fraction``.  From the first step on, the unsettled
    part is R/D, R a list of integer terms, and each basis element g is
    (L*x^lpp + tail)/d (``_image``).  The step that takes the term C*x^pp
    of R with g, with e = gcd(C, L) signed as L, is one merge:

        R/D - C*d/(D*L) * x^q * g = ((L/e)*R - (C/e)*x^q*(L*x^lpp + tail)) / (D*L/e)

    whose lead cancels, so the merge skips it and D grows by L/e > 0.  The
    multiplier is appended to steps as ratio(C*d, D*L), and a settled term
    is built as ratio(C, D): the exact values the loop over ``Fraction``
    gives.  When steps is None no multiplier is built, which saves a
    ``Fraction`` (a gcd) and a one-term polynomial per step.  Once D
    passes 2**64, the gcd of D and R's integers is divided out of both, and
    again each time D has grown by another factor of 2**64: the gcd costs a
    pass over R, and on katsura6 trying it after every step cost more than
    it saved.
    """
    reducers = [(pos, g.terms[0].pp, g) for pos, g in enumerate(basis) if g]
    ratio = ring.coeff.ratio
    rank, descending = ring.order.rank, ring.order.descending
    taken = 0
    done: list = []  # the settled terms, once a step has been taken
    limit = 1 << 64  # D above it: divide out the content
    r, i, D = a.terms, 0, None  # r[:i] is settled; D is None before the first step
    while i < len(r):
        pp = r[i][-1]
        for pos, lpp, g in reducers:
            if all(map(_le, lpp, pp)):
                break
        else:
            if D is not None:
                _, n, mono, _ = r[i]
                done.append(mono or _new_tuple(Monomial, (ratio(n, D), pp)))
            i += 1
            continue
        if taken == max_steps:
            raise step_cap_exceeded(ring, a, max_steps)
        taken += 1
        if D is None:
            done += r[:i]
            ns, D = ring.coeff.integer_image([m.coeff for m in r[i:]])
            r, i = [(rank(m.pp), n, m, m.pp) for n, m in zip(ns, r[i:])], 0
        C = r[i][1]
        L, d, tail = _image(ring, g)
        q = tuple(map(_sub_exps, pp, lpp))
        if steps is not None:
            steps.append((pos, ring._term(ratio(C * d, D * L), q)))
        e = gcd(C, L) if L > 0 else -gcd(C, L)
        s = L // e
        r, i = _fused_step(r, i + 1, s, C // e, q, tail, rank, descending), 0
        D *= s
        if D > limit:
            content = gcd(D, *[term[1] for term in r])
            if content > 1:
                D //= content
                r = [(rr, n // content, mono, pp) for rr, n, mono, pp in r]
            limit = D << 64
    if D is None:
        return Polynomial(ring, a.terms)
    return Polynomial(ring, tuple(done))
