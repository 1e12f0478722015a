"""Independent ground-truth oracles used by the test and acceptance suites.

Nothing here calls into the completion engine or the generic reduction
calculus: membership in Z goes through the gcd, membership in Z/nZ through
exhaustive closure, and the classical field-coefficient Buchberger algorithm
below carries its own textbook S-polynomial loop and long division.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .core import Domain
from .poly import Monomial, Polynomial, mono_mul, pp_divides, pp_lcm, pp_quotient


def gcd_membership_oracle(generators: Sequence[int], probe: int) -> bool:
    """Membership in the integer ideal of the generators: gcd divisibility."""
    g = 0
    for x in generators:
        g = math.gcd(g, abs(x))
    if g == 0:
        return probe == 0
    return probe % g == 0


def exhaustive_ideal_oracle(n: int, generators: Sequence[int], probe: int) -> bool:
    """Membership in the ideal of Z/nZ, by closing {0} under generator shifts."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    members = {0}
    frontier = [0]
    gens = [g % n for g in generators]
    while frontier:
        s = frontier.pop()
        for g in gens:
            v = (s + g) % n
            if v not in members:
                members.add(v)
                frontier.append(v)
    return probe % n in members


def _head_reduce(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Textbook multivariate division: cancel divisible heads, move the rest out."""
    ring = p.ring
    remainder = ring.zero
    while p:
        lead = p.leading_monomial()
        hit = None
        for g in basis:
            if g and pp_divides(g.leading_pp(), lead.pp):
                hit = g
                break
        if hit is None:
            remainder = remainder + ring.monomial(lead.coeff, lead.pp)
            p = p - ring.monomial(lead.coeff, lead.pp)
        else:
            factor = Monomial(
                lead.coeff / hit.leading_coeff(), pp_quotient(lead.pp, hit.leading_pp())
            )
            p = p - mono_mul(factor, hit)
    return remainder


def _monic(p: Polynomial) -> Polynomial:
    if not p:
        return p
    inv = 1 / p.leading_coeff()
    return mono_mul(Monomial(inv, (0,) * p.ring.nvars), p)


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = pp_lcm(f.leading_pp(), g.leading_pp())
    mf = Monomial(1 / f.leading_coeff(), pp_quotient(lcm, f.leading_pp()))
    mg = Monomial(1 / g.leading_coeff(), pp_quotient(lcm, g.leading_pp()))
    return mono_mul(mf, f) - mono_mul(mg, g)


def classical_buchberger_oracle(system: Sequence[Polynomial]) -> list:
    """A plain S-polynomial Buchberger loop over field coefficients."""
    basis = [_monic(f) for f in system if f]
    if not basis:
        return []
    ring = basis[0].ring
    for f in basis:
        if f.ring != ring:
            raise ValueError("system mixes polynomial rings")
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        s = _spoly(basis[i], basis[j])
        r = _head_reduce(s, basis)
        if r:
            basis.append(_monic(r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def classical_normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """The oracle's own full division, exposed for cross-checks."""
    return _head_reduce(p, basis)


def sample_ideal_element(
    dom: Domain,
    generators: Sequence,
    seed: int,
    budget: int,
) -> tuple:
    """A pseudo-random exact combination of the generators, with its cofactors.

    Returns (element, cofactors) where element = sum(cofactors[k] * generators[k]).
    """
    if not generators:
        raise ValueError("need at least one generator")
    rng = random.Random(seed)
    element = dom.zero
    cofactors: dict = {}
    for _ in range(budget):
        k = rng.randrange(len(generators))
        m = dom.sample_elements(rng, 1)[0]
        element = dom.add(element, dom.mul(m, generators[k]))
        cofactors[k] = dom.add(cofactors.get(k, dom.zero), m)
    return element, cofactors
