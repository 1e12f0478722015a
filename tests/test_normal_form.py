"""The top-down polynomial normal form against its contract and the generic loop.

``PolyRing.normal_form`` rewrites the greatest reducible term first and
settles each irreducible term once; ``Domain.normal_form``, the loop over
``reduce_step``, is the reference.  Seeded with stdlib ``random``.
"""

import random

import pytest

from redring.buchberger import gb
from redring.core import DEFAULT_STEP_BOUND, Domain, normal_form
from redring.poly import make_poly_domain
from redring.scalars import (
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

COEFFS = {
    "q": make_field_domain(),
    "z": make_integer_domain(),
    "zmod24": make_integer_quotient_domain(24),
    "zmod360": make_integer_quotient_domain(360),
}


def random_poly(rng, R, terms, size):
    """Up to ``terms`` terms of degree at most 2 per variable, coefficients within ±size."""
    items = []
    for _ in range(rng.randint(1, terms)):
        c = R.coeff.parse(str(rng.randint(-size, size)))
        items.append((c, (rng.randint(0, 2), rng.randint(0, 2))))
    return R.poly(items)


def random_basis(rng, R, size):
    """1 to 3 nonzero elements of 1 or 2 terms."""
    basis = []
    while len(basis) < rng.randint(1, 3):
        g = random_poly(rng, R, 2, size)
        if g:
            basis.append(g)
    return basis


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("name", sorted(COEFFS))
def test_top_down_normal_form_keeps_its_contract(name, order):
    R = make_poly_domain(COEFFS[name], ("x", "y"), order)
    rng = random.Random(f"{name}-{order}")
    for _ in range(60):
        basis = random_basis(rng, R, 40)
        a = random_poly(rng, R, 6, 400)
        h, steps = normal_form(R, a, basis)
        shown = (R.render(a), [R.render(g) for g in basis])
        # irreducible at every index, "ann" included
        for g in basis:
            for index in R.multiplier_indices:
                assert R.find_multiplier(h, g, index) is None, (shown, R.render(h), index)
        # every step strictly descends, and the steps replay a - h exactly
        current, combination = a, R.zero
        for pos, m in steps:
            after = current - m * basis[pos]
            assert R.less(after, current), shown
            current, combination = after, combination + m * basis[pos]
        assert current == h, shown
        assert a - h == combination, shown


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("name", sorted(COEFFS))
def test_member_verdicts_agree_with_the_generic_loop(name, order):
    R = make_poly_domain(COEFFS[name], ("x", "y"), order)
    rng = random.Random(f"member-{name}-{order}")
    verdicts = []
    for _ in range(6):
        gens = random_basis(rng, R, 9)
        # the pair cap stops a completion that a faulty normal form sends astray
        G = gb(R, gens, max_pairs=1000).basis
        combination = R.zero
        for g in gens:
            combination = combination + random_poly(rng, R, 2, 9) * g
        for p in (combination, random_poly(rng, R, 4, 30), combination + random_poly(rng, R, 1, 9)):
            top_down = not normal_form(R, p, G)[0]
            generic = not Domain.normal_form(R, p, G, DEFAULT_STEP_BOUND)[0]
            assert top_down == generic, (R.render(p), [R.render(g) for g in G])
            verdicts.append(top_down)
    assert True in verdicts and False in verdicts
