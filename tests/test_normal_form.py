"""The top-down polynomial normal form against its contract and the generic loop.

``PolyRing.normal_form`` rewrites the greatest reducible term first and
settles each irreducible term once; ``Domain.normal_form``, the loop over
``reduce_step``, is the reference.  Over Q the same steps run on integer
numerators; the top-down loop over ``Fraction`` coefficients is the
reference there.  Seeded with stdlib ``random``.
"""

import random
from fractions import Fraction

import pytest

from redring.buchberger import gb, member_ideal
from redring.core import DEFAULT_STEP_BOUND, Domain, NonTerminationError, normal_form
from redring.poly import make_poly_domain
from redring.scalars import (
    RationalFieldDomain,
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
        # with no step list: the same h within as many steps, the same
        # message at a lower cap
        assert R.normal_form(a, basis, len(steps), None) == h, shown
        if steps:
            cap = rng.randrange(len(steps))
            with pytest.raises(NonTerminationError) as kept:
                R.normal_form(a, basis, cap, [])
            with pytest.raises(NonTerminationError) as stepless:
                R.normal_form(a, basis, cap, None)
            assert str(kept.value) == str(stepless.value), shown


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
            generic = not Domain.normal_form(R, p, G, DEFAULT_STEP_BOUND, [])
            assert top_down == generic == member_ideal(R, p, G), (R.render(p), [R.render(g) for g in G])
            verdicts.append(top_down)
    assert True in verdicts and False in verdicts


class FractionLoopQ(RationalFieldDomain):
    """The rationals without an integer image: polynomial rings over it take
    the top-down loop over ``Fraction`` coefficients."""

    integer_image = None


def random_rational_poly(rng, R, terms, size, den):
    """1 to ``terms`` terms over Q[x,y], exponents up to 3, coefficients p/q
    with 0 < |p| <= size and 0 < q <= den."""
    items = []
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.choice((1, -1)) * rng.randint(1, size), rng.randint(1, den))
        items.append((c, (rng.randint(0, 3), rng.randint(0, 3))))
    return R.poly(items)


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
def test_fraction_free_normal_form_matches_the_fraction_loop(order):
    coeff = make_field_domain()
    denominators = []
    coeff.ratio = lambda n, d: denominators.append(d) or Fraction(n, d)
    R = make_poly_domain(coeff, ("x", "y"), order)
    reference = make_poly_domain(FractionLoopQ(), ("x", "y"), order)
    rng = random.Random(f"fraction-free-{order}")
    capped = 0
    for trial in range(200):
        # leads that are not 1; every fourth probe has numerators up to 2**40
        # and denominators up to 2**20, so that its scale passes 2**64
        basis = [random_rational_poly(rng, R, 3, 9, 7) for _ in range(rng.randint(1, 3))]
        size, den = (2**40, 2**20) if trial % 4 == 0 else (50, 30)
        a = random_rational_poly(rng, R, 8, size, den)
        shown = (R.render(a), [R.render(g) for g in basis])
        h, steps = normal_form(R, a, basis)
        assert (h, steps) == normal_form(reference, a, basis), shown
        assert R.normal_form(a, basis, DEFAULT_STEP_BOUND, None) == h, shown
        if steps:
            cap = rng.randrange(len(steps))
            with pytest.raises(NonTerminationError) as fraction_free:
                R.normal_form(a, basis, cap, [])
            with pytest.raises(NonTerminationError) as stepless:
                R.normal_form(a, basis, cap, None)
            with pytest.raises(NonTerminationError) as fraction_loop:
                reference.normal_form(a, basis, cap, [])
            assert str(fraction_free.value) == str(stepless.value) == str(fraction_loop.value), shown
            capped += 1
    assert capped > 100
    # the scale of the unsettled part passed 2**64, where its content is divided out
    assert max(map(abs, denominators)) >> 64


def test_fraction_free_normal_form_does_no_coefficient_arithmetic(monkeypatch):
    coeff = make_field_domain()
    R = make_poly_domain(coeff, ("x", "y", "z"), "degrevlex")
    basis = [R.parse("3*x^2 - 2/5*y*z + 1"), R.parse("-7/2*y^2 + x*z - 4"), R.parse("5*z^2 - x")]
    a = R.parse("2/3*x^3*y^2 + 5*x^2*y*z^2 - 1/7*y^3*z + 9*z^3 - 11")
    calls = []
    for name in ("add", "neg", "mul", "find_multiplier"):
        real = getattr(coeff, name)
        monkeypatch.setattr(coeff, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    h, steps = normal_form(R, a, basis)
    assert len(steps) >= 5
    assert calls == []
    monkeypatch.undo()
    reference = make_poly_domain(FractionLoopQ(), R.names, "degrevlex")
    assert (h, steps) == normal_form(reference, a, basis)


@pytest.mark.parametrize("name", ["z", "zmod24", "zmod360"])
def test_ring_coefficients_take_the_top_down_loop(name, monkeypatch):
    coeff = COEFFS[name]
    assert coeff.integer_image is None
    R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
    basis = [R.parse("4*x*y + 3"), R.parse("6*y^2 + x")]
    a = R.parse("17*x^2*y^3 + 23*x*y^2 + 5")
    calls = []
    real = coeff.find_multiplier
    monkeypatch.setattr(coeff, "find_multiplier", lambda *args: calls.append(args) or real(*args))
    _h, steps = normal_form(R, a, basis)
    assert steps and len(calls) >= len(steps)


# (coefficients, variables, generators, cofactors): the probe is the sum of
# cofactor times basis element, a member that reduces to zero in 3 or more steps
MEMBER_PROBES = {
    "q": (
        make_field_domain,
        ("x", "y", "z"),
        ["3*x^2 - 2/5*y*z + 1", "-7/2*y^2 + x*z - 4", "5*z^2 - x"],
        ["2/3*x*y", "y - 1/4"],
    ),
    "zmod24": (lambda: make_integer_quotient_domain(24), ("x", "y"), ["4*x^2 + y", "6*x*y"], ["x*y + 5", "x"]),
}


@pytest.mark.parametrize("name", sorted(MEMBER_PROBES))
def test_member_ideal_builds_no_step_multiplier(name, monkeypatch):
    make_coeff, names, gens, cofactors = MEMBER_PROBES[name]
    coeff = make_coeff()
    R = make_poly_domain(coeff, names, "degrevlex")
    G = gb(R, [R.parse(t) for t in gens]).basis
    probe = R.zero
    for t, g in zip(cofactors, G):
        probe = probe + R.parse(t) * g
    calls = []
    counted = [(R, "_term")] + ([(coeff, "ratio")] if name == "q" else [])
    for obj, attr in counted:
        real = getattr(obj, attr)
        monkeypatch.setattr(obj, attr, lambda *args, real=real, attr=attr: calls.append(attr) or real(*args))
    assert member_ideal(R, probe, G)
    assert calls == []
    h, steps = normal_form(R, probe, G)
    assert not h and len(steps) >= 3
    for _obj, attr in counted:
        assert calls.count(attr) >= 3, attr
