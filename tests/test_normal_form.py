"""The top-down polynomial normal form against its contract and the generic loop.

``PolyRing.normal_form`` rewrites the greatest reducible term first and
settles each irreducible term once; ``Domain.normal_form``, the loop over
``reduce_step``, is the reference.  Over Q the same steps run on integer
numerators; the top-down loop over ``Fraction`` coefficients is the
reference there.  One step, ``reduct``, is checked against its
definition.  Over Z and Z/nZ each step is one pass, and the loop that
rebuilt the whole polynomial on every step, kept at the end of this file,
is the reference it must equal exactly.  Seeded with stdlib ``random``.
"""

import random
from fractions import Fraction

import pytest

from redring.buchberger import gb, member_ideal
from redring.core import (
    DEFAULT_STEP_BOUND,
    Domain,
    NonTerminationError,
    normal_form,
    reduce_step,
    step_cap_exceeded,
)
from redring.poly import FractionFreePolyRing, PolyRing, Polynomial, make_poly_domain
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
        rows = R.reducer_rows(basis)
        assert R.normal_form(a, rows, len(steps), None) == h, shown
        if steps:
            cap = rng.randrange(len(steps))
            with pytest.raises(NonTerminationError) as kept:
                R.normal_form(a, rows, cap, [])
            with pytest.raises(NonTerminationError) as stepless:
                R.normal_form(a, rows, cap, None)
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
            generic = not Domain.normal_form(R, p, list(enumerate(G)), DEFAULT_STEP_BOUND, [])
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
        rows = R.reducer_rows(basis)
        assert R.normal_form(a, rows, DEFAULT_STEP_BOUND, None) == h, shown
        if steps:
            cap = rng.randrange(len(steps))
            with pytest.raises(NonTerminationError) as fraction_free:
                R.normal_form(a, rows, cap, [])
            with pytest.raises(NonTerminationError) as stepless:
                R.normal_form(a, rows, cap, None)
            with pytest.raises(NonTerminationError) as fraction_loop:
                reference.normal_form(a, reference.reducer_rows(basis), cap, [])
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


# (basis, a) over Q[x,y] in degrevlex, where some or all of a's terms settle
# with no step changing them
UNCHANGED_TERMS = {
    "zero": (["2*x^2 - 3/5*y"], "0"),
    "no rows": ([], "7/3*y^4 + 5/2*x*y^2 - 1/7*y^2 + 2/11*x"),
    "zero rows": (["0", "0"], "7/3*y^4 + 5/2*x*y^2 - 1/7*y^2 + 2/11*x"),
    "irreducible": (["2*x^2 - 3/5*y", "3*x*y^3 + 1"], "7/3*y^4 + 5/2*x*y^2 - 1/7*y^2 + 2/11*x"),
    "irreducible top": (
        ["2*x^2 - 3/5*y", "3*x*y^3 + 1"],
        "-4*y^6 + 7/3*y^4 + 4/9*x^2*y + 5/2*x*y^2 - 1/7*y^2 + 2/11*x",
    ),
    "large scale": (
        ["5*x^2", "11/13*y^3 + x"],
        f"1/{3**30}*x^3 + {2**70}/17*x*y^2 + {5**33}*y^3 + 1/{7**25}*x*y + 2/11*x + 9",
    ),
}


@pytest.mark.parametrize("case", sorted(UNCHANGED_TERMS))
def test_fraction_free_normal_form_keeps_the_terms_no_step_changes(case, monkeypatch):
    coeff = make_field_domain()
    R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
    gens, text = UNCHANGED_TERMS[case]
    basis = [R.parse(t) for t in gens]
    a = R.parse(text)
    rows = R.reducer_rows(basis)
    ratios = []
    real = coeff.ratio
    monkeypatch.setattr(coeff, "ratio", lambda n, d: ratios.append((n, d)) or real(n, d))
    h = R.normal_form(a, rows, DEFAULT_STEP_BOUND, None)
    monkeypatch.undo()
    steps = []
    assert R.normal_form(a, rows, DEFAULT_STEP_BOUND, steps) == h
    reference = make_poly_domain(FractionLoopQ(), R.names, "degrevlex")
    assert (h, steps) == normal_form(reference, a, basis)
    # a term of a at a power product no step's m*g has a term at settles as
    # a's own monomial, and only the other settled terms build a Fraction
    touched = {t.pp for pos, m in steps for t in (m * basis[pos]).terms}
    kept = [t for t in a.terms if t.pp not in touched]
    assert [t for t in h.terms if any(t is u for u in a.terms)] == kept
    assert len(ratios) == len(h.terms) - len(kept)
    if case == "irreducible top":
        assert steps and kept[:2] == list(a.terms[:2])
    elif case == "large scale":
        # the first step drops the only term over 3**30, with a denominator
        # above 2**64, so 3**30 is divided out of the rest: the terms no step
        # changes keep a's monomials through that
        assert len(steps) == 2 and [t.pp for t in kept] == [(1, 2), (1, 1), (0, 0)]
    else:
        assert steps == [] and ratios == [] and h == a


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


# bases with zero elements, on the three row shapes: (pos, c) by default,
# (pos, _reducers row) over ring coefficients, (pos, lead pp, g) over Q
ROW_BASES = {
    "z": (make_integer_domain, ["0", "4", "-6", "0", "9", "0"]),
    "z[x,y]": (
        lambda: make_poly_domain(make_integer_domain(), ("x", "y"), "degrevlex"),
        ["0", "3*x^2 - y", "0", "2*x*y + 5", "y^2 - x", "0"],
    ),
    "zmod24[x,y]": (
        lambda: make_poly_domain(make_integer_quotient_domain(24), ("x", "y"), "degrevlex"),
        ["0", "4*x^2 + y", "0", "6*x*y + 3", "5*y^2 - x", "0"],
    ),
    "q[x,y]": (
        lambda: make_poly_domain(make_field_domain(), ("x", "y"), "degrevlex"),
        ["0", "2/3*x^2 - y", "0", "1/2*x*y + 5", "y^2 - 3/7*x", "0"],
    ),
}


def element_rows(dom, pos, c) -> list:
    """The rows of the one element c at basis position pos."""
    if isinstance(dom, FractionFreePolyRing):
        return [(pos, c.terms[0].pp, c)]
    if isinstance(dom, PolyRing):
        return [(pos, row) for row in dom._reducers(c)]
    return [(pos, c)]


@pytest.mark.parametrize("name", sorted(ROW_BASES))
def test_reducer_rows_list_the_nonzero_elements_from_start(name):
    make_dom, texts = ROW_BASES[name]
    dom = make_dom()
    basis = [dom.parse(t) for t in texts]
    listed = dom.reducer_rows(basis)
    if name == "q[x,y]":
        # listing converts no element: its integer image waits for a step
        assert not any(hasattr(g, "_lift") for g in basis)
    for start in range(len(basis) + 1):
        want = [row for pos, c in enumerate(basis) if pos >= start and c for row in element_rows(dom, pos, c)]
        rows = dom.reducer_rows(basis, start)
        assert rows == want, start
        # a basis listed up to start, extended from start, is listed whole
        assert dom.reducer_rows(basis[:start]) + rows == listed, start
    assert listed
    if name == "zmod24[x,y]":
        assert any(row[0] == "ann" for _pos, row in listed)


# reduct against its definition, (m, f - m*g) for the find_multiplier witness
# m: the generic PolyRing.reduct combines the hit term of f with the lead of
# a row of _reducers and merges the row's scaled tail into the rest of f,
# and over Q FractionFreePolyRing.reduct builds it on integer numerators
REDUCT_COEFFS = {**COEFFS, "q-fraction-loop": FractionLoopQ()}


def random_coeff(rng, coeff):
    """A nonzero coefficient: p/q with q up to 9 over Q, up to ±60 otherwise."""
    while True:
        if coeff.is_field:
            c = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        else:
            c = coeff.parse(str(rng.randint(-60, 60)))
        if c:
            return c


def random_reduct_poly(rng, R, terms):
    """1 to ``terms`` terms with exponents up to 2 and ``random_coeff`` coefficients."""
    items = [
        (random_coeff(rng, R.coeff), tuple(rng.randint(0, 2) for _ in range(R.nvars)))
        for _ in range(rng.randint(1, terms))
    ]
    return R.poly(items)


def assert_reduct_is_its_definition(dom, f, g, index) -> bool:
    """Whether f reduces by g at index; asserts reduct agrees with find_multiplier."""
    m = dom.find_multiplier(f, g, index)
    got = dom.reduct(f, g, index)
    if m is None:
        assert got is None
        return False
    assert got is not None
    assert got[0] == m
    assert got[1] == dom.sub(f, dom.mul(m, g))
    if hasattr(dom, "coeff"):  # term for term, coefficient types included
        for want, have in zip((m, dom.sub(f, dom.mul(m, g))), got):
            assert have.terms == want.terms
            assert [type(c) for c, _ in have.terms] == [type(c) for c, _ in want.terms]
    return True


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("name", sorted(REDUCT_COEFFS))
def test_polynomial_reduct_is_its_definition(name, order):
    R = make_poly_domain(REDUCT_COEFFS[name], ("x", "y", "z"), order)
    # "ann" is probed on every ring; where it is not an index, nothing reduces at it
    indices = tuple(dict.fromkeys((*R.multiplier_indices, "ann")))
    rng = random.Random(f"reduct-{name}-{order}")
    hits = {(index, one_term): 0 for index in indices for one_term in (True, False)}
    misses = 0
    for _ in range(300):
        g = random_reduct_poly(rng, R, 4)
        for one_term in (True, False):
            f = random_reduct_poly(rng, R, 1 if one_term else 6)
            # a mntcr-like f: one term at a multiple of g's lead power product
            if one_term and rng.random() < 0.5:
                pp = tuple(e + rng.randint(0, 1) for e in g.leading_pp())
                f = R.monomial(random_coeff(rng, R.coeff), pp)
            for index in indices:
                if assert_reduct_is_its_definition(R, f, g, index):
                    hits[index, one_term] += 1
                else:
                    misses += 1
    for index in indices:
        assert R.reduct(R.zero, g, index) is None and R.find_multiplier(R.zero, g, index) is None
        assert R.reduct(g, R.zero, index) is None and R.find_multiplier(g, R.zero, index) is None
    assert misses
    assert all(hits[key] for key in hits if key[0] in R.multiplier_indices), hits
    assert "ann" in R.multiplier_indices or not any(hits[key] for key in hits if key[0] == "ann")


@pytest.mark.parametrize("name", ["q", "z", "zmod24"])
def test_scalar_reduct_is_its_definition(name):
    coeff = COEFFS[name]
    rng = random.Random(f"reduct-{coeff.name}")
    pool = [coeff.zero, coeff.one] + coeff.sample_elements(rng, 40)
    hits = sum(
        assert_reduct_is_its_definition(coeff, a, c, index)
        for a in pool
        for c in pool
        for index in coeff.multiplier_indices
    )
    assert hits


@pytest.mark.parametrize("name", ["q", "zmod24"])
def test_reduce_step_takes_the_reduct(name, monkeypatch):
    R = make_poly_domain(COEFFS[name], ("x", "y", "z"), "degrevlex")
    basis = [R.parse("6*y^2 + x"), R.parse("4*x*y - 3*z")]
    a = R.parse("5*x^2*y^3 + 7*x*y*z + 2")
    made = []
    real = R.reduct
    monkeypatch.setattr(R, "reduct", lambda *args: made.append(real(*args)) or made[-1])
    b, pos, m = reduce_step(R, a, basis)
    assert made[-1] == (m, b) and made[-1][1] is b
    assert pos == 0 and b == R.sub(a, R.mul(m, basis[0]))


def test_rational_reduct_does_no_coefficient_arithmetic(monkeypatch):
    coeff = make_field_domain()
    R = make_poly_domain(coeff, ("x", "y", "z"), "degrevlex")
    g = R.parse("3/4*x^2 - 2/5*y*z + 7/3")
    z = R.parse("-5/6*x^2*y*z")
    calls = []
    for name in ("add", "neg", "mul", "find_multiplier"):
        real = getattr(coeff, name)
        monkeypatch.setattr(coeff, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    m, a = R.reduct(z, g, 0)
    assert calls == []
    monkeypatch.undo()
    assert (m, a) == (R.parse("-10/9*y*z"), R.parse("-4/9*y^2*z^2 + 70/27*y*z"))


# The generic rule as it was before each step became one pass: the normal
# form rebuilt h[:k] + _merge(h[k:], scaled row) on every step, and reduct
# merged the whole scaled row, lead included, into f.  Kept here only, as
# the reference the one-pass PolyRing.normal_form and reduct must equal.


def reference_rows(R, g) -> list:
    """(index, coefficient index, scalar, lead coefficient, lead power
    product, terms) rows of g, in the order both references try them."""
    rows = []
    for index in R.multiplier_indices:
        if index != "ann":
            rows.append((index, index, None, *g.terms[0], g.terms))
            continue
        for scalar, shadow in R._ann_family(g):
            for cindex in R.coeff.multiplier_indices:
                rows.append((index, cindex, scalar, *shadow.terms[0], shadow.terms))
    return rows


def reference_normal_form(R, a, basis, max_steps, steps):
    reducers = [(pos, row) for pos, g in enumerate(basis) if g for row in reference_rows(R, g)]
    find, mul, neg = R.coeff.find_multiplier, R.coeff.mul, R.coeff.neg
    taken = 0
    h, k = a.terms, 0  # h[:k] is settled
    while k < len(h):
        c, pp = h[k]
        for pos, (_, cindex, scalar, lc, lpp, g_terms) in reducers:
            if all(e <= f for e, f in zip(lpp, pp)):
                mc = find(c, lc, cindex)
                if mc is not None:
                    break
        else:
            k += 1
            continue
        if taken == max_steps:
            raise step_cap_exceeded(R, a, max_steps)
        taken += 1
        q = tuple(f - e for e, f in zip(lpp, pp))
        if steps is not None:
            steps.append((pos, R._term(mc if scalar is None else mul(mc, scalar), q)))
        h = h[:k] + R._merge(h[k:], R._scale(neg(mc), q, g_terms), False)
    return Polynomial(R, h)


def reference_reduct(R, f, g, index):
    if not f.terms or not g.terms:
        return None
    for i, cindex, scalar, lc, lpp, terms in reference_rows(R, g):
        if i != index:
            continue
        for c, pp in f.terms:
            if all(e <= x for e, x in zip(lpp, pp)):
                mc = R.coeff.find_multiplier(c, lc, cindex)
                if mc is not None:
                    q = tuple(x - e for e, x in zip(lpp, pp))
                    m = R._term(mc if scalar is None else R.coeff.mul(mc, scalar), q)
                    scaled = R._scale(R.coeff.neg(mc), q, terms)
                    return m, Polynomial(R, R._merge(f.terms, scaled, False))
    return None


def replayed_kinds(R, a, basis, steps) -> tuple:
    """(stays, ann): how many steps left a term at the power product they
    rewrote, and how many rewrote through a shadow of the "ann" index.

    The lead of m*g is the rewritten term; a step at an ordinary index has
    it at m's power product times g's lead power product, one through a
    shadow (whose lead sits lower in g) below that.
    """
    stays = ann = 0
    current = a
    for pos, m in steps:
        g = basis[pos]
        shift = R.mul(m, g)
        after = R.sub(current, shift)
        top = shift.leading_pp()
        stays += top in {pp for _, pp in after.terms}
        ann += top != tuple(x + y for x, y in zip(m.leading_pp(), g.leading_pp()))
        current = after
    return stays, ann


ONE_PASS_RINGS = {
    "z[x,y,z]": (make_integer_domain, ("x", "y", "z")),
    "zmod24[x,y]": (lambda: make_integer_quotient_domain(24), ("x", "y")),
    "zmod72[x,y]": (lambda: make_integer_quotient_domain(72), ("x", "y")),
    "zmod360[x,y]": (lambda: make_integer_quotient_domain(360), ("x", "y")),
}


@pytest.mark.parametrize("order", ["lex", "deglex", "degrevlex"])
@pytest.mark.parametrize("name", sorted(ONE_PASS_RINGS))
def test_one_pass_normal_form_equals_the_rebuilding_loop(name, order):
    make_coeff, names = ONE_PASS_RINGS[name]
    R = make_poly_domain(make_coeff(), names, order)
    assert type(R) is PolyRing
    rng = random.Random(f"one-pass-{name}-{order}")
    stays = ann = capped = 0
    for _ in range(80):
        basis = [random_reduct_poly(rng, R, 3) for _ in range(rng.randint(1, 3))]
        a = random_reduct_poly(rng, R, 7)
        shown = (R.render(a), [R.render(g) for g in basis])
        want_steps: list = []
        want = reference_normal_form(R, a, basis, DEFAULT_STEP_BOUND, want_steps)
        h, steps = normal_form(R, a, basis)
        assert h.terms == want.terms and steps == want_steps, shown
        rows = R.reducer_rows(basis)
        assert R.normal_form(a, rows, len(steps), None).terms == h.terms, shown
        kinds = replayed_kinds(R, a, basis, steps)
        stays, ann = stays + kinds[0], ann + kinds[1]
        if steps:
            cap = rng.randrange(len(steps))
            messages = set()
            for run in (
                lambda: R.normal_form(a, rows, cap, []),
                lambda: R.normal_form(a, rows, cap, None),
                lambda: reference_normal_form(R, a, basis, cap, []),
            ):
                with pytest.raises(NonTerminationError) as stopped:
                    run()
                messages.add(str(stopped.value))
            assert len(messages) == 1, (shown, messages)
            capped += 1
    # Euclidean remainders and smaller residues stay at their power product;
    # over Z/nZ some steps rewrite through the "ann" shadows
    assert stays and capped
    assert bool(ann) == ("ann" in R.multiplier_indices)


@pytest.mark.parametrize("order", ["lex", "deglex", "degrevlex"])
@pytest.mark.parametrize("name", sorted(ONE_PASS_RINGS))
def test_one_pass_reduct_equals_the_whole_row_merge(name, order):
    make_coeff, names = ONE_PASS_RINGS[name]
    R = make_poly_domain(make_coeff(), names, order)
    rng = random.Random(f"one-pass-reduct-{name}-{order}")
    hits = {index: 0 for index in R.multiplier_indices}
    stays = 0
    for _ in range(150):
        g = random_reduct_poly(rng, R, 4)
        f = random_reduct_poly(rng, R, 6)
        if rng.random() < 0.5:  # a mntcr-like f: one term at a multiple of g's lead
            pp = tuple(e + rng.randint(0, 1) for e in g.leading_pp())
            f = R.monomial(random_coeff(rng, R.coeff), pp) + random_reduct_poly(rng, R, 2)
        for index in R.multiplier_indices:
            want = reference_reduct(R, f, g, index)
            got = R.reduct(f, g, index)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert got[0].terms == want[0].terms and got[1].terms == want[1].terms
            hits[index] += 1
            stays += replayed_kinds(R, f, [g], [(0, got[0])])[0]
    assert all(hits.values()) and stays, (hits, stays)
