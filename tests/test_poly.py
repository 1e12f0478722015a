import itertools
import random
from fractions import Fraction

import pytest

from redring.core import normal_form, reduce_step
from redring.poly import (
    Monomial,
    TermOrder,
    make_poly_domain,
    mono_mul,
    pp_divides,
    pp_lcm,
    pp_quotient,
)
from redring.scalars import (
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

Q = make_field_domain()
Z = make_integer_domain()
Z24 = make_integer_quotient_domain(24)


def dict_model(p):
    """The finite-support coefficient-function view of a polynomial."""
    return {m.pp: m.coeff for m in p.terms}


def dict_add(dom, a, b):
    out = dict(a)
    for pp, c in b.items():
        out[pp] = dom.add(out.get(pp, dom.zero), c)
    return {pp: c for pp, c in out.items() if not dom.is_zero(c)}


def dict_mul(dom, a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            pp = tuple(x + y for x, y in zip(pa, pb))
            out[pp] = dom.add(out.get(pp, dom.zero), dom.mul(ca, cb))
    return {pp: c for pp, c in out.items() if not dom.is_zero(c)}


class TestPowerProducts:
    def test_mul_lcm_divides_quotient(self):
        assert pp_lcm((2, 1), (1, 3)) == (2, 3)
        assert not pp_divides((1, 1), (1, 0))
        assert pp_divides((1, 0), (1, 1))
        assert pp_quotient((2, 3), (1, 1)) == (1, 2)

    def test_quotient_requires_divisibility(self):
        with pytest.raises(ValueError):
            pp_quotient((1, 0), (0, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pp_lcm((1,), (1, 2))


class TestTermOrders:
    def test_empty_product_is_least(self):
        for kind in TermOrder.KINDS:
            order = TermOrder(kind, 2)
            assert order.compare((0, 0), (1, 0)) == -1
            assert order.compare((0, 0), (0, 3)) == -1

    def test_lex_first_exponent_rule(self):
        order = TermOrder("lex", 2)
        assert order.compare((1, 0), (0, 2)) == 1

    def test_deglex_degree_first(self):
        order = TermOrder("deglex", 2)
        assert order.compare((1, 0), (0, 2)) == -1

    def test_degrevlex_reversed_inverted(self):
        order = TermOrder("degrevlex", 3)
        # xz against y^2: equal degree, the last differing exponent decides,
        # smaller wins
        assert order.compare((1, 0, 1), (0, 2, 0)) == -1

    def test_totality_on_random_samples(self):
        rng = random.Random(31)
        for kind in TermOrder.KINDS:
            order = TermOrder(kind, 3)
            for _ in range(300):
                s = tuple(rng.randint(0, 4) for _ in range(3))
                t = tuple(rng.randint(0, 4) for _ in range(3))
                verdicts = [order.compare(s, t), order.compare(t, s)]
                if s == t:
                    assert verdicts == [0, 0]
                else:
                    assert sorted(verdicts) == [-1, 1]

    def test_multiplicativity(self):
        rng = random.Random(37)
        for kind in TermOrder.KINDS:
            order = TermOrder(kind, 3)
            for _ in range(300):
                s = tuple(rng.randint(0, 4) for _ in range(3))
                t = tuple(rng.randint(0, 4) for _ in range(3))
                u = tuple(rng.randint(0, 4) for _ in range(3))
                if order.compare(s, t) == -1:
                    su = tuple(x + y for x, y in zip(s, u))
                    tu = tuple(x + y for x, y in zip(t, u))
                    assert order.compare(su, tu) == -1

    def test_no_descent_below_zero_tuple(self):
        for kind in TermOrder.KINDS:
            order = TermOrder(kind, 2)
            for s in itertools.product(range(4), repeat=2):
                if s != (0, 0):
                    assert order.compare(s, (0, 0)) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TermOrder("grlex", 2)


class TestArithmetic:
    def test_add_cancellation(self):
        R = make_poly_domain(Q, ("x",), "lex")
        x = R.var("x")
        one = R.one
        assert (x + one) + (-x) == one

    def test_mul_expansion(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        x, y = R.var("x"), R.var("y")
        assert (x + y) * (x - y) == R.parse("x^2 - y^2")

    def test_mono_mul(self):
        R = make_poly_domain(Z, ("x",), "lex")
        p = R.parse("x + 3")
        assert mono_mul(Monomial(2, (1,)), p) == R.parse("2*x^2 + 6*x")

    def test_leading_monomial(self):
        R = make_poly_domain(Q, ("x", "y"), "deglex")
        p = R.parse("x^2*y + x*y^2")
        assert p.leading_monomial() == Monomial(Fraction(1), (2, 1))
        single = R.parse("7*x")
        assert single.leading_monomial() == Monomial(Fraction(7), (1, 0))
        with pytest.raises(ValueError):
            R.zero.leading_monomial()

    def test_leading_under_degrevlex(self):
        R = make_poly_domain(Q, ("x", "y", "z"), "degrevlex")
        p = R.parse("x*z + y^2")
        assert p.leading_monomial().pp == (0, 2, 0)

    def test_ring_laws_random(self):
        rng = random.Random(41)
        for coeff in (Q, Z, Z24):
            R = make_poly_domain(coeff, ("x", "y"), "deglex")
            samples = R.sample_elements(rng, 12)
            for _ in range(60):
                a, b, c = (rng.choice(samples) for _ in range(3))
                assert a + b == b + a
                assert (a + b) + c == a + (b + c)
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + R.zero == a
                assert a * R.one == a
                assert a + (-a) == R.zero

    def test_faithful_to_coefficient_functions(self):
        rng = random.Random(43)
        for coeff in (Q, Z24):
            R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
            samples = R.sample_elements(rng, 10)
            for _ in range(40):
                a, b = rng.choice(samples), rng.choice(samples)
                assert dict_model(a + b) == dict_add(coeff, dict_model(a), dict_model(b))
                assert dict_model(a * b) == dict_mul(coeff, dict_model(a), dict_model(b))

    def test_domain_mismatch_rejected(self):
        R1 = make_poly_domain(Q, ("x",), "lex")
        R2 = make_poly_domain(Q, ("x", "y"), "lex")
        with pytest.raises(ValueError):
            R1.var("x") + R2.var("x")

    def test_invariants_no_zero_coeffs_no_dups_descending(self):
        rng = random.Random(47)
        for coeff in (Q, Z, Z24):
            R = make_poly_domain(coeff, ("x", "y"), "deglex")
            for p in R.sample_elements(rng, 60):
                pps = [m.pp for m in p.terms]
                assert len(set(pps)) == len(pps)
                for m in p.terms:
                    assert not coeff.is_zero(m.coeff)
                for s, t in zip(pps, pps[1:]):
                    assert R.order.compare(s, t) == 1


def random_poly(rng, R, nterms):
    coeffs = R.coeff.sample_elements(rng, nterms)
    return R.poly(
        (c, tuple(rng.randint(0, 3) for _ in range(R.nvars))) for c in coeffs
    )


def ref_add(R, a, b):
    return R.poly(list(a.terms) + list(b.terms))


def ref_sub(R, a, b):
    return R.poly(list(a.terms) + [(R.coeff.neg(c), pp) for c, pp in b.terms])


def ref_mono_mul(R, c, pp, p):
    return R.poly((R.coeff.mul(c, d), tuple(x + y for x, y in zip(pp, e))) for d, e in p.terms)


def ref_scan(R, f, g, index):
    g_lc, g_pp = g.terms[0]
    for c, pp in f.terms:
        if pp_divides(g_pp, pp):
            m = R.coeff.find_multiplier(c, g_lc, index)
            if m is not None:
                return R.monomial(m, pp_quotient(pp, g_pp))
    return None


def ref_find_multiplier(R, f, g, index):
    if f.is_zero or g.is_zero:
        return None
    if index != "ann":
        return ref_scan(R, f, g, index)
    zero_pp = (0,) * R.nvars
    scalar, current = R.coeff.one, g
    while not current.is_zero:
        m0 = R.coeff.annihilator(current.leading_coeff())
        if m0 is None:
            return None
        scalar = R.coeff.mul(m0, scalar)
        current = ref_mono_mul(R, m0, zero_pp, current)
        if current.is_zero:
            return None
        for cindex in R.coeff.multiplier_indices:
            m = ref_scan(R, f, current, cindex)
            if m is not None:
                head = m.leading_monomial()
                return R.monomial(R.coeff.mul(head.coeff, scalar), head.pp)
    return None


def ref_mntcrs(R, g1, i1, g2, i2):
    """The mntcrs of g1 at i1 and g2 at i2, one c*x^lcm per shadow pair and
    coefficient mntcr, first occurrences in order.

    At "ann" the shadows are the cascade m0*g, m0'*m0*g, ... (each m0 the
    annihilator of the current lead, built with ``ref_mono_mul``) and the
    coefficient mntcrs are taken at the first coefficient index.
    """
    if g1.is_zero or g2.is_zero:
        return []
    zero_pp = (0,) * R.nvars

    def shadows(g, index):
        if index != "ann":
            return [g]
        out, current = [], g
        while not current.is_zero:
            m0 = R.coeff.annihilator(current.leading_coeff())
            if m0 is None:
                break
            current = ref_mono_mul(R, m0, zero_pp, current)
            if not current.is_zero:
                out.append(current)
        return out

    first = R.coeff.multiplier_indices[0]
    ci1, ci2 = (first if i == "ann" else i for i in (i1, i2))
    out = []
    for e1 in shadows(g1, i1):
        for e2 in shadows(g2, i2):
            lcm = pp_lcm(e1.leading_pp(), e2.leading_pp())
            for c in R.coeff.mntcrs(e1.leading_coeff(), ci1, e2.leading_coeff(), ci2):
                z = R.poly([(c, lcm)])
                if z not in out:
                    out.append(z)
    return out


class TestSortedArithmeticDifferential:
    """The merge and no-re-sort paths against references built by R.poly()."""

    RINGS = (Q, Z, Z24)

    def rings(self):
        for coeff in self.RINGS:
            for kind in TermOrder.KINDS:
                yield make_poly_domain(coeff, ("x", "y", "z"), kind)

    def test_add_sub_match_reference(self):
        rng = random.Random(71)
        for R in self.rings():
            for _ in range(60):
                a = random_poly(rng, R, rng.randint(0, 6))
                b = random_poly(rng, R, rng.randint(0, 6))
                # b shares part of its support with a, some terms cancelling
                shared = R.poly(
                    [(R.coeff.neg(c), pp) for c, pp in a.terms if rng.random() < 0.5]
                    + [(c, pp) for c, pp in a.terms if rng.random() < 0.3]
                )
                for x, y in ((a, b), (b, a), (a, shared), (shared, a), (a, a)):
                    assert (x + y).terms == ref_add(R, x, y).terms
                    assert R.add(x, y).terms == ref_add(R, x, y).terms
                    assert (x - y).terms == ref_sub(R, x, y).terms
                    assert R.sub(x, y).terms == ref_sub(R, x, y).terms
                assert (a - a).terms == ()
                assert (a + (-a)).terms == ()
                assert R.sub(a, a) == R.zero

    def test_monomial_times_polynomial_matches_reference(self):
        rng = random.Random(73)
        for R in self.rings():
            for _ in range(60):
                p = random_poly(rng, R, rng.randint(0, 6))
                c = rng.choice(R.coeff.sample_elements(rng, 4))
                pp = tuple(rng.randint(0, 2) for _ in range(R.nvars))
                want = ref_mono_mul(R, c, pp, p).terms
                mono = R.poly([(c, pp)])
                assert mono_mul(Monomial(c, pp), p).terms == want
                assert (mono * p).terms == want
                assert (p * mono).terms == want
                assert R.mul(mono, p).terms == want
                assert R.mul(p, mono).terms == want
                q = random_poly(rng, R, rng.randint(0, 4))
                assert (p * q).terms == R.poly(
                    (R.coeff.mul(c1, c2), tuple(x + y for x, y in zip(e1, e2)))
                    for c1, e1 in p.terms
                    for c2, e2 in q.terms
                ).terms

    def test_vanishing_products_drop(self):
        for kind in TermOrder.KINDS:
            R = make_poly_domain(Z24, ("x", "y", "z"), kind)
            p = R.parse("4*x^2 + 8*y + 12*z + 5")
            six = Monomial(6, (1, 0, 0))
            # 6*4, 6*8 and 6*12 vanish mod 24; only 6*5 = 30 = 6 survives
            assert mono_mul(six, p).terms == ((6, (1, 0, 0)),)
            assert (R.poly([six]) * p).terms == ((6, (1, 0, 0)),)
            assert (p * R.poly([six])).terms == ((6, (1, 0, 0)),)
            assert mono_mul(Monomial(6, (0, 0, 0)), R.parse("4*x + 12")).is_zero
            assert mono_mul(Monomial(0, (1, 0, 0)), p).is_zero

    def test_find_multiplier_matches_reference(self):
        rng = random.Random(79)
        for R in self.rings():
            for _ in range(80):
                f = random_poly(rng, R, rng.randint(0, 6))
                g = random_poly(rng, R, rng.randint(0, 3))
                for index in R.multiplier_indices:
                    got = R.find_multiplier(f, g, index)
                    want = ref_find_multiplier(R, f, g, index)
                    if want is None:
                        assert got is None
                    else:
                        assert got.terms == want.terms

    def test_mntcrs_match_reference_at_every_index_pair(self):
        rng = random.Random(83)
        nonempty_at_ann = 0
        for n in (24, 72, 360):
            for kind in ("lex", "degrevlex"):
                R = make_poly_domain(make_integer_quotient_domain(n), ("x", "y"), kind)
                assert "ann" in R.multiplier_indices
                for _ in range(60):
                    g1 = random_poly(rng, R, rng.randint(1, 4))
                    g2 = random_poly(rng, R, rng.randint(1, 4))
                    for i1 in R.multiplier_indices:
                        for i2 in R.multiplier_indices:
                            got = R.mntcrs(g1, i1, g2, i2)
                            assert got == ref_mntcrs(R, g1, i1, g2, i2), (n, kind, i1, i2)
                            for z in got:
                                assert ref_find_multiplier(R, z, g1, i1) is not None
                                assert ref_find_multiplier(R, z, g2, i2) is not None
                            nonempty_at_ann += bool(got) and "ann" in (i1, i2)
        assert nonempty_at_ann > 0

    def test_checks_still_raise(self):
        R = make_poly_domain(Q, ("x", "y"), "degrevlex")
        other = make_poly_domain(Q, ("x", "y"), "lex")
        p, q = R.parse("x + y"), other.parse("x + y")
        for op in (
            lambda: p + q,
            lambda: p - q,
            lambda: p * q,
            lambda: R.add(p, q),
            lambda: R.sub(q, p),
            lambda: R.mul(p, q),
            lambda: R.neg(q),
        ):
            with pytest.raises(ValueError):
                op()
        with pytest.raises(ValueError):
            R.poly([(1, (1, 0, 0))])
        with pytest.raises(ValueError):
            R.poly([(1, (1, -1))])
        with pytest.raises(ValueError):
            mono_mul(Monomial(Fraction(1), (1,)), p)
        with pytest.raises(ValueError):
            mono_mul(Monomial(Fraction(1), (-1, 0)), p)
        # an equal but distinct ring instance is still the same ring
        twin = make_poly_domain(Q, ("x", "y"), "degrevlex")
        assert (p + twin.parse("x")) == R.parse("2*x + y")


class TestPolyDomain:
    def test_zero_is_least_and_order_decreases_under_reduction(self):
        rng = random.Random(53)
        for coeff in (Q, Z, Z24):
            R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
            samples = [p for p in R.sample_elements(rng, 40) if not p.is_zero]
            for p in samples:
                assert R.less(R.zero, p)
            for _ in range(150):
                f, g = rng.choice(samples), rng.choice(samples)
                step = reduce_step(R, f, [g])
                if step is not None:
                    assert R.less(step[0], f)

    def test_reduction_targets_greatest_reducible_term(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        f = R.parse("x^2*y + x + 1")
        g = R.parse("x")
        m = R.find_multiplier(f, g, 0)
        # the multiplier rewrites x^2*y, not the smaller divisible term x
        assert m == R.parse("x*y")

    def test_interior_term_reduction_over_partial_coefficients(self):
        R = make_poly_domain(Z, ("x",), "lex")
        f = R.parse("x^2 + 3")  # neither 1 nor 3 drops below itself modulo 8
        g = R.parse("8")
        m = R.find_multiplier(f, g, 0)
        assert m is None
        f2 = R.parse("x^2 + 5")
        m2 = R.find_multiplier(f2, g, 0)
        assert m2 == R.parse("1")  # 5 - 8 = -3 sits below 5

    def test_annihilator_index_reduces_through_dead_leads(self):
        # 6*(4x + y) = 6y in Z24[x,y]: the multiplier kills the lead, so the
        # rewrite acts through the tail and must still be witnessed
        R = make_poly_domain(Z24, ("x", "y"), "lex")
        g = R.parse("4*x + y")
        target = R.parse("6*y")
        assert R.find_multiplier(target, g, 0) is None
        m = R.find_multiplier(target, g, "ann")
        assert m is not None
        assert target - m * g == R.zero
        h, _ = normal_form(R, target, [g])
        assert h.is_zero

    def test_annihilator_family_cascades_until_zero(self):
        R = make_poly_domain(Z24, ("x", "y"), "lex")
        g = R.parse("4*x + 2*y + 3")
        family = R._ann_family(g)
        # 6*(4x+2y+3) = 12y+18, then 2*(12y+18) = 12; supports shrink
        assert [R.render(shadow) for _scalar, shadow in family] == ["12*y + 18", "12"]
        for scalar, shadow in family:
            assert R.constant(scalar) * g == shadow
        # the constant 12 = 12*(4x+2y+3) therefore reduces to zero
        h, _ = normal_form(R, R.constant(12), [g])
        assert h.is_zero

    def test_annihilator_family_is_cached_per_polynomial(self):
        R = make_poly_domain(Z24, ("x", "y"), "lex")
        g = R.parse("4*x + 2*y + 3")
        family = R._ann_family(g)
        assert family == tuple(R._ann_family(g))
        assert R._ann_family(g) is family  # a repeat call reuses it
        twin = R.parse("3 + 2*y + 4*x")
        assert twin is not g
        assert R._ann_family(twin) == family
        # the cache is invisible to equality and hashing
        fresh = R.parse("4*x + 2*y + 3")
        assert g == fresh and fresh == g and hash(g) == hash(fresh)
        assert len({g, fresh}) == 1
        # find_multiplier and mntcrs at "ann" give the same answers through it
        target = R.parse("12*y + 18")
        assert R.find_multiplier(target, g, "ann") == R.find_multiplier(target, fresh, "ann")
        assert R.mntcrs(g, "ann", g, 0) == R.mntcrs(fresh, "ann", fresh, 0)

    def test_annihilator_index_inert_without_zero_divisors(self):
        for coeff in (Q, Z):
            R = make_poly_domain(coeff, ("x", "y"), "lex")
            assert "ann" not in R.multiplier_indices
        assert "ann" in make_poly_domain(Z24, ("x", "y"), "lex").multiplier_indices

    def test_mntcr_over_field_is_monic_lcm(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        g1 = R.parse("2*x^2 + y")
        g2 = R.parse("3*x*y^2")
        zs = R.mntcrs(g1, 0, g2, 0)
        assert zs == [R.parse("x^2*y^2")]

    def test_mntcr_factorization_over_rings(self):
        R = make_poly_domain(Z24, ("x", "y"), "deglex")
        g1 = R.parse("4*x^2")
        g2 = R.parse("6*y")
        zs = R.mntcrs(g1, 0, g2, 0)
        assert zs == [R.monomial(6, (2, 1))]  # max(gcd(4,24), gcd(6,24)) = 6 on the lcm

    def test_normal_form_identity_over_polynomials(self):
        rng = random.Random(59)
        R = make_poly_domain(Q, ("x", "y"), "degrevlex")
        samples = [p for p in R.sample_elements(rng, 20) if not p.is_zero]
        for _ in range(30):
            a = rng.choice(samples)
            basis = [rng.choice(samples) for _ in range(2)]
            h, chain = normal_form(R, a, basis)
            acc = R.zero
            for pos, m in chain:
                acc = acc + m * basis[pos]
            assert a - h == acc

    def test_descending_chains_are_bounded_on_instances(self):
        rng = random.Random(61)
        R = make_poly_domain(Z, ("x", "y"), "deglex")
        samples = [p for p in R.sample_elements(rng, 25) if not p.is_zero]
        for _ in range(40):
            a = rng.choice(samples)
            basis = [rng.choice(samples)]
            h, chain = normal_form(R, a, basis, max_steps=10_000)
            assert len(chain) <= 10_000


class TestSyntax:
    def test_parser_tolerates_variants(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        canonical = R.parse("3*x^2*y - 1/2*y + 5")
        assert R.parse("3x**2y + 5 - 1/2 y") == canonical
        assert R.parse("5 - 1/2*y + 3*x^2*y") == canonical
        # signs fold, whitespace may sit between any two tokens, '*' may be
        # left out, factors multiply and p/q is one literal
        for text, rendered in [
            ("x - -y", "x + y"),
            ("--x", "x"),
            ("x -+ y", "x - y"),
            ("3 / 4 x", "3/4*x"),
            ("x ** 2", "x^2"),
            ("2 3 x", "6*x"),
            ("x x y", "x^2*y"),
            ("x*", "x"),
            ("+x", "x"),
        ]:
            assert R.render(R.parse(text)) == rendered, text

    def test_parser_takes_a_first_literal_as_parsed(self, monkeypatch):
        coeff = make_field_domain()
        R = make_poly_domain(coeff, ("x", "y", "z"), "degrevlex")
        calls = []
        real = coeff.mul
        monkeypatch.setattr(coeff, "mul", lambda *args: calls.append(args) or real(*args))
        p = R.parse("3*x^2 - 2/5*y*z + 1")
        assert calls == []
        assert p.terms == ((3, (2, 0, 0)), (Fraction(-2, 5), (0, 1, 1)), (1, (0, 0, 0)))
        # a second literal in one term multiplies into the first
        assert R.parse("2 3/7 x") == R.parse("6/7*x")
        assert calls == [(2, Fraction(3, 7))]

    def test_printer_canonical_roundtrip(self):
        rng = random.Random(67)
        for coeff in (Q, Z, Z24):
            R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
            for p in R.sample_elements(rng, 80):
                assert R.parse(R.render(p)) == p

    def test_parse_errors(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        Rz = make_poly_domain(Z, ("x",), "lex")
        for ring, text, message in [
            (R, "x^", "missing exponent after 'x' at column 1"),
            (R, "x^y", "missing exponent after 'x' at column 1"),
            (R, "x ** * 2", "missing exponent after 'x' at column 1"),
            (R, "2^3", "unexpected token '^' at column 2"),
            (R, "3/x", "unexpected token '/' at column 2"),
            (R, "12/34/56", "unexpected token '/' at column 6"),
            (R, "x ^ 2 ^ 3", "unexpected token '^' at column 7"),
            (R, "x + * - y", "expected a term at column 7"),
            (R, "*", "expected a term at column end"),
            (R, "- -", "dangling sign at end of polynomial"),
            (R, "x +", "dangling sign at end of polynomial"),
            (R, "", "empty polynomial text"),
            (R, "   ", "empty polynomial text"),
            (R, "x;y", "unexpected character ';' at column 2"),
            (R, "3*w", "unknown variable 'w' at column 3"),
            (R, "1/0*x", "not a rational: '1/0'"),
            (Rz, "1/2*x", "not an integer: '1/2'"),
        ]:
            with pytest.raises(ValueError) as caught:
                ring.parse(text)
            assert str(caught.value) == message, text

    def test_monic_display_scaling(self):
        R = make_poly_domain(Q, ("x",), "lex")
        p = R.parse("2*x + 4")
        assert R.canonical_associate(p) == R.parse("x + 2")
        assert R.canonical_associate(R.zero) == R.zero


def test_polynomials_over_the_zero_ring_collapse():
    R = make_poly_domain(make_integer_quotient_domain(1), ("x",), "lex")
    assert R.one == R.zero
    assert R.parse("x + 1").is_zero
