import math
import random
from fractions import Fraction

import pytest

from redring.buchberger import gb, is_groebner_basis, member_ideal
from redring.core import check_axioms, normal_form, project_reduction_relation, reduce_step
from redring.oracles import exhaustive_ideal_oracle, gcd_membership_oracle
from redring.relations import equivalent, is_church_rosser
from redring.scalars import (
    IntegerDomain,
    IntegerQuotientDomain,
    RationalFieldDomain,
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

Q = make_field_domain()
Z = make_integer_domain()


def int_key(a):
    return (abs(a), a)


def common_reducible_oracle(g1, g2, z):
    """Common reducibility of z, checked against both singleton bases."""
    dom = make_integer_domain()
    return reduce_step(dom, z, [g1]) is not None and reduce_step(dom, z, [g2]) is not None


class TestField:
    def test_reduce_to_zero_in_one_step(self):
        h, chain = normal_form(Q, Fraction(5), [Fraction(2)])
        assert h == 0 and len(chain) == 1

    def test_singleton_is_groebner(self):
        for c in (Fraction(7), Fraction(-3, 5)):
            res = gb(Q, (c,))
            assert res.basis == (c,)
            assert is_groebner_basis(Q, res.basis)

    def test_zero_is_least(self):
        rng = random.Random(1)
        for a in Q.sample_elements(rng, 100):
            if a != 0:
                assert Q.less(Q.zero, a)

    def test_every_nonzero_reduces_to_zero_modulo_any_nonzero(self):
        rng = random.Random(2)
        for a in Q.sample_elements(rng, 50):
            h, _ = normal_form(Q, a, [Fraction(3, 7)])
            assert h == 0

    def test_render_parse_roundtrip(self):
        for text in ("3/4", "-2", "0", "5"):
            assert Q.render(Q.parse(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["3/0", "1/00", " 7 ", "+3", "1.5", "\u00b2", "0", "007/014", "12/8", "-4/6", "3/ 4", "1_000", "", "x"],
    )
    def test_parse_reads_what_fraction_reads(self, text):
        # the literal fast path builds ASCII p and p/q (q != 0) from integers;
        # every text gives Fraction(text)'s value, or its "not a rational" error
        try:
            want = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError) as refused:
                Q.parse(text)
            assert str(refused.value) == f"not a rational: {text.strip()!r}"
            assert isinstance(refused.value.__cause__, (ValueError, ZeroDivisionError))
            return
        got = Q.parse(text)
        assert type(got) is Fraction and got == want


class TestIntegers:
    def test_find_multiplier_examples(self):
        assert Z.find_multiplier(7, 3, 0) == 2
        assert Z.find_multiplier(1, 4, 0) is None
        assert Z.find_multiplier(6, 4, 0) == 2  # 6 - 8 = -2, below 2

    def test_find_multiplier_picks_least_order_value(self):
        rng = random.Random(13)
        for _ in range(400):
            a = rng.randint(-300, 300)
            c = rng.randint(-25, 25)
            if c == 0:
                assert Z.find_multiplier(a, c, 0) is None
                continue
            m = Z.find_multiplier(a, c, 0)
            coset = [a - k * c for k in range(-2 * abs(a) // abs(c) - 2, 2 * abs(a) // abs(c) + 3)]
            best = min(coset, key=int_key)
            if int_key(best) < int_key(a):
                assert m is not None and a - m * c == best
            else:
                assert m is None

    def test_find_multiplier_matches_the_nearest_quotient_rule(self):
        # the rule the closed form replaced: of the quotients q = a // c and
        # q + 1, the one whose remainder is least, kept when that is below a
        def reference(a, c):
            if not c:
                return None
            q = a // c
            m = min(q, q + 1, key=lambda m: int_key(a - m * c))
            return m if int_key(a - m * c) < int_key(a) else None

        for a in range(-300, 301):
            for c in range(-60, 61):
                assert Z.find_multiplier(a, c, 0) == reference(a, c), (a, c)

    def test_mntcrs_are_common_reducibles(self):
        rng = random.Random(17)
        cases = [(4, 6), (4, 5), (6, 10), (1, 2), (3, 3), (-4, 6), (7, 7)]
        cases += [
            (rng.randint(-40, 40) or 1, rng.randint(-40, 40) or 1) for _ in range(60)
        ]
        for g1, g2 in cases:
            got = Z.mntcrs(g1, 0, g2, 0)
            assert got == [max(abs(g1), abs(g2))]
            for z in got:
                assert common_reducible_oracle(g1, g2, z)

    def test_critical_pair_of_mntcr_is_a_euclid_step(self):
        # the pair of the canonical z performs one division of the larger
        # generator by the smaller
        z = Z.mntcrs(13, 0, 11, 0)[0]
        a1 = z - Z.find_multiplier(z, 13, 0) * 13
        a2 = z - Z.find_multiplier(z, 11, 0) * 11
        assert a1 == 0 and a2 == 2  # 13 = 1*11 + 2

    def test_mntcrs_of_zero_are_empty(self):
        assert Z.mntcrs(0, 0, 4, 0) == []
        assert Z.mntcrs(4, 0, 0, 0) == []

    def test_gb_membership_is_gcd_divisibility(self):
        res = gb(Z, (9, 6))
        for x in range(-30, 31):
            assert member_ideal(Z, x, res.basis) == (x % 3 == 0)

    def test_gb_4_6_examples(self):
        res = gb(Z, (4, 6))
        assert member_ideal(Z, 2, res.basis)
        assert member_ideal(Z, 10, res.basis)
        assert not member_ideal(Z, 3, res.basis)
        assert not is_groebner_basis(Z, (4, 6))
        assert is_groebner_basis(Z, res.basis)

    def test_gb_against_gcd_oracle_random(self):
        rng = random.Random(23)
        for _ in range(40):
            a, b = rng.randint(-500, 500), rng.randint(-500, 500)
            res = gb(Z, (a, b))
            for _ in range(10):
                x = rng.randint(-1000, 1000)
                assert member_ideal(Z, x, res.basis) == gcd_membership_oracle((a, b), x)

    def test_axioms_sampled(self):
        assert check_axioms(Z, sample_budget=2000).ok


class TestIntegerQuotient:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            make_integer_quotient_domain(0)
        with pytest.raises(ValueError):
            make_integer_quotient_domain(-3)

    def test_find_multiplier_examples(self):
        m24 = make_integer_quotient_domain(24)
        assert m24.find_multiplier(20, 4, 0) == 5  # 5*4 = 20
        assert m24.find_multiplier(2, 4, 0) is None  # 2 is least in its coset

    def test_find_multiplier_reaches_coset_minimum(self):
        m24 = make_integer_quotient_domain(24)
        for a in range(24):
            for c in range(1, 24):
                d = math.gcd(c, 24)
                target = a % d
                m = m24.find_multiplier(a, c, 0)
                if target < a:
                    assert m is not None and (a - m * c) % 24 == target
                else:
                    assert m is None

    def test_find_multiplier_matches_exhaustive_scan(self):
        def scan(n, a, c):
            # the O(n) witness the closed form replaced: the first m that
            # reaches the least value of (a - m*c) mod n below a
            c = c % n
            if c == 0:
                return None
            best_value = a
            best_m = None
            for m in range(n):
                v = (a - m * c) % n
                if v < best_value:
                    best_value = v
                    best_m = m
            return best_m

        for n in range(1, 61):
            dom = make_integer_quotient_domain(n)
            for c in range(n):
                for a in range(-n, 2 * n):
                    assert dom.find_multiplier(a, c, 0) == scan(n, a, c), (n, a, c)

    @pytest.mark.parametrize("n", [10**6, 2**64])
    def test_find_multiplier_large_moduli(self, n):
        dom = make_integer_quotient_domain(n)
        rng = random.Random(n % 1009)
        cases = [(n - 1, 2), (n // 2 + 7, n // 4), (1, 3), (0, 5), (n - 1, n - 1)]
        cases += [(rng.randrange(n), rng.randrange(1, n)) for _ in range(200)]
        for a, c in cases:
            d = math.gcd(c, n)
            m = dom.find_multiplier(a, c, 0)
            if a % d < a:
                assert m is not None and 0 <= m < n // d
                assert (a - m * c) % n == a % d
            else:
                assert m is None

    def test_zero_ring(self):
        m1 = make_integer_quotient_domain(1)
        assert m1.enumerate_carrier() == [0]
        assert m1.one == 0
        res = gb(m1, (0, 0))
        assert res.basis == ()

    def test_gb_completion_closes_the_ideal(self):
        m24 = make_integer_quotient_domain(24)
        res = gb(m24, (4, 6))
        rel = project_reduction_relation(m24, res.basis, range(24))
        assert is_church_rosser(rel)
        for a in range(24):
            assert equivalent(rel, a, 0) == exhaustive_ideal_oracle(24, (4, 6), a)

    def test_axioms_exhaustive_small_moduli(self):
        for n in (1, 2, 6, 24):
            assert check_axioms(make_integer_quotient_domain(n)).ok

    def test_axioms_exhaustive_up_to_the_bound_then_sampled(self):
        assert check_axioms(make_integer_quotient_domain(60)).mode == "exhaustive"
        for n in (61, 1000, 2**64):
            report = check_axioms(make_integer_quotient_domain(n))
            assert report.mode == "sampled" and report.ok, n
            assert report.to_dict()["mode"] == "sampled"

    def test_sampled_axioms_detect_a_broken_witness(self):
        class BrokenWitness(IntegerQuotientDomain):
            def find_multiplier(self, a, c, index):
                return 0 if c % self.n else None

        report = check_axioms(BrokenWitness(1000))
        assert report.mode == "sampled"
        assert "reduction-decreases" in {c.name for c in report.failures()}

    def test_sampled_axioms_test_zero_and_one(self):
        class ZeroBelowItself(IntegerQuotientDomain):
            def less(self, a, b):
                return a == b == 0 or super().less(a, b)

        report = check_axioms(ZeroBelowItself(1000))
        assert report.mode == "sampled"
        assert "order-irreflexive" in {c.name for c in report.failures()}

    def test_parse_reduces_mod_n(self):
        m24 = make_integer_quotient_domain(24)
        assert m24.parse("-3") == 21
        assert m24.parse("25") == 1
        assert m24.render(m24.parse("23")) == "23"


def test_normalize_sign():
    assert IntegerDomain().canonical_associate(-2) == 2
    assert IntegerDomain().canonical_associate(0) == 0
    assert IntegerDomain().canonical_associate(7) == 7


class RenamedQ(RationalFieldDomain):
    name = "q2"


class RenamedZ(IntegerDomain):
    name = "z2"


class PlainZmod(IntegerQuotientDomain):
    pass


@pytest.mark.parametrize(
    "base, subclass",
    [(Q, RenamedQ()), (Z, RenamedZ()), (make_integer_quotient_domain(24), PlainZmod(24))],
    ids=["q", "z", "zmod24"],
)
def test_domain_hash_agrees_with_equality(base, subclass):
    assert base == subclass and subclass == base
    assert hash(base) == hash(subclass)
    assert len({base, subclass}) == 1
    # a different modulus, or another kind of domain, stays apart
    assert base != make_integer_quotient_domain(36)
    assert len({base, make_integer_quotient_domain(36)}) == 2
