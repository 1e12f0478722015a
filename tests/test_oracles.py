import random
from fractions import Fraction

import pytest

from redring.buchberger import gb, member_ideal
from redring.core import normal_form
from redring.oracles import (
    classical_buchberger_oracle,
    classical_normal_form,
    exhaustive_ideal_oracle,
    gcd_membership_oracle,
    sample_ideal_element,
)
from redring.poly import make_poly_domain
from redring.scalars import (
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

Q = make_field_domain()
Z = make_integer_domain()


def test_gcd_membership():
    assert gcd_membership_oracle((4, 6), 10)
    assert not gcd_membership_oracle((4, 6), 3)
    assert gcd_membership_oracle((5,), 0)
    assert gcd_membership_oracle((), 0)
    assert not gcd_membership_oracle((0, 0), 3)


def test_exhaustive_ideal():
    assert exhaustive_ideal_oracle(24, (6,), 18)
    assert not exhaustive_ideal_oracle(24, (6,), 4)
    assert exhaustive_ideal_oracle(24, (), 0)
    assert not exhaustive_ideal_oracle(24, (), 1)
    with pytest.raises(ValueError):
        exhaustive_ideal_oracle(0, (1,), 0)


def test_exhaustive_ideal_matches_gcd_structure():
    import math

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 30)
        gens = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
        d = 0
        for g in gens:
            d = math.gcd(d, g)
        d = math.gcd(d, n)
        for probe in range(n):
            expected = (probe % d == 0) if d else (probe == 0)
            assert exhaustive_ideal_oracle(n, gens, probe) == expected


class TestClassicalOracle:
    def test_coprime_leads_add_nothing(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        basis = classical_buchberger_oracle([R.var("x"), R.var("y")])
        assert sorted(R.render(g) for g in basis) == ["x", "y"]

    def test_constant_system_is_unit_ideal(self):
        R = make_poly_domain(Q, ("x", "y"), "lex")
        basis = classical_buchberger_oracle([R.constant(Fraction(5))])
        assert basis == [R.one]

    def test_empty_system(self):
        assert classical_buchberger_oracle([]) == []

    def test_oracle_basis_reduces_its_own_spolys(self):
        R = make_poly_domain(Q, ("x", "y", "z"), "lex")
        basis = classical_buchberger_oracle([R.parse("x^2 - y"), R.parse("x^3 - z")])
        rendered = {R.render(g) for g in basis}
        assert "x^2 - y" in rendered
        assert any("y^3" in s for s in rendered)

    def test_cross_oracle_ideal_equality_random(self):
        rng = random.Random(5)
        for kind in ("lex", "deglex", "degrevlex"):
            R = make_poly_domain(Q, ("x", "y", "z"), kind)
            for _ in range(4):
                gens = []
                for _ in range(2):
                    items = [
                        (
                            Fraction(rng.randint(-3, 3)),
                            tuple(rng.randint(0, 1) for _ in range(3)),
                        )
                        for _ in range(2)
                    ]
                    p = R.poly(items)
                    if not p.is_zero:
                        gens.append(p)
                if not gens:
                    continue
                ours = gb(R, gens).basis
                theirs = classical_buchberger_oracle(gens)
                for g in ours:
                    assert classical_normal_form(g, theirs).is_zero
                for g in theirs:
                    assert normal_form(R, g, ours)[0].is_zero


def test_sample_ideal_element_budget_zero():
    elem, cof = sample_ideal_element(Z, (4, 6), seed=1, budget=0)
    assert elem == 0 and cof == {}


def test_sample_ideal_element_cofactors_replay():
    for dom, gens in [
        (Z, (4, 6)),
        (Q, (Fraction(3),)),
        (make_integer_quotient_domain(24), (4, 6)),
    ]:
        elem, cof = sample_ideal_element(dom, gens, seed=9, budget=5)
        acc = dom.zero
        for k, m in cof.items():
            acc = dom.add(acc, dom.mul(m, gens[k]))
        assert acc == elem


def test_sample_ideal_element_members_reduce_to_zero():
    rng = random.Random(11)
    for dom, gens in [
        (Z, (6, 10)),
        (make_integer_quotient_domain(24), (4, 6)),
    ]:
        basis = gb(dom, gens).basis
        for seed in range(10):
            elem, _ = sample_ideal_element(dom, gens, seed=seed, budget=rng.randint(1, 6))
            assert member_ideal(dom, elem, basis)


def test_sample_ideal_element_requires_generators():
    with pytest.raises(ValueError):
        sample_ideal_element(Z, (), seed=1, budget=1)


def test_oracle_module_shares_no_reduction_or_completion_code():
    import redring.buchberger as engine
    import redring.core as core
    import redring.oracles as oracles

    forbidden = {engine.gb, engine.is_groebner_basis, engine.member_ideal,
                 engine.critical_pair, core.reduce_step, core.normal_form}
    for name, value in vars(oracles).items():
        assert getattr(value, "__module__", None) != engine.__name__, name
        assert not any(value is f for f in forbidden), name
