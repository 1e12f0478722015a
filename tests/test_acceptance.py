"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  All tolerances are
exact; the stated runtime budgets are asserted where given.
"""

import random
import time
from fractions import Fraction

import pytest

from redring.buchberger import gb, is_groebner_basis, member_ideal, verify_cofactors
from redring.core import check_axioms, normal_form, project_reduction_relation
from redring.oracles import (
    classical_buchberger_oracle,
    classical_normal_form,
    exhaustive_ideal_oracle,
    gcd_membership_oracle,
)
from redring.poly import make_poly_domain
from redring.relations import (
    FiniteRelation,
    equivalent,
    generalized_newman_holds,
    is_church_rosser,
)
from redring.scalars import (
    IntegerQuotientDomain,
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

Q = make_field_domain()
Z = make_integer_domain()


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPT {criterion}: PASS ({detail})")


def random_q_system_items(rng):
    """Raw (coefficient, exponents) data for <= 3 generators of degree <= 2."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        items = []
        for _ in range(rng.randint(1, 3)):
            while True:
                pp = tuple(rng.randint(0, 2) for _ in range(3))
                if sum(pp) <= 2:
                    break
            coeff = Fraction(rng.randint(-4, 4) or 1)
            items.append((coeff, pp))
        gens.append(items)
    return gens


def random_z24_system(rng, ring):
    gens = []
    for _ in range(2):
        items = []
        for _ in range(rng.randint(1, 2)):
            pp = (rng.randint(0, 2), rng.randint(0, 2))
            items.append((rng.randint(1, 23), pp))
        p = ring.poly(items)
        if not p.is_zero:
            gens.append(p)
    return gens


@pytest.fixture(scope="module")
def classical_systems():
    """Criterion-4 workload: 20 systems under each order, both engines and
    both criterion settings."""
    rng = random.Random(2024)
    raw = [random_q_system_items(rng) for _ in range(20)]
    runs = []
    for kind in ("lex", "deglex", "degrevlex"):
        ring = make_poly_domain(Q, ("x", "y", "z"), kind)
        for items in raw:
            gens = [p for p in (ring.poly(i) for i in items) if not p.is_zero]
            if not gens:
                continue
            on = gb(ring, gens, chain_criterion=True)
            off = gb(ring, gens, chain_criterion=False)
            oracle = classical_buchberger_oracle(gens)
            runs.append((ring, gens, on, off, oracle))
    return runs


@pytest.fixture(scope="module")
def z24_systems():
    """Criterion-5 workload: systems and both criterion settings."""
    rng = random.Random(4812)
    ring = make_poly_domain(make_integer_quotient_domain(24), ("x", "y"), "degrevlex")
    runs = []
    while len(runs) < 20:
        gens = random_z24_system(rng, ring)
        if not gens:
            continue
        on = gb(ring, gens, chain_criterion=True)
        off = gb(ring, gens, chain_criterion=False)
        runs.append((ring, gens, on, off))
    return runs


def test_criterion_1_field_law():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        c = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**3))
        basis = gb(Q, (c,)).basis
        assert is_groebner_basis(Q, (c,))
        for _ in range(100):
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
            assert member_ideal(Q, a, basis)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("1 field-law", f"100 generators x 100 probes in {elapsed:.2f}s")


def test_criterion_2_integers_match_gcd():
    started = time.perf_counter()
    rng = random.Random(202)
    agreements = 0
    for _ in range(200):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        basis = gb(Z, (a, b)).basis
        for _ in range(50):
            x = rng.randint(-10**6, 10**6)
            assert member_ideal(Z, x, basis) == gcd_membership_oracle((a, b), x)
            agreements += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("2 integers-gcd", f"{agreements} probes agree in {elapsed:.2f}s")


def test_criterion_3_quotient_rings_church_rosser():
    started = time.perf_counter()
    rng = random.Random(303)
    systems_checked = 0
    for n in (6, 12, 24):
        dom = make_integer_quotient_domain(n)
        carrier = range(n)
        oracle_cache = {}
        systems = [()]
        systems += [(a,) for a in carrier]
        systems += [(a, b) for a in carrier for b in carrier if a < b]
        systems += [
            tuple(rng.randrange(n) for _ in range(3)) for _ in range(50)
        ]
        for gens in systems:
            basis = gb(dom, gens).basis
            rel = project_reduction_relation(dom, basis, carrier)
            assert is_church_rosser(rel)
            key = gens
            if key not in oracle_cache:
                oracle_cache[key] = {
                    a: exhaustive_ideal_oracle(n, gens, a) for a in carrier
                }
            for a in carrier:
                assert equivalent(rel, a, 0) == oracle_cache[key][a]
            systems_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("3 zn-church-rosser", f"{systems_checked} systems in {elapsed:.2f}s")


def test_criterion_4_classical_specialization(classical_systems):
    started = time.perf_counter()
    for ring, _gens, on, _off, oracle in classical_systems:
        for g in on.basis:
            assert classical_normal_form(g, oracle).is_zero
        for g in oracle:
            assert normal_form(ring, g, on.basis)[0].is_zero
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        "4 classical-specialization",
        f"{len(classical_systems)} runs (20 systems under 3 orders) mutually reduce in {elapsed:.2f}s",
    )


def test_criterion_5_z24_polynomials(z24_systems):
    started = time.perf_counter()
    for ring, gens, on, _off in z24_systems:
        assert is_groebner_basis(ring, on.basis)
        for g in gens:
            assert normal_form(ring, g, on.basis)[0].is_zero
        assert verify_cofactors(ring, on.rows, gens)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("5 z24-polynomials", f"{len(z24_systems)} systems in {elapsed:.2f}s")


def test_criterion_6_chain_criterion_conservative(classical_systems, z24_systems):
    checked = 0
    for ring, _gens, on, off, _oracle in classical_systems:
        assert on.trace.critical_pairs_reduced <= off.trace.critical_pairs_reduced
        for g in on.basis:
            assert normal_form(ring, g, off.basis)[0].is_zero
        for g in off.basis:
            assert normal_form(ring, g, on.basis)[0].is_zero
        checked += 1
    for ring, _gens, on, off in z24_systems:
        assert on.trace.critical_pairs_reduced <= off.trace.critical_pairs_reduced
        for g in on.basis:
            assert normal_form(ring, g, off.basis)[0].is_zero
        for g in off.basis:
            assert normal_form(ring, g, on.basis)[0].is_zero
        checked += 1
    report("6 chain-criterion", f"{checked} systems, on-count <= off-count, equal ideals")


def test_criterion_7_termination_and_replay(classical_systems, z24_systems):
    replays = 0
    for ring, gens, on, off, _oracle in classical_systems:
        # completion returned, so the pair queue emptied below the cap
        again = gb(ring, gens, chain_criterion=True)
        assert again.trace.to_text() == on.trace.to_text()
        assert again.basis == on.basis
        replays += 1
    for ring, gens, on, off in z24_systems:
        again = gb(ring, gens, chain_criterion=True)
        assert again.trace.to_text() == on.trace.to_text()
        again_off = gb(ring, gens, chain_criterion=False)
        assert again_off.trace.to_text() == off.trace.to_text()
        replays += 1
    report("7 termination-replay", f"{replays} runs byte-identical on replay")


def test_criterion_8_generalized_newman():
    started = time.perf_counter()
    rng = random.Random(808)
    holds = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        elements = list(range(n))
        ranks = {e: i for i, e in enumerate(rng.sample(elements, n))}
        less = lambda x, y, r=ranks: r[x] < r[y]
        steps = {
            (a, b)
            for a in elements
            for b in elements
            if ranks[b] < ranks[a] and rng.random() < 0.3
        }
        rel = FiniteRelation(tuple(elements), frozenset(steps))
        if generalized_newman_holds(rel, less):
            holds += 1
            assert is_church_rosser(rel)
    elapsed = time.perf_counter() - started
    assert holds > 0
    assert elapsed < 5.0
    report(
        "8 generalized-newman",
        f"1000 relations, premise held {holds} times, zero counterexamples, {elapsed:.2f}s",
    )


def test_criterion_9_axiom_suite():
    for n in range(1, 61):
        result = check_axioms(make_integer_quotient_domain(n))
        assert result.ok and result.mode == "exhaustive", f"n={n}"
    assert check_axioms(Q, sample_budget=10_000).ok
    assert check_axioms(Z, sample_budget=10_000).ok

    class BrokenOrder(IntegerQuotientDomain):
        def less(self, a, b):
            return True if (a, b) == (0, 0) else super().less(a, b)

    class BrokenWitness(IntegerQuotientDomain):
        def find_multiplier(self, a, c, index):
            return 0 if c % self.n else None

    assert {"order-irreflexive"} <= {
        c.name for c in check_axioms(BrokenOrder(24)).failures()
    }
    assert {"reduction-decreases"} <= {
        c.name for c in check_axioms(BrokenWitness(24)).failures()
    }
    report("9 axiom-suite", "exhaustive n<=60, sampled Q and Z, both mutants detected")
