import hashlib
import random
from fractions import Fraction

import pytest

from redring.buchberger import gb, ideal_congruence_holds
from redring.core import (
    ContractViolationError,
    NonTerminationError,
    check_axioms,
    normal_form,
    project_reduction_relation,
    reduce_step,
)
from redring.poly import make_poly_domain
from redring.relations import is_church_rosser
from redring.scalars import (
    IntegerQuotientDomain,
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

Q = make_field_domain()
Z = make_integer_domain()
Z24 = make_integer_quotient_domain(24)


def int_key(a):
    return (abs(a), a)


def brute_best_reduct(a, c, span=None):
    """Minimize the order value of a - m*c by plain enumeration."""
    if c == 0:
        return None
    span = span or (2 * abs(a) // abs(c) + 2)
    best = None
    for m in range(-span, span + 1):
        b = a - m * c
        if int_key(b) < int_key(a) and (best is None or int_key(b) < int_key(best)):
            best = b
    return best


def test_reduce_step_zero_is_terminal():
    assert reduce_step(Q, Fraction(0), [Fraction(3)]) is None
    assert reduce_step(Z, 0, [3]) is None
    assert reduce_step(Z24, 0, [4]) is None


def test_reduce_step_field_goes_to_zero():
    assert reduce_step(Q, Fraction(6), [Fraction(3)]) == (0, 0, Fraction(2))


def test_reduce_step_integers_matches_enumeration():
    b, pos, m = reduce_step(Z, 7, [3])
    assert b == brute_best_reduct(7, 3) == 1
    assert (pos, m) == (0, 2)
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randint(-200, 200)
        c = rng.randint(-20, 20)
        if c == 0:
            continue
        step = reduce_step(Z, a, [c])
        expected = brute_best_reduct(a, c)
        if expected is None:
            assert step is None
        else:
            assert step is not None
            assert step[0] == expected


def test_reduce_step_first_match_in_list_order():
    assert reduce_step(Z, 12, [4, 6]) == (0, 0, 3)
    assert reduce_step(Z, 12, [6, 4]) == (0, 0, 2)


def test_normal_form_examples():
    assert brute_best_reduct(2, 7) is None
    assert normal_form(Z, 2, [7]) == (2, [])
    assert normal_form(Q, Fraction(5), [Fraction(2)]) == (0, [(0, Fraction(5, 2))])
    h, steps = normal_form(Z24, 20, [4])
    assert h == 0
    assert [pos for pos, _ in steps] == [0]
    assert (steps[0][1] * 4) % 24 == 20


def test_normal_form_certificates_replay_exactly():
    qxy, zxy, z24xy = (make_poly_domain(c, ("x", "y"), "degrevlex") for c in (Q, Z, Z24))
    cases = [
        (Z, 103, [7, 11]),
        (Q, Fraction(9, 2), [Fraction(3)]),
        (Z24, 22, [4, 6]),
        (qxy, "x^2*y + 3*x*y^2 + y^3", ["x*y - 1", "y^2 + x"]),
        (zxy, "7*x^2*y + 5*x*y^2 + 3*y^3", ["3*x*y + 2", "2*y^2 - x"]),
        (z24xy, "10*x^2*y + 3*x*y + 6*y^3", ["3*y^2 + 1", "4*x + y"]),
        (z24xy, "6*y", ["4*x + y"]),
    ]
    for dom, a, basis in cases:
        if isinstance(a, str):
            a, basis = dom.parse(a), [dom.parse(g) for g in basis]
        h, chain = normal_form(dom, a, basis)
        # each step c -> c - m*basis[pos] strictly descends and ends at h
        current = a
        for pos, m in chain:
            after = dom.sub(current, dom.mul(m, basis[pos]))
            assert dom.less(after, current)
            current = after
        assert current == h
        # a - h equals the certified combination
        acc = dom.zero
        for pos, m in chain:
            acc = dom.add(acc, dom.mul(m, basis[pos]))
        assert dom.sub(a, h) == acc
    # the last case is one "ann" step: (pos, m) carries no index, and the
    # index-0 witness finds nothing, yet the record replays
    assert chain == [(0, dom.constant(6))] and not h
    assert dom.find_multiplier(a, basis[0], 0) is None


def test_normal_form_result_is_irreducible():
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randint(-500, 500)
        basis = [rng.randint(-30, 30) for _ in range(rng.randint(1, 3))]
        h, _ = normal_form(Z, a, basis)
        assert reduce_step(Z, h, basis) is None


def test_normal_form_determinism():
    first = normal_form(Z, 103, [7, 11])
    second = normal_form(Z, 103, [7, 11])
    assert first == second


def test_normal_form_step_bound():
    class Broken(IntegerQuotientDomain):
        def find_multiplier(self, a, c, index):
            return 0  # never descends, loops forever

    with pytest.raises(NonTerminationError):
        normal_form(Broken(6), 3, [2], max_steps=50)


@pytest.mark.parametrize("ring", ["z", "q[x,y]", "zmod24[x,y]"])
def test_step_cap_allows_exactly_max_steps(ring):
    if ring == "z":
        dom, a, basis = Z, 103, [11, 7]
    else:
        coeff = Q if ring.startswith("q") else Z24
        dom = make_poly_domain(coeff, ("x", "y"), "degrevlex")
        a = dom.parse("x^2*y + 3*x*y^2 + 10*y^3 + 6*y")
        basis = [dom.parse("x*y - 1"), dom.parse("4*y^2 + x")]
    h, steps = normal_form(dom, a, basis)
    n = len(steps)
    assert n >= 2
    assert normal_form(dom, a, basis, max_steps=n) == (h, steps)
    with pytest.raises(NonTerminationError, match=f"within {n - 1} steps") as kept:
        normal_form(dom, a, basis, max_steps=n - 1)
    assert normal_form(dom, h, basis, max_steps=0) == (h, [])
    # the hook with no step list takes the same steps under the same cap
    rows = dom.reducer_rows(basis)
    assert dom.normal_form(a, rows, n, None) == h
    with pytest.raises(NonTerminationError) as stepless:
        dom.normal_form(a, rows, n - 1, None)
    assert str(stepless.value) == str(kept.value)
    # one step settles 5 modulo 2 over Q
    assert normal_form(Q, Fraction(5), [Fraction(2)], max_steps=1) == (0, [(0, Fraction(5, 2))])


def test_is_reducible_examples():
    assert reduce_step(Z, 0, [3]) is None
    assert reduce_step(Q, Fraction(1), [Fraction(7)]) is not None
    assert reduce_step(Z, 1, [4, 6]) is None


def test_projection_empty_basis_has_no_steps():
    rel = project_reduction_relation(Z24, [], range(24))
    assert rel.steps == frozenset()


def test_projection_matches_raw_enumeration():
    # independent recomputation straight from the definition
    for basis in ([12], [5], [4, 6]):
        rel = project_reduction_relation(Z24, basis, range(24))
        expected = set()
        for a in range(24):
            for c in basis:
                for m in range(24):
                    b = (a - m * c) % 24
                    if b < a:
                        expected.add((a, b))
        assert set(rel.steps) == expected


def test_projection_unit_generator_reaches_zero_from_everywhere():
    rel = project_reduction_relation(Z24, [5], range(24))
    for a in range(1, 24):
        assert (a, 0) in rel.steps


def test_projection_multiples_of_generator_step_to_zero():
    rel = project_reduction_relation(Z24, [12], range(24))
    assert (12, 0) in rel.steps


def test_projection_is_closed_under_reduction_on_balls():
    ball = [a for a in range(-12, 13)]
    rel = project_reduction_relation(Z, [4, 6], ball)
    assert not is_church_rosser(rel)  # (4, 6) is not a Groebner basis


def _brute_force_steps(dom, basis, universe, multipliers):
    """Every (a, a - m*c) inside the universe that goes down, m from ``multipliers(a, c)``."""
    carrier = set(universe)
    return {
        (a, b)
        for a in universe
        for c in basis
        for m in multipliers(a, c)
        for b in [dom.sub(a, dom.mul(m, c))]
        if b in carrier and dom.less(b, a)
    }


def _quotient_window(a, c):
    if c == 0:
        return []
    span = 2 * abs(a) // abs(c) + 2
    return range(-span, span + 1)


def test_projection_matches_brute_force_on_scalars():
    rng = random.Random(17)
    cases = []
    for n in range(1, 41):
        dom = make_integer_quotient_domain(n)
        bases = [[c] for c in range(n)] if n <= 16 else []
        bases += [[rng.randrange(n), rng.randrange(n)] for _ in range(2)]
        cases += [(dom, basis, range(n), lambda a, c, n=n: range(n)) for basis in bases]
    ball = range(-25, 26)
    for _ in range(75):
        basis = [rng.randint(-25, 25) for _ in range(rng.randint(1, 3))]
        cases.append((Z, basis, ball, _quotient_window))
    fractions = sorted({Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(30)})
    for basis in ([], [Fraction(0)], [Fraction(3, 2)], [Fraction(-2), Fraction(5)]):
        cases.append((Q, basis, fractions, lambda a, c: [a / c] if c else []))
    for dom, basis, universe, multipliers in cases:
        rel = project_reduction_relation(dom, basis, universe)
        assert set(rel.steps) == _brute_force_steps(dom, basis, universe, multipliers)


def test_projection_contains_every_witness_step_on_polynomials():
    rng = random.Random(23)
    for coeff in (Q, Z, *(make_integer_quotient_domain(n) for n in (6, 8, 12))):
        ring = make_poly_domain(coeff, ("x", "y"), "degrevlex")
        for _ in range(10):
            basis = ring.sample_elements(rng, rng.randint(1, 2))
            seeds = ring.sample_elements(rng, 8)
            witness_steps = set()
            for a in seeds:
                for c in basis:
                    for index in ring.multiplier_indices:
                        m = ring.find_multiplier(a, c, index)
                        if m is not None:
                            witness_steps.add((a, ring.sub(a, ring.mul(m, c))))
            universe = seeds + [b for _, b in witness_steps]
            rel = project_reduction_relation(ring, basis, universe)
            assert witness_steps <= set(rel.steps)


def test_ideal_congruence_examples():
    assert ideal_congruence_holds(Z24, 7, 7, [5])
    assert ideal_congruence_holds(Z24, 7, 1, [6])
    assert not ideal_congruence_holds(Z24, 1, 0, [6])
    assert ideal_congruence_holds(Q, Fraction(3), Fraction(1), [Fraction(7)])
    assert ideal_congruence_holds(Z, 10, 2, [4])
    assert not ideal_congruence_holds(Z, 3, 0, [4, 6])
    assert ideal_congruence_holds(Z, 1, 0, [35, 55, 77])
    QXY = make_poly_domain(Q, ("x", "y"), "degrevlex")
    x, y = QXY.parse("x"), QXY.parse("y")
    assert ideal_congruence_holds(QXY, QXY.parse("x*y"), QXY.zero, [x])
    assert not ideal_congruence_holds(QXY, y, QXY.zero, [x])
    Z24X = make_poly_domain(Z24, ("x",), "degrevlex")
    two_x = Z24X.parse("2*x")
    assert ideal_congruence_holds(Z24X, Z24X.parse("4*x"), Z24X.zero, [two_x])
    assert not ideal_congruence_holds(Z24X, Z24X.parse("x"), Z24X.zero, [two_x])


def test_ideal_congruence_answers_on_huge_carriers():
    dom = IntegerQuotientDomain(2**64)
    assert not ideal_congruence_holds(dom, 3, 0, [6])
    assert ideal_congruence_holds(dom, 2**63 + 4, 0, [6])
    assert ideal_congruence_holds(dom, 3, 3, [6])  # a == b


def test_ideal_congruence_matches_closure_on_z24():
    rng = random.Random(21)
    for _ in range(20):
        gens = [rng.randrange(24) for _ in range(rng.randint(1, 2))]
        members = {0}
        changed = True
        while changed:
            changed = False
            for s in list(members):
                for g in gens:
                    v = (s + g) % 24
                    if v not in members:
                        members.add(v)
                        changed = True
        for a in range(24):
            assert ideal_congruence_holds(Z24, a, 0, gens) == (a in members)


def test_check_axioms_passes_on_provided_domains():
    assert check_axioms(Z24).ok
    assert check_axioms(Q, sample_budget=500).ok
    assert check_axioms(Z, sample_budget=500).ok


def test_check_axioms_detects_broken_order():
    class BadOrder(IntegerQuotientDomain):
        def less(self, a, b):
            if a == 0 and b == 0:
                return True
            return super().less(a, b)

    report = check_axioms(BadOrder(12))
    names = {c.name for c in report.failures()}
    assert "order-irreflexive" in names


def test_check_axioms_detects_non_decreasing_multiplier():
    class BadWitness(IntegerQuotientDomain):
        def find_multiplier(self, a, c, index):
            if c % self.n != 0:
                return 0  # a - 0*c = a, never below a
            return None

    report = check_axioms(BadWitness(12))
    names = {c.name for c in report.failures()}
    assert "reduction-decreases" in names


def test_axiom_report_serialization():
    report = check_axioms(Z24)
    text = report.to_text()
    assert "zero-least: PASS" in text
    assert "SKIPPED" in text
    doc = report.to_dict()
    assert doc["ok"] is True
    assert any(c["status"] == "SKIPPED" for c in doc["checks"])


def _mutant(name, **methods):
    return type(name, (IntegerQuotientDomain,), methods)


class ZeroIsN(IntegerQuotientDomain):
    def __init__(self, n):
        super().__init__(n)
        self.zero = n  # congruent to 0, but truthy


# One Z/nZ mutant per checked law: each overrides one method (or zero) so
# that the named law, and possibly others, fails.
_MUL_SHIFTED = _mutant("MulShifted", mul=lambda s, a, b: (a * b + 1) % s.n)
LAW_MUTANTS = {
    "add-commutative": _mutant("AddLeans", add=lambda s, a, b: (a + 2 * b) % s.n),
    "add-associative": _mutant("AddSquares", add=lambda s, a, b: (a * a + b * b) % s.n),
    "mul-commutative": _mutant("MulLeans", mul=lambda s, a, b: (a * b + a) % s.n),
    "mul-associative": _MUL_SHIFTED,
    "mul-distributes-over-add": _MUL_SHIFTED,
    "zero-falsy": ZeroIsN,
    "zero-additive-identity": _mutant("AddShifted", add=lambda s, a, b: (a + b + 1) % s.n),
    "one-multiplicative-identity": _mutant("MulZero", mul=lambda s, a, b: 0),
    "additive-inverse": _mutant("NegIdentity", neg=lambda s, a: a),
    "order-irreflexive": _mutant("LessAtZero", less=lambda s, a, b: (a == b == 0) or a < b),
    "order-transitive": _mutant(
        "LessCircular", less=lambda s, a, b: 0 < (b - a) % s.n < s.n // 2
    ),
    "order-acyclic": _mutant("LessDistinct", less=lambda s, a, b: a != b),
    "zero-least": _mutant("LessReversed", less=lambda s, a, b: a > b),
    "reduction-decreases": _mutant(
        "WitnessZero", find_multiplier=lambda s, a, c, index: 0 if c % s.n else None
    ),
    "mntcr-finite": _mutant(
        "MntcrSet",
        mntcrs=lambda s, c1, i1, c2, i2: set(IntegerQuotientDomain.mntcrs(s, c1, i1, c2, i2)),
    ),
    "mntcr-common-reducible": _mutant("MntcrOne", mntcrs=lambda s, c1, i1, c2, i2: [1]),
}


class EmptyIndexOne(IntegerQuotientDomain):
    """Z/nZ declaring a second multiplier index that never reduces anything."""

    multiplier_indices = (0, 1)

    def find_multiplier(self, a, c, index):
        return None if index == 1 else super().find_multiplier(a, c, index)


@pytest.mark.parametrize("mode, n", [("exhaustive", 24), ("sampled", 1000)])
def test_mntcrs_must_be_reducible_at_their_own_indices(mode, n):
    # every mntcr is reducible at index 0, but not at the index 1 it was asked for
    dom = EmptyIndexOne(n)
    report = check_axioms(dom)
    assert report.mode == mode
    failures = {c.name: c.witness for c in report.failures()}
    assert list(failures) == ["mntcr-common-reducible"]
    witness = failures["mntcr-common-reducible"]
    assert " i1=" in witness and " i2=" in witness
    with pytest.raises(ContractViolationError):
        gb(dom, (4, 6))


@pytest.mark.parametrize(
    "scalars",
    [Q, Z, *map(make_integer_quotient_domain, (1, 24, 2**64))],
    ids=["q", "z", "zmod1", "zmod24", "zmod2^64"],
)
@pytest.mark.parametrize("names", [None, ("x", "y")], ids=["scalar", "poly"])
def test_elements_are_falsy_exactly_when_zero(scalars, names):
    dom = make_poly_domain(scalars, names, "degrevlex") if names else scalars
    assert not dom.zero and dom.is_zero(dom.zero)
    for a in [dom.one, *dom.sample_elements(random.Random(7), 64)]:
        assert bool(a) == (a != dom.zero) == (not dom.is_zero(a))


@pytest.mark.parametrize("mode, n", [("exhaustive", 12), ("sampled", 1000)])
@pytest.mark.parametrize("law", sorted(LAW_MUTANTS))
def test_check_axioms_detects_each_law(law, mode, n):
    report = check_axioms(LAW_MUTANTS[law](n))
    assert report.mode == mode
    assert law in {c.name for c in report.failures()}


def test_check_axioms_exhaustive_witnesses_are_pinned():
    class BrokenOrder(IntegerQuotientDomain):
        def less(self, a, b):
            return True if (a, b) == (0, 0) else super().less(a, b)

    class BrokenWitness(IntegerQuotientDomain):
        def find_multiplier(self, a, c, index):
            return 0 if c % self.n else None

    failures = {c.name: c.witness for c in check_axioms(BrokenOrder(24)).failures()}
    assert failures == {"order-irreflexive": "a=0", "order-acyclic": "cycle through 0"}
    failures = {c.name: c.witness for c in check_axioms(BrokenWitness(24)).failures()}
    assert failures == {"reduction-decreases": "a=0 c=1 i=0 m=0"}


def _failures(dom):
    report = check_axioms(dom)
    return report.mode, {c.name: c.witness for c in report.failures()}


# The first breaking triple of each three-variable law in product order, as
# the scan of every triple reports it.
@pytest.mark.parametrize(
    "law, n, failures",
    [
        ("add-associative", 12, {
            "add-associative": "a=0 b=1 c=1",
            "mul-distributes-over-add": "a=2 b=0 c=1",
            "zero-additive-identity": "a=2",
            "additive-inverse": "a=1",
            "reduction-decreases": "a=1 c=1 i=0 m=1",
        }),
        ("add-associative", 24, {
            "add-associative": "a=0 b=0 c=2",
            "mul-distributes-over-add": "a=2 b=0 c=1",
            "zero-additive-identity": "a=2",
            "additive-inverse": "a=1",
            "reduction-decreases": "a=1 c=1 i=0 m=1",
        }),
        *(("mul-associative", n, {
            "mul-associative": "a=0 b=0 c=1",
            "mul-distributes-over-add": "a=0 b=0 c=0",
            "one-multiplicative-identity": "a=0",
            "reduction-decreases": "a=1 c=1 i=0 m=1",
        }) for n in (12, 24)),
        *(("order-transitive", n, {
            "order-transitive": f"a=0 b=1 c={n // 2}",
            "order-acyclic": "cycle through 0",
            "zero-least": f"a={n // 2}",
            "reduction-decreases": f"a={n // 2} c=1 i=0 m={n // 2}",
        }) for n in (12, 24)),
    ],
)
def test_three_variable_law_witnesses_are_pinned(law, n, failures):
    assert _failures(LAW_MUTANTS[law](n)) == ("exhaustive", failures)


class AddUnreduced(IntegerQuotientDomain):
    """Z/nZ whose sums leave the carrier {0, ..., n-1}."""

    def add(self, a, b):
        return a + b


@pytest.mark.parametrize("n", [12, 24])
def test_exhaustive_check_of_operations_leaving_the_carrier(n):
    assert _failures(AddUnreduced(n)) == ("exhaustive", {
        "mul-distributes-over-add": f"a=1 b=1 c={n - 1}",
        "additive-inverse": "a=1",
        "reduction-decreases": "a=1 c=1 i=0 m=1",
    })


def test_exhaustive_reports_are_pinned():
    digest = hashlib.sha256()
    doms = [make_integer_quotient_domain(n) for n in range(1, 61)]
    doms += [LAW_MUTANTS[law](n) for law in sorted(LAW_MUTANTS) for n in (1, 2, 12, 36, 60)]
    for dom in doms:
        digest.update(check_axioms(dom).to_text().encode() + b"\n")
    assert digest.hexdigest() == "6293240c05dd5c617430ccc328ddd0caa52afbce1b51008b55ce6c03258340ab"


def test_exhaustive_check_calls_each_operation_once_per_pair():
    calls = {"add": 0, "mul": 0}

    class Counted(IntegerQuotientDomain):
        def add(self, a, b):
            calls["add"] += 1
            return super().add(a, b)

        def mul(self, a, b):
            calls["mul"] += 1
            return super().mul(a, b)

    assert check_axioms(Counted(36)).ok
    assert calls["add"] < 36**3 and calls["mul"] < 36**3, calls
