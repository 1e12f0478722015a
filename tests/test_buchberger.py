import hashlib
import math
import random
from collections import Counter, deque
from fractions import Fraction
from operator import le

import pytest

from redring.buchberger import (
    CofactorRow,
    GBTrace,
    PairSet,
    _walk,
    critical_pair,
    gb,
    ideal_congruence_holds,
    is_groebner_basis,
    member_ideal,
    verify_cofactors,
)
from redring.core import (
    DEFAULT_STEP_BOUND,
    ContractViolationError,
    NonTerminationError,
    normal_form,
    project_reduction_relation,
)
from redring.oracles import (
    classical_buchberger_oracle,
    exhaustive_ideal_oracle,
    gcd_membership_oracle,
)
from redring.poly import FractionFreePolyRing, PolyRing, make_poly_domain
from redring.relations import is_church_rosser
from redring.scalars import (
    RationalFieldDomain,
    make_field_domain,
    make_integer_domain,
    make_integer_quotient_domain,
)

Q = make_field_domain()
Z = make_integer_domain()


class TwoIndexField(RationalFieldDomain):
    """The rational field with its multiplier set split into two equal halves."""

    name = "q2"
    multiplier_indices = (0, 1)


class FractionLoopQ(RationalFieldDomain):
    """The rationals without an integer image: polynomial rings over them
    take the generic rule, over ``Fraction`` coefficients."""

    integer_image = None


@pytest.mark.parametrize(
    "coeff, cls",
    [
        (Q, FractionFreePolyRing),
        (TwoIndexField(), FractionFreePolyRing),
        (FractionLoopQ(), PolyRing),
        (Z, PolyRing),
        (make_integer_quotient_domain(24), PolyRing),
    ],
    ids=["q", "q2", "q-fraction-loop", "z", "zmod24"],
)
def test_make_poly_domain_chooses_the_rule_from_the_coefficients(coeff, cls):
    assert type(make_poly_domain(coeff, ("x", "y"), "lex")) is cls


def test_critical_pair_field_example():
    _m1, a1, _m2, a2 = critical_pair(Q, Fraction(1), Fraction(2), 0, Fraction(3), 0)
    assert a1 == 0 and a2 == 0


def test_critical_pair_self_pair_is_symmetric():
    z = Z.mntcrs(6, 0, 6, 0)[0]
    m1, a1, m2, a2 = critical_pair(Z, z, 6, 0, 6, 0)
    assert m1 == m2 and a1 == a2


def test_critical_pair_replays_certificates():
    z = Z.mntcrs(4, 0, 6, 0)[0]
    m1, a1, m2, a2 = critical_pair(Z, z, 4, 0, 6, 0)
    assert m1 == Z.find_multiplier(z, 4, 0)
    assert m2 == Z.find_multiplier(z, 6, 0)
    assert a1 == z - m1 * 4
    assert a2 == z - m2 * 6
    assert Z.less(a1, z) and Z.less(a2, z)


@pytest.mark.parametrize("coeff", [Q, make_integer_quotient_domain(24)], ids=["q", "zmod24"])
def test_critical_pair_takes_one_reduct_per_side(coeff, monkeypatch):
    R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
    g1, g2 = R.parse("3*x^2*y + 5*y"), R.parse("2*x*y^2 + x")
    z = R.mntcrs(g1, 0, g2, 0)[0]
    m1, m2 = R.find_multiplier(z, g1, 0), R.find_multiplier(z, g2, 0)
    want = (m1, z - m1 * g1, m2, z - m2 * g2)
    calls = []
    for name in ("reduct", "find_multiplier", "mul", "sub"):
        real = getattr(R, name)
        monkeypatch.setattr(R, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert critical_pair(R, z, g1, 0, g2, 0) == want
    assert calls == ["reduct", "reduct"]


def test_critical_pair_contract_violation():
    with pytest.raises(ContractViolationError):
        critical_pair(Z, 1, 4, 0, 6, 0)  # 1 is irreducible modulo both


@pytest.mark.parametrize("coeff", [Q, make_integer_quotient_domain(24)], ids=["q", "zmod24"])
@pytest.mark.parametrize("subject", ["gb", "is_groebner_basis"])
def test_polynomial_mntcr_one_side_cannot_reduce(coeff, subject, monkeypatch):
    # at indices (0, 0) the mntcr of a pair of distinct elements is the lead
    # term x^2*y of the first, which the lead 4*x*y^2 (or x*y^2) of the
    # second does not divide
    R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
    lead = "x*y^2" if coeff.is_field else "4*x*y^2"
    gens = [R.parse("x^2*y + 1"), R.parse(lead + " + x")]
    real = R.mntcrs

    def mntcrs(g1, i1, g2, i2):
        if (i1, i2) == (0, 0) and g1 is not g2:
            return [R.monomial(coeff.one, g1.leading_pp())]
        return real(g1, i1, g2, i2)

    monkeypatch.setattr(R, "mntcrs", mntcrs)
    with pytest.raises(ContractViolationError) as stop:
        gb(R, gens) if subject == "gb" else is_groebner_basis(R, gens)
    assert str(stop.value) == (
        "mntcr x^2*y is not reducible by both generators at pair 0 1 with 2 basis elements"
    )
    if subject == "gb":
        assert stop.value.trace.records[-1] == ("pair", 0, 1)


def test_gb_empty_input():
    res = gb(Z, ())
    assert res.basis == ()
    assert res.rows == []
    assert res.trace.pairs_processed == 0


def test_gb_drops_zero_generators():
    res = gb(Z, (0, 4, 0, 6))
    assert res.basis[:2] == (4, 6)
    assert verify_cofactors(Z, res.rows, (0, 4, 0, 6))


def test_gb_field_singleton():
    res = gb(Q, (Fraction(7),))
    assert res.basis == (Fraction(7),)
    assert res.rows == []


def test_gb_integers_membership():
    res = gb(Z, (4, 6))
    assert res.basis[:2] == (4, 6)
    assert member_ideal(Z, 2, res.basis)
    assert not member_ideal(Z, 3, res.basis)
    rng = random.Random(3)
    for _ in range(50):
        x = rng.randint(-100, 100)
        assert member_ideal(Z, x, res.basis) == gcd_membership_oracle((4, 6), x)


def test_gb_input_is_prefix_and_rows_cover_additions():
    res = gb(Z, (9, 6))
    assert res.basis[: 2] == (9, 6)
    assert len(res.rows) == len(res.basis) - 2
    assert verify_cofactors(Z, res.rows, (9, 6))


def test_member_ideal_trivial_zero():
    assert member_ideal(Z, 0, gb(Z, (4, 6)).basis)


def test_member_ideal_after_is_groebner_basis():
    # membership is decided by a Groebner basis, which the finite criterion checks
    assert not is_groebner_basis(Z, (4, 6))
    basis = gb(Z, (4, 6)).basis
    assert is_groebner_basis(Z, basis)
    assert member_ideal(Z, 2, basis)
    assert not member_ideal(Z, 3, basis)


def test_is_groebner_basis_empty_and_singleton():
    assert is_groebner_basis(Q, ())
    assert is_groebner_basis(Q, (Fraction(1),))


def test_is_groebner_basis_rejects_zero():
    # zero elements are dropped, as gb drops zero generators
    assert is_groebner_basis(Z, (4, 0)) is True


def test_is_groebner_basis_cross_checked_with_projection():
    ball = list(range(-12, 13))
    assert is_groebner_basis(Z, (4, 6)) is False
    rel = project_reduction_relation(Z, [4, 6], ball)
    assert is_church_rosser(rel) is False
    basis = gb(Z, (4, 6)).basis
    rel2 = project_reduction_relation(Z, basis, ball)
    assert is_church_rosser(rel2) is True
    assert is_groebner_basis(Z, basis) is True


def test_criterion_fixpoint_property():
    rng = random.Random(7)
    for _ in range(25):
        gens = tuple(rng.randint(-60, 60) for _ in range(rng.randint(1, 3)))
        res = gb(Z, gens)
        assert is_groebner_basis(Z, res.basis)
        assert verify_cofactors(Z, res.rows, gens)


def test_membership_agrees_with_ideal_congruence_on_finite_domain():
    rng = random.Random(11)
    m12 = make_integer_quotient_domain(12)
    for _ in range(15):
        gens = tuple(rng.randrange(12) for _ in range(rng.randint(1, 2)))
        basis = gb(m12, gens).basis
        for a in range(12):
            expected = exhaustive_ideal_oracle(12, gens, a)
            assert member_ideal(m12, a, basis) == expected
            assert ideal_congruence_holds(m12, a, 0, gens) == expected


def test_multi_index_domain_enumerates_index_pairs():
    dom = TwoIndexField()
    res = gb(dom, (Fraction(2), Fraction(5)))
    assert res.basis == (Fraction(2), Fraction(5))
    assert is_groebner_basis(dom, res.basis)
    text = res.trace.to_text()
    assert "indices 0 1" in text and "indices 1 0" in text


def test_verify_cofactors_empty_and_perturbed():
    assert verify_cofactors(Z, [], (4, 6))
    res = gb(Z, (4, 6))
    assert verify_cofactors(Z, res.rows, (4, 6))
    row = res.rows[0]
    bad = CofactorRow(row.element, {k: v + 1 for k, v in row.cofactors.items()})
    assert not verify_cofactors(Z, [bad], (4, 6))


def fed_pair_set(dom, basis):
    """A pair set fed every element of basis, with the pruned pairs it returned."""
    pairs = PairSet(dom, list(basis), True)
    pruned = [p for new in range(len(basis)) for p in pairs.add(new)]
    return pairs, pruned


def pending_pairs(pairs):
    return [(i, j) for i, j, _z in pairs.pending]


def test_chain_criterion_size_two_basis_never_skips():
    R = make_poly_domain(Q, ("x", "y"), "lex")
    pairs, pruned = fed_pair_set(R, [R.parse("x^2"), R.parse("x*y")])
    assert pruned == []
    assert pending_pairs(pairs) == [(0, 0), (0, 1), (1, 1)]


def test_chain_criterion_skip_requires_both_side_pairs():
    R = make_poly_domain(Q, ("x", "y"), "lex")
    # criterion M: z(1, 2) = x^2*y^2 is reduced by z(0, 2) = x*y^2, and the
    # side pairs (0, 1) and (0, 2) stay
    pairs, pruned = fed_pair_set(R, [R.parse("x*y"), R.parse("x^2"), R.parse("y^2")])
    assert pruned == [(1, 2, "chain-criterion")]
    assert {(0, 1), (0, 2)} <= set(pending_pairs(pairs))
    # criterion B: x*y reduces z(0, 1) = x^2*y^2, which differs from both
    # z(0, 2) = x^2*y and z(1, 2) = x*y^2; those side pairs are enqueued
    pairs, pruned = fed_pair_set(R, [R.parse("x^2*y"), R.parse("x*y^2"), R.parse("x*y")])
    assert pruned == [(0, 1, "chain-criterion")]
    assert {(0, 2), (1, 2)} <= set(pending_pairs(pairs))
    # the leads of elements 0 and 1 are multiples of x*y: their later pairs
    # are pruned, and x*y's is kept
    pairs.basis.append(R.parse("y^3"))
    assert pairs.add(3) == [(0, 3, "chain-criterion"), (1, 3, "chain-criterion")]
    assert pending_pairs(pairs)[-2:] == [(2, 3), (3, 3)]


def test_chain_criterion_absent_without_domain_hook():
    pairs, pruned = fed_pair_set(Z, [2, 4, 6])
    assert pruned == []
    assert pending_pairs(pairs) == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    # the polynomials of the criterion-B case, over Z coefficients
    R = make_poly_domain(Z, ("x", "y"), "lex")
    pairs, pruned = fed_pair_set(R, [R.parse("x^2*y"), R.parse("x*y^2"), R.parse("x*y")])
    assert pruned == []
    assert pending_pairs(pairs) == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]


def test_chain_criterion_never_fires_over_ring_coefficients():
    # skipping based on single-element reducibility is unsound when the
    # coefficient domain is not a field; this system used to lose 6*x*y
    ring = make_poly_domain(make_integer_domain(), ("x", "y"), "deglex")
    gens = (ring.parse("-3*x*y^2"), ring.parse("-2*x^2*y - 2*x"))
    res = gb(ring, gens, chain_criterion=True)
    assert res.trace.chain_skips == 0
    assert not [line for line in res.trace.lines if line.startswith("prune ")]
    assert is_groebner_basis(ring, res.basis)
    assert member_ideal(ring, ring.parse("6*x*y"), res.basis)


def test_completion_covers_annihilator_pairs():
    m24 = make_integer_quotient_domain(24)
    ring = make_poly_domain(m24, ("x", "y"), "lex")
    g = ring.parse("4*x + y")
    res = gb(ring, (g,))
    assert is_groebner_basis(ring, res.basis)
    # 6y = 6*(4x + y) lies in the ideal and must reduce to zero
    assert member_ideal(ring, ring.parse("6*y"), res.basis)
    assert verify_cofactors(ring, res.rows, (g,))
    assert any("indices 0 ann" in line for line in res.trace.lines)


def test_chain_criterion_conservative_on_polynomials():
    rng = random.Random(13)
    R = make_poly_domain(Q, ("x", "y"), "degrevlex")
    for _ in range(10):
        gens = []
        for _ in range(2):
            items = [
                (Fraction(rng.randint(1, 4)), (rng.randint(0, 2), rng.randint(0, 2)))
                for _ in range(rng.randint(1, 3))
            ]
            p = R.poly(items)
            if not p.is_zero:
                gens.append(p)
        if not gens:
            continue
        with_crit = gb(R, gens, chain_criterion=True)
        without = gb(R, gens, chain_criterion=False)
        assert with_crit.trace.critical_pairs_reduced <= without.trace.critical_pairs_reduced
        for g in with_crit.basis:
            assert normal_form(R, g, without.basis)[0].is_zero
        for g in without.basis:
            assert normal_form(R, g, with_crit.basis)[0].is_zero


def test_trace_replay_determinism():
    R = make_poly_domain(make_integer_quotient_domain(24), ("x", "y"), "degrevlex")
    gens = (R.parse("4*x^2 + y"), R.parse("6*x*y"))
    first = gb(R, gens)
    second = gb(R, gens)
    assert first.trace.to_text() == second.trace.to_text()
    assert first.trace.digest() == second.trace.digest()
    assert first.basis == second.basis


def test_trace_records_additions_and_finals():
    res = gb(Z, (4, 6))
    text = res.trace.to_text()
    assert "init 0 4" in text
    assert "pair 0 1" in text
    assert any(line.startswith("add 2 ") for line in text.splitlines())
    assert text.splitlines()[-1].startswith("final ")


def test_pair_cap_raises():
    with pytest.raises(NonTerminationError):
        gb(Z, (4, 6, 9, 15), max_pairs=2)


def test_pair_cap_names_the_pair_and_the_basis_size():
    coeff, names, texts, _digest, _basis, _rows = GOLDEN["cyclic4"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    gens = [R.parse(t) for t in texts]
    walked = [record[1:] for record in gb(R, gens).trace.records if record[0] == "pair"]
    with pytest.raises(NonTerminationError) as stop:
        gb(R, gens, max_pairs=5)
    size = sum(record[0] in ("init", "add") for record in stop.value.trace.records)
    assert size > len(gens)
    i, j = walked[5]
    assert str(stop.value) == (
        f"pair walk did not finish within 5 pairs: stopped at pair {i} {j} with {size} basis elements"
    )


def test_reduction_step_cap_names_the_pair_and_the_basis_size():
    with pytest.raises(NonTerminationError) as stop:
        gb(Z, (12, 18, 8), max_steps=0)
    records = stop.value.trace.records
    assert records[-1] == ("critical", -6, 0)  # the trace still ends where the walk stopped
    assert [r for r in records if r[0] == "pair"][-1] == ("pair", 0, 1)
    assert sum(r[0] in ("init", "add") for r in records) == 3
    assert str(stop.value) == (
        "reduction of -6 did not settle within 0 steps at pair 0 1 with 3 basis elements"
    )


def test_checker_keeps_no_trace_and_keeps_its_step_cap(monkeypatch):
    coeff, names, _texts, _digest, basis, _rows = GOLDEN["cyclic4"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in basis]
    made = []
    real_init = GBTrace.__init__
    monkeypatch.setattr(GBTrace, "__init__", lambda self, dom: made.append(dom) or real_init(self, dom))
    assert is_groebner_basis(R, G)
    assert made == []
    with pytest.raises(NonTerminationError, match="within 0 steps"):
        is_groebner_basis(R, G, max_steps=0)
    gb(R, G)
    assert made == [R]


def test_state_invariants_hold_at_exit():
    res = gb(Z, (0, 4, 6))
    assert all(not Z.is_zero(g) for g in res.basis)
    # queue discipline: processing covered every pair up to the final size
    n = len(res.basis)
    text = res.trace.to_text()
    for j in range(n):
        for i in range(j + 1):
            assert f"pair {i} {j}" in text


def rows_digest(dom, rows) -> str:
    """sha256 of the rows in the ``gb --certify`` line format, newline-joined."""
    lines = (
        f"cofactor {dom.render(row.element)} = "
        + " + ".join(f"({dom.render(v)})*g{k}" for k, v in row.cofactors.items())
        for row in rows
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# Golden replay: the trace digest, the rendered basis and the rows digest
# (``rows_digest``) of fixed systems.
# The digests were re-pinned when completion began to skip the pairs the
# checker skips (equal sides, the product criterion); that changed the
# katsura3 and cyclic4 bases and left the z24, z360 (Z/360Z[x,y]) and zxyz
# (Z[x,y,z]) bases as they were.  They were re-pinned again when polynomial
# normal forms became top-down: the step counts of the katsura3, z360 and
# zxyz traces changed, and one z360 normal form settled in 5*y instead of y,
# so its element 7 is the old one plus 356*y, its element 9.  The katsura3
# and cyclic4 digests were re-pinned once more when the pair set over field
# coefficients became the Gebauer-Moeller update: pruned pairs are traced
# once as "prune i j <reason>" instead of walked, and fewer pairs are
# reduced; both bases stayed as they were.  Over Z and Z/nZ the pair set
# prunes nothing, so the z24, z360 and zxyz digests did not change.  A
# faster path that takes the same steps must leave every byte unchanged.
# q-fractions has leading coefficients that are neither integers nor units
# of Z: each generator is (L*x^lpp + tail)/d with d > 1 and |L| > 1, the
# case where a path on integer numerators must scale both ways.
GOLDEN = {
    "katsura3": (
        Q,
        "abcd",
        (
            "a + 2*b + 2*c + 2*d - 1",
            "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
            "2*a*b + 2*b*c + 2*c*d - b",
            "2*a*c + b^2 + 2*b*d - c",
        ),
        "8c4bcfc766b62ec146768d6525b61a72a0158e2053e417a3bcb5db8941c6e0aa",
        (
            "a + 2*b + 2*c + 2*d - 1",
            "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
            "2*a*b + 2*b*c + 2*c*d - b",
            "b^2 + 2*a*c + 2*b*d - c",
            "32*b*c + 30*c^2 - 4*b*d + 32*c*d + 6*d^2 - 2*b - 8*c - 2*d",
            "7/16*c^2 + 7/8*b*d + 2*c*d + 27/16*d^2 - 1/16*b - 1/4*c - 9/16*d",
            "-27/16*b*d^2 - 243/56*c*d^2 - 477/112*d^3 + 3/7*b*d + 197/224*c*d + 213/112*d^2"
            " - 15/448*b - 1/14*c - 9/56*d",
            "-432/49*c*d^2 - 480/49*d^3 + 24/49*b*d + 272/147*c*d + 208/49*d^2 - 8/49*b"
            " - 40/147*c - 16/49*d",
            "55/63*d^4 - 1810/5103*d^3 + 185/5103*b*d + 1315/13122*c*d + 1030/15309*d^2"
            " - 65/61236*b - 1945/183708*c - 235/15309*d",
        ),
        "cbd223771579351ccf47f9537d2e0c951e4518559b9036c1a2aa10c7b5064267",
    ),
    "cyclic4": (
        Q,
        "abcd",
        (
            "a + b + c + d",
            "a*b + b*c + c*d + d*a",
            "a*b*c + b*c*d + c*d*a + d*a*b",
            "a*b*c*d - 1",
        ),
        "e878ab80593fd0b9961df857c3cf6af9df8a712713596f84fd3c8dc9378f9d2b",
        (
            "a + b + c + d",
            "a*b + b*c + a*d + c*d",
            "a*b*c + a*b*d + a*c*d + b*c*d",
            "a*b*c*d - 1",
            "-b^2 - 2*b*d - d^2",
            "-b*c^2 - c^2*d + b*d^2 + d^3",
            "b*c*d^2 + c^2*d^2 - b*d^3 + c*d^3 - d^4 - 1",
            "b*d^4 + d^5 - b - d",
            "c^3*d^2 + c^2*d^3 - c - d",
            "-c^2*d^4 - b*c + b*d - c*d + 2*d^2",
        ),
        "1f42a024780f56e3448d0f8d310fab998e47579c41a48f473259644b0b75f581",
    ),
    "q-fractions": (
        Q,
        "xyz",
        ("2/3*x^2 - 5/7*y*z + 1/2", "3/5*x*y + 4/3*z - 2", "6/5*y^2 - 3/4*x*z"),
        "2d5bd39276984dd9824d934f1d41749b33a746e966fa907421bd05bc59edb91f",
        (
            "2/3*x^2 - 5/7*y*z + 1/2",
            "3/5*x*y + 4/3*z - 2",
            "6/5*y^2 - 3/4*x*z",
            "75/112*x*z^2 + 20/9*x*z - 10/3*x - 3/4*y",
            "-75/112*y*z^2 - 20/9*y*z + 10/3*y + 15/32*z",
            "-20/9*z^3 - 7/10*x*z - 982/243*z^2 + 1792/81*z - 448/27",
        ),
        "673ce8f6018f9511b317bfc0efb2087ca189d409454aaafa94e4f8da575534d7",
    ),
    "z24": (
        make_integer_quotient_domain(24),
        "xy",
        ("4*x^2 + y", "6*x*y"),
        "efe834a10d4c7792e4b11f3e4d90892e53f0029a206c2a88f3ae2d119139fb28",
        ("4*x^2 + y", "6*x*y", "2*x^2*y + 5*y^2", "3*y^2", "23*x^2*y^2 + 2*y^3"),
        "1b8c2f6866c29bd457d97b2816e9532f52306c7392c0a47352fc924f50034cf2",
    ),
    "z360": (
        make_integer_quotient_domain(360),
        "xy",
        ("12*x^2*y + 30*x + 7", "45*x*y^2 + 8*y"),
        "3b66eee87a2a0aa6f0636ddd2de6b936e040c59b5acca95ff90a52d4a1a4af8c",
        (
            "12*x^2*y + 30*x + 7",
            "45*x*y^2 + 8*y",
            "354*x*y + 30*x + 45",
            "30*x + 55",
            "x^2*y^2 + 356*x*y + 355*y + 50",
            "356*x^2*y + 28",
            "6*y^2 + 356*y",
            "359*x*y^2 + 355*y + 310",
            "356*x*y + 6*y",
            "356*y",
            "357*y + 310",
            "353",
        ),
        "4d3371ecf09dcbbbc888841c61dc20c47dfa383fbf91f10876eefd751680b4a4",
    ),
    "zxyz": (
        Z,
        "xyz",
        ("3*x^2 + 2*y", "5*x*y - z", "4*y*z + x"),
        "fcaf2069e15f539c3c0ae7bc2c198c9d7ba748e9eb5a25761a3cbfcf7f534f8e",
        (
            "3*x^2 + 2*y",
            "5*x*y - z",
            "4*y*z + x",
            "-x^2*y - 4*y^2 - x*z",
            "x^3 - 2*y^2*z - x*z^2 + x*y",
            "-x*y*z + x^2 + z^2",
            "10*y^2 + 3*x*z",
            "-2*y^2*z + 3*x*z^2 + 2*x*y - z",
            "x^2*z + 2*z^3 - y*z",
            "6*z^3 - y*z + x",
            "-6*x*z^2 + z",
            "x^2 - 4*z^2 + 4*y",
            "-12*z^2 + 10*y",
            "-2*y*z^3 - y^2*z + 4*x*z^2 - 4*x*y",
            "-3*x*z^4 + y^3*z - x*y^2 + 2*z^3 + 3*y*z + x",
            "y^4*z + 3*z^5 - x*y^3 - y*z^3 + y^2*z + 3*x*z^2 - 2*x*y",
        ),
        "a27e023042b897bb508d1648e0fc78d45d4098976ed76b8251b1112bfe934403",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_replay(name):
    coeff, names, texts, digest, basis, rows = GOLDEN[name]
    # over Q the generic rule (FractionLoopQ) must give every byte the fraction-free one gives
    for c in [coeff, FractionLoopQ()] if coeff == Q else [coeff]:
        R = make_poly_domain(c, tuple(names), "degrevlex")
        gens = [R.parse(t) for t in texts]
        res = gb(R, gens)
        assert tuple(R.render(g) for g in res.basis) == basis
        assert res.trace.digest() == digest
        assert rows_digest(R, res.rows) == rows
        assert verify_cofactors(R, res.rows, gens)



@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_walk_yields_the_steps_that_make_each_appended_element(name):
    coeff, names, texts, _digest, basis, _rows = GOLDEN[name]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in texts]
    yielded = 0
    for steps in _walk(R, G, [].append, True, DEFAULT_STEP_BOUND, math.inf):
        acc = R.zero
        for pos, m in steps:
            assert 0 <= pos < len(G) - 1  # only elements before h
            acc = R.add(acc, R.mul(m, G[pos]))
        assert acc == G[-1]
        yielded += 1
    assert yielded == len(basis) - len(texts)

def cyclic(names) -> list:
    """The cyclic-n system in the variables names, as text."""
    n = len(names)
    sums = [
        " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    return sums + ["*".join(names) + " - 1"]


def test_cyclic5_replay():
    # the golden systems above prune a few pairs each; cyclic5 prunes 749,
    # so this pin sees every rule of the Gebauer-Moeller update at work
    names = [f"x{k}" for k in range(5)]
    R = make_poly_domain(Q, tuple(names), "degrevlex")
    res = gb(R, [R.parse(t) for t in cyclic(names)])
    trace = res.trace
    rendered = "\n".join(R.render(g) for g in res.basis).encode("utf-8")
    assert trace.digest() == "3fe5f8e136b8aa0f01d9b2304b70dda3a576bfb29c6c9daf4f31d19edbb3eb25"
    assert hashlib.sha256(rendered).hexdigest() == (
        "8bf29ca59aa7e8f8e3d67c372f3b82305b91f56d263cc39c7911cd454b923fcc"
    )
    assert rows_digest(R, res.rows) == (
        "6f96d2883f5ff4a592829e5fdc7462a87e928ae1c740b537af082f47c1bb84a1"
    )
    assert (len(res.basis), trace.pairs_processed, trace.critical_pairs_reduced) == (42, 154, 112)
    reasons = Counter(r[3] for r in trace.records if r[0] == "prune")
    assert reasons == {"chain-criterion": 712, "product-criterion": 37}


@pytest.mark.parametrize("cap", [{"max_pairs": 10}, {"max_steps": 1}], ids=["pairs", "steps"])
def test_stopped_completion_keeps_its_trace(cap):
    coeff, names, texts, _digest, _basis, _rows = GOLDEN["cyclic4"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    gens = [R.parse(t) for t in texts]
    full = gb(R, gens).trace.to_text()
    with pytest.raises(NonTerminationError) as stop:
        gb(R, gens, **cap)
    partial = stop.value.trace.to_text()
    assert partial.startswith("init 0 ") and partial != full
    assert full.startswith(partial)


@pytest.mark.parametrize(
    "coeff, names, texts",
    [
        (Q, "xyz", ("x*y - z", "y*z - x", "x*z - y")),
        GOLDEN["z360"][:3],
        GOLDEN["zxyz"][:3],
    ],
    ids=["q-xyz", "z360", "zxyz"],
)
def test_completion_renders_nothing_until_the_trace_is_read(coeff, names, texts, monkeypatch):
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    gens = [R.parse(t) for t in texts]
    calls = []
    for dom in (R, R.coeff):
        real = dom.render
        monkeypatch.setattr(dom, "render", lambda a, real=real: calls.append(a) or real(a))
    trace = gb(R, gens).trace
    assert calls == []
    assert trace.lines == trace.lines and trace.lines
    assert trace.to_text() == trace.to_text() == "\n".join(trace.lines) + "\n"
    assert trace.digest() == trace.digest()
    assert calls


def reference_is_groebner_basis(dom, basis):
    """The finite criterion with no pair criterion: every mntcr of every pair is reduced."""
    G = list(basis)
    for j in range(len(G)):
        for i in range(j + 1):
            for i1 in dom.multiplier_indices:
                for i2 in dom.multiplier_indices:
                    for z in dom.mntcrs(G[i], i1, G[j], i2):
                        a1 = dom.sub(z, dom.mul(dom.find_multiplier(z, G[i], i1), G[i]))
                        a2 = dom.sub(z, dom.mul(dom.find_multiplier(z, G[j], i2), G[j]))
                        nf1, _ = normal_form(dom, a1, G)
                        nf2, _ = normal_form(dom, a2, G)
                        if not dom.is_zero(dom.sub(nf1, nf2)):
                            return False
    return True


# (coefficients, variables, order, largest exponent and largest coefficient
# magnitude in a random generator); random Z[x,y,z] systems complete within
# a second only with small exponents and coefficients
CHECKER_RINGS = {
    "q-degrevlex": (Q, "xyz", "degrevlex", 2, 9),
    "q-lex": (Q, "xyz", "lex", 2, 9),
    "z24": (make_integer_quotient_domain(24), "xy", "degrevlex", 2, 9),
    "z360": (make_integer_quotient_domain(360), "xy", "degrevlex", 2, 9),
    "zxyz": (Z, "xyz", "degrevlex", 1, 5),
}


def random_generators(rng, R, top, size, lo=2, hi=3):
    """lo to hi nonzero polynomials of 1 to 3 terms with small random coefficients."""
    gens = []
    while len(gens) < rng.randint(lo, hi):
        items = []
        for _ in range(rng.randint(1, 3)):
            c = R.coeff.parse(str(rng.randint(-size, size)))
            items.append((c, tuple(rng.randint(0, top) for _ in R.names)))
        p = R.poly(items)
        if not p.is_zero:
            gens.append(p)
    return gens


def assert_gb_output_is_certified_basis(R, gens):
    """gb's output, chain criterion on and off, passes the criterion-free checker."""
    for chain in (True, False):
        res = gb(R, gens, chain_criterion=chain)
        shown = [R.render(g) for g in gens]
        assert reference_is_groebner_basis(R, res.basis), (shown, chain)
        assert verify_cofactors(R, res.rows, gens), (shown, chain)


@pytest.mark.parametrize("name", sorted(CHECKER_RINGS))
def test_checker_agrees_with_reference(name):
    coeff, names, order, top, size = CHECKER_RINGS[name]
    R = make_poly_domain(coeff, tuple(names), order)
    rng = random.Random(name)
    verdicts = []
    for _ in range(8):
        gens = random_generators(rng, R, top, size)
        assert_gb_output_is_certified_basis(R, gens)
        basis = gb(R, gens).basis
        for candidate in (basis, basis[:-1], basis[1:], tuple(gens)):
            verdict = reference_is_groebner_basis(R, candidate)
            assert is_groebner_basis(R, candidate) is verdict, [R.render(g) for g in candidate]
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# (coefficients, term order) of the Gebauer-Moeller differential test: Q
# under each order, and the two-index field, whose pairs have four mntcrs
PAIR_SET_RINGS = {
    "q-lex": (Q, "lex"),
    "q-deglex": (Q, "deglex"),
    "q-degrevlex": (Q, "degrevlex"),
    "q2-degrevlex": (TwoIndexField(), "degrevlex"),
}


def product_prunes_take_part_in_m_and_f(R, res) -> bool:
    """No walked pair (k, j) is one that criterion M or F would prune for a
    pair (l, j) the product criterion pruned: those pairs still prune others."""
    walked, coprime = [], []
    for line in res.trace.lines:
        words = line.split()
        if words[0] == "pair" and words[1] != words[2]:
            walked.append((int(words[1]), int(words[2])))
        elif words[-1] == "product-criterion":
            coprime.append((int(words[1]), int(words[2])))

    def z(i, j):
        return tuple(map(max, R.field_lead(res.basis[i]), R.field_lead(res.basis[j])))

    for l, j in coprime:
        for k, _j in (p for p in walked if p[1] == j):
            zl, zk = z(l, j), z(k, j)
            if l < k if zl == zk else all(map(le, zl, zk)):
                return False
    return True


@pytest.mark.parametrize("name", sorted(PAIR_SET_RINGS))
def test_pair_set_agrees_with_classical_buchberger(name):
    coeff, order = PAIR_SET_RINGS[name]
    R = make_poly_domain(coeff, ("x", "y", "z"), order)
    rng = random.Random(f"pair-set-{name}")
    for _ in range(6):
        gens = random_generators(rng, R, 2, 9, 3, 4)
        shown = [R.render(g) for g in gens]
        res = gb(R, gens)
        oracle = classical_buchberger_oracle(gens)
        assert all(not normal_form(R, g, oracle)[0] for g in res.basis), shown
        assert all(not normal_form(R, g, res.basis)[0] for g in oracle), shown
        assert verify_cofactors(R, res.rows, gens), shown
        assert product_prunes_take_part_in_m_and_f(R, res), shown
        basis = res.basis
        for candidate in (basis, basis[:-1], basis[1:], tuple(gens)):
            verdict = reference_is_groebner_basis(R, candidate)
            assert is_groebner_basis(R, candidate) is verdict, [R.render(g) for g in candidate]
        off = gb(R, gens, chain_criterion=False)
        assert res.trace.critical_pairs_reduced <= off.trace.critical_pairs_reduced, shown


class MntcrPairSet:
    """The pair set as it was built on mntcr polynomials: ``PairSet``'s reference.

    z(k, new) is the first mntcr of the pair at the first multiplier index,
    a polynomial; c alone reduces z when c's lead divides a power product of
    z, and two leads are coprime when they share no variable.  Over a field
    each z is one term at the lcm of the leads, so ``PairSet`` must prune and
    enqueue exactly as this does.
    """

    def __init__(self, dom, basis, chain):
        self.dom = dom
        self.basis = basis
        self.gm = isinstance(dom, PolyRing) and dom.coeff.is_field
        self.chain = chain and self.gm
        self.pending = deque()
        self.live = []
        self.leads = []

    @staticmethod
    def reduces_alone(z, g):
        g_pp = g.terms[0].pp
        return any(all(map(le, g_pp, pp)) for _, pp in z.terms)

    @staticmethod
    def coprime_leads(g1, g2):
        return not any(map(min, g1.terms[0].pp, g2.terms[0].pp))

    def add(self, new):
        if not self.gm:
            self.pending.extend((k, new, None) for k in range(new + 1))
            return []
        dom, basis, h, chain = self.dom, self.basis, self.basis[new], self.chain
        test, idx = self.reduces_alone, dom.multiplier_indices[0]

        def z(k):
            return dom.mntcrs(basis[k], idx, h, idx)[0]

        zs = [z(k) if chain and (k == new or self.live[k]) else None for k in range(new + 1)]
        live = [k for k in range(new) if zs[k] is not None]
        pruned, fresh = [], []
        for k in range(new):
            zk = zs[k]
            if chain and (zk is None or any(l < k if zs[l] == zk else test(zk, zs[l]) for l in live)):
                pruned.append((k, new, "chain-criterion"))
            elif self.coprime_leads(basis[k], h):
                pruned.append((k, new, "product-criterion"))
            else:
                fresh.append((k, new, zk))
        if chain:
            kept = deque()
            for i, j, zij in self.pending:
                if test(zij, h) and (zs[i] or z(i)) != zij != (zs[j] or z(j)):
                    pruned.append((i, j, "chain-criterion"))
                else:
                    kept.append((i, j, zij))
            self.pending = kept
            for k in live:
                self.live[k] = not test(self.leads[k], h)
            self.live.append(True)
            self.leads.append(zs[new])
        self.pending.extend(fresh)
        self.pending.append((new, new, zs[new]))
        return pruned


def replay_against_mntcr_pair_set(R, gens, chain) -> Counter:
    """Feed ``PairSet`` and the reference the adds and pops of gb's walk, in
    its order, and require the same pruned pairs and pending order after
    every add; return the prunes by reason."""
    records = gb(R, gens, chain_criterion=chain).trace.records
    basis: list = []
    pairs, reference = PairSet(R, basis, chain), MntcrPairSet(R, basis, chain)
    reasons: Counter = Counter()
    for kind, *fields in records:
        if kind in ("init", "add"):
            basis.append(fields[1])
            pruned = pairs.add(fields[0])
            assert pruned == reference.add(fields[0])
            assert pending_pairs(pairs) == pending_pairs(reference)
            reasons.update(reason for _i, _j, reason in pruned)
        elif kind == "pair":
            assert pairs.pending.popleft()[:2] == reference.pending.popleft()[:2] == tuple(fields)
    assert not pairs.pending and not reference.pending
    return reasons


@pytest.mark.parametrize("chain", [True, False], ids=["chain", "no-chain"])
@pytest.mark.parametrize("name", sorted(PAIR_SET_RINGS))
def test_pair_set_agrees_with_the_mntcr_pair_set(name, chain):
    coeff, order = PAIR_SET_RINGS[name]
    R = make_poly_domain(coeff, ("x", "y", "z"), order)
    rng = random.Random(f"mntcr-pair-set-{name}")
    reasons: Counter = Counter()
    for _ in range(8):
        reasons += replay_against_mntcr_pair_set(R, random_generators(rng, R, 2, 9, 3, 4), chain)
    assert reasons["product-criterion"]
    assert bool(reasons["chain-criterion"]) is chain


def test_pair_set_makes_no_mntcrs_call(monkeypatch):
    coeff, names, _texts, _digest, basis, _rows = GOLDEN["cyclic4"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in basis]
    calls = []
    monkeypatch.setattr(R, "mntcrs", lambda *args: calls.append(args))
    pairs, pruned = fed_pair_set(R, G)
    assert pruned and pairs.pending
    assert calls == []


@pytest.mark.parametrize("name", ["z24", "z360"])
def test_gb_completes_single_generators(name):
    # one generator: only its self-pairs at different indices (0, "ann") can
    # add elements, so a rule that drops them leaves a non-basis
    coeff, names, order, top, size = CHECKER_RINGS[name]
    R = make_poly_domain(coeff, tuple(names), order)
    rng = random.Random(f"single-{name}")
    grown = 0
    for _ in range(5):
        gens = random_generators(rng, R, top, size, 1, 1)
        assert_gb_output_is_certified_basis(R, gens)
        grown += len(gb(R, gens).basis) > 1
    assert grown


PINNED_NON_BASES = [
    # the leads pairwise share a variable, and each divides the lcm of the
    # other two: only the order of the done set keeps the chain criterion
    # from skipping every pair
    pytest.param(Q, "xyz", ("x*y - z", "y*z - x", "x*z - y"), id="q-chain-cycle"),
    # coprime leads, but over ring coefficients the pair does not join
    pytest.param(make_integer_quotient_domain(360), "xy", ("300*y^2", "171*x"), id="z360-coprime-leads"),
    # one element: only its self-pairs at different indices can fail
    pytest.param(make_integer_quotient_domain(24), "xy", ("4*x + y",), id="z24-self-pairs"),
]


@pytest.mark.parametrize("coeff, names, texts", PINNED_NON_BASES)
def test_checker_rejects_pinned_non_bases(coeff, names, texts):
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in texts]
    assert reference_is_groebner_basis(R, G) is False
    assert is_groebner_basis(R, G) is False


def test_checker_rejects_katsura3_without_last_element():
    coeff, names, _texts, _digest, basis, _rows = GOLDEN["katsura3"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in basis]
    assert is_groebner_basis(R, G)
    assert is_groebner_basis(R, G[:-1]) is False


def test_checker_skips_pairs_that_provably_join(monkeypatch):
    coeff, names, texts, _digest, _basis, _rows = GOLDEN["cyclic4"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = gb(R, [R.parse(t) for t in texts]).basis
    calls = []
    real = R.normal_form

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(R, "normal_form", counted)
    assert is_groebner_basis(R, G)
    n = len(G)
    formed = sum(len(R.mntcrs(G[i], 0, G[j], 0)) for j in range(n) for i in range(j + 1))
    # every pair has one mntcr; at least the n self-pairs need no reduction
    assert 0 < len(calls) <= 2 * (formed - n)
    # the walk's steps are never read, so its normal forms keep none
    assert calls == [None] * len(calls)


def test_walk_builds_each_elements_rows_once(monkeypatch):
    coeff, names, texts, _digest, _basis, _rows = GOLDEN["z24"]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    gens = [R.parse(t) for t in texts]
    listed, forms = [], []
    real_rows, real_form = R.reducer_rows, R.normal_form

    def rows_of(basis, start=0):
        listed.append((start, len(basis)))  # the positions listed: start to len - 1
        return real_rows(basis, start)

    monkeypatch.setattr(R, "reducer_rows", rows_of)
    monkeypatch.setattr(R, "normal_form", lambda *args: forms.append(args[1]) or real_form(*args))
    G = gb(R, gens).basis
    n = len(gens)
    # the given basis once, then each element as it joins, at its position
    assert len(G) > n
    assert listed == [(0, n)] + [(new, new + 1) for new in range(n, len(G))]
    assert len(forms) > len(G) and all(rows is forms[0] for rows in forms)
    listed.clear()
    forms.clear()
    assert is_groebner_basis(R, list(G))
    assert listed == [(0, len(G))]
    assert len(forms) > len(G) and all(rows is forms[0] for rows in forms)
    # a walk that appends lists the new element before it stops
    listed.clear()
    assert is_groebner_basis(R, list(G[:-1])) is False
    assert listed == [(0, len(G) - 1), (len(G) - 1, len(G))]


def test_member_ideal_converts_only_the_elements_its_steps_use(monkeypatch):
    R = make_poly_domain(make_field_domain(), ("x", "y", "z"), "degrevlex")
    assert isinstance(R, FractionFreePolyRing)
    basis = [R.parse("2/3*x^2 - 1/5*y"), R.parse("3/4*y^3 + 1"), R.parse("5/7*z^2 - x")]
    converted = []
    real = R._image
    monkeypatch.setattr(R, "_image", lambda g: converted.append(g) or real(g))
    # x*y^2*z: no lead divides a term, so no element is converted
    assert not member_ideal(R, R.parse("1/3*x*y^2*z + 1/2"), basis)
    assert converted == []
    # x^2*y goes down to y^2 through the first element alone; y^2 and z stay
    assert not member_ideal(R, R.parse("1/2*x^2*y + z"), basis)
    assert converted and all(g is basis[0] for g in converted)


def test_member_ideal_reads_the_basis_it_is_given():
    R = make_poly_domain(make_integer_quotient_domain(24), ("x", "y"), "degrevlex")
    basis = [R.parse("x^2")]
    probe = R.parse("6*y + 5*x^3")
    assert not member_ideal(R, probe, basis)
    # the same list object, changed between calls: no rows are kept for it
    basis.append(R.parse("2*y"))
    assert member_ideal(R, probe, basis)
    basis[1] = R.parse("y^2")
    assert not member_ideal(R, probe, basis)
    basis[0] = R.parse("5")  # a unit generates the whole ring
    assert member_ideal(R, probe, basis)


def record_formed_pairs(monkeypatch) -> list:
    """Record (g1, i1, g2, i2) for every critical pair the engine forms."""
    import redring.buchberger as engine

    real = engine.critical_pair
    formed = []

    def recorded(dom, z, g1, i1, g2, i2):
        formed.append((g1, i1, g2, i2))
        return real(dom, z, g1, i1, g2, i2)

    monkeypatch.setattr(engine, "critical_pair", recorded)
    return formed


@pytest.mark.parametrize(
    "name, subject",
    [
        pytest.param(name, subject, id=name + suffix)
        for subject, suffix in (("is_groebner_basis", ""), ("gb", "-gb"))
        for name in ("cyclic4", "z24")
    ],
)
def test_checker_forms_no_self_pair_at_one_index(name, subject, monkeypatch):
    coeff, names, _texts, _digest, basis, _rows = GOLDEN[name]
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in basis]
    formed = record_formed_pairs(monkeypatch)
    if subject == "gb":
        assert gb(R, G).basis == tuple(G)
    else:
        assert is_groebner_basis(R, G)
    assert formed
    # a self-pair at one multiplier index has equal sides: never formed
    assert not [f for f in formed if f[0] is f[2] and f[1] == f[3]]


@pytest.mark.parametrize(
    "coeff, names, texts, is_basis",
    [pytest.param(*GOLDEN[name][:2], GOLDEN[name][4], True, id=name) for name in sorted(GOLDEN)]
    + [pytest.param(*GOLDEN["katsura3"][:2], GOLDEN["katsura3"][4][:-1], False, id="katsura3-short")]
    + [pytest.param(*p.values, False, id=p.id) for p in PINNED_NON_BASES],
)
def test_checker_forms_the_pairs_of_completion_up_to_its_first_append(
    coeff, names, texts, is_basis, monkeypatch
):
    # the checker runs completion's walk and stops at the first element it
    # would append: on a basis it forms every critical pair gb forms, in the
    # same order, and elsewhere a nonempty proper prefix of them
    R = make_poly_domain(coeff, tuple(names), "degrevlex")
    G = [R.parse(t) for t in texts]
    formed = record_formed_pairs(monkeypatch)
    completed = gb(R, G).basis
    by_gb = formed[:]
    formed.clear()
    assert is_groebner_basis(R, G) is is_basis
    assert (completed == tuple(G)) is is_basis
    assert formed and formed == by_gb[: len(formed)]
    assert (len(formed) == len(by_gb)) is is_basis


def test_gb_applies_the_product_criterion_only_over_field_coefficients(monkeypatch):
    formed = record_formed_pairs(monkeypatch)
    R = make_poly_domain(Q, ("x", "y"), "degrevlex")
    gens = [R.parse("x^2 + y"), R.parse("y^3")]
    res = gb(R, gens)
    assert "prune 0 1 product-criterion" in res.trace.lines
    assert not [f for f in formed if f[0] is not f[2]]
    assert reference_is_groebner_basis(R, res.basis)
    # the same leads are coprime over Z/360Z, where the pair does not join
    formed.clear()
    R = make_poly_domain(make_integer_quotient_domain(360), ("x", "y"), "degrevlex")
    gens = [R.parse("300*y^2"), R.parse("171*x")]
    res = gb(R, gens)
    assert (gens[0], 0, gens[1], 0) in formed
    assert not [line for line in res.trace.lines if line.startswith("prune ")]
    assert len(res.basis) > 2
    assert reference_is_groebner_basis(R, res.basis)
    assert verify_cofactors(R, res.rows, gens)


def test_pair_criterion_hooks_only_over_field_coefficients():
    for dom in (Q, Z, make_poly_domain(Z, ("x", "y"), "degrevlex")):
        assert dom.field_lead is None
    R = make_poly_domain(make_integer_quotient_domain(24), ("x", "y"), "degrevlex")
    assert R.field_lead is None
    for coeff in (Q, TwoIndexField()):
        R = make_poly_domain(coeff, ("x", "y"), "degrevlex")
        assert R.field_lead(R.parse("x^2 + y")) == (2, 0)
        assert R.field_lead(R.parse("x*y + y^2 + 1")) == (1, 1)
        assert R.field_lead(R.parse("y^3")) == (0, 3)
