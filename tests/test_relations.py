import random

import pytest

from redring.relations import (
    FiniteRelation,
    connectible_below,
    equivalent,
    find_cycle,
    generalized_newman_holds,
    is_church_rosser,
    is_locally_confluent,
    reachable,
)


def rel(elements, steps):
    return FiniteRelation.make(elements, steps)


def closure_oracle(elements, steps):
    """Reflexive-transitive closure by boolean matrix iteration."""
    idx = {e: k for k, e in enumerate(elements)}
    n = len(elements)
    mat = [[i == j for j in range(n)] for i in range(n)]
    for s, d in steps:
        mat[idx[s]][idx[d]] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not mat[i][j] and any(mat[i][k] and mat[k][j] for k in range(n)):
                    mat[i][j] = True
                    changed = True
    return {
        e: {f for f in elements if mat[idx[e]][idx[f]]} for e in elements
    }


def random_relation(rng, max_elems=6):
    n = rng.randint(1, max_elems)
    elements = list(range(n))
    steps = set()
    for a in elements:
        for b in elements:
            if rng.random() < 0.25:
                steps.add((a, b))
    return rel(elements, steps)


def test_invariants_reject_bad_input():
    with pytest.raises(ValueError):
        rel(["a", "a"], [])
    with pytest.raises(ValueError):
        rel(["a"], [("a", "b")])


def test_reachable_trivial_cases():
    assert reachable(rel(["a"], []), "a") == {"a"}
    chain = rel(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert reachable(chain, "a") == {"a", "b", "c"}


def test_reachable_fixpoint_matches_closure_oracle():
    r = rel(["a", "b", "c"], [("a", "b"), ("a", "c"), ("c", "a")])
    assert reachable(r, "b") == {"b"}
    oracle = closure_oracle(r.elements, r.steps)
    for e in r.elements:
        assert reachable(r, e) == oracle[e]


def test_reachable_matches_oracle_on_random_relations():
    rng = random.Random(7)
    for _ in range(60):
        r = random_relation(rng)
        oracle = closure_oracle(r.elements, r.steps)
        for e in r.elements:
            assert reachable(r, e) == oracle[e]


def test_reachable_unknown_element_errors():
    with pytest.raises(ValueError):
        reachable(rel(["a"], []), "zz")


def test_reachable_is_monotone_under_added_steps():
    rng = random.Random(11)
    for _ in range(40):
        r = random_relation(rng)
        extra = (rng.choice(r.elements), rng.choice(r.elements))
        bigger = rel(r.elements, set(r.steps) | {extra})
        for e in r.elements:
            assert reachable(r, e) <= reachable(bigger, e)


def test_equivalent_basic():
    assert equivalent(rel(["a"], []), "a", "a")
    assert equivalent(rel(["a", "b"], [("a", "b")]), "b", "a")
    split = rel(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert not equivalent(split, "a", "c")


def test_equivalent_is_an_equivalence():
    rng = random.Random(3)
    for _ in range(30):
        r = random_relation(rng)
        es = r.elements
        for a in es:
            assert equivalent(r, a, a)
        for a in es:
            for b in es:
                assert equivalent(r, a, b) == equivalent(r, b, a)
        for a in es:
            for b in es:
                for c in es:
                    if equivalent(r, a, b) and equivalent(r, b, c):
                        assert equivalent(r, a, c)


def test_church_rosser_examples():
    assert is_church_rosser(rel(["a"], []))
    fork = rel(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert not is_church_rosser(fork)
    diamond = rel(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    assert is_church_rosser(diamond)


def test_local_confluence_examples():
    assert is_locally_confluent(rel([], []))
    assert not is_locally_confluent(rel(["a", "b", "c"], [("a", "b"), ("a", "c")]))
    diamond = rel(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    assert is_locally_confluent(diamond)


def test_church_rosser_implies_local_confluence():
    rng = random.Random(19)
    for _ in range(200):
        r = random_relation(rng)
        if is_church_rosser(r):
            assert is_locally_confluent(r)


def make_rank_order(elements, rng):
    ranks = {e: i for i, e in enumerate(rng.sample(list(elements), len(elements)))}
    return ranks, (lambda a, b: ranks[a] < ranks[b])


def test_connectible_below():
    ranks = {"a": 1, "h": 0, "b": 2, "z": 3, "w": 4}
    less = lambda x, y: ranks[x] < ranks[y]
    r = rel(["a", "h", "b", "z", "w"], [("a", "h"), ("b", "h")])
    assert connectible_below(r, less, "a", "a", "z")
    assert connectible_below(r, less, "a", "b", "z")
    # the only path runs through w, which is not below z
    r2 = rel(["a", "b", "z", "w"], [("w", "a"), ("w", "b")])
    assert not connectible_below(r2, less, "a", "b", "z")
    # endpoints must themselves lie below z
    assert not connectible_below(r, less, "w", "w", "z")


def test_generalized_newman_examples():
    assert generalized_newman_holds(rel([], []), lambda a, b: False)
    fork = rel(["a", "b", "c"], [("a", "b"), ("a", "c")])
    ranks = {"a": 2, "b": 0, "c": 1}
    assert not generalized_newman_holds(fork, lambda x, y: ranks[x] < ranks[y])
    diamond = rel(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )
    dranks = {"a": 3, "b": 1, "c": 2, "d": 0}
    assert generalized_newman_holds(diamond, lambda x, y: dranks[x] < dranks[y])


def test_generalized_newman_rejects_cyclic_order():
    r = rel(["a", "b"], [])
    with pytest.raises(ValueError):
        generalized_newman_holds(r, lambda x, y: True)


def compatible_random_relation(rng, max_elems=8):
    """Steps always descend in a random linear rank order."""
    n = rng.randint(2, max_elems)
    elements = list(range(n))
    ranks, less = make_rank_order(elements, rng)
    steps = set()
    for a in elements:
        for b in elements:
            if ranks[b] < ranks[a] and rng.random() < 0.3:
                steps.add((a, b))
    return rel(elements, steps), less


def test_generalized_newman_implies_church_rosser():
    rng = random.Random(42)
    holds = 0
    for _ in range(300):
        r, less = compatible_random_relation(rng)
        if generalized_newman_holds(r, less):
            holds += 1
            assert is_church_rosser(r)
    assert holds > 0  # the property is not vacuous for this seed


def test_searches_match_brute_force_on_random_relations():
    rng = random.Random(29)
    for _ in range(80):
        base = random_relation(rng, max_elems=7)
        # a shuffled carrier, so that carrier order differs from value order
        r = rel(rng.sample(base.elements, len(base.elements)), base.steps)
        es = r.elements
        symmetric = set(r.steps) | {(d, s) for s, d in r.steps}
        components = closure_oracle(es, symmetric)
        for a in es:
            want = [e for e in es if (a, e) in r.steps]
            assert r.successors(a) == want
            for b in es:
                assert equivalent(r, a, b) == (b in components[a])
        ranks, less = make_rank_order(es, rng)
        for z in es:
            below = [e for e in es if less(e, z)]
            kept = {(s, d) for s, d in symmetric if s in below and d in below}
            inside = closure_oracle(below, kept)
            for a in es:
                for b in es:
                    want = a in inside and b in inside[a]
                    assert connectible_below(r, less, a, b, z) == want, (r, ranks, a, b, z)


def test_find_cycle_matches_brute_force():
    rng = random.Random(31)
    found = 0
    for _ in range(100):
        r = random_relation(rng)
        reach = closure_oracle(r.elements, r.steps)
        # a is below b when b steps to a, so cycles of less are cycles of steps
        start = find_cycle(r.elements, lambda a, b: (b, a) in r.steps)
        on_cycle = {s for s, d in r.steps if s in reach[d]}
        assert (start is None) == (not on_cycle)
        if start is not None:
            found += 1
            assert on_cycle & reach[start]
    assert 0 < found < 100


def test_find_cycle_survives_long_descending_chains():
    # 1200 elements, each below the one before: a recursive search overflows
    chain = FiniteRelation.make(range(1199, -1, -1), [])
    assert generalized_newman_holds(chain, lambda a, b: a < b)

    def closed(a, b):  # the same chain, closed into a cycle by 1199 < 0
        return a < b or (a, b) == (1199, 0)

    assert find_cycle(range(1199, -1, -1), closed) == 1199
