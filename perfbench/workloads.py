"""Seeded problem sets for the completion benchmark.

Each workload is a list of problems in the line-oriented problem-file syntax
(``ring`` / ``vars`` / ``gens:`` / ``probes:``), plus the ring headers its
axioms phase checks.  The library sees only these texts.

How a seed enters.  The systems and probes come from a fixed catalogue
(``SHAPE_SEED``); ``--seed`` then applies transformations that leave the
work of every library call unchanged, and shuffles the order in which the
systems run:

* over Q, a seeded sign per variable (x -> -x) and per generator and probe:
  a ring automorphism that keeps the term order and every coefficient's
  size, so completion does the same pairs, steps and arithmetic;
* over Z, a seeded sign per generator and probe, which leaves pairs, steps
  and additions unchanged;
* over Z/nZ no sign: negation changes the residues the order compares.

Fresh coefficients per seed would change the work itself (pairs, steps,
coefficient sizes, zero-divisor patterns) from seed to seed; with these
transformations the seed-to-seed spread measures the machine, not the
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SHAPE_SEED = 20160214

WORKLOADS = ("q-poly", "ring-poly")

KATSURA3 = (
    ((1, (1, 0, 0, 0)), (2, (0, 1, 0, 0)), (2, (0, 0, 1, 0)), (2, (0, 0, 0, 1)), (-1, (0, 0, 0, 0))),
    ((1, (2, 0, 0, 0)), (2, (0, 2, 0, 0)), (2, (0, 0, 2, 0)), (2, (0, 0, 0, 2)), (-1, (1, 0, 0, 0))),
    ((2, (1, 1, 0, 0)), (2, (0, 1, 1, 0)), (2, (0, 0, 1, 1)), (-1, (0, 1, 0, 0))),
    ((2, (1, 0, 1, 0)), (1, (0, 2, 0, 0)), (2, (0, 1, 0, 1)), (-1, (0, 0, 1, 0))),
)
CYCLIC4 = (
    ((1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)), (1, (0, 0, 1, 0)), (1, (0, 0, 0, 1))),
    ((1, (1, 1, 0, 0)), (1, (0, 1, 1, 0)), (1, (0, 0, 1, 1)), (1, (1, 0, 0, 1))),
    ((1, (1, 1, 1, 0)), (1, (0, 1, 1, 1)), (1, (1, 0, 1, 1)), (1, (1, 1, 0, 1))),
    ((1, (1, 1, 1, 1)), (-1, (0, 0, 0, 0))),
)

# Sizing: each workload has at least 100 systems, so at least 10 per-system
# latencies lie beyond the 90th percentile, and one pass takes a few
# seconds, so a 60 s run makes about fifteen passes to take the best of.
Q_RANDOM_SYSTEMS = 110
Q_PROBES = 4  # per system: half ideal members, half random polynomials
RING_MODULI = ((24, 40), (72, 32), (360, 20))  # (n, systems) for Z/nZ[x,y]
RING_Z_SYSTEMS = 20  # small Z[x,y,z] systems
RING_PROBES = 3  # sample_ideal_element members per system
AXIOM_RINGS = {
    "q-poly": ("ring q", "ring q\nvars x,y,z"),
    # the scalar rings run the exhaustive check, which is O(n^3): n stays small
    "ring-poly": ("ring zmod 24\nvars x,y", "ring zmod 360\nvars x,y", "ring z\nvars x,y,z",
                  "ring z", "ring zmod 36"),
}


@dataclass(frozen=True)
class Problem:
    """One system: its problem-file text and the oracle the gate uses for it.

    ``oracle`` is ``classical`` (Q polynomials: classical Buchberger and
    division) or ``zero`` (ring polynomials: members and generators
    normal-form to 0).
    """

    name: str
    text: str
    oracle: str


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    axiom_texts: tuple


@dataclass(frozen=True)
class _Base:
    """A catalogue system; polynomials are tuples of (coefficient, exponents).

    ``signs`` is ``vars`` (variable and element signs), ``elements``
    (element signs only) or ``none``.
    """

    name: str
    header: str
    names: str
    gens: tuple
    probes: tuple
    oracle: str
    signs: str


def generate(name: str, seed: int) -> Workload:
    """The workload's problems for this seed; the same seed gives the same texts."""
    if name not in _CATALOGUES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    problems = [_signed(base, rng) for base in _CATALOGUES[name]()]
    rng.shuffle(problems)
    return Workload(name, tuple(problems), AXIOM_RINGS[name])


def _signed(base: _Base, rng: random.Random) -> Problem:
    var_signs = [rng.choice((1, -1)) if base.signs == "vars" else 1 for _ in base.names]

    def text(poly) -> str:
        sign = rng.choice((1, -1)) if base.signs != "none" else 1
        terms = []
        for c, pp in poly:
            term_sign = sign
            for s, e in zip(var_signs, pp):
                term_sign *= s**e
            terms.append((c * term_sign, pp))
        return _render(terms, base.names)

    lines = [base.header, "gens:", *map(text, base.gens), "probes:", *map(text, base.probes)]
    return Problem(base.name, "\n".join(lines) + "\n", base.oracle)


def _render(poly, names: str) -> str:
    terms = []
    for c, pp in poly:
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, pp) if e)
        mag = abs(c)
        term = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        terms.append(("-" if c < 0 else "+", term))
    if not terms:
        return "0"
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, term in terms[1:]:
        text += f" {sign} {term}"
    return text


def _random_support(rng, nvars: int, max_terms: int, max_deg: int, max_exp: int = 2) -> list:
    """Distinct power products, exponents <= max_exp, total degree <= max_deg."""
    out = []
    for _ in range(rng.randint(1, max_terms)):
        while True:
            pp = tuple(rng.randint(0, max_exp) for _ in range(nvars))
            if sum(pp) <= max_deg:
                break
        if pp not in out:
            out.append(pp)
    return out


def _members(header: str, names: str, gens: tuple, rng: random.Random, count: int) -> list:
    """Ideal members from the library's own sampling helper, as coefficient tuples."""
    from redring.cli import parse_problem_text
    from redring.oracles import sample_ideal_element

    pf = parse_problem_text("\n".join([header, "gens:", *(_render(g, names) for g in gens)]))
    dom = pf.build_domain()
    elems = [dom.parse(t) for _, t in pf.generator_texts]
    out = []
    for _ in range(count):
        elem, _ = sample_ideal_element(dom, elems, rng.randrange(2**31), 2)
        out.append(tuple((m.coeff, m.pp) for m in elem.terms))
    return out


def _q_poly() -> list:
    rng = random.Random(SHAPE_SEED)
    systems = [("katsura3", "abcd", KATSURA3), ("cyclic4", "abcd", CYCLIC4)]
    for k in range(Q_RANDOM_SYSTEMS):
        gens = tuple(
            tuple((rng.randint(-4, 4) or 1, pp) for pp in _random_support(rng, 3, 3, 2))
            for _ in range(rng.randint(3, 4))
        )
        systems.append((f"q{k:03d}", "xyz", gens))
    out = []
    for name, names, gens in systems:
        header = f"ring q\nvars {','.join(names)}\norder degrevlex"
        probes = _members(header, names, gens, rng, Q_PROBES // 2)
        for _ in range(Q_PROBES - Q_PROBES // 2):
            probes.append(tuple(
                (Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)), pp)
                for pp in _random_support(rng, len(names), 4, 3, 3)
            ))
        out.append(_Base(name, header, names, gens, tuple(probes), "classical", "vars"))
    return out


def _ring_poly() -> list:
    rng = random.Random(SHAPE_SEED + 1)
    out = []
    for n, count in RING_MODULI:
        header = f"ring zmod {n}\nvars x,y\norder degrevlex"
        for k in range(count):
            # the acceptance suite's Z/24Z shape: two generators, 1-2 terms
            gens = tuple(
                tuple((rng.randint(1, n - 1), pp) for pp in _random_support(rng, 2, 2, 4))
                for _ in range(2)
            )
            probes = _members(header, "xy", gens, rng, RING_PROBES)
            out.append(_Base(f"zmod{n}-{k:02d}", header, "xy", gens, tuple(probes), "zero", "none"))
    header = "ring z\nvars x,y,z\norder degrevlex"
    for k in range(RING_Z_SYSTEMS):
        gens = tuple(
            tuple((rng.randint(-6, 6) or 1, pp) for pp in _random_support(rng, 3, 2, 2))
            for _ in range(rng.randint(2, 3))
        )
        probes = _members(header, "xyz", gens, rng, RING_PROBES)
        out.append(_Base(f"zpoly-{k:02d}", header, "xyz", gens, tuple(probes), "zero", "elements"))
    return out


_CATALOGUES = {"q-poly": _q_poly, "ring-poly": _ring_poly}
