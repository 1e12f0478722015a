"""The benchmark's own tests: metric names and units, the gate, and seeding.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use a few problems per workload so that each finishes in seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


CHEAP = {"q-poly": "q0", "ring-poly": "zmod24-"}


def by_name(workload: Workload) -> list:
    return sorted(workload.problems, key=lambda p: p.name)


def tiny(name: str, seed: int = 1) -> Workload:
    """Three small problems of the workload and one cheap axiom domain."""
    cheap = [p for p in by_name(generate(name, seed)) if p.name.startswith(CHEAP[name])]
    return Workload(name, tuple(cheap[:3]), ("ring zmod 6",))


def units(spec_key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(name, tmp_path):
    line = run.result_line(run.measure(tiny(name), seconds=1, setup_reps=2))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())

    spans = tmp_path / "spans.tsv.gz"
    traced = run.measure_traced(tiny(name), str(spans))
    line = run.result_line(traced)
    assert line["correct"], traced["failures"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units("per_layer")
    assert traced["details"]["gb_span_ns"] == traced["details"]["gb_self_ns"] > 0
    assert spans.stat().st_size > 0


def test_truncated_basis_is_counted_as_a_failure():
    full = generate("q-poly", 1)
    katsura = Workload("q-poly", tuple(p for p in full.problems if p.name == "katsura3"), ())
    loaded, axiom_doms = run.setup(katsura)
    first = run.run_pass(loaded, axiom_doms)
    assert run.check_pass(loaded, first) == []
    second = run.run_pass(loaded, axiom_doms)
    assert run.check_pass(loaded, second, first) == []

    whole = first.results[0]
    truncated = whole._replace(basis=whole.basis[:1])
    first.results[0] = truncated
    assert run.check_pass(loaded, first), "oracle gate missed a truncated basis"
    second.results[0] = truncated
    first.results[0] = whole
    assert run.check_pass(loaded, second, first), "replay check missed a truncated basis"


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(name):
    one, again, two = generate(name, 1), generate(name, 1), generate(name, 2)
    assert [p.text for p in one.problems] == [p.text for p in again.problems]
    assert [p.text for p in one.problems] != [p.text for p in two.problems]
    assert [p.name for p in by_name(one)] == [p.name for p in by_name(two)]
    names = [
        set(run.measure(tiny(name, seed), seconds=1, setup_reps=1)["metrics"]) for seed in (1, 2)
    ]
    assert names[0] == names[1] == set(units("end_to_end"))


def test_q_poly_seeds_do_the_same_completion_work():
    """Over Q the seeded sign changes are an automorphism: the same pairs and steps."""
    from redring.buchberger import gb

    counts = []
    for seed in (1, 2):
        loaded, _ = run.setup(Workload("q-poly", tuple(by_name(generate("q-poly", seed))[:6]), ()))
        counts.append([
            (t.pairs_processed, t.critical_pairs_reduced, t.additions, len(t.lines))
            for t in (gb(item.dom, item.gens).trace for item in loaded)
        ])
    assert counts[0] == counts[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
