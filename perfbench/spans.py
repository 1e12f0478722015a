"""Span tracing around the library's layer boundaries, from outside the library.

The traced run replaces the names the library looks up at call time with
timing wrappers: module functions (``buchberger.normal_form``,
``core.reduce_step``, ``poly.pp_divides``, the ``oracles`` and ``cli``
entry points) and per-instance domain methods (``find_multiplier``,
``mntcrs``, ``add``/``neg``/``mul``/``sub``, ``poly``, ``render``).  Each
span records its name, start and end (``perf_counter_ns``), its parent span
and its request: the system whose library calls it serves (-1 for set-up
and for the gate's oracle calls).  Spans are kept in flat arrays and
written out when the run ends; self times are derived from them
afterwards.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter_ns

ARITH = ("add", "neg", "mul", "sub")


class Tracer:
    """Spans in memory plus plain counters.

    ``active`` gates the nested engine spans and counters; ``enabled`` gates
    request spans and oracle spans.  Oracle spans are leaves: nothing nested
    in an oracle call is recorded, because oracle time sits outside every
    end-to-end metric.
    """

    def __init__(self) -> None:
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict = defaultdict(int)
        self.enabled = False
        self.active = False
        self._stack = [-1]
        self._request = -1

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name: str, fn):
        """A nested span around fn, recorded while the tracer is active."""
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._span(nid, fn, args, kwargs)

        return traced

    def wrap_leaf(self, name: str, fn):
        """A span that suppresses everything nested inside it."""
        nid = self._nid(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            was_active, self.active = self.active, False
            try:
                return self._span(nid, fn, args, kwargs)
            finally:
                self.active = was_active

        return traced

    def wrap_count(self, key: str, fn):
        """Count calls only: these are too frequent and too short to span."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, request: int, name: str, fn, *args, **kwargs):
        """Run fn as a root span of the given request; nested spans inherit it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._request = request
        try:
            return self._span(self._nid(name), fn, args, kwargs)
        finally:
            self._request = -1

    # analysis

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict:
        """Per span name: count, total duration and total self time (ns).

        Also per (name, parent name): count and total duration, for metrics
        that depend on the caller, such as arithmetic called from ``gb``.
        """
        own = self.self_times()
        by_name: dict = defaultdict(lambda: [0, 0, 0])
        by_edge: dict = defaultdict(lambda: [0, 0])
        names = self.names
        for idx, nid in enumerate(self.name_id):
            dur = self.end[idx] - self.start[idx]
            row = by_name[names[nid]]
            row[0] += 1
            row[1] += dur
            row[2] += own[idx]
            parent = self.parent[idx]
            edge = by_edge[(names[nid], names[self.name_id[parent]] if parent >= 0 else None)]
            edge[0] += 1
            edge[1] += dur
        return {"by_name": dict(by_name), "by_edge": dict(by_edge), "own": own}

    def subtree_check(self, root: str, own: array) -> tuple:
        """(sum of root span durations, sum of self times in their subtrees, min self time).

        With correctly nested spans the first two are equal to the
        nanosecond and no self time is negative.
        """
        root_id = self._ids.get(root)
        in_tree = array("b", bytes(len(self.start)))
        total = 0
        covered = 0
        lowest = 0
        for idx, nid in enumerate(self.name_id):
            parent = self.parent[idx]
            if nid == root_id and parent < 0:
                in_tree[idx] = 1
                total += self.end[idx] - self.start[idx]
            elif parent >= 0 and in_tree[parent]:
                in_tree[idx] = 1
            else:
                continue
            covered += own[idx]
            lowest = min(lowest, own[idx])
        return total, covered, lowest

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: id, name, parent, request, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tparent\trequest\tstart_ns\tend_ns\n")
            names = self.names
            for idx, nid in enumerate(self.name_id):
                out.write(
                    f"{idx}\t{names[nid]}\t{self.parent[idx]}\t{self.request[idx]}"
                    f"\t{self.start[idx]}\t{self.end[idx]}\n"
                )


def instrument_modules(tracer: Tracer) -> list:
    """Wrap the module-level names; returns (module, attribute, original) to undo."""
    from redring import buchberger, cli, core, oracles, poly

    undo = []

    def swap(module, attr, wrapper):
        undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    swap(buchberger, "normal_form", tracer.wrap("normal_form", buchberger.normal_form))
    step = tracer.wrap("reduce_step", core.reduce_step)

    def reduce_step(*args, **kwargs):
        out = step(*args, **kwargs)
        if out is not None and tracer.active:
            tracer.counts["core.reduce_steps"] += 1
        return out

    swap(core, "reduce_step", reduce_step)
    swap(poly, "pp_divides", tracer.wrap_count("poly.pp_divides", poly.pp_divides))
    for attr in ("classical_buchberger_oracle", "classical_normal_form",
                 "gcd_membership_oracle", "exhaustive_ideal_oracle", "sample_ideal_element"):
        swap(oracles, attr, tracer.wrap_leaf(f"oracles.{attr}", getattr(oracles, attr)))
    swap(cli, "parse_problem_text", tracer.wrap("cli.parse_problem_text", cli.parse_problem_text))
    return undo


def restore(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


def instrument_domain(tracer: Tracer, dom, seen: set) -> None:
    """Wrap one domain's methods as instance attributes (once per instance)."""
    if id(dom) in seen:
        return
    seen.add(id(dom))
    coeff = getattr(dom, "coeff", None)
    if coeff is None:
        for attr in ARITH:
            setattr(dom, attr, tracer.wrap_count("scalars.arith", getattr(dom, attr)))
        for attr in ("find_multiplier", "mntcrs", "render"):
            setattr(dom, attr, tracer.wrap(f"scalars.{attr}", getattr(dom, attr)))
        return
    instrument_domain(tracer, coeff, seen)
    for attr in ARITH + ("mntcrs", "render"):
        setattr(dom, attr, tracer.wrap(f"poly.{attr}", getattr(dom, attr)))
    dom.poly = tracer.wrap("poly.normalize", dom.poly)
    plain = tracer.wrap("poly.find_multiplier", dom.find_multiplier)
    ann = tracer.wrap("poly.find_multiplier_ann", dom.find_multiplier)

    def find_multiplier(a, c, index):
        return (ann if index == "ann" else plain)(a, c, index)

    dom.find_multiplier = find_multiplier
