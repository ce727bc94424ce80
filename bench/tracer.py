"""Per-layer tracing of toystab, installed from outside the package.

The tracer replaces each listed function by a wrapper, in every loaded
``toystab`` module that holds it, so names bound by
``from .dynamics import measure_element`` are caught as well as
attribute lookups.  Methods are replaced on their class.  Nothing inside
the package changes: :meth:`Tracer.enable` swaps the wrappers in and
:meth:`Tracer.disable` puts every original back.

A *span* wrapper records (name, op, parent, start, end) for each call and
accumulates the call's self time: its duration minus the durations of
the spans it directly encloses.  A *count* wrapper only counts calls; it
is used for tiny functions called hundreds of times per op, where a span
would cost more than the call.  Spans stay in memory until
:meth:`Tracer.write_spans` dumps them once the run is over.

Which end-to-end metric a change in each layer should move, on which
workloads, and where no change is predicted, written down before any
optimisation:

    layer     moves                   on                      no change on
    algebra   ops_per_s, op_ms_p50    bvc-mc, mbtc-64         oracle share of xcheck
    dynamics  ops_per_s               bvc-mc, mbtc-64 (grid   -
                                      half), xcheck
    mbtc      op_ms_p50               mbtc-64 (line half),    xcheck
                                      bvc-exact, bvc-mc
    bvc       ops_per_s               bvc-exact               bvc-mc (every sampled
                                                              round is live)
    oracle    bounds what xcheck      xcheck                  all others
              can gain
    codes,    ops_per_s               xcheck, bvc-exact       bvc-mc, mbtc-64
    crypto,
    cli
"""

from __future__ import annotations

import json
import sys
import time
from array import array

CS = ("calls", "self_s")

# (metric prefix, attribute path in the prefix's module, kind, reported
# fields).  Kinds: "span" records a span; "count" counts calls only; the
# other kinds are spans that also classify each call for a ratio (see
# Tracer._classify).  With trace_overhead, the reported fields are the
# per_layer metrics of BENCHMARK.json.
TARGETS = (
    ("algebra.Group", "Group.__init__", "span", CS),
    ("algebra.violations", "Group.violations", "span", CS),
    ("algebra.member", "Group.member", "span", CS),
    ("algebra.solve_gf2", "solve_gf2", "span", CS),
    ("algebra.interleaved", "Element.interleaved", "count", ("calls",)),
    ("dynamics.measure_element", "measure_element", "measure",
     CS + ("random_frac", "zero_frac")),
    ("dynamics.conjugate", "Permutation.conjugate", "span", CS),
    ("dynamics.partial_trace", "partial_trace", "span", CS),
    ("dynamics.purify", "purify", "span", CS),
    ("dynamics.relate_purifications", "relate_purifications", "span", CS),
    ("mbtc.find_gflow", "find_gflow", "gflow", CS + ("repeat_frac",)),
    ("mbtc.verify_gflow", "verify_gflow", "span", ("self_s",)),
    ("mbtc.run_pattern", "run_pattern", "span", ("self_s",)),
    ("mbtc.graph_state", "graph_state", "span", ("self_s",)),
    ("mbtc.neighbors", "OpenGraph.neighbors", "count", ("calls",)),
    # the one private boundary: every public bvc entry point runs its
    # rounds through _run_round, and only there is a dead branch visible
    ("bvc._run_round", "_run_round", "round", CS + ("live_frac",)),
    ("bvc.run_verified", "run_verified", "span", ("self_s",)),
    ("bvc.exact_pfail", "exact_pfail", "span", ("self_s",)),
    ("bvc.server_view_distribution", "server_view_distribution", "span",
     ("self_s",)),
    ("bvc.honest_output_support", "honest_output_support", "span",
     ("self_s",)),
    ("oracle.from_group", "Distribution.from_group", "span", CS),
    ("oracle.measure_observable", "measure_observable", "span", CS),
    ("oracle.permuted", "Distribution.permuted", "span", CS),
    ("oracle.marginal", "Distribution.marginal", "span", CS),
    ("codes.correct", "Code.correct", "span", CS),
    ("crypto.bc_cheat_perfect", "bc_cheat_perfect", "span", CS),
    ("cli.main", "main", "span", CS),
)

UNITS = {"calls": "count", "self_s": "s", "random_frac": "ratio",
         "zero_frac": "ratio", "repeat_frac": "ratio", "live_frac": "ratio"}

def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{name}.{field}", UNITS[field])
           for name, _, _, fields in TARGETS for field in fields]
    out.append(("trace_overhead", "ratio"))
    return out


def _resolve(modules: dict, name: str, path: str):
    """(owner, attribute, raw attribute value) of a target."""
    owner = modules["toystab." + name.split(".", 1)[0]]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """Wraps the TARGETS of an imported toystab; one instance per run."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        k = len(self.names)
        self.calls = [0] * k
        self.self_ns = [0] * k
        self.hits = [0] * k     # calls classified as useful, per kind
        self.zeros = [0] * k    # measure_element calls of probability 0
        self.seen_graphs: set = set()
        self.op = -1
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []       # open span ids
        self._child_ns: list[int] = []    # enclosed duration per open span
        self._patches = self._build_patches()

    # -- installation ------------------------------------------------

    def _build_patches(self) -> list:
        """(owner, attribute, original, wrapper) for every binding."""
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == "toystab" or key.startswith("toystab.")}
        patches = []
        for nid, (name, path, kind, _) in enumerate(TARGETS):
            owner, attr, raw = _resolve(modules, name, path)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, nid, kind))
            else:
                wrapped = self._wrap(raw, nid, kind)
            if isinstance(owner, type):
                patches.append((owner, attr, raw, wrapped))
                continue
            patches += [(mod, attr, raw, wrapped) for mod in modules.values()
                        if mod.__dict__.get(attr) is raw]
        return patches

    def enable(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)

    def _wrap(self, fn, nid: int, kind: str):
        calls = self.calls
        if kind == "count":
            def counted(*args, **kwargs):
                calls[nid] += 1
                return fn(*args, **kwargs)
            return counted

        classify = None if kind == "span" else self._classify(nid, kind)
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        stack, child_ns = self._stack, self._child_ns
        s_name, s_op, s_parent = self.span_name, self.span_op, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            calls[nid] += 1
            sid = len(s_name)
            s_name.append(nid)
            s_op.append(self.op)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0)
            stack.append(sid)
            child_ns.append(0)
            start = clock()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                s_end[sid] = end
                stack.pop()
                duration = end - start
                self_ns[nid] += duration - child_ns.pop()
                if child_ns:
                    child_ns[-1] += duration
            if classify is not None:
                classify(args, result)
            return result
        return traced

    def _classify(self, nid: int, kind: str):
        hits, zeros, seen = self.hits, self.zeros, self.seen_graphs
        if kind == "measure":
            def measured(args, result):
                p = result[2]
                if p == 0:
                    zeros[nid] += 1
                elif p != 1:
                    hits[nid] += 1
            return measured
        if kind == "gflow":
            def gflow(args, result):
                graph = args[0]
                if graph in seen:
                    hits[nid] += 1
                else:
                    seen.add(graph)
            return gflow
        if kind == "round":
            def round_(args, result):
                if result.probability != 0:
                    hits[nid] += 1
            return round_
        raise ValueError(f"unknown trace kind {kind!r}")

    # -- results -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values; a ratio over zero calls reads 0."""
        out = {}
        for nid, name in enumerate(self.names):
            calls = self.calls[nid]
            # hits are random outcomes, repeated graphs or live rounds,
            # whichever the target's kind classifies
            hit_frac = self.hits[nid] / calls if calls else 0.0
            values = {"calls": calls, "self_s": self.self_ns[nid] / 1e9,
                      "random_frac": hit_frac, "repeat_frac": hit_frac,
                      "live_frac": hit_frac,
                      "zero_frac": self.zeros[nid] / calls if calls else 0.0}
            for field in TARGETS[nid][3]:
                out[f"{name}.{field}"] = values[field]
        return out

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "op", "parent",
                                            "start_ns", "end_ns"]}) + "\n")
            for row in zip(self.span_name, self.span_op, self.span_parent,
                           self.span_start, self.span_end):
                fh.write("[%d,%d,%d,%d,%d]\n" % row)
        return len(self.span_name)
