"""Measurement-based computing on graph states with gflow corrections.

Measurements are restricted to the equator family {X, Y, -X, -Y},
indexed by a quarter-turn angle in Z_4 (0: X, 1: Y, 2: -X, 3: -Y).
Outcome corrections are folded into later measurement angles (the
default) or applied physically after every outcome (a debug mode); the
two must agree branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import Element, Group, echelon
from .dynamics import Permutation, measure_element, partial_trace

QUARTER_SYMBOL = {0: ("X", False), 1: ("Y", False), 2: ("X", True), 3: ("Y", True)}


def angle_element(n: int, site: int, quarter: int) -> Element:
    name, neg = QUARTER_SYMBOL[quarter % 4]
    return Element.single(n, site, name, neg)


def adapt_quarter(q: int, sx: int, sz: int) -> int:
    """The quarter whose element is that of ``q`` conjugated by pending X
    (``sx``) and Z (``sz``) flips: X negates Y, Z negates X and Y."""
    if sx:
        q = (-q) % 4
    if sz:
        q ^= 2
    return q


# --------------------------------------------------------------------------
# open graphs and gflow
# --------------------------------------------------------------------------

_NO_NEIGHBORS = frozenset()


@dataclass(frozen=True)
class OpenGraph:
    nodes: tuple
    edges: tuple
    inputs: tuple = ()
    outputs: tuple = ()
    # vertex -> frozenset of its neighbors, derived from the edges
    adjacency: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set(self.nodes)
        if len(seen) != len(self.nodes):
            raise ValueError("duplicate nodes")
        adjacency = {v: set() for v in self.nodes}
        for u, v in self.edges:
            if u == v or u not in seen or v not in seen:
                raise ValueError(f"bad edge ({u}, {v})")
            if v in adjacency[u]:
                raise ValueError(f"edge ({u}, {v}) is listed twice")
            adjacency[u].add(v)
            adjacency[v].add(u)
        for v in self.inputs + self.outputs:
            if v not in seen:
                raise ValueError(f"unknown terminal {v}")
        for name, terminals in (("input", self.inputs),
                                ("output", self.outputs)):
            if len(set(terminals)) != len(terminals):
                raise ValueError(f"an {name} is listed twice")
        object.__setattr__(self, "adjacency",
                           {v: frozenset(ns) for v, ns in adjacency.items()})

    @classmethod
    def line(cls, n: int) -> "OpenGraph":
        nodes = tuple(range(n))
        edges = tuple((i, i + 1) for i in range(n - 1))
        return cls(nodes, edges, inputs=(0,), outputs=(n - 1,))

    def neighbors(self, v) -> frozenset:
        return self.adjacency.get(v, _NO_NEIGHBORS)

    def odd_neighborhood(self, vs: Iterable) -> set:
        out = set()
        for v in vs:
            out ^= self.adjacency.get(v, _NO_NEIGHBORS)
        return out

    def induced(self, keep: Iterable) -> "OpenGraph":
        keep = set(keep)
        return OpenGraph(
            tuple(v for v in self.nodes if v in keep),
            tuple(e for e in self.edges if e[0] in keep and e[1] in keep),
            tuple(v for v in self.inputs if v in keep),
            tuple(v for v in self.outputs if v in keep))


def verify_gflow(graph: OpenGraph, g: Mapping, layer: Mapping) -> None:
    """Raise unless (g, layer) is a valid correction structure."""
    outputs = set(graph.outputs)
    inputs = set(graph.inputs)
    for u in graph.nodes:
        if u in outputs:
            continue
        if u not in g:
            raise ValueError(f"no correction set for {u}")
        K = set(g[u])
        if K & inputs:
            raise ValueError(f"correction set of {u} touches an input")
        if u in K:
            raise ValueError(f"{u} corrects itself")
        odd = graph.odd_neighborhood(K)
        if u not in odd:
            raise ValueError(f"{u} is not oddly covered by its own set")
        for w in K:
            if layer[w] >= layer[u]:
                raise ValueError(f"correction {w} of {u} is not measured later")
        for w in odd:
            if w != u and layer[w] >= layer[u]:
                raise ValueError(f"odd neighborhood of {u} clashes at {w}")


def find_gflow(graph: OpenGraph, *, best_effort: bool = False):
    """Maximally delayed gflow by layer peeling, one GF(2) elimination
    per layer.

    Each layer assigns every unprocessed vertex u for which some set K of
    processed non-inputs has u as the only unprocessed vertex in its odd
    neighborhood.  The layer's matrix (a row per unprocessed vertex w:
    the candidates adjacent to w) is brought to reduced echelon form
    once, tagging each row with the mask of input rows it combines.  The
    right-hand side of u is the unit vector at u, so on a reduced row it
    is bit u of that row's tag: u is solvable when no dependent row
    combines u, and K is the set of pivots whose rows combine u.  This is
    the particular solution, clear on the free columns, of solving each
    u's system alone, so the flow is the same.

    Returns (g, layer) with layer 0 holding the outputs.  Raises
    ValueError when no gflow exists, unless ``best_effort`` is set, in
    which case stuck vertices get empty correction sets (their outcomes
    are simply not corrected).
    """
    nodes = graph.nodes
    adjacency = graph.adjacency
    inputs = set(graph.inputs)
    g: dict = {}
    layer = {v: 0 for v in graph.outputs}
    processed = set(graph.outputs)
    depth = 0
    while len(processed) < len(nodes):
        depth += 1
        corr = [v for v in nodes if v in processed and v not in inputs]
        unproc = [v for v in nodes if v not in processed]
        column = {c: 1 << i for i, c in enumerate(corr)}
        pivots, zero_tags = echelon(
            (sum(column[c] for c in adjacency[w] if c in column), 1 << j)
            for j, w in enumerate(unproc))
        dependent = 0   # rows combined into some zero row
        for comb in zero_tags:
            dependent |= comb
        found = {}
        for j, u in enumerate(unproc):
            if (dependent >> j) & 1:
                continue
            x = sum(p for p, (_, comb) in pivots.items() if (comb >> j) & 1)
            found[u] = frozenset(c for c in corr if x & column[c])
        if not found:
            if not best_effort:
                raise ValueError("graph admits no gflow")
            u = unproc[0]
            found[u] = frozenset()
        for u, K in found.items():
            g[u] = K
            layer[u] = depth
        processed.update(found)
    return g, layer


def correction_masks(graph: OpenGraph, g: Mapping, idx: Mapping,
                     vertices: Iterable) -> dict:
    """vertex -> (X mask, Z mask) over vertex indices of the corrections
    that outcome 1 of each listed vertex triggers: X on its correction
    set, Z on the rest of that set's odd neighbourhood."""
    out = {}
    for u in vertices:
        K = g.get(u, ())
        out[u] = (sum(1 << idx[j] for j in K),
                  sum(1 << idx[j] for j in graph.odd_neighborhood(K) - {u}))
    return out


# --------------------------------------------------------------------------
# patterns
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """An open graph plus a quarter-turn angle per measured vertex.

    Vertices with an angle are measured (outputs may be measured too for
    classical results); outputs without an angle stay as the output
    register.  ``flow`` is (g, layer) or None to derive it.
    """

    graph: OpenGraph
    angles: Mapping
    flow: tuple | None = None

    def resolved_flow(self):
        if self.flow is not None:
            verify_gflow(self.graph, *self.flow)
            return self.flow
        return find_gflow(self.graph)

    def measured_order(self, layer) -> list:
        order = [v for v in self.graph.nodes if v in self.angles]
        missing = [v for v in self.graph.nodes
                   if v not in self.angles and v not in self.graph.outputs]
        if missing:
            raise ValueError(f"non-output vertices without angles: {missing}")
        return sorted(order, key=lambda v: (-layer[v], self.graph.nodes.index(v)))


def _entangled(n: int, gens: Iterable[Element], edges: Iterable) -> Group:
    """The group of the valid product state ``gens`` after a cz on each
    edge ``(a, b)`` of site indices.

    Built straight from the edges: a cz on edge (a, b) adds the X bit of
    a to the Z bit of b and the X bit of b to the Z bit of a, with no
    sign, so each generator's Z part gains the odd neighbourhood of its X
    part.  The cz factors keep validity, so the result is built as valid.
    """
    odd = [0] * n
    for a, b in edges:
        odd[a] ^= 1 << b
        odd[b] ^= 1 << a
    entangled = []
    for e in gens:
        z, x = e.z, e.x
        while x:
            low = x & -x
            z ^= odd[low.bit_length() - 1]
            x ^= low
        entangled.append(Element(n, e.x, z, e.neg))
    return Group(n, entangled)._mark_valid()


def graph_state(graph: OpenGraph, input_group: Group | None = None) -> Group:
    """Entangled initial state: inputs as given, the rest at +X, cz edges.

    A valid input group makes the product state valid.  An input group
    needs a graph with inputs.
    """
    nodes = list(graph.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    gens = [Element.single(n, idx[v], "X")
            for v in nodes if v not in graph.inputs]
    if graph.inputs:
        if input_group is None:
            input_group = Group(len(graph.inputs),
                                [Element.single(len(graph.inputs), i, "X")
                                 for i in range(len(graph.inputs))])
        if input_group.n != len(graph.inputs):
            raise ValueError("input state size mismatch")
        input_group.require_valid()
        gens += [e.embed(n, [idx[v] for v in graph.inputs])
                 for e in input_group.canonical]
    elif input_group is not None:
        raise ValueError("an input state needs a graph with inputs")
    return _entangled(n, gens, ((idx[u], idx[v]) for u, v in graph.edges))


def live_outcomes(state: Group, e: Element) -> list:
    """(outcome, post, probability) for each outcome of measuring ``e``
    that can occur; a deterministic outcome leaves the state as it was."""
    out, post, p = measure_element(state, e, force=0)
    if p == 0:
        return [(1, state, Fraction(1))]
    if p == 1:
        return [(out, post, p)]
    return [(out, post, p), measure_element(state, e, force=1)]


def walk(root, depth: int, step):
    """Leaves of a depth-first branch tree, first branch first.

    ``step(k, node)`` lists the children of a node at depth ``k``; the
    nodes at ``depth`` are the leaves.  Children share their parent's
    immutable state, so a prefix is computed once for all its branches.
    """
    stack = [(0, root)]
    while stack:
        k, node = stack.pop()
        if k == depth:
            yield node
            continue
        stack.extend((k + 1, child) for child in reversed(step(k, node)))


class _PatternRun:
    """The fixed part of running a pattern: flow, order, corrections.

    Pending corrections are bit masks over vertex indices, so a branch
    state (group, sx, sz, outcomes, probability) is immutable and
    branches share their prefixes.
    """

    def __init__(self, pattern: Pattern, input_group: Group | None,
                 physical: bool):
        graph = pattern.graph
        self.idx = idx = {v: i for i, v in enumerate(graph.nodes)}
        self.n = len(graph.nodes)
        g, layer = pattern.resolved_flow()
        self.order = pattern.measured_order(layer)
        self.state = graph_state(graph, input_group)
        self.pattern = pattern
        self.physical = physical
        self.fixes = correction_masks(graph, g, idx, self.order)
        self.quantum_outputs = [v for v in graph.outputs
                                if v not in pattern.angles]

    def element(self, u, sx: int, sz: int) -> Element:
        """The measured element of ``u``, adapted to pending corrections."""
        i = self.idx[u]
        q = self.pattern.angles[u]
        if not self.physical:
            q = adapt_quarter(q, (sx >> i) & 1, (sz >> i) & 1)
        return angle_element(self.n, i, q)

    def correct(self, u, out: int, state: Group, sx: int, sz: int):
        """(state, sx, sz) after outcome ``out`` of ``u``."""
        if not out:
            return state, sx, sz
        x, z = self.fixes[u]
        if not self.physical:
            return state, sx ^ x, sz ^ z
        if x or z:
            state = Permutation.pauli(self.n, x, z).conjugate(state)
        return state, sx, sz

    def result(self, state: Group, sx: int, sz: int, outcomes: dict,
               prob: Fraction) -> dict:
        idx = self.idx
        quantum_outputs = self.quantum_outputs
        if not self.physical and quantum_outputs:
            mask = sum(1 << idx[v] for v in quantum_outputs)
            if (sx | sz) & mask:
                state = Permutation.pauli(self.n, sx & mask,
                                          sz & mask).conjugate(state)
        output_state = (partial_trace(state, [idx[v] for v in quantum_outputs])
                        if quantum_outputs else None)
        return {
            "outcomes": outcomes,
            "probability": prob,
            "output": {v: outcomes[v] for v in self.pattern.graph.outputs
                       if v in outcomes},
            "output_state": output_state,
        }


def run_pattern(pattern: Pattern, input_group: Group | None = None, *,
                rng=None, forced: Mapping | None = None,
                physical: bool = False) -> dict:
    """Execute a pattern; returns outcomes, output state, and probability.

    ``forced`` pins measurement outcomes (probability then reflects the
    branch weight); ``physical`` applies corrections as permutations
    instead of folding them into later angles.
    """
    run = _PatternRun(pattern, input_group, physical)
    state, sx, sz = run.state, 0, 0
    outcomes = {}
    prob = Fraction(1)
    for u in run.order:
        force = forced.get(u) if forced is not None else None
        out, state, p = measure_element(state, run.element(u, sx, sz),
                                        rng=rng, force=force)
        prob *= p
        if prob == 0:
            return {"outcomes": None, "probability": Fraction(0),
                    "output": None, "output_state": None}
        outcomes[u] = out
        state, sx, sz = run.correct(u, out, state, sx, sz)
    return run.result(state, sx, sz, outcomes, prob)


def enumerate_branches(pattern: Pattern, input_group: Group | None = None,
                       physical: bool = False) -> list[dict]:
    """All outcome branches with nonzero probability.

    The branch tree is walked depth first, branching only where an
    outcome is random.  Branches are listed by their outcome bits read
    as an integer, the first measured vertex being bit 0.
    """
    run = _PatternRun(pattern, input_group, physical)
    order = run.order

    def step(k, node):
        state, sx, sz, outcomes, prob = node
        u = order[k]
        children = []
        for out, post, p in live_outcomes(state, run.element(u, sx, sz)):
            post, csx, csz = run.correct(u, out, post, sx, sz)
            children.append((post, csx, csz, {**outcomes, u: out}, prob * p))
        return children

    leaves = walk((run.state, 0, 0, {}, Fraction(1)), len(order), step)
    results = sorted(
        (run.result(*leaf) for leaf in leaves),
        key=lambda res: sum(res["outcomes"][v] << i
                            for i, v in enumerate(order)))
    total = sum(r["probability"] for r in results)
    assert total == 1, f"branches sum to {total}"
    return results


# --------------------------------------------------------------------------
# gate catalog
# --------------------------------------------------------------------------

def _line_pattern(angles) -> Pattern:
    return Pattern(OpenGraph.line(len(angles) + 1), dict(enumerate(angles)))


_PROBES = tuple(Group(1, [Element.single(1, 0, w)]) for w in ("X", "Z"))


def _realized_images(angles):
    """Deterministic images of <+X> and <+Z> under the line pattern.

    Returns None when any branch disagrees (the pattern is not a clean
    single-system map).
    """
    pattern = _line_pattern(angles)
    images = []
    for probe in _PROBES:
        outs = {b["output_state"].canonical
                for b in enumerate_branches(pattern, probe)}
        if len(outs) != 1:
            return None
        images.append(next(iter(outs)))
    return tuple(images)


def _search_line_angles(target: Permutation) -> tuple[int, ...]:
    import itertools
    want = tuple(target.conjugate(p).canonical for p in _PROBES)
    for length in range(1, 4):
        for angles in itertools.product(range(4), repeat=length):
            if _realized_images(angles) == want:
                return angles
    raise AssertionError("no line pattern found")


@dataclass(frozen=True)
class GatePattern:
    name: str
    pattern: Pattern
    reference: Permutation  # direct conjugation the pattern must reproduce


def _line_gate(name: str) -> GatePattern:
    reference = Permutation.local(1, 0, name)
    angles = _search_line_angles(reference)
    return GatePattern(name, _line_pattern(angles), reference)


def _cx_gate() -> GatePattern:
    graph = OpenGraph((0, 1, 2, 3), ((1, 2), (2, 3), (0, 2)),
                      inputs=(0, 1), outputs=(0, 3))
    pattern = Pattern(graph, {1: 0, 2: 0})
    return GatePattern("CX", pattern, Permutation.controlled(2, "cx", 0, 1))


def gate_patterns() -> dict[str, GatePattern]:
    """Catalog of verified measurement patterns for the named permutations."""
    out = {name: _line_gate(name) for name in ("H", "P", "X", "Y", "Z")}
    out["CX"] = _cx_gate()
    return out
