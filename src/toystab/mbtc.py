"""Measurement-based computing on graph states with gflow corrections.

Measurements are restricted to the equator family {X, Y, -X, -Y},
indexed by a quarter-turn angle in Z_4 (0: X, 1: Y, 2: -X, 3: -Y).
Outcome corrections are folded into later measurement angles (the
default) or applied physically after every outcome (a debug mode); the
two must agree branch by branch.

A pattern runs on its live frontier rather than on the whole graph
state.  The argument is the standardisation of the measurement calculus
(Danos-Kashefi-Panangaden, arXiv:0704.1263), written out for the toy
theory:

* *Deferring a cz is exact.*  A cz conjugates symbols with no sign: it
  adds the x bit of each endpoint to the z bit of the other.  So all cz
  factors commute with each other, and a cz on sites a, b commutes with
  every measurement of a single site other than a and b.  Split the
  product of every edge's cz as C_pending C_done.  If the whole-graph
  state is C_pending applied to a state s, and no pending edge touches
  the site measured next, then measuring it on the whole-graph state
  gives the outcome probabilities of measuring it on s, and the post
  state is C_pending applied to the post state of s.  By induction over
  the measurements, the run may keep s alone.  A vertex is therefore
  prepared and entangled only when it or a neighbour is measured.  At
  that point every edge between two such live vertices runs, so each
  measured vertex has all of its edges done.  A non-input site that is
  not yet live is still in its product state +X, and is left out of the
  rows until it becomes live.  Input sites hold the input state from
  the start, but an edge between two of them waits until both are live,
  like every other edge.

* *Dropping a measured site is an exact trace.*  After measuring the
  single-site symbol s at u, the state holds +s or -s, so every row is
  I or s at u, and the state is a product of that site and the rest.
  No pending cz touches u.  Tracing u out (:func:`dynamics.trace_site`)
  therefore loses nothing that a later step or the output can see.  The
  rank follows the live frontier, not the whole graph.

* *A physical Pauli passes through the pending cz's.*  A correction P
  acts on C_pending |s>, and P C_pending = C_pending P', where P' is P
  conjugated through the pending cz's.  For a symbol flip X_j, P' is
  X_j times Z on every neighbour of j across a pending edge; a Z flip
  commutes with every cz.  Of P', the part on prepared sites flips the
  signs of the rows it anticommutes with (:func:`dynamics.flip_signs`):
  a product of symbol flips maps each row to plus or minus itself, so
  the rows stay reduced.  The part on a measured site acts on a
  traced-out factor and is dropped; such a site has no pending edge
  left.  A site w not yet prepared is left alone: an X there fixes its
  +X, and P' holds no Z there.  The correction of u is X on K = g(u)
  and Z on Odd(K) minus u.  Every edge of w is pending, so pushing X_K
  through them puts a Z on w once per neighbour of w in K, an odd
  number of times exactly when w is in Odd(K).  That cancels the Z the
  correction already has on w (u is live, so u is not w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .algebra import Element, Group, _interleave, echelon, insert
from .dynamics import (Permutation, flip_signs, marginal_rows, measure_rows,
                       trace_site)

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
    neighborhood.  Only the boundary takes part: the processed
    non-inputs that still have an unprocessed neighbour, kept up to date
    as layers are added.  The layer's matrix has a row per unprocessed
    neighbour of the boundary (the candidates adjacent to it) and a
    column per boundary vertex, both in node order.  Any other
    unprocessed vertex has a zero row, which can solve nothing and
    changes no other row, and any other candidate a zero column, so
    leaving them out changes neither the pivots nor the solutions.

    The matrix is brought to reduced echelon form once, tagging each row
    with the mask of input rows it combines.  The right-hand side of u is
    the unit vector at u, so on a reduced row it is bit u of that row's
    tag: u is solvable when no dependent row combines u, and K is the set
    of pivots whose rows combine u.  This is the particular solution,
    clear on the free columns, of solving each u's system alone, so the
    flow is the same.

    Returns (g, layer) with layer 0 holding the outputs.  Raises
    ValueError when no gflow exists, unless ``best_effort`` is set, in
    which case the first stuck vertex in node order gets an empty
    correction set (its outcome is simply not corrected).
    """
    nodes = graph.nodes
    adjacency = graph.adjacency
    inputs = set(graph.inputs)
    position = {v: i for i, v in enumerate(nodes)}.__getitem__
    g: dict = {}
    layer = {v: 0 for v in graph.outputs}
    processed = set(graph.outputs)
    boundary: set = set()
    added = processed
    first = 0   # every node before it is processed
    depth = 0
    while len(processed) < len(nodes):
        depth += 1
        boundary.update(v for v in added if v not in inputs)
        boundary = {c for c in boundary if not adjacency[c] <= processed}
        corr = sorted(boundary, key=position)
        unproc = sorted({w for c in corr for w in adjacency[c]
                         if w not in processed}, key=position)
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
            while nodes[first] in processed:
                first += 1
            found[nodes[first]] = frozenset()
        for u, K in found.items():
            g[u] = K
            layer[u] = depth
        processed.update(found)
        added = found
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

    def __post_init__(self):
        extra = [v for v in self.angles if v not in self.graph.adjacency]
        if extra:
            raise ValueError(f"angles for vertices that are not nodes: {extra}")
        for v, angle in self.angles.items():
            if type(angle) is not int:
                raise ValueError(f"angle {angle!r} of vertex {v!r} is not "
                                 "an int")

    def resolved_flow(self):
        if self.flow is not None:
            verify_gflow(self.graph, *self.flow)
            return self.flow
        return find_gflow(self.graph)

    def measured_order(self, layer) -> list:
        """The measured vertices, latest layer first, in node order within
        a layer (the sort is stable)."""
        outputs = set(self.graph.outputs)
        missing = [v for v in self.graph.nodes
                   if v not in self.angles and v not in outputs]
        if missing:
            raise ValueError(f"non-output vertices without angles: {missing}")
        return sorted((v for v in self.graph.nodes if v in self.angles),
                      key=lambda v: -layer[v])


def _cz_gains(edges: Iterable) -> tuple:
    """The cz's on the edges ``(a, b)`` of site indices, as one pair
    (x column of a, z columns of a's neighbours across them) per
    endpoint a, in the packed interleaved columns."""
    gain: dict = {}
    for a, b in edges:
        gain[a] = gain.get(a, 0) ^ 2 << 2 * b
        gain[b] = gain.get(b, 0) ^ 2 << 2 * a
    return tuple((1 << 2 * a, z) for a, z in gain.items())


def _cz_row(bits: int, gains: tuple) -> int:
    """The interleaved row ``bits`` after the cz's ``gains``
    (:func:`_cz_gains`).

    This is the one cz rule.  A cz on edge (a, b) adds the x bit of a to
    the z bit of b and the x bit of b to the z bit of a, with no sign, so
    a row's z part gains the odd neighbourhood of its x part, and the
    sign is kept.  The cz factors commute, so their order does not
    matter.
    """
    for x, z in gains:
        if bits & x:
            bits ^= z
    return bits


def _cz_rows(rows: Iterable[tuple], edges: Iterable) -> dict:
    """The reduced rows ``{pivot: (bits, sign)}`` of the interleaved rows
    ``(bits, sign)`` of a valid product state after a cz on each edge
    ``(a, b)`` of site indices (:func:`_cz_row`), echeloned once."""
    gains = _cz_gains(edges)
    pivots, _ = echelon([(_cz_row(bits, gains), neg) for bits, neg in rows])
    return pivots


def _entangled(n: int, gens: Iterable[Element], edges: Iterable) -> Group:
    """The group of the valid product state ``gens`` after a cz on each
    edge ``(a, b)`` of site indices.  The cz factors keep validity, so
    the result is built as valid."""
    return Group._from_reduced(
        n, _cz_rows(((e.interleaved(), e.neg) for e in gens), edges))


def _input_elements(graph: OpenGraph, input_group: Group | None,
                    idx: Mapping) -> list[Element]:
    """The input state's generators placed on the input sites of the
    whole register: all inputs at +X when ``input_group`` is None.

    A valid input group makes the product state valid.  An input group
    needs a graph with inputs.
    """
    if not graph.inputs:
        if input_group is not None:
            raise ValueError("an input state needs a graph with inputs")
        return []
    k = len(graph.inputs)
    if input_group is None:
        input_group = Group(k, [Element.single(k, i, "X") for i in range(k)])
    if input_group.n != k:
        raise ValueError("input state size mismatch")
    input_group.require_valid()
    sites = [idx[v] for v in graph.inputs]
    return [e.embed(len(idx), sites) for e in input_group.canonical]


def graph_state(graph: OpenGraph, input_group: Group | None = None) -> Group:
    """Entangled initial state: inputs as given, the rest at +X, cz edges."""
    nodes = list(graph.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    gens = [Element.single(n, idx[v], "X")
            for v in nodes if v not in graph.inputs]
    gens += _input_elements(graph, input_group, idx)
    return _entangled(n, gens, ((idx[u], idx[v]) for u, v in graph.edges))


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


# the interleaved row (bits on site 0, sign) of each quarter's element
_QUARTER_ROWS = tuple((angle_element(1, 0, q).interleaved(),
                       QUARTER_SYMBOL[q][1]) for q in range(4))


class _PatternRun:
    """A pattern's run on its live frontier (see the module docstring).

    The schedule is fixed by the measurement order alone: before the k-th
    measured vertex u, the sites of u and its neighbours that are not
    yet live become live, the non-inputs among them are prepared at +X,
    and every edge whose endpoints are both live and that has not run
    yet runs; after it, u is traced out.  So the per-step data (the
    site, the angle, the sites to prepare, the cz's to apply and the
    corrections that outcome 1 books) is computed once.

    A branch state is ``(rows, sx, sz)``: the reduced rows
    ``{pivot: (bits, sign)}`` of the live and input sites, n sites wide,
    and the X and Z flips that adapt later angles, as bit masks over
    vertex indices.  A state's rows are its own: :meth:`step` consumes
    them, so a state is stepped once, and two outcomes get two copies.
    """

    def __init__(self, pattern: Pattern, input_group: Group | None,
                 physical: bool):
        graph = pattern.graph
        self.idx = idx = {v: i for i, v in enumerate(graph.nodes)}
        self.n = n = len(graph.nodes)
        g, layer = pattern.resolved_flow()
        self.order = pattern.measured_order(layer)
        rows, _ = echelon((e.interleaved(), e.neg)
                          for e in _input_elements(graph, input_group, idx))
        self.root = (rows, 0, 0)
        self.pattern = pattern
        self.physical = physical
        self.quantum_outputs = [v for v in graph.outputs
                                if v not in pattern.angles]
        fixes = correction_masks(graph, g, idx, self.order)

        pending = [0] * n   # neighbours across edges that have not run
        for u, v in graph.edges:
            pending[idx[u]] |= 1 << idx[v]
            pending[idx[v]] |= 1 << idx[u]
        live = dropped = 0
        prepared = sum(1 << idx[v] for v in graph.inputs)

        def make_live(sites):
            """(sites to prepare, cz's, cz mask) that make ``sites`` live:
            the cz's of the new edges (:func:`_cz_gains`), and the x bits
            of every endpoint."""
            nonlocal live, prepared
            new = [s for s in sites if not live >> s & 1]
            for s in new:
                live |= 1 << s
            prep = [s for s in new if not prepared >> s & 1]
            for s in prep:
                prepared |= 1 << s
            edges = []
            for a in new:
                m = pending[a] & live
                while m:
                    low = m & -m
                    m ^= low
                    b = low.bit_length() - 1
                    pending[a] ^= low
                    pending[b] ^= 1 << a
                    edges.append((a, b))
            cz = _cz_gains(edges)
            return prep, cz, sum(x for x, _ in cz)

        self.steps = []
        for u in self.order:
            i = idx[u]
            entangle = make_live([i] + [idx[w] for w in graph.adjacency[u]])
            dropped |= 1 << i
            # outcome 1 books the flips (x, z) on later angles, or, in
            # physical mode, flips the row signs that P' flips
            x, z = fixes[u]
            if physical:
                m = x
                while m:
                    low = m & -m
                    m ^= low
                    z ^= pending[low.bit_length() - 1]
                assert not z & ~prepared, "a Z reaches an unprepared site"
                held = prepared & ~dropped
                fix = _interleave(z & held, x & held)
            else:
                fix = (x, z)
            self.steps.append((i, pattern.angles[u], entangle, fix))
        self.final = make_live(range(n))

    @staticmethod
    def _entangle(rows: dict, entangle) -> dict:
        """``rows`` after preparing new sites at +X and applying new cz's
        (:func:`_cz_row`); the rows they change are taken out and inserted
        again."""
        prep, cz, mask = entangle
        moved = [(1 << 2 * s, False) for s in prep]
        if mask:
            moved += [rows.pop(p) for p in
                      [p for p, (bits, _) in rows.items() if bits & mask]]
        for bits, neg in moved:
            insert(rows, _cz_row(bits, cz), neg)
        return rows

    def step(self, k: int, state: tuple, forces, rng=None) -> list:
        """[(outcome, child state, random)] of measuring the k-th vertex
        once per entry of ``forces``: a forced outcome, or None to draw a
        random one from ``rng``.  A forced outcome that cannot occur gives
        no child.  ``state`` is consumed."""
        rows, sx, sz = state
        site, quarter, entangle, fix = self.steps[k]
        rows = self._entangle(rows, entangle)
        if not self.physical:
            quarter = adapt_quarter(quarter, sx >> site & 1, sz >> site & 1)
        bits, neg = _QUARTER_ROWS[quarter % 4]
        measured = [measure_rows(rows, bits << 2 * site, neg, self.n,
                                 rng=rng, force=force) for force in forces]
        children = []
        for out, post, random in measured:
            if post is None:
                continue
            trace_site(post, site)
            csx, csz = sx, sz
            if out and self.physical:
                flip_signs(post, fix)
            elif out:
                csx, csz = sx ^ fix[0], sz ^ fix[1]
            children.append((out, (post, csx, csz), random))
        return children

    def result(self, state: tuple, outcomes: dict, halvings: int) -> dict:
        """The API result of a finished branch of probability
        2**-halvings; ``state`` is consumed."""
        idx = self.idx
        quantum_outputs = self.quantum_outputs
        output_state = None
        if quantum_outputs:
            rows, sx, sz = state
            rows = self._entangle(rows, self.final)
            if not self.physical:
                mask = sum(1 << idx[v] for v in quantum_outputs)
                flip_signs(rows, _interleave(sz & mask, sx & mask))
            keep = sorted(idx[v] for v in quantum_outputs)
            output_state = Group._from_reduced(
                len(keep), marginal_rows(rows, keep, self.n))
        return {
            "outcomes": outcomes,
            "probability": Fraction(1, 1 << halvings),
            "output": {v: outcomes[v] for v in self.pattern.graph.outputs
                       if v in outcomes},
            "output_state": output_state,
        }


def _check_forced(forced: Mapping, order) -> None:
    """Raise unless every key of ``forced`` is a vertex of the measurement
    ``order`` and every value is 0 or 1."""
    measured = set(order)
    for v, bit in forced.items():
        if v not in measured:
            raise ValueError(f"forced outcome for {v!r}, which is not "
                             "a measured vertex")
        if bit not in (0, 1):
            raise ValueError(f"forced outcome of {v!r} is 0 or 1, "
                             f"not {bit!r}")


def run_pattern(pattern: Pattern, input_group: Group | None = None, *,
                rng=None, forced: Mapping | None = None,
                physical: bool = False) -> dict:
    """Execute a pattern; returns outcomes, output state, and probability.

    ``forced`` pins measurement outcomes (probability then reflects the
    branch weight); each key must be a measured vertex and each value 0
    or 1.  ``physical`` applies corrections as permutations instead of
    folding them into later angles.

    The run is the live-frontier run of the module docstring: a vertex
    is prepared and entangled just before it or a neighbour is measured,
    a measured vertex is traced out at once, and a physical correction
    is pushed through the cz's that have not run.  Each step is exact,
    so the outcomes, the probability and the output state are those of
    measuring the whole graph state in the same order, and a random
    outcome draws one ``rng.randrange(2)`` as it would there.
    """
    run = _PatternRun(pattern, input_group, physical)
    forced = dict(forced or {})
    _check_forced(forced, run.order)
    state = run.root
    outcomes = {}
    halvings = 0
    for k, u in enumerate(run.order):
        children = run.step(k, state, (forced.get(u),), rng)
        if not children:
            return {"outcomes": None, "probability": Fraction(0),
                    "output": None, "output_state": None}
        (outcomes[u], state, random), = children
        halvings += random
    return run.result(state, outcomes, halvings)


def enumerate_branches(pattern: Pattern, input_group: Group | None = None,
                       physical: bool = False) -> list[dict]:
    """All outcome branches with nonzero probability.

    The branch tree is walked depth first, with :meth:`_PatternRun.step`
    forcing each outcome in turn, so it branches only where an outcome
    is random.  Branches are listed by their outcome bits read as an
    integer, the first measured vertex being bit 0.
    """
    run = _PatternRun(pattern, input_group, physical)
    order = run.order

    def step(k, node):
        state, outcomes, halvings = node
        u = order[k]
        return [(child, {**outcomes, u: out}, halvings + random)
                for out, child, random in run.step(k, state, (0, 1))]

    leaves = walk((run.root, {}, 0), len(order), step)
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
