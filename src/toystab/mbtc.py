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

What a run takes from its pattern alone, the order, the prepare and cz
steps and both forms of every correction, is its schedule
(:class:`_Schedule`).  It is built once per pattern, at its first run,
where a given flow is verified, and every later run shares it, in either
correction mode and on any input state.  A pattern holds read-only
copies of its angles and flow, so the schedule cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
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
    """Raise unless (g, layer) is a valid correction structure: ``layer``
    gives every vertex a layer, and ``g`` every non-output a correction
    set of vertices."""
    outputs = set(graph.outputs)
    inputs = set(graph.inputs)
    vertices = graph.adjacency.keys()
    missing = [v for v in graph.nodes if v not in layer]
    if missing:
        raise ValueError(f"the flow's layer misses vertices {missing}; "
                         "it must cover every vertex")
    for u in graph.nodes:
        if u in outputs:
            continue
        if u not in g:
            raise ValueError(f"no correction set for {u}")
        K = _vertex_set(u, g[u])
        if not K <= vertices:
            raise ValueError(f"correction set of {u} holds non-vertices "
                             f"{[w for w in K if w not in vertices]}")
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


def _vertex_set(u, K) -> frozenset:
    """The correction set ``K`` of ``u`` as a frozenset; raise unless it
    is a collection."""
    try:
        return frozenset(K)
    except TypeError:
        raise ValueError(f"correction set of {u!r} is not a set of "
                         f"vertices: {K!r}") from None


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
    set, Z on the rest of that set's odd neighbourhood, the XOR of its
    members' neighbour masks."""
    adjacency = graph.adjacency
    out = {}
    for u in vertices:
        x = z = 0
        for j in g.get(u, ()):
            x |= 1 << idx[j]
            for w in adjacency[j]:
                z ^= 1 << idx[w]
        out[u] = (x, z & ~(1 << idx[u]))
    return out


# --------------------------------------------------------------------------
# patterns
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Pattern:
    """An open graph plus a quarter-turn angle per measured vertex.

    Vertices with an angle are measured (outputs may be measured too for
    classical results); outputs without an angle stay as the output
    register.  ``flow`` is a pair (g, layer) of mappings, or None to
    derive it.

    A pattern holds read-only copies of its angles and flow, with each
    correction set frozen, so a later edit of the caller's dicts cannot
    reach it.  Its frontier schedule (:class:`_Schedule`) is built at its
    first run and kept for every later run, in either correction mode; a
    given flow is verified then, once.  A flow that fails is not kept,
    so every run raises.
    """

    graph: OpenGraph
    angles: Mapping
    flow: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.angles, Mapping):
            raise ValueError("pattern angles must map vertices to quarters, "
                             f"not be a {type(self.angles).__name__}")
        angles = dict(self.angles)
        extra = [v for v in angles if v not in self.graph.adjacency]
        if extra:
            raise ValueError(f"angles for vertices that are not nodes: {extra}")
        for v, angle in angles.items():
            if type(angle) is not int:
                raise ValueError(f"angle {angle!r} of vertex {v!r} is not "
                                 "an int")
        object.__setattr__(self, "angles", MappingProxyType(angles))
        if self.flow is not None:
            object.__setattr__(self, "flow", _frozen_flow(self.flow))

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
        return _latest_first([v for v in self.graph.nodes if v in self.angles],
                             layer)

    def __reduce__(self):
        # the read-only views do not pickle or deep-copy; a copy is
        # rebuilt from plain dicts and builds its own schedule
        flow = self.flow and (dict(self.flow[0]), dict(self.flow[1]))
        return Pattern, (self.graph, dict(self.angles), flow)

    @cached_property
    def _schedule(self) -> "_Schedule":
        """The frontier schedule, built at the first run and written to
        the instance dict, which a frozen dataclass leaves writable."""
        return _Schedule(self)


def _latest_first(vertices: list, layer: Mapping) -> list:
    """``vertices`` in measurement order: latest layer first, in their
    given order within a layer (the sort is stable)."""
    return sorted(vertices, key=lambda v: -layer[v])


def _frozen_flow(flow) -> tuple:
    """A read-only copy of the flow ``(g, layer)``, each correction set
    frozen; raise unless it is a pair of mappings."""
    try:
        g, layer = flow
    except (TypeError, ValueError):
        g = layer = None
    if not (isinstance(g, Mapping) and isinstance(layer, Mapping)):
        raise ValueError("a flow is a pair (g, layer) of mappings, not "
                         f"{flow!r}")
    return (MappingProxyType({u: _vertex_set(u, K) for u, K in g.items()}),
            MappingProxyType(dict(layer)))


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


def _cz_rows(rows: Iterable[tuple], gains: tuple) -> dict:
    """The reduced rows ``{pivot: (bits, sign)}`` of the interleaved rows
    ``(bits, sign)`` of a valid product state after the cz's ``gains``
    (:func:`_cz_row`), echeloned once."""
    pivots, _ = echelon([(_cz_row(bits, gains), neg) for bits, neg in rows])
    return pivots


def _entangled(n: int, gens: Iterable[Element], edges: Iterable) -> Group:
    """The group of the valid product state ``gens`` after a cz on each
    edge ``(a, b)`` of site indices.  The cz factors keep validity, so
    the result is built as valid."""
    return Group._from_reduced(n, _cz_rows(
        ((e.interleaved(), e.neg) for e in gens), _cz_gains(edges)))


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
    if not isinstance(input_group, Group):
        raise ValueError("an input state must be a Group, not "
                         f"{input_group!r}")
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


class _Schedule:
    """A pattern's run on its live frontier, as far as it follows from
    the pattern alone (see the module docstring).  It is built once, at
    the pattern's first run, and kept on the pattern
    (:attr:`Pattern._schedule`) for every later run, adapted or
    physical, whatever the input state.

    The flow is resolved here, and a given flow verified, once.  The
    schedule is fixed by the measurement order alone: before the k-th
    measured vertex u, the sites of u and its neighbours that are not
    yet live become live, the non-inputs among them are prepared at +X,
    and every edge whose endpoints are both live and that has not run
    yet runs; after it, u is traced out.  So each step ``(site, quarter,
    entangle, adapted, physical)`` holds u's site and angle, the sites
    to prepare and the cz's to apply (:meth:`_PatternRun._entangle`),
    and both forms of the corrections that outcome 1 books: ``adapted``
    the X and Z flips of later angles, as bit masks over vertex indices,
    and ``physical`` the interleaved flips of P' on the row signs
    (:func:`dynamics.flip_signs`).  ``final`` makes every site live for
    the output state, whose sites are ``keep``, in ascending order.
    """

    def __init__(self, pattern: Pattern):
        graph = pattern.graph
        self.idx = idx = {v: i for i, v in enumerate(graph.nodes)}
        self.n = n = len(graph.nodes)
        g, layer = pattern.resolved_flow()
        self.order = pattern.measured_order(layer)
        self.outputs = graph.outputs
        self.quantum_outputs = [v for v in graph.outputs
                                if v not in pattern.angles]
        self.keep = sorted(idx[v] for v in self.quantum_outputs)
        self.output_mask = sum(1 << s for s in self.keep)
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
            mask = 0
            for a in new:
                m = pending[a] & live
                pending[a] ^= m
                while m:
                    low = m & -m
                    m ^= low
                    b = low.bit_length() - 1
                    pending[b] ^= 1 << a
                    edges.append((a, b))
                    mask |= 1 << 2 * a | 1 << 2 * b
            return prep, _cz_gains(edges), mask

        self.steps = []
        for u in self.order:
            i = idx[u]
            entangle = make_live([i] + [idx[w] for w in graph.adjacency[u]])
            dropped |= 1 << i
            # P' of outcome 1: X on x, and Z on z and on the neighbours of
            # x across the pending edges, on the sites still held
            x, z = fixes[u]
            pz, m = z, x
            while m:
                low = m & -m
                m ^= low
                pz ^= pending[low.bit_length() - 1]
            assert not pz & ~prepared, "a Z reaches an unprepared site"
            held = prepared & ~dropped
            self.steps.append((i, pattern.angles[u], entangle, (x, z),
                               _interleave(pz & held, x & held)))
        self.final = make_live(range(n))


class _PatternRun:
    """One run of a pattern: the schedule it shares with every other run
    of the pattern (:class:`_Schedule`, built at the pattern's first run,
    where a given flow is verified), the root rows of the input state and
    the correction mode.

    A branch state is ``(rows, sx, sz)``: the reduced rows
    ``{pivot: (bits, sign)}`` of the live and input sites, n sites wide,
    and the X and Z flips that adapt later angles, as bit masks over
    vertex indices.  A state's rows are its own: :meth:`step` consumes
    them, so a state is stepped once, and two outcomes get two copies.
    """

    def __init__(self, pattern: Pattern, input_group: Group | None,
                 physical: bool):
        self.schedule = schedule = pattern._schedule
        rows, _ = echelon((e.interleaved(), e.neg) for e in _input_elements(
            pattern.graph, input_group, schedule.idx))
        self.root = (rows, 0, 0)
        self.physical = physical

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
        schedule, physical = self.schedule, self.physical
        site, quarter, entangle, adapted, flips = schedule.steps[k]
        rows = self._entangle(rows, entangle)
        if not physical:
            quarter = adapt_quarter(quarter, sx >> site & 1, sz >> site & 1)
        bits, neg = _QUARTER_ROWS[quarter % 4]
        measured = [measure_rows(rows, bits << 2 * site, neg, schedule.n,
                                 rng=rng, force=force) for force in forces]
        children = []
        for out, post, random in measured:
            if post is None:
                continue
            trace_site(post, site)
            csx, csz = sx, sz
            if out and physical:
                flip_signs(post, flips)
            elif out:
                csx, csz = sx ^ adapted[0], sz ^ adapted[1]
            children.append((out, (post, csx, csz), random))
        return children

    def result(self, state: tuple, outcomes: dict, halvings: int) -> dict:
        """The API result of a finished branch of probability
        2**-halvings; ``state`` is consumed."""
        schedule = self.schedule
        keep = schedule.keep
        output_state = None
        if keep:
            rows, sx, sz = state
            rows = self._entangle(rows, schedule.final)
            if not self.physical:
                mask = schedule.output_mask
                flip_signs(rows, _interleave(sz & mask, sx & mask))
            output_state = Group._from_reduced(
                len(keep), marginal_rows(rows, keep))
        return {
            "outcomes": outcomes,
            "probability": Fraction(1, 1 << halvings),
            "output": {v: outcomes[v] for v in schedule.outputs
                       if v in outcomes},
            "output_state": output_state,
        }


def _check_forced(forced: Mapping, order) -> None:
    """Raise unless every key of ``forced`` is a vertex of the measurement
    ``order`` and every value is the int 0 or 1: a bool or a float would
    be returned as the outcome."""
    measured = set(order)
    for v, bit in forced.items():
        if v not in measured:
            raise ValueError(f"forced outcome for {v!r}, which is not "
                             "a measured vertex")
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"forced outcome of {v!r} is 0 or 1, "
                             f"not {bit!r}")


def run_pattern(pattern: Pattern, input_group: Group | None = None, *,
                rng=None, forced: Mapping | None = None,
                physical: bool = False) -> dict:
    """Execute a pattern; returns outcomes, output state, and probability.

    ``forced`` pins measurement outcomes (probability then reflects the
    branch weight); each key must be a measured vertex and each value the
    int 0 or 1.  ``physical`` applies corrections as permutations instead of
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
    order = run.schedule.order
    forced = dict(forced or {})
    _check_forced(forced, order)
    state = run.root
    outcomes = {}
    halvings = 0
    for k, u in enumerate(order):
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
    order = run.schedule.order

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
