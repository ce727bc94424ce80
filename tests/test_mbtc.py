import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toystab import mbtc
from toystab.algebra import Element, Group, echelon, matrix_diag
from toystab.dynamics import (NAMED_PERMS, PERMS, PERM_ID, Permutation,
                              measure_element, partial_trace)
from toystab.mbtc import (GatePattern, OpenGraph, Pattern, adapt_quarter,
                          angle_element, correction_masks,
                          enumerate_branches, find_gflow, gate_patterns,
                          graph_state, run_pattern, verify_gflow, walk)

from conftest import random_group


def _state(text):
    return Group.parse(text).require_valid()


SINGLES = [Group(1, [Element.single(1, 0, w, bool(neg))]).require_valid()
           for w in "XYZ" for neg in (0, 1)]


# -- graphs and gflow ---------------------------------------------------------

def test_open_graph_validation():
    with pytest.raises(ValueError):
        OpenGraph((0, 1), ((0, 0),))  # self loop
    with pytest.raises(ValueError):
        OpenGraph((0, 1), ((0, 2),))  # unknown endpoint
    with pytest.raises(ValueError):
        OpenGraph((0,), (), inputs=(5,))


@pytest.mark.parametrize("edges", [((0, 1), (0, 1)), ((0, 1), (1, 2), (1, 0)),
                                   ((0, 1),) * 3 + ((2, 3),) * 2])
def test_open_graph_rejects_a_repeated_edge(edges):
    # gflow reads the simple graph while every listed cz acts on the state,
    # so a repeated edge would cancel in the state alone
    with pytest.raises(ValueError, match="is listed twice"):
        OpenGraph((0, 1, 2, 3), edges)


def test_line_gflow():
    graph = OpenGraph.line(5)
    g, layer = find_gflow(graph)
    verify_gflow(graph, g, layer)
    for i in range(4):
        assert g[i] == {i + 1}


def test_gflow_failure():
    # measured vertex but no outputs to push corrections onto
    graph = OpenGraph((0, 1), ((0, 1),), inputs=(), outputs=())
    with pytest.raises(ValueError):
        find_gflow(graph)
    g, layer = find_gflow(graph, best_effort=True)
    assert set(g) == {0, 1}  # every vertex still gets an entry


def test_verify_gflow_rejects_bad_maps():
    graph = OpenGraph.line(3)
    g, layer = find_gflow(graph)
    bad = dict(g)
    bad[0] = frozenset()  # vertex no longer covered
    with pytest.raises(ValueError):
        verify_gflow(graph, bad, layer)


def test_graph_state_generators():
    # K_v = X at v, Z on its neighbors, for each non-input vertex
    graph = OpenGraph((0, 1, 2), ((0, 1), (1, 2)), inputs=(), outputs=(2,))
    gs = graph_state(graph)
    assert Element.parse("+XZI") in gs
    assert Element.parse("+ZXZ") in gs
    assert Element.parse("+IZX") in gs


def _reference_graph_state(graph, input_group=None):
    """The earlier graph_state: the product state conjugated by one cz
    factor per listed edge."""
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
        gens += [e.embed(n, [idx[v] for v in graph.inputs])
                 for e in input_group.canonical]
    state = Group(n, gens).require_valid()
    perm = Permutation.identity(n)
    for u, v in graph.edges:
        perm = perm.then(Permutation.controlled(n, "cz", idx[u], idx[v]))
    return perm.conjugate(state)


@st.composite
def _open_graphs(draw):
    """(graph, input group or None) on n <= 70 shuffled labels, up to 3n
    distinct edges in random orientations, and a random input subset."""
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = rng.sample(range(1000), n)
    edges = {}
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        u, v = rng.sample(labels, 2)
        edges.setdefault(frozenset((u, v)), (u, v))
    inputs = tuple(rng.sample(labels, draw(st.integers(0, min(n, 8)))))
    graph = OpenGraph(tuple(labels), tuple(edges.values()), inputs=inputs)
    k = len(inputs)
    input_group = (random_group(rng, k, draw(st.integers(0, k)))
                   if k and draw(st.booleans()) else None)
    return graph, input_group


@settings(max_examples=100, deadline=None)
@given(_open_graphs())
def test_direct_graph_state_matches_cz_conjugation(case):
    graph, input_group = case
    got = graph_state(graph, input_group)
    want = _reference_graph_state(graph, input_group)
    assert got.canonical == want.canonical
    assert got._known_valid and want.violations() == []
    assert Group(got.n, got.generators).violations() == []


def test_graph_state_rejects_an_invalid_input():
    graph = OpenGraph.line(3)
    with pytest.raises(ValueError, match="negative identity"):
        graph_state(graph, Group(1, [Element.parse("+Z"),
                                     Element.parse("-Z")]))


def test_graph_state_rejects_an_input_without_inputs():
    graph = OpenGraph((0, 1), ((0, 1),), inputs=(), outputs=(1,))
    with pytest.raises(ValueError, match="needs a graph with inputs"):
        graph_state(graph, _state("+ZZ"))
    with pytest.raises(ValueError, match="needs a graph with inputs"):
        run_pattern(Pattern(graph, {0: 0}), _state("+Z"))


def test_measure_nothing_pattern_returns_graph_state():
    graph = OpenGraph((0, 1), ((0, 1),), inputs=(), outputs=(0, 1))
    res = run_pattern(Pattern(graph, {}))
    assert res["output_state"] == graph_state(graph)


# -- pattern execution --------------------------------------------------------

def test_teleport_fixture():
    # 2-vertex line at angle 0 acts like the basis-exchange permutation
    graph = OpenGraph.line(2)
    pattern = Pattern(graph, {0: 0})
    for forced in (0, 1):
        res = run_pattern(pattern, _state("+Z"), forced={0: forced})
        assert res["output_state"] == _state("+X")


def test_forced_branch_probabilities():
    graph = OpenGraph.line(2)
    pattern = Pattern(graph, {0: 0})
    probs = [run_pattern(pattern, _state("+Z"), forced={0: b})["probability"]
             for b in (0, 1)]
    assert sum(probs) == 1


def test_explicit_flow_is_honored():
    graph = OpenGraph.line(3)
    g = {0: frozenset({1}), 1: frozenset({2})}
    layer = {0: 2, 1: 1, 2: 0}
    pattern = Pattern(graph, {0: 0, 1: 0}, flow=(g, layer))
    branches = enumerate_branches(pattern, _state("+Z"))
    assert len({b["output_state"].canonical for b in branches}) == 1


def test_gate_patterns_match_direct_conjugation():
    gps = gate_patterns()
    assert set(gps) == {"H", "P", "X", "Y", "Z", "CX"}
    for name in ("H", "P", "X", "Y", "Z"):
        gp = gps[name]
        for g in SINGLES:
            expect = gp.reference.conjugate(g)
            for physical in (False, True):
                branches = enumerate_branches(gp.pattern, g,
                                              physical=physical)
                outs = {b["output_state"].canonical for b in branches}
                assert outs == {expect.canonical}, (name, physical)


def test_cx_pattern():
    gp = gate_patterns()["CX"]
    inputs = [a.tensor(b) for a, b in itertools.product(SINGLES, repeat=2)]
    inputs.append(_state("+XX\n+ZZ"))
    for g in inputs:
        expect = gp.reference.conjugate(g)
        branches = enumerate_branches(gp.pattern, g)
        assert {b["output_state"].canonical for b in branches} \
            == {expect.canonical}


def test_classical_output_pattern():
    # all vertices measured: the result is bits, not a state
    graph = OpenGraph((0, 1, 2), ((0, 1), (1, 2)), inputs=(), outputs=(2,))
    pattern = Pattern(graph, {0: 0, 1: 0, 2: 0})
    branches = enumerate_branches(pattern)
    outputs = {tuple(sorted(b["output"].items())) for b in branches}
    assert len(outputs) == 1  # corrected output bit is branch-independent


def test_missing_angles_rejected():
    graph = OpenGraph.line(3)
    with pytest.raises(ValueError, match="without angles"):
        run_pattern(Pattern(graph, {0: 0}))


def test_angles_must_name_nodes():
    graph = OpenGraph.line(2)
    with pytest.raises(ValueError, match=r"angles for vertices that are not "
                       r"nodes: \[7, 'a'\]"):
        Pattern(graph, {0: 0, 7: 2, 1: 1, "a": 0})


@pytest.mark.parametrize("angle", ["a", 1.0, True, None])
def test_angles_must_be_ints(angle):
    # at the parent the pattern was built, and running it raised TypeError
    with pytest.raises(ValueError, match=f"angle {angle!r} of vertex 0 is "
                       "not an int"):
        Pattern(OpenGraph.line(2), {0: angle})


# -- projector and correction identities --------------------------------------

def _perm_matrix_conj(perm: Permutation, diag):
    """Permute a diagonal: entry i of the result is entry pi^{-1}(i)."""
    n = perm.n
    out = [None] * len(diag)
    for idx in range(len(diag)):
        a = b = 0
        t = idx
        for i in range(n):
            a |= (t & 1) << i
            b |= ((t >> 1) & 1) << i
            t >>= 2
        a2, b2 = perm.apply_bits(a, b)
        j = sum((((a2 >> i) & 1) + 2 * ((b2 >> i) & 1)) << (2 * i)
                for i in range(n))
        out[j] = diag[idx]
    return out


def _projector_diag(e: Element):
    return [(1 + v) // 2 for v in matrix_diag(e)]


def test_projector_rule_matrix_identity():
    # P(+X) = Z P(-X) Z and every signed single-system variant of it
    for pid in range(len(PERMS)):
        perm = Permutation(1, (("local", 0, pid),))
        for sym in "XYZ":
            for neg in (False, True):
                e = Element.single(1, 0, sym, neg)
                lhs = _perm_matrix_conj(perm, _projector_diag(e))
                rhs = _projector_diag(perm.conj_element(e))
                assert lhs == rhs, (pid, str(e))


def test_anachronical_correction_identity():
    # correcting before measuring equals measuring the conjugated element:
    # for the named correction permutations C and equator elements W,
    # Pi_C P(W) Pi_C^T = P(C W C^T) as explicit diagonal matrices
    for cname in ("X", "Z"):
        perm = Permutation.local(2, 1, cname)
        for quarter in range(4):
            e = angle_element(2, 1, quarter)
            lhs = _perm_matrix_conj(perm, _projector_diag(e))
            rhs = _projector_diag(perm.conj_element(e))
            assert lhs == rhs


def test_adapt_quarter_is_pauli_conjugation():
    # the one angle-adaptation rule agrees with conjugating the measured
    # element by the pending flips, on every quarter and flip pair
    for q, sx, sz in itertools.product(range(4), (0, 1), (0, 1)):
        flips = Permutation.pauli(1, sx, sz)
        assert (angle_element(1, 0, adapt_quarter(q, sx, sz))
                == flips.conj_element(angle_element(1, 0, q)))


def test_adapted_equals_physical_everywhere():
    graph = OpenGraph.line(4)
    pattern = Pattern(graph, {0: 1, 1: 2, 2: 3})
    for g in SINGLES[:3]:
        a = {b["output_state"].canonical
             for b in enumerate_branches(pattern, g)}
        p = {b["output_state"].canonical
             for b in enumerate_branches(pattern, g, physical=True)}
        assert a == p


# -- the whole-graph run, kept as the reference --------------------------------

class _WholeGraphRun:
    """The earlier execution: entangle the whole graph state, then
    measure it vertex by vertex.  Pending corrections are bit masks over
    vertex indices."""

    def __init__(self, pattern, input_group, physical):
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

    def element(self, u, sx, sz):
        i = self.idx[u]
        q = self.pattern.angles[u]
        if not self.physical:
            q = adapt_quarter(q, (sx >> i) & 1, (sz >> i) & 1)
        return angle_element(self.n, i, q)

    def correct(self, u, out, state, sx, sz):
        if not out:
            return state, sx, sz
        x, z = self.fixes[u]
        if not self.physical:
            return state, sx ^ x, sz ^ z
        if x or z:
            state = Permutation.pauli(self.n, x, z).conjugate(state)
        return state, sx, sz

    def result(self, state, sx, sz, outcomes, prob):
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


def live_outcomes(state, e):
    """The earlier ``mbtc.live_outcomes``: (outcome, post, probability)
    for each outcome of measuring ``e`` that can occur; a deterministic
    outcome leaves the state as it was."""
    out, post, p = measure_element(state, e, force=0)
    if p == 0:
        return [(1, state, Fraction(1))]
    if p == 1:
        return [(out, post, p)]
    return [(out, post, p), measure_element(state, e, force=1)]


def reference_run(pattern, input_group=None, *, rng=None, forced=None,
                  physical=False):
    """The earlier run_pattern, on the whole graph state."""
    run = _WholeGraphRun(pattern, input_group, physical)
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


def reference_enumeration(pattern, input_group=None, physical=False):
    """The earlier enumerate_branches, on the whole graph state."""
    run = _WholeGraphRun(pattern, input_group, physical)
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
    return sorted((run.result(*leaf) for leaf in leaves),
                  key=lambda res: sum(res["outcomes"][v] << i
                                      for i, v in enumerate(order)))


# -- the branch walker against brute force ------------------------------------

def reference_branches(pattern, input_group=None, physical=False):
    """Brute force: one forced whole-graph run per outcome vector, first
    measured vertex as bit 0, keeping the branches of nonzero
    probability."""
    g, layer = pattern.resolved_flow()
    order = pattern.measured_order(layer)
    results = []
    for bits in range(1 << len(order)):
        forced = {v: (bits >> i) & 1 for i, v in enumerate(order)}
        res = reference_run(pattern, input_group, forced=forced,
                            physical=physical)
        if res["probability"]:
            results.append(res)
    return results


def _branch_rows(branches):
    return [(list(b["outcomes"].items()), b["probability"],
             list(b["output"].items()),
             b["output_state"].canonical if b["output_state"] else None)
            for b in branches]


def test_enumerate_branches_matches_brute_force():
    cx_inputs = [a.tensor(b) for a, b in itertools.product(SINGLES, repeat=2)]
    cx_inputs.append(_state("+XX\n+ZZ"))
    for name, gp in gate_patterns().items():
        probes = cx_inputs if name == "CX" else SINGLES
        for g in probes:
            for physical in (False, True):
                got = enumerate_branches(gp.pattern, g, physical=physical)
                want = reference_branches(gp.pattern, g, physical=physical)
                assert _branch_rows(got) == _branch_rows(want), \
                    (name, str(g), physical)


def _result_row(res):
    return (res["outcomes"] and list(res["outcomes"].items()),
            res["probability"], res["output"] and list(res["output"].items()),
            None if res["output_state"] is None
            else res["output_state"].canonical)


@st.composite
def _flow_patterns(draw):
    """(pattern, input group or None): an open graph with a gflow on
    n <= 14 shuffled labels, edges in random orientations (one between
    two inputs when asked for), every output measured now and then."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    link_inputs = draw(st.booleans())
    while True:
        n = rng.randint(1, 14)
        labels = rng.sample(range(1000), n)
        inputs = rng.sample(labels, rng.randint(0, min(n, 5)))
        density = rng.random()
        edges = {frozenset(e): e for e in itertools.combinations(labels, 2)
                 if rng.random() < density}
        if link_inputs and len(inputs) > 1:
            edges.setdefault(frozenset(inputs[:2]), tuple(inputs[:2]))
        outputs = rng.sample(labels, rng.randint(0, n))
        graph = OpenGraph(tuple(labels),
                          tuple(e if rng.random() < 0.5 else e[::-1]
                                for e in edges.values()),
                          tuple(inputs), tuple(outputs))
        try:
            find_gflow(graph)
        except ValueError:
            continue
        break
    k = len(inputs)
    input_group = (random_group(rng, k, draw(st.integers(0, k)))
                   if k and draw(st.booleans()) else None)
    angles = {v: rng.randrange(4) for v in labels
              if v not in outputs or rng.random() < 0.3}
    return Pattern(graph, angles), input_group


@settings(max_examples=150, deadline=None)
@given(_flow_patterns(), st.booleans(), st.integers(0, 2**32))
def test_frontier_run_matches_whole_graph_run(case, physical, seed):
    pattern, input_group = case
    rng = random.Random(seed)
    every = {v: rng.randrange(2) for v in pattern.angles}
    some = {v: b for v, b in every.items() if rng.random() < 0.5}
    for forced in (every, some, None):
        got, want = (run(pattern, input_group, rng=random.Random(seed),
                         forced=forced, physical=physical)
                     for run in (run_pattern, reference_run))
        assert _result_row(got) == _result_row(want)
    if len(pattern.angles) <= 8:
        got = enumerate_branches(pattern, input_group, physical=physical)
        want = reference_enumeration(pattern, input_group, physical=physical)
        assert list(map(_result_row, got)) == list(map(_result_row, want))


def _labelled_grid(rng, side):
    """side x side grid on shuffled labels, inputs in the first column,
    outputs in the last."""
    labels = rng.sample(range(1 << 30), side * side)
    at = {(r, c): labels[c * side + r] for r in range(side)
          for c in range(side)}
    edges = [(at[r, c], at[r, c + 1]) for r in range(side)
             for c in range(side - 1)]
    edges += [(at[r, c], at[r + 1, c]) for r in range(side - 1)
              for c in range(side)]
    return OpenGraph(tuple(labels), tuple(edges),
                     inputs=tuple(at[r, 0] for r in range(side)),
                     outputs=tuple(at[r, side - 1] for r in range(side)))


@pytest.mark.parametrize("shape, seed, physical", [
    ("line", 1024, False), ("grid", 1, False), ("grid", 2, True),
    ("grid", 3, False), ("grid", 4, True)])
def test_frontier_run_matches_on_large_patterns(shape, seed, physical):
    rng = random.Random(seed)
    graph = OpenGraph.line(seed) if shape == "line" else _labelled_grid(rng, 8)
    angles = {v: rng.randrange(4) for v in graph.nodes
              if v not in graph.outputs}
    k = len(graph.inputs)
    input_group = random_group(rng, k, rng.randint(0, k))
    pattern = Pattern(graph, angles, flow=find_gflow(graph))
    got, want = (run(pattern, input_group, rng=random.Random(seed),
                     physical=physical)
                 for run in (run_pattern, reference_run))
    assert _result_row(got) == _result_row(want)
    assert got["output_state"].rank == input_group.rank


def test_frontier_rank_does_not_grow_with_the_pattern(monkeypatch):
    # the rows are those of the live frontier, so a longer line measures
    # on no more rows than a shorter one
    measure_rows = mbtc.measure_rows
    peaks = []

    def spy(rows, *args, **kwargs):
        peaks[-1] = max(peaks[-1], len(rows))
        return measure_rows(rows, *args, **kwargs)

    monkeypatch.setattr(mbtc, "measure_rows", spy)
    for n in (256, 1024):
        graph = OpenGraph.line(n)
        angles = {v: v % 4 for v in range(n - 1)}
        for physical in (False, True):
            peaks.append(0)
            run_pattern(Pattern(graph, angles), _state("+Y"),
                        rng=random.Random(n), physical=physical)
    assert peaks == [2, 2, 2, 2]


def test_forced_outcome_must_be_a_bit():
    pattern = Pattern(OpenGraph.line(2), {0: 0})
    for bit in (2, -1, "1"):
        with pytest.raises(ValueError, match="is 0 or 1"):
            run_pattern(pattern, _state("+Z"), forced={0: bit})


def test_forced_outcome_must_name_a_measured_vertex():
    pattern = Pattern(OpenGraph.line(2), {0: 0})
    for vertex in (1, 7):   # the unmeasured output, a vertex not in the graph
        with pytest.raises(ValueError, match="not a measured vertex"):
            run_pattern(pattern, _state("+Z"), forced={0: 0, vertex: 0})


# -- gflow against the per-vertex reference -----------------------------------

def _solve_affine(rows, rhs):
    """The solution x of parity(rows[i] & x) = rhs[i] that is clear on the
    free columns, by forward elimination and back-substitution; None when
    there is none."""
    pivots = []  # (reduced row, rhs bit, pivot)
    for r, y in zip(rows, rhs):
        for rb, yb, _ in pivots:
            if r & (rb & -rb):
                r ^= rb
                y ^= yb
        if r:
            pivots.append((r, y, r & -r))
        elif y:
            return None
    x = 0
    for rb, yb, pb in sorted(pivots, key=lambda t: -t[2]):
        if ((rb & x).bit_count() & 1) != yb:
            x ^= pb
    return x


def reference_gflow(graph, *, best_effort=False):
    """One linear system per unprocessed vertex per layer, each solved
    alone: the layer peeling that find_gflow does with one elimination."""
    nodes = list(graph.nodes)
    inputs = set(graph.inputs)
    g = {}
    layer = {v: 0 for v in graph.outputs}
    processed = set(graph.outputs)
    depth = 0
    while len(processed) < len(nodes):
        depth += 1
        corr = [v for v in nodes if v in processed and v not in inputs]
        unproc = [v for v in nodes if v not in processed]
        found = {}
        for u in unproc:
            rows = []
            rhs = []
            for w in unproc:
                nbrs = graph.neighbors(w)
                rows.append(sum(1 << i for i, c in enumerate(corr) if c in nbrs))
                rhs.append(1 if w == u else 0)
            x = _solve_affine(rows, rhs)
            if x is not None:
                found[u] = frozenset(corr[i] for i in range(len(corr))
                                     if (x >> i) & 1)
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


def whole_layer_gflow(graph, *, best_effort=False):
    """The earlier find_gflow: one elimination per layer over every
    unprocessed vertex and every processed non-input."""
    nodes = graph.nodes
    adjacency = graph.adjacency
    inputs = set(graph.inputs)
    g = {}
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
        dependent = 0
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


def _gflow_or_error(graph, find, best_effort):
    try:
        g, layer = find(graph, best_effort=best_effort)
    except ValueError as exc:
        return str(exc)
    # dict order is part of the result: it fixes the layer order
    return list(g.items()), list(layer.items())


def _random_open_graph(rng):
    n = rng.randint(2, 12)
    nodes = tuple(rng.sample(range(100), n))
    p = rng.random()
    edges = tuple((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
                  if rng.random() < p)
    inputs = tuple(rng.sample(nodes, rng.randint(0, n // 2)))
    outputs = tuple(rng.sample(nodes, rng.randint(0, n)))
    return OpenGraph(nodes, edges, inputs, outputs)


def _grid(side):
    """side x side grid, inputs in the first column, outputs in the last."""
    at = {(r, c): r * side + c for r in range(side) for c in range(side)}
    edges = [(at[r, c], at[r, c + 1]) for r in range(side) for c in range(side - 1)]
    edges += [(at[r, c], at[r + 1, c]) for r in range(side - 1) for c in range(side)]
    return OpenGraph(tuple(range(side * side)), tuple(edges),
                     inputs=tuple(at[r, 0] for r in range(side)),
                     outputs=tuple(at[r, side - 1] for r in range(side)))


def test_find_gflow_matches_reference():
    rng = random.Random(20081)
    graphs = [_random_open_graph(rng) for _ in range(500)]
    graphs += [OpenGraph.line(64), _grid(8)]
    failed = 0
    for graph in graphs:
        for best_effort in (False, True):
            got = _gflow_or_error(graph, find_gflow, best_effort)
            assert got == _gflow_or_error(graph, reference_gflow,
                                          best_effort), (graph, best_effort)
            if best_effort:
                continue
            if isinstance(got, str):
                failed += 1
            else:
                verify_gflow(graph, dict(got[0]), dict(got[1]))
    # graphs with and without a gflow both occur
    assert 100 < failed < len(graphs) - 100


def test_find_gflow_matches_whole_layer_peeling():
    # the boundary-only layers against the earlier whole-layer ones, on
    # graphs too large for the per-vertex reference
    rng = random.Random(404)
    graphs = [_random_open_graph(rng) for _ in range(300)]
    graphs += [OpenGraph.line(256), _labelled_grid(rng, 8),
               _labelled_grid(rng, 12)]
    for graph in graphs:
        for best_effort in (False, True):
            assert (_gflow_or_error(graph, find_gflow, best_effort)
                    == _gflow_or_error(graph, whole_layer_gflow,
                                       best_effort)), (graph, best_effort)


def test_open_graph_adjacency_keeps_equality_and_hash():
    a = OpenGraph((0, 1, 2), ((0, 1), (1, 2)), (0,), (2,))
    b = OpenGraph((0, 1, 2), ((0, 1), (1, 2)), (0,), (2,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.neighbors(1) == {0, 2} and a.neighbors(7) == set()
    assert a.odd_neighborhood([0, 2]) == set()
    assert a != OpenGraph((0, 1, 2), ((0, 1),), (0,), (2,))
    assert "adjacency" not in repr(a)
