import itertools
import random

import pytest

from toystab.algebra import Element, Group, matrix_diag
from toystab.dynamics import (NAMED_PERMS, PERMS, PERM_ID, Permutation,
                              _solve_affine)
from toystab.mbtc import (GatePattern, OpenGraph, Pattern, angle_element,
                          enumerate_branches, find_gflow, gate_patterns,
                          graph_state, run_pattern, verify_gflow)


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


def test_adapted_equals_physical_everywhere():
    graph = OpenGraph.line(4)
    pattern = Pattern(graph, {0: 1, 1: 2, 2: 3})
    for g in SINGLES[:3]:
        a = {b["output_state"].canonical
             for b in enumerate_branches(pattern, g)}
        p = {b["output_state"].canonical
             for b in enumerate_branches(pattern, g, physical=True)}
        assert a == p


# -- the branch walker against brute force ------------------------------------

def reference_branches(pattern, input_group=None, physical=False):
    """Brute force: one forced run per outcome vector, first measured
    vertex as bit 0, keeping the branches of nonzero probability."""
    g, layer = pattern.resolved_flow()
    order = pattern.measured_order(layer)
    results = []
    for bits in range(1 << len(order)):
        forced = {v: (bits >> i) & 1 for i, v in enumerate(order)}
        res = run_pattern(pattern, input_group, forced=forced,
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


# -- gflow against the per-vertex reference -----------------------------------

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
            x, _ = _solve_affine(rows, rhs, len(corr))
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


def test_open_graph_adjacency_keeps_equality_and_hash():
    a = OpenGraph((0, 1, 2), ((0, 1), (1, 2)), (0,), (2,))
    b = OpenGraph((0, 1, 2), ((0, 1), (1, 2)), (0,), (2,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.neighbors(1) == {0, 2} and a.neighbors(7) == set()
    assert a.odd_neighborhood([0, 2]) == set()
    assert a != OpenGraph((0, 1, 2), ((0, 1),), (0,), (2,))
    assert "adjacency" not in repr(a)
