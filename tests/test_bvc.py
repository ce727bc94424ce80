import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from toystab import bvc
from toystab.algebra import Element, Group
from toystab.dynamics import Permutation
from toystab.mbtc import (OpenGraph, Pattern, _cz_gains, _entangled,
                          angle_element, run_pattern, walk)

from conftest import random_group
from test_dynamics import reference_erase
from test_mbtc import live_outcomes

HALF = Fraction(1, 2)


def line_pattern(n, angles):
    graph = OpenGraph(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)),
                      inputs=(), outputs=(n - 1,))
    return Pattern(graph, dict(enumerate(angles)))


PAT3 = line_pattern(3, (0, 1, 0))


# -- wire arithmetic -----------------------------------------------------------

def test_blind_delta_worked_example():
    assert bvc.blind_delta(1, 2, 1) == 2


def test_blind_delta_zero_case():
    assert bvc.blind_delta(0, 0, 0) == 0


def test_blind_delta_uniform_over_pads():
    # for each fixed instruction, uniform pads give a uniform wire value
    for phi in range(4):
        seen = [0] * 4
        for theta in range(4):
            for r in range(2):
                seen[bvc.blind_delta(phi, theta, r)] += 1
        assert seen == [2, 2, 2, 2]


def test_encoding_conversion_is_an_involution():
    for v in range(4):
        assert bvc.quarter_from_formula(bvc.formula_from_quarter(v)) == v
        assert bvc.formula_from_quarter(bvc.quarter_from_formula(v)) == v


@pytest.mark.parametrize("phi, theta, r",
                         list(product(range(4), range(4), range(2))))
def test_rounds_send_blind_delta(phi, theta, r):
    # a one-vertex round has nothing to adapt: the wire carries the
    # blinded angle itself
    pattern = line_pattern(1, (phi,))
    res = bvc.run_blind(pattern, prep={0: {"angle": theta}}, rbits={0: r},
                        forced={0: 0})
    assert res.deltas == ((0, bvc.blind_delta(
        bvc.formula_from_quarter(phi), theta, r)),)


# -- Bob's entangled state -----------------------------------------------------

def _reference_prepared(prep):
    """The product state Bob prepares, checked as an arbitrary group."""
    n = len(prep)
    return Group(n, [
        Element.single(n, i, "Z", bool(spec["dummy"])) if "dummy" in spec
        else angle_element(n, i, bvc.quarter_from_formula(spec["angle"]))
        for i, spec in enumerate(prep)]).require_valid()


def _reference_entangled(prep, edges):
    """The earlier ``Bob.entangle``: the product state conjugated by one
    cz factor per edge."""
    n = len(prep)
    perm = Permutation.identity(n)
    for a, b in edges:
        perm = perm.then(Permutation.controlled(n, "cz", a, b))
    return perm.conjugate(_reference_prepared(prep))


def reference_entangle(prep, edges, deviation=None):
    """The earlier ``Bob(deviation).entangle(Bob.prepare(prep), edges)``:
    the product state of the pads as a group, through ``mbtc._entangled``,
    then the deviation's ``after_entangle`` hook."""
    state = _entangled(len(prep), _reference_prepared(prep).canonical, edges)
    if deviation and deviation.after_entangle:
        state = deviation.after_entangle(state)
    return state


@st.composite
def _pads_and_edges(draw, max_n=10):
    """Angle pads (any formula integer) and +-Z dummies on n <= ``max_n``
    systems, with distinct edges in random orientations."""
    n = draw(st.integers(1, max_n))
    pad = st.one_of(st.integers(-4, 7).map(lambda a: {"angle": a}),
                    st.integers(0, 1).map(lambda d: {"dummy": d}))
    prep = draw(st.lists(pad, min_size=n, max_size=n))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = (draw(st.lists(edge, unique_by=frozenset, max_size=3 * n))
             if n > 1 else [])
    return prep, edges


@settings(max_examples=200, deadline=None)
@given(_pads_and_edges())
def test_bob_entangles_like_cz_conjugation(case):
    # the state a sampled round measures: the pad rows built as a group
    prep, edges = case
    n = len(prep)
    seen = []
    dev = bvc.Deviation(after_entangle=lambda s: seen.append(s) or s)
    state = Group._from_reduced(n, dev._entangled_rows(prep, _cz_gains(edges)))
    assert len(seen) == 1 and seen[0]._known_valid
    assert seen[0].canonical == state.canonical
    assert state.canonical == _reference_entangled(prep, edges).canonical
    assert Group(n, state.generators).violations() == []


@settings(max_examples=200, deadline=None)
@given(_pads_and_edges())
def test_pad_rows_match_prepare_and_entangle(case):
    # the state is built straight into rows; it must be the earlier
    # two-group build and the cz-conjugated pads
    prep, edges = case
    n = len(prep)
    rows = bvc.Deviation()._entangled_rows(prep, _cz_gains(edges))
    assert rows == reference_entangle(prep, edges)._pivots
    assert rows == _reference_entangled(prep, edges)._pivots
    assert all(type(neg) is bool for _, neg in rows.values())
    assert Group(n, [Element.from_interleaved(n, *row)
                     for row in rows.values()]).violations() == []


@settings(max_examples=50, deadline=None)
@given(_pads_and_edges())
def test_pad_rows_hand_the_hook_the_entangled_state(case):
    prep, edges = case
    n = len(prep)
    seen = []
    flip = Permutation.local(n, n - 1, "X")

    def hook(state):
        seen.append(state)
        return flip.conjugate(state)

    rows = bvc.Deviation(after_entangle=hook)._entangled_rows(
        prep, _cz_gains(edges))
    want = reference_entangle(prep, edges)
    assert len(seen) == 1 and seen[0]._known_valid
    assert seen[0].canonical == want.canonical
    assert rows == flip.conjugate(want)._pivots


def _result_or_error(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def _row_hook_cases(draw):
    """Pads and edges on n <= 8 systems, with an extremal site, a Pauli
    assignment or a factor list that may reach past the register, and
    the deviation's action on a group computed without its rows."""
    prep, edges = draw(_pads_and_edges(8))
    n = len(prep)
    kind = draw(st.sampled_from(("extremal", "pauli", "factors")))
    site = st.integers(-1, n)
    if kind == "extremal":
        k = draw(site)
        return prep, edges, bvc.extremal_deviation(k), \
            lambda state: reference_swap_in(state, k)
    if kind == "pauli":
        assignments = draw(st.dictionaries(
            site, st.one_of(st.sampled_from(_PERM_NAMES), st.integers(0, 24)),
            max_size=3))
        perm = lambda m: Permutation(m, sum(
            (Permutation.local(m, k, name).factors
             for k, name in assignments.items()), ()))
        dev = bvc.pauli_deviation(assignments)
    else:
        # a factor list parsed for n or n + 1 systems
        size = draw(st.sampled_from((n, n + 1)))
        one = st.integers(1, size)
        local = st.builds(lambda s, p: {"site": s, "perm": p},
                          one, st.integers(0, 23))
        factor = local if size == 1 else st.one_of(local, st.builds(
            lambda kind, sites: {kind: sites},
            st.sampled_from(("cz", "cx", "cy")),
            st.lists(one, min_size=2, max_size=2, unique=True)))
        spec = draw(st.lists(factor, min_size=1, max_size=4))
        perm = lambda m: Permutation.from_json(size, spec)
        dev = bvc.deviation_from_factors(spec, size)
    return prep, edges, dev, lambda state: Group(state.n, [
        perm(state.n).conj_element(e) for e in state.canonical])


@settings(max_examples=300, deadline=None)
@given(_row_hook_cases())
def test_row_hooks_match_their_group_form(case):
    # Bob runs a built-in hook's row action; the hook called on the group
    # of the same rows, with its result checked, must give the same rows
    # or the same error, and so must the action computed element by
    # element
    prep, edges, dev, reference = case
    n = len(prep)
    rows = bvc.Deviation()._entangled_rows(prep, _cz_gains(edges))
    before = dict(rows)
    state = Group._from_reduced(n, rows)
    got = _result_or_error(lambda: dev._entangled_rows(prep, _cz_gains(edges)))
    assert got == _result_or_error(
        lambda: bvc._held_rows(dev.after_entangle(state), n))
    assert got == _result_or_error(lambda: reference(state)._pivots)
    assert rows == before
    if isinstance(got, dict):
        assert Group(n, [Element.from_interleaved(n, *row)
                         for row in got.values()]).violations() == []


def test_a_replaced_row_hook_runs_the_new_hook():
    seen = []

    def hook(state):
        seen.append(state)
        return state

    dev = dataclasses.replace(bvc.extremal_deviation(1), after_entangle=hook)
    prep, edges = [{"angle": 1}, {"angle": 2}, {"dummy": 1}], [(0, 1), (1, 2)]
    assert dev._entangled_rows(prep, _cz_gains(edges)) == \
        bvc.Deviation()._entangled_rows(prep, _cz_gains(edges))
    assert len(seen) == 1
    # an honest server is always accepted, and the deviation is credited
    # with corrupting; the swap-in would be caught 1/6 of the time
    assert bvc.exact_pfail(PAT3, dev) == 1
    assert bvc.exact_pfail(PAT3, bvc.extremal_deviation(1)) == Fraction(5, 6)


def test_honest_and_flip_all_walks_build_no_group(monkeypatch):
    built = []
    real_init = Group.__init__
    real_from_reduced = Group._from_reduced.__func__
    monkeypatch.setattr(Group, "__init__", lambda self, *args: built.append(
        "init") or real_init(self, *args))
    monkeypatch.setattr(Group, "_from_reduced", classmethod(
        lambda cls, *args: built.append("rows") or real_from_reduced(
            cls, *args)))
    plan = bvc._Plan(PAT3, 0)
    prep = {0: {"angle": 3}, 1: {"dummy": 1}, 2: {"angle": 2}}
    for dev in (bvc.Deviation(), bvc.flip_all_deviation()):
        assert list(bvc._walk_rounds(plan, prep, dev, (0, 1)))
    assert built == []
    # the built-in after_entangle hooks act on the rows
    for dev in (bvc.extremal_deviation(2), bvc.pauli_deviation({0: "Y"}),
                bvc.deviation_from_factors([{"cx": [1, 3]}], 3)):
        assert list(bvc._walk_rounds(plan, prep, dev, (0,)))
    assert built == []


# -- the extremal swap-in on rows against erase + extended --------------------

def reference_swap_in(state, site):
    """The earlier extremal swap-in: erase the site (partial trace, then
    embed), then extend the group by +X there."""
    cleared = reference_erase(state, [site])
    return cleared.extended(Element.single(state.n, site, "X"))


@st.composite
def _valid_states(draw):
    """A valid state of any rank on n <= 10 systems."""
    n = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return random_group(rng, n, draw(st.integers(0, n)))


@settings(max_examples=200, deadline=None)
@given(_valid_states())
def test_row_swap_in_matches_erase_then_extend(state):
    n = state.n
    before = dict(state._pivots)
    for site in range(n):
        got = bvc.extremal_deviation(site).after_entangle(state)
        want = reference_swap_in(state, site)
        assert got.canonical == want.canonical
        assert got._pivots == want._pivots
        assert got._known_valid
        assert Group(n, got.generators).violations() == []
        assert state._pivots == before
    for site in (-1, n, n + 3):
        message = f"site {site} out of range for n={n}"
        for swap_in in (bvc.extremal_deviation(site).after_entangle,
                        lambda state: reference_swap_in(state, site)):
            with pytest.raises(ValueError, match=message):
                swap_in(state)


def test_swap_in_rejects_an_invalid_state():
    bad = Group.parse("+ZI\n+XI")
    for swap_in in (bvc.extremal_deviation(1).after_entangle,
                    lambda state: reference_swap_in(state, 1)):
        with pytest.raises(ValueError, match="incompatible pair"):
            swap_in(bad)


# -- correctness ---------------------------------------------------------------

def _output_distribution(pattern, runner, **kw):
    measured = list(pattern.graph.nodes)
    dist = {}
    for bits in product(range(2), repeat=len(measured)):
        res = runner(pattern, forced=dict(zip(measured, bits)), **kw)
        if res.probability:
            dist[res.output] = dist.get(res.output, Fraction(0)) \
                + res.probability
    assert sum(dist.values()) == 1
    return dist


def test_delegated_matches_local_run():
    for seed in range(40):
        r1 = bvc.run_delegated(PAT3, rng=random.Random(seed))
        r2 = run_pattern(PAT3, rng=random.Random(seed))
        assert dict(r1.decoded) == r2["outcomes"]


def test_delegated_transcript_shape():
    res = bvc.run_delegated(PAT3, rng=random.Random(0))
    assert len(res.deltas) == len(res.raw) == 3
    assert res.accept is None


def test_blind_correctness_every_pad():
    reference = _output_distribution(PAT3, bvc.run_delegated)
    nodes = PAT3.graph.nodes
    for thetas in product(range(4), repeat=3):
        for rvals in product(range(2), repeat=3):
            prep = {v: {"angle": thetas[v]} for v in nodes}
            rbits = dict(zip(nodes, rvals))
            dist = _output_distribution(PAT3, bvc.run_blind,
                                        prep=prep, rbits=rbits)
            assert dist == reference, (thetas, rvals)


def test_quantum_inputs_rejected():
    graph = OpenGraph.line(2)
    with pytest.raises(ValueError, match="no quantum inputs"):
        bvc.run_blind(Pattern(graph, {0: 0, 1: 0}), rng=random.Random(0))


# -- verification --------------------------------------------------------------

def test_honest_verified_accepts_always():
    for trap in PAT3.graph.nodes:
        total = Fraction(0)
        for w, res in bvc._plan_rounds(bvc._Plan(PAT3, trap),
                                       bvc.Deviation()):
            assert res.accept
            total += w
        assert total == 1


def test_honest_pfail_zero():
    assert bvc.exact_pfail(PAT3, bvc.Deviation()) == 0


def test_extremal_adversary_hits_bound():
    bound = 1 - Fraction(1, 6)
    for site in range(3):
        assert bvc.exact_pfail(PAT3, bvc.extremal_deviation(site)) == bound


def test_flip_all_always_detected():
    # flipping every outcome flips the trap too, so no run is accepted
    dev = bvc.flip_all_deviation()
    for trap in PAT3.graph.nodes:
        for w, res in bvc._plan_rounds(bvc._Plan(PAT3, trap), dev):
            assert not res.accept


def deviation_family(n=3):
    return [
        bvc.Deviation(),
        bvc.flip_all_deviation(),
        bvc.pauli_deviation({1: "Z"}),
        bvc.pauli_deviation({0: "X", 2: "Y"}),
        bvc.instruction_conditioned_deviation(
            lambda site, q: "Z" if q == 1 else None),
        bvc.deviation_from_factors([{"site": 2, "perm": "H"}], n),
    ]


def test_deviation_family_respects_bound():
    bound = 1 - Fraction(1, 6)
    for dev in deviation_family():
        assert bvc.exact_pfail(PAT3, dev) <= bound


PAT4 = line_pattern(4, (0, 1, 0, 2))


def test_trap_bound_exact_four_nodes():
    # the extremal adversary reaches 1 - 1/(2n) exactly, here at n = 4
    assert bvc.exact_pfail(PAT4, bvc.Deviation()) == 0
    for site in range(4):
        assert bvc.exact_pfail(PAT4, bvc.extremal_deviation(site)) \
            == Fraction(7, 8)


PAT5 = line_pattern(5, (0, 1, 0, 2, 3))


def test_trap_bound_exact_five_nodes():
    # and 9/10 at n = 5, affordable because the blinding bits fold out
    assert bvc.exact_pfail(PAT5, bvc.Deviation()) == 0
    for site in range(5):
        assert bvc.exact_pfail(PAT5, bvc.extremal_deviation(site)) \
            == Fraction(9, 10)


@pytest.mark.parametrize("n", (6, 7, 8))
def test_trap_bound_exact_six_to_eight_nodes(n):
    # reachable because the pads outside the swap-in's site are deferred
    pattern = line_pattern(n, (0, 1, 0, 2, 3, 1, 0, 0)[:n])
    assert bvc.exact_pfail(pattern, bvc.Deviation()) == 0
    assert bvc.exact_pfail(pattern, bvc.flip_all_deviation()) == 0
    for site in range(n):
        assert bvc.exact_pfail(pattern, bvc.extremal_deviation(site)) \
            == bvc.trap_bound(pattern) == 1 - Fraction(1, 2 * n)


def test_monte_carlo_agrees_with_exact():
    dev = bvc.extremal_deviation(1)
    exact = bvc.exact_pfail(PAT3, dev)
    est = bvc.estimate_pfail(PAT3, dev, rng=random.Random(5), trials=4000)
    lo, hi = est["interval"]
    assert lo <= float(exact) <= hi


def test_fuzzer_deviation_runs_under_bound():
    dev = bvc.fuzzer_deviation(random.Random(9))
    est = bvc.estimate_pfail(PAT3, dev, rng=random.Random(10), trials=500)
    assert 0 <= est["estimate"] <= 1


def test_flip_outcome_xors_a_bit_per_site():
    dev = bvc.Deviation(flip_outcome=lambda site: int(site == 1))
    res = bvc.run_delegated(PAT3, forced={0: 0, 1: 0, 2: 0}, deviation=dev)
    assert res.raw == (0, 1, 0)


def test_reads_instruction_follows_the_hooks():
    assert [dev.reads_instruction for dev in deviation_family()] \
        == [False, False, False, False, True, False]
    assert not bvc.extremal_deviation(0).reads_instruction
    assert bvc.fuzzer_deviation(random.Random(0)).reads_instruction
    with pytest.raises(AttributeError):
        bvc.Deviation().reads_instruction = True


def test_wilson_interval():
    lo, hi = bvc.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert bvc.wilson_interval(0, 0) == (0.0, 1.0)


# -- blindness -----------------------------------------------------------------

def test_blindness_exact():
    d1 = bvc.server_view_distribution(PAT3)
    d2 = bvc.server_view_distribution(line_pattern(3, (2, 3, 1)))
    assert bvc.view_distance(d1, d2) == 0


def test_outcome_marginals_are_half():
    d = bvc.server_view_distribution(PAT3)
    for pos in range(3):
        m = sum(w for (deltas, raw), w in d.items() if raw[pos] == 0)
        assert m == HALF


def test_alice_footprint_is_small():
    res = bvc.run_blind(PAT3, rng=random.Random(0))
    # a handful of mod-4 / bit operations per measured vertex
    assert 0 < res.alice_ops <= 8 * len(PAT3.graph.nodes)


# -- the exact walker against brute force -------------------------------------

def _reference_measured(graph, trap, dummies):
    comp = [v for v in graph.nodes if v != trap and v not in dummies]
    return comp + ([trap] if trap is not None else [])


def reference_rounds(pattern, *, trap=None, deviation=None):
    """Brute force: one whole round per pad, blinding and forced-outcome
    vector, keeping the rounds of nonzero probability."""
    graph = pattern.graph
    plan = bvc._Plan(pattern, trap)
    dummies = sorted(graph.neighbors(trap)) if trap is not None else []
    measured = _reference_measured(graph, trap, dummies)
    padded = [v for v in graph.nodes if v not in dummies]
    pad_weight = Fraction(1, 4 ** len(padded) * 2 ** len(dummies)
                          * 2 ** len(measured))
    for thetas in product(range(4), repeat=len(padded)):
        for dbits in product(range(2), repeat=len(dummies)):
            prep = {v: {"angle": t} for v, t in zip(padded, thetas)}
            prep.update({d: {"dummy": b} for d, b in zip(dummies, dbits)})
            for rvals in product(range(2), repeat=len(measured)):
                rbits = {v: 0 for v in graph.nodes}
                rbits.update(zip(measured, rvals))
                for bits in product(range(2), repeat=len(measured)):
                    res = bvc._run_round(plan, prep, rbits,
                                         forced=dict(zip(measured, bits)),
                                         deviation=deviation)
                    if res.probability:
                        yield pad_weight * res.probability, res


def reference_support(pattern, trap=None):
    graph = pattern.graph
    dummies = graph.neighbors(trap) if trap is not None else set()
    measured = _reference_measured(graph, trap, dummies)
    prep = {v: ({"dummy": 0} if v in dummies else {"angle": 0})
            for v in graph.nodes}
    rbits = {v: 0 for v in graph.nodes}
    plan = bvc._Plan(pattern, trap)
    support = set()
    for bits in product(range(2), repeat=len(measured)):
        res = bvc._run_round(plan, prep, rbits, bvc.Deviation(),
                             forced=dict(zip(measured, bits)))
        if res.probability:
            support.add(res.output)
    return frozenset(support)


def _round_multiset(rounds):
    return Counter((w, r.deltas, r.raw, tuple(sorted(r.decoded.items())),
                    r.output, r.accept, r.probability, r.alice_ops)
                   for w, r in rounds)


WALKER_FIXTURES = (PAT3, line_pattern(3, (2, 3, 1)))
TRAPS = (None, 0, 1, 2)


@pytest.mark.parametrize("dev_index", range(len(deviation_family())))
def test_walker_matches_brute_force(dev_index):
    dev = deviation_family()[dev_index]
    for pattern in WALKER_FIXTURES:
        for trap in TRAPS:
            got = _round_multiset(
                bvc._plan_rounds(bvc._Plan(pattern, trap), dev))
            want = _round_multiset(
                reference_rounds(pattern, trap=trap, deviation=dev))
            assert got == want, (pattern.angles, trap)


def test_honest_support_matches_brute_force():
    for pattern in WALKER_FIXTURES:
        for trap in TRAPS:
            assert bvc.honest_output_support(pattern, trap) \
                == reference_support(pattern, trap)


def test_bad_counts_rejected():
    with pytest.raises(ValueError, match="trials"):
        bvc.estimate_pfail(PAT3, bvc.Deviation(), rng=random.Random(0),
                           trials=0)


@pytest.mark.parametrize("trials", [2.5, 3.0, True, "3", None])
def test_non_int_trials_rejected(trials):
    with pytest.raises(ValueError, match="trials must be an int"):
        bvc.estimate_pfail(PAT3, bvc.Deviation(), rng=random.Random(0),
                           trials=trials)


def test_sampled_entry_points_need_an_rng():
    for call in (lambda: bvc.run_verified(PAT3),
                 lambda: bvc.run_verified(PAT3, trap=0),
                 lambda: bvc.run_blind(PAT3),
                 lambda: bvc.estimate_pfail(PAT3, bvc.Deviation(), rng=None,
                                            trials=3),
                 lambda: bvc.verified_rounds(PAT3, rng=None)):
        with pytest.raises(ValueError, match="a sampled round needs an rng"):
            call()
    # nothing to draw: the trap and pads are pinned, and both measured
    # vertices neighbour only the dummy, so their outcomes are deterministic
    prep = {0: {"angle": 0}, 1: {"dummy": 1}, 2: {"angle": 3}}
    rbits = {0: 1, 1: 0, 2: 0}
    res = bvc.run_verified(PAT3, trap=0, prep=prep, rbits=rbits)
    assert res.accept is True and res.probability == 1
    # a random outcome still needs one
    with pytest.raises(ValueError, match="random outcome needs an rng"):
        bvc.run_blind(PAT3, prep={v: {"angle": 0} for v in range(3)},
                      rbits={v: 0 for v in range(3)})


def test_verified_rounds_check_the_pattern_on_the_call():
    # no round is drawn: the errors come before the first next()
    empty = Pattern(OpenGraph((), (), outputs=()), {})
    for pattern, message in (
            (empty, "a verified round needs at least one vertex"),
            (Pattern(PAT3.graph, {0: 0, 1: 1}),
             r"vertices without angles: \[2\]"),
            (Pattern(OpenGraph(PAT3.graph.nodes, PAT3.graph.edges,
                               inputs=(0,), outputs=(2,)), PAT3.angles),
             "no quantum inputs")):
        with pytest.raises(ValueError, match=message):
            bvc.verified_rounds(pattern, rng=random.Random(0))


# -- the blinding-bit reduction against the full walk -------------------------

GRAPHS = (
    line_pattern(1, (3,)),
    line_pattern(2, (1, 2)),
    line_pattern(4, (1, 1, 2, 3)),
    Pattern(OpenGraph((0, 1, 2), ((0, 1), (1, 2), (0, 2)), outputs=(2,)),
            {0: 1, 1: 0, 2: 3}),
    Pattern(OpenGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)),
                      outputs=(1, 3)), {0: 2, 1: 1, 2: 0, 3: 1}),
    Pattern(OpenGraph((0, 1, 2, 3), ((0, 1), (2, 3))), {0: 0, 1: 3, 2: 1,
                                                        3: 2}),
)


def full_walk_pfail(pattern, deviation):
    """exact_pfail with every blinding bit walked."""
    total = Fraction(0)
    for trap in pattern.graph.nodes:
        honest = bvc.honest_output_support(pattern, trap)
        for w, res in bvc._plan_rounds(bvc._Plan(pattern, trap),
                                       deviation):
            if res.accept and (deviation.assume_corrupted
                               or res.output not in honest):
                total += w
    return total / len(pattern.graph.nodes)


def full_walk_view(pattern):
    """server_view_distribution with every blinding bit walked."""
    dist = {}
    for w, res in bvc._plan_rounds(bvc._Plan(pattern), bvc.Deviation()):
        key = (res.deltas, res.raw)
        dist[key] = dist.get(key, Fraction(0)) + w
    return dist


@pytest.mark.parametrize("angles", [(0, 1, 0), (2, 3, 1), (0, 1, 0, 2),
                                    (1, 1, 2, 3)])
def test_reduced_pfail_matches_full_walk(angles):
    # the full walk walks every blinding bit and every pad, so this checks
    # both of exact_pfail's reductions
    pattern = line_pattern(len(angles), angles)
    deviations = deviation_family(len(angles)) + [
        bvc.extremal_deviation(site) for site in range(len(angles))]
    for dev in deviations:
        assert bvc.exact_pfail(pattern, dev) == full_walk_pfail(pattern, dev)


@pytest.mark.parametrize("angles", [(0,), (3,), (0, 1), (2, 3), (0, 1, 0),
                                    (2, 3, 1), (0, 1, 0, 2)])
def test_mirrored_view_matches_full_walk(angles):
    pattern = line_pattern(len(angles), angles)
    assert bvc.server_view_distribution(pattern) == full_walk_view(pattern)


@pytest.mark.parametrize("angles", [(0, 1, 0), (2, 3, 1)])
def test_r_class_matches_full_walk_per_pad(angles):
    # per pad, so the pad's own turn of the wire cannot hide a bad mirror
    pattern = line_pattern(len(angles), angles)
    plan = bvc._Plan(pattern)
    for thetas in product(range(4), repeat=len(angles)):
        prep = {v: {"angle": t} for v, t in enumerate(thetas)}
        full, mirrored = Counter(), Counter()
        for _, res in bvc._walk_rounds(plan, prep, bvc.Deviation(), (0, 1)):
            full[res.deltas, res.raw] += res.probability
        for _, res in bvc._walk_rounds(plan, prep, bvc.Deviation(), (0,)):
            for key in bvc._r_class(res):
                mirrored[key] += res.probability
        assert mirrored == full, thetas


@pytest.mark.parametrize("pattern", (line_pattern(3, (0, 1, 0)),
                                     line_pattern(3, (2, 3, 1))) + GRAPHS)
def test_pad_class_matches_full_walk_per_pad(pattern):
    # per pad: the padded walk is the zero-pad walk, leaf by leaf, with
    # each wire turned by its pad and nothing else changed
    graph = pattern.graph
    plan = bvc._Plan(pattern)
    zero = list(bvc._walk_rounds(plan, {v: {"angle": 0} for v in graph.nodes},
                                 bvc.Deviation(), (0,)))
    for thetas in product(range(4), repeat=len(graph.nodes)):
        pad = dict(zip(graph.nodes, thetas))
        want = [(halvings, dataclasses.replace(res, deltas=tuple(
            (u, d ^ pad[u]) for u, d in res.deltas)))
                for halvings, res in zero]
        prep = {v: {"angle": t} for v, t in pad.items()}
        assert list(bvc._walk_rounds(plan, prep, bvc.Deviation(),
                                     (0,))) == want, pad


def test_view_walks_the_outcome_tree_once(monkeypatch):
    # one zero-pad walk per view, not one walk per pad configuration
    calls = []
    entangled_rows = bvc.Deviation._entangled_rows

    def counted(self, states, gains):
        calls.append(tuple(spec["angle"] for spec in states))
        return entangled_rows(self, states, gains)

    monkeypatch.setattr(bvc.Deviation, "_entangled_rows", counted)
    for pattern in GRAPHS:
        calls.clear()
        bvc.server_view_distribution(pattern)
        assert calls == [(0,) * len(pattern.graph.nodes)]


@pytest.mark.parametrize("pattern", GRAPHS + (
    line_pattern(1, (0,)), line_pattern(2, (3, 1)), line_pattern(3, (0, 1, 0)),
    line_pattern(4, (2, 3, 1, 0))))
def test_view_is_uniform_over_every_transcript(pattern):
    # blindness as the paper states it: Bob sees each of the 4 ** n wire
    # tuples and 2 ** n outcome tuples, in Alice's order, with probability
    # 1 / 8 ** n whatever the computation
    n = len(pattern.graph.nodes)
    order = bvc._Plan(pattern).order
    view = bvc.server_view_distribution(pattern)
    assert set(view) == {(tuple(zip(order, wires)), raw)
                         for wires in product(range(4), repeat=n)
                         for raw in product((0, 1), repeat=n)}
    assert len(view) == 8 ** n
    assert set(view.values()) == {Fraction(1, 8 ** n)}
    assert view == fraction_view(pattern)


def test_instruction_reading_deviation_sees_both_blinding_bits():
    seen = []

    def rule(site, quarter):
        seen.append((site, quarter))
        return "Z" if quarter == 1 else None

    bvc.exact_pfail(PAT3, bvc.instruction_conditioned_deviation(rule))
    # the walk asks Bob about both blinding bits of the first measured
    # vertex before it goes deeper: quarters q and q ^ 2 at one site
    (site0, q0), (site1, q1) = seen[:2]
    assert site1 == site0 and q1 == q0 ^ 2


# -- the row walk against the earlier group walk ------------------------------

def reference_outcomes(deviation, state, site, angle):
    """``Deviation._outcomes`` on a group: [(reported outcome, post
    state, probability)] of every outcome that can occur."""
    quarter = bvc.quarter_from_formula(angle)
    if deviation.before_measure:
        state = deviation.before_measure(site, quarter, state)
    e = angle_element(state.n, site, quarter)
    return [(deviation._report(site, out), post, p)
            for out, post, p in live_outcomes(state, e)]


def reference_walk(plan, prep, deviation, rvalues):
    """The earlier ``_walk_rounds``: the same depth-first walk, holding
    Bob's state as a group and each branch's weight as a Fraction."""
    edges = [(plan.site[a], plan.site[b]) for a, b in plan.graph.edges]
    state = reference_entangle([prep[v] for v in plan.graph.nodes], edges,
                               deviation)
    theta = plan.thetas(prep)

    def step(k, node):
        state, prob, sx, sz, ops, link = node
        s = plan.steps[k]
        children = []
        for r in rvalues:
            wire, cost = plan.instruct(s, sx, sz, theta, r)
            for o, post, p in reference_outcomes(deviation, state, s[1],
                                                 wire):
                children.append((post, prob * p, *plan.receive(
                    s, sx, sz, ops + cost, link, wire, o, r)))
        return children

    root = (state, Fraction(1), 0, 0, 0, None)
    for _, prob, _, _, ops, link in walk(root, len(plan.order), step):
        yield plan.result(ops, link, prob)


DEVIATION_KINDS = ("honest", "flip-all", "pauli", "local-ids", "factors",
                   "instruction", "extremal")
_PERM_NAMES = ("I", "X", "Y", "Z", "H")


@st.composite
def _deviations(draw, n):
    kind = draw(st.sampled_from(DEVIATION_KINDS))
    site = st.integers(0, n - 1)
    if kind == "honest":
        return bvc.Deviation()
    if kind == "flip-all":
        return bvc.flip_all_deviation()
    if kind == "pauli":
        return bvc.pauli_deviation(draw(st.dictionaries(
            site, st.sampled_from(("X", "Y", "Z")), min_size=1)))
    if kind == "local-ids":
        return bvc.pauli_deviation(draw(st.dictionaries(
            site, st.integers(0, 23), min_size=1, max_size=2)))
    if kind == "factors":
        local = st.builds(lambda s, p: {"site": s + 1, "perm": p},
                          site, st.integers(0, 23))
        factor = local
        if n > 1:
            pair = st.lists(site, min_size=2, max_size=2, unique=True)
            factor = st.one_of(local, st.builds(
                lambda kind, sites: {kind: [s + 1 for s in sites]},
                st.sampled_from(("cz", "cx", "cy")), pair))
        factors = draw(st.lists(factor, min_size=1, max_size=4))
        dev = bvc.deviation_from_factors(factors, n)
        if draw(st.booleans()):
            # undeclared sites: the hook is walked over every pad
            dev = dataclasses.replace(dev, support=None)
        return dev
    if kind == "instruction":
        table = draw(st.dictionaries(
            st.tuples(site, st.integers(0, 3)), st.sampled_from(_PERM_NAMES)))
        return bvc.instruction_conditioned_deviation(
            lambda s, q: table.get((s, q)))
    return bvc.extremal_deviation(draw(site))


@st.composite
def _patterns(draw, max_n):
    """A line or a small graph on n <= ``max_n`` vertices, with outputs
    and an angle on each vertex."""
    n = draw(st.integers(1, max_n))
    nodes = tuple(range(n))
    if draw(st.booleans()):
        edges = tuple((i, i + 1) for i in range(n - 1))
    else:
        pairs = [(a, b) for a in nodes for b in nodes if a < b]
        edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))
                      if pairs else [])
    outputs = tuple(draw(st.lists(st.sampled_from(nodes), unique=True)))
    angles = dict(enumerate(draw(st.lists(st.integers(0, 3), min_size=n,
                                          max_size=n))))
    return Pattern(OpenGraph(nodes, edges, outputs=outputs), angles)


@st.composite
def _rounds(draw):
    """A pattern on n <= 5 vertices, a trap (or none), pads for it, a
    deviation and the blinding bits."""
    pattern = draw(_patterns(5))
    graph = pattern.graph
    nodes, n = graph.nodes, len(graph.nodes)
    trap = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    dummies = graph.neighbors(trap) if trap is not None else set()
    prep = {v: ({"dummy": draw(st.integers(0, 1))} if v in dummies
                else {"angle": draw(st.integers(0, 3))}) for v in nodes}
    plan = bvc._Plan(pattern, trap)
    rvalues = draw(st.sampled_from([(0,), (0, 1)]))
    return plan, prep, draw(_deviations(n)), rvalues


@settings(max_examples=300, deadline=None)
@given(_rounds())
def test_row_walk_matches_group_walk(case):
    plan, prep, deviation, rvalues = case
    got = list(bvc._walk_rounds(plan, prep, deviation, rvalues))
    want = list(reference_walk(plan, prep, deviation, rvalues))
    assert [res for _, res in got] == want
    for halvings, res in got:
        assert res.probability == Fraction(1, 2 ** halvings)


def test_row_walk_matches_group_walk_on_every_pad():
    # every pad, trap and deviation of a 3-node line, both walks
    pattern = line_pattern(3, (1, 3, 2))
    graph = pattern.graph
    deviations = deviation_family() + [bvc.extremal_deviation(site)
                                       for site in graph.nodes]
    for trap in (None,) + graph.nodes:
        dummies = graph.neighbors(trap) if trap is not None else set()
        plan = bvc._Plan(pattern, trap)
        pads = [v for v in graph.nodes if v not in dummies]
        for thetas in product(range(4), repeat=len(pads)):
            prep = {v: {"dummy": 1} for v in dummies}
            prep.update({v: {"angle": t} for v, t in zip(pads, thetas)})
            for dev in deviations:
                for rvalues in ((0,), (0, 1)):
                    got = [res for _, res in bvc._walk_rounds(
                        plan, prep, dev, rvalues)]
                    assert got == list(reference_walk(plan, prep, dev,
                                                      rvalues))


def test_before_measure_hook_sees_the_held_state():
    # the hook is given Bob's state built from the rows, and what it
    # returns is what gets measured
    seen = []

    def hook(site, quarter, state):
        seen.append(state)
        return Permutation.local(state.n, site, "Z").conjugate(state)

    dev = bvc.Deviation(before_measure=hook)
    plan = bvc._Plan(PAT3)
    prep = {v: {"angle": 0} for v in PAT3.graph.nodes}
    got = [res for _, res in bvc._walk_rounds(plan, prep, dev, (0,))]
    assert got == list(reference_walk(plan, prep, dev, (0,)))
    assert seen and all(state._known_valid for state in seen)
    assert all(Group(s.n, s.generators).violations() == [] for s in seen)


def test_hook_output_is_checked():
    bad = bvc.Deviation(before_measure=lambda site, q, state: Group.parse(
        "+ZII\n+ZII"))
    plan = bvc._Plan(PAT3)
    prep = {v: {"angle": 0} for v in PAT3.graph.nodes}
    with pytest.raises(ValueError, match="linearly dependent"):
        list(bvc._walk_rounds(plan, prep, bad, (0,)))
    wide = bvc.Deviation(after_entangle=lambda state: Group.parse("+ZZZZ"))
    with pytest.raises(ValueError, match="size mismatch"):
        list(bvc._walk_rounds(plan, prep, wide, (0,)))
    # a sampled round checks the after_entangle hook's result the same way
    with pytest.raises(ValueError, match="size mismatch"):
        bvc.run_blind(PAT3, rng=random.Random(0), deviation=wide)
    dependent = bvc.Deviation(after_entangle=lambda state: Group.parse(
        "+ZII\n+ZII"))
    with pytest.raises(ValueError, match="linearly dependent"):
        bvc.run_blind(PAT3, rng=random.Random(0), deviation=dependent)


# -- batched rounds against single rounds -------------------------------------

@st.composite
def _batches(draw):
    """A pattern, a maker of fresh equal deviations, an rng seed and a
    round count.  A fuzzer's maker seeds each hook rng alike."""
    pattern = draw(_patterns(5))
    n = len(pattern.graph.nodes)
    kind = draw(st.sampled_from(("drawn", "site-flip", "fuzzer")))
    if kind == "fuzzer":
        seed = draw(st.integers(0, 1 << 16))
        rate = draw(st.sampled_from((0.3, 1.0)))

        def make():
            return bvc.fuzzer_deviation(random.Random(seed), rate)
    else:
        if kind == "site-flip":
            flips = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            dev = bvc.Deviation(flip_outcome=flips.__getitem__)
        else:
            dev = draw(_deviations(n))

        def make():
            return dev
    return pattern, make, draw(st.integers(0, 1 << 32)), draw(
        st.integers(1, 25))


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_batched_rounds_match_single_rounds(case):
    pattern, make, seed, count = case
    batch_rng, single_rng = random.Random(seed), random.Random(seed)
    got = list(islice(bvc.verified_rounds(pattern, rng=batch_rng,
                                          deviation=make()), count))
    single = make()
    want = [bvc.run_verified(pattern, rng=single_rng, deviation=single)
            for _ in range(count)]
    # a verified round measures its trap last
    assert got == [(res.deltas[-1][0], res) for res in want]
    assert batch_rng.getstate() == single_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(_patterns(5), st.data(), st.integers(0, 1 << 32))
def test_delegated_round_is_the_zero_pad_blind_round(pattern, data, seed):
    # an unblinded round differs from the blind round with every pad and
    # blinding bit 0 only in Alice's count: 1 operation per instruction
    # instead of 3
    deviation = data.draw(_deviations(len(pattern.graph.nodes)))
    nodes = pattern.graph.nodes
    rng, zero_rng = random.Random(seed), random.Random(seed)
    got = bvc.run_delegated(pattern, rng=rng, deviation=deviation)
    want = bvc.run_blind(pattern, rng=zero_rng, deviation=deviation,
                         prep={v: {"angle": 0} for v in nodes},
                         rbits=dict.fromkeys(nodes, 0))
    assert got == dataclasses.replace(
        want, alice_ops=want.alice_ops - 2 * len(want.deltas))
    assert rng.getstate() == zero_rng.getstate()


def test_batched_rounds_build_one_plan_per_trap(monkeypatch):
    built = []
    init = bvc._Plan.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bvc._Plan, "__init__", counted)
    rounds = list(islice(bvc.verified_rounds(PAT3, rng=random.Random(1)),
                         200))
    assert {trap for trap, _ in rounds} == set(PAT3.graph.nodes)
    assert len(built) <= 3
    # the Monte Carlo estimate draws its rounds the same way; the extremal
    # deviation is credited with corrupting, so no honest support is built
    built.clear()
    bvc.estimate_pfail(PAT3, bvc.extremal_deviation(1), rng=random.Random(2),
                       trials=200)
    assert len(built) <= 3
    # and reads each honest support from the plan that drew the round
    for dev in (bvc.Deviation(), bvc.flip_all_deviation(),
                bvc.pauli_deviation({1: "Z"})):
        built.clear()
        bvc.estimate_pfail(PAT3, dev, rng=random.Random(2), trials=200)
        assert len(built) <= 3
    # a single round builds its own plan
    built.clear()
    bvc.run_verified(PAT3, rng=random.Random(3))
    assert len(built) == 1


def test_exact_pfail_builds_one_plan_per_trap(monkeypatch):
    built = []
    init = bvc._Plan.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bvc._Plan, "__init__", counted)
    # the honest support and the enumeration share each trap's plan
    for dev in (bvc.Deviation(), bvc.pauli_deviation({0: "X"}),
                bvc.extremal_deviation(1)):
        built.clear()
        bvc.exact_pfail(PAT3, dev)
        assert [args[1] for args in built] == [0, 1, 2]


# -- integer weights against Fraction sums ------------------------------------

def fraction_pfail(pattern, deviation):
    """The earlier exact_pfail: Fraction weights summed leaf by leaf."""
    rvalues = (0, 1) if deviation.reads_instruction else (0,)
    total = Fraction(0)
    for trap in pattern.graph.nodes:
        honest = bvc.honest_output_support(pattern, trap)
        for w, res in bvc._plan_rounds(bvc._Plan(pattern, trap), deviation,
                                       rvalues):
            if res.accept and (deviation.assume_corrupted
                               or res.output not in honest):
                total += w
    return total / len(pattern.graph.nodes)


def fraction_view(pattern):
    """The earlier server_view_distribution: Fraction shares per key."""
    dist = {}
    for w, res in bvc._plan_rounds(bvc._Plan(pattern), bvc.Deviation(),
                                   rvalues=(0,)):
        share = w / 2 ** len(res.raw)
        for key in bvc._r_class(res):
            dist[key] = dist.get(key, Fraction(0)) + share
    return dist


def _audited(pattern, rng):
    """Every deviation kind on ``pattern``: the family (on three nodes or
    more), a Pauli Y and Pauli deviations with random local ids at one and
    two sites, a factor file with and without a declared support, an
    instruction rule and the swap-in at every site, each with
    ``assume_corrupted`` both ways.  The instruction rule walks every pad
    on both sides of a comparison, so it is taken once."""
    nodes = pattern.graph.nodes
    sites = range(len(nodes))
    family = (deviation_family(len(nodes)) if len(nodes) >= 3
              else deviation_family()[:2])
    family = [dev for dev in family if not dev.reads_instruction]
    factors = bvc.deviation_from_factors([{"site": len(nodes), "perm": "H"}],
                                         len(nodes))
    deviations = family + [
        bvc.pauli_deviation({nodes[0]: "Y"}),
        bvc.pauli_deviation({rng.choice(sites): rng.randrange(24)}),
        bvc.pauli_deviation(dict(zip(rng.sample(sites, min(2, len(nodes))),
                                     (rng.randrange(24), rng.randrange(24))))),
        factors,
        dataclasses.replace(factors, support=None),
        bvc.instruction_conditioned_deviation(
            lambda site, q: "X" if q in (1, 2) else None),
    ] + [bvc.extremal_deviation(site) for site in sites]
    if len(nodes) > 1:
        # a hook acting across the two sites it declares
        deviations.append(bvc.deviation_from_factors(
            [{"cx": [2, 1]}, {"site": 2, "perm": "H"}], len(nodes)))
    return [dataclasses.replace(dev, assume_corrupted=flag)
            for dev in deviations
            for flag in ((False,) if dev.reads_instruction else (False, True))]


@pytest.mark.parametrize("pattern", GRAPHS)
def test_integer_pfail_matches_fraction_sum(pattern):
    # the reference walks every pad, so this also checks that exact_pfail
    # loses nothing by walking only the pads of a deviation's support
    for dev in _audited(pattern, random.Random(len(pattern.graph.edges))):
        got = bvc.exact_pfail(pattern, dev)
        assert type(got) is Fraction
        assert got == fraction_pfail(pattern, dev)


@pytest.mark.parametrize("pattern", GRAPHS)
def test_integer_view_matches_fraction_sum(pattern):
    got = bvc.server_view_distribution(pattern)
    want = fraction_view(pattern)
    assert got == want and list(got) == list(want)
    assert all(type(w) is Fraction for w in got.values())


@pytest.mark.parametrize("trap", (None, 0, 1, 2))
@pytest.mark.parametrize("rvalues", ((0,), (0, 1)))
def test_enumerated_weights_are_pad_times_branch(trap, rvalues):
    # the weight in halvings is the earlier pad weight times the branch's
    graph = PAT3.graph
    dummies = graph.neighbors(trap) if trap is not None else set()
    measured = len(graph.nodes) - len(dummies)
    pad_weight = Fraction(1, 4 ** (len(graph.nodes) - len(dummies))
                          * 2 ** len(dummies) * len(rvalues) ** measured)
    total = Fraction(0)
    for w, res in bvc._plan_rounds(bvc._Plan(PAT3, trap), bvc.Deviation(),
                                   rvalues=rvalues):
        assert w == pad_weight * res.probability
        total += w
    assert total == 1


# -- pad deferral against the full walk ----------------------------------------

@st.composite
def _audits(draw):
    """A pattern on n <= 4 vertices and a deviation of any kind."""
    pattern = draw(_patterns(4))
    deviation = draw(_deviations(len(pattern.graph.nodes)))
    return pattern, dataclasses.replace(deviation,
                                        assume_corrupted=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_audits())
def test_deferred_pfail_matches_every_pad_on_drawn_graphs(case):
    pattern, dev = case
    assert bvc.exact_pfail(pattern, dev) == fraction_pfail(pattern, dev)


def _alice_reads(rounds):
    """What ``exact_pfail`` reads of each round: its weight in halvings
    and Alice's decoded bits, verdict and output."""
    return Counter((halvings, tuple(sorted(res.decoded.items())), res.accept,
                    res.output) for halvings, res in rounds)


def _deferred_prep(plan, prep, support):
    """The configuration the deferred walk stands ``prep`` for: every pad
    and dummy bit outside ``support`` zeroed, and the half turn each
    zeroed -Z dummy gave a measured neighbour in ``support`` moved onto
    that neighbour's pad (the sign bit of its formula angle)."""
    inside = {v for v in prep if plan.site[v] in support}
    out = {v: dict(spec) if v in inside else
           {"dummy": 0} if "dummy" in spec else {"angle": 0}
           for v, spec in prep.items()}
    for d, spec in prep.items():
        if spec.get("dummy") and d not in inside:
            for w in plan.graph.adjacency[d]:
                if w in inside and "angle" in out[w]:
                    out[w]["angle"] ^= 1
    return out


@pytest.mark.parametrize("pattern", GRAPHS)
def test_hook_free_rounds_read_the_same_on_every_pad(pattern):
    # empty support: whatever the pads, Alice reads what the zero pads give
    graph = pattern.graph
    for dev in (bvc.Deviation(), bvc.flip_all_deviation()):
        for trap in (None,) + graph.nodes:
            dummies = graph.neighbors(trap) if trap is not None else set()
            plan = bvc._Plan(pattern, trap)
            zero = {v: {"dummy": 0} if v in dummies else {"angle": 0}
                    for v in graph.nodes}
            assert _deferred_prep(plan, zero, frozenset()) == zero
            want = _alice_reads(bvc._walk_rounds(plan, zero, dev, (0,)))
            pads = [v for v in graph.nodes if v not in dummies]
            for thetas in product(range(4), repeat=len(pads)):
                for dbits in product(range(2), repeat=len(dummies)):
                    prep = {v: {"angle": t} for v, t in zip(pads, thetas)}
                    prep.update({d: {"dummy": b}
                                 for d, b in zip(dummies, dbits)})
                    got = _alice_reads(bvc._walk_rounds(plan, prep, dev,
                                                        (0,)))
                    assert got == want, (trap, prep)


@settings(max_examples=300, deadline=None)
@given(_rounds())
def test_supported_rounds_read_as_their_deferred_pads(case):
    # per pad configuration: a hook with a declared support reads as the
    # configuration it is deferred to
    plan, prep, deviation, rvalues = case
    support = bvc._walked_support(deviation, len(plan.site))
    if support is None:
        return
    got = _alice_reads(bvc._walk_rounds(plan, prep, deviation, rvalues))
    want = _alice_reads(bvc._walk_rounds(
        plan, _deferred_prep(plan, prep, support), deviation, rvalues))
    assert got == want


def test_walked_support_follows_the_hooks():
    n = 4
    hook = bvc.pauli_deviation({}).after_entangle
    cases = [
        (bvc.Deviation(), frozenset()),
        (bvc.flip_all_deviation(), frozenset()),
        (bvc.Deviation(support=frozenset({1})), frozenset()),
        (bvc.extremal_deviation(2), frozenset({2})),
        (bvc.pauli_deviation({0: "X", 3: 17}), frozenset({0, 3})),
        (bvc.Deviation(after_entangle=hook), None),
        (bvc.deviation_from_factors([{"site": 1, "perm": "H"}], n),
         frozenset({0})),
        (bvc.deviation_from_factors([{"cy": [4, 2]}], n), frozenset({1, 3})),
        (bvc.instruction_conditioned_deviation(lambda s, q: None), None),
        (bvc.Deviation(after_entangle=hook, support=frozenset({1}),
                       before_measure=lambda s, q, state: state), None),
    ]
    for dev, want in cases:
        assert bvc._walked_support(dev, n) == want


@pytest.mark.parametrize("support, message", [
    (frozenset({3}), "site 3 out of range for n=3"),
    (frozenset({-1}), "site -1 out of range for n=3"),
    (frozenset({"1"}), "support site '1' is not an int"),
    (frozenset({True}), "support site True is not an int"),
    (frozenset({1.0}), "support site 1.0 is not an int"),
    ([1], "support must be a set of site indices"),
    (1, "support must be a set of site indices"),
])
def test_declared_support_is_checked(support, message):
    identity = bvc.pauli_deviation({}).after_entangle
    for dev in (bvc.Deviation(after_entangle=identity, support=support),
                bvc.Deviation(support=support),
                bvc.Deviation(before_measure=lambda s, q, state: state,
                              support=support)):
        with pytest.raises(ValueError, match=message):
            bvc.exact_pfail(PAT3, dev)


def test_declared_sites_of_the_built_in_deviations_are_checked():
    # a non-int site is rejected when the deviation is built
    for make, message in (
            (lambda: bvc.extremal_deviation(3), "site 3 out of range"),
            (lambda: bvc.extremal_deviation(-1), "site -1 out of range"),
            (lambda: bvc.pauli_deviation({5: "X"}), "site 5 out of range"),
            (lambda: bvc.pauli_deviation({"0": "X"}), "'0' is not an int")):
        with pytest.raises(ValueError, match=message):
            bvc.exact_pfail(PAT3, make())


# -- bad inputs ----------------------------------------------------------------

def test_verified_rounds_need_a_vertex():
    empty = Pattern(OpenGraph((), ()), {})
    message = "a verified round needs at least one vertex"
    for call in (lambda: bvc.exact_pfail(empty, bvc.Deviation()),
                 lambda: bvc.estimate_pfail(empty, bvc.Deviation(),
                                            rng=random.Random(0), trials=5),
                 lambda: bvc.run_verified(empty, rng=random.Random(0)),
                 lambda: bvc.run_verified(empty, rng=random.Random(0),
                                          trap=0),
                 lambda: bvc.trap_bound(empty)):
        with pytest.raises(ValueError, match=message):
            call()
    assert bvc.trap_bound(PAT3) == Fraction(5, 6)


def test_trap_must_be_a_vertex():
    with pytest.raises(ValueError, match="trap 7 is not a vertex"):
        bvc.run_verified(PAT3, rng=random.Random(0), trap=7)
    with pytest.raises(ValueError, match="trap 9 is not a vertex"):
        bvc.honest_output_support(PAT3, 9)


@pytest.mark.parametrize("trap", [True, 1.0, [1], "1", (1,)])
def test_trap_of_another_type_is_rejected(trap):
    # True and 1.0 used to run as vertex 1, and [1] raised TypeError
    for call in (lambda: bvc.honest_output_support(PAT3, trap),
                 lambda: bvc.run_verified(PAT3, rng=random.Random(0),
                                          trap=trap)):
        with pytest.raises(ValueError, match="is not a vertex"):
            call()


def test_vertices_of_mixed_types():
    # a plan lists its dummies in node order, so vertices of different
    # types are never compared
    graph = OpenGraph((0, "a", 2), ((0, "a"), ("a", 2), (0, 2)),
                      outputs=(2,))
    pattern = Pattern(graph, {0: 1, "a": 0, 2: 3})
    for trap in graph.nodes:
        res = bvc.run_verified(pattern, rng=random.Random(0), trap=trap)
        assert res.accept is True
    assert bvc.exact_pfail(pattern, None) == 0
    assert bvc.exact_pfail(pattern, bvc.extremal_deviation(1)) \
        == Fraction(5, 6)


def test_outputs_of_mixed_vertex_types():
    # the output pairs come in node order, so vertices of different types
    # are never compared
    nodes = (0, "a", 2)
    graph = OpenGraph(nodes, ((0, "a"), ("a", 2)), outputs=nodes)
    pattern = Pattern(graph, {0: 1, "a": 0, 2: 3})
    res = bvc.run_blind(pattern, rng=random.Random(0))
    assert [v for v, _ in res.output] == list(nodes)
    assert res.output == tuple((v, res.decoded[v]) for v in nodes)
    for trap in nodes:
        kept = [v for v in nodes if v not in graph.neighbors(trap)]
        res = bvc.run_verified(pattern, rng=random.Random(1), trap=trap)
        assert res.accept is True
        assert [v for v, _ in res.output] == kept
        support = bvc.honest_output_support(pattern, trap)
        assert res.output in support
        assert all([v for v, _ in out] == kept for out in support)
    assert bvc.exact_pfail(pattern, None) == 0
    assert bvc.exact_pfail(pattern, bvc.extremal_deviation(1)) \
        == Fraction(5, 6)


@pytest.mark.parametrize("site", ["a", 1.0, True, None])
def test_pauli_site_is_checked_when_built(site):
    with pytest.raises(ValueError, match=f"site {site!r} is not an int"):
        bvc.pauli_deviation({site: "X"})


def test_none_is_the_honest_deviation():
    assert bvc.exact_pfail(PAT3, None) == 0
    got = bvc.estimate_pfail(PAT3, None, rng=random.Random(4), trials=60)
    want = bvc.estimate_pfail(PAT3, bvc.Deviation(), rng=random.Random(4),
                              trials=60)
    assert got == want and got["fails"] == 0


@pytest.mark.parametrize("deviation", ["honest", 0, {}, bvc.Deviation])
def test_non_deviations_rejected(deviation):
    message = "deviation must be a Deviation or None"
    with pytest.raises(ValueError, match=message):
        bvc.exact_pfail(PAT3, deviation)
    with pytest.raises(ValueError, match=message):
        bvc.estimate_pfail(PAT3, deviation, rng=random.Random(0), trials=5)
    # the sampled entry points check it before any draw
    rng = random.Random(0)
    for call in (bvc.run_verified, bvc.run_blind, bvc.run_delegated,
                 bvc.verified_rounds):
        with pytest.raises(ValueError, match=message):
            call(PAT3, rng=rng, deviation=deviation)
    assert rng.getstate() == random.Random(0).getstate()


def test_view_distance_is_a_fraction():
    assert bvc.view_distance({}, {}) == 0
    assert type(bvc.view_distance({}, {})) is Fraction
    view = bvc.server_view_distribution(PAT3)
    assert type(bvc.view_distance(view, view)) is Fraction
    assert bvc.view_distance(view, {}) == Fraction(1, 2)


def test_every_vertex_needs_an_angle():
    # outputs included: a delegated round measures every vertex
    pattern = Pattern(PAT3.graph, {0: 0, 1: 1})
    for call in (lambda: bvc.run_delegated(pattern, rng=random.Random(0)),
                 lambda: bvc.run_blind(pattern, rng=random.Random(0)),
                 lambda: bvc.run_verified(pattern, rng=random.Random(0),
                                          trap=0),
                 lambda: bvc.exact_pfail(pattern, bvc.Deviation()),
                 lambda: bvc.server_view_distribution(pattern)):
        with pytest.raises(ValueError, match=r"vertices without angles: \[2\]"):
            call()


@pytest.mark.parametrize("forced, message", [
    ({9: 0}, "forced outcome for 9, which is not a measured vertex"),
    ({1: 2}, "forced outcome of 1 is 0 or 1, not 2"),
    ({0: 0, 2: -1}, "forced outcome of 2 is 0 or 1, not -1"),
    ({0: 1.0}, "forced outcome of 0 is 0 or 1, not 1.0"),
    ({0: 0, 2: True}, "forced outcome of 2 is 0 or 1, not True"),
])
def test_sampled_rounds_check_forced_outcomes(forced, message):
    runners = [bvc.run_delegated, bvc.run_blind]
    if 1 not in forced:
        # the one dummy of trap 2 is vertex 1, which is never measured
        runners.append(lambda pattern, **kwargs: bvc.run_verified(
            pattern, trap=2, **kwargs))
    for runner in runners:
        with pytest.raises(ValueError, match=message):
            runner(PAT3, rng=random.Random(0), forced=forced)


def test_forcing_a_dummy_is_rejected():
    # the trap's neighbours are prepared in Z and never measured
    with pytest.raises(ValueError, match="forced outcome for 1, which is "
                       "not a measured vertex"):
        bvc.run_verified(PAT3, rng=random.Random(0), trap=0, forced={1: 0})
    res = bvc.run_verified(PAT3, rng=random.Random(0), trap=0,
                           forced={2: 1})
    assert [u for u, _ in res.deltas] == [2, 0] and res.raw[0] == 1



_ANGLES = {v: {"angle": v} for v in range(3)}
_BITS = {v: 0 for v in range(3)}


@pytest.mark.parametrize("pinned, message", [
    ({"prep": {0: {"angle": 0}, 1: {"angle": 1}}}, "pad of vertex 2 is None"),
    ({"rbits": {0: 0, 1: 0}}, "blinding bit of vertex 2 is None"),
    ({"prep": {**_ANGLES, 1: {}}}, r"pad of vertex 1 is \{\}"),
    ({"prep": {**_ANGLES, 1: {"angle": 1.0}}}, "pad of vertex 1 is"),
    ({"prep": {**_ANGLES, 1: {"angle": True}}}, "pad of vertex 1 is"),
    ({"prep": {**_ANGLES, 2: {"angle": 0, "dummy": 0}}}, "pad of vertex 2 is"),
    ({"prep": {**_ANGLES, 2: {"dummy": 0}}},
     "vertex 2 is pinned with the wrong kind of pad, 'dummy'"),
    ({"rbits": {**_BITS, 0: 2}}, "blinding bit of vertex 0 is 2, not 0 or 1"),
    ({"rbits": {**_BITS, 0: True}}, "blinding bit of vertex 0 is True"),
])
def test_blind_rounds_check_pinned_pads(pinned, message):
    # at the parent these raised KeyError or TypeError, ran a vertex as a
    # dummy, or decoded outcomes 2 and 3; the check holds whether or not
    # the other half is drawn
    for other in ({}, {"prep": _ANGLES, "rbits": _BITS}):
        with pytest.raises(ValueError, match=message):
            bvc.run_blind(PAT3, rng=random.Random(0), **{**other, **pinned})


@pytest.mark.parametrize("prep, rbits, message", [
    # trap 0 has the one neighbour 1, which must be the one dummy: at the
    # parent the first case accepted a trap that was not isolated
    ({**_ANGLES, 2: {"dummy": 0}}, _BITS,
     "vertex 1 is pinned with the wrong kind of pad, 'angle'"),
    ({**_ANGLES, 1: {"dummy": 0}, 2: {"dummy": 1}}, _BITS,
     "vertex 2 is pinned with the wrong kind of pad, 'dummy'"),
    ({**_ANGLES, 1: {"dummy": 2}}, _BITS, "pad of vertex 1 is"),
    ({**_ANGLES, 1: {"dummy": False}}, _BITS, "pad of vertex 1 is"),
    ({**_ANGLES, 1: {"dummy": 0}}, {0: 0, 1: 0}, "blinding bit of vertex 2"),
])
def test_verified_rounds_check_pinned_pads(prep, rbits, message):
    with pytest.raises(ValueError, match=message):
        bvc.run_verified(PAT3, rng=random.Random(0), trap=0, prep=prep,
                         rbits=rbits)


@pytest.mark.parametrize("site", ["a", 1.0, True, None])
def test_extremal_site_is_checked_when_built(site):
    with pytest.raises(ValueError, match=f"site {site!r} is not an int"):
        bvc.extremal_deviation(site)


@pytest.mark.parametrize("k, n", [(-1, 5), (7, 5), (1, 0), (0, -1)])
def test_wilson_interval_needs_k_between_0_and_n(k, n):
    with pytest.raises(ValueError, match=f"need 0 <= k <= n, got k={k}, n={n}"):
        bvc.wilson_interval(k, n)
