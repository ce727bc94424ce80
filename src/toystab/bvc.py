"""Blind and verified delegated computation over measurement patterns.

A classical client (Alice) drives a physical server (Bob) by sending
measurement instructions.  Alice only does arithmetic on quarter-turn
angles and single bits; Bob holds the simulated systems.  Blinding pads
every prepared system with a random quarter rotation and every
instruction with a random outcome key; verification inserts an isolated
trap vertex surrounded by fixed-basis dummies and accepts when the trap
outcome decodes to zero.

Angle encodings: the *quarter* encoding indexes the equator family
(0: X, 1: Y, 2: -X, 3: -Y); the *formula* encoding used on the wire
keeps the sign in the low bit and the basis in the high bit.  The two
are related by swapping bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, NamedTuple

from .algebra import Element, Group
from .dynamics import Permutation, erase, measure_element
from .mbtc import (OpenGraph, Pattern, angle_element, find_gflow,
                   live_outcomes, walk)


def formula_from_quarter(q: int) -> int:
    q %= 4
    return ((q & 1) << 1) | (q >> 1)


def quarter_from_formula(v: int) -> int:
    v %= 4
    return ((v & 1) << 1) | (v >> 1)


def blind_delta(phi: int, theta: int, r: int) -> int:
    """Blinded instruction, all angles in formula encoding."""
    low = (phi & 1) ^ (theta & 1) ^ (r & 1)
    high = ((phi >> 1) ^ (theta >> 1)) & 1
    return (high << 1) | low


# --------------------------------------------------------------------------
# the server
# --------------------------------------------------------------------------

@dataclass
class Deviation:
    """Hooks describing a (possibly dishonest) server strategy.

    ``assume_corrupted`` switches the failure event from "accepted and
    the decoded output left the honest support" to simply "accepted":
    the adversary is credited with having corrupted the computation
    whenever the trap misses it.

    Sampled rounds call each hook once per event.  Exact analysis calls
    ``after_entangle`` once per pad configuration and ``before_measure``
    once per (prefix, r), sharing the result between branches, so it
    assumes deterministic hooks.
    """

    after_entangle: Callable | None = None   # (state) -> state
    before_measure: Callable | None = None   # (site, quarter, state) -> state
    flip_outcome: Callable | None = None     # (site, quarter, outcome) -> outcome
    assume_corrupted: bool = False


class Bob:
    """Honest physical server; a Deviation warps its behavior.

    The server object keeps no state: each call takes the held state and
    returns the next one, so the exact walker can branch on the replies.
    """

    def __init__(self, deviation: Deviation | None = None):
        self.deviation = deviation

    def prepare(self, states) -> Group:
        n = len(states)
        gens = []
        for i, spec in enumerate(states):
            if "dummy" in spec:
                e = Element.single(n, i, "Z", bool(spec["dummy"]))
            else:
                e = angle_element(n, i, quarter_from_formula(spec["angle"]))
            gens.append(e)
        return Group(n, gens).require_valid()

    def entangle(self, state: Group, edges) -> Group:
        perm = Permutation.identity(state.n)
        for a, b in edges:
            perm = perm.then(Permutation.controlled(state.n, "cz", a, b))
        state = perm.conjugate(state)
        dev = self.deviation
        if dev and dev.after_entangle:
            state = dev.after_entangle(state)
        return state

    def _observable(self, state: Group, site: int, quarter: int):
        dev = self.deviation
        if dev and dev.before_measure:
            state = dev.before_measure(site, quarter, state)
        return state, angle_element(state.n, site, quarter)

    def _report(self, site: int, quarter: int, out: int) -> int:
        dev = self.deviation
        if dev and dev.flip_outcome:
            return dev.flip_outcome(site, quarter, out)
        return out

    def measure(self, state: Group, site: int, angle: int, *, rng=None,
                force: int | None = None):
        """(reported outcome, post state, probability) of one outcome."""
        quarter = quarter_from_formula(angle)
        state, e = self._observable(state, site, quarter)
        out, post, p = measure_element(state, e, rng=rng, force=force)
        return self._report(site, quarter, out), post, p

    def outcomes(self, state: Group, site: int, angle: int) -> list:
        """[(reported outcome, post state, probability)] of every outcome
        that can occur."""
        quarter = quarter_from_formula(angle)
        state, e = self._observable(state, site, quarter)
        return [(self._report(site, quarter, out), post, p)
                for out, post, p in live_outcomes(state, e)]


def extremal_deviation(site: int) -> Deviation:
    """Discard the system at ``site`` and substitute a fresh +X system."""

    def swap_in(state: Group) -> Group:
        cleared = erase(state, [site])
        return cleared.extended(Element.single(state.n, site, "X"))

    return Deviation(after_entangle=swap_in, assume_corrupted=True)


def flip_all_deviation() -> Deviation:
    """Bob reports every outcome negated."""
    return Deviation(flip_outcome=lambda site, quarter, o: o ^ 1)


def pauli_deviation(assignments: Mapping) -> Deviation:
    """Apply fixed local permutations (site -> name) after entangling."""

    def warp(state: Group) -> Group:
        perm = Permutation.identity(state.n)
        for site, name in assignments.items():
            perm = perm.then(Permutation.local(state.n, site, name))
        return perm.conjugate(state)

    return Deviation(after_entangle=warp)


def instruction_conditioned_deviation(rule: Callable) -> Deviation:
    """``rule(site, quarter)`` names a local permutation or returns None;
    it is applied to the held state just before that measurement."""

    def warp(site, quarter, state: Group) -> Group:
        name = rule(site, quarter)
        if name is None:
            return state
        return Permutation.local(state.n, site, name).conjugate(state)

    return Deviation(before_measure=warp)


def fuzzer_deviation(rng, rate: float = 0.5) -> Deviation:
    """Random single-site permutation at the measured site, sometimes.

    Its hook draws randomness, so it is for Monte Carlo estimates only.
    """
    from .dynamics import PERMS

    def warp(site, quarter, state: Group) -> Group:
        if rng.random() >= rate:
            return state
        pid = rng.randrange(len(PERMS))
        return Permutation(state.n, (("local", site, pid),)).conjugate(state)

    return Deviation(before_measure=warp)


def deviation_from_factors(spec: list) -> Deviation:
    """User deviation given as a permutation factor list (JSON shape)."""

    def warp(state: Group) -> Group:
        return Permutation.from_json(state.n, spec).conjugate(state)

    return Deviation(after_entangle=warp)


# --------------------------------------------------------------------------
# the client
# --------------------------------------------------------------------------

def _adapt_quarter(q: int, sx: int, sz: int) -> int:
    if sx:
        q = (-q) % 4
    if sz:
        q ^= 2
    return q


@dataclass
class RoundResult:
    deltas: tuple          # (vertex, formula angle) in send order
    raw: tuple             # Bob's reported outcomes, same order
    decoded: dict          # vertex -> decoded outcome
    output: tuple          # decoded outcomes at output vertices, sorted
    accept: bool | None    # trap verdict, None when no trap
    probability: Fraction  # Bob's branch probability
    alice_ops: int         # count of Alice's mod-4 / bit operations


class _Transcript(NamedTuple):
    """Alice's record of a round so far; pending corrections are bit
    masks over vertex indices, so branches share their prefixes."""

    sx: int = 0
    sz: int = 0
    ops: int = 0
    deltas: tuple = ()
    raw: tuple = ()
    decoded: tuple = ()


class _Plan:
    """Alice's fixed schedule of a round: the measurement order, the
    unadapted angles, and the corrections an outcome 1 triggers.

    ``instruct`` and ``receive`` are Alice's per-vertex step, shared by
    the sampled round and the exact walker.
    """

    def __init__(self, graph: OpenGraph, angles: Mapping, dummies, trap,
                 blinded: bool = True):
        if graph.inputs:
            raise ValueError("delegated rounds take no quantum inputs")
        nodes = list(graph.nodes)
        self.site = idx = {v: i for i, v in enumerate(nodes)}
        comp = [v for v in nodes if v not in dummies and v != trap]
        sub = graph.induced(comp)
        pattern = Pattern(sub, {v: angles[v] for v in comp})
        g, layer = (find_gflow(sub, best_effort=True) if comp else ({}, {}))
        order = pattern.measured_order(layer) if comp else []
        self.order = order + [trap] if trap is not None else order
        self.base = {v: 0 if v == trap else angles[v] for v in self.order}
        self.graph, self.trap, self.blinded = graph, trap, blinded
        self.edges = [(idx[a], idx[b]) for a, b in graph.edges]
        # vertex -> (X mask, Z mask, Alice's op count) of its corrections
        self.fixes = {}
        for u, K in g.items():
            flips_z = sub.odd_neighborhood(K) - {u}
            self.fixes[u] = (sum(1 << idx[j] for j in K),
                             sum(1 << idx[j] for j in flips_z),
                             len(K) + len(flips_z))

    def thetas(self, prep: Mapping) -> dict:
        """Each measured vertex's pad angle (quarter encoding), turned by
        half a turn for every neighboring dummy prepared as -Z."""
        if not self.blinded:
            return {}
        zshift = {v: 0 for v in self.graph.nodes}
        for d, spec in prep.items():
            if spec.get("dummy"):
                for w in self.graph.adjacency[d]:
                    zshift[w] ^= 1
        return {u: (quarter_from_formula(prep[u]["angle"]) + 2 * zshift[u]) % 4
                for u in self.order}

    def instruct(self, u, rec: _Transcript, theta: Mapping, r: int):
        """(wire angle, Alice's op count) of the instruction for ``u``."""
        bit = 1 << self.site[u]
        phi = _adapt_quarter(self.base[u], rec.sx & bit, rec.sz & bit)
        if not self.blinded:
            return formula_from_quarter(phi), 1
        return formula_from_quarter(phi ^ theta[u] ^ (r << 1)), 3

    def receive(self, u, rec: _Transcript, wire: int, ops: int, o: int,
                r: int) -> _Transcript:
        """Alice decodes Bob's reply ``o`` and books its corrections."""
        dec = o ^ r if self.blinded else o
        ops += 1
        sx, sz = rec.sx, rec.sz
        if dec and u in self.fixes:
            x, z, n = self.fixes[u]
            sx, sz, ops = sx ^ x, sz ^ z, ops + n
        return _Transcript(sx, sz, rec.ops + ops, rec.deltas + ((u, wire),),
                           rec.raw + (o,), rec.decoded + ((u, dec),))

    def result(self, rec: _Transcript, prob: Fraction) -> RoundResult:
        decoded = dict(rec.decoded)
        accept = None if self.trap is None else decoded[self.trap] == 0
        output = tuple(sorted((v, decoded[v]) for v in self.graph.outputs
                              if v in decoded))
        return RoundResult(rec.deltas, rec.raw, decoded, output, accept,
                           prob, rec.ops)


def _run_round(graph: OpenGraph, angles: Mapping, *, prep: Mapping,
               rbits: Mapping, trap=None, rng=None,
               forced: Mapping | None = None,
               deviation: Deviation | None = None,
               blinded: bool = True) -> RoundResult:
    """One sampled protocol round.

    ``prep`` maps each vertex to {"angle": formula theta} or
    {"dummy": bit}; ``angles`` holds the computation's quarter angles
    for the non-dummy, non-trap vertices; the trap, when present, runs
    at base angle zero with no adaptation.  ``forced`` pins Bob's
    measurement outcomes, and the probability is then the branch weight.
    """
    dummies = {v for v in graph.nodes if "dummy" in prep[v]}
    plan = _Plan(graph, angles, dummies, trap, blinded)
    bob = Bob(deviation)
    state = bob.entangle(bob.prepare([prep[v] for v in graph.nodes]),
                         plan.edges)
    theta = plan.thetas(prep)
    forced = forced or {}
    rec, prob = _Transcript(), Fraction(1)
    for u in plan.order:
        r = rbits[u]
        wire, ops = plan.instruct(u, rec, theta, r)
        if prob:
            o, state, p = bob.measure(state, plan.site[u], wire, rng=rng,
                                      force=forced.get(u))
            prob *= p
        else:
            o = forced.get(u, 0)
        rec = plan.receive(u, rec, wire, ops, o, r)
    return plan.result(rec, prob)


def _sample_pads(graph: OpenGraph, rng, dummies=(), trap=None):
    prep = {}
    rbits = {}
    for v in graph.nodes:
        if v in dummies:
            prep[v] = {"dummy": rng.randrange(2)}
            rbits[v] = 0
        else:
            prep[v] = {"angle": rng.randrange(4)}
            rbits[v] = rng.randrange(2)
    return prep, rbits


def run_delegated(pattern: Pattern, *, rng=None, forced=None,
                  deviation=None) -> RoundResult:
    """Unblinded delegation: Bob sees the true adapted angles."""
    graph = pattern.graph
    prep = {v: {"angle": 0} for v in graph.nodes}
    rbits = {v: 0 for v in graph.nodes}
    return _run_round(graph, pattern.angles, prep=prep, rbits=rbits,
                      rng=rng, forced=forced, deviation=deviation,
                      blinded=False)


def run_blind(pattern: Pattern, *, rng=None, prep=None, rbits=None,
              forced=None, deviation=None) -> RoundResult:
    """Blind delegation: pads chosen by Alice unless pinned explicitly."""
    graph = pattern.graph
    if prep is None or rbits is None:
        sampled = _sample_pads(graph, rng)
        prep = prep if prep is not None else sampled[0]
        rbits = rbits if rbits is not None else sampled[1]
    return _run_round(graph, pattern.angles, prep=prep, rbits=rbits,
                      rng=rng, forced=forced, deviation=deviation)


def run_verified(pattern: Pattern, *, rng=None, trap=None, prep=None,
                 rbits=None, forced=None, deviation=None) -> RoundResult:
    """Blind round with a trap vertex; its neighbors become dummies."""
    graph = pattern.graph
    if trap is None:
        trap = graph.nodes[rng.randrange(len(graph.nodes))]
    dummies = graph.neighbors(trap)
    if prep is None or rbits is None:
        sampled = _sample_pads(graph, rng, dummies=dummies, trap=trap)
        prep = prep if prep is not None else sampled[0]
        rbits = rbits if rbits is not None else sampled[1]
    return _run_round(graph, pattern.angles, prep=prep, rbits=rbits,
                      trap=trap, rng=rng, forced=forced,
                      deviation=deviation)


# --------------------------------------------------------------------------
# exact analysis
# --------------------------------------------------------------------------

def _walk_rounds(plan: _Plan, prep: Mapping, deviation, rvalues):
    """Every live round with pads ``prep``, the blinding bit of each
    measured vertex running over ``rvalues``.

    The rounds are the leaves of one depth-first walk.  Bob prepares and
    entangles once, calling the deviation's ``after_entangle`` once;
    then at each measured vertex, in Alice's order, the walk branches on
    the blinding bit r and on the outcomes Bob can get, calling
    ``before_measure`` once per (prefix, r).  Branches share their prefix
    states, and dead outcomes are never visited.  Exact analysis thus
    assumes deterministic hooks: a hook that draws randomness, such as
    ``fuzzer_deviation``, is for Monte Carlo estimates only.
    """
    bob = Bob(deviation)
    state = bob.entangle(bob.prepare([prep[v] for v in plan.graph.nodes]),
                         plan.edges)
    theta = plan.thetas(prep)

    def step(k, node):
        state, prob, rec = node
        u = plan.order[k]
        children = []
        for r in rvalues:
            wire, ops = plan.instruct(u, rec, theta, r)
            for o, post, p in bob.outcomes(state, plan.site[u], wire):
                children.append(
                    (post, prob * p, plan.receive(u, rec, wire, ops, o, r)))
        return children

    for _, prob, rec in walk((state, Fraction(1), _Transcript()),
                             len(plan.order), step):
        yield plan.result(rec, prob)


def _enumerate_rounds(pattern: Pattern, *, trap=None, deviation=None):
    """Yield (weight, RoundResult) over pads and live outcome branches.

    The weight is the pads' probability times the branch's; the flow is
    found once, and the walker runs once per pad configuration.
    """
    graph = pattern.graph
    dummies = sorted(graph.neighbors(trap)) if trap is not None else []
    padded = [v for v in graph.nodes if v not in dummies]
    plan = _Plan(graph, pattern.angles, dummies, trap)
    pad_weight = Fraction(1, 4 ** len(padded) * 2 ** len(dummies)
                          * 2 ** len(plan.order))
    for thetas in product(range(4), repeat=len(padded)):
        for dbits in product(range(2), repeat=len(dummies)):
            prep = {v: {"angle": t} for v, t in zip(padded, thetas)}
            prep.update({d: {"dummy": b} for d, b in zip(dummies, dbits)})
            for res in _walk_rounds(plan, prep, deviation, (0, 1)):
                yield pad_weight * res.probability, res


def honest_output_support(pattern: Pattern, trap=None) -> frozenset:
    """Decoded output tuples an honest round can produce for this trap.

    Walks the outcome tree once, with zero pads and blinding bits.
    """
    graph = pattern.graph
    dummies = graph.neighbors(trap) if trap is not None else set()
    plan = _Plan(graph, pattern.angles, dummies, trap)
    prep = {v: ({"dummy": 0} if v in dummies else {"angle": 0})
            for v in graph.nodes}
    return frozenset(res.output
                     for res in _walk_rounds(plan, prep, None, (0,)))


def exact_pfail(pattern: Pattern, deviation: Deviation) -> Fraction:
    """P(accept and the computation was corrupted), trap uniform.

    Exact: every trap, pad configuration and live branch is walked once
    (see ``_walk_rounds``), so the deviation's hooks must be
    deterministic.
    """
    graph = pattern.graph
    total = Fraction(0)
    for trap in graph.nodes:
        honest = (None if deviation.assume_corrupted
                  else honest_output_support(pattern, trap))
        for w, res in _enumerate_rounds(pattern, trap=trap,
                                        deviation=deviation):
            if not res.accept:
                continue
            if deviation.assume_corrupted or res.output not in honest:
                total += w
    return total / len(graph.nodes)


def wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    """Wilson score 95% interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_pfail(pattern: Pattern, deviation: Deviation, *, rng,
                   trials: int) -> dict:
    """Monte Carlo failure estimate with a Wilson 95% interval."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    graph = pattern.graph
    honest = {} if deviation.assume_corrupted else \
        {t: honest_output_support(pattern, t) for t in graph.nodes}
    fails = 0
    for _ in range(trials):
        trap = graph.nodes[rng.randrange(len(graph.nodes))]
        res = run_verified(pattern, rng=rng, trap=trap, deviation=deviation)
        if res.accept and (deviation.assume_corrupted
                           or res.output not in honest[trap]):
            fails += 1
    lo, hi = wilson_interval(fails, trials)
    return {"estimate": fails / trials, "fails": fails, "trials": trials,
            "interval": (lo, hi), "is_estimate": True}


# --------------------------------------------------------------------------
# blindness audit
# --------------------------------------------------------------------------

def server_view_distribution(pattern: Pattern) -> dict:
    """Exact distribution of Bob's transcript (instructions, outcomes),
    over every pad configuration and live branch of a trap-free round."""
    dist: dict = {}
    for w, res in _enumerate_rounds(pattern):
        key = (res.deltas, res.raw)
        dist[key] = dist.get(key, Fraction(0)) + w
    assert sum(dist.values()) == 1
    return dist


def view_distance(a: dict, b: dict) -> Fraction:
    keys = set(a) | set(b)
    return sum(abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0)))
               for k in keys) / 2
