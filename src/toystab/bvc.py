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
are related by swapping bits, a swap that is its own inverse.

Bob keeps no state between calls, and all his freedom is how he departs
from the honest run: a ``Deviation`` is the server's behaviour.  Its
``after_entangle`` hook acts once, on the entangled state of the pads;
its ``before_measure`` hook acts on the held state before each
measurement, seeing the instruction; its ``flip_outcome`` hook acts on
each outcome he reports.  The honest server is ``Deviation()``, and
every function that runs rounds takes one.

Everything that follows from a pattern and a trap is worked out once, in
a ``_Plan``: the dummies, which are the trap's neighbours (one trap
hidden among fixed-basis dummies, after Fitzsimons–Kashefi,
arXiv:1203.5217), Alice's measurement order and corrections, the cz's
of the graph, the draws and checks of the pads, and the honest output
support.  Every function that runs rounds takes a plan: ``_run_round``
and ``_descend`` run one sampled round, ``_walk_rounds`` walks the
rounds of one pad configuration, and ``_plan_rounds`` walks the pad
configurations.  An unblinded round is the blind round with every pad
and blinding bit 0.

A pattern keeps a table of its plans, one per trap and the trap-free
plan under the key None, in its instance dict (:func:`_plan`), as it
keeps its frontier schedule.  The audits and batches (``exact_pfail``,
``estimate_pfail``, ``verified_rounds``, ``honest_output_support`` and
``server_view_distribution``) read their plans there, so calls on one
pattern, such as the CLI's audit and its sampled rounds, build each plan
once, and a copy or pickle of the pattern carries none.  The plans
share the cz gains of the graph, kept beside them.  A full table grows
with the square of the line: it held 18 KiB, 1.1 MiB and 20.5 MiB on
lines of 8, 64 and 256 nodes (tracemalloc).  One ``estimate_pfail`` call
that draws every trap of such a line holds as much while it runs; the
table keeps it for as long as the pattern lives.

Every round starts from the entangled state of its pads, built
straight into the packed reduced rows ``{pivot: (bits, sign)}`` of Bob's
whole state (:meth:`Deviation._entangled_rows`), and inside the round
engine Bob's state stays in that form.  Every built-in hook acts on the
rows (``_RowHook``): the extremal swap-in, Pauli and factor-list
deviations after the entangling, each a trace and a row insert or a
permutation of the rows followed by one echelon, and the
instruction-conditioned and fuzzer deviations before each measurement,
a local permutation of the rows at the measured site.  Each keeps the
state valid, so its result is walked on unchecked.  A group appears only
at the API edge: a caller's hook written on groups is handed the rows
built as a group, and what it returns is checked, in one place
(:func:`_acted_rows`); and a single round measures a group (see below).
Exact analysis (``exact_pfail``, ``server_view_distribution`` and
``honest_output_support``) walks pad configurations and live outcome
branches on the rows, one :func:`dynamics.measure_rows` step per branch
(``_walk_rounds``), so the exact walk of a built-in deviation builds no
group.  Every branch probability is 1 or 1/2 and every pad weight a
power of two, so a weight is carried as an integer count of halvings,
and a ``Fraction`` is built only for a result.  Alice's record of a
branch is a linked list of its measurements, shared by the branches that
share the prefix, and is read into a ``RoundResult`` once per leaf.

Sampled rounds come two ways.  A batch of verified rounds
(:func:`verified_rounds`, behind ``estimate_pfail`` and the CLI's sampled
accept rate) reads each trap's plan from the pattern's table, and runs
each round as ``_descend``: a loop over Alice's steps on the rows, taking
at each vertex the one child that :meth:`Deviation._outcomes` draws from
the rng.  A single round (``run_verified``, ``run_blind`` and
``run_delegated``) builds its own plan on every call, off the table, and
runs ``_run_round``, which still holds the state as a group, measured
with :func:`dynamics.measure_element`; it is the reference the descent is
tested against.  It stays there because of the benchmark harness, which
keeps a record per op, so that its peak memory grows with the op count.
In one pair of 20 s runs each on a 2-vCPU box, single rounds on the
descent took the 8-node ``bvc-mc`` workload from 3139–3230 to 5114–5216
ops/s, and its ``peak_rss_mb`` from 42.9–44.2 to 51.7–53.9 MiB (+21%).  A
group that builds its elements lazily, in three later pairs of 20 s runs,
took it from 3208–3264 to 4155–4227 ops/s (+30%) and from 44.7–45.7 to
50.8–52.6 MiB (+12% to +17%).  Both exceed the 10% memory bound, as would
reading a single round's plan from the table, which takes a quarter off
such a round.  Once the harness keeps a fixed-size record (ROADMAP item
1), ``_run_round``'s callers move onto ``_descend`` (ROADMAP item 2).

Which pads are walked depends on what the analysis reads.  Alice's
decoded bits do not depend on a pad outside the sites a deviation's
``after_entangle`` hook acts on, its declared ``support`` (see
``exact_pfail``), so ``exact_pfail`` walks only the pads and dummy bits
of those sites, and ``honest_output_support`` only the zero pads.  Bob's
transcript depends on every pad, but a pad only turns the instructions
he is sent, so ``server_view_distribution`` also walks the zero pads
alone and adds each pad configuration to the wire afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, product
from typing import Callable, Mapping

from .algebra import Group, insert
from .dynamics import (PERMS, Permutation, measure_element, measure_rows,
                       trace_site)
from .mbtc import (_QUARTER_ROWS, OpenGraph, Pattern, _check_forced,
                   _cz_gains, _cz_rows, _latest_first, adapt_quarter,
                   angle_element, correction_masks, find_gflow, walk)


def formula_from_quarter(q: int) -> int:
    """Swap the two low bits of ``q``: the formula encoding of a quarter,
    and the quarter encoding of a formula."""
    q %= 4
    return ((q & 1) << 1) | (q >> 1)


quarter_from_formula = formula_from_quarter


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
    """The server's behaviour: how Bob departs from the honest run, with
    no hook set for the honest server.  Bob keeps no state of his own;
    every round driver takes a deviation and the state he holds, and the
    deviation's private methods are his actions on it.

    Each hook acts at one place of a round:

    - ``after_entangle(state) -> state`` once, on the entangled state of
      the pads, before the first measurement (:meth:`_entangled_rows`);
    - ``before_measure(site, quarter, state) -> state`` on the held state
      just before each measurement, with the quarter Bob is sent
      (:meth:`_measure` on a group, :meth:`_outcomes` on rows);
    - ``flip_outcome(site) -> bit``, a bit that Bob XORs into every
      outcome he reports at ``site`` (:meth:`_report`).  It cannot see
      the instruction, so a flip that depends on the quarter is written
      as a ``before_measure`` hook.

    Each hook is None or callable, checked when the deviation is built.

    ``assume_corrupted`` switches the failure event from "accepted and
    the decoded output left the honest support" to simply "accepted":
    the adversary is credited with having corrupted the computation
    whenever the trap misses it.

    Sampled rounds call each hook once per event, batched rounds
    included: each round of :func:`verified_rounds` calls
    ``after_entangle`` once, and ``before_measure`` and ``flip_outcome``
    once per measurement, and shares no call with another round, so a
    hook may draw randomness there.  Exact analysis calls
    ``after_entangle`` once per pad configuration and ``before_measure``
    once per prefix and blinding bit (see ``_walk_rounds``), sharing the
    result between branches, so it assumes deterministic hooks.

    Bob's state inside a round is the reduced rows of his whole state,
    and every built-in hook acts on them: each is a ``_RowHook``.  The
    ``after_entangle`` hooks of ``extremal_deviation``,
    ``pauli_deviation`` and ``deviation_from_factors`` trace a site out
    and insert a row that is independent of and compatible with the
    rest, or conjugate every row by a permutation and echelon them
    again; the ``before_measure`` hooks of
    ``instruction_conditioned_deviation`` and ``fuzzer_deviation``
    conjugate the rows by a local permutation at the measured site, or
    leave them as they are.  Each maps a valid state to a valid state on
    as many systems, so Bob walks on from the rows it returns, unchecked,
    and no group is built.  Any other hook is written on groups: it is
    handed the rows built as a valid group, and the state it returns is
    checked to be a valid group on as many systems (:func:`_acted_rows`,
    the one place that does both).

    ``support`` declares the 0-based sites ``after_entangle`` acts on, as
    a frozenset, or is ``None`` for "anywhere".  The declaration is a
    promise that the hook commutes with every local permutation of the
    other sites: applying one before the hook or after it gives the same
    state.  ``exact_pfail`` relies on it to walk the pads of the support
    sites alone, and checks only that each site is an int in range.  A
    support that leaves out a site the hook acts on makes ``exact_pfail``
    return a wrong probability with no error, because the pad the hook
    meets there is then always the zero pad.  A deviation without an
    ``after_entangle`` hook has empty support whatever it declares, and
    one with a ``before_measure`` hook is always walked over every pad,
    since that hook sees the padded instructions.
    """

    after_entangle: Callable | None = None   # (state) -> state
    before_measure: Callable | None = None   # (site, quarter, state) -> state
    flip_outcome: Callable | None = None     # (site) -> bit
    assume_corrupted: bool = False
    support: frozenset | None = None         # sites after_entangle acts on

    def __post_init__(self):
        for name in ("after_entangle", "before_measure", "flip_outcome"):
            if getattr(self, name) is not None:
                _require_callable(name, getattr(self, name))

    @property
    def reads_instruction(self) -> bool:
        """Whether a hook sees Bob's instructions, so that the blinding
        bits cannot be folded out of an exact analysis."""
        return self.before_measure is not None

    def _entangled_rows(self, states, gains: tuple) -> dict:
        """The reduced rows ``{pivot: (bits, sign)}`` of the state Bob
        holds after preparing one system per entry of ``states`` and
        applying the cz's given as their gains (:func:`mbtc._cz_gains`,
        which a pattern's plans share), then the ``after_entangle`` hook
        (:func:`_acted_rows`).  The rows are built straight from the pads
        with one echelon and no group.

        A system i with pad quarter q is the row of its angle element,
        ``x_i | (q & 1)·z_i`` with sign ``q >> 1``, and the cz rule
        (:func:`mbtc._cz_rows`) adds the z columns of i's neighbours to
        it; a dummy is ``±z_i``, which the cz's leave alone.
        """
        n = len(states)
        pads = []
        for i, spec in enumerate(states):
            if "dummy" in spec:
                bits, neg = 2, bool(spec["dummy"])
            else:
                bits, neg = _QUARTER_ROWS[quarter_from_formula(spec["angle"])]
            pads.append((bits << 2 * i, neg))
        rows = _cz_rows(pads, gains)
        if self.after_entangle:
            return _acted_rows(self.after_entangle, (), rows, n)
        return rows

    def _report(self, site: int, out: int) -> int:
        """The outcome Bob reports for ``out`` at ``site``.  The flip must
        be 0 or 1, as an int or a bool."""
        if not self.flip_outcome:
            return out
        flip = self.flip_outcome(site)
        if flip not in (0, 1) or type(flip) not in (int, bool):
            raise ValueError(
                f"flip_outcome at site {site} is {flip!r}, not 0 or 1")
        return out ^ flip

    def _measure(self, state: Group, site: int, angle: int, *, rng=None,
                 force: int | None = None):
        """(reported outcome, post state, probability) of one outcome of
        measuring ``site`` of the valid group ``state`` at the formula
        angle ``angle``, after the ``before_measure`` hook acts on its
        rows (:func:`_acted_rows`).  A row the hook leaves as it is keeps
        its element."""
        quarter = quarter_from_formula(angle)
        if self.before_measure:
            state = Group._from_reduced(state.n, _acted_rows(
                self.before_measure, (site, quarter), state._pivots,
                state.n), state)
        out, post, p = measure_element(
            state, angle_element(state.n, site, quarter), rng=rng,
            force=force)
        return self._report(site, out), post, p

    def _outcomes(self, rows: dict, n: int, site: int, angle: int,
                  rng=None) -> list:
        """[(reported outcome, post rows, random)] of every outcome that
        can occur, on the reduced rows ``{pivot: (bits, sign)}`` of a valid
        state on ``n`` systems, after the ``before_measure`` hook
        (:func:`_acted_rows`); with an ``rng``, of the one outcome a
        measurement gets, a random one drawn with one ``rng.randrange(2)``.
        ``random`` tells a probability of 1/2 from one of 1.  The rows are
        left as they are, and the post rows of a deterministic outcome are
        the rows measured.
        """
        quarter = quarter_from_formula(angle)
        if self.before_measure:
            rows = _acted_rows(self.before_measure, (site, quarter), rows, n)
        bits, neg = _QUARTER_ROWS[quarter]
        bits <<= 2 * site
        children = []
        for force in (0, 1) if rng is None else (None,):
            out, post, random = measure_rows(rows, bits, neg, n, rng=rng,
                                             force=force)
            if post is not None:
                children.append((self._report(site, out), post, random))
        return children


def _acted_rows(hook: Callable, args: tuple, rows: dict, n: int) -> dict:
    """The reduced rows of the state ``hook(*args, state)`` returns, for
    the state of the reduced rows ``rows`` of a valid state on ``n``
    systems, which are left as they are.

    A ``_RowHook`` acts on the rows themselves.  Any other hook is written
    on groups: this is the one place where such a hook is handed a group,
    the rows built as a valid group, and where the state it returns is
    checked (:func:`_held_rows`).
    """
    if isinstance(hook, _RowHook):
        return hook.act(*args, rows, n)
    return _held_rows(hook(*args, Group._from_reduced(n, rows)), n)


def _held_rows(state, n: int) -> dict:
    """The reduced rows of ``state``, which a hook written on groups
    returned, checked to be a valid group on ``n`` systems."""
    if not isinstance(state, Group):
        raise ValueError(
            f"a deviation hook must return a Group, not {state!r}")
    state.require_valid()
    if state.n != n:
        raise ValueError("size mismatch")
    return state._pivots


class _RowHook:
    """A hook given by its action on reduced rows, the form of every
    built-in hook.

    ``act`` maps the reduced rows ``{pivot: (bits, sign)}`` of a valid
    state on ``n`` systems to new reduced rows of a valid state on ``n``
    systems, leaving ``rows`` as they are: ``act(rows, n)`` for an
    ``after_entangle`` hook, and ``act(site, quarter, rows, n)`` for a
    ``before_measure`` hook.  Bob walks on from the rows it returns
    unchecked (:func:`_acted_rows`).  Called on a group, as the public
    hook attributes are, the hook checks that it is a valid group and
    returns the group of the acted rows.  The action belongs to the hook,
    so a deviation whose hook is replaced never runs it.
    """

    __slots__ = ("act",)

    def __init__(self, act: Callable):
        self.act = act

    def __call__(self, *args) -> Group:
        *head, state = args
        if not isinstance(state, Group):
            raise ValueError(f"a hook is called on a Group, not {state!r}")
        return Group._from_reduced(state.n, self.act(
            *head, state.require_valid()._pivots, state.n))


def _require_callable(name: str, value) -> None:
    if not callable(value):
        raise ValueError(f"{name} must be callable, not {value!r}")


def extremal_deviation(site: int) -> Deviation:
    """Discard the system at ``site`` and substitute a fresh +X system.

    The swap-in works on the state's reduced rows: the site is traced
    out (:func:`dynamics.trace_site`), which leaves no row touching it,
    and a +X row is inserted there.  The new row is compatible with the
    others and independent of them, so the result is a valid state.
    The site must be an int; its range is checked against each state.
    """
    if type(site) is not int:
        raise ValueError(f"site {site!r} is not an int")

    def swap_in(rows: dict, n: int) -> dict:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        rows = dict(rows)
        trace_site(rows, site)
        insert(rows, 1 << 2 * site, False)
        return rows

    return Deviation(after_entangle=_RowHook(swap_in), assume_corrupted=True,
                     support=frozenset({site}))


def flip_all_deviation() -> Deviation:
    """Bob reports every outcome negated."""
    return Deviation(flip_outcome=lambda site: 1)


def pauli_deviation(assignments: Mapping) -> Deviation:
    """Apply fixed local permutations (site -> name or local id) after
    entangling.  ``assignments`` must be a mapping and each site an int;
    its range and its permutation are checked against each state."""
    if not isinstance(assignments, Mapping):
        raise ValueError(f"assignments must map sites to permutations, "
                         f"not {assignments!r}")
    for site in assignments:
        if type(site) is not int:
            raise ValueError(f"site {site!r} is not an int")

    def warp(rows: dict, n: int) -> dict:
        perm = Permutation.identity(n)
        for site, name in assignments.items():
            perm = perm.then(Permutation.local(n, site, name))
        return perm._conj_rows(rows)

    return Deviation(after_entangle=_RowHook(warp),
                     support=frozenset(assignments))


def instruction_conditioned_deviation(rule: Callable) -> Deviation:
    """``rule(site, quarter)`` names a local permutation or returns None;
    it is applied to the held state just before that measurement, as a
    conjugation of Bob's rows.  ``rule`` must be callable."""
    _require_callable("rule", rule)

    def warp(site: int, quarter: int, rows: dict, n: int) -> dict:
        name = rule(site, quarter)
        if name is None:
            return rows
        return Permutation.local(n, site, name)._conj_rows(rows)

    return Deviation(before_measure=_RowHook(warp))


def fuzzer_deviation(rng, rate: float = 0.5) -> Deviation:
    """Random single-site permutation at the measured site, sometimes:
    with probability ``rate``, an int or float in [0, 1], a local id drawn
    from ``rng``, which must have ``random`` and ``randrange``.

    Its hook draws randomness, so it is for Monte Carlo estimates only.
    """
    for name in ("random", "randrange"):
        _require_callable(f"rng.{name}", getattr(rng, name, None))
    if type(rate) not in (int, float) or not 0 <= rate <= 1:
        raise ValueError(f"rate must be a number in [0, 1], not {rate!r}")

    def warp(site: int, quarter: int, rows: dict, n: int) -> dict:
        if rng.random() >= rate:
            return rows
        pid = rng.randrange(len(PERMS))
        return Permutation(n, (("local", site, pid),))._conj_rows(rows)

    return Deviation(before_measure=_RowHook(warp))


def deviation_from_factors(spec: list, n: int) -> Deviation:
    """User deviation given as a permutation factor list (JSON shape) on
    ``n`` systems.  The list is parsed here, so a bad one raises
    ``Permutation.from_json``'s own error, and the deviation declares the
    sites its factors act on as its ``support``."""
    perm = Permutation.from_json(n, spec)

    def warp(rows: dict, size: int) -> dict:
        if size != n:
            raise ValueError("size mismatch")
        return perm._conj_rows(rows)

    return Deviation(after_entangle=_RowHook(warp),
                     support=frozenset(perm.sites))


# --------------------------------------------------------------------------
# the client
# --------------------------------------------------------------------------

@dataclass
class RoundResult:
    deltas: tuple          # (vertex, formula angle) in send order
    raw: tuple             # Bob's reported outcomes, same order
    decoded: dict          # vertex -> decoded outcome
    output: tuple          # (vertex, decoded outcome) at outputs, node order
    accept: bool | None    # trap verdict, None when no trap
    probability: Fraction  # Bob's branch probability
    alice_ops: int         # count of Alice's mod-4 / bit operations


def _require_delegable(graph: OpenGraph, angles: Mapping) -> None:
    """Raise unless a delegated round can run on ``graph``: it takes no
    quantum inputs and measures every vertex, so each needs an angle.  A
    vertex may not be labelled None, which stands for "no trap"."""
    if any(v is None for v in graph.nodes):
        raise ValueError("a vertex labelled None would read as no trap")
    if graph.inputs:
        raise ValueError("delegated rounds take no quantum inputs")
    missing = [v for v in graph.nodes if v not in angles]
    if missing:
        raise ValueError(f"vertices without angles: {missing}; a "
                         "delegated round measures every vertex, "
                         "outputs included")


class _Plan:
    """Everything a round takes from its pattern and trap, worked out
    once: the trap's neighbours, the round's dummies, in node order
    (:func:`_trap_neighbors`); Alice's measurement order, and one step
    ``(u, site, bit, base, fix)`` per measured vertex in that order; the
    cz's of the graph as their gains (:func:`mbtc._cz_gains`), which
    depend on the graph alone, so they are computed once per pattern,
    kept in its instance dict beside its plans (:func:`_plan`), and
    shared by every plan of it; the output vertices in node order; and,
    on first read, the honest output support.  A trap of None plans a
    trap-free round.  ``site`` is u's site index and ``bit`` its bit in
    the correction masks, ``base`` u's unadapted quarter, and ``fix`` the
    corrections an outcome 1 books, ``(x mask, z mask, count of flips)``.

    Every round is blind.  An unblinded round (``blinded`` False) is the
    blind round with every pad and blinding bit 0, which sends the
    adapted angle itself (``blind_delta(phi, 0, 0) == phi``) and decodes
    each outcome as it is reported; only Alice's op count per
    instruction, ``cost``, tells the two apart: 3 blinded, 1 unblinded.

    ``pads`` draws or checks a round's pads, and ``instruct`` and
    ``receive`` are Alice's per-vertex arithmetic, shared by the sampled
    round and the exact walker.  A round's record is a linked list
    ``(previous, u, wire, raw outcome, decoded bit)``, one link per
    measurement, so branches share their prefixes, and ``result`` reads
    it once, at the end of the round.
    """

    def __init__(self, pattern: Pattern, trap=None, blinded: bool = True):
        graph, angles = pattern.graph, pattern.angles
        near = _trap_neighbors(graph, trap) if trap is not None else ()
        self.dummies = dummies = [v for v in graph.nodes if v in near]
        _require_delegable(graph, angles)
        nodes = list(graph.nodes)
        self.site = idx = {v: i for i, v in enumerate(nodes)}
        comp = [v for v in nodes if v not in dummies and v != trap]
        sub = graph.induced(comp)
        g, layer = (find_gflow(sub, best_effort=True) if comp else ({}, {}))
        # every vertex has an angle, so this is the measured order of
        # the pattern on the subgraph
        order = _latest_first(comp, layer)
        self.order = order + [trap] if trap is not None else order
        fixes = correction_masks(sub, g, idx, g)
        self.steps = []
        for u in self.order:
            x, z = fixes.get(u, (0, 0))
            self.steps.append((u, idx[u], 1 << idx[u],
                               0 if u == trap else angles[u],
                               (x, z, x.bit_count() + z.bit_count())))
        self.outputs = sorted(graph.outputs, key=idx.__getitem__)
        self.graph, self.trap, self.cost = graph, trap, 3 if blinded else 1
        self.gains = vars(pattern).get("_gains")
        if self.gains is None:
            self.gains = vars(pattern)["_gains"] = _cz_gains(
                (idx[a], idx[b]) for a, b in graph.edges)

    @cached_property
    def honest_support(self) -> frozenset:
        """The decoded output tuples an honest round can produce: the
        outcome tree walked once, with zero pads and blinding bits."""
        return frozenset(res.output for _, res in _plan_rounds(
            self, Deviation(), rvalues=(0,), support=frozenset()))

    def pads(self, rng, prep=None, rbits=None):
        """``(prep, rbits)`` of a round: each drawn unless pinned, and
        checked when pinned.  A pinned ``prep`` gives every vertex exactly
        one of an int ``angle`` or a 0/1 ``dummy``, a dummy exactly at the
        dummies; a pinned ``rbits`` gives every vertex a 0 or 1.  The draws
        come per vertex in node order: a dummy's bit, or an angle and then
        a blinding bit.  A dummy's blinding bit is 0."""
        nodes = self.graph.nodes
        for v in nodes if prep is not None else ():
            kind = _pad_kind(prep.get(v))
            if kind is None:
                raise ValueError(f"pad of vertex {v!r} is {prep.get(v)!r}, "
                                 "not one int 'angle' or a 0 or 1 'dummy'")
            if (kind == "dummy") != (v in self.dummies):
                raise ValueError(
                    f"vertex {v!r} is pinned with the wrong kind of pad, "
                    f"{kind!r}: a blind round has no dummies, and the "
                    "dummies of a verified round are exactly the trap's "
                    "neighbours")
        for v in nodes if rbits is not None else ():
            r = rbits.get(v)
            if type(r) is not int or r not in (0, 1):
                raise ValueError(
                    f"blinding bit of vertex {v!r} is {r!r}, not 0 or 1")
        if prep is None or rbits is None:
            _require_rng(rng)
            drawn, bits = {}, {}
            for v in nodes:
                if v in self.dummies:
                    drawn[v], bits[v] = {"dummy": rng.randrange(2)}, 0
                else:
                    drawn[v] = {"angle": rng.randrange(4)}
                    bits[v] = rng.randrange(2)
            prep = drawn if prep is None else prep
            rbits = bits if rbits is None else rbits
        return prep, rbits

    def thetas(self, prep: Mapping) -> dict:
        """Each measured vertex's pad angle (formula encoding), turned by
        half a turn, a flip of the sign bit, for every neighboring dummy
        prepared as -Z."""
        zshift = {v: 0 for v in self.graph.nodes}
        for d, spec in prep.items():
            if spec.get("dummy"):
                for w in self.graph.adjacency[d]:
                    zshift[w] ^= 1
        return {u: (prep[u]["angle"] % 4) ^ zshift[u] for u in self.order}

    def instruct(self, step: tuple, sx: int, sz: int, theta: Mapping,
                 r: int):
        """(wire angle, Alice's op count) of the instruction at ``step``,
        with the X and Z corrections ``sx`` and ``sz`` pending."""
        u, _, bit, base, _ = step
        phi = formula_from_quarter(adapt_quarter(base, sx & bit, sz & bit))
        return blind_delta(phi, theta[u], r), self.cost

    def receive(self, step: tuple, sx: int, sz: int, ops: int, link,
                wire: int, o: int, r: int) -> tuple:
        """Alice decodes Bob's reply ``o`` to ``wire`` and books its
        corrections: the round's next ``(sx, sz, ops, link)``, from its
        pending corrections, its op count so far, the instruction's
        included, and its last link."""
        dec = o ^ r
        link = (link, step[0], wire, o, dec)
        if dec:
            # one operation per flip booked
            x, z, flips = step[4]
            return sx ^ x, sz ^ z, ops + 1 + flips, link
        return sx, sz, ops + 1, link

    def result(self, ops: int, link, prob: Fraction) -> RoundResult:
        """The round whose last link is ``link``."""
        links = []
        while link is not None:
            links.append(link)
            link = link[0]
        _, us, wires, raw, decs = zip(*reversed(links)) if links else [()] * 5
        decoded = dict(zip(us, decs))
        accept = None if self.trap is None else decoded[self.trap] == 0
        output = tuple((v, decoded[v]) for v in self.outputs if v in decoded)
        return RoundResult(tuple(zip(us, wires)), raw, decoded, output,
                           accept, prob, ops)


def _plan(pattern: Pattern, trap=None) -> _Plan:
    """The plan of ``trap`` on ``pattern``, with None for the trap-free
    round, from the pattern's table of plans.  The table is kept in the
    pattern's instance dict, as :attr:`mbtc.Pattern._schedule` is, so it
    lives and dies with the pattern, and a copy or pickle of the pattern
    carries none of it.  Each plan is built the first time it is asked
    for.  The caller passes a trap that is a vertex, or None."""
    plans = vars(pattern).setdefault("_plans", {})
    plan = plans.get(trap)
    if plan is None:
        plan = plans[trap] = _Plan(pattern, trap)
    return plan


def _run_round(plan: _Plan, prep: Mapping, rbits: Mapping,
               deviation: Deviation, rng=None,
               forced: Mapping | None = None) -> RoundResult:
    """One sampled round of ``plan`` against ``deviation``, measured
    through groups.

    ``prep`` maps each vertex to {"angle": formula theta} or {"dummy":
    bit}, and ``rbits`` to its blinding bit; the trap, when present, runs
    at base angle zero with no adaptation.  ``forced`` pins Bob's
    measurement outcomes, and the probability is then the branch weight.
    """
    if forced:
        _check_forced(forced, plan.order)
    state = Group._from_reduced(len(plan.site), deviation._entangled_rows(
        [prep[v] for v in plan.graph.nodes], plan.gains))
    theta = plan.thetas(prep)
    forced = forced or {}
    sx = sz = ops = 0
    link, prob = None, Fraction(1)
    for step in plan.steps:
        u, site = step[0], step[1]
        r = rbits[u]
        wire, cost = plan.instruct(step, sx, sz, theta, r)
        if prob:
            o, state, p = deviation._measure(state, site, wire, rng=rng,
                                             force=forced.get(u))
            prob *= p
        else:
            o = forced.get(u, 0)
        sx, sz, ops, link = plan.receive(step, sx, sz, ops + cost, link,
                                         wire, o, r)
    return plan.result(ops, link, prob)


def _descend(plan: _Plan, prep: Mapping, rbits: Mapping,
             deviation: Deviation, rng) -> RoundResult:
    """One sampled round of ``plan`` against ``deviation``, descended on
    Bob's reduced rows: the round ``_run_round`` measures through groups,
    with the same draws and hook calls in the same order, so a hook that
    draws randomness may take part.

    It is one path down the tree of ``_walk_rounds``, built the same way:
    the entangled rows of the pads (:meth:`Deviation._entangled_rows`),
    then at each of Alice's steps the instruction at the drawn blinding
    bit ``rbits[u]``, the one child that :meth:`Deviation._outcomes` draws
    with the rng, and Alice's decoding of it.  A random outcome adds one
    halving to the round's probability.
    """
    n = len(plan.site)
    theta = plan.thetas(prep)
    rows = deviation._entangled_rows([prep[v] for v in plan.graph.nodes],
                                     plan.gains)
    halvings = sx = sz = ops = 0
    link = None
    for step in plan.steps:
        r = rbits[step[0]]
        wire, cost = plan.instruct(step, sx, sz, theta, r)
        (o, rows, random), = deviation._outcomes(rows, n, step[1], wire, rng)
        halvings += random
        sx, sz, ops, link = plan.receive(step, sx, sz, ops + cost, link,
                                         wire, o, r)
    return plan.result(ops, link, _dyadic(halvings))


def _require_rng(rng) -> None:
    if rng is None:
        raise ValueError("a sampled round needs an rng to draw from")


def _pad_kind(spec) -> str | None:
    """'angle' or 'dummy' for a pad of one int angle or a 0 or 1 dummy,
    None for anything else."""
    if isinstance(spec, Mapping) and len(spec) == 1:
        (kind, value), = spec.items()
        if type(value) is int and (kind == "angle"
                                   or kind == "dummy" and value in (0, 1)):
            return kind
    return None


def run_delegated(pattern: Pattern, *, rng=None, forced=None,
                  deviation=None) -> RoundResult:
    """Unblinded delegation: Bob sees the true adapted angles.  The
    round is the blind round with every pad and blinding bit 0, counted
    at one operation per instruction."""
    deviation = _deviation(deviation)
    nodes = _graph(pattern).nodes
    prep = {v: {"angle": 0} for v in nodes}
    return _run_round(_Plan(pattern, blinded=False), prep,
                      dict.fromkeys(nodes, 0), deviation, rng, forced)


def run_blind(pattern: Pattern, *, rng=None, prep=None, rbits=None,
              forced=None, deviation=None) -> RoundResult:
    """Blind delegation: pads chosen by Alice unless pinned explicitly.
    A blind round has no dummies, so a pinned ``prep`` gives every vertex
    an int angle."""
    deviation = _deviation(deviation)
    _graph(pattern)
    plan = _Plan(pattern)
    prep, rbits = plan.pads(rng, prep, rbits)
    return _run_round(plan, prep, rbits, deviation, rng, forced)


def _trap_neighbors(graph: OpenGraph, trap) -> frozenset:
    """The trap's neighbours, the dummies of its round.  Raises unless
    the trap is a vertex of ``graph`` of the vertex's own type: True and
    1.0 equal the vertex 1 but are not it."""
    for v in graph.nodes:
        if type(v) is type(trap) and v == trap:
            return graph.neighbors(v)
    raise ValueError(f"trap {trap!r} is not a vertex")


def run_verified(pattern: Pattern, *, rng=None, trap=None, prep=None,
                 rbits=None, forced=None, deviation=None) -> RoundResult:
    """Blind round with a trap vertex; its neighbors become dummies, and
    a pinned ``prep`` prepares exactly them as dummies.  The draws come in
    this order: the trap, unless pinned, then the pads and blinding bits,
    unless both are pinned (:meth:`_Plan.pads`), then one
    ``rng.randrange(2)`` per random outcome."""
    deviation = _deviation(deviation)
    graph = _graph(pattern)
    _require_vertex(graph)
    if trap is None:
        _require_rng(rng)
        trap = graph.nodes[rng.randrange(len(graph.nodes))]
    plan = _Plan(pattern, trap)
    prep, rbits = plan.pads(rng, prep, rbits)
    return _run_round(plan, prep, rbits, deviation, rng, forced)


def verified_rounds(pattern: Pattern, *, rng, deviation=None):
    """An endless iterator of sampled verified rounds, ``(trap,
    RoundResult)`` each, with the draws of ``run_verified(pattern,
    rng=rng)`` called once per round: the trap, then its plan's pads
    (:meth:`_Plan.pads`), then one ``rng.randrange(2)`` per random
    outcome.

    Each round reads its trap's plan from the pattern's table
    (:func:`_plan`), and is a random descent on Bob's rows
    (``_descend``), with the drawn pads and blinding bits.  The pattern,
    the rng and the deviation are checked on the call, before any round.
    """
    graph = _graph(pattern)
    _require_vertex(graph)
    _require_delegable(graph, pattern.angles)
    _require_rng(rng)
    deviation = _deviation(deviation)

    def rounds():
        while True:
            plan = _plan(pattern, graph.nodes[rng.randrange(len(graph.nodes))])
            prep, rbits = plan.pads(rng)
            yield plan.trap, _descend(plan, prep, rbits, deviation, rng)

    return rounds()


# --------------------------------------------------------------------------
# exact analysis
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dyadic(k: int) -> Fraction:
    """2 ** -k, the weight of ``k`` halvings."""
    return Fraction(1, 1 << k)


def _walk_rounds(plan: _Plan, prep: Mapping, deviation: Deviation,
                 rvalues: tuple):
    """Every live round of ``plan`` with pads ``prep`` against
    ``deviation``, the blinding bit of each measured vertex running over
    ``rvalues``, as ``(halvings, result)``: the round's probability is
    2 ** -halvings.

    The rounds are the leaves of one depth-first walk over the reduced rows
    ``{pivot: (bits, sign)}`` of Bob's whole state.  The walk starts from
    the entangled state of the pads, built straight into rows with the
    plan's cz's (:meth:`Deviation._entangled_rows`).  The deviation's
    ``after_entangle`` hook, when there is one, acts once.  Then at each
    measured vertex, in Alice's order (``plan.steps``), the walk branches
    on the blinding bit r and on the outcomes Bob can get
    (:meth:`Deviation._outcomes`), after the ``before_measure`` hook,
    called once per prefix and r.  Either hook acts through
    :func:`_acted_rows`: a ``_RowHook``, as every built-in hook is, on the
    rows, and a hook written on groups on the rows built as a group, with
    the state it returns checked; no other group is built.  A node holds
    Bob's rows, the halvings, Alice's pending corrections and op count,
    and the last link of her record (see ``_Plan``), which is read into a
    result only at a leaf.  Each child's rows come from one
    :func:`dynamics.measure_rows` step, which leaves its parent's rows as
    they are, so branches share their prefix rows; a random outcome adds
    one halving to the branch, and dead outcomes are never visited.
    Exact analysis thus assumes deterministic hooks: a hook that draws
    randomness, such as ``fuzzer_deviation``, is for Monte Carlo
    estimates only.

    Walking ``rvalues=(0,)`` alone loses nothing that Alice decodes when
    the deviation does not read the instruction.  Flipping r turns the
    wire quarter by 2, and quarter q ^ 2 is the negated element of q, so
    Bob's outcome o flips with equal probability into the same post
    state; his reported ``o ^ flip_outcome(site)`` flips with it, and
    Alice's decoding ``o ^ r`` flips it back.  Her decoded bits, and so
    her corrections and later instructions up to their own r, are the
    same, and each r = 0 leaf stands for 2 ** len(order) leaves of equal
    probability.  Only the wire's low formula bit and the raw outcome of
    each vertex tell those leaves apart.  A ``before_measure`` hook may
    act on the quarter, which breaks the argument, so a deviation that
    ``reads_instruction`` needs the full ``(0, 1)`` walk.
    """
    n = len(plan.site)
    theta = plan.thetas(prep)
    steps = plan.steps

    def step(k, node):
        rows, halvings, sx, sz, ops, link = node
        s = steps[k]
        children = []
        for r in rvalues:
            wire, cost = plan.instruct(s, sx, sz, theta, r)
            for o, post, random in deviation._outcomes(rows, n, s[1], wire):
                children.append((post, halvings + random, *plan.receive(
                    s, sx, sz, ops + cost, link, wire, o, r)))
        return children

    root = (deviation._entangled_rows([prep[v] for v in plan.graph.nodes],
                                      plan.gains), 0, 0, 0, 0, None)
    for _, halvings, _, _, ops, link in walk(root, len(steps), step):
        yield halvings, plan.result(ops, link, _dyadic(halvings))


def _plan_rounds(plan: _Plan, deviation: Deviation, rvalues=(0, 1),
                 support=None):
    """Yield (weight, RoundResult) over the pads and live outcome
    branches of the round of ``plan`` against ``deviation``.

    The weight is the pads' probability times the branch's, 2 ** -k for
    an integer k; the flow is found once, in the plan, and the walker
    runs once per pad configuration.  The dummy bits are walked in the
    plan's order of its dummies.  ``rvalues`` is ``(0, 1)`` or
    ``(0,)``; with ``(0,)`` the blinding bits are left out of the weight,
    so each round stands for its whole class under r (see
    ``_walk_rounds``).  With a ``support``, a set of site indices, only
    the angle pads and dummy bits of those sites are walked, every other
    one is 0, and the weight counts the walked ones alone; ``None`` walks
    them all.
    """
    graph, dummies = plan.graph, plan.dummies
    zero = {v: {"dummy": 0} if v in dummies else {"angle": 0}
            for v in graph.nodes}
    walked = [v for v in graph.nodes
              if support is None or plan.site[v] in support]
    pads = [v for v in walked if v not in dummies]
    bits = [d for d in dummies if d in walked]
    # uniform pads: two halvings per angle pad, one per dummy bit and one
    # per walked blinding bit
    pad_halvings = (2 * len(pads) + len(bits)
                    + (len(rvalues) - 1) * len(plan.order))
    for thetas in product(range(4), repeat=len(pads)):
        for dbits in product(range(2), repeat=len(bits)):
            prep = dict(zero)
            prep.update((v, {"angle": t}) for v, t in zip(pads, thetas))
            prep.update((d, {"dummy": b}) for d, b in zip(bits, dbits))
            for halvings, res in _walk_rounds(plan, prep, deviation,
                                              rvalues):
                yield _dyadic(pad_halvings + halvings), res


def honest_output_support(pattern: Pattern, trap=None) -> frozenset:
    """Decoded output tuples an honest round can produce for this trap, or
    for a trap-free round when ``trap`` is None.

    Read from the trap's plan in the pattern's table (:func:`_plan`),
    whose outcome tree is walked once, with zero pads and blinding bits
    (:attr:`_Plan.honest_support`), at the first read.  The trap is
    checked to be a vertex before the lookup, since True and 1.0 are the
    same dict key as the vertex 1.
    """
    graph = _graph(pattern)
    if trap is not None:
        _trap_neighbors(graph, trap)
    return _plan(pattern, trap).honest_support


def _graph(pattern) -> OpenGraph:
    """The graph of ``pattern``, which must be a ``Pattern``."""
    if not isinstance(pattern, Pattern):
        raise ValueError(f"expected a Pattern, not {pattern!r}")
    return pattern.graph


def _require_vertex(graph: OpenGraph) -> None:
    if not graph.nodes:
        raise ValueError("a verified round needs at least one vertex")


def trap_bound(pattern: Pattern) -> Fraction:
    """1 - 1/(2n), the bound on the failure probability of a verified
    round on n vertices against any deviation."""
    graph = _graph(pattern)
    _require_vertex(graph)
    return 1 - Fraction(1, 2 * len(graph.nodes))


def _walked_support(deviation: Deviation, n: int) -> frozenset | None:
    """The sites whose pads ``exact_pfail`` walks for ``deviation`` on
    ``n`` vertices, or None for every site.  A declared support is
    checked whether or not it is used."""
    support = deviation.support
    if support is not None:
        if not isinstance(support, (set, frozenset)):
            raise ValueError(
                f"support must be a set of site indices, not {support!r}")
        for site in support:
            if type(site) is not int:
                raise ValueError(f"support site {site!r} is not an int")
            if not 0 <= site < n:
                raise ValueError(f"site {site} out of range for n={n}")
    if deviation.before_measure is not None:
        return None
    if deviation.after_entangle is None:
        return frozenset()
    return support


def _deviation(deviation) -> Deviation:
    """``deviation``, with None taken as the honest server."""
    if deviation is None:
        return Deviation()
    if not isinstance(deviation, Deviation):
        raise ValueError(
            f"deviation must be a Deviation or None, not {deviation!r}")
    return deviation


def _fails(deviation: Deviation, plan: _Plan, res: RoundResult) -> bool:
    """Whether a round of ``plan`` counts as a failure against
    ``deviation``: accepted, with the decoded output outside the plan's
    honest support unless the deviation ``assume_corrupted``."""
    return res.accept and (deviation.assume_corrupted
                           or res.output not in plan.honest_support)


def exact_pfail(pattern: Pattern, deviation: Deviation | None) -> Fraction:
    """P(accept and the computation was corrupted), trap uniform.  A
    ``deviation`` of None is the honest server.

    Exact: every trap and live branch is walked once (see
    ``_walk_rounds``), so the deviation's hooks must be deterministic.
    The blinding bits are walked only for a deviation that
    ``reads_instruction``: otherwise they cannot move the verdict or the
    decoded output.  The pads are walked only at the sites of the
    deviation's ``support``; every other pad is fixed at 0.  Each trap's
    plan, with its honest support, is read from the pattern's table
    (:func:`_plan`), so a later audit of the pattern builds none.

    A fixed pad loses nothing, because Alice's decoded bits do not see
    it.  Let P_q be the local permutation that maps quarter a to a ^ q
    (local ids 0, 1, 7 and 6 for q = 0..3).

    - An angle pad q prepares P_q(+X).  P_q fixes +Z and -Z and commutes
      with cz.
    - A dummy bit b at d prepares X_d^b(+Z), and the cz's turn X_d into
      X_d Z_N, where Z_N is P_2 on each neighbour of d.

    So the entangled state of any pads is the zero-pad state under one
    local permutation per site: X_d^b at each dummy d, and P_p at each
    angle site i, with p = q_i ^ 2z_i, where z_i is the parity of i's -Z
    dummy neighbours.  ``_Plan.thetas`` folds the same z_i into i's pad,
    so the wire's quarter is a ^ p ^ 2r for the adapted quarter a.
    Measuring quarter a ^ p ^ 2r on P_p(state) has the outcomes and
    probabilities of measuring a ^ 2r, the zero-pad instruction, on the
    state, and leaves P_p on the post state.  The permutations of other
    sites commute with the measurement, and X_d acts on a dummy, which is
    never measured.  By induction over Alice's order, each decoded bit
    o ^ r, and with it her corrections, verdict and output, has the same
    branches and halvings as with zero pads.  Only the wire angles
    differ, by the pads, which is how ``server_view_distribution`` expands
    the zero-pad walk over every pad.

    An ``after_entangle`` hook acts between the cz's and the first
    measurement.  The permutations of sites outside its ``support`` pass
    through it (the contract in ``Deviation``), so the argument holds for
    them.  The pads and dummy bits of the support are walked.  A dummy
    outside the support with a neighbour w inside it adds P_2 to w's
    permutation: (q_w, b = 1) gives the state and wire of (q_w ^ 2,
    b = 0), so fixing b at 0 only relabels w's walked pads.  A
    deviation without the hook walks the zero pads alone, the extremal
    swap-in at most 4 configurations per trap.  A ``before_measure`` hook
    sees the padded wire, so its deviation walks every pad, as does one
    whose support is None.

    A round's weight is 2 ** -k, where k counts two halvings per walked
    angle pad and one per walked dummy bit, blinding bit and random
    outcome, so k is at most 4n on n vertices.  Each trap's failures are
    therefore summed as integer numerators over 2 ** 4n, with one
    ``Fraction`` per trap.
    """
    graph = _graph(pattern)
    deviation = _deviation(deviation)
    _require_vertex(graph)
    support = _walked_support(deviation, len(graph.nodes))
    rvalues = (0, 1) if deviation.reads_instruction else (0,)
    top = 1 << 4 * len(graph.nodes)
    total = Fraction(0)
    for trap in graph.nodes:
        plan = _plan(pattern, trap)
        hits = 0
        for w, res in _plan_rounds(plan, deviation, rvalues, support):
            if _fails(deviation, plan, res):
                hits += top // w.denominator
        total += Fraction(hits, top)
    return total / len(graph.nodes)


def wilson_interval(k: int, n: int, z: float = 1.959963984540054):
    """Wilson score 95% interval for a binomial proportion of ``k``
    successes in ``n`` trials, both ints."""
    if type(k) is not int or type(n) is not int:
        raise ValueError(f"wilson_interval counts must be ints, got "
                         f"k={k!r}, n={n!r}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_pfail(pattern: Pattern, deviation: Deviation | None, *, rng,
                   trials: int) -> dict:
    """Monte Carlo failure estimate with a Wilson 95% interval, over
    ``trials`` rounds of :func:`verified_rounds`.  A ``deviation`` of None
    is the honest server.  Each round's plan, with its honest support,
    is read from the pattern's table (:func:`_plan`); the support is
    walked the first time a round reads it."""
    deviation = _deviation(deviation)
    rounds = verified_rounds(pattern, rng=rng, deviation=deviation)
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, not {trials!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    fails = sum(_fails(deviation, _plan(pattern, trap), res)
                for trap, res in islice(rounds, trials))
    lo, hi = wilson_interval(fails, trials)
    return {"estimate": fails / trials, "fails": fails, "trials": trials,
            "interval": (lo, hi), "is_estimate": True}


# --------------------------------------------------------------------------
# blindness audit
# --------------------------------------------------------------------------

def server_view_distribution(pattern: Pattern) -> dict:
    """Exact distribution of Bob's transcript (instructions, outcomes),
    over every pad configuration and live branch of a trap-free round.

    The outcome tree is walked once, with zero pads and every blinding
    bit 0.  Each leaf then stands for one leaf per pad configuration, its
    pad class, and for 2 ** n transcripts under the blinding bits, its
    r-class.  The pad class is exact by ``exact_pfail``'s argument with
    no trap and no hook: without dummies z_i = 0, so the pad q at site i
    prepares P_q(+X), and nothing acts between the cz's and the first
    measurement.  Measuring quarter a ^ q ^ 2r on P_q(state) has the
    outcomes of measuring a ^ 2r on the state, with the same
    probabilities and in the same order, and leaves P_q on the post
    state.  By induction over Alice's order, the round with pads theta
    (formula encoding) has the zero-pad leaves in walk order, with the
    same raw outcomes and halvings; only each wire ``(u, d)`` becomes
    ``(u, d ^ theta_u)``, as ``blind_delta`` adds the pad.  The pads are
    expanded in the order the every-pad walk of ``_plan_rounds`` takes
    them on the trap-free plan, ``product(range(4))`` over the nodes, so
    the transcripts, their totals and their order are those of that
    walk.

    On n vertices a leaf's weight is 2 ** -k with k at most n, one
    halving per random outcome.  The 4 ** n pads and the n blinding bits
    split it into shares of 2 ** -(k + 3n), summed as integer numerators
    over 2 ** 4n, with one ``Fraction`` per distinct total.

    Every transcript of an r-class gets the same total, so a round's
    share is summed once, under the class's representative: each wire's
    low bit XOR its raw outcome, which no blinding bit moves.  Each class
    is expanded at the end from the first round seen in it, so the
    transcripts come in the order a round-by-round expansion gives.
    """
    nodes = _graph(pattern).nodes
    top = 1 << 4 * len(nodes)
    leaves = []   # (share, zero-pad round, its representative)
    for w, res in _plan_rounds(_plan(pattern), Deviation(), rvalues=(0,),
                               support=frozenset()):
        share = top // (w.denominator << 2 * len(nodes) + len(res.raw))
        leaves.append((share, res, tuple(
            (u, d ^ o) for (u, d), o in zip(res.deltas, res.raw))))
    classes: dict = {}   # representative -> [first round, share]
    for thetas in product(range(4), repeat=len(nodes)):
        pad = dict(zip(nodes, thetas))
        for share, res, zero_rep in leaves:
            rep = tuple((u, b ^ pad[u]) for u, b in zero_rep)
            if rep in classes:
                classes[rep][1] += share
            else:
                classes[rep] = [replace(res, deltas=tuple(
                    (u, d ^ pad[u]) for u, d in res.deltas)), share]
    nums = {key: share for res, share in classes.values()
            for key in _r_class(res)}
    assert sum(nums.values()) == top
    weight = {num: Fraction(num, top) for num in set(nums.values())}
    return {key: weight[num] for key, num in nums.items()}


def _r_class(res: RoundResult):
    """Bob's transcripts of the 2 ** m rounds that differ from ``res``,
    walked with every blinding bit 0, in their blinding bits alone (see
    ``_walk_rounds``): a bit of 1 flips its wire's low formula bit and
    its raw outcome.  Both products run over the bits in the same order,
    so they pair up transcript by transcript."""
    return zip(product(*(((u, d), (u, d ^ 1)) for u, d in res.deltas)),
               product(*((o, o ^ 1) for o in res.raw)))


def view_distance(a: Mapping, b: Mapping) -> Fraction:
    """The total variation distance of two views, mappings from a
    transcript to its probability."""
    if not (isinstance(a, Mapping) and isinstance(b, Mapping)):
        raise ValueError("views must be mappings, not "
                         f"{type(a).__name__} and {type(b).__name__}")
    keys = set(a) | set(b)
    return sum((abs(a.get(k, Fraction(0)) - b.get(k, Fraction(0)))
                for k in keys), Fraction(0)) / 2
