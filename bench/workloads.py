"""The four benchmark workloads and the exact checks of every op.

Each workload is built from an imported toystab and a seed.  Building it
generates the inputs every op shares and runs the warm-up; ``op(i)``
runs op ``i`` and returns whether its checks held; ``finish()`` runs the
checks that need the whole run and returns how many ops they fail.
Per-op inputs come from random streams seeded by the workload name and
the seed alone, so the same seed gives the same inputs, and
``inputs_sha`` digests them so that runs can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace


def load_toystab() -> SimpleNamespace:
    """Import toystab afresh, so that each set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "toystab" or m.startswith("toystab.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"toystab.{name}")
            for name in ("algebra", "dynamics", "oracle", "mbtc", "bvc",
                         "codes", "crypto", "cli")}
    return SimpleNamespace(**mods)


class _Workload:
    name = ""
    layers: frozenset = frozenset()   # layers an op reaches
    nominal_ops_per_s = 1.0           # sizes the fixed-length traced pass

    def __init__(self, ts: SimpleNamespace, seed: int):
        self.ts = ts
        self.rng = random.Random(f"{self.name}:inputs:{seed}")
        self.program_rng = random.Random(f"{self.name}:program:{seed}")
        self._digest = hashlib.sha256()

    def _record(self, *inputs) -> None:
        self._digest.update(repr(inputs).encode())

    @property
    def inputs_sha(self) -> str:
        return self._digest.hexdigest()[:16]

    def finish(self) -> int:
        return 0


def _random_permutation(ts, rng, n: int, depth: int):
    factors = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.5:
            c, t = rng.sample(range(n), 2)
            factors.append((rng.choice(("cz", "cx", "cy")), c, t))
        else:
            factors.append(("local", rng.randrange(n),
                            rng.randrange(len(ts.dynamics.PERMS))))
    return ts.dynamics.Permutation(n, tuple(factors))


def _random_group(ts, rng, n: int, rank: int):
    """A valid state of the given rank: a scrambled signed Z basis."""
    Element, Group = ts.algebra.Element, ts.algebra.Group
    base = Group(n, [Element.single(n, i, "Z", bool(rng.randrange(2)))
                     for i in range(rank)])
    return _random_permutation(ts, rng, n, 3 * n).conjugate(base)


def _line_pattern(ts, angles):
    n = len(angles)
    graph = ts.mbtc.OpenGraph(tuple(range(n)),
                              tuple((i, i + 1) for i in range(n - 1)),
                              inputs=(), outputs=(n - 1,))
    return ts.mbtc.Pattern(graph, dict(enumerate(angles)))


# a copy of bvc.wilson_interval, kept so that the check does not depend
# on the code it checks
def wilson_contains(k: int, n: int, p: float, z: float) -> bool:
    """Whether p lies in the Wilson score interval of k successes in n."""
    if n == 0:
        return True
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return center - half <= p <= center + half


class BvcMonteCarlo(_Workload):
    """One op: one verified round on the 8-node line.

    The trap is uniform, the pads are drawn, and the deviation cycles
    through honest, flip-all and extremal:k with k drawn per round.
    """

    name = "bvc-mc"
    layers = frozenset({"algebra", "dynamics", "mbtc", "bvc"})
    nominal_ops_per_s = 500.0
    ANGLES = (0, 1, 0, 2, 3, 1, 0, 0)
    # z of the Wilson interval the extremal acceptance rate must cover
    # 15/16 with; z = 5 misfires about once in 1.7 million correct runs
    WILSON_Z = 5.0

    def __init__(self, ts, seed):
        super().__init__(ts, seed)
        self.pattern = _line_pattern(ts, self.ANGLES)
        self.nodes = self.pattern.graph.nodes
        self.honest = {trap: ts.bvc.honest_output_support(self.pattern, trap)
                       for trap in self.nodes}
        self.flip_all = ts.bvc.flip_all_deviation()
        self.extremal = [ts.bvc.extremal_deviation(k)
                         for k in range(len(self.nodes))]
        self.extremal_rounds = self.extremal_accepts = 0

    def op(self, i: int) -> bool:
        kind = i % 3
        trap = self.nodes[self.rng.randrange(len(self.nodes))]
        k = self.rng.randrange(len(self.nodes)) if kind == 2 else None
        self._record(trap, kind, k)
        deviation = (None, self.flip_all,
                     self.extremal[k] if k is not None else None)[kind]
        res = self.ts.bvc.run_verified(self.pattern, rng=self.program_rng,
                                       trap=trap, deviation=deviation)
        if kind == 0:
            return res.accept is True and res.output in self.honest[trap]
        if kind == 1:
            return res.accept is False
        self.extremal_rounds += 1
        self.extremal_accepts += res.accept is True
        return res.accept is not None

    def finish(self) -> int:
        bound = 1 - 1 / (2 * len(self.nodes))
        if wilson_contains(self.extremal_accepts, self.extremal_rounds,
                           bound, self.WILSON_Z):
            return 0
        return self.extremal_rounds


class BvcExact(_Workload):
    """One op: the exact audit of one random 3-node line.

    ``toystab bvc simulate --mode verified --exact`` runs in-process for
    honest, flip-all and extremal:0..2, and the server's view is compared
    with the reference view computed at set-up for ``REFERENCE_ANGLES``.
    """

    name = "bvc-exact"
    layers = frozenset({"algebra", "dynamics", "mbtc", "bvc", "cli"})
    nominal_ops_per_s = 0.35
    # deviation -> exact p_fail: the trap bound 1 - 1/(2n) is 5/6 at n = 3
    EXPECTED = (("honest", Fraction(0)), ("flip-all", Fraction(0)),
                ("extremal:0", Fraction(5, 6)), ("extremal:1", Fraction(5, 6)),
                ("extremal:2", Fraction(5, 6)))

    # fixed, not drawn: the view's cost depends on the angles by up to 15%,
    # and set-up must do the same work for every seed
    REFERENCE_ANGLES = (0, 0, 0)

    def __init__(self, ts, seed):
        super().__init__(ts, seed)
        self.reference = ts.bvc.server_view_distribution(
            _line_pattern(ts, self.REFERENCE_ANGLES))

    def op(self, i: int) -> bool:
        angles = tuple(self.rng.randrange(4) for _ in range(3))
        cli_seed = self.rng.randrange(1 << 31)
        self._record(angles, cli_seed)
        ok = True
        for deviation, p_fail in self.EXPECTED:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.ts.cli.main(
                    ["bvc", "simulate", "--line", ",".join(map(str, angles)),
                     "--mode", "verified", "--deviation", deviation,
                     "--exact", "--seed", str(cli_seed)])
            if code != 0:
                ok = False
                continue
            got = json.loads(out.getvalue())["p_fail"]
            ok &= Fraction(got["num"], got["den"]) == p_fail
        view = self.ts.bvc.server_view_distribution(_line_pattern(self.ts, angles))
        return ok and view == self.reference


class Mbtc64(_Workload):
    """One op: a 64-vertex line and an 8x8 grid, with fresh labels.

    Each pattern runs find_gflow, verify_gflow, run_pattern with adapted
    corrections, and run_pattern with physical corrections on outcomes
    drawn independently; both runs must give the same output state.
    """

    name = "mbtc-64"
    layers = frozenset({"algebra", "dynamics", "mbtc"})
    nominal_ops_per_s = 0.3
    SIDE = 8

    def __init__(self, ts, seed):
        super().__init__(ts, seed)
        self.physical_rng = random.Random(f"{self.name}:physical:{seed}")

    def _line(self, labels):
        graph = self.ts.mbtc.OpenGraph(
            tuple(labels), tuple(zip(labels, labels[1:])),
            inputs=(labels[0],), outputs=(labels[-1],))
        return graph, len(labels) - 1

    def _grid(self, labels):
        side = self.SIDE
        at = {(r, c): labels[c * side + r]
              for r in range(side) for c in range(side)}
        edges = []
        for c in range(side):
            for r in range(side):
                if c + 1 < side:
                    edges.append((at[r, c], at[r, c + 1]))
                if r + 1 < side:
                    edges.append((at[r, c], at[r + 1, c]))
        graph = self.ts.mbtc.OpenGraph(
            tuple(labels), tuple(edges),
            inputs=tuple(at[r, 0] for r in range(side)),
            outputs=tuple(at[r, side - 1] for r in range(side)))
        return graph, side - 1

    def op(self, i: int) -> bool:
        mbtc = self.ts.mbtc
        labels = self.rng.sample(range(1 << 30), self.SIDE * self.SIDE)
        self._record(labels)
        ok = True
        for graph, depth in (self._line(labels), self._grid(labels)):
            angles = {v: self.rng.randrange(4) for v in graph.nodes
                      if v not in graph.outputs}
            k = len(graph.inputs)
            input_group = _random_group(self.ts, self.rng, k, k)
            self._record(sorted(angles.items()), str(input_group))
            g, layer = mbtc.find_gflow(graph)
            mbtc.verify_gflow(graph, g, layer)
            pattern = mbtc.Pattern(graph, angles, flow=(g, layer))
            adapted = mbtc.run_pattern(pattern, input_group,
                                       rng=self.program_rng)
            physical = mbtc.run_pattern(pattern, input_group,
                                        rng=self.physical_rng, physical=True)
            ok &= (max(layer.values()) == depth
                   and adapted["output_state"] is not None
                   and adapted["output_state"] == physical["output_state"])
        return ok


class CrossCheck(_Workload):
    """One op: a bundle of desk-scale checks of the engine, n <= 4.

    A criterion-03 oracle case, a purify/relate round trip, a [5,1,3]
    correction (a weight-1 error and a 2-site erasure alternate), and a
    perfect bit-commitment cheat on 4 systems.
    """

    name = "xcheck"
    layers = frozenset({"algebra", "dynamics", "oracle", "codes", "crypto"})
    nominal_ops_per_s = 235.0
    SINGLE_STATES = ("+X", "-X", "+Y", "-Y", "+Z", "-Z")

    def __init__(self, ts, seed):
        super().__init__(ts, seed)
        self.code = ts.codes.five_system_code()

    def op(self, i: int) -> bool:
        # every part runs, so that a failed check leaves the inputs of
        # later ops as they were
        return all([self._oracle_case(), self._purification(),
                    self._correction(i), self._commitment()])

    def _oracle_case(self) -> bool:
        ts, rng = self.ts, self.rng
        Distribution = ts.oracle.Distribution
        n = rng.randrange(1, 5)
        g = _random_group(ts, rng, n, rng.randrange(n + 1))
        e = ts.algebra.Element(n, rng.randrange(1 << n), rng.randrange(1 << n),
                               bool(rng.randrange(2)))
        while e.is_identity_symbol:
            e = ts.algebra.Element(n, rng.randrange(1 << n),
                                   rng.randrange(1 << n), e.neg)
        perm = _random_permutation(ts, rng, n, 4)
        keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        self._record("oracle", str(g), str(e), perm.factors, keep)
        dist = Distribution.from_group(g)
        oracle = {out: (p, post) for out, p, post
                  in ts.oracle.measure_observable(dist, e)}
        for force in (0, 1):
            _, post, p = ts.dynamics.measure_element(g, e, force=force)
            want_p, want_post = oracle.get(force, (Fraction(0), None))
            if p != want_p or (p and Distribution.from_group(post) != want_post):
                return False
        return (Distribution.from_group(perm.conjugate(g)) == dist.permuted(perm)
                and Distribution.from_group(ts.dynamics.partial_trace(g, keep))
                == dist.marginal(keep))

    def _purification(self) -> bool:
        ts, rng = self.ts, self.rng
        n = rng.randrange(1, 3)
        g = _random_group(ts, rng, n, rng.randrange(n + 1))
        scramble = _random_permutation(ts, rng, n, 3 * n)
        self._record("purify", str(g), scramble.factors)
        pure = ts.dynamics.purify(g)
        lift = ts.dynamics.Permutation(2 * n, tuple(
            (f[0], f[1] + n, f[2] + (n if f[0] != "local" else 0))
            for f in scramble.factors))
        moved = lift.conjugate(pure)
        ref = list(range(n, 2 * n))
        mover = ts.dynamics.relate_purifications(pure, moved, ref)
        return (ts.dynamics.partial_trace(pure, range(n)) == g
                and set(mover.sites) <= set(ref)
                and mover.conjugate(moved) == pure)

    def _correction(self, i: int) -> bool:
        ts, rng, code = self.ts, self.rng, self.code
        secret = ts.algebra.Group.parse(rng.choice(self.SINGLE_STATES))
        encoded = code.encode(secret)
        if i % 2 == 0:
            error = ts.algebra.Element.single(code.n, rng.randrange(code.n),
                                              rng.choice("XYZ"))
            self._record("error", str(secret), str(error))
            _, fixed = code.correct(code.apply_error(encoded, error))
        else:
            pair = sorted(rng.sample(range(code.n), 2))
            self._record("erasure", str(secret), pair)
            _, fixed = code.correct(code.apply_erasure(encoded, pair),
                                    rng=self.program_rng, erasure=pair)
        return fixed == encoded and code.decode(fixed) == secret

    def _commitment(self) -> bool:
        ts, rng = self.ts, self.rng
        s0 = _random_group(ts, rng, 4, 4)
        local = _random_permutation(ts, rng, 2, 6)
        s1 = ts.dynamics.Permutation(4, local.factors).conjugate(s0)
        self._record("commit", str(s0), local.factors)
        res = ts.crypto.bc_cheat_perfect(s0, s1, [0, 1])
        return (res["acceptance_probability"] == 1
                and res["flip"].conjugate(s1) == s0
                and set(res["flip"].sites) <= {0, 1})


WORKLOADS = {w.name: w for w in (BvcMonteCarlo, BvcExact, Mbtc64, CrossCheck)}
