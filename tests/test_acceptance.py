"""End-to-end acceptance suite.

Each test covers one numbered criterion, enforces its wall-clock budget,
and prints a single pass/fail line (run with ``pytest -s`` to see them).
"""

import itertools
import random
import re
import time
from fractions import Fraction
from pathlib import Path

from toystab.algebra import Element, Group, matrix_diag
from toystab.codes import SharingScheme, five_system_code
from toystab.crypto import (bc_cheat_imperfect, bc_cheat_perfect,
                            correlated_pair_group, saturating_purifications,
                            trace_distance)
from toystab.dynamics import (Permutation, measure_element, partial_trace,
                              purify, relate_purifications)
from toystab.mbtc import (OpenGraph, Pattern, enumerate_branches,
                          angle_element, gate_patterns)
from toystab import bvc
from toystab.oracle import Distribution, measure_observable

from conftest import random_element, random_group, random_permutation

HALF = Fraction(1, 2)


def _checked(num, limit, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.2f}s, budget {limit}s"
    except BaseException:
        print(f"criterion {num:02d}: FAIL")
        raise
    print(f"criterion {num:02d}: PASS ({elapsed:.2f}s)")


def _state(text):
    return Group.parse(text).require_valid()


# -- 1: worked single-system fixture ------------------------------------------

def test_criterion_01_single_system_fixture():
    def body():
        rho = Distribution.from_group(_state("+Z"))
        assert rho.probs == (HALF, HALF, 0, 0)
        assert rho.projector_probability(_state("+Z")) == 1
        assert rho.projector_probability(_state("-Z")) == 0
        assert rho.projector_probability(_state("+X")) == HALF
        assert rho.projector_probability(_state("-X")) == HALF
        branches = {out: (p, post) for out, p, post
                    in measure_observable(rho, Element.parse("+X"))}
        assert branches[0][0] == branches[1][0] == HALF
        assert branches[0][1] == Distribution.from_group(_state("+X"))
        assert branches[1][1] == Distribution.from_group(_state("-X"))
    _checked(1, 1.0, body)


# -- 2: group law --------------------------------------------------------------

def test_criterion_02_group_law():
    def body():
        singles = [Element(1, x, z, bool(s))
                   for x in (0, 1) for z in (0, 1) for s in (0, 1)]
        for e, f in itertools.product(singles, repeat=2):
            prod = [u * v for u, v in zip(matrix_diag(e), matrix_diag(f))]
            assert matrix_diag(e * f) == prod
        x, z, y = (Element.parse(t) for t in ("+X", "+Z", "+Y"))
        assert x * z == y and not (x * z).neg
        bad = Group.parse("+XX\n+ZZ\n-YY")
        assert not bad.is_valid
        assert any("negative identity" in v for v in bad.violations())
        fixtures = [_state("+XX\n+ZZ"), _state("+XX\n-YY"),
                    _state("+ZZ\n-YY")]
        assert len({g.canonical for g in fixtures}) == 3
    _checked(2, 1.0, body)


# -- 3: oracle equivalence fuzz -------------------------------------------------

def test_criterion_03_oracle_equivalence_fuzz():
    def body():
        rng = random.Random(0xACE)
        for _ in range(10_000):
            n = rng.randrange(1, 5)
            g = random_group(rng, n, rng.randrange(n + 1))
            e = random_element(rng, n)
            dist = Distribution.from_group(g)
            # measurement probabilities and posteriors
            oracle = {out: (p, post) for out, p, post
                      in measure_observable(dist, e)}
            for force in (0, 1):
                out, post, p = measure_element(g, e, force=force)
                op, opost = oracle.get(force, (Fraction(0), None))
                assert p == op
                if p:
                    assert Distribution.from_group(post) == opost
            # conjugation
            perm = random_permutation(rng, n, depth=4)
            assert Distribution.from_group(perm.conjugate(g)) \
                == dist.permuted(perm)
            # partial trace
            keep = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            assert Distribution.from_group(partial_trace(g, keep)) \
                == dist.marginal(keep)
    _checked(3, 60.0, body)


# -- 4: rank law -----------------------------------------------------------------

def test_criterion_04_rank_law():
    def body():
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(1, 6)
            rank = rng.randrange(n + 1)
            g = random_group(rng, n, rank)
            assert len(g.canonical) == rank
            support = Distribution.from_group(g).support
            assert len(support) == 4 ** n >> rank
    _checked(4, 10.0, body)


# -- 5: purification --------------------------------------------------------------

def test_criterion_05_purification():
    def body():
        rng = random.Random(5)
        for _ in range(1000):
            n = rng.randrange(1, 5)
            g = random_group(rng, n, rng.randrange(n + 1))
            pure = purify(g)
            assert len(pure.canonical) == 2 * n
            assert partial_trace(pure, range(n)) == g
        for _ in range(100):
            n = rng.randrange(1, 4)
            g = random_group(rng, n, rng.randrange(n + 1))
            p1 = purify(g)
            scramble = random_permutation(rng, n)
            lift = Permutation(2 * n, tuple(
                (f[0], f[1] + n, f[2] + (n if f[0] != "local" else 0))
                for f in scramble.factors))
            p2 = lift.conjugate(p1)
            ref = list(range(n, 2 * n))
            mover = relate_purifications(p1, p2, ref)
            assert set(mover.sites) <= set(ref)
            assert mover.conjugate(p2) == p1
    _checked(5, 60.0, body)


# -- 6: bit commitment -------------------------------------------------------------

def test_criterion_06_bit_commitment():
    def body():
        rng = random.Random(6)
        # perfectly concealing fixtures: identical far marginals by design
        for _ in range(40):
            half = rng.randrange(1, 3)
            n = 2 * half
            a_sites = list(range(half))
            s0 = random_group(rng, n, n)
            local = random_permutation(rng, half)
            lift = Permutation(n, local.factors)
            s1 = lift.conjugate(s0)
            res = bc_cheat_perfect(s0, s1, a_sites)
            assert res["acceptance_probability"] == 1
            assert res["flip"].conjugate(s1) == s0
            assert set(res["flip"].sites) <= set(a_sites)
        # imperfect pipeline: cheat distance equals the marginal distance
        grid = correlated_pair_group([0, 1], [2, 3], 4)
        hits = 0
        for _ in range(30):
            s0 = Permutation(4, random_permutation(rng, 2).factors) \
                .conjugate(grid)
            s1 = random_permutation(rng, 4).conjugate(grid)
            eps = trace_distance(
                Distribution.from_group(partial_trace(s0, [2, 3])),
                Distribution.from_group(partial_trace(s1, [2, 3])))
            if eps == 0:
                continue
            res = bc_cheat_imperfect(s0, s1, [0, 1])
            assert res["epsilon"] == eps
            assert res["cheat_distance"] == eps
            assert res["beats_naive_bound"]
            assert float(eps) < res["naive_bound"]
            hits += 1
        assert hits >= 10
    _checked(6, 60.0, body)


# -- 7: distance-saturating purifications --------------------------------------------

def _symplectic(u, v, n):
    w = (u & (v >> n)) ^ ((u >> n) & v) & ((1 << n) - 1)
    return bin(w & ((1 << n) - 1)).count("1") & 1


def _isotropic_spans(n):
    """RREF bases of every isotropic symbol subspace on n systems."""
    vectors = list(range(1, 1 << (2 * n)))
    levels = [{(): []}]
    for _ in range(n):
        nxt = {}
        for basis in levels[-1].values():
            span = {0}
            for b in basis:
                span |= {s ^ b for s in span}
            for v in vectors:
                if v in span or any(_symplectic(v, b, n) for b in basis):
                    continue
                rows = sorted(basis + [v], reverse=True)
                for i in range(len(rows)):  # RREF canonical key
                    for j in range(len(rows)):
                        if i != j and rows[j] & (rows[i] & -rows[i]):
                            rows[j] ^= rows[i]
                rows.sort(reverse=True)
                nxt.setdefault(tuple(rows), rows)
        levels.append(nxt)
    return [basis for level in levels for basis in level.values()]


def _all_valid_groups(n):
    mask = (1 << n) - 1
    out = []
    for basis in _isotropic_spans(n):
        for signs in itertools.product((False, True), repeat=len(basis)):
            gens = [Element(n, v & mask, v >> n, s)
                    for v, s in zip(basis, signs)]
            out.append(Group(n, gens))
    return out


def test_criterion_07_saturating_distance():
    def body():
        for n in (1, 2, 3):
            flat = Distribution.from_group(Group.trivial(n))
            groups = _all_valid_groups(n)
            # sanity: the sweep really is exhaustive over valid groups
            assert all(g.is_valid for g in groups)
            assert len({g.canonical for g in groups}) == len(groups)
            for g in groups:
                sigma = Distribution.from_group(g)
                res = saturating_purifications(sigma)
                assert res["distance"] == trace_distance(flat, sigma)
                assert trace_distance(res["psi_dist"], res["phi_dist"]) \
                    == res["distance"]
    _checked(7, 10.0, body)


# -- 8: error correction ------------------------------------------------------------

def test_criterion_08_error_correction():
    def body():
        code = five_system_code()
        rng = random.Random(8)
        basis = ["+Z", "-Z", "+X", "-X", "+Y", "-Y"]
        errors = [Element.single(5, site, sym)
                  for site in range(5) for sym in "XYZ"]
        assert len(errors) == 15
        for text in basis:
            encoded = code.encode(_state(text))
            for err in errors:
                syndrome, fixed = code.correct(code.apply_error(encoded, err))
                assert fixed == encoded
            for pair in itertools.combinations(range(5), 2):
                damaged = code.apply_erasure(encoded, pair)
                _, fixed = code.correct(damaged, rng=rng, erasure=pair)
                assert fixed == encoded
            for avoid in itertools.combinations(range(5), 2):
                assert code.rewrite_logical_support(encoded, avoid) == encoded
    _checked(8, 30.0, body)


# -- 9: secret sharing ----------------------------------------------------------------

def test_criterion_09_secret_sharing():
    def body():
        scheme = SharingScheme(five_system_code())
        rng = random.Random(9)
        secrets = [_state(t) for t in ("+Z", "-Z", "+X", "-X", "+Y", "-Y")]
        for secret in secrets:
            dealt = scheme.deal(secret)
            for holders in itertools.combinations(range(5), 3):
                assert scheme.reconstruct(dealt, holders, rng=rng) == secret
        for holders in itertools.combinations(range(5), 2):
            assert scheme.leaks_nothing(secrets, holders)
    _checked(9, 30.0, body)


# -- 10: pattern determinism -------------------------------------------------------------

def _single_states():
    return [_state(s + t) for t in "XYZ" for s in "+-"]


def _perm_matrix_conj(perm, diag):
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


def _projector_diag(e):
    return [(1 + v) // 2 for v in matrix_diag(e)]


def test_criterion_10_pattern_determinism():
    def body():
        singles = _single_states()
        gps = gate_patterns()
        for name in ("H", "P", "X", "Y", "Z"):
            gp = gps[name]
            for g in singles:
                expect = gp.reference.conjugate(g).canonical
                for physical in (False, True):
                    outs = {b["output_state"].canonical for b in
                            enumerate_branches(gp.pattern, g,
                                               physical=physical)}
                    assert outs == {expect}
        cx = gps["CX"]
        inputs = [a.tensor(b)
                  for a, b in itertools.product(singles, repeat=2)]
        inputs.append(_state("+XX\n+ZZ"))
        for g in inputs:
            expect = cx.reference.conjugate(g).canonical
            outs = {b["output_state"].canonical
                    for b in enumerate_branches(cx.pattern, g)}
            assert outs == {expect}
        # projector rule: conjugating a projector permutes its diagonal
        from toystab.dynamics import PERMS
        for pid in range(len(PERMS)):
            perm = Permutation(1, (("local", 0, pid),))
            for sym in "XYZ":
                for neg in (False, True):
                    e = Element.single(1, 0, sym, neg)
                    assert _perm_matrix_conj(perm, _projector_diag(e)) \
                        == _projector_diag(perm.conj_element(e))
        # corrections applied before measuring = measuring the conjugate
        for cname in ("X", "Z"):
            perm = Permutation.local(2, 1, cname)
            for quarter in range(4):
                e = angle_element(2, 1, quarter)
                assert _perm_matrix_conj(perm, _projector_diag(e)) \
                    == _projector_diag(perm.conj_element(e))
    _checked(10, 60.0, body)


# -- 11: blindness -------------------------------------------------------------------------

def _line_pattern(n, angles):
    graph = OpenGraph(tuple(range(n)),
                      tuple((i, i + 1) for i in range(n - 1)),
                      inputs=(), outputs=(n - 1,))
    return Pattern(graph, dict(enumerate(angles)))


def test_criterion_11_blindness():
    def body():
        d1 = bvc.server_view_distribution(_line_pattern(3, (0, 1, 0)))
        d2 = bvc.server_view_distribution(_line_pattern(3, (2, 3, 1)))
        assert bvc.view_distance(d1, d2) == 0
        for view in (d1, d2):
            for pos in range(3):
                marginal = sum(w for (deltas, raw), w in view.items()
                               if raw[pos] == 0)
                assert marginal == HALF
    _checked(11, 60.0, body)


# -- 12: verification bound -----------------------------------------------------------------

def test_criterion_12_verification_bound():
    def body():
        pat3 = _line_pattern(3, (0, 1, 0))
        for trap in pat3.graph.nodes:
            total = Fraction(0)
            for w, res in bvc._plan_rounds(bvc._Plan(pat3, trap)):
                assert res.accept
                total += w
            assert total == 1
        assert bvc.exact_pfail(pat3, bvc.Deviation()) == 0
        bound3 = 1 - Fraction(1, 6)
        for site in range(3):
            assert bvc.exact_pfail(
                pat3, bvc.extremal_deviation(site)) == bound3
        pat8 = _line_pattern(8, (0, 1, 0, 2, 3, 1, 0, 0))
        est = bvc.estimate_pfail(pat8, bvc.extremal_deviation(4),
                                 rng=random.Random(12), trials=100_000)
        lo, hi = est["interval"]
        assert lo <= float(1 - Fraction(1, 16)) <= hi
    _checked(12, 300.0, body)


# -- 13: documentation scope ------------------------------------------------------------------

def test_criterion_13_documentation_scope():
    def body():
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        assert "pip install" in text and "pytest" in text
        # performance claims are out of scope by design
        assert not re.search(r"speed-?up|faster than|exponential(ly)? "
                             r"(fast|advantage)", text, re.IGNORECASE)
    _checked(13, 1.0, body)
