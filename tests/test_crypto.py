import itertools
import random
from fractions import Fraction

import pytest

from toystab.algebra import Element, Group
from toystab.crypto import (bc_cheat_imperfect, bc_cheat_perfect,
                            correlated_pair_group, no_deletion_witness,
                            saturating_purification_groups,
                            saturating_purifications, trace_distance)
from toystab.dynamics import Permutation, partial_trace
from toystab.oracle import Distribution

from conftest import random_group, random_permutation

HALF = Fraction(1, 2)


def _dist(text):
    return Distribution.from_group(Group.parse(text).require_valid())


def test_trace_distance_basics():
    assert trace_distance(_dist("+Z"), _dist("+Z")) == 0
    assert trace_distance(_dist("+Z"), _dist("-Z")) == 1
    assert trace_distance(Distribution.from_group(Group(1, [])), _dist("+Z")) == HALF


def test_correlated_pair_group_shape():
    g = correlated_pair_group([0, 1], [2, 3], 4)
    assert Element.parse("+XIXI") in g
    assert Element.parse("+ZIZI") in g
    assert Element.parse("+IXIX") in g
    assert Element.parse("+IZIZ") in g


def test_saturating_purifications_point_state():
    res = saturating_purifications(_dist("+Z"))
    assert res["distance"] == HALF
    assert trace_distance(res["psi_dist"], res["phi_dist"]) == HALF


def _all_valid_groups(n):
    """Every valid stabilizer group on n systems, all ranks."""
    seen = set()
    out = []
    elements = [Element(n, x, z, bool(s))
                for x in range(1 << n) for z in range(1 << n)
                for s in (0, 1) if x or z]
    for rank in range(n + 1):
        for gens in itertools.combinations(elements, rank):
            g = Group(n, list(gens))
            if g.is_valid and len(g.canonical) == rank \
                    and g.canonical not in seen:
                seen.add(g.canonical)
                out.append(g)
    return out


def test_distance_saturation_all_small_marginals():
    # exhaustive over every valid marginal on one system
    flat1 = Distribution.from_group(Group(1, []))
    for g in _all_valid_groups(1):
        res = saturating_purifications(Distribution.from_group(g))
        assert res["distance"] == trace_distance(
            flat1, Distribution.from_group(g))
        # and both purifications really have that marginal structure
        n = g.n
        psi_b = partial_trace(res["psi"], range(n, 2 * n))
        phi_b = partial_trace(res["phi"], range(n, 2 * n))
        assert psi_b == Group(n, [])
        assert phi_b == g


def _reference_phi(sigma_b, a_sites, b_sites, n):
    """The earlier hand-written update: to force e, keep the generators
    compatible with it, drop the first incompatible one and multiply it
    into the other incompatible ones, then add e."""
    gens = list(correlated_pair_group(a_sites, b_sites, n).canonical)
    for g in sigma_b.canonical:
        e = g.embed(n, b_sites)
        kept = []
        bad = None
        for h in gens:
            if h.compatible(e):
                kept.append(h)
            elif bad is None:
                bad = h
            else:
                kept.append(h * bad)
        gens = kept + [e]
    return Group(n, gens).require_valid()


def test_saturating_phi_matches_the_hand_update(rng):
    for _ in range(500):
        nb = rng.randint(1, 4)
        sigma = random_group(rng, nb, rng.randint(0, nb))
        sites = rng.sample(range(2 * nb), 2 * nb)
        a_sites, b_sites = sorted(sites[:nb]), sorted(sites[nb:])
        psi, phi = saturating_purification_groups(sigma, a_sites, b_sites,
                                                  2 * nb)
        assert psi == correlated_pair_group(a_sites, b_sites, 2 * nb)
        assert phi.canonical == _reference_phi(sigma, a_sites, b_sites,
                                               2 * nb).canonical


def test_saturating_pair_with_shuffled_blocks(rng):
    # site i of sigma is b_sites[i] whatever order the blocks list
    assert saturating_purification_groups(
        Group.parse("+ZI"), [0, 1], [3, 2], 4)[1] == Group.parse(
            "+ZIII\n+IXXI\n+IZZI\n+IIIZ")
    for _ in range(300):
        nb = rng.randint(1, 3)
        sigma = random_group(rng, nb, rng.randint(0, nb))
        sites = rng.sample(range(2 * nb), 2 * nb)
        a_sites, b_sites = sites[:nb], sites[nb:]
        psi, phi = saturating_purification_groups(sigma, a_sites, b_sites,
                                                  2 * nb)
        assert phi.canonical == _reference_phi(sigma, a_sites, b_sites,
                                               2 * nb).canonical
        # the marginal lists the b sites ascending: sigma's site i is at
        # the rank of b_sites[i]
        ranks = [sorted(b_sites).index(s) for s in b_sites]
        assert partial_trace(phi, b_sites) == Group(
            nb, [e.embed(nb, ranks) for e in sigma.canonical])
        assert partial_trace(psi, b_sites) == Group(nb, [])
        assert trace_distance(Distribution.from_group(psi),
                              Distribution.from_group(phi)) == trace_distance(
            Distribution.from_group(Group(nb, [])),
            Distribution.from_group(sigma))


def test_bc_perfect_cheat(rng):
    # committing party flips between two equivalent-marginal encodings
    s0 = Group.parse("+XX\n+ZZ").require_valid()
    s1 = Group.parse("-XX\n+ZZ").require_valid()
    res = bc_cheat_perfect(s0, s1, [0])
    assert res["acceptance_probability"] == 1
    assert res["flip"].conjugate(s0) == s1
    assert set(res["flip"].sites) <= {0}


def test_bc_perfect_cheat_random_fixtures(rng):
    for _ in range(20):
        n = 4
        a_sites = [0, 1]
        s0 = random_group(rng, n, n)
        # scramble only the committing party's half: marginal on B unchanged
        local = random_permutation(rng, 2)
        lift = Permutation(n, tuple(
            (f[0], f[1], f[2]) for f in local.factors))
        s1 = lift.conjugate(s0)
        res = bc_cheat_perfect(s0, s1, a_sites)
        assert res["acceptance_probability"] == 1


def test_bc_imperfect_cheat(rng):
    grid = correlated_pair_group([0, 1], [2, 3], 4)
    hits = 0
    for _ in range(25):
        # encoding 0 hides everything (flat far marginal); encoding 1 leaks
        a_scramble = random_permutation(rng, 2)
        lift = Permutation(4, a_scramble.factors)
        s0 = lift.conjugate(grid)
        s1 = random_permutation(rng, 4).conjugate(grid)
        rho0 = Distribution.from_group(partial_trace(s0, [2, 3]))
        rho1 = Distribution.from_group(partial_trace(s1, [2, 3]))
        eps = trace_distance(rho0, rho1)
        if eps == 0:
            continue
        res = bc_cheat_imperfect(s0, s1, [0, 1])
        assert res["epsilon"] == eps
        assert res["cheat_distance"] == eps
        # cheating within eps always beats the sqrt(2 eps) benchmark
        assert res["beats_naive_bound"]
        assert float(eps) < res["naive_bound"]
        hits += 1
    assert hits > 0


def test_no_deletion_witness():
    from toystab.codes import five_system_code
    code = five_system_code()
    res = no_deletion_witness(code.stabilizers, code.logical_z[0],
                              code.logical_x[0], [0, 1, 2])
    assert res["b_independent"]
    # the flips really act inside the first block only
    assert set(res["x_flip"].sites) <= {0, 1, 2}
    assert set(res["z_flip"].sites) <= {0, 1, 2}
