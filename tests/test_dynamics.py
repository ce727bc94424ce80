import random
from fractions import Fraction

import pytest

from toystab.algebra import Element, Group
from toystab.dynamics import (NAMED_PERMS, PERMS, Measurement, Permutation,
                              erase, generalized_map, measure_element,
                              partial_trace, purify, relate_purifications)
from toystab.oracle import Distribution, group_from_distribution, measure_observable

from conftest import random_element, random_group, random_permutation

HALF = Fraction(1, 2)


def _state(text):
    return Group.parse(text).require_valid()


# -- named permutations ------------------------------------------------------

def test_named_perm_actions():
    h = Permutation.local(1, 0, "H")
    assert h.conjugate(_state("+X")) == _state("+Z")
    assert h.conjugate(_state("+Z")) == _state("+X")
    assert h.conjugate(_state("+Y")) == _state("+Y")  # a<->b swap fixes Y

    x = Permutation.local(1, 0, "X")
    assert x.conjugate(_state("+Z")) == _state("-Z")
    assert x.conjugate(_state("+X")) == _state("+X")

    p = Permutation.local(1, 0, "P")
    assert p.conjugate(_state("+X")) == _state("+Y")
    assert p.conjugate(_state("+Y")) == _state("-X")
    assert p.conjugate(_state("+Z")) == _state("-Z")


def test_local_perms_are_all_distinct():
    assert len(set(PERMS)) == 24


def test_conjugation_matches_ontic_action(rng):
    # conj_element commutes with the ontic permutation at distribution level
    for _ in range(60):
        n = rng.randrange(1, 4)
        g = random_group(rng, n, rng.randrange(1, n + 1))
        perm = random_permutation(rng, n)
        lhs = Distribution.from_group(perm.conjugate(g))
        rhs = Distribution.from_group(g).permuted(perm)
        assert lhs == rhs


def test_controlled_factors_are_involutions(rng):
    for kind in ("cz", "cx", "cy"):
        perm = Permutation.controlled(3, kind, 0, 2)
        g = random_group(rng, 3, 2)
        assert perm.conjugate(perm.conjugate(g)) == g


def test_inverse_round_trip(rng):
    for _ in range(20):
        n = rng.randrange(1, 4)
        perm = random_permutation(rng, n)
        g = random_group(rng, n, rng.randrange(n + 1))
        assert perm.inverse().conjugate(perm.conjugate(g)) == g


def test_perm_json_round_trip(rng):
    for _ in range(20):
        n = rng.randrange(1, 4)
        perm = random_permutation(rng, n)
        back = Permutation.from_json(n, perm.to_json())
        g = random_group(rng, n, rng.randrange(n + 1))
        assert back.conjugate(g) == perm.conjugate(g)


# -- measurement -------------------------------------------------------------

def test_measure_member_is_deterministic():
    out, post, p = measure_element(_state("+Z"), Element.parse("+Z"))
    assert (out, p) == (0, 1) and post == _state("+Z")
    out, post, p = measure_element(_state("+Z"), Element.parse("-Z"))
    assert (out, p) == (1, 1)


def test_measure_incompatible_updates_state():
    for force in (0, 1):
        out, post, p = measure_element(_state("+Z"), Element.parse("+X"),
                                       force=force)
        assert p == HALF and out == force
        assert post == Group(1, [Element.single(1, 0, "X", bool(force))])


def test_measure_matches_oracle(rng):
    for _ in range(150):
        n = rng.randrange(1, 4)
        g = random_group(rng, n, rng.randrange(1, n + 1))
        e = random_element(rng, n)
        oracle_branches = {out: (p, post) for out, p, post
                           in measure_observable(Distribution.from_group(g), e)}
        for force in (0, 1):
            out, post, p = measure_element(g, e, force=force)
            op, opost = oracle_branches.get(force, (Fraction(0), None))
            assert p == op
            if p:
                assert Distribution.from_group(post) == opost


def test_measurement_partition_and_sampling(rng):
    branches = [("+", Group.parse("+Z")), ("-", Group.parse("-Z"))]
    m = Measurement(tuple(branches))
    m.validate_partition()
    label, post, p = None, None, None
    # sampling from the maximally mixed state picks each cell half the time
    from toystab.dynamics import measure
    counts = {"+": 0, "-": 0}
    r = random.Random(7)
    for _ in range(200):
        label, post, p = measure(Group(1, []), m, r)
        counts[label] += 1
        assert p == HALF
    assert counts["+"] > 0 and counts["-"] > 0


def test_bad_partition_rejected():
    m = Measurement((("a", Group.parse("+Z")), ("b", Group.parse("+X"))))
    with pytest.raises(ValueError):
        m.validate_partition()


# -- trace / purification ----------------------------------------------------

def test_partial_trace_examples():
    g = _state("+XX\n+ZZ")
    assert partial_trace(g, [0]) == Group(1, [])
    both = partial_trace(g, [0, 1])
    assert both == g


def test_partial_trace_matches_marginal(rng):
    for _ in range(60):
        n = rng.randrange(2, 5)
        g = random_group(rng, n, rng.randrange(1, n + 1))
        keep = sorted(rng.sample(range(n), rng.randrange(1, n)))
        lhs = Distribution.from_group(partial_trace(g, keep))
        rhs = Distribution.from_group(g).marginal(keep)
        assert lhs == rhs


def test_erase_keeps_width():
    g = _state("+XX\n+ZZ")
    e = erase(g, [1])
    assert e.n == 2 and e == Group(2, [])


@pytest.mark.parametrize("sites, message", [
    ([9], "site 9 out of range"),
    ([2], "site 2 out of range"),
    ([-1], "site -1 out of range"),
    ([1, 1], "site 1 listed twice"),
])
def test_trace_and_erase_reject_bad_sites(sites, message):
    g = _state("+XX\n+ZZ")
    with pytest.raises(ValueError, match=message):
        partial_trace(g, sites)
    with pytest.raises(ValueError, match=message):
        erase(g, sites)


def test_partial_trace_orders_kept_sites():
    g = _state("+XI\n+IZ")
    assert partial_trace(g, [1, 0]) == partial_trace(g, [0, 1]) == g


def test_local_perm_rejects_unknown_spec():
    for spec in ("Q", [0, 1, 2, 2], -1, 24, None):
        with pytest.raises(ValueError, match="unknown permutation"):
            Permutation.local(1, 0, spec)
    with pytest.raises(ValueError, match="'perm'"):
        Permutation.from_json(1, [{"site": 1}])
    with pytest.raises(ValueError, match="'site'"):
        Permutation.from_json(2, [{}])


def test_purify_round_trip(rng):
    for _ in range(100):
        n = rng.randrange(1, 5)
        g = random_group(rng, n, rng.randrange(n + 1))
        pure = purify(g)
        assert pure.n == 2 * n
        assert len(pure.canonical) == 2 * n
        assert partial_trace(pure, range(n)) == g


def test_relate_purifications(rng):
    # two purifications of the same marginal differ by a ref-local move
    for _ in range(25):
        n = rng.randrange(1, 4)
        g = random_group(rng, n, rng.randrange(n + 1))
        p1 = purify(g)
        ref = list(range(n, 2 * n))
        scramble = random_permutation(rng, n)
        lift = Permutation(2 * n, tuple(
            (f[0], f[1] + n, f[2] + (n if f[0] != "local" else 0))
            for f in scramble.factors))
        p2 = lift.conjugate(p1)
        mover = relate_purifications(p1, p2, ref)
        assert set(mover.sites) <= set(ref)
        assert mover.conjugate(p2) == p1


def test_generalized_map_runs(rng):
    # attach an ancilla, entangle, measure it out, keep the system
    g = _state("+Z")
    ancilla = _state("+X")
    perm = Permutation.controlled(2, "cz", 0, 1)
    m = Measurement((("0", Group.parse("+IX")), ("1", Group.parse("-IX"))))
    branches = generalized_map(g, ancilla, perm, m, keep=[0])
    assert sum(p for _, p, _ in branches) == 1
    for _, p, out in branches:
        assert out.n == 1
