import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toystab.algebra import Element, Group, echelon
from toystab.dynamics import (CTRL_KINDS, NAMED_PERMS, PERM_ID, PERMS,
                              Permutation, _check_sites, erase, marginal_rows,
                              measure_element, partial_trace, purify,
                              relate_purifications, synthesize_symplectic,
                              trace_site)
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


@pytest.mark.parametrize("factor, element", [
    (("cx", 0, 5), "+XI"), (("cx", 5, 0), "+ZI"), (("cz", 0, 5), "+XI"),
    (("cz", 5, 0), "+XI"), (("cy", 0, 5), "+XI"), (("cy", 5, 0), "+ZI"),
])
def test_factor_outside_the_register_raises(factor, element):
    # a factor built directly, past the checks of Permutation.controlled,
    # that would move a symbol off the register
    with pytest.raises(ValueError, match="outside the register"):
        Permutation(2, (factor,)).conj_element(Element.parse(element))


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


@pytest.mark.parametrize("state, symbol", [("+Z", "+X"), ("+Z", "+Z"),
                                           ("+Z", "-Z")])
def test_measure_rejects_a_forced_outcome_other_than_a_bit(state, symbol):
    # random, deterministic 0 and deterministic 1 outcomes alike; 1.0 and
    # True equal a bit but would be returned as the outcome
    for force in (5, -1, 2, 1.0, True):
        with pytest.raises(ValueError, match="is 0 or 1"):
            measure_element(_state(state), Element.parse(symbol), force=force)


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


# -- validity trusted from measurement and conjugation ----------------------

@st.composite
def _elements(draw, n):
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    return Element(n, x, z, draw(st.booleans()))


@st.composite
def _valid_groups(draw):
    """A valid group grown one candidate at a time through plain Group(...),
    keeping each candidate whose extended group passes its own check."""
    n = draw(st.integers(1, 6))
    gens = []
    for cand in draw(st.lists(_elements(n), max_size=8)):
        if not Group(n, gens + [cand]).violations():
            gens.append(cand)
    return Group(n, gens)


@st.composite
def _permutations(draw, n, sites=None):
    """Up to 8 random factors on ``sites`` (default: all n systems)."""
    sites = list(range(n)) if sites is None else sites
    factors = []
    for _ in range(draw(st.integers(0, 8)) if sites else 0):
        if len(sites) >= 2 and draw(st.booleans()):
            c, t = draw(st.permutations(sites))[:2]
            factors.append((draw(st.sampled_from(CTRL_KINDS)), c, t))
        else:
            factors.append(("local", draw(st.sampled_from(sites)),
                            draw(st.integers(0, len(PERMS) - 1))))
    return Permutation(n, tuple(factors))


def _freshly_checked(g):
    return Group(g.n, g.generators).violations()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_measured_and_conjugated_groups_are_valid(data):
    g = data.draw(_valid_groups())
    e = data.draw(_elements(g.n).filter(lambda e: not e.is_identity_symbol))
    for force in (0, 1):
        _, post, p = measure_element(g, e, force=force)
        if p:
            assert _freshly_checked(post) == []
    moved = data.draw(_permutations(g.n)).conjugate(g.require_valid())
    assert _freshly_checked(moved) == []


def test_conjugating_an_invalid_group_vouches_for_nothing():
    gens = [Element.parse("+XI"), Element.parse("+ZI")]
    checked, unchecked = Group(2, gens), Group(2, gens)
    assert checked.violations()
    h = Permutation.local(2, 1, "H")
    for group in (checked, unchecked):
        for g in (h.conjugate(group), group):
            with pytest.raises(ValueError, match="incompatible pair"):
                measure_element(g, Element.parse("+IZ"), force=0)


# -- incremental update against the rebuild it replaced ----------------------

def _reference_measure_element(group, e, *, rng=None, force=None):
    """The earlier measure_element: membership, then a re-echelon of the
    kept generators, each incompatible one multiplied by the first."""
    group.require_valid()
    status = group.member(e)
    if status != "absent":
        out = 0 if status == "in" else 1
        if force is not None and force != out:
            return force, None, Fraction(0)
        return out, group, Fraction(1)
    out = force if force is not None else rng.randrange(2)
    observed = e if out == 0 else e.negated()
    bad = [g for g in group.canonical if not g.compatible(e)]
    if not bad:
        return out, group.extended(observed), HALF
    pivot = bad[0]
    gens = [g if g.compatible(e) else g * pivot
            for g in group.canonical if g is not pivot]
    return out, Group(group.n, gens + [observed]), HALF


@st.composite
def _large_valid_groups(draw):
    """A valid group on n <= 70 systems: a Z-basis seed of random rank and
    signs, scrambled by a random permutation of depth 3n."""
    n = draw(st.integers(1, 70))
    rank = draw(st.integers(0, n))
    return random_group(random.Random(draw(st.integers(0, 2**32))), n, rank)


@st.composite
def _observables(draw, g):
    """A random non-identity element, or a signed product of canonical
    rows (a deterministic outcome)."""
    if g.rank and draw(st.booleans()):
        mask = draw(st.integers(1, (1 << g.rank) - 1))
        e = Element.identity(g.n)
        for i, row in enumerate(g.canonical):
            if mask >> i & 1:
                e = e * row
        return e.negated() if draw(st.booleans()) else e
    return draw(_elements(g.n).filter(lambda e: not e.is_identity_symbol))


def _same_post(got, want):
    """Equal results, with the engine's post group valid and canonical."""
    (out, post, p), (want_out, want_post, want_p) = got, want
    assert (out, p) == (want_out, want_p)
    if want_post is None:
        assert post is None
        return
    assert post.canonical == want_post.canonical
    assert post is want_post or post.generators == post.canonical
    assert post._known_valid and want_post.violations() == []
    assert _freshly_checked(post) == []


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_incremental_measurement_matches_rebuild(data):
    g = data.draw(_large_valid_groups())
    e = data.draw(_observables(g))
    for force in (0, 1):
        _same_post(measure_element(g, e, force=force),
                   _reference_measure_element(g, e, force=force))
    seed = data.draw(st.integers(0, 2**32))
    _same_post(measure_element(g, e, rng=random.Random(seed)),
               _reference_measure_element(g, e, rng=random.Random(seed)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_trace_site_matches_erase(data):
    # the in-place trace of one site gives the reduced rows of erasing it
    g = data.draw(_large_valid_groups())
    site = data.draw(st.integers(0, g.n - 1))
    rows = dict(g._pivots)
    trace_site(rows, site)
    assert rows == reference_erase(g, [site])._pivots


_FLIP_IDS = {PERM_ID[NAMED_PERMS[w]] for w in "IXYZ"}


@st.composite
def _flips_or_general(draw, n):
    """A product of symbol flips, or a random permutation of any factors."""
    if draw(st.booleans()):
        return Permutation(n, tuple(
            ("local", draw(st.integers(0, n - 1)),
             draw(st.sampled_from(sorted(_FLIP_IDS))))
            for _ in range(draw(st.integers(0, 8)))))
    return draw(_permutations(n))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sign_only_conjugation_matches_rebuild(data):
    g = data.draw(_large_valid_groups())
    perm = data.draw(_flips_or_general(g.n))
    want = Group(g.n, [perm.conj_element(h) for h in g.canonical])
    unchecked = perm.conjugate(Group(g.n, g.canonical))
    moved = perm.conjugate(g.require_valid())
    assert moved.canonical == unchecked.canonical == want.canonical
    assert moved._known_valid and not unchecked._known_valid
    assert want.violations() == [] and _freshly_checked(moved) == []


def test_controlled_factors_take_the_general_path():
    g = _state("+XZI\n+ZXZ\n+IZX")
    for kind in CTRL_KINDS:
        # a target site that is also the id of a symbol-flip permutation
        perm = Permutation(3, ((kind, 1, 0),))
        want = Group(3, [perm.conj_element(h) for h in g.canonical])
        assert perm.conjugate(g).canonical == want.canonical
    flip = Permutation(3, (("local", 0, PERM_ID[NAMED_PERMS["Z"]]),))
    assert str(flip.conjugate(g)) == str(Group(3, [
        Element.parse("-XZI"), Element.parse("+ZXZ"), Element.parse("+IZX")]))


@pytest.mark.parametrize("group", [
    Group(2, []), Group.trivial(2).require_valid(), _state("+ZI"),
    Group(2, [Element.parse("+XX")]), Group(4, [])])
@pytest.mark.parametrize("perm", [Permutation.identity(3),
                                  Permutation.local(3, 1, "Z"),
                                  Permutation.local(3, 0, "H")])
def test_conjugate_rejects_a_group_of_another_size(group, perm):
    # trivial groups included: they have no element to catch the mismatch
    with pytest.raises(ValueError, match="size mismatch"):
        perm.conjugate(group)


# -- the derived symbol action against the hand-coded one it replaced --------

def _reference_signed_diags():
    out = {}
    for x, z in ((1, 0), (1, 1), (0, 1)):
        for neg in (False, True):
            e = Element(1, x, z, neg)
            diag = tuple(-1 if e.eval_bit(s & 1, s >> 1) else 1
                         for s in range(4))
            out[diag] = (x, z, neg)
    return out


_REF_DIAGS = _reference_signed_diags()


def _reference_image(perm, x, z):
    """Image of one single-site symbol by matching the conjugated diagonal
    d'[i] = d[perm^-1(i)] against the six signed symbols."""
    e = Element(1, x, z)
    inv = [0] * 4
    for s, t in enumerate(perm):
        inv[t] = s
    return _REF_DIAGS[tuple(-1 if e.eval_bit(inv[i] & 1, inv[i] >> 1) else 1
                            for i in range(4))]


# images of X and Z under every single-site permutation
_REF_ACTION = [(_reference_image(p, 1, 0), _reference_image(p, 0, 1))
               for p in PERMS]


def _reference_conj_element(perm, e):
    """The earlier conj_element: matched single-site images and a
    hand-written symbol map for each controlled kind."""
    x, z, neg = e.x, e.z, e.neg
    for f in perm.factors:
        if f[0] == "local":
            _, i, pid = f
            xb, zb = (x >> i) & 1, (z >> i) & 1
            nx = nz = 0
            for bit, (ix, iz, ineg) in zip((xb, zb), _REF_ACTION[pid]):
                if bit:
                    nx, nz, neg = nx ^ ix, nz ^ iz, neg ^ ineg
            x = (x & ~(1 << i)) | (nx << i)
            z = (z & ~(1 << i)) | (nz << i)
        else:
            kind, c, t = f
            xc, zc = (x >> c) & 1, (z >> c) & 1
            xt, zt = (x >> t) & 1, (z >> t) & 1
            if kind == "cz":
                zt ^= xc
                zc ^= xt
            elif kind == "cx":
                xt ^= xc
                zc ^= zt
            else:  # cy
                zc ^= xt ^ zt
                xt ^= xc
                zt ^= xc
            x = (x & ~(1 << c) & ~(1 << t)) | (xc << c) | (xt << t)
            z = (z & ~(1 << c) & ~(1 << t)) | (zc << c) | (zt << t)
    return Element(e.n, x, z, neg)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_derived_conjugation_matches_hand_coded(data):
    n = data.draw(st.integers(1, 8))
    perm = data.draw(_permutations(n))
    e = data.draw(_elements(n))
    got, want = perm.conj_element(e), _reference_conj_element(perm, e)
    assert got == want and type(got.neg) is bool


def _block(v, j):
    return ((v >> (2 * j)) & 1) | (((v >> (2 * j + 1)) & 1) << 1)


def _apply_matrix_block(v, j, mat):
    xb, zb = (v >> (2 * j)) & 1, (v >> (2 * j + 1)) & 1
    nx = (mat[0][0] & xb) ^ (mat[0][1] & zb)
    nz = (mat[1][0] & xb) ^ (mat[1][1] & zb)
    return v & ~(0b11 << (2 * j)) | (nx << (2 * j)) | (nz << (2 * j + 1))


def _reference_gate_apply(gate, v):
    """A 2x2 matrix on one site's block, or a cx (the only controlled
    gate of the sweep) written on the interleaved bits."""
    if gate[0] == "local":
        return _apply_matrix_block(v, gate[1], gate[2])
    _, c, t = gate
    xc, zc = (v >> (2 * c)) & 1, (v >> (2 * c + 1)) & 1
    xt, zt = (v >> (2 * t)) & 1, (v >> (2 * t + 1)) & 1
    xt ^= xc
    zc ^= zt
    v &= ~(0b11 << (2 * c)) & ~(0b11 << (2 * t))
    return (v | (xc << (2 * c)) | (zc << (2 * c + 1)) | (xt << (2 * t))
            | (zt << (2 * t + 1)))


# plus-signed permutation id of each 2x2 symbol action
_REF_ACTION_PID = {((xx, xz), (zx, zz)): pid
                   for pid, ((xx, xz, xn), (zx, zz, zn)) in enumerate(_REF_ACTION)
                   if not xn and not zn}


def _reference_synthesize(f_columns, sites):
    """The earlier synthesize_symplectic: 2x2 GF(2) gate matrices, then an
    inversion pass naming each inverse matrix by its permutation id."""
    to_x = {1: ((1, 0), (0, 1)), 2: ((0, 1), (1, 0)), 3: ((1, 0), (1, 1))}
    fix_cz = ((1, 1), (0, 1))
    to_z = {2: ((1, 0), (0, 1)), 1: ((0, 1), (1, 0)), 3: ((1, 1), (0, 1))}
    cols = list(f_columns)
    gates = []

    def apply(gate):
        gates.append(gate)
        cols[:] = [_reference_gate_apply(gate, c) for c in cols]

    for i in range(sites):
        if _block(cols[2 * i], i) == 0:
            j = next(j for j in range(i + 1, sites) if _block(cols[2 * i], j))
            for g in (("cx", i, j), ("cx", j, i), ("cx", i, j)):
                apply(g)
        b = _block(cols[2 * i], i)
        if b != 1:
            apply(("local", i, to_x[b]))
        for j in range(sites):
            bj = _block(cols[2 * i], j)
            if j != i and bj:
                if bj != 1:
                    apply(("local", j, to_x[bj]))
                apply(("cx", i, j))
        for j in range(sites):
            bj = _block(cols[2 * i + 1], j)
            if j != i and bj:
                if bj != 2:
                    apply(("local", j, to_z[bj]))
                apply(("cx", j, i))
        if _block(cols[2 * i + 1], i) == 3:
            apply(("local", i, fix_cz))
    assert cols == [1 << j for j in range(2 * sites)]
    out = []
    for g in reversed(gates):
        if g[0] == "local":
            (a, b), (c, d) = g[2]
            inv = ((d, b), (c, a))     # the inverse of a determinant-1 matrix
            out.append(("local", g[1],
                        _REF_ACTION_PID[((inv[0][0], inv[1][0]),
                                         (inv[0][1], inv[1][1]))]))
        else:
            out.append(g)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_synthesis_matches_matrix_sweep(data):
    r = data.draw(st.integers(1, 5))
    perm = data.draw(_permutations(r))
    cols = [perm.conj_element(Element.from_interleaved(r, 1 << c)).interleaved()
            for c in range(2 * r)]
    factors = synthesize_symplectic(cols, r)
    assert factors == _reference_synthesize(cols, r)
    realized = Permutation(r, tuple(factors))
    assert [realized.conj_element(Element.from_interleaved(r, 1 << c))
            .interleaved() for c in range(2 * r)] == cols


# -- trace / purification ----------------------------------------------------

def _site_bits(e, sites):
    out = 0
    for i, s in enumerate(sites):
        out |= (e.x >> s & 1) << 2 * i | (e.z >> s & 1) << 2 * i + 1
    return out


def reference_partial_trace(group, keep):
    """The earlier partial trace: echelon the canonical elements with the
    dropped columns lowest; the reduced rows with a pivot above them are
    clear of them and span the marginal on the kept sites, ascending."""
    group.require_valid()
    keep = sorted(_check_sites(group.n, keep))
    drop = [s for s in range(group.n) if s not in keep]
    width = 2 * len(drop)
    pivots, _ = echelon(
        (_site_bits(g, drop) | _site_bits(g, keep) << width, g.neg)
        for g in group.canonical)
    return Group(len(keep), [
        Element.from_interleaved(len(keep), pivots[p][0] >> width, pivots[p][1])
        for p in sorted(pivots) if p >> width])


def reference_erase(group, sites):
    """The earlier erase: the partial trace on the other sites, embedded
    back at them."""
    sites = set(_check_sites(group.n, sites))
    keep = [s for s in range(group.n) if s not in sites]
    return reference_partial_trace(group, keep).embed(group.n, keep)


@st.composite
def _states_and_sites(draw):
    """A valid state on n <= 8 systems of any rank, and a site list in any
    order, empty and full included."""
    n = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_group(rng, n, draw(st.integers(0, n)))
    sites = draw(st.permutations(range(n)))
    return g, sites[:draw(st.integers(0, n))]


@settings(max_examples=300, deadline=None)
@given(_states_and_sites())
def test_trace_and_erase_match_reference(case):
    g, sites = case
    before = dict(g._pivots)
    for got, want in ((partial_trace(g, sites), reference_partial_trace(g, sites)),
                      (erase(g, sites), reference_erase(g, sites))):
        assert (got.n, got.generators, got.canonical, got._pivots) == \
            (want.n, want.generators, want.canonical, want._pivots)
        assert got.is_valid == want.is_valid
    assert marginal_rows(g._pivots, sorted(sites)) == \
        reference_partial_trace(g, sites)._pivots
    assert g._pivots == before


def reference_marginal_rows(rows, keep, sites):
    """The earlier ``marginal_rows``: trace every site not kept, held or
    not, then pack the kept sites."""
    rows = dict(rows)
    for s in range(sites):
        if s not in keep:
            trace_site(rows, s)
    out = {}
    for bits, neg in rows.values():
        packed = sum((bits >> 2 * s & 3) << 2 * i for i, s in enumerate(keep))
        out[packed & -packed] = (packed, neg)
    return out


@settings(max_examples=300, deadline=None)
@given(_states_and_sites(), st.integers(0, 8), st.integers(0, 2**32))
def test_marginal_rows_match_the_every_site_trace(case, pad, seed):
    # the state sits on random sites of a wider register, so most sites
    # hold no bit, as on a pattern's live frontier
    g, sites = case
    n = g.n + pad
    rng = random.Random(seed)
    where = rng.sample(range(n), g.n)
    wide = Group(n, [e.embed(n, where) for e in g.generators])
    idle = [s for s in range(n) if s not in where]
    keep = sorted([where[s] for s in sites]
                  + rng.sample(idle, rng.randint(0, pad)))
    before = dict(wide._pivots)
    assert marginal_rows(wide._pivots, keep) == \
        reference_marginal_rows(wide._pivots, keep, n)
    assert wide._pivots == before


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
    ([True], "site True is not an int"),
    ([0.0], "site 0.0 is not an int"),
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


@pytest.mark.parametrize("site", [True, 1.0, "1"])
def test_permutation_builders_reject_a_site_that_is_not_an_int(site):
    # a bool equals an int site and was built into the factor as one
    message = re.escape(f"site {site!r} is not an int")
    for build in (lambda: Permutation.local(2, site, "X"),
                  lambda: Permutation.controlled(3, "cz", site, 2),
                  lambda: Permutation.controlled(3, "cx", 0, site)):
        with pytest.raises(ValueError, match=message):
            build()


def test_local_perm_rejects_unknown_spec():
    for spec in ("Q", [0, 1, 2, 2], -1, 24, None, True,
                 [True, 0, 2, 3], (1, 0, 2.0, 3), [1, 0, 2, 3, 4], "XZ"):
        with pytest.raises(ValueError, match="unknown permutation"):
            Permutation.local(1, 0, spec)
    # four int images, given as any sequence, name the permutation
    assert Permutation.local(1, 0, [1, 0, 2, 3]) \
        == Permutation.local(1, 0, (1, 0, 2, 3)) == Permutation.local(1, 0, 6)
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relate_purifications_any_reference_block(data):
    # two reference-local scrambles of a random pure state, with the
    # reference an arbitrary (often non-contiguous) subset of the sites
    n = data.draw(st.integers(1, 6))
    pure = random_group(random.Random(data.draw(st.integers(0, 2**32))), n, n)
    ref = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    target = data.draw(_permutations(n, ref)).conjugate(pure)
    source = data.draw(_permutations(n, ref)).conjugate(pure)
    mover = relate_purifications(target, source, ref)
    assert mover.sites <= set(ref)
    assert mover.conjugate(source) == target


@pytest.mark.parametrize("ref, message", [
    ([5], "site 5 out of range for n=2"),
    ([-1], "site -1 out of range for n=2"),
    ([1, 1], "site 1 listed twice"),
])
def test_relate_purifications_rejects_bad_reference_sites(ref, message):
    pure = _state("+XX\n+ZZ")
    with pytest.raises(ValueError, match=message):
        relate_purifications(pure, pure, ref)
