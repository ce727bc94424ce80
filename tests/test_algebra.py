import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from toystab.algebra import (Element, Group, echelon, insert, matrix_diag,
                             reduce, solve_gf2)
from toystab.dynamics import Permutation, _nullspace, _solve_affine

from conftest import random_element, random_group


SINGLE = ["+I", "+X", "+Y", "+Z", "-I", "-X", "-Y", "-Z"]


def _mat_mul_diag(a, b):
    return [x * y for x, y in zip(a, b)]


def test_products_match_matrix_products():
    # every single-system product, checked against explicit diagonal matrices
    for sa, sb in itertools.product(SINGLE, repeat=2):
        ea, eb = Element.parse(sa), Element.parse(sb)
        prod = ea * eb
        assert matrix_diag(prod) == _mat_mul_diag(matrix_diag(ea), matrix_diag(eb))


def test_xz_is_y_with_plus_sign():
    assert Element.parse("+X") * Element.parse("+Z") == Element.parse("+Y")
    assert Element.parse("+Z") * Element.parse("+X") == Element.parse("+Y")


def test_parse_str_round_trip():
    for s in ("+XZIY", "-ZZZZ", "+IIII", "-Y"):
        assert str(Element.parse(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Element.parse("XQ")
    with pytest.raises(ValueError):
        Element.parse("")


@given(st.integers(1, 4), st.integers(0, 2**32))
def test_product_associative_and_commutative(n, seed):
    r = random.Random(seed)
    a, b, c = (random_element(r, n) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(st.integers(1, 4), st.integers(0, 2**32))
def test_self_product_is_identity(n, seed):
    a = random_element(random.Random(seed), n)
    assert a * a == Element.identity(n)


def test_compatibility_single_system():
    x, y, z = (Element.parse("+" + w) for w in "XYZ")
    assert not x.compatible(z)
    assert not x.compatible(y)
    assert not y.compatible(z)
    assert x.compatible(x) and x.compatible(Element.identity(1))


def test_compatibility_two_system_pairs():
    assert Element.parse("+XX").compatible(Element.parse("+ZZ"))
    assert Element.parse("+XI").compatible(Element.parse("+IZ"))
    assert not Element.parse("+XI").compatible(Element.parse("+ZI"))


@given(st.integers(1, 70), st.data())
def test_compatible_counts_anticommuting_sites(n, data):
    a, b = (Element(n, data.draw(st.integers(0, (1 << n) - 1)),
                    data.draw(st.integers(0, (1 << n) - 1))) for _ in range(2))
    clashes = sum(a.symbol_at(i) != b.symbol_at(i) and "I" not in
                  (a.symbol_at(i), b.symbol_at(i)) for i in range(n))
    assert a.compatible(b) == (clashes % 2 == 0)


def test_violations_are_remembered_but_not_shared():
    bad = Group(2, [Element.parse("+XI"), Element.parse("+ZI")])
    first = bad.violations()
    first.append("junk")
    first.pop(0)
    assert bad.violations() == ["incompatible pair: +XI and +ZI"]
    good = Group.parse("+XX\n+ZZ")
    good.violations().append("junk")
    assert good.violations() == [] and good.is_valid
    assert good.require_valid() is good
    with pytest.raises(ValueError, match="incompatible pair"):
        bad.require_valid()


def test_quantum_style_set_rejected():
    g = Group.parse("+XX\n+ZZ\n-YY")
    assert not g.is_valid
    assert any("negative identity" in v for v in g.violations())
    with pytest.raises(ValueError):
        g.require_valid()


def test_translated_generating_sets_validate():
    # the three translated generating sets of the same quantum state each
    # give a distinct valid group
    s1 = Group.parse("+XX\n+ZZ").require_valid()
    s2 = Group.parse("+XX\n-YY").require_valid()
    s3 = Group.parse("+ZZ\n-YY").require_valid()
    assert Element.parse("+YY") in s1
    assert Element.parse("-ZZ") in s2
    assert Element.parse("-XX") in s3
    assert len({s1.canonical, s2.canonical, s3.canonical}) == 3


def test_incompatible_generators_rejected():
    g = Group(1, [Element.parse("+X"), Element.parse("+Z")])
    assert not g.is_valid


def test_membership_three_way():
    g = Group.parse("+XX\n+ZZ").require_valid()
    assert g.member(Element.parse("+YY")) == "in"
    assert g.member(Element.parse("-YY")) == "negation"
    assert g.member(Element.parse("+XZ")) == "absent"


def test_canonical_form_is_generator_independent(rng):
    for _ in range(50):
        n = rng.randrange(1, 5)
        g = random_group(rng, n, rng.randrange(1, n + 1))
        gens = list(g.canonical)
        rng.shuffle(gens)
        # multiply some generators together; the group is unchanged
        if len(gens) > 1:
            gens[0] = gens[0] * gens[1]
        assert Group(n, gens) == g


def test_elements_enumeration():
    g = Group.parse("+XX\n+ZZ").require_valid()
    els = set(g.elements())
    assert len(els) == 4
    assert Element.identity(2) in els


def test_tensor_and_embed():
    a = Group.parse("+X").require_valid()
    b = Group.parse("+ZZ").require_valid()
    t = a.tensor(b)
    assert t.n == 3
    assert Element.parse("+XII") in t and Element.parse("+IZZ") in t


def test_solve_gf2():
    rows = [0b011, 0b110]
    assert solve_gf2(rows, 0b101) == 0b11  # row0 ^ row1
    assert solve_gf2(rows, 0b111) is None


def test_restrict_and_support():
    e = Element.parse("+XIZ")
    assert e.support == (0, 2)


def test_embed_rejects_a_repeated_target_site():
    e = Element.parse("+XZ")
    with pytest.raises(ValueError, match="target site 1 listed twice"):
        e.embed(3, [1, 1])
    with pytest.raises(ValueError, match="target site 1 listed twice"):
        Group(2, [e]).embed(3, [1, 1])
    assert e.embed(3, [2, 0]) == Element.parse("+ZIX")


@pytest.mark.parametrize("sites, message", [
    ([1, 1], "target site 1 listed twice"),
    ([7, 9], "target site 7 out of range"),
    ([0], "site list does not match element size"),
    ([0, 1, 2], "site list does not match element size"),
])
def test_embed_checks_the_sites_of_a_trivial_group(sites, message):
    # a trivial group has no generator to check the list, and must still
    # reject it as a rank-1 group does
    for group in (Group(2, []), Group(2, [Element.parse("+XZ")])):
        with pytest.raises(ValueError, match=message):
            group.embed(3, sites)
    assert Group(2, []).embed(3, [2, 0]) == Group(3, [])


_NEG_PAIR = Group.parse("+ZI\n-ZI")


@pytest.mark.parametrize("rebuild, message", [
    (lambda: Permutation.local(1, 0, "H").conjugate(Group.parse("+Z\n-Z")),
     "negative identity"),
    (lambda: _NEG_PAIR.embed(3, [0, 1]), "negative identity"),
    (lambda: _NEG_PAIR.tensor(Group.parse("+X")), "negative identity"),
    (lambda: _NEG_PAIR.extended(Element.parse("+IZ")), "negative identity"),
    (lambda: Group.parse("+ZI\n+IZ\n+ZZ").embed(2, [1, 0]),
     "linearly dependent"),
], ids=["conjugate", "embed", "tensor", "extended", "embed-dependent"])
def test_rebuilt_groups_keep_an_invalid_input_invalid(rebuild, message):
    # each was rebuilt from the canonical rows, which drop a negative
    # identity and any dependence, and so read as a valid state
    group = rebuild()
    assert any(message in v for v in group.violations())
    with pytest.raises(ValueError, match=message):
        group.require_valid()


@pytest.mark.parametrize("site", [True, 1.0, "1"])
def test_embed_rejects_a_site_that_is_not_an_int(site):
    # a bool equals an int site and was read as one
    e = Element.parse("+XZ")
    message = re.escape(f"target site {site!r} is not an int")
    for embed in (e.embed, Group(2, [e]).embed, Group(2, []).embed):
        with pytest.raises(ValueError, match=message):
            embed(3, [site, 0])


def _reference_interleaved(e):
    out = 0
    for i in range(e.n):
        out |= ((e.x >> i) & 1) << (2 * i)
        out |= ((e.z >> i) & 1) << (2 * i + 1)
    return out


def _reference_from_interleaved(n, bits, neg):
    x = z = 0
    for i in range(n):
        x |= ((bits >> (2 * i)) & 1) << i
        z |= ((bits >> (2 * i + 1)) & 1) << i
    return Element(n, x, z, neg)


@st.composite
def _interleave_cases(draw):
    n = draw(st.integers(1, 140))
    x = draw(st.integers(0, (1 << n) - 1))
    z = draw(st.integers(0, (1 << n) - 1))
    stray = draw(st.integers(0, (1 << 70) - 1))
    return Element(n, x, z, draw(st.booleans())), stray


@given(_interleave_cases())
def test_interleave_kernel_matches_site_loop(case):
    e, stray = case
    bits = e.interleaved()
    assert bits == _reference_interleaved(e)
    noisy = bits | stray << (2 * e.n)
    assert (Element.from_interleaved(e.n, noisy, e.neg)
            == _reference_from_interleaved(e.n, noisy, e.neg) == e)


# -- the GF(2) kernel against the per-use eliminations it replaced -------------

def _reference_echelon(rows):
    """Reduced echelon form with a carried sign bit: insert by lowest-bit
    pivots, then back-substitute.  Returns (rows by pivot, negative
    identity seen)."""
    pivots = {}
    neg_identity = False
    for bits, neg in rows:
        while bits:
            p = bits & -bits
            if p not in pivots:
                pivots[p] = (bits, neg)
                break
            pb, pn = pivots[p]
            bits ^= pb
            neg ^= pn
        else:
            if neg:
                neg_identity = True
    for p in sorted(pivots, reverse=True):
        bits, neg = pivots[p]
        for q in list(pivots):
            if q == p:
                continue
            qb, qn = pivots[q]
            if qb & p:
                pivots[q] = (qb ^ bits, qn ^ neg)
    return [pivots[p] for p in sorted(pivots)], neg_identity


def _reference_solve_gf2(rows, target):
    basis = []  # (reduced row, choice mask)
    for i, r in enumerate(rows):
        choice = 1 << i
        for rb, rc in basis:
            if r & (rb & -rb):
                r ^= rb
                choice ^= rc
        if r:
            basis.append((r, choice))
            basis.sort(key=lambda t: t[0] & -t[0])
    choice = 0
    for rb, rc in basis:
        if target & (rb & -rb):
            target ^= rb
            choice ^= rc
    return None if target else choice


def _reference_nullspace(rows, width):
    pivots = []  # (reduced row, pivot bit)
    for r in rows:
        for rb, _ in pivots:
            if r & (rb & -rb):
                r ^= rb
        if r:
            pivots.append((r, r & -r))
    pivot_bits = {p for _, p in pivots}
    out = []
    for c in range(width):
        cb = 1 << c
        if cb in pivot_bits:
            continue
        v = cb
        for rb, pb in sorted(pivots, key=lambda t: -t[1]):
            if (rb & v).bit_count() & 1:
                v ^= pb
        out.append(v)
    return out


def _reference_solve_affine(rows, rhs):
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


@st.composite
def _row_cases(draw):
    """Rows of width <= 140, with repeated rows and XORs of earlier rows
    mixed in so that many are dependent."""
    width = draw(st.integers(1, 140))
    word = st.integers(0, (1 << width) - 1)
    rows = []
    for _ in range(draw(st.integers(0, 70))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "sum"])
                    if rows else st.just("fresh"))
        if kind == "fresh":
            rows.append(draw(word))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append(a ^ b)
    signs = draw(st.lists(st.booleans(), min_size=len(rows),
                          max_size=len(rows)))
    target = draw(st.one_of(word, st.sampled_from(rows) if rows else word))
    return width, rows, signs, target


@given(_row_cases())
def test_kernel_matches_reference_eliminations(case):
    width, rows, signs, target = case
    pivots, zero_tags = echelon(zip(rows, signs))
    want_rows, want_neg = _reference_echelon(list(zip(rows, signs)))
    assert [pivots[p] for p in sorted(pivots)] == want_rows
    assert any(zero_tags) == want_neg
    assert solve_gf2(rows, target) == _reference_solve_gf2(rows, target)
    assert _nullspace(rows, width) == _reference_nullspace(rows, width)
    rhs = [int(s) for s in signs]
    assert _solve_affine(rows, rhs) == _reference_solve_affine(rows, rhs)


def test_echelon_tags_name_the_combined_rows():
    pivots, zero_tags = echelon((r, 1 << i)
                                for i, r in enumerate([0b011, 0b110, 0b101]))
    # inserting 0b110 clears its pivot bit 1 from the first row
    assert pivots == {0b01: (0b101, 0b011), 0b10: (0b110, 0b010)}
    assert zero_tags == [0b111]  # all three rows XOR to zero
    assert reduce(pivots, 0b111) == (0b100, 0b001)  # 0b111 ^ row 0
    assert insert(pivots, 0b111, 0b1000) == (0b100, 0b1001)
    # the new pivot bit 2 is cleared from both older rows
    assert pivots == {0b001: (0b001, 0b1010), 0b010: (0b010, 0b1011),
                      0b100: (0b100, 0b1001)}
