import itertools
import random

import pytest
from hypothesis import given, strategies as st

from toystab.algebra import Element, Group, matrix_diag, solve_gf2

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
    assert e.restrict([0, 2]) == Element.parse("+XZ")


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
