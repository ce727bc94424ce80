import itertools
import random

import pytest

from toystab.algebra import Element, Group
from toystab.codes import (Code, SharingScheme, five_system_code,
                           four_system_code)
from toystab.dynamics import partial_trace
from toystab.oracle import Distribution


FIVE = five_system_code()
FOUR = four_system_code()

LOGICAL_BASIS = ["+Z", "-Z", "+X", "-X", "+Y", "-Y"]


def _secret(text):
    return Group.parse(text).require_valid()


def test_five_code_parameters():
    assert FIVE.n == 5 and FIVE.k == 1 and FIVE.distance == 3
    # generators are the cyclic pattern with plus signs
    assert Element.parse("+XZZXI") in FIVE.stabilizers


def test_four_code_parameters():
    assert FOUR.n == 4 and FOUR.k == 2 and FOUR.distance == 2


def test_bad_code_rejected():
    with pytest.raises(Exception):
        Code(name="broken",
             stabilizers=Group(2, [Element.parse("+XI")]),
             logical_x=(Element.parse("+XX"),),
             logical_z=(Element.parse("+ZI"),),  # collides with a stabilizer
             distance=1)


def test_encode_decode_round_trip():
    for text in LOGICAL_BASIS:
        secret = _secret(text)
        encoded = FIVE.encode(secret)
        assert len(encoded.canonical) == 5
        assert FIVE.decode(encoded) == secret


def test_weight_one_errors_all_corrected():
    errors = [Element.single(5, site, sym)
              for site in range(5) for sym in "XYZ"]
    for text in ("+Z", "+X"):
        encoded = FIVE.encode(_secret(text))
        for err in errors:
            damaged = FIVE.apply_error(encoded, err)
            syndrome, fixed = FIVE.correct(damaged)
            assert fixed == encoded, str(err)
            assert any(syndrome), "weight-1 errors must be visible"


def test_syndrome_table_is_injective():
    table = FIVE.syndrome_table()
    assert table[(0,) * 4] == Element.identity(5)
    assert len(table) == 16  # identity + 15 weight-1 errors


def test_two_site_erasures(rng):
    encoded = FIVE.encode(_secret("+Y"))
    for pair in itertools.combinations(range(5), 2):
        damaged = FIVE.apply_erasure(encoded, pair)
        _, fixed = FIVE.correct(damaged, rng=rng, erasure=pair)
        assert fixed == encoded, pair


def test_four_code_single_erasures(rng):
    secret = Group.parse("+ZI\n+IZ").require_valid()
    encoded = FOUR.encode(secret)
    for site in range(4):
        damaged = FOUR.apply_erasure(encoded, [site])
        _, fixed = FOUR.correct(damaged, rng=rng, erasure=[site])
        assert fixed == encoded


def test_logical_support_rewrite():
    encoded = FIVE.encode(_secret("+Z"))
    for avoid in itertools.combinations(range(5), 2):
        rewritten = FIVE.rewrite_logical_support(encoded, avoid)
        assert rewritten == encoded  # same group, new generator basis


@pytest.mark.parametrize("avoid, message", [
    ([7], "site 7 out of range for n=5"),
    ([-1], "site -1 out of range for n=5"),
    ([True], "site True is not an int"),
    ([1.0], "site 1.0 is not an int"),
    ([2, 2], "site 2 listed twice"),
])
def test_avoided_sites_that_are_not_sites_rejected(avoid, message):
    # site 7 was ignored, and True read as site 1
    encoded = FIVE.encode(_secret("+Z"))
    with pytest.raises(ValueError, match=message):
        FIVE.rewrite_logical_support(encoded, avoid)


@pytest.mark.parametrize("error", [
    # a 6-site X at site 6 was a silent no-op, with syndrome (0, 0, 0, 0)
    Element.single(6, 5, "X"),
    # a 3-site error landed on sites 1 to 3
    Element.parse("+XZY"),
])
def test_an_error_of_another_size_is_rejected(error):
    encoded = FIVE.encode(_secret("+Z"))
    with pytest.raises(ValueError, match="does not fit the code's 5"):
        FIVE.apply_error(encoded, error)
    with pytest.raises(ValueError, match="does not fit the code's 5"):
        FIVE.syndrome_of(error)


# -- secret sharing ----------------------------------------------------------

SCHEME = SharingScheme(FIVE)


def test_scheme_parameters():
    assert SCHEME.n == 5
    assert SCHEME.threshold == 3
    assert SCHEME.privacy == 2


def test_all_three_subsets_reconstruct(rng):
    for text in LOGICAL_BASIS:
        secret = _secret(text)
        dealt = SCHEME.deal(secret)
        for holders in itertools.combinations(range(5), 3):
            assert SCHEME.reconstruct(dealt, holders, rng=rng) == secret


def test_more_than_three_shares_reconstruct(rng):
    for text in LOGICAL_BASIS:
        secret = _secret(text)
        dealt = SCHEME.deal(secret)
        for size in (4, 5):
            for holders in itertools.combinations(range(5), size):
                assert SCHEME.reconstruct(dealt, holders, rng=rng) == secret


def test_correct_with_nothing_erased(rng):
    encoded = FIVE.encode(_secret("+X"))
    syndrome, fixed = FIVE.correct(encoded, rng=rng, erasure=[])
    assert syndrome == (0,) * 4 and fixed == encoded
    damaged = FIVE.apply_error(encoded, Element.parse("+IZIII"))
    with pytest.raises(ValueError, match=r"no recovery on sites \[\]"):
        FIVE.correct(damaged, rng=rng, erasure=[])


def test_erasure_fix_is_the_first_match_on_the_sites():
    """The first error, in the order of its site-local interleaved bits,
    whose syndrome matches: the same as enumerating each erased site's
    symbols and embedding them."""
    for size in (1, 2):
        for sites in itertools.combinations(range(5), size):
            errors = [Element.from_interleaved(size, bits).embed(5, sites)
                      for bits in range(4 ** size)]
            for syndrome in itertools.product((0, 1), repeat=4):
                want = next((e for e in errors
                             if FIVE.syndrome_of(e) == syndrome), None)
                if want is None:
                    with pytest.raises(ValueError):
                        FIVE._erasure_fix(syndrome, list(sites))
                else:
                    assert FIVE._erasure_fix(syndrome, list(sites)) == want


def test_two_subsets_leak_nothing():
    secrets = [_secret(t) for t in LOGICAL_BASIS]
    for holders in itertools.combinations(range(5), 2):
        assert SCHEME.leaks_nothing(secrets, holders)
        # directly: the marginal distribution is secret-independent
        margs = {Distribution.from_group(
            partial_trace(SCHEME.deal(s), holders)) for s in secrets}
        assert len(margs) == 1


def test_undersized_sets_rejected(rng):
    dealt = SCHEME.deal(_secret("+Z"))
    with pytest.raises(ValueError, match="no information"):
        SCHEME.reconstruct(dealt, [0, 1], rng=rng)


@pytest.mark.parametrize("holders, message", [
    ([0, 1, 9], "site 9 out of range for n=5"),
    ([0, 1, 5], "site 5 out of range for n=5"),
    ([0, 1, -1], "site -1 out of range for n=5"),
    ([0, 1, 1, 2], "site 1 listed twice"),
    ([0, 1, 2.0], "site 2.0 is not an int"),
    ([0, 1, True], "site True is not an int"),
])
def test_holders_that_are_not_sites_rejected(rng, holders, message):
    # the out-of-range holders once reconstructed the flat state with no
    # error; a repeated or float holder was taken as its int
    dealt = SCHEME.deal(_secret("+Z"))
    with pytest.raises(ValueError, match=message):
        SCHEME.reconstruct(dealt, holders, rng=rng)


def test_intermediate_sets_rejected(rng):
    # sizes strictly between privacy and threshold carry no guarantee
    scheme = SharingScheme(FOUR)
    dealt = scheme.deal(Group.parse("+ZI\n+IZ").require_valid())
    if scheme.threshold - scheme.privacy > 1:
        mid = scheme.privacy + 1
        with pytest.raises(ValueError):
            scheme.reconstruct(dealt, list(range(mid)), rng=rng)
