import random

import pytest

from toystab.algebra import Element, Group
from toystab.dynamics import PERMS, Permutation


def random_permutation(rng: random.Random, n: int, depth: int | None = None) -> Permutation:
    depth = depth if depth is not None else 3 * n
    factors = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.5:
            c, t = rng.sample(range(n), 2)
            factors.append((rng.choice(("cz", "cx", "cy")), c, t))
        else:
            factors.append(("local", rng.randrange(n), rng.randrange(len(PERMS))))
    return Permutation(n, tuple(factors))


def random_group(rng: random.Random, n: int, rank: int) -> Group:
    """Random valid state of the given rank: scramble a Z-basis seed."""
    base = Group(n, [Element.single(n, i, "Z", bool(rng.randrange(2)))
                     for i in range(rank)])
    return random_permutation(rng, n).conjugate(base)


def random_element(rng: random.Random, n: int) -> Element:
    while True:
        x = rng.randrange(1 << n)
        z = rng.randrange(1 << n)
        if x or z:
            return Element(n, x, z, bool(rng.randrange(2)))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def built_plans(monkeypatch):
    """The trap of every ``bvc._Plan`` built while the test runs, in
    build order."""
    from toystab import bvc

    built = []
    init = bvc._Plan.__init__

    def counted(self, pattern, trap=None, *args, **kwargs):
        built.append(trap)
        init(self, pattern, trap, *args, **kwargs)

    monkeypatch.setattr(bvc._Plan, "__init__", counted)
    return built
