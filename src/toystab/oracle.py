"""Exact brute-force oracle over the full ontic state space.

Every state of ``n`` systems is a probability vector over the 4^n ontic
states (one (a, b) bit pair per site).  All probabilities are dyadic
rationals kept as :class:`fractions.Fraction`, so every comparison in the
test suite is exact.  Intended for desk-scale cross-checks of the
stabilizer-level code, capped at n = 6 by default.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import Element, Group

DEFAULT_CAP = 6


class CapExceeded(ValueError):
    pass


def check_cap(n: int, cap: int | None = None):
    cap = DEFAULT_CAP if cap is None else cap
    if n > cap:
        raise CapExceeded(
            f"ontic enumeration over {n} systems exceeds the cap of {cap}; "
            "raise the cap explicitly to proceed")


def state_bits(n: int, index: int) -> tuple[int, int]:
    """Global ontic index -> (a, b) bitmasks (site 0 least significant)."""
    a = b = 0
    for i in range(n):
        a |= (index & 1) << i
        b |= ((index >> 1) & 1) << i
        index >>= 2
    return a, b


def bits_index(n: int, a: int, b: int) -> int:
    idx = 0
    for i in range(n):
        idx |= (((a >> i) & 1) | (((b >> i) & 1) << 1)) << (2 * i)
    return idx


_ZERO = Fraction(0)


def _solve_parity(rows: list[int], rhs: list[int], width: int):
    """One solution v of parity(rows[i] & v) = rhs[i], plus a nullspace basis."""
    pivots = []  # (reduced row, rhs bit, pivot bit)
    for r, y in zip(rows, rhs):
        for rb, yb, pb in pivots:
            if r & pb:
                r ^= rb
                y ^= yb
        if r:
            pivots.append((r, y, r & -r))
        elif y:
            return None, []
    v = 0
    for rb, yb, pb in sorted(pivots, key=lambda t: -t[2]):
        if (bin(rb & v).count("1") & 1) != yb:
            v ^= pb
    pivot_bits = {pb for _, _, pb in pivots}
    null = []
    for c in range(width):
        cb = 1 << c
        if cb in pivot_bits:
            continue
        w = cb
        for rb, _, pb in sorted(pivots, key=lambda t: -t[2]):
            if bin(rb & w).count("1") & 1:
                w ^= pb
        null.append(w)
    return v, null


class Distribution:
    """Exact probability vector over the 4^n ontic states."""

    def __init__(self, n: int, probs: Sequence[Fraction]):
        if len(probs) != 4 ** n:
            raise ValueError("probability vector has the wrong length")
        total = sum(p for p in probs if p)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in probs if p):
            raise ValueError("negative probability")
        self.n = n
        self.probs = tuple(p if isinstance(p, Fraction) else Fraction(p)
                           for p in probs)

    # -- construction ------------------------------------------------

    @classmethod
    def from_group(cls, group: Group, cap: int | None = None) -> "Distribution":
        """Uniform distribution over the states satisfying every generator."""
        group.require_valid()
        check_cap(group.n, cap)
        n = group.n
        gens = group.canonical
        # solve the linear system eval_bit = 0 over the interleaved ontic
        # index, where eval_bit is neg ^ parity(interleaved & index),
        # instead of scanning all 4^n points against every generator
        rows = [g.interleaved() for g in gens]
        rhs = [1 if g.neg else 0 for g in gens]
        base, null = _solve_parity(rows, rhs, 2 * n)
        assert base is not None, "valid group has empty support"
        support = []
        for pick in range(1 << len(null)):
            v = base
            t = pick
            i = 0
            while t:
                if t & 1:
                    v ^= null[i]
                t >>= 1
                i += 1
            support.append(v)
        expect = 4 ** n >> len(gens)
        assert len(support) == expect, "support size violates the rank law"
        p = Fraction(1, len(support))
        probs = [_ZERO] * (4 ** n)
        for idx in support:
            probs[idx] = p
        # normalized and non-negative by construction; skip __init__ scans
        inst = cls.__new__(cls)
        inst.n = n
        inst.probs = tuple(probs)
        return inst

    @classmethod
    def point(cls, n: int, index: int) -> "Distribution":
        probs = [Fraction(0)] * (4 ** n)
        probs[index] = Fraction(1)
        return cls(n, probs)

    # -- queries -----------------------------------------------------

    def projector_probability(self, group: Group) -> Fraction:
        """Total mass on states satisfying every generator of ``group``."""
        if group.n != self.n:
            raise ValueError("size mismatch")
        total = Fraction(0)
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            a, b = state_bits(self.n, idx)
            if all(g.eval_bit(a, b) == 0 for g in group.canonical):
                total += p
        return total

    def expectation_bit(self, e: Element) -> Fraction:
        """Probability of outcome -1 when reading off element ``e``."""
        total = Fraction(0)
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            a, b = state_bits(self.n, idx)
            if e.eval_bit(a, b):
                total += p
        return total

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p)

    def marginal(self, keep: Iterable[int]) -> "Distribution":
        keep = list(keep)
        m = len(keep)
        probs = [Fraction(0)] * (4 ** m)
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            a, b = state_bits(self.n, idx)
            ka = kb = 0
            for i, s in enumerate(keep):
                ka |= ((a >> s) & 1) << i
                kb |= ((b >> s) & 1) << i
            probs[bits_index(m, ka, kb)] += p
        return Distribution(m, probs)

    def permuted(self, perm) -> "Distribution":
        """Push forward through a permutation of the ontic space.

        ``perm`` needs an ``apply_bits(a, b) -> (a, b)`` method; the new
        density at pi(v) is the old density at v.
        """
        probs = [Fraction(0)] * (4 ** self.n)
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            a, b = state_bits(self.n, idx)
            probs[bits_index(self.n, *perm.apply_bits(a, b))] += p
        return Distribution(self.n, probs)

    def condition_on(self, group: Group) -> "Distribution":
        """Restrict to the states satisfying ``group`` and renormalize."""
        keepers = {}
        for idx, p in enumerate(self.probs):
            if p == 0:
                continue
            a, b = state_bits(self.n, idx)
            if all(g.eval_bit(a, b) == 0 for g in group.canonical):
                keepers[idx] = p
        total = sum(keepers.values())
        if total == 0:
            raise ValueError("conditioning on a zero-probability event")
        probs = [Fraction(0)] * (4 ** self.n)
        for idx, p in keepers.items():
            probs[idx] = p / total
        return Distribution(self.n, probs)

    def sample(self, rng) -> int:
        """Draw one ontic state index, exactly, from the distribution."""
        den = 1
        for p in self.probs:
            den = den * p.denominator // _gcd(den, p.denominator)
        r = rng.randrange(den)
        acc = 0
        for idx, p in enumerate(self.probs):
            acc += p.numerator * (den // p.denominator)
            if r < acc:
                return idx
        raise AssertionError("unreachable")

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        log2 = 0
        den = 1
        for p in self.probs:
            while den % p.denominator:
                den *= 2
                log2 += 1
        return {
            "n": self.n,
            "denominator_log2": log2,
            "numerators": [int(p * den) for p in self.probs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Distribution":
        den = 1 << data["denominator_log2"]
        return cls(data["n"], [Fraction(v, den) for v in data["numerators"]])

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.n == other.n and self.probs == other.probs

    def __hash__(self):
        return hash((self.n, self.probs))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def measure_observable(dist: Distribution, e: Element):
    """Ontic-level rule for reading off one signed observable.

    The outcome is the value at the hidden state; the measurement then
    re-randomizes the hidden state along the dual translation of the
    observable (the shift that flips every incompatible observable while
    preserving compatible ones), which is what keeps the posterior a
    valid epistemic state.  Returns [(outcome_bit, probability,
    posterior)] over the outcomes with nonzero probability.
    """
    if e.n != dist.n:
        raise ValueError("size mismatch")
    n = dist.n
    da, db = e.z, e.x  # translation dual to the observable
    out = []
    for outcome in (0, 1):
        cell = {}
        for idx, p in enumerate(dist.probs):
            if p == 0:
                continue
            a, b = state_bits(n, idx)
            if e.eval_bit(a, b) == outcome:
                cell[idx] = p
        prob = sum(cell.values())
        if prob == 0:
            continue
        probs = [Fraction(0)] * (4 ** n)
        for idx, p in cell.items():
            a, b = state_bits(n, idx)
            probs[idx] += p / prob / 2
            probs[bits_index(n, a ^ da, b ^ db)] += p / prob / 2
        out.append((outcome, prob, Distribution(n, probs)))
    return out


def group_from_distribution(dist: Distribution) -> Group:
    """Recover the stabilizer group of a uniform-coset distribution.

    Raises ValueError when the distribution is not a valid state (support
    not a uniform affine subspace of the right size).
    """
    n = dist.n
    support = dist.support
    if not support:
        raise ValueError("empty support")
    p = dist.probs[support[0]]
    if any(dist.probs[i] != p for i in support):
        raise ValueError("support is not uniform")
    # an element reads neg ^ parity(interleaved & index) at an ontic
    # index, so it is constant on the support exactly when its symbol
    # bits have even overlap with every offset from the first point
    first = support[0]
    offsets = [idx ^ first for idx in support[1:]]
    gens = []
    for bits in range(1, 4 ** n):
        if any(bin(bits & d).count("1") & 1 for d in offsets):
            continue
        gens.append(Element.from_interleaved(
            n, bits, neg=bool(bin(bits & first).count("1") & 1)))
    # the sweep collects the whole subgroup; reduce to a basis
    group = Group(n, Group(n, gens).canonical)
    if group.violations() or Distribution.from_group(group, cap=n) != dist:
        raise ValueError("distribution is not a valid state")
    return group
