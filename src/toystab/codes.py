"""Additive codes over the toy algebra: error correction and secret sharing.

A code is a stabilizer group on n systems with k logical symbol pairs.
Distances are verified by brute-force weight enumeration rather than
trusted from the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import Element, Group, solve_gf2
from .dynamics import (Permutation, _check_sites, erase, measure_element,
                       partial_trace)


@dataclass(frozen=True)
class Code:
    name: str
    stabilizers: Group
    logical_x: tuple[Element, ...]
    logical_z: tuple[Element, ...]
    distance: int

    def __post_init__(self):
        self.verify()

    @property
    def n(self) -> int:
        return self.stabilizers.n

    @property
    def k(self) -> int:
        return len(self.logical_x)

    def verify(self) -> None:
        self.stabilizers.require_valid()
        if self.stabilizers.rank != self.n - self.k:
            raise ValueError("stabilizer rank does not match n - k")
        for i, (lx, lz) in enumerate(zip(self.logical_x, self.logical_z)):
            for g in self.stabilizers.canonical:
                if not (lx.compatible(g) and lz.compatible(g)):
                    raise ValueError("logical element clashes with a stabilizer")
            if lx.compatible(lz):
                raise ValueError(f"logical pair {i} must be incompatible with its partner")
            for j in range(self.k):
                if j == i:
                    continue
                if not (lx.compatible(self.logical_x[j])
                        and lx.compatible(self.logical_z[j])
                        and lz.compatible(self.logical_x[j])
                        and lz.compatible(self.logical_z[j])):
                    raise ValueError("logical pairs are not mutually compatible")
        if self.brute_force_distance() != self.distance:
            raise ValueError("declared distance fails weight enumeration")

    def brute_force_distance(self) -> int:
        """Minimum weight over the normalizer minus the stabilizer span."""
        best = self.n + 1
        for bits in range(1, 4 ** self.n):
            e = Element.from_interleaved(self.n, bits)
            if e.weight >= best:
                continue
            if not all(e.compatible(g) for g in self.stabilizers.canonical):
                continue
            if self.stabilizers.member(e) != "absent":
                continue
            best = e.weight
        return best

    # -- encoding ------------------------------------------------------

    def encode_element(self, e: Element) -> Element:
        """Logical image of a k-system element."""
        if e.n != self.k:
            raise ValueError("element size must match k")
        out = Element(self.n, 0, 0, e.neg)
        for i in range(self.k):
            if (e.x >> i) & 1:
                out = out * self.logical_x[i]
            if (e.z >> i) & 1:
                out = out * self.logical_z[i]
        return out

    def encode(self, secret: Group) -> Group:
        """Logical encoding of a k-system state."""
        secret.require_valid()
        if secret.n != self.k:
            raise ValueError("secret size must match k")
        gens = list(self.stabilizers.canonical)
        gens += [self.encode_element(h) for h in secret.canonical]
        return Group(self.n, gens).require_valid()

    def decode(self, encoded: Group) -> Group:
        """Recover the k-system state from an intact encoding."""
        gens = []
        for bits in range(1, 4 ** self.k):
            e = Element.from_interleaved(self.k, bits)
            status = encoded.member(self.encode_element(e))
            if status == "in":
                gens.append(e)
            elif status == "negation":
                gens.append(e.negated())
        # the sweep collects the whole subgroup; reduce to a basis
        return Group(self.k, Group(self.k, gens).canonical).require_valid()

    # -- logical support rewriting ---------------------------------------

    def rewrite_logical_support(self, encoded: Group,
                                avoid: Iterable[int]) -> Group:
        """Regenerate ``encoded`` with logical parts trivial on ``avoid``.

        Each non-stabilizer generator h is replaced by h times a product
        of stabilizers chosen by a GF(2) solve so the result is identity
        on the avoided sites.  Possible whenever |avoid| < distance.
        """
        avoid = sorted(set(avoid))
        mask = 0
        for s in avoid:
            mask |= 0b11 << (2 * s)
        stab_rows = [g.interleaved() & mask for g in self.stabilizers.canonical]
        gens = list(self.stabilizers.canonical)
        for h in encoded.canonical:
            if h in self.stabilizers or h.negated() in self.stabilizers:
                continue
            target = h.interleaved() & mask
            choice = solve_gf2(stab_rows, target)
            if choice is None:
                raise ValueError(
                    f"cannot move logical support off sites {avoid}")
            moved = h
            for i, g in enumerate(self.stabilizers.canonical):
                if (choice >> i) & 1:
                    moved = moved * g
            assert not (moved.interleaved() & mask)
            gens.append(moved)
        out = Group(self.n, gens)
        if out != encoded:
            raise AssertionError("rewrite changed the group")
        return out

    # -- errors and correction -----------------------------------------

    def syndrome_of(self, error: Element) -> tuple[int, ...]:
        return tuple(0 if error.compatible(g) else 1
                     for g in self.stabilizers.canonical)

    def syndrome_table(self) -> dict[tuple[int, ...], Element]:
        """Syndrome lookup for errors up to the correctable weight."""
        t = (self.distance - 1) // 2
        table: dict[tuple[int, ...], Element] = {
            self.syndrome_of(Element.identity(self.n)): Element.identity(self.n)}
        frontier = [Element.identity(self.n)]
        for _ in range(t):
            nxt = []
            for base in frontier:
                start = max(base.support, default=-1) + 1
                for site in range(start, self.n):
                    for name in ("X", "Y", "Z"):
                        e = base * Element.single(self.n, site, name)
                        syn = self.syndrome_of(e)
                        if syn not in table:
                            table[syn] = e
                        nxt.append(e)
            frontier = nxt
        return table

    def apply_error(self, state: Group, error: Element) -> Group:
        """Conjugate by the symbol-flip permutation of ``error``."""
        return Permutation.pauli(self.n, error.x, error.z).conjugate(state)

    def apply_erasure(self, state: Group, sites: Iterable[int]) -> Group:
        """Lose the listed systems and re-issue them in the flat state."""
        return erase(state, sites)

    def measure_syndrome(self, state: Group, *, rng=None):
        """Measure the stabilizers in order; returns (syndrome, post_group)."""
        syndrome = []
        for g in self.stabilizers.canonical:
            out, state, _ = measure_element(state, g, rng=rng)
            syndrome.append(out)
        return tuple(syndrome), state

    def correct(self, state: Group, *, rng=None,
                erasure: Iterable[int] | None = None):
        """Measure the stabilizers and undo the inferred error.

        For symbol errors the syndrome lookup is used; for erasures any
        symbol error supported on the erased sites matching the observed
        syndrome is solved for.  Returns (syndrome, corrected_group).
        Raises ValueError for a syndrome the lookup does not hold (an
        error the code detects but cannot correct) or no erasure recovery
        matches.
        """
        syndrome, state = self.measure_syndrome(state, rng=rng)
        if erasure is None:
            table = self.syndrome_table()
            if syndrome not in table:
                raise ValueError(f"unrecognized syndrome {syndrome}")
            fix = table[syndrome]
        else:
            fix = self._erasure_fix(syndrome, sorted(set(erasure)))
        corrected = self.apply_error(state, fix)
        return syndrome, corrected

    def _erasure_fix(self, syndrome: tuple[int, ...],
                     sites: list[int]) -> Element:
        # every symbol error supported on the sites, in increasing order of
        # its interleaved bits; with no sites only the identity
        mask = sum(0b11 << (2 * s) for s in _check_sites(self.n, sites))
        bits = 0
        while True:
            e = Element.from_interleaved(self.n, bits)
            if self.syndrome_of(e) == syndrome:
                return e
            bits = (bits - mask) & mask
            if not bits:
                raise ValueError(
                    f"no recovery on sites {sites} matches syndrome {syndrome}")


def five_system_code() -> Code:
    """[5, 1, 3] code: cyclic shifts of XZZXI with plus signs."""
    gens = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    return Code(
        name="five",
        stabilizers=Group(5, [Element.parse(g) for g in gens]),
        logical_x=(Element.parse("XXXXX"),),
        logical_z=(Element.parse("ZZZZZ"),),
        distance=3,
    )


def four_system_code() -> Code:
    """[4, 2, 2] erasure-detecting code."""
    return Code(
        name="four",
        stabilizers=Group(4, [Element.parse("XXXX"), Element.parse("ZZZZ")]),
        logical_x=(Element.parse("XXII"), Element.parse("XIXI")),
        logical_z=(Element.parse("ZIZI"), Element.parse("ZZII")),
        distance=2,
    )


# --------------------------------------------------------------------------
# ramp secret sharing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SharingScheme:
    """(n, l, l') ramp scheme from an [n, k, d] code.

    Any l = n - d + 1 shares reconstruct; any l' = n - l shares carry no
    information at all.
    """

    code: Code

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def threshold(self) -> int:
        return self.n - self.code.distance + 1

    @property
    def privacy(self) -> int:
        return self.n - self.threshold

    def deal(self, secret: Group) -> Group:
        return self.code.encode(secret)

    def reconstruct(self, dealt: Group, holders: Iterable[int], *, rng=None) -> Group:
        """The secret recovered from the shares of ``holders``, distinct
        0-based sites."""
        holders = sorted(_check_sites(self.n, holders))
        missing = [s for s in range(self.n) if s not in holders]
        if len(holders) < self.threshold:
            if len(holders) <= self.privacy:
                raise ValueError(
                    f"{len(holders)} shares carry no information "
                    f"(privacy threshold {self.privacy})")
            raise ValueError(
                f"{len(holders)} shares are between the privacy and "
                f"reconstruction thresholds; recovery is not guaranteed")
        lost = self.code.apply_erasure(dealt, missing)
        _, fixed = self.code.correct(lost, rng=rng, erasure=missing)
        return self.code.decode(fixed)

    def leaks_nothing(self, secrets: Sequence[Group], holders: Iterable[int]) -> bool:
        """Oracle check: the holders' marginal is secret-independent."""
        from .oracle import Distribution
        holders = sorted(set(holders))
        margs = [Distribution.from_group(partial_trace(self.deal(s), holders))
                 for s in secrets]
        return all(m == margs[0] for m in margs[1:])
