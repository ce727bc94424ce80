"""Signed-diagonal group algebra over n four-state systems.

An element is a signed product of per-site symbols I, X, Y, Z, where the
symbols are the 4x4 diagonal matrices

    X = diag(1,-1,1,-1)   Y = diag(1,-1,-1,1)   Z = diag(1,1,-1,-1)

Multiplication carries no phase: X*Z = Y exactly, and every element squares
to +I.  Encoding each site as an (x, z) bit pair makes the whole algebra
GF(2)-linear, with the sign tracked as one extra bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

SYMBOL_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
BITS_SYMBOL = {v: k for k, v in SYMBOL_BITS.items()}


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def _byte_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(spread, gather): spread[b] holds the 8 bits of b at the even
    positions of 16 bits; gather[b] reads b as 4 interleaved sites and
    holds their x bits | z bits << 4."""
    spread = [0] * 256
    for b in range(1, 256):
        spread[b] = spread[b >> 1] << 2 | b & 1
    gather = [0] * 256
    for x in range(16):
        for z in range(16):
            gather[spread[x] | spread[z] << 1] = x | z << 4
    return tuple(spread), tuple(gather)


_SPREAD, _GATHER = _byte_tables()


@dataclass(frozen=True)
class Element:
    """One signed element on ``n`` systems.

    ``x`` and ``z`` are bitmasks; bit ``i`` refers to site ``i`` (0-based).
    ``neg`` is True for a leading minus sign.
    """

    n: int
    x: int
    z: int
    neg: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one system")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("symbol bits outside the declared width")

    # -- construction ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Element":
        return cls(n, 0, 0, False)

    @classmethod
    def single(cls, n: int, site: int, name: str, neg: bool = False) -> "Element":
        """The named symbol at one site, identity elsewhere."""
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        xb, zb = SYMBOL_BITS[name]
        return cls(n, xb << site, zb << site, neg)

    @classmethod
    def from_symbols(cls, symbols: str, neg: bool = False) -> "Element":
        x = z = 0
        for i, ch in enumerate(symbols):
            if ch not in SYMBOL_BITS:
                raise ValueError(f"unknown symbol {ch!r}")
            xb, zb = SYMBOL_BITS[ch]
            x |= xb << i
            z |= zb << i
        return cls(len(symbols), x, z, neg)

    @classmethod
    def parse(cls, text: str) -> "Element":
        """Parse ``[+-]?[IXYZ]+`` with site 1 leftmost."""
        text = text.strip()
        if not text:
            raise ValueError("empty element")
        neg = False
        if text[0] in "+-":
            neg = text[0] == "-"
            text = text[1:]
        if not text:
            raise ValueError("sign without symbols")
        return cls.from_symbols(text, neg)

    # -- algebra -----------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Element(self.n, self.x ^ other.x, self.z ^ other.z,
                       self.neg ^ other.neg)

    def compatible(self, other: "Element") -> bool:
        """True when the symplectic product of the symbol parts vanishes."""
        return (_parity(self.x & other.z) ^ _parity(self.z & other.x)) == 0

    def negated(self) -> "Element":
        return Element(self.n, self.x, self.z, not self.neg)

    @property
    def is_identity_symbol(self) -> bool:
        return self.x == 0 and self.z == 0

    def eval_bit(self, a: int, b: int) -> int:
        """Outcome bit at ontic state (a, b): 0 for eigenvalue +1, 1 for -1.

        ``a`` and ``b`` are bitmasks over sites; the X symbol reads the a
        bit, Z the b bit, and Y their XOR.
        """
        return self.neg ^ _parity(self.x & a) ^ _parity(self.z & b)

    # -- structure ---------------------------------------------------

    def symbol_at(self, site: int) -> str:
        return BITS_SYMBOL[((self.x >> site) & 1, (self.z >> site) & 1)]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.x | self.z) >> i & 1)

    @property
    def weight(self) -> int:
        return bin(self.x | self.z).count("1")

    def interleaved(self) -> int:
        """Symbol bits packed with column 2i = x_i, column 2i+1 = z_i."""
        x, z = self.x, self.z
        out = shift = 0
        while x or z:
            out |= (_SPREAD[x & 255] | _SPREAD[z & 255] << 1) << shift
            x >>= 8
            z >>= 8
            shift += 16
        return out

    @classmethod
    def from_interleaved(cls, n: int, bits: int, neg: bool = False) -> "Element":
        """Inverse of :meth:`interleaved`; bits above column 2n are ignored."""
        bits &= (1 << 2 * n) - 1
        x = z = shift = 0
        while bits:
            lo = _GATHER[bits & 255]
            hi = _GATHER[(bits >> 8) & 255]
            x |= ((lo & 15) | (hi & 15) << 4) << shift
            z |= ((lo >> 4) | (hi & 240)) << shift
            bits >>= 16
            shift += 8
        return cls(n, x, z, neg)

    def embed(self, n: int, sites: Iterable[int]) -> "Element":
        """Place this element at the given sites of a larger register."""
        sites = list(sites)
        if len(sites) != self.n:
            raise ValueError("site list does not match element size")
        x = z = 0
        for i, s in enumerate(sites):
            if not 0 <= s < n:
                raise ValueError(f"target site {s} out of range")
            x |= ((self.x >> i) & 1) << s
            z |= ((self.z >> i) & 1) << s
        return Element(n, x, z, self.neg)

    def restrict(self, sites: Iterable[int]) -> "Element":
        """Keep only the listed sites (must carry the whole support)."""
        sites = list(sites)
        x = z = 0
        for i, s in enumerate(sites):
            x |= ((self.x >> s) & 1) << i
            z |= ((self.z >> s) & 1) << i
        kept = set(sites)
        if any(s not in kept for s in self.support):
            raise ValueError("element acts outside the kept sites")
        return Element(len(sites), x, z, self.neg)

    def __str__(self) -> str:
        return ("-" if self.neg else "+") + "".join(
            self.symbol_at(i) for i in range(self.n))

    def __repr__(self) -> str:
        return f"Element({str(self)!r})"


def _echelon(rows: list[tuple[int, bool]]) -> tuple[list[tuple[int, bool]], bool]:
    """Reduced row echelon form over GF(2) with a carried sign bit.

    Rows are (symbol-bits, neg) pairs; the pivot is the lowest set bit.
    Returns (rows sorted by pivot, saw_negative_identity).
    """
    pivots: dict[int, tuple[int, bool]] = {}
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
    # back-substitute so every pivot column is clear elsewhere
    for p in sorted(pivots, reverse=True):
        bits, neg = pivots[p]
        for q in list(pivots):
            if q == p:
                continue
            qb, qn = pivots[q]
            if qb & p:
                pivots[q] = (qb ^ bits, qn ^ neg)
    out = [pivots[p] for p in sorted(pivots)]
    return out, neg_identity


def solve_gf2(rows: list[int], target: int) -> int | None:
    """Find a subset of ``rows`` XORing to ``target``; returns a choice mask.

    Bit ``i`` of the result selects ``rows[i]``.  None when unsolvable.
    """
    basis: list[tuple[int, int]] = []  # (reduced row, choice mask)
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


class Group:
    """A generated subgroup, stored canonically via GF(2) echelon form.

    Validity (mutual compatibility, independence, no negative identity) is
    checked by :meth:`violations`; construction itself never raises so that
    invalid inputs can be inspected and reported.
    """

    def __init__(self, n: int, generators: Iterable[Element] = ()):
        self.n = n
        self.generators = tuple(generators)
        for g in self.generators:
            if g.n != n:
                raise ValueError("generator size mismatch")
        rows = [(g.interleaved(), g.neg) for g in self.generators]
        reduced, neg_id = _echelon(rows)
        self._neg_identity = neg_id
        self.canonical = tuple(
            Element.from_interleaved(n, bits, neg) for bits, neg in reduced)

    # -- construction ------------------------------------------------

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Group":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        gens = [Element.parse(ln) for ln in lines]
        if gens:
            n = gens[0].n if n is None else n
        if n is None:
            raise ValueError("empty group needs an explicit system count")
        return cls(n, gens)

    @classmethod
    def trivial(cls, n: int) -> "Group":
        return cls(n, ())

    @classmethod
    def single_site(cls, name: str, neg: bool = False) -> "Group":
        return cls(1, [Element.single(1, 0, name, neg)])

    # -- validity ----------------------------------------------------

    def violations(self) -> list[str]:
        """Empty list when the generating set is a valid state group."""
        out = []
        gens = self.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not gens[i].compatible(gens[j]):
                    out.append(f"incompatible pair: {gens[i]} and {gens[j]}")
        if self._neg_identity:
            out.append("negative identity is in the group")
        elif len(self.canonical) < len(gens):
            # canonical is the echelon form of exactly these generators
            out.append("generators are linearly dependent")
        if len(self.canonical) > self.n:
            out.append("more independent generators than systems")
        return out

    @property
    def is_valid(self) -> bool:
        return not self.violations()

    def require_valid(self) -> "Group":
        v = self.violations()
        if v:
            raise ValueError("invalid state group: " + "; ".join(v))
        return self

    # -- structure ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.canonical)

    @property
    def is_pure(self) -> bool:
        return self.rank == self.n

    def member(self, g: Element) -> str:
        """'in', 'negation', or 'absent' for the given element."""
        if g.n != self.n:
            raise ValueError("size mismatch")
        bits, neg = g.interleaved(), g.neg
        for row in self.canonical:
            rb = row.interleaved()
            if bits & (rb & -rb):
                bits ^= rb
                neg ^= row.neg
        if bits:
            return "absent"
        return "negation" if neg else "in"

    def __contains__(self, g: Element) -> bool:
        return self.member(g) == "in"

    def elements(self):
        """All 2^rank elements (desk scale only)."""
        base = [Element.identity(self.n)]
        for g in self.canonical:
            base += [e * g for e in base]
        return base

    def compatible_with(self, g: Element) -> bool:
        return all(h.compatible(g) for h in self.canonical)

    # -- combination -------------------------------------------------

    def extended(self, *gens: Element) -> "Group":
        return Group(self.n, self.canonical + tuple(gens))

    def tensor(self, other: "Group") -> "Group":
        n = self.n + other.n
        gens = [g.embed(n, range(self.n)) for g in self.canonical]
        gens += [g.embed(n, range(self.n, n)) for g in other.canonical]
        return Group(n, gens)

    def embed(self, n: int, sites: Iterable[int]) -> "Group":
        sites = list(sites)
        return Group(n, [g.embed(n, sites) for g in self.canonical])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Group):
            return NotImplemented
        return (self.n == other.n and not self._neg_identity
                and not other._neg_identity and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.n, self.canonical))

    def __str__(self) -> str:
        if not self.canonical:
            return f"<trivial group on {self.n} systems>"
        return "\n".join(str(g) for g in self.canonical)

    def __repr__(self) -> str:
        return f"Group({self.n}, [{', '.join(str(g) for g in self.canonical)}])"


def matrix_diag(e: Element) -> list[int]:
    """Diagonal of the 4^n x 4^n matrix, indexed by the global ontic index.

    The global index packs per-site (a, b) pairs as a + 2b, site 0 least
    significant.  Intended for oracle tests, so kept exact and simple.
    """
    n = e.n
    out = []
    for idx in range(4 ** n):
        a = b = 0
        t = idx
        for i in range(n):
            a |= (t & 1) << i
            b |= ((t >> 1) & 1) << i
            t >>= 2
        out.append(-1 if e.eval_bit(a, b) else 1)
    return out
