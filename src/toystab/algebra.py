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


def _interleave(x: int, z: int) -> int:
    """The bits of ``x`` at the even columns and those of ``z`` at the odd
    ones: column 2i = x_i, column 2i+1 = z_i."""
    out = shift = 0
    while x or z:
        out |= (_SPREAD[x & 255] | _SPREAD[z & 255] << 1) << shift
        x >>= 8
        z >>= 8
        shift += 16
    return out


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
        if name not in SYMBOL_BITS:
            raise ValueError(f"unknown symbol {name!r}")
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
        return not ((self.x & other.z) ^ (self.z & other.x)).bit_count() & 1

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
        return self.neg ^ (((self.x & a) ^ (self.z & b)).bit_count() & 1)

    # -- structure ---------------------------------------------------

    def symbol_at(self, site: int) -> str:
        return BITS_SYMBOL[((self.x >> site) & 1, (self.z >> site) & 1)]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if (self.x | self.z) >> i & 1)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def interleaved(self) -> int:
        """Symbol bits packed with column 2i = x_i, column 2i+1 = z_i."""
        return _interleave(self.x, self.z)

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
        sites = _embedding(self.n, n, sites)
        x = z = 0
        for i, s in enumerate(sites):
            x |= ((self.x >> i) & 1) << s
            z |= ((self.z >> i) & 1) << s
        return Element(n, x, z, self.neg)

    def __str__(self) -> str:
        return ("-" if self.neg else "+") + "".join(
            self.symbol_at(i) for i in range(self.n))

    def __repr__(self) -> str:
        return f"Element({str(self)!r})"


def _embedding(size: int, n: int, sites: Iterable[int]) -> list:
    """``sites`` as a list, checked as the distinct targets in a register
    of ``n`` systems of the ``size`` systems of an embedded element."""
    sites = list(sites)
    if len(sites) != size:
        raise ValueError("site list does not match element size")
    seen = set()
    for s in sites:
        if type(s) is not int:
            raise ValueError(f"target site {s!r} is not an int")
        if not 0 <= s < n:
            raise ValueError(f"target site {s} out of range")
        if s in seen:
            raise ValueError(f"target site {s} listed twice")
        seen.add(s)
    return sites


def reduce(pivots: dict, bits: int, tag=0) -> tuple:
    """Clear every pivot bit of ``bits``, XORing the tags along.

    ``pivots`` maps a pivot bit to its row ``(bits, tag)`` in reduced
    echelon form: the pivot is the row's lowest set bit and is clear in
    every other row, so one pass in any order clears them all.  A tag is
    whatever the caller carries along the row operations (a sign, a
    right-hand side, a mask of combined input rows, a companion vector).
    """
    for p, (pb, pt) in pivots.items():
        if bits & p:
            bits ^= pb
            tag ^= pt
    return bits, tag


def insert(pivots: dict, bits: int, tag=0) -> tuple:
    """Reduce a row and add it to ``pivots`` unless it reduces to zero.

    Returns the reduced ``(bits, tag)``; zero bits mean the row was
    dependent and ``pivots`` is unchanged.  The new pivot is cleared from
    the rows that hold it, so the form stays reduced.
    """
    bits, tag = reduce(pivots, bits, tag)
    if bits:
        p = bits & -bits
        for q, (qb, qt) in pivots.items():
            if qb & p:
                pivots[q] = (qb ^ bits, qt ^ tag)
        pivots[p] = (bits, tag)
    return bits, tag


def echelon(rows: Iterable[tuple]) -> tuple[dict, list]:
    """Reduced echelon form over GF(2) of ``(bits, tag)`` rows.

    Rows are inserted in input order.  Returns ``(pivots, zero_tags)``:
    the reduced rows keyed by pivot bit, and the tag each dependent row
    reduced to, in row order.  The reduced rows are unique for the span;
    their tags combine only the independent rows, so they are unique too.
    """
    pivots: dict = {}
    zero_tags = []
    for bits, tag in rows:
        bits, tag = insert(pivots, bits, tag)
        if not bits:
            zero_tags.append(tag)
    return pivots, zero_tags


def solve_gf2(rows: list[int], target: int) -> int | None:
    """Find a subset of ``rows`` XORing to ``target``; returns a choice mask.

    Bit ``i`` of the result selects ``rows[i]``.  None when unsolvable.
    """
    pivots, _ = echelon((r, 1 << i) for i, r in enumerate(rows))
    rest, choice = reduce(pivots, target)
    return None if rest else choice


class Group:
    """A generated subgroup, stored canonically via GF(2) echelon form.

    Validity (mutual compatibility, independence, no negative identity) is
    checked by :meth:`violations`; construction itself never raises so that
    invalid inputs can be inspected and reported.  A group never changes
    after construction, so its validity is computed at most once and
    remembered.  The trusted constructor :meth:`_from_reduced` skips the
    check: it takes reduced rows derived from a known-valid state by an
    operation that keeps validity.  Its builders are:

    * ``dynamics.measure_element``: the post-measurement rows;
    * ``dynamics.Permutation.conjugate``: a known-valid input's rows,
      conjugated and echeloned again;
    * ``dynamics.partial_trace``: the marginal's rows, traced and packed
      onto the kept sites (``dynamics.marginal_rows``);
    * ``dynamics.erase``: the rows with the listed sites traced out;
    * ``mbtc._PatternRun.result``: a finished branch's rows, as the
      marginal on the quantum outputs;
    * ``mbtc._entangled`` (``graph_state``): a valid product state after
      the cz rule;
    * ``bvc.Deviation._entangled_rows``: the pads' entangled state,
      built straight into rows with a plan's cz's, as a group only to
      hand it to a deviation's ``after_entangle`` hook that acts on
      groups;
    * ``bvc._run_round``: the rows ``bvc.Deviation._entangled_rows``
      returns, for a single sampled round to measure through groups;
    * ``bvc.Deviation._outcomes``: the rows of the exact walk or of a
      batched round's random descent, only to hand them to a
      ``before_measure`` hook;
    * ``bvc._RowHook``, called on a group: the rows of a built-in
      ``after_entangle`` hook's action (the extremal swap-in, a Pauli or
      a factor-list deviation) on a valid state's rows.

    Every other group is checked on its first :meth:`violations` or
    :meth:`require_valid`.
    """

    def __init__(self, n: int, generators: Iterable[Element] = ()):
        self.n = n
        self.generators = tuple(generators)
        for g in self.generators:
            if g.n != n:
                raise ValueError("generator size mismatch")
        self._pivots, zero_tags = echelon(
            (g.interleaved(), g.neg) for g in self.generators)
        self._neg_identity = any(zero_tags)
        self.canonical = tuple(Element.from_interleaved(n, *self._pivots[p])
                               for p in sorted(self._pivots))
        self._violations: tuple[str, ...] | None = None

    # -- construction ------------------------------------------------

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Group":
        """One generator per line; blank lines and ``#`` lines are skipped.

        Lines that are all ``+I...I`` give the trivial (flat) state on that
        many systems.  Beside any other generator they stay, and make the
        set dependent.
        """
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        gens = [Element.parse(ln) for ln in lines]
        if gens:
            n = gens[0].n if n is None else n
            if all(g == Element.identity(n) for g in gens):
                gens = []
        if n is None:
            raise ValueError("empty group needs an explicit system count")
        return cls(n, gens)

    @classmethod
    def trivial(cls, n: int) -> "Group":
        return cls(n, ())

    @classmethod
    def _from_reduced(cls, n: int, pivots: dict,
                      base: "Group | None" = None) -> "Group":
        """The valid group of reduced rows ``{pivot: (bits, sign)}``, taken
        as they are: for rows derived from a known-valid state by an
        operation that keeps validity and the reduced form.  A row that is
        the very row object of ``base``, when given, keeps its canonical
        element.  The generators are the canonical rows."""
        kept, old = {}, {}
        if base is not None:
            kept = dict(zip(sorted(base._pivots), base.canonical))
            old = base._pivots
        self = cls.__new__(cls)
        self.n = n
        self._pivots = pivots
        self._neg_identity = False
        self.canonical = self.generators = tuple(
            kept[p] if old.get(p) is row else Element.from_interleaved(n, *row)
            for p, row in sorted(pivots.items()))
        self._violations = ()
        return self

    # -- validity ----------------------------------------------------

    def violations(self) -> list[str]:
        """Empty list when the generating set is a valid state group.

        Computed on the first call; later calls return a fresh copy of the
        remembered list.
        """
        if self._violations is not None:
            return list(self._violations)
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
        self._violations = tuple(out)
        return out

    @property
    def is_valid(self) -> bool:
        return not self.violations()

    def require_valid(self) -> "Group":
        if not self._known_valid:
            v = self.violations()
            if v:
                raise ValueError("invalid state group: " + "; ".join(v))
        return self

    @property
    def _known_valid(self) -> bool:
        return self._violations == ()

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
        bits, neg = reduce(self._pivots, g.interleaved(), g.neg)
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

    # -- combination -------------------------------------------------

    # The combinations below build from the generators, not from
    # ``canonical``, which drops a negative identity and any dependence:
    # an invalid group stays invalid, and a valid one gets the same
    # canonical form, since both sets span the same signed group.

    def extended(self, *gens: Element) -> "Group":
        return Group(self.n, self.generators + tuple(gens))

    def tensor(self, other: "Group") -> "Group":
        n = self.n + other.n
        gens = [g.embed(n, range(self.n)) for g in self.generators]
        gens += [g.embed(n, range(self.n, n)) for g in other.generators]
        return Group(n, gens)

    def embed(self, n: int, sites: Iterable[int]) -> "Group":
        sites = _embedding(self.n, n, sites)
        return Group(n, [g.embed(n, sites) for g in self.generators])

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
