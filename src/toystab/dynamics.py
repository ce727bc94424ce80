"""Reversible dynamics, measurement update, and purification machinery.

Allowed reversible maps are permutations of the ontic space composed from
single-site permutations (all 24 of S4) and controlled single-site
symbol flips between two sites.  The conjugation action of every factor,
local or controlled, is derived once from its ontic map
(``Permutation.apply_bits``), so the stabilizer-level update provably
matches the ontic oracle.  Conjugation and symplectic synthesis both use
that one derived action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Element, Group, echelon, insert, reduce

# --------------------------------------------------------------------------
# single-site permutations
# --------------------------------------------------------------------------

# all permutations of the four ontic states of one site, in lexicographic
# order; a permutation tuple p maps state s -> p[s], with s = a + 2b
PERMS: tuple[tuple[int, ...], ...] = tuple(itertools.permutations(range(4)))
PERM_ID = {p: i for i, p in enumerate(PERMS)}

NAMED_PERMS = {
    "I": (0, 1, 2, 3),
    "X": (2, 3, 0, 1),   # b <- b+1: fixes X, negates Z and Y
    "Z": (1, 0, 3, 2),   # a <- a+1: fixes Z, negates X and Y
    "Y": (3, 2, 1, 0),   # both flips: fixes Y, negates X and Z
    "H": (0, 2, 1, 3),   # swaps a and b: exchanges X and Z
    "P": (3, 2, 0, 1),   # order-4 cycle X -> Y -> -X -> -Y
    "B": (0, 1, 3, 2),   # a <- a+b: exchanges X and Y, fixes Z
}
PERM_NAME = {v: k for k, v in NAMED_PERMS.items()}


# --------------------------------------------------------------------------
# permutations of the joint ontic space
# --------------------------------------------------------------------------

# factor forms:  ("local", site, perm_id)  |  (kind, control, target)
# with kind one of "cx", "cy", "cz"
CTRL_KINDS = ("cx", "cy", "cz")


@dataclass(frozen=True)
class Permutation:
    """A composition of elementary factors, applied in list order."""

    n: int
    factors: tuple = ()

    # -- builders ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, ())

    @classmethod
    def local(cls, n: int, site: int, perm) -> "Permutation":
        """``perm`` is a name in NAMED_PERMS, an index into PERMS, or the
        images of the four states."""
        pid = perm
        if isinstance(perm, str):
            pid = PERM_ID.get(NAMED_PERMS.get(perm))
        elif type(perm) is not int:
            try:
                images = tuple(perm)
            except TypeError:
                images = None
            # a bool equals an int image but is not one
            if images is not None and all(type(s) is int for s in images):
                pid = PERM_ID.get(images)
        if type(pid) is not int or not 0 <= pid < len(PERMS):
            raise ValueError(f"unknown permutation {perm!r}")
        _check_sites(n, [site])
        return cls(n, (("local", site, pid),))

    @classmethod
    def controlled(cls, n: int, kind: str, control: int, target: int) -> "Permutation":
        if kind not in CTRL_KINDS:
            raise ValueError(f"unknown controlled kind {kind!r}")
        _check_sites(n, [control, target])
        return cls(n, ((kind, control, target),))

    @classmethod
    def pauli(cls, n: int, x: int, z: int) -> "Permutation":
        """The symbol-flip permutation whose observable symbol is (x, z)."""
        factors = []
        for i in range(n):
            xb, zb = (x >> i) & 1, (z >> i) & 1
            if xb or zb:
                name = {(1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(xb, zb)]
                factors.append(("local", i, PERM_ID[NAMED_PERMS[name]]))
        return cls(n, tuple(factors))

    def then(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.n, self.factors + other.factors)

    def inverse(self) -> "Permutation":
        inv = []
        for f in reversed(self.factors):
            if f[0] == "local":
                p = PERMS[f[2]]
                ip = [0] * 4
                for s, t in enumerate(p):
                    ip[t] = s
                inv.append(("local", f[1], PERM_ID[tuple(ip)]))
            else:
                inv.append(f)  # controlled flips are involutions
        return Permutation(self.n, tuple(inv))

    @property
    def sites(self) -> set[int]:
        out = set()
        for f in self.factors:
            out.update(f[1:3] if f[0] != "local" else (f[1],))
        return out

    # -- ontic action ---------------------------------------------------

    def apply_bits(self, a: int, b: int) -> tuple[int, int]:
        for f in self.factors:
            if f[0] == "local":
                _, i, pid = f
                s = ((a >> i) & 1) | (((b >> i) & 1) << 1)
                t = PERMS[pid][s]
                a = (a & ~(1 << i)) | ((t & 1) << i)
                b = (b & ~(1 << i)) | ((t >> 1) << i)
            else:
                kind, c, t = f
                ac, bc = (a >> c) & 1, (b >> c) & 1
                at, bt = (a >> t) & 1, (b >> t) & 1
                if kind == "cz":
                    ac ^= bt
                    at ^= bc
                elif kind == "cx":
                    ac ^= at
                    bt ^= bc
                else:  # cy
                    ac ^= at ^ bt
                    at ^= bc
                    bt ^= bc
                a = (a & ~(1 << c) & ~(1 << t)) | (ac << c) | (at << t)
                b = (b & ~(1 << c) & ~(1 << t)) | (bc << c) | (bt << t)
        return a, b

    # -- conjugation action ----------------------------------------------

    def _conj_row(self, bits: int, neg: bool) -> tuple[int, bool]:
        """The conjugated interleaved row ``(bits, sign)``."""
        for f in self.factors:
            bits, sign = _act(f, bits)
            neg ^= sign
        if bits >> 2 * self.n:
            raise ValueError("a factor acts outside the register")
        return bits, neg

    def _conj_rows(self, rows: dict) -> dict:
        """The reduced rows of the conjugated state of the reduced rows
        ``rows``: each row conjugated, then all echeloned again."""
        pivots, _ = echelon(self._conj_row(*row) for row in rows.values())
        return pivots

    def conj_element(self, e: Element) -> Element:
        if e.n != self.n:
            raise ValueError("size mismatch")
        return Element.from_interleaved(self.n,
                                        *self._conj_row(e.interleaved(), e.neg))

    def conjugate(self, group: Group) -> Group:
        """The group of conjugated elements; valid exactly when ``group`` is,
        so it is recorded as valid when ``group`` is already known valid.

        On a known-valid group the reduced rows are conjugated as packed
        rows and echeloned again into the result.
        """
        if group.n != self.n:
            raise ValueError("size mismatch")
        if not group._known_valid:
            return Group(self.n,
                         [self.conj_element(g) for g in group.generators])
        return Group._from_reduced(self.n, self._conj_rows(group._pivots))

    # -- serialization -----------------------------------------------

    def to_json(self) -> list:
        out = []
        for f in self.factors:
            if f[0] == "local":
                p = PERMS[f[2]]
                spec = PERM_NAME.get(p, list(p))
                out.append({"site": f[1] + 1, "perm": spec})
            else:
                out.append({f[0]: [f[1] + 1, f[2] + 1]})
        return out

    @classmethod
    def from_json(cls, n: int, data: list) -> "Permutation":
        if not isinstance(data, list):
            raise ValueError("a permutation is a JSON list of factors")
        perm = cls.identity(n)
        for item in data:
            if not isinstance(item, dict):
                raise ValueError(f"factor {item!r} is not an object")
            if "site" in item:
                if "perm" not in item:
                    raise ValueError(f"local factor {item} has no 'perm' key")
                kind, sites = "local", [item["site"]]
            elif len(item) == 1:
                (kind, sites), = item.items()
            else:
                raise ValueError(f"factor {item} needs a 'site' key or one "
                                 "controlled kind")
            if not (isinstance(sites, list)
                    and len(sites) == (1 if kind == "local" else 2)
                    and all(type(s) is int for s in sites)):
                raise ValueError(f"factor {item} has malformed sites")
            if kind != "local" and kind not in CTRL_KINDS:
                raise ValueError(f"unknown controlled kind {kind!r}")
            for s in sites:
                if not 1 <= s <= n:
                    raise ValueError(f"site {s} out of range 1..{n}")
            if len(sites) == 2 and sites[0] == sites[1]:
                raise ValueError(f"factor {item} has control and target "
                                 f"both at site {sites[0]}")
            if kind == "local":
                spec = item["perm"]
                if not (isinstance(spec, str) or type(spec) is int
                        or (isinstance(spec, list) and len(spec) == 4
                            and all(type(v) is int for v in spec))):
                    raise ValueError(f"factor {item} has a malformed perm: a "
                                     "name, an index or four state images")
                factor = cls.local(n, sites[0] - 1, spec)
            else:
                factor = cls.controlled(n, kind, sites[0] - 1, sites[1] - 1)
            perm = perm.then(factor)
        return perm


def _derive_table(factor, sites: int) -> tuple:
    """Conjugation table of one factor on ``sites`` systems, derived from
    its ontic map: entry s is the (image, sign) of interleaved symbol s.

    The conjugated element takes at apply_bits(w) the value the element
    takes at w.  Symbol column c reads one ontic bit (a_i when c = 2i,
    b_i when c = 2i + 1), so its image reads that bit of the preimage: an
    affine function whose constant is the sign and whose linear part is
    the image.  The rest of the table follows by linearity.
    """
    forward = Permutation(sites, (factor,)).apply_bits
    pre = {forward(a, b): (a, b)
           for a in range(1 << sites) for b in range(1 << sites)}
    unit = [(0, 1 << c // 2) if c & 1 else (1 << c // 2, 0)
            for c in range(2 * sites)]

    def read(c, state):
        return bool(state[c & 1] >> c // 2 & 1)

    table = [(0, False)]
    for c in range(2 * sites):
        sign = read(c, pre[0, 0])
        image = sum((read(c, pre[u]) ^ sign) << j for j, u in enumerate(unit))
        table += [(b ^ image, s ^ sign) for b, s in table]
    return tuple(table)


_LOCAL_TABLES = tuple(_derive_table(("local", 0, pid), 1)
                      for pid in range(len(PERMS)))
_CTRL_TABLES = {kind: _derive_table((kind, 0, 1), 2) for kind in CTRL_KINDS}


def _act(factor, v: int) -> tuple[int, bool]:
    """(image, sign) of interleaved symbol ``v`` under one factor."""
    kind, i, j = factor     # ("local", site, perm id) or (kind, control, target)
    if kind == "local":
        image, sign = _LOCAL_TABLES[j][v >> 2 * i & 3]
        return v & ~(3 << 2 * i) | image << 2 * i, sign
    image, sign = _CTRL_TABLES[kind][v >> 2 * i & 3 | (v >> 2 * j & 3) << 2]
    v &= ~(3 << 2 * i | 3 << 2 * j)
    return v | (image & 3) << 2 * i | (image >> 2) << 2 * j, sign


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def _fold_top(rows: dict, pivots: list) -> None:
    """Of the reduced rows at ``pivots``, XOR the one with the highest
    pivot into the others and remove it.  Its bits all lie at or above
    its pivot and it holds no other pivot bit, so each other row keeps
    its pivot and the form stays reduced."""
    top = max(pivots)
    tb, tneg = rows.pop(top)
    for p in pivots:
        if p != top:
            pb, pneg = rows[p]
            rows[p] = (pb ^ tb, pneg ^ tneg)


def measure_rows(rows: dict, bits: int, neg: bool, sites: int, *, rng=None,
                 force: int | None = None) -> tuple:
    """Measure the signed symbol ``(bits, neg)`` on the reduced rows
    ``{pivot: (bits, sign)}`` of a valid state on ``sites`` systems.

    Returns ``(outcome, post, random)``.  ``post`` is ``rows`` itself
    when the outcome is deterministic, a new dict of reduced rows when it
    is random (probability 1/2 each), and None when ``force`` contradicts
    a deterministic outcome.  A random outcome is ``force`` when given,
    else one ``rng.randrange(2)``.  ``force`` is None or the int 0 or 1:
    a bool or a float raises ``ValueError``, as it would be returned as
    the outcome.

    The random update takes O(rank) row operations.  Of the rows
    incompatible with the symbol, the one with the highest pivot is
    XORed into the others and dropped (:func:`_fold_top`), and then the
    signed symbol is inserted.  The kept rows are compatible with it and
    with each other, and independent elements of the state; the symbol
    lies outside their span, so adding it keeps the set independent and
    brings in no negative identity, and a compatible independent set has
    at most ``sites`` members.  The post rows are therefore those of a
    valid state.  Their signed span, the state's compatible part and the
    signed symbol, does not depend on which incompatible row is dropped,
    and a reduced echelon form with lowest-bit pivots is unique for its
    signed span, so the rows are those of re-echeloning any generating
    set of the post state.
    """
    if force is not None and (type(force) is not int or force not in (0, 1)):
        raise ValueError(f"a forced outcome is 0 or 1, not {force!r}")
    rest, sign = reduce(rows, bits, neg)
    if not rest:
        out = 1 if sign else 0
        if force is not None and force != out:
            return force, None, False
        return out, rows, False
    if force is not None:
        out = force
    elif rng is not None:
        out = rng.randrange(2)
    else:
        raise ValueError("random outcome needs an rng or a forced value")
    post = dict(rows)
    swapped = _swap_xz(bits, sites)
    bad = [p for p, (pb, _) in post.items() if (pb & swapped).bit_count() & 1]
    if bad:
        _fold_top(post, bad)
    insert(post, bits, neg ^ (out != 0))
    return out, post, True


def flip_signs(rows: dict, flips: int) -> None:
    """Conjugate the reduced rows of a state by a product of symbol flips,
    in place.  ``flips`` is the flips' interleaved symbol with its x and z
    columns swapped: a flip negates exactly the symbols incompatible with
    it, the rows that overlap ``flips`` an odd number of times."""
    for p, (bits, neg) in rows.items():
        if (bits & flips).bit_count() & 1:
            rows[p] = (bits, not neg)


def trace_site(rows: dict, site: int) -> None:
    """Trace ``site`` out of the reduced rows of a valid state, in place,
    in O(rank) row operations; the rows keep their width.

    For each of the site's two symbol columns in turn, the row with the
    highest pivot among those holding the column is XORed into the
    others that hold it and removed (:func:`_fold_top`).  The first
    removed row holds the x column and the second only the z column, and
    no remaining row holds either, so an element of the span is trivial
    on the site exactly when it combines neither removed row: the rows
    left span the subgroup trivial on the site, which is the marginal on
    the others.
    """
    for col in (1 << 2 * site, 2 << 2 * site):
        holders = [p for p, (pb, _) in rows.items() if pb & col]
        if holders:
            _fold_top(rows, holders)


def measure_element(group: Group, e: Element, *, rng=None, force: int | None = None):
    """Measure one signed observable on a state group.

    Returns (outcome_bit, post_group, probability); outcome 0 means the
    post state contains ``e`` itself, outcome 1 its negation.  A forced
    outcome that contradicts a deterministic value yields probability 0;
    a forced outcome other than the int 0 or 1 raises ``ValueError``.

    ``group`` is checked for validity; for a group the engine derived, that
    is a remembered result.  The update is :func:`measure_rows` on the
    group's reduced rows, whose result is valid and reduced, so the post
    group is built from it as it is.
    """
    group.require_valid()
    if e.is_identity_symbol:
        raise ValueError("cannot measure the identity symbol")
    if e.n != group.n:
        raise ValueError("size mismatch")
    out, rows, random = measure_rows(group._pivots, e.interleaved(), e.neg,
                                     group.n, rng=rng, force=force)
    if rows is None:
        return out, None, Fraction(0)
    if not random:
        return out, group, Fraction(1)
    return out, Group._from_reduced(group.n, rows, group), Fraction(1, 2)


# --------------------------------------------------------------------------
# partial trace / purification
# --------------------------------------------------------------------------

def _pack(bits: int, sites: list[int]) -> int:
    """The column pairs of ``sites`` in the interleaved row ``bits``,
    packed in list order."""
    out = 0
    for i, s in enumerate(sites):
        out |= (bits >> 2 * s & 3) << 2 * i
    return out


def _check_sites(n: int, sites: Iterable[int]) -> list[int]:
    """The sites as a list; raises on a site that is not an int (a bool
    equals one but is not one), out of range or repeated."""
    sites = list(sites)
    seen = set()
    for s in sites:
        if type(s) is not int:
            raise ValueError(f"site {s!r} is not an int")
        if not 0 <= s < n:
            raise ValueError(f"site {s} out of range for n={n}")
        if s in seen:
            raise ValueError(f"site {s} listed twice")
        seen.add(s)
    return sites


def marginal_rows(rows: dict, keep: list[int], sites: int) -> dict:
    """The reduced rows of the marginal on ``keep`` (distinct sites in
    ascending order) of the valid state with reduced rows ``rows`` on
    ``sites`` systems; ``rows`` is left as it is.

    Each site not kept is traced out of a copy (:func:`trace_site`), so
    the rows left hold no bit outside the kept sites and span the
    marginal.  The kept sites' column pairs are then packed in ascending
    order.  Packing keeps the order of the bits and drops only bits clear
    in every row, so each row's lowest bit stays its lowest and each
    pivot stays clear in every other row: the packed rows are reduced,
    keyed by their packed pivots.
    """
    rows = dict(rows)
    kept = set(keep)
    for s in range(sites):
        if s not in kept:
            trace_site(rows, s)
    out = {}
    for bits, neg in rows.values():
        packed = _pack(bits, keep)
        out[packed & -packed] = (packed, neg)
    return out


def partial_trace(group: Group, keep: Iterable[int]) -> Group:
    """Marginal state on the kept sites: the subgroup trivial elsewhere.

    The marginal's sites are the kept sites in ascending order, whatever
    order ``keep`` lists them in.
    """
    group.require_valid()
    keep = sorted(_check_sites(group.n, keep))
    return Group._from_reduced(len(keep),
                               marginal_rows(group._pivots, keep, group.n))


def erase(group: Group, sites: Iterable[int]) -> Group:
    """Trace out the listed sites and re-init them to the trivial state."""
    sites = _check_sites(group.n, sites)
    group.require_valid()
    rows = dict(group._pivots)
    for s in sites:
        trace_site(rows, s)
    return Group._from_reduced(group.n, rows, group)


# -- GF(2) symplectic helpers over site-interleaved bit vectors -----------

def _swap_xz(v: int, sites: int) -> int:
    x_mask = ((1 << 2 * sites) - 1) // 3   # the even columns
    return ((v & x_mask) << 1) | ((v >> 1) & x_mask)


def symplectic_product(u: int, v: int, sites: int) -> int:
    return (_swap_xz(u, sites) & v).bit_count() & 1


def _nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {v : parity(row & v) = 0 for every row}: per free column
    c, the vector with bit c set and every other free bit clear."""
    pivots, _ = echelon((r, 0) for r in rows)
    out = []
    for c in range(width):
        cb = 1 << c
        if cb not in pivots:
            out.append(cb | sum(p for p, (pb, _) in pivots.items() if pb & cb))
    return out


def _solve_affine(rows: list[int], rhs: list[int]) -> int | None:
    """The solution x of parity(rows[i] & x) = rhs[i] that is clear on the
    free columns; None when there is none."""
    pivots, zero_tags = echelon(zip(rows, rhs))
    if any(zero_tags):
        return None
    return sum(p for p, (_, y) in pivots.items() if y)


def isotropic_completion(vs: list[int], sites: int) -> list[tuple[int, int]]:
    """Symplectic pairs spanning a complement of an isotropic span.

    Given mutually orthogonal, independent vectors ``vs`` over ``sites``
    systems, returns (sites - len(vs)) hyperbolic pairs, each orthogonal
    to every input vector and to every other pair.
    """
    width = 2 * sites
    perp = _nullspace([_swap_xz(v, sites) for v in vs], width)
    vspan, _ = echelon((v, 0) for v in vs)
    candidates = []
    cspan = dict(vspan)
    for w in perp:
        if insert(cspan, w)[0]:
            candidates.append(reduce(vspan, w)[0])
    pairs = []
    while candidates:
        u = candidates.pop(0)
        partner = None
        for i, w in enumerate(candidates):
            if symplectic_product(u, w, sites):
                partner = candidates.pop(i)
                break
        if partner is None:
            raise AssertionError("degenerate form on the quotient")
        rest = []
        for r in candidates:
            r ^= partner if symplectic_product(r, u, sites) else 0
            r ^= u if symplectic_product(r, partner, sites) else 0
            rest.append(r)
        candidates = rest
        pairs.append((u, partner))
    return pairs


def purify(group: Group) -> Group:
    """A pure state on 2n systems whose marginal on the first n is ``group``.

    The reference block is systems n .. 2n-1.  Construction: keep the
    original generators, complete their symbol span symplectically, and
    anchor each completion pair to X/Z on a fresh reference site; leftover
    reference sites are pinned with +Z.
    """
    group.require_valid()
    n, l = group.n, group.rank
    vs = [g.interleaved() for g in group.canonical]
    pairs = isotropic_completion(vs, n)
    gens = [g.embed(2 * n, range(n)) for g in group.canonical]
    for m, (p, q) in enumerate(pairs):
        ref = n + m
        gens.append(Element.from_interleaved(n, p).embed(2 * n, range(n))
                    * Element.single(2 * n, ref, "X"))
        gens.append(Element.from_interleaved(n, q).embed(2 * n, range(n))
                    * Element.single(2 * n, ref, "Z"))
    for k in range(n - len(pairs)):
        gens.append(Element.single(2 * n, n + len(pairs) + k, "Z"))
    out = Group(2 * n, gens).require_valid()
    assert out.is_pure
    assert partial_trace(out, range(n)) == Group(n, group.canonical)
    return out


# -- synthesis of a symplectic symbol action into factors ------------------

def _block(v: int, j: int) -> int:
    """(x + 2z) block of vector v at site j."""
    return v >> 2 * j & 3


# plus-signed local gates of the sweep, named by their symbol action
_H = PERM_ID[NAMED_PERMS["H"]]     # X <-> Z
_B = PERM_ID[NAMED_PERMS["B"]]     # X <-> Y, Z fixed
_BT = PERM_ID[(0, 3, 2, 1)]        # b <- a+b, B transposed: Z <-> Y, X fixed
_TO_X = {2: _H, 3: _B}             # by block (x + 2z): the gate taking it to X
_TO_Z = {1: _H, 3: _BT}            # ... and to Z


def synthesize_symplectic(f_columns: list[int], sites: int) -> list:
    """Factor list (local site indices) realizing a symplectic symbol map.

    ``f_columns[2j]`` is the image of X at site j, ``f_columns[2j+1]`` of Z.
    The sweep applies gates to the columns until they are the identity;
    every gate is an involution on symbols, so the map is realized by the
    sweep's gates in reverse order.  Signs are left to the caller.
    """
    cols = list(f_columns)
    gates = []

    def apply(gate):
        gates.append(gate)
        cols[:] = [_act(gate, c)[0] for c in cols]

    for i in range(sites):
        cx = cols[2 * i]
        if _block(cx, i) == 0:
            j = next(j for j in range(i + 1, sites) if _block(cx, j))
            for g in (("cx", i, j), ("cx", j, i), ("cx", i, j)):  # swap
                apply(g)
        b = _block(cols[2 * i], i)
        if b != 1:
            apply(("local", i, _TO_X[b]))
        for j in range(sites):
            bj = _block(cols[2 * i], j)
            if j != i and bj:
                if bj != 1:
                    apply(("local", j, _TO_X[bj]))
                apply(("cx", i, j))
        for j in range(sites):
            bj = _block(cols[2 * i + 1], j)
            if j != i and bj:
                if bj != 2:
                    apply(("local", j, _TO_Z[bj]))
                apply(("cx", j, i))
        if _block(cols[2 * i + 1], i) == 3:
            apply(("local", i, _BT))
    assert cols == [1 << j for j in range(2 * sites)], "symplectic sweep failed"
    return gates[::-1]


# --------------------------------------------------------------------------
# relating purifications
# --------------------------------------------------------------------------

def relate_purifications(target: Group, source: Group,
                         ref: Iterable[int]) -> Permutation:
    """A permutation local to ``ref`` with conj(source) == target.

    Both groups must be pure states on the same systems with equal
    marginals outside ``ref``, a list of distinct sites.  GF(2) transport of the reference symbols
    plus a sign-fixing symbol flip; the result is verified by conjugation
    before being returned.
    """
    target.require_valid()
    source.require_valid()
    if target.n != source.n:
        raise ValueError("size mismatch")
    n = target.n
    ref = sorted(_check_sites(n, ref))
    keep = [s for s in range(n) if s not in ref]
    if not (target.is_pure and source.is_pure):
        raise ValueError("both states must be pure")
    marg_t = partial_trace(target, keep)
    marg_s = partial_trace(source, keep)
    if marg_t != marg_s:
        raise ValueError("marginals outside the reference block differ")

    k, r = len(keep), len(ref)

    # keep parts reduced with their reference parts carried as tags; a
    # dependent row's tag is the reference symbol of a keep-trivial element
    src, a_list = echelon((_pack(v, keep), _pack(v, ref)) for v in
                          (g.interleaved() for g in source.canonical))
    tgt, b_list = echelon((_pack(v, keep), _pack(v, ref)) for v in
                          (g.interleaved() for g in target.canonical))
    if len(a_list) != len(b_list):
        raise AssertionError("purification ranks disagree")

    # extend by transported representatives of keep-symbols outside the
    # marginal's span
    vspan = [g.interleaved() for g in marg_t.canonical]
    perp = _nullspace([_swap_xz(v, k) for v in vspan], 2 * k)
    ext_span, _ = echelon((v, 0) for v in vspan)
    for u in perp:
        if not insert(ext_span, u)[0]:
            continue
        ca, av = reduce(src, u)
        cb, bv = reduce(tgt, u)
        if ca or cb:
            raise AssertionError("keep-projection misses a perp vector")
        a_list.append(av)
        b_list.append(bv)

    # complete both to full bases of the reference symbol space with
    # matching inner products
    a_span, a_dependent = echelon((v, 0) for v in a_list)
    b_span, b_dependent = echelon((v, 0) for v in b_list)
    if a_dependent or b_dependent:
        raise AssertionError("dependent reference vectors")
    for c in range(2 * r):
        if len(a_list) == 2 * r:
            break
        xa = reduce(a_span, 1 << c)[0]
        if not xa:
            continue
        gamma = [symplectic_product(xa, a, r) for a in a_list]
        b_rows = [_swap_xz(b, r) for b in b_list]
        # xb is never in b_span: a's span holds its own complement (the
        # keep-trivial parts are isotropic, the transported ones pair
        # non-degenerately), so xb = sum c_i b_i would, by the equal inner
        # products, put xa - sum c_i a_i in it and xa in a's span
        xb = _solve_affine(b_rows, gamma)
        if xb is None or not reduce(b_span, xb)[0]:
            raise AssertionError("no pairing-compatible completion")
        a_list.append(xa)
        b_list.append(xb)
        insert(a_span, xa)
        insert(b_span, xb)

    # F = B A^-1 via change of basis: express unit vectors in the a basis,
    # carrying the b vectors as tags
    basis, _ = echelon(zip(a_list, b_list))
    f_columns = [reduce(basis, 1 << c)[1] for c in range(2 * r)]

    local_factors = synthesize_symplectic(f_columns, r)
    factors = tuple((f[0], ref[f[1]], f[2]) if f[0] == "local"
                    else (f[0], ref[f[1]], ref[f[2]]) for f in local_factors)
    perm = Permutation(n, factors)

    # moved has target's symbols, and their signs differ by a character
    # that is trivial on the keep-only elements (the marginals agree), so
    # it reads only the reference part: a reference-local symbol flip,
    # solved for from each row's sign mismatch
    moved = perm.conjugate(source)
    ref_mask = sum(3 << 2 * s for s in ref)
    rows = [_swap_xz(g.interleaved() & ref_mask, n) for g in target.canonical]
    rhs = [(moved.member(Element(n, g.x, g.z)) == "in") == g.neg
           for g in target.canonical]
    w = _solve_affine(rows, rhs)
    if w is None:
        raise AssertionError("no reference-local sign fix")
    flip = Element.from_interleaved(n, w)
    fix = Permutation.pauli(n, flip.x, flip.z)
    if fix.conjugate(moved) != target:
        raise RuntimeError("could not relate the purifications")
    return perm.then(fix)
