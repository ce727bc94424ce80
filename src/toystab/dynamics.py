"""Reversible dynamics, measurement update, and purification machinery.

Allowed reversible maps are permutations of the ontic space composed from
single-site permutations (all 24 of S4) and controlled single-site
symbol flips between two sites.  Conjugation action on group elements is
derived from the permutation itself (never hand-coded tables), so the
stabilizer-level update provably matches the ontic oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .algebra import Element, Group, solve_gf2

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

_SIGNED_DIAGS = {}
for _name, (_x, _z) in (("X", (1, 0)), ("Y", (1, 1)), ("Z", (0, 1))):
    for _neg in (False, True):
        _e = Element(1, _x, _z, _neg)
        _diag = tuple(-1 if _e.eval_bit(s & 1, s >> 1) else 1 for s in range(4))
        _SIGNED_DIAGS[_diag] = (_x, _z, _neg)


def _conj_image(perm: tuple[int, ...], x: int, z: int, neg: bool):
    """Image of one single-site symbol under conjugation by ``perm``.

    The conjugated diagonal is d'[i] = d[perm^-1(i)].
    """
    e = Element(1, x, z, neg)
    inv = [0] * 4
    for s, t in enumerate(perm):
        inv[t] = s
    diag = tuple(-1 if e.eval_bit(inv[i] & 1, inv[i] >> 1) else 1
                 for i in range(4))
    return _SIGNED_DIAGS[diag]


# images of X and Z under every single-site permutation, derived once
_PERM_ACTION = []
for _p in PERMS:
    _PERM_ACTION.append((_conj_image(_p, 1, 0, False), _conj_image(_p, 0, 1, False)))

# perm id for a given unsigned symbol action with plus signs on both images
_ACTION_PID = {}
for _i, ((_xx, _xz, _xn), (_zx, _zz, _zn)) in enumerate(_PERM_ACTION):
    if not _xn and not _zn:
        _ACTION_PID[((_xx, _xz), (_zx, _zz))] = _i


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
        try:
            if not isinstance(perm, int):
                perm = PERM_ID[NAMED_PERMS[perm] if isinstance(perm, str)
                               else tuple(perm)]
        except (KeyError, TypeError):
            raise ValueError(f"unknown permutation {perm!r}") from None
        if not 0 <= perm < len(PERMS):
            raise ValueError(f"unknown permutation {perm!r}")
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range")
        return cls(n, (("local", site, perm),))

    @classmethod
    def controlled(cls, n: int, kind: str, control: int, target: int) -> "Permutation":
        if kind not in CTRL_KINDS:
            raise ValueError(f"unknown controlled kind {kind!r}")
        if control == target or not (0 <= control < n and 0 <= target < n):
            raise ValueError("bad control/target sites")
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

    def conj_element(self, e: Element) -> Element:
        if e.n != self.n:
            raise ValueError("size mismatch")
        x, z, neg = e.x, e.z, e.neg
        for f in self.factors:
            if f[0] == "local":
                _, i, pid = f
                xb, zb = (x >> i) & 1, (z >> i) & 1
                nx = nz = 0
                (ix, iz, ineg), (jx, jz, jneg) = _PERM_ACTION[pid]
                if xb:
                    nx ^= ix
                    nz ^= iz
                    neg ^= ineg
                if zb:
                    nx ^= jx
                    nz ^= jz
                    neg ^= jneg
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
        return Element(self.n, x, z, neg)

    def conjugate(self, group: Group) -> Group:
        return Group(self.n, [self.conj_element(g) for g in group.canonical])

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
            if kind == "local":
                factor = cls.local(n, sites[0] - 1, item["perm"])
            else:
                factor = cls.controlled(n, kind, sites[0] - 1, sites[1] - 1)
            perm = perm.then(factor)
        return perm


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def measure_element(group: Group, e: Element, *, rng=None, force: int | None = None):
    """Measure one signed observable on a state group.

    Returns (outcome_bit, post_group, probability); outcome 0 means the
    post state contains ``e`` itself, outcome 1 its negation.  A forced
    outcome that contradicts a deterministic value yields probability 0.
    """
    group.require_valid()
    if e.is_identity_symbol:
        raise ValueError("cannot measure the identity symbol")
    status = group.member(e)
    if status != "absent":
        out = 0 if status == "in" else 1
        if force is not None and force != out:
            return force, None, Fraction(0)
        return out, group, Fraction(1)
    if force is not None:
        out = force
    elif rng is not None:
        out = rng.randrange(2)
    else:
        raise ValueError("random outcome needs an rng or a forced value")
    observed = e if out == 0 else e.negated()
    bad = [g for g in group.canonical if not g.compatible(e)]
    if not bad:
        post = group.extended(observed)
    else:
        pivot = bad[0]
        gens = [g if g.compatible(e) else g * pivot
                for g in group.canonical if g is not pivot]
        post = Group(group.n, gens + [observed])
    return out, post.require_valid(), Fraction(1, 2)


@dataclass(frozen=True)
class Measurement:
    """A labelled family of state groups acting as a partition of unity."""

    branches: tuple  # of (label, Group)

    def __post_init__(self):
        if not self.branches:
            raise ValueError("measurement needs at least one branch")
        n = self.branches[0][1].n
        for _, g in self.branches:
            if g.n != n:
                raise ValueError("branch size mismatch")
            g.require_valid()

    @property
    def n(self) -> int:
        return self.branches[0][1].n

    def validate_partition(self, cap: int | None = None) -> None:
        """Oracle check: every ontic state lies in exactly one branch."""
        from .oracle import check_cap, state_bits
        check_cap(self.n, cap)
        for idx in range(4 ** self.n):
            a, b = state_bits(self.n, idx)
            hits = [lbl for lbl, g in self.branches
                    if all(h.eval_bit(a, b) == 0 for h in g.canonical)]
            if len(hits) != 1:
                raise ValueError(
                    f"branches are not a partition of unity at state {idx}: {hits}")


def branch_probability(group: Group, branch: Group):
    """Probability and post state for one measurement branch.

    Computed by sequentially measuring each branch generator with the
    branch's sign forced; equals the oracle's projector probability.
    """
    prob = Fraction(1)
    state = group
    for g in branch.canonical:
        out, state, p = measure_element(state, Element(g.n, g.x, g.z), force=g.neg)
        prob *= p
        if prob == 0:
            return Fraction(0), None
        # fold the observed sign into the state; measure_element already did
    return prob, state


def measure(group: Group, m: Measurement, rng):
    """Sample one branch; returns (label, post_group, probability)."""
    group.require_valid()
    if m.n != group.n:
        raise ValueError("size mismatch")
    outcomes = []
    for label, branch in m.branches:
        prob, post = branch_probability(group, branch)
        outcomes.append((label, post, prob))
    total = sum(p for _, _, p in outcomes)
    if total != 1:
        raise ValueError("branches do not exhaust the state (not a partition)")
    den = lcm(*{p.denominator for _, _, p in outcomes})
    r = rng.randrange(den)
    acc = 0
    for label, post, p in outcomes:
        acc += p.numerator * (den // p.denominator)
        if r < acc:
            return label, post, p
    raise AssertionError("unreachable")


# --------------------------------------------------------------------------
# partial trace / purification
# --------------------------------------------------------------------------

def _check_sites(n: int, sites: Iterable[int]) -> list[int]:
    """The sites as a list; raises on a site out of range or repeated."""
    sites = list(sites)
    seen = set()
    for s in sites:
        if not 0 <= s < n:
            raise ValueError(f"site {s} out of range for n={n}")
        if s in seen:
            raise ValueError(f"site {s} listed twice")
        seen.add(s)
    return sites


def partial_trace(group: Group, keep: Iterable[int]) -> Group:
    """Marginal state on the kept sites: the subgroup trivial elsewhere.

    The marginal's sites are the kept sites in ascending order, whatever
    order ``keep`` lists them in.
    """
    group.require_valid()
    keep = sorted(_check_sites(group.n, keep))
    drop = [s for s in range(group.n) if s not in keep]
    # echelonize with dropped columns leading so that rows clear of them
    # are exposed
    order = [c for s in drop for c in (2 * s, 2 * s + 1)]
    order += [c for s in keep for c in (2 * s, 2 * s + 1)]
    pos = {c: i for i, c in enumerate(order)}

    def reorder(bits):
        out = 0
        for c, i in pos.items():
            out |= ((bits >> c) & 1) << i
        return out

    rows = [(reorder(g.interleaved()), g.neg, g) for g in group.canonical]
    pivots = {}
    kept_rows = []
    drop_mask = (1 << (2 * len(drop))) - 1
    for bits, neg, _ in rows:
        elem_bits, elem_neg = bits, neg
        while elem_bits:
            p = elem_bits & -elem_bits
            if p not in pivots:
                pivots[p] = (elem_bits, elem_neg)
                break
            pb, pn = pivots[p]
            elem_bits ^= pb
            elem_neg ^= pn
    for p in sorted(pivots, reverse=True):
        bits, neg = pivots[p]
        for q in list(pivots):
            if q != p and pivots[q][0] & p:
                pivots[q] = (pivots[q][0] ^ bits, pivots[q][1] ^ neg)
    for p in sorted(pivots):
        bits, neg = pivots[p]
        if bits & drop_mask:
            continue
        # restrict to kept columns
        out = 0
        for i, s in enumerate(keep):
            out |= ((bits >> pos[2 * s]) & 1) << (2 * i)
            out |= ((bits >> pos[2 * s + 1]) & 1) << (2 * i + 1)
        kept_rows.append(Element.from_interleaved(len(keep), out, neg))
    return Group(len(keep), kept_rows)


def erase(group: Group, sites: Iterable[int]) -> Group:
    """Trace out the listed sites and re-init them to the trivial state."""
    sites = set(_check_sites(group.n, sites))
    keep = [s for s in range(group.n) if s not in sites]
    traced = partial_trace(group, keep)
    return traced.embed(group.n, keep)


# -- GF(2) symplectic helpers over site-interleaved bit vectors -----------

def _swap_xz(v: int, sites: int) -> int:
    x_mask = 0
    for i in range(sites):
        x_mask |= 1 << (2 * i)
    return ((v & x_mask) << 1) | ((v >> 1) & x_mask)


def symplectic_product(u: int, v: int, sites: int) -> int:
    return bin(_swap_xz(u, sites) & v).count("1") & 1


def _span_reduce(basis: list[int], v: int) -> int:
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def _add_to_span(basis: list[int], v: int) -> bool:
    v = _span_reduce(basis, v)
    if v:
        basis.append(v)
        basis.sort(key=lambda b: b & -b)
        return True
    return False


def _nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {v : parity(row & v) = 0 for every row}."""
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
        # back-substitute pivot variables
        for rb, pb in sorted(pivots, key=lambda t: -t[1]):
            if bin(rb & v).count("1") & 1:
                v ^= pb
        out.append(v)
    return out


def _solve_affine(rows: list[int], rhs: list[int], width: int):
    """One solution x of parity(rows[i] & x) = rhs[i], plus the nullspace."""
    pivots = []  # (reduced row, rhs bit, pivot)
    for r, y in zip(rows, rhs):
        for rb, yb, _ in pivots:
            if r & (rb & -rb):
                r ^= rb
                y ^= yb
        if r:
            pivots.append((r, y, r & -r))
        elif y:
            return None, []
    x = 0
    for rb, yb, pb in sorted(pivots, key=lambda t: -t[2]):
        if (bin(rb & x).count("1") & 1) != yb:
            x ^= pb
    null = _nullspace([r for r, _, _ in pivots], width)
    return x, null


def isotropic_completion(vs: list[int], sites: int) -> list[tuple[int, int]]:
    """Symplectic pairs spanning a complement of an isotropic span.

    Given mutually orthogonal, independent vectors ``vs`` over ``sites``
    systems, returns (sites - len(vs)) hyperbolic pairs, each orthogonal
    to every input vector and to every other pair.
    """
    width = 2 * sites
    perp = _nullspace([_swap_xz(v, sites) for v in vs], width)
    vspan: list[int] = []
    for v in vs:
        _add_to_span(vspan, v)
    candidates = []
    cspan = list(vspan)
    for w in perp:
        if _add_to_span(cspan, w):
            candidates.append(_span_reduce(vspan, w))
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
    return ((v >> (2 * j)) & 1) | (((v >> (2 * j + 1)) & 1) << 1)


_TO_X = {1: ((1, 0), (0, 1)),        # X already: identity
         2: ((0, 1), (1, 0)),        # Z -> X: swap
         3: ((1, 0), (1, 1))}        # Y -> X: (x, z) -> (x, x+z)
_FIX_CZ = ((1, 1), (0, 1))           # X -> X, Y -> Z: (x, z) -> (x+z, z)
_TO_Z = {2: ((1, 0), (0, 1)),
         1: ((0, 1), (1, 0)),
         3: ((1, 1), (0, 1))}


def _apply_matrix_block(v: int, j: int, mat) -> int:
    xb = (v >> (2 * j)) & 1
    zb = (v >> (2 * j + 1)) & 1
    nx = (mat[0][0] & xb) ^ (mat[0][1] & zb)
    nz = (mat[1][0] & xb) ^ (mat[1][1] & zb)
    v &= ~(0b11 << (2 * j))
    return v | (nx << (2 * j)) | (nz << (2 * j + 1))


def _gate_apply(gate, v: int) -> int:
    if gate[0] == "local":
        return _apply_matrix_block(v, gate[1], gate[2])
    kind, c, t = gate
    xc, zc = (v >> (2 * c)) & 1, (v >> (2 * c + 1)) & 1
    xt, zt = (v >> (2 * t)) & 1, (v >> (2 * t + 1)) & 1
    if kind == "cz":
        zt ^= xc
        zc ^= xt
    elif kind == "cx":
        xt ^= xc
        zc ^= zt
    else:
        zc ^= xt ^ zt
        xt ^= xc
        zt ^= xc
    v &= ~(0b11 << (2 * c)) & ~(0b11 << (2 * t))
    return v | (xc << (2 * c)) | (zc << (2 * c + 1)) | (xt << (2 * t)) | (zt << (2 * t + 1))


def _mat_inv2(mat):
    a, b = mat[0]
    c, d = mat[1]
    det = (a & d) ^ (b & c)
    assert det == 1
    return ((d, b), (c, a))


def synthesize_symplectic(f_columns: list[int], sites: int) -> list:
    """Factor list (local site indices) realizing a symplectic symbol map.

    ``f_columns[2j]`` is the image of X at site j, ``f_columns[2j+1]`` of Z.
    """
    cols = list(f_columns)
    gates = []

    def apply(gate):
        gates.append(gate)
        for i in range(len(cols)):
            cols[i] = _gate_apply(gate, cols[i])

    for i in range(sites):
        cx = cols[2 * i]
        if _block(cx, i) == 0:
            j = next(j for j in range(i + 1, sites) if _block(cx, j))
            for g in (("cx", i, j), ("cx", j, i), ("cx", i, j)):  # swap
                apply(g)
            cx = cols[2 * i]
        b = _block(cx, i)
        if b != 1:
            apply(("local", i, _TO_X[b]))
            cx = cols[2 * i]
        for j in range(sites):
            if j == i:
                continue
            bj = _block(cols[2 * i], j)
            if bj:
                if bj != 1:
                    apply(("local", j, _TO_X[bj]))
                apply(("cx", i, j))
        cz = cols[2 * i + 1]
        for j in range(sites):
            if j == i:
                continue
            bj = _block(cz, j)
            if bj:
                if bj != 2:
                    apply(("local", j, _TO_Z[bj]))
                apply(("cx", j, i))
                cz = cols[2 * i + 1]
        if _block(cols[2 * i + 1], i) == 3:
            apply(("local", i, _FIX_CZ))
    for j in range(2 * sites):
        assert cols[j] == 1 << j, "symplectic sweep failed"
    # gates reduce F to identity; the realized sequence is their inverses
    # in reverse order
    out = []
    for g in reversed(gates):
        if g[0] == "local":
            mat = _mat_inv2(g[2])
            imgx = (mat[0][0], mat[1][0])
            imgz = (mat[0][1], mat[1][1])
            out.append(("local", g[1], _ACTION_PID[(imgx, imgz)]))
        else:
            out.append(g)
    return out


# --------------------------------------------------------------------------
# relating purifications
# --------------------------------------------------------------------------

def relate_purifications(target: Group, source: Group,
                         ref: Iterable[int]) -> Permutation:
    """A permutation local to ``ref`` with conj(source) == target.

    Both groups must be pure states on the same systems with equal
    marginals outside ``ref``.  GF(2) transport of the reference symbols
    plus a sign-fixing symbol flip; the result is verified by conjugation
    before being returned.
    """
    target.require_valid()
    source.require_valid()
    if target.n != source.n:
        raise ValueError("size mismatch")
    n = target.n
    ref = sorted(set(ref))
    keep = [s for s in range(n) if s not in ref]
    if not (target.is_pure and source.is_pure):
        raise ValueError("both states must be pure")
    marg_t = partial_trace(target, keep)
    marg_s = partial_trace(source, keep)
    if marg_t != marg_s:
        raise ValueError("marginals outside the reference block differ")

    k, r = len(keep), len(ref)

    def split(e: Element) -> tuple[int, int]:
        kb = rb = 0
        for i, s in enumerate(keep):
            kb |= ((e.x >> s) & 1) << (2 * i)
            kb |= ((e.z >> s) & 1) << (2 * i + 1)
        for i, s in enumerate(ref):
            rb |= ((e.x >> s) & 1) << (2 * i)
            rb |= ((e.z >> s) & 1) << (2 * i + 1)
        return kb, rb

    def build_lists(group: Group):
        keeps = [split(g)[0] for g in group.canonical]
        refs = [split(g)[1] for g in group.canonical]
        return keeps, refs

    src_k, src_r = build_lists(source)
    tgt_k, tgt_r = build_lists(target)

    # kernel of the keep-projection: reference symbols of keep-trivial elements
    def kernel_refs(keeps, refs):
        m = len(keeps)
        combos = _nullspace([sum(((keeps[i] >> c) & 1) << i for i in range(m))
                             for c in range(2 * k)], m)
        out = []
        for mask in combos:
            v = 0
            for i in range(m):
                if (mask >> i) & 1:
                    v ^= refs[i]
            out.append(v)
        return out

    a_list = kernel_refs(src_k, src_r)
    b_list = kernel_refs(tgt_k, tgt_r)
    if len(a_list) != len(b_list):
        raise AssertionError("purification ranks disagree")

    # extend by transported representatives of keep-symbols outside the
    # marginal's span
    vspan = [g.interleaved() for g in marg_t.canonical]
    vbasis: list[int] = []
    for v in vspan:
        _add_to_span(vbasis, v)
    perp = _nullspace([_swap_xz(v, k) for v in vbasis], 2 * k)
    ext_span = list(vbasis)
    for u in perp:
        if not _add_to_span(ext_span, u):
            continue
        ca = solve_gf2(src_k, u)
        cb = solve_gf2(tgt_k, u)
        if ca is None or cb is None:
            raise AssertionError("keep-projection misses a perp vector")
        av = bv = 0
        for i in range(len(src_r)):
            if (ca >> i) & 1:
                av ^= src_r[i]
            if (cb >> i) & 1:
                bv ^= tgt_r[i]
        a_list.append(av)
        b_list.append(bv)

    # complete both to full bases of the reference symbol space with
    # matching inner products
    a_span: list[int] = []
    b_span: list[int] = []
    for v in a_list:
        if not _add_to_span(a_span, v):
            raise AssertionError("dependent source vectors")
    for v in b_list:
        if not _add_to_span(b_span, v):
            raise AssertionError("dependent target vectors")
    for c in range(2 * r):
        if len(a_list) == 2 * r:
            break
        xa = _span_reduce(a_span, 1 << c)
        if not xa:
            continue
        gamma = [symplectic_product(xa, a, r) for a in a_list]
        xb, null = _solve_affine([_swap_xz(b, r) for b in b_list], gamma, 2 * r)
        if xb is None:
            raise AssertionError("no pairing-compatible completion")
        cand = _span_reduce(b_span, xb)
        if not cand:
            found = False
            for mask in range(1, 1 << len(null)):
                v = xb
                for i in range(len(null)):
                    if (mask >> i) & 1:
                        v ^= null[i]
                if _span_reduce(b_span, v):
                    xb, found = v, True
                    break
            if not found:
                raise AssertionError("completion stuck")
        a_list.append(xa)
        b_list.append(xb)
        _add_to_span(a_span, xa)
        _add_to_span(b_span, xb)

    # F = B A^-1 via change of basis: express unit vectors in the a basis
    f_columns = []
    for c in range(2 * r):
        coeffs = solve_gf2(a_list, 1 << c)
        assert coeffs is not None
        img = 0
        for i in range(len(b_list)):
            if (coeffs >> i) & 1:
                img ^= b_list[i]
        f_columns.append(img)

    local_factors = synthesize_symplectic(f_columns, r)
    factors = tuple((f[0], ref[f[1]], f[2]) if f[0] == "local"
                    else (f[0], ref[f[1]], ref[f[2]]) for f in local_factors)
    perm = Permutation(n, factors)

    moved = perm.conjugate(source)
    # sign fix via a reference-local symbol flip
    rows, rhs = [], []
    ok = True
    for g in target.canonical:
        st = moved.member(Element(n, g.x, g.z))
        if st == "absent":
            ok = False
            break
        kb, rb = split(g)
        rows.append(_swap_xz(rb, r))
        rhs.append(0 if (st == "in") == (not g.neg) else 1)
    if ok:
        w, _ = _solve_affine(rows, rhs, 2 * r)
        if w is not None:
            wx = wz = 0
            for i, s in enumerate(ref):
                wx |= ((w >> (2 * i)) & 1) << s
                wz |= ((w >> (2 * i + 1)) & 1) << s
            perm = perm.then(Permutation.pauli(n, wx, wz))
            if perm.conjugate(source) == target:
                return perm

    # desk-scale fallback for a single reference site
    if len(ref) == 1:
        for pid in range(len(PERMS)):
            cand = Permutation.local(n, ref[0], pid)
            if cand.conjugate(source) == target:
                return cand
    raise RuntimeError("could not relate the purifications")


# --------------------------------------------------------------------------
# generalized maps
# --------------------------------------------------------------------------

def generalized_map(group: Group, ancilla: Group, perm: Permutation,
                    m: Measurement | None, keep: Sequence[int]):
    """Append an ancilla, permute, optionally measure, and trace down.

    Returns a list of (label, probability, Group) over measurement
    branches (a single (None, 1, Group) entry when ``m`` is None).
    """
    joint = group.tensor(ancilla) if ancilla is not None else group
    if perm.n != joint.n:
        raise ValueError("permutation size mismatch")
    moved = perm.conjugate(joint)
    if m is None:
        return [(None, Fraction(1), partial_trace(moved, keep))]
    out = []
    for label, branch in m.branches:
        prob, post = branch_probability(moved, branch)
        if prob:
            out.append((label, prob, partial_trace(post, keep)))
    if sum(p for _, p, _ in out) != 1:
        raise ValueError("measurement branches do not sum to one")
    return out
