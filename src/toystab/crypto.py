"""Distance measures and the commitment/no-deletion demonstrations.

All distances are exact rationals computed on full ontic distributions,
so claims like "the cheat is undetectable up to exactly epsilon" are
checked with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .algebra import Element, Group
from .dynamics import measure_element, partial_trace, relate_purifications
from .oracle import Distribution, group_from_distribution


def trace_distance(p: Distribution, q: Distribution) -> Fraction:
    """Half the L1 distance between two ontic distributions."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    # shared zero entries are identical objects; skip them cheaply, and
    # sum the rest as integers over one common denominator, which is far
    # cheaper than Fraction arithmetic per entry
    diffs = [(a, b) for a, b in zip(p.probs, q.probs) if a is not b]
    den = lcm(*{x.denominator for pair in diffs for x in pair})
    total = sum(abs(a.numerator * (den // a.denominator)
                    - b.numerator * (den // b.denominator))
                for a, b in diffs)
    return Fraction(total, 2 * den)


# --------------------------------------------------------------------------
# distance-saturating purifications
# --------------------------------------------------------------------------

def correlated_pair_group(a_sites: list[int], b_sites: list[int], n: int) -> Group:
    """Maximally correlated state: an X/Z-locked pair per (a_i, b_i)."""
    if len(a_sites) != len(b_sites):
        raise ValueError("blocks must have equal size")
    gens = []
    for s, t in zip(a_sites, b_sites):
        gens.append(Element.single(n, s, "X") * Element.single(n, t, "X"))
        gens.append(Element.single(n, s, "Z") * Element.single(n, t, "Z"))
    return Group(n, gens)


def saturating_purification_groups(sigma_b: Group, a_sites: list[int],
                                   b_sites: list[int], n: int) -> tuple[Group, Group]:
    """Purifications (psi, phi) of the flat state and of ``sigma_b``.

    psi is the maximally correlated grid between the two blocks; phi is
    obtained by measuring each generator of sigma_b (placed on the B
    block) on psi with outcome 0 forced.  Every nonzero row of phi's grid
    keeps its diagonal cell, which makes the pair saturate the
    reduced-state distance exactly.

    Site i of ``sigma_b`` is ``b_sites[i]``, in whatever order the block
    lists its sites.
    """
    psi = correlated_pair_group(a_sites, b_sites, n)
    phi = psi
    for g in sigma_b.canonical:
        _, phi, _ = measure_element(phi, g.embed(n, b_sites), force=0)
    # both marginals list the B sites in ascending order
    assert partial_trace(phi, b_sites) == partial_trace(
        sigma_b.embed(n, b_sites), b_sites)
    return psi, phi


def saturating_purifications(sigma: Distribution) -> dict:
    """Appendix-style purification pair for a reduced state ``sigma``.

    Returns the two purifications (A block first, B block second) and
    their distance, which equals the distance between the flat state and
    ``sigma`` exactly.
    """
    sigma_group = group_from_distribution(sigma)  # raises when not a state
    nb = sigma.n
    n = 2 * nb
    a_sites = list(range(nb))
    b_sites = list(range(nb, n))
    psi, phi = saturating_purification_groups(sigma_group, a_sites, b_sites, n)
    dpsi = Distribution.from_group(psi)
    dphi = Distribution.from_group(phi)
    flat = Distribution.from_group(Group.trivial(nb))
    d = trace_distance(dpsi, dphi)
    assert d == trace_distance(flat, sigma)
    return {"psi": psi, "phi": phi, "psi_dist": dpsi, "phi_dist": dphi,
            "distance": d}


# --------------------------------------------------------------------------
# bit commitment cheats
# --------------------------------------------------------------------------

def bc_cheat_perfect(s0: Group, s1: Group, a_sites: Iterable[int]) -> dict:
    """Perfectly concealing commitment: the sender flips the bit at will.

    ``s0`` and ``s1`` are the joint commitment states for bit 0 and 1;
    concealment means their marginals outside ``a_sites`` agree, which
    makes an A-local flip permutation exist.  Returns the flip and the
    verifier's acceptance probability for the flipped state (exactly 1).
    """
    a_sites = sorted(a_sites)
    flip = relate_purifications(s0, s1, a_sites)
    cheated = flip.conjugate(s1)
    accept = Distribution.from_group(cheated).projector_probability(s0)
    return {"flip": flip, "acceptance_probability": accept}


def bc_cheat_imperfect(s0: Group, s1: Group, a_sites: Iterable[int]) -> dict:
    """Near-perfect concealment: cheat within exactly the reduced distance.

    Requires bit 0's marginal on the B block to be the flat state.  The
    cheat conjugates through the saturating purification pair, producing
    a state within distance epsilon = D(rho0_B, rho1_B) of the honest
    bit-1 commitment — strictly better than the naive sqrt(2*epsilon).
    """
    a_sites = sorted(a_sites)
    n = s0.n
    b_sites = [s for s in range(n) if s not in a_sites]
    if len(a_sites) != len(b_sites):
        raise ValueError("blocks must have equal size for the grid cheat")
    rho0_b = partial_trace(s0, b_sites)
    rho1_b = partial_trace(s1, b_sites)
    if rho0_b.rank != 0:
        raise ValueError("bit 0's marginal must be the flat state")
    eps = trace_distance(Distribution.from_group(rho0_b),
                         Distribution.from_group(rho1_b))
    psi, phi = saturating_purification_groups(rho1_b, a_sites, b_sites, n)
    u = relate_purifications(psi, s0, a_sites)
    v = relate_purifications(phi, s1, a_sites)
    sigma1 = v.inverse().conjugate(psi)
    cheat_distance = trace_distance(Distribution.from_group(sigma1),
                                    Distribution.from_group(s1))
    assert cheat_distance == eps
    naive = (2 * float(eps)) ** 0.5
    return {
        "epsilon": eps,
        "cheat_distance": cheat_distance,
        "beats_naive_bound": float(cheat_distance) < naive or eps == 0,
        "naive_bound": naive,
        "unveil_state": sigma1,
        "u": u,
        "v": v,
    }


# --------------------------------------------------------------------------
# no-deletion witness
# --------------------------------------------------------------------------

def no_deletion_witness(stabilizers: Group, logical_z: Element,
                        logical_x: Element, a_sites: Iterable[int]) -> dict:
    """Logical flips local to one block of a shared logical encoding.

    Builds the four basis encodings from ``stabilizers`` extended by
    +/- the logical elements and relates them by block-local
    permutations; also checks that the other block's marginals carry no
    information about the logical content.
    """
    a_sites = sorted(a_sites)
    n = stabilizers.n
    b_sites = [s for s in range(n) if s not in a_sites]
    states = {}
    for name, e in (("z0", logical_z), ("z1", logical_z.negated()),
                    ("x0", logical_x), ("x1", logical_x.negated())):
        states[name] = stabilizers.extended(e).require_valid()
    x_flip = relate_purifications(states["z1"], states["z0"], a_sites)
    z_flip = relate_purifications(states["x1"], states["x0"], a_sites)
    margs = [Distribution.from_group(partial_trace(states[k], b_sites))
             for k in ("z0", "z1", "x0", "x1")]
    b_blind = all(m == margs[0] for m in margs[1:])
    return {"x_flip": x_flip, "z_flip": z_flip,
            "b_independent": b_blind}
