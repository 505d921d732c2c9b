"""Constructible persistence modules and interleavings.

A module is stored discretely: strictly increasing rational critical
values s_1 < ... < s_n, one object per segment (the object before s_1 is
always the monoidal identity), and one connecting morphism per critical
value.  The morphism F(p <= q) is `composite_mor` between the segments
of p and q, so the within-segment isomorphism requirement holds by
construction.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from .categories import (
    Category,
    Mor,
    compose,
    identity_mor,
    identity_obj,
    image_iso_class,
    is_isomorphism,
)
from .matrix import Value


class ModuleError(ValueError):
    pass


class InterleavingGridError(ValueError):
    pass


class ConstructibleModule(Value):
    cat: Category
    values: tuple  # s_1 < ... < s_n, exact rationals
    objects: tuple  # O_0 ... O_n with O_0 the identity object
    morphisms: tuple  # m_i : O_{i-1} -> O_i for i = 1 .. n

    def __post_init__(self):
        n = len(self.values)
        if len(self.objects) != n + 1 or len(self.morphisms) != n:
            raise ModuleError("expected n values, n+1 objects, n morphisms")
        if any(not isinstance(v, Fraction) for v in self.values):
            raise ModuleError("critical values must be exact rationals")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ModuleError("critical values must be strictly increasing")
        if self.objects[0] != identity_obj(self.cat):
            raise ModuleError("the object before the first critical value must be the identity")
        for i, m in enumerate(self.morphisms, start=1):
            if m.src != self.objects[i - 1] or m.tgt != self.objects[i]:
                raise ModuleError(f"connecting morphism {i} does not match its segment objects")

    @property
    def n(self) -> int:
        return len(self.values)

    def segment(self, r) -> int:
        """Index i with r in [s_i, s_{i+1}); 0 before s_1."""
        return bisect_right(self.values, r)


def composite_mor(F: ConstructibleModule, a: int, b: int) -> Mor:
    """Composite of connecting morphisms from segment a to segment b."""
    if not 0 <= a <= b <= F.n:
        raise ModuleError(f"bad segment pair ({a}, {b})")
    m = identity_mor(F.objects[a]) if a == b else F.morphisms[a]
    for i in range(a + 1, b):
        m = compose(F.morphisms[i], m)
    return m


# ---------------------------------------------------------------------------
# The image-class map on grid intervals
# ---------------------------------------------------------------------------

def essential_restriction(F: ConstructibleModule) -> tuple[ConstructibleModule, tuple]:
    """F restricted to the critical values where it changes.

    Values whose connecting morphism is an isomorphism are dropped; the
    connecting morphisms of the restriction E are the composites of F
    between consecutive kept segments.  Returns (E, pos) with pos[a] the
    index in F's grid of E's row or column a: pos[0] = 0, and the
    unbounded column maps to the unbounded column F.n + 1.
    """
    keep = [i for i in range(1, F.n + 1) if not is_isomorphism(F.morphisms[i - 1])]
    at = [0] + keep
    E = ConstructibleModule(F.cat, tuple(F.values[i - 1] for i in keep),
                            tuple(F.objects[i] for i in at),
                            tuple(composite_mor(F, a, b) for a, b in zip(at, at[1:])))
    return E, tuple(at) + (F.n + 1,)


def dX_A(F: ConstructibleModule):
    """The image-class function X_A of F: one split-group class per grid cell.

    The cell [s_i, s_j), with j = n + 1 meaning infinity, is the image
    of F(s_i) -> F(s_j - 0); 'just before s_j' is realized as segment
    j - 1 (segment n for the unbounded column), which eliminates the
    small offset in the interval casework.  Each row composes its
    connecting morphisms incrementally.  This is the only image-class
    pass: type B data is its image under the quotient map.
    """
    from .diagram import DiagramGrid

    cells = {}
    n = F.n
    for i in range(1, n + 1):
        comp = identity_mor(F.objects[i])
        at = i
        for j in range(i + 1, n + 2):
            b = j - 1
            while at < b:
                comp = compose(F.morphisms[at], comp)
                at += 1
            cells[(i, j)] = image_iso_class(comp)
    return DiagramGrid.make("A", F.cat, F.values, cells, role="constructible")


# ---------------------------------------------------------------------------
# Interleavings
# ---------------------------------------------------------------------------

class InterleavingPair(Value):
    """Candidate eps-interleaving between F and G.

    phi holds one morphism F(r) -> G(r + eps) per segment of its grid
    (the merged breakpoints S_F | (S_G - eps)), with one extra entry in
    front for the segment before the first breakpoint; psi likewise on
    S_G | (S_F - eps).
    """

    eps: Fraction
    phi_grid: tuple
    phi: tuple  # len(phi_grid) + 1 morphisms
    psi_grid: tuple
    psi: tuple


def expected_phi_grid(F, G, eps) -> tuple:
    return tuple(sorted(set(F.values) | {v - eps for v in G.values}))


def segment_reps(grid: tuple) -> tuple:
    """One parameter in each segment of a breakpoint grid: one below the
    first breakpoint, then the breakpoints themselves.  An empty grid has
    the single segment of all reals."""
    return (grid[0] - 1,) + grid if grid else (Fraction(0),)


def _segments(grid: tuple, xs) -> list:
    """bisect_right(grid, x) for each x of the nondecreasing xs, by one merge walk."""
    out, i, n = [], 0, len(grid)
    for x in xs:
        while i < n and grid[i] <= x:
            i += 1
        out.append(i)
    return out


def _one_direction(A, B, there, back, a0, a2, b1, t0, k1) -> bool:
    """Naturality of there: A(r) -> B(r + eps) and the identity
    back(r + eps) . there(r) = A(r <= r + 2 eps), at every rep r.

    Per rep, a0 and a2 are the segments of A at r and r + 2 eps, b1 that
    of B at r + eps, t0 the entry of there at r and k1 that of back at
    r + eps.  Each list steps by at most one between consecutive reps.
    A(a0 -> a2) is one running composite, extended as a2 advances and
    rebuilt by composite_mor, with no identity factor, when a0 does.
    """
    run, ra, rc, last = None, -1, -1, None
    for k in range(len(t0)):
        if k:
            left = there[t0[k]] if a0[k] == a0[k - 1] else \
                compose(there[t0[k]], A.morphisms[a0[k - 1]])
            right = there[t0[k - 1]] if b1[k] == b1[k - 1] else \
                compose(B.morphisms[b1[k - 1]], there[t0[k - 1]])
            # an entry built directly as Mor may hold a payload that compose
            # would reduce (an ab payload off its canonical residues)
            if left != right and compose(left, identity_mor(left.src)) != \
                    compose(right, identity_mor(right.src)):
                return False
        key = (t0[k], k1[k], a0[k], a2[k])
        if key == last:  # every index is nondecreasing, so only a repeat of the last can recur
            continue
        last = key
        if a0[k] != ra:
            run, ra, rc = composite_mor(A, a0[k], a2[k]), a0[k], a2[k]
        while rc < a2[k]:
            run = compose(A.morphisms[rc], run)
            rc += 1
        if compose(back[k1[k]], there[t0[k]]) != run:
            return False
    return True


def check_interleaving(F: ConstructibleModule, G: ConstructibleModule,
                       pair: InterleavingPair) -> bool:
    """Verify naturality of both families and the two composite identities.

    Raises InterleavingGridError when the pair is not presented on the
    expected merged grids or its morphisms do not match the evaluations
    of F and G; returns False when the interleaving identities fail.

    One integer event sweep: the values of F and G and eps are scaled
    once by their common denominator D.  Each rep r (one per segment of
    the grid of all s, s - eps and s - 2 eps for s critical in F or G),
    r + eps and r + 2 eps are mapped once, by merge walks over ints, to
    segment indices of F, G and both pair grids, and every check reads
    only those indices.  Fractions are built only for the expected pair
    grids and for error messages.
    """
    eps = pair.eps
    if eps < 0:
        raise InterleavingGridError("negative interleaving parameter")
    D = lcm(*(v.denominator for v in F.values + G.values + (eps,)))
    fv, gv, (e,) = ([v.numerator * (D // v.denominator) for v in xs]
                    for xs in (F.values, G.values, (eps,)))
    phi_grid, psi_grid = sorted({*fv, *(v - e for v in gv)}), sorted({*gv, *(v - e for v in fv)})
    if pair.phi_grid != tuple(Fraction(v, D) for v in phi_grid):
        raise InterleavingGridError("phi is not given on the merged grid of F and shifted G")
    if pair.psi_grid != tuple(Fraction(v, D) for v in psi_grid):
        raise InterleavingGridError("psi is not given on the merged grid of G and shifted F")
    if len(pair.phi) != len(pair.phi_grid) + 1 or len(pair.psi) != len(pair.psi_grid) + 1:
        raise InterleavingGridError("one morphism per segment is required")

    points = sorted({p for s in fv + gv for p in (s, s - e, s - 2 * e)})
    reps = [points[0] - D] + points if points else [0]
    up1 = [r + e for r in reps]
    up2 = [r + e for r in up1]
    f0, f1, f2 = (_segments(fv, xs) for xs in (reps, up1, up2))
    g0, g1, g2 = (_segments(gv, xs) for xs in (reps, up1, up2))
    p0, p1 = (_segments(phi_grid, xs) for xs in (reps, up1))
    q0, q1 = (_segments(psi_grid, xs) for xs in (reps, up1))

    for k in range(len(reps)):
        phi, psi = pair.phi[p0[k]], pair.psi[q0[k]]
        if phi.src != F.objects[f0[k]] or phi.tgt != G.objects[g1[k]]:
            r = Fraction(reps[k], D)
            raise InterleavingGridError(f"phi at {r} does not map F({r}) to G({r} + eps)")
        if psi.src != G.objects[g0[k]] or psi.tgt != F.objects[f1[k]]:
            r = Fraction(reps[k], D)
            raise InterleavingGridError(f"psi at {r} does not map G({r}) to F({r} + eps)")

    return _one_direction(F, G, pair.phi, pair.psi, f0, f2, g1, p0, q1) and \
        _one_direction(G, F, pair.psi, pair.phi, g0, g2, f1, q0, p1)
