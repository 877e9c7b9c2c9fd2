"""Cavity-operation engine for the incremental Delaunay kernel.

This module owns the Bowyer–Watson *cavity operations* — point location
(walking with inlined orientation filters), conflict search (circumdisk
BFS), cavity carving and star-fan retriangulation — as free functions
over a :class:`~repro.delaunay.kernel.Triangulation` and its SoA
:class:`~repro.delaunay.arrays.MeshArrays` storage.  The kernel class
keeps the bookkeeping (slots, adjacency, constraints, stats) and
delegates every insertion-path operation here; :mod:`constrained` and
:mod:`refine` call the shared helpers directly instead of carrying
private copies.

There is one fast and one reference version of each operation.  The
fast walk (:func:`locate_fast`) and the fast carve
(:func:`carve_cavity_fast`, with :func:`expand_level_batch` for wide
frontiers) inline the predicates' filter stages; the reference walk and
carve (:func:`locate_ref`, :func:`carve_cavity_ref`) call the scalar
robust predicates and serve as the oracle for differential tests.
:func:`insert_point_fast` composes the fast walk and carve with the
duplicate check and :func:`retriangulate`; it holds no predicate
arithmetic of its own.

Bulk insertion (:func:`insert_points`) is one path: points go in one
at a time through :func:`insert_point_fast`, so the triangulation is a
pure function of the points and their order.
"""

from __future__ import annotations

import gc
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .arrays import DEAD
from ..geometry.predicates import (
    INCIRCLE_ERR_BOUND,
    INCIRCLE_UNDERFLOW_GUARD,
    ORIENT_ERR_BOUND,
    ORIENT_UNDERFLOW_GUARD,
    batch_exact_counts,
    incircle,
    incircle_batch,
    orient2d,
)

__all__ = [
    "GHOST",
    "TriangulationError",
    "insert_points",
    "brio_order",
    "find_directed_edge",
    "walk_start",
    "locate_fast",
    "locate_ref",
    "locate_fallback",
    "carve_cavity_fast",
    "carve_cavity_ref",
    "expand_level_batch",
    "insert_point_fast",
    "retriangulate",
    "prune_cavity_visibility",
]

#: Symbolic hull vertex: ghost triangle ``[u, v, GHOST]`` is the open
#: half-plane strictly left of the directed hull edge ``u -> v`` plus
#: the open edge itself.
GHOST = -1

# Negative-index translation tables for flat triangle rows: with a list
# ``tv``, ``tv[k - 2] == tv[_NXT[k]]`` and ``tv[k - 1] == tv[_PRV[k]]``.
_NXT = (1, 2, 0)
_PRV = (2, 0, 1)

# Hot-loop local aliases for the filter bounds (module constants resolve
# faster than attribute lookups and keep the loops readable).
_CCW_ERR = ORIENT_ERR_BOUND
_ICC_ERR = INCIRCLE_ERR_BOUND
_CCW_GUARD = ORIENT_UNDERFLOW_GUARD
_ICC_GUARD = INCIRCLE_UNDERFLOW_GUARD

#: Frontier size at which cavity expansion switches from the inlined
#: scalar filter to one vectorised ``incircle_batch`` call per level.
_BATCH_MIN = 12
#: Cheap first-stage incircle certificate: with ``S = alift+blift+clift``
#: the Shewchuk permanent obeys ``permanent <= S*S/3`` (AM-GM on the six
#: products), so ``|det| > _ICC_CHEAP * S * S`` certifies the sign with
#: strictly more slack than the full filter — and needs no abs() chain.
_ICC_CHEAP = INCIRCLE_ERR_BOUND / 3.0
#: ``S*S`` must stay clear of underflow for the cheap bound to be sound.
_ICC_S_GUARD = 1e-125
#: Walk-length EMA above which the vertex grid is built (cold insertion
#: orders; BRIO-local insertion stays well below this).
_GRID_EMA_THRESHOLD = 16.0
#: Once built, the grid seeds walks only while the EMA stays above this
#: (hysteresis: when locality returns, ``_last_tri`` is cheaper).
_GRID_EMA_USE = 6.0
#: Minimum vertex count before a grid is worth building.
_GRID_MIN_POINTS = 128


class TriangulationError(RuntimeError):
    """Raised for structurally invalid kernel operations."""


# ----------------------------------------------------------------------
# Insertion order
# ----------------------------------------------------------------------
def brio_order(points: np.ndarray, seed: int = 0xC0FFEE) -> np.ndarray:
    """Biased randomised insertion order: random rounds of doubling size,
    each round x-sorted — keeps the walk from the previous insert short
    (expected O(1)) while keeping cavity sizes bounded in expectation.
    The shuffle is fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(points))
    chunks = []
    start, size = 0, 8
    while start < len(points):
        block = perm[start:start + size]
        # Snake order within the round: x-buckets, alternating y sweep —
        # consecutive inserts are spatial neighbours, so the walk from the
        # previous insertion is O(1) expected.
        m = len(block)
        nb = max(1, int(math.sqrt(m)))
        xs = points[block, 0]
        ranks = np.argsort(np.argsort(xs, kind="stable"), kind="stable")
        bucket = np.minimum(ranks * nb // max(m, 1), nb - 1)
        ys = points[block, 1]
        y_key = np.where(bucket % 2 == 0, ys, -ys)
        order = np.lexsort((y_key, bucket))
        chunks.append(block[order])
        start += size
        size *= 2
    return np.concatenate(chunks) if chunks else np.arange(0)


# ----------------------------------------------------------------------
# Point location
# ----------------------------------------------------------------------
def walk_start(tri, px: float, py: float, hint: int) -> int:
    """Pick a live, real starting triangle for a walk toward ``(px, py)``."""
    arr = tri._arr
    tvm = arr.tv
    t = (hint if 0 <= hint < arr.n_tris and tvm[3 * hint] != DEAD
         else -1)
    if t < 0:
        if tri._grid is not None and tri._walk_ema > _GRID_EMA_USE:
            t = tri._grid_start(px, py)
        if t < 0:
            t = tri._last_tri
        if t < 0 or tvm[3 * t] == DEAD:
            t = next(iter(tri.live_triangles()))
    if tri.is_ghost(t):
        # step into the real triangle across the hull edge
        u, v = tri.ghost_edge(t)
        k = tri._edge_index(t, u, v)
        nb = arr.tn[3 * t + k]
        t = nb if nb >= 0 else t
    return t


def locate_ref(tri, p: Tuple[float, float], hint: int) -> int:
    """Scalar-predicate walk (the reference / seed hot path)."""
    t = walk_start(tri, p[0], p[1], hint)
    arr = tri._arr
    point = arr.point
    max_steps = 4 * (tri.n_live_triangles + 8)
    steps = 0
    prev = -1
    while steps < max_steps:
        steps += 1
        if tri.is_ghost(t):
            # Walked off the hull; check this ghost's half-plane.
            u, v = tri.ghost_edge(t)
            if orient2d(point(u), point(v), p) >= 0:
                tri._last_tri = t
                tri._note_walk(steps)
                return t
            # p visible from a different hull edge: walk along the hull.
            # Move to the next ghost sharing vertex v or u.
            g = arr.triangle(t).index(GHOST)
            nxt = arr.tn[3 * t + _NXT[g]]  # neighbour across (v, G)
            if nxt == prev:
                nxt = arr.tn[3 * t + _PRV[g]]
            prev, t = t, nxt
            continue
        moved = False
        # Cheap pseudo-random starting edge (an LCG step) breaks the
        # degenerate walk cycles a fixed order could orbit, without the
        # cost of a real shuffle on every step.
        tri._lcg = (tri._lcg * 1103515245 + 12345) & 0x7FFFFFFF
        k0 = tri._lcg % 3
        for dk in range(3):
            k = (k0 + dk) % 3
            u, v = tri._edge(t, k)
            nb = arr.tn[3 * t + k]
            if nb == prev:
                continue
            if orient2d(point(u), point(v), p) < 0:
                prev, t = t, nb
                moved = True
                break
        if not moved:
            tri._last_tri = t
            tri._note_walk(steps)
            return t
    tri._note_walk(steps)
    return locate_fallback(tri, p)


def locate_fast(tri, px: float, py: float, hint: int
                ) -> Tuple[int, bool]:
    """Walk with the orientation filter inlined (exact escalation).

    Returns ``(t, strict)``: ``t`` is a triangle whose closed region
    contains ``(px, py)`` (a ghost whose closed half-plane does when
    the point is outside the hull) and ``strict`` says the point is
    *strictly* inside it, which already implies it lies in ``t``'s
    open circumdisk.
    """
    t = walk_start(tri, px, py, hint)
    arr = tri._arr
    tvm = arr.tv
    tnm = arr.tn
    pxm = arr.px
    max_steps = 4 * (tri.n_live_triangles + 8)
    steps = 0
    prev = -1
    # One pseudo-random starting-edge draw per walk, rotated each step
    # — enough stochasticity to break degenerate walk cycles (and the
    # exhaustive fallback guards the rest), without an LCG step per
    # triangle.
    lcg = (tri._lcg * 1103515245 + 12345) & 0x7FFFFFFF
    tri._lcg = lcg
    k0 = lcg % 3
    n_fast = 0
    n_exact = 0
    result = -1
    strict = False
    while steps < max_steps:
        steps += 1
        i3 = 3 * t
        a0 = tvm[i3]
        a1 = tvm[i3 + 1]
        a2 = tvm[i3 + 2]
        if a0 < 0 or a1 < 0 or a2 < 0:
            # Ghost: accept if p is in its closed half-plane, else
            # continue along the hull.
            g = 0 if a0 < 0 else (1 if a1 < 0 else 2)
            j = 2 * tvm[i3 + _NXT[g]]
            ux = pxm[j]
            uy = pxm[j + 1]
            j = 2 * tvm[i3 + _PRV[g]]
            vx = pxm[j]
            vy = pxm[j + 1]
            detleft = (ux - px) * (vy - py)
            detright = (uy - py) * (vx - px)
            det = detleft - detright
            detsum = abs(detleft) + abs(detright)
            o = 0
            if detsum > _CCW_GUARD:
                errbound = _CCW_ERR * detsum
                if det > errbound:  # lint: disable=R1 -- inlined orient2d filter; shares ORIENT_ERR_BOUND, exact fallback below
                    o = 1
                elif -det > errbound:
                    o = -1
            if o:
                n_fast += 1
            else:
                n_exact += 1
                o = orient2d((ux, uy), (vx, vy), (px, py))
            if o >= 0:
                result = t
                strict = o > 0
                break
            nxt = tnm[i3 + _NXT[g]]  # neighbour across (v, G)
            if nxt == prev:
                nxt = tnm[i3 + _PRV[g]]
            prev = t
            t = nxt
            continue
        k0 += 1
        if k0 > 2:
            k0 = 0
        moved = False
        interior = True
        for dk in (0, 1, 2):
            k = k0 + dk
            if k > 2:
                k -= 3
            nb = tnm[i3 + k]
            if nb == prev:
                # Entered across this edge, so p is strictly on this
                # side of it — no need to re-test.
                continue
            j = 2 * tvm[i3 + _NXT[k]]
            ux = pxm[j]
            uy = pxm[j + 1]
            j = 2 * tvm[i3 + _PRV[k]]
            vx = pxm[j]
            vy = pxm[j + 1]
            detleft = (ux - px) * (vy - py)
            detright = (uy - py) * (vx - px)
            det = detleft - detright
            detsum = abs(detleft) + abs(detright)
            if detsum > _CCW_GUARD:
                errbound = _CCW_ERR * detsum
                if det > errbound:  # lint: disable=R1 -- inlined orient2d filter; shares ORIENT_ERR_BOUND, exact fallback below
                    n_fast += 1
                    continue          # p strictly left: not through here
                if -det > errbound:
                    n_fast += 1
                    prev = t          # certified right of u->v: cross
                    t = nb
                    moved = True
                    break
            n_exact += 1
            o = orient2d((ux, uy), (vx, vy), (px, py))
            if o < 0:
                prev = t
                t = nb
                moved = True
                break
            if o == 0:
                interior = False
        if not moved:
            result = t
            strict = interior
            break
    tri.stat_orient_fast += n_fast
    tri.stat_orient_exact += n_exact
    tri._note_walk(steps)
    if result < 0:
        return locate_fallback(tri, (px, py)), False
    tri._last_tri = result
    return result, strict

def locate_fallback(tri, p: Tuple[float, float]) -> int:
    """Exhaustive exact containment scan (adversarial degeneracies)."""
    tri.stat_brute_locates += 1
    point = tri._arr.point
    for t in tri.live_triangles():
        if tri.is_ghost(t):
            continue
        tv = tri._arr.triangle(t)
        if all(
            orient2d(point(tv[k - 2]), point(tv[k - 1]), p) >= 0
            for k in range(3)
        ):
            tri._last_tri = t
            return t
    for t in tri.live_triangles():
        if tri.is_ghost(t) and tri._in_disk(t, p):
            tri._last_tri = t
            return t
    raise TriangulationError(f"point {p} could not be located")


def find_directed_edge(tri, u: int, v: int) -> Optional[Tuple[int, int]]:
    """Locate ``(triangle, edge-index)`` holding the directed edge
    ``(u, v)``, or ``None`` when the edge is not present.

    Shared by segment recovery (:mod:`repro.delaunay.constrained`) and
    refinement — previously each carried a private copy of this scan.
    """
    row = tri._arr.triangle
    for t in tri.triangles_around_vertex(u):
        tv = row(t)
        for k in range(3):
            if tv[(k + 1) % 3] == u and tv[(k + 2) % 3] == v:
                return t, k
    return None


# ----------------------------------------------------------------------
# Cavity carving
# ----------------------------------------------------------------------
def carve_cavity_ref(tri, p: Tuple[float, float], t0: int
                     ) -> Tuple[Set[int], bool]:
    """Circumdisk BFS with scalar robust predicates (reference)."""
    cavity: Set[int] = {t0}
    stack = [t0]
    blocked = False
    constraints = tri.constraints
    tn = tri._arr.tn
    while stack:
        t = stack.pop()
        for k in range(3):
            nb = tn[3 * t + k]
            if nb < 0 or nb in cavity:
                continue
            u, v = tri._edge(t, k)
            if u != GHOST and v != GHOST:
                key = (u, v) if u < v else (v, u)
                if key in constraints:
                    blocked = True
                    continue
            if tri._in_disk(nb, p):
                cavity.add(nb)
                stack.append(nb)
    return cavity, blocked


def carve_cavity_fast(tri, px: float, py: float, t0: int
                      ) -> Tuple[Set[int], bool]:
    """Level-order circumdisk search with inlined filtered predicates.

    Small frontiers use the scalar filter inline (a cheap certificate
    first, then the full Shewchuk bound); frontiers of
    :data:`_BATCH_MIN` or more candidates go through one vectorised
    :func:`incircle_batch` call (refinement cavities on graded
    meshes).  Membership decisions are identical to the reference:
    the cavity is the constraint-respecting connected component of
    triangles whose open circumdisk contains ``p``, independent of
    traversal order.
    """
    arr = tri._arr
    tvm = arr.tv
    tnm = arr.tn
    pxm = arr.px
    constraints = tri.constraints
    cavity: Set[int] = {t0}
    # seen = cavity plus rejected candidates, so a rejected triangle
    # bordering two cavity triangles is tested once, not twice.
    seen: Set[int] = {t0}
    frontier = [t0]
    blocked = False
    n_fast = 0
    n_exact = 0
    while frontier:
        cand: List[int] = []
        if constraints:
            for t in frontier:
                i3 = 3 * t
                nb = tnm[i3]
                if nb >= 0 and nb not in seen:
                    u = tvm[i3 + 1]
                    v = tvm[i3 + 2]
                    if (u >= 0 and v >= 0
                            and ((u, v) if u < v else (v, u)) in constraints):
                        blocked = True
                    else:
                        cand.append(nb)
                nb = tnm[i3 + 1]
                if nb >= 0 and nb not in seen:
                    u = tvm[i3 + 2]
                    v = tvm[i3]
                    if (u >= 0 and v >= 0
                            and ((u, v) if u < v else (v, u)) in constraints):
                        blocked = True
                    else:
                        cand.append(nb)
                nb = tnm[i3 + 2]
                if nb >= 0 and nb not in seen:
                    u = tvm[i3]
                    v = tvm[i3 + 1]
                    if (u >= 0 and v >= 0
                            and ((u, v) if u < v else (v, u)) in constraints):
                        blocked = True
                    else:
                        cand.append(nb)
        else:
            for t in frontier:
                i3 = 3 * t
                nb = tnm[i3]
                if nb >= 0 and nb not in seen:
                    cand.append(nb)
                nb = tnm[i3 + 1]
                if nb >= 0 and nb not in seen:
                    cand.append(nb)
                nb = tnm[i3 + 2]
                if nb >= 0 and nb not in seen:
                    cand.append(nb)
        if not cand:
            break
        if len(cand) >= _BATCH_MIN:
            frontier = expand_level_batch(tri, cand, cavity, px, py)
            seen.update(cand)
            continue
        frontier = []
        for nb in cand:
            if nb in seen:
                continue  # reached via a sibling this level
            seen.add(nb)
            j3 = 3 * nb
            a = tvm[j3]
            b = tvm[j3 + 1]
            c = tvm[j3 + 2]
            if a < 0 or b < 0 or c < 0:
                if tri._in_disk_fast(nb, px, py):
                    cavity.add(nb)
                    frontier.append(nb)
                continue
            j = 2 * a
            pax = pxm[j]
            pay = pxm[j + 1]
            j = 2 * b
            pbx = pxm[j]
            pby = pxm[j + 1]
            j = 2 * c
            pcx = pxm[j]
            pcy = pxm[j + 1]
            adx = pax - px
            ady = pay - py
            bdx = pbx - px
            bdy = pby - py
            cdx = pcx - px
            cdy = pcy - py
            bdxcdy = bdx * cdy
            cdxbdy = cdx * bdy
            cdxady = cdx * ady
            adxcdy = adx * cdy
            adxbdy = adx * bdy
            bdxady = bdx * ady
            alift = adx * adx + ady * ady
            blift = bdx * bdx + bdy * bdy
            clift = cdx * cdx + cdy * cdy
            det = (alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy)
                   + clift * (adxbdy - bdxady))
            s = alift + blift + clift
            if s > _ICC_S_GUARD:
                cheap = _ICC_CHEAP * s * s
                if det > cheap:
                    n_fast += 1
                    cavity.add(nb)
                    frontier.append(nb)
                    continue
                if -det > cheap:
                    n_fast += 1
                    continue
            # Cheap certificate inconclusive: full Shewchuk filter.
            permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                         + (abs(cdxady) + abs(adxcdy)) * blift
                         + (abs(adxbdy) + abs(bdxady)) * clift)
            if permanent > _ICC_GUARD:
                errbound = _ICC_ERR * permanent
                if det > errbound:
                    n_fast += 1
                    cavity.add(nb)
                    frontier.append(nb)
                    continue
                if -det > errbound:
                    n_fast += 1
                    continue
            n_exact += 1
            if incircle((pax, pay), (pbx, pby), (pcx, pcy),
                        (px, py)) > 0:
                cavity.add(nb)
                frontier.append(nb)
    tri.stat_incircle_fast += n_fast
    tri.stat_incircle_exact += n_exact
    return cavity, blocked

def expand_level_batch(tri, cand: List[int], cavity: Set[int],
                       px: float, py: float) -> List[int]:
    """Batched in-disk test of one BFS level; returns accepted tris.

    Vectorised over the SoA buffers: one fancy-indexed gather pulls
    the candidate vertex rows and their coordinates straight out of
    ``MeshArrays`` (no per-triangle Python coordinate staging), then
    a single :func:`incircle_batch` call decides the level.  Ghost
    candidates keep the scalar half-plane test.
    """
    arr = tri._arr
    idx = np.asarray(cand, dtype=np.int64)
    rows = arr.tri_v[idx]                       # (m, 3) gather
    ghost = rows.min(axis=1) < 0
    nxt: List[int] = []
    if ghost.any():
        for nb in idx[ghost].tolist():
            if nb not in cavity and tri._in_disk_fast(nb, px, py):
                cavity.add(nb)
                nxt.append(nb)
    real = ~ghost
    m = int(real.sum())
    if m:
        reals = idx[real].tolist()
        abc = arr.pts[rows[real]]               # (m, 3, 2) gather
        before = batch_exact_counts()["incircle"]
        signs = incircle_batch(abc[:, 0], abc[:, 1], abc[:, 2],
                               np.array((px, py)))
        n_exact = batch_exact_counts()["incircle"] - before
        tri.stat_batch_calls += 1
        tri.stat_batch_entries += m
        tri.stat_incircle_exact += n_exact
        tri.stat_incircle_fast += m - n_exact
        for nb, s in zip(reals, signs.tolist()):
            if s > 0 and nb not in cavity:
                cavity.add(nb)
                nxt.append(nb)
    return nxt


# ----------------------------------------------------------------------
# Fast insertion (walk + duplicate check + carve + retriangulate)
# ----------------------------------------------------------------------
def insert_point_fast(tri, px: float, py: float, hint: int) -> int:
    """Fast-path insertion: :func:`locate_fast`, the duplicate check,
    then ``Triangulation._insert_into_cavity`` (boundary fix-up,
    :func:`carve_cavity_fast` and :func:`retriangulate`).

    Decision-for-decision equivalent to the reference path — certified
    filter signs are exact signs, and inconclusive ones escalate to the
    exact predicates.  Returns the new vertex id, or ``-2 - v`` when
    the point duplicates existing vertex ``v``.
    """
    t0, strict = locate_fast(tri, px, py, hint)
    dup = tri.find_vertex_at((px, py), t0)
    if dup is not None:
        tri.last_created = []
        tri.last_removed = []
        return -2 - dup
    vid = tri._arr.new_point(px, py)
    tri.stat_inserts += 1
    # A strictly contained point is already in t0's open circumdisk,
    # so the boundary fix-up is skipped.
    tri._insert_into_cavity(vid, t0, strict)
    return vid

# ----------------------------------------------------------------------
# Retriangulation
# ----------------------------------------------------------------------
def retriangulate(tri, vid: int, cavity: Set[int], t0: int,
                  blocked: bool) -> None:
    """Replace ``cavity`` by the star fan of ``vid`` (shared tail of
    the fast and reference insertion paths)."""
    arr = tri._arr
    n_cavity = len(cavity)
    # Reserve-before-alias: a connected cavity of n triangles has at
    # most n + 2 boundary edges (Euler), so at most n + 2 fan slots
    # are appended; reserving them up front keeps the flat views
    # below valid for the whole frame.
    arr.reserve_triangles(n_cavity + 2)
    tvm = arr.tv
    tnm = arr.tn
    vtm = arr.vt
    tri.stat_cavity_tris += n_cavity
    tri.stat_cavity_hist[n_cavity if n_cavity < 31 else 31] += 1

    # Constrained-Delaunay visibility pruning: with spiky constrained
    # boundaries the circumdisk BFS can wrap AROUND a constrained edge
    # (reaching both of its sides without ever crossing it).  Keeping
    # such triangles would delete the constraint during
    # retriangulation.  Detect the configuration and prune cavity
    # triangles whose centroid is not visible from p.
    if tri.constraints:
        p = arr.point(vid)
        wrapped_edge = False
        for t in cavity:
            i3 = 3 * t
            for k in range(3):
                nb = tnm[i3 + k]
                if nb not in cavity:
                    continue
                u = tvm[i3 + _NXT[k]]
                v = tvm[i3 + _PRV[k]]
                if u == GHOST or v == GHOST:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in tri.constraints:
                    wrapped_edge = True
                    break
            if wrapped_edge:
                break
        if wrapped_edge:
            cavity = prune_cavity_visibility(tri, cavity, t0, p)
            blocked = True
            n_cavity = len(cavity)

    # Walk the cavity boundary in ring order, creating the fan as we
    # go: fan triangle [u, v, vid] has edge 0 = (v, vid) bordering
    # the NEXT fan triangle and edge 1 = (vid, u) bordering the
    # PREVIOUS one, so creating in ring order links the fan without
    # any vertex maps or second pass.  New slots come from the free
    # list (cavity slots are freed only afterwards, so ids never
    # collide with live ones).
    free = arr.free
    n_tris_local = arr.n_tris
    new_tris: List[int] = []
    # Any cavity edge whose neighbour survives starts the ring.
    t = k = -1
    for t in cavity:
        i3 = 3 * t
        if tnm[i3] not in cavity:
            k = 0
            break
        if tnm[i3 + 1] not in cavity:
            k = 1
            break
        if tnm[i3 + 2] not in cavity:
            k = 2
            break
    if k < 0:
        raise TriangulationError("cavity has no boundary")
    start_t = t
    start_k = k
    first_nt = -1
    prev_nt = -1
    while True:
        i3 = 3 * t
        u = tvm[i3 + _NXT[k]]
        v = tvm[i3 + _PRV[k]]
        nb = tnm[i3 + k]
        if free:
            nt = free.pop()
        else:
            nt = n_tris_local
            n_tris_local += 1
        j3 = 3 * nt
        tvm[j3] = u
        tvm[j3 + 1] = v
        tvm[j3 + 2] = vid
        tnm[j3] = -1
        tnm[j3 + 1] = prev_nt
        tnm[j3 + 2] = nb
        if nb >= 0:
            # Directed edge (v, u) of nb: v appears exactly once there.
            m3 = 3 * nb
            tnm[m3 + (0 if tvm[m3 + 1] == v
                      else (1 if tvm[m3 + 2] == v else 2))] = nt
        if u >= 0:
            vtm[u] = nt
        if prev_nt >= 0:
            tnm[3 * prev_nt] = nt
        else:
            first_nt = nt
        prev_nt = nt
        new_tris.append(nt)
        # Advance to the boundary edge starting at v: pivot around v
        # through cavity triangles until an edge leaves the cavity.
        j = k + 1
        if j > 2:
            j = 0
        while True:
            nb2 = tnm[3 * t + j]
            if nb2 not in cavity:
                break
            t = nb2
            m3 = 3 * t
            # Edge (v, .) of t, i.e. the index j with tv[j - 2] == v.
            j = (0 if tvm[m3] == v else (1 if tvm[m3 + 1] == v else 2)) - 1
            if j < 0:
                j = 2
        k = j
        if t == start_t and k == start_k:
            break
    arr.n_tris = n_tris_local
    tnm[3 * prev_nt] = first_nt
    tnm[3 * first_nt + 1] = prev_nt

    tri.last_removed = list(cavity)
    for t in cavity:
        tvm[3 * t] = DEAD
    free.extend(cavity)
    tri.n_live_triangles += len(new_tris) - n_cavity
    tri._last_tri = first_nt
    tri.last_created = new_tris
    # Pick a real incident triangle as the vertex hint when available.
    vtm[vid] = new_tris[0]
    for t in new_tris:
        i3 = 3 * t
        if tvm[i3] >= 0 and tvm[i3 + 1] >= 0 and tvm[i3 + 2] >= 0:
            vtm[vid] = t
            break
    if blocked:
        # A constraint clipped the cavity: the star fan is not
        # automatically locally Delaunay, so legalise around the new
        # vertex (Lawson flips, never crossing constraints).  Flips
        # reuse the two triangle slots, so last_created stays valid.
        tri._legalize_vertex(vid)


def prune_cavity_visibility(tri, cavity: Set[int], t0: int,
                            p: Tuple[float, float]) -> Set[int]:
    """Drop cavity triangles whose centroid p cannot see.

    Visibility is tested against the constrained edges incident to
    cavity triangles (a blocking constraint must appear there); the
    surviving set is re-restricted to the connected component of
    ``t0`` so the retriangulated fan stays star-shaped about ``p``.
    """
    from ..geometry.primitives import segments_intersect

    arr = tri._arr
    point = arr.point
    constr: Set[Tuple[int, int]] = set()
    for t in cavity:
        tv = arr.triangle(t)
        for k in range(3):
            u, v = tv[k - 2], tv[k - 1]
            if u == GHOST or v == GHOST:
                continue
            key = (u, v) if u < v else (v, u)
            if key in tri.constraints:
                constr.add(key)
    if not constr:
        return cavity

    def visible(t: int) -> bool:
        tv = arr.triangle(t)
        if GHOST in tv:
            reals = [point(w) for w in tv if w != GHOST]
            cx = sum(q[0] for q in reals) / len(reals)
            cy = sum(q[1] for q in reals) / len(reals)
        else:
            cx = sum(point(w)[0] for w in tv) / 3.0
            cy = sum(point(w)[1] for w in tv) / 3.0
        for (u, v) in constr:
            if segments_intersect(p, (cx, cy), point(u),
                                  point(v), proper_only=True):
                return False
        return True

    kept = {t for t in cavity if t == t0 or visible(t)}
    # Connected component of t0 within the kept set, still never
    # crossing constrained edges.
    comp = {t0}
    stack = [t0]
    while stack:
        t = stack.pop()
        for k in range(3):
            nb = arr.tn[3 * t + k]
            if nb not in kept or nb in comp:
                continue
            u, v = tri._edge(t, k)
            if u != GHOST and v != GHOST:
                key = (u, v) if u < v else (v, u)
                if key in tri.constraints:
                    continue
            comp.add(nb)
            stack.append(nb)
    return comp


# ----------------------------------------------------------------------
# Bulk insertion
# ----------------------------------------------------------------------
def insert_points(tri, points: np.ndarray,
                  order: Sequence[int]) -> Dict[int, int]:
    """Insert ``points`` one at a time in ``order`` through the fast
    path; returns the ``input index -> kernel vertex id`` map
    (duplicate inputs map to the existing vertex).

    Per-point wrapper insertions run until the first real triangle
    exists, then :func:`insert_point_fast` takes over (or the
    wrapper throughout for ``fast_predicates=False`` kernels).
    """
    coords = (points.tolist() if isinstance(points, np.ndarray)
              else [list(q) for q in points])
    inserted: Dict[int, int] = {}
    insert = tri.insert_point
    fast = tri._fast
    # The bulk loop allocates ~a dozen small objects per insertion and
    # keeps them all reachable; generational GC scans buy nothing here,
    # so pause collection for the loop.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        it = iter(order)
        for i in it:
            i = int(i)
            x, y = coords[i]
            inserted[i] = insert(x, y)
            if fast and tri.n_live_triangles:
                break
        if fast:
            for i in it:
                i = int(i)
                x, y = coords[i]
                # Bulk path: coordinates validated by the caller, so skip
                # the per-point wrapper (duplicates map to the existing
                # vertex).
                r = insert_point_fast(tri, x, y, -1)
                inserted[i] = r if r >= 0 else -2 - r
        else:
            for i in it:
                i = int(i)
                x, y = coords[i]
                inserted[i] = insert(x, y)
    finally:
        if gc_was_enabled:
            gc.enable()
    return inserted
