"""Invariant harness for the overhauled Delaunay kernel.

Every optimisation in the fast insertion path (the filter-inlined walk
``locate_fast`` with its strict-containment flag, the filter-inlined
carve ``carve_cavity_fast`` with its cheap incircle certificate and
batched frontier expansion, grid-seeded location) must be
*behaviour-preserving*.  This module checks the mathematical invariants
with exact arithmetic:

* **Global Delaunay property** — no vertex strictly inside any real
  triangle's circumcircle, via the exact ``incircle`` predicate.  Checked
  exhaustively (all vertex/triangle pairs) on small clouds and via the
  Delaunay lemma (every non-constrained internal edge locally Delaunay,
  which implies the global property) on larger ones.
* **Positive orientation** of every real triangle (exact ``orient2d``).
* **Locked-edge preservation** — every constrained segment is an edge of
  the final triangulation.
* **Structural integrity** — the kernel's own adjacency audit.

The same harness runs over uniform-random clouds, degenerate (cocircular
/ collinear-heavy) inputs, and the fuzz PSLG corpus; differential tests
pin the fast path to the scalar reference path triangle-for-triangle,
for bulk ``triangulate`` and per-point ``insert_point`` alike, and check
that the fast walk's answer contains its query point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.delaunay.constrained import insert_segment, triangulate_pslg
from repro.delaunay.kernel import Triangulation, triangulate
from repro.delaunay.refine import Refiner
from repro.geometry.predicates import incircle, orient2d

from .test_fuzz_pslg import star_polygon


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def real_triangles(tri: Triangulation):
    return [t for t in tri.live_triangles() if not tri.is_ghost(t)]


def assert_positive_orientation(tri: Triangulation) -> None:
    point = tri._arr.point
    for t in real_triangles(tri):
        a, b, c = tri._arr.triangle(t)
        assert orient2d(point(a), point(b), point(c)) > 0, (
            f"triangle {t} not positively oriented"
        )


def assert_locally_delaunay(tri: Triangulation) -> None:
    """Every internal non-constrained edge is locally Delaunay (exact).

    By the Delaunay lemma this implies the global (constrained) Delaunay
    property; cocircular configurations (incircle == 0) are legal.
    """
    arr = tri._arr
    point = arr.point
    constraints = tri.constraints
    for t in real_triangles(tri):
        tv = arr.triangle(t)
        for k in range(3):
            nb = arr.tn[3 * t + k]
            if nb < t or tri.is_ghost(nb):
                continue  # each internal edge once; hull edges skipped
            u, v = tv[k - 2], tv[k - 1]
            if ((u, v) if u < v else (v, u)) in constraints:
                continue
            nv = arr.triangle(nb)
            apex = nv[0] + nv[1] + nv[2] - u - v
            assert incircle(point(tv[0]), point(tv[1]), point(tv[2]),
                            point(apex)) <= 0, (
                f"edge ({u},{v}) of triangle {t} not locally Delaunay"
            )


def assert_globally_delaunay(tri: Triangulation) -> None:
    """Exhaustive check: no vertex strictly inside any circumcircle.

    O(n_vertices * n_triangles) exact tests — small inputs only.
    """
    arr = tri._arr
    point = arr.point
    for t in real_triangles(tri):
        a, b, c = arr.triangle(t)
        pa, pb, pc = point(a), point(b), point(c)
        for v in range(arr.n_pts):
            if v == a or v == b or v == c:
                continue
            assert incircle(pa, pb, pc, point(v)) <= 0, (
                f"vertex {v} strictly inside circumcircle of triangle {t}"
            )


def assert_constraints_preserved(tri: Triangulation) -> None:
    for u, v in tri.constraints:
        assert tri.has_edge(u, v), f"locked edge ({u},{v}) missing"


def assert_invariants(tri: Triangulation, *, exhaustive: bool = False
                      ) -> None:
    tri.check_integrity()
    assert_positive_orientation(tri)
    assert_locally_delaunay(tri)
    assert_constraints_preserved(tri)
    if exhaustive:
        assert_globally_delaunay(tri)


def insert_each(points: np.ndarray, *, fast_predicates: bool
                ) -> Triangulation:
    """Per-point ``insert_point`` in input order (no BRIO shuffle), so
    a collinear prefix reaches the bootstrap re-insert path."""
    tri = Triangulation(fast_predicates=fast_predicates)
    for x, y in points.tolist():
        tri.insert_point(x, y)
    return tri


def closed_region_contains(tri: Triangulation, t: int, q) -> bool:
    """Exact test: ``q`` lies in real triangle ``t`` (boundary included)
    or in the closed half-plane of ghost ``t``."""
    point = tri._arr.point
    if tri.is_ghost(t):
        u, v = tri.ghost_edge(t)
        return orient2d(point(u), point(v), q) >= 0
    tv = tri._arr.triangle(t)
    return all(orient2d(point(tv[k - 2]), point(tv[k - 1]), q) >= 0
               for k in range(3))


def lattice(n: int) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(float(n)), np.arange(float(n)))
    return np.column_stack([xs.ravel(), ys.ravel()])


def lattice_with_midpoints(n: int) -> np.ndarray:
    """The lattice plus the midpoint of every axis-aligned lattice edge:
    each midpoint lands exactly on an existing edge."""
    grid = lattice(n)
    horiz = grid[grid[:, 0] < n - 1] + [0.5, 0.0]
    vert = grid[grid[:, 1] < n - 1] + [0.0, 0.5]
    return np.vstack([grid, horiz, vert])


def collinear_prefix_then_cloud() -> np.ndarray:
    line = np.column_stack([np.arange(20.0) / 19.0, np.full(20, 0.5)])
    return np.vstack([line, np.random.default_rng(10).random((200, 2))])


def ring_with_centre(n: int = 40) -> np.ndarray:
    ang = 2 * math.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    return np.vstack([ring, [[0.0, 0.0]]])


#: Differential inputs: uniform clouds (by seed) plus the degenerate
#: configurations that reach the walk's on-edge and the carve's
#: exact-tie and bootstrap paths.
DIFFERENTIAL_INPUTS = {
    "5": lambda: np.random.default_rng(5).random((250, 2)),
    "6": lambda: np.random.default_rng(6).random((250, 2)),
    "7": lambda: np.random.default_rng(7).random((250, 2)),
    "grid": lambda: lattice(12),
    "grid_midpoints": lambda: lattice_with_midpoints(12),
    "collinear_prefix": collinear_prefix_then_cloud,
    "ring_centre": ring_with_centre,
}


def live_rows(tri: Triangulation):
    """Vertex rows of every live slot (ghosts included), in slot order."""
    arr = tri._arr
    return [arr.triangle(t) for t in range(arr.n_tris) if not arr.is_dead(t)]


def canonical_triangles(tri: Triangulation):
    """Rotation-normalised real triangle set, keyed by *coordinates*.

    Kernel vertex ids are an insertion-schedule artifact, so
    cross-kernel comparisons canonicalise through the geometry (unique
    for the duplicate-free clouds used here)."""
    coords = tri._arr.pts
    out = set()
    for t in real_triangles(tri):
        keys = sorted((float(coords[v, 0]), float(coords[v, 1]))
                      for v in tri._arr.triangle(t))
        out.add(tuple(keys))
    return out


# ----------------------------------------------------------------------
# Uniform-random clouds
# ----------------------------------------------------------------------
class TestRandomClouds:
    @pytest.mark.parametrize("n,seed", [(24, 0), (64, 1), (64, 2)])
    def test_small_clouds_exhaustive(self, n, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        assert_invariants(triangulate(pts), exhaustive=True)

    @pytest.mark.parametrize("n,seed", [(300, 3), (900, 4)])
    def test_larger_clouds(self, n, seed):
        pts = np.random.default_rng(seed).random((n, 2))
        assert_invariants(triangulate(pts))

    @pytest.mark.parametrize("case", list(DIFFERENTIAL_INPUTS))
    def test_fast_matches_reference(self, case):
        """Differential: fast-path triangulation == scalar-reference
        triangulation as a set of triangles, both for bulk
        ``triangulate`` (BRIO order) and for per-point ``insert_point``
        in input order."""
        pts = DIFFERENTIAL_INPUTS[case]()
        fast = triangulate(pts, fast_predicates=True)
        ref = triangulate(pts, fast_predicates=False)
        assert canonical_triangles(fast) == canonical_triangles(ref)
        fast = insert_each(pts, fast_predicates=True)
        ref = insert_each(pts, fast_predicates=False)
        assert canonical_triangles(fast) == canonical_triangles(ref)

    @pytest.mark.parametrize("case", ["cloud", "grid"])
    def test_fast_locate_contains_query(self, case):
        """The fast walk behind ``Triangulation.locate`` answers every
        query (vertices, edge midpoints, points off the hull) with a
        triangle or ghost whose closed region contains it, from any
        starting hint."""
        if case == "cloud":
            pts = np.random.default_rng(9).random((200, 2))
        else:
            pts = lattice(9) / 8.0
        tri = triangulate(pts)
        arr = tri._arr
        point = arr.point
        queries = [point(v) for v in range(arr.n_pts)]
        for t in real_triangles(tri):
            tv = arr.triangle(t)
            for k in range(3):
                (ux, uy), (vx, vy) = point(tv[k - 2]), point(tv[k - 1])
                queries.append(((ux + vx) / 2, (uy + vy) / 2))
        queries += [(-1.0, 0.5), (2.0, 0.5), (0.5, -1.0), (0.5, 2.0),
                    (-1.0, -1.0), (3.0, 3.0), (0.5, -1e-12), (1.5, 0.0)]
        hints = [-1] + sorted(tri.live_triangles())
        for i, q in enumerate(queries):
            t = tri.locate(q, hint=hints[i % len(hints)])
            assert closed_region_contains(tri, t, q), (q, t)

    def test_clustered_and_duplicate_points(self):
        rng = np.random.default_rng(8)
        base = rng.random((60, 2))
        pts = np.vstack([base, base[:20] + 1e-13, base[:10]])
        tri = triangulate(pts)
        assert_invariants(tri, exhaustive=True)


# ----------------------------------------------------------------------
# Degenerate inputs: exact-predicate escalation paths
# ----------------------------------------------------------------------
class TestDegenerateInputs:
    def test_cocircular_ring_with_center(self):
        """All ring points cocircular: inserting the centre carves a
        cavity covering the whole disk, exercising the batched cavity
        expansion and the exact incircle ties."""
        n = 40
        ang = 2 * math.pi * np.arange(n) / n
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        pts = np.vstack([ring, [[0.0, 0.0]]])
        tri = Triangulation()
        for x, y in pts[:-1]:
            tri.insert_point(x, y)
        tri.insert_point(0.0, 0.0)
        assert tri.stat_batch_entries > 0, "batched expansion never used"
        assert_invariants(tri, exhaustive=True)

    def test_grid_points(self):
        """Integer lattice: every 2x2 cell is cocircular."""
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        assert_invariants(triangulate(pts), exhaustive=True)

    def test_collinear_prefix_then_cloud(self):
        pts = np.array([[float(i), 0.0] for i in range(12)]
                       + [[0.3, 1.0], [5.5, -2.0], [7.1, 0.7]])
        assert_invariants(triangulate(pts), exhaustive=True)


# ----------------------------------------------------------------------
# Constrained triangulations + refinement (fuzz PSLG corpus)
# ----------------------------------------------------------------------
class TestConstrainedInvariants:
    @given(poly=star_polygon())
    @settings(max_examples=25, deadline=None)
    def test_cdt_invariants(self, poly):
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        tri = triangulate_pslg(poly, segs)
        assert len(tri.constraints) >= n
        assert_invariants(tri)

    @given(poly=star_polygon(min_v=5, max_v=10))
    @settings(max_examples=10, deadline=None)
    def test_refined_cdt_invariants(self, poly):
        n = len(poly)
        segs = np.array([(i, (i + 1) % n) for i in range(n)])
        tri = triangulate_pslg(poly, segs)
        span = float(np.ptp(poly, axis=0).max())
        refiner = Refiner(tri, area_fn=lambda x, y: (span / 6) ** 2,
                          min_edge_floor=span * 1e-3)
        refiner.refine()
        assert_invariants(tri)

    def test_locked_edges_survive_nearby_insertions(self):
        square = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0],
                           [2.0, 1.0], [2.0, 3.0]])
        tri = Triangulation()
        ids = [tri.insert_point(x, y) for x, y in square]
        insert_segment(tri, ids[4], ids[5])
        tri.mark_constraint(ids[4], ids[5])
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(0.05, 3.95, size=(80, 2)):
            # Skip points exactly on the locked segment's line.
            if x == 2.0:
                continue
            tri.insert_point(x, y)
        assert_invariants(tri)


# ----------------------------------------------------------------------
# Determinism (satellite: seeded RNG threading)
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_identical_runs_byte_identical(self):
        pts = np.random.default_rng(13).random((500, 2))
        m1 = triangulate(pts).to_mesh()
        m2 = triangulate(pts).to_mesh()
        assert m1.points.tobytes() == m2.points.tobytes()
        assert m1.triangles.tobytes() == m2.triangles.tobytes()

    def test_seed_controls_insertion_order(self):
        pts = np.random.default_rng(14).random((200, 2))
        a = triangulate(pts, seed=1)
        b = triangulate(pts, seed=1)
        assert live_rows(a) == live_rows(b)

    def test_insert_point_stream_deterministic(self):
        pts = np.random.default_rng(15).random((300, 2)).tolist()

        def build():
            tri = Triangulation(seed=99)
            for x, y in pts:
                tri.insert_point(x, y)
            return tri

        t1, t2 = build(), build()
        a1, a2 = t1._arr, t2._arr
        assert a1.n_pts == a2.n_pts
        assert a1.pts[:a1.n_pts].tobytes() == a2.pts[:a2.n_pts].tobytes()
        assert live_rows(t1) == live_rows(t2)
