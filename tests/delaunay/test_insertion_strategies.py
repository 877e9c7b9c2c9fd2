"""Bulk insertion through ``cavity.insert_points``: duplicate handling.

Exact coordinate repeats are dropped by the kernel, while
``delaunay_mesh`` keeps the caller's point indexing; triangles must only
ever reference the first occurrence of a repeated coordinate.
"""

import numpy as np

from repro.delaunay.kernel import delaunay_mesh, triangulate


class TestDifferential:
    def test_duplicate_points_map_to_first_occurrence(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(0, 1, size=(300, 2))
        pts = np.vstack([base, base[:50]])
        tri = triangulate(pts)
        # The kernel dedups: one vertex per distinct coordinate.
        assert tri._arr.n_pts == 300
        # delaunay_mesh keeps the caller's indexing but triangles
        # only ever reference the first occurrence of a duplicate.
        mesh = delaunay_mesh(pts)
        assert mesh.n_points == 350
        assert int(mesh.triangles.max()) < 300
