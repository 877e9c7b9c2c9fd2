"""Uniform bucket grid for nearest-point and point-location acceleration.

The incremental Delaunay kernel needs a good starting triangle for its
walking point location.  A uniform grid over recently inserted vertices
gives an expected-O(1) "find a vertex near (x, y)" primitive, which keeps
walks short even when insertion order is adversarial.  The grid is also
used by the sizing machinery for distance-to-geometry estimates.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..geometry.aabb import AABB

__all__ = ["BucketGrid"]


class BucketGrid:
    """Uniform grid of buckets over an :class:`AABB`.

    Points are ``(x, y)`` with integer payloads.  Points outside the bounds
    are clamped into the border buckets (the structure is an accelerator,
    never an oracle, so clamping is safe).
    """

    def __init__(self, bounds: AABB, target_per_bucket: float = 4.0,
                 expected_points: int = 64) -> None:
        self.bounds = bounds
        n_buckets = max(1, int(expected_points / max(target_per_bucket, 1e-9)))
        aspect = max(bounds.width, 1e-300) / max(bounds.height, 1e-300)
        self.nx = max(1, int(round(math.sqrt(n_buckets * aspect))))
        self.ny = max(1, int(round(n_buckets / self.nx)))
        self._cells: List[List[Tuple[float, float, int]]] = [
            [] for _ in range(self.nx * self.ny)
        ]
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _cell_index(self, x: float, y: float) -> int:
        w = self.bounds.width or 1.0
        h = self.bounds.height or 1.0
        ix = int((x - self.bounds.xmin) / w * self.nx)
        iy = int((y - self.bounds.ymin) / h * self.ny)
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        return iy * self.nx + ix

    def insert(self, x: float, y: float, payload: int) -> None:
        c = self._cell_index(x, y)
        self._cells[c].append((x, y, payload))
        self._n += 1

    def insert_many(self, pts: np.ndarray, payloads: Optional[Iterable[int]] = None
                    ) -> None:
        """Bulk insert: vectorized binning, then one C-level extend per
        occupied cell (the kernel rebuilds its locator grid from snapshots,
        so build cost matters more than single-point insert cost)."""
        pts = np.asarray(pts, dtype=np.float64)
        if len(pts) == 0:
            return
        w = self.bounds.width or 1.0
        h = self.bounds.height or 1.0
        # Same expression order as _cell_index so bulk and scalar binning
        # agree bit-for-bit.
        ix = ((pts[:, 0] - self.bounds.xmin) / w * self.nx).astype(np.int64)
        iy = ((pts[:, 1] - self.bounds.ymin) / h * self.ny).astype(np.int64)
        np.clip(ix, 0, self.nx - 1, out=ix)
        np.clip(iy, 0, self.ny - 1, out=iy)
        cells = iy * self.nx + ix
        if payloads is None:
            ids = np.arange(len(pts), dtype=np.int64)
        else:
            ids = np.asarray(list(payloads), dtype=np.int64)
        order = np.argsort(cells, kind="stable")
        cells_sorted = cells[order]
        bounds = np.flatnonzero(np.diff(cells_sorted)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(cells_sorted)]))
        xs = pts[order, 0].tolist()
        ys = pts[order, 1].tolist()
        pids = ids[order].tolist()
        cell_lists = self._cells
        for s, e, c in zip(starts.tolist(), ends.tolist(),
                           cells_sorted[starts].tolist()):
            cell_lists[c].extend(zip(xs[s:e], ys[s:e], pids[s:e]))
        self._n += len(pts)

    def nearest(self, x: float, y: float) -> Optional[int]:
        """Payload of an *approximately* nearest stored point, or ``None``.

        Searches the query's bucket ring by ring; the first ring that
        contains any point is scanned exactly, plus one more ring to bound
        the error (a point in the next ring can be closer than a point in
        the first non-empty ring, but not beyond it).
        """
        if self._n == 0:
            return None
        w = self.bounds.width or 1.0
        h = self.bounds.height or 1.0
        ix = min(max(int((x - self.bounds.xmin) / w * self.nx), 0), self.nx - 1)
        iy = min(max(int((y - self.bounds.ymin) / h * self.ny), 0), self.ny - 1)

        best: Optional[int] = None
        best_d2 = math.inf
        max_ring = max(self.nx, self.ny)
        found_ring: Optional[int] = None
        for ring in range(max_ring + 1):
            if found_ring is not None and ring > found_ring + 1:
                break
            hit_any = False
            for cx, cy in self._ring_cells(ix, iy, ring):
                for px, py, pid in self._cells[cy * self.nx + cx]:
                    hit_any = True
                    d2 = (px - x) ** 2 + (py - y) ** 2
                    if d2 < best_d2:
                        best_d2 = d2
                        best = pid
            if hit_any and found_ring is None:
                found_ring = ring
        return best

    def _ring_cells(self, ix: int, iy: int, ring: int):
        if ring == 0:
            yield ix, iy
            return
        x0, x1 = ix - ring, ix + ring
        y0, y1 = iy - ring, iy + ring
        for cx in range(max(x0, 0), min(x1, self.nx - 1) + 1):
            if 0 <= y0 < self.ny:
                yield cx, y0
            if 0 <= y1 < self.ny and y1 != y0:
                yield cx, y1
        for cy in range(max(y0 + 1, 0), min(y1 - 1, self.ny - 1) + 1):
            if 0 <= x0 < self.nx:
                yield x0, cy
            if 0 <= x1 < self.nx and x1 != x0:
                yield x1, cy

    def points_in_box(self, box: AABB) -> List[int]:
        """Payloads of all stored points inside the closed ``box``."""
        w = self.bounds.width or 1.0
        h = self.bounds.height or 1.0
        ix0 = min(max(int((box.xmin - self.bounds.xmin) / w * self.nx), 0),
                  self.nx - 1)
        ix1 = min(max(int((box.xmax - self.bounds.xmin) / w * self.nx), 0),
                  self.nx - 1)
        iy0 = min(max(int((box.ymin - self.bounds.ymin) / h * self.ny), 0),
                  self.ny - 1)
        iy1 = min(max(int((box.ymax - self.bounds.ymin) / h * self.ny), 0),
                  self.ny - 1)
        out: List[int] = []
        for cy in range(iy0, iy1 + 1):
            for cx in range(ix0, ix1 + 1):
                for px, py, pid in self._cells[cy * self.nx + cx]:
                    if box.contains_point((px, py)):
                        out.append(pid)
        return out
