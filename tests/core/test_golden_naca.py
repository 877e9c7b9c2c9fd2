"""Golden regression: the NACA 0012 quickstart mesh vs the stored output.

``examples/output/naca0012.npz`` is the quickstart mesh checked in as a
golden artefact.  Re-meshing the same configuration must stay within a
few percent of it on the macro statistics — a drift gate for kernel,
refinement, or decoupling changes that accidentally alter the mesh (the
kernel itself is allowed to change insertion internals, so counts are
compared within tolerance, not bit-for-bit).
"""

from pathlib import Path

import numpy as np
import pytest

from repro import BoundaryLayerConfig, MeshConfig, PSLG, generate_mesh, naca0012
from repro.io.meshio import read_mesh_npz
from repro.runtime import serde

GOLDEN = Path(__file__).resolve().parents[2] / "examples/output/naca0012.npz"

#: ``serde.canonical_hash(serde.pack_mesh(mesh))`` of the quickstart mesh
#: (raw array bytes, not canonical form), pinned from commit ff76c1b.
QUICKSTART_HASH = (
    "748ad3f7136abbe8235f6ed58ac2951cdb039647993988afe88f21118b37cb38")


@pytest.fixture(scope="module")
def golden_mesh():
    return read_mesh_npz(GOLDEN)


def _quickstart():
    # Mirrors examples/quickstart.py exactly.
    pslg = PSLG.from_loops([naca0012(n_points=101)], names=["naca0012"])
    config = MeshConfig(
        bl=BoundaryLayerConfig(first_spacing=1e-3, growth_ratio=1.3,
                               max_layers=40),
        farfield_chords=40.0,
        target_subdomains=16,
    )
    return generate_mesh(pslg, config).mesh


@pytest.fixture(scope="module")
def quickstart_mesh():
    return _quickstart()


class TestGoldenNaca0012:
    def test_counts_within_tolerance(self, golden_mesh, quickstart_mesh):
        assert quickstart_mesh.n_points == pytest.approx(
            golden_mesh.n_points, rel=0.05)
        assert quickstart_mesh.n_triangles == pytest.approx(
            golden_mesh.n_triangles, rel=0.05)

    def test_min_angle_within_tolerance(self, golden_mesh, quickstart_mesh):
        got = float(np.degrees(quickstart_mesh.min_angle()))
        want = float(np.degrees(golden_mesh.min_angle()))
        # The minimum angle is set by the BL slivers at the trailing-edge
        # cusp, which the BL generator controls deterministically.
        assert got == pytest.approx(want, rel=0.02)

    def test_structure_matches_golden(self, golden_mesh, quickstart_mesh):
        assert quickstart_mesh.is_conforming()
        # Total mesh area (the farfield box minus the airfoil) must agree
        # tightly — it is fixed by the geometry, not the triangulation.
        got = float(np.abs(quickstart_mesh.areas()).sum())
        want = float(np.abs(golden_mesh.areas()).sum())
        assert got == pytest.approx(want, rel=1e-6)


class TestPureFunctionOfRequest:
    """The mesh depends on ``(PSLG, MeshConfig)`` only: environment
    variables that once picked an insertion strategy, the fork-per-call
    dispatcher or the barriered pipeline are inert."""

    def test_leftover_env_cannot_change_mesh(self, monkeypatch,
                                             quickstart_mesh):
        monkeypatch.setenv("REPRO_INSERT", "batch")
        monkeypatch.setenv("REPRO_POOL", "0")
        monkeypatch.setenv("REPRO_STREAM", "0")
        mesh = _quickstart()
        assert mesh.points.tobytes() == quickstart_mesh.points.tobytes()
        assert mesh.triangles.tobytes() == quickstart_mesh.triangles.tobytes()
        assert mesh.segments.tobytes() == quickstart_mesh.segments.tobytes()
        assert serde.canonical_hash(serde.pack_mesh(mesh)) == QUICKSTART_HASH
