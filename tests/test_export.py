"""Field export: point location on the shipped meshes, and the bytes the
grid writers produce."""

import functools
import os

import numpy as np
import pytest

from igatop import export
from igatop.config import RunConfig, build_pipeline
from igatop.export import locate_points, write_grid_csv, write_vtk_structured
from igatop.splines import tabulate

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
DATA = os.path.join(HERE, "data")


@functools.cache
def shipped_model(name):
    cfg = RunConfig.load(os.path.join(CONFIGS, f"{name}.yaml"))
    return build_pipeline(cfg, with_objective=False).disc.model


def export_grid(model, n_grid=201):
    """The targets `sample_fields` locates: a regular grid over the control net's box."""
    pts = np.concatenate([p.control_points.reshape(-1, 2) for p in model.patches])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], n_grid), np.linspace(lo[1], hi[1], n_grid),
                       indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def past_the_plate(model):
    """Two points 0.5 beyond the right and the bottom edge of the control net's box."""
    pts = np.concatenate([p.control_points.reshape(-1, 2) for p in model.patches])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return np.array([[hi[0] + 0.5, 0.0], [0.0, lo[1] - 0.5]])


def search_everywhere(model, targets):
    """The seeded Newton search run on every target, with no cover before it."""
    return export._search(model, targets, 1e-9 * model.diameter())


def count_tabulated(monkeypatch):
    """Wrap export's `tabulate`; the returned list holds [calls, points]."""
    counts = [0, 0]

    def counted(patch, pts, *args, **kwargs):
        counts[0] += 1
        counts[1] += np.atleast_2d(pts).shape[0]
        return tabulate(patch, pts, *args, **kwargs)

    monkeypatch.setattr(export, "tabulate", counted)
    return counts


def assert_maps_back(model, targets, pid, uv):
    tol = 1e-9 * model.diameter()
    for p in np.unique(pid[pid >= 0]):
        sel = pid == p
        phys = tabulate(model.patches[p], uv[sel], check_jacobian=False).phys
        assert np.linalg.norm(phys - targets[sel], axis=1).max() <= 10 * tol


class TestLocateAnnulus:
    # the single annulus patch closes on itself: v = 0 and v = 1 meet on
    # the ray at -45 degrees
    SEAM = np.array([np.cos(-np.pi / 4), np.sin(-np.pi / 4)])
    # just across the seam from its nearest seed; only a later seed finds it
    ACROSS_SEAM = np.array([1.32, -1.30])

    @pytest.fixture(scope="class")
    def located(self):
        model = shipped_model("annulus")
        s = np.linspace(0.4, 2.1, 61)
        box = np.column_stack([np.repeat(s, s.size), -np.tile(s, s.size)])
        on_seam = np.outer([0.999, 1.0, 1.2, 1.5, 1.8527, 2.0, 2.001], self.SEAM)
        targets = np.vstack([box, on_seam, self.ACROSS_SEAM, self.ACROSS_SEAM[::-1]])
        pid, uv = locate_points(model, targets)
        return model, targets, pid, uv

    def test_located_exactly_inside(self, located):
        _, targets, pid, _ = located
        r = np.hypot(targets[:, 0], targets[:, 1])
        clear = (np.abs(r - 1.0) > 1e-9) & (np.abs(r - 2.0) > 1e-9)
        np.testing.assert_array_equal((pid >= 0)[clear], ((r >= 1.0) & (r <= 2.0))[clear])

    def test_located_points_map_back(self, located):
        assert_maps_back(*located)

    def test_point_across_the_seam(self, located):
        _, targets, pid, uv = located
        i = np.flatnonzero(np.all(targets == self.ACROSS_SEAM, axis=1))[0]
        assert pid[i] == 0
        assert 0.0 < uv[i, 1] < 0.01


def test_cloak_grid_points_each_in_one_patch():
    # the cloak's patches cover the whole plate, so every point of the
    # exported grid lies in a patch, corners where four patches meet too
    model = shipped_model("cloak")
    targets = np.vstack([export_grid(model), past_the_plate(model)])
    pid, uv = locate_points(model, targets)
    assert np.all((pid[:-2] >= 0) & (pid[:-2] < len(model.patches)))
    assert np.all(pid[-2:] == -1) and np.all(np.isnan(uv[-2:]))
    assert_maps_back(model, targets, pid, uv)


class TestCover:
    """`locate_points` drops the targets in no element's padded control box
    before the Newton search; what it returns must not change."""

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_export_grid_bit_identical_to_search_everywhere(self, name):
        model = shipped_model(name)
        targets = export_grid(model)
        pid, uv = locate_points(model, targets)
        ref_pid, ref_uv = search_everywhere(model, targets)
        np.testing.assert_array_equal(pid, ref_pid)
        assert uv.tobytes() == ref_uv.tobytes()
        # conservative: the search locates none of the targets dropped
        dropped = np.setdiff1d(np.arange(targets.shape[0]),
                               export._covered(model, targets, 1e-8 * model.diameter()))
        assert np.all(ref_pid[dropped] == -1)

    def test_empty_targets(self, monkeypatch):
        counts = count_tabulated(monkeypatch)
        pid, uv = locate_points(shipped_model("annulus"), np.empty((0, 2)))
        assert pid.shape == (0,) and uv.shape == (0, 2)
        assert counts[0] == 0

    def test_targets_all_outside_take_no_tabulation(self, monkeypatch):
        model = shipped_model("cloak")
        counts = count_tabulated(monkeypatch)
        pid, uv = locate_points(model, past_the_plate(model))
        assert np.all(pid == -1) and np.all(np.isnan(uv))
        assert counts[0] == 0

    def test_annulus_edge_targets_keep_their_result(self):
        # 5e-9 diameters past r = 2 and short of r = 1, under the 1e-8 a
        # located image may miss its target by; the axis directions put
        # them outside the unpadded boxes of the elements there
        model = shipped_model("annulus")
        eps = 5e-9 * model.diameter()
        angles = np.deg2rad([-45.0, 0.0, 30.0, 90.0, 180.0, 270.0])
        ray = np.column_stack([np.cos(angles), np.sin(angles)])
        seam = TestLocateAnnulus.SEAM
        targets = np.vstack([(2.0 + eps) * ray, (1.0 - eps) * ray,
                             np.outer([1.0, 1.0 + 1e-12, 1.5, 2.0 - 1e-12, 2.0], seam)])
        pid, uv = locate_points(model, targets)
        ref_pid, ref_uv = search_everywhere(model, targets)
        np.testing.assert_array_equal(pid, ref_pid)
        assert uv.tobytes() == ref_uv.tobytes()
        assert np.all(pid == 0)

    def test_annulus_export_grid_tabulation_count(self, monkeypatch):
        # the seeded search alone tabulates 813,724 points here: the 16,809
        # grid points outside the ring each run Newton from three seeds or more
        model = shipped_model("annulus")
        targets = export_grid(model)
        counts = count_tabulated(monkeypatch)
        locate_points(model, targets)
        assert counts[1] <= 200_000


def small_grid():
    """5 x 7 points (35, not a multiple of 8) with NaN, -0, inf, negative
    and 1e-5 values."""
    xs = np.linspace(-1.5, 2.0, 5)
    ys = np.linspace(0.0, 3.0e-5, 7)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    T = 300.0 + 7.0 * X - 1.0e4 * Y
    T[0, :3] = np.nan
    phi = -X * np.exp(Y) / 3.0
    phi[2, 2] = -0.0
    kappa = np.where(phi > 0, 10.0, 1.0e-5)
    kappa[0, :3] = np.nan
    flux_x = -kappa * 7.0
    flux_y = kappa * 1.0e4 / 3.0
    flux_y[4, 6] = np.inf
    return xs, ys, {"T": T, "phi": phi, "kappa": kappa, "flux_x": flux_x, "flux_y": flux_y}


@pytest.mark.parametrize("writer,ext", [(write_grid_csv, "csv"), (write_vtk_structured, "vtk")])
@pytest.mark.parametrize("shape", ["5x7", "1x3"])
def test_writer_bytes(tmp_path, writer, ext, shape):
    # tests/data holds the bytes of the per-value writers that earlier
    # results were written with: \r\n row ends in the CSV, and VTK lines of
    # 9 values before lines of 8
    xs, ys, data = small_grid()
    if shape == "1x3":
        xs, ys, data = xs[:1], ys[:3], {k: v[:1, :3] for k, v in data.items()}
    out = tmp_path / f"grid.{ext}"
    writer(str(out), xs, ys, data)
    with open(os.path.join(DATA, f"grid_{shape}.{ext}"), "rb") as f:
        assert out.read_bytes() == f.read()
