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


def export_axes(model, n_grid=201):
    """The axes of the grid `sample_fields` locates, over the control net's box."""
    pts = np.concatenate([p.control_points.reshape(-1, 2) for p in model.patches])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return np.linspace(lo[0], hi[0], n_grid), np.linspace(lo[1], hi[1], n_grid)


def grid_points(xs, ys):
    """The grid's points in `locate_points`' order: point i ys.size + j is (xs[i], ys[j])."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def past_the_plate(model):
    """Two points 0.5 beyond the right and the bottom edge of the control net's box."""
    pts = np.concatenate([p.control_points.reshape(-1, 2) for p in model.patches])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return np.array([[hi[0] + 0.5, 0.0], [0.0, lo[1] - 0.5]])


def off_the_boundary(model, name):
    """Points 5e-9, 1.5e-8 and 1e-6 diameters off the domain: past r = 2
    and short of r = 1 on the annulus, past the edges and corners of the
    plates.  The first lie within the 1e-8 diameters a located image may
    miss its target by, so Newton locates them on the boundary; the rest
    are beyond it."""
    off = model.diameter() * np.array([5e-9, 1.5e-8, 1e-6])
    if name == "annulus":
        angles = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        ray = np.column_stack([np.cos(angles), np.sin(angles)])
        return np.vstack([np.outer(r, u) for r in np.concatenate([2.0 + off, 1.0 - off])
                          for u in ray])
    pts = np.concatenate([p.control_points.reshape(-1, 2) for p in model.patches])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    s = np.linspace(0.0, 1.0, 7)
    edge = np.vstack([np.column_stack([lo[0] + s * (hi[0] - lo[0]), np.full(s.size, y)])
                      for y in (lo[1], hi[1])]
                     + [np.column_stack([np.full(s.size, x), lo[1] + s * (hi[1] - lo[1])])
                        for x in (lo[0], hi[0])])
    mid = 0.5 * (lo + hi)
    out = np.sign(np.round((edge - mid) / (0.5 * (hi - lo)), 12))
    return np.vstack([edge + d * out for d in off])


def newton_from_every_box(model, targets):
    """Whether Newton started at every element of every patch locates each
    target: no cover and no retry rule."""
    boxes = export._control_boxes(model)
    groups, group_of, base = export._groups(model)
    phys, jac = export._at_seeds(boxes, groups, group_of, base)
    located = np.zeros(targets.shape[0], dtype=bool)
    for gi, group in enumerate(groups):
        b = np.flatnonzero(group_of[boxes.patch] == gi)
        for i in range(0, targets.shape[0], 8):
            t = np.repeat(np.arange(i, min(i + 8, targets.shape[0])), b.size)
            bb = np.tile(b, t.size // b.size)
            _, ok = export._invert(group, base[boxes.patch[bb]], boxes.seed[bb], phys[:, bb],
                                   jac[..., bb], targets[t], 1e-9 * model.diameter())
            located[t[ok]] = True
    return located


def padded_pairs(model, targets):
    """Every (target, box) pair with the target in the box padded by 10 tol,
    box by box over the targets sorted by x: any targets, not only a grid."""
    boxes = export._control_boxes(model)
    pad = 1e-8 * model.diameter()
    lo, hi = boxes.lo - pad, boxes.hi + pad
    order = np.argsort(targets[:, 0], kind="stable")
    first = np.searchsorted(targets[order, 0], lo[:, 0], "left")
    last = np.searchsorted(targets[order, 0], hi[:, 0], "right")
    tgt, box = [], []
    for b in range(lo.shape[0]):
        strip = order[first[b]:last[b]]
        y = targets[strip, 1]
        tgt.append(strip[(y >= lo[b, 1]) & (y <= hi[b, 1])])
        box.append(np.full(tgt[-1].size, b))
    return np.concatenate(tgt), np.concatenate(box)


def search_everywhere(model, targets):
    """The Newton search run on every target, from box-by-box pairs: how
    scattered points are located, as `locate_points` takes only a grid."""
    return export._search(model, export._control_boxes(model), targets,
                          *padded_pairs(model, targets), 1e-9 * model.diameter())


def count_steps(monkeypatch):
    """Wrap export's kernel; the returned list holds [calls, point-steps]."""
    counts = [0, 0]
    kernel = export._image_and_jacobian

    def counted(group, local, uv, spans):
        counts[0] += 1
        counts[1] += uv.shape[1]
        return kernel(group, local, uv, spans)

    monkeypatch.setattr(export, "_image_and_jacobian", counted)
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
        pid, uv = search_everywhere(model, targets)
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
    xs, ys = export_axes(model)
    outside = past_the_plate(model)
    targets = np.vstack([grid_points(xs, ys), outside])
    located = [locate_points(model, xs, ys), search_everywhere(model, outside)]
    pid, uv = (np.concatenate(a) for a in zip(*located))
    assert np.all((pid[:-2] >= 0) & (pid[:-2] < len(model.patches)))
    assert np.all(pid[-2:] == -1) and np.all(np.isnan(uv[-2:]))
    assert_maps_back(model, targets, pid, uv)


class TestCover:
    """`locate_points` pairs each grid point with the padded element boxes
    that hold it, by index ranges on the grid's axes, before the Newton
    search; what it returns must not change."""

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_export_grid_bit_identical_to_search_everywhere(self, name):
        model = shipped_model(name)
        xs, ys = export_axes(model)
        targets = grid_points(xs, ys)
        tgt, box = export._covered(export._control_boxes(model), xs, ys,
                                   1e-8 * model.diameter())
        ref_tgt, ref_box = padded_pairs(model, targets)
        # the axis ranges lose no pair and add none
        assert tgt.size == ref_tgt.size
        np.testing.assert_array_equal(np.sort(tgt * box.size + box),
                                      np.sort(ref_tgt * box.size + ref_box))
        # conservative: every grid point of the domain is in some box (the
        # plates fill their box; the annulus is the ring 1 <= r <= 2)
        r = np.hypot(targets[:, 0], targets[:, 1])
        domain = (r >= 1.0) & (r <= 2.0) if name == "annulus" else np.ones(r.size, dtype=bool)
        assert np.isin(np.flatnonzero(domain), tgt).all()
        pid, uv = locate_points(model, xs, ys)
        ref_pid, ref_uv = search_everywhere(model, targets)
        np.testing.assert_array_equal(pid, ref_pid)
        assert uv.tobytes() == ref_uv.tobytes()

    def test_grid_lines_on_padded_box_bounds(self):
        # grid lines at every padded bound of every fortieth cloak box, and
        # halfway between: the ends of each axis range are inclusive
        model = shipped_model("cloak")
        boxes = export._control_boxes(model)
        pad = 1e-8 * model.diameter()
        lo, hi = boxes.lo[::40] - pad, boxes.hi[::40] + pad
        xs, ys = (np.unique(np.concatenate([lo[:, a], hi[:, a], 0.5 * (lo[:, a] + hi[:, a])]))
                  for a in (0, 1))
        targets = grid_points(xs, ys)
        tgt, box = export._covered(boxes, xs, ys, pad)
        ref_tgt, ref_box = padded_pairs(model, targets)
        m = boxes.lo.shape[0]
        np.testing.assert_array_equal(np.sort(tgt * m + box), np.sort(ref_tgt * m + ref_box))
        # points on a box's padded bound, at either end of either axis
        at = [targets[tgt, a] == bound[box, a] for bound in (boxes.lo - pad, boxes.hi + pad)
              for a in (0, 1)]
        assert all(np.count_nonzero(on) >= 100 for on in at)

    @pytest.mark.parametrize("name", ["annulus", "cloak"])
    def test_single_grid_lines(self, name):
        # n_grid = 1 on either axis or both, through the middle of the
        # model, and an empty axis: the box-by-box pairs and search results
        model = shipped_model(name)
        boxes = export._control_boxes(model)
        xs, ys = export_axes(model)
        for gx, gy in [(xs[100:101], ys), (xs, ys[100:101]), (xs[100:101], ys[100:101]),
                       (xs[:0], ys), (xs[:1], ys[:0])]:
            targets = grid_points(gx, gy)
            tgt, box = export._covered(boxes, gx, gy, 1e-8 * model.diameter())
            ref_tgt, ref_box = padded_pairs(model, targets)
            m = boxes.lo.shape[0]
            np.testing.assert_array_equal(np.sort(tgt * m + box), np.sort(ref_tgt * m + ref_box))
            pid, uv = locate_points(model, gx, gy)
            ref_pid, ref_uv = search_everywhere(model, targets)
            np.testing.assert_array_equal(pid, ref_pid)
            assert uv.tobytes() == ref_uv.tobytes()
        assert pid.size == 0

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_dropped_targets_located_from_no_box(self, name):
        # conservative: Newton from every element of every patch locates
        # none of the targets the cover drops, of those off the boundary and
        # of the 16 dropped grid points nearest it (the plates drop none)
        model = shipped_model(name)
        xs, ys = export_axes(model)
        near = off_the_boundary(model, name)
        targets = np.vstack([near, grid_points(xs, ys)])
        # the grid's cover, and the box-by-box pairs of the scattered points
        grid_tgt, _ = export._covered(export._control_boxes(model), xs, ys,
                                      1e-8 * model.diameter())
        tgt = np.concatenate([padded_pairs(model, near)[0], near.shape[0] + grid_tgt])
        dropped = np.setdiff1d(np.arange(targets.shape[0]), tgt)
        r = np.hypot(targets[dropped, 0], targets[dropped, 1])
        gap = np.minimum(np.abs(r - 1.0), np.abs(r - 2.0))
        on_grid = np.flatnonzero(dropped >= near.shape[0])
        check = np.concatenate([dropped[dropped < near.shape[0]],
                                dropped[on_grid[np.argsort(gap[on_grid])[:16]]]])
        assert check.size >= (32 if name == "annulus" else 56)
        assert not newton_from_every_box(model, targets[check]).any()
        # those within 10 tol of the boundary are covered, and located
        inner = np.arange(near.shape[0] // 3) if name != "annulus" else np.concatenate(
            [np.arange(48), 144 + np.arange(48)])
        assert np.isin(inner, tgt).all()
        assert np.all(search_everywhere(model, near[inner])[0] >= 0)

    def test_empty_targets(self, monkeypatch):
        counts = count_steps(monkeypatch)
        axis = np.linspace(-2.0, 2.0, 5)
        for xs, ys in [(np.empty(0), axis), (axis, np.empty(0)), (np.empty(0), np.empty(0))]:
            pid, uv = locate_points(shipped_model("annulus"), xs, ys)
            assert pid.shape == (0,) and uv.shape == (0, 2)
        assert counts[0] == 0

    def test_targets_all_outside_take_no_step(self, monkeypatch):
        # a grid line past the plate's right edge, and the scattered points
        # past it by the search
        model = shipped_model("cloak")
        counts = count_steps(monkeypatch)
        outside = past_the_plate(model)
        for pid, uv in [locate_points(model, outside[:1, 0], np.sort(outside[:, 1])),
                        search_everywhere(model, outside)]:
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
        pid, _ = search_everywhere(model, targets)
        assert np.all(pid == 0)
        # on a grid whose lines cross the axes there, the cover keeps them
        axis = np.array([-2.0 - eps, -1.0 + eps, 0.0, 1.0 - eps, 2.0 + eps])
        pid, uv = locate_points(model, axis, axis)
        ref_pid, ref_uv = search_everywhere(model, grid_points(axis, axis))
        np.testing.assert_array_equal(pid, ref_pid)
        assert uv.tobytes() == ref_uv.tobytes()
        on_axes = [2, 7, 10, 11, 13, 14, 17, 22]
        assert np.all(pid[on_axes] == 0)

    def test_annulus_export_grid_point_steps(self, monkeypatch):
        # the seeded search of parametric seed clouds tabulated 184,770
        # points here; the kernel takes about 83,200 point-steps, 4,096 of
        # them at the element centres, and locating tabulates nothing
        model = shipped_model("annulus")
        xs, ys = export_axes(model)
        steps = count_steps(monkeypatch)
        tabulated = []
        monkeypatch.setattr(export, "tabulate", lambda *a, **k: tabulated.append(a))
        locate_points(model, xs, ys)
        assert steps[1] <= 100_000
        assert not tabulated


class TestKernel:
    """The Newton kernel's image and Jacobian, from gathered local nets,
    against `tabulate` on every patch of the shipped models."""

    @pytest.mark.parametrize("name", ["annulus", "cloak", "camouflage"])
    def test_matches_tabulate(self, name):
        model = shipped_model(name)
        groups, group_of, base = export._groups(model)
        rng = np.random.default_rng(7)
        for pid, patch in enumerate(model.patches):
            group = groups[group_of[pid]]
            # random points, and every distinct knot paired in both orders
            knots = np.union1d(patch.knots_u.values, patch.knots_v.values)
            uv = np.vstack([rng.random((400, 2)), np.column_stack([knots, knots[::-1]]),
                            np.column_stack([knots, knots])])
            spans = export._spans(group, uv.T)
            local = export._gather(group, np.full(uv.shape[0], base[pid]), spans)
            phys, jac = export._image_and_jacobian(group, local, uv.T, spans)
            tab = tabulate(patch, uv, check_jacobian=False)
            scale = np.abs(tab.phys).max()
            assert np.abs(phys.T - tab.phys).max() <= 1e-14 * scale
            # the v-derivatives of the annulus sum terms about 40 times
            # their result; both sides differ from it by about 1e-14 of |J|
            scale = np.abs(tab.jac).max()
            assert np.abs(jac.transpose(2, 0, 1) - tab.jac).max() <= 2e-14 * scale


def test_cloak_shared_edge_points_located_once(monkeypatch):
    # grid points on an edge or corner that patches share lie in each of
    # those patches; the search locates each once, in the patch of the
    # nearest box (by box centre, the lower box on a tie)
    model = shipped_model("cloak")
    xs, ys = export_axes(model)
    targets = grid_points(xs, ys)
    boxes = export._control_boxes(model)
    tgt, box = padded_pairs(model, targets)
    mid = 0.5 * (boxes.lo + boxes.hi)
    # every patch that locates each target, from Newton in each of its boxes
    groups, group_of, base = export._groups(model)
    phys, jac = export._at_seeds(boxes, groups, group_of, base)
    holds = np.zeros((targets.shape[0], len(model.patches)), dtype=bool)
    for pid in range(len(model.patches)):
        sel = np.flatnonzero(boxes.patch[box] == pid)
        b = box[sel]
        _, ok = export._invert(groups[group_of[pid]], np.full(sel.size, base[pid]),
                               boxes.seed[b], phys[:, b], jac[..., b], targets[tgt[sel]],
                               1e-9 * model.diameter())
        holds[tgt[sel[ok]], pid] = True
    shared = np.flatnonzero(holds.sum(axis=1) > 1)
    # the diagonal edges, and the plate's corners where two of them end
    assert shared.size > 200 and {0, 200, 40200, 40400} <= set(shared)

    located = np.zeros(targets.shape[0], dtype=int)
    row = {tuple(xy): i for i, xy in enumerate(targets.tolist())}
    invert = export._invert

    def counted(group, base, uv, phys, jac, tgt_xy, tol):
        out, ok = invert(group, base, uv, phys, jac, tgt_xy, tol)
        for xy in tgt_xy[ok].tolist():
            located[row[tuple(xy)]] += 1
        return out, ok

    monkeypatch.setattr(export, "_invert", counted)
    pid, _ = locate_points(model, xs, ys)
    assert np.all(located == 1)
    dist = np.sum((targets[tgt] - mid[box]) ** 2, axis=1)
    for t in shared:
        mine = tgt == t
        first = np.lexsort((box[mine], dist[mine]))[0]
        assert pid[t] == boxes.patch[box[mine][first]]
        assert holds[t, pid[t]]
    # and alone (a one-point grid), or among other targets in another
    # order, the same
    alone = np.array([locate_points(model, xs[t // ys.size:][:1], ys[t % ys.size:][:1])[0][0]
                      for t in shared[:20]])
    np.testing.assert_array_equal(alone, pid[shared[:20]])
    rev_pid, _ = search_everywhere(model, targets[::-1])
    np.testing.assert_array_equal(rev_pid[::-1], pid)


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


@pytest.mark.parametrize("writer,ext", [(write_grid_csv, "csv"), (write_vtk_structured, "vtk")])
def test_writers_take_formatted_fields(tmp_path, writer, ext):
    # a caller writing both files formats each field once, by format_grid
    xs, ys, data = small_grid()
    writer(str(tmp_path / f"numbers.{ext}"), xs, ys, data)
    writer(str(tmp_path / f"strings.{ext}"), xs, ys, export.format_grid(data))
    with open(os.path.join(DATA, f"grid_5x7.{ext}"), "rb") as f:
        expected = f.read()
    assert (tmp_path / f"numbers.{ext}").read_bytes() == expected
    assert (tmp_path / f"strings.{ext}").read_bytes() == expected


@pytest.mark.parametrize("writer,ext", [(write_grid_csv, "csv"), (write_vtk_structured, "vtk")])
def test_writers_format_object_arrays_of_numbers(tmp_path, writer, ext):
    # only a format_grid result passes through unformatted, whatever the dtype
    xs, ys, data = small_grid()
    writer(str(tmp_path / f"objects.{ext}"), xs, ys, {k: v.astype(object) for k, v in data.items()})
    with open(os.path.join(DATA, f"grid_5x7.{ext}"), "rb") as f:
        assert (tmp_path / f"objects.{ext}").read_bytes() == f.read()
