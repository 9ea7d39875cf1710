"""Result-file writers: legacy VTK structured points, CSV tables, restarts.

Field export samples the multi-patch solution on a regular grid over the
model bounding box by inverting the geometry map per grid point; points
outside the domain are written as NaN.  With positive weights each
element's image lies in the convex hull of its local control net (Piegl &
Tiller, The NURBS Book, 2nd ed., sections 4.2 and 6.1), so a grid point
in no element's control box, padded by the distance a located image may
miss its target by, is outside every patch and is written as NaN without a
Newton step.  A uniform cell grid and a 2D difference array mark the boxes
with no loop over elements.  Each remaining point starts a clipped Newton
iteration from its nearest seed of a per-patch parametric cloud and stops
on its own: once converged, or once held at a parameter bound (the target
lies outside that patch).  A point not located retries from its second and
third nearest seed, and from every seed tied with the third: a target just
across the annulus's seam (where v = 0 meets v = 1) from its nearest seed is
found only from the other side, and the seeds that patches sharing a corner
have in common can fill all three places.
"""

from __future__ import annotations

import csv
import os

import numpy as np
from scipy.spatial import cKDTree

from igatop.assembly import Discretization, kappa_at
from igatop.errors import ConfigError
from igatop.levelset import DesignField, SmoothingParams, phi_on_patch
from igatop.splines import tabulate


def locate_points(model, targets: np.ndarray):
    """Find (patch, u, v) for physical points; NaN parameters when outside.

    A cover first drops every target that lies in no element's control
    box (padded by the 10 tol a located image may miss its target by):
    such a target is outside every patch and takes no Newton step.  The
    rest go through the seeded Newton search, whose result for a target
    depends only on that target.

    Returns (patch_idx (n,), params (n,2)); patch_idx is -1 outside.
    """
    tol = 1e-9 * model.diameter()
    n = targets.shape[0]
    out_pid = np.full(n, -1, dtype=int)
    out_uv = np.full((n, 2), np.nan)
    cand = _covered(model, targets, 10 * tol)
    if cand.size:
        out_pid[cand], out_uv[cand] = _search(model, targets[cand], tol)
    return out_pid, out_uv


def _control_boxes(model):
    """Axis-aligned box (lo, hi) of each element's local control net, every patch.

    With positive weights an element's image lies in the convex hull of
    its (p+1)(q+1) local control points, so in this box.
    """
    lo, hi = [], []
    for patch in model.patches:
        p, q = patch.knots_u.degree, patch.knots_v.degree
        # window k - p of the net holds the control points of span k
        su = np.flatnonzero(np.diff(patch.knots_u.values) > 0) - p
        sv = np.flatnonzero(np.diff(patch.knots_v.values) > 0) - q
        for out, fn in ((lo, np.minimum), (hi, np.maximum)):
            out.append(_windows(patch.control_points, p, q, fn)[np.ix_(su, sv)].reshape(-1, 2))
    return np.concatenate(lo), np.concatenate(hi)


def _windows(net, p, q, fn):
    """fn reduced over every (p+1) x (q+1) window of the net, by shifted slices."""
    nu, nv = net.shape[:2]
    rows = net[: nu - p]
    for r in range(1, p + 1):
        rows = fn(rows, net[r: nu - p + r])
    out = rows[:, : nv - q]
    for s in range(1, q + 1):
        out = fn(out, rows[:, s: nv - q + s])
    return out


def _covered(model, targets, pad):
    """Indices of the targets in some element's control box padded by pad.

    A target outside the boxes' common bounding box is in none.  The rest
    are kept when their cell meets a box, on a uniform grid of cells over
    their range where a 2D difference array marks the boxes.  Cell indices
    grow monotonically with the coordinate, so a target in a box lies in a
    cell the box marks.
    """
    if targets.shape[0] == 0:
        return np.arange(0)
    lo, hi = _control_boxes(model)
    lo, hi = lo - pad, hi + pad
    x, y = targets[:, 0], targets[:, 1]
    t0 = np.maximum(lo.min(axis=0), [x.min(), y.min()])
    t1 = np.minimum(hi.max(axis=0), [x.max(), y.max()])
    inside = np.flatnonzero((x >= t0[0]) & (x <= t1[0]) & (y >= t0[1]) & (y <= t1[1]))
    if inside.size == 0:
        return inside
    meets = np.all((hi >= t0) & (lo <= t1), axis=1)
    lo, hi = lo[meets], hi[meets]
    # as many cells as targets, and no fewer than boxes
    g = int(np.ceil(np.sqrt(max(inside.size, lo.shape[0]))))
    h = np.where(t1 > t0, (t1 - t0) / g, 1.0)

    def cell(pts):
        return np.clip(np.floor((pts - t0) / h), 0, g - 1).astype(int)

    # +1 at a box's first cell and -1 past its last on each axis: the
    # running sums then count the boxes meeting each cell
    (i0, j0), (i1, j1) = cell(lo).T, cell(hi).T + 1
    size = (g + 1) ** 2
    up = np.bincount(np.concatenate([i0 * (g + 1) + j0, i1 * (g + 1) + j1]), minlength=size)
    down = np.bincount(np.concatenate([i0 * (g + 1) + j1, i1 * (g + 1) + j0]), minlength=size)
    marked = (up - down).reshape(g + 1, g + 1).cumsum(axis=0).cumsum(axis=1) > 0
    ci, cj = cell(targets[inside]).T
    return inside[marked[ci, cj]]


def _search(model, targets, tol):
    """Newton from each target's nearest seeds: (patch_idx, params) as in locate_points."""
    grids, owners = [], []
    for pid, patch in enumerate(model.patches):
        s = np.linspace(0.0, 1.0, 24)
        uv = np.column_stack([np.repeat(s, s.size), np.tile(s, s.size)])
        grids.append((uv, tabulate(patch, uv, check_jacobian=False).phys))
        owners.append(np.full(uv.shape[0], pid))
    seeds_uv = np.concatenate([g[0] for g in grids])
    seeds_xy = np.concatenate([g[1] for g in grids])
    seed_pid = np.concatenate(owners)
    tree = cKDTree(seeds_xy)

    n = targets.shape[0]
    out_pid = np.full(n, -1, dtype=int)
    out_uv = np.full((n, 2), np.nan)

    def attempt(idx, seeds):
        """Newton from seed seeds[i] towards target idx[i]; keeps the hits."""
        for pid in np.unique(seed_pid[seeds]):
            mine = seed_pid[seeds] == pid
            sel = idx[mine]
            uv, ok = _invert(model.patches[pid], seeds_uv[seeds[mine]], targets[sel], tol)
            out_pid[sel[ok]] = pid
            out_uv[sel[ok]] = uv[ok]

    _, nearest = tree.query(targets, k=3)
    for cand in range(3):
        idx = np.where(out_pid < 0)[0]
        if idx.size == 0:
            return out_pid, out_uv
        attempt(idx, nearest[idx, cand])
    # patches sharing an edge or corner have coincident seeds there, and
    # the three nearest can leave out the patch holding the point: a point
    # not yet located also tries every other seed as near as its third
    ties = tree.query_ball_point(seeds_xy, tol, return_length=True).max()
    idx = np.where(out_pid < 0)[0]
    if idx.size:
        dist, more = tree.query(targets[idx], k=2 + ties)
        fresh = (dist <= dist[:, 2:3] + tol) & np.all(
            more[:, :, None] != nearest[idx, None, :], axis=2
        )
        for cand in range(more.shape[1]):
            t = fresh[:, cand] & (out_pid[idx] < 0)
            if np.any(t):
                attempt(idx[t], more[t, cand])
    return out_pid, out_uv


def _invert(patch, uv, tgt, tol):
    """Damped Newton for patch(uv) = tgt, clipped to the unit square.

    A point stops once its update moves uv by at most 1e-14, or once the
    step pushes it past a parameter bound while it moves by at most 1e-9
    (the target lies outside the patch); the rest run 30 steps.  Returns
    (uv, located), located where the image is within 10 tol of the target.
    """
    uv = uv.copy()
    active = np.arange(uv.shape[0])
    for _ in range(30):
        tab = tabulate(patch, uv[active], check_jacobian=False)
        r = tab.phys - tgt[active]
        det = tab.det_j
        du = -(tab.jac[:, 1, 1] * r[:, 0] - tab.jac[:, 0, 1] * r[:, 1]) / det
        dv = -(-tab.jac[:, 1, 0] * r[:, 0] + tab.jac[:, 0, 0] * r[:, 1]) / det
        trial = uv[active] + np.clip(np.column_stack([du, dv]), -0.25, 0.25)
        clipped = np.clip(trial, 0.0, 1.0)
        moved = np.abs(clipped - uv[active]).max(axis=1)
        uv[active] = clipped
        past = np.any((trial < 0.0) | (trial > 1.0), axis=1)
        active = active[(moved > 1e-14) & ~(past & (moved <= 1e-9))]
        if active.size == 0:
            break
    tab = tabulate(patch, uv, check_jacobian=False)
    return uv, np.linalg.norm(tab.phys - tgt, axis=1) <= tol * 10


def sample_fields(
    disc: Discretization,
    T: np.ndarray,
    field: DesignField,
    sp_: SmoothingParams,
    n_grid: int = 201,
):
    """Evaluate T, phi, kappa, and flux on a regular bounding-box grid.

    Returns (xs, ys, data) with data arrays shaped (n_grid, n_grid), NaN
    outside the computational domain.
    """
    model = disc.model
    pts = np.concatenate([p.control_points.reshape(-1, 2) for p in model.patches])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n_grid)
    ys = np.linspace(lo[1], hi[1], n_grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    targets = np.column_stack([X.ravel(), Y.ravel()])
    pid, uv = locate_points(model, targets)

    n = targets.shape[0]
    out = {
        name: np.full(n, np.nan)
        for name in ("T", "phi", "kappa", "flux_x", "flux_y")
    }
    for p in np.unique(pid[pid >= 0]):
        sel = np.where(pid == p)[0]
        patch = model.patches[int(p)]
        tab = tabulate(patch, uv[sel], check_jacobian=False)
        label = model.labels[int(p)]
        kappa = np.full(sel.size, model.kappa_regions.get(label, np.nan))
        if label == "design":
            phi = phi_on_patch(field, field.basis.patch_ids.index(int(p)), uv[sel])
            out["phi"][sel] = phi
            kappa = kappa_at(phi, model.design_pair, sp_)
        out["kappa"][sel] = kappa
        t_loc = T[disc.patch_dofs[int(p)][tab.indices]]
        out["T"][sel] = np.einsum("nl,nl->n", tab.values, t_loc)
        tx = np.einsum("nl,nl->n", tab.dx, t_loc)
        ty = np.einsum("nl,nl->n", tab.dy, t_loc)
        out["flux_x"][sel] = -kappa * tx
        out["flux_y"][sel] = -kappa * ty
    data = {k: v.reshape(n_grid, n_grid) for k, v in out.items()}
    return xs, ys, data


def write_vtk_structured(path: str, xs, ys, data: dict):
    """Legacy-VTK structured points with one scalar field per data entry."""
    nx, ny = xs.size, ys.size
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("igatop field export\nASCII\nDATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {nx} {ny} 1\n")
        f.write(f"ORIGIN {xs[0]:.9g} {ys[0]:.9g} 0\n")
        f.write(f"SPACING {dx:.9g} {dy:.9g} 1\n")
        f.write(f"POINT_DATA {nx * ny}\n")
        for name, arr in data.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            # VTK structured points run x fastest; about 8 values a line,
            # the longer lines first
            vals = arr.T.reshape(-1).tolist()
            n_lines = max(1, len(vals) // 8)
            width, n_long = divmod(len(vals), n_lines)
            f.write((_row_format(width + 1, " ", "\n") * n_long
                     + _row_format(width, " ", "\n") * (n_lines - n_long)) % tuple(vals))


def write_grid_csv(path: str, xs, ys, data: dict):
    """One row per grid point, y fastest; rows end in CRLF, as `csv` ends them."""
    names = list(data)
    cols = [np.repeat(xs, ys.size), np.tile(ys, xs.size)]
    cols += [data[c].reshape(-1) for c in names]
    row = _row_format(len(cols), ",", "\r\n")
    with open(path, "w", newline="") as f:
        f.write(",".join(["x", "y"] + names) + "\r\n")
        f.writelines(row % vals for vals in zip(*(c.tolist() for c in cols)))


def _row_format(n: int, sep: str, end: str) -> str:
    """A %-format for one row of n values at 9 significant digits."""
    return sep.join(["%.9g"] * n) + end


def write_table_csv(path: str, header: list[str], rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


def write_coeffs_csv(path: str, coeffs: np.ndarray):
    write_table_csv(path, ["index", "value"], list(enumerate(coeffs)))


def read_coeffs_csv(path: str) -> np.ndarray:
    """Coefficients of a `write_coeffs_csv` file (a restart's
    `initial_field.params.path`)."""
    try:
        with open(path) as f:
            rows = list(csv.reader(f))
    except OSError as exc:
        raise ConfigError(f"cannot read restart file {path}: {exc.strerror}") from exc
    try:
        return np.array([float(r[1]) for r in rows[1:]])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"restart file {path} has a row without a number: {exc}") from exc


def write_convergence_csv(path: str, history):
    rows = [
        (r.iteration, r.fevals, r.j_main, r.j_tknv, r.j_vol, r.j_total,
         r.grad_inf, r.step_norm, r.alpha, r.event)
        for r in history
    ]
    write_table_csv(
        path,
        ["iter", "fevals", "J_main", "J_Tknv", "J_vol", "J_total",
         "grad_inf", "step", "alpha", "event"],
        rows,
    )


def ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot create {path}: {exc.strerror}") from exc
    return path
