"""Result-file writers: legacy VTK structured points, CSV tables, restarts.

Field export samples the multi-patch solution on a regular grid over the
model bounding box by inverting the geometry map per grid point (nearest
seed from a per-patch parametric cloud, then Newton); points outside the
domain are written as NaN.
"""

from __future__ import annotations

import csv
import os

import numpy as np
from scipy.spatial import cKDTree

from igatop.assembly import Discretization, kappa_at
from igatop.errors import ConfigError
from igatop.levelset import DesignField, SmoothingParams
from igatop.splines import tabulate


def locate_points(model, targets: np.ndarray):
    """Find (patch, u, v) for physical points; NaN parameters when outside.

    Returns (patch_idx (n,), params (n,2)); patch_idx is -1 outside.
    """
    tol = 1e-9 * model.diameter()
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
    _, nearest = tree.query(targets, k=3)
    nearest = np.atleast_2d(nearest)

    n = targets.shape[0]
    out_pid = np.full(n, -1, dtype=int)
    out_uv = np.full((n, 2), np.nan)
    for cand in range(nearest.shape[1]):
        todo = out_pid < 0
        if not np.any(todo):
            break
        idx = np.where(todo)[0]
        cand_seed = nearest[idx, cand]
        for pid in np.unique(seed_pid[cand_seed]):
            sel = idx[seed_pid[cand_seed] == pid]
            if sel.size == 0:
                continue
            uv = seeds_uv[nearest[sel, cand]].copy()
            tgt = targets[sel]
            patch = model.patches[pid]
            for _ in range(30):
                tab = tabulate(patch, uv, check_jacobian=False)
                r = tab.phys - tgt
                det = tab.det_j
                du = -(tab.jac[:, 1, 1] * r[:, 0] - tab.jac[:, 0, 1] * r[:, 1]) / det
                dv = -(-tab.jac[:, 1, 0] * r[:, 0] + tab.jac[:, 0, 0] * r[:, 1]) / det
                step = np.column_stack([du, dv])
                uv = np.clip(uv + np.clip(step, -0.25, 0.25), 0.0, 1.0)
            tab = tabulate(patch, uv, check_jacobian=False)
            ok = np.linalg.norm(tab.phys - tgt, axis=1) <= tol * 10
            out_pid[sel[ok]] = pid
            out_uv[sel[ok]] = uv[ok]
    return out_pid, out_uv


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
    basis = disc.basis
    for p in np.unique(pid[pid >= 0]):
        sel = np.where(pid == p)[0]
        patch = model.patches[int(p)]
        tab = tabulate(patch, uv[sel], check_jacobian=False)
        label = model.labels[int(p)]
        kappa = np.full(sel.size, model.kappa_regions.get(label, np.nan))
        if label == "design":
            k = basis.patch_ids.index(int(p))
            dtab = tabulate(basis.patches[k], uv[sel], check_jacobian=False)
            c_loc = field.coeffs[basis.patch_slice(k)][dtab.indices]
            phi = np.einsum("nl,nl->n", dtab.values, c_loc)
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
            # VTK structured points run x fastest
            vals = arr.T.reshape(-1)
            for chunk in np.array_split(vals, max(1, vals.size // 8)):
                f.write(" ".join(f"{v:.9g}" for v in chunk) + "\n")


def write_grid_csv(path: str, xs, ys, data: dict):
    names = list(data)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y"] + names)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                w.writerow([f"{x:.9g}", f"{y:.9g}"] + [f"{data[c][i, j]:.9g}" for c in names])


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
    path = os.environ.get("IGATOP_OUTDIR", path)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.dir: cannot create {path}: {exc.strerror}") from exc
    return path
