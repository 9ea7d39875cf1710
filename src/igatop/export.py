"""Result-file writers: legacy VTK structured points, CSV tables, restarts.

Field export samples the multi-patch solution on a regular grid over the
model bounding box by inverting the geometry map per grid point; points
outside the domain are written as NaN.  With positive weights each
element's image lies in the convex hull of its local control net (Piegl &
Tiller, The NURBS Book, 2nd ed., sections 4.2 and 6.1), so a grid point
in no element's control box, padded by the distance a located image may
miss its target by, is outside every patch and is written as NaN without a
Newton step.  The grid points in a padded box are one index range on each
of the grid's two axes, so the cover pairs each box with its points by one
sorted search per axis.

Each covered point runs a clipped Newton iteration started at the centre
of the element of its nearest box (by box centre).  The first step reads
the image and Jacobian at that centre, computed once per element.  After
it the point gathers its local homogeneous control net (x w, y w, w) once,
and again only when its knot span changes; every later step evaluates the
image and Jacobian from that net and the 1D basis functions.  A point
stops on its own: once converged, or once held at a parameter bound (the
target lies outside that patch).  A point not located retries from its
next box, skipping the boxes of the same patch whose elements touch one
already tried: what is left are the boxes across the annulus's seam (where
v = 0 meets v = 1) and those of patches sharing an edge or a corner.

The grid writers take each field's values, or the `FormattedGrid` of
their strings from `format_grid`, which formats every value once with one
%-format per field.  `write_vtk_structured` returns the grid it formatted,
so a caller writing both files hands it to `write_grid_csv` and formats
each field once.
"""

from __future__ import annotations

import csv
import os
from typing import NamedTuple

import numpy as np

from igatop.assembly import Discretization, kappa_at
from igatop.errors import ConfigError
from igatop.levelset import DesignField, SmoothingParams, phi_on_patch
from igatop.splines import KnotVector, basis_and_ders, find_span_array, tabulate


def locate_points(model, xs, ys):
    """Find (patch, u, v) for the points of a regular grid; NaN parameters
    when outside.

    Target i ys.size + j is (xs[i], ys[j]); both axes ascend.  The cover
    pairs each target with the element control boxes (padded by the 10 tol
    a located image may miss its target by) that hold it; a target in none
    is outside every patch and takes no Newton step.  The search then
    starts Newton from those elements, and its result for a target depends
    only on that target.

    Returns (patch_idx (n,), params (n,2)); patch_idx is -1 outside.
    """
    tol = 1e-9 * model.diameter()
    boxes = _control_boxes(model)
    tgt, box = _covered(boxes, xs, ys, 10 * tol)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return _search(model, boxes, np.column_stack([X.ravel(), Y.ravel()]), tgt, box, tol)


class _Boxes(NamedTuple):
    """Every element's control box, all patches in order, with where it lies."""

    lo: np.ndarray  # (m, 2)
    hi: np.ndarray  # (m, 2)
    patch: np.ndarray  # (m,) patch index
    span: np.ndarray  # (m, 2) the element's (row, column) among its patch's elements
    seed: np.ndarray  # (m, 2) the element's parametric centre


def _control_boxes(model) -> _Boxes:
    """Axis-aligned box (lo, hi) of each element's local control net, every patch.

    With positive weights an element's image lies in the convex hull of
    its (p+1)(q+1) local control points, so in this box.
    """
    parts = []
    for pid, patch in enumerate(model.patches):
        p, q = patch.knots_u.degree, patch.knots_v.degree
        U, V = patch.knots_u.values, patch.knots_v.values
        # window k - p of the net holds the control points of span k
        ku, kv = np.flatnonzero(np.diff(U) > 0), np.flatnonzero(np.diff(V) > 0)
        lo, hi = (_windows(patch.control_points, p, q, fn)[np.ix_(ku - p, kv - q)].reshape(-1, 2)
                  for fn in (np.minimum, np.maximum))
        iu, iv = np.meshgrid(np.arange(ku.size), np.arange(kv.size), indexing="ij")
        mid = np.meshgrid(0.5 * (U[ku] + U[ku + 1]), 0.5 * (V[kv] + V[kv + 1]), indexing="ij")
        parts.append((lo, hi, np.full(lo.shape[0], pid),
                      np.column_stack([iu.ravel(), iv.ravel()]),
                      np.column_stack([m.ravel() for m in mid])))
    return _Boxes(*(np.concatenate(a) for a in zip(*parts)))


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


def _covered(boxes: _Boxes, xs, ys, pad):
    """Every (target, box) pair with grid point (xs[i], ys[j]), target
    i ys.size + j, in the box padded by pad; both axes ascend.

    The grid points in a padded box are one index range on each axis, both
    ends inclusive, found by a sorted search.  Returns (target indices, box
    indices), box after box, each box's targets in grid order.
    """
    lo, hi = boxes.lo - pad, boxes.hi + pad
    i0, i1 = np.searchsorted(xs, lo[:, 0], "left"), np.searchsorted(xs, hi[:, 0], "right")
    j0, j1 = np.searchsorted(ys, lo[:, 1], "left"), np.searchsorted(ys, hi[:, 1], "right")
    # each box's grid rows, then each row's run of targets
    b = np.repeat(np.arange(lo.shape[0]), i1 - i0)
    rows, count = i0[b] + _positions(i1 - i0), (j1 - j0)[b]
    return np.repeat(rows * ys.size + j0[b], count) + _positions(count), np.repeat(b, count)


def _positions(counts):
    """0, 1, ..., counts[i] - 1 for every i, end to end."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if counts.size else 0) - np.repeat(ends - counts, counts)


def _search(model, boxes: _Boxes, targets, tgt, box, tol):
    """Newton from the elements of each target's boxes, one at a time,
    until one locates it: (patch_idx, params) as in locate_points.

    A target tries its boxes by the distance of their centres, the lower
    box first on a tie, so a point on an edge that patches share is located
    in the patch of its nearest box.  Once an attempt fails, the target
    drops the boxes of that patch whose elements touch the one tried, since
    Newton from there ends where it did.  What is left for a retry are the
    boxes across the annulus's seam, where v = 0 meets v = 1, and those of
    other patches at a shared edge or corner.
    """
    n = targets.shape[0]
    out_pid = np.full(n, -1, dtype=int)
    out_uv = np.full((n, 2), np.nan)
    if tgt.size == 0:
        return out_pid, out_uv
    groups, group_of, base = _groups(model)
    phys, jac = _at_seeds(boxes, groups, group_of, base)
    (x, y), (mx, my) = np.ascontiguousarray(targets.T), 0.5 * (boxes.lo + boxes.hi).T
    dist = (x[tgt] - mx[box]) ** 2 + (y[tgt] - my[box]) ** 2
    while tgt.size:
        pick = _first(n, tgt, dist, box)
        t, b = tgt[pick], box[pick]
        pid = boxes.patch[b]
        for gi in np.unique(group_of[pid]):
            mine = np.flatnonzero(group_of[pid] == gi)
            tm, bm = t[mine], b[mine]
            uv, ok = _invert(groups[gi], base[pid[mine]], boxes.seed[bm],
                             np.take(phys, bm, axis=-1), np.take(jac, bm, axis=-1),
                             targets[tm], tol)
            out_pid[tm[ok]] = pid[mine][ok]
            out_uv[tm[ok]] = uv[ok]
        tried = np.full(n, -1)
        tried[t] = b
        keep = np.flatnonzero(out_pid[tgt] < 0)
        tgt, box, dist = tgt[keep], box[keep], dist[keep]
        e = tried[tgt]
        far = ((boxes.patch[box] != boxes.patch[e])
               | np.any(np.abs(boxes.span[box] - boxes.span[e]) > 1, axis=1))
        tgt, box, dist = tgt[far], box[far], dist[far]
    return out_pid, out_uv


def _first(n, tgt, dist, box):
    """The pair each of the n targets tries first: least dist, then least box."""
    best = np.full(n, np.inf)
    np.minimum.at(best, tgt, dist)
    sel = np.flatnonzero(dist == best[tgt])
    low = np.full(n, box.max())
    np.minimum.at(low, tgt[sel], box[sel])
    return sel[box[sel] == low[tgt[sel]]]


class _Group(NamedTuple):
    """Patches with the same knot vectors.  net holds every (p+1) x (q+1)
    window of their homogeneous nets (x w, y w, w), (3, p+1, q+1, windows):
    window k (+ a patch's base) holds the local net of the span whose first
    function is k = (span_u - p) (nv - q) + span_v - q."""

    knots_u: KnotVector
    knots_v: KnotVector
    net: np.ndarray


def _groups(model):
    """The patches grouped by knot vectors: the groups, and for each patch
    its group and the window where its windows start."""
    keys, parts, group_of, base = {}, [], [], []
    for patch in model.patches:
        ku, kv = patch.knots_u, patch.knots_v
        gi = keys.setdefault((ku.degree, ku.values.tobytes(), kv.degree, kv.values.tobytes()),
                             len(keys))
        if gi == len(parts):
            parts.append((ku, kv, []))
        w = patch.weights[..., None]
        net = np.concatenate([patch.control_points * w, w], axis=-1)
        windows = np.lib.stride_tricks.sliding_window_view(net, (ku.degree + 1, kv.degree + 1),
                                                           axis=(0, 1))
        group_of.append(gi)
        base.append(sum(a.shape[-1] for a in parts[gi][2]))
        parts[gi][2].append(windows.transpose(2, 3, 4, 0, 1).reshape(
            3, ku.degree + 1, kv.degree + 1, -1))
    groups = [_Group(ku, kv, np.concatenate(nets, axis=-1)) for ku, kv, nets in parts]
    return groups, np.array(group_of), np.array(base)


def _at_seeds(boxes: _Boxes, groups, group_of, base):
    """Image (2, m) and Jacobian (2, 2, m) at every box's seed: the first
    Newton step of every target started there reads them."""
    m = boxes.seed.shape[0]
    phys, jac = np.empty((2, m)), np.empty((2, 2, m))
    for gi, group in enumerate(groups):
        sel = np.flatnonzero(group_of[boxes.patch] == gi)
        uv = np.ascontiguousarray(boxes.seed[sel].T)
        spans = _spans(group, uv)
        local = _gather(group, base[boxes.patch[sel]], spans)
        phys[:, sel], jac[..., sel] = _image_and_jacobian(group, local, uv, spans)
    return phys, jac


def _invert(group: _Group, base, uv, phys, jac, tgt, tol):
    """Damped Newton for patch(uv) = tgt, clipped to the unit square: the
    patch of each point is the one whose windows start at base, and phys,
    jac are the image and Jacobian at the start uv.

    Each point's local net is gathered after the first step, and again only
    when its knot span changes; a step evaluates the image and Jacobian
    from that net and the 1D basis functions.  A point stops once its next
    update would move uv by at most 1e-14, or one step after an update that
    pushed it past a parameter bound while moving it by at most 1e-9 (the
    target lies outside the patch); the rest stop after 30 updates.
    Returns (uv, located), located where the image is within 10 tol of the
    target.
    """
    n = uv.shape[0]
    out, miss2 = np.empty((2, n)), np.empty(n)
    # every (k, n) array is kept C-contiguous (np.compress, np.take): an
    # einsum over a masked view's strides runs about three times slower
    uv, tgt = np.ascontiguousarray(uv.T), np.ascontiguousarray(tgt.T)
    idx = np.arange(n)
    live, held = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    spans = local = None
    for step in range(31):
        if step:
            phys, jac = _image_and_jacobian(group, local, uv, spans)
        (rx, ry), ((xu, xv), (yu, yv)) = phys - tgt, jac
        miss2[idx] = rx * rx + ry * ry
        inv = 1.0 / (xu * yv - xv * yu)
        trial = uv + np.clip(np.stack([xv * ry - yv * rx, yu * rx - xu * ry]) * inv, -0.25, 0.25)
        clipped = np.clip(trial, 0.0, 1.0)
        moved = np.abs(clipped - uv).max(axis=0)
        live &= (moved > 1e-14) & ~held & (step < 30)
        held = (trial != clipped).any(axis=0) & (moved <= 1e-9)
        # a point that stopped rides along, held where it stopped, until a
        # quarter of those left have stopped
        if np.count_nonzero(live) < 0.75 * live.size:
            out[:, idx[~live]] = uv[:, ~live]
            keep = live
            idx, base, uv, clipped, held, tgt, live = (
                np.compress(keep, a, axis=-1) for a in (idx, base, uv, clipped, held, tgt, live))
            if step:
                spans, local = (np.compress(keep, a, axis=-1) for a in (spans, local))
            if idx.size == 0:
                break
        uv = np.where(live, clipped, uv)
        spans, local = _respan(group, base, uv, spans, local)
    return out.T, miss2 <= (10 * tol) ** 2


def _respan(group: _Group, base, uv, spans, local):
    """The spans at uv and the local nets, gathered again where the span
    changed (everywhere when spans is None)."""
    if spans is None:
        spans = _spans(group, uv)
        return spans, _gather(group, base, spans)
    left = np.zeros(uv.shape[1], dtype=bool)
    for a, knots in enumerate((group.knots_u.values, group.knots_v.values)):
        left |= (uv[a] < knots[spans[a]]) | (uv[a] >= knots[spans[a] + 1])
    left = np.flatnonzero(left)
    moved = _spans(group, np.take(uv, left, axis=1))
    changed = np.any(moved != np.take(spans, left, axis=1), axis=0)
    if np.any(changed):
        left = left[changed]
        spans[:, left] = moved[:, changed]
        local[..., left] = _gather(group, base[left], spans[:, left])
    return spans, local


def _spans(group: _Group, uv):
    """(2, n) knot spans of parametric points uv (2, n)."""
    return np.stack([find_span_array(group.knots_u, uv[0]), find_span_array(group.knots_v, uv[1])])


def _gather(group: _Group, base, spans):
    """Each point's local homogeneous net, (3, p+1, q+1, n), from its spans."""
    p, q = group.knots_u.degree, group.knots_v.degree
    k = base + (spans[0] - p) * (group.knots_v.n_funcs - q) + spans[1] - q
    return np.take(group.net, k, axis=-1)


def _image_and_jacobian(group: _Group, local, uv, spans):
    """Image (2, n) and Jacobian (2, 2, n), [x, y][d/du, d/dv], at uv
    (2, n) in the given spans, from the points' gathered local nets."""
    Nu, dNu = basis_and_ders(group.knots_u, uv[0], spans[0])
    Nv, dNv = basis_and_ders(group.knots_v, uv[1], spans[1])
    # the v index first, then u; each sum runs over the functions in order
    c = np.einsum("cijn,kjn->kcin", local, np.stack([Nv, dNv]))
    a, av = np.einsum("kcin,in->kcn", c, Nu)
    au = np.einsum("cin,in->cn", c[0], dNu)
    phys = a[:2] / a[2]
    jac = np.stack([(au[:2] - phys * au[2]) / a[2], (av[:2] - phys * av[2]) / a[2]], axis=1)
    return phys, jac


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
    pid, uv = locate_points(model, xs, ys)

    n = pid.size
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


class FormattedGrid(dict):
    """A sampled grid's fields as their %.9g strings, from `format_grid`."""


def format_grid(data: dict) -> FormattedGrid:
    """Each field of a sampled grid as its %.9g strings (an object array of
    the field's shape); a `FormattedGrid` passes through.  A caller that
    writes both grid files formats once and hands both writers the result."""
    if isinstance(data, FormattedGrid):
        return data
    return FormattedGrid((name, _formatted(arr)) for name, arr in data.items())


def _formatted(values) -> np.ndarray:
    """%.9g of every value: each distinct bit pattern (so -0.0 apart from
    0.0) is formatted once, by one %-format for the whole array."""
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = ("%.9g\n" * distinct.size % tuple(distinct.view(float).tolist())).split("\n")[:-1]
    return np.array(text, dtype=object)[inverse.reshape(-1)].reshape(np.shape(values))


def write_vtk_structured(path: str, xs, ys, data: dict) -> FormattedGrid:
    """Legacy-VTK structured points with one scalar field per data entry
    (numbers, or a `format_grid` result).  Returns the formatted fields, for
    `write_grid_csv`."""
    nx, ny = xs.size, ys.size
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    text = format_grid(data)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("igatop field export\nASCII\nDATASET STRUCTURED_POINTS\n")
        f.write(f"DIMENSIONS {nx} {ny} 1\n")
        f.write(f"ORIGIN {xs[0]:.9g} {ys[0]:.9g} 0\n")
        f.write(f"SPACING {dx:.9g} {dy:.9g} 1\n")
        f.write(f"POINT_DATA {nx * ny}\n")
        for name, strings in text.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            # VTK structured points run x fastest; about 8 values a line,
            # the longer lines first
            vals = strings.T.reshape(-1).tolist()
            n_lines = max(1, len(vals) // 8)
            width, n_long = divmod(len(vals), n_lines)
            f.write((_row_format(width + 1) * n_long + _row_format(width) * (n_lines - n_long))
                    % tuple(vals))
    return text


def write_grid_csv(path: str, xs, ys, data: dict):
    """One row per grid point, y fastest; rows end in CRLF, as `csv` ends
    them.  data holds numbers, or is a `format_grid` result."""
    text = format_grid(data)
    cols = [np.repeat(_formatted(xs), ys.size), np.tile(_formatted(ys), xs.size)]
    cols += [text[c].reshape(-1) for c in text]
    rows = "\r\n".join(map(",".join, zip(*(c.tolist() for c in cols))))
    with open(path, "w", newline="") as f:
        f.write(",".join(["x", "y"] + list(text)) + "\r\n")
        f.write(rows and rows + "\r\n")


def _row_format(n: int) -> str:
    """A %-format for one VTK line of n strings."""
    return " ".join(["%s"] * n) + "\n"


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
