"""Assembly and solution of the state and adjoint systems.

The stiffness matrix combines the bulk conduction term with Nitsche
interface coupling: K = K_bulk + K_n + K_n^T + K_s, where K_n carries the
consistency (average-flux) terms and K_s the jump penalty
sum_e int_e beta_e [N] [N].  By default the penalty is scaled per edge
point, beta_e = NITSCHE_PENALTY_C * kappa_e * p^2 / h_e (Annavarapu,
Hautefeuille & Dolbow 2012): kappa_e is the largest conductivity either
side of the interface can take in the solve (an override can raise it),
p the solution degree, h_e the physical length of the edge's knot span.
A number in `model.beta` replaces it by that absolute penalty.

Everything the level set does not move is built once per mesh: the bulk
matrix of each non-design region at unit conductivity, the jump penalty,
and the interface rows of all edges stacked into one operator.  An
assembly scales the fixed regions by their conductivities (a sum kept
for the model's own values) and forms two weighted products
A^T diag(s) B, one over the design-region quadrature rows and one over
the stacked interface rows; the weights scale the columns of a
precomputed A^T.  K_ff is symmetric positive definite, so each state
solve factors it once with SuperLU in symmetric mode (diagonal pivots,
an ordering of K_ff + K_ff^T).  The free-dof blocks are sliced once per
state solve and shared by the solve, its refinement sweeps and the
adjoint.  Solves refine iteratively only while the componentwise
backward error is above eps and the last sweep halved it.

Sensitivities with respect to level-set expansion coefficients contract
P^T (dK/dPhi_i) T without forming dK/dPhi_i: the bulk part integrates
dkappa/dphi * R_i * (grad T . grad P) over the design rows; the interface
rows on design sides contribute the differentiated average-flux terms;
the jump penalty does not depend on the level set and drops out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from igatop.errors import AssemblyError, ModelError, SolverError
from igatop.levelset import DesignField, SmoothingParams, dirac, heaviside
from igatop.model import DesignBasis, InterfacePair, MaterialPair, MultiPatchModel
from igatop.splines import KnotVector, gauss_points_1d, tabulate

__all__ = [
    "MaterialPair",
    "kappa_at",
    "dkappa_dphi",
    "Discretization",
    "discretize",
    "assemble_bulk",
    "assemble_nitsche",
    "assemble_flux",
    "assemble_system",
    "FieldSolution",
    "solve_state",
    "solve_adjoint",
    "sensitivity_contraction",
]


def kappa_at(phi, mats: MaterialPair, sp_: SmoothingParams):
    """Pointwise conductivity from the smoothed material indicator."""
    h = heaviside(phi, sp_)
    return mats.kappa_pos * h + mats.kappa_neg * (1.0 - h)


def dkappa_dphi(phi, mats: MaterialPair, sp_: SmoothingParams):
    """Derivative of the smoothed conductivity with respect to the field value."""
    return (mats.kappa_pos - mats.kappa_neg) * dirac(phi, sp_)


#: Dimensionless factor C of the scaled penalty beta_e = C * kappa_e * p^2 / h_e.
#: At 0.5 the cloak and camouflage systems are indefinite and at 1 barely
#: coercive; 10 leaves a margin.
NITSCHE_PENALTY_C = 10.0


def _gram(At: sp.csr_matrix, B: sp.csr_matrix, s: np.ndarray) -> sp.csr_matrix:
    """A^T diag(s) B from A^T in CSR, whose columns the weights scale."""
    return sp.csr_matrix((At.data * s[At.indices], At.indices, At.indptr), shape=At.shape) @ B


def _stack(rows: list, ncols: int) -> sp.csr_matrix:
    return sp.vstack(rows).tocsr() if rows else sp.csr_matrix((0, ncols))


def _block_csr(blocks: list, ncols: int) -> sp.csr_matrix:
    """CSR of consecutive row blocks, each a pair of (n, k) arrays: the
    values and the column indices (ascending and distinct along a row)."""
    if not blocks:
        return sp.csr_matrix((0, ncols))
    counts = np.concatenate([np.full(v.shape[0], v.shape[1]) for v, _ in blocks])
    return sp.csr_matrix(
        (np.concatenate([v.ravel() for v, _ in blocks]),
         np.concatenate([c.ravel() for _, c in blocks]),
         np.concatenate([[0], np.cumsum(counts)])),
        shape=(counts.size, ncols),
    )


_EDGE_PARAMS = {
    "u0": lambda t: np.column_stack([np.zeros_like(t), t]),
    "u1": lambda t: np.column_stack([np.ones_like(t), t]),
    "v0": lambda t: np.column_stack([t, np.zeros_like(t)]),
    "v1": lambda t: np.column_stack([t, np.ones_like(t)]),
}


def _edge_knots(patch, edge: str) -> KnotVector:
    return patch.knots_v if edge[0] == "u" else patch.knots_u


def _edge_tab(patch, edge: str, t: np.ndarray):
    """Tabulation along one edge plus length element and outward normal."""
    lo = _EDGE_PARAMS[edge](t)
    tab = tabulate(patch, lo)
    run_axis = 1 if edge[0] == "u" else 0
    tang = tab.jac[:, :, run_axis]
    ds = np.hypot(tang[:, 0], tang[:, 1])
    det = tab.det_j
    # rows of J^{-1}: grad u = (J11, -J01)/det, grad v = (-J10, J00)/det
    if edge[0] == "u":
        grad_dir = np.column_stack([tab.jac[:, 1, 1], -tab.jac[:, 0, 1]]) / det[:, None]
    else:
        grad_dir = np.column_stack([-tab.jac[:, 1, 0], tab.jac[:, 0, 0]]) / det[:, None]
    sign = 1.0 if edge.endswith("1") else -1.0
    normal = sign * grad_dir / np.hypot(grad_dir[:, 0], grad_dir[:, 1])[:, None]
    return tab, ds, normal


@dataclass
class EdgeQuad:
    """Precomputed interface-edge quadrature and coupling operators."""

    pair: InterfacePair
    w: np.ndarray  # gauss weight x edge length element
    phys: np.ndarray
    normal: np.ndarray  # outward from side a (the n = n^1 convention)
    En: sp.csr_matrix  # jump rows N_a - N_b (ne, ndof)
    G1n: sp.csr_matrix  # normal derivative rows of side a
    G2n: sp.csr_matrix
    region_a: str
    region_b: str
    D1: sp.csr_matrix | None  # design-basis values on side a (design side only)
    D2: sp.csr_matrix | None
    p2_h: np.ndarray  # p^2 / h_e: solution degree, physical knot-span length


@dataclass
class DesignRows:
    """Points whose conductivity can follow the level set, with the
    operators of the weighted product A^T diag(s) B they enter.

    Per point: the quadrature weight, the region, and the design-basis
    values (zero rows off the design; None without a basis).
    """

    w: np.ndarray
    labels: np.ndarray
    D: sp.csr_matrix | None
    At: sp.csr_matrix  # A^T in CSR
    B: sp.csr_matrix


@dataclass
class Discretization:
    """Per-mesh cache of quadrature, basis operators, and constraints."""

    model: MultiPatchModel
    basis: DesignBasis | None
    ndof: int
    dof_offsets: np.ndarray
    w: np.ndarray
    phys: np.ndarray
    qlabel: np.ndarray
    N: sp.csr_matrix
    Gx: sp.csr_matrix
    Gy: sp.csr_matrix
    D: sp.csr_matrix | None
    # design-region quadrature points, B = A the rows of [Gx; Gy] there:
    # K_d = B^T diag([w kappa; w kappa]) B
    bulk: DesignRows
    # unit-conductivity bulk matrix of each non-design region
    region_K: dict[str, sp.csr_matrix]
    edges: list[EdgeQuad]
    E: sp.csr_matrix  # jump rows of all interface points, edge after edge
    # both sides of every interface point, side a of all edges first, with
    # w the edge weight times gamma (side a) or 1 - gamma (side b):
    # K_n = -[E; E]^T diag(w kappa) [G1n; G2n]
    sides: DesignRows
    Ks: sp.csr_matrix  # jump penalty of a solve without overrides
    # sum of kappa_r * region_K[r] and Ks for the model's own conductivities
    K_fixed: sp.csr_matrix
    F0: np.ndarray
    dirichlet_idx: np.ndarray
    dirichlet_val: np.ndarray
    free: np.ndarray

    def region_mask(self, labels) -> np.ndarray:
        if isinstance(labels, str):
            labels = (labels,)
        return np.isin(self.qlabel, labels)

    def h_avg(self, labels=None) -> float:
        """Mean element size sqrt(area) over (a subset of) the mesh."""
        areas = []
        for pid, patch in enumerate(self.model.patches):
            if labels is not None and self.model.labels[pid] not in labels:
                continue
            nu = patch.knots_u.span_breaks().size - 1
            nv = patch.knots_v.span_breaks().size - 1
            mask = self.qpatch == pid
            areas.append(np.full(nu * nv, self.w[mask].sum() / (nu * nv)))
        return float(np.mean(np.sqrt(np.concatenate(areas))))

    qpatch: np.ndarray | None = None


def discretize(
    model: MultiPatchModel,
    basis: DesignBasis | None = None,
    n_per_span: int | None = None,
    breaks_u=None,
    breaks_v=None,
) -> Discretization:
    """Build the quadrature/operator cache for a refined model.

    breaks_u/breaks_v insert extra integration-cell boundaries in every
    patch (used by the annulus sweeps to resolve a narrow smoothing band
    without changing the discretization space).
    """
    sizes = [p.n_ctrl for p in model.patches]
    dof_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    ndof = int(dof_offsets[-1])

    w_all, phys_all, lab_all, pid_all, tabs = [], [], [], [], []
    m = basis.m if basis is not None else 0
    for pid, patch in enumerate(model.patches):
        from igatop.splines import patch_quadrature

        # default rule: (p+1) x (q+1) Gauss points per nonempty span
        pts, wts = patch_quadrature(patch, n_per_span, n_per_span, breaks_u, breaks_v)
        tab = tabulate(patch, pts)
        nq = pts.shape[0]
        # design-basis values and columns; none off the design
        drows = (np.zeros((nq, 0)), np.zeros((nq, 0), dtype=int))
        if basis is not None and model.labels[pid] == "design":
            k = basis.patch_ids.index(pid)
            dtab = tabulate(basis.patches[k], pts)
            drows = (dtab.values, dtab.indices + int(basis.offsets[k]))
        cols = tab.indices + dof_offsets[pid]
        tabs.append({"N": (tab.values, cols), "dx": (tab.dx, cols), "dy": (tab.dy, cols),
                     "D": drows})
        w_all.append(wts * tab.det_j)
        phys_all.append(tab.phys)
        lab_all.append(np.full(nq, model.labels[pid], dtype="<U8"))
        pid_all.append(np.full(nq, pid))

    def patch_rows(key, pids=range(len(tabs)), ncols=ndof):
        return _block_csr([tabs[pid][key] for pid in pids], ncols)

    def grad_rows(pids):
        return _block_csr([tabs[pid][key] for key in ("dx", "dy") for pid in pids], ndof)

    N, Gx, Gy = patch_rows("N"), patch_rows("dx"), patch_rows("dy")
    D = patch_rows("D", ncols=m) if basis is not None else None
    w = np.concatenate(w_all)
    qlabel = np.concatenate(lab_all)
    design_mask = qlabel == "design"

    design = [pid for pid, label in enumerate(model.labels) if label == "design"]
    Gd = grad_rows(design)
    bulk = DesignRows(
        w=w[design_mask], labels=qlabel[design_mask],
        D=patch_rows("D", design, m) if basis is not None else None, At=Gd.T.tocsr(), B=Gd,
    )
    region_K = {}
    for label in sorted(set(model.labels) - {"design"}):
        pids = [pid for pid, lab in enumerate(model.labels) if lab == label]
        G = grad_rows(pids)
        region_K[label] = _gram(G.T.tocsr(), G, np.tile(w[qlabel == label], 2))

    edges = [_build_edge(model, basis, pair, dof_offsets, ndof) for pair in model.interfaces]
    E = _stack([e.En for e in edges], ndof)
    gamma = model.gamma
    side_w = [gamma * e.w for e in edges] + [(1.0 - gamma) * e.w for e in edges]
    side_D = [e.D1 for e in edges] + [e.D2 for e in edges]
    sides = DesignRows(
        w=np.concatenate([np.zeros(0)] + side_w),
        labels=np.repeat(np.array([e.region_a for e in edges] + [e.region_b for e in edges],
                                  dtype="<U8"), [ws.size for ws in side_w]),
        D=None if basis is None else _stack(
            [Ds if Ds is not None else sp.csr_matrix((ws.size, m)) for ws, Ds in zip(side_w, side_D)], m),
        At=sp.vstack([E, E]).T.tocsr(),
        B=_stack([e.G1n for e in edges] + [e.G2n for e in edges], ndof),
    )
    Ks = _penalty_matrix(model, edges, E)

    F0 = np.zeros(ndof)
    dir_map: dict[int, float] = {}
    for bc in model.boundaries:
        patch = model.patches[bc.patch]
        if bc.kind == "dirichlet":
            from igatop.model import edge_flat_indices

            for dof in edge_flat_indices(patch, bc.edge) + dof_offsets[bc.patch]:
                prev = dir_map.setdefault(int(dof), bc.value)
                if prev != bc.value:
                    raise ModelError(f"conflicting Dirichlet values at dof {dof}")
        elif bc.kind == "neumann":
            kv = _edge_knots(patch, bc.edge)
            t, gw = gauss_points_1d(kv)
            tab, ds, _ = _edge_tab(patch, bc.edge, t)
            rows = np.repeat(np.arange(t.size), tab.indices.shape[1])
            cols = (tab.indices + dof_offsets[bc.patch]).ravel()
            Ne = sp.csr_matrix((tab.values.ravel(), (rows, cols)), shape=(t.size, ndof))
            F0 += Ne.T @ (gw * ds * bc.value)
        # insulated edges contribute nothing

    dirichlet_idx = np.array(sorted(dir_map), dtype=int)
    dirichlet_val = np.array([dir_map[i] for i in dirichlet_idx])
    free = np.setdiff1d(np.arange(ndof), dirichlet_idx)

    return Discretization(
        model=model,
        basis=basis,
        ndof=ndof,
        dof_offsets=dof_offsets,
        w=w,
        phys=np.concatenate(phys_all),
        qlabel=qlabel,
        N=N,
        Gx=Gx,
        Gy=Gy,
        D=D,
        bulk=bulk,
        region_K=region_K,
        edges=edges,
        E=E,
        sides=sides,
        Ks=Ks,
        K_fixed=_fixed_matrix(model, region_K, Ks, {}),
        F0=F0,
        dirichlet_idx=dirichlet_idx,
        dirichlet_val=dirichlet_val,
        free=free,
        qpatch=np.concatenate(pid_all),
    )


def _build_edge(model, basis, pair: InterfacePair, dof_offsets, ndof) -> EdgeQuad:
    pa, pb = model.patches[pair.patch_a], model.patches[pair.patch_b]
    kv = _edge_knots(pa, pair.edge_a)
    t, gw = gauss_points_1d(kv)
    ta, tb = t, (1.0 - t if pair.reversed_ else t)

    tab_a, ds, normal = _edge_tab(pa, pair.edge_a, ta)
    tab_b, _, _ = _edge_tab(pb, pair.edge_b, tb)
    if np.max(np.abs(tab_a.phys - tab_b.phys)) > 1e-8 * max(1.0, model.diameter()):
        raise ModelError(
            f"interface ({pair.patch_a},{pair.edge_a})-({pair.patch_b},{pair.edge_b}) "
            "quadrature points do not coincide"
        )
    ne = t.size
    # gauss_points_1d puts degree + 1 points in each nonempty span
    n_g = kv.degree + 1
    h = np.repeat((gw * ds).reshape(-1, n_g).sum(axis=1), n_g)
    p = max(k.degree for patch in (pa, pb) for k in (patch.knots_u, patch.knots_v))

    def scatter(tab, pid, data):
        rows = np.repeat(np.arange(ne), tab.indices.shape[1])
        cols = (tab.indices + dof_offsets[pid]).ravel()
        return sp.csr_matrix((data.ravel(), (rows, cols)), shape=(ne, ndof))

    Na = scatter(tab_a, pair.patch_a, tab_a.values)
    Nb = scatter(tab_b, pair.patch_b, tab_b.values)
    G1n = scatter(tab_a, pair.patch_a, normal[:, :1] * tab_a.dx + normal[:, 1:] * tab_a.dy)
    G2n = scatter(tab_b, pair.patch_b, normal[:, :1] * tab_b.dx + normal[:, 1:] * tab_b.dy)

    def design_rows(pid, tt, edge):
        if basis is None or model.labels[pid] != "design":
            return None
        k = basis.patch_ids.index(pid)
        dtab = tabulate(basis.patches[k], _EDGE_PARAMS[edge](tt), check_jacobian=False)
        rows = np.repeat(np.arange(ne), dtab.indices.shape[1])
        cols = (dtab.indices + int(basis.offsets[k])).ravel()
        return sp.csr_matrix((dtab.values.ravel(), (rows, cols)), shape=(ne, basis.m))

    return EdgeQuad(
        pair=pair,
        w=gw * ds,
        phys=tab_a.phys,
        normal=normal,
        En=(Na - Nb).tocsr(),
        G1n=G1n,
        G2n=G2n,
        region_a=model.labels[pair.patch_a],
        region_b=model.labels[pair.patch_b],
        D1=design_rows(pair.patch_a, ta, pair.edge_a),
        D2=design_rows(pair.patch_b, tb, pair.edge_b),
        p2_h=p * p / h,
    )


def _kappa_max(model, region: str, override: dict) -> float:
    """Largest conductivity a region can take in a solve with these overrides.

    An override only raises it, so a solve whose override repeats what a
    design can take (the all-insulator reference) shares that design's
    penalty and discrete space.
    """
    if region == "design":
        kappa = max(model.design_pair.kappa_pos, model.design_pair.kappa_neg)
    else:
        kappa = model.kappa_regions.get(region, 0.0)
    return max(kappa, float(override.get(region, 0.0)))


def _penalty_matrix(model, edges, E, override=None) -> sp.csr_matrix:
    """Jump penalty E^T diag(w * beta_e) E over the stacked interface points.

    beta_e is the absolute model.beta where that is set, else the scaled
    C * kappa_e * p^2 / h_e; neither depends on the level set.
    """
    override = override or {}
    weights = [np.zeros(0)]
    for e in edges:
        beta_e = model.beta
        if beta_e is None:
            kappa = max(_kappa_max(model, e.region_a, override),
                        _kappa_max(model, e.region_b, override))
            beta_e = NITSCHE_PENALTY_C * kappa * e.p2_h
        weights.append(e.w * beta_e)
    return _gram(E.T.tocsr(), E, np.concatenate(weights))


def _fixed_matrix(model, region_K, Ks, override) -> sp.csr_matrix:
    """Non-design bulk regions scaled by their conductivities, plus K_s."""
    K = Ks
    for label, Kr in region_K.items():
        kappa = override.get(label, model.kappa_regions.get(label))
        if kappa is None:
            raise AssemblyError("missing conductivity for a non-design region")
        K = K + float(kappa) * Kr
    return K


# ---------------------------------------------------------------------------
# conductivity fields and assembly
# ---------------------------------------------------------------------------


def _kappa_points(disc, rows: DesignRows, field, sp_, override) -> np.ndarray:
    """Conductivity at each point of `rows`: the override or the region's
    own value, else (on the design) the smoothed material of the field."""
    kappa = np.full(rows.w.size, np.nan)
    for label, val in {**disc.model.kappa_regions, **(override or {})}.items():
        kappa[rows.labels == label] = val
    todo = np.isnan(kappa)
    if np.any(todo & (rows.labels != "design")):
        raise AssemblyError("missing conductivity for a non-design region")
    if np.any(todo):
        if field is None:
            raise AssemblyError("design region requires a field or an override")
        kappa[todo] = kappa_at((rows.D @ field.coeffs)[todo], disc.model.design_pair, sp_)
    return kappa


def _kappa_bulk(disc, field, sp_, override) -> np.ndarray:
    """Conductivity at the design-region quadrature points."""
    return _kappa_points(disc, disc.bulk, field, sp_, override)


def assemble_bulk(disc: Discretization, kappa_q: np.ndarray) -> sp.csr_matrix:
    """Bulk conduction stiffness for a conductivity at every quadrature point."""
    G = sp.vstack([disc.Gx, disc.Gy]).tocsr()
    return _gram(G.T.tocsr(), G, np.tile(disc.w * kappa_q, 2))


def assemble_nitsche(
    disc: Discretization,
    field: DesignField | None = None,
    sp_: SmoothingParams | None = None,
    override: dict | None = None,
):
    """Interface consistency matrix K_n and jump-penalty matrix K_s.

    K_n is one weighted product over the stacked interface points.  K_s is
    the mesh's precomputed penalty, formed anew only when `override`
    changes the conductivities a scaled penalty follows.
    """
    sides = disc.sides
    kappa = _kappa_points(disc, sides, field, sp_, override)
    Kn = -_gram(sides.At, sides.B, sides.w * kappa)
    Ks = disc.Ks
    if override and disc.model.beta is None:
        Ks = _penalty_matrix(disc.model, disc.edges, disc.E, override)
    return Kn, Ks


def assemble_flux(disc: Discretization) -> np.ndarray:
    """Applied-flux load vector (zero for insulated/Dirichlet-only problems)."""
    return disc.F0.copy()


def assemble_system(
    disc: Discretization,
    field: DesignField | None = None,
    sp_: SmoothingParams | None = None,
    override: dict | None = None,
):
    """Full stiffness K = K_b + K_n + K_n^T + K_s and load vector.

    Only the design-region rows of K_b and the interface term K_n follow
    the field; the rest is the mesh's fixed sum, rescaled under `override`.
    """
    Kn, Ks = assemble_nitsche(disc, field, sp_, override)
    K = _fixed_matrix(disc.model, disc.region_K, Ks, override) if override else disc.K_fixed
    bulk = disc.bulk
    Kd = _gram(bulk.At, bulk.B, np.tile(bulk.w * _kappa_bulk(disc, field, sp_, override), 2))
    return (K + Kd + (Kn + Kn.T)).tocsr(), assemble_flux(disc)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


@dataclass
class FreeBlocks:
    """K restricted to the free dofs, sliced once per state solve."""

    Kff: sp.csr_matrix
    Kfd: sp.csr_matrix  # free rows, Dirichlet columns
    abs_Kff: sp.csr_matrix


@dataclass
class FieldSolution:
    """Solution coefficients plus the factorized constrained system."""

    disc: Discretization
    values: np.ndarray  # (ndof,)
    K: sp.csr_matrix
    lu: object
    blocks: FreeBlocks

    def at_quadrature(self):
        return self.disc.N @ self.values

    def grad_at_quadrature(self):
        return self.disc.Gx @ self.values, self.disc.Gy @ self.values


def _free_blocks(disc: Discretization, K: sp.csr_matrix) -> FreeBlocks:
    Kf = K[disc.free]
    Kff = Kf[:, disc.free]
    return FreeBlocks(Kff=Kff, Kfd=Kf[:, disc.dirichlet_idx], abs_Kff=abs(Kff))


def _constrained_factor(blocks: FreeBlocks):
    # K_ff is symmetric positive definite: diagonal pivots are stable, and
    # the fill-reducing ordering is that of K_ff + K_ff^T
    try:
        lu = splu(blocks.Kff.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            "singular stiffness system (suspected untagged boundary or missing "
            f"Dirichlet data): {exc}"
        ) from exc
    return lu


_EPS = np.finfo(float).eps


def _constrained_solve(disc, blocks: FreeBlocks, lu, F, dirichlet_val=None, transpose=False):
    free = disc.free
    dval = disc.dirichlet_val if dirichlet_val is None else dirichlet_val
    rhs = F[free]
    if disc.dirichlet_idx.size and np.any(dval != 0.0):
        rhs = rhs - blocks.Kfd @ dval
    A = blocks.Kff.T if transpose else blocks.Kff
    absA = blocks.abs_Kff.T if transpose else blocks.abs_Kff
    abs_rhs = np.abs(rhs)
    trans = "T" if transpose else "N"

    def residual(x):
        r = rhs - A @ x
        denom = absA @ np.abs(x) + abs_rhs
        # componentwise backward error max |r| / (|A| |x| + |b|)
        berr = np.max(np.abs(r) / np.where(denom > 0.0, denom, 1.0), initial=0.0)
        return r, berr

    x_f = lu.solve(rhs, trans=trans)
    r, berr = residual(x_f)
    # iterative refinement in working precision only while it helps (the
    # LAPACK xGERFS rule): sweep while the backward error is above eps and
    # the last sweep halved it, and keep a sweep only if it lowered it; near
    # float64 roundoff the residual is noise and a sweep would add error
    for _ in range(2):
        if berr <= _EPS:
            break
        x_new = x_f + lu.solve(r, trans=trans)
        r_new, berr_new = residual(x_new)
        if not berr_new < berr:
            break
        x_f, r = x_new, r_new
        if berr_new > 0.5 * berr:
            break
        berr = berr_new
    res = np.linalg.norm(r)
    # normwise guard against a failed factorization: the residual is
    # measured against |K| |x| + |rhs|
    scale = np.linalg.norm(rhs) + absA.max() * np.linalg.norm(x_f)
    if res > 1e-10 * max(scale, 1.0):
        raise SolverError(f"linear solve residual {res:.3e} exceeds tolerance")
    x = np.zeros(disc.ndof)
    x[free] = x_f
    if disc.dirichlet_idx.size:
        x[disc.dirichlet_idx] = dval
    return x


def solve_state(
    disc: Discretization,
    field: DesignField | None = None,
    sp_: SmoothingParams | None = None,
    override: dict | None = None,
) -> FieldSolution:
    """Assemble and solve the constrained conduction system."""
    K, F = assemble_system(disc, field, sp_, override)
    blocks = _free_blocks(disc, K)
    lu = _constrained_factor(blocks)
    T = _constrained_solve(disc, blocks, lu, F)
    return FieldSolution(disc=disc, values=T, K=K, lu=lu, blocks=blocks)


def solve_adjoint(state: FieldSolution, load_q: np.ndarray) -> np.ndarray:
    """Adjoint coefficients for a per-quadrature load -dJ_b/dT.

    Solves K^T P = integral(N^T load) with homogeneous Dirichlet data,
    reusing the state factorization and free-dof blocks (transposed solve).
    """
    disc = state.disc
    F_adj = disc.N.T @ (disc.w * load_q)
    return _constrained_solve(
        disc, state.blocks, state.lu, F_adj,
        dirichlet_val=np.zeros_like(disc.dirichlet_val), transpose=True,
    )


def sensitivity_contraction(
    disc: Discretization,
    field: DesignField,
    sp_: SmoothingParams,
    T: np.ndarray,
    P: np.ndarray,
) -> np.ndarray:
    """P^T (dK/dPhi_i) T for every design coefficient i.

    Bulk term over the design-region points plus the differentiated
    Nitsche consistency terms at the stacked interface points on design
    sides; the jump penalty has no kappa dependence.
    """
    if disc.D is None:
        raise AssemblyError("discretization was built without a design basis")
    mats = disc.model.design_pair
    bulk, sides = disc.bulk, disc.sides
    # d(B^T diag(w kappa) B): (grad T . grad P) from the stacked x and y rows
    grads = (bulk.B @ T) * (bulk.B @ P)
    dk = dkappa_dphi(bulk.D @ field.coeffs, mats, sp_)
    g = bulk.D.T @ (bulk.w * dk * grads.reshape(2, -1).sum(axis=0))

    # d(K_n + K_n^T) with K_n = -A^T diag(w kappa) B, A = [E; E]
    on_design = sides.labels == "design"
    if np.any(on_design):
        dk = np.where(on_design, dkappa_dphi(sides.D @ field.coeffs, mats, sp_), 0.0)
        ET, EP = np.tile(disc.E @ T, 2), np.tile(disc.E @ P, 2)
        g = g - sides.D.T @ (sides.w * dk * (EP * (sides.B @ T) + ET * (sides.B @ P)))
    return np.asarray(g).ravel()
