"""Assembly and solution of the state and adjoint systems.

Every interface conforms (`model.match_edges` pairs only edges that share
a control net), so by default (`model.beta` null) the patches are coupled
strongly: `discretize` gives the two control points of each interface
pair one dof, and the stiffness is the bulk conduction term alone.  A
number in `model.beta` keeps the patches' own dofs and couples them by
Nitsche's method instead: K = K_bulk + K_n + K_n^T + K_s, where K_n
carries the consistency (average-flux) terms and K_s the jump penalty
sum_e int_e beta [N] [N] with that absolute beta.

Everything the level set does not move is built once per mesh: the bulk
matrix of each non-design region at unit conductivity, the jump penalty,
and the interface rows of all edges stacked into one operator (empty
under strong coupling).  A whole assembly scales the fixed regions by
their conductivities (a sum kept for the model's own values) and forms two
weighted products A^T diag(s) B, one over the design-region quadrature
rows and one over the stacked interface rows; the weights scale the
columns of a precomputed A^T.

Only the free dofs a field-dependent row touches (T: the design-region
columns and, under an explicit beta, the columns of the design-side
interface points) see K_ff change.  The other free dofs (I) are
eliminated once per split, by the first solve on it without an override
(static condensation; Przemieniecki, AIAA J. 1, 1963): K_II is factored,
Z = K_II^-1 K_IT formed densely on the columns where K_IT holds entries,
and S = K_TT - W, W = K_TI Z, split into the part of the fixed regions
and one linear map per kind of field-dependent point, from the points'
weights times conductivities onto S's fixed pattern; all of it on the
orbits of the split's mirror group (below).  On an all-design mesh I is
empty and S is K_ff itself.  S's rows are numbered in a
Cuthill-McKee order of that pattern, found once (Cuthill & McKee, ACM
1969), in which S is narrowly banded: half-bandwidth 42 on the annulus's
orbit split, 52 on the cloak's and 42 on the camouflage's.  An evaluation
then applies the maps, fills LAPACK's band storage of S through an index
built once per split, factors it by a banded Cholesky (`dpbtrf`: n kd^2
flops in one call, no symbolic phase; George & Liu, Computer Solution of
Large Sparse Positive Definite Systems, 1981, ch. 4) and solves on T
alone: a load condenses to b_T - K_TI K_II^-1 b_I, S x_T is solved
(`dpbtrs`) and refined, and x_I = K_II^-1 b_I - Z x_rim.  The state's
K_II^-1 b_I is the split's, so an evaluation (state and adjoint) takes at
most one K_II solve.  K_II, factored once per split, is the one SuperLU
factor (symmetric mode: diagonal pivots, a minimum-degree ordering of
A + A^T).  A solve under an override (which may rescale any region)
splits the free dofs once for itself: I empty, S = K_ff sliced from a
whole assembly in the same kind of band order.  K_ff, and so K_II and S,
is symmetric positive definite; a band factor that meets a non-positive
pivot raises `SolverError`, and no other factorization is tried.  The
adjoint reuses the state's factors because K_ff is symmetric
(K^T P = K P).  Solves refine iteratively on S only while the
componentwise backward error is above eps and the last sweep halved it.

The first solve without an override also finds the mesh's mirror group:
the mirrors x -> -x and y -> -y (about the origin) that map the dof
control points, the quadrature points with their labels and the design
net onto themselves (matched by one sort of each set's projections, not
a search tree), the solution and design bases onto themselves, and
leave the Dirichlet values exactly equal.  The annulus keeps both, the
cloak and camouflage plates the y-mirror only (x -> -x swaps their two
Dirichlet values).  A group holds its orbits of the dofs, the quadrature
points and the design coefficients as `levelset.Orbits` partitions; the
trivial group, built once per mesh, holds the identity partitions.  A
field whose coefficients are exactly equal on every orbit of the design
net has mirror-symmetric conductivities, so its state is mirror
symmetric and a Galerkin solve on the invariant vectors, E^T S E x =
E^T g with E the 0/1 matrix of T's orbits, is exact (Bossavit, "Symmetry,
groups and boundary value problems", CMAME 56, 1986).  Every split is
built by `_condense` as above on one group's orbits, with S's rows
numbered by orbit, so the same maps sum every entry onto its orbit pair
and the factor is E^T S E: a quarter of the annulus's rows, half of the
plates'.  x_T is read out as x_red[orbit].  I is eliminated on its
orbits too: every load that reaches K_II is invariant, and K_II^-1 maps
invariant vectors to invariant ones, so x_I = E_I z with (E_I^T K_II
E_I) z = E_I^T b_I, E_I the 0/1 matrix of I's orbits.  The split factors
E_I^T K_II E_I, forms Z on the columns of E_I^T K_IT E_T where it holds
entries (T's orbits, summed) and sums each row of W onto its orbit's row
of S; a load's part on I enters by its orbit sums, and x_I is read out
as z[orbit].  On the plates this halves K_II's rows and Z's columns.
The per-point work runs
on the orbits of the quadrature points too: the maps take one column per
orbit of the design rows, built from the entries of its lowest point
alone, scaled by the orbit's size (an image point's entries are that
point's with both dofs mirrored, so they land on the same entries of S),
and the split keeps the rows of the design region's operators and of N
at the lowest point of each orbit.  Every per-point array of an
evaluation lives there, one entry per orbit: phi, computed once and read
by the conductivity (kappa, with the orbit's mean weight) and by the
sensitivity; T at the quadrature points, exactly invariant;
`objectives.eval_main`'s J and dJ/dT, with the orbit's weights summed in;
the adjoint load N^T applied to those, through the representatives' rows
alone; and the sensitivity's bulk term, summed onto the coefficients
through D^T summed onto the orbits.  No product with the mesh's whole N
or design rows is left in an evaluation.  An image point's row of N is
the representative's with its dofs mirrored, so the representatives'
load has the whole invariant load's sums over the dofs' orbits, which
are all the solve reads, on T and on I.  On the trivial group E, E_I and
the orbits are the identity, and this is the plain split doing the
per-point arithmetic of a whole assembly.
Every iterate, line-search trial and reinitialization of a run with
`design.symmetry: xy` solves on the mesh's group; any other field (a
projected start, a finite-difference nudge, `symmetry: none`) on the
trivial group.  The adjoint solves on the state's split, for the
invariant load with the given orbit sums.  The mesh's group is the
trivial one under an explicit beta: there any reordering of the
penalty-sized sums can move the solution by far more than roundoff (the
beta=1e12 case of tests/test_assembly.py::TestSolves::test_maximum_principle).

Sensitivities with respect to level-set expansion coefficients contract
P^T (dK/dPhi_i) T without forming dK/dPhi_i: the bulk part integrates
dkappa/dphi * R_i * (grad T . grad P) over the design rows; the interface
rows on design sides contribute the differentiated average-flux terms;
the jump penalty does not depend on the level set and drops out.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemv
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee, shortest_path
from scipy.sparse.linalg import splu

from igatop.errors import AssemblyError, ModelError, SolverError
from igatop.levelset import (
    MIRRORS,
    DesignField,
    Orbits,
    SmoothingParams,
    dirac,
    heaviside,
    mirror_images,
    net_orbits,
    orbits,
)
from igatop.model import (
    DesignBasis,
    InterfacePair,
    MaterialPair,
    MultiPatchModel,
    edge_flat_indices,
)
from igatop.splines import KnotVector, gauss_points_1d, patch_quadrature, tabulate

__all__ = [
    "MaterialPair",
    "kappa_at",
    "dkappa_dphi",
    "Discretization",
    "discretize",
    "assemble_system",
    "CondensedSystem",
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


def _gram(At: sp.csr_matrix, B: sp.csr_matrix, s: np.ndarray) -> sp.csr_matrix:
    """A^T diag(s) B from A^T in CSR, whose columns the weights scale."""
    return sp.csr_matrix((At.data * s[At.indices], At.indices, At.indptr), shape=At.shape) @ B


def _stack(rows: list, ncols: int) -> sp.csr_matrix:
    return sp.vstack(rows).tocsr() if rows else sp.csr_matrix((0, ncols))


def _block_csr(blocks: list, ncols: int) -> sp.csr_matrix:
    """CSR of consecutive row blocks, each a pair of (n, k) arrays: the
    values and the column indices (distinct along a row, but not ascending
    where patches share interface dofs; scipy accepts unsorted indices)."""
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

    w: np.ndarray  # gauss weight x edge length element
    En: sp.csr_matrix  # jump rows N_a - N_b (ne, ndof)
    G1n: sp.csr_matrix  # normal derivative rows of side a
    G2n: sp.csr_matrix
    region_a: str
    region_b: str
    D1: sp.csr_matrix | None  # design-basis values on side a (design side only)
    D2: sp.csr_matrix | None


@dataclass
class DesignRows:
    """Points whose conductivity can follow the level set, with the
    operators of the weighted product A^T diag(s) B they enter.

    Per point: the quadrature weight, the region, whether that region is
    off the design, and the design-basis values (zero rows off the design;
    None without a basis), and the conductivity of its region, built once
    per mesh (NaN without one).  B holds one or more row blocks of one row
    per point (the design region's x and y gradients).
    """

    w: np.ndarray
    labels: np.ndarray
    D: sp.csr_matrix | None
    B: sp.csr_matrix
    kappa: np.ndarray
    At: sp.csr_matrix | None = None  # A^T in CSR; not kept by `take`
    off_design: np.ndarray | None = None  # labels != "design", built once

    def __post_init__(self):
        if self.off_design is None:
            self.off_design = self.labels != "design"

    def take(self, pts: np.ndarray) -> DesignRows:
        """The rows of the points `pts`, in every block of B."""
        n = self.w.size
        blocks = (pts + n * np.arange(self.B.shape[0] // max(n, 1))[:, None]).ravel()
        return DesignRows(w=self.w[pts], labels=self.labels[pts],
                          D=None if self.D is None else self.D[pts], B=self.B[blocks],
                          kappa=self.kappa[pts], off_design=self.off_design[pts])


@dataclass
class Discretization:
    """Per-mesh cache of quadrature, basis operators, and constraints."""

    model: MultiPatchModel
    basis: DesignBasis | None
    ndof: int
    patch_dofs: list[np.ndarray]  # per patch: the dof of each flat control index
    w: np.ndarray
    phys: np.ndarray
    qlabel: np.ndarray
    N: sp.csr_matrix
    # design-region quadrature points, B = A their x and y gradient rows:
    # K_d = B^T diag([w kappa; w kappa]) B
    bulk: DesignRows
    # unit-conductivity bulk matrix of each non-design region
    region_K: dict[str, sp.csr_matrix]
    edges: list[EdgeQuad]
    E: sp.csr_matrix  # jump rows of all interface points, edge after edge
    # both sides of every interface point, side a of all edges first, with
    # w half the edge weight (the average of the two sides' fluxes):
    # K_n = -[E; E]^T diag(w kappa) [G1n; G2n]
    sides: DesignRows
    Ks: sp.csr_matrix  # jump penalty
    dirichlet_idx: np.ndarray
    dirichlet_val: np.ndarray
    free: np.ndarray
    # the trivial mirror group (the identity on every set of orbits); the
    # mesh's mirror group, found by the first solve without an override;
    # and the split on each group's orbits, built by the first solve on it
    # (see _substructure)
    trivial: MirrorGroup
    group: MirrorGroup | None = None
    splits: dict = dc_field(default_factory=dict)

    def region_mask(self, labels) -> np.ndarray:
        if isinstance(labels, str):
            labels = (labels,)
        return np.isin(self.qlabel, labels)


def discretize(
    model: MultiPatchModel,
    basis: DesignBasis | None = None,
    n_per_span: int | None = None,
) -> Discretization:
    """Build the quadrature/operator cache for a refined model."""
    ndof, patch_dofs = _number_dofs(model)

    w_all, phys_all, lab_all, tabs = [], [], [], []
    m = basis.m if basis is not None else 0
    for pid, patch in enumerate(model.patches):
        # default rule: (p+1) x (q+1) Gauss points per nonempty span
        pts, wts = patch_quadrature(patch, n_per_span)
        tab = tabulate(patch, pts)
        nq = pts.shape[0]
        cols = patch_dofs[pid][tab.indices]
        tabs.append({"N": (tab.values, cols), "dx": (tab.dx, cols), "dy": (tab.dy, cols)})
        if basis is not None and model.labels[pid] == "design":
            # design-basis values and columns
            k = basis.patch_ids.index(pid)
            dtab = tabulate(basis.patches[k], pts)
            tabs[-1]["D"] = (dtab.values, dtab.indices + int(basis.offsets[k]))
        w_all.append(wts * tab.det_j)
        phys_all.append(tab.phys)
        lab_all.append(np.full(nq, model.labels[pid], dtype="<U8"))

    def patch_rows(key, pids=range(len(tabs)), ncols=ndof):
        return _block_csr([tabs[pid][key] for pid in pids], ncols)

    def grad_rows(pids):
        return _block_csr([tabs[pid][key] for key in ("dx", "dy") for pid in pids], ndof)

    N = patch_rows("N")
    w = np.concatenate(w_all)
    qlabel = np.concatenate(lab_all)
    design_mask = qlabel == "design"

    design = [pid for pid, label in enumerate(model.labels) if label == "design"]
    Gd = grad_rows(design)
    bulk = DesignRows(
        w=w[design_mask], labels=qlabel[design_mask],
        D=patch_rows("D", design, m) if basis is not None else None, At=Gd.T.tocsr(), B=Gd,
        kappa=_region_values(qlabel[design_mask], model.kappa_regions),
    )
    region_K = {}
    for label in sorted(set(model.labels) - {"design"}):
        pids = [pid for pid, lab in enumerate(model.labels) if lab == label]
        G = grad_rows(pids)
        region_K[label] = _gram(G.T.tocsr(), G, np.tile(w[qlabel == label], 2))

    # strongly coupled patches share their interface dofs: no interface rows
    edges = [] if model.beta is None else [
        _build_edge(model, basis, pair, patch_dofs, ndof) for pair in model.interfaces]
    E = _stack([e.En for e in edges], ndof)
    side_w = [0.5 * e.w for e in edges] * 2
    side_D = [e.D1 for e in edges] + [e.D2 for e in edges]
    side_labels = np.repeat(np.array([e.region_a for e in edges] + [e.region_b for e in edges],
                                     dtype="<U8"), [ws.size for ws in side_w])
    sides = DesignRows(
        w=np.concatenate([np.zeros(0)] + side_w), labels=side_labels,
        D=None if basis is None else _stack(
            [Ds if Ds is not None else sp.csr_matrix((ws.size, m)) for ws, Ds in zip(side_w, side_D)], m),
        At=sp.vstack([E, E]).T.tocsr(),
        B=_stack([e.G1n for e in edges] + [e.G2n for e in edges], ndof),
        kappa=_region_values(side_labels, model.kappa_regions),
    )
    Ks = _gram(E.T.tocsr(), E, np.concatenate([np.zeros(0)] + [e.w * model.beta for e in edges]))

    dir_map: dict[int, float] = {}
    for bc in model.boundaries:  # insulated edges contribute nothing
        if bc.kind == "dirichlet":
            for dof in patch_dofs[bc.patch][edge_flat_indices(model.patches[bc.patch], bc.edge)]:
                prev = dir_map.setdefault(int(dof), bc.value)
                if prev != bc.value:
                    raise ModelError(f"conflicting Dirichlet values at dof {dof}")

    dirichlet_idx = np.array(sorted(dir_map), dtype=int)
    dirichlet_val = np.array([dir_map[i] for i in dirichlet_idx])
    free = np.setdiff1d(np.arange(ndof), dirichlet_idx)

    return Discretization(
        model=model,
        basis=basis,
        ndof=ndof,
        patch_dofs=patch_dofs,
        w=w,
        phys=np.concatenate(phys_all),
        qlabel=qlabel,
        N=N,
        bulk=bulk,
        region_K=region_K,
        edges=edges,
        E=E,
        sides=sides,
        Ks=Ks,
        dirichlet_idx=dirichlet_idx,
        dirichlet_val=dirichlet_val,
        free=free,
        trivial=MirrorGroup([], Orbits.identity(ndof), Orbits.identity(w.size), Orbits.identity(m)),
    )


def _number_dofs(model: MultiPatchModel) -> tuple[int, list[np.ndarray]]:
    """Dof count and each patch's dof per flat control index.

    Control points are numbered patch after patch; with `model.beta` null
    the two sides of every interface pair are merged into one dof (the
    connected components of the pairs, numbered in the order of their
    lowest index), so the explicit-beta numbering is the plain one.
    """
    offsets = np.cumsum([0] + [p.n_ctrl for p in model.patches])
    pairs = []
    if model.beta is None:
        pairs += [itf.pairs + offsets[[itf.patch_a, itf.patch_b]] for itf in model.interfaces]
    dofs = orbits(int(offsets[-1]), pairs)
    return dofs.count, np.split(dofs.index, offsets[1:-1])


def _build_edge(model, basis, pair: InterfacePair, patch_dofs, ndof) -> EdgeQuad:
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

    def scatter(tab, pid, data):
        rows = np.repeat(np.arange(ne), tab.indices.shape[1])
        cols = patch_dofs[pid][tab.indices].ravel()
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
        w=gw * ds,
        En=(Na - Nb).tocsr(),
        G1n=G1n,
        G2n=G2n,
        region_a=model.labels[pair.patch_a],
        region_b=model.labels[pair.patch_b],
        D1=design_rows(pair.patch_a, ta, pair.edge_a),
        D2=design_rows(pair.patch_b, tb, pair.edge_b),
    )


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


def _region_values(labels: np.ndarray, kappa_regions: dict) -> np.ndarray:
    """Each point's conductivity from its region's entry; NaN without one."""
    kappa = np.full(labels.size, np.nan)
    for label, val in kappa_regions.items():
        kappa[labels == label] = val
    return kappa


def _kappa_points(disc, rows: DesignRows, field, sp_, override, phi=None) -> np.ndarray:
    """Conductivity at each point of `rows`: the override or the region's
    own value, else (on the design) the smoothed material of the field,
    read from `phi` (the field at every point of `rows`) where given."""
    kappa = rows.kappa.copy()
    for label, val in (override or {}).items():
        kappa[rows.labels == label] = val
    todo = np.isnan(kappa)
    if np.any(todo & rows.off_design):
        raise AssemblyError("missing conductivity for a non-design region")
    if np.any(todo):
        if field is None:
            raise AssemblyError("design region requires a field or an override")
        if phi is None:
            phi = rows.D @ field.coeffs
        kappa[todo] = kappa_at(phi[todo], disc.model.design_pair, sp_)
    return kappa


def assemble_system(
    disc: Discretization,
    field: DesignField | None = None,
    sp_: SmoothingParams | None = None,
    override: dict | None = None,
):
    """Full stiffness K = K_b + K_n + K_n^T + K_s.

    Only the design-region rows of K_b and the interface term K_n follow
    the field; the rest is the mesh's fixed sum (K_s included), rescaled
    under `override`.  K_n is one weighted product over the stacked
    interface points, zero under strong coupling.
    """
    sides, bulk = disc.sides, disc.bulk
    Kn = -_gram(sides.At, sides.B, sides.w * _kappa_points(disc, sides, field, sp_, override))
    K = _fixed_matrix(disc.model, disc.region_K, disc.Ks, override or {})
    kappa = _kappa_points(disc, bulk, field, sp_, override)
    # an all-zero design product is skipped where K holds no entries (the
    # sum would drop them all); next to fixed entries it stays, since
    # scipy's sum of unsorted rows emits each row in another order with it
    # than without, and the split sums its rows in that order
    if K.nnz or np.any(kappa):
        K = K + _gram(bulk.At, bulk.B, np.tile(bulk.w * kappa, 2))
    return (K + (Kn + Kn.T)).tocsr()


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MirrorGroup:
    """The mirrors among x -> -x and y -> -y that a mesh, its design net
    and its Dirichlet data all respect, by their orbits: of the dofs, of
    the quadrature points and of the design coefficients (with coincident
    control points, multi-patch seams, in one orbit).  With no `mirrors`
    it is the trivial group, whose orbits are the identity partitions.
    Groups compare (and key a mesh's splits) by identity.
    """

    mirrors: list
    dofs: Orbits
    quad: Orbits
    net: Orbits

    def acts_on(self, field) -> bool:
        """Whether a solve of `field` may run on the orbits: its
        coefficients are exactly equal on every orbit of the net (always
        so on the trivial group)."""
        return field is None or self.net.invariant(field.coeffs)


# rows of an operator at the points' mirror images must match to this, relative
_ROW_TOL = 1e-12


def _permutes(images: np.ndarray) -> bool:
    """Whether an image map of points onto themselves is a permutation."""
    return bool(np.all(np.bincount(images, minlength=images.size) == 1))


def _move_columns(A: sp.csr_matrix, to: np.ndarray, ncols: int) -> sp.csr_matrix:
    """A with its column k moved to column to[k]: A @ P, P[k, to[k]] = 1.
    Entries of one row that meet are left as duplicates, which sparse sums
    and differences add."""
    return sp.csr_matrix((A.data, to[A.indices], A.indptr), shape=(A.shape[0], ncols))


def _largest(A: sp.spmatrix) -> float:
    return float(np.abs(A.data).max(initial=0.0))


def _design_side(disc: Discretization) -> np.ndarray:
    """Per free dof, whether it is in T: a column of the design-region
    rows or, under an explicit beta, of either operator at the
    design-labelled interface points.  Every free dof where no such row
    exists (S is then K_ff)."""
    touched = np.zeros(disc.ndof, dtype=bool)
    touched[disc.bulk.B.indices] = True
    on_design = ~disc.sides.off_design
    if np.any(on_design):
        touched[disc.sides.At[:, on_design].tocoo().row] = True
        touched[disc.sides.B[on_design].indices] = True
    in_T = touched[disc.free]
    if not np.any(in_T):
        in_T[:] = True
    return in_T


def _find_group(disc: Discretization) -> MirrorGroup:
    """The mirrors of MIRRORS (about the origin) that map the mesh onto
    itself.  A mirror must map the dof control points, the quadrature
    points (with their labels and weights) and the design net each onto
    themselves, each image map a permutation (`levelset.mirror_images`
    matches them by one sort, without a search tree); keep every dof's
    Dirichlet value, or its being free and in T or I, exactly; map the
    solution basis onto itself (its rows at the points' images, with the
    dofs moved to their images, equal its rows); and map
    invariant designs onto invariant conductivities (the design-basis rows
    at the points' images, summed over each orbit of the net, equal the
    rows so summed).  Under an explicit beta the group is trivial (see the
    module docstring)."""
    model, basis, bulk = disc.model, disc.basis, disc.bulk
    if model.beta is not None:
        return disc.trivial
    dof_pts = np.empty((disc.ndof, 2))
    for patch, dofs in zip(model.patches, disc.patch_dofs):
        dof_pts[dofs] = patch.control_points.reshape(-1, 2)
    # per dof: Dirichlet or not, its value, in T or not
    dof_tag = np.zeros((disc.ndof, 3))
    dof_tag[disc.dirichlet_idx, 0] = 1.0
    dof_tag[disc.dirichlet_idx, 1] = disc.dirichlet_val
    dof_tag[disc.free[_design_side(disc)], 2] = 1.0
    design = np.flatnonzero(disc.qlabel == "design")  # the rows of bulk, in order
    at_bulk = np.full(disc.w.size, -1)
    at_bulk[design] = np.arange(design.size)
    candidates = zip(MIRRORS, mirror_images(dof_pts), mirror_images(disc.phys),
                     [None] * len(MIRRORS) if basis is None else
                     mirror_images(basis.control_points))
    mirrors, dof_images, quad_images, net_images = [], [], [], []
    for refl, p, s, d in candidates:
        if p is None or s is None or not (_permutes(p) and _permutes(s)):
            continue
        if not (np.array_equal(dof_tag[p], dof_tag) and np.array_equal(disc.qlabel[s], disc.qlabel)):
            continue
        if (np.abs(disc.w[s] - disc.w).max() > _ROW_TOL * np.abs(disc.w).max()
                or _largest(_move_columns(disc.N[s], p, disc.ndof) - disc.N)
                > _ROW_TOL * _largest(disc.N)):
            continue
        if basis is not None:
            if d is None:
                continue
            net = net_orbits(basis.control_points, [d])
            Dn = _move_columns(bulk.D, net.index, net.count)
            if _largest(Dn[at_bulk[s[design]]] - Dn) > _ROW_TOL * _largest(bulk.D):
                continue
            net_images.append(d)
        mirrors.append(refl)
        dof_images.append(np.column_stack([np.arange(p.size), p]))
        quad_images.append(np.column_stack([np.arange(s.size), s]))
    if not mirrors:
        return disc.trivial
    return MirrorGroup(
        mirrors=mirrors, dofs=orbits(disc.ndof, dof_images), quad=orbits(disc.w.size, quad_images),
        net=disc.trivial.net if basis is None else net_orbits(basis.control_points, net_images),
    )


def _mirror_group(disc: Discretization) -> MirrorGroup:
    """The mesh's mirror group, found by its first solve without an override."""
    if disc.group is None:
        disc.group = _find_group(disc)
    return disc.group


@dataclass
class Substructure:
    """The free dofs split into T, every dof a field-dependent row touches,
    and I, the rest, with everything the field does not move built once
    per mesh.

    Field-dependent rows couple T only to T, so K_II, K_IT, K_TI and
    W = K_TI K_II^-1 K_IT do not change during a run, nor do the fixed
    regions' parts of S = K_TT - W and of the condensed state load.  S's
    data is that fixed part plus, per kind of field-dependent point, a map
    applied to weight times conductivity at one point per orbit of those
    points under `group` (the map's column of an orbit holds that point's
    entries times the orbit's size, which are the orbit's entries summed on
    S's rows).  S's rows are the orbits of T's dofs under `group`
    (`orbits`): S is E^T (K_TT - W) E, E the 0/1 matrix of T's orbits.  On
    the trivial group every orbit is one dof or one point.  S's rows are
    numbered in the Cuthill-McKee order of its pattern (`_band_order`), so
    S is banded with half-bandwidth `kd`, and T is sorted by its row;
    `entries` and `band` place S's entries into LAPACK's band storage (see
    `_band_index`).  I is eliminated on its orbits under `group`
    (`I_orbits`, E_I their 0/1 matrix): K_II's factor is that of
    E_I^T K_II E_I, and W = E^T K_TI E_I Z, with Z on the columns of
    E_I^T K_IT E holding entries.  I may be empty (an all-design mesh): S is
    then E^T K_ff E.  The rows of N and of the design region's operators
    at the lowest point of each orbit serve `at_quadrature`,
    `objectives.eval_main`, the adjoint load (`Nt`) and
    `sensitivity_contraction`.  A one-off split under an override, on the
    trivial group, orders the free dofs the same way and has no maps; its
    point rows are the mesh's own.
    """

    group: MirrorGroup
    T: np.ndarray  # positions in `free`
    orbits: Orbits  # S's row of each T entry
    I: np.ndarray
    S: sp.csc_matrix  # S's fixed pattern, holding its fixed part
    kd: int  # S's half-bandwidth
    entries: np.ndarray  # positions in S.data of the entries on and above the diagonal
    band: np.ndarray  # their positions in the lower band storage
    g: np.ndarray  # the fixed part of the condensed state load
    # at one representative point per orbit of `group.quad`: the rows of
    # disc.N, and the design-region rows (bulk) with D^T summed onto their
    # orbits, one column per orbit (Dt)
    N: sp.csr_matrix
    bulk: DesignRows
    Dt: sp.spmatrix | None
    # per kind of field-dependent point: (its rows at one point per orbit,
    # the map onto S's data and the map onto the state load's rows, each
    # with one column per orbit)
    maps: list = dc_field(default_factory=list)
    # the rest only when I is non-empty, on I's orbits under `group` (E_I
    # their 0/1 matrix; the identity on the trivial group)
    lu_II: object = None  # SuperLU factor of E_I^T K_II E_I
    K_TI: sp.csr_matrix | None = None  # K_TI E_I, T's rows sorted like T
    I_orbits: Orbits | None = None  # the orbit of each I entry: its row of lu_II
    rim: np.ndarray | None = None  # S's rows whose columns of K_IT E_T hold entries
    Z: np.ndarray | None = None  # lu_II^-1 E_I^T K_IT E_T[:, rim], dense, Fortran-ordered
    y_I: np.ndarray | None = None  # lu_II^-1 E_I^T b_I for the mesh's Dirichlet data

    @cached_property
    def Nt(self) -> sp.csr_matrix:
        """N^T in CSR, built by the split's first adjoint solve: the
        adjoint load is Nt times one weighted value per orbit."""
        return self.N.T.tocsr()


_SINGULAR_HINT = "suspected untagged boundary or missing Dirichlet data"


def _splu(A):
    # K_ff, and so K_II, is symmetric positive definite: diagonal pivots
    # are stable, and the fill-reducing ordering is that of A + A^T
    try:
        return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"singular stiffness system ({_SINGULAR_HINT}): {exc}") from exc


def _band_order(P: sp.csr_matrix) -> np.ndarray:
    """The rows of the symmetric pattern of P (CSR) in Cuthill-McKee order
    (Cuthill & McKee, ACM 1969), in which it is narrowly banded, grown from
    a whole level of a level structure rather than from one node.

    scipy's `reverse_cuthill_mckee` starts each component at its node of
    lowest degree.  The levels around one node are shells that span the
    cross-section of a strip only some levels on, and on a ring they then
    run round both arms at once: the annulus's full ring took kd 243.  The
    last level of a breadth-first search from that node is a cross-section
    (Gibbs, Poole & Stockmeyer, SIAM J. Numer. Anal. 13, 1976, start from
    the same level structure), and grown from it the ring takes kd 132.
    Two extra nodes make scipy start there: a leaf, the only node of
    degree 1, and its neighbour, joined to every node of that level.  The
    order is scipy's reversed, which has the same band; in it the
    camouflage's orbit split stays well inside the roundoff floor of
    tests/test_objectives.py::TestSymmetricEvaluation, which the reverse
    order exceeds on one gradient.
    """
    n, degree = P.shape[0], np.diff(P.indptr)
    edges = sp.csr_matrix((np.ones(P.nnz), P.indices, P.indptr), shape=P.shape)
    depth = shortest_path(edges, unweighted=True, indices=int(np.argmin(degree)))
    last = np.flatnonzero(depth == depth[np.isfinite(depth)].max())
    hub = np.full(last.size, n + 1)
    rows = np.concatenate([np.repeat(np.arange(n), degree), [n, n + 1], hub, last])
    cols = np.concatenate([P.indices, [n + 1, n], last, hub])
    order = reverse_cuthill_mckee(sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                                shape=(n + 2, n + 2)))[::-1]
    return order[order < n]


def _band_index(S: sp.csc_matrix):
    """S's half-bandwidth kd, the positions in S.data of its entries on and
    above the diagonal, and their flat positions in LAPACK's lower band
    storage (George & Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981, ch. 4): a Fortran-ordered (kd + 1, n) array
    holding L[i, j] at [i - j, j], flat i + j kd.

    S is symmetric (W = K_TI Z to roundoff), so its column i is its row i
    and the entries S[j, i], j <= i, serve as L[i, j].  Filled from S's
    lower triangle instead, the camouflage's orbit split exceeds the
    roundoff floor of tests/test_objectives.py::TestSymmetricEvaluation on
    one gradient.  Upper storage stays inside it too, but on 2 threads
    (OpenBLAS 0.3.30) it factored three to five times slower for kd 24-60.
    """
    rows = np.repeat(np.arange(S.shape[1]), np.diff(S.indptr))  # S's columns as rows
    cols = S.indices
    kd = int(np.max(rows - cols, initial=0))
    entries = np.flatnonzero(rows >= cols)
    return kd, entries, rows[entries] + cols[entries] * kd


def _pair_products(pairs: list):
    """The products A[r, i] B[r, j] of every entry of row r of A with every
    entry of row r of B, summed over `pairs` of CSR operators that share
    the first pair's pattern, one run of consecutive rows with the same
    entry counts at a time: yields the run's rows (R,), their columns of A
    (R, ka) and of B (R, kb), and the products (R, ka, kb), A's entries
    outer and B's inner.

    Each run is broadcast: on a patch every row has the same counts, so
    the annulus takes one run, with no per-product index arithmetic.
    """
    A, B = pairs[0]
    na, nb = np.diff(A.indptr), np.diff(B.indptr)
    runs = np.flatnonzero((np.diff(na) != 0) | (np.diff(nb) != 0)) + 1
    for lo, hi in zip(np.r_[0, runs], np.r_[runs, na.size]):
        if lo == hi:  # an operator with no rows
            continue
        a = A.indptr[lo:hi, None] + np.arange(na[lo])  # (rows, ka) entries of A
        b = B.indptr[lo:hi, None] + np.arange(nb[lo])
        v = A.data[a][:, :, None] * B.data[b][:, None, :]
        for A_, B_ in pairs[1:]:
            v += A_.data[a][:, :, None] * B_.data[b][:, None, :]
        yield np.arange(lo, hi), A.indices[a], B.indices[b], v


def _point_entries(disc: Discretization, bulk: DesignRows, sizes: np.ndarray):
    """The stiffness entries of the field-dependent points at unit weight
    times conductivity: per kind of point, yielded in turn, the points'
    rows and their blocks from `_pair_products`, (row of `rows`, dofs i,
    dofs j, values).  The design region's points are `bulk`, one point per
    quadrature orbit, whose entries are scaled by the orbit's size
    (`sizes`); every design-side interface point is its own orbit.

    A design-region point adds (B_x,i B_x,j + B_y,i B_y,j) to K_ij; the x
    and y gradient rows of one point share their columns.  A design-side
    interface point adds -(A_i B_j) to K_ij and to K_ji, with A its jump row.
    An image of a point under the group adds the point's entries with both
    dofs mirrored, which lie on the same orbits of the dofs: so the point's
    entries, times its orbit's size, are the orbit's on S's rows.
    """
    nq = bulk.w.size
    Bx, By = bulk.B[:nq], bulk.B[nq:]
    yield bulk, [(r, i, j, v * sizes[r][:, None, None])
                 for r, i, j, v in _pair_products([(Bx, Bx), (By, By)])]
    sides = disc.sides
    pts = np.flatnonzero(~sides.off_design)
    if pts.size:
        blocks = list(_pair_products([(sides.At.T.tocsr()[pts], sides.B[pts])]))
        yield sides.take(pts), ([(r, i, j, -v) for r, i, j, v in blocks]
                                + [(r, j, i, -v.transpose(0, 2, 1)) for r, i, j, v in blocks])


def _blocks_csr(blocks: list, shape) -> sp.csr_matrix:
    """The CSR matrix of (values, rows, columns) blocks, duplicates summed
    (a single block, as on one patch, is not copied)."""
    if not blocks:
        return sp.csr_matrix(shape)
    v, i, j = (x[0] if len(x) == 1 else np.concatenate(x) for x in zip(*blocks))
    return sp.csr_matrix((v, (i, j)), shape=shape)


def _unique_rows(X: np.ndarray):
    """The distinct rows of an integer array and each row's index among
    them: np.unique(X, axis=0, return_inverse=True) by one lexsort."""
    order = np.lexsort(X.T[::-1])
    X = X[order]
    new = np.r_[True, np.any(X[1:] != X[:-1], axis=1)]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return X[new], inverse


def _point_families(disc: Discretization, bulk: DesignRows, sizes: np.ndarray,
                    pos: np.ndarray, n: int, keys: list):
    """The field-dependent points' entries (`_point_entries`) on S's rows,
    one kind of point at a time.  `pos` is each dof's row of S, -1 off T.

    Rows of one block with the same columns (the points of one element)
    have their entries at the same positions in S, so those are worked out
    once per distinct column pattern: appends to `keys` the keys row * n +
    column of each pattern's entries in S, and returns per kind (rows,
    blocks).  Per block: the rows of `rows`, each row's pattern and the
    values, as `_point_entries` gives them; and per pattern, which entries
    lie in S, the rows of S of its i dofs, the Dirichlet values of its j
    dofs and which entries' columns move to the load.
    """
    dval = np.zeros(disc.ndof)
    dval[disc.dirichlet_idx] = disc.dirichlet_val
    is_dir = np.zeros(disc.ndof, dtype=bool)
    is_dir[disc.dirichlet_idx] = True
    families = []
    for rows, blocks in _point_entries(disc, bulk, sizes):
        out = []
        for r, i, j, v in blocks:
            cols, pattern = _unique_rows(np.hstack([i, j]))
            i, j = cols[:, :i.shape[1]], cols[:, i.shape[1]:]
            pi, pj = pos[i], pos[j]
            in_S = (pi >= 0)[:, :, None] & (pj >= 0)[:, None, :]
            to_b = (pi >= 0)[:, :, None] & is_dir[j][:, None, :]  # Dirichlet columns: the load
            keys.append((pi[:, :, None] * n + pj[:, None, :])[in_S])
            out.append((r, pattern, v, in_S, pi, dval[j], to_b))
        families.append((rows, out))
    return families


def _substructure(disc: Discretization, group: MirrorGroup) -> Substructure:
    """The mesh's split on the orbits of `group` (the trivial group or the
    mesh's own), built by the first solve that asks for it."""
    if group not in disc.splits:
        in_T = _design_side(disc)
        disc.splits[group] = _condense(disc, group, np.flatnonzero(in_T), np.flatnonzero(~in_T))
    return disc.splits[group]


def _condense(disc: Discretization, group: MirrorGroup, T: np.ndarray,
              I: np.ndarray) -> Substructure:
    """Eliminate I once and build S's pattern, fixed part and maps and the
    condensed state load; where I is non-empty, factor K_II and form Z and
    W first, on I's orbits under `group`.  S's rows are the orbits of T's
    dofs under `group`, and every entry of S and row of a load is summed
    onto its orbit.  The maps are built at one point per orbit of the
    design rows, its lowest, with its entries scaled by the orbit's size
    (`_point_entries`): exact under the symmetry `_find_group` verifies,
    and on the trivial group every point.

    The fixed entries are those of K assembled with the design at zero
    conductivity.  W takes one K_II solve per orbit of the columns of K_IT
    that hold entries, and the state load one more.  S's rows are
    numbered in the Cuthill-McKee order of its pattern (`_band_order`),
    which does not depend on the values and makes S narrowly banded.
    """
    free = disc.free
    Kf = assemble_system(disc, override={"design": 0.0})[free]
    Kff = Kf[:, free]
    K_T = Kff[T]
    K_TT = K_T[:, T].tocoo()
    b = -(Kf[:, disc.dirichlet_idx] @ disc.dirichlet_val)
    g = b[T]
    # each T position's row of S before its ordering: its orbit
    ids, row = np.unique(group.dofs.index[free[T]], return_inverse=True)
    n = ids.size
    # S's fixed entries (K_TT, then -W) and every point's, in those rows, as
    # keys row * n + column
    keys, fixed_vals = [row[K_TT.row] * n + row[K_TT.col]], [K_TT.data]
    lu_II = K_TI = at_I = rim = Z = y_I = None
    if I.size:
        # I on its orbits: every load that reaches K_II is invariant, and
        # K_II^-1 maps invariant vectors to invariant ones, so x_I = E_I z
        # with (E_I^T K_II E_I) z = E_I^T b_I, E_I the 0/1 matrix of I's
        # orbits (the identity on the trivial group)
        at_I = group.dofs.restrict(free[I])
        K_I = Kff[I]
        K_IT, K_TI = K_I[:, T].tocoo(), _move_columns(K_T[:, I], at_I.index, at_I.count)
        K_II = K_I[:, I].tocoo()
        lu_II = _splu(sp.csc_matrix((K_II.data, (at_I.index[K_II.row], at_I.index[K_II.col])),
                                    shape=(at_I.count, at_I.count)))
        # Z on the columns where K_IT holds entries, summed onto T's orbits
        # (S's rows before their ordering) and I's
        rim = np.unique(row[K_IT.col])
        Z = np.asfortranarray(lu_II.solve(sp.coo_matrix(
            (K_IT.data, (at_I.index[K_IT.row], np.searchsorted(rim, row[K_IT.col]))),
            shape=(at_I.count, rim.size)).toarray()))
        y_I = lu_II.solve(at_I.reduce(b[I]))
        g = g - K_TI @ y_I
        coupled = np.flatnonzero(np.diff(K_TI.indptr))  # the rows of W
        W = K_TI[coupled] @ Z
        wi, wj = np.nonzero(W)  # regions of I that K_II does not connect give zero blocks
        keys.append(row[coupled[wi]] * n + rim[wj])
        fixed_vals.append(-W[wi, wj])
    fixed_vals = np.concatenate(fixed_vals)
    n_fixed = fixed_vals.size
    pos = np.full(disc.ndof, -1)
    pos[free[T]] = row
    # the design rows' orbits, and those rows at the lowest point of each
    # with the orbit's mean weight (an orbit's weights agree to roundoff,
    # and on the trivial group the mean is the weight itself)
    at_design = group.quad.restrict(np.flatnonzero(disc.qlabel == "design"))
    bulk = disc.bulk.take(at_design.lowest)
    bulk.w = at_design.means(disc.bulk.w)
    families = _point_families(disc, bulk, at_design.sizes, pos, n, keys)
    keys, entry = np.unique(np.concatenate(keys), return_inverse=True)
    nnz = keys.size
    # the keys are sorted row-major: they are S's pattern in CSR
    q = _band_order(sp.csr_matrix(
        (np.ones(nnz), keys % n, np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n)))
    p = np.argsort(q)  # row -> elimination step
    # renumber the rows by elimination step and store S in CSC order
    csc_keys = p[keys % n] * n + p[keys // n]  # column-major
    order = np.argsort(csc_keys)
    rank = np.empty(nnz, dtype=int)
    rank[order] = np.arange(nnz)
    entry = rank[entry]
    csc_keys = csc_keys[order]
    indptr = np.searchsorted(csc_keys, np.arange(n + 1) * n)
    # on an all-design mesh under strong coupling the fixed part is empty,
    # and bincount of nothing returns integers
    fixed = np.bincount(entry[:n_fixed], fixed_vals, nnz).astype(float, copy=False)
    # D^T summed onto the design rows' orbits: D's rows orbit after orbit
    # are its columns, summed in CSC and stored as CSR
    Dt, D = None, disc.bulk.D
    if D is not None:
        Dm = D[np.argsort(at_design.index, kind="stable")]
        Dt = sp.csc_matrix((Dm.data, Dm.indices, Dm.indptr[np.r_[0, np.cumsum(at_design.sizes)]]),
                           shape=(D.shape[1], at_design.count))
        Dt.sum_duplicates()
        Dt = Dt.tocsr()
    # one map column per point of `rows`: a representative point, whose
    # entries stand for its whole orbit; each entry's position in S is its
    # column pattern's
    maps, start = [], n_fixed
    for rows, blocks in families:
        M, Mb = [], []
        for r, pattern, v, in_S, pi, dv, to_b in blocks:
            k, at = np.count_nonzero(in_S), np.full(in_S.shape, -1)
            at[in_S] = entry[start:start + k]
            start += k
            use = in_S[pattern]
            M.append((v[use], at[pattern][use], np.broadcast_to(r[:, None, None], v.shape)[use]))
            # the rows next to a Dirichlet dof, few
            near = np.flatnonzero(to_b.any(axis=(1, 2))[pattern])
            use, pat = to_b[pattern[near]], pattern[near]
            Mb.append((-v[near][use] * np.broadcast_to(dv[pat][:, None, :], use.shape)[use],
                       p[np.broadcast_to(pi[pat][:, :, None], use.shape)[use]],
                       np.broadcast_to(r[near][:, None, None], use.shape)[use]))
        maps.append((rows, _blocks_csr(M, (nnz, rows.w.size)), _blocks_csr(Mb, (n, rows.w.size))))
    # sort T by its rows' steps (T's own order is the steps themselves)
    step = p[row]
    by_step = np.argsort(step, kind="stable")
    S = sp.csc_matrix((fixed, csc_keys % n, indptr), shape=(n, n))
    kd, entries, band = _band_index(S)
    return Substructure(
        group=group, T=T[by_step], orbits=Orbits(step[by_step], n), I=I,
        S=S, kd=kd, entries=entries, band=band, g=np.bincount(row, g, n)[q],
        N=disc.N[group.quad.lowest], bulk=bulk, Dt=Dt, maps=maps,
        lu_II=lu_II, K_TI=None if K_TI is None else K_TI[by_step], I_orbits=at_I,
        rim=None if rim is None else p[rim], Z=Z, y_I=y_I,
    )


def _whole_split(disc: Discretization, K: sp.csr_matrix) -> Substructure:
    """A one-off split for a solve under an override, on the trivial group:
    T every free dof, in the Cuthill-McKee order of K_ff's pattern, I
    empty, S = K_ff with no maps; the mesh's own point rows."""
    Kf, D = K[disc.free], disc.bulk.D
    T = _band_order(Kf[:, disc.free])
    K_T = Kf[T]
    S = K_T[:, disc.free[T]].tocsc()
    kd, entries, band = _band_index(S)
    return Substructure(group=disc.trivial, T=T, orbits=Orbits.identity(T.size),
                        I=np.zeros(0, dtype=int), S=S, kd=kd, entries=entries, band=band,
                        g=-(K_T[:, disc.dirichlet_idx] @ disc.dirichlet_val),
                        N=disc.N, bulk=disc.bulk, Dt=None if D is None else D.T)


_EPS = np.finfo(float).eps


def _refined_solve(solve, A, abs_A, rhs: np.ndarray) -> np.ndarray:
    """A x = rhs with `solve`, a solve with a factor of A, refined
    iteratively, and guarded against a failed factorization."""
    abs_rhs = np.abs(rhs)

    def residual(x):
        r = rhs - A @ x
        denom = abs_A @ np.abs(x) + abs_rhs
        # componentwise backward error max |r| / (|A| |x| + |b|)
        berr = np.max(np.abs(r) / np.where(denom > 0.0, denom, 1.0), initial=0.0)
        return r, berr

    x = solve(rhs)
    r, berr = residual(x)
    # iterative refinement in working precision only while it helps (the
    # LAPACK xGERFS rule): sweep while the backward error is above eps and
    # the last sweep halved it, and keep a sweep only if it lowered it; near
    # float64 roundoff the residual is noise and a sweep would add error
    for _ in range(2):
        if berr <= _EPS:
            break
        x_new = x + solve(r)
        r_new, berr_new = residual(x_new)
        if not berr_new < berr:
            break
        x, r = x_new, r_new
        if berr_new > 0.5 * berr:
            break
        berr = berr_new
    res = np.linalg.norm(r)
    # normwise guard against a failed factorization: the residual is
    # measured against |A| |x| + |rhs| (|A|'s largest entry read off its
    # data, which holds no negative value)
    scale = np.linalg.norm(rhs) + np.max(abs_A.data, initial=0.0) * np.linalg.norm(x)
    if res > 1e-10 * max(scale, 1.0):
        raise SolverError(f"linear solve residual {res:.3e} exceeds tolerance")
    return x


def _band_cholesky(S: sp.csc_matrix, sub: Substructure, beta) -> np.ndarray:
    """The Cholesky factor L of S in LAPACK's lower band storage
    (`dpbtrf`), filled from S.data through the split's band index."""
    n = S.shape[0]
    ab = np.zeros(n * (sub.kd + 1))
    ab[sub.band] = S.data[sub.entries]
    factor, info = dpbtrf(ab.reshape(n, sub.kd + 1).T, lower=1, overwrite_ab=1)
    if info > 0:
        cause = _SINGULAR_HINT
        if beta is not None:
            cause += (f"; or the explicit beta {beta:g}, too far above the conductivities "
                      "for float64: couple strongly (model.beta null) or lower beta")
        raise SolverError("stiffness system not positive definite: its band Cholesky factor "
                          f"stops at pivot {info} of {n} ({cause})")
    return factor


class CondensedSystem:
    """K_ff condensed onto T for one design field: S assembled by the
    split's maps, from the conductivity at one point per orbit of the
    split's group, and factored by a banded Cholesky (LAPACK `dpbtrf`) in
    its Cuthill-McKee order.

    A load condenses to g_T = b_T - K_TI K_II^-1 b_I, S x_T = g_T is solved
    (`dpbtrs`) and refined on S alone, and x_I = K_II^-1 b_I - Z x_rim
    (BLAS `dgemv` on the Fortran-ordered Z, from scipy's BLAS like the band
    factor: numpy brings an OpenBLAS with a thread pool of its own, and a
    threaded call right after one in the other pool can stall).  The
    state's K_II^-1 b_I is the split's; another load costs one K_II solve,
    and none where I is empty.  A load is summed onto the orbits of the
    split's group, on T (S's rows) and on I (the rows of K_II's factor),
    and x_T and x_I are read out from them: the solve is that of the
    invariant load with the same orbit sums.  `solve` serves the state
    and the adjoint, which reuses the state's split and factor because K_ff
    is symmetric.  The field at the split's design rows (`phi`) is computed
    once, for the conductivity and for `sensitivity_contraction`; |S|, for
    the backward error, is filled into S's fixed pattern.  `nnz` counts the
    entries of both factors: S's band storage and K_II's SuperLU factor.
    """

    def __init__(self, disc: Discretization, sub: Substructure, field, sp_):
        self.disc, self.sub, self.field, self.sp_ = disc, sub, field, sp_
        # the field at the split's design rows, computed once: the
        # conductivity and `sensitivity_contraction` both read it
        self.phi = None if field is None or sub.bulk.D is None else sub.bulk.D @ field.coeffs
        data, self.g = sub.S.data.copy(), sub.g.copy()
        for rows, M, Mb in sub.maps:
            phi = self.phi if rows is sub.bulk else None
            s = rows.w * _kappa_points(disc, rows, field, sp_, None, phi)
            data += M @ s
            self.g += Mb @ s
        # S and |S| (for the backward error) on the split's fixed pattern
        self.S, self.abs_S = (sp.csc_matrix((v, sub.S.indices, sub.S.indptr), shape=sub.S.shape)
                              for v in (data, np.abs(data)))
        self.factor = _band_cholesky(self.S, sub, disc.model.beta)
        self.nnz = self.factor.size + (sub.lu_II.nnz if sub.I.size else 0)

    def _solve_S(self, rhs: np.ndarray) -> np.ndarray:
        return dpbtrs(self.factor, rhs, lower=1)[0]

    def solve(self, F: np.ndarray | None = None) -> np.ndarray:
        """All dofs of K x = F with zero Dirichlet data, or with no F the
        state: no load and the mesh's own Dirichlet values.

        F counts only through its sums over the orbits of the dofs under
        the split's group: the load solved for is the invariant one with
        those sums, F itself on the trivial group.  On T the sums are S's
        load, on I the load of K_II's factor."""
        disc, sub = self.disc, self.sub
        if F is None:
            y_I, g = sub.y_I, self.g
        else:
            b = F[disc.free]
            y_I, g = None, b[sub.T]
            if sub.I.size:
                y_I = sub.lu_II.solve(sub.I_orbits.reduce(b[sub.I]))
                g = g - sub.K_TI @ y_I
            g = sub.orbits.reduce(g)
        x_S = _refined_solve(self._solve_S, self.S, self.abs_S, g)
        x_f = np.empty(disc.free.size)
        x_f[sub.T] = sub.orbits.expand(x_S)
        if sub.I.size:
            x_f[sub.I] = sub.I_orbits.expand(dgemv(-1.0, sub.Z, x_S[sub.rim], 1.0, y_I))
        x = np.zeros(disc.ndof)
        x[disc.free] = x_f
        if F is None:
            x[disc.dirichlet_idx] = disc.dirichlet_val
        return x


@dataclass
class FieldSolution:
    """Solution coefficients plus the condensed system they were solved
    with, which holds S's band Cholesky factor."""

    disc: Discretization
    values: np.ndarray  # (ndof,)
    K: sp.spmatrix  # the matrix factored: S, which is K_ff where I is empty
    lu: CondensedSystem

    def at_quadrature(self):
        """The field at every quadrature point, evaluated at one point per
        orbit of the split's group and read out at the others, so exactly
        invariant; on the trivial group disc.N @ values."""
        sub = self.lu.sub
        return sub.group.quad.expand(sub.N @ self.values)


def solve_state(
    disc: Discretization,
    field: DesignField | None = None,
    sp_: SmoothingParams | None = None,
    override: dict | None = None,
) -> FieldSolution:
    """Solve the constrained conduction system condensed onto T: on the
    mesh's split on its mirror group's orbits where the group acts on the
    field, else on the trivial group's, or, under an override, on a
    one-off split of its own.  There is no applied flux; the load comes
    from the Dirichlet values alone."""
    if override:
        sub = _whole_split(disc, assemble_system(disc, field, sp_, override))
    else:
        group = _mirror_group(disc)
        sub = _substructure(disc, group if group.acts_on(field) else disc.trivial)
    lu = CondensedSystem(disc, sub, field, sp_)
    return FieldSolution(disc=disc, values=lu.solve(), K=lu.S, lu=lu)


def solve_adjoint(state: FieldSolution, load: np.ndarray) -> FieldSolution:
    """The adjoint for a load -dJ_b/dT given at one point per orbit of the
    quadrature points under the state's split's group, weights in (on the
    trivial group w * load at every point), with the system it was solved
    on (whose split `sensitivity_contraction` reads).

    Solves K^T P = N^T load with homogeneous Dirichlet data.  K_ff is
    symmetric, so this is a solve with the state's factors, on the state's
    split.  The load is formed from the rows of N at the representative
    points alone (`Substructure.Nt`): an image point's row is the
    representative's with its dofs mirrored, so the sums over the dofs'
    orbits, which are all the solve reads (`CondensedSystem.solve`), are
    the whole invariant load's.
    """
    lu = state.lu
    if np.shape(load) != (lu.sub.N.shape[0],):
        raise AssemblyError(f"adjoint load has shape {np.shape(load)}: the state's split takes "
                            f"one value per quadrature orbit, {lu.sub.N.shape[0]}")
    return FieldSolution(disc=state.disc, values=lu.solve(lu.sub.Nt @ load), K=lu.S, lu=lu)


def sensitivity_contraction(state: FieldSolution, adjoint: FieldSolution) -> np.ndarray:
    """P^T (dK/dPhi_i) T for every design coefficient i, with T the state's
    values, P the adjoint's, at the field they were solved for.

    Bulk term over the design-region points plus the differentiated
    Nitsche consistency terms at the stacked interface points on design
    sides; the jump penalty has no kappa dependence.  The bulk term is
    computed at one point per orbit of the group of the split both were
    solved on, where T and P are invariant, from the phi the state's
    conductivity read, and summed onto the coefficients through that
    split's orbit-summed D^T; on the trivial group at every point.
    """
    disc, sub, field, sp_ = adjoint.disc, adjoint.lu.sub, adjoint.lu.field, adjoint.lu.sp_
    if disc.basis is None:
        raise AssemblyError("discretization was built without a design basis")
    T, P = state.values, adjoint.values
    mats = disc.model.design_pair
    bulk, sides = sub.bulk, disc.sides
    # d(B^T diag(w kappa) B): (grad T . grad P) from the stacked x and y rows
    grads = (bulk.B @ T) * (bulk.B @ P)
    dk = dkappa_dphi(adjoint.lu.phi, mats, sp_)
    g = sub.Dt @ (bulk.w * dk * grads.reshape(2, -1).sum(axis=0))

    # d(K_n + K_n^T) with K_n = -A^T diag(w kappa) B, A = [E; E]
    on_design = ~sides.off_design
    if np.any(on_design):
        dk = np.where(on_design, dkappa_dphi(sides.D @ field.coeffs, mats, sp_), 0.0)
        ET, EP = np.tile(disc.E @ T, 2), np.tile(disc.E @ P, 2)
        g = g - sides.D.T @ (sides.w * dk * (EP * (sides.B @ T) + ET * (sides.B @ P)))
    return np.asarray(g).ravel()
