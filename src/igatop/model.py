"""Multi-patch problem geometries for the built-in heat-manipulator models.

Three families are provided: a two-material annular ring (whole domain is
designable), square plates with an embedded obstacle and an annular or
shaped design region (cloak), and a plate with two insulator sectors, a
conductive object, and a design band between them (camouflage).  Every
plate comes from one builder: a square core, then one ring of four
rational-quadratic quarter patches between each pair of consecutive loops
out to the plate's square.  Loops share one 4-quadrant structure with
straight or conic segments, so interface control nets match exactly.

Patch axis convention: u runs radially (inner to outer boundary of a
ring), v runs circumferentially (counterclockwise).  The square core patch
closing the center of a disk uses the circumferential role on both axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from igatop.errors import ConfigError, ModelError
from igatop.splines import KnotVector, NurbsPatch, degree_elevate, subdivide_spans

REGION_LABELS = ("inside", "design", "outside", "sector")

MATCH_TOL = 1e-10

_SQ2 = np.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class MaterialPair:
    """Conductivities of the two member materials inside a design region.

    kappa_pos applies where the level-set value is >= 0, kappa_neg where
    it is negative.
    """

    kappa_pos: float
    kappa_neg: float

    def __post_init__(self):
        if not (self.kappa_pos > 0 and self.kappa_neg > 0):
            raise ConfigError("member conductivities must be positive")


@dataclass(frozen=True)
class BoundaryTag:
    """Condition on one exterior patch edge."""

    patch: int
    edge: str  # 'u0' | 'u1' | 'v0' | 'v1'
    kind: str  # 'dirichlet' | 'insulated'
    value: float = 0.0  # T_D in K for dirichlet

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ConfigError(f"boundary value on edge ({self.patch}, {self.edge}) must be finite")


@dataclass
class InterfacePair:
    """Two patch edges coupled by matched control points."""

    patch_a: int
    edge_a: str
    patch_b: int
    edge_b: str
    reversed_: bool
    pairs: np.ndarray  # (n, 2) flat local control indices (side a, side b)


@dataclass
class MultiPatchModel:
    name: str
    patches: list[NurbsPatch]
    labels: list[str]
    roles: list[tuple[str, str]]  # per patch: (u role, v role), 'rad' or 'circ'
    interfaces: list[InterfacePair]
    boundaries: list[BoundaryTag]
    kappa_regions: dict[str, float]
    design_pair: MaterialPair
    beta: float | None = None  # absolute Nitsche penalty; None shares interface dofs

    def __post_init__(self):
        for label, k in self.kappa_regions.items():
            if not k > 0:
                raise ConfigError(f"conductivity of region {label!r} must be positive, got {k!r}")

    @property
    def design_patch_ids(self) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if lab == "design"]

    def diameter(self) -> float:
        pts = np.concatenate([p.control_points.reshape(-1, 2) for p in self.patches])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def validate(self):
        """Check edge coverage, tag disjointness, and interface matching."""
        seen: dict[tuple[int, str], str] = {}
        for bc in self.boundaries:
            key = (bc.patch, bc.edge)
            if key in seen:
                raise ModelError(f"edge {key} tagged twice")
            if bc.kind not in ("dirichlet", "insulated"):
                raise ModelError(f"unknown boundary kind {bc.kind!r}")
            seen[key] = "boundary"
        for itf in self.interfaces:
            for key in ((itf.patch_a, itf.edge_a), (itf.patch_b, itf.edge_b)):
                if key in seen:
                    raise ModelError(f"edge {key} used twice")
                seen[key] = "interface"
        for pid in range(len(self.patches)):
            for edge in ("u0", "u1", "v0", "v1"):
                if (pid, edge) not in seen:
                    raise ModelError(f"edge ({pid}, {edge}) is untagged")
        tol = MATCH_TOL * max(1.0, self.diameter())
        for itf in self.interfaces:
            _check_matched(self.patches[itf.patch_a], itf.edge_a,
                           self.patches[itf.patch_b], itf.edge_b, itf.reversed_, tol)
        for lab in self.labels:
            if lab not in REGION_LABELS:
                raise ModelError(f"unknown region label {lab!r}")
        return self

    def describe(self) -> dict:
        """Summary of the model suitable for config/run metadata files."""
        return {
            "name": self.name,
            "patches": len(self.patches),
            "labels": list(self.labels),
            "control_points": int(sum(p.n_ctrl for p in self.patches)),
            "interfaces": len(self.interfaces),
            "kappa_regions": dict(self.kappa_regions),
            "design_materials": [self.design_pair.kappa_pos, self.design_pair.kappa_neg],
            "beta": self.beta,
        }


def edge_flat_indices(patch: NurbsPatch, edge: str) -> np.ndarray:
    nu, nv = patch.shape
    if edge == "u0":
        return np.arange(nv)
    if edge == "u1":
        return (nu - 1) * nv + np.arange(nv)
    if edge == "v0":
        return np.arange(nu) * nv
    if edge == "v1":
        return np.arange(nu) * nv + nv - 1
    raise ModelError(f"unknown edge id {edge!r}")


def _edge_points(patch: NurbsPatch, edge: str) -> np.ndarray:
    return patch.control_points.reshape(-1, 2)[edge_flat_indices(patch, edge)]


def _check_matched(pa, ea, pb, eb, rev, tol):
    a = _edge_points(pa, ea)
    b = _edge_points(pb, eb)
    if a.shape != b.shape:
        raise ModelError("interface nets have different sizes")
    bb = b[::-1] if rev else b
    if np.max(np.abs(a - bb)) > tol:
        raise ModelError("interface control points do not coincide")


def match_edges(patches, pa, ea, pb, eb) -> InterfacePair:
    """Build an interface pair, detecting edge orientation automatically."""
    A = _edge_points(patches[pa], ea)
    B = _edge_points(patches[pb], eb)
    if A.shape != B.shape:
        raise ModelError(f"cannot pair edges ({pa},{ea})-({pb},{eb}): sizes differ")
    scale = max(1.0, float(np.max(np.abs(A))))
    ia = edge_flat_indices(patches[pa], ea)
    ib = edge_flat_indices(patches[pb], eb)
    if np.max(np.abs(A - B)) <= MATCH_TOL * scale:
        pairs = np.column_stack([ia, ib])
        return InterfacePair(pa, ea, pb, eb, False, pairs)
    if np.max(np.abs(A - B[::-1])) <= MATCH_TOL * scale:
        pairs = np.column_stack([ia, ib[::-1]])
        return InterfacePair(pa, ea, pb, eb, True, pairs)
    raise ModelError(f"edges ({pa},{ea}) and ({pb},{eb}) do not share a control net")


# ---------------------------------------------------------------------------
# loop and patch construction
# ---------------------------------------------------------------------------

_KV_LIN = KnotVector(np.array([0.0, 0, 1, 1]), 1)
_KV_CIRCLE = KnotVector(np.array([0.0, 0, 0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1, 1, 1]), 2)


def _quarter_knots(pieces: int) -> KnotVector:
    """Quadratic knot vector over [0, 1] with `pieces` Bezier segments."""
    interior = np.repeat(np.arange(1, pieces) / pieces, 2)
    return KnotVector(np.concatenate([[0.0, 0, 0], interior, [1.0, 1, 1]]), 2)


@dataclass(frozen=True)
class Loop:
    """Closed boundary curve as four quadrant pieces of rational quadratics.

    Quadrant k spans the polar sector [-45 + 90k, 45 + 90k] degrees; all
    quadrants share the same Bezier-piece structure so that rings built
    between two loops have aligned sectors and matched interface nets.
    """

    ctrl: np.ndarray  # (8 * pieces_per_quadrant ... full closed net, 2)
    weights: np.ndarray
    pieces: int  # Bezier pieces per quadrant

    @property
    def per_quarter(self) -> int:
        return 2 * self.pieces + 1

    def quarter(self, k: int):
        start = 2 * self.pieces * k
        sl = slice(start, start + self.per_quarter)
        return self.ctrl[sl], self.weights[sl]


def _conic_arc(mat: np.ndarray, t0: float, t1: float):
    """Rational-quadratic arc of the conic mat @ (cos t, sin t), t in (t0, t1).

    Returns the middle control point and weight; endpoint weights are 1.
    Requires t1 - t0 < pi.
    """
    dt = t1 - t0
    tm = 0.5 * (t0 + t1)
    w = np.cos(0.5 * dt)
    mid = np.array([np.cos(tm), np.sin(tm)]) / w
    return mat @ mid, w


def conic_loop(mat: np.ndarray, pieces: int = 1) -> Loop:
    """Closed loop tracing the affine image of the unit circle.

    Piece boundaries sit at the standard directions -45 + j * 90 / pieces
    degrees, matching quadrant sectors exactly even for rotated conics.
    """
    n_seg = 4 * pieces
    phis = np.deg2rad(-45.0 + 90.0 * np.arange(n_seg + 1) / pieces)
    minv = np.linalg.inv(mat)
    dirs = minv @ np.column_stack([np.cos(phis), np.sin(phis)]).T
    ts = np.unwrap(np.arctan2(dirs[1], dirs[0]))
    ctrl = np.empty((2 * n_seg + 1, 2))
    wts = np.ones(2 * n_seg + 1)
    for j in range(n_seg):
        ctrl[2 * j] = mat @ np.array([np.cos(ts[j]), np.sin(ts[j])])
        ctrl[2 * j + 1], wts[2 * j + 1] = _conic_arc(mat, ts[j], ts[j + 1])
    ctrl[-1] = mat @ np.array([np.cos(ts[-1]), np.sin(ts[-1])])
    return Loop(ctrl, wts, pieces)


def circle_loop(radius: float, pieces: int = 1) -> Loop:
    return conic_loop(radius * np.eye(2), pieces)


def ellipse_loop(semi_x: float, semi_y: float, angle_deg: float = 0.0, pieces: int = 1) -> Loop:
    a = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return conic_loop(rot @ np.diag([semi_x, semi_y]), pieces)


def polygon_loop(vertices: np.ndarray, pieces: int = 1) -> Loop:
    """Closed polygon with one side per quadrant.

    vertices: the four side endpoints in counterclockwise order starting
    from the quadrant-0/quadrant-3 boundary direction (-45 degrees).
    """
    ctrl_rows = []
    w_rows = []
    for k in range(4):
        a, b = vertices[k], vertices[(k + 1) % 4]
        seg = np.linspace(0.0, 1.0, 2 * pieces + 1)[:, None]
        pts = a + seg * (b - a)
        take = pts if k == 0 else pts[1:]
        ctrl_rows.append(take)
        w_rows.append(np.ones(len(take)))
    ctrl = np.concatenate(ctrl_rows)
    return Loop(ctrl, np.concatenate(w_rows), pieces)


def rect_loop(half_x: float, half_y: float, pieces: int = 1) -> Loop:
    hx, hy = half_x, half_y
    verts = np.array([[hx, -hy], [hx, hy], [-hx, hy], [-hx, -hy]])
    return polygon_loop(verts, pieces)


def square_loop(half: float, pieces: int = 1) -> Loop:
    return rect_loop(half, half, pieces)


def diamond_loop(half_diagonal: float) -> Loop:
    """Square rotated 45 degrees (vertices on the axes); two pieces per quadrant
    so each vertex falls on a piece boundary."""
    h = half_diagonal
    mids = np.array([[h / 2, -h / 2], [h / 2, h / 2], [-h / 2, h / 2], [-h / 2, -h / 2]])
    corners = np.array([[h, 0.0], [0.0, h], [-h, 0.0], [0.0, -h]])
    ctrl = [mids[0]]
    for k in range(4):
        a, c, b = mids[k], corners[k], mids[(k + 1) % 4]
        ctrl += [0.5 * (a + c), c, 0.5 * (c + b), b]
    return Loop(np.asarray(ctrl), np.ones(17), 2)


def ring_quarter_patches(inner: Loop, outer: Loop) -> list[NurbsPatch]:
    """Four sector patches between two loops (u radial, v circumferential)."""
    if inner.pieces != outer.pieces:
        raise ModelError("ring loops must share the same piece structure")
    kv_v = _quarter_knots(inner.pieces)
    patches = []
    for k in range(4):
        pi, wi = inner.quarter(k)
        po, wo = outer.quarter(k)
        patches.append(
            NurbsPatch(_KV_LIN, kv_v, np.stack([pi, po]), np.stack([wi, wo]))
        )
    return patches


def full_ring_patch(inner: Loop, outer: Loop) -> NurbsPatch:
    """One closed ring patch; circumferential seam at the loop start angle."""
    if inner.pieces != 1 or outer.pieces != 1:
        raise ModelError("full ring patches support one piece per quadrant")
    cps = np.stack([inner.ctrl, outer.ctrl])
    w = np.stack([inner.weights, outer.weights])
    return NurbsPatch(_KV_LIN, _KV_CIRCLE, cps, w)


def core_square_patch(half: float, pieces: int = 1) -> NurbsPatch:
    """Bi-quadratic square patch closing the center of a disk region."""
    kv = _quarter_knots(pieces)
    g = np.linspace(-half, half, 2 * pieces + 1)
    cps = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    return NurbsPatch(kv, kv, cps, np.ones((g.size, g.size)))


_CORE_EDGE_FOR_QUARTER = ("u1", "v1", "u0", "v0")


def _plate_model(name: str, loops: list[Loop], core_half: float, labels: list[str],
                 t_left: float, t_right: float, **regions) -> MultiPatchModel:
    """Square core of half-width `core_half`, then one ring of four quarter
    patches inside each loop (innermost first, the plate's square last).

    Interfaces run ring by ring: the four edges onto the ring inside (the
    core for the first ring), then the four radial edges between its
    quarters.  The plate's right and left edges are held at t_right and
    t_left, top and bottom insulated.  `regions` holds the model's
    conductivities and coupling fields.
    """
    loops = [square_loop(core_half, loops[0].pieces)] + loops
    patches = [core_square_patch(core_half, loops[0].pieces)]
    interfaces = []
    for inner, outer in zip(loops, loops[1:]):
        base = len(patches)
        patches += ring_quarter_patches(inner, outer)
        inside = ([(0, e) for e in _CORE_EDGE_FOR_QUARTER] if base == 1
                  else [(base - 4 + k, "u1") for k in range(4)])
        interfaces += [match_edges(patches, pid, edge, base + k, "u0")
                       for k, (pid, edge) in enumerate(inside)]
        interfaces += [match_edges(patches, base + k, "v1", base + (k + 1) % 4, "v0")
                       for k in range(4)]
    boundaries = [
        BoundaryTag(base, "u1", "dirichlet", t_right),
        BoundaryTag(base + 1, "u1", "insulated"),
        BoundaryTag(base + 2, "u1", "dirichlet", t_left),
        BoundaryTag(base + 3, "u1", "insulated"),
    ]
    roles = [("circ", "circ")] + [("rad", "circ")] * (len(patches) - 1)
    return MultiPatchModel(name=name, patches=patches, labels=labels, roles=roles,
                           interfaces=interfaces, boundaries=boundaries, **regions).validate()


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def build_annulus(
    r_inner: float = 1.0,
    r_outer: float = 2.0,
    t_inner: float = 0.0,
    t_outer: float = 100.0,
    kappa_pos: float = 10.0,
    kappa_neg: float = 100.0,
    beta: float | None = None,
) -> MultiPatchModel:
    """Annular ring, entirely designable, Dirichlet values on both circles.

    The level-set convention pairs kappa_pos with the region outside the
    material interface when the field is initialized as r - r_interface,
    matching the benchmark layout (kappa 100 inside, 10 outside).
    """
    if not 0 < r_inner < r_outer:
        raise ConfigError("need 0 < r_inner < r_outer")
    patch = full_ring_patch(circle_loop(r_inner), circle_loop(r_outer))
    patches = [patch]
    model = MultiPatchModel(
        name="annulus",
        patches=patches,
        labels=["design"],
        roles=[("rad", "circ")],
        interfaces=[match_edges(patches, 0, "v0", 0, "v1")],
        boundaries=[
            BoundaryTag(0, "u0", "dirichlet", t_inner),
            BoundaryTag(0, "u1", "dirichlet", t_outer),
        ],
        kappa_regions={},
        design_pair=MaterialPair(kappa_pos, kappa_neg),
        beta=beta,
    )
    return model.validate()


#: Obstacle / cloak boundary loops per configuration, dimensions in mm.
#: Shapes and proportions follow the published schematics; exact values are
#: read off figure annotations and kept as documented defaults here.
CLOAK_CONFIGS = {
    "circular": dict(obstacle=("circle", 20.0), cloak=("circle", 50.0)),
    "I": dict(obstacle=("square", 20.0), cloak=("circle", 50.0)),
    "II": dict(obstacle=("rect", 30.0, 15.0), cloak=("circle", 50.0)),
    "III": dict(obstacle=("rect", 15.0, 30.0), cloak=("circle", 50.0)),
    "IV": dict(obstacle=("ellipse", 30.0, 15.0, 0.0), cloak=("circle", 50.0)),
    "V": dict(obstacle=("ellipse", 30.0, 15.0, 45.0), cloak=("circle", 50.0)),
    "VI": dict(obstacle=("circle", 20.0), cloak=("square", 50.0)),
    "VII": dict(obstacle=("circle", 20.0), cloak=("rect", 55.0, 35.0)),
    "VIII": dict(obstacle=("circle", 20.0), cloak=("diamond", 60.0)),
}


#: Loop kind -> (loop from the spec's numbers and the pieces per quadrant,
#: half-width of the centred square inscribed in the loop).
_LOOP_KINDS = {
    "circle": (circle_loop, lambda r: r),
    "square": (square_loop, lambda half: half),
    "rect": (rect_loop, min),
    "ellipse": (ellipse_loop, lambda semi_x, semi_y, angle_deg: min(semi_x, semi_y)),
    "diamond": (lambda half_diagonal, pieces: diamond_loop(half_diagonal),
                lambda half_diagonal: half_diagonal / 2.0),
}


def build_cloak_model(
    config: str = "circular",
    plate_half: float = 70.0,
    kappa_base: float = 200.0,
    kappa_obstacle: float = 1.0e-4,
    kappa_pos: float = 398.0,
    kappa_neg: float = 0.27,
    t_left: float = 300.0,
    t_right: float = 200.0,
    beta: float | None = None,
) -> MultiPatchModel:
    """Square plate with an insulated obstacle and a designable cloak band.

    Left edge held at t_left, right edge at t_right, top and bottom
    insulated.  Member materials default to copper / PDMS; the base plate
    is aluminium alloy.
    """
    if config not in CLOAK_CONFIGS:
        raise ConfigError(f"unknown cloak configuration {config!r}")
    cfg = CLOAK_CONFIGS[config]
    obstacle, cloak = cfg["obstacle"], cfg["cloak"]
    pieces = 2 if "diamond" in (obstacle[0], cloak[0]) else 1
    (obstacle_loop, obstacle_halfwidth), (cloak_loop, _) = (
        _LOOP_KINDS[obstacle[0]], _LOOP_KINDS[cloak[0]])
    loops = [obstacle_loop(*obstacle[1:], pieces), cloak_loop(*cloak[1:], pieces),
             square_loop(plate_half, pieces)]
    return _plate_model(
        f"cloak-{config}", loops, 0.45 * obstacle_halfwidth(*obstacle[1:]),
        ["inside"] * 5 + ["design"] * 4 + ["outside"] * 4, t_left, t_right,
        kappa_regions={"inside": kappa_obstacle, "outside": kappa_base},
        design_pair=MaterialPair(kappa_pos, kappa_neg),
        beta=beta,
    )


def build_camouflage_model(
    plate_half: float = 50.0,
    r_object: float = 10.0,
    r_design: float = 25.0,
    r_sector: float = 40.0,
    kappa_base: float = 177.0,
    kappa_object: float = 72.7,
    kappa_sector: float = 1.0e-4,
    kappa_pos: float = 398.0,
    kappa_neg: float = 0.27,
    t_left: float = 300.0,
    t_right: float = 200.0,
    beta: float | None = None,
) -> MultiPatchModel:
    """Plate with two insulator sectors, a central object, and a design band.

    The sector ring between r_design and r_sector carries the insulator in
    the two quarters crossed by the applied temperature gradient (right
    and left); its top and bottom quarters are base material.  The design
    band lies between the object and the sectors.
    """
    if not 0 < r_object < r_design < r_sector < plate_half:
        raise ConfigError("need 0 < r_object < r_design < r_sector < plate_half")
    loops = [circle_loop(r) for r in (r_object, r_design, r_sector)] + [square_loop(plate_half)]
    return _plate_model(
        "camouflage", loops, 0.45 * r_object,
        ["inside"] * 5 + ["design"] * 4 + ["sector", "outside"] * 2 + ["outside"] * 4,
        t_left, t_right,
        kappa_regions={"inside": kappa_object, "outside": kappa_base, "sector": kappa_sector},
        design_pair=MaterialPair(kappa_pos, kappa_neg),
        beta=beta,
    )


# ---------------------------------------------------------------------------
# two-stage refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefineSpec:
    """Target degrees and per-span subdivision counts by axis role."""

    degree_circ: int = 2
    degree_rad: int = 1
    subdiv_circ: int = 1
    subdiv_rad: int = 1

    def __post_init__(self):
        if self.degree_circ < 2 or self.degree_rad < 1:
            raise ConfigError("degrees below the base geometry degrees")
        if self.subdiv_circ < 1 or self.subdiv_rad < 1:
            raise ConfigError("subdivision counts must be >= 1")


def _axis_targets(roles: tuple[str, str], spec: RefineSpec):
    out = []
    for role in roles:
        if role == "circ":
            out.append((spec.degree_circ, spec.subdiv_circ))
        else:
            out.append((spec.degree_rad, spec.subdiv_rad))
    return out


def refine_patch(patch: NurbsPatch, roles: tuple[str, str], spec: RefineSpec) -> NurbsPatch:
    (du, su), (dv, sv) = _axis_targets(roles, spec)
    out = degree_elevate(patch, du - patch.knots_u.degree, "u")
    out = degree_elevate(out, dv - out.knots_v.degree, "v")
    return subdivide_spans(out, su, sv)


def refine_model(model: MultiPatchModel, spec: RefineSpec) -> MultiPatchModel:
    """Refine every patch per its axis roles; re-match interface pairs."""
    patches = [refine_patch(p, r, spec) for p, r in zip(model.patches, model.roles)]
    interfaces = [
        match_edges(patches, itf.patch_a, itf.edge_a, itf.patch_b, itf.edge_b)
        for itf in model.interfaces
    ]
    refined = replace(model, patches=patches, interfaces=interfaces)
    return refined.validate()


@dataclass
class DesignBasis:
    """Coarse design parameterization of the level-set field.

    Holds the design-level refinement of every design patch; expansion
    coefficients are ordered patch by patch, flat index iu * nv + iv
    within a patch.
    """

    patch_ids: list[int]
    patches: list[NurbsPatch]
    offsets: np.ndarray
    m: int

    @property
    def control_points(self) -> np.ndarray:
        return np.concatenate([p.control_points.reshape(-1, 2) for p in self.patches])

    def patch_slice(self, k: int) -> slice:
        end = self.offsets[k + 1] if k + 1 < len(self.offsets) else self.m
        return slice(int(self.offsets[k]), int(end))


def design_basis_for(model: MultiPatchModel, spec: RefineSpec) -> DesignBasis:
    ids = model.design_patch_ids
    if not ids:
        raise ConfigError("model has no design patches")
    patches = [refine_patch(model.patches[i], model.roles[i], spec) for i in ids]
    sizes = [p.n_ctrl for p in patches]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(int)
    return DesignBasis(patch_ids=ids, patches=patches, offsets=offsets, m=int(sum(sizes)))
