import json
import os

import numpy as np
import pytest

from igatop.assembly import discretize
from igatop.errors import ConfigError, ModelError
from igatop.levelset import build_symmetry_map
from igatop.model import (
    CLOAK_CONFIGS,
    BoundaryTag,
    MaterialPair,
    RefineSpec,
    build_annulus,
    build_camouflage_model,
    build_cloak_model,
    design_basis_for,
    refine_model,
)
from igatop.splines import tabulate

RNG = np.random.default_rng(7)

PLATE_MODELS = os.path.join(os.path.dirname(__file__), "data", "plate_models.json")


def region_areas(model, n_per_span):
    """Region areas: the solution quadrature weights (Gauss weight x |J|) by label."""
    disc = discretize(model, n_per_span=n_per_span)
    return {label: disc.w[disc.qlabel == label].sum() for label in set(model.labels)}


class TestAnnulus:
    def test_boundary_control_points_on_circles(self):
        m = build_annulus(1.0, 2.0)
        patch = m.patches[0]
        # on-curve control points (odd indices are arc corner points)
        inner = patch.control_points[0, ::2]
        outer = patch.control_points[1, ::2]
        assert np.abs(np.hypot(*inner.T) - 1.0).max() < 1e-12
        assert np.abs(np.hypot(*outer.T) - 2.0).max() < 1e-12
        # sampled boundary curves lie on the circles
        t = RNG.random(100)
        r_in = np.hypot(*tabulate(patch, np.column_stack([np.zeros(100), t])).phys.T)
        assert np.abs(r_in - 1.0).max() < 1e-12

    def test_degenerate_radii_rejected(self):
        with pytest.raises(ConfigError):
            build_annulus(1.5, 1.5)

    def test_area_by_quadrature(self):
        areas = region_areas(build_annulus(1.0, 2.0), n_per_span=16)
        assert areas["design"] == pytest.approx(np.pi * 3.0, abs=1e-8)

    def test_seam_interface_and_tags(self):
        m = build_annulus()
        assert len(m.interfaces) == 1
        kinds = {(b.patch, b.edge): b.kind for b in m.boundaries}
        assert kinds[(0, "u0")] == "dirichlet" and kinds[(0, "u1")] == "dirichlet"


class TestCloak:
    def test_circular_regions_and_interfaces(self):
        m = build_cloak_model("circular")
        assert set(m.labels) == {"inside", "design", "outside"}
        assert m.labels.count("design") == 4
        m.validate()  # matched control points within tolerance

    def test_materials(self):
        m = build_cloak_model("circular")
        assert m.kappa_regions["inside"] == pytest.approx(1e-4)
        assert m.kappa_regions["outside"] == pytest.approx(200.0)
        assert m.design_pair == MaterialPair(398.0, 0.27)

    def test_xy_variable_counts_at_the_default_design_refinement(self):
        # the mirrors are read off each design net: V's tilted ellipse admits
        # none, so it keeps the coincide orbits
        models = {"annulus": build_annulus(), "camouflage": build_camouflage_model()}
        models |= {cfg: build_cloak_model(cfg) for cfg in CLOAK_CONFIGS}
        counts = {name: build_symmetry_map(design_basis_for(m, RefineSpec(2, 1, 3, 4)), "xy").count
                  for name, m in models.items()}
        assert counts == {name: {"V": 80, "VIII": 45}.get(name, 25) for name in models}

    def test_tags_complete_and_disjoint(self):
        for cfg in ("circular", "I", "V", "VIII"):
            m = build_cloak_model(cfg)
            m.validate()
            assert len(m.boundaries) == 4  # four plate sides

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError):
            build_cloak_model("IX")

    def test_region_areas(self):
        a = region_areas(build_cloak_model("circular"), n_per_span=16)
        assert a["inside"] == pytest.approx(np.pi * 20.0**2, rel=1e-9)
        assert a["design"] == pytest.approx(np.pi * (50.0**2 - 20.0**2), rel=1e-9)
        assert sum(a.values()) == pytest.approx(140.0**2, rel=1e-9)

    def test_all_configs_build_with_positive_jacobians(self):
        for cfg in CLOAK_CONFIGS:
            a = region_areas(build_cloak_model(cfg), n_per_span=6)
            assert sum(a.values()) == pytest.approx(140.0**2, rel=1e-4)


class TestCamouflage:
    def test_sector_label_present(self):
        m = build_camouflage_model()
        assert m.labels.count("sector") == 2

    def test_materials_table(self):
        m = build_camouflage_model()
        assert m.kappa_regions["inside"] == pytest.approx(72.7)
        assert m.kappa_regions["outside"] == pytest.approx(177.0)
        assert m.kappa_regions["sector"] == pytest.approx(1e-4)
        assert m.design_pair.kappa_pos == pytest.approx(398.0)

    def test_plate_area(self):
        a = region_areas(build_camouflage_model(), n_per_span=16)
        assert sum(a.values()) == pytest.approx(100.0**2, rel=1e-6)
        assert a["sector"] == pytest.approx(np.pi * (40.0**2 - 25.0**2) / 2, rel=1e-9)


class TestTwoStageRefine:
    def test_benchmark_counts(self):
        ann = build_annulus()
        basis = design_basis_for(ann, RefineSpec(2, 1, 7, 32))
        assert basis.m == 1089
        # the benchmark solution mesh is built directly (not nested in the
        # design net); its published size is reproduced exactly
        sol = refine_model(ann, RefineSpec(2, 1, 32, 32))
        assert sum(p.n_ctrl for p in sol.patches) == 4389

    def test_mesh_family_sizes(self):
        ann = build_annulus()
        for sub, expect in ((4, 105), (8, 333), (16, 1173), (32, 4389)):
            sol = refine_model(ann, RefineSpec(2, 1, sub, sub))
            assert sum(p.n_ctrl for p in sol.patches) == expect

    def test_cubic_design_symmetry_count(self):
        cloak = build_cloak_model("circular")
        basis = design_basis_for(cloak, RefineSpec(3, 2, 4, 4))
        sym = build_symmetry_map(basis, "xy")
        assert sym.count == 42

    def test_annulus_25_variables(self):
        basis = design_basis_for(build_annulus(), RefineSpec(2, 1, 3, 4))
        assert basis.m == 85
        assert build_symmetry_map(basis, "xy").count == 25

    def test_identity_stage(self):
        ann = build_annulus()
        spec = RefineSpec(2, 1, 4, 4)
        basis, refined = design_basis_for(ann, spec), refine_model(ann, spec)
        for k, pid in enumerate(basis.patch_ids):
            assert np.allclose(
                basis.patches[k].control_points, refined.patches[pid].control_points
            )
            assert np.array_equal(
                basis.patches[k].knots_u.values, refined.patches[pid].knots_u.values
            )

    def test_interface_matching_after_refinement(self):
        for model in (build_cloak_model("circular"), build_camouflage_model()):
            refined = refine_model(model, RefineSpec(3, 2, 3, 2))
            refined.validate()  # 1e-10-scaled control-point check inside

    def test_untagged_edge_detected(self):
        m = build_annulus()
        m2 = build_annulus()
        m2.boundaries = [BoundaryTag(0, "u0", "dirichlet", 0.0)]
        with pytest.raises(ModelError):
            m2.validate()
        m.validate()


def plate_model_record(model) -> dict:
    """Patches, interfaces, tags, labels and roles of a model as JSON values."""
    return {
        "patches": [
            {"knots": [[kv.values.tolist(), kv.degree] for kv in (p.knots_u, p.knots_v)],
             "control_points": p.control_points.tolist(), "weights": p.weights.tolist()}
            for p in model.patches
        ],
        "interfaces": [[i.patch_a, i.edge_a, i.patch_b, i.edge_b, i.reversed_, i.pairs.tolist()]
                       for i in model.interfaces],
        "boundaries": [[b.patch, b.edge, b.kind, b.value] for b in model.boundaries],
        "labels": list(model.labels),
        "roles": [list(r) for r in model.roles],
    }


def plate_models() -> dict:
    """The nine cloak layouts and the camouflage plate, by model name."""
    models = [build_cloak_model(cfg) for cfg in CLOAK_CONFIGS] + [build_camouflage_model()]
    return {m.name: m for m in models}


def max_float_difference(a, b) -> float:
    """Largest difference between the floats of two JSON values whose other
    entries (structure, integers, strings, flags) must be equal."""
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b)
    if isinstance(a, list):
        assert len(a) == len(b)
        return max((max_float_difference(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        return max((max_float_difference(a[k], b[k]) for k in a), default=0.0)
    assert type(a) is type(b) and a == b
    return 0.0


class TestPlateModels:
    # tests/data/plate_models.json holds `plate_model_record` of every plate
    # model as built by the separate cloak and camouflage builders, floats
    # written by json (their repr)
    def test_models_match_stored_records(self):
        with open(PLATE_MODELS) as f:
            stored = json.load(f)
        models = plate_models()
        assert models.keys() == stored.keys()
        for name, model in models.items():
            diff = max_float_difference(plate_model_record(model), stored[name])
            assert diff <= 1e-14 * model.diameter(), name
