"""Run configuration: YAML schema, per-problem defaults, initial fields.

A run configuration is one YAML document; every key has a default matching
the published study setups, so a minimal file is just `problem: annulus`.
`--set a.b=value` command-line overrides are applied after loading.

Units are millimetres (geometry), W/mK (conductivity), and kelvin.  The
level-set bandwidth `smoothing.delta` is in the level-set's own units;
the plate problems default to 2.0 mm (cloak) and 1.5 mm (camouflage) at
the default reduced meshes, scaled so the smoothed band stays resolvable
by the solution quadrature (the source study's 0.0005/0.001 values pair
metre-scaled geometry with much finer meshes).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import yaml

from igatop.errors import ConfigError
from igatop.model import (
    MultiPatchModel,
    RefineSpec,
    build_annulus,
    build_camouflage_model,
    build_cloak_model,
)

DEFAULTS_COMMON = {
    "smoothing": {"delta": None, "alpha": 0.0},
    "objective": {"chi": 0.0, "rho": 0.0},
    "design": {"degree_circ": 2, "degree_rad": 1, "subdiv_circ": 3, "subdiv_rad": 4,
               "symmetry": "xy"},
    "solution": {"degree_circ": 2, "degree_rad": 1, "subdiv_circ": None, "subdiv_rad": None},
    "sqp": {
        "objective_limit": 1.0e-9,
        "step_tolerance": 1.0e-8,
        "optimality_tolerance": 1.0e-6,
        "max_iterations": 300,
        "max_function_evaluations": 1500,
        "consecutive_steptol_stop": 4,
        "reinit_every_iters": 10,
        "reinit_every_fevals": 100,
        "bounds": None,  # defaults to +- model diameter
    },
    "reinit": {"enabled": True, "lines_per_span": 20},
    "initial_field": {"kind": "ring", "params": {}},
    "output": {"dir": "out", "grid": 201, "adjoint": False, "checkpoint_every": 0},
    "quadrature": {"n_per_span": None, "measures_per_span": 4},
}

DEFAULTS_BY_PROBLEM = {
    "annulus": {
        "model": {"r_inner": 1.0, "r_outer": 2.0, "t_inner": 0.0, "t_outer": 100.0,
                  "kappa_pos": 10.0, "kappa_neg": 100.0, "beta": None, "gamma": 0.5},
        "smoothing": {"delta": 0.05},
        "solution": {"subdiv_circ": 32, "subdiv_rad": 32},
        "objective_kind": "annular",
        "initial_field": {"kind": "radial", "params": {"radius": 1.3}},
        "reinit": {"enabled": False},
        "sqp": {"reinit_every_iters": None, "reinit_every_fevals": None,
                "max_iterations": 200, "max_function_evaluations": 800},
    },
    "cloak": {
        "model": {"config": "circular", "plate_half": 70.0, "kappa_base": 200.0,
                  "kappa_obstacle": 1.0e-4, "kappa_pos": 398.0, "kappa_neg": 0.27,
                  "t_left": 300.0, "t_right": 200.0, "beta": None, "gamma": 0.5},
        "smoothing": {"delta": 2.0},
        "solution": {"subdiv_circ": 16, "subdiv_rad": 16},
        "objective_kind": "cloak",
        "initial_field": {"kind": "ring", "params": {"radius": 35.0, "half_width": 10.0}},
        "sqp": {"reinit_every_fevals": 100},
    },
    "camouflage": {
        "model": {"plate_half": 50.0, "r_object": 10.0, "r_design": 25.0, "r_sector": 40.0,
                  "kappa_base": 177.0, "kappa_object": 72.7, "kappa_sector": 1.0e-4,
                  "kappa_pos": 398.0, "kappa_neg": 0.27,
                  "t_left": 300.0, "t_right": 200.0, "beta": None, "gamma": 0.5},
        "smoothing": {"delta": 1.5},
        "solution": {"subdiv_circ": 12, "subdiv_rad": 12},
        "objective_kind": "camouflage",
        "initial_field": {"kind": "ring", "params": {"radius": 17.5, "half_width": 4.0}},
        "sqp": {"reinit_every_fevals": 300},
    },
}


# (section, key) of the entries that must be numbers, besides every sqp entry;
# the NULLABLE ones may also be null (a null delta then fails as not positive)
NUMERIC_KEYS = [("smoothing", "delta"), ("smoothing", "alpha"),
                ("objective", "chi"), ("objective", "rho")]
NULLABLE_KEYS = {("smoothing", "delta"), ("sqp", "reinit_every_iters"),
                 ("sqp", "reinit_every_fevals"), ("sqp", "bounds")}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        else:
            base[k] = v
    return base


@dataclass
class RunConfig:
    """Validated run configuration with resolved defaults."""

    problem: str
    data: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = copy.deepcopy(raw or {})
        problem = raw.pop("problem", None)
        if problem not in DEFAULTS_BY_PROBLEM:
            raise ConfigError(
                f"problem must be one of {sorted(DEFAULTS_BY_PROBLEM)}, got {problem!r}"
            )
        data = copy.deepcopy(DEFAULTS_COMMON)
        _deep_update(data, copy.deepcopy(DEFAULTS_BY_PROBLEM[problem]))
        _deep_update(data, raw)
        cfg = cls(problem=problem, data=data)
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str, overrides: list[str] | None = None) -> "RunConfig":
        with open(path) as f:
            raw = yaml.safe_load(f) or {}
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a YAML mapping")
        for ov in overrides or []:
            if "=" not in ov:
                raise ConfigError(f"override {ov!r} is not of the form key.path=value")
            key, val = ov.split("=", 1)
            node = raw
            parts = key.strip().split(".")
            for p in parts[:-1]:
                node = node.setdefault(p, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"cannot override through non-mapping key {p!r}")
            node[parts[-1]] = yaml.safe_load(val)
        return cls.from_dict(raw)

    def validate(self):
        d = self.data
        keys = NUMERIC_KEYS + [("sqp", k) for k in d["sqp"]]
        for sec, k in keys:
            v = d[sec].get(k)
            if not _is_number(v) and not (v is None and (sec, k) in NULLABLE_KEYS):
                raise ConfigError(
                    f"{sec}.{k} must be a number, got {v!r}"
                    " (PyYAML reads 1e-2 as a string; write 1.0e-2)"
                )
        if d["smoothing"]["delta"] is None or d["smoothing"]["delta"] <= 0:
            raise ConfigError("smoothing.delta must be positive")
        for sec in ("design", "solution"):
            for k in ("subdiv_circ", "subdiv_rad"):
                v = d[sec][k]
                if v is None or int(v) < 1:
                    raise ConfigError(f"{sec}.{k} must be a positive integer")
        if d["design"]["symmetry"] not in ("xy", "coincide", "none"):
            raise ConfigError("design.symmetry must be xy, coincide, or none")
        beta = d["model"].get("beta")
        if beta is not None and (not _is_number(beta) or beta <= 0):
            raise ConfigError(
                f"model.beta must be null (scaled penalty) or a positive number, got {beta!r}"
                " (PyYAML reads 1e12 as a string; write 1.0e+12)"
            )
        kind = d["initial_field"]["kind"]
        if kind != "restart" and kind not in INITIAL_FIELDS:
            raise ConfigError(
                f"initial_field.kind must be 'restart' or one of {sorted(INITIAL_FIELDS)}"
            )
        return self

    def build_model(self) -> MultiPatchModel:
        m = self.data["model"]
        if self.problem == "annulus":
            return build_annulus(**m)
        if self.problem == "cloak":
            return build_cloak_model(**m)
        return build_camouflage_model(**m)

    def design_spec(self) -> RefineSpec:
        d = self.data["design"]
        return RefineSpec(d["degree_circ"], d["degree_rad"], d["subdiv_circ"], d["subdiv_rad"])

    def solution_spec(self) -> RefineSpec:
        s = self.data["solution"]
        return RefineSpec(s["degree_circ"], s["degree_rad"], s["subdiv_circ"], s["subdiv_rad"])

    def describe(self) -> dict:
        out = {"problem": self.problem}
        out.update(copy.deepcopy(self.data))
        return out


# ---------------------------------------------------------------------------
# analytic initial fields (loose analogues of the pictured starting layouts)
# ---------------------------------------------------------------------------


def _radial(p, radius=1.3, scale=1.0, **_):
    return scale * (np.hypot(p[:, 0], p[:, 1]) - radius)


def _ring(p, radius=1.5, half_width=0.25, **_):
    return half_width - np.abs(np.hypot(p[:, 0], p[:, 1]) - radius)


def _bands(p, radii=(1.25, 1.75), half_width=0.12, **_):
    r = np.hypot(p[:, 0], p[:, 1])
    return np.max([half_width - np.abs(r - rk) for rk in radii], axis=0)


def _circles(p, centers, radius, **_):
    d = np.min(
        [np.hypot(p[:, 0] - cx, p[:, 1] - cy) for cx, cy in centers], axis=0
    )
    return radius - d


def _circle_lattice(p, n=2, pitch=1.0, radius=0.4, center=(0.0, 0.0), **_):
    half = (n - 1) / 2.0
    centers = [
        (center[0] + (i - half) * pitch, center[1] + (j - half) * pitch)
        for i in range(n)
        for j in range(n)
    ]
    return _circles(p, centers, radius)


def _constant(p, value=1.0, **_):
    return np.full(p.shape[0], value)


INITIAL_FIELDS = {
    "radial": _radial,
    "ring": _ring,
    "bands": _bands,
    "lattice": _circle_lattice,
    "constant": _constant,
}


def initial_field_fn(spec: dict):
    kind = spec["kind"]
    params = spec.get("params") or {}
    fn = INITIAL_FIELDS[kind]
    return lambda p: fn(p, **params)
