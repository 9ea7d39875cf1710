"""Run configuration: YAML schema, per-problem defaults, initial fields,
and the pipeline (`build_pipeline`) built from a configuration.

A run configuration is one YAML document; every key has a default matching
the published study setups, so a minimal file is just `problem: annulus`.
`--set a.b=value` command-line overrides are applied after loading.

Schema rule: `SCHEMA` states each key once, as (type, default); the `model`
keys are the keyword parameters of the problem's builder, typed and
defaulted by its signature, the `sqp` keys those of `optimizer.SqpConfig`,
and `initial_field.params` those of the kind's field function.
`PROBLEM_DEFAULTS` gives a problem's own values (its start params only
for its own start kind).  One walk fills in defaults and raises
`ConfigError` on an unknown key or a value of the wrong type: float keys
take any number, int keys (all counts) only positive integers, bool keys
only true/false, list keys at least one item, pair keys two, `X | None`
keys also null.  A section given as null keeps its defaults; `validate`
adds the range checks the types do not express, `SqpConfig`'s among them.

Units are millimetres (geometry), W/mK (conductivity), and kelvin.  The
level-set bandwidth `smoothing.delta` is in the level-set's own units;
the plate problems default to 2.0 mm (cloak) and 1.5 mm (camouflage) at
the default reduced meshes, scaled so the smoothed band stays resolvable
by the solution quadrature (the source study's 0.0005/0.001 values pair
metre-scaled geometry with much finer meshes).
"""

from __future__ import annotations

import copy
import inspect
import re
import types
import typing
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import yaml

from igatop.assembly import Discretization, discretize
from igatop.errors import ConfigError
from igatop.export import read_coeffs_csv
from igatop.levelset import (
    DesignField,
    DesignQuad,
    SmoothingParams,
    build_symmetry_map,
    design_quadrature,
    project_lsf,
)
from igatop.model import (
    MultiPatchModel,
    RefineSpec,
    build_annulus,
    build_camouflage_model,
    build_cloak_model,
    design_basis_for,
    refine_model,
)
from igatop.objectives import HeatProblem, ObjectiveSpec, make_objective
from igatop.optimizer import SqpConfig


# ---------------------------------------------------------------------------
# analytic initial fields (loose analogues of the pictured starting layouts)
# ---------------------------------------------------------------------------


def _radial(p, radius: float = 1.3, scale: float = 1.0):
    return scale * (np.hypot(p[:, 0], p[:, 1]) - radius)


def _ring(p, radius: float = 1.5, half_width: float = 0.25):
    return half_width - np.abs(np.hypot(p[:, 0], p[:, 1]) - radius)


def _bands(p, radii: list[float] = (1.25, 1.75), half_width: float = 0.12):
    r = np.hypot(p[:, 0], p[:, 1])
    return np.max([half_width - np.abs(r - rk) for rk in radii], axis=0)


def _circle_lattice(p, n: int = 2, pitch: float = 1.0, radius: float = 0.4,
                    center: tuple[float, float] = (0.0, 0.0)):
    half = (n - 1) / 2.0
    centers = [
        (center[0] + (i - half) * pitch, center[1] + (j - half) * pitch)
        for i in range(n)
        for j in range(n)
    ]
    return radius - np.min([np.hypot(p[:, 0] - cx, p[:, 1] - cy) for cx, cy in centers], axis=0)


def _constant(p, value: float = 1.0):
    return np.full(p.shape[0], value)


INITIAL_FIELDS = {
    "radial": _radial,
    "ring": _ring,
    "bands": _bands,
    "lattice": _circle_lattice,
    "constant": _constant,
}


def initial_field_fn(spec: dict):
    fn = INITIAL_FIELDS[spec["kind"]]
    return lambda p: fn(p, **spec["params"])


def _signature_schema(fn, skip: int = 0) -> dict:
    params = list(inspect.signature(fn, eval_str=True).parameters.values())[skip:]
    return {p.name: (p.annotation, p.default) for p in params}


def field_params(spec: dict) -> dict:
    """An `initial_field` section's params, checked against the field
    function's keyword parameters after the points (or the restart file's
    path), with the unset ones at the function's defaults."""
    kind = spec["kind"]
    schema = {"path": (str, None)} if kind == "restart" else _signature_schema(INITIAL_FIELDS[kind], 1)
    return _resolve(spec["params"], schema, "initial_field.params.")


# key: (type, default); a None default of a non-null type is set per problem;
# int keys count something and must be positive (Literal[0]: zero allowed)
SCHEMA = {
    "smoothing": {"delta": (float, None), "alpha": (float, 0.0)},
    "objective": {"chi": (float, 0.0), "rho": (float, 0.0)},
    "design": {"degree_circ": (int, 2), "degree_rad": (int, 1), "subdiv_circ": (int, 3),
               "subdiv_rad": (int, 4), "symmetry": (Literal["xy", "coincide", "none"], "xy")},
    "solution": {"degree_circ": (int, 2), "degree_rad": (int, 1),
                 "subdiv_circ": (int, None), "subdiv_rad": (int, None)},
    "sqp": _signature_schema(SqpConfig),
    "reinit": {"enabled": (bool, True), "lines_per_span": (int, 20)},
    # params: keyword arguments of the field function, or the restart file's path
    "initial_field": {"kind": (Literal[("restart", *INITIAL_FIELDS)], "ring"),
                      "params": (dict, {})},
    "output": {"dir": (str, "out"), "grid": (int, 201), "adjoint": (bool, False),
               "checkpoint_every": (int | Literal[0] | None, 0)},
    "quadrature": {"n_per_span": (int | None, None), "measures_per_span": (int, 4)},
    # null lists: the command's own values
    "sweep": {"kind": (Literal["radius", "refinement"], "radius"),
              "r_values": (list[float] | None, None), "deltas": (list[float] | None, None),
              "subdivisions": (list[int] | None, None), "knee_factor": (float, 1.3)},
}

PROBLEM_DEFAULTS = {
    "annulus": {
        "smoothing": {"delta": 0.05},
        "solution": {"subdiv_circ": 32, "subdiv_rad": 32},
        "initial_field": {"kind": "radial", "params": {"radius": 1.3}},
        "reinit": {"enabled": False},
        "sqp": {"reinit_every_iters": None, "reinit_every_fevals": None,
                "max_iterations": 200, "max_function_evaluations": 800},
    },
    "cloak": {
        "smoothing": {"delta": 2.0},
        "solution": {"subdiv_circ": 16, "subdiv_rad": 16},
        "initial_field": {"kind": "ring", "params": {"radius": 35.0, "half_width": 10.0}},
        "sqp": {"reinit_every_fevals": 100},
    },
    "camouflage": {
        "smoothing": {"delta": 1.5},
        "solution": {"subdiv_circ": 12, "subdiv_rad": 12},
        "initial_field": {"kind": "ring", "params": {"radius": 17.5, "half_width": 4.0}},
        "sqp": {"reinit_every_fevals": 300},
    },
}


def model_builder(problem: str):
    # looked up on each call, so a wrapper rebound to these module names is used
    return {"annulus": build_annulus, "cloak": build_cloak_model,
            "camouflage": build_camouflage_model}[problem]


_NAMES = {float: "a number", int: "a positive integer", bool: "true or false", str: "a string",
          dict: "a mapping", type(None): "null"}


def _conforms(v, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(v, a) for a in args)
    if origin is Literal:
        return any(type(v) is type(a) and v == a for a in args)
    if origin is list:
        # tuples only as signature defaults: YAML reads sequences as lists
        return isinstance(v, list | tuple) and len(v) > 0 and all(_conforms(x, args[0]) for x in v)
    if origin is tuple:
        return isinstance(v, list | tuple) and len(v) == len(args) and all(map(_conforms, v, args))
    if tp is float:
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if tp is int:
        return isinstance(v, int) and not isinstance(v, bool) and v > 0
    return isinstance(v, tp)


def _describe(tp) -> str:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin is Literal:
        return str(args[0]) if len(args) == 1 else "one of " + ", ".join(args)
    if origin in (list, tuple):
        size = "a non-empty list" if origin is list else f"a list of {len(args)}"
        return f"{size} of " + {float: "numbers", int: "positive integers"}[args[0]]
    return _NAMES[tp]


_DECIMAL = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _numeric_string(v) -> str | None:
    """The first string in v (or in its list) that spells a decimal number."""
    if isinstance(v, list):
        return next(filter(None, map(_numeric_string, v)), None)
    return v if isinstance(v, str) and _DECIMAL.fullmatch(v.strip()) else None


def _yaml_float(v: str) -> str:
    """A spelling of the decimal `v` that PyYAML reads as a float: a dot in
    the mantissa and a signed exponent (PyYAML reads 1e-2 and 1.0e6 as
    strings)."""
    mantissa, _, exponent = v.strip().lower().partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    mantissa = re.sub(r"^([-+]?)\.", r"\g<1>0.", mantissa)  # PyYAML reads .5, not -.5
    if exponent and exponent[0] not in "+-":
        exponent = "+" + exponent
    return f"{mantissa}e{exponent}" if exponent else mantissa


def _checked(v, tp, key: str):
    if not _conforms(v, tp):
        s = _numeric_string(v)
        hint = f" (PyYAML reads {s} as a string; write {_yaml_float(s)})" if s else ""
        raise ConfigError(f"{key} must be {_describe(tp)}, got {v!r}{hint}")
    return copy.deepcopy(v)


def _resolve(raw, schema: dict, where: str = "") -> dict:
    """Check one mapping against its schema and fill in the defaults."""
    raw = {} if raw is None else _checked(raw, dict, where.rstrip(".") or "the config")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown key {where}{unknown[0]} (expected one of {', '.join(schema)})")
    out = {}
    for name, decl in schema.items():
        if isinstance(decl, dict):
            out[name] = _resolve(raw.get(name), decl, f"{where}{name}.")
        else:
            out[name] = _checked(raw.get(name, decl[1]), decl[0], where + name)
    return out


def _deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            _deep_update(base[k], v)
        elif not (v is None and isinstance(base.get(k), dict)):
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
        if problem not in PROBLEM_DEFAULTS:
            raise ConfigError(
                f"problem must be one of {sorted(PROBLEM_DEFAULTS)}, got {problem!r}"
            )
        defaults = copy.deepcopy(PROBLEM_DEFAULTS[problem])
        init, default_kind = raw.get("initial_field"), defaults["initial_field"]["kind"]
        if isinstance(init, dict) and init.get("kind", default_kind) != default_kind:
            defaults["initial_field"]["params"] = {}  # they are parameters of the default kind
        merged = _deep_update(defaults, raw)
        schema = SCHEMA | {"model": _signature_schema(model_builder(problem))}
        cfg = cls(problem, _resolve(merged, schema))
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str, overrides: list[str] | None = None) -> "RunConfig":
        try:
            with open(path) as f:
                raw = yaml.safe_load(f) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a YAML mapping")
        for ov in overrides or []:
            if "=" not in ov:
                raise ConfigError(f"override {ov!r} is not of the form key.path=value")
            key, val = ov.split("=", 1)
            node = raw
            parts = key.strip().split(".")
            for p in parts[:-1]:
                if node.get(p) is None:  # a null section keeps its defaults
                    node[p] = {}
                node = node[p]
                if not isinstance(node, dict):
                    raise ConfigError(f"cannot override through non-mapping key {p!r}")
            try:
                node[parts[-1]] = yaml.safe_load(val)
            except yaml.YAMLError as exc:
                raise ConfigError(f"override {key.strip()}: {val!r} is not valid YAML") from exc
        return cls.from_dict(raw)

    def validate(self):
        """Value checks the types do not express."""
        d = self.data
        if not d["smoothing"]["delta"] > 0:
            raise ConfigError("smoothing.delta must be positive")
        knee = d["sweep"]["knee_factor"]
        if not knee >= 1:
            # the knee is the coarsest mesh within this factor of the finest mesh's error
            raise ConfigError(f"sweep.knee_factor must be at least 1, got {knee!r}")
        beta = d["model"]["beta"]
        if beta is not None and not beta > 0:
            raise ConfigError(
                f"model.beta must be null (shared control points) or a positive number, got {beta!r}"
            )
        field_params(d["initial_field"])
        SqpConfig(**d["sqp"])  # its own range checks
        return self

    def build_model(self) -> MultiPatchModel:
        return model_builder(self.problem)(**self.data["model"])

    def describe(self) -> dict:
        out = {"problem": self.problem}
        out.update(copy.deepcopy(self.data))
        return out


@dataclass
class Pipeline:
    """Everything assembled from one run configuration."""

    cfg: RunConfig
    disc: Discretization  # disc.model is the refined model
    quad: DesignQuad
    smoothing: SmoothingParams
    problem: HeatProblem
    field0: DesignField


def build_pipeline(cfg: RunConfig, with_objective: bool = True) -> Pipeline:
    d = cfg.data
    model = cfg.build_model()
    design = dict(d["design"])
    symmetry = design.pop("symmetry")
    basis = design_basis_for(model, RefineSpec(**design))
    refined = refine_model(model, RefineSpec(**d["solution"]))
    disc = discretize(refined, basis, n_per_span=d["quadrature"]["n_per_span"])
    quad = design_quadrature(basis, d["quadrature"]["measures_per_span"])
    sym = build_symmetry_map(basis, symmetry)
    smoothing = SmoothingParams(**d["smoothing"])
    problem = None
    if with_objective:
        problem = HeatProblem(disc, objective_spec(cfg, disc), smoothing, quad, sym)
    init = d["initial_field"]
    if init["kind"] == "restart":
        coeffs = read_coeffs_csv(init["params"]["path"])
        if coeffs.size != basis.m:
            raise ConfigError(
                f"restart file has {coeffs.size} coefficients, basis needs {basis.m}"
            )
    else:
        coeffs = project_lsf(quad, initial_field_fn(init))
    field0 = DesignField(basis, coeffs)
    return Pipeline(cfg, disc, quad, smoothing, problem, field0)


# each problem's own objective kind
OBJECTIVE_KINDS = {"annulus": "annular", "cloak": "cloak", "camouflage": "camouflage"}


def objective_spec(cfg: RunConfig, disc: Discretization) -> ObjectiveSpec:
    return make_objective(disc, OBJECTIVE_KINDS[cfg.problem], **cfg.data["objective"])
