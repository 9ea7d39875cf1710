import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from igatop.cli import main
from igatop.config import RunConfig, _yaml_float, build_pipeline
from igatop.optimizer import SqpConfig


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def run_cli(args):
    return main(args)


def write_cfg(path, data):
    with open(path, "w") as f:
        yaml.safe_dump(data, f)
    return str(path)


@pytest.fixture()
def tiny_annulus_cfg(tmp_path):
    return write_cfg(
        tmp_path / "ann.yaml",
        {
            "problem": "annulus",
            "design": {"subdiv_circ": 2, "subdiv_rad": 2},
            "solution": {"subdiv_circ": 8, "subdiv_rad": 8},
            "model": {"beta": 1.0e6},
            "sqp": {"max_iterations": 6, "max_function_evaluations": 40},
            "output": {"dir": str(tmp_path / "out"), "grid": 41},
        },
    )


class TestSolve:
    def test_annulus_solve_outputs(self, tiny_annulus_cfg, tmp_path, capsys):
        rc = run_cli(["solve", "--config", tiny_annulus_cfg,
                      "--set", "initial_field.params.radius=1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "J_annular" in out and "rel_L2_error_vs_oracle" in out
        for name in ("field.vtk", "field.csv", "coefficients.csv", "model.yaml"):
            assert (tmp_path / "out" / name).exists()
        header = (tmp_path / "out" / "field.vtk").read_text().splitlines()
        assert header[0].startswith("# vtk DataFile")
        assert "STRUCTURED_POINTS" in "\n".join(header[:6])

    @pytest.mark.parametrize("scale,radius", [(1.0, 1.3), (-1.0, 1.3), (1.0, 0.5), (1.0, 2.5)])
    def test_oracle_error_follows_field(self, tiny_annulus_cfg, capsys, scale, radius):
        # a negative scale puts kappa_pos inside the interface, and a circle
        # outside the annulus leaves one material; compared with the
        # closed form of an interface at that radius and kappa_neg inside,
        # the errors read 0.76, 0.28 and 2.90
        assert run_cli(["solve", "--config", tiny_annulus_cfg,
                        "--set", f"initial_field.params.scale={scale}",
                        "--set", f"initial_field.params.radius={radius}"]) == 0
        out = capsys.readouterr().out
        err = float(out.split("rel_L2_error_vs_oracle = ")[1].split()[0])
        assert err < 0.1

    def test_no_oracle_error_without_interface(self, tiny_annulus_cfg, capsys):
        assert run_cli(["solve", "--config", tiny_annulus_cfg,
                        "--set", "initial_field.params.scale=0.0"]) == 0
        out = capsys.readouterr().out
        assert "J_annular" in out and "rel_L2_error_vs_oracle" not in out

    def test_homogeneous_plate_linear_field(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "cloak.yaml",
            {
                "problem": "cloak",
                "design": {"subdiv_circ": 2, "subdiv_rad": 2},
                "solution": {"subdiv_circ": 4, "subdiv_rad": 4},
                "model": {"beta": 1.0e6, "kappa_obstacle": 200.0,
                          "kappa_pos": 200.0, "kappa_neg": 200.0},
                "initial_field": {"kind": "constant", "params": {"value": 10.0}},
                "output": {"dir": str(tmp_path / "out"), "grid": 41},
            },
        )
        assert run_cli(["solve", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "field.csv").read_text().splitlines()
        header = rows[0].split(",")
        ix, iT = header.index("x"), header.index("T")
        worst = 0.0
        for line in rows[1:]:
            vals = line.split(",")
            x, T = float(vals[ix]), float(vals[iT])
            if not np.isnan(T):
                worst = max(worst, abs(T - (300.0 - (x + 70.0) / 140.0 * 100.0)))
        assert worst < 1e-4

    def test_all_insulator_normalization_identity(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "cloak.yaml",
            {
                "problem": "cloak",
                "design": {"subdiv_circ": 2, "subdiv_rad": 2},
                "solution": {"subdiv_circ": 4, "subdiv_rad": 4},
                "model": {"kappa_neg": 1.0e-4},
                "initial_field": {"kind": "constant", "params": {"value": -10.0}},
                "output": {"dir": str(tmp_path / "out"), "grid": 21},
            },
        )
        assert run_cli(["solve", "--config", cfg]) == 0
        out = capsys.readouterr().out
        j = float([l for l in out.splitlines() if l.startswith("J_cloak")][0].split("=")[1])
        assert abs(j - 1.0) <= 1e-6


class TestOptimize:
    def test_outputs_and_determinism(self, tmp_path):
        base = {
            "problem": "annulus",
            "design": {"subdiv_circ": 2, "subdiv_rad": 2},
            "solution": {"subdiv_circ": 8, "subdiv_rad": 8},
            "model": {"beta": 1.0e6},
            "sqp": {"max_iterations": 5, "max_function_evaluations": 30},
            "output": {"dir": str(tmp_path / "o1"), "grid": 31},
        }
        cfg1 = write_cfg(tmp_path / "a1.yaml", base)
        assert run_cli(["optimize", "--config", cfg1]) == 0
        base["output"]["dir"] = str(tmp_path / "o2")
        cfg2 = write_cfg(tmp_path / "a2.yaml", base)
        assert run_cli(["optimize", "--config", cfg2]) == 0
        for name in ("convergence.csv", "coefficients.csv", "interface.csv",
                     "field.csv", "field.vtk"):
            b1 = (tmp_path / "o1" / name).read_bytes()
            b2 = (tmp_path / "o2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"

    def test_best_iterate_is_not_evaluated_again(self, tmp_path, tiny_annulus_cfg,
                                                 monkeypatch, capsys):
        # the printed terms and the field export come from the optimizer's own
        # evaluation of the best iterate; evaluating it again writes the same
        from igatop import cli, export, objectives, optimizer

        orig_eval, orig_optimize = objectives.eval_total, cli.optimize
        seen = {"evals": 0}

        def counted(*args, **kwargs):
            seen["evals"] += 1
            return orig_eval(*args, **kwargs)

        def run(problem, *args, **kwargs):
            best, state, reason = orig_optimize(problem, *args, **kwargs)
            seen.update(problem=problem, best=best, at_return=seen["evals"])
            return best, state, reason

        monkeypatch.setattr(optimizer, "eval_total", counted)
        monkeypatch.setattr(objectives, "eval_total", counted)
        monkeypatch.setattr(cli, "eval_total", counted, raising=False)
        monkeypatch.setattr(cli, "optimize", run)
        assert run_cli(["optimize", "--config", tiny_annulus_cfg]) == 0
        assert seen["evals"] - seen["at_return"] == 0

        val = orig_eval(seen["problem"], seen["best"])
        out = capsys.readouterr().out
        assert f"J_main = {val.j_main:.9g}" in out.splitlines()
        xs, ys, data = export.sample_fields(seen["problem"].disc, val.state.values, seen["best"],
                                           seen["problem"].smoothing, 41)
        export.write_grid_csv(str(tmp_path / "again.csv"), xs, ys, data)
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "out" / "field.csv").read_bytes()

    def test_convergence_csv_schema(self, tmp_path, tiny_annulus_cfg):
        assert run_cli(["optimize", "--config", tiny_annulus_cfg]) == 0
        header = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[0]
        assert header.split(",")[:6] == ["iter", "fevals", "J_main", "J_Tknv", "J_vol", "J_total"]

    def test_checkpoint_and_restart(self, tmp_path, tiny_annulus_cfg):
        assert run_cli(["optimize", "--config", tiny_annulus_cfg,
                        "--set", "output.checkpoint_every=1"]) == 0
        assert (tmp_path / "out" / "checkpoint.csv").exists()
        coeffs = tmp_path / "out" / "coefficients.csv"
        assert run_cli([
            "optimize", "--config", tiny_annulus_cfg,
            "--set", "initial_field.kind=restart",
            "--set", f"initial_field.params.path={coeffs}",
            "--set", f"output.dir={tmp_path / 'out2'}",
        ]) == 0
        assert (tmp_path / "out2" / "coefficients.csv").exists()

    def test_restart_length_mismatch_rejected(self, tmp_path, tiny_annulus_cfg, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,value\n0,1.0\n1,2.0\n")
        rc = run_cli(["optimize", "--config", tiny_annulus_cfg,
                      "--set", "initial_field.kind=restart",
                      "--set", f"initial_field.params.path={bad}"])
        assert rc == 1


class TestSweepAndOracle:
    def test_radius_sweep(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "s.yaml",
            {
                "problem": "annulus",
                "design": {"subdiv_circ": 3, "subdiv_rad": 8},
                "solution": {"subdiv_circ": 8, "subdiv_rad": 8},
                "output": {"dir": str(tmp_path / "out")},
                "sweep": {"kind": "radius", "r_values": [1.5 - 1e-4, 1.5, 1.5 + 1e-4],
                          "deltas": [0.05]},
            },
        )
        assert run_cli(["sweep", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "radius_sweep.csv").read_text().splitlines()
        assert len(rows) == 4
        header = rows[0].split(",")
        assert header[0] == "delta"
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        r, J, dJ_dr = (data[:, header.index(k)] for k in ("r_interface", "J", "dJ_dr"))
        # the adjoint sensitivity against a central difference of J at r = 1.5
        fd = (J[2] - J[0]) / (r[2] - r[0])
        assert abs(dJ_dr[1] - fd) <= 1e-4 * abs(fd)

    def test_oracle_curves(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "o.yaml",
            {
                "problem": "annulus",
                "output": {"dir": str(tmp_path / "out")},
                "sweep": {"r_values": [1.5, 1.8]},
            },
        )
        assert run_cli(["oracle", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "oracle_curves.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_sweep_requires_annulus(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.yaml",
            {"problem": "cloak", "output": {"dir": str(tmp_path / "out")}},
        )
        assert run_cli(["sweep", "--config", cfg]) == 1
        assert "configuration error" in capsys.readouterr().err


class TestPipeline:
    @pytest.mark.parametrize("symmetry", ["none", "xy"])
    def test_symmetry_mode_on_asymmetric_model(self, symmetry):
        # config V's design net admits no mirror, so "xy" reads the "coincide" orbits
        pipe = build_pipeline(RunConfig.from_dict({
            "problem": "cloak", "model": {"config": "V"}, "design": {"symmetry": symmetry},
        }))
        n_var = {"none": pipe.field0.basis.m, "xy": 80}[symmetry]
        assert pipe.problem.sym.count == n_var


class TestErrors:
    def test_bad_problem_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.yaml", {"problem": "fusion"})
        assert run_cli(["solve", "--config", cfg]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_bad_override_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        assert run_cli(["solve", "--config", cfg, "--set", "smoothing.delta=-1"]) == 1

    def test_string_beta_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        assert run_cli(["solve", "--config", cfg, "--set", "model.beta=1e12"]) == 1
        assert "model.beta" in capsys.readouterr().err

    def test_explicit_beta_too_large_exit_code(self, tmp_path, capsys):
        # at beta=1e12 the shipped cloak's all-insulator reference K_ff is not
        # positive definite in float64; no other factorization is tried
        cfg = os.path.join(CONFIGS, "cloak.yaml")
        assert run_cli(["solve", "--config", cfg, "--set", "model.beta=1.0e+12",
                        "--set", f"output.dir={tmp_path / 'out'}"]) == 2
        err = capsys.readouterr().err
        assert re.search(r"not positive definite: .* stops at pivot \d+ of \d+", err)
        assert "missing Dirichlet data" in err and "explicit beta 1e+12" in err

    @pytest.mark.parametrize("key", ["objective.chi", "smoothing.alpha", "sqp.step_tolerance"])
    def test_string_number_exit_code(self, tmp_path, capsys, key):
        # PyYAML reads 1e-2 as a string and 1.0e-2 as a number
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        assert run_cli(["solve", "--config", cfg, "--set", f"{key}=1e-2"]) == 1
        assert key in capsys.readouterr().err
        sec, name = key.split(".")
        assert RunConfig.load(cfg, [f"{key}=1.0e-2"]).data[sec][name] == 1.0e-2

    @pytest.mark.parametrize("value", ["1e-2", "1.0e6", "1E+6", ".5e3", "-3e4"])
    def test_string_number_hint_loads_as_the_number(self, value):
        # PyYAML reads each value as a string and the hinted spelling as its float
        hint = yaml.safe_load(_yaml_float(value))
        assert yaml.safe_load(value) == value
        assert isinstance(hint, float) and hint == float(value)

    def test_string_number_hint_names_the_spelling(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        assert run_cli(["solve", "--config", cfg, "--set", "model.beta=1.0e6"]) == 1
        assert "write 1.0e+6" in capsys.readouterr().err

    @pytest.mark.parametrize("key,good", [
        ("reinit.lines_per_span", 10), ("output.grid", 10), ("output.checkpoint_every", 10),
        ("quadrature.n_per_span", 10), ("quadrature.measures_per_span", 10),
        ("design.subdiv_circ", 10), ("sweep.knee_factor", 1.5),
        ("sweep.r_values", [1.5]), ("sweep.deltas", [5.0e-2]), ("sweep.subdivisions", [10]),
    ])
    def test_string_count_or_list_exit_code(self, tmp_path, capsys, key, good):
        # PyYAML reads 1e1 as a string, also inside a list
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        bad = "[1e1]" if isinstance(good, list) else "1e1"
        assert run_cli(["solve", "--config", cfg, "--set", f"{key}={bad}"]) == 1
        assert key in capsys.readouterr().err
        sec, name = key.split(".")
        assert RunConfig.load(cfg, [f"{key}={good}"]).data[sec][name] == good

    @pytest.mark.parametrize("command", ["solve", "optimize"])
    @pytest.mark.parametrize("override,key", [
        ("output.grid=0.5", "output.grid"),
        ("quadrature.measures_per_span=0.5", "quadrature.measures_per_span"),
        ("quadrature.n_per_span=0.5", "quadrature.n_per_span"),
        ("sweep.subdivisions=[2.5]", "sweep.subdivisions"),
        ("model.kappa_pos=1e1", "model.kappa_pos"),
        ("model.r_inner=abc", "model.r_inner"),
        ("design.degree_circ=2e0", "design.degree_circ"),
        ("design.degree_circ=2.5", "design.degree_circ"),
        ("sqp.max_iterations=2.5", "sqp.max_iterations"),
        ("reinit.enabled=maybe", "reinit.enabled"),
        ("initial_field.params.radius=1e0", "initial_field.params.radius"),
        ("sqp.max_iteration=5", "sqp.max_iteration"),
        ("model.kapa_pos=5.0", "model.kapa_pos"),
        ("smoothing.delt=0.1", "smoothing.delt"),
        ("outputs.grid=5", "outputs"),
        ("output.grid=0", "output.grid"),
        ("output.grid=-3", "output.grid"),
        ("output.checkpoint_every=-1", "output.checkpoint_every"),
        ("quadrature.measures_per_span=0", "quadrature.measures_per_span"),
        ("quadrature.n_per_span=0", "quadrature.n_per_span"),
        ("reinit.lines_per_span=0", "reinit.lines_per_span"),
        ("sweep.subdivisions=[0]", "sweep.subdivisions"),
        ("initial_field.params.radus=5.0", "initial_field.params.radus"),
        ("initial_field.kind=lattice initial_field.params.n=2.5", "initial_field.params.n"),
        ("initial_field.kind=lattice initial_field.params.n=0", "initial_field.params.n"),
        ("initial_field.kind=constant initial_field.params.radius=1.0",
         "initial_field.params.radius"),
        # each problem names its own objective
        ("objective_kind=cloak", "objective_kind"),
        ("output.dir=[", "output.dir"),
        # NaN fails every comparison, so `<= 0` let it through
        ("sqp.optimality_tolerance=.nan", "optimality_tolerance"),
        # the Nitsche average weight is the constant 1/2, not a key
        ("model.gamma=0.5", "model.gamma"),
        # an empty list ran a command's defaults or ended in np.max of nothing
        ("initial_field.kind=bands initial_field.params.radii=[]", "initial_field.params.radii"),
        ("sweep.deltas=[]", "sweep.deltas"),
        ("sweep.r_values=[]", "sweep.r_values"),
        ("sweep.subdivisions=[]", "sweep.subdivisions"),
        # a lattice center is one point: an IndexError, or a third number dropped
        ("initial_field.kind=lattice initial_field.params.center=[]",
         "initial_field.params.center"),
        ("initial_field.kind=lattice initial_field.params.center=[1.0,2.0,3.0]",
         "initial_field.params.center"),
    ])
    def test_wrong_type_or_unknown_key_exit_code(self, tmp_path, capsys, command, override, key):
        # each of these ended in a traceback, ran until export or was accepted unchecked
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        sets = [arg for ov in override.split() for arg in ("--set", ov)]
        assert run_cli([command, "--config", cfg, *sets]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err

    @pytest.mark.parametrize("command", ["solve", "optimize"])
    @pytest.mark.parametrize("problem,override,names", [
        ("annulus", "smoothing.delta=.nan", "smoothing.delta"),
        ("annulus", "model.kappa_pos=.nan", "member conductivities"),
        ("annulus", "objective.chi=.nan", "regularization weights"),
        ("annulus", "objective.chi=.inf", "regularization weights"),
        ("annulus", "objective.rho=.inf", "regularization weights"),
        ("annulus", "sweep.knee_factor=.nan", "sweep.knee_factor"),
        ("cloak", "model.kappa_base=-1.0", "region 'outside'"),
        ("cloak", "model.kappa_base=.nan", "region 'outside'"),
        ("cloak", "model.t_left=.nan", "must be finite"),
    ])
    def test_nan_or_out_of_range_value_exit_code(self, tmp_path, capsys, command, problem,
                                                 override, names):
        # NaN passed the `x <= 0` range checks, and region conductivities and
        # boundary values were not checked: each ran, or failed as a
        # numerical error far from the key
        cfg = write_cfg(tmp_path / "ok.yaml", {
            "problem": problem,
            "sqp": {"max_function_evaluations": 3},
            "output": {"dir": str(tmp_path / "out"), "grid": 11},
        })
        assert run_cli([command, "--config", cfg, "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and names in err

    @pytest.mark.parametrize("bounds", ["0.0", "-1.0"])
    def test_non_positive_bounds_exit_code(self, tiny_annulus_cfg, capsys, bounds):
        # 0 pinned every design variable at 0; -1 was read as +-1
        assert run_cli(["optimize", "--config", tiny_annulus_cfg,
                        "--set", f"sqp.bounds={bounds}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "bounds" in err

    def test_knee_factor_below_one_exit_code(self, tmp_path, capsys):
        # no mesh is within a factor below 1 of the finest error: rejected
        # before the sweep runs
        cfg = write_cfg(tmp_path / "s.yaml", {
            "problem": "annulus",
            "design": {"subdiv_circ": 2, "subdiv_rad": 2},
            "output": {"dir": str(tmp_path / "out")},
            "sweep": {"kind": "refinement", "subdivisions": [2], "deltas": [0.5],
                      "r_values": [1.5]},
        })
        assert run_cli(["sweep", "--config", cfg, "--set", "sweep.knee_factor=0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "sweep.knee_factor" in err
        assert not (tmp_path / "out").exists()
        assert RunConfig.load(cfg, ["sweep.knee_factor=1.0"]).data["sweep"]["knee_factor"] == 1.0

    @pytest.mark.parametrize("text", [None, "problem: [annulus\n"], ids=["missing", "yaml"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.yaml"
        if text is not None:
            cfg.write_text(text)
        assert run_cli(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(cfg) in err

    @pytest.mark.parametrize("text", [None, "index,value\n0,1.0\n1,abc\n"],
                             ids=["missing", "not_a_number"])
    def test_unreadable_restart_exit_code(self, tmp_path, tiny_annulus_cfg, capsys, text):
        path = tmp_path / "restart.csv"
        if text is not None:
            path.write_text(text)
        assert run_cli(["optimize", "--config", tiny_annulus_cfg,
                        "--set", "initial_field.kind=restart",
                        "--set", f"initial_field.params.path={path}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(path) in err

    def test_uncreatable_output_dir_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        cfg = write_cfg(tmp_path / "o.yaml", {"problem": "annulus", "sweep": {"r_values": [1.5]}})
        assert run_cli(["oracle", "--config", cfg, "--set", f"output.dir={blocker / 'out'}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "output.dir" in err

    def test_override_through_null_section(self, tmp_path):
        # a null section keeps its defaults, and an override sets one key in it
        cfg = write_cfg(tmp_path / "n.yaml", {"problem": "annulus", "sqp": None})
        defaults = RunConfig.from_dict({"problem": "annulus"}).data["sqp"]
        sqp = RunConfig.load(cfg, ["sqp.max_iterations=5"]).data["sqp"]
        assert sqp == defaults | {"max_iterations": 5} != defaults

    def test_override_through_scalar_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "s.yaml", {"problem": "annulus", "sqp": 3})
        assert run_cli(["solve", "--config", cfg, "--set", "sqp.max_iterations=5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "non-mapping key 'sqp'" in err

    def test_default_params_stay_with_default_kind(self):
        resolved = {kind: RunConfig.from_dict({
            "problem": "cloak", "initial_field": {"kind": kind, "params": {"radius": 20.0}},
        }).data["initial_field"]["params"] for kind in ("ring", "radial")}
        assert resolved == {"ring": {"radius": 20.0, "half_width": 10.0},
                            "radial": {"radius": 20.0}}
        constant = RunConfig.from_dict({"problem": "cloak", "initial_field": {"kind": "constant"}})
        assert constant.data["initial_field"]["params"] == {}

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_shipped_config_loads(self, name):
        RunConfig.load(os.path.join(CONFIGS, name))

    def test_sqp_defaults_are_sqp_config(self):
        assert SqpConfig(**RunConfig.from_dict({"problem": "cloak"}).data["sqp"]) == SqpConfig()

    def test_shipped_configs_resolve_as_recorded(self):
        # resolved data of every shipped config, recorded when the sqp
        # section was still written out in the schema
        with open(os.path.join(os.path.dirname(__file__), "resolved_configs.json")) as f:
            recorded = json.load(f)
        assert sorted(recorded) == sorted(os.listdir(CONFIGS))
        for name, data in recorded.items():
            resolved = RunConfig.load(os.path.join(CONFIGS, name)).data
            assert json.loads(json.dumps(resolved)) == data, name

    def test_installed_entry_point(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "o.yaml",
            {"problem": "annulus", "output": {"dir": str(tmp_path / "out")},
             "sweep": {"r_values": [1.5]}},
        )
        proc = subprocess.run(
            [sys.executable, "-m", "igatop.cli", "oracle", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "optimum" in proc.stdout
