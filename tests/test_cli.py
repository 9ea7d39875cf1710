import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from igatop.cli import main
from igatop.config import RunConfig


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
                "sweep": {"kind": "radius", "r_values": [1.4, 1.6], "deltas": [0.05]},
            },
        )
        assert run_cli(["sweep", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "radius_sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[0].split(",")[0] == "delta"

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

    @pytest.mark.parametrize("key", ["objective.chi", "smoothing.alpha", "sqp.step_tolerance"])
    def test_string_number_exit_code(self, tmp_path, capsys, key):
        # PyYAML reads 1e-2 as a string and 1.0e-2 as a number
        cfg = write_cfg(tmp_path / "ok.yaml", {"problem": "annulus"})
        assert run_cli(["solve", "--config", cfg, "--set", f"{key}=1e-2"]) == 1
        assert key in capsys.readouterr().err
        sec, name = key.split(".")
        assert RunConfig.load(cfg, [f"{key}=1.0e-2"]).data[sec][name] == 1.0e-2

    def test_env_outdir_override(self, tmp_path, tiny_annulus_cfg, monkeypatch):
        alt = tmp_path / "env_out"
        monkeypatch.setenv("IGATOP_OUTDIR", str(alt))
        assert run_cli(["solve", "--config", tiny_annulus_cfg,
                        "--set", "output.grid=21"]) == 0
        assert (alt / "field.vtk").exists()

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
