import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snakeplan import io as sio
from snakeplan.cli import main
from snakeplan.generate import random_config, random_so0
from snakeplan.lorentz import LieElement
from snakeplan.planner import plan_group_path


class TestJsonRoundtrips:
    def test_matrix(self, rng):
        A = random_so0(rng, 4)
        back = sio.matrix_from_json(json.loads(json.dumps(sio.matrix_to_json(A))))
        assert np.array_equal(back, A)

    def test_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sio.matrix_from_json({"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})

    def test_lie_element(self, rng):
        X = LieElement(u=rng.normal(size=3), skew=rng.normal(size=(3, 3)))
        back = sio.lie_from_json(json.loads(json.dumps(sio.lie_to_json(X))))
        assert np.allclose(back.u, X.u)
        assert np.allclose(back.skew, X.skew)

    def test_lie_skewness_validated_on_load(self):
        with pytest.raises(ValueError):
            sio.lie_from_json({"u": [0.0, 0.0], "skew": [[0.0, 1.0], [0.5, 0.0]]})

    def test_config(self, rng):
        cfg = random_config(rng, 3)
        back = sio.config_from_json(json.loads(json.dumps(sio.config_to_json(cfg))))
        assert np.allclose(back.nodes, cfg.nodes, atol=1e-15)
        assert np.allclose(back.partition, cfg.partition)
        assert np.allclose(back.weights, cfg.weights)

    def test_config_relaxed_bound_roundtrips(self, rng):
        from snakeplan.planner import act

        cfg = act(random_so0(rng, 3), random_config(rng, 3))
        back = sio.config_from_json(sio.config_to_json(cfg))
        assert back.max_node_angle == cfg.max_node_angle

    def test_config_bad_scheme_rejected(self, rng):
        obj = sio.config_to_json(random_config(rng, 3))
        obj["quadrature"]["scheme"] = "midpoint"
        with pytest.raises(ValueError):
            sio.config_from_json(obj)

    def test_head_curve_monotone_times(self):
        with pytest.raises(ValueError):
            sio.head_curve_from_json({"times": [0.0, 0.0], "points": [[0.0], [1.0]]})

    def test_group_path_payload(self, rng):
        path = plan_group_path(random_so0(rng, 3))
        obj = sio.group_path_to_json(path)
        assert obj["length"] == pytest.approx(path.length())
        assert len(obj["controls"]) == len(path.controls)
        assert {leg["kind"] for leg in obj["legs"]} <= {"boost", "rotation"}


def test_csv_float_format(tmp_path):
    p = tmp_path / "out.csv"
    sio.write_csv(p, ["a", "b"], [[1.0 / 3.0, 2.0]])
    text = p.read_text().splitlines()
    assert text[0] == "a,b"
    assert text[1].startswith("0.3333333333333333")


def test_sphere_path_csv(tmp_path, rng):
    ts = np.linspace(0.0, 1.0, 5)
    Z = rng.normal(size=(5, 3))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    p = tmp_path / "orbit.csv"
    sio.write_csv(p, ["t", "z1", "z2", "z3"], sio.sphere_path_rows(ts, Z))
    lines = p.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0] == "t,z1,z2,z3"
    row = np.array([float(v) for v in lines[3].split(",")])
    assert row[0] == pytest.approx(ts[2])
    assert np.allclose(row[1:], Z[2])


class TestCli:
    def _gen_matrix(self, tmp_path, seed=5, dim=3):
        out = str(tmp_path / "A.json")
        assert main(["generate", "--kind", "random-so0", "--seed", str(seed),
                     "--dim", str(dim), "--out", out]) == 0
        return out

    def _gen_config(self, tmp_path, seed=5, dim=3):
        out = str(tmp_path / "cfg.json")
        assert main(["generate", "--kind", "random-config", "--seed", str(seed),
                     "--dim", str(dim), "--out", out]) == 0
        return out

    def test_decompose_identity(self, tmp_path, capsys):
        p = tmp_path / "id.json"
        sio.dump_json(sio.matrix_to_json(np.eye(4)), p)
        assert main(["decompose", "--matrix", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["passed"]
        assert report["outputs"]["result"]["epsilon"] == 1.0

    def test_decompose_rejects_garbage_matrix(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        sio.dump_json(sio.matrix_to_json(np.arange(16.0).reshape(4, 4)), p)
        assert main(["decompose", "--matrix", str(p)]) == 3

    def test_validation_error_exit_code(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\"dim\": 2, \"rows\": [[1,0],[0,1]]}")
        assert main(["decompose", "--matrix", str(p)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["decompose", "--matrix", str(tmp_path / "nope.json")]) == 4

    def test_factorize_and_plan(self, tmp_path, capsys):
        m = self._gen_matrix(tmp_path)
        capsys.readouterr()
        assert main(["factorize", "--matrix", m]) == 0
        capsys.readouterr()
        assert main(["plan-group", "--matrix", m, "--out-dir", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (tmp_path / "o" / "plan.json").exists()
        assert report["verification"]["passed"]

    def test_steer_and_outputs(self, tmp_path, capsys):
        m = self._gen_matrix(tmp_path)
        c = self._gen_config(tmp_path)
        out = tmp_path / "steer"
        assert main(["steer", "--matrix", m, "--config", c,
                     "--out-dir", str(out), "--step", "0.05"]) == 0
        assert (out / "head_trace.csv").exists()
        assert (out / "final_config.json").exists()
        head = (out / "head_trace.csv").read_text().splitlines()
        assert head[0] == "t,x1,x2,x3"

    def test_lift_head(self, tmp_path, capsys):
        c = self._gen_config(tmp_path)
        h = str(tmp_path / "head.json")
        assert main(["generate", "--kind", "circle-head-curve", "--seed", "5",
                     "--dim", "3", "--config", c, "--out", h]) == 0
        capsys.readouterr()
        assert main(["lift-head", "--config", c, "--head-curve", h,
                     "--step", "2e-3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["passed"]

    def test_probe_bracket(self, capsys):
        assert main(["probe-bracket", "--i", "1", "--j", "2", "--t", "0.5",
                     "--m", "8", "--dim", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"]["result"]["endpoint_error"] < 0.1

    def test_generate_deterministic_bytes(self, tmp_path):
        a1, a2 = str(tmp_path / "a1.json"), str(tmp_path / "a2.json")
        for out in (a1, a2):
            assert main(["generate", "--kind", "random-so0", "--seed", "11",
                         "--dim", "4", "--out", out]) == 0
        assert open(a1, "rb").read() == open(a2, "rb").read()

    def test_plan_artifacts_deterministic(self, tmp_path):
        m = self._gen_matrix(tmp_path, seed=2)
        d1, d2 = tmp_path / "p1", tmp_path / "p2"
        for d in (d1, d2):
            assert main(["plan-group", "--matrix", m, "--out-dir", str(d)]) == 0
        assert (d1 / "plan.json").read_bytes() == (d2 / "plan.json").read_bytes()

    def test_steer_csv_deterministic(self, tmp_path):
        m = self._gen_matrix(tmp_path, seed=2, dim=2)
        c = self._gen_config(tmp_path, seed=2, dim=2)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            assert main(["steer", "--matrix", m, "--config", c,
                         "--out-dir", str(d), "--step", "0.1"]) == 0
        assert (d1 / "head_trace.csv").read_bytes() == (d2 / "head_trace.csv").read_bytes()
        assert (d1 / "final_config.json").read_bytes() == (d2 / "final_config.json").read_bytes()


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, snakeplan.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
