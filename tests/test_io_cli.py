import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snakeplan import io as sio
from snakeplan.cli import main
from snakeplan.generate import circle_head_curve, random_config, random_so0, straight_config
from snakeplan.lorentz import exp_h, spatial_block
from snakeplan.planner import plan_group_path

from conftest import lorentz_sample


class TestJsonRoundtrips:
    def test_matrix(self, rng):
        A = random_so0(rng, 4)
        back = sio.matrix_from_json(json.loads(json.dumps(sio.matrix_to_json(A))))
        assert np.array_equal(back, A)

    def test_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sio.matrix_from_json({"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})

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

    def test_head_curve_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            sio.head_curve_from_json({"times": [0.0], "points": [[0.0, 1.0]]})

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


def test_csv_matches_per_float_formatting(tmp_path):
    # one %-format per row prints each value as format(float(x), ".17g") did
    edge = [-0.0, 0.0, 5e-324, 2**53 + 1, np.inf, -np.inf, np.nan, 1.0 / 3.0, np.float64(0.1)]
    rng = np.random.default_rng(0)
    values = edge + list(rng.choice([-1.0, 1.0], 9_999) * 10.0 ** rng.uniform(-300, 300, 9_999))
    rows = [values[k:k + 3] for k in range(0, len(values), 3)]
    p = tmp_path / "edge.csv"
    sio.write_csv(p, ["a", "b", "c"], rows)
    want = ["a,b,c"] + [",".join(format(float(x), ".17g") for x in row) for row in rows]
    assert p.read_text().splitlines() == want


def test_sphere_path_csv(tmp_path, rng):
    ts = np.linspace(0.0, 1.0, 5)
    Z = rng.normal(size=(5, 3))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    p = tmp_path / "orbit.csv"
    sio.write_csv(p, ["t", "z1", "z2", "z3"], np.column_stack((ts, Z)))
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

    @pytest.mark.parametrize("command", ["decompose", "factorize", "plan-group", "steer"])
    @pytest.mark.parametrize("matrix", ["garbage", "spatial_reflection", "time_reversal"])
    def test_matrix_outside_so0_exit_code(self, tmp_path, command, matrix):
        # one rejection, factorize's NotLorentz: a numerical failure everywhere;
        # decompose factors all of O(n,1)
        A = {"garbage": np.arange(16.0).reshape(4, 4),
             "spatial_reflection": np.diag([1.0, -1.0, 1.0, 1.0]),
             "time_reversal": np.diag([-1.0, 1.0, 1.0, 1.0])}[matrix]
        p = tmp_path / "A.json"
        sio.dump_json(sio.matrix_to_json(A), p)
        argv = [command, "--matrix", str(p)]
        if command == "steer":
            argv += ["--config", self._gen_config(tmp_path)]
        expected = 0 if command == "decompose" and matrix != "garbage" else 3
        assert main(argv) == expected

    @pytest.mark.parametrize("n", [3, 8])
    def test_factorize_plan_and_steer_at_rapidity_19(self, tmp_path, capsys, n):
        # Q's rounding defect, about 3e-16 |A|_2, passes an orthogonality
        # test scaled by |A|_2 = e^19
        p = tmp_path / "A.json"
        sio.dump_json(sio.matrix_to_json(lorentz_sample(np.random.default_rng(n), n, 19.0)[0]), p)
        c = self._gen_config(tmp_path, dim=n)
        capsys.readouterr()
        for argv in (["factorize"], ["plan-group"], ["steer", "--config", c]):
            assert main([*argv, "--matrix", str(p)]) == 0
            assert json.loads(capsys.readouterr().out)["verification"]["passed"]

    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("w", [20.0, 25.0, 30.0])
    def test_valid_input_at_large_rapidity_is_no_validation_error(self, tmp_path, capsys, n, w):
        # beyond rapidity 19 a check may fail (exit 3), but no error is raised
        p = tmp_path / "A.json"
        sio.dump_json(sio.matrix_to_json(lorentz_sample(np.random.default_rng(n), n, w)[0]), p)
        c = self._gen_config(tmp_path, dim=n)
        capsys.readouterr()
        for argv in (["factorize"], ["plan-group"], ["steer", "--config", c]):
            code = main([*argv, "--matrix", str(p)])
            report = json.loads(capsys.readouterr().out)
            assert "error" not in report["outputs"]
            assert code == (0 if report["verification"]["passed"] else 3)

    def test_one_membership_test_for_every_matrix_subcommand(self, tmp_path, capsys):
        # relative Lorentz residual 1.6e-9: above classify's 1e-9 |A|_2^2
        A = random_so0(np.random.default_rng(7), 3)
        A += 1e-9 * np.random.default_rng(1).normal(size=A.shape)
        p = tmp_path / "A.json"
        sio.dump_json(sio.matrix_to_json(A), p)
        c = self._gen_config(tmp_path)
        capsys.readouterr()
        for argv in (["decompose"], ["factorize"], ["plan-group"], ["steer", "--config", c]):
            assert main([*argv, "--matrix", str(p)]) == 3
            report = json.loads(capsys.readouterr().out)
            error = report["outputs"]["error"]
            assert error["kind"] == "numerical" and "lorentz" in error["message"].lower()
            # rejected on entry: no stage after loading the payloads ran
            assert list(report["timing"]["stages"]) in ([], ["load"])

    def test_decompose_reconstruction_check_can_fail(self, tmp_path, capsys, monkeypatch):
        from snakeplan import cli

        m = self._gen_matrix(tmp_path, seed=7)
        capsys.readouterr()
        monkeypatch.setattr(cli, "exp_h", lambda u: (1.0 + 1e-7) * exp_h(u))
        assert main(["decompose", "--matrix", m]) == 3
        checks = json.loads(capsys.readouterr().out)["verification"]["checks"]
        assert [c["name"] for c in checks] == ["reconstruction_residual"]
        assert not checks[0]["pass"]

    def test_validation_error_exit_code(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\"dim\": 2, \"rows\": [[1,0],[0,1]]}")
        assert main(["decompose", "--matrix", str(p)]) == 2

    @pytest.mark.parametrize("case, message", [
        ("invalid-json", "invalid JSON in "),
        ("nan-entry", "non-finite matrix entries"),
        ("dim-mismatch", "dimension mismatch between config and matrix"),
    ])
    def test_bad_matrix_payload_exits_2(self, tmp_path, capsys, case, message):
        m = self._gen_matrix(tmp_path, dim=4 if case == "dim-mismatch" else 3)
        c = self._gen_config(tmp_path)
        if case == "invalid-json":
            Path(m).write_text('{"dim": 3, "rows": [[1')
        elif case == "nan-entry":
            A = json.loads(Path(m).read_text())
            A["rows"][1][2] = float("nan")
            sio.dump_json(A, m)
        capsys.readouterr()
        assert main(["steer", "--matrix", m, "--config", c]) == 2
        error = json.loads(capsys.readouterr().out)["outputs"]["error"]
        assert error["kind"] == "validation" and error["message"].startswith(message)

    @pytest.mark.parametrize("command", ["steer", "lift-head"])
    @pytest.mark.parametrize("case, message", [
        ("L-nan", "L must be positive and finite, got nan"),
        ("L-inf", "L must be positive and finite, got inf"),
        ("node-nan", "nodes must be finite"),
        ("bound-nan", "resolution bound must be in (0, pi], got nan"),
        ("quadrature", "segment node counts disagree with quadrature declaration"),
    ])
    def test_bad_config_payload_exits_2(self, tmp_path, capsys, command, case, message):
        # a NaN fails no comparison, so a non-finite L, node or bound must be
        # refused on load, before a check can read NaN or skip its test
        m = self._gen_matrix(tmp_path)
        c, h = self._gen_lift_inputs(tmp_path)
        cfg = json.loads(Path(c).read_text())
        if case == "node-nan":
            cfg["segments"][1]["nodes"][3][0] = float("nan")
        else:
            cfg.update({"L-nan": {"L": float("nan")}, "L-inf": {"L": float("inf")},
                        "bound-nan": {"resolution_bound": float("nan")},
                        "quadrature": {"quadrature": {"nodes_per_segment": 8}}}[case])
        sio.dump_json(cfg, c)
        argv = {"steer": ["--matrix", m, "--config", c],
                "lift-head": ["--config", c, "--head-curve", h]}[command]
        capsys.readouterr()
        assert main([command, *argv]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["outputs"]["error"] == {"kind": "validation", "message": message}
        assert err == ""

    @pytest.mark.parametrize("command, extra, message", [
        ("plan-group", ["--step", "0"], "step must be positive and finite, got 0.0"),
        ("lift-head", ["--step", "0"], "step must be positive and finite, got 0.0"),
        ("probe-bracket", ["--step", "0"], "step must be positive and finite, got 0.0"),
        ("plan-group", ["--step", "-1"], "step must be positive and finite, got -1.0"),
        ("steer", ["--step", "-0.5"], "step must be positive and finite, got -0.5"),
        ("lift-head", ["--step", "-0.1"], "step must be positive and finite, got -0.1"),
        ("plan-group", ["--step", "nan"], "step must be positive and finite, got nan"),
        ("lift-head", ["--step", "nan"], "step must be positive and finite, got nan"),
        ("probe-bracket", ["--i", "4", "--dim", "3"], "plane indices (4,2) out of range 1..3"),
    ], ids=["plan-group-0", "lift-head-0", "probe-bracket-0", "plan-group-neg", "steer-neg",
            "lift-head-neg", "plan-group-nan", "lift-head-nan", "probe-bracket-axis"])
    def test_bad_step_or_axis_exits_2(self, tmp_path, capsys, command, extra, message):
        m = self._gen_matrix(tmp_path)
        c, h = self._gen_lift_inputs(tmp_path)
        argv = {"plan-group": ["--matrix", m], "steer": ["--matrix", m, "--config", c],
                "lift-head": ["--config", c, "--head-curve", h],
                "probe-bracket": ["--i", "1", "--j", "2", "--t", "0.5", "--m", "8"]}[command]
        capsys.readouterr()
        assert main([command, *argv, *extra]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["outputs"]["error"] == {"kind": "validation", "message": message}
        assert err == ""

    @pytest.mark.parametrize("argv, message", [
        (["plan-group", "--matrix", "I", "--step", "0"],
         "step must be positive and finite, got 0.0"),
        (["steer", "--matrix", "I", "--config", "C", "--step", "-1"],
         "step must be positive and finite, got -1.0"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "0", "--m", "8", "--step", "0"],
         "step must be positive and finite, got 0.0"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "inf", "--m", "8"],
         "t must be finite, got inf"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "nan", "--m", "8"],
         "t must be finite, got nan"),
        (["generate", "--kind", "circle-head-curve", "--config", "C", "--radius", "nan"],
         "--radius must be finite, got nan"),
        (["lift-head", "--config", "C", "--head-curve", "H", "--step", "1e-15"],
         "step = 1e-15 gives 1e+15 steps, more than MAX_STEPS = 100000"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "1e300", "--m", "1"],
         "t = 1e+300, m = 1, step = 0.02 gives 2e+152 steps, more than MAX_STEPS = 100000"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "0.5", "--m", "100000"],
         "t = 0.5, m = 100000, step = 0.02 gives 8e+05 steps, more than MAX_STEPS = 100000"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "0.5", "--m", "1" + "0" * 400],
         "m must be in 1..MAX_STEPS = 100000, got 1" + "0" * 400),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "0.5", "--m", "0"],
         "m must be in 1..MAX_STEPS = 100000, got 0"),
        (["generate", "--kind", "random-so0", "--dim", "0"], "--dim must be at least 2, got 0"),
        (["generate", "--kind", "random-config", "--dim", "-1"],
         "--dim must be at least 2, got -1"),
        (["generate", "--kind", "random-config", "--dim", "1"], "--dim must be at least 2, got 1"),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "0.5", "--m", "8", "--dim", "1"],
         "--dim must be at least 2, got 1"),
    ], ids=["plan-group-identity-step-0", "steer-identity-step-neg", "probe-t-0-step-0",
            "probe-t-inf", "probe-t-nan", "generate-radius-nan", "lift-head-step-cap",
            "probe-t-cap", "probe-m-cap", "probe-m-overflow", "probe-m-0",
            "generate-so0-dim-0", "generate-config-dim-neg",
            "generate-config-dim-1", "probe-dim-1"])
    def test_bad_option_exits_2_whatever_the_input(self, tmp_path, capsys, argv, message):
        # the step is checked on entry, so a matrix that needs no leg (the
        # identity I) or a zero angle t does not let a bad step through
        identity = tmp_path / "I.json"
        sio.dump_json(sio.matrix_to_json(np.eye(4)), identity)
        c, h = self._gen_lift_inputs(tmp_path)
        paths = {"I": str(identity), "A": self._gen_matrix(tmp_path), "C": c, "H": h}
        capsys.readouterr()
        assert main([paths.get(a, a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["outputs"]["error"] == {"kind": "validation", "message": message}
        assert err == ""

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["decompose", "--matrix", str(tmp_path / "nope.json")]) == 4

    def test_write_failures_exit_4(self, tmp_path, capsys):
        m, c = self._gen_matrix(tmp_path), self._gen_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        capsys.readouterr()
        for argv in (["plan-group", "--matrix", m, "--out-dir", str(blocker / "x")],
                     ["steer", "--matrix", m, "--config", c, "--out-dir", str(blocker)],
                     ["generate", "--kind", "random-so0", "--out", str(blocker / "x" / "A.json")]):
            assert main(argv) == 4
            out, err = capsys.readouterr()
            report = json.loads(out)
            assert report["outputs"]["error"]["kind"] == "io"
            assert report["verification"] == {"checks": [], "passed": False}
            assert err == ""

    def test_linalg_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, yet a singular solve is no input error
        from snakeplan import cli

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        m = self._gen_matrix(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(cli, "plan_group_path", singular)
        assert main(["plan-group", "--matrix", m]) == 3
        error = json.loads(capsys.readouterr().out)["outputs"]["error"]
        assert error == {"kind": "numerical", "message": "Singular matrix"}

    def test_parser_subcommands_are_the_table(self):
        import argparse

        from snakeplan import cli

        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli._COMMANDS)

    @pytest.mark.parametrize("argv, inputs, options", [
        (["decompose", "--matrix", "A.json"], {"matrix": "A.json"}, {}),
        (["factorize", "--matrix", "A.json"], {"matrix": "A.json"}, {}),
        (["plan-group", "--matrix", "A.json"], {"matrix": "A.json"}, {"step": 0.02}),
        (["steer", "--matrix", "A.json", "--config", "c.json"],
         {"matrix": "A.json", "config": "c.json"}, {"step": 0.02}),
        (["lift-head", "--config", "c.json", "--head-curve", "h.json"],
         {"config": "c.json", "head_curve": "h.json"}, {"step": 0.001}),
        (["probe-bracket", "--i", "1", "--j", "2", "--t", "0.5", "--m", "8"],
         {"i": 1, "j": 2, "t": 0.5, "m": 8}, {"step": 0.02, "dim": 3}),
        (["generate", "--kind", "random-so0"], {"generator": "random-so0"},
         {"seed": 0, "dim": 3}),
        (["generate", "--kind", "circle-head-curve", "--config", "c.json", "--radius", "0.1",
          "--out", "h.json"], {"generator": "circle-head-curve", "config": "c.json"},
         {"seed": 0, "dim": 3, "radius": 0.1, "out": "h.json"}),
    ])
    def test_scenario_from_minimal_argv(self, argv, inputs, options):
        from snakeplan import cli

        sc = cli._scenario_from_args(cli.build_parser().parse_args(argv))
        assert (sc.kind, sc.inputs, sc.options) == (argv[0], inputs, options)
        for got, want in ((sc.inputs, inputs), (sc.options, options)):
            assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}

    def test_in_process_run_takes_the_cli_defaults(self, tmp_path, capsys):
        from snakeplan.cli import Scenario, run

        m = self._gen_matrix(tmp_path)
        probe = {"i": 1, "j": 2, "t": 0.5, "m": 8}
        for kind, inputs, argv in (
                ("plan-group", {"matrix": m}, ["--matrix", m]),
                ("probe-bracket", probe, [f"--{k}={v}" for k, v in probe.items()])):
            capsys.readouterr()
            assert main([kind, *argv]) == 0
            report, code = run(Scenario(kind, inputs, {}))
            assert code == 0
            assert report.outputs["result"] == \
                json.loads(capsys.readouterr().out)["outputs"]["result"]

    def test_factorize_and_plan(self, tmp_path, capsys):
        m = self._gen_matrix(tmp_path)
        capsys.readouterr()
        assert main(["factorize", "--matrix", m]) == 0
        capsys.readouterr()
        assert main(["plan-group", "--matrix", m, "--out-dir", str(tmp_path / "o")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (tmp_path / "o" / "plan.json").exists()
        assert report["verification"]["passed"]

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_factorize_blocks_json_rebuilds_the_matrix(self, tmp_path, capsys, dim):
        m = self._gen_matrix(tmp_path, seed=7, dim=dim)
        out = tmp_path / "factorize"
        capsys.readouterr()
        assert main(["factorize", "--matrix", m, "--out-dir", str(out)]) == 0
        check = json.loads(capsys.readouterr().out)["verification"]["checks"][0]
        payload = json.loads((out / "blocks.json").read_text())
        blocks = payload["blocks"]
        assert blocks["dim"] == dim and blocks["blocks"]
        # the planes and the kernel make one orthonormal basis, and each
        # plane (x, y) turns x towards y by its block's angle
        frame = np.vstack([np.reshape(b["planes"], (-1, dim)) for b in blocks["blocks"]]
                          + [np.reshape(blocks["kernel"], (-1, dim))])
        assert np.allclose(frame @ frame.T, np.eye(dim), atol=1e-12)
        R = np.eye(dim)
        for b in blocks["blocks"]:
            c, s = np.cos(b["theta"]), np.sin(b["theta"])
            for x, y in np.asarray(b["planes"]):
                R += (c - 1.0) * (np.outer(x, x) + np.outer(y, y)) \
                    + s * (np.outer(y, x) - np.outer(x, y))
        A = sio.matrix_from_json(json.loads(Path(m).read_text()))
        rebuilt = spatial_block(R) @ exp_h(np.asarray(payload["boost_vector"]))
        assert np.linalg.norm(rebuilt - A) <= check["tol"]

    def test_steer_snake_polylines(self, tmp_path, capsys):
        m, c = self._gen_matrix(tmp_path, seed=7), self._gen_config(tmp_path, seed=7)
        out = tmp_path / "steer"
        capsys.readouterr()
        assert main(["steer", "--matrix", m, "--config", c, "--out-dir", str(out)]) == 0
        csv = out / "snake_polylines.csv"
        assert csv.read_text().splitlines()[0] == "t,s,x1,x2,x3"
        heads = np.loadtxt(out / "head_trace.csv", delimiter=",", skiprows=1)
        # every stride-th time, each at 33 arc lengths from 0 to L
        heads = heads[::max(1, len(heads) // 32)]
        rows = np.loadtxt(csv, delimiter=",", skiprows=1).reshape(len(heads), 33, 5)
        L = json.loads(Path(c).read_text())["L"]
        assert np.array_equal(rows[:, :, 0], np.repeat(heads[:, :1], 33, axis=1))
        assert np.array_equal(rows[0, :, 1], np.linspace(0.0, L, 33))
        assert np.array_equal(rows[:, :, 1], np.tile(rows[0, :, 1], (len(heads), 1)))
        assert not rows[:, 0, 2:].any()
        assert np.max(np.abs(rows[:, -1, 2:] - heads[:, 1:])) <= 1e-13 * L

    def test_steer_and_outputs(self, tmp_path, capsys):
        m = self._gen_matrix(tmp_path)
        c = self._gen_config(tmp_path)
        out = tmp_path / "steer"
        capsys.readouterr()
        assert main(["steer", "--matrix", m, "--config", c,
                     "--out-dir", str(out), "--step", "0.05"]) == 0
        assert (out / "head_trace.csv").exists()
        assert (out / "final_config.json").exists()
        head = (out / "head_trace.csv").read_text().splitlines()
        assert head[0] == "t,x1,x2,x3"
        report = json.loads(capsys.readouterr().out)
        result = report["outputs"]["result"]
        assert 0 <= result["consistency_worst_step"] < result["steps"]
        assert report["verification"]["passed"]

    def test_steer_straight_config_counts_restricted_fits(self, tmp_path, capsys):
        # a straight configuration stays straight, so A_u is singular at every
        # step; the step check reads only the nodes and the recorded controls
        m = self._gen_matrix(tmp_path)
        c = str(tmp_path / "straight.json")
        sio.dump_json(sio.config_to_json(straight_config(3)), c)
        capsys.readouterr()
        assert main(["steer", "--matrix", m, "--config", c]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"]["result"]["steps"] > 0
        check = {ch["name"]: ch for ch in report["verification"]["checks"]}
        residual = check["step_consistency_residual"]
        assert residual["pass"] and 0.0 < residual["value"] <= residual["tol"]

    @pytest.mark.parametrize("w, n, seed", [(8.0, 3, 10), (8.0, 8, 6), (8.0, 16, 10),
                                            (15.0, 3, 9), (15.0, 8, 9), (15.0, 16, 9)])
    def test_steer_at_large_rapidity(self, tmp_path, capsys, w, n, seed):
        # strong boosts bunch the nodes, so lambda_min(A_u) falls below 1e-8 L
        # (to 1e-14 L at |u| = 15); a fit restricted at 1e-8 L failed these
        # draws, while the step check needs no fit
        rng = np.random.default_rng(seed)
        m, c = str(tmp_path / "A.json"), str(tmp_path / "cfg.json")
        sio.dump_json(sio.matrix_to_json(lorentz_sample(rng, n, w)[0]), m)
        sio.dump_json(sio.config_to_json(random_config(rng, n)), c)
        assert main(["steer", "--matrix", m, "--config", c]) == 0
        checks = json.loads(capsys.readouterr().out)["verification"]["checks"]
        assert all(ch["pass"] for ch in checks)
        assert {ch["name"] for ch in checks} == {"final_config_distance",
                                                  "step_consistency_residual"}

    @pytest.mark.parametrize("command", ["steer", "lift-head", "plan-group", "probe-bracket"])
    def test_report_stages_and_counts(self, command, tmp_path, capsys):
        m = self._gen_matrix(tmp_path)
        c, h = self._gen_lift_inputs(tmp_path)
        argv, stages = {
            "steer": (["--matrix", m, "--config", c], ["load", "steer_config"]),
            "lift-head": (["--config", c, "--head-curve", h, "--step", "1e-2"],
                          ["load", "spline", "horizontal_lift"]),
            "plan-group": (["--matrix", m], ["load", "plan_group_path"]),
            "probe-bracket": (["--i", "1", "--j", "2", "--t", "0.5", "--m", "8"],
                              ["commutator_probe"]),
        }[command]
        artifacts = []
        for out in (tmp_path / "out1", tmp_path / "out2"):
            capsys.readouterr()
            assert main([command, *argv, "--out-dir", str(out)]) == 0
            report = json.loads(capsys.readouterr().out)
            # printed in the order the stages ran
            timing = report["timing"]
            assert list(timing["stages"]) == stages + ["verify", "export"]
            assert all(t >= 0.0 for t in timing["stages"].values())
            assert sum(timing["stages"].values()) <= timing["seconds"]
            artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        # timings stay in the report: repeated runs write the same bytes
        assert artifacts[0] == artifacts[1] and artifacts[0]
        result = report["outputs"]["result"]
        if command in ("steer", "plan-group"):
            plan = plan_group_path(sio.matrix_from_json(json.loads(Path(m).read_text())))
            assert result["legs"] == len(plan.legs) > 0
            assert result["steps"] == len(plan.controls)
        if command == "steer":
            assert set(result) == {"steps", "legs", "nodes", "consistency_worst_step"}
            assert result["nodes"] == 48
        if command == "plan-group":
            assert set(result) == {"length", "steps", "legs", "ledger"}
        if command == "probe-bracket":
            from snakeplan.planner import commutator_probe

            path = commutator_probe(1, 2, 0.5, 8, 3)
            assert set(result) == {"endpoint_error", "length", "steps", "legs"}
            # four boost legs per cycle
            assert result["legs"] == len(path.legs) == 4 * 8
            assert result["steps"] == len(path.controls) == len(path.times) - 1
        if command == "lift-head":
            from snakeplan.planner import horizontal_lift
            from snakeplan.spline import not_a_knot

            u0 = sio.config_from_json(json.loads(Path(c).read_text()))
            times, points = sio.head_curve_from_json(json.loads(Path(h).read_text()))
            path = horizontal_lift(u0, *not_a_knot(times, points), t_final=1.0, dt=1e-2)
            assert set(result) == {"steps", "nodes", "max_tracking_error",
                                   "max_tracking_error_time", "min_margin",
                                   "min_margin_time", "eigen_solves"}
            assert result["nodes"] == u0.nodes.shape[0] == 48
            worst = int(path.tracking_errors.argmax())
            assert worst > 0
            assert result["max_tracking_error"] == path.tracking_errors[worst]
            assert result["max_tracking_error_time"] == path.times[worst]

    def _steer_checks(self, tmp_path, capsys, dim=3, seed=5):
        m = self._gen_matrix(tmp_path, seed=seed, dim=dim)
        c = self._gen_config(tmp_path, seed, dim)
        capsys.readouterr()
        code = main(["steer", "--matrix", m, "--config", c])
        report = json.loads(capsys.readouterr().out)
        return code, {ch["name"]: ch for ch in report["verification"]["checks"]}, \
            report["outputs"]["result"]

    def test_step_check_fails_on_a_moved_node(self, tmp_path, capsys, monkeypatch):
        # one node of one boost step moved by 1e-6; the boost steps' bound is
        # rounding alone, so the steps on either side of it must fail
        from snakeplan import cli

        steer = cli.steer_config
        moved = []

        def perturbed(*args, **kwargs):
            path = steer(*args, **kwargs)
            assert path.legs[0].kind == "boost"
            moved.append(path.legs[0].steps // 2)
            z = path.nodes[moved[0], 5]
            z += 1e-6 * np.array([-z[1], z[0], 0.0]) / np.hypot(z[0], z[1])
            return path

        monkeypatch.setattr(cli, "steer_config", perturbed)
        code, checks, result = self._steer_checks(tmp_path, capsys)
        assert code == 3
        assert checks["final_config_distance"]["pass"]
        residual = checks["step_consistency_residual"]
        assert not residual["pass"] and residual["value"] > 1e3 * residual["tol"]
        assert result["consistency_worst_step"] in (moved[0] - 1, moved[0])

    @pytest.mark.parametrize("dim", [3, 8])
    def test_step_check_catches_lagging_geodesic_controls(self, tmp_path, capsys,
                                                          monkeypatch, dim):
        # each geodesic control one step late: the nodes are right and every
        # control is a unit boost, so a check of the velocities against the
        # controls' own fields passes, but each step misses its boost by h^2 |eta|
        from snakeplan import planner

        leg = planner._plane_geodesic_leg

        def lagging(*args, **kwargs):
            path = leg(*args, **kwargs)
            path.controls[1:] = path.controls[:-1].copy()
            return path

        monkeypatch.setattr(planner, "_plane_geodesic_leg", lagging)
        code, checks, _ = self._steer_checks(tmp_path, capsys, dim=dim, seed=7)
        assert code == 3
        assert checks["final_config_distance"]["pass"]
        residual = checks["step_consistency_residual"]
        assert not residual["pass"] and residual["value"] > 100.0 * residual["tol"]

    def test_step_check_catches_a_rotated_control(self, tmp_path, capsys, monkeypatch):
        # the control of one geodesic step turned by 1e-3 rad: that step moves
        # its nodes by up to 1e-3 h, several times its h^3 bound
        from snakeplan import cli

        steer = cli.steer_config
        turned = []

        def perturbed(*args, **kwargs):
            path = steer(*args, **kwargs)
            k = path.legs[0].steps + path.legs[1].steps // 2
            u = path.controls[k]
            v = np.cross(u, [0.0, 0.0, 1.0])
            v /= np.linalg.norm(v)
            path.controls[k] = np.cos(1e-3) * u + np.sin(1e-3) * v
            turned.append(k)
            return path

        monkeypatch.setattr(cli, "steer_config", perturbed)
        code, checks, result = self._steer_checks(tmp_path, capsys)
        assert code == 3
        residual = checks["step_consistency_residual"]
        assert not residual["pass"] and residual["value"] > 3.0 * residual["tol"]
        assert result["consistency_worst_step"] == turned[0]

    def test_steer_identity_has_no_step_to_check(self, tmp_path, capsys):
        m = str(tmp_path / "I.json")
        sio.dump_json(sio.matrix_to_json(np.eye(4)), m)
        c = self._gen_config(tmp_path)
        capsys.readouterr()
        assert main(["steer", "--matrix", m, "--config", c]) == 0
        report = json.loads(capsys.readouterr().out)
        result = report["outputs"]["result"]
        assert result["steps"] == 0 and result["consistency_worst_step"] is None
        check = {ch["name"]: ch for ch in report["verification"]["checks"]}
        assert check["step_consistency_residual"]["pass"]

    def test_steer_at_dim_64(self, tmp_path, capsys):
        code, checks, result = self._steer_checks(tmp_path, capsys, dim=64, seed=7)
        assert code == 0
        assert [ch["pass"] for ch in checks.values()] == [True, True]
        assert result["legs"] == 1 + 32

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

    def _gen_lift_inputs(self, tmp_path, dim=3):
        c = self._gen_config(tmp_path, dim=dim)
        h = str(tmp_path / "head.json")
        assert main(["generate", "--kind", "circle-head-curve", "--seed", "5",
                     "--dim", str(dim), "--config", c, "--out", h]) == 0
        return c, h

    @pytest.mark.parametrize("payload, message", [
        ({"times": [0.0], "points": [[0.0, 0.0, 1.0]]}, "head curve needs at least 2 samples"),
        ({"times": [0.0, 0.5, 1.0], "points": [[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0], [0.0, 0.0, 1.0]]},
         "spline times and points must be finite"),
        ({"times": [0.0, 0.5, 1.0], "points": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]},
         "head curve needs matching times and points"),
    ])
    def test_lift_head_bad_head_curve_exits_2(self, tmp_path, capsys, payload, message):
        c = self._gen_config(tmp_path)
        h = str(tmp_path / "head.json")
        sio.dump_json(payload, h)
        capsys.readouterr()
        assert main(["lift-head", "--config", c, "--head-curve", h]) == 2
        error = json.loads(capsys.readouterr().out)["outputs"]["error"]
        assert error == {"kind": "validation", "message": message}

    def test_lift_head_reports_margins(self, tmp_path, capsys):
        c, h = self._gen_lift_inputs(tmp_path)
        capsys.readouterr()
        assert main(["lift-head", "--config", c, "--head-curve", h, "--step", "1e-2"]) == 0
        report = json.loads(capsys.readouterr().out)
        result = report["outputs"]["result"]
        assert result["steps"] == 100
        # certified stages take no eigen-solve on this loop
        assert result["eigen_solves"] == 100
        assert 1e-3 * 3.0 < result["min_margin"] <= 3.0
        assert 0.0 <= result["min_margin_time"] < 1.0
        final = {ch["name"]: ch for ch in report["verification"]["checks"]}["final_margin"]
        assert final["tol"] == pytest.approx(-1e-3 * 3.0) and final["pass"]

    def test_final_margin_check_can_fail(self, tmp_path, capsys, monkeypatch):
        # a final config within the abort bound but off the singular set:
        # its lambda_min(A_u) is positive, which the bound must not pass
        from snakeplan import cli
        from snakeplan.sphere import sphere_point

        c, h = self._gen_lift_inputs(tmp_path)
        capsys.readouterr()
        lift = cli.horizontal_lift

        def nearly_straight(*args, **kwargs):
            path = lift(*args, **kwargs)
            noise = np.random.default_rng(0).normal(size=path.nodes[-1].shape)
            path.nodes[-1] = sphere_point(np.eye(3)[0] + 0.01 * noise)
            return path

        monkeypatch.setattr(cli, "horizontal_lift", nearly_straight)
        assert main(["lift-head", "--config", c, "--head-curve", h, "--step", "1e-2"]) == 3
        report = json.loads(capsys.readouterr().out)
        checks = {ch["name"]: ch for ch in report["verification"]["checks"]}
        final = checks["final_margin"]
        assert not final["pass"]
        assert 0.0 < -final["value"] < -final["tol"] == pytest.approx(1e-3 * 3.0)

    def test_lift_trace_changes_no_artifact(self, tmp_path, capsys):
        c, h = self._gen_lift_inputs(tmp_path)
        plain, traced, trace = tmp_path / "plain", tmp_path / "traced", tmp_path / "trace.csv"
        assert main(["lift-head", "--config", c, "--head-curve", h, "--step", "1e-2",
                     "--out-dir", str(plain)]) == 0
        capsys.readouterr()
        assert main(["lift-head", "--config", c, "--head-curve", h, "--step", "1e-2",
                     "--out-dir", str(traced), "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out)["outputs"]["result"]
        for name in ("head_trace.csv", "final_config.json"):
            assert (plain / name).read_bytes() == (traced / name).read_bytes()
        assert sorted(os.listdir(plain)) == sorted(os.listdir(traced))
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,margin,tracking_error" and len(lines) == 102
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, 101))
        assert np.all(rows[:, 1] > 1e-3 * 3.0) and rows[0, 2] == 0.0
        assert rows[:-1, 1].min() == result["min_margin"]
        assert rows[:, 2].max() == result["max_tracking_error"]
        assert main(["lift-head", "--config", c, "--head-curve", h, "--step", "1e-2",
                     "--trace", str(tmp_path / "missing" / "trace.csv")]) == 4

    def test_lift_head_from_a_later_start_time(self, tmp_path, capsys):
        # samples from t = 0.5 lift over their own span, as the same samples
        # from t = 0 do, with every time moved by 0.5
        c = self._gen_config(tmp_path, seed=7)
        h, later = str(tmp_path / "head.json"), str(tmp_path / "later.json")
        assert main(["generate", "--kind", "circle-head-curve", "--seed", "7",
                     "--dim", "3", "--config", c, "--out", h]) == 0
        payload = json.loads(Path(h).read_text())
        payload["times"] = [t + 0.5 for t in payload["times"]]
        sio.dump_json(payload, later)
        runs = []
        for name, head in (("plain", h), ("later", later)):
            out, trace = tmp_path / name, tmp_path / f"{name}.csv"
            capsys.readouterr()
            assert main(["lift-head", "--config", c, "--head-curve", head, "--step", "1e-2",
                         "--out-dir", str(out), "--trace", str(trace)]) == 0
            result = json.loads(capsys.readouterr().out)["outputs"]["result"]
            final = sio.config_from_json(json.loads((out / "final_config.json").read_text()))
            heads = np.loadtxt(out / "head_trace.csv", delimiter=",", skiprows=1)
            runs.append((result, final.nodes, heads, np.loadtxt(trace, delimiter=",", skiprows=1)))
        (r0, nodes0, heads0, trace0), (r1, nodes1, heads1, trace1) = runs
        assert heads1[0, 0] == 0.5 and trace1[0, 0] == 0.5
        assert np.max(np.abs(heads1[:, 0] - heads0[:, 0] - 0.5)) <= 1e-12
        assert np.max(np.abs(trace1[:, 0] - trace0[:, 0] - 0.5)) <= 1e-12
        assert np.max(np.abs(trace1[:, 2] - trace0[:, 2])) <= 1e-12
        assert np.max(np.abs(nodes1 - nodes0)) <= 1e-12
        assert r1["steps"] == r0["steps"]
        assert r1["max_tracking_error_time"] == pytest.approx(r0["max_tracking_error_time"] + 0.5)

    def test_lift_head_abort_reports_the_sample_time(self, tmp_path, capsys):
        # a straight snake is singular, so the lift aborts at its first time
        c, h = str(tmp_path / "straight.json"), str(tmp_path / "head.json")
        sio.dump_json(sio.config_to_json(straight_config(3)), c)
        sio.dump_json({"times": [0.5, 1.0, 1.5], "points": [[0.0, 0.0, 0.0]] * 3}, h)
        assert main(["lift-head", "--config", c, "--head-curve", h]) == 3
        message = json.loads(capsys.readouterr().out)["outputs"]["error"]["message"]
        assert message.endswith("at t = 0.500000")

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


def test_cli_import_leaves_scipy_optimize_out(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, snakeplan.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"

    # no scipy module at all, and snakeplan.spline and snakeplan.generate only
    # in the lift-head and generate runs that use them: not on import, nor in
    # a steer --out-dir or plan-group run
    loaded = ("[m for m in sys.modules if m.split('.')[0] == 'scipy'"
              " or m in ('snakeplan.spline', 'snakeplan.generate')]")
    code = f"import sys, snakeplan.cli; print({loaded})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
    A, cfg, head = (str(tmp_path / name) for name in ("A.json", "cfg.json", "head.json"))
    u0 = random_config(np.random.default_rng(5), 3)
    sio.dump_json(sio.matrix_to_json(random_so0(np.random.default_rng(5), 3)), A)
    sio.dump_json(sio.config_to_json(u0), cfg)
    sio.dump_json(sio.head_curve_to_json(*circle_head_curve(u0, 0.05 * u0.L)), head)
    run = ("import sys, snakeplan.cli; code = snakeplan.cli.main(sys.argv[1:]); "
           f"print({loaded}, file=sys.stderr); sys.exit(code)")
    for argv, lazy in (
        (["steer", "--matrix", A, "--config", cfg, "--out-dir", str(tmp_path / "out")], []),
        (["plan-group", "--matrix", A], []),
        (["lift-head", "--config", cfg, "--head-curve", head, "--step", "1e-2",
          "--out-dir", str(tmp_path / "lift")], ["snakeplan.spline"]),
        (["generate", "--kind", "random-config", "--seed", "5", "--out",
          str(tmp_path / "gen.json")], ["snakeplan.generate"]),
    ):
        proc = subprocess.run([sys.executable, "-c", run, *argv], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == str(lazy)
