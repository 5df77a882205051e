"""Smoke tests: every experiment script runs end to end at its smallest size."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_holonomy_sweep(tmp_path, monkeypatch, capsys):
    out_csv = tmp_path / "orbit.csv"
    run_script("holonomy_sweep.py",
               ["--radii", "0.05", "--dt", "0.01", "--out-csv", str(out_csv)], monkeypatch)
    assert "holonomy/r^2" in capsys.readouterr().out
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert rows.shape == (101, 3)
    assert np.allclose(np.linalg.norm(rows[:, 1:], axis=1), 1.0)


def test_probe_convergence(monkeypatch, capsys):
    run_script("probe_convergence.py", ["--ms", "8", "16"], monkeypatch)
    slope = float(capsys.readouterr().out.split("log-log slope:")[1])
    assert slope == pytest.approx(-1.0, abs=0.3)

