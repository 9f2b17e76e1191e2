"""SciPy is loaded only by the routines that need it.

Importing ``scipy.optimize`` and ``scipy.stats`` costs more time and memory
than the rest of the package, so neither is imported when the package
loads.  ``asymptotic_ci`` imports ``norm`` for levels other than 0.95, and
``quantify`` binds ``brentq`` on first use, for a ground order outside
{1, 2}.  The top-k family level is numpy only.  Each check runs in a fresh
interpreter, so ``sys.modules`` shows what the run loaded.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drbottleneck.calibrate import asymptotic_ci
from drbottleneck.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.optimize", "scipy.stats")
REPORT = (
    "import json, sys\n"
    f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
)


def run_python(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return its last stdout line as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli_code(runs) -> str:
    """Code calling ``cli.main`` once per argument list, each required to exit 0."""
    return (
        "from drbottleneck.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )


@pytest.fixture
def multihop(tmp_path):
    base = str(tmp_path / "gen")
    assert main([
        "--model", "simulate", "--generator", "multihop",
        "--nodes", "6", "--samples", "10", "--seed", "11", "--out", base,
    ]) == 0
    return ["--instance", base + ".instance.json", "--scenarios", base + ".scenarios.csv"]


@pytest.fixture
def matching2(tmp_path):
    base = str(tmp_path / "match2")
    assert main([
        "--model", "simulate", "--generator", "matching-gaussian",
        "--side", "2", "--samples", "6", "--seed", "8", "--out", base,
    ]) == 0
    return ["--instance", base + ".instance.json", "--scenarios", base + ".scenarios.csv"]


def test_package_import_loads_no_scipy_solvers():
    assert run_python("import drbottleneck, drbottleneck.cli\n" + REPORT) == []


def test_common_models_load_no_scipy_solvers(multihop, tmp_path):
    grid = ["--theta-grid", "0,0.05,0.1", "--sense", "capacity"]
    runs = [
        ["--model", "quantify", *multihop, *grid, "--r", "1", "--out", str(tmp_path / "q")],
        ["--model", "calibrate", *multihop, *grid, "--r", "2", "--out", str(tmp_path / "c")],
        ["--model", "decide", *multihop, "--theta", "0.5", "--out", str(tmp_path / "d")],
    ]
    assert run_python(cli_code(runs) + REPORT) == []


def test_asymptotic_ci_keeps_scipy_quantile():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    std, root = float(np.std(values, ddof=1)), math.sqrt(len(values))
    # SciPy's 0.95 quantile; statistics.NormalDist gives 1.6448536269514715
    assert asymptotic_ci(values, level=0.9).half_width == 1.6448536269514722 * std / root
    assert asymptotic_ci(values).half_width == 1.96 * std / root


def _pinned_run(case, request, tmp_path):
    """Run one pinned CLI case in a fresh interpreter; return the heavy SciPy
    modules it loaded, after checking its pinned fields at rel=1e-12."""
    label, (fixture, argv, keys, expected) = case
    out = tmp_path / label
    run = [*argv, *request.getfixturevalue(fixture), "--out", str(out)]
    loaded = run_python(cli_code([run]) + REPORT)
    results = json.loads(Path(str(out) + ".json").read_text())["results"]
    values = [[rec[key] for key in keys] for rec in results]
    assert len(values) == len(expected)
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, rel=1e-12)
    return loaded


# brentq (ground order 1.5), in a fresh interpreter so its own call site binds
# it; the pinned values are those of eagerly imported SciPy
SCIPY_RUNS = {
    "quantify-r1.5": (
        "multihop",
        ["--model", "quantify", "--theta-grid", "0.05,0.2", "--sense", "capacity", "--r", "1.5"],
        ("value",),
        [[4.232351801184491], [4.092243401018408]],
    ),
}


@pytest.mark.parametrize("label", list(SCIPY_RUNS))
def test_scipy_models_bind_solvers_on_first_use(label, request, tmp_path):
    assert "scipy.optimize" in _pinned_run((label, SCIPY_RUNS[label]), request, tmp_path)


# the top-k family level at r = 2 (the dual active set) and r = 1 (the
# simplex); the pinned values are those of SciPy's SLSQP and HiGHS
NUMPY_RUNS = {
    "gamma-quantify-r2": (
        "matching2",
        ["--model", "gamma-quantify", "--theta", "0.2", "--gamma", "2", "--r", "2"],
        ("lower", "value", "upper"),
        [[86.31250094101962, 86.39143631252968, 86.39534365349424]],
    ),
    "gamma-quantify-r1": (
        "matching2",
        ["--model", "gamma-quantify", "--theta", "0.2", "--gamma", "2", "--r", "1"],
        ("lower", "value", "upper"),
        [[86.21250094101961, 86.30805508186153, 86.31250094101962]],
    ),
}


@pytest.mark.parametrize("label", list(NUMPY_RUNS))
def test_topk_family_level_loads_no_scipy(label, request, tmp_path):
    assert _pinned_run((label, NUMPY_RUNS[label]), request, tmp_path) == []
