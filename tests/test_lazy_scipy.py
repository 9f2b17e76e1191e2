"""The package runs on numpy alone: no model loads any SciPy module.

Importing ``scipy.optimize`` and ``scipy.stats`` costs more time and memory
than the rest of the package.  The per-prefix level at a ground order
outside {1, 2} is a Newton root and the top-k family level a numpy solve,
so neither needs SciPy; only the tests' oracles import it.  Each check runs
in a fresh interpreter, so ``sys.modules`` shows what the run loaded.
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
REPORT = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
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


def test_common_models_load_no_scipy_solvers(multihop, matching2, tmp_path):
    grid = ["--theta-grid", "0,0.05,0.1", "--sense", "capacity"]
    runs = [
        ["--model", "quantify", *multihop, *grid, "--r", "1", "--out", str(tmp_path / "q")],
        ["--model", "quantify", *multihop, *grid, "--r", "2", "--out", str(tmp_path / "q2")],
        ["--model", "quantify", *matching2, "--theta", "0.1", "--q", "2",
         "--out", str(tmp_path / "f")],
        ["--model", "calibrate", *multihop, *grid, "--r", "2", "--out", str(tmp_path / "c")],
        ["--model", "decide", *multihop, "--theta", "0.5", "--out", str(tmp_path / "d")],
    ]
    assert run_python(cli_code(runs) + REPORT) == []


def test_asymptotic_ci_half_width_is_1_96_standard_errors():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    std, root = float(np.std(values, ddof=1)), math.sqrt(len(values))
    assert asymptotic_ci(values).half_width == 1.96 * std / root


def _pinned_run(case, request, tmp_path):
    """Run one pinned CLI case in a fresh interpreter; return the SciPy
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


# the Newton prefix root (ground order 1.5); the pinned values are those of
# SciPy's brentq
ROOT_RUNS = {
    "quantify-r1.5": (
        "multihop",
        ["--model", "quantify", "--theta-grid", "0.05,0.2", "--sense", "capacity", "--r", "1.5"],
        ("value",),
        [[4.232351801184491], [4.092243401018408]],
    ),
}


@pytest.mark.parametrize("label", list(ROOT_RUNS))
def test_newton_root_loads_no_scipy(label, request, tmp_path):
    assert _pinned_run((label, ROOT_RUNS[label]), request, tmp_path) == []


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
