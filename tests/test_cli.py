"""Command-line pipelines: outputs, determinism, exit codes."""

import argparse
import ast
import csv
import importlib.util
import json
import math
import os
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import drbottleneck
from _oracles import streamed_csv, streamed_json
from conftest import count_calls
from drbottleneck import (
    AssignmentSystem,
    ExplicitSystem,
    MultihopParams,
    PathSystem,
    ScenarioSet,
    TreeSystem,
    bottleneck,
    decide,
    generate_multihop,
    quantify,
    save_scenarios,
    search,
    system_to_json,
)
from drbottleneck import cli
from drbottleneck.cli import main
from drbottleneck.scenarios import load_scenarios, write_in_place


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "gen"
    code = run_cli(
        "--model", "simulate", "--generator", "multihop",
        "--nodes", "6", "--samples", "10", "--seed", "11", "--out", str(out),
    )
    assert code == 0
    return {
        "instance": str(out) + ".instance.json",
        "scenarios": str(out) + ".scenarios.csv",
        "meta": str(out) + ".meta.json",
    }


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_writes_three_files(self, generated):
        meta = json.load(open(generated["meta"]))
        assert meta["generator"] == "multihop-shannon"
        assert meta["params"]["seed"] == 11
        instance = json.load(open(generated["instance"]))
        assert instance["type"] == "path"
        assert len(instance["edges"]) == 15

    def test_matching_generator(self, tmp_path):
        out = tmp_path / "match"
        assert run_cli(
            "--model", "simulate", "--generator", "matching-gaussian",
            "--side", "3", "--samples", "5", "--seed", "2", "--out", str(out),
        ) == 0
        instance = json.load(open(str(out) + ".instance.json"))
        assert instance == {"type": "assignment", "m": 3}

    @pytest.mark.parametrize("option, value, least", [
        ("side", "-2", 1),  # squared, -2 would pass as a count of 4 cells
        ("side", "0", 1),
        ("seed", "-1", 0),  # numpy's generator refuses it with a ValueError
    ])
    def test_matching_generator_counts(self, option, value, least, tmp_path, capsys):
        counts = {"side": "3", "seed": "2", option: value}
        assert run_cli(
            "--model", "simulate", "--generator", "matching-gaussian", "--samples", "5",
            "--side", counts["side"], "--seed", counts["seed"], "--out", str(tmp_path / "m"),
        ) == 1
        err = capsys.readouterr().err
        assert err == (f"error kind=domain: {option} must be an integer of at least "
                       f"{least}, got {value}\n")
        assert list(tmp_path.iterdir()) == []


class TestQuantify:
    def test_capacity_grid_monotone(self, generated, tmp_path):
        out = tmp_path / "q"
        code = run_cli(
            "--model", "quantify", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"],
            "--theta-grid", "0,0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2",
            "--sense", "capacity", "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out) + ".csv")
        assert rows[0] == ["theta", "value", "time_sec"]
        assert len(rows) == 12  # header plus one row per grid radius
        values = [float(r[1]) for r in rows[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_csv_numbers_round_trip(self, generated, tmp_path):
        out = tmp_path / "q2"
        run_cli(
            "--model", "quantify", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--theta", "0.05",
            "--sense", "capacity", "--out", str(out),
        )
        rows = read_csv(str(out) + ".csv")
        summary = json.load(open(str(out) + ".json"))
        assert float(rows[1][1]) == summary["results"][0]["value"]

    def test_deterministic_except_time(self, generated, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            run_cli(
                "--model", "quantify", "--instance", generated["instance"],
                "--scenarios", generated["scenarios"], "--theta", "0.1",
                "--sense", "capacity", "--out", str(out),
            )
            rows = read_csv(str(out) + ".csv")
            outputs.append([row[:2] for row in rows])
        assert outputs[0] == outputs[1]


class TestDecide:
    def test_shift_identity_in_json(self, generated, tmp_path):
        out = tmp_path / "d"
        code = run_cli(
            "--model", "decide", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--theta", "0.5", "--out", str(out),
        )
        assert code == 0
        summary = json.load(open(str(out) + ".json"))
        record = summary["results"][0]
        assert abs(record["shift_identity_gap"]) <= 1e-12
        assert record["objective"] == record["saa_objective"] + 0.5

    def test_matching_permutation_present(self, tmp_path):
        out = tmp_path / "m"
        run_cli(
            "--model", "simulate", "--generator", "matching-gaussian",
            "--side", "3", "--samples", "6", "--seed", "4", "--out", str(out),
        )
        dec = tmp_path / "mdec"
        code = run_cli(
            "--model", "robust-decide",
            "--instance", str(out) + ".instance.json",
            "--scenarios", str(out) + ".scenarios.csv",
            "--theta", "1.0", "--out", str(dec),
        )
        assert code == 0
        summary = json.load(open(str(dec) + ".json"))
        perm = summary["results"][0]["permutation"]
        assert sorted(perm) == [0, 1, 2]

    def test_tv_decide(self, generated, tmp_path):
        out = tmp_path / "tv"
        code = run_cli(
            "--model", "tv-decide", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--d", "1.0", "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out) + ".csv")
        assert len(rows) == 2

    def test_gamma_models(self, tmp_path):
        gen = tmp_path / "gmatch"
        run_cli(
            "--model", "simulate", "--generator", "matching-gaussian",
            "--side", "2", "--samples", "6", "--seed", "8", "--out", str(gen),
        )
        instance = str(gen) + ".instance.json"
        scenarios = str(gen) + ".scenarios.csv"
        outq = tmp_path / "gq"
        code = run_cli(
            "--model", "gamma-quantify", "--instance", instance,
            "--scenarios", scenarios, "--theta", "0.2",
            "--gamma", "2", "--out", str(outq),
        )
        assert code == 0
        summary = json.load(open(str(outq) + ".json"))
        rec = summary["results"][0]
        assert rec["lower"] <= rec["upper"]
        outd = tmp_path / "gd"
        code = run_cli(
            "--model", "gamma-decide", "--instance", instance,
            "--scenarios", scenarios, "--theta", "0.2",
            "--gamma", "2", "--out", str(outd),
        )
        assert code == 0


class TestCalibrateModel:
    def test_selected_theta_reported(self, generated, tmp_path):
        out = tmp_path / "cal"
        code = run_cli(
            "--model", "calibrate", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"],
            "--theta-grid", "0,0.05,0.1,0.2,0.4,0.8",
            "--sense", "capacity", "--out", str(out),
        )
        assert code == 0
        rows = read_csv(str(out) + ".csv")
        assert rows[0] == ["theta", "value", "time_sec", "ci_lower", "ci_upper"]
        summary = json.load(open(str(out) + ".json"))
        assert "selected_theta" in summary


def write_pair(tmp_path, tag, system, costs=None, count=4, seed=0):
    """Instance and scenario files for ``system``; the scenarios are
    ``costs``, or ``count`` rows of U(0, 10) costs drawn with ``seed``."""
    base = str(tmp_path / tag)
    with open(base + ".instance.json", "w", encoding="utf-8") as fh:
        json.dump(system_to_json(system), fh)
    if costs is None:
        costs = np.random.default_rng(seed).uniform(0.0, 10.0, size=(count, system.ground.n))
    save_scenarios(base + ".scenarios.csv", ScenarioSet(np.asarray(costs, dtype=float)))
    return {"instance": base + ".instance.json", "scenarios": base + ".scenarios.csv"}


@pytest.fixture
def tree(tmp_path):
    """A 5-node graph with two cycles and a parallel edge."""
    edges = ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (3, 4))
    return write_pair(tmp_path, "tree", TreeSystem(nodes=5, edges=edges), seed=6)


@pytest.fixture
def explicit(tmp_path):
    members = ({0, 1}, {1, 2, 3}, {0, 4}, {2, 4, 5}, {3, 5})
    return write_pair(tmp_path, "explicit", ExplicitSystem(members=members, n=6), seed=8)


# Scenario costs on the explicit system {0}, {1} whose reported averages
# leave the float range
OVERFLOWING_COSTS = {
    # the chosen member's squared deviations overflow; the scenario values
    # -1e308, -1e308, 1e308 overflow their exact sum on the way
    "variance": [[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]],
    # the exact sum of the member values 1.7e308, 1.7e308, -1 overflows
    "sum": [[1.7e308, 1.7e308], [1.7e308, 1.7e308], [-1.0, -1.0]],
    # the exact sum is 1e308, but numpy's eight-way pairwise mean in the
    # band's spread adds -inf to inf
    "pairwise": [[v, v] for v in (1e308, -1e308, 1e308, 0.0, -1e308, -1e308, 1e308, 1e308)],
}
# (shape, model argv, subject of the refusal); the other models ignore --d
OVERFLOW_CASES = [
    *((shape, [model], "decision objective") for shape in ("variance", "sum")
      for model in ("decide", "robust-decide", "tv-decide")),
    *(("variance", argv, "robust value") for argv in (
        ["quantify"], ["calibrate"], ["evaluate"], ["gamma-quantify", "--gamma", "1"])),
    *(("pairwise", [model], "robust value") for model in ("calibrate", "evaluate")),
]


VALID_INSTANCES = {
    "path": {"type": "path", "nodes": 4, "s": 0, "t": 3, "edges": [
        {"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 1, "v": 2}, {"id": 2, "u": 2, "v": 3}]},
    "tree": {"type": "tree", "nodes": 4, "edges": [
        {"id": 0, "u": 0, "v": 1}, {"id": 1, "u": 1, "v": 2}, {"id": 2, "u": 2, "v": 3}]},
    "assignment": {"type": "assignment", "m": 2},
    "explicit": {"type": "explicit", "n": 2, "sets": [[0], [1]]},
}

# each value truncates, or converts, to a valid instance
NON_INTEGER_FIELDS = [
    ("assignment", ("m",), 2.7),
    ("assignment", ("m",), True),
    ("path", ("nodes",), 4.5),
    ("path", ("s",), 0.9),
    ("path", ("t",), 3.2),
    ("path", ("edges", 1, "id"), 1.4),
    ("path", ("edges", 1, "u"), 1.6),
    ("path", ("edges", 1, "v"), 2.2),
    ("tree", ("nodes",), 4.0),
    ("explicit", ("n",), 2.5),
    ("explicit", ("sets", 1, 0), "1"),
    ("explicit", ("sets", 1, 0), 1.0),
]


class TestErrorPaths:
    def test_missing_files(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run_cli(
            "--model", "quantify", "--instance", "/nonexistent.json",
            "--scenarios", "/nonexistent.csv", "--out", str(out),
        )
        assert code == 1
        assert "error kind=" in capsys.readouterr().err

    def test_bad_tv_radius(self, generated, tmp_path, capsys):
        out = tmp_path / "y"
        code = run_cli(
            "--model", "tv-decide", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--d", "3.0", "--out", str(out),
        )
        assert code == 1
        assert "kind=domain" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shape, argv, subject", OVERFLOW_CASES,
        ids=[f"{shape}-{argv[0]}" for shape, argv, _ in OVERFLOW_CASES],
    )
    def test_overflowing_costs(self, shape, argv, subject, tmp_path, capsys):
        system = ExplicitSystem(members=({0}, {1}), n=2)
        pair = write_pair(tmp_path, "big", system, OVERFLOWING_COSTS[shape])
        code = run_cli(
            "--model", *argv, "--instance", pair["instance"], "--scenarios",
            pair["scenarios"], "--theta", "0.5", "--d", "0.5", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert f"error kind=domain: {subject} overflows" in capsys.readouterr().err

    def test_scale_guard_exit_code(self, tmp_path, capsys, monkeypatch):
        """The variance-robust band at radius 2 on a 14-node multihop runs past
        the search budget (millions of states at the full one), so it exits 2;
        a small budget keeps the test fast."""
        monkeypatch.setattr(search, "SEARCH_MAX_STATES", 10000)
        gen = tmp_path / "big"
        run_cli(
            "--model", "simulate", "--generator", "multihop", "--nodes", "14",
            "--samples", "10", "--seed", "7", "--out", str(gen),
        )
        out = tmp_path / "z"
        code = run_cli(
            "--model", "robust-decide", "--instance", str(gen) + ".instance.json",
            "--scenarios", str(gen) + ".scenarios.csv", "--theta", "2",
            "--out", str(out),
        )
        assert code == 2
        assert "kind=scale-guard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, refusal",
        [
            (ExplicitSystem(members=[{j, (j + 1) % 22} for j in range(22)], n=22),
             "ground set too large for blocker enumeration"),
            (AssignmentSystem(m=11), "assignment blocker enumeration limited to m <= 10"),
        ],
        ids=["explicit-22", "assignment-11"],
    )
    def test_force_keeps_the_blocker_limits(self, system, refusal, tmp_path, capsys):
        """--force-enumeration lifts the search budget, not the size limits
        of the blocker oracles that every bottleneck evaluation needs."""
        pair = write_pair(tmp_path, "big", system, count=2)
        code = run_cli(
            "--model", "quantify", "--instance", pair["instance"],
            "--scenarios", pair["scenarios"], "--force-enumeration",
            "--out", str(tmp_path / "g"),
        )
        assert code == 2
        assert f"error kind=scale-guard: {refusal}" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_force_lists_no_matchings(self, tmp_path):
        """On an 11x11, past the top-k family enumeration's ground, the forced
        searches run and no member is listed for the union size (listing
        all 11! matchings would not end)."""
        pair = write_pair(tmp_path, "big", AssignmentSystem(m=11), count=2)
        code = run_cli(
            "--model", "gamma-quantify", "--instance", pair["instance"],
            "--scenarios", pair["scenarios"], "--force-enumeration", "--gamma", "2",
            "--theta", "0", "--out", str(tmp_path / "g"),
        )
        assert code == 0

    @pytest.mark.parametrize(
        "payload",
        ['{"type": "path", "edges": []}', '{"type": "assignment", "m": "x"}'],
        ids=["missing-field", "non-integer-field"],
    )
    def test_malformed_instance(self, generated, tmp_path, capsys, payload):
        instance = tmp_path / "bad.json"
        instance.write_text(payload)
        code = run_cli(
            "--model", "quantify", "--instance", str(instance),
            "--scenarios", generated["scenarios"], "--out", str(tmp_path / "v"),
        )
        assert code == 1
        assert "kind=invalid-instance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, field, value", NON_INTEGER_FIELDS,
        ids=[f"{kind}-{'.'.join(map(str, field))}-{value!r}"
             for kind, field, value in NON_INTEGER_FIELDS],
    )
    def test_non_integer_instance_field(self, kind, field, value, tmp_path, capsys):
        payload = json.loads(json.dumps(VALID_INSTANCES[kind]))
        *path, last = field
        target = payload
        for key in path:
            target = target[key]
        target[last] = value
        instance = tmp_path / "bad.json"
        instance.write_text(json.dumps(payload))
        width = {"path": 3, "tree": 3, "assignment": 4, "explicit": 2}[kind]
        scenarios = tmp_path / "scen.csv"
        save_scenarios(scenarios, ScenarioSet(np.arange(2.0 * width).reshape(2, width)))
        code = run_cli(
            "--model", "quantify", "--instance", str(instance), "--scenarios", str(scenarios),
            "--theta", "0.5", "--out", str(tmp_path / "v"),
        )
        assert code == 1
        assert "error kind=invalid-instance" in capsys.readouterr().err

    def test_unreadable_scenarios(self, generated, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1\nnot,numeric\n")
        out = tmp_path / "w"
        code = run_cli(
            "--model", "quantify", "--instance", generated["instance"],
            "--scenarios", str(bad), "--out", str(out),
        )
        assert code == 1
        assert "kind=parse" in capsys.readouterr().err


class TestFiniteOrderCli:
    def test_quantify_with_finite_q(self, tmp_path):
        instance = tmp_path / "tiny.json"
        instance.write_text(
            json.dumps({"type": "explicit", "n": 2, "sets": [[0], [0, 1]]})
        )
        scenarios = tmp_path / "tiny.csv"
        scenarios.write_text("0,1\n5.0,1.0\n")
        out = tmp_path / "fq"
        code = run_cli(
            "--model", "quantify", "--instance", str(instance),
            "--scenarios", str(scenarios), "--theta", "0.3", "--q", "1",
            "--out", str(out),
        )
        assert code == 0
        summary = json.load(open(str(out) + ".json"))
        # single relevant element: worst case moves it by the whole budget
        assert abs(summary["results"][0]["value"] - 5.3) < 1e-6


@pytest.fixture
def matching(tmp_path):
    out = tmp_path / "match3"
    code = run_cli(
        "--model", "simulate", "--generator", "matching-gaussian",
        "--side", "3", "--samples", "6", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    return {
        "instance": str(out) + ".instance.json",
        "scenarios": str(out) + ".scenarios.csv",
        "meta": str(out) + ".meta.json",
    }


REPORT = {"model", "chosen", "objective", "per_scenario", "mean", "variance"}
BASE_CSV = ["theta", "value", "time_sec"]
CI_CSV = BASE_CSV + ["ci_lower", "ci_upper"]

# model -> (CSV header, top-level JSON keys, keys of each results entry or None)
OUTPUT_SHAPES = {
    "quantify": (
        BASE_CSV,
        {"model", "sense", "transport_order", "ground_order", "saa", "results"},
        {"theta", "value"},
    ),
    "decide": (
        BASE_CSV,
        {"model", "results"},
        REPORT | {"theta", "saa_objective", "shift_identity_gap"},
    ),
    "robust-decide": (BASE_CSV, {"model", "results"}, REPORT | {"theta"}),
    "tv-decide": (BASE_CSV, {"model", "results"}, REPORT | {"d"}),
    "gamma-quantify": (
        BASE_CSV + ["saa", "lower", "upper"],
        {"model", "k", "ground_order", "results"},
        {"theta", "value", "saa", "lower", "upper", "exact_available", "downgraded"},
    ),
    "gamma-decide": (BASE_CSV, {"model", "k", "results"}, REPORT | {"theta"}),
    "calibrate": (
        CI_CSV,
        {"model", "sense", "saa_ci", "band_endpoint", "selected_theta", "results"},
        {"theta", "value"},
    ),
    "evaluate": (CI_CSV, {"model", "sense", "mean_value", "per_scenario"}, None),
}


class TestOutputShape:
    """Pins every model's CSV header and JSON field names."""

    @pytest.mark.parametrize("fixture", ["generated", "matching"])
    @pytest.mark.parametrize("model", [*OUTPUT_SHAPES, "simulate"])
    def test_fields(self, model, fixture, request, tmp_path):
        pair = request.getfixturevalue(fixture)
        if model == "simulate":
            header = read_csv(pair["scenarios"])[0]
            assert header == [str(j) for j in range(len(header))]
            meta = json.load(open(pair["meta"]))
            assert set(meta) == {"schema_version", "generator", "params", "rng"}
            instance = json.load(open(pair["instance"]))
            kind = {"generated": "path", "matching": "assignment"}[fixture]
            assert instance["type"] == kind
            return
        out = str(tmp_path / model)
        code = run_cli(
            "--model", model, "--instance", pair["instance"],
            "--scenarios", pair["scenarios"], "--theta-grid", "0,0.5",
            "--d", "0.5", "--seed", "3", "--out", out,
        )
        assert code == 0
        header, top, entry = OUTPUT_SHAPES[model]
        assert read_csv(out + ".csv")[0] == header
        summary = json.load(open(out + ".json"))
        assert set(summary) == top | {"schema_version"}
        assert summary["model"] == model
        if entry is None:
            return
        if fixture == "matching" and entry >= REPORT:
            entry = entry | {"permutation"}
        assert [set(record) for record in summary["results"]] == [entry] * (
            1 if model == "tv-decide" else 2
        )


class TestOptionChecks:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "quantify", "--theta", "0.3", "--q", "nan"],
             "--q must be a number, not NaN"),
            (["--model", "quantify", "--theta", "0.3", "--r", "nan"],
             "--r must be a number, not NaN"),
            (["--model", "decide", "--theta", "nan"], "--theta must be a number, not NaN"),
            (["--model", "robust-decide", "--theta-grid", "0,nan"],
             "--theta-grid must be a number, not NaN"),
            (["--model", "tv-decide", "--d", "nan"], "--d must be a number, not NaN"),
            (["--model", "decide", "--theta", "inf"], "radius must be finite and nonnegative"),
            (["--model", "quantify", "--theta-grid", ","],
             "--theta-grid needs at least one radius"),
            (["--model", "decide", "--theta-grid", ""],
             "--theta-grid needs at least one radius"),
            (["--model", "quantify", "--q=-inf"], "transport order must be at least 1, got -inf"),
            (["--model", "decide", "--q=-inf"], "transport order must be at least 1, got -inf"),
        ],
        ids=["q", "r", "theta", "theta-grid", "d", "theta-inf", "theta-grid-comma",
             "theta-grid-empty", "quantify-q-minus-inf", "decide-q-minus-inf"],
    )
    def test_nan_rejected(self, generated, tmp_path, capsys, argv, message):
        code = run_cli(
            *argv, "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--out", str(tmp_path / "n"),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error kind=domain: {message}\n"
        assert not (tmp_path / "n.csv").exists()

    @pytest.mark.parametrize(
        "q, order", [("inf", "inf"), ("infinity", "inf"), ("oo", "inf"), ("2", 2.0)]
    )
    def test_order_spellings_accepted(self, generated, tmp_path, q, order):
        out = str(tmp_path / "q")
        code = run_cli(
            "--model", "quantify", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--theta", "0.1", "--q", q, "--out", out,
        )
        assert code == 0
        assert json.load(open(out + ".json"))["transport_order"] == order

    def test_oracle_model_is_gone(self, generated, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "--model", "oracle", "--instance", generated["instance"],
                "--scenarios", generated["scenarios"], "--out", str(tmp_path / "o"),
            )
        assert exc.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model", ["decide", "robust-decide", "gamma-quantify", "gamma-decide", "calibrate"]
    )
    def test_finite_q_rejected_by_order_infinity_models(
        self, generated, tmp_path, capsys, model
    ):
        code = run_cli(
            "--model", model, "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--theta", "0.1",
            "--q", "2", "--out", str(tmp_path / "f"),
        )
        assert code == 1
        assert "kind=domain" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize(
        "model", ["decide", "robust-decide", "tv-decide", "gamma-decide", "gamma-quantify"]
    )
    def test_capacity_sense_rejected_by_cost_models(self, generated, tmp_path, capsys, model):
        code = run_cli(
            "--model", model, "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--theta", "0.1", "--d", "0.5",
            "--sense", "capacity", "--out", str(tmp_path / "c"),
        )
        assert code == 1
        assert "kind=domain" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_capacity_sense_rejected_at_finite_q(self, generated, tmp_path, capsys):
        code = run_cli(
            "--model", "quantify", "--instance", generated["instance"],
            "--scenarios", generated["scenarios"], "--theta", "0.1", "--q", "2",
            "--sense", "capacity", "--out", str(tmp_path / "c"),
        )
        assert code == 1
        assert "cost sense only" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()


@pytest.fixture
def bridge(tmp_path):
    """A 4-node bridge with s and t not adjacent, so top-2 sums are defined and
    its top-k blocker families can be enumerated."""
    system = PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3)
    return write_pair(tmp_path, "bridge", system, count=5, seed=11)


GRID = ("0", "0.25", "1", "2.5")
GRID_MODELS = {
    "quantify-cost-r1": ["--model", "quantify", "--sense", "cost", "--r", "1"],
    "quantify-capacity-r1": ["--model", "quantify", "--sense", "capacity", "--r", "1"],
    "quantify-cost-r2": ["--model", "quantify", "--sense", "cost", "--r", "2"],
    "quantify-capacity-r2": ["--model", "quantify", "--sense", "capacity", "--r", "2"],
    "calibrate": ["--model", "calibrate", "--sense", "capacity", "--r", "2"],
    "gamma-quantify": ["--model", "gamma-quantify", "--gamma", "2", "--r", "1"],
}


class TestGridSharesTheEmpiricalWork:
    """A grid run computes what no radius changes once, and still answers
    every radius exactly as a run of that radius alone does."""

    @pytest.mark.parametrize("fixture", ["bridge", "matching"])
    @pytest.mark.parametrize("argv", GRID_MODELS.values(), ids=GRID_MODELS.keys())
    def test_grid_equals_single_radii(self, argv, fixture, request, tmp_path):
        pair = request.getfixturevalue(fixture)
        common = [*argv, "--instance", pair["instance"], "--scenarios", pair["scenarios"]]

        def run(tag, *radius):
            out = str(tmp_path / tag)
            assert run_cli(*common, *radius, "--out", out) == 0
            summary = json.load(open(out + ".json"))
            rows = [row[:2] + row[3:] for row in read_csv(out + ".csv")[1:]]
            shared = {key: summary[key] for key in ("saa", "saa_ci") if key in summary}
            return summary["results"], rows, shared

        records, rows, shared = run("grid", "--theta-grid", ",".join(GRID))
        for i, theta in enumerate(GRID):
            # JSON floats are written by repr, so equal text is equal bits
            assert json.dumps(run(f"single{i}", "--theta", theta), sort_keys=True) == (
                json.dumps(([records[i]], [rows[i]], shared), sort_keys=True)
            )

    @pytest.mark.parametrize("fixture", ["generated", "matching"])
    @pytest.mark.parametrize("sense", ["cost", "capacity"])
    @pytest.mark.parametrize("model", ["quantify", "calibrate"])
    def test_one_bottleneck_per_scenario(self, model, sense, fixture, request, tmp_path,
                                         monkeypatch):
        pair = request.getfixturevalue(fixture)
        count = load_scenarios(pair["scenarios"]).count
        calls = count_calls(monkeypatch, bottleneck.bottleneck_value)
        for grid in ("0.5", "0,0.3", "0,0.05,0.1,0.2,0.4,0.8"):
            calls.clear()
            assert run_cli(
                "--model", model, "--instance", pair["instance"],
                "--scenarios", pair["scenarios"], "--theta-grid", grid,
                "--sense", sense, "--out", str(tmp_path / "w"),
            ) == 0
            assert len(calls) == count, grid

    def test_finite_order_quotes_from_the_record(self, bridge, tmp_path, monkeypatch):
        # one bottleneck per scenario for the whole grid, not one more per
        # scenario per radius; the values and multipliers are those the
        # per-radius route gave, bit for bit
        calls = count_calls(monkeypatch, bottleneck.bottleneck_value)
        out = str(tmp_path / "f")
        assert run_cli(
            "--model", "quantify", "--q", "2", "--theta-grid", "0.5,1,2",
            "--instance", bridge["instance"], "--scenarios", bridge["scenarios"], "--out", out,
        ) == 0
        assert len(calls) == load_scenarios(bridge["scenarios"]).count == 5
        summary = json.load(open(out + ".json"))
        assert summary["saa"] == 4.286164716916611
        assert [(r["theta"], r["value"], r["multiplier"]) for r in summary["results"]] == [
            (0.5, 4.786164716916611, 1.0),
            (1.0, 5.286164716916611, 0.5),
            (2.0, 6.210202997544329, 0.2007755363836642),
        ]

    def test_one_topk_enumeration_per_run(self, bridge, tmp_path, monkeypatch):
        # one top-k sum search per scenario for the record (``topk_record``
        # runs them on one fold, through the decision search) and one
        # enumeration per run; member generation's certificate searches, one
        # ``topk_sum_value`` a round, are per radius by design and pinned
        # apart: none at radius 0, 6 for the 5 scenarios at 0.5 (one takes
        # two rounds), 19 over the grid
        count = load_scenarios(bridge["scenarios"]).count
        searches = count_calls(monkeypatch, decide._minimize)
        certificates = count_calls(monkeypatch, bottleneck.topk_sum_value)
        families = count_calls(monkeypatch, bottleneck.topk_blocker_enumerate)
        for grid, pinned in (("0.5", 6), ("0,0.5,1,2", 19)):
            searches.clear()
            certificates.clear()
            families.clear()
            assert run_cli(
                "--model", "gamma-quantify", "--instance", bridge["instance"],
                "--scenarios", bridge["scenarios"], "--theta-grid", grid,
                "--gamma", "2", "--out", str(tmp_path / "g"),
            ) == 0
            saa = len(searches) - len(certificates)
            assert (saa, len(families), len(certificates)) == (count, 1, pinned), grid

    def test_multihop_pass_oracle_work(self, tmp_path, monkeypatch):
        # the three lines of one benchmark pass on its multihop instance (20
        # nodes, 10 scenarios, an 11-radius capacity grid at r = 1 and 2):
        # one bottleneck per scenario and line, one element level per
        # search at a positive radius and per blocker lift, and one blocker
        # call per lift
        system, scenarios, _ = generate_multihop(MultihopParams(nodes=20, sample_count=10, seed=7))
        pair = write_pair(tmp_path, "multihop", system, scenarios.costs)
        bottlenecks = count_calls(monkeypatch, bottleneck.bottleneck_value)
        levels = count_calls(monkeypatch, quantify._prefix_level)
        lifts = count_calls(monkeypatch, quantify._raise_cost)
        grid = ["--theta-grid", "0,0.02,0.04,0.06,0.08,0.1,0.12,0.14,0.16,0.18,0.2"]
        for argv in (
            ["--model", "quantify", *grid, "--r", "1"],
            ["--model", "calibrate", *grid, "--r", "2"],
            ["--model", "evaluate"],
        ):
            assert run_cli(
                *argv, "--instance", pair["instance"], "--scenarios", pair["scenarios"],
                "--sense", "capacity", "--out", str(tmp_path / "m"),
            ) == 0
        assert (len(bottlenecks), len(levels), len(lifts)) == (30, 307, 107)


# every model that reads an instance, as (line id, argv); --d is read by
# tv-decide alone
FUZZ_LINES = {
    "quantify-cost": ["--model", "quantify"],
    "quantify-capacity": ["--model", "quantify", "--sense", "capacity"],
    "quantify-theta-1e300": ["--model", "quantify", "--theta", "1e300"],
    "quantify-q2": ["--model", "quantify", "--q", "2"],
    "quantify-r2": ["--model", "quantify", "--r", "2"],
    "quantify-theta-1e300-r2": ["--model", "quantify", "--theta", "1e300", "--r", "2"],
    "calibrate": ["--model", "calibrate"],
    "evaluate": ["--model", "evaluate"],
    "gamma-quantify-r1": ["--model", "gamma-quantify", "--gamma", "1"],
    "gamma-quantify-r2": ["--model", "gamma-quantify", "--gamma", "1", "--r", "2"],
    "gamma-quantify-theta-1e300-r2": [
        "--model", "gamma-quantify", "--gamma", "2", "--theta", "1e300", "--r", "2"
    ],
    "decide": ["--model", "decide"],
    "robust-decide": ["--model", "robust-decide"],
    "tv-decide": ["--model", "tv-decide", "--d", "0.5"],
    "gamma-decide": ["--model", "gamma-decide"],
    # the shape's files with a byte 0xe9, which is not UTF-8, written by
    # ``write_latin1``; a line's own --instance or --scenarios comes last
    "quantify-latin1-scenarios": ["--model", "quantify", "--scenarios", "latin1.scenarios.csv"],
    "quantify-latin1-instance": ["--model", "quantify", "--instance", "latin1.instance.json"],
}
FUZZ_SYSTEMS = {
    "path": PathSystem(nodes=4, edges=((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)), s=0, t=3),
    "tree": TreeSystem(nodes=4, edges=((0, 1), (1, 2), (2, 0), (2, 3))),
    "assignment": AssignmentSystem(m=2),
    "explicit": ExplicitSystem(members=({0}, {1}, {0, 1}), n=2),
}


def fuzz_shapes(n, rng):
    """Scenario costs at and past the edges of the float range."""
    signs = lambda rows: rng.choice([-1.0, 1.0], size=(rows, n))
    return {
        "plus-1e308": np.full((3, n), 1e308),
        "minus-1e308": np.full((3, n), -1e308),
        "1.7e308": np.vstack([np.full((2, n), 1.7e308), np.full((1, n), -1.0)]),
        "mixed-signs": signs(4) * 1e308,
        "subnormals": signs(3) * rng.integers(1, 5, size=(3, n)) * 5e-324,
        "zeros": signs(3) * 0.0,
        "one-scenario": signs(1) * 1e308,
        "spaced-1e300": np.arange(-2.0, 3.0)[:, None] * 1e300 + rng.uniform(0.0, 1.0, (5, n)),
    }


def write_latin1(pair) -> None:
    """The pair's files with a byte 0xe9 (Latin-1 for "é", not UTF-8), in
    the working directory: before the first cost cell, and in a new field
    of the instance JSON."""
    with open(pair["scenarios"], "rb") as fh:
        text = fh.read()
    with open("latin1.scenarios.csv", "wb") as fh:
        fh.write(text.replace(b"\n", b"\n\xe9", 1))
    with open(pair["instance"], "rb") as fh:
        text = fh.read()
    with open("latin1.instance.json", "wb") as fh:
        fh.write(text.replace(b"{", b'{"note": "\xe9", ', 1))


def all_finite(payload) -> bool:
    if isinstance(payload, float):
        return math.isfinite(payload)
    if isinstance(payload, dict):
        payload = list(payload.values())
    return not isinstance(payload, list) or all(all_finite(x) for x in payload)


class TestNoTraceback:
    """Every model line on costs at the edges of the float range ends in
    finite output or a stated refusal, never an escaping exception."""

    @pytest.mark.parametrize("kind", FUZZ_SYSTEMS)
    def test_extreme_costs(self, kind, tmp_path, capsys, monkeypatch):
        system = FUZZ_SYSTEMS[kind]
        rng = np.random.default_rng(sorted(FUZZ_SYSTEMS).index(kind))
        monkeypatch.chdir(tmp_path)
        failures = []
        for shape, costs in fuzz_shapes(system.ground.n, rng).items():
            pair = write_pair(tmp_path, shape, system, costs)
            write_latin1(pair)
            for line, argv in FUZZ_LINES.items():
                out = str(tmp_path / "out")
                code = run_cli("--instance", pair["instance"],
                               "--scenarios", pair["scenarios"], "--out", out, *argv)
                err = capsys.readouterr().err.strip().splitlines()
                if code == 0:
                    if not all_finite(json.load(open(out + ".json"))):
                        failures.append((shape, line, "non-finite JSON"))
                elif not (err and err[-1].startswith("error kind=")):
                    failures.append((shape, line, code, err[-1:]))
        assert failures == []

    def test_deep_state_space(self, tmp_path):
        # 1,500 parallel edges make the tree's state space 1,500 deep
        system = TreeSystem(nodes=2, edges=((0, 1),) * 1500)
        pair = write_pair(tmp_path, "deep", system, count=2)
        assert run_cli(
            "--model", "gamma-quantify", "--instance", pair["instance"],
            "--scenarios", pair["scenarios"], "--gamma", "1", "--theta", "0",
            "--out", str(tmp_path / "g"),
        ) == 0

    def test_non_utf8_files_are_refused(self, bridge, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_latin1(bridge)
        for argv, kind in (
            (["--scenarios", "latin1.scenarios.csv"], "parse"),
            (["--instance", "latin1.instance.json"], "invalid-instance"),
        ):
            code = run_cli("--model", "quantify", "--instance", bridge["instance"],
                           "--scenarios", bridge["scenarios"], *argv, "--out", "out")
            err = capsys.readouterr().err.strip().splitlines()
            assert code == 1 and err[-1].startswith(f"error kind={kind}: "), err
            assert "0xe9" in err[-1]


def outputs_less_time(out):
    """The CSV and JSON bytes of a run, with the CSV's time_sec column cut."""
    rows = [line.split(",") for line in open(out + ".csv", newline="").read().split("\r\n")]
    at = rows[0].index("time_sec")
    csv_text = "\r\n".join(",".join(row[:at] + row[at + 1:]) for row in rows)
    return csv_text, open(out + ".json", "rb").read()


class TestParserReuse:
    """``main`` builds its parser once per process, and no call's options
    reach the next."""

    def test_one_parser_per_process(self, bridge, tmp_path, monkeypatch):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs),
        )
        pair = ["--instance", bridge["instance"], "--scenarios", bridge["scenarios"]]
        for i, model in enumerate(["quantify", "calibrate", "evaluate", "quantify"]):
            assert run_cli("--model", model, *pair, "--out", str(tmp_path / str(i))) == 0
        assert len(built) == 1

    def test_options_do_not_leak_between_calls(self, bridge, tmp_path, capsys):
        cli.build_parser.cache_clear()
        pair = ["--instance", bridge["instance"], "--scenarios", bridge["scenarios"]]
        default = ["--model", "quantify", *pair, "--theta-grid", "0,0.5,1"]
        alone = str(tmp_path / "alone")
        assert run_cli(*default, "--out", alone) == 0
        assert run_cli(*default, "--r", "2", "--sense", "capacity",
                       "--out", str(tmp_path / "other")) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli("--model", "no-such-model", *pair, "--out", str(tmp_path / "bad"))
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        after = str(tmp_path / "after")
        assert run_cli(*default, "--out", after) == 0
        capsys.readouterr()
        assert outputs_less_time(after) == outputs_less_time(alone)
        assert outputs_less_time(after) != outputs_less_time(str(tmp_path / "other"))


class TestOutputBytes:
    """Each output, built in memory and written once, has the bytes the
    streaming writers gave."""

    @pytest.mark.parametrize("line", [
        ["--model", "quantify", "--theta-grid", "0,0.25,1,2.5", "--sense", "capacity"],
        ["--model", "gamma-quantify", "--gamma", "2", "--theta-grid", "0,0.5"],
        ["--model", "calibrate", "--theta-grid", "0,0.25,1", "--r", "2"],
        ["--model", "evaluate"],
        ["--model", "quantify", "--theta", "1", "--q", "2"],
    ], ids=["quantify", "gamma-quantify", "calibrate", "evaluate", "finite-order"])
    def test_grid_outputs_match_the_streamed_writers(self, line, bridge, tmp_path, monkeypatch):
        written = []
        write_csv, write_json = cli._write_csv, cli._write_json

        def both_csv(path, header, rows):
            write_csv(path, header, rows)
            streamed_csv(path + ".streamed", header, rows)
            written.append(path)

        def both_json(path, payload):
            write_json(path, payload)
            streamed_json(path + ".streamed", payload, cli.JSON_SCHEMA_VERSION)
            written.append(path)

        monkeypatch.setattr(cli, "_write_csv", both_csv)
        monkeypatch.setattr(cli, "_write_json", both_json)
        out = str(tmp_path / "out")
        assert run_cli(*line, "--instance", bridge["instance"],
                       "--scenarios", bridge["scenarios"], "--out", out) == 0
        assert sorted(written) == [out + ".csv", out + ".json"]
        for path in written:
            assert open(path, "rb").read() == open(path + ".streamed", "rb").read(), path

    def test_simulate_instance_json_bytes(self, generated):
        text = open(generated["instance"], encoding="utf-8").read()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def writing_opens(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in ``source`` that opens a
    file for writing: ``open``, ``io.open``, ``os.fdopen`` or a ``.open``
    method with a mode holding w, a, x or + (or a mode that is not a
    literal), ``os.open`` with a write flag, or a pathlib or numpy writer."""
    write_flags = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}
    writers = {"write_text", "write_bytes", "savetxt", "tofile"}

    def writes(call):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in writers:
            return True
        if name not in ("open", "fdopen"):
            return False
        keywords = {kw.arg: kw.value for kw in call.keywords}
        if owner == "os" and name == "open":
            flags = call.args[1] if len(call.args) > 1 else keywords.get("flags")
            return any(getattr(node, "id", getattr(node, "attr", None)) in write_flags
                       for node in ast.walk(flags))
        at = 1 if isinstance(func, ast.Name) or owner in ("io", "os", "codecs") else 0
        mode = call.args[at] if len(call.args) > at else keywords.get("mode")
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return any(c in mode.value for c in "wax+")

    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and writes(child):
                found.append((inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


class TestWriteInPlace:
    """Every output is rewritten in place by ``scenarios.write_in_place``:
    the same file, its old bytes written over and the tail cut, never
    truncated to zero first."""

    def quantify(self, pair, out, grid):
        return run_cli("--model", "quantify", "--instance", pair["instance"],
                       "--scenarios", pair["scenarios"], "--theta-grid", grid, "--out", out)

    def test_shorter_rerun_leaves_no_stale_tail(self, bridge, tmp_path):
        out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
        assert self.quantify(bridge, out, ",".join(str(i / 10) for i in range(11))) == 0
        long_sizes = [os.path.getsize(out + ext) for ext in (".csv", ".json")]
        assert self.quantify(bridge, out, "0.5") == 0
        assert self.quantify(bridge, fresh, "0.5") == 0
        assert outputs_less_time(out) == outputs_less_time(fresh)
        assert len(read_csv(out + ".csv")) == 2
        short_sizes = [os.path.getsize(out + ext) for ext in (".csv", ".json")]
        assert all(short < long for short, long in zip(short_sizes, long_sizes))

    def test_rerun_keeps_each_file(self, bridge, tmp_path):
        out = str(tmp_path / "out")
        assert self.quantify(bridge, out, "0,0.5,1") == 0
        os.chmod(out + ".csv", 0o600)
        before = [os.stat(out + ext) for ext in (".csv", ".json")]
        assert self.quantify(bridge, out, "0") == 0
        after = [os.stat(out + ext) for ext in (".csv", ".json")]
        assert [s.st_ino for s in after] == [s.st_ino for s in before]
        assert [s.st_mode for s in after] == [s.st_mode for s in before]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        mask = os.umask(0o027)
        try:
            write_in_place(tmp_path / "new.txt", "x\n")
        finally:
            os.umask(mask)
        assert os.stat(tmp_path / "new.txt").st_mode & 0o777 == 0o640

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_outputs_linked_to_dev_null(self, bridge, tmp_path):
        # ftruncate on a character device fails with EINVAL
        out = str(tmp_path / "out")
        for ext in (".csv", ".json"):
            os.symlink("/dev/null", out + ext)
        assert self.quantify(bridge, out, "0,0.5,1") == 0
        assert all(os.path.islink(out + ext) for ext in (".csv", ".json"))

    def test_save_scenarios_over_a_longer_file(self, tmp_path):
        path = str(tmp_path / "s.csv")
        rng = np.random.default_rng(3)
        save_scenarios(path, ScenarioSet(rng.uniform(0.0, 10.0, size=(20, 6))))
        short = ScenarioSet(rng.uniform(0.0, 10.0, size=(2, 3)))
        save_scenarios(path, short)
        assert np.array_equal(load_scenarios(path).costs, short.costs)

    def test_missing_output_directory(self, bridge, tmp_path, capsys):
        out = str(tmp_path / "missing" / "out")
        assert self.quantify(bridge, out, "0") == 1
        assert capsys.readouterr().err.startswith("error kind=io: ")
        assert not (tmp_path / "missing").exists()

    def test_detector_finds_writing_opens(self):
        source = """
import io, os
def reads(p):
    open(p); open(p, "rb"); io.open(p, mode="r"); os.open(p, os.O_RDONLY); Path(p).open()
def writes(p, m):
    open(p, "w"); io.open(p, mode="ab"); open(p, "r+"); open(p, m); Path(p).open("x")
    os.open(p, os.O_WRONLY | os.O_CREAT); os.fdopen(3, "w"); Path(p).write_text("")
    np.savetxt(p, [])
"""
        found = writing_opens(source)
        assert {where for where, _ in found} == {"writes"}
        assert len(found) == 9

    def test_only_the_writer_opens_files_for_writing(self):
        package = Path(cli.__file__).parent
        sites = {(path.name, where)
                 for path in sorted(package.glob("*.py"))
                 for where, _ in writing_opens(path.read_text(encoding="utf-8"))}
        assert sites == {("scenarios.py", "write_in_place")}


class TestTracedLayers:
    """The layer tracer replaces functions it looks up by (module, name) once
    ``drbottleneck.cli`` has imported every module; a traced name that a
    change deletes or renames fails here, not in the next traced run."""

    def test_every_traced_name_resolves(self):
        path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        names = [(module, fn) for module, fn in tracing.SPAN_LAYERS if "." not in module]
        names.append(tuple(tracing.ITER_MEMBERS.split(".")))
        missing = [
            f"{module}.{fn}" for module, fn in names
            if not callable(getattr(sys.modules.get(f"{tracing.PACKAGE}.{module}"), fn, None))
        ]
        assert missing == []


class TestReadmeNames:
    """README cites package constants and functions as ``module.NAME``; a
    change that deletes or renames one fails here, not in a reader's hands."""

    def test_every_cited_name_resolves(self):
        text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        modules = {info.name for info in pkgutil.iter_modules(drbottleneck.__path__)}
        cited = [
            (module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", text)
            if module in modules and name != "py"
        ]
        assert ("search", "SEARCH_MAX_STATES") in cited
        missing = [
            f"{module}.{name}" for module, name in cited
            if not hasattr(importlib.import_module(f"drbottleneck.{module}"), name)
        ]
        assert missing == []
