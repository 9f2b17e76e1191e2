"""Scenario generators and CSV persistence."""

import math

import numpy as np
import pytest

from _oracles import cellwise_load_scenarios, streamed_save_scenarios
from drbottleneck import scenarios as scenarios_module
from drbottleneck import (
    DomainError,
    MultihopParams,
    ScenarioParseError,
    ScenarioSet,
    TruncatedGaussianParams,
    generate_matching_gaussian,
    generate_multihop,
    load_scenarios,
    require_matching_width,
    save_scenarios,
    shannon_capacity,
)


class TestMultihop:
    def test_capacity_formula_pinned(self):
        # power 0.15 W, distance 0.05 km, unit fading: capacity ~ 4.2564
        assert shannon_capacity(0.15, 0.05, 1.0) == pytest.approx(4.2564, abs=1e-3)

    def test_zero_fading_gives_zero_capacity(self):
        assert shannon_capacity(0.15, 0.05, 0.0) == 0.0

    def test_default_shape(self):
        system, scenarios, meta = generate_multihop(
            MultihopParams(sample_count=3, seed=1)
        )
        assert len(system.edges) == 190
        assert scenarios.costs.shape == (3, 190)
        assert meta["generator"] == "multihop-shannon"
        assert meta["params"]["seed"] == 1

    def test_deterministic_bytes(self):
        params = MultihopParams(nodes=7, sample_count=5, seed=99)
        _, a, _ = generate_multihop(params)
        _, b, _ = generate_multihop(params)
        assert a.costs.tobytes() == b.costs.tobytes()

    def test_capacities_positive(self):
        _, scenarios, _ = generate_multihop(MultihopParams(nodes=8, sample_count=50, seed=2))
        assert (scenarios.costs > 0).all()

    def test_seed_changes_output(self):
        _, a, _ = generate_multihop(MultihopParams(nodes=5, sample_count=2, seed=1))
        _, b, _ = generate_multihop(MultihopParams(nodes=5, sample_count=2, seed=2))
        assert not np.array_equal(a.costs, b.costs)


class TestMatchingGaussian:
    def test_shapes_and_nonnegativity(self):
        params = TruncatedGaussianParams(
            means=(5.0,) * 9, base_std=(1.0,) * 9, scale=10.0, sample_count=40, seed=3
        )
        system, scenarios, meta = generate_matching_gaussian(params)
        assert system.m == 3
        assert scenarios.costs.shape == (40, 9)
        assert (scenarios.costs >= 0).all()
        assert meta["generator"] == "matching-truncated-gaussian"

    def test_small_scale_concentrates_at_means(self):
        params = TruncatedGaussianParams(
            means=(5.0, 2.0, 3.0, 4.0), base_std=(1.0,) * 4, scale=1e-9,
            sample_count=5, seed=4,
        )
        _, scenarios, _ = generate_matching_gaussian(params)
        assert np.allclose(scenarios.costs, [5.0, 2.0, 3.0, 4.0], atol=1e-6)

    def test_deterministic(self):
        params = TruncatedGaussianParams(
            means=(1.0,) * 4, base_std=(2.0,) * 4, scale=3.0, sample_count=25, seed=5
        )
        _, a, _ = generate_matching_gaussian(params)
        _, b, _ = generate_matching_gaussian(params)
        assert a.costs.tobytes() == b.costs.tobytes()

    def test_truncated_mean_band(self):
        # zero means with truncation: sample mean near sigma * sqrt(2/pi)
        sigma = 2.0
        params = TruncatedGaussianParams(
            means=(0.0,) * 4, base_std=(1.0,) * 4, scale=sigma,
            sample_count=4000, seed=6,
        )
        _, scenarios, _ = generate_matching_gaussian(params)
        expected = sigma * np.sqrt(2.0 / np.pi)
        spread = 3.0 * sigma / np.sqrt(4000)
        assert abs(scenarios.costs.mean() - expected) < spread

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            TruncatedGaussianParams(
                means=(1.0, 2.0, 3.0), base_std=(1.0,) * 3, scale=1.0, sample_count=1
            )


class TestScenarioCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        scenarios = ScenarioSet(rng.uniform(0, 100, size=(12, 81)))
        path = tmp_path / "s.csv"
        save_scenarios(path, scenarios)
        back = load_scenarios(path)
        assert back.costs.tobytes() == scenarios.costs.tobytes()
        assert back.count == 12 and back.width == 81

    def test_header_must_be_dense_ids(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,2\n1.0,2.0\n")
        with pytest.raises(ScenarioParseError) as err:
            load_scenarios(path)
        assert err.value.row == 0
        assert err.value.column == 1

    def test_ragged_row_located(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n1.0,2.0\n3.0\n")
        with pytest.raises(ScenarioParseError) as err:
            load_scenarios(path)
        assert err.value.row == 2

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("0,1\n1.0,fast\n")
        with pytest.raises(ScenarioParseError) as err:
            load_scenarios(path)
        assert (err.value.row, err.value.column) == (1, 1)

    def test_width_check_names_column(self, triangle):
        scenarios = ScenarioSet(np.ones((2, 5)))
        with pytest.raises(DomainError) as err:
            require_matching_width(scenarios, triangle)
        assert "column" in str(err.value)


SPECIAL_VALUES = (0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, -5e-324,
                  2.2250738585072014e-308, 1e-320)


def _random_values(rng, shape):
    """Random reprs across the float range, subnormals and special values."""
    magnitude = 10.0 ** rng.uniform(-300.0, 307.0, size=shape) * rng.uniform(1.0, 10.0, size=shape)
    values = magnitude * rng.choice([-1.0, 1.0], size=shape)
    subnormal = rng.integers(1, 2**52, size=shape).view(np.float64)
    subnormal *= rng.choice([-1.0, 1.0], size=shape)
    special = rng.choice(SPECIAL_VALUES, size=shape)
    pick = rng.integers(0, 4, size=shape)
    return np.where(pick == 0, subnormal, np.where(pick == 1, special, values))


def _cell_text(rng, x: float) -> str:
    """One float written in one of the forms float() and np.loadtxt both read."""
    forms = [repr(x), f"{x:.17g}", f"{x:.3e}", f"{x:E}", f" {x!r}\t", f"{x:.17g} "]
    if math.copysign(1.0, x) > 0.0:
        forms.append("+" + repr(x))
    # three digits round the largest floats past the range
    forms = [text for text in forms if math.isfinite(float(text))]
    return forms[int(rng.integers(len(forms)))]


def _valid_lines(rng):
    n, width = int(rng.integers(1, 12)), int(rng.integers(1, 20))
    values = _random_values(rng, (n, width))
    header = ",".join(str(j) for j in range(width))
    return [header] + [",".join(_cell_text(rng, x) for x in row) for row in values.tolist()]


def _body_position(rng, lines) -> int:
    return int(rng.integers(1, len(lines)))


def _set_cell(rng, lines, text):
    i = _body_position(rng, lines)
    cells = lines[i].split(",")
    cells[int(rng.integers(len(cells)))] = text
    return lines[:i] + [",".join(cells)] + lines[i + 1:]


def _insert_line(rng, lines, text):
    i = int(rng.integers(1, len(lines) + 1))
    return lines[:i] + [text] + lines[i:]


def _edit_line(rng, lines, edit):
    i = _body_position(rng, lines)
    return lines[:i] + [edit(lines[i])] + lines[i + 1:]


# name -> (lines -> lines, line end); every body line exists, so edits apply
MALFORMED = {
    "as-written": (lambda rng, lines: lines, "\n"),
    "blank-line": (lambda rng, lines: _insert_line(rng, lines, ""), "\n"),
    "whitespace-line": (lambda rng, lines: _insert_line(rng, lines, " \t "), "\n"),
    "whitespace-tail": (lambda rng, lines: lines + ["   "], "\n"),
    "quoted-cell": (lambda rng, lines: _set_cell(rng, lines, '"1.5"'), "\n"),
    "quoted-comma": (lambda rng, lines: _set_cell(rng, lines, '"1,5"'), "\n"),
    "crlf": (lambda rng, lines: lines, "\r\n"),
    "cr": (lambda rng, lines: lines, "\r"),
    "blank-crlf": (lambda rng, lines: _insert_line(rng, lines, ""), "\r\n"),
    "bom": (lambda rng, lines: ["\ufeff" + lines[0]] + lines[1:], "\n"),
    "bom-cell": (lambda rng, lines: _set_cell(rng, lines, "\ufeff1.5"), "\n"),
    "trailing-comma": (lambda rng, lines: _edit_line(rng, lines, lambda x: x + ","), "\n"),
    "hash-line": (lambda rng, lines: _insert_line(rng, lines, "# a note"), "\n"),
    "hash-tail": (lambda rng, lines: _edit_line(rng, lines, lambda x: x + " # note"), "\n"),
    "underscore": (lambda rng, lines: _set_cell(rng, lines, "1_0"), "\n"),
    "full-width": (lambda rng, lines: _set_cell(rng, lines, "\uff11\uff12"), "\n"),
    "non-breaking-space": (lambda rng, lines: _set_cell(rng, lines, "\xa01.5"), "\n"),
    "nan": (lambda rng, lines: _set_cell(rng, lines, "nan"), "\n"),
    "inf": (lambda rng, lines: _set_cell(rng, lines, "-Infinity"), "\n"),
    "past-the-range": (lambda rng, lines: _set_cell(rng, lines, "1e309"), "\n"),
    "word": (lambda rng, lines: _set_cell(rng, lines, "fast"), "\n"),
    "empty-cell": (lambda rng, lines: _set_cell(rng, lines, ""), "\n"),
    "nul": (lambda rng, lines: _set_cell(rng, lines, "1\x00"), "\n"),
    "ragged-short": (
        lambda rng, lines: _edit_line(rng, lines, lambda x: x.rpartition(",")[0]), "\n"
    ),
    "ragged-long": (lambda rng, lines: _edit_line(rng, lines, lambda x: x + ",1.0"), "\n"),
    "bad-header": (lambda rng, lines: ["0,x," + lines[0]] + lines[1:], "\n"),
    "sparse-header": (lambda rng, lines: [lines[0] + ",99"] + lines[1:], "\n"),
    "blank-header": (lambda rng, lines: [""] + lines, "\n"),
    "header-only": (lambda rng, lines: lines[:1], "\n"),
    "header-and-blanks": (lambda rng, lines: lines[:1] + ["", ""], "\n"),
    "empty-file": (lambda rng, lines: [], ""),
}


def _outcome(load, path):
    try:
        return ("costs", load(path).costs.tobytes())
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None))


class TestBulkLoader:
    """The bulk parse against the frozen reader of one ``float`` a cell: on
    every file the same cost bytes, or the same error, row and column."""

    @pytest.mark.parametrize("name", MALFORMED)
    def test_matches_the_cellwise_reader(self, name, tmp_path, monkeypatch):
        cellwise = []
        fallback = scenarios_module._load_cells
        monkeypatch.setattr(
            scenarios_module, "_load_cells", lambda path: cellwise.append(path) or fallback(path)
        )
        edit, end = MALFORMED[name]
        rng = np.random.default_rng(sorted(MALFORMED).index(name))
        outcomes = set()
        for i in range(12):
            lines = edit(rng, _valid_lines(rng))
            path = tmp_path / f"{i}.csv"
            path.write_bytes(end.join(lines).encode("utf-8") + end.encode())
            got = _outcome(load_scenarios, path)
            assert got == _outcome(cellwise_load_scenarios, path), (name, end.join(lines))
            outcomes.add(got[0] if got[0] == "costs" else got[0].__name__)
        if name in ("as-written", "blank-line", "crlf", "cr", "blank-crlf", "non-breaking-space"):
            # valid files: the bulk parse read every value, bit for bit
            assert outcomes == {"costs"} and cellwise == []

    def test_invalid_utf8_is_a_parse_error(self, tmp_path):
        # the frozen reader lets the decoder's error out; the loader refuses
        # the file, with the decoder's message and no row or column
        for i, text in enumerate((b"0,1\n1.0,2.0\n3.0,\xe94\n", b"0,\xe9\n1.0,2.0\n")):
            path = tmp_path / f"latin1-{i}.csv"
            path.write_bytes(text)
            got = _outcome(load_scenarios, path)
            frozen = _outcome(cellwise_load_scenarios, path)
            assert frozen[0] is UnicodeDecodeError
            assert got == (ScenarioParseError, f"scenario file is not UTF-8 text: {frozen[1]}",
                           None, None)

    def test_written_files_take_the_bulk_parse(self, tmp_path, monkeypatch):
        cellwise = []
        fallback = scenarios_module._load_cells
        monkeypatch.setattr(
            scenarios_module, "_load_cells", lambda path: cellwise.append(path) or fallback(path)
        )
        rng = np.random.default_rng(5)
        for i, (n, width) in enumerate([(1, 1), (1, 9), (7, 1), (12, 81), (3, 190)]):
            scenarios = ScenarioSet(_random_values(rng, (n, width)))
            path = tmp_path / f"{i}.csv"
            save_scenarios(path, scenarios)
            assert load_scenarios(path).costs.tobytes() == scenarios.costs.tobytes()
        assert cellwise == []
        path.write_text("0,1\n1.0,2.0\n3.0\n")
        with pytest.raises(ScenarioParseError):
            load_scenarios(path)
        assert cellwise == [path]

    def test_save_writes_the_streamed_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        for n, width in [(1, 1), (4, 7), (12, 81)]:
            scenarios = ScenarioSet(_random_values(rng, (n, width)))
            save_scenarios(tmp_path / "one.csv", scenarios)
            streamed_save_scenarios(tmp_path / "rows.csv", scenarios)
            assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestBundledDataset:
    def test_monthly_matching_file_parses(self):
        from pathlib import Path

        from drbottleneck import system_from_json

        root = Path(__file__).parent.parent / "data"
        scenarios = load_scenarios(root / "monthly_matching_9x9.csv")
        assert scenarios.count == 12
        assert scenarios.width == 81
        system = system_from_json((root / "monthly_matching_9x9.instance.json").read_text())
        require_matching_width(scenarios, system)
