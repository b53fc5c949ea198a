import json
import math
import tracemalloc

import numpy as np
import pytest

from qfilter import (
    FilteringProblem,
    boolean_problem,
    load_problem,
    povm_window,
    q_povm,
    q_sqm1,
    q_sqm2,
    save_problem,
)
from qfilter.cli import SWEEP_HEADER, main
from qfilter.errors import NumericalError

ROOT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def walsh_file(tmp_path):
    path = tmp_path / "walsh22.json"
    save_problem(boolean_problem(2, 2), path)
    return path


@pytest.fixture
def figure_file(tmp_path, figure_point_problem):
    path = tmp_path / "figure.json"
    save_problem(figure_point_problem, path)
    return path


@pytest.fixture
def degenerate_file(tmp_path, contained_target_problem):
    path = tmp_path / "contained.json"
    save_problem(contained_target_problem, path)
    return path


class TestStrategiesCommand:
    def test_json_schema(self, capsys, figure_file):
        code, out, _ = run(capsys, "strategies", "--input", str(figure_file))
        assert code == 0
        payload = json.loads(out)
        for key in ("q_sqm1", "q_sqm2", "q_povm", "regime", "optimal_Q", "optimal_q1"):
            assert key in payload
        assert payload["regime"] == "POVM"
        assert payload["optimal_Q"] == pytest.approx(0.4, abs=1e-9)

    def test_walsh_problem_value(self, capsys, walsh_file):
        code, out, _ = run(capsys, "strategies", "--input", str(walsh_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal_Q"] == pytest.approx(0.4330127, abs=1e-6)

    def test_table_format(self, capsys, figure_file):
        code, out, _ = run(capsys, "strategies", "--input", str(figure_file), "--format", "table")
        assert code == 0
        assert "regime" in out and "q_fail" in out

    def test_bad_prior_sum_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "states": [
                        {"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "prior": 0.5},
                        {"amplitudes": [[0.0, 0.0], [1.0, 0.0]], "prior": 0.4},
                    ],
                    "target_index": 0,
                }
            )
        )
        code, _, err = run(capsys, "strategies", "--input", str(path))
        assert code == 2
        assert "sum" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "states": [
                        {"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "prior": 0.5},
                        {"amplitudes": [[0.0, 0.0], [1.0, 0.0]], "prior": 0.5},
                    ],
                    "target_index": 0,
                    "comment": "nope",
                }
            )
        )
        code, _, err = run(capsys, "strategies", "--input", str(path))
        assert code == 2
        assert "unknown" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "strategies", "--input", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "strategies", "--input", str(path))
        assert code == 2


class TestSweepCommand:
    def sweep(self, capsys, tmp_path, *extra):
        out_path = tmp_path / "sweep.csv"
        args = [
            "sweep", "--eta1", "0.4", "--f", "0.25",
            "--smin", "0", "--smax", "0.6", "--steps", "121",
            "--out", str(out_path),
        ] + list(extra)
        code, out, err = run(capsys, *args)
        return code, out_path

    def test_header_and_columns(self, capsys, tmp_path):
        code, path = self.sweep(capsys, tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 122
        assert all(line.count(",") == 5 for line in lines[1:])

    def test_povm_value_at_s_point_one(self, capsys, tmp_path):
        _, path = self.sweep(capsys, tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        by_s = {row[0]: row for row in rows}
        assert by_s["0.1"][3] == "0.4"
        assert by_s["0.1"][5] == "POVM"

    def test_regime_transitions_straddle_boundaries(self, capsys, tmp_path):
        _, path = self.sweep(capsys, tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        regimes = {float(r[0]): r[5] for r in rows}
        assert regimes[0.02] == "SQM2_BOUNDARY" and regimes[0.025] == "POVM"
        assert regimes[0.4] == "POVM" and regimes[0.405] == "SQM1_BOUNDARY"

    def test_povm_column_empty_outside_window(self, capsys, tmp_path):
        _, path = self.sweep(capsys, tmp_path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert rows[0][3] == ""  # S = 0 lies below the validity window
        assert rows[-1][3] == ""  # S = 0.6 lies above it

    def test_empty_range_rejected(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--eta1", "0.4", "--f", "0.25",
            "--smin", "0", "--smax", "0", "--steps", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_too_few_steps_rejected(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--eta1", "0.4", "--f", "0.25",
            "--smin", "0", "--smax", "0.5", "--steps", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_unwritable_path_rejected(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "sweep", "--eta1", "0.4", "--f", "0.25",
            "--smin", "0", "--smax", "0.5", "--steps", "3",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 2

    @staticmethod
    def reference_csv(eta1, f, grid):
        """The CSV built row by row from the scalar closed forms."""
        lines = [SWEEP_HEADER]
        for s in grid.tolist():
            qs1 = q_sqm1(eta1, s)
            qs2 = q_sqm2(eta1, f, s) if f > 0.0 or s == 0.0 else math.inf
            povm = ""
            if povm_window(eta1, f, s):
                regime, q_opt = "POVM", q_povm(eta1, s)
                povm = f"{q_opt:.12g}"
            elif s > eta1:
                regime, q_opt = "SQM1_BOUNDARY", qs1
            else:
                regime, q_opt = "SQM2_BOUNDARY", qs2
            lines.append(f"{s:.12g},{qs1:.12g},{qs2:.12g},{povm},{q_opt:.12g},{regime}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "eta1,f,smax,steps",
        [
            (0.4, 0.25, 0.6, 121),  # both regime boundaries, empty POVM cells
            (0.4, 0.25, 0.6, 10_001),  # spans several write chunks
            (0.00390625, 0.0, 0.01, 2001),  # f = 0: the Q_sqm2 column is inf
            (0.00390625, 1.0, 0.01, 501),  # f = 1: the window closes to S = eta1
        ],
    )
    def test_csv_matches_scalar_closed_forms(self, capsys, tmp_path, eta1, f, smax, steps):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--eta1", repr(eta1), "--f", repr(f), "--smin", "0",
            "--smax", repr(smax), "--steps", str(steps), "--out", str(out_path),
        )
        assert code == 0
        assert out == f"wrote {steps} rows to {out_path}\n"
        expected = self.reference_csv(eta1, f, np.linspace(0.0, smax, steps))
        assert out_path.read_text() == expected

    def test_out_overwrites_longer_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("x" * 100_000)
        code, _ = self.sweep(capsys, tmp_path)
        assert code == 0
        assert path.read_text() == self.reference_csv(0.4, 0.25, np.linspace(0.0, 0.6, 121))


class TestBooleanCommand:
    def test_walsh_point(self, capsys):
        code, out, _ = run(
            capsys, "boolean", "--n", "2", "--k", "2",
            "--prior-mode", "equal-states-basis",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal_Q"] == pytest.approx(ROOT3 / 4, abs=1e-9)
        assert payload["regime"] == "POVM"
        assert payload["f_k"] == pytest.approx(0.75, abs=1e-12)

    def test_full_variant_equal_state_priors(self, capsys):
        code, out, _ = run(
            capsys, "boolean", "--n", "4", "--k", "2",
            "--prior-mode", "equal-states-full", "--variant", "full",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "SQM1_BOUNDARY"
        assert payload["n_states"] == 12871

    def test_classical_counts(self, capsys):
        code, out, _ = run(capsys, "boolean", "--n", "3", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["classical_queries"]["balanced_vs_constant"] == 5
        assert payload["classical_queries"]["biased_vs_balanced"] == 7

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "boolean", "--n", "2", "--k", "2", "--format", "table")
        assert code == 0
        assert "optimal_Q" in out

    def test_k_above_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "boolean", "--n", "2", "--k", "3")
        assert code == 2

    def test_full_enumeration_cap_exits_2(self, capsys):
        code, _, _ = run(capsys, "boolean", "--n", "5", "--k", "2", "--variant", "full")
        assert code == 2

    def test_custom_mode_requires_eta1(self, capsys):
        code, _, _ = run(capsys, "boolean", "--n", "2", "--k", "2", "--prior-mode", "custom")
        assert code == 2

    def test_export_round_trips(self, capsys, tmp_path):
        export = tmp_path / "walsh.json"
        code, out, _ = run(
            capsys, "boolean", "--n", "2", "--k", "2", "--export", str(export)
        )
        assert code == 0
        problem = load_problem(export)
        assert problem.n_states == 4
        np.testing.assert_allclose(problem.priors, 0.25)


class TestSimulateCommand:
    def test_zero_trials_exits_2(self, capsys, walsh_file):
        code, _, _ = run(
            capsys, "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "0", "--seed", "1",
        )
        assert code == 2

    def test_fixed_seed_byte_identical(self, capsys, walsh_file):
        args = (
            "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "2000", "--seed", "9",
        )
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_povm_json_statistics(self, capsys, walsh_file):
        code, out, _ = run(
            capsys, "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "100000", "--seed", "42",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["misidentifications"] == 0
        assert abs(payload["aggregate"]["empirical_Q"] - ROOT3 / 4) <= 0.005

    def test_sqm1_and_sqm2_run(self, capsys, figure_file):
        for strategy in ("sqm1", "sqm2"):
            code, out, _ = run(
                capsys, "simulate", "--input", str(figure_file),
                "--strategy", strategy, "--trials", "1000", "--seed", "3",
            )
            assert code == 0
            assert "aggregate" in out

    def test_povm_on_contained_target_still_runs(self, capsys, degenerate_file):
        # the generalized scheme degenerates to target-always-fails but exists
        code, out, _ = run(
            capsys, "simulate", "--input", str(degenerate_file),
            "--strategy", "povm", "--trials", "1000", "--seed", "5",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["misidentifications"] == 0
        assert "IS_TARGET" not in payload["outcomes"]

    def test_degenerate_decomposition_exits_3(self, capsys, degenerate_file):
        code, _, err = run(
            capsys, "simulate", "--input", str(degenerate_file),
            "--strategy", "sqm2", "--trials", "10", "--seed", "1",
        )
        assert code == 3
        assert "infeasible" in err

    def test_numerical_failure_exits_4(self, capsys, walsh_file, monkeypatch):
        import qfilter.cli as cli_module

        def boom(problem, strategy):
            raise NumericalError("injected fault")

        monkeypatch.setattr(cli_module, "_build_scheme", boom)
        code, _, err = run(
            capsys, "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "10", "--seed", "1",
        )
        assert code == 4
        assert "numerical" in err

    def test_out_of_memory_exits_2(self, capsys, walsh_file, monkeypatch):
        import qfilter.cli as cli_module

        def boom(problem, strategy):
            raise MemoryError("Unable to allocate 2.47 GiB for an array")

        monkeypatch.setattr(cli_module, "_build_scheme", boom)
        code, _, err = run(
            capsys, "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "10", "--seed", "1",
        )
        assert code == 2
        assert err == "error: out of memory: Unable to allocate 2.47 GiB for an array\n"


class TestRoundTrip:
    def test_boolean_export_then_strategies_identical(self, capsys, tmp_path):
        export = tmp_path / "problem.json"
        code, boolean_out, _ = run(
            capsys, "boolean", "--n", "2", "--k", "2", "--export", str(export)
        )
        assert code == 0
        code, strategies_out, _ = run(capsys, "strategies", "--input", str(export))
        assert code == 0
        q_boolean = json.loads(boolean_out)["optimal_Q"]
        q_strategies = json.loads(strategies_out)["optimal_Q"]
        assert abs(q_boolean - q_strategies) <= 1e-12


class TestStrategiesInputAndMemory:
    def test_nan_prior_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "states": [
                        {"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "prior": 0.5},
                        {"amplitudes": [[0.0, 0.0], [1.0, 0.0]], "prior": math.nan},
                    ],
                    "target_index": 0,
                }
            )
        )
        code, out, err = run(capsys, "strategies", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "priors must lie in" in err

    def test_no_n_by_n_matrix(self, capsys, tmp_path):
        # 1,025 states in D = 16: an N x N complex matrix alone would take 16.8 MB
        rng = np.random.default_rng(11)
        n, d = 1025, 16
        raw = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        path = tmp_path / "tall.json"
        save_problem(FilteringProblem(states=tuple(raw), priors=np.full(n, 1.0 / n)), path)
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "strategies", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(out)["regime"] in {"POVM", "SQM1_BOUNDARY", "SQM2_BOUNDARY"}
        assert peak < n * n * 16
