import contextlib
import functools
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from qfilter import (
    ComplementVariant,
    FilteringProblem,
    Outcome,
    PriorMode,
    aggregate_failure,
    boolean_problem,
    load_problem,
    optimal_filtering,
    save_problem,
)
from qfilter import boolfn as boolfn_module
from qfilter import cli as cli_module
from qfilter import ensemble as ensemble_module
from qfilter import strategies as strategies_module
from qfilter.cli import SWEEP_HEADER, main
from qfilter.errors import NumericalError
from conftest import band_problem

# ``qfilter.simulate`` is the function; the handlers import from this module.
simulate_module = importlib.import_module("qfilter.simulate")

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


def test_unknown_option_exits_2(capsys):
    code, out, err = run(capsys, "--bogus")
    assert code == 2
    assert out == "" and "qfilter: error:" in err


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

    @pytest.mark.parametrize(
        "content",
        [
            b'{"dimension": 2, "states": "\xff"}',
            # over the interpreter's 4,300-digit limit for int() of a string
            b'{"dimension": 1' + b"0" * 5000 + b"}",
            # nesting beyond the interpreter's recursion limit
            b"[" * 200_000 + b"]" * 200_000,
        ],
        ids=["non-utf8", "over-long-integer", "deeply-nested"],
    )
    def test_undecodable_file_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "strategies", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: invalid JSON in {path}: ")

    def test_huge_integer_prior_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge-prior.json"
        path.write_text(
            '{"dimension": 1, "target_index": 0, "states": ['
            '{"amplitudes": [[1.0, 0.0]], "prior": 1' + "0" * 400 + "}]}"
        )
        code, out, err = run(capsys, "strategies", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: state 0 prior is too large for a float\n"

    @pytest.mark.parametrize("d", [5e-9, 9e-9, 1.3e-8])
    def test_rank_cut_band_exits_4(self, capsys, tmp_path, d):
        # every command that reads the target split exits 4 in either format;
        # SQM1 is psi_1 itself, reads no split, and its Q = eta1 + S is right
        path = tmp_path / "band.json"
        save_problem(band_problem(d), path)
        sim = ["simulate", "--input", str(path), "--trials", "100", "--strategy"]
        for fmt in ("json", "table"):
            for argv in (["strategies", "--input", str(path)], sim + ["sqm2"], sim + ["povm"]):
                code, out, err = run(capsys, *argv, "--format", fmt)
                assert (code, out) == (4, ""), argv
                assert err.startswith("numerical failure:") and "RANK_TOL" in err
        code, out, err = run(capsys, *sim, "sqm1", "--format", "table")
        assert (code, err) == (0, "")
        assert "analytic Q 0.5  misidentifications 0" in out

    @pytest.mark.parametrize("d", [7e-17, 1e-17])
    def test_sqm2_below_the_cut_exits_3_as_reported(self, capsys, tmp_path, d):
        # the cut reads f = 0 with S > 0: the report says SQM2 is impossible, and so does SQM2
        path = tmp_path / "band.json"
        save_problem(band_problem(d), path)
        code, out, _ = run(capsys, "strategies", "--input", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["q_sqm2"] == math.inf
        for fmt in ("json", "table"):
            code, out, err = run(
                capsys, "simulate", "--input", str(path), "--trials", "100", "--strategy", "sqm2",
                "--format", fmt,
            )
            assert (code, out) == (3, "")
            assert err.startswith("infeasible: q1 = 0 requires every complement state")


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
        """The CSV built row by row from the paper's closed forms, in scalar floats."""
        lines = [SWEEP_HEADER]
        for s in grid.tolist():
            qs1 = eta1 + s
            qs2 = eta1 * f + s / f if f > 0.0 else (0.0 if s == 0.0 else math.inf)
            povm = ""
            if eta1 * f**2 <= s <= eta1:
                regime, q_opt = "POVM", 2.0 * math.sqrt(eta1 * s)
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
            # S = i / 8192 exactly, against the writer's 4,096-row chunks and one
            # % call per run of one regime: SQM1 starts on row 4,096, which opens
            # the second chunk; at f = 1 the POVM run is the one row S = eta1,
            # row 4,095 closing the first chunk or row 100 inside it
            (4095 / 8192, 0.25, 1.0, 8193),
            (4095 / 8192, 1.0, 1.0, 8193),
            (100 / 8192, 1.0, 1.0, 8193),
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

    @pytest.mark.parametrize(
        "smin, smax", [("0", "inf"), ("0", "nan"), ("nan", "0.5"), ("-inf", "0.5")]
    )
    def test_non_finite_bounds_rejected(self, capsys, tmp_path, smin, smax):
        out_path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sweep", "--eta1", "0.4", "--f", "0.25", f"--smin={smin}",
            f"--smax={smax}", "--steps", "3", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: need finite 0 <= smin < smax, got smin={float(smin)!r}, "
            f"smax={float(smax)!r}\n"
        )
        assert not out_path.exists()


class TestBooleanCommand:
    def test_parser_choices_are_the_enum_values(self):
        # the parser spells them out so that it needs no boolfn
        assert cli_module.PRIOR_MODES == tuple(m.value for m in PriorMode)
        assert cli_module.VARIANTS == tuple(v.value for v in ComplementVariant)
        assert cli_module.PRIOR_MODES[0] == PriorMode.EQUAL_STATES_BASIS.value
        assert cli_module.VARIANTS[0] == ComplementVariant.BASIS.value

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

    def test_custom_eta1_outside_unit_interval_exits_2(self, capsys):
        code, out, err = run(
            capsys, "boolean", "--n", "2", "--k", "2", "--prior-mode", "custom", "--eta1", "1.5"
        )
        assert code == 2
        assert out == "" and "got 1.5" in err

    def test_eta1_without_custom_mode_rejected(self, capsys):
        code, out, err = run(capsys, "boolean", "--n", "2", "--k", "2", "--eta1", "0.3")
        assert code == 2
        assert out == "" and "custom" in err

    def test_export_round_trips(self, capsys, tmp_path):
        export = tmp_path / "walsh.json"
        code, out, _ = run(
            capsys, "boolean", "--n", "2", "--k", "2", "--export", str(export)
        )
        assert code == 0
        problem = load_problem(export)
        assert problem.n_states == 4
        np.testing.assert_allclose(problem.priors, 0.25)

    def test_boolean_decomposes_once(self, capsys, monkeypatch):
        """povm_advantage reuses the problem the command built, with its
        cached decomposition, so the command decomposes once, not twice."""
        calls = []

        def counted(rows):
            calls.append(rows.shape)
            return original(rows)

        original = ensemble_module._row_basis
        monkeypatch.setattr(ensemble_module, "_row_basis", counted)
        boolfn_module._boolean_problem.cache_clear()  # drop a problem decomposed earlier
        code, _, _ = run(capsys, "boolean", "--n", "6", "--k", "3")
        assert code == 0
        assert calls == [(63, 64)]
        shared = boolean_problem(6, 3)
        assert boolean_problem(n=6, k=3) is shared
        assert not shared.state_matrix.flags.writeable
        assert not shared.priors.flags.writeable


class TestSimulateCommand:
    def test_zero_trials_exits_2(self, capsys, walsh_file):
        code, _, _ = run(
            capsys, "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "0", "--seed", "1",
        )
        assert code == 2

    @pytest.mark.parametrize("seed", ("-1", str(2**64)))
    def test_seed_outside_sixty_four_bits_exits_2(self, capsys, walsh_file, seed):
        code, out, err = run(
            capsys, "simulate", "--input", str(walsh_file),
            "--strategy", "povm", "--trials", "10", "--seed", seed,
        )
        assert code == 2 and out == ""
        assert "seed must lie in [0, 2**64 - 1]" in err

    @pytest.mark.parametrize(
        "trials, seed, message",
        [("10", "-1", "seed must lie in [0, 2**64 - 1], got -1"),
         ("0", "1", "trials_per_state must lie in [1, 2**63 - 1], got 0")],
        ids=["seed", "trials"],
    )
    def test_bad_seed_and_trials_exit_before_the_file_is_read(
        self, capsys, tmp_path, trials, seed, message
    ):
        # the input path does not exist, so exit 2 with the range message
        # shows that nothing was read or built first
        code, out, err = run(
            capsys, "simulate", "--input", str(tmp_path / "missing.json"),
            "--strategy", "povm", "--trials", trials, "--seed", seed,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt, calls", (("table", 1), ("json", 2)))
    def test_optimal_filtering_runs_once_unless_json(
        self, capsys, walsh_file, monkeypatch, fmt, calls
    ):
        # the scheme build calls it once; only the JSON report prints optimal_Q
        counted = []

        def counting(problem):
            counted.append(problem)
            return optimal_filtering(problem)

        monkeypatch.setattr(strategies_module, "optimal_filtering", counting)
        code, _, _ = run(
            capsys, "simulate", "--input", str(walsh_file), "--strategy", "povm",
            "--trials", "100", "--seed", "1", "--format", fmt,
        )
        assert code == 0
        assert len(counted) == calls

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

    def test_sqm2_tiny_parallel_part_is_not_perfect(self, capsys, tmp_path):
        # f = 1e-13 > 0: SQM2 fails on psi_2 every time, so Q = 0.5 and not 0
        f = 1e-13
        path = tmp_path / "tiny-f.json"
        states = ([1.0, 0.0], [math.sqrt(f), math.sqrt(1.0 - f)])
        save_problem(FilteringProblem(states=states, priors=(0.5, 0.5)), path)
        sim = ("simulate", "--input", str(path), "--strategy", "sqm2", "--trials", "1000")
        code, out, _ = run(capsys, *sim, "--format", "json")
        payload = json.loads(out)
        assert (code, payload["misidentifications"]) == (0, 0)
        assert payload["aggregate"]["analytic_Q"] == 0.5
        code, out, _ = run(capsys, *sim, "--format", "table")
        assert code == 0 and "analytic Q 0.5  misidentifications 0" in out

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


class TestSimulateJsonReport:
    """``simulate --format json`` is written one state at a time; its bytes are
    those of the whole report dumped at once."""

    @staticmethod
    def reference(path, strategy, trials, seed):
        problem = load_problem(path)
        stats = simulate_module.simulate(
            cli_module._build_scheme(problem, strategy), problem, trials, seed
        )
        names = [o.value for o in stats.outcomes]
        columns = {
            "counts": stats.counts,
            "empirical": stats.empirical_rates,
            "analytic": stats.analytic_rates,
            "z": stats.z_scores,
        }
        per_state = [
            {"state": i, "prior": float(problem.priors[i])}
            | {key: dict(zip(names, column[i].tolist())) for key, column in columns.items()}
            for i in range(problem.n_states)
        ]
        fail = stats.outcomes.index(Outcome.FAIL)
        payload = {
            "scheme": stats.scheme_kind.value,
            "trials_per_state": stats.trials_per_state,
            "seed": stats.seed,
            "outcomes": names,
            "per_state": per_state,
            "misidentifications": stats.misidentifications,
            "aggregate": {
                "empirical_Q": aggregate_failure(stats, problem.priors),
                "analytic_Q": float(problem.priors @ stats.analytic_rates[:, fail]),
                "optimal_Q": optimal_filtering(problem).optimal_Q,
            },
        }
        return json.dumps(cli_module._round12(payload), indent=2) + "\n"

    def check(self, capsys, path, strategy, trials=1000, seed=3):
        code, out, err = run(
            capsys, "simulate", "--input", str(path), "--strategy", strategy,
            "--trials", str(trials), "--seed", str(seed), "--format", "json",
        )
        assert (code, err) == (0, "")
        assert out == self.reference(path, strategy, trials, seed)
        return json.loads(out)

    def test_povm_walsh(self, capsys, walsh_file):
        assert len(self.check(capsys, walsh_file, "povm")["per_state"]) == 4

    def test_povm_contained_target(self, capsys, degenerate_file):
        # p1 = 0: the scheme is x_f alone, with two outcomes
        payload = self.check(capsys, degenerate_file, "povm")
        assert payload["outcomes"] == ["IS_COMPLEMENT", "FAIL"]

    @pytest.mark.parametrize("strategy", ["sqm1", "sqm2"])
    def test_projective_figure(self, capsys, figure_file, strategy):
        self.check(capsys, figure_file, strategy)

    def test_sqm2_perfect(self, capsys, tmp_path, orthogonal_pair_problem):
        # f = 0: SQM2 filters perfectly
        path = tmp_path / "orthogonal.json"
        save_problem(orthogonal_pair_problem, path)
        assert self.check(capsys, path, "sqm2")["aggregate"]["optimal_Q"] == 0.0

    def test_non_finite_and_signed_zero_cells(self, capsys, figure_file, monkeypatch):
        simulate, stats_type = simulate_module.simulate, simulate_module.SimulationStats

        class OddCells(stats_type):
            @functools.cached_property
            def z_scores(self):
                z = stats_type.z_scores.func(self).copy()
                z[0, :3] = np.inf, -np.inf, -0.0
                z[1, 0] = np.nan
                return z

        def odd_cells(*args):
            stats = simulate(*args)
            return OddCells(
                stats.scheme_kind, stats.trials_per_state, stats.seed, stats.counts,
                stats.analytic_rates,
            )

        monkeypatch.setattr(simulate_module, "simulate", odd_cells)
        z = self.check(capsys, figure_file, "sqm2")["per_state"][0]["z"]
        assert list(z.values()) == [math.inf, -math.inf, 0.0]
        assert math.copysign(1.0, z["FAIL"]) == -1.0

    @pytest.mark.parametrize("x", [0.1, 1 / 3, 1.0, -0.0, 1e-300, 2.5e20, math.inf, -math.inf])
    def test_float_spelling(self, x):
        assert cli_module._json_float(x) == json.dumps(cli_module._round12(x))

    def test_peak_memory_near_the_table(self, tmp_path):
        # N = 4,096, D = 4: the report is 1.7 MB of text; dumped whole it
        # peaked at 24 MiB of Python objects
        rng = np.random.default_rng(17)
        n, d = 4096, 4
        raw = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        path = tmp_path / "tall.json"
        save_problem(FilteringProblem(states=tuple(raw), priors=np.full(n, 1.0 / n)), path)
        peaks = {}
        for fmt in ("table", "json"):
            args = ["simulate", "--input", str(path), "--strategy", "sqm1",
                    "--trials", "1000", "--format", fmt]
            with open(tmp_path / f"out.{fmt}", "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(args) == 0
                    peaks[fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert len(json.loads((tmp_path / "out.json").read_text())["per_state"]) == n
        assert peaks["json"] <= peaks["table"] + 2**20


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
