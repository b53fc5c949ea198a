import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from qfilter import (
    ComplementVariant,
    FilteringProblem,
    InvalidInputError,
    StateVector,
    boolean_problem,
    load_problem,
    optimal_filtering,
    save_problem,
)
from qfilter.ensemble_io import _load_amplitudes, problem_from_dict, problem_to_dict
from conftest import random_problem


def valid_payload():
    s = 1 / math.sqrt(2)
    return {
        "dimension": 2,
        "states": [
            {"amplitudes": [[1.0, 0.0], [0.0, 0.0]], "prior": 0.5},
            {"amplitudes": [[s, 0.0], [s, 0.0]], "prior": 0.5},
        ],
        "target_index": 0,
    }


# (mutation of valid_payload(), message the error must match)
SCHEMA_CASES = [
    (lambda p: p.pop("dimension"), "missing"),
    (lambda p: p.update(extra=1), "unknown"),
    (lambda p: p["states"][0].update(label="x"), "unknown"),
    (lambda p: p["states"][0].pop("prior"), "missing"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0], [0.0]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [0.0]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [0.0, 0.0, 0.0]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], "ab"]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=["ab", "cd"]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [0.0, None]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [0.0, "0"]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [[0.0], [0.0]]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], {"re": 0.0}]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [0.0, 10**400]]), "pairs"),
    # only a dict passed in can hold a complex number; JSON has none
    (lambda p: p["states"][0].update(amplitudes=[[1.0, 0.0], [0.5j, 0.0]]), "pairs"),
    (lambda p: p.update(states=[]), "nonempty"),
    (lambda p: p.update(target_index="0"), "integer"),
    (lambda p: p.update(dimension=0), "positive"),
    # an integer beyond the float range; float() would raise OverflowError
    (lambda p: p["states"][0].update(prior=10**400), "state 0 prior is too large"),
    (lambda p: p["states"][1].update(amplitudes=[[math.nan, 0.0], [1.0, 0.0]]),
     r"^state 1: amplitudes must be finite$"),
    # a state is named by its position in the file, before the target moves to row 0
    (lambda p: p.update(target_index=1)
     or p["states"][0].update(amplitudes=[[2.0, 0.0], [0.0, 0.0]]),
     r"^state 0: squared norm 4\.0 deviates from 1 beyond NORM_TOL$"),
]


def json_encodable(mutate) -> bool:
    """Whether JSON can spell the payload ``mutate`` makes, so a file can hold it."""
    payload = valid_payload()
    mutate(payload)
    try:
        json.dumps(payload)
    except TypeError:
        return False
    return True


class TestParsing:
    def test_file_must_hold_an_object(self):
        with pytest.raises(InvalidInputError, match="JSON object, not list"):
            problem_from_dict([valid_payload()])

    def test_state_must_be_an_object(self):
        payload = valid_payload()
        payload["states"][1] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(InvalidInputError, match="state 1 must be an object, not list"):
            problem_from_dict(payload)

    def test_valid_payload(self):
        problem = problem_from_dict(valid_payload())
        assert problem.n_states == 2
        assert problem.dimension == 2

    def test_target_index_reordering(self):
        payload = valid_payload()
        payload["target_index"] = 1
        problem = problem_from_dict(payload)
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(problem.state_matrix[0], [s, s])

    @pytest.mark.parametrize("mutate,message", SCHEMA_CASES)
    def test_schema_violations(self, mutate, message):
        payload = valid_payload()
        mutate(payload)
        with pytest.raises(InvalidInputError, match=message):
            problem_from_dict(payload)

    def test_integer_amplitudes_accepted(self):
        payload = valid_payload()
        payload["states"][0]["amplitudes"] = [[1, 0], [0, 0]]
        problem = problem_from_dict(payload)
        np.testing.assert_array_equal(problem.state_matrix[0], [1.0, 0.0])

    def test_unnormalized_state_named(self):
        payload = valid_payload()
        payload["states"][1]["amplitudes"] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(InvalidInputError, match="state 1"):
            problem_from_dict(payload)


class TestRoundTrip:
    def test_save_load_preserves_report(self, tmp_path, figure_point_problem):
        path = tmp_path / "ensemble.json"
        save_problem(figure_point_problem, path)
        loaded = load_problem(path)
        original = optimal_filtering(figure_point_problem)
        recomputed = optimal_filtering(loaded)
        assert recomputed.optimal_Q == pytest.approx(original.optimal_Q, abs=1e-12)
        assert recomputed.regime == original.regime
        np.testing.assert_allclose(
            recomputed.per_state_failure, original.per_state_failure, atol=1e-12
        )

    def test_serialized_form_is_exact(self, figure_point_problem):
        payload = problem_to_dict(figure_point_problem)
        reparsed = problem_from_dict(json.loads(json.dumps(payload)))
        np.testing.assert_array_equal(
            reparsed.state_matrix, figure_point_problem.state_matrix
        )


def tiny_and_signed_zero_problem():
    """Amplitudes whose JSON spelling needs -0.0, subnormals and wide exponents."""
    target = np.array([1.0, -0.0, 5e-324 - 0.0j, -1e-300j, 2.5e-17 + 1e-160j], dtype=complex)
    other = np.array([0.6, 0.8j, -0.0 - 0.0j, 1e-308, -3e-20], dtype=complex)
    return FilteringProblem(
        states=(StateVector(target), StateVector(other)), priors=(0.1 + 0.2, 0.7)
    )


class TestWriter:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_problem(np.random.default_rng(3)),
            lambda: boolean_problem(8, 3),
            lambda: boolean_problem(3, 2, variant=ComplementVariant.FULL),
            tiny_and_signed_zero_problem,
        ],
        ids=["random", "walsh-n8", "full-n3", "tiny-and-signed-zero"],
    )
    def test_bytes_equal_json_dump(self, tmp_path, build):
        problem = build()
        path = tmp_path / "ensemble.json"
        save_problem(problem, path)
        expected = json.dumps(problem_to_dict(problem), indent=1) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_accepts_null_device(self, figure_point_problem):
        save_problem(figure_point_problem, os.devnull)
        assert os.path.exists(os.devnull)


BOOLEAN_CASES = [
    (lambda p: p["states"][0].update(amplitudes=[[True, False], [False, False]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[True, 0.0], [0.0, 0.0]]), "pairs"),
    (lambda p: p["states"][0].update(amplitudes=[[1, 0], [0, False]]), "pairs"),
    (lambda p: p.update(dimension=True), "positive"),
    (lambda p: p.update(target_index=True), "integer"),
    (lambda p: p["states"][0].update(prior=True), "number"),
]
BOOLEAN_IDS = ["amplitudes", "mixed-float", "mixed-int", "dimension", "target_index", "prior"]


class TestJsonBooleansRejected:
    """JSON true/false are not numbers here, although Python and numpy treat them as 1/0."""

    @pytest.mark.parametrize("mutate,message", BOOLEAN_CASES, ids=BOOLEAN_IDS)
    def test_boolean_rejected(self, mutate, message):
        payload = valid_payload()
        mutate(payload)
        with pytest.raises(InvalidInputError, match=message):
            problem_from_dict(payload)

    def test_boolean_file_rejected(self, tmp_path):
        path = tmp_path / "bool.json"
        payload = valid_payload()
        payload["states"][0]["amplitudes"] = [[True, False], [False, False]]
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError, match="state 0 amplitudes"):
            load_problem(path)


class TestLoadPathsAgree:
    """load_problem converts amplitudes while parsing but leaves every verdict to
    problem_from_dict, so a file and its dict fail with the same message."""

    @pytest.mark.parametrize(
        "mutate",
        [mutate for mutate, _ in SCHEMA_CASES + BOOLEAN_CASES if json_encodable(mutate)]
        + [
            lambda p: p["states"][1].update(amplitudes=[[1.0, 0.0], [1.0, 0.0]]),
            # the message quotes target_index: float pairs are converted while
            # parsing, and pairs holding an int are not
            lambda p: p.update(target_index={"amplitudes": [[1.0, 0.5], [0.0, -0.0]]}),
            lambda p: p.update(target_index={"amplitudes": [[1, 0], [0, 2**63]]}),
            lambda p: p.update(target_index={"amplitudes": [[1, 0.5], [0, 0]]}),
        ],
    )
    def test_same_message(self, tmp_path, mutate):
        payload = valid_payload()
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidInputError) as from_dict:
            problem_from_dict(payload)
        with pytest.raises(InvalidInputError) as loaded:
            load_problem(path)
        assert str(loaded.value) == str(from_dict.value)

    def test_array_amplitudes_in_a_dict_rejected(self):
        payload = valid_payload()
        payload["states"][0]["amplitudes"] = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="state 0 must list exactly 2"):
            problem_from_dict(payload)

    def test_integer_pairs_load(self, tmp_path):
        # no float in the file, so every state is converted by problem_from_dict
        payload = valid_payload()
        payload["states"][0]["amplitudes"] = [[1, 0], [0, 0]]
        payload["states"][1]["amplitudes"] = [[0, 0], [0, -1]]
        path = tmp_path / "integers.json"
        path.write_text(json.dumps(payload))
        loaded, expected = load_problem(path), problem_from_dict(payload)
        assert loaded.state_matrix.tobytes() == expected.state_matrix.tobytes()
        assert loaded.priors.tobytes() == expected.priors.tobytes()
        np.testing.assert_array_equal(loaded.state_matrix, [[1, 0], [0, -1j]])

    def test_mixed_number_pairs_load(self, tmp_path):
        payload = valid_payload()
        payload["states"][0]["amplitudes"] = [[1, 0.0], [0, 0]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(payload))
        np.testing.assert_array_equal(load_problem(path).state_matrix[0], [1.0, 0.0])


class TestFloatPairsFastPath:
    """Float-only pairs, the layout save_problem writes, skip the nested
    np.array read; the array must hold the same bits."""

    EXTREMES = [[-0.0, 5e-324], [1.7976931348623157e308, -5e-324], [0.0, -1.7976931348623157e308]]

    def test_hook_keeps_every_bit(self):
        parsed = json.loads(json.dumps({"amplitudes": self.EXTREMES}), object_hook=_load_amplitudes)
        assert parsed["amplitudes"].array.tobytes() == np.array(self.EXTREMES).tobytes()
        assert repr(parsed["amplitudes"]) == repr(self.EXTREMES)

    def test_loaded_state_keeps_every_bit(self, tmp_path):
        pairs = [[1.0, -0.0], [5e-324, -0.0], [-0.0, 5e-324]]
        payload = valid_payload()
        payload["dimension"] = 3
        payload["states"][0]["amplitudes"] = pairs
        payload["states"][1]["amplitudes"] = [[0.6, 0.0], [0.0, 0.8], [-0.0, -0.0]]
        path = tmp_path / "extremes.json"
        path.write_text(json.dumps(payload))
        loaded = load_problem(path).state_matrix[0]
        assert loaded.view(np.float64).tobytes() == np.array(pairs).tobytes()


def test_load_peak_memory(tmp_path):
    """A load holds the file text and the arrays, not one Python float per number."""
    path = tmp_path / "n8k3.json"
    save_problem(boolean_problem(8, 3), path)
    tracemalloc.start()
    try:
        problem = load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (problem.n_states, problem.dimension) == (256, 256)
    assert peak < 2 * (path.stat().st_size + problem.n_states * problem.dimension * 16)
