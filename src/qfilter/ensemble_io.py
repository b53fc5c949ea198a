"""JSON ensemble files, and the one home of the [re, im] amplitude format.

Schema: {"dimension": D, "states": [{"amplitudes": [[re, im], ...],
"prior": eta}, ...], "target_index": i}. Amplitudes are exact [re, im] pairs;
unknown fields are rejected. Only this module reads or writes the pairs:
``problem_from_dict`` views each (D, 2) float array as D complex amplitudes,
and ``problem_to_dict`` and ``save_problem`` view the amplitudes as pairs.
"""
from __future__ import annotations

import json
from itertools import chain
from os import PathLike

import numpy as np

from .ensemble import FilteringProblem, _numbers
from .errors import InvalidInputError

_TOP_KEYS = {"dimension", "states", "target_index"}
_STATE_KEYS = {"amplitudes", "prior"}


def problem_to_dict(problem: FilteringProblem) -> dict:
    """Serialize in canonical order (target first, target_index 0)."""
    return {
        "dimension": problem.dimension,
        "states": [
            {"amplitudes": row.view(np.float64).reshape(-1, 2).tolist(), "prior": p}
            for row, p in zip(problem.state_matrix, problem.priors.tolist())
        ],
        "target_index": 0,
    }


def _pair_array(pairs: list, pos: int) -> np.ndarray:
    """``pairs`` as a (k, 2) float array, read by ``_numbers`` (so JSON
    true/false are not numbers), or InvalidInputError naming state ``pos``
    unless it lists [re, im] pairs of numbers."""
    try:
        arr = _numbers(pairs, "amplitudes")
    except InvalidInputError:
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"state {pos} amplitudes must be [re, im] number pairs")
    return arr


class _LoadedPairs:
    """Amplitude pairs ``load_problem`` already turned into an array.

    Only ``problem_from_dict`` accepts this type in place of a list, so a
    caller's dict holding an array is still rejected. The repr is the parsed
    list's, so a message that quotes the value reads as it would without it.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __repr__(self) -> str:
        return repr(self.array.tolist())


def _load_amplitudes(obj: dict) -> dict:
    """``json.load`` object hook: swap an ``amplitudes`` list of float pairs, the
    layout ``save_problem`` writes, for its array as soon as the parser closes
    the object, so a load holds one state's Python lists at a time. Any other
    list stays a list for ``_pair_array``; the hook never rejects."""
    pairs = obj.get("amplitudes")
    if type(pairs) is list and set(map(type, pairs)) == {list} and set(map(len, pairs)) == {2}:
        flat = list(chain.from_iterable(pairs))
        if set(map(type, flat)) == {float}:
            obj["amplitudes"] = _LoadedPairs(np.array(flat).reshape(-1, 2))
    return obj


def problem_from_dict(data) -> FilteringProblem:
    if not isinstance(data, dict):
        raise InvalidInputError(f"ensemble file must hold a JSON object, not {type(data).__name__}")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InvalidInputError(f"unknown ensemble fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise InvalidInputError(f"missing ensemble fields: {sorted(missing)}")
    dimension = data["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise InvalidInputError("dimension must be a positive integer")
    entries = data["states"]
    if not isinstance(entries, list) or not entries:
        raise InvalidInputError("states must be a nonempty list")
    states: list[np.ndarray] = []
    priors: list[float] = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvalidInputError(f"state {pos} must be an object, not {type(entry).__name__}")
        unknown = set(entry) - _STATE_KEYS
        if unknown:
            raise InvalidInputError(f"state {pos} has unknown fields: {sorted(unknown)}")
        missing = _STATE_KEYS - set(entry)
        if missing:
            raise InvalidInputError(f"state {pos} is missing fields: {sorted(missing)}")
        pairs = entry["amplitudes"]
        if not isinstance(pairs, (list, _LoadedPairs)) or len(pairs) != dimension:
            raise InvalidInputError(
                f"state {pos} must list exactly {dimension} [re, im] amplitude pairs"
            )
        amplitudes = pairs.array if isinstance(pairs, _LoadedPairs) else _pair_array(pairs, pos)
        states.append(np.ascontiguousarray(amplitudes, dtype=np.float64).view(np.complex128)[:, 0])
        prior = entry["prior"]
        if isinstance(prior, bool) or not isinstance(prior, (int, float)):
            raise InvalidInputError(f"state {pos} prior must be a number")
        try:
            priors.append(float(prior))
        except OverflowError:  # an integer beyond the float range
            raise InvalidInputError(f"state {pos} prior is too large for a float") from None
    target = data["target_index"]
    return FilteringProblem(states=states, priors=priors, target_index=target)


def load_problem(path: str | PathLike) -> FilteringProblem:
    """Read an ensemble file. Each state's amplitudes become an array when the
    parser closes that state, so the load never holds the whole file as lists."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_hook=_load_amplitudes)
        # also a non-UTF-8 byte, an over-long integer or nesting beyond the recursion limit
        except (ValueError, RecursionError) as exc:
            raise InvalidInputError(f"invalid JSON in {path}: {exc}") from exc
    return problem_from_dict(data)


# The layout json.dump(problem_to_dict(problem), fh, indent=1) produces.
_FILE_OPEN = '{\n "dimension": %d,\n "states": [\n'
_AMPLITUDES_OPEN = '  {\n   "amplitudes": [\n'
_PAIR = "    [\n     %r,\n     %r\n    ]"
_STATE_CLOSE = '\n   ],\n   "prior": %r\n  }'
_FILE_CLOSE = '\n ],\n "target_index": 0\n}\n'


def save_problem(problem: FilteringProblem, path: str | PathLike) -> None:
    """Write ``problem_to_dict(problem)`` as indent-1 JSON, one state at a time.

    The bytes equal ``json.dump(problem_to_dict(problem), fh, indent=1)``
    followed by a newline; amplitudes and priors are finite, so ``%r`` spells
    each float as the JSON encoder does.
    """
    state = _AMPLITUDES_OPEN + ",\n".join([_PAIR] * problem.dimension) + _STATE_CLOSE
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_FILE_OPEN % problem.dimension)
        for pos, (row, prior) in enumerate(zip(problem.state_matrix, problem.priors)):
            values = (*row.view(np.float64).tolist(), float(prior))
            fh.write((",\n" if pos else "") + state % values)
        fh.write(_FILE_CLOSE)
