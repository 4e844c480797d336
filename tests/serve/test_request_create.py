"""``ServeRequest.create`` normalises a request once, with ``map(int, ·)``:
the same tuples, and the same exception types, as the per-item generator
it replaced (kept below as the reference), for every input shape callers
hand it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError


def reference_fields(history, objective, path_so_far=(), user_index=None):
    """The fields the generator-based normalisation produced."""
    history = tuple(int(item) for item in history)
    if user_index is not None:
        user_index = int(user_index)
        if user_index < 0:
            raise ConfigurationError(f"user_index must be non-negative or None, got {user_index}")
    return (
        history,
        int(objective),
        tuple(int(item) for item in (path_so_far or ())),
        user_index,
    )


def outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return ("raised", type(exc))


def created_fields(*args, **kwargs):
    request = ServeRequest.create("next_step", *args, **kwargs)
    return (request.history, request.objective, request.path_so_far, request.user_index)


SEQUENCES = {
    "list": [3, 1, 2],
    "tuple": (3, 1, 2),
    "empty": [],
    "int32": np.array([3, 1, 2], dtype=np.int32),
    "int64": np.array([3, 1, 2], dtype=np.int64),
    "numpy-scalars": [np.int64(3), np.int32(1), 2],
    "bool": [True, False, True],
    "numpy-bool": np.array([True, False]),
    "generator": None,  # built fresh per call: a generator is consumed once
    "one-item-int64": np.array([7], dtype=np.int64),
    "zero-item-array": np.array([], dtype=np.int64),
}


def _sequence(name):
    if name == "generator":
        return (item for item in (3, 1, 2))
    return SEQUENCES[name]


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_histories_normalise_as_before(name):
    got = outcome(lambda: created_fields(_sequence(name), 5))
    want = outcome(lambda: reference_fields(_sequence(name), 5))
    assert got == want
    assert got[0] == "ok" and all(type(item) is int for item in got[1][0])


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_paths_normalise_as_before(name):
    """Paths keep their truthiness test: a one-element array reads as its
    element (``[0]`` is an empty path), a longer one raises ``ValueError``."""
    got = outcome(lambda: created_fields([1, 2], 5, _sequence(name)))
    want = outcome(lambda: reference_fields([1, 2], 5, _sequence(name)))
    assert got == want


def test_a_path_array_of_zero_reads_as_no_path_as_before():
    path = np.array([0], dtype=np.int64)
    assert created_fields([1], 5, path)[2] == reference_fields([1], 5, path)[2] == ()


def test_a_none_path_is_the_empty_path():
    assert created_fields([1, 2], 5, None)[2] == ()
    assert ServeRequest.create("plan_paths", [1, 2], 5).path_so_far == ()


@pytest.mark.parametrize(
    "history, objective, path, user",
    [
        ([1, "x"], 5, (), None),  # a non-integer item
        ([1, None], 5, (), None),
        ([1, 2], 5, ("y",), None),
        ([1, 2], "z", (), None),
        (7, 5, (), None),  # not iterable
        ([1, 2], 5, 3, None),
        ([1, 2], 5, (), -1),  # a negative user
        ([1, 2], 5, (), "w"),
    ],
)
def test_the_same_exception_types_are_raised(history, objective, path, user):
    got = outcome(lambda: created_fields(history, objective, path, user))
    want = outcome(lambda: reference_fields(history, objective, path, user))
    assert got[0] == want[0] == "raised"
    assert got[1] is want[1]


def test_a_next_step_horizon_is_refused_before_any_normalisation():
    with pytest.raises(ConfigurationError, match="cannot override max_length"):
        ServeRequest.create("next_step", [1, "x"], 5, max_length=3)
