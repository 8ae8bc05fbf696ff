"""Input checks at the public entry points: time limits and invalid models.

A model is validated by each public entry point that reads it (presolve,
to_standard_form, evaluate_general_point), and solve validates it through
presolve; the pipeline does not validate presolve's output again.
"""

import numpy as np
import pytest

from hybridlp import (
    EQ, LE, GeneralLp, InvalidModelError, PdhgParams, evaluate_general_point, presolve,
    run_ipm, to_standard_form,
)
from hybridlp.warmstart import METHODS, solve

from _desk import lp2

BAD_LIMITS = [float("nan"), -1.0]


@pytest.mark.parametrize("limit", BAD_LIMITS, ids=["nan", "negative"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_solve_rejects_nan_or_negative_time_limit(method, limit):
    with pytest.raises(ValueError, match="time_limit_s"):
        solve(lp2().model, method, time_limit_s=limit)


@pytest.mark.parametrize("limit", BAD_LIMITS, ids=["nan", "negative"])
def test_pdhg_params_reject_nan_or_negative_time_limit(limit):
    with pytest.raises(ValueError, match="time_limit_s"):
        PdhgParams(time_limit_s=limit)


@pytest.mark.parametrize("limit", BAD_LIMITS, ids=["nan", "negative"])
def test_run_ipm_rejects_nan_or_negative_time_limit(limit):
    p, _ = to_standard_form(lp2().model)
    with pytest.raises(ValueError, match="time_limit_s"):
        run_ipm(p, time_limit_s=limit)


def test_zero_and_infinite_time_limits_are_valid():
    PdhgParams(time_limit_s=0.0)
    PdhgParams(time_limit_s=np.inf)
    p, _ = to_standard_form(lp2().model)
    assert run_ipm(p, time_limit_s=0.0)[1].status.value == "TimeLimit"


def _model(**change) -> GeneralLp:
    """A valid 2 x 3 model, with the given arrays or entries replaced."""
    data = dict(
        c=[1.0, -1.0, 2.0], A=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], senses=[LE, EQ],
        rhs=[4.0, 1.0], lower=[0.0, 0.0, -np.inf], upper=[np.inf, 3.0, 5.0],
    )
    for key, (i, value) in change.items():
        if key == "A":
            data["A"][i[0]][i[1]] = value
        else:
            data[key][i] = value
    return GeneralLp(**data)


INVALID = {
    "nan-c": dict(c=(1, np.nan)),
    "inf-rhs": dict(rhs=(0, np.inf)),
    "nan-A": dict(A=((1, 2), np.nan)),
    "unknown-sense": dict(senses=(1, "<")),
    "crossed-bounds": dict(lower=(1, 4.0)),
    "plus-inf-lower": dict(lower=(0, np.inf)),
    "nan-upper": dict(upper=(2, np.nan)),
}


@pytest.mark.parametrize("change", INVALID.values(), ids=INVALID.keys())
def test_every_entry_point_rejects_an_invalid_model(change):
    g = _model(**change)
    with pytest.raises(InvalidModelError):
        presolve(g)
    with pytest.raises(InvalidModelError):
        to_standard_form(g)
    with pytest.raises(InvalidModelError):
        evaluate_general_point(g, np.zeros(g.n_vars), np.zeros(g.n_rows))
    for method in METHODS:
        with pytest.raises(InvalidModelError):
            solve(g, method)


def test_valid_model_is_validated_twice_per_solve(monkeypatch):
    """presolve validates the user's model and evaluate_general_point the
    model it measures; the standard form of presolve's output is not
    validated again."""
    calls = []
    real = GeneralLp.validate

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(GeneralLp, "validate", counted)
    g = _model()
    sol, _ = solve(g, "hybrid")
    assert sol.status == "Optimal"
    assert len(calls) == 2 and all(model is g for model in calls)
