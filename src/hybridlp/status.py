"""Solver outcome statuses shared across modules."""

from __future__ import annotations

import enum


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    TIME_LIMIT = "TimeLimit"
    STALLED = "Stalled"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL_FAILURE = "NumericalFailure"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ERROR = "Error"


# statuses a solution file can carry; everything else folds into Error with
# the original status preserved in the message field
FILE_STATUSES = ("Optimal", "TimeLimit", "Stalled", "IterationLimit", "Error")


def file_status(status: SolveStatus) -> str:
    return status.value if status.value in FILE_STATUSES else "Error"
