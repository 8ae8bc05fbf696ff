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

