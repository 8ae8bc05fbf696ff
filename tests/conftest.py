"""Session-scoped solve cache shared by the acceptance suite, and a spy on
the dense normal-equations factorization.

Stages are cached separately (prepare once, PDHG per tolerance, cold IPM,
warm IPM per starting tolerance) so criteria that share work do not repeat
the expensive first-order solves.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import hybridlp.ipm

sys.path.insert(0, str(Path(__file__).parent))

from _desk import DeskInstance, desk_suite

from hybridlp import (
    IpmParams,
    KktPoint,
    PdhgParams,
    WarmStartParams,
    centered_start,
    run_ipm,
    run_pdhg,
)
from hybridlp.warmstart import (
    FinishedPoint,
    PreparedModel,
    WarmIpmResult,
    finish_point,
    prepare_model,
    warm_started_ipm,
)

PDHG_TOLERANCES = (1e-4, 1e-6, 1e-8)
WARM_FROM = (1e-4, 1e-6)


@dataclass
class PdhgRun:
    point: KktPoint
    stats: object
    finished: FinishedPoint


@dataclass
class IpmRun:
    point: KktPoint
    stats: object
    finished: FinishedPoint


@dataclass
class WarmRun:
    result: WarmIpmResult
    finished: FinishedPoint


@dataclass
class SolvedInstance:
    inst: DeskInstance
    prep: PreparedModel
    pdhg: dict
    ipm_cold: IpmRun
    warm: dict


@dataclass
class DeskResults:
    items: list
    build_seconds: float

    def __iter__(self):
        return iter(self.items)


def solve_instance(inst: DeskInstance) -> SolvedInstance:
    prep = prepare_model(inst.model)
    assert not prep.presolve_result.solved, f"{inst.name} vanished in presolve"
    p = prep.solve_model

    pdhg_runs = {}
    for eps in PDHG_TOLERANCES:
        pt, stats = run_pdhg(p, PdhgParams(eps_rel=eps))
        pdhg_runs[eps] = PdhgRun(pt, stats, finish_point(prep, pt))

    pt, stats = run_ipm(p, IpmParams())
    cold = IpmRun(pt, stats, finish_point(prep, pt))

    warm_runs = {}
    for eps in WARM_FROM:
        start = centered_start(pdhg_runs[eps].point, WarmStartParams())
        result = warm_started_ipm(p, start, IpmParams(), WarmStartParams())
        warm_runs[eps] = WarmRun(result, finish_point(prep, result.point))

    return SolvedInstance(inst, prep, pdhg_runs, cold, warm_runs)


@pytest.fixture(scope="session")
def desk_instances() -> list[DeskInstance]:
    return desk_suite()


@pytest.fixture(scope="session")
def desk_results(desk_instances) -> DeskResults:
    t0 = time.monotonic()
    items = [solve_instance(inst) for inst in desk_instances]
    return DeskResults(items, time.monotonic() - t0)


@pytest.fixture
def factored(monkeypatch) -> list:
    """Copies of the matrices the dense backend hands to cho_factor, in call
    order; cho_factor overwrites its input, so each is copied first."""
    seen = []
    real = hybridlp.ipm.cho_factor

    def spy(a, **kwargs):
        seen.append(a.copy())
        return real(a, **kwargs)

    monkeypatch.setattr(hybridlp.ipm, "cho_factor", spy)
    return seen
