"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  The desk suite (crafted fixtures plus planted random
instances, m, n <= 200) is solved once per session and shared across
criteria; see conftest.py.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from hybridlp import (
    IpmParams,
    IpmState,
    KktPoint,
    StandardLp,
    WarmStartParams,
    check_relative_termination,
    residuals,
    ruiz_equilibrate,
    run_ipm,
    to_standard_form,
)
from hybridlp.bench import ResultRecord, scatter_export
from hybridlp.warmstart import center_toward_target, warm_started_ipm

from _desk import lp2


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:2d} {label}: {verdict}{suffix}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _geo_mean(vals):
    return float(np.exp(np.mean(np.log(vals))))


def test_criterion_1_centering_unit_suite():
    """Worked examples exact; floor/clamp/product invariants on 1e4 pairs."""
    t0 = time.monotonic()
    a, d, mu = 1e-6, 1e-4, 1e-6

    x, z = center_toward_target([0.0], [5.0], mu, a, d)
    exact1 = x[0] == 1e-6 and z[0] == 5.0
    x, z = center_toward_target([3.0], [2.0], mu, a, d)
    exact2 = abs(x[0] - 2.9999) < 1e-15 and abs(z[0] - 1.9999) < 1e-15
    x, z = center_toward_target([1e-3], [1e-3], mu, a, d)
    exact3 = x[0] == 1e-3 and z[0] == 1e-3

    rng = np.random.default_rng(2024)
    n = 10_000
    xr = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-9, 1, n)
    zr = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-9, 1, n)
    xp, zp = center_toward_target(xr, zr, mu, a, d)
    fx, fz = np.maximum(xr, a), np.maximum(zr, a)
    floor_ok = xp.min() >= a and zp.min() >= a
    clamp_ok = bool(
        np.all(np.abs(xp - fx) <= d + 4 * np.spacing(np.maximum(fx, d)))
        and np.all(np.abs(zp - fz) <= d + 4 * np.spacing(np.maximum(fz, d)))
    )
    unclamped = (
        (np.abs(xp - fx) < d - 1e-12) & (np.abs(zp - fz) < d - 1e-12)
        & (xp > a) & (zp > a)
    )
    product_ok = bool(np.allclose(xp[unclamped] * zp[unclamped], mu, rtol=1e-9))
    elapsed = time.monotonic() - t0

    _report(
        1, "centered-start unit suite",
        exact1 and exact2 and exact3 and floor_ok and clamp_ok and product_ok
        and elapsed < 1.0,
        f"{n} pairs in {elapsed:.2f}s",
    )


def test_criterion_2_residual_oracle_equivalence():
    """Sparse residuals match a dense triple-loop oracle on 100 random LPs."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        c = rng.standard_normal(n)
        p = StandardLp(sp.csr_matrix(A), b, c)
        x = rng.uniform(0.0, 2.0, n)
        y = rng.standard_normal(m)
        z = rng.uniform(0.0, 2.0, n)
        r = residuals(p, KktPoint(x, y, z))
        rp = np.array([b[i] - sum(A[i][j] * x[j] for j in range(n)) for i in range(m)])
        rd = np.array(
            [c[j] - sum(A[i][j] * y[i] for i in range(m)) - z[j] for j in range(n)]
        )
        worst = max(
            worst,
            float(np.max(np.abs(r.r_p - rp))),
            float(np.max(np.abs(r.r_d - rd))),
        )
    elapsed = time.monotonic() - t0
    _report(
        2, "residual oracle equivalence",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst |diff| {worst:.1e} in {elapsed:.2f}s",
    )


def test_criterion_3_pdhg_correctness(desk_results):
    """Post-hoc termination holds everywhere; iteration counts are monotone
    in the tolerance on at least 90% of instances."""
    posthoc_bad = []
    monotone = 0
    for item in desk_results:
        run4 = item.pdhg[1e-4]
        if run4.stats.status.value != "Optimal":
            posthoc_bad.append(item.inst.name)
            continue
        if not check_relative_termination(item.prep.solve_model, run4.point, 1e-4).ok:
            posthoc_bad.append(item.inst.name)
        it4 = item.pdhg[1e-4].stats.iterations
        it6 = item.pdhg[1e-6].stats.iterations
        it8 = item.pdhg[1e-8].stats.iterations
        if it8 >= it6 >= it4:
            monotone += 1
    total = len(desk_results.items)
    share = monotone / total
    _report(
        3, "pdhg correctness and tolerance ordering",
        not posthoc_bad and share >= 0.9,
        f"post-hoc failures {posthoc_bad or 'none'}, monotone {monotone}/{total}",
    )


def test_criterion_4_ipm_correctness(desk_results):
    """Cold interior point: every desk instance optimal at 1e-8 in <= 50
    iterations with original-model max violation <= 1e-7."""
    failures = []
    for item in desk_results:
        run = item.ipm_cold
        ok = (
            run.stats.status.value == "Optimal"
            and run.stats.iterations <= 50
            and run.finished.violation.max_violation <= 1e-7
        )
        if not ok:
            failures.append(
                (item.inst.name, run.stats.status.value, run.stats.iterations,
                 run.finished.violation.max_violation)
            )
    _report(4, "cold interior-point correctness", not failures, f"failures {failures or 'none'}")


def test_criterion_5_hybrid_accuracy_lift(desk_results):
    """Where the first-order point has violation >= 1e-6, the hybrid point is
    at least 1000x more accurate on the median such instance; suite < 5 min."""
    ratios = []
    for item in desk_results:
        run4 = item.pdhg[1e-4]
        if run4.stats.status.value != "Optimal":
            continue
        v0 = run4.finished.violation.max_violation
        if v0 < 1e-6:
            continue
        warm = item.warm[1e-4]
        if warm.result.stats.status.value != "Optimal":
            continue
        ratios.append(warm.finished.violation.max_violation / v0)
    median = float(np.median(ratios)) if ratios else float("inf")
    _report(
        5, "hybrid accuracy lift",
        bool(ratios) and median <= 1e-3 and desk_results.build_seconds < 300.0,
        f"median lift {median:.1e} over {len(ratios)} instances, "
        f"suite {desk_results.build_seconds:.0f}s",
    )


def test_criterion_6_iteration_count_reduction(desk_results):
    """Geometric-mean warm/cold iteration ratios: <= 0.8 from the 1e-4 start
    and <= 0.6 from the 1e-6 start, over instances both solved where the
    warm solve ran at least one interior-point iteration.  An accepted basis
    polish ends a warm solve after 0 iterations; the share of warm solves it
    ends is reported beside the ratios.  A start whose Optimal warm solves
    were all polished has no ratio, and it passes: no warm iteration ran."""
    ratios = {1e-4: [], 1e-6: []}
    solved = {1e-4: 0, 1e-6: 0}
    polished = {1e-4: 0, 1e-6: 0}
    for item in desk_results:
        cold = item.ipm_cold
        if cold.stats.status.value != "Optimal" or cold.stats.iterations == 0:
            continue
        for eps in (1e-4, 1e-6):
            if item.pdhg[eps].stats.status.value != "Optimal":
                continue
            warm = item.warm[eps]
            if warm.result.stats.status.value != "Optimal":
                continue
            solved[eps] += 1
            polished[eps] += warm.result.stats.polish == "accepted"
            if warm.result.total_iterations > 0:
                ratios[eps].append(warm.result.total_iterations / cold.stats.iterations)
    g4 = _geo_mean(ratios[1e-4]) if ratios[1e-4] else float("inf")
    g6 = _geo_mean(ratios[1e-6]) if ratios[1e-6] else float("inf")
    all_polished = {eps: 0 < polished[eps] == solved[eps] for eps in (1e-4, 1e-6)}
    _report(
        6, "warm-start iteration reduction",
        (g4 <= 0.8 or all_polished[1e-4]) and (g6 <= 0.6 or all_polished[1e-6]),
        f"geo ratio {g4:.2f} from 1e-4 (n={len(ratios[1e-4])}), "
        f"{g6:.2f} from 1e-6 (n={len(ratios[1e-6])}); polish accepted "
        f"{polished[1e-4]}/{solved[1e-4]} from 1e-4, {polished[1e-6]}/{solved[1e-6]} from 1e-6",
    )


def test_criterion_7_fast_convergence_share(desk_results):
    """At least 40% of warm-started solves finish within 10 iterations."""
    finished = [
        item.warm[1e-4].result
        for item in desk_results
        if item.pdhg[1e-4].stats.status.value == "Optimal"
    ]
    solved = [r for r in finished if r.stats.status.value == "Optimal"]
    fast = sum(1 for r in solved if r.total_iterations <= 10)
    share = fast / len(finished) if finished else 0.0
    _report(
        7, "fast-convergence share",
        share >= 0.4,
        f"{fast}/{len(finished)} warm solves in <= 10 iterations",
    )


def test_criterion_8_stall_escalation(desk_results):
    """Warm-start success rate is reported; the Stalled path triggers and
    escalates correctly on a constructed boundary-start instance."""
    attempted = [
        item.warm[1e-4].result
        for item in desk_results
        if item.pdhg[1e-4].stats.status.value == "Optimal"
    ]
    solved = sum(1 for r in attempted if r.stats.status.value == "Optimal")
    rate = solved / len(attempted) if attempted else 0.0

    p, _ = to_standard_form(lp2().model)
    boundary = KktPoint(
        np.array([1.0, 1.0, 1e-9, 1.0]), np.zeros(2), np.array([1.0, 1.0, 1e-9, 1.0])
    )
    direct_pt, direct_stats = run_ipm(
        p, IpmParams(), start=IpmState(boundary.x.copy(), boundary.y.copy(), boundary.z.copy())
    )
    stall_triggers = direct_stats.status.value == "Stalled"
    recovered = warm_started_ipm(p, boundary, IpmParams(), WarmStartParams())
    escalates = (
        recovered.escalations >= 1 and recovered.stats.status.value == "Optimal"
    )
    _report(
        8, "stall escalation and robustness accounting",
        stall_triggers and escalates,
        f"warm success rate {rate:.0%} ({solved}/{len(attempted)}), "
        f"escalations {recovered.escalations}",
    )


def test_criterion_9_transform_round_trips(desk_instances):
    """Equilibrated norms stay inside [0.5, 2]; scale/unscale and the
    provenance objective identity hold on every fixture."""
    from hybridlp import restrict_point, scale_point, unscale_point

    rng = np.random.default_rng(99)
    ok = True
    detail = ""
    for inst in desk_instances:
        p, fmap = to_standard_form(inst.model)
        scaled, info = ruiz_equilibrate(p)
        absA = np.abs(scaled.A.toarray())
        norms = np.r_[absA.max(axis=1), absA.max(axis=0)]
        if norms.min() < 0.5 or norms.max() > 2.0:
            ok, detail = False, f"{inst.name} norms [{norms.min():.2f}, {norms.max():.2f}]"
            break
        pt = KktPoint(
            rng.uniform(0, 2, p.n), rng.standard_normal(p.m), rng.uniform(0, 2, p.n)
        )
        back = unscale_point(info, scale_point(info, pt))
        if not (
            np.allclose(back.x, pt.x, atol=1e-14)
            and np.allclose(back.y, pt.y, atol=1e-14)
            and np.allclose(back.z, pt.z, atol=1e-14)
        ):
            ok, detail = False, f"{inst.name} scale round trip"
            break
        x_std = rng.uniform(0, 2, p.n)
        x_g, _, _ = restrict_point(
            inst.model, fmap, KktPoint(x_std, np.zeros(p.m), np.zeros(p.n))
        )
        lhs = inst.model.objective_value(x_g)
        rhs = float(p.c @ x_std) + fmap.obj_shift
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            ok, detail = False, f"{inst.name} objective identity"
            break
    _report(9, "transform round trips", ok, detail or f"{len(desk_instances)} fixtures")


def test_criterion_10_scatter_clamp_rules():
    """Figure-style clamps reproduce exactly on synthetic records."""
    def rec(model, method, wall, viol, status="Optimal"):
        return ResultRecord(
            model=model, method=method, status=status, wall_seconds=wall,
            pdhg_iterations=0, ipm_iterations=0, escalations=0,
            primal_inf=viol, dual_inf=viol, rel_gap=viol,
            max_violation=viol, scaled_max_violation=viol,
        )

    records = [
        rec("m", "base", 1.0, 5e-5),
        rec("m", "slow", 250.0, 3e-15),
        rec("m", "fail", 3.0, 2e-7, status="TimeLimit"),
    ]
    rows = {r.method: r for r in scatter_export(records)}
    ok = (
        rows["slow"].relative_runtime == 100.0
        and rows["slow"].max_violation == 1e-12
        and rows["base"].relative_runtime == 1.0
        and rows["base"].max_violation == 5e-5
        and rows["fail"].max_violation == 1e6
    )
    _report(10, "scatter clamp rules", ok)
