# The hybrid pipeline: a loose first-order solve produces a near-optimal but
# low-accuracy point; a centered version of that point warm-starts the
# interior-point solver.  Its first move is one verified basis solve, which
# here lands on the vertex exactly (0 iterations); a refused attempt leaves
# the interior point to reach high accuracy in a fraction of its cold-start
# iterations.  Also shows the stall-escalation safety valve, whose restarts
# each begin with an attempt of their own.

import numpy as np
import scipy.sparse as sp

from hybridlp import (
    EQ,
    GeneralLp,
    IpmParams,
    KktPoint,
    PdhgParams,
    WarmStartParams,
    centered_start,
    run_ipm,
    run_pdhg,
    ruiz_equilibrate,
    solve,
    to_standard_form,
)
from hybridlp.warmstart import warm_started_ipm

rng = np.random.default_rng(5)
m, n = 60, 105
A = np.where(rng.random((m, n)) < 0.35, rng.uniform(-2, 2, (m, n)), 0.0)
A[:, :m] += np.eye(m) * 3.0
for j in range(n):
    if not A[:, j].any():
        A[rng.integers(m), j] = 1.0
x_star = np.r_[rng.uniform(0.5, 2.0, m), np.zeros(n - m)]
y_star = rng.standard_normal(m) * 0.5
z_star = np.r_[np.zeros(m), rng.uniform(0.1, 2.0, n - m)]
g = GeneralLp(
    c=A.T @ y_star + z_star, A=sp.csr_matrix(A), senses=[EQ] * m,
    rhs=A @ x_star, lower=np.zeros(n), upper=np.full(n, np.inf),
)

# --- the one-call version ----------------------------------------------------

sol, stats = solve(g, "hybrid")
print('solve(g, "hybrid"):', sol.status)
print(f"  first-order iterations: {sol.pdhg_iterations}")
print(f"  basis polish: {stats.ipm_stats.polish}")
print(f"  interior-point iterations: {sol.ipm_iterations}")
print(f"  max violation on the original model: {sol.violation.max_violation:.2e}")

# --- what happened inside ----------------------------------------------------

p, _ = to_standard_form(g)
scaled, _ = ruiz_equilibrate(p)

pt_fo, fo_stats = run_pdhg(scaled, PdhgParams(eps_rel=1e-4))
_, cold_stats = run_ipm(scaled)
warm = centered_start(pt_fo, WarmStartParams())
prods = warm.x * warm.z
print("\ncentered start from the first-order point:")
print(f"  min x = {warm.x.min():.1e}, min z = {warm.z.min():.1e} "
      f"(floored at 1e-6)")
print(f"  complementarity products span [{prods.min():.1e}, {prods.max():.1e}]")

res = warm_started_ipm(scaled, warm, IpmParams(), WarmStartParams())
print(f"\ncold interior point: {cold_stats.iterations} iterations")
print(f"warm interior point: {res.total_iterations} iterations "
      f"({res.escalations} escalations, basis polish {res.stats.polish})")

# --- the stall-escalation valve ----------------------------------------------

# A coordinate pair pinned at the boundary makes the first solve stall: the
# centering correction has to blast through the tiny pair, collapsing the
# fraction-to-boundary step.  Raising the floor tenfold and re-entering from
# the current iterate recovers.  The start has x = z in every coordinate, so
# it names no basis and its polish attempt is refused with "no basis".  The
# escalated restart's attempt is refused too ("infeasible"), and the attempt
# after 5 more steps is accepted: that last verdict is the one reported.
g_small = GeneralLp(
    c=[-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], senses=["<=", "<="],
    rhs=[4.0, 6.0], lower=[0.0, 0.0], upper=[np.inf, np.inf],
)
p_small, _ = to_standard_form(g_small)
tiny = np.array([1.0, 1.0, 1e-9, 1.0])
res = warm_started_ipm(
    p_small, KktPoint(tiny, np.zeros(2), tiny.copy()),
    IpmParams(), WarmStartParams(),
)
print(f"\nboundary start: {res.stats.status.value} after "
      f"{res.escalations} escalation(s), {res.total_iterations} iterations "
      f'(basis polish "{res.stats.polish}")')
