# The predictor-corrector interior-point solver from a cold start, showing
# the centrality measure mu shrinking.  Once two iterates in a row name the
# same basis (the m columns with the largest x - z), a verified basis polish
# solves for that basis's vertex: here it is accepted after 4 steps, and the
# run ends at the vertex with a violation at rounding level instead of
# stepping on toward 1e-8.

import numpy as np
import scipy.sparse as sp

from hybridlp import (
    EQ,
    GeneralLp,
    cold_start_point,
    ruiz_equilibrate,
    run_ipm,
    to_standard_form,
    violation_summary,
)

rng = np.random.default_rng(21)
m, n = 30, 55
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

p, _ = to_standard_form(g)
scaled, _ = ruiz_equilibrate(p)

start = cold_start_point(scaled)
print(f"cold start: x = z = {start.x[0]:.3f} * ones, mu = {start.mu:.3f}\n")

pt, stats = run_ipm(scaled)
print(f"{'iter':>4} {'mu':>10} {'step':>8} {'sigma':>8} {'max violation':>14}")
for k, h in enumerate(stats.history, start=1):
    print(f"{k:>4} {h['mu']:>10.2e} {min(h['alpha_p'], h['alpha_d']):>8.3f} "
          f"{h['sigma']:>8.1e} {h['max_violation']:>14.2e}")
print(f"\nstatus: {stats.status.value} in {stats.iterations} iterations, "
      f'polish="{stats.polish}"')
print(f"max violation at the returned point: "
      f"{violation_summary(scaled, pt).max_violation:.2e}")
