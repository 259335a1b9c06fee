"""Cross-check the closed-form exact flow against a stiff ODE solver.

Usage: python3 perfbench/oracle_check.py CONFIG

The problem in CONFIG is the diagonal system

    u_j'(t) = b_j(t) - alpha(t) lam_j u_j(t),    u(0) = theta,

which `scipy.integrate.solve_ivp` (Radau, rtol 1e-12, atol 1e-14, exact
diagonal Jacobian) solves without using any randstep formula.  The states
u(t_k) that `randstep.sampler.exact_states` gives on the coarsest grid of
the config are compared at every grid point, and u(T) on the finest grid.
The coarsest grid sends both branches of the affine forcing response
(series and error function) through the check; the finest grid chains
the most steps.

Every mode must agree to RTOL = 1e-9 relative.  On the oracle-affine
workload the two agree to about 2e-12 (Radau's own error), so the
tolerance leaves a margin of several hundred while a wrong term in the
closed form shows as an error of order 1e-3 or more.

Prints one JSON line and exits 0 when the check passes, 1 when it fails.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from randstep.config import load_config
from randstep.sampler import exact_states

RTOL = 1e-9


def main(config_path: str) -> int:
    cfg = load_config(config_path)
    problem = cfg.problem
    lam = problem.space.eigenvalues
    a0, a1 = problem.alpha
    forcing = problem.forcing

    def rhs(t, u):
        return forcing[:, 0] + forcing[:, 1] * t + forcing[:, 2] * t * t - (a0 + a1 * t) * lam * u

    def jac(t, u):
        return sparse.diags(-(a0 + a1 * t) * lam)

    coarse = min(cfg.grids, key=lambda g: g.num_steps)
    fine = max(cfg.grids, key=lambda g: g.num_steps)
    sol = solve_ivp(
        rhs, (0.0, problem.horizon), cfg.theta, method="Radau", jac=jac,
        rtol=1e-12, atol=1e-14, t_eval=coarse.points,
    )
    if not sol.success:
        print(json.dumps({"ok": False, "reason": f"solve_ivp failed: {sol.message}"}))
        return 1
    reference = sol.y.T
    checks = {
        f"all states, n={coarse.num_steps}": (exact_states(problem, coarse, cfg.theta), reference),
        f"u(T), n={fine.num_steps}": (exact_states(problem, fine, cfg.theta)[-1], reference[-1]),
    }
    worst = {
        label: float(np.max(np.abs(closed - ivp) / np.abs(ivp)))
        for label, (closed, ivp) in checks.items()
    }
    ok = all(err <= RTOL for err in worst.values())
    print(json.dumps({"ok": ok, "rtol": RTOL, "max_rel_err": worst}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
