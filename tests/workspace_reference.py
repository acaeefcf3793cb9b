"""The arithmetic of one problem's instance before `mpc.team_problems` built
a team's at once, kept as a test reference.

The body of `instance_arrays` is `_Workspace.__init__` of that version of
`rigid_coverage/mpc.py`, copied verbatim but for its first line, which reads
the problem's template, and its result, which names the arrays instead of
setting them on the instance.  It reads a problem's fields, so it gives the
instance that the problem's own values build one robot at a time.
"""
from __future__ import annotations

import numpy as np

from rigid_coverage.mpc import OcpProblem, _template


def instance_arrays(problem: OcpProblem) -> dict:
    """f0, Mb, fb, H_thth and H_max of `problem`, robot by robot."""
    tpl = _template(problem)
    d = tpl.d
    f0 = np.zeros(len(tpl.M_struct))
    f0[: tpl.nx] = tpl.L_Q @ problem.x0
    f0[-d:] = -tpl.s_ref * (tpl.L_S @ problem.r_ref)
    g = np.reshape([g for _, g in problem.desired_bearings], (-1, d))
    anchors = np.reshape([problem.neighbor_anchors[j] for j, _ in problem.desired_bearings], (-1, d, 1))
    Pg = tpl.s_b * (np.eye(d) - g[:, :, None] * g[:, None, :])  # s_b P_g per bearing; OcpProblem checked g is unit
    Mb = Pg.reshape(-1, d)
    fb = -(Pg @ anchors).reshape(-1)
    H_thth = tpl.H_thth + 2.0 * Mb.T @ Mb if len(Mb) else tpl.H_thth  # shared if no bearing
    H_max = max(tpl.H_struct_max, float(np.max(np.abs(H_thth))))
    return {"f0": f0, "Mb": Mb, "fb": fb, "H_thth": H_thth, "H_max": H_max}
