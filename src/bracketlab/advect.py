"""Advection of fields along Hamiltonian flows, and the commutator-path
Hamiltonian bound it enables.

The flow of H is integrated per grid point with the classical 4th-order
one-step (RK4) scheme applied to sgrad H = (-H_q, H_p); the advected
field is then K evaluated at the flowed positions, so both H and K must
be analytic (evaluable off-grid).
"""

from __future__ import annotations

import numpy as np

from .brackets import BracketField
from .errors import PreconditionError
from .fields import JetField, SampledField, ScaledField, values_of
from .functionals import DEFAULT_TOL_FLOW
from .reporting import check


def _velocity(H: JetField, P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    j = H.jet(1, (P, Q))
    return -j.derivative(0, 1), j.derivative(1, 0)


def advect(H: JetField, K: JetField, t: float, steps: int = 64) -> SampledField:
    """K o (time-t flow of H), sampled on the grid of H.

    Error is O(steps^-4); steps must be at least 4.  Trajectories may
    leave a rectangle's bounds: K is analytic, so it is evaluated there too.
    """
    if steps < 4:
        raise PreconditionError("advection needs at least 4 integrator steps")
    if H.provenance != "analytic" or K.provenance != "analytic":
        raise PreconditionError("advection requires analytic (off-grid evaluable) fields")
    P, Q = H.domain.grid()
    P, Q = P.copy(), Q.copy()
    dt = t / steps
    for _ in range(steps):
        k1p, k1q = _velocity(H, P, Q)
        k2p, k2q = _velocity(H, P + 0.5 * dt * k1p, Q + 0.5 * dt * k1q)
        k3p, k3q = _velocity(H, P + 0.5 * dt * k2p, Q + 0.5 * dt * k2q)
        k4p, k4q = _velocity(H, P + dt * k3p, Q + dt * k3q)
        P = P + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        Q = Q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    return SampledField(H.domain, K.values((P, Q)))


def y_bound_check(
    F: JetField,
    G: JetField,
    s: float = 0.1,
    t: float = 0.1,
    steps: int = 64,
) -> dict:
    """Commutator-path Hamiltonian bound for the pair (sF, tG).

    Builds Y = G~ + F~ o phi_{G~} - G~ o phi_{-F~} - F~ (with F~ = sF,
    G~ = tG and phi the time-1 flows) via advection and checks
    max Y <= (max {{F~,G~},G~} + max {{F~,G~},F~}) / 2 + DEFAULT_TOL_FLOW,
    as a sampled check record.
    """
    Fs = ScaledField(F, s)
    Gt = ScaledField(G, t)
    P = BracketField(Fs, Gt)
    g_vals, f_vals, d_g, d_f = values_of([Gt, Fs, BracketField(P, Gt), BracketField(P, Fs)])
    y = (
        g_vals
        + advect(Gt, Fs, 1.0, steps).values()
        - advect(Fs, Gt, -1.0, steps).values()
        - f_vals
    )
    bound = 0.5 * (float(d_g.max()) + float(d_f.max()))
    return check(float(y.max()), bound, "<=", "sampled", DEFAULT_TOL_FLOW)
