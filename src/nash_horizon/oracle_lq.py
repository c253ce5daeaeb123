"""Closed-form ground truth for linear-quadratic Nash games.

Players control dX^i = alpha^i dt + sigma dW^i and pay quadratic running and
terminal costs.  The quadratic ansatz u^i = (1/2) x' P_i x + r_i reduces the
Nash system

    -du^i/dt - (sigma^2/2) tr D^2 u^i + (1/2)(D_i u^i)^2 - (1/2) x' Q_i x
        + sum_{j != i} (D_j u^j)(D_j u^i) = 0,   u^i(T) = (1/2) x' Gamma_i x,

to the coupled matrix Riccati system

    dP_i/dt = P_i e_i e_i' P_i - Q_i
              + sum_{j != i} (P_j e_j e_j' P_i + P_i e_j e_j' P_j),
    dr_i/dt = -(sigma^2/2) tr P_i,

integrated backward from P_i(T) = Gamma_i, r_i(T) = 0 by fixed-step RK4.
The matrix right-hand side is validated downstream through the PDE residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holder import interp_time, time_nodes

__all__ = [
    "LQGameSpec",
    "RiccatiTrajectory",
    "decay_lq_game",
    "riccati_rhs",
    "riccati_integrate",
    "lq_value",
]

BLOWUP_NORM = 1e6


class LQError(ValueError):
    pass


@dataclass(frozen=True)
class LQGameSpec:
    sigma: float
    Q: np.ndarray        # (N, N, N): running cost matrices, one per player
    Gamma: np.ndarray    # (N, N, N): terminal cost matrices
    T: float

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        G = np.asarray(self.Gamma, dtype=float)
        if (Q.ndim != 3 or Q.shape != (Q.shape[0],) * 3
                or G.shape != Q.shape):
            raise LQError("cost stacks must have shape (N, N, N)")
        for name, m in (("Q", Q), ("Gamma", G)):
            if not np.allclose(m, np.swapaxes(m, 1, 2), atol=1e-12):
                raise LQError(f"{name} matrices must be symmetric")
        if not (math.isfinite(self.T) and self.T > 0
                and math.isfinite(self.sigma) and self.sigma >= 0):
            raise LQError("need T finite and > 0 and sigma finite and >= 0")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Gamma", G)

    @property
    def N(self) -> int:
        """The number of players, read from the cost stacks."""
        return self.Q.shape[0]


def decay_lq_game(N: int, beta, c_Q: float, c_G: float, sigma: float,
                  T: float) -> LQGameSpec:
    """Rank-one cost builders Q_i = c_Q v_i v_i' with v_i^j = beta^(i-j);
    since beta <= 1 the entries satisfy the decay bound
    |Q_i^{jk}| <= c_Q (beta^(i-j) ^ sqrt(beta^(i-j) beta^(i-k))).
    """
    V = np.array([[beta.value(i - j) for j in range(N)] for i in range(N)])
    Q = np.einsum("ij,ik->ijk", V, V)
    return LQGameSpec(sigma, c_Q * Q, c_G * Q, T)


def riccati_rhs(P: np.ndarray, spec: LQGameSpec):
    """Time derivatives (dP, dr) of the coupled Riccati system at the stack
    P of shape (N, N, N); neither depends on t or r."""
    N = spec.N
    j = np.arange(N)
    d = P[j, :, j]               # d_j := column j of P_j, i.e. P_j e_j
    # m[i, j] = P_j e_j e_j' P_i = outer(d_j, row j of P_i); no j = i term
    m = d[None, :, :, None] * P[:, :, None, :]            # (N, N, N, N)
    m[j, j] = 0.0
    m = m + np.swapaxes(m, 2, 3)
    cross = np.zeros_like(P)
    for k in range(N):                                    # summed in order
        cross += m[:, k]
    dP = d[:, :, None] * d[:, None, :] - spec.Q + cross
    dr = -0.5 * spec.sigma ** 2 * np.trace(P, axis1=1, axis2=2)
    return dP, dr


@dataclass
class RiccatiTrajectory:
    spec: LQGameSpec
    times: np.ndarray          # ascending, times[-1] = T
    P: np.ndarray              # (K+1, N, N, N)
    r: np.ndarray              # (K+1, N)
    blowup_bracket: tuple | None   # (t_low, t_high) if blown up

    @property
    def blown_up(self) -> bool:
        return self.blowup_bracket is not None

    def interpolate(self, t: float):
        ts = self.times
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
            raise LQError(f"t = {t} outside [{ts[0]}, {ts[-1]}]")
        return interp_time(ts, self.P, t), interp_time(ts, self.r, t)


def riccati_integrate(spec: LQGameSpec, dt: float) -> RiccatiTrajectory:
    """Backward RK4 at step <= dt with per-step symmetrization; blow-up
    (||P|| > 1e6, or a non-finite P from any stage) is reported with a time
    bracket.
    """
    if not 0 < dt <= spec.T / 50 + 1e-15:
        raise LQError("need 0 < dt <= T/50")
    times = time_nodes(0.0, spec.T, dt)
    K = times.size - 1
    step = times[1] - times[0]
    P = np.empty((K + 1,) + spec.Gamma.shape)
    r = np.zeros((K + 1, spec.N))
    P[K] = spec.Gamma
    for k in range(K, 0, -1):
        h = -step
        k1 = riccati_rhs(P[k], spec)
        k2 = riccati_rhs(P[k] + 0.5 * h * k1[0], spec)
        k3 = riccati_rhs(P[k] + 0.5 * h * k2[0], spec)
        k4 = riccati_rhs(P[k] + h * k3[0], spec)
        Pn = P[k] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        rn = r[k] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        Pn = 0.5 * (Pn + np.swapaxes(Pn, 1, 2))
        if not np.all(np.isfinite(Pn)) or np.max(np.abs(Pn)) > BLOWUP_NORM:
            return RiccatiTrajectory(spec, times[k - 1:], P[k:], r[k:],
                                     (times[k - 1], times[k]))
        P[k - 1] = Pn
        r[k - 1] = rn
    return RiccatiTrajectory(spec, times, P, r, None)


def lq_value(traj: RiccatiTrajectory, i: int, t: float, x):
    """Exact value u^i(t, x) = (1/2) x' P_i(t) x + r_i(t).  Accepts x of
    shape (N,) or (N, ...) for grid evaluation.
    """
    if traj.blown_up:
        raise LQError("trajectory blew up; no value available")
    P, r = traj.interpolate(t)
    x = np.asarray(x, dtype=float)
    Px = np.tensordot(P[i], x, axes=(1, 0))
    return 0.5 * np.sum(x * Px, axis=0) + r[i]

