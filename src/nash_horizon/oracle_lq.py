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

import io
from dataclasses import dataclass

import numpy as np

from .holder import interp_time, time_nodes

__all__ = [
    "LQGameSpec",
    "RiccatiState",
    "RiccatiTrajectory",
    "decay_lq_game",
    "riccati_rhs",
    "riccati_integrate",
    "lq_value",
    "trajectory_to_csv",
]

BLOWUP_NORM = 1e6


class LQError(ValueError):
    pass


@dataclass(frozen=True)
class LQGameSpec:
    N: int
    sigma: float
    Q: np.ndarray        # (N, N, N): running cost matrices, one per player
    Gamma: np.ndarray    # (N, N, N): terminal cost matrices
    T: float

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        G = np.asarray(self.Gamma, dtype=float)
        if Q.shape != (self.N, self.N, self.N) or G.shape != Q.shape:
            raise LQError("cost stacks must have shape (N, N, N)")
        for name, m in (("Q", Q), ("Gamma", G)):
            if not np.allclose(m, np.swapaxes(m, 1, 2), atol=1e-12):
                raise LQError(f"{name} matrices must be symmetric")
        if self.T <= 0 or self.sigma < 0:
            raise LQError("need T > 0 and sigma >= 0")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "Gamma", G)


def decay_lq_game(N: int, beta, c_Q: float, c_G: float, sigma: float,
                  T: float) -> LQGameSpec:
    """Rank-one cost builders Q_i = c_Q v_i v_i' with v_i^j = beta^(i-j);
    since beta <= 1 the entries satisfy the decay bound
    |Q_i^{jk}| <= c_Q (beta^(i-j) ^ sqrt(beta^(i-j) beta^(i-k))).
    """
    V = np.array([[beta.value(i - j) for j in range(N)] for i in range(N)])
    Q = np.einsum("ij,ik->ijk", V, V)
    return LQGameSpec(N, sigma, c_Q * Q, c_G * Q, T)


@dataclass(frozen=True)
class RiccatiState:
    t: float
    P: np.ndarray       # (N, N, N)
    r: np.ndarray       # (N,)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.P)) and np.all(np.isfinite(self.r))):
            raise LQError("non-finite Riccati state")
        if np.max(np.abs(self.P - np.swapaxes(self.P, 1, 2))) > 1e-10:
            raise LQError("P_i asymmetry exceeds 1e-10")


def riccati_rhs(state: RiccatiState, spec: LQGameSpec):
    """Time derivatives (dP, dr) of the coupled Riccati system."""
    P = state.P
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
    blown_up: bool
    blowup_bracket: tuple | None   # (t_low, t_high) if blown up

    def interpolate(self, t: float):
        ts = self.times
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
            raise LQError(f"t = {t} outside [{ts[0]}, {ts[-1]}]")
        return interp_time(ts, self.P, t), interp_time(ts, self.r, t)


def riccati_integrate(spec: LQGameSpec, dt: float) -> RiccatiTrajectory:
    """Backward RK4 at step <= dt with per-step symmetrization; blow-up
    (||P|| > 1e6) is reported with a time bracket.
    """
    if not 0 < dt <= spec.T / 50 + 1e-15:
        raise LQError("need 0 < dt <= T/50")
    times = time_nodes(0.0, spec.T, dt)
    K = times.size - 1
    step = times[1] - times[0]
    P = np.empty((K + 1,) + spec.Gamma.shape)
    r = np.zeros((K + 1, spec.N))
    P[K] = spec.Gamma
    state = RiccatiState(spec.T, spec.Gamma.copy(), np.zeros(spec.N))

    def rhs(P_, r_, t_):
        return riccati_rhs(RiccatiState(t_, P_, r_), spec)

    for k in range(K, 0, -1):
        t = times[k]
        h = -step
        k1 = rhs(P[k], r[k], t)
        k2 = rhs(P[k] + 0.5 * h * k1[0], r[k] + 0.5 * h * k1[1], t + 0.5 * h)
        k3 = rhs(P[k] + 0.5 * h * k2[0], r[k] + 0.5 * h * k2[1], t + 0.5 * h)
        k4 = rhs(P[k] + h * k3[0], r[k] + h * k3[1], t + h)
        Pn = P[k] + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        rn = r[k] + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        Pn = 0.5 * (Pn + np.swapaxes(Pn, 1, 2))
        if not np.all(np.isfinite(Pn)) or np.max(np.abs(Pn)) > BLOWUP_NORM:
            return RiccatiTrajectory(spec, times[k - 1:], P[k:], r[k:], True,
                                     (times[k - 1], times[k]))
        P[k - 1] = Pn
        r[k - 1] = rn
    return RiccatiTrajectory(spec, times, P, r, False, None)


def lq_value(traj: RiccatiTrajectory, i: int, t: float, x):
    """Exact value u^i(t, x) = (1/2) x' P_i(t) x + r_i(t) and its gradient
    P_i(t) x.  Accepts x of shape (N,) or (N, ...) for grid evaluation.
    """
    if traj.blown_up:
        raise LQError("trajectory blew up; no value available")
    P, r = traj.interpolate(t)
    Pi = P[i]
    x = np.asarray(x, dtype=float)
    grad = np.tensordot(Pi, x, axes=(1, 0))
    u = 0.5 * np.sum(x * grad, axis=0) + r[i]
    return u, grad


def trajectory_to_csv(traj: RiccatiTrajectory) -> str:
    """Rows (t, vec(P_1), ..., vec(P_N), r_1, ..., r_N)."""
    N = traj.spec.N
    header = ["t"]
    header += [f"P{i}_{j}{k}" for i in range(N)
               for j in range(N) for k in range(N)]
    header += [f"r{i}" for i in range(N)]
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for k, t in enumerate(traj.times):
        row = [t] + list(traj.P[k].ravel()) + list(traj.r[k])
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()
