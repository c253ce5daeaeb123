import numpy as np
import pytest

from nash_horizon.oracle_lq import (
    LQError,
    LQGameSpec,
    RiccatiState,
    decay_lq_game,
    lq_value,
    riccati_integrate,
    riccati_rhs,
    trajectory_to_csv,
)
from nash_horizon.weights import build_weight

BETA = build_weight("polynomial", {"a": 3}, 32)


def scalar_spec(q=0.0, gamma=0.5, T=1.0, sigma=0.3):
    return LQGameSpec(1, sigma, np.array([[[q]]]), np.array([[[gamma]]]), T)


def test_spec_validation():
    with pytest.raises(LQError):
        LQGameSpec(1, 0.3, np.array([[[0.0, 1.0]]]), np.array([[[0.0]]]), 1.0)
    asym = np.array([[[0.0, 1.0], [0.0, 0.0]]] * 2)
    with pytest.raises(LQError):
        LQGameSpec(2, 0.3, asym, asym, 1.0)
    with pytest.raises(LQError):
        scalar_spec(T=-1.0)


def test_rhs_zero_data():
    spec = scalar_spec(q=0.0, gamma=0.0)
    dP, dr = riccati_rhs(RiccatiState(0.0, np.zeros((1, 1, 1)), np.zeros(1)),
                         spec)
    assert np.all(dP == 0) and np.all(dr == 0)


def test_rhs_decoupled_stays_diagonal():
    # Q_i, Gamma_i supported on (i,i): off-diagonal derivatives vanish
    N = 3
    Q = np.zeros((N, N, N))
    G = np.zeros((N, N, N))
    for i in range(N):
        Q[i, i, i] = 0.4
        G[i, i, i] = 0.7
    spec = LQGameSpec(N, 0.2, Q, G, 0.5)
    traj = riccati_integrate(spec, 0.01)
    off = traj.P.copy()
    for i in range(N):
        off[:, i, i, i] = 0.0
    assert np.max(np.abs(off)) < 1e-12


def _riccati_rhs_first_form(state, spec):
    """riccati_rhs as first written: one player and one j at a time."""
    P = state.P
    N = spec.N
    d = np.stack([P[j, :, j] for j in range(N)])
    dP = np.empty_like(P)
    for i in range(N):
        own = np.outer(d[i], d[i])
        cross = np.zeros((N, N))
        for j in range(N):
            if j == i:
                continue
            m = np.outer(d[j], P[i, j, :])
            cross += m + m.T
        dP[i] = own - spec.Q[i] + cross
    dr = -0.5 * spec.sigma ** 2 * np.trace(P, axis1=1, axis2=2)
    return dP, dr


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_rhs_matches_first_form(N, same_bits):
    rng = np.random.default_rng(N)
    spec = decay_lq_game(N, BETA, c_Q=0.7, c_G=0.3, sigma=0.4, T=1.0)
    for _ in range(5):
        A = rng.standard_normal((N, N, N))
        A.reshape(-1)[::3] = 0.0                # signed zeros in the products
        state = RiccatiState(0.0, A + np.swapaxes(A, 1, 2),
                             rng.standard_normal(N))
        new, old = riccati_rhs(state, spec), _riccati_rhs_first_form(state, spec)
        assert same_bits(new[0], old[0]) and same_bits(new[1], old[1])


@pytest.mark.parametrize("N", [2, 3, 4])
def test_integrate_matches_first_form_rhs(N, monkeypatch, same_bits):
    from nash_horizon import oracle_lq
    spec = decay_lq_game(N, BETA, c_Q=0.5, c_G=1.0, sigma=0.3, T=0.5)
    new = riccati_integrate(spec, spec.T / 50)
    monkeypatch.setattr(oracle_lq, "riccati_rhs", _riccati_rhs_first_form)
    old = riccati_integrate(spec, spec.T / 50)
    assert same_bits(new.P, old.P) and same_bits(new.r, old.r)


def test_integrate_is_one_rk4_pass(monkeypatch):
    # four right-hand side evaluations per RK4 step, and no second pass
    from nash_horizon import oracle_lq
    calls = []

    def rhs(state, spec):
        calls.append(state.t)
        return riccati_rhs(state, spec)

    spec = decay_lq_game(3, BETA, c_Q=0.5, c_G=1.0, sigma=0.3, T=0.5)
    monkeypatch.setattr(oracle_lq, "riccati_rhs", rhs)
    traj = riccati_integrate(spec, spec.T / 60)
    K = traj.times.size - 1
    assert K == 60 and not traj.blown_up
    assert len(calls) == 4 * K


def test_scalar_riccati_closed_form():
    # dP/dt = P^2 - q backward from gamma: P(T - tau) = sqrt(q) tanh(
    #   sqrt(q) tau + atanh(gamma/sqrt(q)))
    q, gamma, T = 0.36, 0.3, 1.0
    spec = scalar_spec(q=q, gamma=gamma, T=T)
    traj = riccati_integrate(spec, 1e-3)
    sq = np.sqrt(q)
    tau = T - traj.times
    exact = sq * np.tanh(sq * tau + np.arctanh(gamma / sq))
    assert np.max(np.abs(traj.P[:, 0, 0, 0] - exact)) < 1e-6


def test_scalar_zero_q_closed_form():
    # q = 0: P(t) = gamma / (1 + gamma (T - t))
    gamma, T = 0.8, 1.0
    traj = riccati_integrate(scalar_spec(q=0.0, gamma=gamma, T=T), 1e-3)
    exact = gamma / (1 + gamma * (T - traj.times))
    assert np.max(np.abs(traj.P[:, 0, 0, 0] - exact)) < 1e-8
    # r integrates the trace: dr/dt = -sigma^2/2 P, r(T) = 0
    sigma = 0.3
    r_exact = 0.5 * sigma ** 2 * np.log(1 + gamma * (T - traj.times))
    assert np.max(np.abs(traj.r[:, 0] - r_exact)) < 1e-8


def test_terminal_consistency_and_symmetry():
    spec = decay_lq_game(3, BETA, c_Q=0.2, c_G=0.3, sigma=0.25, T=0.4)
    traj = riccati_integrate(spec, 0.004)
    np.testing.assert_array_equal(traj.P[-1], spec.Gamma)
    np.testing.assert_array_equal(traj.r[-1], 0.0)
    asym = np.max(np.abs(traj.P - np.swapaxes(traj.P, 2, 3)))
    assert asym <= 1e-10


def test_rk4_refinement_ratio():
    spec = decay_lq_game(2, BETA, c_Q=0.5, c_G=0.8, sigma=0.3, T=1.0)
    sols = [riccati_integrate(spec, dt).P[0] for dt in (0.02, 0.01, 0.005)]
    e1 = np.max(np.abs(sols[0] - sols[1]))
    e2 = np.max(np.abs(sols[1] - sols[2]))
    assert e1 < 16 * e2 * 2  # 4th-order ratio ~ 16 with slack
    assert e1 / e2 > 8       # and clearly better than 3rd order


def test_step_halving_error_estimate():
    # max |P_{dt/2}(0) - P_dt(0)|, each from its own riccati_integrate call
    spec = decay_lq_game(2, BETA, c_Q=0.5, c_G=0.8, sigma=0.3, T=1.0)

    def estimate(dt):
        P = [riccati_integrate(spec, s).P[0] for s in (dt, dt / 2)]
        return np.max(np.abs(P[1] - P[0]))

    e1, e2 = estimate(0.02), estimate(0.005)
    assert e2 < e1
    assert e1 < 1e-6


def test_blowup_detection():
    # scalar q=0: P(t) = gamma/(1 + gamma(T-t)) escapes at T - t = 1/|gamma|
    # for gamma < 0
    spec = scalar_spec(q=0.0, gamma=-2.0, T=1.0)
    traj = riccati_integrate(spec, 0.005)
    assert traj.blown_up
    lo, hi = traj.blowup_bracket
    assert lo <= 0.5 <= hi + 0.1  # escape time T - 1/2
    with pytest.raises(LQError):
        lq_value(traj, 0, 0.6, [0.0])


def test_dt_precondition():
    with pytest.raises(LQError):
        riccati_integrate(scalar_spec(T=1.0), 0.1)


@pytest.mark.parametrize("dt", [0.0, -1.0, -0.005])
def test_non_positive_dt_refused(dt):
    # a negative step once ran a single RK4 step of size T, not blown up
    with pytest.raises(LQError, match="need 0 < dt"):
        riccati_integrate(scalar_spec(T=1.0), dt)


def test_lq_value_evaluation():
    spec = decay_lq_game(2, BETA, c_Q=0.2, c_G=0.4, sigma=0.25, T=0.5)
    traj = riccati_integrate(spec, 0.005)
    # x = 0: value r_i, gradient 0
    u, g = lq_value(traj, 0, 0.1, np.zeros(2))
    assert g == pytest.approx(0.0) if np.isscalar(g) else np.allclose(g, 0.0)
    # t = T reproduces the terminal cost exactly
    x = np.array([0.7, -0.3])
    u, g = lq_value(traj, 1, spec.T, x)
    assert u == pytest.approx(0.5 * x @ spec.Gamma[1] @ x)
    np.testing.assert_allclose(g, spec.Gamma[1] @ x)
    # out of range
    with pytest.raises(LQError):
        lq_value(traj, 0, -0.1, x)
    # vectorized evaluation matches pointwise
    X = np.stack(np.meshgrid(*[np.linspace(-1, 1, 5)] * 2, indexing="ij"))
    U, G = lq_value(traj, 0, 0.2, X)
    u0, g0 = lq_value(traj, 0, 0.2, X[:, 2, 3])
    assert U[2, 3] == pytest.approx(u0)
    np.testing.assert_allclose(G[:, 2, 3], g0)


def test_decay_builder_and_inheritance():
    beta = BETA
    spec = decay_lq_game(4, beta, c_Q=0.2, c_G=0.3, sigma=0.25, T=0.2)
    # entries obey |Q_i^{jk}| <= c_Q (beta^(i-j) ^ sqrt(beta^(i-j) beta^(i-k)))
    # (likewise Gamma with c_G), and the constants are attained
    i, j, k = np.meshgrid(*[np.arange(4)] * 3, indexing="ij")
    bj, bk = beta.value(i - j), beta.value(i - k)
    envelope = np.minimum(bj, np.sqrt(bj * bk))
    for stack, c in ((spec.Q, 0.2), (spec.Gamma, 0.3)):
        assert np.all(np.abs(stack) <= c * envelope + 1e-15)
        assert np.max(np.abs(stack) / envelope) == pytest.approx(c)
    # integrated P_i inherit the decay profile: fitted K_P stable under
    # refinement
    def fitted_K(dt):
        traj = riccati_integrate(spec, dt)
        K = 0.0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    bj = beta.value(i - j)
                    bk = beta.value(i - k)
                    w = min(bj, np.sqrt(bj * bk))
                    K = max(K, np.max(np.abs(traj.P[:, i, j, k])) / w)
        return K

    k1, k2 = fitted_K(0.004), fitted_K(0.002)
    assert abs(k1 - k2) / k2 < 0.01
    assert k2 < 10.0


def test_csv_export():
    spec = decay_lq_game(2, BETA, c_Q=0.2, c_G=0.3, sigma=0.25, T=0.5)
    traj = riccati_integrate(spec, 0.01)
    csv = trajectory_to_csv(traj)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("t,P0_00")
    assert len(lines) == traj.times.size + 1
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(spec.T)
    np.testing.assert_allclose(np.array(last[1:9]).reshape(2, 2, 2)[0],
                               spec.Gamma[0])
