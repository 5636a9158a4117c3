import types

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbflab import solvers
from cbflab.channel import ChannelModelConfig, path_loss_db
from cbflab.network import (
    POWER_SLACK,
    BeamformerSet,
    ChannelState,
    NetworkConfig,
    compute_metrics,
    dbm_to_watt,
    sum_rate,
)
from cbflab.solvers import (
    _POWER_TOL,
    StructuredParams,
    WmmseState,
    _eigen_projections,
    _eigen_solve,
    _full_power_init,
    _leakage_matrices,
    _power_multiplier,
    _wmmse_beamformers,
    mrt_beamformer,
    mslnr_beams,
    solve_leakage_system,
    structured_beamformer,
    structured_directions,
    wmmse,
    wmmse_multi_init,
)


def make_net(n, k, m, p_max=1.0, noise=1.0):
    return NetworkConfig(
        num_cells=n,
        users_per_cell=k,
        array_rows=1,
        array_cols=m,
        max_power=p_max,
        noise_power=noise,
    )


def rayleigh_channel(n, k, m, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n, k, m)) + 1j * rng.standard_normal((n, n, k, m))
    return ChannelState(slot_index=0, h=h / np.sqrt(2.0))


def unit_probe(rng, m):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def rayleigh_quotient(w, signal_h, alpha, mu, leakage_channels):
    """Generalized signal-to-weighted-leakage-plus-noise quotient (test oracle).

    Evaluates |signal_h^H w|^2 / (sum_x alpha[x] |h_x^H w|^2 + mu ||w||^2)
    over the given leakage channels (rows of ``leakage_channels``).
    """
    w = np.asarray(w)
    if np.linalg.norm(w) == 0:
        raise ValueError("w must be nonzero")
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    leakage = np.asarray(leakage_channels).reshape(alpha.size, -1)
    num = abs(np.vdot(signal_h, w)) ** 2
    den = float(alpha @ (np.abs(leakage.conj() @ w) ** 2)) + mu * float(
        np.linalg.norm(w) ** 2
    )
    if den == 0.0:
        raise ArithmeticError("quotient denominator is zero (all alpha = 0, mu = 0)")
    return num / den


# Fixed examples and no example database, so every run checks the same cases.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def mslnr_beamformer(local_h, own_cell, noise_power, p_max, power_ratios):
    """Reference per-user max-SLNR beamformers for one BS.

    Maximizes, over unit-norm vectors, the ratio of desired signal power to
    the leakage inflicted on every other user in the network plus noise.
    Computed from scratch per user (explicit leakage sum excluding the served
    user), independently of the structured path it checks.
    """
    if not noise_power > 0:
        raise ValueError("noise_power must be positive")
    power_ratios = np.asarray(power_ratios, dtype=float)
    n, k, m = local_h.shape
    if power_ratios.sum() > 1.0 + POWER_SLACK:
        raise ValueError("power ratios exceed the power budget")
    flat = local_h.reshape(n * k, m)
    beams = np.empty((k, m), dtype=np.complex128)
    for user in range(k):
        own_flat = own_cell * k + user
        a = noise_power * np.eye(m, dtype=np.complex128)
        for x in range(n * k):
            if x != own_flat:
                a += np.outer(flat[x], flat[x].conj())
        direction = np.linalg.solve(a, local_h[own_cell, user])
        direction = direction / np.linalg.norm(direction)
        beams[user] = np.sqrt(p_max * power_ratios[user]) * direction
    return beams


# -- per-BS structured solve (oracle) ---------------------------------------------
#
# The former one-BS-at-a-time path: an einsum leakage matrix and a Cholesky
# solve, falling back to the eigenvalue pseudo-inverse when the shifted
# matrix is not positive definite.


def leakage_matrix_one(local_h, alpha):
    flat_h = local_h.reshape(-1, local_h.shape[-1])
    flat_a = np.asarray(alpha, dtype=float).reshape(-1)
    return np.einsum("x,xi,xl->il", flat_a, flat_h, flat_h.conj())


def cholesky_solve_one(b0, targets, mu):
    m = b0.shape[0]
    shifted = b0 + mu * np.eye(m)
    targets = np.atleast_2d(targets)
    try:
        factor = scipy.linalg.cho_factor(shifted, check_finite=False)
        return scipy.linalg.cho_solve(factor, targets.T, check_finite=False).T
    except scipy.linalg.LinAlgError:
        return _eigen_solve(*_eigen_projections(shifted, targets), 0.0)


def structured_beamformer_one(local_h, own_cell, alpha, mu, q, q_total, p_max):
    solutions = cholesky_solve_one(leakage_matrix_one(local_h, alpha), local_h[own_cell], mu)
    directions = solutions / np.linalg.norm(solutions, axis=1, keepdims=True)
    return np.sqrt(p_max * q_total * q)[:, None] * directions


# -- one BS through the stacked API -------------------------------------------------


def one_bs_params(alpha, mu, q, q_total):
    """StructuredParams of a one-BS stack."""
    return StructuredParams(
        alpha=np.asarray(alpha)[None], mu=[mu], q=np.asarray(q)[None], q_total=[q_total]
    )


def directions_one(local_h, own_cell, alpha, mu):
    """Structured directions (K, M) of one BS, solved as a one-BS stack."""
    return structured_directions(local_h[None], [own_cell], np.asarray(alpha)[None], [mu])[0]


def power_multiplier(b0, targets, p_max, start=0.0):
    """The multipliers the WMMSE update finds, by its eigenbasis and Newton search.

    One (M, M) matrix with (K, M) targets gives a float; a stack (S, M, M)
    with (S, K, M) targets gives an (S,) array.  ``start`` is one start for
    every matrix or one per matrix.  Also returns the search's Newton steps.
    """
    b0 = np.asarray(b0)
    single = b0.ndim == 2
    stack = b0[None] if single else b0
    targets = np.atleast_2d(targets)[None] if single else np.asarray(targets)
    lam, _, proj = _eigen_projections(stack, targets)
    start = np.broadcast_to(np.asarray(start, dtype=float), lam.shape[:1])
    mu, steps = _power_multiplier(np.clip(lam, 0.0, None), proj, p_max, start)
    return (float(mu[0]) if single else mu), steps


def modes_loop(b0, targets, p_max):
    """Clipped eigenvalues and per-mode target energy of one matrix (scalar oracles).

    Returns None where the multiplier is 0: all-zero targets, or targets in
    the range space whose pseudo-inverse power is within the budget.
    """
    b0 = np.asarray(b0)
    if not np.allclose(b0, b0.conj().T, atol=1e-10 * max(1.0, np.abs(b0).max())):
        raise ValueError("leakage matrix must be Hermitian")
    targets = np.atleast_2d(targets)
    lam, q = np.linalg.eigh(b0)
    lam = np.clip(lam, 0.0, None)
    energy = (np.abs(q.conj().T @ targets.T) ** 2).sum(axis=1)  # per-mode

    if energy.sum() == 0.0:
        return None

    cutoff = 1e-12 * lam.max() if lam.max() > 0 else 0.0
    null = lam <= cutoff
    null_energy = energy[null].sum()
    if null_energy <= 1e-20 * energy.sum():
        power0 = float((energy[~null] / lam[~null] ** 2).sum()) if np.any(~null) else 0.0
        if power0 <= p_max:
            return None
    return lam, energy


def newton_mu_loop(b0, targets, p_max, start=0.0, power_tol=1e-8, max_steps=100):
    """Reference multiplier for one matrix: the Newton search as scalar code.

    The lower bound, step, clamp and stop test of ``_power_multiplier``,
    written for one matrix.  Returns the multiplier and its Newton steps.
    """
    modes = modes_loop(b0, targets, p_max)
    if modes is None:
        return 0.0, 0
    lam, energy = modes
    lam = np.where(energy > 0.0, lam, np.inf)
    low = max(float((np.sqrt(energy / p_max) - lam).max()), 0.0)
    mu = max(float(start), low)
    for steps in range(max_steps + 1):
        d = lam + mu
        share = energy / d**2
        power = float(share.sum())
        gap = p_max - power
        if 0.0 <= gap <= power_tol * p_max:
            return mu, steps
        step = -gap / (np.sqrt(power * p_max) + p_max) * power / float((share / d).sum())
        mu = float(max(mu + step, np.nextafter(mu, np.inf) if gap < 0.0 else low))
    raise ArithmeticError("power multiplier search did not converge")


def bisect_mu_loop(b0, targets, p_max, power_tol=1e-8, max_iter=200):
    """Independent multiplier for one matrix: scalar bracket and bisection."""
    modes = modes_loop(b0, targets, p_max)
    if modes is None:
        return 0.0
    lam, energy = modes

    def power(mu):
        return float((energy / (lam + mu) ** 2).sum())

    hi = 1.0
    for _ in range(200):
        if power(hi) <= p_max:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("bisection bracket did not close")
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(max_iter):
        if p_max - power(hi) <= power_tol * p_max:
            break
        mid = 0.5 * (lo + hi)
        if power(mid) > p_max:
            lo = mid
        else:
            hi = mid
    return hi


def mode_power(b0, targets, p_max, mu):
    """Power sum_i e_i / (lam_i + mu)^2 of the solutions, where mu is searched."""
    lam, energy = modes_loop(b0, targets, p_max)
    return float((energy / (lam + mu) ** 2).sum())


def wmmse_loop(channel, net_cfg, stop_eps=1e-4, max_iter=500, w0=None):
    """Reference weighted MMSE with the beamformer update as a per-BS loop.

    Starts from ``w0``, by default each BS's ``mslnr_beamformer`` at equal
    power, and stops on the relative change of the sum rate, as ``wmmse``
    does.  Each BS builds its own leakage matrix, finds its multiplier with
    the scalar ``newton_mu_loop`` from its previous one and solves by
    Cholesky (``cholesky_solve_one``), independently of the stacked update it
    checks.
    """
    h = channel.h
    num_cells, _, users, antennas = h.shape
    p_max = net_cfg.max_power
    noise = net_cfg.noise_power

    if w0 is None:
        ratios = np.full(users, 1.0 / users)
        w0 = [mslnr_beamformer(h[bs], bs, noise, p_max, ratios) for bs in range(num_cells)]
    w = np.array(w0, dtype=complex)
    mu = np.zeros(num_cells)
    u_gen = None
    v_gen = None
    rate_history = []
    iterations = 0
    search_steps = 0
    truncated = False

    idx = np.arange(num_cells)
    while True:
        cross = np.einsum("mnka,mja->mnkj", h.conj(), w)
        denom = (np.abs(cross) ** 2).sum(axis=(0, 3)) + noise  # (N, K)
        if not np.all(denom > 0):
            raise ArithmeticError("receive denominator must stay positive")
        signal = cross[idx, idx][:, np.arange(users), np.arange(users)]
        u = signal / denom
        v = denom / (denom - np.abs(signal) ** 2)
        rate_history.append(float(np.log2(v).sum()))
        if (
            len(rate_history) >= 2
            and abs(rate_history[-1] - rate_history[-2]) < stop_eps * abs(rate_history[-1])
        ):
            break
        if iterations >= max_iter:
            truncated = True
            break

        alpha = v * np.abs(u) ** 2
        scale = u * v
        for bs in range(num_cells):
            b0 = leakage_matrix_one(h[bs], alpha)
            targets = h[bs, bs] * scale[bs][:, None]
            mu[bs], steps = newton_mu_loop(b0, targets, p_max, mu[bs])
            w[bs] = cholesky_solve_one(b0, targets, mu[bs])
            search_steps += steps
        u_gen, v_gen = u, v
        iterations += 1

    if u_gen is None:
        u_gen, v_gen = u, v
    beams = BeamformerSet(w=w)
    state = WmmseState(
        u=u_gen,
        v=v_gen,
        mu=mu.copy(),
        iterations=iterations,
        search_steps=search_steps,
        rate_history=np.asarray(rate_history),
        truncated=truncated,
    )
    return beams, state


# -- wmmse ------------------------------------------------------------------


def random_start(net, seed):
    """Random directions at full power split equally, as ``wmmse_multi_init`` draws."""
    rng = np.random.default_rng(seed)
    return _full_power_init(
        net.num_cells, net.users_per_cell, net.num_antennas, net.max_power, rng
    )


def test_wmmse_single_user_reaches_capacity():
    net = make_net(1, 1, 2)
    h = np.zeros((1, 1, 1, 2), dtype=complex)
    h[0, 0, 0] = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ch = ChannelState(slot_index=0, h=h)
    beams, state = wmmse(ch, net, w0=random_start(net, 3))
    rate = sum_rate(compute_metrics(ch, beams, net))
    assert rate == pytest.approx(1.0, abs=1e-6)  # log2(1 + P*|h|^2/noise) = 1
    # converged to full-power MRT
    assert beams.powers[0, 0] == pytest.approx(1.0, rel=1e-6)
    direction = beams.directions[0, 0]
    assert abs(np.vdot(direction, h[0, 0, 0] / np.linalg.norm(h[0, 0, 0]))) == pytest.approx(
        1.0, abs=1e-9
    )


@pytest.mark.parametrize("seed", range(12))
def test_wmmse_weighted_rate_ascends(seed):
    # Block-coordinate updates never decrease sum(log2 v); slack covers the
    # 1e-8 relative power tolerance of the multiplier search.
    net = make_net(3, 2, 4)
    ch = rayleigh_channel(3, 2, 4, seed)
    _, state = wmmse(ch, net, w0=random_start(net, seed + 1000))
    increments = np.diff(state.rate_history)
    assert increments.min() >= -2e-8


def test_wmmse_power_feasible_each_iteration():
    net = make_net(3, 2, 4)
    ch = rayleigh_channel(3, 2, 4, seed=5)
    for cap in range(1, 6):
        beams, _ = wmmse(ch, net, max_iter=cap, w0=random_start(net, 7))
        per_bs = beams.powers.sum(axis=1)
        assert np.all(per_bs <= net.max_power * (1.0 + 1e-9))


def test_wmmse_final_weights_match_achieved_rates():
    net = make_net(3, 2, 4)
    ch = rayleigh_channel(3, 2, 4, seed=8)
    beams, state = wmmse(ch, net)
    # The last weight refresh scores the returned beamformers as the bench does.
    assert state.rate_history[-1] == sum_rate(compute_metrics(ch, beams, net))


def test_wmmse_truncation_flag():
    net = make_net(3, 2, 4)
    ch = rayleigh_channel(3, 2, 4, seed=1)
    _, state = wmmse(ch, net, stop_eps=1e-12, max_iter=3)
    assert state.truncated
    assert state.iterations == 3


def test_wmmse_orthogonal_two_user_grid_oracle():
    # Orthogonal single-cell channels decouple: WMMSE must match a brute-force
    # power split over MRT beams and keep the beams orthogonal.
    net = make_net(1, 2, 2, p_max=2.0)
    h = np.zeros((1, 1, 2, 2), dtype=complex)
    g1, g2 = 1.3, 0.6
    h[0, 0, 0] = [g1, 0.0]
    h[0, 0, 1] = [0.0, g2]
    ch = ChannelState(slot_index=0, h=h)
    beams, _ = wmmse(ch, net, stop_eps=1e-9, max_iter=2000)

    grid = np.linspace(0.0, 2.0, 20001)
    rates = np.log2(1.0 + grid * g1**2) + np.log2(1.0 + (2.0 - grid) * g2**2)
    oracle = rates.max()
    achieved = sum_rate(compute_metrics(ch, beams, net))
    assert achieved == pytest.approx(oracle, abs=1e-6)
    assert abs(np.vdot(beams.w[0, 0], beams.w[0, 1])) < 1e-8 * net.max_power
    # each user's rate equals its single-user rate at the allocated power
    metrics = compute_metrics(ch, beams, net)
    p = beams.powers[0]
    npt.assert_allclose(
        metrics.rate[0],
        np.log2(1.0 + p * np.array([g1, g2]) ** 2),
        rtol=1e-9,
    )


def test_multi_init_single_matches_wmmse():
    net = make_net(2, 2, 3)
    ch = rayleigh_channel(2, 2, 3, seed=9)
    solo, solo_state = wmmse(ch, net)
    multi, multi_state = wmmse_multi_init(ch, net, num_inits=1, seed=17)
    npt.assert_array_equal(solo.w, multi.w)
    assert multi_state.iterations == solo_state.iterations
    npt.assert_array_equal(multi_state.rate_history, solo_state.rate_history)


def test_multi_init_never_worse():
    net = make_net(2, 2, 3)
    gains = []
    for seed in range(20):
        ch = rayleigh_channel(2, 2, 3, seed=seed)
        one_beams, _ = wmmse_multi_init(ch, net, num_inits=1, seed=5)
        ten_beams, ten_state = wmmse_multi_init(ch, net, num_inits=10, seed=5)
        one = sum_rate(compute_metrics(ch, one_beams, net))
        ten = sum_rate(compute_metrics(ch, ten_beams, net))
        # the state belongs to the kept init: its last rate is the kept rate
        assert ten_state.rate_history[-1] == ten
        assert ten >= one - 1e-12
        gains.append(ten - one)
    assert np.mean(gains) > 0.0


def test_wmmse_counts_multiplier_search_steps():
    net = make_net(3, 2, 4)
    ch = rayleigh_channel(3, 2, 4, seed=2)
    _, state = wmmse(ch, net)
    assert state.iterations > 0
    assert state.search_steps > 0
    _, idle = wmmse(ch, net, max_iter=0)
    assert idle.iterations == 0
    assert idle.search_steps == 0


# -- power multiplier search -----------------------------------------------------


def test_multiplier_closed_form_solution():
    # power(mu) = 4 / (1 + mu)^2 = 1  =>  mu = 1
    b0 = np.eye(2, dtype=complex)
    mu, _ = power_multiplier(b0, np.array([[2.0, 0.0]], dtype=complex), p_max=1.0)
    assert mu == pytest.approx(1.0, rel=1e-6)
    # power(mu) = 4 / (1 + mu)^2 + 1 / (4 + mu)^2 = 1  =>  mu = 1.04056...,
    # from the lower bound (1), from below, from just above and from far above
    b0 = np.diag([1.0, 4.0]).astype(complex)
    targets = np.array([[2.0, 1.0]], dtype=complex)
    for start in (0.0, 1.02, 1.1, 1e6):
        mu, _ = power_multiplier(b0, targets, p_max=1.0, start=start)
        assert 4.0 / (1.0 + mu) ** 2 + 1.0 / (4.0 + mu) ** 2 <= 1.0
        assert mu == pytest.approx(1.0405601566435894, rel=1e-8)


def test_multiplier_zero_targets():
    b0 = np.eye(3, dtype=complex)
    assert power_multiplier(b0, np.zeros((2, 3), dtype=complex), p_max=1.0) == (0.0, 0)


def test_multiplier_unconstrained_feasible():
    b0 = 4.0 * np.eye(2, dtype=complex)
    targets = np.array([[1.0, 0.0]], dtype=complex)
    # pinv power = 1/16 <= 1
    assert power_multiplier(b0, targets, p_max=1.0, start=3.0) == (0.0, 0)


def test_multiplier_power_profile_decreasing_and_met():
    rng = np.random.default_rng(3)
    for trial in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b0 = g @ g.conj().T
        targets = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        p_max = 0.5
        mu, _ = power_multiplier(b0, targets, p_max)
        # independent oracle: direct solves on a mu grid
        def power(m):
            x = np.linalg.solve(b0 + m * np.eye(4), targets.T)
            return float(np.sum(np.abs(x) ** 2))

        grid = np.linspace(mu + 1e-6, mu + 5.0, 30)
        vals = [power(m) for m in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        if mu > 0:
            assert abs(power(mu) - p_max) <= 1e-7 * p_max
            assert power(mu) <= p_max * (1.0 + 1e-9)


def test_multiplier_singular_needs_positive_mu():
    # Rank-deficient leakage with target energy outside the range space:
    # the unconstrained power blows up, so a positive multiplier is needed.
    b0 = np.diag([1.0, 0.0]).astype(complex)
    targets = np.array([[0.0, 1.0]], dtype=complex)
    mu, _ = power_multiplier(b0, targets, p_max=4.0)
    assert mu > 0.0
    x = np.linalg.solve(b0 + mu * np.eye(2), targets[0])
    assert np.sum(np.abs(x) ** 2) <= 4.0 * (1.0 + 1e-9)


def test_multiplier_search_from_zero_skips_modes_without_energy():
    # No mode alone exceeds the budget, so the search starts at mu = 0, where
    # the empty null mode must add nothing rather than 0/0.
    b0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    targets = np.array([[np.sqrt(0.6), np.sqrt(0.6), 0.0]], dtype=complex)
    mu, _ = power_multiplier(b0, targets, p_max=1.0)
    # power(mu) = 1.2 / (1 + mu)^2 = 1
    assert mu == pytest.approx(np.sqrt(1.2) - 1.0, rel=1e-8)
    assert 1.2 / (1.0 + mu) ** 2 <= 1.0


def test_multiplier_search_raises_when_it_cannot_converge(monkeypatch):
    b0 = np.diag([1.0, 4.0]).astype(complex)
    targets = np.array([[2.0, 1.0]], dtype=complex)
    # A NaN target energy never meets the stop test: the step cap ends it.
    with pytest.raises(ArithmeticError, match="did not converge"):
        power_multiplier(b0, np.array([[np.nan, 1.0]], dtype=complex), p_max=1.0)
    assert power_multiplier(b0, targets, p_max=1.0, start=1e6)[1] > 2
    monkeypatch.setattr(solvers, "_NEWTON_ITER", 2)
    with pytest.raises(ArithmeticError, match="did not converge"):
        power_multiplier(b0, targets, p_max=1.0, start=1e6)


def test_solve_leakage_singular_raises_helpfully():
    b0 = np.zeros((1, 2, 2), dtype=complex)
    with pytest.raises(ArithmeticError, match="mu > 0"):
        solve_leakage_system(b0, np.array([[[1.0, 0.0]]], dtype=complex), [0.0])


# -- structured beamformer ----------------------------------------------------


def local_csi(seed, n=2, k=2, m=4):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, k, m)) + 1j * rng.standard_normal((n, k, m))
    return h / np.sqrt(2.0)


def test_structured_zero_alpha_recovers_mrt():
    h = local_csi(0)
    params = one_bs_params(np.zeros((2, 2)), 1.0, [0.5, 0.5], 1.0)
    w = structured_beamformer(h[None], [0], params, p_max=2.0)[0]
    for k in range(2):
        mrt = mrt_beamformer(h[0, k])
        assert abs(np.vdot(w[k] / np.linalg.norm(w[k]), mrt)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_structured_joint_scaling_invariance():
    h = local_csi(1)
    rng = np.random.default_rng(2)
    alpha = rng.uniform(0.0, 1.0, (2, 2))
    a = directions_one(h, 0, alpha, 0.37)
    b = directions_one(h, 0, 7.3 * alpha, 7.3 * 0.37)
    align = np.abs(np.einsum("km,km->k", a.conj(), b))
    npt.assert_allclose(align, 1.0, atol=1e-10)


def test_structured_power_split_identity():
    h = local_csi(3)
    params = one_bs_params(np.full((2, 2), 0.5), 0.8, [0.3, 0.7], 0.6)
    w = structured_beamformer(h[None], [1], params, p_max=5.0)[0]
    total = np.sum(np.abs(w) ** 2)
    assert total == pytest.approx(5.0 * 0.6, rel=1e-9)
    per_user = np.sum(np.abs(w) ** 2, axis=1)
    npt.assert_allclose(per_user, 5.0 * 0.6 * np.array([0.3, 0.7]), rtol=1e-9)


def test_structured_all_ones_matches_direct_matrix_oracle():
    # alpha == 1, mu = noise: must align with the explicit per-user
    # exclusion solve (rank-one update only rescales the direction).
    noise = 0.7
    for seed in range(20):
        h = local_csi(seed)
        own = 0
        dirs = directions_one(h, own, np.ones((2, 2)), noise)
        flat = h.reshape(4, -1)
        for k in range(2):
            a = noise * np.eye(4, dtype=complex)
            for x in range(4):
                if x != own * 2 + k:
                    a += np.outer(flat[x], flat[x].conj())
            oracle = np.linalg.solve(a, h[own, k])
            oracle /= np.linalg.norm(oracle)
            assert abs(np.vdot(dirs[k], oracle)) == pytest.approx(1.0, abs=1e-10)


def test_mslnr_equals_structured_special_case():
    noise = 0.45
    for seed in range(20):
        h = local_csi(seed + 100)
        w_mslnr = mslnr_beamformer(h, 0, noise, p_max=1.0, power_ratios=[0.5, 0.5])
        dirs = directions_one(h, 0, np.ones((2, 2)), noise)
        for k in range(2):
            a = w_mslnr[k] / np.linalg.norm(w_mslnr[k])
            assert abs(np.vdot(a, dirs[k])) == pytest.approx(1.0, abs=1e-10)


def test_own_user_leakage_weight_is_irrelevant():
    h = local_csi(4)
    alpha = np.full((2, 2), 0.3)
    base = directions_one(h, 0, alpha, 0.2)
    bumped = alpha.copy()
    bumped[0, 1] = 17.0  # own user (0, 1) of BS 0
    other = directions_one(h, 0, bumped, 0.2)
    assert abs(np.vdot(base[1], other[1])) == pytest.approx(1.0, abs=1e-10)
    # the change is not a global no-op: user 0's direction does move
    assert abs(np.vdot(base[0], other[0])) < 1.0 - 1e-6


def test_structured_beats_random_probes():
    rng = np.random.default_rng(11)
    for seed in range(5):
        h = local_csi(seed + 50)
        alpha = np.random.default_rng(seed).uniform(0.0, 1.0, (2, 2))
        mu = 0.3
        dirs = directions_one(h, 0, alpha, mu)
        flat = h.reshape(4, -1)
        for k in range(2):
            best = rayleigh_quotient(dirs[k], h[0, k], alpha.reshape(-1), mu, flat)
            for _ in range(1000):
                probe = unit_probe(rng, 4)
                assert (
                    rayleigh_quotient(probe, h[0, k], alpha.reshape(-1), mu, flat)
                    <= best * (1.0 + 1e-9)
                )


def test_mslnr_beats_random_probes_on_slnr():
    rng = np.random.default_rng(12)
    noise = 0.6
    h = local_csi(77)
    params = StructuredParams(
        alpha=np.ones((1, 2, 2)), mu=np.array([noise]), q=np.full((1, 2), 0.5), q_total=[1.0]
    )
    w = structured_beamformer(h[None], [0], params, p_max=1.0)[0]
    flat = h.reshape(4, -1)
    for k in range(2):
        exclude = 0 * 2 + k
        keep = [x for x in range(4) if x != exclude]
        alpha = np.ones(len(keep))
        direction = w[k] / np.linalg.norm(w[k])
        best = rayleigh_quotient(direction, h[0, k], alpha, noise, flat[keep])
        for _ in range(1000):
            probe = unit_probe(rng, 4)
            assert (
                rayleigh_quotient(probe, h[0, k], alpha, noise, flat[keep])
                <= best * (1.0 + 1e-9)
            )


def test_structure_recovery_from_converged_state():
    # 3x2x4 (N*K >= M) and path-loss 3x2x8 (N*K < M, where the solver works
    # in each BS's channel span): the full-space structured directions at
    # the state's alpha and mu are the returned beams' directions.
    rayleigh_net = make_net(3, 2, 4)
    path_loss_net = make_net(3, 2, 8, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0))
    runs = [(rayleigh_channel(3, 2, 4, seed=seed + 300), rayleigh_net) for seed in range(5)]
    runs += [(path_loss_channel(3, 2, 8, seed + 300), path_loss_net) for seed in range(5)]
    for seed, (ch, net) in enumerate(runs):
        beams, state = wmmse(ch, net, w0=random_start(net, seed))
        alpha = np.broadcast_to(state.v * np.abs(state.u) ** 2, (3, 3, 2))
        stacked = structured_directions(ch.h, np.arange(3), alpha, state.mu)
        for bs in range(3):
            dirs = stacked[bs]
            for k in range(2):
                p = beams.powers[bs, k]
                if p <= 1e-12 * net.max_power:
                    continue  # switched-off user: direction undefined
                got = abs(np.vdot(dirs[k], beams.directions[bs, k]))
                assert got >= 1.0 - 1e-8


# -- mrt / quotient ------------------------------------------------------------


def test_mrt_simple_vector():
    w = mrt_beamformer(np.array([3.0, 4.0j]))
    npt.assert_allclose(w, np.array([0.6, 0.8j]))
    assert np.linalg.norm(w) == pytest.approx(1.0)


def test_mrt_collinearity():
    rng = np.random.default_rng(8)
    h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    w = mrt_beamformer(h)
    assert abs(np.vdot(h, w)) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_mrt_rejects_zero():
    with pytest.raises(ValueError):
        mrt_beamformer(np.zeros(3))


def test_quotient_mrt_case():
    h = np.array([1.0 + 1j, 2.0, 0.5j])
    w = h / np.linalg.norm(h)
    val = rayleigh_quotient(w, h, np.zeros(1), 1.0, np.zeros((1, 3)))
    assert val == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)


def test_quotient_scale_invariance():
    rng = np.random.default_rng(10)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    leak = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    alpha = rng.uniform(0.1, 1.0, 3)
    w = unit_probe(rng, 4)
    a = rayleigh_quotient(w, h, alpha, 0.5, leak)
    b = rayleigh_quotient(3.7 * w, h, alpha, 0.5, leak)
    assert a == pytest.approx(b, rel=1e-12)


def test_quotient_zero_denominator():
    with pytest.raises(ArithmeticError):
        rayleigh_quotient(
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
            np.zeros(1),
            0.0,
            np.zeros((1, 2)),
        )


def test_structured_params_validation():
    with pytest.raises(ValueError):
        one_bs_params(np.zeros((1, 1)), 0.0, [1.0], 1.0)
    with pytest.raises(ValueError):
        one_bs_params(np.zeros((1, 1)), 1.0, [0.6, 0.6], 1.0)
    with pytest.raises(ValueError):
        one_bs_params(-np.ones((1, 1)), 1.0, [1.0], 1.0)
    with pytest.raises(ValueError):
        one_bs_params(np.zeros((1, 1)), 1.0, [1.0], 1.5)
    # A stack names its first offending BS.
    good = dict(
        alpha=np.zeros((3, 1, 2)), mu=np.ones(3), q=np.full((3, 2), 0.5), q_total=np.ones(3)
    )
    StructuredParams(**good)
    nan = np.nan
    for key, bs, value in (
        ("mu", 2, 0.0),
        ("q", 1, [0.9, 0.9]),
        ("q_total", 1, 0.0),
        # A NaN fails every check: none lies inside its range.
        ("alpha", 1, [[0.0, nan]]),
        ("mu", 2, nan),
        ("q", 1, [nan, 0.5]),
        ("q_total", 2, nan),
    ):
        bad = {name: np.array(v, dtype=float) for name, v in good.items()}
        bad[key][bs] = value
        with pytest.raises(ValueError, match=f"BS {bs}: "):
            StructuredParams(**bad)
    with pytest.raises(ValueError, match="S,"):
        StructuredParams(**{**good, "mu": np.ones(2)})


def test_wmmse_raises_on_non_positive_denominator():
    ch = rayleigh_channel(2, 2, 3, seed=0)
    net = types.SimpleNamespace(max_power=1.0, noise_power=-1e6)
    # An explicit start: the max-SLNR default would reject the negative noise
    # power (as its mu) before the first weight refresh.
    w0 = _full_power_init(2, 2, 3, net.max_power, np.random.default_rng(0))
    with pytest.raises(ArithmeticError, match="denominator"):
        wmmse(ch, net, w0=w0)


# -- properties -----------------------------------------------------------------


def path_loss_csi(n, k, m, seed):
    """One BS's Rayleigh CSI with log-distance path loss at cell-scale distances.

    Gains span the magnitudes of the 7-cell reference network (users 10 m to
    750 m away), where the -101 dBm noise power is tiny next to the leakage.
    """
    rng = np.random.default_rng(seed)
    distance = rng.uniform(10.0, 750.0, (n, k))
    gain = 10.0 ** (-path_loss_db(distance, ChannelModelConfig()) / 10.0)
    h = rng.standard_normal((n, k, m)) + 1j * rng.standard_normal((n, k, m))
    return h * np.sqrt(gain / 2.0)[..., None]


@PROPERTY
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    mu=st.floats(1e-2, 1e2),
    scale=st.floats(1e-6, 1e6),
)
def test_joint_alpha_mu_scaling_keeps_directions(n, k, m, seed, mu, scale):
    # Every BS of the stack scales its own alpha and mu by its own factor.
    h = rayleigh_channel(n, k, m, seed).h
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 1.0, (n, n, k))
    mus = mu * rng.uniform(0.5, 2.0, n)
    scales = scale * rng.uniform(0.5, 2.0, n)
    cells = np.arange(n)
    base = structured_directions(h, cells, alpha, mus)
    scaled = structured_directions(h, cells, scales[:, None, None] * alpha, scales * mus)
    npt.assert_allclose(np.einsum("skm,skm->sk", base.conj(), scaled), 1.0, atol=1e-9)


@PROPERTY
@given(
    n=st.integers(1, 7),
    k=st.integers(1, 4),
    m=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=7, k=4, m=32, seed=1)
def test_loop_mslnr_equals_structured_at_unit_alpha(n, k, m, seed):
    # mslnr_beams (alpha = 1, mu = noise, all BSs as one stack) against the
    # per-user max-SLNR oracle of each BS.
    ch = path_loss_channel(n, k, m, seed)
    net = make_net(n, k, m, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0))
    w = mslnr_beams(ch, net).w
    for bs in range(n):
        ratios = np.full(k, 1.0 / k)
        oracle = mslnr_beamformer(ch.h[bs], bs, net.noise_power, net.max_power, ratios)
        npt.assert_allclose(
            np.linalg.norm(w[bs], axis=1), np.linalg.norm(oracle, axis=1), rtol=1e-12
        )
        unit = w[bs] / np.linalg.norm(w[bs], axis=1, keepdims=True)
        unit_oracle = oracle / np.linalg.norm(oracle, axis=1, keepdims=True)
        align = np.abs(np.einsum("km,km->k", unit.conj(), unit_oracle))
        npt.assert_allclose(align, 1.0, atol=1e-9)


@PROPERTY
@given(
    slots=st.integers(1, 5),
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    m=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    path_loss=st.booleans(),
)
@example(slots=3, n=7, k=4, m=32, seed=1, path_loss=True)
def test_slot_stacked_mslnr_beams_equal_per_slot_calls(slots, n, k, m, seed, path_loss):
    # One structured solve over every (slot, BS) pair against one call per slot.
    if path_loss:
        draw = path_loss_channel
        net = make_net(n, k, m, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0))
    else:
        draw, net = rayleigh_channel, make_net(n, k, m)
    h = np.stack([draw(n, k, m, seed + t).h for t in range(slots)])
    w = mslnr_beams(ChannelState(slot_index=0, h=h), net).w
    assert w.shape == (slots, n, k, m)
    for t in range(slots):
        assert w[t].tobytes() == mslnr_beams(ChannelState(slot_index=t, h=h[t]), net).w.tobytes()


@PROPERTY
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    m=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    path_loss=st.booleans(),
)
@example(n=7, k=4, m=32, seed=1, path_loss=True)
def test_stacked_structured_beamformer_matches_per_bs_oracle(n, k, m, seed, path_loss):
    # Random parameters over the decode's range: alpha in [0, 1], mu from
    # 1e-3 to 1e3 times the noise power, any power split.
    if path_loss:
        ch = path_loss_channel(n, k, m, seed)
        net = make_net(n, k, m, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0))
    else:
        ch = rayleigh_channel(n, k, m, seed)
        net = make_net(n, k, m)
    rng = np.random.default_rng(seed)
    raw_q = rng.uniform(0.0, 1.0, (n, k)) + 1e-3
    params = StructuredParams(
        alpha=rng.uniform(0.0, 1.0, (n, n, k)),
        mu=net.noise_power * 10.0 ** rng.uniform(-3.0, 3.0, n),
        q=raw_q / raw_q.sum(axis=1, keepdims=True),
        q_total=rng.uniform(1e-3, 1.0, n),
    )
    beams = BeamformerSet(w=structured_beamformer(ch.h, np.arange(n), params, net.max_power))
    oracle = BeamformerSet(
        w=np.stack(
            [
                structured_beamformer_one(
                    ch.h[bs], bs, params.alpha[bs], params.mu[bs], params.q[bs],
                    params.q_total[bs], net.max_power,
                )
                for bs in range(n)
            ]
        )
    )
    rate = sum_rate(compute_metrics(ch, beams, net))
    assert rate == pytest.approx(sum_rate(compute_metrics(ch, oracle, net)), rel=1e-9, abs=0.0)
    npt.assert_allclose(
        beams.powers.sum(axis=1), net.max_power * params.q_total, rtol=1e-12
    )
    beams.check_power(net.max_power)


def multiplier_stack(s, m, k, seed, gain):
    """(S, M, M) leakage matrices of random ranks and (S, K, M) targets.

    Half the rows have targets in the range space, so a stack mixes
    mu == 0 rows, searched rows and all-zero rows.
    """
    rng = np.random.default_rng(seed)
    b0 = np.empty((s, m, m), dtype=complex)
    targets = np.empty((s, k, m), dtype=complex)
    for i in range(s):
        rank = rng.integers(0, m + 1)
        g = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        b0[i] = gain * (g @ g.conj().T)
        if i % 2:
            coef = rng.standard_normal((rank, k)) + 1j * rng.standard_normal((rank, k))
            targets[i] = np.sqrt(gain) * (g @ coef).T
        else:
            targets[i] = np.sqrt(gain) * (
                rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
            )
    return b0, targets


MULTIPLIER_CASES = given(
    s=st.integers(1, 6),
    m=st.integers(1, 8),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    gain=st.floats(1e-12, 1e3),
    p_max=st.floats(1e-3, 1e3),
)


@PROPERTY
@MULTIPLIER_CASES
def test_stacked_bisect_equals_per_matrix_calls(s, m, k, seed, gain, p_max):
    # The stacked search, one matrix through it and the scalar search agree
    # bit for bit, from the lower bound and from per-row warm starts; the
    # bisection ends no nearer the budget than the Newton search.
    b0, targets = multiplier_stack(s, m, k, seed, gain)
    cold, cold_steps = power_multiplier(b0, targets, p_max)
    warm = cold * np.random.default_rng(seed).uniform(0.5, 2.0, s)
    runs = [(np.zeros(s), cold, cold_steps), (warm, *power_multiplier(b0, targets, p_max, warm))]
    for start, stacked, steps in runs:
        assert stacked.shape == (s,)
        total = 0
        for i in range(s):
            single, single_steps = power_multiplier(b0[i], targets[i], p_max, start[i])
            assert isinstance(single, float)
            assert stacked[i] == single
            assert (single, single_steps) == newton_mu_loop(b0[i], targets[i], p_max, start[i])
            total += single_steps
        assert steps == total
    for i in range(s):
        bisected = bisect_mu_loop(b0[i], targets[i], p_max)
        assert (bisected == 0.0) == (cold[i] == 0.0)
        if cold[i] > 0.0:
            power = mode_power(b0[i], targets[i], p_max, cold[i])
            assert mode_power(b0[i], targets[i], p_max, bisected) <= power <= p_max


@PROPERTY
@MULTIPLIER_CASES
def test_multiplier_search_meets_the_budget_from_any_start(s, m, k, seed, gain, p_max):
    # Starts at zero, below the root and above it all end within the
    # power tolerance below the budget, so they agree within that band.
    b0, targets = multiplier_stack(s, m, k, seed, gain)
    root, _ = power_multiplier(b0, targets, p_max)
    searched = np.flatnonzero(root > 0.0)
    ref = [mode_power(b0[i], targets[i], p_max, root[i]) for i in searched]
    for start in (0.0, 0.5 * root, 2.0 * root, 1e6 * root + gain):
        mu, _ = power_multiplier(b0, targets, p_max, start)
        npt.assert_array_equal(mu == 0.0, root == 0.0)
        power = np.array([mode_power(b0[i], targets[i], p_max, mu[i]) for i in searched])
        assert np.all(power <= p_max)
        assert np.all(p_max - power <= _POWER_TOL * p_max)
        npt.assert_allclose(power, ref, rtol=0.0, atol=_POWER_TOL * p_max)


def test_wmmse_step_zero_mu_on_rank_deficient_leakage_matches_fallback():
    # Both BSs leave their third antenna unused: every leakage matrix is
    # singular, the targets lie in its range space and the budget is loose,
    # so mu == 0 and the step is the pseudo-inverse solve.
    h = np.zeros((2, 2, 1, 3), dtype=complex)
    h[0, 0, 0] = [1.0, 0.0, 0.0]
    h[0, 1, 0] = [0.0, 2.0, 0.0]
    h[1, 0, 0] = [0.0, 1.0j, 0.0]
    h[1, 1, 0] = [0.5, 0.25, 0.0]
    alpha = np.array([[1.0], [0.5]])
    scale = np.array([[1.0 + 0.5j], [0.3]])
    w, mu, steps = _wmmse_beamformers(
        h.reshape(2, 2, 3), h[[0, 1], [0, 1]], alpha, scale, 100.0, np.ones(2)
    )
    assert steps == 0
    b0 = _leakage_matrices(h.reshape(2, 2, 3), alpha.reshape(-1))
    targets = h[[0, 1], [0, 1]] * scale[..., None]
    for bs in range(2):
        npt.assert_allclose(b0[bs], leakage_matrix_one(h[bs], alpha), rtol=1e-15)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(b0[bs])
        assert mu[bs] == power_multiplier(b0[bs], targets[bs], 100.0)[0] == 0.0
    npt.assert_array_equal(w, solve_leakage_system(b0, targets, np.zeros(2)))


def span_stack(n, k, m, seed, span):
    """(N, N*K, M) Rayleigh channels of N BSs, the span of each as ``span`` says.

    "full" leaves them generic.  "unused-antenna" zeroes the last antenna of
    every channel, and "parallel" makes each BS's channel to flat user 1 a
    multiple of its channel to flat user 0, so the span has fewer than
    min(M, N*K) dimensions.
    """
    rng = np.random.default_rng(seed)
    shape = (n, n * k, m)
    flat_h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    if span == "unused-antenna":
        flat_h[..., -1] = 0.0
    elif span == "parallel":
        flat_h[:, 1] = (0.5 - 1.5j) * flat_h[:, 0]
    return flat_h


@PROPERTY
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from(["full", "unused-antenna", "parallel"]),
    loose=st.booleans(),
)
@example(n=2, k=2, m=8, seed=1, span="full", loose=False)  # N*K < M
@example(n=2, k=2, m=4, seed=1, span="full", loose=True)  # N*K = M
@example(n=3, k=2, m=4, seed=1, span="full", loose=False)  # N*K > M
@example(n=2, k=2, m=8, seed=2, span="unused-antenna", loose=True)
@example(n=3, k=2, m=4, seed=2, span="parallel", loose=True)
@example(n=7, k=4, m=32, seed=3, span="full", loose=False)
def test_wmmse_update_in_span_coordinates_matches_full_space(n, k, m, seed, span, loose):
    # flat_h^T = U R: the update on the rows of R^T, lifted by U^T, is the
    # full-space update, with the same multipliers.  The budget is twice or
    # half the pseudo-inverse solution's power, so every BS takes mu == 0
    # (the pseudo-inverse branch, in both spaces) or searches for mu > 0.
    if span == "parallel":
        k = max(k, 2)
    flat_h = span_stack(n, k, m, seed, span)
    idx = np.arange(n)
    own = flat_h.reshape(n, n, k, m)[idx, idx]
    rng = np.random.default_rng(seed + 1)
    alpha = rng.uniform(0.1, 2.0, (n, k))
    scale = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    b0 = _leakage_matrices(flat_h, alpha.reshape(-1))
    free = solve_leakage_system(b0, own * scale[..., None], np.zeros(n))
    power = (np.abs(free) ** 2).sum(axis=(1, 2))
    p_max = 2.0 * power.max() if loose else 0.5 * power.min()
    start = np.zeros(n)
    w, mu, _ = _wmmse_beamformers(flat_h, own, alpha, scale, p_max, start)

    basis, coords = np.linalg.qr(flat_h.swapaxes(-1, -2))
    sub_h = coords.swapaxes(-1, -2)
    sub_own = sub_h.reshape(n, n, k, -1)[idx, idx]
    w_sub, mu_sub, _ = _wmmse_beamformers(sub_h, sub_own, alpha, scale, p_max, start)
    assert w_sub.shape == (n, k, min(m, n * k))
    lifted = w_sub @ basis.swapaxes(-1, -2)

    assert np.all(mu == 0.0) == loose and np.all(mu > 0.0) != loose
    npt.assert_array_equal(mu_sub == 0.0, mu == 0.0)
    npt.assert_allclose(mu_sub, mu, rtol=1e-8, atol=0.0)
    error = np.linalg.norm(lifted - w, axis=(1, 2))
    assert np.all(error <= 1e-10 * np.linalg.norm(w, axis=(1, 2)))


# -- stacked wmmse against the loop oracle ---------------------------------------


def path_loss_channel(n, k, m, seed):
    """Network CSI (N, N, K, M), each BS's slice drawn by ``path_loss_csi``."""
    h = np.stack([path_loss_csi(n, k, m, n * seed + bs) for bs in range(n)])
    return ChannelState(slot_index=0, h=h)


def degenerate_channel(n, k, m, seed):
    """Rayleigh network CSI whose every BS spans fewer than min(M, N*K) dimensions.

    No channel uses the last antenna, and user 1 of cell 0 sees every BS
    along a multiple of user 0's channel.
    """
    h = rayleigh_channel(n, k, m, seed).h
    h[..., -1] = 0.0
    h[:, 0, 1] = (0.5 - 1.5j) * h[:, 0, 0]
    return ChannelState(slot_index=0, h=h)


# (channel(seed), network).  At -101 dBm the iteration amplifies rounding: a
# one-ulp change of the channel moves the loop's own rate_history by up to
# 2e-8 relative within a few hundred iterations from a random start, and the
# stacked update, whose rounding differs, drifts from the loop the same way.
# From the max-SLNR start the 7x4x32 runs stop after 3 or 4 iterations, so
# the comparison at 1e-9 runs to the stop rule there too.
ORACLE_CASES = {
    "rayleigh-1x3x3": (lambda s: rayleigh_channel(1, 3, 3, s), make_net(1, 3, 3, noise=0.01)),
    "rayleigh-3x2x4": (lambda s: rayleigh_channel(3, 2, 4, s), make_net(3, 2, 4)),
    "rayleigh-4x3x6": (
        lambda s: rayleigh_channel(4, 3, 6, s),
        make_net(4, 3, 6, p_max=2.0, noise=0.1),
    ),
    "pathloss-7x4x32": (
        lambda s: path_loss_channel(7, 4, 32, s),
        make_net(7, 4, 32, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0)),
    ),
    # N*K = 6 < M = 8, and each BS's channels span only 5 dimensions.
    "degenerate-3x2x8": (
        lambda s: degenerate_channel(3, 2, 8, s),
        make_net(3, 2, 8, noise=0.1),
    ),
    # N*K = 6 > M = 4: the span is the whole antenna space.
    "pathloss-3x2x4": (
        lambda s: path_loss_channel(3, 2, 4, s),
        make_net(3, 2, 4, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0)),
    ),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_wmmse_matches_loop_oracle(case, seed):
    make_channel, net = ORACLE_CASES[case]
    ch = make_channel(seed)
    ref_beams, ref = wmmse_loop(ch, net)
    beams, state = wmmse(ch, net)
    assert state.iterations == ref.iterations
    assert not state.truncated and not ref.truncated
    npt.assert_allclose(state.mu, ref.mu, rtol=1e-8, atol=0.0)
    npt.assert_allclose(state.rate_history, ref.rate_history, rtol=1e-9, atol=0.0)
    rate = sum_rate(compute_metrics(ch, beams, net))
    ref_rate = sum_rate(compute_metrics(ch, ref_beams, net))
    assert rate == pytest.approx(ref_rate, rel=1e-9, abs=0.0)
    assert state.rate_history[-1] == rate


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stacked_wmmse_power_feasible_each_cap(case):
    make_channel, net = ORACLE_CASES[case]
    ch = make_channel(5)
    for cap in range(1, 6):
        beams, _ = wmmse(ch, net, max_iter=cap, w0=random_start(net, 7))
        assert np.all(beams.powers.sum(axis=1) <= net.max_power * (1.0 + 1e-9))


# -- max-SLNR start and relative stop rule ----------------------------------------


@PROPERTY
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    path_loss=st.booleans(),
)
@example(n=7, k=4, m=32, seed=1, path_loss=True)
@example(n=3, k=2, m=1, seed=1, path_loss=True)
def test_wmmse_never_below_mslnr(n, k, m, seed, path_loss):
    # The default start is the max-SLNR beams and no update lowers the sum
    # rate, so WMMSE ends at or above max-SLNR; slack as in the ascent test.
    if path_loss:
        ch = path_loss_channel(n, k, m, seed)
        net = make_net(n, k, m, p_max=dbm_to_watt(38.0), noise=dbm_to_watt(-101.0))
    else:
        ch = rayleigh_channel(n, k, m, seed)
        net = make_net(n, k, m)
    beams, state = wmmse(ch, net)
    start = sum_rate(compute_metrics(ch, mslnr_beams(ch, net), net))
    assert state.rate_history[0] == pytest.approx(start, rel=1e-12)
    assert np.diff(state.rate_history).min(initial=0.0) >= -2e-8
    assert sum_rate(compute_metrics(ch, beams, net)) >= start - 2e-8


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_wmmse_beams_lie_in_each_bs_channel_span(case):
    # From the max-SLNR start and from a random one with components outside
    # every span (the wmmse-nri path), the updates leave no energy outside
    # the span of the BS's channels.  The span's basis comes from an SVD of
    # the unit-norm channels, independently of the solver's QR.
    make_channel, net = ORACLE_CASES[case]
    ch = make_channel(0)
    n, _, k, m = ch.h.shape
    flat = ch.h.reshape(n, n * k, m)
    unit = flat / np.linalg.norm(flat, axis=-1, keepdims=True)
    for w0 in (None, random_start(net, 3)):
        beams, state = wmmse(ch, net, w0=w0)
        assert state.iterations > 0
        for bs in range(n):
            _, sv, vh = np.linalg.svd(unit[bs])
            basis = vh[: np.count_nonzero(sv > 1e-10 * sv[0])].T  # (M, rank)
            w = beams.w[bs].T
            residual = w - basis @ (basis.conj().T @ w)
            norms = np.linalg.norm(w, axis=0)
            assert np.all(np.linalg.norm(residual, axis=0) <= 1e-12 * norms)


def test_wmmse_default_stop_near_long_run():
    make_channel, net = ORACLE_CASES["pathloss-7x4x32"]
    ch = make_channel(0)
    _, state = wmmse(ch, net)
    _, long = wmmse(ch, net, stop_eps=0.0, max_iter=1000)
    assert not state.truncated
    assert long.iterations == 1000
    assert state.rate_history[-1] >= (1.0 - 0.03) * long.rate_history[-1]


def test_wmmse_rejects_start_of_wrong_shape():
    net = make_net(2, 2, 3)
    ch = rayleigh_channel(2, 2, 3, seed=0)
    with pytest.raises(ValueError, match="w0"):
        wmmse(ch, net, w0=random_start(make_net(2, 2, 4), 0))
