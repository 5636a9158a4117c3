import numpy as np
import numpy.testing as npt
import pytest

from cbflab.channel import ChannelModelConfig, TraceStream, generate_trace
from cbflab.env import (
    BeamformingEnv,
    PrevSlotInfo,
    build_codebook,
    build_state,
    compress_csi,
    compute_reward,
    decode_action,
    decode_power_action,
    orthogonal_measure,
    reconstruct_csi,
    select_interfered,
    select_interferers,
    state_layout,
)
from cbflab.network import NetworkConfig, SlotMetrics, compute_metrics, sum_rate
from cbflab.solvers import mslnr_beams


def make_net(n=3, k=2, m1=1, m2=4, **kw):
    kw.setdefault("max_power", 1.0)
    kw.setdefault("noise_power", 0.1)
    return NetworkConfig(
        num_cells=n, users_per_cell=k, array_rows=m1, array_cols=m2, **kw
    )


# -- codebook / compression ---------------------------------------------------


def test_codebook_column_zero_flat():
    cb = build_codebook(4, 8)
    npt.assert_allclose(cb.matrix[:, 0], np.full(4, 0.5))


def test_codebook_columns_unit_norm():
    cb = build_codebook(8, 16)
    npt.assert_allclose(np.linalg.norm(cb.matrix, axis=0), 1.0, atol=1e-12)


def test_codebook_square_is_orthogonal():
    cb = build_codebook(8, 8)
    gram = cb.matrix.conj().T @ cb.matrix
    npt.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_codebook_paper_dimensions():
    cb = build_codebook(64, 128)
    assert cb.matrix.shape == (64, 128)
    npt.assert_allclose(np.linalg.norm(cb.matrix, axis=0), 1.0, atol=1e-12)


def test_compress_picks_matching_column():
    cb = build_codebook(8, 8)
    h = cb.matrix[:, 5].copy()
    comp = compress_csi(h, cb, 3)
    assert comp.index_norm[0] == pytest.approx(5.0 / 8.0)
    assert comp.values[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert comp.channel_norm == pytest.approx(1.0)


def test_compress_full_keep_reconstructs():
    rng = np.random.default_rng(0)
    cb = build_codebook(6, 6)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    comp = compress_csi(h, cb, 6)
    npt.assert_allclose(reconstruct_csi(comp, cb), h, atol=1e-10)


def test_compress_magnitudes_non_increasing():
    rng = np.random.default_rng(1)
    cb = build_codebook(8, 16)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    comp = compress_csi(h, cb, 5)
    mags = np.abs(comp.values)
    assert np.all(np.diff(mags) <= 1e-12)


def test_compress_tie_prefers_lower_index():
    cb = build_codebook(2, 2)
    # h = f0 + f1 has equal-magnitude projections on both columns
    h = cb.matrix[:, 0] + cb.matrix[:, 1]
    comp = compress_csi(h, cb, 2)
    assert comp.index_norm[0] < comp.index_norm[1]


def test_compress_rejects_zero():
    cb = build_codebook(4, 4)
    with pytest.raises(ValueError):
        compress_csi(np.zeros(4, dtype=complex), cb, 2)


# -- orthogonal measure --------------------------------------------------------


def test_orthogonal_channels_measure():
    h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    om = orthogonal_measure(h)
    npt.assert_allclose(om, np.eye(2), atol=1e-12)


def test_collinear_channels_measure():
    h = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex)
    om = orthogonal_measure(h)
    npt.assert_allclose(om, np.ones((2, 2)), atol=1e-12)


def test_orthogonal_measure_symmetric_in_range():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    om = orthogonal_measure(h)
    npt.assert_allclose(om, om.T, atol=1e-12)
    assert np.all(om >= -1e-12) and np.all(om <= 1.0 + 1e-12)
    npt.assert_allclose(np.diag(om), 1.0, atol=1e-12)
    # direct inner-product oracle
    for j in range(4):
        for k in range(4):
            expect = (
                abs(np.vdot(h[j], h[k]))
                / (np.linalg.norm(h[j]) * np.linalg.norm(h[k]))
            ) ** 2
            assert om[j, k] == pytest.approx(expect, rel=1e-12)


# -- selections -----------------------------------------------------------------


def hand_interference():
    # beta[m, n, k] for N=5, K=1
    beta = np.zeros((5, 5, 1))
    beta[2, 0, 0] = 5.0
    beta[3, 0, 0] = 1.0
    beta[4, 0, 0] = 3.0
    return beta


def test_select_interferers_hand_case():
    npt.assert_array_equal(select_interferers(hand_interference(), 0, 0, 2), [2, 4])


def test_select_interferers_tie_by_index():
    beta = np.ones((4, 4, 1))
    npt.assert_array_equal(select_interferers(beta, 1, 0, 3), [0, 2, 3])


def test_select_interferers_excludes_serving():
    beta = hand_interference()
    beta[0, 0, 0] = 100.0
    assert 0 not in select_interferers(beta, 0, 0, 4)


def test_select_interferers_cardinality_error():
    with pytest.raises(ValueError):
        select_interferers(np.zeros((3, 3, 1)), 0, 0, 3)


def test_select_interfered_two_cell_cap():
    beta = np.zeros((2, 2, 2))
    beta[0, 1, 0] = 0.5
    beta[0, 1, 1] = 2.0
    pairs = select_interfered(beta, 0, 2)
    npt.assert_array_equal(pairs, [[1, 1], [1, 0]])


def test_select_interfered_never_own_cell():
    rng = np.random.default_rng(3)
    beta = rng.uniform(0, 1, (3, 3, 2))
    pairs = select_interfered(beta, 1, 4)
    assert np.all(pairs[:, 0] != 1)


def test_select_interfered_hand_order():
    beta = np.zeros((3, 3, 2))
    beta[0, 1, 0] = 1.0
    beta[0, 1, 1] = 4.0
    beta[0, 2, 0] = 2.0
    beta[0, 2, 1] = 2.0  # tie with (2,0) broken by flat index
    pairs = select_interfered(beta, 0, 4)
    npt.assert_array_equal(pairs, [[1, 1], [2, 0], [2, 1], [1, 0]])


# -- state layout ----------------------------------------------------------------


def test_state_layout_frozen_constant():
    # N=7, K=4, M=64, N_c=3, U=4 -> 68 + 672 + 64 = 804 entries
    layout = state_layout(7, 4, 3, 4)
    assert layout["local"] == 68
    assert layout["interferers"] == 672
    assert layout["interfered"] == 64
    assert layout["total"] == 804


def make_env(seed=0, slots=8, **kw):
    net = make_net()
    model = ChannelModelConfig(rng_seed=seed, temporal_corr=0.8)
    trace = generate_trace(net, model, slots)
    defaults = dict(codebook_size=16, csi_keep=3, num_interferers=2)
    defaults.update(kw)
    return net, BeamformingEnv(net, TraceStream(trace), **defaults)


def test_cold_start_state_blocks():
    net, env = make_env()
    states = env.reset()
    layout = state_layout(3, 2, 3, 2)
    assert states.shape == (3, layout["total"])
    k2 = 4
    csi = 3 * 3 * 2
    for n in range(3):
        local = states[n, : layout["local"]]
        # orthogonal measure and own CSI populated, everything else zero
        assert np.any(local[: k2 + csi] != 0.0)
        npt.assert_array_equal(local[k2 + csi :], 0.0)
        npt.assert_array_equal(states[n, layout["local"] :], 0.0)


def test_states_same_length_across_agents_and_slots():
    net, env = make_env()
    states = env.reset()
    lengths = {s.size for s in states}
    rng = np.random.default_rng(0)
    for _ in range(3):
        states, _, _ = env.step(rng.uniform(0, 1, (3, env.action_dim)))
        lengths |= {s.size for s in states}
    assert lengths == {env.state_dim}


def test_state_entries_finite_after_warmup():
    net, env = make_env()
    states = env.reset()
    rng = np.random.default_rng(1)
    for _ in range(4):
        states, _, _ = env.step(rng.uniform(0, 1, (3, env.action_dim)))
    assert np.all(np.isfinite(states))


def test_delay_semantics_cross_cell_blocks():
    # Slot-t states must ignore slot-t cross-cell data and react to slot-(t-1).
    net, env = make_env()
    env.reset()
    rng = np.random.default_rng(2)
    for _ in range(3):
        states, _, _ = env.step(rng.uniform(0, 1, (3, env.action_dim)))

    layout = state_layout(3, 2, 3, 2)
    prev = env.prev
    channel = env.channel
    own_csi = env.own_csi

    base = build_state(0, channel, prev, own_csi, 3, 2)

    # Perturbing current-slot cross-cell channels leaves s_in/s_out unchanged.
    h_mut = channel.h.copy()
    h_mut[1] *= 1.7  # everything BS 1 sees/causes at slot t
    from cbflab.network import ChannelState

    mutated = build_state(
        0, ChannelState(channel.slot_index, h_mut), prev, own_csi, 3, 2
    )
    npt.assert_array_equal(
        base[layout["local"] :], mutated[layout["local"] :]
    )

    # Perturbing previous-slot metrics does change the delayed blocks.
    m = prev.metrics
    bumped = SlotMetrics(
        sinr=m.sinr,
        rate=m.rate * 1.5,
        received_power=m.received_power,
        interference=m.interference * 2.0,
        total_ipn=m.total_ipn,
    )
    prev_mut = PrevSlotInfo(
        metrics=bumped, powers=prev.powers, own_csi=prev.own_csi,
        own_channels=prev.own_channels,
    )
    changed = build_state(0, channel, prev_mut, own_csi, 3, 2)
    assert np.any(changed[layout["local"] :] != base[layout["local"] :])


# -- action decoding --------------------------------------------------------------


def test_decode_equal_ratios():
    a = np.full(2 + 1 + 6 + 1, 0.5)
    params = decode_action(a, 3, 2, noise_power=0.1)
    npt.assert_allclose(params.q, 0.5)
    assert params.q.sum() == pytest.approx(1.0)


def test_decode_mu_midpoint_is_noise_power():
    a = np.full(10, 0.5)
    params = decode_action(a, 3, 2, noise_power=0.37)
    assert params.mu == pytest.approx(0.37, rel=1e-12)


def test_decode_mu_log_range():
    low = np.full(10, 0.5)
    low[-1] = 0.0
    high = np.full(10, 0.5)
    high[-1] = 1.0
    noise = 2.0
    p_lo = decode_action(low, 3, 2, noise)
    p_hi = decode_action(high, 3, 2, noise)
    assert p_lo.mu == pytest.approx(noise * 1e-3, rel=1e-9)
    assert p_hi.mu == pytest.approx(noise * 1e3, rel=1e-9)


def test_decode_equal_power_mapping():
    # Full-power equal split at K=4: p = P_max / 4 per user.
    k, n = 4, 2
    a = np.zeros(k + 1 + n * k + 1)
    a[:k] = 0.7  # any equal value
    a[k] = 1.0
    params = decode_action(a, n, k, noise_power=1e-3)
    powers = 6.3095734448 * params.q_total * params.q
    npt.assert_allclose(powers, 6.3095734448 / 4.0, rtol=1e-12)


def test_decode_box_soundness_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.uniform(0, 1, 10)
        params = decode_action(a, 3, 2, 0.1)
        assert params.mu > 0
        assert np.all(params.alpha >= 0) and np.all(params.alpha <= 1)
        assert params.q.sum() == pytest.approx(1.0)
        assert np.all(params.q > 0)
        assert 0 < params.q_total <= 1


def test_decode_rejects_out_of_box():
    a = np.full(10, 0.5)
    a[0] = 1.2
    with pytest.raises(ValueError):
        decode_action(a, 3, 2, 0.1)
    with pytest.raises(ValueError):
        decode_power_action(np.array([0.5, -0.1, 0.5]), 3, 2, 0.1)


def test_decode_wrong_length():
    with pytest.raises(ValueError):
        decode_action(np.full(9, 0.5), 3, 2, 0.1)


# -- rewards -----------------------------------------------------------------------


def test_reward_pocket_calculator_case():
    # One victim: received 3 W, total interference+noise 4 W of which this BS
    # causes 3 W. Penalty = log2(1 + 3/1) - log2(1 + 3/4) = 2 - log2(1.75).
    sinr = np.array([[0.0], [3.0 / 4.0]])
    metrics = SlotMetrics(
        sinr=sinr,
        rate=np.log2(1.0 + sinr),
        received_power=np.array([[0.0], [3.0]]),
        interference=np.array([[[0.0], [3.0]], [[0.0], [0.0]]]),
        total_ipn=np.array([[1.0], [4.0]]),
    )
    rec = compute_reward(0, metrics, [(1, 0)])
    assert rec.penalty == pytest.approx(2.0 - np.log2(1.75), rel=1e-12)
    assert rec.penalty == pytest.approx(1.1926450779423959, rel=1e-12)
    assert rec.reward == rec.own_sum_rate - rec.penalty


def test_reward_zero_interference_no_penalty():
    net, env = make_env()
    env.reset()
    rng = np.random.default_rng(5)
    _, _, metrics = env.step(rng.uniform(0, 1, (3, env.action_dim)))
    quiet = SlotMetrics(
        sinr=metrics.sinr,
        rate=metrics.rate,
        received_power=metrics.received_power,
        interference=np.zeros_like(metrics.interference),
        total_ipn=metrics.received_power + net.noise_power,
    )
    rec = compute_reward(0, quiet, [(1, 0), (2, 1)])
    assert rec.penalty == pytest.approx(0.0, abs=1e-12)
    assert rec.reward == pytest.approx(rec.own_sum_rate)


def test_reward_penalty_nonnegative_sweep():
    net, env = make_env(seed=7, slots=40)
    env.reset()
    rng = np.random.default_rng(6)
    for _ in range(30):
        _, _, _ = env.step(rng.uniform(0, 1, (3, env.action_dim)))
        for rec in env.last_records:
            assert rec.penalty >= -1e-12
            assert rec.reward == rec.own_sum_rate - rec.penalty


def test_reward_first_term_matches_metrics():
    net, env = make_env(seed=8)
    env.reset()
    rng = np.random.default_rng(7)
    _, rewards, metrics = env.step(rng.uniform(0, 1, (3, env.action_dim)))
    for n, rec in enumerate(env.last_records):
        assert rec.own_sum_rate == pytest.approx(float(metrics.rate[n].sum()))
        assert rewards[n] == rec.reward


# -- environment stepping -------------------------------------------------------------


def test_step_mslnr_equivalent_action_matches_benchmark():
    net, env = make_env(seed=9)
    env.reset()
    channel = env.channel
    k, n = 2, 3
    action = np.empty(env.action_dim)
    action[:k] = 0.5  # equal ratios
    action[k] = 1.0  # full power
    action[k + 1 : k + 1 + n * k] = 1.0  # all leakage weights on
    action[-1] = 0.5  # mu = noise power
    actions = np.tile(action, (3, 1))
    _, _, metrics = env.step(actions)
    ep = compute_metrics(channel, mslnr_beams(channel, net), net)
    assert sum_rate(metrics) == pytest.approx(sum_rate(ep), rel=1e-8)


def test_step_mslnr_power_equal_full_split_matches_benchmark():
    net, env = make_env(seed=9, action_mode="mslnr-power")
    env.reset()
    channel = env.channel
    action = np.array([0.5, 0.5, 1.0])  # equal ratios, full power
    _, _, metrics = env.step(np.tile(action, (3, 1)))
    ep = compute_metrics(channel, mslnr_beams(channel, net), net)
    assert sum_rate(metrics) == pytest.approx(sum_rate(ep), rel=1e-8)


def test_step_frozen_channel_stationary_metrics():
    net = make_net(ue_speed=0.0)
    model = ChannelModelConfig(rng_seed=3, temporal_corr=1.0, model_kind="gauss-markov")
    trace = generate_trace(net, model, 6)
    env = BeamformingEnv(
        net, TraceStream(trace), codebook_size=16, csi_keep=3, num_interferers=2
    )
    env.reset()
    action = np.full((3, env.action_dim), 0.5)
    _, _, m1 = env.step(action)
    _, _, m2 = env.step(action)
    npt.assert_allclose(m1.rate, m2.rate, rtol=1e-12)


def test_step_requires_one_action_per_bs():
    net, env = make_env()
    env.reset()
    with pytest.raises(ValueError):
        env.step(np.full((2, env.action_dim), 0.5))


def test_power_only_mode_dimensions_and_run():
    net, env = make_env(action_mode="mslnr-power")
    assert env.action_dim == 3
    states = env.reset()
    rng = np.random.default_rng(8)
    states, rewards, metrics = env.step(rng.uniform(0, 1, (3, 3)))
    assert states.shape == (3, env.state_dim)
    assert np.all(np.isfinite(rewards))


def test_env_interferer_count_validation():
    net = make_net()
    model = ChannelModelConfig(rng_seed=0)
    trace = generate_trace(net, model, 3)
    with pytest.raises(ValueError):
        BeamformingEnv(
            net, TraceStream(trace), codebook_size=16, csi_keep=3, num_interferers=3
        )


def test_env_checkpoint_round_trip():
    net, env = make_env(seed=10, slots=12)
    states = env.reset()
    rng = np.random.default_rng(9)
    for _ in range(3):
        states, _, _ = env.step(rng.uniform(0, 1, (3, env.action_dim)))
    saved = env.state_dict()
    action = np.full((3, env.action_dim), 0.4)
    ref_states, ref_rewards, _ = env.step(action)

    net2, env2 = make_env(seed=10, slots=12)
    env2.reset()
    env2.load_state_dict(saved)
    got_states, got_rewards, _ = env2.step(action)
    npt.assert_array_equal(ref_states, got_states)
    npt.assert_array_equal(ref_rewards, got_rewards)
