import types
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbflab import env as env_module
from cbflab.channel import (
    ChannelModelConfig,
    ChannelProcess,
    TraceStream,
    generate_trace,
)
from cbflab.env import (
    POWER_RATIO_EPS,
    RATE_SCALE,
    BeamformingEnv,
    PrevSlotInfo,
    _power_feature,
    build_codebook,
    build_state,
    compress_csi,
    compute_reward,
    csi_features,
    decode_action,
    decode_beams,
    orthogonal_measure,
    select_interfered,
    select_interferers,
    state_layout,
)
from cbflab.network import (
    BeamformerSet,
    ChannelState,
    NetworkConfig,
    SlotMetrics,
    compute_metrics,
    sum_rate,
)
from cbflab.solvers import StructuredParams, mslnr_beams, structured_beamformer

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def make_net(n=3, k=2, m1=1, m2=4, **kw):
    kw.setdefault("max_power", 1.0)
    kw.setdefault("noise_power", 0.1)
    return NetworkConfig(
        num_cells=n, users_per_cell=k, array_rows=m1, array_cols=m2, **kw
    )


# -- per-BS oracles -------------------------------------------------------------
#
# The environment's former one-BS-at-a-time code.  The stacked functions must
# reproduce its states, compressions and rewards bit for bit.


@dataclass(frozen=True)
class CompressedCsi:
    index_norm: np.ndarray
    values: np.ndarray
    channel_norm: float


def compress_csi_one(h, codebook, keep):
    h = np.asarray(h)
    norm = np.linalg.norm(h)
    if norm == 0:
        raise ValueError("cannot compress a zero channel")
    d = codebook.conj().T @ h
    order = np.lexsort((np.arange(d.size), -np.abs(d)))[:keep]
    return CompressedCsi(
        index_norm=order / codebook.shape[1], values=d[order], channel_norm=float(norm)
    )


def select_interferers_one(interference, n, k, count):
    num_cells = interference.shape[0]
    if count > num_cells - 1:
        raise ValueError("cannot select more interferers than other cells")
    others = np.array([m for m in range(num_cells) if m != n])
    beta = interference[others, n, k]
    order = np.lexsort((others, -beta))
    return others[order[:count]]


def select_interfered_one(interference, n, count):
    num_cells, _, users = interference.shape
    if count > (num_cells - 1) * users:
        raise ValueError("cannot select more interfered users than exist")
    pairs = np.array(
        [(m, j) for m in range(num_cells) if m != n for j in range(users)]
    )
    beta = interference[n, pairs[:, 0], pairs[:, 1]]
    flat = pairs[:, 0] * users + pairs[:, 1]
    order = np.lexsort((flat, -beta))
    return pairs[order[:count]]


def csi_features_one(comp):
    out = np.empty(3 * comp.values.size)
    out[0::3] = comp.index_norm
    out[1::3] = comp.values.real / comp.channel_norm
    out[2::3] = comp.values.imag / comp.channel_norm
    return out


def build_state_one(n, channel, prev, own_csi, csi_keep, num_interferers):
    """BS n's state; ``prev`` has ``metrics``, ``powers`` and ``own_csi[i][k]``."""
    num_cells, _, users, _ = channel.h.shape
    layout = state_layout(num_cells, users, csi_keep, num_interferers)
    own = channel.h[n, n]

    local = np.zeros(layout["local"])
    pos = 0
    local[pos : pos + users * users] = orthogonal_measure(own).reshape(-1)
    pos += users * users
    for k in range(users):
        local[pos : pos + 3 * csi_keep] = csi_features_one(own_csi[n][k])
        pos += 3 * csi_keep
    if prev is not None:
        m = prev.metrics
        local[pos : pos + users] = _power_feature(prev.powers[n])
        local[pos + users : pos + 2 * users] = m.rate[n] / RATE_SCALE
        local[pos + 2 * users : pos + 3 * users] = _power_feature(
            m.received_power[n]
        )
        local[pos + 3 * users : pos + 4 * users] = _power_feature(m.total_ipn[n])

    in_block = np.zeros(layout["interferers"])
    out_block = np.zeros(layout["interfered"])
    if prev is not None and num_interferers > 0:
        beta = prev.metrics.interference
        width = 1 + 3 * csi_keep * users + users + 1
        pos = 0
        for k in range(users):
            for i in select_interferers_one(beta, n, k, num_interferers):
                rec = in_block[pos : pos + width]
                rec[0] = i / num_cells
                at = 1
                for j in range(users):
                    rec[at : at + 3 * csi_keep] = csi_features_one(prev.own_csi[i][j])
                    at += 3 * csi_keep
                rec[at : at + users] = _power_feature(prev.powers[i])
                rec[at + users] = _power_feature(beta[i, n, k])
                pos += width
        pairs = select_interfered_one(beta, n, users * num_interferers)
        pos = 0
        for m_cell, j in pairs:
            rec = out_block[pos : pos + 4]
            rec[0] = (m_cell * users + j) / (num_cells * users)
            rec[1] = prev.metrics.rate[m_cell, j] / RATE_SCALE
            rec[2] = _power_feature(beta[n, m_cell, j])
            rec[3] = beta[n, m_cell, j] / prev.metrics.total_ipn[m_cell, j]
            pos += 4

    return np.concatenate([local, in_block, out_block])


def compute_reward_one(n, metrics, interfered):
    """(reward, own_sum_rate, penalty) of BS n."""
    own = float(metrics.rate[n].sum())
    penalty = 0.0
    for m, j in interfered:
        remainder = metrics.total_ipn[m, j] - metrics.interference[n, m, j]
        clean_rate = np.log2(1.0 + metrics.received_power[m, j] / remainder)
        penalty += float(clean_rate - metrics.rate[m, j])
    return own - penalty, own, penalty


def own_csi_one(serving, codebook, keep):
    return [[compress_csi_one(h, codebook, keep) for h in cell] for cell in serving]


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def flat_pairs(flat, users):
    """Flat user indices m * K + j as (m, j) rows."""
    return np.stack(np.divmod(flat, users), axis=-1)


# -- codebook / compression ---------------------------------------------------


def test_codebook_column_zero_flat():
    cb = build_codebook(4, 8)
    npt.assert_allclose(cb[:, 0], np.full(4, 0.5))


def test_codebook_columns_unit_norm():
    cb = build_codebook(8, 16)
    npt.assert_allclose(np.linalg.norm(cb, axis=0), 1.0, atol=1e-12)


def test_codebook_square_is_orthogonal():
    cb = build_codebook(8, 8)
    gram = cb.conj().T @ cb
    npt.assert_allclose(gram, np.eye(8), atol=1e-12)


def test_codebook_paper_dimensions():
    cb = build_codebook(64, 128)
    assert cb.shape == (64, 128)
    npt.assert_allclose(np.linalg.norm(cb, axis=0), 1.0, atol=1e-12)


def test_compress_picks_matching_column():
    cb = build_codebook(8, 8)
    h = cb[:, 5].copy()
    index, values, norm = compress_csi(h, cb, 3)
    assert index[0] == 5
    assert values[0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert norm == pytest.approx(1.0)


def test_compress_full_keep_reconstructs():
    rng = np.random.default_rng(0)
    cb = build_codebook(6, 6)
    h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    index, values, _ = compress_csi(h, cb, 6)
    npt.assert_allclose(cb[:, index] @ values, h, atol=1e-10)


def test_compress_magnitudes_non_increasing():
    rng = np.random.default_rng(1)
    cb = build_codebook(8, 16)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    _, values, _ = compress_csi(h, cb, 5)
    mags = np.abs(values)
    assert np.all(np.diff(mags) <= 1e-12)


def test_compress_tie_prefers_lower_index():
    cb = build_codebook(2, 2)
    # h = f0 + f1 has equal-magnitude projections on both columns
    h = cb[:, 0] + cb[:, 1]
    index, _, _ = compress_csi(h, cb, 2)
    assert index[0] < index[1]


def test_compress_rejects_zero():
    cb = build_codebook(4, 4)
    with pytest.raises(ValueError):
        compress_csi(np.zeros(4, dtype=complex), cb, 2)
    stack = np.ones((2, 3, 4), dtype=complex)
    stack[1, 2] = 0.0
    with pytest.raises(ValueError):
        compress_csi(stack, cb, 2)


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
    npt.assert_array_equal(select_interferers(hand_interference(), 2)[0, 0], [2, 4])


def test_select_interferers_tie_by_index():
    beta = np.ones((4, 4, 1))
    npt.assert_array_equal(select_interferers(beta, 3)[1, 0], [0, 2, 3])


def test_select_interferers_excludes_serving():
    beta = hand_interference()
    beta[0, 0, 0] = 100.0
    top = select_interferers(beta, 4)
    for n in range(5):
        assert n not in top[n, 0]


def test_select_interferers_cardinality_error():
    with pytest.raises(ValueError):
        select_interferers(np.zeros((3, 3, 1)), 3)


def test_select_interfered_two_cell_cap():
    beta = np.zeros((2, 2, 2))
    beta[0, 1, 0] = 0.5
    beta[0, 1, 1] = 2.0
    pairs = flat_pairs(select_interfered(beta, 2)[0], 2)
    npt.assert_array_equal(pairs, [[1, 1], [1, 0]])


def test_select_interfered_never_own_cell():
    rng = np.random.default_rng(3)
    beta = rng.uniform(0, 1, (3, 3, 2))
    pairs = flat_pairs(select_interfered(beta, 4), 2)
    for n in range(3):
        assert np.all(pairs[n, :, 0] != n)


def test_select_interfered_hand_order():
    beta = np.zeros((3, 3, 2))
    beta[0, 1, 0] = 1.0
    beta[0, 1, 1] = 4.0
    beta[0, 2, 0] = 2.0
    beta[0, 2, 1] = 2.0  # tie with (2,0) broken by flat index
    pairs = flat_pairs(select_interfered(beta, 4)[0], 2)
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

    local = state_layout(3, 2, 3, 2)["local"]
    prev = env.prev
    base = build_state(env.serving, env.csi, prev, 2)
    npt.assert_array_equal(base, states)

    # Perturbing everything BS 1 sees at slot t leaves every BS's s_in/s_out
    # unchanged.
    h_mut = env.channel.h.copy()
    h_mut[1] *= 1.7
    serving = h_mut[[0, 1, 2], [0, 1, 2]]
    mutated = build_state(serving, csi_features(serving, env.codebook, 3), prev, 2)
    npt.assert_array_equal(base[:, local:], mutated[:, local:])

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
        metrics=bumped, powers=prev.powers, csi=prev.csi, interfered=prev.interfered
    )
    changed = build_state(env.serving, env.csi, prev_mut, 2)
    for n in range(3):
        assert np.any(changed[n, local:] != base[n, local:])


# -- action decoding --------------------------------------------------------------


def test_decode_equal_ratios():
    a = np.full((1, 2 + 1 + 6 + 1), 0.5)
    params = decode_action(a, 3, 2, noise_power=0.1)
    npt.assert_allclose(params.q, 0.5)
    assert params.q[0].sum() == pytest.approx(1.0)


def test_decode_mu_midpoint_is_noise_power():
    a = np.full((1, 10), 0.5)
    params = decode_action(a, 3, 2, noise_power=0.37)
    assert params.mu[0] == pytest.approx(0.37, rel=1e-12)


def test_decode_mu_log_range():
    a = np.full((2, 10), 0.5)
    a[0, -1] = 0.0
    a[1, -1] = 1.0
    noise = 2.0
    params = decode_action(a, 3, 2, noise)
    assert params.mu[0] == pytest.approx(noise * 1e-3, rel=1e-9)
    assert params.mu[1] == pytest.approx(noise * 1e3, rel=1e-9)


def test_decode_equal_power_mapping():
    # Full-power equal split at K=4: p = P_max / 4 per user.
    k, n = 4, 2
    a = np.zeros((1, k + 1 + n * k + 1))
    a[0, :k] = 0.7  # any equal value
    a[0, k] = 1.0
    params = decode_action(a, n, k, noise_power=1e-3)
    powers = 6.3095734448 * params.q_total[0] * params.q[0]
    npt.assert_allclose(powers, 6.3095734448 / 4.0, rtol=1e-12)


def test_decode_box_soundness_random():
    rng = np.random.default_rng(4)
    params = decode_action(rng.uniform(0, 1, (200, 10)), 3, 2, 0.1)
    assert params.alpha.shape == (200, 3, 2)
    assert np.all(params.mu > 0)
    assert np.all(params.alpha >= 0) and np.all(params.alpha <= 1)
    npt.assert_allclose(params.q.sum(axis=1), 1.0)
    assert np.all(params.q > 0)
    assert np.all((0 < params.q_total) & (params.q_total <= 1))


def rayleigh_h(n, k, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, k, m)) + 1j * rng.standard_normal((n, n, k, m))


def test_decode_rejects_out_of_box():
    a = np.full((3, 10), 0.5)
    a[2, 0] = 1.2
    with pytest.raises(ValueError, match="BS 2"):
        decode_action(a, 3, 2, 0.1)
    power = np.array([[0.5, 0.5, 0.5], [0.5, -0.1, 0.5]])
    h = rayleigh_h(3, 2, 4, seed=0)
    with pytest.raises(ValueError, match="BS 1"):
        decode_beams(power, h, make_net(), "mslnr-power")


@PROPERTY
@given(
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    m=st.integers(1, 6),
    noise=st.floats(1e-6, 10.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_power_only_beams_are_max_slnr_with_the_decoded_split(n, k, m, noise, seed, data):
    # A power-only row decodes to alpha = 1, mu = noise power, bit for bit,
    # with the split [q, q_total] the power-only decode has always used.
    stack = data.draw(st.integers(1, n), label="stack")
    rows = np.random.default_rng(seed).uniform(0.0, 1.0, (stack, k + 1))
    rows[rows < 0.05] = 0.0  # exercise the epsilon floors
    net = make_net(n, k, 1, m, noise_power=noise)
    h = rayleigh_h(n, k, m, seed)
    raw_q = rows[:, :k] + POWER_RATIO_EPS
    params = StructuredParams(
        alpha=np.ones((stack, n, k)),
        mu=np.full(stack, noise),
        q=raw_q / raw_q.sum(axis=1, keepdims=True),
        q_total=np.maximum(rows[:, k], POWER_RATIO_EPS),
    )
    want = structured_beamformer(h[:stack], np.arange(stack), params, net.max_power)
    assert_bits_equal(decode_beams(rows, h, net, "mslnr-power"), want)


def test_decode_wrong_length():
    with pytest.raises(ValueError):
        decode_action(np.full((3, 9), 0.5), 3, 2, 0.1)
    with pytest.raises(ValueError):
        decode_action(np.full(10, 0.5), 3, 2, 0.1)  # one row per BS
    # A power-only row is checked at its own width, before it is padded.
    h = rayleigh_h(3, 2, 4, seed=0)
    for bad in (np.full((3, 10), 0.5), np.full(3, 0.5)):
        with pytest.raises(ValueError, match=r"shape \(S, 3\), one row per BS"):
            decode_beams(bad, h, make_net(), "mslnr-power")


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
    rec = compute_reward(metrics, np.array([[1], [0]]))  # BS 0 -> (1, 0)
    assert rec.penalty[0] == pytest.approx(2.0 - np.log2(1.75), rel=1e-12)
    assert rec.penalty[0] == pytest.approx(1.1926450779423959, rel=1e-12)
    assert rec.penalty[1] == 0.0
    npt.assert_array_equal(rec.reward, rec.own_sum_rate - rec.penalty)


def test_reward_zero_interference_no_penalty():
    # A noise power at which the rates are O(1) bit/s/Hz, so a wrong penalty
    # cannot hide below a rounding tolerance.
    net = make_net(noise_power=1e-11)
    trace = generate_trace(net, ChannelModelConfig(rng_seed=0, temporal_corr=0.8), 4)
    env = BeamformingEnv(
        net, TraceStream(trace), codebook_size=16, csi_keep=3, num_interferers=2
    )
    env.reset()
    rng = np.random.default_rng(5)
    _, _, metrics = env.step(rng.uniform(0, 1, (3, env.action_dim)))
    # The same received powers without any interference: only noise remains.
    total_ipn = np.full_like(metrics.received_power, net.noise_power)
    sinr = metrics.received_power / total_ipn
    quiet = SlotMetrics(
        sinr=sinr,
        rate=np.log2(1 + sinr),
        received_power=metrics.received_power,
        interference=np.zeros_like(metrics.interference),
        total_ipn=total_ipn,
    )
    assert 0.5 < np.median(quiet.rate) < 10
    # flat indices m * K + j: BS 0 -> (1, 0), (2, 1); the others likewise
    rec = compute_reward(quiet, np.array([[2, 5], [0, 5], [1, 3]]))
    npt.assert_array_equal(rec.penalty, np.zeros(3))
    npt.assert_array_equal(rec.reward, rec.own_sum_rate)


def test_reward_penalty_nonnegative_sweep():
    net, env = make_env(seed=7, slots=40)
    env.reset()
    rng = np.random.default_rng(6)
    for _ in range(30):
        _, _, _ = env.step(rng.uniform(0, 1, (3, env.action_dim)))
        rec = env.last_reward
        assert np.all(rec.penalty >= -1e-12)
        npt.assert_array_equal(rec.reward, rec.own_sum_rate - rec.penalty)


def test_reward_first_term_matches_metrics():
    net, env = make_env(seed=8)
    env.reset()
    rng = np.random.default_rng(7)
    _, rewards, metrics = env.step(rng.uniform(0, 1, (3, env.action_dim)))
    rec = env.last_reward
    npt.assert_allclose(rec.own_sum_rate, metrics.rate.sum(axis=1))
    npt.assert_array_equal(rewards, rec.reward)


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


@pytest.mark.parametrize("source", ["process", "trace"])
def test_env_restore_stores_and_rebuilds_only_the_current_slot(monkeypatch, source):
    net = make_net()
    model = ChannelModelConfig(rng_seed=10, temporal_corr=0.8)

    def fresh():
        stream = ChannelProcess(net, model)
        if source == "trace":
            stream = TraceStream(generate_trace(net, model, 8))
        return BeamformingEnv(net, stream, codebook_size=16, csi_keep=3, num_interferers=2)

    env = fresh()
    env.reset()
    env.step(np.full((3, env.action_dim), 0.3))
    arrays, meta = env.state_dict()
    assert meta == {"stream": env.stream.state_dict()[1]}
    assert set(arrays) == set(env.stream.state_dict()[0])

    calls = []

    def counted_csi_features(h, *args):
        calls.append(h)
        return csi_features(h, *args)

    def no_selection(*args):
        raise AssertionError("restore selected the interfered users")

    monkeypatch.setattr(env_module, "csi_features", counted_csi_features)
    monkeypatch.setattr(env_module, "select_interfered", no_selection)
    restored = fresh()
    restored.load_state_dict((arrays, meta))
    # One compression: the current slot's serving channels.  The previous
    # slot is not rebuilt: the next step records its own.
    assert len(calls) == 1
    npt.assert_array_equal(calls[0], env.serving)
    npt.assert_array_equal(restored.channel.h, env.channel.h)
    assert restored.channel.slot_index == env.channel.slot_index == 1
    npt.assert_array_equal(restored.csi, env.csi)
    assert restored.prev is None and restored.last_reward is None


# -- stacked slot against the per-BS oracles ---------------------------------------


@PROPERTY
@given(
    n=st.integers(2, 5),
    k=st.integers(1, 4),
    m=st.integers(1, 8),
    codebook_size=st.integers(2, 16),
    levels=st.integers(1, 3),
    tied_csi=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_slot_matches_per_bs_oracles(
    n, k, m, codebook_size, levels, tied_csi, seed, data
):
    keep = data.draw(st.integers(1, codebook_size), label="csi_keep")
    u = data.draw(st.integers(0, n - 1), label="num_interferers")
    rng = np.random.default_rng(seed)
    codebook = build_codebook(m, codebook_size)

    def channels(shape):
        if tied_csi:
            # Sums of two codebook columns: equal projections on a square
            # codebook, so the ranking meets ties.
            cols = rng.integers(0, codebook_size, (*shape, 2))
            return codebook.T[cols].sum(axis=-2) + 1e-3
        return rng.standard_normal((*shape, m)) + 1j * rng.standard_normal((*shape, m))

    h = channels((n, n, k)) * rng.uniform(1e-6, 1.0)
    channel = ChannelState(slot_index=0, h=h)
    serving = h[np.arange(n), np.arange(n)]
    prev_serving = channels((n, k))
    # Interference, signals and powers on a few levels: ties and zeros occur.
    scale = 1e-9
    interference = rng.integers(0, levels + 1, (n, n, k)) * scale
    received = rng.integers(0, levels + 1, (n, k)) * scale
    total_ipn = interference.sum(axis=0) + 0.1 * scale
    sinr = received / total_ipn
    metrics = SlotMetrics(
        sinr=sinr,
        rate=np.log2(1.0 + sinr),
        received_power=received,
        interference=interference,
        total_ipn=total_ipn,
    )
    powers = rng.integers(0, levels + 1, (n, k)) * 0.25

    index, values, norm = compress_csi(serving, codebook, keep)
    for a in range(n):
        for b in range(k):
            comp = compress_csi_one(serving[a, b], codebook, keep)
            assert_bits_equal(index[a, b] / codebook_size, comp.index_norm)
            assert_bits_equal(values[a, b], comp.values)
            assert_bits_equal(norm[a, b], comp.channel_norm)

    top = select_interferers(interference, u)
    interfered = select_interfered(interference, k * u)
    for a in range(n):
        for b in range(k):
            npt.assert_array_equal(top[a, b], select_interferers_one(interference, a, b, u))
        want = select_interfered_one(interference, a, k * u)
        npt.assert_array_equal(flat_pairs(interfered[a], k).reshape(want.shape), want)

    own_csi = own_csi_one(serving, codebook, keep)
    csi = csi_features(serving, codebook, keep)
    prev = PrevSlotInfo(
        metrics=metrics,
        powers=powers,
        csi=csi_features(prev_serving, codebook, keep),
        interfered=interfered,
    )
    prev_one = types.SimpleNamespace(
        metrics=metrics, powers=powers, own_csi=own_csi_one(prev_serving, codebook, keep)
    )
    for stacked, one in ((None, None), (prev, prev_one)):
        got = build_state(serving, csi, stacked, u)
        want = np.stack([build_state_one(a, channel, one, own_csi, keep, u) for a in range(n)])
        assert_bits_equal(got, want)

    rec = compute_reward(metrics, interfered)
    for a in range(n):
        reward, own, penalty = compute_reward_one(
            a, metrics, select_interfered_one(interference, a, k * u)
        )
        assert_bits_equal(rec.reward[a], reward)
        assert_bits_equal(rec.own_sum_rate[a], own)
        assert_bits_equal(rec.penalty[a], penalty)


def test_env_slots_match_per_bs_oracles():
    # The env's own wiring: the states it returns and the rewards it scores
    # are the oracles' on the same channels, metrics and powers.
    net, env = make_env(seed=11, slots=8)
    states = env.reset()
    own_csi = own_csi_one(env.serving, env.codebook, 3)
    want = [build_state_one(a, env.channel, None, own_csi, 3, 2) for a in range(3)]
    assert_bits_equal(states, np.stack(want))
    rng = np.random.default_rng(12)
    for _ in range(5):
        prev_csi = own_csi
        states, rewards, metrics = env.step(rng.uniform(0, 1, (3, env.action_dim)))
        for a in range(3):
            sel = select_interfered_one(metrics.interference, a, 4)
            assert_bits_equal(rewards[a], compute_reward_one(a, metrics, sel)[0])
        own_csi = own_csi_one(env.serving, env.codebook, 3)
        prev = types.SimpleNamespace(
            metrics=metrics, powers=env.prev.powers, own_csi=prev_csi
        )
        want = [build_state_one(a, env.channel, prev, own_csi, 3, 2) for a in range(3)]
        assert_bits_equal(states, np.stack(want))
