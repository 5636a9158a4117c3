import numpy as np
import numpy.testing as npt
import pytest

from cbflab.channel import ChannelModelConfig, generate_trace
from cbflab.network import (
    BeamformerSet,
    ChannelState,
    NetworkConfig,
    PowerConstraintError,
    SlotMetrics,
    compute_metrics,
    dbm_to_watt,
    sum_rate,
    watt_to_dbm,
)
from cbflab.solvers import mslnr_beams


def make_net(n=2, k=2, m1=1, m2=2, p_max=1.0, noise=1.0):
    return NetworkConfig(
        num_cells=n,
        users_per_cell=k,
        array_rows=m1,
        array_cols=m2,
        max_power=p_max,
        noise_power=noise,
    )


def random_instance(n, k, m, seed, p_max=1.0):
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n, n, k, m)) + 1j * rng.standard_normal((n, n, k, m)))
    h /= np.sqrt(2.0)
    w = rng.standard_normal((n, k, m)) + 1j * rng.standard_normal((n, k, m))
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    w *= np.sqrt(p_max / k)
    return ChannelState(slot_index=0, h=h), BeamformerSet(w=w)


def compute_sinr(channel, beams, cfg, n, k):
    """SINR of user k in cell n, evaluated term by term with scalar loops.

    Kept deliberately loop-based and independent from the vectorized
    compute_metrics path so the two can cross-check each other.
    """
    h = channel.h
    w = beams.w
    num_cells, _, users, _ = h.shape
    if not (0 <= n < num_cells and 0 <= k < users):
        raise IndexError(f"cell/user index ({n}, {k}) out of range")

    signal = abs(np.vdot(h[n, n, k], w[n, k])) ** 2
    intra = 0.0
    for j in range(users):
        if j != k:
            intra += abs(np.vdot(h[n, n, k], w[n, j])) ** 2
    inter = 0.0
    for l in range(num_cells):
        if l == n:
            continue
        for j in range(users):
            inter += abs(np.vdot(h[l, n, k], w[l, j])) ** 2
    return signal / (intra + inter + cfg.noise_power)


def einsum_metrics(channel, beams, cfg):
    """compute_metrics with its cross gains from a three-index einsum.

    An oracle for the batched matrix product that ``compute_metrics`` uses.
    """
    h, w = channel.h, beams.w
    num_cells, _, users, _ = h.shape
    cross_pow = np.abs(np.einsum("mnka,mja->mnkj", h.conj(), w)) ** 2
    idx = np.arange(num_cells)
    received = cross_pow[idx, idx][:, np.arange(users), np.arange(users)]
    interference = cross_pow.sum(axis=3)
    interference[idx, idx] -= received
    total_ipn = interference.sum(axis=0) + cfg.noise_power
    sinr = received / total_ipn
    return SlotMetrics(sinr, np.log2(1.0 + sinr), received, interference, total_ipn)


@pytest.mark.parametrize("seed", [1, 101])
def test_metrics_match_einsum_oracle_at_ref7(seed):
    net = NetworkConfig(num_cells=7, users_per_cell=4, array_rows=4, array_cols=8)
    ch = generate_trace(net, ChannelModelConfig(rng_seed=seed), 1).slot(0)
    _, random_beams = random_instance(7, 4, 32, seed, p_max=net.max_power)
    w = random_beams.w.copy()
    w[3, 1] = 0.0  # a user switched off: zero signal, SINR and rate
    idx = np.arange(7)
    for beams in (mslnr_beams(ch, net), BeamformerSet(w=w)):
        got = compute_metrics(ch, beams, net)
        ref = einsum_metrics(ch, beams, net)
        for name in ("sinr", "rate", "received_power", "total_ipn"):
            npt.assert_allclose(getattr(got, name), getattr(ref, name), rtol=1e-12, atol=0)
        # An intra-cell term is a difference of two received powers: bound its
        # error by the power of all the serving BS's beams at that user.
        reach = ref.interference.copy()
        reach[idx, idx] += ref.received_power
        assert np.all(np.abs(got.interference - ref.interference) <= 1e-12 * reach)


def test_single_link_unit_quantities():
    cfg = make_net(n=1, k=1, m1=1, m2=1)
    ch = ChannelState(slot_index=0, h=np.ones((1, 1, 1, 1), dtype=complex))
    beams = BeamformerSet(w=np.ones((1, 1, 1), dtype=complex))
    assert compute_sinr(ch, beams, cfg, 0, 0) == pytest.approx(1.0)
    assert compute_metrics(ch, beams, cfg).sinr[0, 0] == pytest.approx(1.0)


def test_zero_beamformer_gives_zero_sinr():
    cfg = make_net(n=1, k=1, m1=1, m2=2)
    ch = ChannelState(slot_index=0, h=np.ones((1, 1, 1, 2), dtype=complex))
    beams = BeamformerSet(w=np.zeros((1, 1, 2), dtype=complex))
    assert compute_sinr(ch, beams, cfg, 0, 0) == 0.0
    assert compute_metrics(ch, beams, cfg).sinr[0, 0] == 0.0


def test_sinr_matches_scalar_oracle():
    cfg = make_net(n=2, k=2, m1=1, m2=2)
    ch, beams = random_instance(2, 2, 2, seed=42)
    sinr = compute_metrics(ch, beams, cfg).sinr
    for n in range(2):
        for k in range(2):
            assert sinr[n, k] == pytest.approx(compute_sinr(ch, beams, cfg, n, k), rel=1e-12)


def test_sinr_invalid_index_raises():
    cfg = make_net()
    ch, beams = random_instance(2, 2, 2, seed=0)
    with pytest.raises(IndexError):
        compute_sinr(ch, beams, cfg, 5, 0)


def test_metrics_no_cross_links():
    cfg = make_net(n=2, k=2, m1=1, m2=2)
    ch, beams = random_instance(2, 2, 2, seed=1)
    h = ch.h.copy()
    for m in range(2):
        for n in range(2):
            if m != n:
                h[m, n] = 0.0
    metrics = compute_metrics(ChannelState(slot_index=0, h=h), beams, cfg)
    for m in range(2):
        for n in range(2):
            if m != n:
                npt.assert_allclose(metrics.interference[m, n], 0.0)


def test_metrics_single_user_no_intra():
    cfg = make_net(n=2, k=1, m1=1, m2=2)
    ch, beams = random_instance(2, 1, 2, seed=2)
    metrics = compute_metrics(ch, beams, cfg)
    npt.assert_allclose(metrics.interference[0, 0], 0.0, atol=1e-15)
    npt.assert_allclose(metrics.interference[1, 1], 0.0, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_metrics_identities_three_cells(seed):
    cfg = make_net(n=3, k=2, m1=1, m2=2)
    ch, beams = random_instance(3, 2, 2, seed=seed)
    metrics = compute_metrics(ch, beams, cfg)
    total = metrics.interference.sum(axis=0) + cfg.noise_power
    npt.assert_allclose(metrics.total_ipn, total, rtol=1e-12)
    npt.assert_allclose(metrics.rate, np.log2(1.0 + metrics.sinr), rtol=1e-12)


def test_metrics_consistency_bulk():
    cfg = make_net(n=3, k=2, m1=1, m2=2)
    for seed in range(100):
        ch, beams = random_instance(3, 2, 2, seed=seed)
        metrics = compute_metrics(ch, beams, cfg)
        npt.assert_allclose(
            metrics.total_ipn,
            metrics.interference.sum(axis=0) + cfg.noise_power,
            rtol=1e-12,
        )
        npt.assert_allclose(metrics.rate, np.log2(1.0 + metrics.sinr), rtol=1e-12)
        # cross-check one random link against the scalar path
        rng = np.random.default_rng(seed)
        n, k = rng.integers(3), rng.integers(2)
        assert compute_sinr(ch, beams, cfg, n, k) == pytest.approx(
            metrics.sinr[n, k], rel=1e-10
        )


def test_sinr_scale_covariance():
    cfg = make_net(n=2, k=2, m1=1, m2=2)
    ch, beams = random_instance(2, 2, 2, seed=7)
    base = compute_metrics(ch, beams, cfg)
    c = 0.5
    scaled = BeamformerSet(w=c * beams.w)
    got = compute_metrics(ch, scaled, cfg)
    expect = (c**2 * base.received_power) / (
        c**2 * base.interference.sum(axis=0) + cfg.noise_power
    )
    npt.assert_allclose(got.sinr, expect, rtol=1e-12)
    assert not np.allclose(got.sinr, base.sinr)


def test_power_constraint_violation_names_bs():
    cfg = make_net(n=2, k=2, m1=1, m2=2, p_max=0.1)
    ch, beams = random_instance(2, 2, 2, seed=3)  # transmits 1.0 per BS
    with pytest.raises(PowerConstraintError, match="BS 0"):
        compute_metrics(ch, beams, cfg)


def test_sum_rate_zero_and_unit():
    cfg = make_net(n=2, k=2, m1=1, m2=1)
    metrics = compute_metrics(
        ChannelState(slot_index=0, h=np.ones((2, 2, 2, 1), dtype=complex)),
        BeamformerSet(w=np.zeros((2, 2, 1), dtype=complex)),
        cfg,
    )
    assert sum_rate(metrics) == 0.0
    # all gamma = 1 -> one bit per user
    fake = metrics.__class__(
        sinr=np.ones((2, 2)),
        rate=np.log2(1.0 + np.ones((2, 2))),
        received_power=np.ones((2, 2)),
        interference=np.zeros((2, 2, 2)),
        total_ipn=np.ones((2, 2)),
    )
    assert sum_rate(fake) == pytest.approx(4.0)


def test_sum_rate_matches_scalar_reevaluation():
    cfg = make_net(n=3, k=2, m1=1, m2=2)
    ch, beams = random_instance(3, 2, 2, seed=11)
    metrics = compute_metrics(ch, beams, cfg)
    expected = sum(
        np.log2(1.0 + compute_sinr(ch, beams, cfg, n, k))
        for n in range(3)
        for k in range(2)
    )
    assert sum_rate(metrics) == pytest.approx(expected, rel=1e-12)


def test_dbm_conversions():
    assert dbm_to_watt(38.0) == pytest.approx(6.309573444801933, rel=1e-12)
    assert dbm_to_watt(-101.0) == pytest.approx(7.943282347242789e-14, rel=1e-12)
    assert watt_to_dbm(dbm_to_watt(17.3)) == pytest.approx(17.3, rel=1e-12)


def test_channel_state_validation():
    with pytest.raises(ValueError):
        ChannelState(slot_index=0, h=np.zeros((2, 2, 1, 2), dtype=complex))
    bad = np.ones((2, 2, 1, 2), dtype=complex)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ChannelState(slot_index=0, h=bad)


def test_mobility_step_bounded_by_cell_diameter():
    dims = dict(num_cells=1, users_per_cell=1, array_rows=1, array_cols=1)
    largest = NetworkConfig(**dims, cell_radius=250.0, slot_duration=0.03125, ue_speed=16000.0)
    assert largest.ue_speed * largest.slot_duration == 500.0
    too_fast = np.nextafter(16000.0, np.inf)
    with pytest.raises(ValueError, match="ue_speed must not move a user farther than"):
        NetworkConfig(**dims, cell_radius=250.0, slot_duration=0.03125, ue_speed=too_fast)
