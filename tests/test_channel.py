import types

import numpy as np
import numpy.testing as npt
import pytest

from cbflab import channel
from cbflab.channel import (
    MODEL_KINDS,
    ChannelModelConfig,
    ChannelProcess,
    TraceFormatError,
    TraceStream,
    generate_slot,
    generate_trace,
    hex_grid,
    init_topology,
    jakes_temporal_corr,
    load_trace,
    path_loss_db,
    save_trace,
    ura_steering,
)
from cbflab.network import NetworkConfig


def make_net(n=1, k=1, m1=1, m2=2, **kw):
    return NetworkConfig(
        num_cells=n, users_per_cell=k, array_rows=m1, array_cols=m2, **kw
    )


# -- reference generator ------------------------------------------------------
# The original per-link, per-ray loops.  The vectorized generator must
# reproduce them bit for bit, so that stored traces stay valid.


def _reference_ura_steering(azimuth, elevation, array_rows, array_cols):
    m1 = np.arange(array_rows)[:, None]
    m2 = np.arange(array_cols)[None, :]
    phase = np.pi * (m1 * np.sin(elevation) + m2 * np.cos(elevation) * np.sin(azimuth))
    m = array_rows * array_cols
    return (np.exp(1j * phase) / np.sqrt(m)).reshape(m)


def _reference_marginal_draw(topology, model_cfg, net_cfg, rng):
    n, k = net_cfg.num_cells, net_cfg.users_per_cell
    m1, m2 = net_cfg.array_rows, net_cfg.array_cols
    m = m1 * m2
    spread = np.deg2rad(model_cfg.angular_spread_deg)
    h = np.empty((n, n, k, m), dtype=np.complex128)
    for bs in range(n):
        for cell in range(n):
            for user in range(k):
                offset = topology.ue_positions[cell, user] - topology.bs_positions[bs]
                d = np.linalg.norm(offset)
                pl_lin = 10.0 ** (-path_loss_db(d, model_cfg) / 10.0)
                if model_cfg.model_kind == "geometric-ura":
                    rays = model_cfg.num_rays
                    az_los = np.arctan2(offset[1], offset[0])
                    az = az_los + spread * rng.uniform(-1.0, 1.0, rays)
                    el = spread * rng.uniform(-0.5, 0.5, rays)
                    gains = (
                        rng.standard_normal(rays) + 1j * rng.standard_normal(rays)
                    ) / np.sqrt(2.0)
                    vec = np.zeros(m, dtype=np.complex128)
                    for ray in range(rays):
                        vec += gains[ray] * _reference_ura_steering(az[ray], el[ray], m1, m2)
                    h[bs, cell, user] = np.sqrt(pl_lin * m / rays) * vec
                else:
                    vec = (
                        rng.standard_normal(m) + 1j * rng.standard_normal(m)
                    ) / np.sqrt(2.0)
                    h[bs, cell, user] = np.sqrt(pl_lin) * vec
    return h


# (cells, users, rows, cols, ue_speed m/s, slot_duration s): ref7 at walking
# speed, a small layout whose 50 m steps reflect users at the cell edge, and
# one antenna, where a summed ray axis would be reduced pairwise.
ORACLE_SHAPES = {
    "ref7": (7, 4, 4, 8, 3.0 / 3.6, 0.02),
    "fast-3x2": (3, 2, 2, 3, 100.0, 0.5),
    "one-antenna": (2, 3, 1, 1, 3.0 / 3.6, 0.02),
}
ORACLE_SLOTS = 20


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("shape", sorted(ORACLE_SHAPES))
def test_vectorized_draw_matches_reference_bitwise(kind, shape, monkeypatch):
    n, k, m1, m2, speed, dt = ORACLE_SHAPES[shape]
    net = make_net(n=n, k=k, m1=m1, m2=m2, ue_speed=speed, slot_duration=dt)
    cfg = ChannelModelConfig(model_kind=kind, rng_seed=17)
    fast = generate_trace(net, cfg, ORACLE_SLOTS)
    with monkeypatch.context() as patch:
        patch.setattr(channel, "_marginal_draw", _reference_marginal_draw)
        ref = generate_trace(net, cfg, ORACLE_SLOTS)
    assert fast.h.tobytes() == ref.h.tobytes()
    assert fast.cfg_hash == ref.cfg_hash


def test_oracle_fast_shape_reflects_users():
    n, k, m1, m2, speed, dt = ORACLE_SHAPES["fast-3x2"]
    net = make_net(n=n, k=k, m1=m1, m2=m2, ue_speed=speed, slot_duration=dt)
    proc = ChannelProcess(net, ChannelModelConfig(rng_seed=17))
    headings = proc.topology.ue_headings.copy()
    for _ in range(ORACLE_SLOTS):
        proc.next_slot()
    # A heading changes only by reflection at the cell edge.
    assert np.any(proc.topology.ue_headings != headings)


# -- topology ---------------------------------------------------------------


def test_single_cell_topology():
    topo = init_topology(make_net(), rng_seed=0)
    npt.assert_array_equal(topo.bs_positions, [[0.0, 0.0]])
    assert topo.ue_positions.shape == (1, 1, 2)
    r = np.linalg.norm(topo.ue_positions[0, 0])
    assert 10.0 <= r <= 250.0


def test_seven_cell_ring_distances():
    net = make_net(n=7, cell_radius=250.0)
    topo = init_topology(net, rng_seed=1)
    dists = np.linalg.norm(topo.bs_positions[1:] - topo.bs_positions[0], axis=1)
    npt.assert_allclose(dists, 500.0, rtol=1e-12)


def test_three_cell_equilateral():
    topo = init_topology(make_net(n=3), rng_seed=2)
    p = topo.bs_positions
    sides = [np.linalg.norm(p[i] - p[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    npt.assert_allclose(sides, 500.0, rtol=1e-12)


def test_hex_grid_pairwise_distinct():
    pts = hex_grid(19, 2.0)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    assert np.min(d[~np.eye(19, dtype=bool)]) > 1.0


def test_topology_deterministic():
    net = make_net(n=3, k=4)
    a = init_topology(net, rng_seed=33)
    b = init_topology(net, rng_seed=33)
    npt.assert_array_equal(a.ue_positions, b.ue_positions)
    npt.assert_array_equal(a.ue_headings, b.ue_headings)


def test_users_respect_exclusion_radius():
    net = make_net(n=3, k=16)
    topo = init_topology(net, rng_seed=4)
    for n in range(3):
        r = np.linalg.norm(topo.ue_positions[n] - topo.bs_positions[n], axis=1)
        assert np.all(r >= 10.0) and np.all(r <= 250.0)


# -- array response ---------------------------------------------------------


def test_steering_boresight():
    v = ura_steering(0.0, 0.0, 2, 2)
    npt.assert_allclose(v, np.full(4, 0.5))


def test_steering_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(10):
        az, el = rng.uniform(-np.pi, np.pi, 2)
        assert np.linalg.norm(ura_steering(az, el, 2, 4)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_steering_broadcast_matches_scalar_calls_bitwise():
    rng = np.random.default_rng(3)
    az = rng.uniform(-np.pi, np.pi, (3, 5))
    el = rng.uniform(-0.3, 0.3, (3, 5))
    got = ura_steering(az, el, 3, 4)
    assert got.shape == (3, 5, 12)
    ref = np.stack(
        [
            np.stack([_reference_ura_steering(a, e, 3, 4) for a, e in zip(ra, re)])
            for ra, re in zip(az, el)
        ]
    )
    assert got.tobytes() == ref.tobytes()
    # Elevation broadcasts against a row of azimuths.
    row = ura_steering(az[0], 0.1, 3, 4)
    ref_row = np.stack([_reference_ura_steering(a, 0.1, 3, 4) for a in az[0]])
    assert row.tobytes() == ref_row.tobytes()


def test_steering_hand_expanded_phases():
    # az = pi/2, el = 0: phase = pi * m2, independent of m1.
    v = ura_steering(np.pi / 2.0, 0.0, 2, 2)
    npt.assert_allclose(v, np.array([1.0, -1.0, 1.0, -1.0]) / 2.0, atol=1e-12)


# -- path loss --------------------------------------------------------------


def test_path_loss_reference_point():
    cfg = ChannelModelConfig(pathloss_ref_db=32.4, pathloss_exponent=3.5)
    assert path_loss_db(1.0, cfg) == pytest.approx(32.4)


def test_path_loss_one_decade():
    cfg = ChannelModelConfig(pathloss_ref_db=32.4, pathloss_exponent=3.5)
    assert path_loss_db(10.0, cfg) == pytest.approx(32.4 + 35.0)


def test_path_loss_pocket_calculator():
    cfg = ChannelModelConfig(pathloss_ref_db=32.4, pathloss_exponent=3.5)
    expected = 32.4 + 35.0 * np.log10(250.0)  # = 116.32790030352132 dB
    assert path_loss_db(250.0, cfg) == pytest.approx(116.32790030352132, rel=1e-12)
    assert path_loss_db(250.0, cfg) == pytest.approx(expected, rel=1e-15)


def test_path_loss_clamps_below_reference():
    cfg = ChannelModelConfig(pathloss_ref_db=30.0, pathloss_ref_dist=5.0)
    assert path_loss_db(1.0, cfg) == pytest.approx(30.0)


# -- fading process ---------------------------------------------------------


def _frozen_cfg(**kw):
    return ChannelModelConfig(model_kind="gauss-markov", rng_seed=7, **kw)


def test_frozen_channel_at_full_correlation():
    net = make_net(ue_speed=0.0)
    cfg = _frozen_cfg(temporal_corr=1.0)
    proc = ChannelProcess(net, cfg)
    first = proc.next_slot().h.copy()
    for _ in range(5):
        nxt = proc.next_slot()
    npt.assert_array_equal(nxt.h, first)


def _lag1_correlations(rho, slots=10_000, seed=5):
    net = make_net(m1=1, m2=2, ue_speed=0.0)
    cfg = ChannelModelConfig(model_kind="gauss-markov", temporal_corr=rho, rng_seed=seed)
    proc = ChannelProcess(net, cfg)
    h = np.empty((slots, 2), dtype=complex)
    for t in range(slots):
        h[t] = proc.next_slot().h[0, 0, 0]
    num = np.real(np.sum(h[:-1].conj() * h[1:], axis=0))
    den = np.sqrt(np.sum(np.abs(h[:-1]) ** 2, axis=0) * np.sum(np.abs(h[1:]) ** 2, axis=0))
    return num / den


def test_lag1_correlation_independent_slots():
    corr = _lag1_correlations(0.0)
    npt.assert_allclose(corr, 0.0, atol=0.02)


def test_lag1_correlation_tracks_rho():
    corr = _lag1_correlations(0.8)
    npt.assert_allclose(corr, 0.8, atol=0.02)


def test_marginal_variance_stationary():
    # AR mixing must preserve the marginal second moment (static users), so
    # the long-run mean power matches the analytic slot-1 expectation
    # sum over links of M * pathloss.
    net = make_net(n=2, k=2, m1=2, m2=2, ue_speed=0.0)
    cfg = ChannelModelConfig(
        model_kind="gauss-markov", temporal_corr=0.8, rng_seed=3
    )
    proc = ChannelProcess(net, cfg)
    powers = np.empty(10_000)
    for t in range(10_000):
        powers[t] = np.sum(np.abs(proc.next_slot().h) ** 2)
    topo = proc.topology
    expected = 0.0
    for m in range(2):
        for n in range(2):
            for k in range(2):
                d = np.linalg.norm(topo.ue_positions[n, k] - topo.bs_positions[m])
                expected += 4.0 * 10.0 ** (-path_loss_db(d, cfg) / 10.0)
    assert abs(powers.mean() - expected) / expected < 0.03


def test_determinism_bit_identical():
    net = make_net(n=2, k=2)
    cfg = ChannelModelConfig(rng_seed=13)
    a = generate_trace(net, cfg, 6)
    b = generate_trace(net, cfg, 6)
    npt.assert_array_equal(a.h, b.h)


def test_mobility_step_length():
    net = make_net(ue_speed=3.0 / 3.6, slot_duration=0.02)
    cfg = _frozen_cfg(temporal_corr=0.5)
    proc = ChannelProcess(net, cfg)
    proc.next_slot()
    expected = net.ue_speed * net.slot_duration  # 0.016666... m
    for _ in range(10):
        before = proc.topology.ue_positions[0, 0].copy()
        proc.next_slot()
        after = proc.topology.ue_positions[0, 0]
        # Displacement equals v*T_s whenever the step stays inside the cell.
        assert np.linalg.norm(after - before) == pytest.approx(expected, abs=1e-9)


def test_boundary_reflection_keeps_user_inside():
    net = make_net(ue_speed=500.0, slot_duration=1.0, cell_radius=250.0)
    cfg = _frozen_cfg(temporal_corr=0.5)
    proc = ChannelProcess(net, cfg)
    proc.next_slot()
    for _ in range(20):
        proc.next_slot()
        r = np.linalg.norm(proc.topology.ue_positions[0, 0] - proc.topology.bs_positions[0])
        assert r <= 250.0 + 1e-9


def test_generate_slot_dimension_mismatch():
    net = make_net(n=2, k=1)
    cfg = _frozen_cfg()
    proc = ChannelProcess(net, cfg)
    prev = proc.next_slot()
    other = make_net(n=1, k=1)
    topo = init_topology(other, 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_slot(topo, prev, cfg, other, rng)


def test_jakes_correlation_near_paper_mobility():
    net = make_net()  # 2.6 GHz, 3 km/h, 20 ms
    rho = jakes_temporal_corr(net)
    assert 0.79 < rho < 0.81


# -- trace files ------------------------------------------------------------


def test_trace_round_trip(tmp_path):
    net = make_net(n=2, k=2, m1=1, m2=2)
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), 10)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    back = load_trace(path)
    npt.assert_array_equal(back.h, trace.h)
    assert back.h.dtype == np.complex128
    assert back.h.flags.writeable and back.h.flags.owndata
    assert back.cfg_hash == trace.cfg_hash
    assert back.num_slots == 10


def test_trace_truncation_detected(tmp_path):
    net = make_net()
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), 4)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(TraceFormatError, match="dimension|truncated"):
        load_trace(path)


def test_trace_corruption_detected(tmp_path):
    net = make_net()
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), 4)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="checksum"):
        load_trace(path)


def test_trace_header_payload_mismatch(tmp_path):
    net = make_net()
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), 4)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    blob = bytearray(path.read_bytes())
    # Claim M = 64 in the header while keeping the payload.
    import struct

    struct.pack_into("<Q", blob, 16 + 16, 64)
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="dimension"):
        load_trace(path)


def test_trace_empty_round_trip(tmp_path):
    trace = generate_trace(make_net(), ChannelModelConfig(rng_seed=5), 0)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    assert load_trace(path).h.shape == (0, 1, 1, 1, 2)


def test_trace_short_file_detected(tmp_path):
    path = tmp_path / "trace.bin"
    path.write_bytes(b"CBFLAB")
    with pytest.raises(TraceFormatError, match="shorter than header"):
        load_trace(path)


def test_trace_shrinking_while_read_detected(tmp_path, monkeypatch):
    trace = generate_trace(make_net(), ChannelModelConfig(rng_seed=5), 4)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-20])
    # The size check sees the file as it was before it shrank.
    monkeypatch.setattr(channel.os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
    with pytest.raises(TraceFormatError, match="truncated while reading"):
        load_trace(path)


def test_trace_bad_magic_detected(tmp_path):
    trace = generate_trace(make_net(), ChannelModelConfig(rng_seed=5), 2)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="bad magic"):
        load_trace(path)


def test_process_checkpoint_round_trip():
    net = make_net(n=2, k=2)
    cfg = ChannelModelConfig(rng_seed=21)
    a = ChannelProcess(net, cfg)
    for _ in range(4):
        a.next_slot()
    saved = a.state_dict()
    ref = [a.next_slot().h.copy() for _ in range(3)]
    b = ChannelProcess(net, cfg)
    b.next_slot()
    b.load_state_dict(saved)
    got = [b.next_slot().h.copy() for _ in range(3)]
    for x, y in zip(ref, got):
        npt.assert_array_equal(x, y)


def test_trace_stream_current_is_the_last_slot_read():
    net = make_net(n=2, k=2, m1=1, m2=2)
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), 3)
    stream = TraceStream(trace)
    # Before the first slot there is none: never trace.slot(-1), the last one.
    assert stream.current is None
    for t in range(3):
        slot = stream.next_slot()
        assert stream.current.slot_index == slot.slot_index == t
        npt.assert_array_equal(stream.current.h, slot.h)
    restored = TraceStream(trace)
    restored.load_state_dict(stream.state_dict())
    assert restored.current.slot_index == 2
    restored.load_state_dict(TraceStream(trace).state_dict())
    assert restored.current is None
