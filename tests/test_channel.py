import os
import struct
import tracemalloc
import types
import zlib

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
    generate_trace,
    hex_grid,
    init_topology,
    jakes_temporal_corr,
    load_trace,
    path_loss_db,
    save_trace,
    ura_steering,
)
from cbflab.drl import read_meta
from cbflab.network import NetworkConfig


def make_net(n=1, k=1, m1=1, m2=2, **kw):
    return NetworkConfig(
        num_cells=n, users_per_cell=k, array_rows=m1, array_cols=m2, **kw
    )


# -- reference generator ------------------------------------------------------
# Per-link, per-ray and per-user loops that draw the random stream in the
# order the channel module documents, with scalar-angle steering factors.
# The vectorized generator must reproduce them bit for bit: that pins the
# draw order, the per-link arithmetic and the per-link ray sum, one
# (rows x R) @ (R x cols) product, so a change to any of them shows here as
# a change of trace values.


def _reference_ura_steering(azimuth, elevation, array_rows, array_cols):
    # The vertical ULA response over sqrt(M) and the horizontal one.
    m = array_rows * array_cols
    vertical = np.exp(1j * (np.pi * (np.arange(array_rows) * np.sin(elevation))))
    horizontal = np.exp(
        1j * (np.pi * (np.arange(array_cols) * (np.cos(elevation) * np.sin(azimuth))))
    )
    return vertical / np.sqrt(m), horizontal


def _response(vertical, horizontal):
    # The row-major Kronecker product of the factors: the unit-norm response.
    product = vertical[..., :, None] * horizontal[..., None, :]
    return product.reshape(product.shape[:-2] + (-1,))


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
                    vertical = np.empty((rays, m1), dtype=np.complex128)
                    horizontal = np.empty((rays, m2), dtype=np.complex128)
                    for ray in range(rays):
                        vertical[ray], horizontal[ray] = _reference_ura_steering(
                            az[ray], el[ray], m1, m2
                        )
                    vec = ((gains[:, None] * vertical).T @ horizontal).reshape(m)
                    h[bs, cell, user] = np.sqrt(pl_lin * m / rays) * vec
                else:
                    vec = (
                        rng.standard_normal(m) + 1j * rng.standard_normal(m)
                    ) / np.sqrt(2.0)
                    h[bs, cell, user] = np.sqrt(pl_lin) * vec
    return h


def _reference_advance_positions(topology, net_cfg):
    step = net_cfg.ue_speed * net_cfg.slot_duration
    n, k = topology.ue_positions.shape[:2]
    for cell in range(n):
        center = topology.bs_positions[cell]
        for user in range(k):
            heading = topology.ue_headings[cell, user]
            direction = np.array([np.cos(heading), np.sin(heading)])
            pos = topology.ue_positions[cell, user] + step * direction
            radial = pos - center
            dist = np.linalg.norm(radial)
            if dist > net_cfg.cell_radius:
                normal = radial / dist
                pos = center + normal * (2.0 * net_cfg.cell_radius - dist)
                reflected = direction - 2.0 * np.dot(direction, normal) * normal
                topology.ue_headings[cell, user] = np.arctan2(
                    reflected[1], reflected[0]
                )
            topology.ue_positions[cell, user] = pos


# (cells, users, rows, cols, ue_speed m/s, slot_duration s): ref7 at walking
# speed, a small layout whose 50 m steps reflect users at the cell edge, and
# one antenna, where each link's product is a (1 x R) @ (R x 1) dot product.
ORACLE_SHAPES = {
    "ref7": (7, 4, 4, 8, 3.0 / 3.6, 0.02),
    "fast-3x2": (3, 2, 2, 3, 100.0, 0.5),
    "one-antenna": (2, 3, 1, 1, 3.0 / 3.6, 0.02),
}
ORACLE_SLOTS = 20
# The largest speed the config accepts: one cell diameter (500 m) per slot.
DIAMETER_STEP = (3, 4, 1, 2, 16000.0, 0.03125)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("shape", sorted(ORACLE_SHAPES))
def test_vectorized_draw_matches_reference_bitwise(kind, shape, monkeypatch):
    n, k, m1, m2, speed, dt = ORACLE_SHAPES[shape]
    net = make_net(n=n, k=k, m1=m1, m2=m2, ue_speed=speed, slot_duration=dt)
    cfg = ChannelModelConfig(model_kind=kind, rng_seed=17)
    fast = generate_trace(net, cfg, ORACLE_SLOTS)
    with monkeypatch.context() as patch:
        patch.setattr(channel, "_marginal_draw", _reference_marginal_draw)
        patch.setattr(channel, "_advance_positions", _reference_advance_positions)
        ref = generate_trace(net, cfg, ORACLE_SLOTS)
    assert fast.h.tobytes() == ref.h.tobytes()
    assert fast.cfg_hash == ref.cfg_hash


def _extended_precision_draw(topology, model_cfg, net_cfg, rng):
    # The reference's draws and float64 angles, gains and path loss, with
    # every link's ray sum evaluated in long double from the phases up.
    n, k = net_cfg.num_cells, net_cfg.users_per_cell
    m1, m2 = net_cfg.array_rows, net_cfg.array_cols
    rays = model_cfg.num_rays
    spread = np.deg2rad(model_cfg.angular_spread_deg)
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    rows = np.arange(m1, dtype=ld)[None, :, None]
    cols = np.arange(m2, dtype=ld)[None, None, :]
    h = np.empty((n, n, k, 2, m1 * m2), dtype=ld)
    for bs in range(n):
        for cell in range(n):
            for user in range(k):
                offset = topology.ue_positions[cell, user] - topology.bs_positions[bs]
                pl_lin = 10.0 ** (-path_loss_db(np.linalg.norm(offset), model_cfg) / 10.0)
                az = np.arctan2(offset[1], offset[0]) + spread * rng.uniform(-1.0, 1.0, rays)
                el = spread * rng.uniform(-0.5, 0.5, rays)
                g_re, g_im = (rng.standard_normal(rays) / np.sqrt(2.0) for _ in range(2))
                az, el = az.astype(ld)[:, None, None], el.astype(ld)[:, None, None]
                phase = pi * (rows * np.sin(el) + cols * (np.cos(el) * np.sin(az)))
                phase = phase.reshape(rays, -1)
                g_re, g_im = g_re.astype(ld)[:, None], g_im.astype(ld)[:, None]
                scale = np.sqrt(ld(pl_lin) / rays)  # sqrt(pl * M / R) / sqrt(M)
                re = (g_re * np.cos(phase) - g_im * np.sin(phase)).sum(axis=0)
                im = (g_re * np.sin(phase) + g_im * np.cos(phase)).sum(axis=0)
                h[bs, cell, user] = scale * re, scale * im
    return h


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="needs an extended-precision longdouble"
)
def test_marginal_draw_matches_extended_precision():
    # ref7, four slots of moving users: every link's channel within 1e-14 of
    # the same draws evaluated in long double, relative to its norm.
    n, k, m1, m2, speed, dt = ORACLE_SHAPES["ref7"]
    net = make_net(n=n, k=k, m1=m1, m2=m2, ue_speed=speed, slot_duration=dt)
    cfg = ChannelModelConfig(rng_seed=5)
    topology = init_topology(net, 5)
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    worst = 0.0
    for _ in range(4):
        h = channel._marginal_draw(topology, cfg, net, rng)
        exact = _extended_precision_draw(topology, cfg, net, replay)
        err = np.hypot(
            (h.real - exact[..., 0, :]).astype(float), (h.imag - exact[..., 1, :]).astype(float)
        )
        norm = np.sqrt((exact**2).sum(axis=(-2, -1)).astype(float))
        worst = max(worst, (np.sqrt((err**2).sum(axis=-1)) / norm).max())
        channel._advance_positions(topology, net)
    assert worst <= 1e-14


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_marginal_draw_calls_ura_steering_once_per_slot(kind, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return ura_steering(*args)

    monkeypatch.setattr(channel, "ura_steering", counting)
    n, k, m1, m2, speed, dt = ORACLE_SHAPES["ref7"]
    net = make_net(n=n, k=k, m1=m1, m2=m2, ue_speed=speed, slot_duration=dt)
    generate_trace(net, ChannelModelConfig(model_kind=kind, rng_seed=17), 5)
    assert len(calls) == (5 if kind == "geometric-ura" else 0)


@pytest.mark.parametrize("shape", [*sorted(ORACLE_SHAPES), "diameter-step"])
def test_vectorized_mobility_matches_reference_bitwise(shape):
    n, k, m1, m2, speed, dt = ORACLE_SHAPES.get(shape, DIAMETER_STEP)
    net = make_net(n=n, k=k, m1=m1, m2=m2, ue_speed=speed, slot_duration=dt)
    fast, ref = init_topology(net, 17), init_topology(net, 17)
    reflected = 0
    for _ in range(300):
        before = fast.ue_headings.copy()
        channel._advance_positions(fast, net)
        _reference_advance_positions(ref, net)
        assert fast.ue_positions.tobytes() == ref.ue_positions.tobytes()
        assert fast.ue_headings.tobytes() == ref.ue_headings.tobytes()
        reflected += np.count_nonzero(fast.ue_headings != before)
    # Walking users stay clear of the edge; the fast shapes reflect often.
    assert (reflected > 0) == (speed * dt > 1.0)


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
    v = _response(*ura_steering(0.0, 0.0, 2, 2))
    npt.assert_allclose(v, np.full(4, 0.5))


def test_steering_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(10):
        az, el = rng.uniform(-np.pi, np.pi, 2)
        assert np.linalg.norm(_response(*ura_steering(az, el, 2, 4))) == pytest.approx(
            1.0, abs=1e-12
        )


def test_steering_broadcast_matches_scalar_calls_bitwise():
    rng = np.random.default_rng(3)
    az = rng.uniform(-np.pi, np.pi, (3, 5))
    el = rng.uniform(-0.3, 0.3, (3, 5))
    vertical, horizontal = ura_steering(az, el, 3, 4)
    assert vertical.shape == (3, 5, 3) and horizontal.shape == (3, 5, 4)
    for got, axis in ((vertical, 0), (horizontal, 1)):
        ref = np.stack(
            [
                np.stack([_reference_ura_steering(a, e, 3, 4)[axis] for a, e in zip(ra, re)])
                for ra, re in zip(az, el)
            ]
        )
        assert got.tobytes() == ref.tobytes()
    # One elevation against a row of azimuths: the vertical factor has the
    # elevation's shape, the horizontal one the row's.
    vertical, horizontal = ura_steering(az[0], 0.1, 3, 4)
    assert vertical.tobytes() == _reference_ura_steering(0.0, 0.1, 3, 4)[0].tobytes()
    ref_row = np.stack([_reference_ura_steering(a, 0.1, 3, 4)[1] for a in az[0]])
    assert horizontal.tobytes() == ref_row.tobytes()


def test_steering_hand_expanded_phases():
    # az = pi/2, el = 0: phase = pi * m2, independent of m1.
    v = _response(*ura_steering(np.pi / 2.0, 0.0, 2, 2))
    npt.assert_allclose(v, np.array([1.0, -1.0, 1.0, -1.0]) / 2.0, atol=1e-12)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="needs an extended-precision longdouble"
)
@pytest.mark.parametrize("rows, cols", [(4, 8), (8, 16)])
def test_steering_matches_extended_precision_phase(rows, cols):
    # ref7-like angles: 7x7x4 links around their LOS azimuths, 8 rays each
    # within a 10 degree spread.  Each factor and their Kronecker product,
    # the unit-norm response, against phases evaluated in long double.
    rng = np.random.default_rng(11)
    spread = np.deg2rad(10.0)
    az = rng.uniform(-np.pi, np.pi, (7, 7, 4, 1)) + spread * rng.uniform(-1, 1, (7, 7, 4, 8))
    el = spread * rng.uniform(-0.5, 0.5, (7, 7, 4, 8))
    vertical, horizontal = ura_steering(az, el, rows, cols)
    vertical = vertical * np.sqrt(rows * cols)
    ld = np.longdouble
    az, el = az.astype(ld)[..., None], el.astype(ld)[..., None]
    pi = 4 * np.arctan(ld(1))
    phase_v = pi * (np.arange(rows, dtype=ld) * np.sin(el))
    phase_h = pi * (np.arange(cols, dtype=ld) * (np.cos(el) * np.sin(az)))
    phase = (phase_v[..., :, None] + phase_h[..., None, :]).reshape(az.shape[:-1] + (-1,))

    def err(got, phase):
        re, im = (got.real - np.cos(phase)), (got.imag - np.sin(phase))
        return np.hypot(re.astype(float), im.astype(float)).max()

    assert err(vertical, phase_v) <= 2e-14
    assert err(horizontal, phase_h) <= 2e-14
    assert err(_response(vertical, horizontal), phase) <= 2e-14


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


@pytest.mark.parametrize("seed", range(5))
def test_largest_accepted_speed_keeps_every_user_in_its_cell(seed):
    # A step of exactly the cell diameter (500 m in 1/32 s) is the largest
    # the config accepts; one fold per slot must still hold every user inside.
    net = make_net(n=3, k=4, cell_radius=250.0, slot_duration=0.03125, ue_speed=16000.0)
    assert net.ue_speed * net.slot_duration == 2.0 * net.cell_radius
    topology = init_topology(net, seed)
    for _ in range(300):
        channel._advance_positions(topology, net)
        offsets = topology.ue_positions - topology.bs_positions[:, None, :]
        assert np.linalg.norm(offsets, axis=-1).max() <= net.cell_radius


def test_process_restore_dimension_mismatch():
    cfg = _frozen_cfg()
    proc = ChannelProcess(make_net(n=2, k=1), cfg)
    proc.next_slot()
    before = proc.state_dict()
    # Other cell, user and antenna counts: another channel's fingerprint.
    for other in (make_net(n=1), make_net(n=2, k=2), make_net(n=2, m2=3)):
        saved = ChannelProcess(other, cfg)
        saved.next_slot()
        message = (
            f"its channel has fingerprint {saved.fingerprint:#x}, "
            f"this config's process source {proc.fingerprint:#x}"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            proc.load_state_dict(saved.state_dict())
    # A rejected restore changes nothing.
    after = proc.state_dict()
    assert after[1] == before[1]
    for key, value in before[0].items():
        assert after[0][key].tobytes() == value.tobytes()


@pytest.mark.parametrize("key", ["slot", "rng_state", "fingerprint"])
def test_process_restore_names_a_missing_meta_key(key):
    cfg = _frozen_cfg()
    proc = ChannelProcess(make_net(n=2, k=1), cfg)
    proc.next_slot()
    before = proc.state_dict()
    arrays, meta = before
    with pytest.raises(ValueError, match=f"^stream meta lacks '{key}'$"):
        read_meta({k: v for k, v in meta.items() if k != key}, ChannelProcess.META, "stream ")
    # numpy refuses the rng_state, and the rejected restore changes nothing.
    with pytest.raises(ValueError, match="^rng_state is not a PCG64 state"):
        proc.load_state_dict((arrays, {**meta, "rng_state": '{"bit_generator": "MT19937"}'}))
    after = proc.state_dict()
    assert after[1] == before[1]
    for name, value in before[0].items():
        assert after[0][name].tobytes() == value.tobytes()


def _jakes_argument(net):
    return 2.0 * np.pi * (net.ue_speed * net.carrier_freq / 299792458.0) * net.slot_duration


def test_jakes_correlation_near_paper_mobility():
    net = make_net()  # 2.6 GHz, 3 km/h, 20 ms
    rho = jakes_temporal_corr(net)
    assert 0.79 < rho < 0.81
    # The value scipy.special.j0 gave; every auto-correlated trace depends
    # on it.
    assert _jakes_argument(net) == 0.9081995095123954
    assert rho == 0.8041832556022939


def test_j0_matches_scipy_bitwise():
    from scipy.special import j0 as scipy_j0

    rng = np.random.default_rng(0)
    near_five, below, above = [5.0], 5.0, 5.0
    for _ in range(16):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near_five += [below, above]
    x = np.concatenate(
        [
            np.linspace(0.0, 1e-5, 1001),
            rng.uniform(0.0, 1e-5, 2000),
            [np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0)],
            rng.uniform(1e-5, 5.0, 20000),
            near_five,
            rng.uniform(5.0, 200.0, 20000),
            [200.0, _jakes_argument(make_net())],  # the ref7 argument
        ]
    )
    x = np.concatenate([x, -x])
    ours = np.array([channel.j0(float(v)) for v in x])
    npt.assert_array_equal(ours.view(np.uint64), scipy_j0(x).view(np.uint64))
    for v in (np.nan, np.inf, -np.inf):
        assert np.isnan(channel.j0(v)) and np.isnan(scipy_j0(v))


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


def test_failed_trace_rewrite_keeps_the_earlier_file(tmp_path, break_writes):
    net = make_net(n=2, k=2, m1=1, m2=2)
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), 10)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    before = path.read_bytes()
    break_writes()
    with pytest.raises(OSError, match="disk full"):
        save_trace(generate_trace(net, ChannelModelConfig(rng_seed=6), 12), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["trace.bin"]
    npt.assert_array_equal(load_trace(path).h, trace.h)


def _former_save_trace_bytes(trace):
    # The former writer, kept as the oracle of the file bytes.
    num_slots, n, _, k, m = trace.h.shape
    header = struct.pack("<5Q", n, k, m, num_slots, trace.cfg_hash)
    payload = np.ascontiguousarray(trace.h, dtype="<c16").tobytes()
    body = channel.TRACE_MAGIC + header + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize("n, k, m1, m2, num_slots", [(7, 4, 4, 8, 5), (2, 3, 1, 2, 1)])
def test_save_trace_writes_former_bytes(tmp_path, n, k, m1, m2, num_slots):
    net = make_net(n=n, k=k, m1=m1, m2=m2)
    trace = generate_trace(net, ChannelModelConfig(rng_seed=5), num_slots)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    assert path.read_bytes() == _former_save_trace_bytes(trace)


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


def write_trace_header(path, *header):
    """A trace file of ``header`` alone, with a valid checksum and no payload."""
    body = channel.TRACE_MAGIC + channel._HEADER.pack(*header)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


# Headers whose slots would hold no bytes, so that any slot count fits the file size.
EMPTY_SLOT_HEADERS = [
    pytest.param((0, 2, 2, 2**40, 7), "0 cells, 2 users and 2 antennas", id="2^40-slots"),
    pytest.param((0, 2, 2, 2**64 - 1, 7), "0 cells, 2 users and 2 antennas", id="2^64-1-slots"),
    pytest.param((2, 0, 2, 3, 7), "2 cells, 0 users and 2 antennas", id="no-users"),
    pytest.param((2, 2, 0, 3, 7), "2 cells, 2 users and 0 antennas", id="no-antennas"),
]


@pytest.mark.parametrize("header, counts", EMPTY_SLOT_HEADERS)
def test_trace_header_of_empty_slots_detected(tmp_path, header, counts):
    path = tmp_path / "trace.bin"
    write_trace_header(path, *header)
    with pytest.raises(TraceFormatError, match=f"bad header: {counts}; each count must be >= 1"):
        load_trace(path)


def _saved_trace(tmp_path, num_slots, **net):
    trace = generate_trace(make_net(**net), ChannelModelConfig(rng_seed=5), num_slots)
    path = tmp_path / "trace.bin"
    save_trace(trace, path)
    return trace, path


@pytest.mark.parametrize(
    "start, stop",
    [
        (0, None), (0, 3), (4, 7), (7, None), (9, 10), (3, 3), (8, 20), (12, 15), (-4, -1),
        (0, 0), (5, 2),
    ],
)
def test_trace_range_equals_the_slice_of_a_full_load(tmp_path, start, stop):
    _, path = _saved_trace(tmp_path, 10, n=2, k=2)
    full = load_trace(path)
    part = load_trace(path, start, stop)
    assert part.h.shape == full.h[start:stop].shape
    assert part.h.tobytes() == full.h[start:stop].tobytes()
    assert part.h.dtype == np.complex128 and part.h.flags.owndata
    assert part.cfg_hash == full.cfg_hash


@pytest.mark.parametrize("at", [0, 3, 9])
def test_trace_range_checksums_the_slots_it_skips(tmp_path, at):
    trace, path = _saved_trace(tmp_path, 10, n=2, k=2)
    blob = bytearray(path.read_bytes())
    slot_len = trace.h[0].nbytes
    blob[len(channel.TRACE_MAGIC) + channel._HEADER.size + at * slot_len + 5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceFormatError, match="checksum mismatch"):
        load_trace(path, 4, 7)


def test_trace_range_detects_a_file_shrinking_after_the_range(tmp_path, monkeypatch):
    _, path = _saved_trace(tmp_path, 10, n=2, k=2)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-600])
    monkeypatch.setattr(channel.os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
    with pytest.raises(TraceFormatError, match="truncated while reading"):
        load_trace(path, 0, 2)


def test_trace_range_reads_in_the_memory_of_its_window(tmp_path):
    # Slots of 18 KB, so the reader's fixed cost (its file buffer) lies below one slot.
    trace, path = _saved_trace(tmp_path, 100, n=3, k=4, m1=4, m2=8)
    slot_len = trace.h[0].nbytes
    del trace
    tracemalloc.start()
    try:
        window = load_trace(path, 50, 55)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert window.num_slots == 5
    # The window, one spare slot for the skipped ones, and less than a slot besides.
    assert peak < (5 + 2) * slot_len


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
        assert stream.current is slot
        assert stream.current.slot_index == slot.slot_index == t
        npt.assert_array_equal(stream.current.h, slot.h)
    restored = TraceStream(trace)
    restored.load_state_dict(stream.state_dict())
    assert restored.current.slot_index == 2
    restored.load_state_dict(TraceStream(trace).state_dict())
    assert restored.current is None


def test_a_stream_checks_the_slots_of_a_trace_not_yet_checked(tmp_path):
    net = make_net(n=2, k=2, m1=1, m2=2)
    made = generate_trace(net, ChannelModelConfig(rng_seed=5), 3)
    assert made.checked  # each slot was checked as the process made it
    h = made.h.copy()
    h[1, 0, 0, 0, 0] = np.nan
    path = tmp_path / "nan.trace"
    save_trace(channel.ChannelTrace(cfg_hash=made.cfg_hash, h=h), path)
    loaded = load_trace(path)
    assert not loaded.checked
    stream = TraceStream(loaded)
    stream.next_slot()
    with pytest.raises(ValueError, match="BS 0: channel tensor contains non-finite"):
        stream.next_slot()
