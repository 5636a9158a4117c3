"""Temporally correlated block-fading channels on a hexagonal cell layout.

This is a desk-scale substitute for ray-traced urban-macro channels: it keeps
the two properties the learning machinery depends on -- temporal correlation
between slots and spatial structure across the array -- without a ray-tracing
engine.  Fading follows a first-order Gauss-Markov recursion

    h(t) = rho_c * h(t-1) + sqrt(1 - rho_c^2) * e(t)

where e(t) is a fresh draw from the slot-marginal distribution: either a
path-loss-scaled complex Gaussian or a sum of uniform-rectangular-array rays
with random angles and gains.  Users advance along straight tracks with
specular reflection at the cell edge.

Random stream.  A ``ChannelProcess`` draws from one ``numpy`` Generator
seeded with ``rng_seed``.  Each slot visits the links in C order of
(bs, cell, user) and draws, per link:

* geometric-ura: R uniforms in [-1, 1) for the azimuth offsets, R uniforms in
  [-0.5, 0.5) for the elevations, then R standard normals for the real and R
  for the imaginary parts of the ray gains;
* gauss-markov and iid-rayleigh: M standard normals for the real and M for
  the imaginary parts of the coefficients.

Everything computed from the draws is vectorized over links and rays with
the same floating-point operations, in the same order, as a per-link loop.
So traces, checkpoints and ``config_fingerprint`` are unchanged from the
first (``TRACE_MAGIC`` version 1) generator, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .network import ChannelState, NetworkConfig

logger = logging.getLogger(__name__)

MODEL_KINDS = ("iid-rayleigh", "gauss-markov", "geometric-ura")

# Users are dropped uniformly in the cell disc outside this radius around
# their BS, so the first slot never starts on top of an antenna mast.
BS_EXCLUSION_RADIUS = 10.0

TRACE_MAGIC = b"CBFLAB-TRACE\x00\x00\x00\x01"
_HEADER = struct.Struct("<5Q")


class TraceFormatError(ValueError):
    """Raised when a channel-trace file fails an integrity check."""


@dataclass(frozen=True)
class ChannelModelConfig:
    """Knobs of the substitute fading model.

    ``temporal_corr`` may be None, in which case the slot-to-slot correlation
    is derived from Jakes' model as J0(2*pi*f_D*T_s) with Doppler
    f_D = v*f_c/c; for a 2.6 GHz carrier, 3 km/h and 20 ms slots this
    evaluates to about 0.80.
    """

    model_kind: str = "geometric-ura"
    temporal_corr: float | None = None
    pathloss_exponent: float = 3.0
    pathloss_ref_db: float = 36.0
    pathloss_ref_dist: float = 1.0
    num_rays: int = 8
    angular_spread_deg: float = 10.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
        if self.temporal_corr is not None and not 0.0 <= self.temporal_corr <= 1.0:
            raise ValueError("temporal_corr must lie in [0, 1]")
        if not self.pathloss_exponent > 0:
            raise ValueError("pathloss_exponent must be > 0")
        if self.num_rays < 1:
            raise ValueError("num_rays must be >= 1")
        if self.angular_spread_deg < 0:
            raise ValueError("angular_spread_deg must be >= 0")


def jakes_temporal_corr(cfg: NetworkConfig):
    """Slot-lag correlation J0(2*pi*f_D*T_s) implied by the mobility config."""
    doppler = cfg.ue_speed * cfg.carrier_freq / 299792458.0
    return float(j0(2.0 * np.pi * doppler * cfg.slot_duration))


def resolve_temporal_corr(model_cfg, net_cfg):
    if model_cfg.temporal_corr is not None:
        return model_cfg.temporal_corr
    return jakes_temporal_corr(net_cfg)


@dataclass
class Topology:
    """BS and user placement.  Positions are 2-D coordinates in meters."""

    bs_positions: np.ndarray  # (N, 2)
    ue_positions: np.ndarray  # (N, K, 2)
    ue_headings: np.ndarray  # (N, K) radians


def hex_grid(num_sites, spacing):
    """First ``num_sites`` positions of a hexagonal grid, ring by ring.

    Site 0 sits at the origin; ring r holds 6r sites at inter-site distance
    ``spacing`` from their neighbours.
    """
    # Axial hex directions, walked around each ring.
    directions = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    coords = [(0, 0)]
    ring = 1
    while len(coords) < num_sites:
        q, r = ring, 0
        for dq, dr in [directions[i % 6] for i in range(2, 8)]:
            for _ in range(ring):
                coords.append((q, r))
                q, r = q + dq, r + dr
        ring += 1
    coords = coords[:num_sites]
    out = np.empty((num_sites, 2))
    for i, (q, r) in enumerate(coords):
        out[i, 0] = spacing * (q + 0.5 * r)
        out[i, 1] = spacing * (np.sqrt(3.0) / 2.0) * r
    return out


def init_topology(cfg: NetworkConfig, rng_seed):
    """Drop BSs on the hex grid and users uniformly inside their cells.

    Deterministic for a given seed.  Users land in the annulus between the
    BS-exclusion radius and the cell edge, with uniform headings.
    """
    rng = np.random.default_rng(rng_seed)
    bs = hex_grid(cfg.num_cells, 2.0 * cfg.cell_radius)
    n, k = cfg.num_cells, cfg.users_per_cell
    r_lo, r_hi = BS_EXCLUSION_RADIUS, cfg.cell_radius
    # Uniform over the annulus area: r = sqrt(u*(hi^2-lo^2)+lo^2).
    u = rng.random((n, k))
    radii = np.sqrt(u * (r_hi**2 - r_lo**2) + r_lo**2)
    angles = rng.uniform(0.0, 2.0 * np.pi, (n, k))
    offsets = radii[..., None] * np.stack(
        [np.cos(angles), np.sin(angles)], axis=-1
    )
    ue = bs[:, None, :] + offsets
    headings = rng.uniform(0.0, 2.0 * np.pi, (n, k))
    return Topology(bs_positions=bs, ue_positions=ue, ue_headings=headings)


def ura_steering(azimuth, elevation, array_rows, array_cols):
    """Half-wavelength URA response, unit norm.

    Element (m1, m2) of an array_rows x array_cols grid contributes phase
    pi * (m1*sin(el) + m2*cos(el)*sin(az)); entries are scaled by 1/sqrt(M)
    so the response has unit Euclidean norm.  ``azimuth`` and ``elevation``
    broadcast against each other; the result has their shape plus a trailing
    axis of M = array_rows * array_cols elements in row-major order.
    """
    az = np.asarray(azimuth, dtype=float)[..., None, None]
    el = np.asarray(elevation, dtype=float)[..., None, None]
    m1 = np.arange(array_rows)[:, None]
    m2 = np.arange(array_cols)[None, :]
    phase = np.pi * (m1 * np.sin(el) + m2 * np.cos(el) * np.sin(az))
    m = array_rows * array_cols
    return (np.exp(1j * phase) / np.sqrt(m)).reshape(phase.shape[:-2] + (m,))


def path_loss_db(distance, cfg: ChannelModelConfig):
    """Log-distance path loss: PL0 + 10*n*log10(d/d0) in dB.

    Distances below the reference are clamped to it (logged once per call
    site at warning level).
    """
    d0 = cfg.pathloss_ref_dist
    distance = np.asarray(distance, dtype=float)
    if np.any(distance < d0):
        logger.warning("distance below reference %.3g m clamped", d0)
        distance = np.maximum(distance, d0)
    return cfg.pathloss_ref_db + 10.0 * cfg.pathloss_exponent * np.log10(distance / d0)


def _marginal_draw(topology, model_cfg, net_cfg, rng):
    """One fresh draw of the full (N, N, K, M) channel tensor.

    Per-coefficient-vector power is M * pathloss, i.e. unit average power per
    antenna element before path loss.  Only the random draws run link by
    link, in the stream order of the module docstring; the rest is computed
    over all (N, N, K) links and R rays at once.
    """
    n, k = net_cfg.num_cells, net_cfg.users_per_cell
    m1, m2 = net_cfg.array_rows, net_cfg.array_cols
    m = m1 * m2
    # offset[bs, cell, user] is the BS -> UE vector.  vecdot (numpy >= 2.0)
    # reproduces the per-vector norm bit for bit; norm(axis=-1), einsum and
    # hypot do not.
    offset = topology.ue_positions[None] - topology.bs_positions[:, None, None]
    d = np.sqrt(np.vecdot(offset, offset))
    # Scalar (libm) pow per link: numpy's SIMD power can differ in the last ulp.
    exponent = (-path_loss_db(d, model_cfg) / 10.0).ravel().tolist()
    pl_lin = np.array([10.0**x for x in exponent]).reshape(n, n, k)
    if model_cfg.model_kind != "geometric-ura":
        z = rng.standard_normal((n, n, k, 2, m))
        vec = (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
        return np.sqrt(pl_lin)[..., None] * vec
    rays = model_cfg.num_rays
    spread = np.deg2rad(model_cfg.angular_spread_deg)
    # Per link: 2R uniforms (azimuth, elevation), then 2R normals (real and
    # imaginary gain parts).  Ziggurat normals consume a variable number of
    # raw draws, so the links cannot be merged into one call.
    draws = np.empty((n, n, k, 4, rays))
    for row in draws.reshape(n * n * k, 4 * rays):
        rng.random(out=row[: 2 * rays])
        rng.standard_normal(out=row[2 * rays :])
    u_az, u_el, g_re, g_im = np.moveaxis(draws, -2, 0)
    # Rays cluster around the geometric BS -> UE direction (all arrays face
    # +x), mimicking the narrow per-link angular spread of a macro-cell BS.
    az_los = np.arctan2(offset[..., 1], offset[..., 0])
    # rng.uniform(lo, hi) computes lo + (hi - lo) * random().
    az = az_los[..., None] + spread * (-1.0 + 2.0 * u_az)
    el = spread * (-0.5 + 1.0 * u_el)
    gains = (g_re + 1j * g_im) / np.sqrt(2.0)
    weighted = gains[..., None] * ura_steering(az, el, m1, m2)
    # Ray by ray, in order: a pairwise sum(axis=...) would round differently.
    vec = np.zeros((n, n, k, m), dtype=np.complex128)
    for ray in range(rays):
        vec += weighted[..., ray, :]
    return np.sqrt(pl_lin * m / rays)[..., None] * vec


def _advance_positions(topology, net_cfg):
    """Move every user by v*T_s along its heading, reflecting at cell edges."""
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
                # Fold the overshoot back inside and mirror the heading about
                # the tangent at the crossing point.
                normal = radial / dist
                pos = center + normal * (2.0 * net_cfg.cell_radius - dist)
                reflected = direction - 2.0 * np.dot(direction, normal) * normal
                topology.ue_headings[cell, user] = np.arctan2(
                    reflected[1], reflected[0]
                )
            topology.ue_positions[cell, user] = pos


def generate_slot(topology, prev, model_cfg, net_cfg, rng):
    """Generate the next ChannelState, updating user positions in place.

    The first slot (``prev is None``) draws the marginal at the initial
    positions.  Later slots advance the users one step, then mix the previous
    coefficients with a fresh marginal draw at correlation ``rho_c``.  The
    iid-rayleigh model ignores the correlation knob and redraws every slot.
    """
    if prev is not None:
        expected = (
            net_cfg.num_cells,
            net_cfg.num_cells,
            net_cfg.users_per_cell,
            net_cfg.num_antennas,
        )
        if prev.h.shape != expected:
            raise ValueError(
                f"previous slot has shape {prev.h.shape}, expected {expected}"
            )
        _advance_positions(topology, net_cfg)
    fresh = _marginal_draw(topology, model_cfg, net_cfg, rng)
    if prev is None or model_cfg.model_kind == "iid-rayleigh":
        return ChannelState(slot_index=0 if prev is None else prev.slot_index + 1, h=fresh)
    rho = resolve_temporal_corr(model_cfg, net_cfg)
    h = rho * prev.h + np.sqrt(max(0.0, 1.0 - rho * rho)) * fresh
    return ChannelState(slot_index=prev.slot_index + 1, h=h)


def config_fingerprint(model_cfg, net_cfg):
    """64-bit hash of every parameter that shapes the channel statistics."""
    canon = "|".join(
        [
            f"{net_cfg.num_cells},{net_cfg.users_per_cell}",
            f"{net_cfg.array_rows},{net_cfg.array_cols}",
            f"{net_cfg.carrier_freq:.17g},{net_cfg.cell_radius:.17g}",
            f"{net_cfg.slot_duration:.17g},{net_cfg.ue_speed:.17g}",
            model_cfg.model_kind,
            "auto"
            if model_cfg.temporal_corr is None
            else f"{model_cfg.temporal_corr:.17g}",
            f"{model_cfg.pathloss_exponent:.17g}",
            f"{model_cfg.pathloss_ref_db:.17g}",
            f"{model_cfg.pathloss_ref_dist:.17g}",
            f"{model_cfg.num_rays}",
            f"{model_cfg.angular_spread_deg:.17g}",
            f"{model_cfg.rng_seed}",
        ]
    )
    digest = hashlib.sha256(canon.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ChannelTrace:
    """A stored sequence of channel realizations, shape (T, N, N, K, M)."""

    num_cells: int
    users_per_cell: int
    num_antennas: int
    cfg_hash: int
    h: np.ndarray

    @property
    def num_slots(self):
        return self.h.shape[0]

    def slot(self, t):
        return ChannelState(slot_index=t, h=self.h[t])


class ChannelProcess:
    """Stateful slot-by-slot channel generator with checkpoint support."""

    kind = "process"

    def __init__(self, net_cfg, model_cfg):
        self.net_cfg = net_cfg
        self.model_cfg = model_cfg
        self.topology = init_topology(net_cfg, model_cfg.rng_seed)
        self.rng = np.random.default_rng(model_cfg.rng_seed)
        self.current = None

    def next_slot(self):
        self.current = generate_slot(
            self.topology, self.current, self.model_cfg, self.net_cfg, self.rng
        )
        return self.current

    def state_dict(self):
        """Run-checkpoint entries after the first slot, as a pair (arrays, meta).

        ``harness.save_checkpoint`` lays them out.  The arrays are copies.
        """
        arrays = {
            "proc_h": self.current.h.copy(),
            "proc_ue_positions": self.topology.ue_positions.copy(),
            "proc_ue_headings": self.topology.ue_headings.copy(),
        }
        meta = {
            "kind": self.kind,
            "slot": self.current.slot_index,
            "rng_state": json.dumps(self.rng.bit_generator.state),
        }
        return arrays, meta

    def load_state_dict(self, state):
        """Restore a ``state_dict`` pair, taking ownership of its arrays."""
        arrays, meta = state
        self.current = ChannelState(slot_index=int(meta["slot"]), h=arrays["proc_h"])
        self.topology.ue_positions = arrays["proc_ue_positions"]
        self.topology.ue_headings = arrays["proc_ue_headings"]
        self.rng.bit_generator.state = json.loads(meta["rng_state"])


class TraceStream:
    """Reads a stored trace slot by slot from its first slot."""

    kind = "trace"

    def __init__(self, trace):
        self.trace = trace
        self.cursor = 0

    @property
    def current(self):
        """The slot ``next_slot`` returned last; None before the first slot."""
        return self.trace.slot(self.cursor - 1) if self.cursor > 0 else None

    def next_slot(self):
        if self.cursor >= self.trace.num_slots:
            raise IndexError("channel trace exhausted")
        state = self.trace.slot(self.cursor)
        self.cursor += 1
        return state

    def state_dict(self):
        """Run-checkpoint entries as a pair (arrays, meta); there are no arrays."""
        return {}, {"kind": self.kind, "cursor": self.cursor}

    def load_state_dict(self, state):
        _, meta = state
        self.cursor = int(meta["cursor"])


def generate_trace(net_cfg, model_cfg, num_slots, offset=0):
    """Slots [offset, offset + num_slots) of a fresh process, in memory.

    The ``offset`` slots before the window are generated and dropped, so the
    window is bit-identical to the same slots of a trace that starts at 0.
    """
    proc = ChannelProcess(net_cfg, model_cfg)
    n, k, m = net_cfg.num_cells, net_cfg.users_per_cell, net_cfg.num_antennas
    h = np.empty((num_slots, n, n, k, m), dtype=np.complex128)
    for _ in range(offset):
        proc.next_slot()
    for t in range(num_slots):
        h[t] = proc.next_slot().h
    return ChannelTrace(
        num_cells=n,
        users_per_cell=k,
        num_antennas=m,
        cfg_hash=config_fingerprint(model_cfg, net_cfg),
        h=h,
    )


def save_trace(trace, path):
    """Write a trace as fixed-width little-endian binary with a CRC32 footer."""
    header = _HEADER.pack(
        trace.num_cells,
        trace.users_per_cell,
        trace.num_antennas,
        trace.num_slots,
        trace.cfg_hash,
    )
    payload = np.ascontiguousarray(trace.h, dtype="<c16").tobytes()
    body = TRACE_MAGIC + header + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", crc))


def load_trace(path):
    """Read a trace file back, verifying magic, dimensions and checksum.

    The payload is read once, straight into the returned array, and the
    checksum runs over that same buffer.
    """
    prefix_len = len(TRACE_MAGIC) + _HEADER.size
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < prefix_len + 4:
            raise TraceFormatError("trace file truncated: shorter than header")
        prefix = fh.read(prefix_len)
        if prefix[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise TraceFormatError("bad magic: not a channel trace file")
        n, k, m, num_slots, cfg_hash = _HEADER.unpack_from(prefix, len(TRACE_MAGIC))
        payload_len = num_slots * n * n * k * m * 16
        expected = prefix_len + payload_len + 4
        if size != expected:
            raise TraceFormatError(
                f"dimension mismatch: header implies {expected} bytes, file has {size}"
            )
        h = np.empty((num_slots, n, n, k, m), dtype="<c16")
        payload = h.reshape(-1).view(np.uint8)
        got = fh.readinto(payload)
        footer = fh.read(4)
    if got != payload_len or len(footer) != 4:
        # The file shrank after its size was checked.
        raise TraceFormatError("trace file truncated while reading")
    stored_crc = struct.unpack("<I", footer)[0]
    actual_crc = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise TraceFormatError("checksum mismatch: trace file corrupted")
    return ChannelTrace(
        num_cells=int(n),
        users_per_cell=int(k),
        num_antennas=int(m),
        cfg_hash=int(cfg_hash),
        h=h.astype(np.complex128, copy=False),
    )
