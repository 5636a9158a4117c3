"""Temporally correlated block-fading channels on a hexagonal cell layout.

This is a desk-scale substitute for ray-traced urban-macro channels: it keeps
the two properties the learning machinery depends on -- temporal correlation
between slots and spatial structure across the array -- without a ray-tracing
engine.  Fading follows a first-order Gauss-Markov recursion

    h(t) = rho_c * h(t-1) + sqrt(1 - rho_c^2) * e(t)

where e(t) is a fresh draw from the slot-marginal distribution: either a
path-loss-scaled complex Gaussian or a sum of uniform-rectangular-array rays
with random angles and gains.  All users advance together, one step a slot
along straight tracks with specular reflection at the cell edge.
``ChannelProcess.next_slot`` is the one slot step: move, draw, mix.

Random stream.  A ``ChannelProcess`` draws from one ``numpy`` Generator
seeded with ``rng_seed``.  Each slot visits the links in C order of
(bs, cell, user) and draws, per link:

* geometric-ura: R uniforms in [-1, 1) for the azimuth offsets, R uniforms in
  [-0.5, 0.5) for the elevations, then R standard normals for the real and R
  for the imaginary parts of the ray gains;
* gauss-markov: M standard normals for the real and M for the imaginary
  parts of the coefficients.

Everything computed from the draws is vectorized over links and rays, and
the mobility over users, with the same floating-point operations, in the
same order, as a per-link and per-user loop.  The stream, the mobility,
``config_fingerprint`` and gauss-markov channels are bit for bit the first
(``TRACE_MAGIC`` version 1) generator's.  Geometric-URA channels differ at
rounding level: the ray response is the Kronecker product of two ULA
factors (at most 4.8e-15 of max|h| from the first generator), and each
link sums its rays as one (rows x R) @ (R x cols) product of those factors
(at most 3.9e-16 of max|h| from the ray-by-ray sum it replaced, on 41 ref7
slots of seeds 1 and 101).  That product runs in BLAS, so the last bits of
geometric-URA channels may depend on the BLAS kernel.

``init_topology`` draws from a second Generator seeded with the same
``rng_seed``, so the two streams start alike: in a geometric-URA process,
the first slot's first link takes its 2R ray-offset uniforms from the same
values that set the first users' radii (one uniform per user, in C order of
(cell, user)); for seed 1 at 7 cells of 4 users, all 16 are equal.
Separating the streams would change every channel, trace and digest, so it
waits for a change that may move them.

Jakes' correlation needs the Bessel function J0.  ``j0`` is a port of the
Cephes routine that ``scipy.special.j0`` evaluates, in plain Python floats
with the same coefficients and operation order, so it returns scipy's value
bit for bit and the package needs nothing beyond numpy at run time.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .drl import replacing, restore_rng
from .network import BS_EXCLUSION_RADIUS, ChannelState, NetworkConfig

logger = logging.getLogger(__name__)

MODEL_KINDS = ("gauss-markov", "geometric-ura")

TRACE_MAGIC = b"CBFLAB-TRACE\x00\x00\x00\x01"
_HEADER = struct.Struct("<5Q")


class TraceFormatError(ValueError):
    """Raised when a channel-trace file fails an integrity check."""


class ChannelMismatchError(ValueError):
    """A stream's checkpoint is of another channel source, or past the end of its trace."""


@dataclass(frozen=True)
class ChannelModelConfig:
    """Knobs of the substitute fading model.

    ``temporal_corr`` may be None, in which case the slot-to-slot correlation
    is derived from Jakes' model as J0(2*pi*f_D*T_s) with Doppler
    f_D = v*f_c/c; for a 2.6 GHz carrier, 3 km/h and 20 ms slots this
    evaluates to about 0.80.  An i.i.d. block-fading channel, a fresh draw
    every slot, is ``gauss-markov`` with ``temporal_corr = 0``.
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
        if not 0.0 < self.pathloss_exponent < math.inf:
            raise ValueError("pathloss_exponent must be > 0 and finite")
        if not math.isfinite(self.pathloss_ref_db):
            raise ValueError("pathloss_ref_db must be finite")
        if not 0.0 < self.pathloss_ref_dist < math.inf:
            raise ValueError("pathloss_ref_dist must be > 0 and finite")
        if self.num_rays < 1:
            raise ValueError("num_rays must be >= 1")
        if not 0.0 <= self.angular_spread_deg < math.inf:
            raise ValueError("angular_spread_deg must be >= 0 and finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


# Coefficients of Cephes j0.c (Stephen L. Moshier): a rational approximation
# in x^2 on [0, 5], with the squares DR1, DR2 of J0's first two zeros
# factored out, and rational amplitude and phase terms in 25/x^2 beyond.
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_J0_RP = (
    -4.79443220978201773821e9, 1.95617491946556577543e12,
    -2.49248344360967716204e14, 9.70862251047306323952e15,
)
_J0_RQ = (  # leading 1 implied (p1evl)
    4.99563147152651017219e2, 1.73785401676374683123e5,
    4.84409658339962045305e7, 1.11855537045356834862e10,
    2.11277520115489217587e12, 3.10518229857422583814e14,
    3.18121955943204943306e16, 1.71086294081043136091e18,
)
_J0_PP = (
    7.96936729297347051624e-4, 8.28352392107440799803e-2,
    1.23953371646414299388e0, 5.44725003058768775090e0,
    8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1,
)
_J0_PQ = (
    9.24408810558863637013e-4, 8.56288474354474431428e-2,
    1.25352743901058953537e0, 5.47097740330417105182e0,
    8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0,
)
_J0_QP = (
    -1.13663838898469149931e-2, -1.28252718670509318512e0,
    -1.95539544257735972385e1, -9.32060152123768231369e1,
    -1.77681167980488050595e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0,
)
_J0_QQ = (  # leading 1 implied (p1evl)
    6.43178256118178023184e1, 8.56430025976980587198e2,
    3.88240183605401609683e3, 7.24046774195652478189e3,
    5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2,
)
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)


def _polevl(x, coef):
    """Horner's rule, highest power first (Cephes polevl)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implied leading coefficient of 1 (Cephes p1evl)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def j0(x):
    """Bessel function of the first kind of order zero, for real x.

    Cephes ``j0`` operation for operation, so a finite result equals
    ``scipy.special.j0(x)`` bit for bit; like scipy, it is NaN for x = NaN
    or +-inf.
    """
    x = abs(x)
    if x == math.inf:  # C's cos(inf) is NaN where math.cos raises
        return math.nan
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
    xn = x - math.pi / 4.0
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def jakes_temporal_corr(cfg: NetworkConfig):
    """Slot-lag correlation J0(2*pi*f_D*T_s) implied by the mobility config.

    ``j0`` is the Cephes port above, bit-identical to ``scipy.special.j0``,
    so the correlation (and every channel drawn with it) is the same as when
    scipy evaluated it.
    """
    doppler = cfg.ue_speed * cfg.carrier_freq / 299792458.0
    return float(j0(2.0 * np.pi * doppler * cfg.slot_duration))


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
    """Half-wavelength URA response as its per-axis factors (vertical, horizontal).

    Element (m1, m2) of an array_rows x array_cols grid has phase
    pi * (m1*sin(el) + m2*cos(el)*sin(az)) and modulus 1/sqrt(M): it is
    ``vertical[..., m1] * horizontal[..., m2]``, the vertical ULA response
    scaled by 1/sqrt(M) times the horizontal one (rows + cols exponentials).
    Their row-major Kronecker product,
    ``(vertical[..., :, None] * horizontal[..., None, :]).reshape(..., M)``,
    is the unit-norm response.  ``vertical`` depends on the elevation alone
    and has its shape plus a trailing axis of ``array_rows``;
    ``horizontal`` has the shape that ``azimuth`` and ``elevation``
    broadcast to plus a trailing axis of ``array_cols``.
    """
    az = np.asarray(azimuth, dtype=float)[..., None]
    el = np.asarray(elevation, dtype=float)[..., None]
    m = array_rows * array_cols
    vertical = np.exp(1j * (np.pi * (np.arange(array_rows) * np.sin(el)))) / np.sqrt(m)
    horizontal = np.exp(1j * (np.pi * (np.arange(array_cols) * (np.cos(el) * np.sin(az)))))
    return vertical, horizontal


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
    over all (N, N, K) links and R rays at once, and no (..., R, M) ray
    response is formed.
    """
    n, k = net_cfg.num_cells, net_cfg.users_per_cell
    m1, m2 = net_cfg.array_rows, net_cfg.array_cols
    m = m1 * m2
    # offset[bs, cell, user] is the BS -> UE vector.  vecdot (numpy >= 2.0)
    # reproduces the per-vector norm bit for bit; norm(axis=-1), an Einstein
    # summation and hypot do not.
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
    vertical, horizontal = ura_steering(az, el, m1, m2)
    # A link's rays sum to sum_r g_r (v_r kron h_r) = (g * V)^T H: one
    # (rows x R) @ (R x cols) product per link, whose row-major entries are
    # the M antennas.
    vec = ((gains[..., None] * vertical).swapaxes(-1, -2) @ horizontal).reshape(n, n, k, m)
    return np.sqrt(pl_lin * m / rays)[..., None] * vec


def _advance_positions(topology, net_cfg):
    """Move every user by v*T_s along its heading, reflecting at cell edges.

    One array pass over all users, in place, with a per-user loop's
    operations: ``vecdot`` reproduces its ``norm`` and ``dot`` bit for bit.
    """
    step = net_cfg.ue_speed * net_cfg.slot_duration
    radius = net_cfg.cell_radius
    headings = topology.ue_headings
    direction = np.stack([np.cos(headings), np.sin(headings)], axis=-1)
    pos = topology.ue_positions
    pos += step * direction
    center = np.broadcast_to(topology.bs_positions[:, None], pos.shape)
    radial = pos - center
    dist = np.sqrt(np.vecdot(radial, radial))
    out = dist > radius
    # Fold the overshoot back inside and mirror the heading about the
    # tangent at the crossing point.
    normal = radial[out] / dist[out, None]
    pos[out] = center[out] + normal * (2.0 * radius - dist[out])[:, None]
    d = direction[out]
    reflected = d - (2.0 * np.vecdot(d, normal))[:, None] * normal
    headings[out] = np.arctan2(reflected[:, 1], reflected[:, 0])


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
    """A stored sequence of channel realizations, shape (T, N, N, K, M).

    ``h.shape`` is the one record of the dimensions: ``save_trace`` writes
    the file header from it.  ``cfg_hash`` is the ``config_fingerprint`` of
    the process that generated it.  ``checked`` says that every slot has
    passed the checks of ``ChannelState``, as each slot of ``generate_trace``
    has; ``slot`` then does not run them again.
    """

    cfg_hash: int
    h: np.ndarray
    checked: bool = False

    @property
    def num_slots(self):
        return self.h.shape[0]

    def slot(self, t):
        return ChannelState(slot_index=t, h=self.h[t], checked=self.checked)


class ChannelProcess:
    """Stateful slot-by-slot channel generator with checkpoint support.

    The slot-lag correlation ``rho`` is resolved once: the configured
    ``temporal_corr``, or else Jakes' value for the mobility.
    """

    kind = "process"

    def __init__(self, net_cfg, model_cfg):
        self.net_cfg = net_cfg
        self.model_cfg = model_cfg
        self.topology = init_topology(net_cfg, model_cfg.rng_seed)
        self.rng = np.random.default_rng(model_cfg.rng_seed)
        rho = model_cfg.temporal_corr
        self.rho = jakes_temporal_corr(net_cfg) if rho is None else rho
        self.fingerprint = config_fingerprint(model_cfg, net_cfg)
        self.current = None

    def next_slot(self):
        """The next ChannelState; user positions and headings move in place.

        The first slot draws the marginal at the initial positions.  Later
        slots advance the users one step, then mix the previous coefficients
        with a fresh marginal draw at correlation ``rho``.
        """
        prev = self.current
        if prev is not None:
            _advance_positions(self.topology, self.net_cfg)
        h = _marginal_draw(self.topology, self.model_cfg, self.net_cfg, self.rng)
        if prev is not None:
            rho = self.rho
            h = rho * prev.h + np.sqrt(max(0.0, 1.0 - rho * rho)) * h
        slot = 0 if prev is None else prev.slot_index + 1
        self.current = ChannelState(slot_index=slot, h=h)
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
            "fingerprint": self.fingerprint,
        }
        return arrays, meta

    META = {"kind": str, "slot": int, "rng_state": str, "fingerprint": int}

    def checkpoint_layout(self):
        """The (dtype, shape) of each ``state_dict`` array, for this process's network."""
        net = self.net_cfg
        n, k = net.num_cells, net.users_per_cell
        return {
            "proc_h": (np.dtype(np.complex128), (n, n, k, net.num_antennas)),
            "proc_ue_positions": (np.dtype(np.float64), (n, k, 2)),
            "proc_ue_headings": (np.dtype(np.float64), (n, k)),
        }

    def load_state_dict(self, state):
        """Restore a ``state_dict`` pair, taking ownership of its arrays.

        The arrays fit ``checkpoint_layout`` and the meta ``META``
        (``harness.load_checkpoint`` checks both).  Raises, before changing
        anything, ChannelMismatchError unless the meta's channel is its own
        and ValueError if numpy refuses its ``rng_state``.
        """
        arrays, meta = state
        check_fingerprint(self, meta)
        restore_rng(self.rng, meta["rng_state"])
        self.current = ChannelState(slot_index=meta["slot"], h=arrays["proc_h"])
        self.topology.ue_positions = arrays["proc_ue_positions"]
        self.topology.ue_headings = arrays["proc_ue_headings"]


def check_fingerprint(stream, meta):
    """ChannelMismatchError if a stream's checkpoint ``meta`` names another channel source.

    The fingerprint hashes the network's cell, user and antenna counts, so a
    meta that passes fixes the shape of every channel array it came with.
    """
    stored = meta["fingerprint"]
    if stored != stream.fingerprint:
        raise ChannelMismatchError(
            f"its channel has fingerprint {stored:#x}, this config's {stream.kind} "
            f"source {stream.fingerprint:#x}"
        )


class TraceStream:
    """Reads a stored trace slot by slot from its first slot.

    ``current`` is the slot ``next_slot`` returned last, None before the first.
    """

    kind = "trace"

    def __init__(self, trace):
        self.trace = trace
        self.fingerprint = trace.cfg_hash
        self.cursor = 0
        self.current = None

    def next_slot(self):
        if self.cursor >= self.trace.num_slots:
            raise IndexError("channel trace exhausted")
        self.current = self.trace.slot(self.cursor)
        self.cursor += 1
        return self.current

    def state_dict(self):
        """Run-checkpoint entries as a pair (arrays, meta); there are no arrays."""
        return {}, {"kind": self.kind, "cursor": self.cursor, "fingerprint": self.fingerprint}

    META = {"kind": str, "cursor": int, "fingerprint": int}

    def checkpoint_layout(self):
        """The (dtype, shape) of each ``state_dict`` array: there are none."""
        return {}

    def load_state_dict(self, state):
        """Restore a ``state_dict`` pair whose meta fits ``META``.

        ChannelMismatchError, before changing anything, if the cursor lies
        past the trace's end or the meta's channel is another.
        """
        _, meta = state
        cursor = meta["cursor"]
        if cursor > self.trace.num_slots:
            raise ChannelMismatchError(
                f"cursor {cursor} lies outside this {self.trace.num_slots}-slot trace"
            )
        check_fingerprint(self, meta)
        self.cursor = cursor
        self.current = self.trace.slot(cursor - 1) if cursor > 0 else None


def generate_trace(net_cfg, model_cfg, num_slots, offset=0):
    """Slots [offset, offset + num_slots) of a fresh process, in memory.

    The ``offset`` slots before the window are generated and dropped, so the
    window is bit-identical to the same slots of a trace that starts at 0.
    Each slot is checked as ``next_slot`` makes it, so the trace is
    ``checked``.
    """
    proc = ChannelProcess(net_cfg, model_cfg)
    n, k, m = net_cfg.num_cells, net_cfg.users_per_cell, net_cfg.num_antennas
    h = np.empty((num_slots, n, n, k, m), dtype=np.complex128)
    for _ in range(offset):
        proc.next_slot()
    for t in range(num_slots):
        h[t] = proc.next_slot().h
    return ChannelTrace(cfg_hash=config_fingerprint(model_cfg, net_cfg), h=h, checked=True)


def save_trace(trace, path):
    """Replace ``path`` whole by the trace: little-endian binary, a CRC32 footer, no copies."""
    num_slots, n, _, k, m = trace.h.shape
    prefix = TRACE_MAGIC + _HEADER.pack(n, k, m, num_slots, trace.cfg_hash)
    payload = np.ascontiguousarray(trace.h, dtype="<c16").reshape(-1).view(np.uint8)
    crc = zlib.crc32(payload, zlib.crc32(prefix)) & 0xFFFFFFFF
    with replacing(path) as fh:
        fh.write(prefix)
        fh.write(payload)
        fh.write(struct.pack("<I", crc))


def load_trace(path, start=0, stop=None):
    """Read a trace file back, verifying magic, dimensions and checksum.

    ``start`` and ``stop`` keep the slots ``h[start:stop]`` of the full
    trace, bit for bit.  Every byte is still read and checksummed, with the
    same errors.  The payload is read view by view, in file order: the kept
    slots straight into the returned array, each other slot into one
    slot-sized spare buffer.  So a window costs its own memory plus one slot
    (and one list entry per skipped slot), and each skipped slot is one
    read: a far window of a trace with small slots takes many small reads.
    A full read is one read into the returned array, and the checksum runs
    over that same buffer.
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
        if 0 in (n, k, m):
            raise TraceFormatError(
                f"bad header: {n} cells, {k} users and {m} antennas; each count must be >= 1"
            )
        slot_len = n * n * k * m * 16
        expected = prefix_len + num_slots * slot_len + 4
        if size != expected:
            raise TraceFormatError(
                f"dimension mismatch: header implies {expected} bytes, file has {size}"
            )
        kept = range(num_slots)[start:stop]
        h = np.empty((len(kept), n, n, k, m), dtype="<c16")
        spare = [memoryview(bytearray(slot_len))]
        after = num_slots - kept.start - len(kept)
        views = spare * kept.start + [h.reshape(-1).view(np.uint8)] + spare * after
        crc = zlib.crc32(prefix)
        for view in views:
            if fh.readinto(view) != len(view):
                # The file shrank after its size was checked.
                raise TraceFormatError("trace file truncated while reading")
            crc = zlib.crc32(view, crc)
        footer = fh.read(4)
    if len(footer) != 4:
        raise TraceFormatError("trace file truncated while reading")
    if struct.unpack("<I", footer)[0] != crc & 0xFFFFFFFF:
        raise TraceFormatError("checksum mismatch: trace file corrupted")
    return ChannelTrace(cfg_hash=int(cfg_hash), h=h.astype(np.complex128, copy=False))
