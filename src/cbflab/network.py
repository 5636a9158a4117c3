"""Multi-cell downlink system model: channels, beamformers, SINR and rates.

Index conventions used throughout the package:

* ``h[m, n, k]`` is the complex channel (length ``M``) from BS ``m`` to user
  ``k`` of cell ``n``.
* ``w[n, k]`` is the beamformer (length ``M``) that BS ``n`` applies for its
  own user ``k``.

Leading slot axes.  ``ChannelState``, ``BeamformerSet`` and
``compute_metrics`` also take a stack of slots: ``h`` of shape
(..., N, N, K, M) and ``w`` of shape (..., N, K, M), where the leading axes
index slots and a tensor without them is one slot.  A stacked call checks
every slot, names the slot and BS of a failed check, and gives each slot's
metrics bit for bit as its own call would.

All powers are kept in linear watts; dB/dBm appear only at configuration and
reporting boundaries.  Channels and beamformers are complex128 throughout
(matrix inverses downstream are too ill-conditioned in single precision for
large arrays).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

# Users are dropped uniformly in the cell disc outside this radius (meters)
# around their BS, so the first slot never starts on top of an antenna mast.
BS_EXCLUSION_RADIUS = 10.0

# Relative slack on the per-BS transmit power constraint.  Exact equality is
# numerically unattainable after a multiplier search, so feasibility checks
# allow this much headroom.
POWER_SLACK = 1e-9


class PowerConstraintError(ValueError):
    """Raised when a base station exceeds its transmit power budget."""


def dbm_to_watt(dbm):
    """Convert a power level in dBm to linear watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt):
    """Convert a power level in linear watts to dBm."""
    return 10.0 * np.log10(watt) + 30.0


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions and link-budget constants of the cellular network.

    Attributes:
        num_cells: number of cells N, one BS per cell.
        users_per_cell: single-antenna users K served by each BS.
        array_rows / array_cols: uniform rectangular array of
            M = array_rows * array_cols antennas at each BS.
        max_power: per-BS transmit power budget in watts.
        noise_power: receiver AWGN power in watts.
        carrier_freq: carrier frequency in Hz.
        cell_radius: cell radius in meters (half the inter-site distance),
            larger than ``BS_EXCLUSION_RADIUS``.
        slot_duration: time slot length in seconds.
        ue_speed: user speed in m/s (used for mobility and Doppler); one
            slot's step ``ue_speed * slot_duration`` is at most
            ``2 * cell_radius``.
    """

    num_cells: int
    users_per_cell: int
    array_rows: int
    array_cols: int
    max_power: float = dbm_to_watt(38.0)
    noise_power: float = dbm_to_watt(-101.0)
    carrier_freq: float = 2.6e9
    cell_radius: float = 250.0
    slot_duration: float = 0.02
    ue_speed: float = 3.0 / 3.6

    def __post_init__(self):
        if self.num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        if self.users_per_cell < 1:
            raise ValueError("users_per_cell must be >= 1")
        if self.array_rows < 1:
            raise ValueError("array_rows must be >= 1")
        if self.array_cols < 1:
            raise ValueError("array_cols must be >= 1")
        if not 0.0 < self.max_power < math.inf:
            raise ValueError("max_power must be > 0 and finite")
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be > 0 and finite")
        if not 0.0 < self.carrier_freq < math.inf:
            raise ValueError("carrier_freq must be > 0 and finite")
        if not BS_EXCLUSION_RADIUS < self.cell_radius < math.inf:
            raise ValueError(
                f"cell_radius must be finite and > {BS_EXCLUSION_RADIUS:g} m, "
                "the users' exclusion radius around their BS"
            )
        if not 0.0 < self.slot_duration < math.inf:
            raise ValueError("slot_duration must be > 0 and finite")
        if not 0.0 <= self.ue_speed < math.inf:
            raise ValueError("ue_speed must be >= 0 and finite")
        # A user is folded back into its cell once per slot, which holds it
        # inside only while a step is at most the cell diameter.
        if self.ue_speed * self.slot_duration > 2.0 * self.cell_radius:
            raise ValueError(
                "ue_speed must not move a user farther than the cell diameter in one slot"
            )

    @property
    def num_antennas(self):
        return self.array_rows * self.array_cols


def _first_bad(bad, first_slot):
    """Where the first True entry of a (..., N) per-BS mask lies; None if none.

    Names the BS, and in a stack of slots also the slot: leading entry i in
    C order is slot ``first_slot + i``.
    """
    flat = np.flatnonzero(bad)
    if not flat.size:
        return None
    i, n = divmod(int(flat[0]), bad.shape[-1])
    return f"BS {n}" if bad.ndim == 1 else f"slot {first_slot + i}, BS {n}"


@dataclass(frozen=True)
class ChannelState:
    """Channel realization of one time slot, or of a stack of slots.

    ``h`` has shape (..., N, N, K, M): ``h[..., m, n, k]`` is the downlink
    channel from BS ``m`` to user ``k`` of cell ``n``.  Its shape is the one
    record of the dimensions.  ``slot_index`` is the slot of ``h``; leading
    axes stack slots, and leading entry i in C order is slot
    ``slot_index + i``.  Every slot is checked, and a failed check names the
    BS and, in a stack, the slot.  ``checked=True`` skips the checks: the
    slots of ``h`` have passed them once already, in a checked
    ``channel.ChannelTrace``.
    """

    slot_index: int
    h: np.ndarray
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if checked:
            return
        h = self.h
        if h.ndim < 4 or h.shape[-4] != h.shape[-3]:
            raise ValueError("channel tensor must have shape (..., N, N, K, M)")
        if not np.all(np.isfinite(h.view(np.float64))):
            bad = ~np.isfinite(h.view(np.float64)).all(axis=(-3, -2, -1))
            where = _first_bad(bad, self.slot_index)
            raise ValueError(f"{where}: channel tensor contains non-finite entries")
        idx = np.arange(h.shape[-4])
        serving = h[..., idx, idx, :, :]  # (..., N, K, M)
        linked = np.any(serving != 0, axis=-1)  # (..., N, K)
        if not np.all(linked):
            where = _first_bad(~linked.all(axis=-1), self.slot_index)
            raise ValueError(f"{where}: every serving link h[n, n, k] must be nonzero")


@dataclass(frozen=True)
class BeamformerSet:
    """Per-(cell, user) downlink beamformers, shape (..., N, K, M).

    Leading axes stack slots, as the ``h`` of a ``ChannelState`` does.
    """

    w: np.ndarray

    def __post_init__(self):
        if self.w.ndim < 3:
            raise ValueError("beamformer tensor must have shape (..., N, K, M)")
        if not np.all(np.isfinite(self.w.view(np.float64))):
            raise ValueError("beamformers contain non-finite entries")

    @property
    def powers(self):
        """Allocated powers p[..., n, k] = ||w[..., n, k]||^2 in watts."""
        return np.sum(np.abs(self.w) ** 2, axis=-1)

    @property
    def directions(self):
        """Unit-norm directions where power > 0, zero vectors elsewhere."""
        norms = np.linalg.norm(self.w, axis=-1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        return np.where(norms > 0, self.w / safe, 0.0)

    def check_power(self, max_power, first_slot=0):
        """Raise PowerConstraintError naming the first BS over budget.

        In a stack of slots the error also names the slot, leading entry i
        being slot ``first_slot + i``.
        """
        per_bs = self.powers.sum(axis=-1)
        over = per_bs > max_power * (1.0 + POWER_SLACK)
        where = _first_bad(over, first_slot)
        if where is not None:
            power = per_bs.reshape(-1)[np.argmax(over)]
            raise PowerConstraintError(
                f"{where} transmits {power:.6e} W, budget {max_power:.6e} W"
            )


@dataclass(frozen=True)
class SlotMetrics:
    """Per-slot link metrics.

    Attributes:
        sinr: gamma[n, k], dimensionless.
        rate: R[n, k] = log2(1 + gamma[n, k]) in bits/s/Hz.
        received_power: desired signal power p_r[n, k] in watts.
        interference: beta[m, n, k], interference power from BS m at user
            (n, k) in watts; for m == n this is the intra-cell term (own
            beam excluded).
        total_ipn: beta[n, k] = sum_m interference[m, n, k] + noise, watts.
    """

    sinr: np.ndarray
    rate: np.ndarray
    received_power: np.ndarray
    interference: np.ndarray
    total_ipn: np.ndarray


def compute_metrics(channel, beams, cfg):
    """Evaluate SINR, rate and interference bookkeeping for one slot or a stack.

    This is the program's one SINR and rate evaluation: the environment's
    reward, the benchmark rows and every weighted-MMSE iterate are scored
    here.  The per-BS power constraint is checked first; a violation raises
    PowerConstraintError naming the offending BS (and slot, in a stack).
    The (..., N, N, K, K) cross gains of every link come from one batched
    matrix product.  Channels (..., N, N, K, M) and beams (..., N, K, M) may
    stack slots on leading axes; every ``SlotMetrics`` field then carries
    them too, and each slot's entries equal its own call's bit for bit.
    """
    beams.check_power(cfg.max_power, channel.slot_index)
    h = channel.h
    w = beams.w
    lead = h.shape[:-4]
    num_cells, _, users, antennas = h.shape[-4:]

    # cross[..., m, n, k, j] = h[..., m, n, k]^H w[..., m, j]
    flat_hc = h.reshape(*lead, num_cells, num_cells * users, antennas).conj()
    cross = (flat_hc @ w.swapaxes(-1, -2)).reshape(*lead, num_cells, num_cells, users, users)
    cross_pow = np.abs(cross) ** 2

    idx = np.arange(num_cells)
    serving = cross_pow[..., idx, idx, :, :]  # (..., N, K, K): [n, k, j]
    received = serving[..., np.arange(users), np.arange(users)]  # (..., N, K)

    # interference[..., m, n, k]: all beams of BS m received at (n, k), minus
    # the own-beam term when m is the serving BS.
    interference = cross_pow.sum(axis=-1)
    interference[..., idx, idx, :] -= received

    total_ipn = interference.sum(axis=-3) + cfg.noise_power
    sinr = received / total_ipn
    rate = np.log2(1.0 + sinr)
    return SlotMetrics(
        sinr=sinr,
        rate=rate,
        received_power=received,
        interference=interference,
        total_ipn=total_ipn,
    )


def sum_rate(metrics):
    """Network sum rate in bits/s/Hz."""
    return float(metrics.rate.sum())
