"""Multi-cell downlink system model: channels, beamformers, SINR and rates.

Index conventions used throughout the package:

* ``h[m, n, k]`` is the complex channel (length ``M``) from BS ``m`` to user
  ``k`` of cell ``n``.
* ``w[n, k]`` is the beamformer (length ``M``) that BS ``n`` applies for its
  own user ``k``.

All powers are kept in linear watts; dB/dBm appear only at configuration and
reporting boundaries.  Channels and beamformers are complex128 throughout
(matrix inverses downstream are too ill-conditioned in single precision for
large arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative slack on the per-BS transmit power constraint.  Exact equality is
# numerically unattainable after a bisection search, so feasibility checks
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
        cell_radius: cell radius in meters (half the inter-site distance).
        slot_duration: time slot length in seconds.
        ue_speed: user speed in m/s (used for mobility and Doppler).
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
        if self.array_rows < 1 or self.array_cols < 1:
            raise ValueError("array dimensions must be >= 1")
        if not self.max_power > 0:
            raise ValueError("max_power must be > 0")
        if not self.noise_power > 0:
            raise ValueError("noise_power must be > 0")
        if not self.slot_duration > 0:
            raise ValueError("slot_duration must be > 0")

    @property
    def num_antennas(self):
        return self.array_rows * self.array_cols


@dataclass(frozen=True)
class ChannelState:
    """Channel realization for one time slot.

    ``h`` has shape (N, N, K, M): ``h[m, n, k]`` is the downlink channel from
    BS ``m`` to user ``k`` of cell ``n``.
    """

    slot_index: int
    h: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 4 or self.h.shape[0] != self.h.shape[1]:
            raise ValueError("channel tensor must have shape (N, N, K, M)")
        if not np.all(np.isfinite(self.h.view(np.float64))):
            raise ValueError("channel tensor contains non-finite entries")
        n, _, k, _ = self.h.shape
        serving = self.h[np.arange(n), np.arange(n)]  # (N, K, M)
        if not np.all(np.any(serving != 0, axis=-1)):
            raise ValueError("every serving link h[n, n, k] must be nonzero")

    @property
    def num_cells(self):
        return self.h.shape[0]

    @property
    def users_per_cell(self):
        return self.h.shape[2]

    @property
    def num_antennas(self):
        return self.h.shape[3]

    def local_csi(self, m):
        """Channels available to BS ``m`` via reciprocity: h[m, :, :] (N, K, M)."""
        return self.h[m]


@dataclass(frozen=True)
class BeamformerSet:
    """Per-(cell, user) downlink beamformers, shape (N, K, M)."""

    w: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 3:
            raise ValueError("beamformer tensor must have shape (N, K, M)")
        if not np.all(np.isfinite(self.w.view(np.float64))):
            raise ValueError("beamformers contain non-finite entries")

    @property
    def powers(self):
        """Allocated powers p[n, k] = ||w[n, k]||^2 in watts."""
        return np.sum(np.abs(self.w) ** 2, axis=-1)

    @property
    def directions(self):
        """Unit-norm directions where power > 0, zero vectors elsewhere."""
        norms = np.linalg.norm(self.w, axis=-1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        return np.where(norms > 0, self.w / safe, 0.0)

    def check_power(self, max_power):
        """Raise PowerConstraintError naming the first BS over budget."""
        per_bs = self.powers.sum(axis=1)
        limit = max_power * (1.0 + POWER_SLACK)
        over = np.nonzero(per_bs > limit)[0]
        if over.size:
            n = int(over[0])
            raise PowerConstraintError(
                f"BS {n} transmits {per_bs[n]:.6e} W, budget {max_power:.6e} W"
            )

    @classmethod
    def from_power_and_directions(cls, p, directions):
        """Recompose w[n, k] = sqrt(p[n, k]) * w_bar[n, k]."""
        p = np.asarray(p, dtype=float)
        return cls(np.sqrt(p)[..., None] * np.asarray(directions))


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
    """Evaluate SINR, rate and interference bookkeeping for one slot.

    Vectorized over all links.  The per-BS power constraint is checked first;
    a violation raises PowerConstraintError naming the offending BS.
    """
    beams.check_power(cfg.max_power)
    h = channel.h
    w = beams.w
    num_cells, _, users, _ = h.shape

    # cross[m, n, k, j] = h[m, n, k]^H w[m, j]
    cross = np.einsum("mnka,mja->mnkj", h.conj(), w)
    cross_pow = np.abs(cross) ** 2

    idx = np.arange(num_cells)
    serving = cross_pow[idx, idx]  # (N, K, K): [n, k, j]
    received = serving[:, np.arange(users), np.arange(users)]  # (N, K)

    # interference[m, n, k]: all beams of BS m received at (n, k), minus the
    # own-beam term when m is the serving BS.
    interference = cross_pow.sum(axis=3)
    interference[idx, idx] -= received

    total_ipn = interference.sum(axis=0) + cfg.noise_power
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
