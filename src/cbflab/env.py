"""Multi-agent environment: the states, action decoding and rewards of all BSs.

Each BS observes three blocks, concatenated into one fixed-layout vector:

* local block  -- spatial-correlation matrix of its own users' channels, the
  DFT-compressed CSI of those channels (both current-slot), and the previous
  slot's powers, rates, received powers and interference-plus-noise levels;
* interferer block -- for every own user, records about the strongest
  interfering BSs of the previous slot (index, that BS's compressed CSI and
  power split, the interference it caused);
* interfered block -- records about the out-of-cell users this BS disturbed
  most in the previous slot (index, rate, caused interference, fractional
  share of the victim's total interference-plus-noise).

A slot runs each stage once for all N BSs, on stacked arrays: one pass
compresses the (N, K, M) serving channels, one builds the (N, state_dim)
states, one decodes the (N, A) actions into a stack of structured parameters
that one stacked solve turns into beamformers, and one scores the N rewards.
``decode_beams`` is the one path from raw actions to beamformers, for both
action modes: a power-only (``mslnr-power``) row is the structured row with
its leakage weights and mu pinned at the max-SLNR point.
The interfered users are selected once per slot, from that slot's
interference; the rewards and the next slot's interfered blocks both read
that selection.

Inter-cell information always lags one slot: cross-cell quantities of slot t
reach the other BSs at the start of slot t+1, so slot-t decisions use slot
t-1 measurements.

Feature scaling: powers and interference are mapped from dBm (clipped to
[-120, 40]) onto [-1, 1]; rates are divided by 10; index features by their
maximum; compressed-CSI parts by the channel norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BeamformerSet, compute_metrics, watt_to_dbm
from .solvers import StructuredParams, structured_beamformer

# Additive floor on raw power ratios before normalization: keeps every
# decoded ratio strictly positive for any input in the unit box.
POWER_RATIO_EPS = 1e-3

# dBm window mapped affinely onto [-1, 1] for power-like features.
POWER_FLOOR_DBM = -120.0
POWER_CEIL_DBM = 40.0

RATE_SCALE = 10.0

ACTION_MODES = ("structured", "mslnr-power")


def build_codebook(num_antennas, size):
    """(M, C) DFT codebook: column c has entries exp(j*2*pi*a*c/C)/sqrt(M)."""
    if num_antennas < 1 or size < 1:
        raise ValueError("codebook dimensions must be >= 1")
    a = np.arange(num_antennas)[:, None]
    c = np.arange(size)[None, :]
    return np.exp(2j * np.pi * a * c / size) / np.sqrt(num_antennas)


def compress_csi(h, codebook, keep):
    """Project (..., M) channels onto the (M, C) codebook; keep the ``keep`` strongest.

    Returns (index, values, norm): the kept columns (..., keep), strongest
    first, ties toward the lower column; their complex projections; and the
    norm (...) of each channel, kept for feature scaling.
    """
    h = np.asarray(h)
    # The dot products of the real and imaginary parts: what
    # np.linalg.norm computes for one channel, here for all of them.
    norm = np.sqrt(np.vecdot(h.real, h.real) + np.vecdot(h.imag, h.imag))
    if np.any(norm == 0):
        raise ValueError("cannot compress a zero channel")
    d = np.matmul(codebook.conj().T, h[..., None])[..., 0]
    index = np.argsort(-np.abs(d), axis=-1, kind="stable")[..., :keep]
    return index, np.take_along_axis(d, index, axis=-1), norm


def csi_features(h, codebook, keep):
    """Compressed-CSI features (..., 3 * keep) of (..., M) channels.

    Interleaved (index, re, im) triples: the column index over the codebook
    size and the projection's parts over the channel norm.
    """
    index, values, norm = compress_csi(h, codebook, keep)
    out = np.empty((*values.shape[:-1], 3 * keep))
    out[..., 0::3] = index / codebook.shape[1]
    out[..., 1::3] = values.real / norm[..., None]
    out[..., 2::3] = values.imag / norm[..., None]
    return out


def orthogonal_measure(channels):
    """Pairwise squared normalized inner products of a cell's user channels.

    Stacked over the leading axes of (..., K, M) channels.  Entry (j, k) is
    (|<h_j, h_k>| / (||h_j|| ||h_k||))^2: symmetric, in [0, 1], with unit
    diagonal.
    """
    channels = np.asarray(channels)
    norms = np.linalg.norm(channels, axis=-1)
    if np.any(norms == 0):
        raise ValueError("orthogonal measure undefined for zero channels")
    unit = channels / norms[..., None]
    return np.abs(unit.conj() @ unit.swapaxes(-1, -2)) ** 2


def select_interferers(interference, count):
    """For every user (n, k), the ``count`` BSs other than n hitting it hardest.

    Returns (N, K, count) BS indices, ranked by previous-slot interference
    power, descending; ties break toward the lower BS index.
    """
    num_cells = interference.shape[0]
    if count > num_cells - 1:
        raise ValueError("cannot select more interferers than other cells")
    key = -interference.transpose(1, 2, 0)  # key[n, k, m] = -beta[m, n, k]
    idx = np.arange(num_cells)
    key[idx, :, idx] = np.inf
    return np.argsort(key, axis=-1, kind="stable")[..., :count]


def select_interfered(interference, count):
    """For every BS n, the ``count`` out-of-cell users it disturbed hardest.

    Returns (N, count) flat user indices m * K + j, ranked by the
    interference BS n caused, descending, ties toward the lower flat index.
    """
    num_cells, _, users = interference.shape
    if count > (num_cells - 1) * users:
        raise ValueError("cannot select more interfered users than exist")
    key = -interference  # key[n, m, j] = -beta[n, m, j]
    idx = np.arange(num_cells)
    key[idx, idx] = np.inf
    key = key.reshape(num_cells, num_cells * users)
    return np.argsort(key, axis=-1, kind="stable")[:, :count]


def state_layout(num_cells, users_per_cell, csi_keep, num_interferers):
    """Block widths of the agent state vector for the given dimensions."""
    k, u, nc = users_per_cell, num_interferers, csi_keep
    local = k * k + 3 * nc * k + 4 * k
    per_interferer = 1 + 3 * nc * k + k + 1
    return {
        "local": local,
        "interferers": k * u * per_interferer,
        "interfered": 4 * k * u,
        "total": local + k * u * per_interferer + 4 * k * u,
    }


def _power_feature(watts):
    """Map watts to [-1, 1] through dBm clipped to the feature window."""
    watts = np.asarray(watts, dtype=float)
    with np.errstate(divide="ignore"):
        dbm = np.where(watts > 0, watt_to_dbm(watts), -np.inf)
    dbm = np.clip(dbm, POWER_FLOOR_DBM, POWER_CEIL_DBM)
    return (dbm - POWER_FLOOR_DBM) / (POWER_CEIL_DBM - POWER_FLOOR_DBM) * 2.0 - 1.0


@dataclass
class PrevSlotInfo:
    """Everything about slot t-1 the agents may consult at slot t."""

    metrics: object  # SlotMetrics
    powers: np.ndarray  # (N, K) allocated powers
    csi: np.ndarray  # (N, K, 3 * csi_keep) csi_features of the serving channels
    interfered: np.ndarray  # (N, K * num_interferers) select_interfered of metrics


def build_state(serving, csi, prev, num_interferers):
    """Assemble the observations of all N BSs for the current slot.

    ``serving`` holds the current slot's (N, K, M) serving channels and
    ``csi`` their ``csi_features``; every cross-cell quantity comes from
    ``prev``.  With ``prev=None`` (first slot) all previous-slot blocks are
    zero-filled.  Returns (N, state_dim); row n is BS n's state.
    """
    num_cells, users, _ = serving.shape
    layout = state_layout(num_cells, users, csi.shape[-1] // 3, num_interferers)

    def per_bs(*parts):  # each (N, ...) part flattened per BS, side by side
        return np.concatenate([p.reshape(num_cells, -1) for p in parts], axis=1)

    states = np.zeros((num_cells, layout["total"]))
    own = per_bs(orthogonal_measure(serving), csi)
    states[:, : own.shape[1]] = own
    if prev is None:
        return states
    m = prev.metrics
    powers = _power_feature(prev.powers)
    states[:, own.shape[1] : layout["local"]] = per_bs(
        powers,
        m.rate / RATE_SCALE,
        _power_feature(m.received_power),
        _power_feature(m.total_ipn),
    )
    if num_interferers == 0:
        return states

    beta = m.interference
    # Interferer records: for every own user (n, k) and each of its strongest
    # interferers i, [i / N, i's CSI, i's powers, beta[i, n, k]].
    top = select_interferers(beta, num_interferers)  # (N, K, U)
    n_idx, k_idx = np.ogrid[:num_cells, :users]
    inflicted = _power_feature(beta)[top, n_idx[..., None], k_idx[..., None]]
    cells = per_bs(prev.csi, powers)  # row i: BS i's CSI, powers
    records = [(top / num_cells)[..., None], cells[top], inflicted[..., None]]
    start, stop = layout["local"], layout["local"] + layout["interferers"]
    states[:, start:stop] = np.concatenate(records, axis=-1).reshape(num_cells, -1)
    # Interfered records: for each user (m, j) that BS n disturbed most,
    # [flat index / (N K), its rate, the caused interference, that
    # interference over the user's total interference-plus-noise].
    flat = prev.interfered  # (N, K * U)
    caused = beta.reshape(num_cells, -1)[np.arange(num_cells)[:, None], flat]
    records = [
        flat / (num_cells * users),
        m.rate.reshape(-1)[flat] / RATE_SCALE,
        _power_feature(caused),
        caused / m.total_ipn.reshape(-1)[flat],
    ]
    states[:, stop:] = np.stack(records, axis=-1).reshape(num_cells, -1)
    return states


def action_dim(num_cells, users_per_cell, mode="structured"):
    if mode == "structured":
        return users_per_cell + num_cells * users_per_cell + 2
    if mode == "mslnr-power":
        return users_per_cell + 1
    raise ValueError(f"unknown action mode {mode!r}")


def _check_rows(actions, width):
    if actions.ndim != 2 or actions.shape[1] != width:
        raise ValueError(f"actions must have shape (S, {width}), one row per BS")


def decode_action(actions, num_cells, users_per_cell, noise_power):
    """Map raw [0, 1]^A actions, one row per BS, onto structured parameters.

    Row layout: [q_1..q_K, q_total, alpha_{1,1}..alpha_{N,K}, mu].  Power
    ratios are floored at ``POWER_RATIO_EPS`` and renormalized to sum to one;
    the spent fraction is floored at the same epsilon.  Leakage weights pass
    through unchanged (the structure is invariant to jointly scaling alpha
    and mu, so [0, 1] weights lose no generality); mu maps log-uniformly onto
    [1e-3, 1e3] times the noise power, and an entry of 0.5 decodes to the
    noise power exactly.  Row s becomes stack entry s of the returned
    StructuredParams.  An entry outside [0, 1], a NaN included, raises
    ValueError naming the first such row's BS.
    """
    k, n = users_per_cell, num_cells
    actions = np.asarray(actions, dtype=float)
    _check_rows(actions, action_dim(n, k))
    outside = np.flatnonzero(~np.all((actions >= 0) & (actions <= 1), axis=1))
    if outside.size:
        raise ValueError(f"BS {outside[0]}: action entries must lie in [0, 1]")
    raw_q = actions[:, :k] + POWER_RATIO_EPS
    q = raw_q / raw_q.sum(axis=1, keepdims=True)
    q_total = np.maximum(actions[:, k], POWER_RATIO_EPS)
    alpha = actions[:, k + 1 : k + 1 + n * k].reshape(-1, n, k)
    mu = noise_power * 10.0 ** (6.0 * (actions[:, -1] - 0.5))
    return StructuredParams(alpha=alpha, mu=mu, q=q, q_total=q_total)


def decode_beams(actions, h, net_cfg, action_mode):
    """Beamformers (S, K, M) of the first S BSs from S raw action rows.

    ``h`` is the slot's (N, N, K, M) channel tensor and row s of ``actions``
    belongs to BS s.  A ``mslnr-power`` row [q_1..q_K, q_total] is the
    structured row with every leakage entry at 1.0 and the mu entry at 0.5,
    which ``decode_action`` maps to alpha = 1 and mu = noise power: the
    max-SLNR directions with a learned power split.  Both calls below go
    through this module's names, which perfbench's tracer wraps.
    """
    n, k = net_cfg.num_cells, net_cfg.users_per_cell
    if action_mode == "mslnr-power":
        actions = np.asarray(actions, dtype=float)
        _check_rows(actions, action_dim(n, k, action_mode))
        pinned = np.ones((len(actions), n * k + 1))
        pinned[:, -1] = 0.5
        actions = np.concatenate([actions, pinned], axis=1)
    params = decode_action(actions, n, k, net_cfg.noise_power)
    stack = len(actions)
    return structured_beamformer(h[:stack], np.arange(stack), params, net_cfg.max_power)


@dataclass(frozen=True)
class RewardRecord:
    """Per-BS (N,) arrays: reward = own_sum_rate - penalty, by construction."""

    reward: np.ndarray
    own_sum_rate: np.ndarray
    penalty: np.ndarray


def compute_reward(metrics, interfered):
    """Distributed rewards of all BSs: own-cell sum rate minus the caused rate loss.

    ``interfered`` holds each BS's selected users as (N, C) flat indices
    m * K + j (``select_interfered``).  Each penalty term is the rate user
    (m, j) would have had without this BS's interference, minus its actual
    rate; a BS adds its terms in selection order.  Denominators stay above
    the noise power, so the terms are finite and nonnegative.
    """
    num_cells = metrics.rate.shape[0]
    caused = metrics.interference.reshape(num_cells, -1)[
        np.arange(num_cells)[:, None], interfered
    ]
    remainder = metrics.total_ipn.reshape(-1)[interfered] - caused
    clean_rate = np.log2(1.0 + metrics.received_power.reshape(-1)[interfered] / remainder)
    terms = clean_rate - metrics.rate.reshape(-1)[interfered]
    penalty = np.zeros(num_cells)
    for term in terms.T:
        penalty += term
    own = metrics.rate.sum(axis=1)
    return RewardRecord(reward=own - penalty, own_sum_rate=own, penalty=penalty)


class BeamformingEnv:
    """Stepped multi-cell environment driven by one action per BS.

    ``step`` runs each stage once for all N BSs: one decode and one stacked
    solve of the (N, A) actions, the slot's metrics, one selection of the
    interfered users that the N rewards and the next states both read, and
    the (N, state_dim) next states with the one-slot-delayed cross-cell
    blocks.  ``codebook_size``, ``csi_keep`` and ``num_interferers`` are
    required keyword arguments, checked by ``check_settings``; there are no
    defaults here (the harness config holds them).  ``serving`` holds the
    current slot's (N, K, M) serving channels, ``csi`` their
    ``csi_features`` and ``last_reward`` the last step's RewardRecord.

    A run checkpoint stores only the stream's position (the stream's
    ``state_dict``; the env has none).  After the stream's
    ``load_state_dict``, ``resume`` stands the env at the stream's current
    slot with no previous slot, as ``reset`` does: the next ``step`` records
    its own ``prev`` before anything reads it, and the states the agents act
    on (which carry the delayed reports) are the caller's to store.
    """

    def __init__(
        self,
        net_cfg,
        stream,
        *,
        codebook_size,
        csi_keep,
        num_interferers,
        action_mode="structured",
    ):
        self.check_settings(
            net_cfg.num_cells, codebook_size, csi_keep, num_interferers, action_mode
        )
        self.net_cfg = net_cfg
        self.stream = stream
        self.codebook = build_codebook(net_cfg.num_antennas, codebook_size)
        self.csi_keep = csi_keep
        self.num_interferers = num_interferers
        self.action_mode = action_mode
        self.channel = None
        self.serving = None
        self.csi = None
        self.prev = None
        self.last_reward = None

    @staticmethod
    def check_settings(num_cells, codebook_size, csi_keep, num_interferers, action_mode):
        """Raise ValueError for settings no env over ``num_cells`` cells runs with.

        The message starts with the setting's name.
        """
        if action_mode not in ACTION_MODES:
            raise ValueError(f"action_mode must be one of {ACTION_MODES}")
        if not 0 <= num_interferers <= num_cells - 1:
            raise ValueError("num_interferers must be <= num_cells - 1 and >= 0")
        if not 0 <= csi_keep <= codebook_size:
            raise ValueError("csi_keep must be <= codebook_size and >= 0")

    @property
    def state_dim(self):
        return state_layout(
            self.net_cfg.num_cells,
            self.net_cfg.users_per_cell,
            self.csi_keep,
            self.num_interferers,
        )["total"]

    @property
    def action_dim(self):
        return action_dim(
            self.net_cfg.num_cells, self.net_cfg.users_per_cell, self.action_mode
        )

    def _states(self):
        return build_state(self.serving, self.csi, self.prev, self.num_interferers)

    def _select_interfered(self, metrics):
        count = self.net_cfg.users_per_cell * self.num_interferers
        return select_interfered(metrics.interference, count)

    def _enter(self, channel):
        """Make ``channel`` the current slot and compress its serving channels."""
        idx = np.arange(self.net_cfg.num_cells)
        self.channel = channel
        self.serving = channel.h[idx, idx]
        self.csi = csi_features(self.serving, self.codebook, self.csi_keep)

    def reset(self):
        """Start (or restart) the episode at the stream's next slot."""
        self.stream.next_slot()
        self.resume()
        return self._states()

    def step(self, actions):
        """Apply one action per BS; returns (next_states, rewards, metrics)."""
        if self.channel is None:
            raise RuntimeError("call reset() before step()")
        if len(actions) != self.net_cfg.num_cells:
            raise ValueError("need exactly one action per BS")
        beams = BeamformerSet(
            w=decode_beams(actions, self.channel.h, self.net_cfg, self.action_mode)
        )
        metrics = compute_metrics(self.channel, beams, self.net_cfg)
        interfered = self._select_interfered(metrics)
        self.last_reward = compute_reward(metrics, interfered)
        self.prev = PrevSlotInfo(
            metrics=metrics,
            powers=beams.powers,
            csi=self.csi,
            interfered=interfered,
        )
        self._enter(self.stream.next_slot())
        return self._states(), self.last_reward.reward, metrics

    def resume(self):
        """Stand at the stream's current slot with no previous slot.

        ``reset`` calls it after advancing the stream, a resume after
        restoring it; ``prev`` and ``last_reward`` become None.  ValueError
        if the stream has read no slot yet.
        """
        channel = self.stream.current
        if channel is None:
            raise ValueError("the channel stream has read no slot yet")
        self._enter(channel)
        self.prev = None
        self.last_reward = None
