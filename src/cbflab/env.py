"""Multi-agent environment: per-BS states, action decoding and rewards.

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

Inter-cell information always lags one slot: cross-cell quantities of slot t
reach the other BSs at the start of slot t+1, so slot-t decisions use slot
t-1 measurements.

Feature scaling: powers and interference are mapped from dBm (clipped to
[-120, 40]) onto [-1, 1]; rates are divided by 10; index features by their
maximum; compressed-CSI parts by the channel norm.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .network import BeamformerSet, ChannelState, SlotMetrics, compute_metrics
from .solvers import StructuredParams, mslnr_params, structured_beamformer

# Additive floor on raw power ratios before normalization: keeps every
# decoded ratio strictly positive for any input in the unit box.
POWER_RATIO_EPS = 1e-3

# dBm window mapped affinely onto [-1, 1] for power-like features.
POWER_FLOOR_DBM = -120.0
POWER_CEIL_DBM = 40.0

RATE_SCALE = 10.0

ACTION_MODES = ("structured", "mslnr-power")


@dataclass(frozen=True)
class DftCodebook:
    """Uniform DFT codebook: C unit-norm columns over an M-antenna array."""

    matrix: np.ndarray  # (M, C)

    @property
    def num_antennas(self):
        return self.matrix.shape[0]

    @property
    def size(self):
        return self.matrix.shape[1]


def build_codebook(num_antennas, size):
    """Column c has entries exp(j*2*pi*a*c/C)/sqrt(M) over antennas a."""
    if num_antennas < 1 or size < 1:
        raise ValueError("codebook dimensions must be >= 1")
    a = np.arange(num_antennas)[:, None]
    c = np.arange(size)[None, :]
    matrix = np.exp(2j * np.pi * a * c / size) / np.sqrt(num_antennas)
    return DftCodebook(matrix=matrix)


@dataclass(frozen=True)
class CompressedCsi:
    """Top projections of a channel onto the codebook, strongest first.

    ``index_norm`` holds c/C for each kept column; ``values`` the raw complex
    projections (magnitudes non-increasing); ``channel_norm`` the Euclidean
    norm of the compressed channel, kept for feature scaling.
    """

    index_norm: np.ndarray
    values: np.ndarray
    channel_norm: float


def compress_csi(h, codebook, keep):
    """Project onto the codebook and keep the ``keep`` strongest entries.

    Ties in magnitude break toward the lower column index.
    """
    h = np.asarray(h)
    norm = np.linalg.norm(h)
    if norm == 0:
        raise ValueError("cannot compress a zero channel")
    d = codebook.matrix.conj().T @ h
    order = np.lexsort((np.arange(d.size), -np.abs(d)))[:keep]
    return CompressedCsi(
        index_norm=order / codebook.size,
        values=d[order],
        channel_norm=float(norm),
    )


def reconstruct_csi(comp, codebook):
    """Inverse map F @ d; exact when the compression kept every column."""
    idx = np.rint(comp.index_norm * codebook.size).astype(int)
    return codebook.matrix[:, idx] @ comp.values


def orthogonal_measure(channels):
    """Pairwise squared normalized inner products of a cell's user channels.

    Entry (j, k) is (|<h_j, h_k>| / (||h_j|| ||h_k||))^2: symmetric, in
    [0, 1], with unit diagonal.
    """
    channels = np.asarray(channels)
    norms = np.linalg.norm(channels, axis=1)
    if np.any(norms == 0):
        raise ValueError("orthogonal measure undefined for zero channels")
    unit = channels / norms[:, None]
    return np.abs(unit.conj() @ unit.T) ** 2


def select_interferers(interference, n, k, count):
    """The ``count`` BSs other than ``n`` hitting user (n, k) hardest.

    Ranked by previous-slot interference power, descending; ties break toward
    the lower BS index.
    """
    num_cells = interference.shape[0]
    if count > num_cells - 1:
        raise ValueError("cannot select more interferers than other cells")
    others = np.array([m for m in range(num_cells) if m != n])
    beta = interference[others, n, k]
    order = np.lexsort((others, -beta))
    return others[order[:count]]


def select_interfered(interference, n, count):
    """The ``count`` out-of-cell users that BS ``n`` disturbed hardest.

    Returns (count, 2) rows (cell, user), ranked by the interference this BS
    caused, descending, ties toward the lower flat index.
    """
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
        dbm = np.where(watts > 0, 10.0 * np.log10(watts) + 30.0, -np.inf)
    dbm = np.clip(dbm, POWER_FLOOR_DBM, POWER_CEIL_DBM)
    return (dbm - POWER_FLOOR_DBM) / (POWER_CEIL_DBM - POWER_FLOOR_DBM) * 2.0 - 1.0


def _csi_features(comp):
    """Interleaved (index, re, im) triples, parts scaled by the channel norm."""
    out = np.empty(3 * comp.values.size)
    out[0::3] = comp.index_norm
    out[1::3] = comp.values.real / comp.channel_norm
    out[2::3] = comp.values.imag / comp.channel_norm
    return out


@dataclass
class PrevSlotInfo:
    """Everything about slot t-1 an agent may consult at slot t."""

    metrics: object  # SlotMetrics
    powers: np.ndarray  # (N, K) allocated powers
    own_csi: list  # own_csi[n][k]: CompressedCsi of cell n's serving channels
    own_channels: np.ndarray  # (N, K, M) serving channels (checkpointing)


def build_state(n, channel, prev, own_csi, csi_keep, num_interferers):
    """Assemble agent ``n``'s observation for the current slot.

    ``channel`` is the current slot's ChannelState (only its own-cell part is
    consulted) and ``own_csi[n][k]`` the CompressedCsi of its serving channel
    ``channel.h[n, n, k]``, kept to ``csi_keep`` entries; every cross-cell
    quantity comes from ``prev``.  With ``prev=None`` (first slot) all
    previous-slot blocks are zero-filled.
    """
    num_cells = channel.num_cells
    users = channel.users_per_cell
    layout = state_layout(num_cells, users, csi_keep, num_interferers)
    own = channel.h[n, n]  # (K, M)

    local = np.zeros(layout["local"])
    pos = 0
    local[pos : pos + users * users] = orthogonal_measure(own).reshape(-1)
    pos += users * users
    for k in range(users):
        local[pos : pos + 3 * csi_keep] = _csi_features(own_csi[n][k])
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
            for i in select_interferers(beta, n, k, num_interferers):
                rec = in_block[pos : pos + width]
                rec[0] = i / num_cells
                at = 1
                for j in range(users):
                    rec[at : at + 3 * csi_keep] = _csi_features(prev.own_csi[i][j])
                    at += 3 * csi_keep
                rec[at : at + users] = _power_feature(prev.powers[i])
                rec[at + users] = _power_feature(beta[i, n, k])
                pos += width
        pairs = select_interfered(beta, n, users * num_interferers)
        pos = 0
        for m_cell, j in pairs:
            rec = out_block[pos : pos + 4]
            rec[0] = (m_cell * users + j) / (num_cells * users)
            rec[1] = prev.metrics.rate[m_cell, j] / RATE_SCALE
            rec[2] = _power_feature(beta[n, m_cell, j])
            rec[3] = beta[n, m_cell, j] / prev.metrics.total_ipn[m_cell, j]
            pos += 4

    return np.concatenate([local, in_block, out_block])


def action_dim(num_cells, users_per_cell, mode="structured"):
    if mode == "structured":
        return users_per_cell + num_cells * users_per_cell + 2
    if mode == "mslnr-power":
        return users_per_cell + 1
    raise ValueError(f"unknown action mode {mode!r}")


def _decode_power_split(action, num_cells, users_per_cell, mode):
    """Validate a raw action and decode its leading [q_1..q_K, q_total].

    Ratios are floored and renormalized to sum to one; the spent fraction is
    floored at the same epsilon.  Returns (action, q, q_total).
    """
    action = np.asarray(action, dtype=float)
    expected = action_dim(num_cells, users_per_cell, mode)
    if action.shape != (expected,):
        raise ValueError(f"action must have shape ({expected},)")
    if np.any(action < 0) or np.any(action > 1):
        raise ValueError("action entries must lie in [0, 1]")
    k = users_per_cell
    raw_q = action[:k] + POWER_RATIO_EPS
    q_total = max(float(action[k]), POWER_RATIO_EPS)
    return action, raw_q / raw_q.sum(), q_total


def decode_action(action, num_cells, users_per_cell, noise_power):
    """Map a raw [0, 1]^A action onto structured beamforming parameters.

    Layout: [q_1..q_K, q_total, alpha_{1,1}..alpha_{N,K}, mu].  Leakage
    weights pass through unchanged (the structure is invariant to jointly
    scaling alpha and mu, so [0, 1] weights lose no generality); mu maps
    log-uniformly onto [1e-3, 1e3] times the noise power.
    """
    k, n = users_per_cell, num_cells
    action, q, q_total = _decode_power_split(action, n, k, "structured")
    alpha = action[k + 1 : k + 1 + n * k].reshape(n, k)
    mu = noise_power * 10.0 ** (6.0 * (float(action[-1]) - 0.5))
    return StructuredParams(alpha=alpha, mu=mu, q=q, q_total=q_total)


def decode_power_action(action, num_cells, users_per_cell, noise_power):
    """Power-only decode: max-SLNR directions with a learned power split.

    Layout [q_1..q_K, q_total]; leakage weights are pinned to one and mu to
    the noise power, which reproduces the max-SLNR directions.
    """
    _, q, q_total = _decode_power_split(
        action, num_cells, users_per_cell, "mslnr-power"
    )
    return mslnr_params(num_cells, users_per_cell, noise_power, q, q_total)


@dataclass(frozen=True)
class RewardRecord:
    """reward = own_sum_rate - penalty, by construction."""

    reward: float
    own_sum_rate: float
    penalty: float


def compute_reward(n, metrics, interfered):
    """Distributed reward: own-cell sum rate minus the caused rate loss.

    Each penalty term is the rate user (m, j) would have had without this
    BS's interference, minus its actual rate, summed over the selected
    interfered users.  Denominators stay above the noise power, so the terms
    are finite and nonnegative.
    """
    own = float(metrics.rate[n].sum())
    penalty = 0.0
    for m, j in interfered:
        remainder = metrics.total_ipn[m, j] - metrics.interference[n, m, j]
        clean_rate = np.log2(1.0 + metrics.received_power[m, j] / remainder)
        penalty += float(clean_rate - metrics.rate[m, j])
    return RewardRecord(reward=own - penalty, own_sum_rate=own, penalty=penalty)


class BeamformingEnv:
    """Stepped multi-cell environment driven by per-BS actions.

    One ``step`` call decodes every agent's action into beamformers, scores
    the slot, computes distributed rewards, advances the fading process and
    returns next states carrying the one-slot-delayed cross-cell blocks.
    ``codebook_size``, ``csi_keep`` and ``num_interferers`` are required
    keyword arguments; there are no defaults here (the harness config holds
    them).  ``own_csi[n][k]`` is the CompressedCsi of the current slot's
    serving channel of user (n, k), computed once per slot.
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
        if action_mode not in ACTION_MODES:
            raise ValueError(f"action_mode must be one of {ACTION_MODES}")
        if num_interferers > net_cfg.num_cells - 1:
            raise ValueError(
                f"num_interferers={num_interferers} needs at least "
                f"{num_interferers + 1} cells, config has {net_cfg.num_cells}"
            )
        if csi_keep > codebook_size:
            raise ValueError("csi_keep cannot exceed the codebook size")
        self.net_cfg = net_cfg
        self.stream = stream
        self.codebook = build_codebook(net_cfg.num_antennas, codebook_size)
        self.csi_keep = csi_keep
        self.num_interferers = num_interferers
        self.action_mode = action_mode
        self.channel = None
        self.own_csi = None
        self.prev = None
        self.last_records = None

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
        return np.stack(
            [
                build_state(
                    n,
                    self.channel,
                    self.prev,
                    self.own_csi,
                    self.csi_keep,
                    self.num_interferers,
                )
                for n in range(self.net_cfg.num_cells)
            ]
        )

    def _compress(self, serving):
        """Compress a (N, K, M) serving-channel block, cell by cell."""
        return [
            [
                compress_csi(serving[n, k], self.codebook, self.csi_keep)
                for k in range(self.net_cfg.users_per_cell)
            ]
            for n in range(self.net_cfg.num_cells)
        ]

    def _enter(self, channel):
        """Make ``channel`` the current slot and compress its serving channels."""
        idx = np.arange(self.net_cfg.num_cells)
        self.channel = channel
        self.own_csi = self._compress(channel.h[idx, idx])

    def reset(self):
        """Start (or restart) the episode at the stream's next slot."""
        self._enter(self.stream.next_slot())
        self.prev = None
        self.last_records = None
        return self._states()

    def _beamformers(self, actions):
        cfg = self.net_cfg
        # Looked up per call rather than stored at construction, so a decoder
        # patched on the module (as perfbench's tracer does) takes effect.
        decode = (
            decode_action if self.action_mode == "structured" else decode_power_action
        )
        w = np.empty(
            (cfg.num_cells, cfg.users_per_cell, cfg.num_antennas),
            dtype=np.complex128,
        )
        for n in range(cfg.num_cells):
            params = decode(
                actions[n], cfg.num_cells, cfg.users_per_cell, cfg.noise_power
            )
            w[n] = structured_beamformer(self.channel.h[n], n, params, cfg.max_power)
        return BeamformerSet(w=w)

    def step(self, actions):
        """Apply one action per BS; returns (next_states, rewards, metrics)."""
        if self.channel is None:
            raise RuntimeError("call reset() before step()")
        cfg = self.net_cfg
        if len(actions) != cfg.num_cells:
            raise ValueError("need exactly one action per BS")
        beams = self._beamformers(actions)
        metrics = compute_metrics(self.channel, beams, cfg)

        records = []
        out_count = cfg.users_per_cell * self.num_interferers
        for n in range(cfg.num_cells):
            interfered = (
                select_interfered(metrics.interference, n, out_count)
                if out_count > 0
                else []
            )
            records.append(compute_reward(n, metrics, interfered))
        self.last_records = records
        rewards = np.array([r.reward for r in records])

        idx = np.arange(cfg.num_cells)
        self.prev = PrevSlotInfo(
            metrics=metrics,
            powers=beams.powers,
            own_csi=self.own_csi,
            own_channels=self.channel.h[idx, idx],
        )
        self._enter(self.stream.next_slot())
        return self._states(), rewards, metrics

    # -- checkpointing ----------------------------------------------------

    def state_dict(self):
        """This env's run-checkpoint entries as a pair (arrays, meta).

        The stream's entries are included; ``harness.save_checkpoint`` lays
        them out.  The arrays are copies.
        """
        if self.channel is None:
            raise RuntimeError("call reset() before state_dict()")
        stream_arrays, stream_meta = self.stream.state_dict()
        arrays = {"env_channel_h": self.channel.h.copy(), **stream_arrays}
        if self.prev is not None:
            m = self.prev.metrics
            prev = {f.name: getattr(m, f.name) for f in fields(SlotMetrics)}
            prev.update(powers=self.prev.powers, own_channels=self.prev.own_channels)
            for name, value in prev.items():
                arrays[f"prev_{name}"] = value.copy()
        meta = {
            "env_slot": self.channel.slot_index,
            "stream": stream_meta,
            "has_prev": self.prev is not None,
        }
        return arrays, meta

    def load_state_dict(self, state):
        """Restore a ``state_dict`` pair; ``arrays`` may be a whole checkpoint.

        Only this env's and its stream's keys are read, and the env takes
        ownership of what it reads.
        """
        arrays, meta = state
        self.stream.load_state_dict((arrays, meta["stream"]))
        self._enter(
            ChannelState(slot_index=int(meta["env_slot"]), h=arrays["env_channel_h"])
        )
        self.prev = None
        if meta["has_prev"]:
            metrics = SlotMetrics(
                **{f.name: arrays[f"prev_{f.name}"] for f in fields(SlotMetrics)}
            )
            own_channels = arrays["prev_own_channels"]
            self.prev = PrevSlotInfo(
                metrics=metrics,
                powers=arrays["prev_powers"],
                own_csi=self._compress(own_channels),
                own_channels=own_channels,
            )
        self.last_records = None
