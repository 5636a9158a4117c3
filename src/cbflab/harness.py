"""Experiment harness: configuration, training runs, benchmarks and timing.

Configs are flat ``key = value`` text files ('#' starts a comment).  The
keys and their defaults are the fields of ``RunConfig``, the one table of run
settings: unknown keys are rejected, every omitted key falls back to its
field's default, and dB/dBm values are converted to linear watts right here
at the boundary.  Agents are built from, and resumed agents checked against,
``RunConfig.hyperparameters``: the fields named in ``drl.HYPERPARAMETERS``.

Metric output is a versioned CSV (deterministic: two runs with the same
config and seeds produce bit-identical files, however many threads train the
agents; BLAS runs on one thread per call) plus a JSON-lines event log that
carries timestamps, wall-clock measurements and checkpoint notices --
everything that may legitimately differ between runs.  One parser reads both
versioned CSVs back (``MetricSink.read``, ``read_bench``).
Training and benchmarks load a configured trace through one dimension check,
and a run checkpoint through one opener that checks it before any agent is
built (``_open_checkpoint``).
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import json
import math
import os
import time
import zipfile
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .channel import (
    ChannelMismatchError,
    ChannelModelConfig,
    ChannelProcess,
    TraceFormatError,
    TraceStream,
    check_fingerprint,
    generate_trace,
    load_trace,
    save_trace,
)
from .drl import (
    AGENT_META,
    CHECKPOINT_VERSION,
    HYPERPARAMETERS,
    DdpgAgent,
    Mlp,
    actor_layer_sizes,
    read_entry,
    read_meta,
    replacing,
)
from .env import BeamformingEnv, decode_beams
from .network import ChannelState, NetworkConfig, compute_metrics, dbm_to_watt
from .solvers import (
    mrt_beamformer,
    mslnr_beams,
    wmmse,
    wmmse_multi_init,
)

METRICS_VERSION = "cbflab-metrics-v1"
BENCH_VERSION = "cbflab-bench-v1"
OUT_DIR_ENV_VAR = "CBFLAB_OUT_DIR"

SCHEMES = ("ddcbf", "mslnr-ddpg", "mslnr-ep", "wmmse", "wmmse-nri")

# The max-SLNR bench solves and scores this many window slots as one stack,
# and a trace's channels are checked this many slots at a time.  At ref7 a
# block's leakage matrices take about 2 MB, inside a 4 MB L2 cache.  On a
# 200-slot ref7 window, blocks of 8 ran 7% slower per slot than 16, longer
# blocks no faster, and each slot of a block added 0.3 MB to the peak memory.
_SLOT_BLOCK = 16


class ConfigError(ValueError):
    """Raised for unknown keys, bad values or violated config constraints."""


def _parse_list(text):
    return tuple(part.strip() for part in str(text).split(",") if part.strip())


def _parse_hidden(text):
    return tuple(int(part) for part in _parse_list(text))


def _parse_corr(text):
    return None if str(text).strip() == "auto" else float(text)


_COUNT = {"count": True}  # metadata of the count keys, which must be >= 1

# Fields of the derived configs that hold a config key's value under another
# name (and in a unit of the same sign); their errors name the key instead.
# max_power and noise_power are left out: a dBm key has no sign constraint,
# so _dbm_key_to_watt checks their converted values.
_KEY_OF_FIELD = {
    "carrier_freq": "carrier_freq_ghz",
    "cell_radius": "cell_radius_m",
    "slot_duration": "slot_duration_ms",
    "ue_speed": "ue_speed_kmh",
    "model_kind": "channel_model",
    "pathloss_ref_dist": "pathloss_ref_dist_m",
    "rng_seed": "seed",
}


def _dbm_key_to_watt(key, dbm):
    """The watts of a dBm key; ConfigError unless finite and > 0."""
    try:
        watts = dbm_to_watt(dbm)
    except OverflowError:
        watts = math.inf
    if not 0.0 < watts < math.inf:
        raise ConfigError(f"{key} = {dbm:g} dBm is not a finite power > 0 W")
    return watts


# Parsers of the plain annotations (strings under ``from __future__ import
# annotations``).
_PARSERS = {"int": int, "float": float, "str": str}


@dataclass(kw_only=True)
class RunConfig:
    """The table of run settings: one field per config-file key.

    A field's default is the key's documented default; a field without one
    is a mandatory key.  String values are parsed on construction, by the
    field's ``parse`` metadata or else by its annotated type, so a config
    built from raw text and one built with ``dataclasses.replace`` come out
    alike.  ``network`` and ``channel`` are derived from the fields, and the
    count keys, ``wmmse_stop_eps`` (> 0), ``bench_offset`` (-1 for auto, or
    >= 0), the agent and env settings (by the checks of ``DdpgAgent`` and
    ``BeamformingEnv``) and the schemes checked, in ``__post_init__``
    (``replace`` reruns both).  ``hyperparameters`` gathers the agent
    settings into one dict.  Every float key must be finite, and the dBm
    keys must convert to a finite power above 0 W.  A ValueError of the
    derived configs becomes a ConfigError that names the config key, not the
    derived field.
    """

    # network
    num_cells: int
    users_per_cell: int
    array_rows: int
    array_cols: int
    p_max_dbm: float = 38.0
    noise_dbm: float = -101.0
    carrier_freq_ghz: float = 2.6
    cell_radius_m: float = 250.0
    slot_duration_ms: float = 20.0
    ue_speed_kmh: float = 3.0
    # channel model ("auto" temporal correlation follows from the mobility)
    channel_model: str = "geometric-ura"
    temporal_corr: float | None = field(default="auto", metadata={"parse": _parse_corr})
    pathloss_exponent: float = 3.0
    pathloss_ref_db: float = 36.0
    pathloss_ref_dist_m: float = 1.0
    num_rays: int = 8
    angular_spread_deg: float = 10.0
    trace_file: str = ""
    # agent
    hidden_sizes: tuple = field(default=(128, 64, 32), metadata={"parse": _parse_hidden})
    memory_capacity: int = field(default=2000, metadata=_COUNT)
    batch_size: int = field(default=256, metadata=_COUNT)
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    discount: float = 0.5
    soft_update_rate: float = 0.01
    noise_sigma_init: float = 0.6
    noise_decay: float = 1e-3
    noise_sigma_min: float = 0.01
    codebook_size: int = field(default=128, metadata=_COUNT)
    csi_keep: int = 3
    num_interferers: int = 2
    action_mode: str = "structured"
    # run control
    num_slots: int = field(default=20000, metadata=_COUNT)
    eval_window: int = field(default=200, metadata=_COUNT)
    bench_slots: int = field(default=200, metadata=_COUNT)
    bench_offset: int = -1
    seed: int
    out_dir: str
    checkpoint_every: int = field(default=5000, metadata=_COUNT)
    schemes: tuple = field(default="ddcbf,mslnr-ep,wmmse", metadata={"parse": _parse_list})
    # wmmse baseline: stop once the sum rate changes by less than
    # wmmse_stop_eps relative to its current value
    wmmse_stop_eps: float = 1e-4
    wmmse_max_iter: int = field(default=500, metadata=_COUNT)
    wmmse_num_inits: int = field(default=10, metadata=_COUNT)
    # derived
    network: NetworkConfig = field(init=False)
    channel: ChannelModelConfig = field(init=False)

    def __post_init__(self):
        for f in _config_keys():
            value = getattr(self, f.name)
            if not isinstance(value, str):
                continue
            parse = f.metadata.get("parse") or _PARSERS[f.type]
            try:
                setattr(self, f.name, parse(value))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"key '{f.name}': cannot parse {value!r}") from exc
        for f in _config_keys():
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
            if f.metadata.get("count") and getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1")
        if not self.wmmse_stop_eps > 0:
            raise ConfigError("wmmse_stop_eps must be > 0")
        if self.bench_offset < -1:
            raise ConfigError("bench_offset must be -1 (auto) or >= 0")

        max_power = _dbm_key_to_watt("p_max_dbm", self.p_max_dbm)
        noise_power = _dbm_key_to_watt("noise_dbm", self.noise_dbm)
        try:  # the lower classes' own checks raise ValueError
            self.network = NetworkConfig(
                num_cells=self.num_cells,
                users_per_cell=self.users_per_cell,
                array_rows=self.array_rows,
                array_cols=self.array_cols,
                max_power=max_power,
                noise_power=noise_power,
                carrier_freq=self.carrier_freq_ghz * 1e9,
                cell_radius=self.cell_radius_m,
                slot_duration=self.slot_duration_ms / 1e3,
                ue_speed=self.ue_speed_kmh / 3.6,
            )
            self.channel = ChannelModelConfig(
                model_kind=self.channel_model,
                temporal_corr=self.temporal_corr,
                pathloss_exponent=self.pathloss_exponent,
                pathloss_ref_db=self.pathloss_ref_db,
                pathloss_ref_dist=self.pathloss_ref_dist_m,
                num_rays=self.num_rays,
                angular_spread_deg=self.angular_spread_deg,
                rng_seed=self.seed,
            )
            DdpgAgent.check_hyperparameters(self.hyperparameters)
            BeamformingEnv.check_settings(
                self.num_cells,
                self.codebook_size,
                self.csi_keep,
                self.num_interferers,
                self.action_mode,
            )
        except ValueError as exc:
            name, _, rest = str(exc).partition(" ")
            raise ConfigError(f"{_KEY_OF_FIELD.get(name, name)} {rest}") from exc

        if not self.schemes:
            raise ConfigError("schemes must list at least one scheme")
        for scheme in self.schemes:
            if scheme not in SCHEMES:
                raise ConfigError(f"unknown scheme '{scheme}' (choices: {SCHEMES})")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError("schemes must not list a scheme twice")

    @property
    def hyperparameters(self):
        """The agent settings, by ``drl.HYPERPARAMETERS`` name."""
        return {name: getattr(self, name) for name in HYPERPARAMETERS}


def _config_keys():
    return [f for f in fields(RunConfig) if f.init]


def build_config(values):
    """Assemble a RunConfig from a flat key -> raw-value mapping.

    A non-empty ``CBFLAB_OUT_DIR`` environment variable overrides ``out_dir``.
    """
    keys = _config_keys()
    names = {f.name for f in keys}
    for key in values:
        if key not in names:
            raise ConfigError(f"unknown key '{key}'")
    for f in keys:
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"missing mandatory key '{f.name}'")
    out_dir = os.environ.get(OUT_DIR_ENV_VAR, "").strip()
    if out_dir:
        values = {**values, "out_dir": out_dir}
    return RunConfig(**values)


def parse_config(path):
    """Parse a flat key = value config file.

    Raises ConfigError with the offending line number for unknown keys,
    malformed lines or bad values, and naming the file if it is not UTF-8
    text.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    keys = {f.name for f in _config_keys()}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        values[key] = raw.strip()
    try:
        return build_config(values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_defaults():
    """Documented defaults for every optional key."""
    return {f.name: f.default for f in _config_keys() if f.default is not MISSING}


class MetricSink:
    """Per-slot CSV metrics plus a JSON-lines event log.

    The CSV is append-only and flushed per slot; floats are written with
    ``repr`` so values round-trip losslessly.  Timestamps and wall-clock
    figures go to the event log only, keeping the CSV bit-reproducible.

    With ``resume_rows`` set, the sink reopens an existing run instead: the
    CSV is cut back to its first ``resume_rows`` slot rows (those a
    checkpoint covers) and both files are appended to; a missing or shorter
    CSV raises ConfigError, and nothing is created.  Use the sink as a
    context manager so both files close on every exit.
    """

    def __init__(self, out_dir, num_cells, basename="train", resume_rows=None):
        self.csv_path = os.path.join(out_dir, f"{basename}.csv")
        self.events_path = os.path.join(out_dir, f"{basename}_events.jsonl")
        columns = ["slot", "scheme", "sum_rate"]
        columns += [f"cell_rate_{n}" for n in range(num_cells)]
        columns += [f"reward_{n}" for n in range(num_cells)]
        columns += ["sigma_a"]
        if resume_rows is None:
            os.makedirs(out_dir, exist_ok=True)
            self._csv = open(self.csv_path, "w")
            self._csv.write(f"# {METRICS_VERSION}\n" + ",".join(columns) + "\n")
            self._csv.flush()
        else:
            try:
                with open(self.csv_path, "rb") as fh:
                    lines = fh.readlines()
            except FileNotFoundError:
                raise ConfigError(
                    f"{self.csv_path} not found: a resumed run appends to the metrics "
                    "of the run it resumes"
                ) from None
            if len(lines) < 2 + resume_rows:
                raise ConfigError(
                    f"{self.csv_path} holds {len(lines) - 2} rows, "
                    f"the checkpoint covers {resume_rows}"
                )
            # Cut in place: rewriting the kept rows would lose them to a crash.
            os.truncate(self.csv_path, sum(map(len, lines[: 2 + resume_rows])))
            self._csv = open(self.csv_path, "a")
        self._events = open(self.events_path, "w" if resume_rows is None else "a")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def write_slot(self, slot, scheme, cell_rates, rewards, sigma_a):
        parts = [str(slot), scheme, repr(float(np.sum(cell_rates)))]
        parts += [repr(float(x)) for x in cell_rates]
        parts += [repr(float(x)) for x in rewards]
        parts += [repr(float(sigma_a))]
        self._csv.write(",".join(parts) + "\n")
        self._csv.flush()

    def event(self, kind, **payload):
        record = {"kind": kind, "time": time.time(), **payload}
        self._events.write(json.dumps(record) + "\n")
        self._events.flush()

    def close(self):
        self._csv.close()
        self._events.close()

    @staticmethod
    def read(path):
        """Parse a metrics CSV back into a list of row dicts."""
        return _read_rows(path, METRICS_VERSION)


def _read_rows(path, version):
    """Row dicts of a ``version`` CSV: ``slot`` an int, ``scheme`` a string, the rest floats."""
    with open(path) as fh:
        found = fh.readline().strip().lstrip("# ")
        if found != version:
            raise ConfigError(f"{path}: unsupported version {found!r}, expected {version!r}")
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            row = dict(zip(header, line.strip().split(",")))
            for col, part in row.items():
                if col != "scheme":
                    row[col] = int(part) if col == "slot" else float(part)
            rows.append(row)
    return rows


def _config_trace(cfg: RunConfig, start, count, reader):
    """Slots [start, start + count) of the configured trace file, every one checked.

    The one reader of ``cfg.trace_file``; each of its errors names the file.
    TraceFormatError if ``load_trace`` refuses the file; ConfigError unless
    the trace's dimensions are the network's and it holds all ``count``
    slots, which ``reader`` (as in "a run of num_slots = 20") reads; then
    TraceFormatError naming the slot and BS of the first slot that is not a
    valid channel (the checks of ``ChannelState``).
    """
    path = cfg.trace_file
    try:
        trace = load_trace(path, start, start + count)
    except TraceFormatError as exc:
        raise TraceFormatError(f"trace {path}: {exc}") from None
    net = cfg.network
    n, k = net.num_cells, net.users_per_cell
    shape = (n, n, k, net.num_antennas)
    if trace.h.shape[1:] != shape:
        raise ConfigError(
            f"trace dimensions do not match the network config: {path} holds "
            f"slots of shape {trace.h.shape[1:]}, the network needs {shape}"
        )
    if trace.num_slots < count:
        raise ConfigError(
            f"trace {path} holds {trace.num_slots} of the {count} slots from "
            f"slot {start} that {reader} reads"
        )
    for a in range(0, count, _SLOT_BLOCK):
        try:
            ChannelState(slot_index=start + a, h=trace.h[a : a + _SLOT_BLOCK])
        except ValueError as exc:
            raise TraceFormatError(f"trace {path}: {exc}") from None
    return trace


def _channel_stream(cfg: RunConfig):
    """Trace-backed stream when configured, otherwise a live process."""
    if cfg.trace_file:  # reset reads one slot, each step one
        run = f"a run of num_slots = {cfg.num_slots}"
        return TraceStream(_config_trace(cfg, 0, cfg.num_slots + 1, run))
    return ChannelProcess(cfg.network, cfg.channel)


def _build_env(cfg: RunConfig, stream=None, action_mode=None):
    return BeamformingEnv(
        cfg.network,
        stream if stream is not None else _channel_stream(cfg),
        codebook_size=cfg.codebook_size,
        csi_keep=cfg.csi_keep,
        num_interferers=cfg.num_interferers,
        action_mode=action_mode or cfg.action_mode,
    )


def _build_agents(cfg: RunConfig, env):
    return [
        DdpgAgent(env.state_dim, env.action_dim, seed=[cfg.seed, n], **cfg.hyperparameters)
        for n in range(cfg.network.num_cells)
    ]


# The table of a run checkpoint's ``harness_meta`` besides ``version``.
HARNESS_META = {"slot": int, "num_agents": int, "stream": dict}


def save_checkpoint(path, slot, states, env, agents):
    """Write a run checkpoint: one ``.npz`` archive, written atomically.

    Top-level arrays, each written by the module named:

    * ``states`` (harness): the (N, state_dim) observations that the agents
      act on at ``slot``;
    * ``proc_h``, ``proc_ue_positions`` and ``proc_ue_headings``
      (``channel.ChannelProcess.state_dict``, live channels only): the
      process's last slot and its users' positions and headings;
    * ``agent{n}_{key}`` (``drl.DdpgAgent.state_dict``): agent ``n``'s
      entries, its own JSON ``meta`` among them;
    * ``harness_meta``: one JSON string.

    ``harness_meta`` holds ``version``, ``slot`` (also the metrics CSV's row
    count: one row per slot), ``num_agents`` and ``stream``, the meta of the
    env's channel stream (its ``state_dict``): ``{"kind": "trace", "cursor",
    "fingerprint"}`` or ``{"kind": "process", "slot", "rng_state",
    "fingerprint"}``, written and read by the harness, not the env.
    ``fingerprint`` is the channel's ``config_fingerprint`` (a trace's
    ``cfg_hash``); the stream stands at ``slot`` (a trace's ``cursor`` one
    past it).  ``drl.CHECKPOINT_VERSION`` (3) is the version of the whole
    archive, and each agent ``meta`` repeats it.  Each meta's table for
    ``drl.read_meta`` is declared by its writer's module: ``HARNESS_META``
    here, ``drl.AGENT_META`` and ``channel``'s ``TraceStream.META`` and
    ``ChannelProcess.META``.  This is the one layout the readers take
    (``_open_checkpoint``).
    """
    stream_arrays, stream_meta = env.stream.state_dict()
    meta = {
        "version": CHECKPOINT_VERSION,
        "slot": slot,
        "num_agents": len(agents),
        "stream": stream_meta,
    }
    arrays = {"states": np.asarray(states), **stream_arrays}
    for n, agent in enumerate(agents):
        for key, value in agent.state_dict().items():
            arrays[f"agent{n}_{key}"] = value
    arrays["harness_meta"] = np.array(json.dumps(meta))
    with replacing(path) as fh:
        np.savez(fh, **arrays)


@contextlib.contextmanager
def _naming_agent(n):
    """Prefix ``agent {n}: `` to a ValueError raised inside.

    The checks in ``drl`` name a meta key or an entry inside the agent
    (``target_actor``), not the agent.  The archive's own errors (a missing
    member, a bad CRC) name the member (``agent1_actor``) and pass unchanged.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"agent {n}: {exc}") from exc


@contextlib.contextmanager
def _open_checkpoint(path, num_agents):
    """A run checkpoint's open archive and parsed ``harness_meta``, as (data, meta).

    The one opener of run checkpoints, which reads only the layout that
    ``save_checkpoint`` writes.  ``np.load`` parses the zip's central
    directory and reads the JSON metas; the readers inside the block decide
    fit from the metas, then read each array entry in place
    (``drl.read_entry``).  ConfigError if the file is missing or holds
    another agent count than ``num_agents``, ``does not fit this config``
    for a ``channel.ChannelMismatchError`` raised inside (another channel, a
    trace cursor past the end), and ``is damaged`` for any other error of
    the archive, a reader or a check: a file that is not an ``.npz``, a
    meta or entry that is missing or fails its check.  A ConfigError raised
    inside the block passes through unchanged.
    """
    if not os.path.exists(path):
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        # np.load of a path leaves the file open when the zip fails to open.
        with open(path, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a plain .npy array
                raise ValueError("not an .npz archive")
            with data:
                meta = read_meta(data["harness_meta"], HARNESS_META)
                if meta["num_agents"] != num_agents:
                    raise ConfigError(
                        f"checkpoint {path} holds {meta['num_agents']} agents, "
                        f"this config has {num_agents} cells"
                    )
                yield data, meta
    except ConfigError:
        raise
    except ChannelMismatchError as exc:
        raise ConfigError(f"checkpoint {path} does not fit this config: {exc}") from exc
    except (zipfile.BadZipFile, KeyError, ValueError) as exc:
        # A KeyError's message is its argument; str() would quote it.
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise ConfigError(f"checkpoint {path} is damaged: {detail}") from exc


def _agent_metas(data, meta, path, env=None, hyperparameters=None):
    """Every agent's parsed ``meta`` in an open run checkpoint, in agent order.

    One pass on the calling thread, before any agent array is read, so that
    a misfit is found from the metas alone: with ``env`` given, ConfigError
    unless each agent's stored state and action widths are the env's; with
    ``hyperparameters`` (``RunConfig.hyperparameters``) given, ConfigError
    naming the first that differs from the agent's.  ``noise_sigma_init`` is
    not compared: the meta keeps the running sigma in its place, so the
    agents continue their noise schedule.  A meta that fails ``AGENT_META``
    raises a ValueError naming its agent (``_naming_agent``).
    """
    metas = []
    for n in range(meta["num_agents"]):
        with _naming_agent(n):
            stored = read_meta(data[f"agent{n}_meta"], AGENT_META)
        widths = (stored["state_dim"], stored["action_dim"])
        if env is not None and widths != (env.state_dim, env.action_dim):
            raise ConfigError(
                f"agent {n} in checkpoint {path} maps {widths[0]} state entries "
                f"to {widths[1]} action entries, this config {env.state_dim} to "
                f"{env.action_dim}"
            )
        for key, value in (hyperparameters or {}).items():
            if key == "noise_sigma_init":
                continue
            built = tuple(stored[key]) if key == "hidden_sizes" else stored[key]
            if built != value:
                raise ConfigError(
                    f"{key} = {value!r} does not match the value {built!r} "
                    f"that agent {n} in checkpoint {path} was built with"
                )
        metas.append(stored)
    return metas


def _read_agents(data, metas, build):
    """``build(data, f"agent{n}_", metas[n])`` for each agent ``n``; the results in agent order.

    ``data`` is an open run checkpoint and ``metas`` its agents' checked
    metas (``_agent_metas``), so whatever ``build`` finds wrong is damage.
    Agent ``n`` is built by worker ``n mod W`` (``_run_tasks``; W is
    ``_train_workers`` of the agent count), the calling thread being worker
    0, on a pool that ends with the call.  ``build`` reads the array entries
    in place (``drl.read_entry``); those reads and their CRC checks release
    the GIL, so the workers' reads overlap.  A ValueError of ``build`` names
    its agent once (``_naming_agent``).  A failed agent stops no other read;
    once every agent is read or has failed, the first failure in agent order
    propagates, as from a reader that builds one agent after the other.
    """
    num_agents = len(metas)

    def read(n):
        with _naming_agent(n):
            return build(data, f"agent{n}_", metas[n])

    workers = _train_workers(num_agents)
    tasks = [(functools.partial(read, n), None) for n in range(num_agents)]
    queues = [collections.deque(range(w, num_agents, workers)) for w in range(workers)]
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        return _run_tasks(pool, tasks, queues)


def load_checkpoint(path, env, hyperparameters):
    """Restore the env's channel stream in place and rebuild the agents.

    Returns (slot, states, agents).  Fit is decided from the metas before
    any array is read: the agent count, the stream's kind and fingerprint
    (``channel.check_fingerprint``, which fixes every channel array's shape)
    and each agent's widths and ``hyperparameters`` (``_agent_metas``); a
    misfit raises ConfigError.  Then the stream's arrays
    (``checkpoint_layout``), the agents' entries (``_read_agents``) and
    ``states`` are read in place by ``drl.read_entry``, where any fault is
    damage; the stream must then stand at ``slot``.
    """
    with _open_checkpoint(path, env.net_cfg.num_cells) as (data, meta):
        stream = meta["stream"]
        if type(stream.get("kind")) is str and stream["kind"] != env.stream.kind:
            raise ConfigError(
                f"checkpoint {path} was written from a {stream['kind']!r} channel source, "
                f"this config reads a {env.stream.kind!r} one "
                "(a 'trace' source needs trace_file, a 'process' source none)"
            )
        read_meta(stream, env.stream.META, "stream ")
        check_fingerprint(env.stream, stream)
        metas = _agent_metas(data, meta, path, env, hyperparameters)
        arrays = {
            key: read_entry(data, key, np.empty(shape, dtype))
            for key, (dtype, shape) in env.stream.checkpoint_layout().items()
        }
        env.stream.load_state_dict((arrays, stream))
        env.resume()
        at = env.stream.current.slot_index
        if at != meta["slot"]:
            raise ValueError(f"its channel stream stands at slot {at}, not at slot {meta['slot']}")
        agents = _read_agents(data, metas, DdpgAgent.from_state_dict)
        states = read_entry(data, "states", np.empty((meta["num_agents"], env.state_dim)))
        return meta["slot"], states, agents


def _train_workers(num_agents):
    """Threads that train the agents: one per agent, at most one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(num_agents, cpus)


def _run_tasks(pool, tasks, queues):
    """Run ``tasks`` on the calling thread and the pool's threads; their results in order.

    ``tasks`` is a list of ``(fn, after)``.  With ``after`` None the task
    calls ``fn()``; otherwise ``after`` is the index of an earlier task, and
    the task waits for that one's result and calls ``fn`` with it.  Worker
    ``w`` -- the calling thread for ``w = 0``, a pool thread for the others,
    each in a copy of the caller's context (so numpy's error state holds
    there too) -- pulls the next task index from ``queues[w]``, a deque of
    increasing indices; workers given the same deque share one list.

    Each task settles one ``Future`` with its result or whatever it raised,
    a ``KeyboardInterrupt`` included, and no worker stops before its queue
    is empty, so no task waits for one that never finishes.  A failure
    stops nothing else: a task whose input exists still runs, and a task
    that waits for a failed one fails with that error without calling its
    ``fn``.  Once every worker has stopped, the error of the first failed
    task in list order propagates.
    """
    cells = [Future() for _ in tasks]

    def work(queue):
        while True:
            try:
                i = queue.popleft()
            except IndexError:
                return
            fn, after = tasks[i]
            try:
                value = fn() if after is None else fn(cells[after].result())
            except BaseException as exc:
                cells[i].set_exception(exc)
            else:
                cells[i].set_result(value)

    workers = [
        pool.submit(contextvars.copy_context().run, work, queue) for queue in queues[1:]
    ]
    work(queues[0])
    for worker in workers:
        worker.result()
    return [cell.result() for cell in cells]


def _train_agents(pool, workers, agents):
    """One train step of each ready agent; their critic losses in agent order.

    The slot's work is one ordered task list (``_run_tasks``): first every
    ready agent's critic half (replay sample, then critic update), then
    every actor half (``update_actor`` on the critic half's states: actor
    update, then soft update), which waits only for its own agent's critic
    half.  The calling thread and ``workers - 1`` pool threads each pull the
    next task, so no worker idles while a task is left to start.  A failed
    half stops only its own agent's actor half: the other agents' halves
    still run.  Once every worker has stopped, the first failure in task
    order propagates.
    """
    ready = [agent for agent in agents if agent.ready()]
    tasks = [(agent.update_critic, None) for agent in ready]
    tasks += [
        (lambda half, agent=agent: agent.update_actor(half[1]), n)
        for n, agent in enumerate(ready)
    ]
    shared = collections.deque(range(len(tasks)))
    results = _run_tasks(pool, tasks, [shared] * workers)
    return [losses[0] for losses, _ in results[: len(ready)]]


def run_train(cfg: RunConfig, resume_from=None):
    """Train one agent per BS over ``num_slots`` environment steps.

    Implements the decentralized loop: a warm-up phase of uniformly random
    actions until each replay holds one mini-batch, then noisy policy actions
    with one train step and one soft target update per agent per slot.
    Periodic checkpoints allow bit-exact resumption; resuming past
    ``num_slots`` raises ConfigError (on a trace, whose run reads only slots
    [0, num_slots], as the stream's cursor misfit).

    The agents share nothing, so each slot's train steps run concurrently
    on one worker per agent, at most one per usable CPU (numpy releases the
    interpreter lock inside its kernels, and BLAS runs on one thread per
    call).  Each step is two halves, critic then actor, and the workers pull
    the slot's halves from one ordered list (``_train_agents``); a resume
    restores the agents on the same number of workers (``_read_agents``).
    A failed half (a non-finite gradient, say) ends the run once the slot's
    other halves have run: an ``ArithmeticError`` is logged as an ``abort``
    event, and the first failure in task order propagates.  Every agent
    draws from its own generator and updates only its own arrays, in the
    same order, so the metrics and checkpoints do not depend on the worker
    count.  The ``run-start`` and ``resume`` events record it
    as ``train_workers``.  A resume needs the metrics CSV of the run it
    resumes in ``out_dir``; without it, ConfigError before anything is
    written.

    Returns a summary dict with paths and, as ``final_moving_average``, the
    mean sum rate of the last ``eval_window`` train rows.
    """
    basename = "train" if cfg.action_mode == "structured" else "train_mslnr"
    env = _build_env(cfg)
    if resume_from:
        start_slot, states, agents = load_checkpoint(resume_from, env, cfg.hyperparameters)
        if start_slot > cfg.num_slots:
            raise ConfigError(
                f"checkpoint {resume_from} is at slot {start_slot}, "
                f"past num_slots = {cfg.num_slots}"
            )
    else:
        agents = _build_agents(cfg, env)
        states = env.reset()
        start_slot = 0

    workers = _train_workers(len(agents))
    # One metrics row per slot: a resumed run keeps the checkpoint's rows.
    resume_rows = start_slot if resume_from else None
    with (
        MetricSink(cfg.out_dir, cfg.network.num_cells, basename, resume_rows) as sink,
        # The calling thread is one of the workers: a one-worker run starts no thread.
        ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool,
    ):
        ckpt_dir = os.path.join(cfg.out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        if resume_from:
            sink.event(
                "resume", checkpoint=resume_from, slot=start_slot, train_workers=workers
            )
        else:
            sink.event(
                "run-start",
                num_slots=cfg.num_slots,
                action_mode=cfg.action_mode,
                seed=cfg.seed,
                channel_fingerprint=env.stream.fingerprint,
                train_workers=workers,
            )
        warmup = cfg.batch_size
        final_ckpt = resume_from  # the checkpoint that holds the last slot run
        sum_rates = collections.deque(maxlen=20)  # the abort event's recent sum rates
        # Each checkpoint event's wall_s covers the slots since the previous
        # checkpoint (or the run or resume start), including its own write.
        since = time.perf_counter()
        try:
            for slot in range(start_slot, cfg.num_slots):
                if slot < warmup:
                    actions = np.stack([agent.random_action() for agent in agents])
                else:
                    actions = np.stack(
                        [
                            agent.act(states[n], explore=True)
                            for n, agent in enumerate(agents)
                        ]
                    )
                next_states, rewards, metrics = env.step(actions)
                for n, agent in enumerate(agents):
                    agent.remember(states[n], actions[n], rewards[n], next_states[n])
                losses = _train_agents(pool, workers, agents)
                states = next_states
                cell_rates = metrics.rate.sum(axis=1)
                sum_rates.append(float(cell_rates.sum()))
                sink.write_slot(slot, "train", cell_rates, rewards, agents[0].noise_sigma)
                if (slot + 1) % cfg.checkpoint_every == 0 or slot + 1 == cfg.num_slots:
                    path = os.path.join(ckpt_dir, f"{basename}_{slot + 1:08d}.npz")
                    save_checkpoint(path, slot + 1, states, env, agents)
                    final_ckpt = path
                    now = time.perf_counter()
                    sink.event(
                        "checkpoint",
                        path=path,
                        slot=slot + 1,
                        wall_s=now - since,
                        mean_loss=float(np.mean(losses)) if losses else None,
                    )
                    since = now
        except ArithmeticError as exc:
            sink.event(
                "abort",
                error=str(exc),
                slot=slot,
                noise_sigma=agents[0].noise_sigma,
                recent_sum_rates=list(sum_rates),
            )
            raise

        rows = MetricSink.read(sink.csv_path)
        series = [r["sum_rate"] for r in rows if r["scheme"] == "train"]
        summary = {
            "metrics_csv": sink.csv_path,
            "events": sink.events_path,
            "checkpoint": final_ckpt,
            "final_moving_average": float(np.mean(series[-cfg.eval_window :])),
            "slots": len(series),
        }
        sink.event("run-end", **{k: v for k, v in summary.items() if k != "events"})
    return summary


def _collect_window(cfg: RunConfig, offset, count):
    """Channel window [offset, offset+count) of the configured source."""
    if cfg.trace_file:
        return _config_trace(cfg, offset, count, f"a bench of bench_slots = {cfg.bench_slots}")
    return generate_trace(cfg.network, cfg.channel, count, offset=offset)


def _slot_seed(seed, slot):
    """Deterministic per-slot stream for the random starts of ``wmmse-nri``."""
    return int(np.random.SeedSequence([seed, slot]).generate_state(1)[0])


def load_agents_from_checkpoint(path, num_agents):
    """Rebuild every per-BS agent stored inside a run checkpoint, on the training workers."""
    with _open_checkpoint(path, num_agents) as (data, meta):
        return _read_agents(data, _agent_metas(data, meta, path), DdpgAgent.from_state_dict)


def _read_actor_stack(data, meta, path, env):
    """The N actors of an open run checkpoint as one stacked ``Mlp``.

    The agents' metas are checked first (``_agent_metas``, against the env's
    widths), and every actor must have agent 0's layers (else a ValueError
    naming the agent), which size the (N, P) stack before any actor is read.
    Each agent's actor entry is then read in place into its row of the stack
    (``_read_agents``), checked as a resume checks it: member, header,
    float64 values of shape (P,) and CRC.
    """
    metas = _agent_metas(data, meta, path, env)
    sizes = actor_layer_sizes(metas[0])
    for n, stored in enumerate(metas):
        if actor_layer_sizes(stored) != sizes:
            raise ValueError(
                f"agent {n}: actor has layers {actor_layer_sizes(stored)}, agent 0's {sizes}"
            )
    flat = np.empty((len(metas), Mlp.num_parameters(sizes)))
    rows = {f"agent{n}_": row for n, row in enumerate(flat)}

    def fill(archive, prefix, _):
        read_entry(archive, prefix + "actor", rows[prefix], "actor")

    _read_agents(data, metas, fill)
    return Mlp(sizes, flat, "sigmoid")


def _rollout_policy(cfg, trace, checkpoint, action_mode):
    """Per-slot (N,) cell rates of a trained policy's greedy rollout over a window.

    Only the actors are read from the checkpoint, as one stack: a greedy
    action is the actor's output, so replay memories, critics and Adam
    moments stay on disk, and each slot's N actions are one stacked forward.
    """
    env = _build_env(cfg, stream=TraceStream(trace), action_mode=action_mode)
    with _open_checkpoint(checkpoint, cfg.network.num_cells) as (data, meta):
        actors = _read_actor_stack(data, meta, checkpoint, env)
    states = env.reset()
    cell_rates = []
    for _ in range(trace.num_slots - 1):
        states, _, metrics = env.step(actors.forward(states[:, None])[:, 0])
        cell_rates.append(metrics.rate.sum(axis=1))
    return cell_rates


def _mslnr_rates(window, offset, count, net):
    """Per-slot (N,) max-SLNR cell rates of window slots [0, count).

    Each block of ``_SLOT_BLOCK`` slots is one ``mslnr_beams`` stack, scored
    by one ``compute_metrics`` call; its checks name the slot as
    ``offset`` + its window index.
    """
    rates = []
    for a in range(0, count, _SLOT_BLOCK):
        block = window.h[a : min(a + _SLOT_BLOCK, count)]
        channel = ChannelState(slot_index=offset + a, h=block)
        rates.extend(compute_metrics(channel, mslnr_beams(channel, net), net).rate.sum(axis=-1))
    return rates


def _solve_slot(cfg: RunConfig, scheme, channel, slot):
    """(beams, WMMSE state) of a WMMSE scheme on one slot."""
    net = cfg.network
    if scheme == "wmmse":
        return wmmse(channel, net, cfg.wmmse_stop_eps, cfg.wmmse_max_iter)
    return wmmse_multi_init(
        channel,
        net,
        cfg.wmmse_stop_eps,
        cfg.wmmse_max_iter,
        num_inits=cfg.wmmse_num_inits,
        seed=_slot_seed(cfg.seed, slot),
    )


def run_benchmark(cfg: RunConfig, schemes=None, checkpoint=None, mslnr_checkpoint=None):
    """Evaluate the selected schemes on one shared channel window.

    ``schemes`` overrides the config key when given, a comma string parsed
    as the key's value is or a tuple of names; ``ddcbf`` and
    ``mslnr-ddpg`` need their trained ``checkpoint`` and
    ``mslnr_checkpoint``.  Every scheme sees the identical channel
    realizations; a trace-backed window is read alone, and each of
    its slots is checked (``_config_trace``).  Classical solvers run
    genie-aided on each slot's current CSI; trained policies are rolled out
    greedily through the environment.  Every scheme yields one (N,)
    cell-rate array per slot, and those rates give the per-slot rows
    (``bench.csv``), the empirical CDF of the sum rate (``bench_cdf.csv``)
    and the summary table (``bench_summary.json``) under the run's output
    directory, each replaced whole (``drl.replacing``) once all schemes have run.

    ``mslnr-ep`` runs in blocks of ``_SLOT_BLOCK`` slots: one
    ``mslnr_beams`` stack and one ``compute_metrics`` call per block, each
    slot's rates equal to a per-slot call's bit for bit.  The WMMSE schemes
    stay one ``wmmse`` call per slot: the layer tracer of ``perfbench`` reads
    one slot's scalar ``iterations`` and ``truncated`` from each result, and
    stacking the random starts of ``wmmse-nri`` gained nothing, as their
    iteration counts differ widely.

    ``wmmse`` starts from the slot's max-SLNR beams (the ``mslnr-ep`` ones)
    and stops once the sum rate changes by less than ``wmmse_stop_eps``
    relative to its value, so it never ends below ``mslnr-ep``.
    ``wmmse-nri`` adds ``wmmse_num_inits - 1`` random full-power starts,
    seeded per slot from ``seed``, and keeps the best, so it never ends below
    ``wmmse``.  For both the summary also holds the kept runs' mean iteration
    count (``iterations_mean``), their mean count of multiplier-search Newton
    steps (``search_steps_mean``, summed over BSs and updates per run) and
    the fraction that hit the iteration cap (``truncated_frac``).
    """
    if schemes is not None:
        cfg = replace(cfg, schemes=schemes)
    policies = {
        "ddcbf": (checkpoint, "structured"),
        "mslnr-ddpg": (mslnr_checkpoint, "mslnr-power"),
    }
    for scheme in cfg.schemes:
        if scheme in policies and not policies[scheme][0]:
            raise ConfigError(f"scheme '{scheme}' needs a trained checkpoint")

    offset = cfg.bench_offset
    if offset < 0:
        offset = max(cfg.num_slots - cfg.bench_slots, 0)
    # Policies need one extra slot: the rollout consumes a next state.
    window = _collect_window(cfg, offset, cfg.bench_slots + 1)
    net = cfg.network

    rates = {}  # scheme -> per-slot (N,) cell rates
    diagnostics = {}
    for scheme in cfg.schemes:
        if scheme in policies:
            rates[scheme] = _rollout_policy(cfg, window, *policies[scheme])
            continue
        if scheme == "mslnr-ep":
            rates[scheme] = _mslnr_rates(window, offset, cfg.bench_slots, net)
            continue
        rates[scheme], states = [], []
        for t in range(cfg.bench_slots):
            channel = window.slot(t)
            beams, state = _solve_slot(cfg, scheme, channel, offset + t)
            rates[scheme].append(compute_metrics(channel, beams, net).rate.sum(axis=1))
            states.append(state)
        # Solver diagnostics of the kept runs (one per slot).
        diagnostics[scheme] = {
            "iterations_mean": float(np.mean([st.iterations for st in states])),
            "search_steps_mean": float(np.mean([st.search_steps for st in states])),
            "truncated_frac": float(np.mean([st.truncated for st in states])),
        }

    os.makedirs(cfg.out_dir, exist_ok=True)
    bench_path = os.path.join(cfg.out_dir, "bench.csv")
    cdf_path = os.path.join(cfg.out_dir, "bench_cdf.csv")
    summary_path = os.path.join(cfg.out_dir, "bench_summary.json")
    cells = ",".join(f"cell_rate_{n}" for n in range(net.num_cells))
    results = {}
    with (
        replacing(bench_path, "w") as bench,
        replacing(cdf_path, "w") as cdf,
        replacing(summary_path, "w") as summary,
    ):
        bench.write(f"# {BENCH_VERSION}\nslot,scheme,sum_rate,{cells}\n")
        cdf.write(f"# {BENCH_VERSION}\nscheme,sum_rate,cum_prob\n")
        for scheme, cell_rates in rates.items():
            sums = [float(c.sum()) for c in cell_rates]
            for t, (total, c) in enumerate(zip(sums, cell_rates)):
                parts = [str(offset + t), scheme, repr(total)]
                bench.write(",".join(parts + [repr(float(x)) for x in c]) + "\n")
            for i, total in enumerate(sorted(sums)):
                cdf.write(f"{scheme},{total!r},{(i + 1) / len(sums)!r}\n")
            results[scheme] = {
                "mean": float(np.mean(sums)),
                "median": float(np.median(sums)),
                "p05": float(np.percentile(sums, 5)),
                "p95": float(np.percentile(sums, 95)),
                "slots": len(sums),
                **diagnostics.get(scheme, {}),
            }
        json.dump({"window_offset": offset, "results": results}, summary, indent=2)
    return {
        "bench_csv": bench_path,
        "cdf_csv": cdf_path,
        "summary": summary_path,
        "results": results,
        "window_offset": offset,
    }


def read_bench(path):
    """Parse a bench CSV into row dicts (``read`` of ``MetricSink`` for ``bench.csv``)."""
    return _read_rows(path, BENCH_VERSION)


def run_timing(cfg: RunConfig, repeats):
    """Wall-clock comparison of the per-BS decision path against solvers.

    The decision path is one actor forward pass, an action decode and the
    structured solve at the acting BS; it is timed against one full
    weighted-MMSE run on the same instance (plus max-SLNR and MRT for
    ordering sanity).  Reports medians and interquartile ranges, and the
    WMMSE run's iteration count (``wmmse.iterations``), the base of
    ``speedup_wmmse_over_decision``.  The decision path runs at BS 0 on the
    live process's first slot and state, with the untrained actor of a fresh
    ``_build_agents``, which the report's ``decision_path`` entry records:
    its cost depends on the net's shape, not on training.  ``repeats``
    below 1 raises ConfigError.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    net = cfg.network
    env = _build_env(cfg, ChannelProcess(net, cfg.channel), action_mode="structured")
    state = env.reset()[0]
    actor = _build_agents(cfg, env)[0].actor
    channel = env.channel

    def decision():  # BS 0 alone, as a one-row stack
        return decode_beams(actor.forward(state[None]), channel.h, net, "structured")

    def time_many(fn, n):
        out = []
        for _ in range(n):
            tic = time.perf_counter()
            result = fn()
            out.append(time.perf_counter() - tic)
        return np.asarray(out), result

    decision()  # warm the caches before timing
    timings = {
        "ddcbf-decision": time_many(decision, repeats),
        "mslnr": time_many(lambda: mslnr_beams(channel, net), repeats),
        "mrt": time_many(lambda: [mrt_beamformer(h) for h in channel.h[0, 0]], repeats),
        "wmmse": time_many(
            lambda: wmmse(channel, net, cfg.wmmse_stop_eps, cfg.wmmse_max_iter), repeats
        ),
    }
    report = {}
    for name, (arr, _) in timings.items():
        q25, q50, q75 = np.percentile(arr, [25, 50, 75])
        report[name] = {
            "median_s": float(q50),
            "iqr_s": float(q75 - q25),
            "repeats": int(arr.size),
        }
    # Every repeat runs the same deterministic solve: one iteration count.
    _, wmmse_state = timings["wmmse"][1]
    report["wmmse"]["iterations"] = wmmse_state.iterations
    report["decision_path"] = {
        "bs": 0,
        "slots": 1,
        "actor": "untrained (random initialization)",
    }
    report["speedup_wmmse_over_decision"] = (
        report["wmmse"]["median_s"] / report["ddcbf-decision"]["median_s"]
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "timing.json")
    with replacing(path, "w") as fh:
        json.dump(report, fh, indent=2)
    report["path"] = path
    return report


def generate_trace_file(cfg: RunConfig, out_path, num_slots=None):
    """Write ``num_slots`` fresh slots of the ``cfg.channel`` process to a trace file.

    A configured ``trace_file`` is not read.  The default, ``cfg.num_slots + 1``, is
    what a run of ``cfg.num_slots`` steps and the default benchmark window read
    (``reset`` takes the first slot); a count below 1 raises ConfigError before writing.
    """
    if num_slots is None:
        num_slots = cfg.num_slots + 1
    elif num_slots < 1:
        raise ConfigError(f"slots must be >= 1, got {num_slots}")
    trace = generate_trace(cfg.network, cfg.channel, num_slots)
    save_trace(trace, out_path)
    return out_path
