import collections
import contextlib
import dataclasses
import functools
import json
import os
import pathlib
import re
import signal
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cbflab import harness, solvers
from cbflab.channel import (
    ChannelModelConfig,
    ChannelProcess,
    TraceStream,
    config_fingerprint,
    generate_trace,
)
from cbflab.cli import main
from cbflab.drl import AGENT_META, DdpgAgent, Mlp, actor_layer_sizes, read_entry, read_meta
from cbflab.env import BeamformingEnv
from cbflab.harness import (
    ConfigError,
    MetricSink,
    _build_agents,
    _build_env,
    _collect_window,
    build_config,
    config_defaults,
    generate_trace_file,
    load_agents_from_checkpoint,
    load_checkpoint,
    parse_config,
    read_bench,
    run_benchmark,
    run_timing,
    run_train,
    save_checkpoint,
)
from cbflab.network import (
    BeamformerSet,
    ChannelState,
    NetworkConfig,
    compute_metrics,
    dbm_to_watt,
)
from cbflab.solvers import mslnr_beams

SMALL = {
    "num_cells": "3",
    "users_per_cell": "2",
    "array_rows": "1",
    "array_cols": "4",
    "noise_dbm": "-60",
    "seed": "5",
    "out_dir": "",  # filled per test
    "hidden_sizes": "16,12",
    "memory_capacity": "64",
    "batch_size": "8",
    "num_slots": "14",
    "eval_window": "5",
    "bench_slots": "4",
    "bench_offset": "0",
    "checkpoint_every": "7",
    "num_interferers": "2",
    "codebook_size": "16",
    "wmmse_max_iter": "60",
}


def write_config(tmp_path, name="run.cfg", **overrides):
    values = dict(SMALL)
    values["out_dir"] = str(tmp_path / "out")
    values.update({k: str(v) for k, v in overrides.items()})
    lines = ["# test configuration"]
    lines += [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


# -- config parsing -----------------------------------------------------------


def test_parse_config_power_conversions(tmp_path):
    path = write_config(tmp_path, p_max_dbm=38, noise_dbm=-101)
    cfg = parse_config(path)
    assert cfg.network.max_power == pytest.approx(6.3095734448, rel=1e-9)
    assert cfg.network.noise_power == pytest.approx(7.943282347e-14, rel=1e-9)


def test_parse_config_unknown_key_with_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_cells = 3\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*bogus_key"):
        parse_config(path)


def test_parse_config_missing_mandatory_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_cells = 3\n")
    with pytest.raises(ConfigError, match="users_per_cell"):
        parse_config(path)


def test_parse_config_type_error(tmp_path):
    path = write_config(tmp_path, num_slots="many")
    with pytest.raises(ConfigError, match="num_slots"):
        parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_cells 3\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config(path)


def test_parse_config_duplicate_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_cells = 3\nnum_cells = 4\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_config_constraint_checks():
    values = {k: v for k, v in SMALL.items()}
    values["out_dir"] = "x"
    bad = dict(values, num_interferers="5")
    with pytest.raises(ConfigError, match="num_interferers"):
        build_config(bad)
    bad = dict(values, batch_size="128", memory_capacity="64")
    with pytest.raises(ConfigError, match="batch_size"):
        build_config(bad)


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CBFLAB_OUT_DIR", str(tmp_path / "elsewhere"))
    path = write_config(tmp_path)
    cfg = parse_config(path)
    assert cfg.out_dir == str(tmp_path / "elsewhere")


def test_defaults_documented():
    # The whole table: changing a default must change this test.
    assert config_defaults() == {
        "p_max_dbm": 38.0,
        "noise_dbm": -101.0,
        "carrier_freq_ghz": 2.6,
        "cell_radius_m": 250.0,
        "slot_duration_ms": 20.0,
        "ue_speed_kmh": 3.0,
        "channel_model": "geometric-ura",
        "temporal_corr": "auto",
        "pathloss_exponent": 3.0,
        "pathloss_ref_db": 36.0,
        "pathloss_ref_dist_m": 1.0,
        "num_rays": 8,
        "angular_spread_deg": 10.0,
        "trace_file": "",
        "hidden_sizes": (128, 64, 32),
        "memory_capacity": 2000,
        "batch_size": 256,
        "actor_lr": 1e-4,
        "critic_lr": 1e-3,
        "discount": 0.5,
        "soft_update_rate": 0.01,
        "noise_sigma_init": 0.6,
        "noise_decay": 1e-3,
        "noise_sigma_min": 0.01,
        "codebook_size": 128,
        "csi_keep": 3,
        "num_interferers": 2,
        "action_mode": "structured",
        "num_slots": 20000,
        "eval_window": 200,
        "bench_slots": 200,
        "bench_offset": -1,
        "checkpoint_every": 5000,
        "wmmse_stop_eps": 1e-4,
        "wmmse_max_iter": 500,
        "wmmse_num_inits": 10,
    }


def test_defaults_fill_omitted_keys(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text(
        "num_cells = 3\nusers_per_cell = 2\narray_rows = 1\narray_cols = 4\n"
        f"seed = 1\nout_dir = {tmp_path}\n"
    )
    cfg = parse_config(path)
    assert cfg.hidden_sizes == (128, 64, 32)
    assert cfg.channel.temporal_corr is None
    assert cfg.network.max_power == dbm_to_watt(38.0)


def test_lower_layers_defaults_are_the_config_tables(tmp_path):
    # The three tables of defaults agree: the config's own, NetworkConfig's
    # and ChannelModelConfig's.
    cfg = build_config(
        {
            "num_cells": 3,
            "users_per_cell": 2,
            "array_rows": 1,
            "array_cols": 4,
            "seed": 9,
            "out_dir": str(tmp_path),
        }
    )
    assert cfg.network == NetworkConfig(3, 2, 1, 4)
    assert cfg.channel == ChannelModelConfig(rng_seed=9)


def test_removed_episode_length_key_rejected(tmp_path):
    path = write_config(tmp_path, episode_length=0)
    with pytest.raises(ConfigError, match="unknown key 'episode_length'"):
        parse_config(path)


def test_replace_rebuilds_and_revalidates(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    wider = dataclasses.replace(cfg, array_cols=8, seed=9, noise_dbm=-70.0)
    assert wider.network.num_antennas == 8
    assert wider.channel.rng_seed == 9
    assert wider.network.noise_power == dbm_to_watt(-70.0)
    assert cfg.network.num_antennas == 4
    with pytest.raises(ConfigError, match="batch_size"):
        dataclasses.replace(cfg, batch_size=128)
    with pytest.raises(ConfigError, match="num_interferers"):
        dataclasses.replace(cfg, num_cells=2)


# -- training loop ----------------------------------------------------------------


def test_smoke_train_writes_metrics(tmp_path):
    cfg = parse_config(write_config(tmp_path, num_slots=10))
    summary = run_train(cfg)
    rows = MetricSink.read(summary["metrics_csv"])
    assert len(rows) >= 10
    assert {r["scheme"] for r in rows} == {"train"}
    assert os.path.exists(summary["checkpoint"])
    assert summary["slots"] == 10
    # The summary's rate is the plain mean of the last eval_window (5) rows.
    recent = [r["sum_rate"] for r in rows][-cfg.eval_window :]
    assert summary["final_moving_average"] == float(np.mean(recent))


def test_train_deterministic_metric_files(tmp_path):
    cfg_a = parse_config(write_config(tmp_path, out_dir=tmp_path / "a"))
    cfg_b = parse_config(write_config(tmp_path, out_dir=tmp_path / "b"))
    run_train(cfg_a)
    run_train(cfg_b)
    a = (tmp_path / "a" / "train.csv").read_bytes()
    b = (tmp_path / "b" / "train.csv").read_bytes()
    assert a == b


def test_train_resume_matches_uninterrupted(tmp_path):
    full_cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "full"))
    summary = run_train(full_cfg)
    full_csv = (tmp_path / "full" / "train.csv").read_bytes()

    part_cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "part"))
    run_train(part_cfg)  # writes checkpoints at slots 7 and 14
    ckpt = tmp_path / "part" / "checkpoints" / "train_00000007.npz"
    assert ckpt.exists()
    resumed = run_train(part_cfg, resume_from=str(ckpt))
    part_csv = (tmp_path / "part" / "train.csv").read_bytes()
    assert part_csv == full_csv
    assert resumed["final_moving_average"] == summary["final_moving_average"]


def test_train_resume_after_the_replay_ring_wraps(tmp_path):
    small = {"memory_capacity": 5, "batch_size": 4}
    full = tmp_path / "full"
    run_train(parse_config(write_config(tmp_path, out_dir=full, **small)))
    part_cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "part", **small))
    run_train(part_cfg)
    ckpt = tmp_path / "part" / "checkpoints" / "train_00000007.npz"
    with np.load(ckpt) as data:
        for n in range(3):
            meta = json.loads(str(data[f"agent{n}_meta"]))
            # Seven pushes into five places: full, next write at place 2.
            assert (meta["replay_len"], meta["replay_cursor"]) == (5, 2)
    run_train(part_cfg, resume_from=str(ckpt))
    assert (tmp_path / "part" / "train.csv").read_bytes() == (full / "train.csv").read_bytes()


@pytest.mark.parametrize("source", ["process", "trace"])
def test_checkpoint_holds_each_fact_once(tmp_path, source):
    overrides = {}
    if source == "trace":
        overrides["trace_file"] = tmp_path / "chan.trace"
        generate_trace_file(
            parse_config(write_config(tmp_path)), overrides["trace_file"], num_slots=20
        )
    cfg = parse_config(write_config(tmp_path, **overrides))
    run_train(cfg)
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    with np.load(ckpt) as data:
        keys = set(data.files)
        meta = json.loads(str(data["harness_meta"]))
    stream, stream_meta = set(), {"kind", "cursor", "fingerprint"}
    if source == "process":
        stream = {"proc_h", "proc_ue_positions", "proc_ue_headings"}
        stream_meta = {"kind", "slot", "rng_state", "fingerprint"}
    agent_keys = load_agents_from_checkpoint(ckpt, 3)[0].state_dict()
    agents = {f"agent{n}_{key}" for n in range(3) for key in agent_keys}
    assert keys == {"states", "harness_meta"} | stream | agents
    assert list(meta) == ["version", "slot", "num_agents", "stream"]
    assert (meta["version"], meta["slot"], meta["num_agents"]) == (3, 7, 3)
    assert meta["stream"]["kind"] == source
    assert set(meta["stream"]) == stream_meta
    # A trace's cfg_hash is the fingerprint of the process that wrote it.
    assert meta["stream"]["fingerprint"] == config_fingerprint(cfg.channel, cfg.network)


@pytest.mark.parametrize("source", ["process", "trace"])
def test_run_start_event_records_the_fingerprint_of_the_channel_read(tmp_path, source):
    overrides = {"seed": 3}  # a trace written under seed 5, a run seeded 3
    if source == "trace":
        overrides["trace_file"] = tmp_path / "chan.trace"
        generate_trace_file(
            parse_config(write_config(tmp_path)), overrides["trace_file"], num_slots=20
        )
    cfg = parse_config(write_config(tmp_path, **overrides))
    run_train(cfg)
    with np.load(tmp_path / "out" / "checkpoints" / "train_00000007.npz") as data:
        stored = json.loads(str(data["harness_meta"]))["stream"]["fingerprint"]
    (start,) = [e for e in _events(tmp_path / "out") if e["kind"] == "run-start"]
    assert start["channel_fingerprint"] == stored
    if source == "trace":
        assert stored != config_fingerprint(cfg.channel, cfg.network)


def _finished_run_and_checkpoint(tmp_path):
    """train.csv of an uninterrupted run, plus a second run's config and slot-7 checkpoint."""
    run_train(parse_config(write_config(tmp_path, out_dir=tmp_path / "full")))
    part_cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "part"))
    run_train(part_cfg)
    ckpt = tmp_path / "part" / "checkpoints" / "train_00000007.npz"
    return (tmp_path / "full" / "train.csv").read_bytes(), part_cfg, str(ckpt)


def test_resume_draws_no_initial_weights(tmp_path, monkeypatch):
    full_csv, part_cfg, ckpt = _finished_run_and_checkpoint(tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("resume drew initial weights")

    monkeypatch.setattr(Mlp, "create", no_draws)
    run_train(part_cfg, resume_from=ckpt)
    assert (tmp_path / "part" / "train.csv").read_bytes() == full_csv


def test_resume_opens_the_checkpoint_once(tmp_path, monkeypatch):
    full_csv, part_cfg, ckpt = _finished_run_and_checkpoint(tmp_path)
    opened = []
    load = np.load

    def counted_load(file, *args, **kwargs):
        opened.append(file)
        return load(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", counted_load)
    run_train(part_cfg, resume_from=ckpt)
    assert len(opened) == 1
    assert (tmp_path / "part" / "train.csv").read_bytes() == full_csv


@pytest.mark.parametrize(
    "key, value",
    [
        ("hidden_sizes", "16,10"),
        ("memory_capacity", 32),
        ("batch_size", 4),
        ("actor_lr", 0.5),
        ("critic_lr", 0.5),
        ("discount", 0.9),
        ("soft_update_rate", 0.1),
        ("noise_decay", 0.1),
        ("noise_sigma_min", 0.1),
        ("csi_keep", 2),  # changes the state width
    ],
)
def test_resume_rejects_config_that_differs_from_checkpoint(
    tmp_path, read_entry_calls, key, value
):
    cfg = parse_config(write_config(tmp_path))
    ckpt = run_train(cfg)["checkpoint"]
    other = parse_config(write_config(tmp_path, name="other.cfg", **{key: value}))
    message = rf"^{key} = .* does not match"
    if key == "csi_keep":
        message = r"^agent 0 in checkpoint .* maps 134 state entries to 10 action entries"
    with pytest.raises(ConfigError, match=message):
        run_train(other, resume_from=ckpt)
    # The misfit is found from the metas, before any entry is read.
    assert read_entry_calls == []


def test_resume_keeps_the_checkpoints_noise_sigma(tmp_path):
    # The checkpoint holds the running sigma, not its start: a different
    # noise_sigma_init resumes to the same metrics.
    full_csv, part_cfg, ckpt = _finished_run_and_checkpoint(tmp_path)
    run_train(dataclasses.replace(part_cfg, noise_sigma_init=0.1), resume_from=ckpt)
    assert (tmp_path / "part" / "train.csv").read_bytes() == full_csv


def test_resuming_a_finished_run_names_the_checkpoint_it_resumed(tmp_path):
    # No slot runs, so the resumed file holds the final slot; the other
    # out_dir, which holds a copy of the metrics, gets no checkpoint.
    cfg = parse_config(write_config(tmp_path))  # num_slots = 14
    ckpt = run_train(cfg)["checkpoint"]
    rows = (tmp_path / "out" / "train.csv").read_bytes()
    (tmp_path / "other").mkdir()
    (tmp_path / "other" / "train.csv").write_bytes(rows)
    other = dataclasses.replace(cfg, out_dir=str(tmp_path / "other"))
    summary = run_train(other, resume_from=ckpt)
    assert summary["checkpoint"] == ckpt
    (end,) = [e for e in _events(tmp_path / "other") if e["kind"] == "run-end"]
    assert end["checkpoint"] == ckpt
    assert os.listdir(tmp_path / "other" / "checkpoints") == []


def _checkpoint_walls(events_path):
    """(slot, wall_s) of each checkpoint event, in log order."""
    with open(events_path) as fh:
        events = [json.loads(line) for line in fh]
    return [(e["slot"], e["wall_s"]) for e in events if e["kind"] == "checkpoint"]


def test_checkpoint_wall_s_covers_the_interval(tmp_path, monkeypatch):
    # A fake clock on which every environment step takes one second.
    clock = [0.0]
    step = BeamformingEnv.step

    def one_second_step(self, actions):
        clock[0] += 1.0
        return step(self, actions)

    monkeypatch.setattr(BeamformingEnv, "step", one_second_step)
    monkeypatch.setattr(
        harness, "time", types.SimpleNamespace(time=time.time, perf_counter=lambda: clock[0])
    )
    cfg = parse_config(write_config(tmp_path, checkpoint_every=5))
    summary = run_train(cfg)
    assert _checkpoint_walls(summary["events"]) == [(5, 5.0), (10, 5.0), (14, 4.0)]

    # The resumed run appends its checkpoints, timed from the resume.
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000005.npz"
    resumed = run_train(cfg, resume_from=str(ckpt))
    assert _checkpoint_walls(resumed["events"])[3:] == [(10, 5.0), (14, 4.0)]


def test_failed_checkpoint_write_keeps_previous(tmp_path, break_savez):
    cfg = parse_config(write_config(tmp_path))
    env = _build_env(cfg)
    agents = _build_agents(cfg, env)
    states = env.reset()
    ckpt_dir = tmp_path / "ckpt"
    ckpt_dir.mkdir()
    path = ckpt_dir / "train.npz"
    save_checkpoint(path, 0, states, env, agents)
    states, _, _ = env.step(np.stack([agent.random_action() for agent in agents]))
    break_savez()
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, 1, states, env, agents)
    assert os.listdir(ckpt_dir) == ["train.npz"]
    fresh_env = _build_env(cfg)
    slot, _, agents = load_checkpoint(path, fresh_env, cfg.hyperparameters)
    assert slot == 0
    assert len(agents) == 3


def _checkpoint_arrays(path):
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("source", ["process", "trace"])
def test_checkpoint_round_trip_is_a_fixed_point(tmp_path, source):
    overrides = {}
    if source == "trace":
        overrides["trace_file"] = tmp_path / "chan.trace"
        generate_trace_file(
            parse_config(write_config(tmp_path)), overrides["trace_file"], num_slots=20
        )
    cfg = parse_config(write_config(tmp_path, **overrides))
    run_train(cfg)
    env = _build_env(cfg)
    agents = _build_agents(cfg, env)
    first = tmp_path / "slot0.npz"
    save_checkpoint(first, 0, env.reset(), env, agents)
    later = tmp_path / "out" / "checkpoints" / "train_00000014.npz"
    for path in (first, later):
        env = _build_env(cfg)
        slot, states, agents = load_checkpoint(path, env, cfg.hyperparameters)
        again = tmp_path / "again.npz"
        save_checkpoint(again, slot, states, env, agents)
        stored, rewritten = _checkpoint_arrays(path), _checkpoint_arrays(again)
        assert list(rewritten) == list(stored)
        for key, array in stored.items():
            assert rewritten[key].dtype == array.dtype, key
            assert rewritten[key].shape == array.shape, key
            assert rewritten[key].tobytes() == array.tobytes(), key
        buffers = [
            buffer
            for a in agents
            for net, target, adam in (
                (a.actor, a.target_actor, a.adam_actor),
                (a.critic, a.target_critic, a.adam_critic),
            )
            for buffer in (net.flat, target.flat, adam.m, adam.v)
        ]
        for i, buffer in enumerate(buffers):
            for other in buffers[i + 1 :]:
                assert not np.shares_memory(buffer, other)


@pytest.mark.parametrize("action_mode", ["structured", "mslnr-power"])
@pytest.mark.parametrize("source", ["process", "trace"])
def test_read_entry_reads_every_array_as_np_load_does(tmp_path, source, action_mode):
    overrides = {"action_mode": action_mode}
    if source == "trace":
        overrides["trace_file"] = tmp_path / "chan.trace"
        generate_trace_file(
            parse_config(write_config(tmp_path)), overrides["trace_file"], num_slots=22
        )
    cfg = parse_config(write_config(tmp_path, **overrides))
    run_train(cfg)  # checkpoints at slots 7 and 14
    ckpts = tmp_path / "out" / "checkpoints"
    base = "train" if action_mode == "structured" else "train_mslnr"
    resumed = dataclasses.replace(cfg, num_slots=21)
    run_train(resumed, resume_from=str(ckpts / f"{base}_00000007.npz"))
    for slot in (7, 21):  # written by a fresh run and by a resumed one
        with np.load(ckpts / f"{base}_{slot:08d}.npz", allow_pickle=False) as data:
            keys = [key for key in data.files if not key.endswith("meta")]
            assert {"states", "agent2_actor", "agent2_replay_states"} <= set(keys)
            if source == "process":
                assert "proc_h" in keys
            for key in keys:
                stored = data[key]
                out = np.empty(stored.shape, stored.dtype)
                assert read_entry(data, key, out) is out
                assert out.tobytes() == stored.tobytes(), key


def test_checkpoint_failure_closes_metric_files(tmp_path, monkeypatch, break_savez):
    opened = []

    def tracking_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    cfg = parse_config(write_config(tmp_path))
    monkeypatch.setattr(harness, "open", tracking_open, raising=False)
    break_savez()
    with pytest.raises(OSError, match="disk full"):
        run_train(cfg)
    closed = {os.path.basename(fh.name): fh.closed for fh in opened}
    assert closed == {"train.csv": True, "train_events.jsonl": True}


# -- concurrent agent training ----------------------------------------------------


def _pin_workers(monkeypatch, workers):
    monkeypatch.setattr(harness, "_train_workers", lambda num_agents: workers)


def _events(out):
    with open(out / "train_events.jsonl") as fh:
        return [json.loads(line) for line in fh]


def _run_outputs(out):
    """train.csv, every checkpoint's arrays and the checkpoint events' mean losses."""
    checkpoints = {
        path.name: {
            key: (array.dtype, array.shape, array.tobytes())
            for key, array in _checkpoint_arrays(path).items()
        }
        for path in sorted((out / "checkpoints").iterdir())
    }
    losses = [(e["slot"], e["mean_loss"]) for e in _events(out) if e["kind"] == "checkpoint"]
    return (out / "train.csv").read_bytes(), checkpoints, losses


@pytest.mark.parametrize("source", ["process", "trace"])
def test_worker_count_does_not_change_the_outputs(tmp_path, monkeypatch, source):
    overrides = {}
    if source == "trace":
        overrides["trace_file"] = tmp_path / "chan.trace"
        generate_trace_file(
            parse_config(write_config(tmp_path)), overrides["trace_file"], num_slots=20
        )
    outputs = {}
    for workers in (1, 2, 3):  # 3 agents: shares of 3, of 1 and 2, and of one each
        _pin_workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        cfg = parse_config(write_config(tmp_path, out_dir=out, **overrides))
        run_train(cfg)
        fresh = _run_outputs(out)
        run_train(cfg, resume_from=str(out / "checkpoints" / "train_00000007.npz"))
        outputs[workers] = fresh, _run_outputs(out)
        starts = [e for e in _events(out) if e["kind"] in ("run-start", "resume")]
        assert [(e["kind"], e["train_workers"]) for e in starts] == [
            ("run-start", workers),
            ("resume", workers),
        ]
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def test_train_agents_returns_the_losses_in_agent_order():
    caller = threading.current_thread()
    log = []  # (event, agent, thread), appended as it happens

    class Agent:
        def __init__(self, n):
            self.n = n

        def ready(self):
            return self.n != 1

        def update_critic(self):
            time.sleep(0.01 * (5 - self.n))  # the later tasks finish first
            log.append(("critic", self.n, threading.current_thread()))
            return (float(self.n), 0.0), f"states {self.n}"

        def update_actor(self, states):
            assert states == f"states {self.n}"
            time.sleep(0.01 * (5 - self.n))
            log.append(("actor", self.n, threading.current_thread()))

    agents = [Agent(n) for n in range(5)]
    with ThreadPoolExecutor(max_workers=1) as pool:
        losses = harness._train_agents(pool, 2, agents)
    assert losses == [0.0, 2.0, 3.0, 4.0]
    events = [(event, n) for event, n, _ in log]
    assert sorted(events) == sorted(
        (event, n) for event in ("critic", "actor") for n in (0, 2, 3, 4)
    )
    for n in (0, 2, 3, 4):
        assert events.index(("critic", n)) < events.index(("actor", n))
    assert events.index(("critic", 2)) < events.index(("critic", 0))  # out of order
    threads = {thread for _, _, thread in log}
    assert caller in threads and len(threads) == 2


def test_run_tasks_runs_every_task_whose_input_exists():
    ran = []

    def task(name, fail=False, sleep=0.0):
        def run(*earlier):
            time.sleep(sleep)
            ran.append(name)
            if fail:
                raise ArithmeticError(name)
            return name

        return run

    # "c" fails first, while "b", earlier in the list, still runs; then "b"
    # fails too, and its error is the one raised.  "after a" runs all the
    # same; "after b" fails with b's error without calling its fn.
    tasks = [
        (task("a", sleep=0.02), None),
        (task("b", fail=True, sleep=0.1), None),
        (task("c", fail=True), None),
        (task("after a"), 0),
        (task("after b"), 1),
    ]

    def queues():  # tasks 0, 2 and 4 on the calling thread, 1 and 3 on the pool
        return [collections.deque([0, 2, 4]), collections.deque([1, 3])]

    with ThreadPoolExecutor(max_workers=1) as pool:
        with pytest.raises(ArithmeticError, match="^b$"):
            harness._run_tasks(pool, tasks, queues())
        assert ran == ["a", "c", "b", "after a"]
        tasks[1] = (task("b"), None)
        tasks[2] = (task("c"), None)
        results = harness._run_tasks(pool, tasks, queues())
    assert results == ["a", "b", "c", "after a", "after b"]


def test_run_tasks_keeps_every_worker_going_after_an_interrupted_task():
    ran = []

    def interrupted():
        time.sleep(0.1)  # by now the pool thread waits for this task
        raise KeyboardInterrupt

    tasks = [
        (interrupted, None),
        (lambda earlier: ran.append("after the interrupted task"), 0),
        (lambda: ran.append("independent"), None),
    ]
    queues = [collections.deque([0]), collections.deque([1, 2])]
    threads = threading.enumerate()
    with _deadline(60):
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(KeyboardInterrupt):
                harness._run_tasks(pool, tasks, queues)
    assert ran == ["independent"]
    assert threading.enumerate() == threads


def test_run_tasks_under_thread_switch_pressure_loses_no_task():
    # More workers than cores pull 600 tasks from one queue; the second half
    # each take the result of a task of the first half.  A lost or repeated
    # pull, or a task run before the one it waits for, changes the results.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        half = 300
        tasks = [(functools.partial(lambda i: [i], i), None) for i in range(half)]
        tasks += [
            (functools.partial(lambda i, earlier: earlier + [i], i), i - half)
            for i in range(half, 2 * half)
        ]
        shared = collections.deque(range(len(tasks)))
        with _deadline(60), ThreadPoolExecutor(max_workers=5) as pool:
            results = harness._run_tasks(pool, tasks, [shared] * 6)
    finally:
        sys.setswitchinterval(interval)
    assert results[:half] == [[i] for i in range(half)]
    assert results[half:] == [[i, i + half] for i in range(half)]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the calling (main) thread if the block runs longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("half", ["update_critic", "update_actor"])
@pytest.mark.parametrize("bad", [0, 2], ids=["first", "last"])
def test_a_failed_train_step_aborts_and_stops_every_worker(tmp_path, monkeypatch, bad, half):
    full = tmp_path / "full"
    run_train(parse_config(write_config(tmp_path, out_dir=full)))
    _pin_workers(monkeypatch, 2)  # the calling thread and one pool thread
    build = harness._build_agents

    def build_with_a_failing_agent(cfg, env):
        agents = build(cfg, env)
        update, calls = getattr(agents[bad], half), []

        def failing_update(*args):
            calls.append(None)
            if len(calls) == 4:  # training starts at slot 7 (batch_size 8): slot 10
                raise ArithmeticError("non-finite gradient; training halted")
            return update(*args)

        setattr(agents[bad], half, failing_update)
        return agents

    monkeypatch.setattr(harness, "_build_agents", build_with_a_failing_agent)
    threads = threading.enumerate()
    config = write_config(tmp_path)
    with _deadline(60), pytest.raises(ArithmeticError, match="non-finite gradient"):
        run_train(parse_config(config))
    assert threading.enumerate() == threads

    out = tmp_path / "out"
    # The abort event is the run's one record of the failure: no dump file.
    written = sorted(p.name for p in out.iterdir())
    assert written == ["checkpoints", "train.csv", "train_events.jsonl"]
    last = _events(out)[-1]
    full_rows = MetricSink.read(full / "train.csv")
    assert (last["kind"], last["error"], last["slot"]) == (
        "abort",
        "non-finite gradient; training halted",
        10,
    )
    # Slot 10 acted (decaying the exploration noise) before its train step failed.
    assert last["noise_sigma"] == full_rows[10]["sigma_a"]
    assert last["recent_sum_rates"] == [r["sum_rate"] for r in full_rows[:10]]
    rows = (out / "train.csv").read_text().splitlines(keepends=True)
    assert rows == (full / "train.csv").read_text().splitlines(keepends=True)[: 2 + 10]

    with _deadline(60):
        assert main(["train", str(config)]) == 4
    assert threading.enumerate() == threads


def test_pool_threads_train_under_the_callers_numpy_error_state(tmp_path, monkeypatch):
    _pin_workers(monkeypatch, 3)
    caller = threading.current_thread()
    for half in ("update_critic", "update_actor"):
        update = getattr(DdpgAgent, half)

        def overflow_off_the_caller(self, *args, update=update):
            if threading.current_thread() is not caller:
                np.float64(1e308) * 10.0
            return update(self, *args)

        monkeypatch.setattr(DdpgAgent, half, overflow_off_the_caller)
    cfg = parse_config(write_config(tmp_path))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        run_train(cfg)


# -- agents restored on the worker pool ------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_restore_on_any_worker_count_reads_every_agent_in_order(
    tmp_path, monkeypatch, workers
):
    cfg = parse_config(write_config(tmp_path))
    ckpt = run_train(cfg)["checkpoint"]
    stored = _checkpoint_arrays(ckpt)
    _pin_workers(monkeypatch, workers)
    _, _, resumed = load_checkpoint(ckpt, _build_env(cfg), cfg.hyperparameters)
    loaded = load_agents_from_checkpoint(ckpt, cfg.network.num_cells)
    for agents in (resumed, loaded):
        assert len(agents) == 3
        for n, agent in enumerate(agents):
            for key, array in agent.state_dict().items():
                if key != "meta":
                    assert array.tobytes() == stored[f"agent{n}_{key}"].tobytes(), (n, key)
            assert read_meta(agent.state_dict()["meta"], AGENT_META) == read_meta(
                stored[f"agent{n}_meta"], AGENT_META
            )


@pytest.mark.parametrize("damaged", [False, True], ids=["intact", "damaged"])
def test_restores_leave_no_thread_running(tmp_path, monkeypatch, damaged):
    cfg = parse_config(write_config(tmp_path))
    ckpt = run_train(cfg)["checkpoint"]
    _pin_workers(monkeypatch, 3)  # the last agent is read on a pool thread
    if damaged:
        with np.load(ckpt) as data:
            arrays = {k: data[k] for k in data.files if k != "agent2_actor"}
        np.savez(ckpt, **arrays)
    threads = threading.enumerate()
    calls = [
        lambda: run_train(cfg, resume_from=ckpt),
        lambda: run_benchmark(cfg, schemes=("ddcbf",), checkpoint=ckpt),
        lambda: load_agents_from_checkpoint(ckpt, cfg.network.num_cells),
    ]
    for call in calls:
        if damaged:
            with pytest.raises(ConfigError, match="is damaged: .*agent2_actor"):
                call()
        else:
            call()
        assert threading.enumerate() == threads


def test_resume_rejects_metrics_shorter_than_checkpoint(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    run_train(cfg)
    csv = tmp_path / "out" / "train.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[: 2 + 3]))
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    with pytest.raises(ConfigError, match="holds 3 rows, the checkpoint covers 7"):
        run_train(cfg, resume_from=str(ckpt))


def test_resumed_sink_failing_to_write_keeps_the_covered_rows(tmp_path, monkeypatch):
    with MetricSink(tmp_path, 2) as sink:
        for slot in range(5):
            sink.write_slot(slot, "ddcbf", [1.0, 2.0 + slot], [0.5, 0.25], 0.1)
    csv = tmp_path / "train.csv"
    kept = "".join(csv.read_text().splitlines(keepends=True)[: 2 + 3])

    class FailingWrites:
        def __init__(self, fh):
            self._fh = fh

        def write(self, *args):
            raise OSError("no space left on device")

        writelines = write

        def flush(self):
            self._fh.flush()

        def close(self):
            self._fh.close()

    def open_with_failing_writes(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return fh if mode.startswith("r") else FailingWrites(fh)

    monkeypatch.setattr(harness, "open", open_with_failing_writes, raising=False)
    # A crash at any write of the resumed sink leaves the rows the checkpoint
    # covers in place, so the next resume can still use them.
    with pytest.raises(OSError, match="no space"):
        with MetricSink(tmp_path, 2, resume_rows=3) as sink:
            sink.write_slot(3, "ddcbf", [1.0, 9.0], [0.5, 0.25], 0.1)
    assert csv.read_text() == kept


def test_metrics_round_trip_lossless(tmp_path):
    cfg = parse_config(write_config(tmp_path, num_slots=6))
    summary = run_train(cfg)
    rows = MetricSink.read(summary["metrics_csv"])
    # regenerate the CSV from parsed rows and compare byte-for-byte
    with open(summary["metrics_csv"]) as fh:
        src = fh.read().splitlines()
    header, cols = src[0], src[1].split(",")
    rebuilt = [src[0], src[1]]
    for row in rows:
        parts = []
        for c in cols:
            v = row[c]
            parts.append(v if isinstance(v, str) else repr(v) if isinstance(v, float) else str(v))
        rebuilt.append(",".join(parts))
    assert rebuilt == src


@pytest.mark.parametrize("reader", [MetricSink.read, read_bench], ids=["metrics", "bench"])
def test_csv_readers_reject_a_wrong_version_line(tmp_path, reader):
    path = tmp_path / "rows.csv"
    path.write_text("# cbflab-other-v9\nslot,scheme,sum_rate\n0,x,1.0\n")
    with pytest.raises(ConfigError, match="unsupported version 'cbflab-other-v9'"):
        reader(str(path))


def test_read_bench_returns_float_cell_rates(tmp_path):
    cfg = parse_config(write_config(tmp_path, bench_slots=2))
    out = run_benchmark(cfg, schemes=("mslnr-ep",))
    rows = read_bench(out["bench_csv"])
    assert [r["slot"] for r in rows] == [0, 1]
    with open(out["bench_csv"]) as fh:
        lines = fh.read().splitlines()[2:]
    for row, line in zip(rows, lines):
        assert row["scheme"] == "mslnr-ep"
        rates = [row[f"cell_rate_{n}"] for n in range(cfg.network.num_cells)]
        assert all(type(x) is float for x in [row["sum_rate"], *rates])
        assert line.split(",")[3:] == [repr(x) for x in rates]


# -- benchmarks ---------------------------------------------------------------------


def test_benchmark_same_trace_and_determinism(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    out1 = run_benchmark(cfg, schemes=("mslnr-ep",))
    with open(out1["bench_csv"]) as fh:
        first = fh.read()
    out2 = run_benchmark(cfg, schemes=("mslnr-ep",))
    with open(out2["bench_csv"]) as fh:
        assert fh.read() == first


@pytest.mark.parametrize("failure", ["summary dump", "second write"])
def test_failed_bench_keeps_the_earlier_reports(tmp_path, monkeypatch, break_writes, failure):
    cfg = parse_config(write_config(tmp_path))
    out = run_benchmark(cfg, schemes=("mslnr-ep",))
    paths = [pathlib.Path(out[key]) for key in ("bench_csv", "cdf_csv", "summary")]
    before = [path.read_bytes() for path in paths]
    if failure == "summary dump":

        def full_disk(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(harness.json, "dump", full_disk)
    else:
        break_writes()
    with pytest.raises(OSError, match="disk full"):
        run_benchmark(dataclasses.replace(cfg, bench_offset=3), schemes=("mslnr-ep",))
    assert [path.read_bytes() for path in paths] == before
    assert sorted(os.listdir(cfg.out_dir)) == ["bench.csv", "bench_cdf.csv", "bench_summary.json"]


def test_live_bench_window_matches_generated_trace(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    window = _collect_window(cfg, 5, 4)
    full = generate_trace(cfg.network, cfg.channel, 9)
    assert window.h.tobytes() == full.h[5:].tobytes()
    assert window.cfg_hash == full.cfg_hash


@pytest.mark.parametrize("source", ["trace", "live"])
def test_mslnr_bench_blocks_equal_per_slot_calls(tmp_path, source):
    # A window of two blocks and a part: each row against one slot's solve.
    slots = 2 * harness._SLOT_BLOCK + 3
    cfg = parse_config(write_config(tmp_path, bench_slots=slots, bench_offset=2))
    if source == "trace":
        trace_path = tmp_path / "chan.trace"
        generate_trace_file(cfg, trace_path, num_slots=slots + 3)
        cfg = dataclasses.replace(cfg, trace_file=str(trace_path))
    rows = read_bench(run_benchmark(cfg, schemes=("mslnr-ep",))["bench_csv"])
    window = generate_trace(cfg.network, cfg.channel, slots, offset=2)
    assert [r["slot"] for r in rows] == list(range(2, 2 + slots))
    for t, row in enumerate(rows):
        channel = window.slot(t)
        metrics = compute_metrics(channel, mslnr_beams(channel, cfg.network), cfg.network)
        cell_rates = metrics.rate.sum(axis=1)
        assert row["sum_rate"] == float(cell_rates.sum())
        assert [row[f"cell_rate_{n}"] for n in range(3)] == [float(x) for x in cell_rates]


def test_wmmse_bench_makes_one_call_per_slot_with_scalar_diagnostics(tmp_path, monkeypatch):
    # perfbench's tracer reads iterations and truncated of each harness.wmmse result.
    results = []

    def recorded(*args, **kwargs):
        results.append(solvers.wmmse(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "wmmse", recorded)
    cfg = parse_config(write_config(tmp_path, bench_slots=3))
    run_benchmark(cfg, schemes=("wmmse",))
    assert len(results) == 3
    for result in results:
        beams, state = result
        assert type(beams) is BeamformerSet and type(state) is solvers.WmmseState
        assert type(state.iterations) is int and type(state.truncated) is bool


def _window_bench_config(tmp_path, source, slots, **overrides):
    """SMALL bench config of ``slots`` slots from slot 2, trace-backed or live."""
    values = {"bench_offset": 2, "wmmse_num_inits": 2, "wmmse_max_iter": 8, **overrides}
    cfg = parse_config(write_config(tmp_path, bench_slots=slots, **values))
    if source == "trace":
        trace_path = tmp_path / "chan.trace"
        generate_trace_file(cfg, trace_path, num_slots=slots + 3)
        cfg = dataclasses.replace(cfg, trace_file=str(trace_path))
    return cfg


PER_SLOT_SCHEMES = ("mslnr-ep", "wmmse", "wmmse-nri")
BENCH_FILES = ("bench.csv", "bench_cdf.csv", "bench_summary.json")


@pytest.mark.parametrize("source", ["trace", "live"])
@pytest.mark.parametrize(
    "slots",
    [
        5,  # max-SLNR blocks of 5, of 2 + 3 and of 1 + 2 + 2
        2 * harness._SLOT_BLOCK + 3,  # blocks of 11 + 12 + 12 on every worker count
    ],
)
def test_bench_files_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, source, slots):
    cfg = _window_bench_config(tmp_path, source, slots)
    files = {}
    for workers in (1, 2, 3):
        _pin_workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        run_benchmark(dataclasses.replace(cfg, out_dir=str(out)), PER_SLOT_SCHEMES)
        files[workers] = [(out / name).read_bytes() for name in BENCH_FILES]
    assert files[2] == files[1]
    assert files[3] == files[1]


@pytest.mark.parametrize(
    "failing, scheme",
    [
        *(("compute_metrics", scheme) for scheme in PER_SLOT_SCHEMES),
        ("wmmse", "wmmse"),
        ("wmmse_multi_init", "wmmse-nri"),
    ],
)
def test_a_failed_bench_block_or_slot_raises_the_one_worker_error(
    tmp_path, monkeypatch, failing, scheme
):
    # Every slot from window slot 3 on fails, naming its slot: the error of
    # the first in slot order propagates, whichever worker ran its block.
    cfg = _window_bench_config(tmp_path, "trace", 7, bench_offset=0)
    original = getattr(harness, failing)

    def fail_from_slot_3(channel, *args, **kwargs):
        first = channel.slot_index
        last = first + (len(channel.h) if channel.h.ndim == 5 else 1)
        if last > 3:
            raise ArithmeticError(f"slot {max(first, 3)} failed")
        return original(channel, *args, **kwargs)

    monkeypatch.setattr(harness, failing, fail_from_slot_3)
    threads = threading.enumerate()
    errors = []
    for workers in (1, 2, 3):
        _pin_workers(monkeypatch, workers)
        with pytest.raises(ArithmeticError) as info:
            run_benchmark(cfg, (scheme,))
        errors.append(str(info.value))
        assert threading.enumerate() == threads
    assert errors == ["slot 3 failed"] * 3
    assert not os.path.exists(cfg.out_dir)


@pytest.mark.parametrize("scheme", PER_SLOT_SCHEMES)
def test_a_one_slot_bench_starts_no_thread(tmp_path, monkeypatch, scheme):
    started = []
    start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    run_benchmark(_window_bench_config(tmp_path, "trace", 1), (scheme,))
    assert started == []


@pytest.mark.parametrize("source", ["trace", "live"])
def test_a_bench_checks_each_window_slot_once(tmp_path, monkeypatch, source):
    cfg = _window_bench_config(tmp_path, source, 4, num_slots=12)
    checkpoint = run_train(dataclasses.replace(cfg, trace_file=""))["checkpoint"]
    checks = collections.Counter()
    check = ChannelState.__post_init__

    def counted_check(channel, checked):
        if not checked:
            stacked = int(np.prod(channel.h.shape[:-4]))
            checks.update(range(channel.slot_index, channel.slot_index + stacked))
        check(channel, checked)

    monkeypatch.setattr(ChannelState, "__post_init__", counted_check)
    run_benchmark(cfg, ("ddcbf", *PER_SLOT_SCHEMES), checkpoint=checkpoint)
    # The window is slots 2-6, a policy's rollout reading one slot more than
    # the 4 rows; a live window also generates the slots before it.
    first = 2 if source == "trace" else 0
    assert checks == collections.Counter(range(first, 7))


def test_benchmark_multi_init_dominates(tmp_path):
    cfg = parse_config(write_config(tmp_path, wmmse_num_inits=4, bench_slots=3))
    out = run_benchmark(cfg, schemes=("wmmse", "wmmse-nri"))
    rows = read_bench(out["bench_csv"])
    one = {r["slot"]: r["sum_rate"] for r in rows if r["scheme"] == "wmmse"}
    many = {r["slot"]: r["sum_rate"] for r in rows if r["scheme"] == "wmmse-nri"}
    assert set(one) == set(many)
    for slot, rate in one.items():
        assert many[slot] >= rate - 1e-9


def test_benchmark_summary_records_wmmse_diagnostics(tmp_path):
    cfg = parse_config(write_config(tmp_path, wmmse_num_inits=2, bench_slots=3))
    out = run_benchmark(cfg, schemes=("mslnr-ep", "wmmse", "wmmse-nri"))
    with open(out["summary"]) as fh:
        assert json.load(fh)["results"] == out["results"]
    assert "iterations_mean" not in out["results"]["mslnr-ep"]
    window = _collect_window(cfg, 0, 3)
    states = [
        harness.wmmse(window.slot(t), cfg.network, cfg.wmmse_stop_eps, cfg.wmmse_max_iter)[1]
        for t in range(3)
    ]
    stats = out["results"]["wmmse"]
    assert stats["iterations_mean"] == np.mean([st.iterations for st in states])
    assert stats["search_steps_mean"] == np.mean([st.search_steps for st in states])
    assert stats["truncated_frac"] == np.mean([st.truncated for st in states])
    assert out["results"]["wmmse-nri"]["search_steps_mean"] > 0

    capped = parse_config(
        write_config(tmp_path, bench_slots=2, wmmse_max_iter=3, wmmse_stop_eps=1e-300)
    )
    out = run_benchmark(capped, schemes=("wmmse", "wmmse-nri"))
    for scheme in ("wmmse", "wmmse-nri"):
        assert out["results"][scheme]["iterations_mean"] == 3.0
        assert out["results"][scheme]["search_steps_mean"] > 0
        assert out["results"][scheme]["truncated_frac"] == 1.0


def test_benchmark_requires_checkpoint_for_policies(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match="checkpoint"):
        run_benchmark(cfg, schemes=("ddcbf",))


def test_benchmark_rejects_an_empty_scheme_list(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    with pytest.raises(ConfigError, match="at least one scheme"):
        run_benchmark(cfg, schemes=())
    assert not (tmp_path / "out").exists()


def test_benchmark_policy_rollout_from_checkpoint(tmp_path):
    cfg = parse_config(write_config(tmp_path, num_slots=12, bench_slots=3))
    summary = run_train(cfg)
    out = run_benchmark(
        cfg, schemes=("ddcbf", "mslnr-ep"), checkpoint=summary["checkpoint"]
    )
    assert set(out["results"]) == {"ddcbf", "mslnr-ep"}
    for stats in out["results"].values():
        assert stats["slots"] == 3
        assert np.isfinite(stats["mean"])
    with open(out["cdf_csv"]) as fh:
        cdf = fh.read().splitlines()
    assert cdf[1] == "scheme,sum_rate,cum_prob"
    assert len(cdf) == 2 + 2 * 3


def test_policy_rollout_reads_only_the_actors(tmp_path):
    cfg = parse_config(write_config(tmp_path, num_slots=12, bench_slots=3))
    full = run_train(cfg)["checkpoint"]
    # A checkpoint stripped of everything but the actors rolls out the same.
    with np.load(full) as data:
        keep = {
            k: data[k]
            for k in data.files
            if k == "harness_meta" or re.fullmatch(r"agent\d+_(meta|actor)", k)
        }
        assert len(keep) < len(data.files)
    stripped = tmp_path / "actors_only.npz"
    np.savez(stripped, **keep)
    rows = {}
    for name, path in (("full", full), ("stripped", stripped)):
        out = run_benchmark(cfg, schemes=("ddcbf",), checkpoint=str(path))
        with open(out["bench_csv"]) as fh:
            rows[name] = fh.read()
    assert rows["stripped"] == rows["full"]

def reference_rollout(cfg, trace, checkpoint, action_mode):
    """The greedy rollout with each actor its own net, run one row at a time."""
    env = _build_env(cfg, stream=TraceStream(trace), action_mode=action_mode)
    actors = []
    with np.load(checkpoint) as data:
        for n in range(cfg.network.num_cells):
            sizes = actor_layer_sizes(read_meta(data[f"agent{n}_meta"], AGENT_META))
            flat = read_entry(data, f"agent{n}_actor", np.empty(Mlp.num_parameters(sizes)))
            actors.append(Mlp(sizes, flat, "sigmoid"))
    states = env.reset()
    cell_rates = []
    for _ in range(trace.num_slots - 1):
        actions = np.stack([actor.forward(states[n][None])[0] for n, actor in enumerate(actors)])
        states, _, metrics = env.step(actions)
        cell_rates.append(metrics.rate.sum(axis=1))
    return cell_rates


@pytest.mark.parametrize("action_mode", ["structured", "mslnr-power"])
def test_stacked_rollout_writes_the_bench_files_of_one_actor_at_a_time(
    tmp_path, monkeypatch, action_mode
):
    trace_path = tmp_path / "chan.trace"
    cfg = parse_config(
        write_config(tmp_path, action_mode=action_mode, num_slots=12, bench_slots=5)
    )
    generate_trace_file(cfg, trace_path)
    cfg = dataclasses.replace(cfg, trace_file=str(trace_path))
    ckpt = run_train(cfg)["checkpoint"]
    scheme = "ddcbf" if action_mode == "structured" else "mslnr-ddpg"
    files = {}

    def rows(cfg, trace, _stack, action_mode):  # each actor read from ckpt on its own
        return reference_rollout(cfg, trace, ckpt, action_mode)

    for name, rollout in (("stacked", harness._rollout_policy), ("rows", rows)):
        monkeypatch.setattr(harness, "_rollout_policy", rollout)
        out = run_benchmark(
            dataclasses.replace(cfg, out_dir=str(tmp_path / name)),
            schemes=(scheme,),
            checkpoint=ckpt,
            mslnr_checkpoint=ckpt,
        )
        files[name] = {}
        for key in ("bench_csv", "cdf_csv", "summary"):
            with open(out[key], "rb") as fh:
                files[name][key] = fh.read()
    assert files["stacked"] == files["rows"]
    assert files["stacked"]["bench_csv"].count(scheme.encode()) == 5


def test_stacked_rollout_rejects_actors_of_other_hidden_widths(tmp_path, read_entry_calls):
    cfg = parse_config(write_config(tmp_path, num_slots=12, bench_slots=3))
    ckpt = run_train(cfg)["checkpoint"]
    other = parse_config(
        write_config(tmp_path, name="other.cfg", hidden_sizes="16,10", out_dir=tmp_path / "o")
    )
    with np.load(run_train(other)["checkpoint"]) as data:
        agent2 = {k: data[k] for k in data.files if k.startswith("agent2_")}
    with np.load(ckpt) as data:
        arrays = {k: data[k] for k in data.files}
    arrays.update(agent2)
    mixed = tmp_path / "mixed.npz"
    np.savez(mixed, **arrays)
    with pytest.raises(
        ConfigError,
        match=re.escape(
            f"checkpoint {mixed} is damaged: agent 2: actor has layers "
            "[134, 16, 10, 10], agent 0's [134, 16, 12, 10]"
        ),
    ):
        run_benchmark(cfg, schemes=("ddcbf",), checkpoint=str(mixed))
    # The layers are checked from the metas alone, before any actor is read.
    assert read_entry_calls == []


def test_mslnr_ddpg_train_then_bench(tmp_path):
    cfg = parse_config(
        write_config(tmp_path, action_mode="mslnr-power", num_slots=12, bench_slots=3)
    )
    summary = run_train(cfg)
    assert os.path.basename(summary["metrics_csv"]) == "train_mslnr.csv"
    out = run_benchmark(
        cfg, schemes=("mslnr-ddpg",), mslnr_checkpoint=summary["checkpoint"]
    )
    stats = out["results"]["mslnr-ddpg"]
    assert stats["slots"] == 3
    assert np.isfinite(stats["mean"]) and stats["mean"] > 0


def test_trace_file_pipeline(tmp_path):
    trace_path = tmp_path / "chan.trace"
    cfg = parse_config(write_config(tmp_path, num_slots=9))
    generate_trace_file(cfg, trace_path, num_slots=9)
    cfg2 = parse_config(
        write_config(tmp_path, trace_file=trace_path, num_slots=8, out_dir=tmp_path / "t")
    )
    summary = run_train(cfg2)
    assert summary["slots"] == 8


def test_trace_dimension_mismatch_rejected(tmp_path):
    trace_path = tmp_path / "chan.trace"
    cfg = parse_config(write_config(tmp_path, num_slots=4))
    generate_trace_file(cfg, trace_path, num_slots=4)
    other = parse_config(
        write_config(tmp_path, trace_file=trace_path, array_cols=2, out_dir=tmp_path / "o")
    )
    with pytest.raises(ConfigError, match="dimensions"):
        run_train(other)


def test_default_trace_covers_a_training_run(tmp_path):
    # reset takes one slot and each of the num_slots steps the next one.
    trace_path = tmp_path / "chan.trace"
    cfg = parse_config(write_config(tmp_path, num_slots=10, checkpoint_every=100))
    generate_trace_file(cfg, trace_path)
    assert harness.load_trace(str(trace_path)).num_slots == 11
    summary = run_train(dataclasses.replace(cfg, trace_file=str(trace_path)))
    assert summary["slots"] == 10
    assert os.path.exists(summary["checkpoint"])


def test_run_train_rejects_a_short_trace_before_its_first_slot(tmp_path):
    trace_path = tmp_path / "chan.trace"
    cfg = parse_config(write_config(tmp_path, num_slots=10))
    generate_trace_file(cfg, trace_path, num_slots=10)
    message = (
        f"trace {trace_path} holds 10 of the 11 slots from slot 0 that a run of "
        "num_slots = 10 reads"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        run_train(dataclasses.replace(cfg, trace_file=str(trace_path)))
    assert not os.path.exists(os.path.join(cfg.out_dir, "train.csv"))


def test_a_run_loads_only_the_slots_it_reads_of_a_longer_trace(tmp_path, monkeypatch):
    made = parse_config(write_config(tmp_path))  # num_slots = 14
    exact, longer = tmp_path / "exact.trace", tmp_path / "longer.trace"
    generate_trace_file(made, exact)
    generate_trace_file(made, longer, num_slots=40)
    calls = []

    def recorded_load(*args):
        calls.append(args)
        return load(*args)

    load = harness.load_trace
    monkeypatch.setattr(harness, "load_trace", recorded_load)
    outputs = {}
    for trace in (exact, longer):
        out = tmp_path / trace.stem
        run_train(parse_config(write_config(tmp_path, out_dir=out, trace_file=trace)))
        outputs[trace.stem] = _run_outputs(out)
    assert calls == [(str(exact), 0, 15), (str(longer), 0, 15)]
    assert outputs["longer"] == outputs["exact"]


def test_resume_past_num_slots_on_a_longer_trace_exits_two(tmp_path, capsys):
    trace = tmp_path / "chan.trace"
    written = str(write_config(tmp_path, trace_file=trace, num_slots=28))
    assert main(["trace-gen", written, str(trace), "--slots", "40"]) == 0
    assert main(["train", written]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000021.npz"
    config = str(write_config(tmp_path, name="short.cfg", trace_file=trace))  # num_slots = 14
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    assert capsys.readouterr().err == (
        f"config error: checkpoint {ckpt} does not fit this config: "
        "cursor 22 lies outside this 15-slot trace\n"
    )
    assert csv.read_bytes() == rows


def test_default_trace_covers_the_default_bench_window(tmp_path):
    # The default window is the last bench_slots steps plus their next state.
    trace_path = tmp_path / "chan.trace"
    cfg = parse_config(write_config(tmp_path, num_slots=10, bench_offset=-1))
    generate_trace_file(cfg, trace_path)
    out = run_benchmark(
        dataclasses.replace(cfg, trace_file=str(trace_path)), schemes=("mslnr-ep",)
    )
    assert out["window_offset"] == 6
    assert out["results"]["mslnr-ep"]["slots"] == 4


# -- timing ---------------------------------------------------------------------------


def test_timing_sanity_ordering(tmp_path):
    cfg = parse_config(write_config(tmp_path, wmmse_max_iter=20))
    report = run_timing(cfg, repeats=5)
    assert report["mrt"]["median_s"] <= report["wmmse"]["median_s"]
    assert report["ddcbf-decision"]["median_s"] < report["wmmse"]["median_s"]
    assert os.path.exists(report["path"])
    with open(report["path"]) as fh:
        saved = json.load(fh)
    assert saved["wmmse"]["repeats"] == 5
    channel = ChannelProcess(cfg.network, cfg.channel).next_slot()
    _, state = harness.wmmse(channel, cfg.network, cfg.wmmse_stop_eps, cfg.wmmse_max_iter)
    assert saved["wmmse"]["iterations"] == state.iterations
    assert saved["decision_path"] == {
        "bs": 0,
        "slots": 1,
        "actor": "untrained (random initialization)",
    }
