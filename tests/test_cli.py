import json
import os
import struct
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest

import cbflab
from cbflab import harness
from cbflab.channel import generate_trace, save_trace
from cbflab.cli import build_parser, main
from cbflab.drl import CHECKPOINT_VERSION
from test_channel import write_trace_header
from test_harness import SMALL, write_config


@pytest.fixture(autouse=True)
def no_out_dir_override(monkeypatch):
    monkeypatch.delenv("CBFLAB_OUT_DIR", raising=False)


def test_trace_gen_train_and_bench_exit_zero(tmp_path, capsys):
    trace = tmp_path / "chan.trace"
    config = str(write_config(tmp_path))
    assert main(["trace-gen", config, str(trace), "--slots", "9"]) == 0
    assert trace.exists()
    capsys.readouterr()

    assert main(["train", config]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["slots"] == 14

    argv = ["bench", config, "--schemes", "ddcbf,mslnr-ep"]
    assert main([*argv, "--checkpoint", summary["checkpoint"]]) == 0
    results = json.loads(capsys.readouterr().out)
    assert set(results) == {"ddcbf", "mslnr-ep"}
    assert results["ddcbf"]["slots"] == 4


def test_train_on_a_short_trace_exits_two(tmp_path, capsys):
    trace = tmp_path / "chan.trace"
    config = str(write_config(tmp_path, trace_file=trace))  # num_slots = 14
    assert main(["trace-gen", config, str(trace), "--slots", "14"]) == 0
    capsys.readouterr()
    assert main(["train", config]) == 2
    assert capsys.readouterr().err == (
        f"config error: trace {trace} holds 14 of the 15 slots from slot 0 that a run of "
        "num_slots = 14 reads\n"
    )
    # By default trace-gen writes what the run reads.
    assert main(["trace-gen", config, str(trace)]) == 0
    assert main(["train", config]) == 0


def test_unknown_key_exits_two(tmp_path, capsys):
    config = str(write_config(tmp_path, bogus_key=1))
    assert main(["train", config]) == 2
    assert "unknown key 'bogus_key'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["checkpoint", "mslnr_checkpoint"])
def test_checkpoint_is_not_a_config_key(tmp_path, capsys, key):
    # A bench takes its trained checkpoints as arguments, as a resume does.
    config = str(write_config(tmp_path, **{key: tmp_path / "trained.npz"}))
    assert main(["bench", config, "--schemes", "mslnr-ep"]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_resume_mismatch_exits_two(tmp_path, capsys):
    assert main(["train", str(write_config(tmp_path))]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    other = str(write_config(tmp_path, name="other.cfg", hidden_sizes="16,10"))
    capsys.readouterr()
    assert main(["train", other, "--resume", str(ckpt)]) == 2
    assert "hidden_sizes = (16, 10) does not match" in capsys.readouterr().err


def test_eval_is_not_a_subcommand(tmp_path, capsys):
    assert "{trace-gen,train,bench,timing}" in build_parser().format_usage()
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(write_config(tmp_path)), "--checkpoint", "x.npz"])
    assert exc.value.code == 2
    assert "invalid choice: 'eval'" in capsys.readouterr().err


@pytest.mark.parametrize("first", ["trace", "process"])
def test_resume_across_channel_sources_exits_two(tmp_path, capsys, first):
    trace = tmp_path / "chan.trace"
    configs = {
        "process": str(write_config(tmp_path, name="live.cfg")),
        "trace": str(write_config(tmp_path, name="trace.cfg", trace_file=trace)),
    }
    assert main(["trace-gen", configs["process"], str(trace), "--slots", "20"]) == 0
    assert main(["train", configs[first]]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    csv = tmp_path / "out" / "train.csv"
    written = csv.read_bytes()
    second = "process" if first == "trace" else "trace"
    capsys.readouterr()
    assert main(["train", configs[second], "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"written from a '{first}' channel source" in err
    assert f"this config reads a '{second}' one" in err
    assert csv.read_bytes() == written


def test_unknown_run_checkpoint_version_exits_two(tmp_path, capsys):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000014.npz"
    with np.load(ckpt) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["harness_meta"]))
    meta["version"] = CHECKPOINT_VERSION + 1
    arrays["harness_meta"] = np.array(json.dumps(meta))
    future = tmp_path / "future.npz"
    np.savez(future, **arrays)
    capsys.readouterr()
    for argv in (
        ["train", config, "--resume", str(future)],
        ["bench", config, "--schemes", "ddcbf", "--checkpoint", str(future)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (
            f"config error: checkpoint {future} is damaged: "
            f"unsupported checkpoint version {CHECKPOINT_VERSION + 1}\n"
        ) in err


BAD_VALUES = [
    ("train", {"checkpoint_every": 0}, "checkpoint_every must be >= 1"),
    ("train", {"num_slots": 0}, "num_slots must be >= 1"),
    ("train", {"eval_window": 0}, "eval_window must be >= 1"),
    ("train", {"batch_size": 0}, "batch_size must be >= 1"),
    ("bench", {"bench_slots": 0}, "bench_slots must be >= 1"),
    ("bench", {"wmmse_num_inits": 0}, "wmmse_num_inits must be >= 1"),
    ("bench", {"wmmse_max_iter": -3}, "wmmse_max_iter must be >= 1"),
    ("bench", {"wmmse_stop_eps": -1}, "wmmse_stop_eps must be > 0"),
    ("train", {"num_cells": 0}, "num_cells must be >= 1"),
    ("train", {"channel_model": "foo"}, "channel_model must be one of"),
    ("train", {"channel_model": "iid-rayleigh"}, "channel_model must be one of"),
    ("train", {"num_rays": 0}, "num_rays must be >= 1"),
    ("train", {"temporal_corr": 2}, "temporal_corr must lie in"),
    ("train", {"slot_duration_ms": 0}, "slot_duration_ms must be > 0"),
    ("train", {"ue_speed_kmh": "inf"}, "ue_speed_kmh must be finite"),
    ("train", {"angular_spread_deg": "nan"}, "angular_spread_deg must be finite"),
    ("train", {"pathloss_ref_dist_m": 0}, "pathloss_ref_dist_m must be > 0"),
    ("train", {"cell_radius_m": 5}, "cell_radius_m must be finite and > 10 m"),
    ("train", {"codebook_size": 2, "csi_keep": 3}, "csi_keep must be <= codebook_size"),
    ("train", {"p_max_dbm": 4000}, "p_max_dbm = 4000 dBm is not a finite power > 0 W"),
    ("train", {"noise_dbm": -4000}, "noise_dbm = -4000 dBm is not a finite power > 0 W"),
    ("train", {"ue_speed_kmh": 1e6}, "ue_speed_kmh must not move a user farther than"),
    ("train", {"schemes": "wmmse,wmmse"}, "schemes must not list a scheme twice"),
    ("train", {"schemes": ","}, "schemes must list at least one scheme"),
    ("train", {"discount": 1.5}, "discount must lie in [0, 1)"),
    ("train", {"soft_update_rate": 0}, "soft_update_rate must lie in (0, 1]"),
    ("train", {"noise_sigma_init": -1}, "noise_sigma_init must be >= 0"),
    ("train", {"noise_decay": -1}, "noise_decay must be >= 0"),
    ("train", {"hidden_sizes": 0}, "hidden_sizes must list widths >= 1"),
    ("train", {"num_interferers": -1}, "num_interferers must be <= num_cells - 1 and >= 0"),
    ("train", {"num_interferers": 3}, "num_interferers must be <= num_cells - 1 and >= 0"),
    ("train", {"csi_keep": -1}, "csi_keep must be <= codebook_size and >= 0"),
    ("train", {"actor_lr": -1}, "actor_lr must be > 0"),
    ("train", {"critic_lr": 0}, "critic_lr must be > 0"),
    ("train", {"batch_size": 65}, "batch_size must be <= memory_capacity"),
    ("train", {"action_mode": "foo"}, "action_mode must be one of"),
    ("train", {"seed": -1}, "seed must be >= 0"),
    ("bench", {"bench_offset": -2}, "bench_offset must be -1 (auto) or >= 0"),
]


@pytest.mark.parametrize(
    "command, overrides, message",
    BAD_VALUES,
    ids=[",".join(f"{k}={v}" for k, v in case[1].items()) for case in BAD_VALUES],
)
def test_bad_config_value_exits_two_and_writes_nothing(
    tmp_path, capsys, command, overrides, message
):
    argv = [command, str(write_config(tmp_path, **overrides))]
    if command == "bench":
        argv += ["--schemes", "mslnr-ep"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_text_exits_two_and_writes_nothing(tmp_path, capsys):
    config = write_config(tmp_path)
    config.write_bytes(config.read_bytes() + b"# caf\xff\n")
    assert main(["train", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: not UTF-8 text")
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("trace-gen", ["--slots", "0"], "slots must be >= 1, got 0"),
        ("trace-gen", ["--slots", "-2"], "slots must be >= 1, got -2"),
        ("timing", ["--repeats", "0"], "repeats must be >= 1, got 0"),
    ],
    ids=["slots=0", "slots=-2", "repeats=0"],
)
def test_count_flag_below_one_exits_two_and_writes_nothing(
    tmp_path, capsys, command, flags, message
):
    argv = [command, str(write_config(tmp_path))]
    if command == "trace-gen":
        argv.append(str(tmp_path / "chan.trace"))
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_bench_on_a_mismatched_trace_exits_two_and_writes_nothing(tmp_path, capsys):
    trace = tmp_path / "chan.trace"
    made = str(write_config(tmp_path, name="three.cfg", users_per_cell=3))
    assert main(["trace-gen", made, str(trace)]) == 0
    assert not (tmp_path / "out").exists()
    config = str(write_config(tmp_path, trace_file=trace))  # users_per_cell = 2
    capsys.readouterr()
    assert main(["bench", config, "--schemes", "mslnr-ep"]) == 2
    assert capsys.readouterr().err == (
        f"config error: trace dimensions do not match the network config: {trace} holds "
        "slots of shape (3, 3, 3, 4), the network needs (3, 3, 2, 4)\n"
    )
    assert not (tmp_path / "out").exists()


def _nan_entry(h):
    h[3, 0, 1, 0, 2] = np.nan


def _dark_serving_link(h):
    h[3, 1, 1, 0] = 0.0


@pytest.mark.parametrize("command", ["bench", "train"])
@pytest.mark.parametrize(
    "damage, message",
    [
        (_nan_entry, "slot 3, BS 0: channel tensor contains non-finite entries"),
        (_dark_serving_link, "slot 3, BS 1: every serving link h[n, n, k] must be nonzero"),
    ],
    ids=["non-finite", "zero-serving-link"],
)
def test_a_trace_slot_that_is_no_channel_exits_three_and_writes_nothing(
    tmp_path, capsys, command, damage, message
):
    # The file's checksum is valid: the slot itself is the fault.
    trace = tmp_path / "chan.trace"
    config = write_config(tmp_path, trace_file=trace)
    cfg = harness.parse_config(str(config))
    stored = generate_trace(cfg.network, cfg.channel, cfg.num_slots + 1)
    damage(stored.h)
    save_trace(stored, trace)
    argv = [command, str(config)] + (["--schemes", "mslnr-ep,wmmse"] if command == "bench" else [])
    assert main(argv) == 3
    assert capsys.readouterr().err == f"trace error: trace {trace}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("slots", [2**40, 2**64 - 1], ids=["2^40-slots", "2^64-1-slots"])
def test_train_on_a_trace_of_empty_slots_exits_three(tmp_path, capsys, slots):
    trace = tmp_path / "chan.trace"
    write_trace_header(trace, 0, 2, 2, slots, 7)
    assert main(["train", str(write_config(tmp_path, trace_file=trace))]) == 3
    assert capsys.readouterr().err == (
        f"trace error: trace {trace}: bad header: 0 cells, 2 users and 2 antennas; "
        "each count must be >= 1\n"
    )


@pytest.mark.parametrize("command", ["bench", "train"])
def test_a_trace_with_a_flipped_payload_byte_exits_three_naming_it(tmp_path, capsys, command):
    trace = tmp_path / "chan.trace"
    config = str(write_config(tmp_path, trace_file=trace))
    assert main(["trace-gen", config, str(trace)]) == 0
    data = bytearray(trace.read_bytes())
    data[len(data) // 2] ^= 0x01  # a payload byte: the header and footer stay valid
    trace.write_bytes(data)
    capsys.readouterr()
    argv = [command, config] + (["--schemes", "mslnr-ep"] if command == "bench" else [])
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"trace error: trace {trace}: checksum mismatch: trace file corrupted\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, scheme, overrides, widths",
    [
        ("--checkpoint", "ddcbf", {"num_interferers": 1}, "134 state entries to 10"),
        ("--mslnr-checkpoint", "mslnr-ddpg", {}, "134 state entries to 10"),
    ],
    ids=["state-width", "action-width"],
)
def test_bench_on_a_checkpoint_of_another_shape_exits_two_and_writes_nothing(
    tmp_path, capsys, flag, scheme, overrides, widths
):
    assert main(["train", str(write_config(tmp_path))]) == 0  # structured actions
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000014.npz"
    config = str(write_config(tmp_path, name="other.cfg", **overrides))
    capsys.readouterr()
    assert main(["bench", config, "--schemes", f"mslnr-ep,{scheme}", flag, str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"config error: agent 0 in checkpoint {ckpt} maps {widths}" in err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "checkpoints",
        "train.csv",
        "train_events.jsonl",
    ]


def test_bench_on_a_checkpoint_of_more_agents_exits_two_and_writes_nothing(tmp_path, capsys):
    # Power-only state and action widths do not depend on the cell count,
    # so only the agent count tells a 4-cell checkpoint from a 3-cell one.
    four = str(write_config(tmp_path, name="four.cfg", num_cells=4, action_mode="mslnr-power"))
    assert main(["train", four]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "train_mslnr_00000014.npz"
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    config = str(write_config(tmp_path, action_mode="mslnr-power"))  # num_cells = 3
    capsys.readouterr()
    argv = ["bench", config, "--schemes", "mslnr-ddpg", "--mslnr-checkpoint", str(ckpt)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: checkpoint {ckpt} holds 4 agents, this config has 3 cells" in err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written


def test_resume_and_bench_reject_a_checkpoint_of_another_width_alike(tmp_path, capsys):
    assert main(["train", str(write_config(tmp_path))]) == 0
    ckpt = str(tmp_path / "out" / "checkpoints" / "train_00000007.npz")
    config = str(write_config(tmp_path, name="other.cfg", num_interferers=1))
    capsys.readouterr()
    errors = []
    for argv in (
        ["train", config, "--resume", ckpt],
        ["bench", config, "--schemes", "ddcbf", "--checkpoint", ckpt],
    ):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"config error: agent 0 in checkpoint {ckpt} maps 134 state")


def test_missing_run_checkpoint_exits_two_and_writes_nothing(tmp_path, capsys):
    config = str(write_config(tmp_path))
    missing = tmp_path / "nope.npz"
    for argv in (
        ["train", config, "--resume", str(missing)],
        ["bench", config, "--schemes", "ddcbf", "--checkpoint", str(missing)],
    ):
        assert main(argv) == 2
        assert f"config error: checkpoint not found: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_a_data_byte(path, entry="agent1_adam_actor_m.npy", at=-1):
    """Flip byte ``at`` (by default the last) of an archive entry's stored data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(entry)
    data = bytearray(path.read_bytes())
    # A local file header is 30 bytes, then the name and the extra field.
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_len + extra_len
    data[start + at % info.compress_size] ^= 0xFF
    path.write_bytes(bytes(data))


def _flip_a_header_byte(path):
    # Byte 20 of a .npy file lies inside its header's dict: the header no
    # longer parses, which numpy reports before the zip's CRC check.
    _flip_a_data_byte(path, "agent1_critic.npy", 20)


def _flip_a_channel_header_byte(path):
    # The live channel's arrays are damage too, not a misfit of the config.
    _flip_a_data_byte(path, "proc_h.npy", 20)


def _drop_entry(path, key="agent1_critic"):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != key}
    np.savez(path, **arrays)


def _plain_npy(path):
    # np.load of a .npy file returns the array itself, not an archive.
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _rewrite_actor(path, edit=bytes, compress_type=zipfile.ZIP_STORED):
    """Write the archive anew, agent 1's actor member edited and stored with ``compress_type``."""
    with zipfile.ZipFile(path) as archive:
        members = [(info.filename, archive.read(info)) for info in archive.infolist()]
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members:
            if name == "agent1_actor.npy":
                archive.writestr(name, edit(data), compress_type=compress_type)
            else:
                archive.writestr(name, data)


def _deflated_actor(path):
    # np.load inflates such a member; np.savez never writes one.
    _rewrite_actor(path, compress_type=zipfile.ZIP_DEFLATED)


def _actor_in_fortran_order(path):
    # Same length, so the header still parses; np.load reads a 1-d array alike.
    flag = b"'fortran_order': "
    _rewrite_actor(path, lambda data: data.replace(flag + b"False", flag + b"True "))


def _actor_named_otherwise(path):
    """Name agent 2's actor in the local header of agent 1's."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("agent1_actor.npy")
    data = bytearray(path.read_bytes())
    # The name follows the 30-byte local file header.
    start = info.header_offset + 30
    assert data[start : start + 16] == b"agent1_actor.npy"
    data[start : start + 16] = b"agent2_actor.npy"
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "damage, message",
    [
        (_truncate, "File is not a zip file"),
        (_flip_a_data_byte, "Bad CRC-32 for file 'agent1_adam_actor_m.npy'"),
        (_drop_entry, "agent1_critic is not a file in the archive"),
        (_flip_a_header_byte, "Cannot parse header"),
        (_flip_a_channel_header_byte, "Cannot parse header"),
        (_plain_npy, "not an .npz archive"),
        (_deflated_actor, "'agent1_actor.npy' is compressed, not stored"),
        (
            _actor_named_otherwise,
            "File name in directory 'agent1_actor.npy' and header b'agent2_actor.npy' differ.",
        ),
        (_actor_in_fortran_order, "agent 1: actor is stored in Fortran order"),
    ],
    ids=[
        "truncated",
        "flipped-byte",
        "missing-entry",
        "flipped-header-byte",
        "flipped-channel-header-byte",
        "npy",
        "deflated-member",
        "local-header-names-another-member",
        "fortran-order",
    ],
)
def test_damaged_run_checkpoint_exits_two(tmp_path, capsys, damage, message):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    ckpt = tmp_path / "damaged.npz"
    ckpt.write_bytes((tmp_path / "out" / "checkpoints" / "train_00000007.npz").read_bytes())
    damage(ckpt)
    capsys.readouterr()
    commands = [["train", config, "--resume", str(ckpt)]]
    # The bench reads only the actors of the others.
    if damage in (
        _truncate,
        _plain_npy,
        _deflated_actor,
        _actor_named_otherwise,
        _actor_in_fortran_order,
    ):
        commands.append(["bench", config, "--schemes", "ddcbf", "--checkpoint", str(ckpt)])
    for argv in commands:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: checkpoint {ckpt} is damaged: " in err and message in err
        assert csv.read_bytes() == rows
    assert not (tmp_path / "out" / "bench.csv").exists()


def _replace_entry(key, edit):
    def damage(arrays):
        arrays[key] = edit(arrays[key])

    return damage


def _edit_meta(key, edit):
    def damage(arrays):
        meta = json.loads(str(arrays[key]))
        edit(meta)
        arrays[key] = np.array(json.dumps(meta))

    return damage


# Entries that load but do not fit the agent or stream that takes them over;
# the slot-7 checkpoint holds 7 replay items, the memory room for 64, and
# its actors have 2494 parameters.
UNFIT_ENTRIES = {
    "target-actor-a-stack-of-one": (
        _replace_entry("agent1_target_actor", lambda a: a[None]),
        "agent 1: target_actor has shape (1, 2494), not (2494,)",
    ),
    "critic-float32": (
        _replace_entry("agent1_critic", lambda a: a.astype(np.float32)),
        "agent 1: critic holds float32 values, not float64",
    ),
    "target-critic-float32": (
        _replace_entry("agent1_target_critic", lambda a: a.astype(np.float32)),
        "agent 1: target_critic holds float32 values, not float64",
    ),
    "adam-moment-short": (
        _replace_entry("agent2_adam_actor_m", lambda a: a[:-1]),
        "agent 2: adam_actor_m has shape (2493,), not (2494,)",
    ),
    "adam-moment-long": (
        _replace_entry("agent1_adam_critic_v", lambda a: np.append(a, 0.0)),
        "agent 1: adam_critic_v has shape",
    ),
    "replay-states-wide": (
        _replace_entry("agent2_replay_states", lambda a: np.hstack([a, a[:, :1]])),
        "agent 2: replay_states has shape (7, 135), not (7, 134)",
    ),
    "replay-rewards-short": (
        _replace_entry("agent2_replay_rewards", lambda a: a[:-1]),
        "agent 2: replay_rewards has shape (6,), not (7,)",
    ),
    "replay-actions-narrow": (
        _replace_entry("agent0_replay_actions", lambda a: a[:, :-1]),
        "agent 0: replay_actions has shape",
    ),
    "replay-cursor-at-capacity": (
        _edit_meta("agent2_meta", lambda meta: meta.update(replay_cursor=64)),
        "agent 2: a replay of 7 items with its cursor at 64 does not fit a memory of 64",
    ),
    "replay-cursor-off-the-rows": (
        _edit_meta("agent2_meta", lambda meta: meta.update(replay_cursor=3)),
        "agent 2: a replay of 7 items with its cursor at 3 does not fit",
    ),
    "replay-next-states-float32": (
        _replace_entry("agent0_replay_next_states", lambda a: a.astype(np.float32)),
        "agent 0: replay_next_states holds float32 values, not float64",
    ),
    "meta-of-another-version": (
        _edit_meta("agent0_meta", lambda meta: meta.update(version=9)),
        "agent 0: unsupported checkpoint version 9",
    ),
    "meta-lacks-a-hyperparameter": (
        _edit_meta("agent1_meta", lambda meta: meta.pop("actor_lr")),
        "agent 1: meta lacks 'actor_lr'",
    ),
    "meta-state-width-a-float": (
        _edit_meta("agent1_meta", lambda meta: meta.update(state_dim=134.0)),
        "agent 1: state_dim 134.0 is not an int",
    ),
    "meta-lacks-the-rng-state": (
        _edit_meta("agent2_meta", lambda meta: meta.pop("rng_state")),
        "agent 2: meta lacks 'rng_state'",
    ),
    "harness-meta-lacks-the-slot": (
        _edit_meta("harness_meta", lambda meta: meta.pop("slot")),
        "meta lacks 'slot'",
    ),
    "slot-negative": (
        _edit_meta("harness_meta", lambda meta: meta.update(slot=-1)),
        "slot -1 is not an int >= 0",
    ),
    "slot-a-float": (
        _edit_meta("harness_meta", lambda meta: meta.update(slot=7.0)),
        "slot 7.0 is not an int >= 0",
    ),
    "states-float32": (
        _replace_entry("states", lambda a: a.astype(np.float32)),
        "states holds float32 values, not float64",
    ),
    "states-a-column-narrow": (
        _replace_entry("states", lambda a: a[:, :-1]),
        "states has shape (3, 133), not (3, 134)",
    ),
    "states-a-row-short": (
        _replace_entry("states", lambda a: a[:-1]),
        "states has shape (2, 134), not (3, 134)",
    ),
    "stream-lacks-the-cursor": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].pop("cursor")),
        "stream meta lacks 'cursor'",
    ),
    "stream-lacks-the-kind": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].pop("kind")),
        "stream meta lacks 'kind'",
    ),
    "stream-cursor-zero": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(cursor=0)),
        "the channel stream has read no slot yet",
    ),
    "meta-actor-rate-a-string": (
        _edit_meta("agent1_meta", lambda meta: meta.update(actor_lr="fast")),
        "agent 1: actor_lr 'fast' is not a finite number",
    ),
    "meta-discount-null": (
        _edit_meta("agent2_meta", lambda meta: meta.update(discount=None)),
        "agent 2: discount None is not a finite number",
    ),
    "meta-noise-sigma-a-string": (
        _edit_meta("agent0_meta", lambda meta: meta.update(noise_sigma="x")),
        "agent 0: noise_sigma 'x' is not a finite number",
    ),
    "meta-rng-state-an-int": (
        _edit_meta("agent1_meta", lambda meta: meta.update(rng_state=5)),
        "agent 1: rng_state 5 is not a JSON object",
    ),
    "meta-rng-state-refused": (
        _edit_meta("agent2_meta", lambda meta: meta["rng_state"].update(state=5)),
        "agent 2: rng_state is not a PCG64 state: TypeError(",
    ),
    "meta-a-list": (
        _replace_entry("agent1_meta", lambda a: np.array(json.dumps([json.loads(str(a))]))),
        "agent 1: meta is not a JSON object",
    ),
    "harness-meta-a-list": (
        _replace_entry("harness_meta", lambda a: np.array(json.dumps([json.loads(str(a))]))),
        "meta is not a JSON object",
    ),
    "meta-adam-actor-step-negative": (
        _edit_meta("agent1_meta", lambda meta: meta.update(adam_actor_step=-1)),
        "agent 1: adam_actor_step -1 is not an int >= 0",
    ),
    "meta-adam-critic-step-negative": (
        _edit_meta("agent2_meta", lambda meta: meta.update(adam_critic_step=-3)),
        "agent 2: adam_critic_step -3 is not an int >= 0",
    ),
    "stream-an-int": (
        _edit_meta("harness_meta", lambda meta: meta.update(stream=5)),
        "stream 5 is not a JSON object",
    ),
    "stream-kind-an-int": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(kind=5)),
        "stream kind 5 is not a string",
    ),
    "stream-cursor-null": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(cursor=None)),
        "stream cursor None is not an int >= 0",
    ),
    "stream-cursor-a-string": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(cursor="abc")),
        "stream cursor 'abc' is not an int >= 0",
    ),
    "stream-cursor-a-float": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(cursor=1.5)),
        "stream cursor 1.5 is not an int >= 0",
    ),
    "stream-cursor-behind-the-slot": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(cursor=1)),
        "its channel stream stands at slot 0, not at slot 7",
    ),
    "stream-fingerprint-null": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(fingerprint=None)),
        "stream fingerprint None is not an int >= 0",
    ),
    "stream-fingerprint-a-string": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(fingerprint="abc")),
        "stream fingerprint 'abc' is not an int >= 0",
    ),
    "stream-fingerprint-a-float": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(fingerprint=1.5)),
        "stream fingerprint 1.5 is not an int >= 0",
    ),
    "process-slot-null": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(slot=None)),
        "stream slot None is not an int >= 0",
    ),
    "process-slot-a-string": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(slot="abc")),
        "stream slot 'abc' is not an int >= 0",
    ),
    "process-slot-a-float": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(slot=1.5)),
        "stream slot 1.5 is not an int >= 0",
    ),
    "process-slot-behind-the-slot": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(slot=3)),
        "its channel stream stands at slot 3, not at slot 7",
    ),
    "process-rng-state-null": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(rng_state=None)),
        "stream rng_state None is not a string",
    ),
    "process-rng-state-not-json": (
        _edit_meta("harness_meta", lambda meta: meta["stream"].update(rng_state="abc")),
        "rng_state is not a PCG64 state: JSONDecodeError(",
    ),
}


# Rows named process-* damage a checkpoint of a live channel, the others one
# of a trace-backed run.
@pytest.mark.parametrize("name", UNFIT_ENTRIES)
def test_resume_from_entries_that_do_not_fit_exits_two(tmp_path, capsys, name):
    damage, message = UNFIT_ENTRIES[name]
    if name.startswith("process-"):
        config = str(write_config(tmp_path))
    else:
        trace = tmp_path / "chan.trace"
        config = str(write_config(tmp_path, trace_file=trace))
        assert main(["trace-gen", config, str(trace)]) == 0
    assert main(["train", config]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    with np.load(tmp_path / "out" / "checkpoints" / "train_00000007.npz") as data:
        arrays = {k: data[k] for k in data.files}
    damage(arrays)
    ckpt = tmp_path / "unfit.npz"
    np.savez(ckpt, **arrays)
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"config error: checkpoint {ckpt} is damaged: {message}" in err
    assert err.split("is damaged: ")[1].count("agent") == message.count("agent")
    assert csv.read_bytes() == rows


# Actor entries that the bench's actor stack must not take in, and agent 0's
# meta, which sizes the stack before any actor is read.
UNFIT_ACTORS = {
    "float32": (
        _replace_entry("agent1_actor", lambda a: a.astype(np.float32)),
        "agent 1: actor holds float32 values, not float64",
    ),
    "a-stack-of-one": (
        _replace_entry("agent1_actor", lambda a: a[None]),
        "agent 1: actor has shape (1, 2494), not (2494,)",
    ),
    "one-value-short": (
        _replace_entry("agent1_actor", lambda a: a[:-1]),
        "agent 1: actor has shape (2493,), not (2494,)",
    ),
    "complex": (
        _replace_entry("agent1_actor", lambda a: a.astype(complex)),
        "agent 1: actor holds complex128 values, not float64",
    ),
    "agent-0-meta-of-another-version": (
        _edit_meta("agent0_meta", lambda meta: meta.update(version=9)),
        "agent 0: unsupported checkpoint version 9",
    ),
    "agent-0-meta-lacks-the-state-width": (
        _edit_meta("agent0_meta", lambda meta: meta.pop("state_dim")),
        "agent 0: meta lacks 'state_dim'",
    ),
    "agent-2-meta-lacks-the-hidden-widths": (
        _edit_meta("agent2_meta", lambda meta: meta.pop("hidden_sizes")),
        "agent 2: meta lacks 'hidden_sizes'",
    ),
}


@pytest.mark.parametrize("damage, message", UNFIT_ACTORS.values(), ids=UNFIT_ACTORS)
def test_bench_from_an_unfit_actor_exits_two_and_writes_nothing(
    tmp_path, capsys, damage, message
):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    with np.load(tmp_path / "out" / "checkpoints" / "train_00000007.npz") as data:
        arrays = {k: data[k] for k in data.files}
    damage(arrays)
    ckpt = tmp_path / "unfit.npz"
    np.savez(ckpt, **arrays)
    capsys.readouterr()
    assert main(["bench", config, "--schemes", "ddcbf", "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"config error: checkpoint {ckpt} is damaged: {message}" in err
    assert err.split("is damaged: ")[1].count("agent") == 1
    assert not (tmp_path / "out" / "bench.csv").exists()


_without_fingerprint = _edit_meta("harness_meta", lambda meta: meta["stream"].pop("fingerprint"))


def _as_version(version):
    """Stamp ``version`` on every meta; no earlier writer stored a fingerprint."""

    def damage(arrays):
        _without_fingerprint(arrays)
        for key in [k for k in arrays if k.endswith("_meta")]:  # harness_meta, agent{n}_meta
            _edit_meta(key, lambda meta: meta.update(version=version))(arrays)

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (_as_version(1), "unsupported checkpoint version 1\n"),
        (_as_version(2), "unsupported checkpoint version 2\n"),
        (_without_fingerprint, "stream meta lacks 'fingerprint'\n"),
    ],
    ids=["version-1", "version-2", "no-fingerprint"],
)
def test_resume_from_a_checkpoint_of_another_layout_exits_two(tmp_path, capsys, damage, message):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    with np.load(tmp_path / "out" / "checkpoints" / "train_00000007.npz") as data:
        arrays = {k: data[k] for k in data.files}
    damage(arrays)
    ckpt = tmp_path / "other.npz"
    np.savez(ckpt, **arrays)
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: checkpoint {ckpt} is damaged: {message}"
    assert csv.read_bytes() == rows


def test_resume_and_bench_refuse_agents_of_other_widths_before_reading_an_array(
    tmp_path, capsys, read_entry_calls
):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    with np.load(tmp_path / "out" / "checkpoints" / "train_00000007.npz") as data:
        arrays = {k: data[k] for k in data.files}
    _edit_meta("agent2_meta", lambda meta: meta.update(state_dim=meta["state_dim"] + 1))(arrays)
    ckpt = tmp_path / "wide.npz"
    np.savez(ckpt, **arrays)
    capsys.readouterr()
    for argv in (
        ["train", config, "--resume", str(ckpt)],
        ["bench", config, "--schemes", "ddcbf", "--checkpoint", str(ckpt)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: agent 2 in checkpoint {ckpt} maps 135 state entries to 10 "
            "action entries, this config 134 to 10\n"
        )
        assert read_entry_calls == []
        assert csv.read_bytes() == rows
    assert not (tmp_path / "out" / "bench.csv").exists()


def test_damaged_entry_read_on_a_pool_thread_exits_two(
    tmp_path, capsys, monkeypatch, read_entry_calls
):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    _flip_a_data_byte(ckpt, "agent2_actor.npy")
    # Three workers: agent 2 is read by the second pool thread.
    monkeypatch.setattr(harness, "_train_workers", lambda num_agents: 3)
    capsys.readouterr()
    for argv in (
        ["train", config, "--resume", str(ckpt)],
        ["bench", config, "--schemes", "ddcbf", "--checkpoint", str(ckpt)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: checkpoint {ckpt} is damaged: " in err
        assert "Bad CRC-32 for file 'agent2_actor.npy'" in err
    readers = [thread for name, thread in read_entry_calls if name.startswith("agent2_")]
    assert readers and threading.main_thread() not in readers


def test_resume_into_an_out_dir_without_metrics_exits_two_and_writes_nothing(
    tmp_path, capsys
):
    assert main(["train", str(write_config(tmp_path))]) == 0
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    other = tmp_path / "other"
    config = str(write_config(tmp_path, name="other.cfg", out_dir=other))
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {other / 'train.csv'} not found")
    assert not other.exists()


@pytest.mark.parametrize("flag", [",", ""])
def test_bench_with_an_empty_scheme_list_exits_two_and_writes_nothing(
    tmp_path, capsys, flag
):
    assert main(["bench", str(write_config(tmp_path)), "--schemes", flag]) == 2
    assert "schemes must list at least one scheme" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_window_past_the_end_of_the_trace_exits_two_and_writes_nothing(tmp_path, capsys):
    trace = tmp_path / "chan.trace"
    config = str(write_config(tmp_path, trace_file=trace, bench_offset=8))  # bench_slots = 4
    assert main(["trace-gen", config, str(trace), "--slots", "10"]) == 0
    capsys.readouterr()
    assert main(["bench", config, "--schemes", "mslnr-ep"]) == 2
    assert capsys.readouterr().err == (
        f"config error: trace {trace} holds 2 of the 5 slots from slot 8 that a bench of "
        "bench_slots = 4 reads\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cols", [2, 8])
def test_resume_across_antenna_arrays_exits_two(tmp_path, capsys, cols):
    assert main(["train", str(write_config(tmp_path))]) == 0  # array_cols = 4
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    csv = tmp_path / "out" / "train.csv"
    written = csv.read_bytes()
    other = str(write_config(tmp_path, name="other.cfg", array_cols=cols))
    capsys.readouterr()
    assert main(["train", other, "--resume", str(ckpt)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: checkpoint {ckpt} does not fit this config: its channel has fingerprint"
    )
    assert csv.read_bytes() == written


@pytest.mark.parametrize(
    "key, dtype, message",
    [
        ("proc_h", np.complex64, "proc_h holds complex64 values, not complex128"),
        ("proc_ue_positions", np.float32, "proc_ue_positions holds float32 values, not float64"),
        ("proc_ue_headings", np.float32, "proc_ue_headings holds float32 values, not float64"),
    ],
    ids=["proc_h", "proc_ue_positions", "proc_ue_headings"],
)
def test_resume_from_channel_arrays_of_another_dtype_exits_two(
    tmp_path, capsys, key, dtype, message
):
    config = str(write_config(tmp_path))
    assert main(["train", config]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    with np.load(tmp_path / "out" / "checkpoints" / "train_00000007.npz") as data:
        arrays = {k: data[k] for k in data.files}
    arrays[key] = arrays[key].astype(dtype)
    ckpt = tmp_path / "unfit.npz"
    np.savez(ckpt, **arrays)
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"config error: checkpoint {ckpt} is damaged: {message}" in err
    assert csv.read_bytes() == rows


def test_resume_past_the_end_of_a_shorter_trace_exits_two(tmp_path, capsys):
    long, short = tmp_path / "long.trace", tmp_path / "short.trace"
    written = str(write_config(tmp_path, name="long.cfg", trace_file=long, num_slots=28))
    assert main(["trace-gen", written, str(long)]) == 0
    assert main(["train", written]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    config = str(write_config(tmp_path, trace_file=short))  # num_slots = 14
    assert main(["trace-gen", config, str(short)]) == 0  # 15 slots
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000021.npz"
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    assert "cursor 22 lies outside this 15-slot trace" in capsys.readouterr().err
    assert csv.read_bytes() == rows


def test_resume_past_num_slots_exits_two(tmp_path, capsys):
    assert main(["train", str(write_config(tmp_path, num_slots=28))]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000021.npz"
    config = str(write_config(tmp_path, name="short.cfg"))  # num_slots = 14
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    assert f"checkpoint {ckpt} is at slot 21, past num_slots = 14" in capsys.readouterr().err
    assert csv.read_bytes() == rows


@pytest.mark.parametrize("source", ["process", "trace"])
def test_resume_against_another_channel_exits_two(tmp_path, capsys, source):
    trace, other = tmp_path / "chan.trace", tmp_path / "other.trace"
    assert main(["trace-gen", str(write_config(tmp_path, name="a.cfg")), str(trace)]) == 0
    assert main(["trace-gen", str(write_config(tmp_path, name="b.cfg", seed=6)), str(other)]) == 0
    if source == "process":  # another channel config
        written, resumed = {}, {"pathloss_exponent": 3.5, "seed": 6}
    else:  # another trace file of the same shape
        written, resumed = {"trace_file": trace}, {"trace_file": other}
    assert main(["train", str(write_config(tmp_path, **written))]) == 0
    csv = tmp_path / "out" / "train.csv"
    rows = csv.read_bytes()
    ckpt = tmp_path / "out" / "checkpoints" / "train_00000007.npz"
    config = str(write_config(tmp_path, name="other.cfg", **resumed))
    capsys.readouterr()
    assert main(["train", config, "--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt} does not fit this config: its channel has fingerprint" in err
    assert f"this config's {source} source" in err
    assert csv.read_bytes() == rows


NO_SCIPY_SCRIPT = """
import json
import sys

import cbflab
from cbflab.channel import generate_trace
from cbflab.cli import main
from cbflab.harness import build_config

cfg = build_config({**SMALL, "out_dir": "unused"})
generate_trace(cfg.network, cfg.channel, 2)
try:
    main(["--help"])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the package, a channel draw and the
    # CLI must run on numpy alone.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cbflab.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", f"SMALL = {SMALL!r}\n{NO_SCIPY_SCRIPT}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
