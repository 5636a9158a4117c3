import json

import numpy as np
import pytest

from cbflab.cli import build_parser, main
from cbflab.drl import CHECKPOINT_VERSION
from test_harness import write_config


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
    assert "holds 14 slots, a run of num_slots = 14 reads 15" in capsys.readouterr().err
    # By default trace-gen writes what the run reads.
    assert main(["trace-gen", config, str(trace)]) == 0
    assert main(["train", config]) == 0


def test_unknown_key_exits_two(tmp_path, capsys):
    config = str(write_config(tmp_path, bogus_key=1))
    assert main(["train", config]) == 2
    assert "unknown key 'bogus_key'" in capsys.readouterr().err


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
        assert f"unsupported checkpoint version {CHECKPOINT_VERSION + 1} in" in err


BAD_VALUES = [
    ("train", {"checkpoint_every": 0}, "checkpoint_every must be >= 1"),
    ("train", {"num_slots": 0}, "num_slots must be >= 1"),
    ("train", {"eval_window": 0}, "eval_window must be >= 1"),
    ("train", {"batch_size": 0}, "batch_size must be >= 1"),
    ("bench", {"bench_slots": 0}, "bench_slots must be >= 1"),
    ("bench", {"wmmse_num_inits": 0}, "wmmse_num_inits must be >= 1"),
    ("train", {"num_cells": 0}, "num_cells must be >= 1"),
    ("train", {"channel_model": "foo"}, "model_kind must be one of"),
    ("train", {"num_rays": 0}, "num_rays must be >= 1"),
    ("train", {"temporal_corr": 2}, "temporal_corr must lie in"),
    ("train", {"slot_duration_ms": 0}, "slot_duration must be > 0"),
    ("train", {"codebook_size": 2, "csi_keep": 3}, "csi_keep must be <= codebook_size"),
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
