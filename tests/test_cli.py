import json

import pytest

from cbflab.cli import build_parser, main
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
