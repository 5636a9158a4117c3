"""Toy-scale self-test of the benchmark, on the SMALL shape of the harness tests.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

sys.path.insert(0, str(ROOT / "tests"))
from test_harness import SMALL  # noqa: E402

from cbflab.env import state_layout  # noqa: E402

TOY = {k: v for k, v in SMALL.items() if k not in ("seed", "out_dir")}
TOY_MIX = run.Mix(trace_slots=6, train_slots=3, bench_slots=4, wmmse_at=(0, 2))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def toy(tmp_path):
    def go(seed=5, trace=False, tamper=None, mix=TOY_MIX):
        return run.run_workload(
            "bench-ref7", seed, 0, trace, config=TOY, mix=mix,
            tamper=tamper, out_dir=tmp_path,
        )

    return go


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(toy, trace, kind):
    result = toy(trace=trace)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_counts_are_exact(toy):
    mix = dataclasses.replace(TOY_MIX, train_ops=2)
    metrics = toy(trace=True, mix=mix)["result"]["metrics"]
    cells, users = int(SMALL["num_cells"]), int(SMALL["users_per_cell"])
    assert metrics["channel.ura_steering_calls_per_slot"]["value"] == cells * cells * users * 8
    assert metrics["solvers.bisect_mu_calls_per_wmmse"]["value"] == (
        cells * metrics["solvers.wmmse_iterations.mean"]["value"]
    )
    state_dim = state_layout(cells, users, 3, int(SMALL["num_interferers"]))["total"]
    action_dim = users + cells * users + 2
    replay = cells * int(SMALL["memory_capacity"]) * (2 * state_dim + action_dim + 1) * 8
    assert metrics["drl.replay_mb"]["value"] == replay / 2**20


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _set_last_sum_rate(path, text):
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = text(fields[2])
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "stage, corrupt",
    [
        ("trace", _flip_byte),
        ("train", lambda p: _set_last_sum_rate(p, lambda _: "nan")),
        ("bench", lambda p: _set_last_sum_rate(p, lambda _: "-1.0")),
    ],
)
def test_corrupted_output_is_a_failure(toy, stage, corrupt):
    def tamper(at, path):
        if at == stage:
            corrupt(path)

    record = toy(tamper=tamper)
    assert record["result"]["failed"] > 0
    assert not record["result"]["correct"]
    assert record["failed_frac"] > 0


def test_digest_mismatch_between_rounds_is_a_failure(toy):
    seen = []

    def tamper(at, path):
        if at == "train":
            seen.append(path)
            if len(seen) == 2:  # round 1: still finite, but not bit-identical
                _set_last_sum_rate(path, lambda v: repr(float(v) + 1.0))

    record = toy(tamper=tamper)
    assert record["result"]["failed"] == TOY_MIX.train_slots
    assert any("digest" in reason for reason in record["failures"])


def test_seed_changes_the_inputs(toy):
    def digests(seed):
        return toy(seed=seed)["digests"]

    first, again, other = digests(5), digests(5), digests(6)
    assert first == again
    assert first["trace"] != other["trace"]
    assert first["train_csv"] != other["train_csv"]


def _main(args, cwd, **env):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env={**os.environ, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_refuses_multithreaded_blas():
    done = _main(["--workload", "train-ref7"], ROOT, OMP_NUM_THREADS="4")
    assert done.returncode != 0
    assert "refusing" in done.stderr and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _main(["--workload", "train-ref7", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
