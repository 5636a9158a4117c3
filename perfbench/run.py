"""Layered benchmark of cbflab at the ref7 scale.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload train-ref7 --seed 1 --seconds 22 --trace 0

Set-up parses a ref7 config file and runs ``run_train`` through the warm-up
(three times; ``setup_s`` is the median).  Then rounds of operations repeat
until ``--seconds`` are used, with at least two rounds so that every output
can be compared with an earlier identical one.  Each operation calls the
public ``cbflab.harness`` API:

* trace  -- ``generate_trace_file``, then ``load_trace`` of that file;
* train  -- ``run_train`` resumed after the warm-up, on the live channel
  process, ending with the final checkpoint write;
* ddcbf, mslnr-ep, wmmse -- ``run_benchmark`` of one scheme on the stored
  trace; ddcbf rolls out the warm-up's policy, wmmse runs on one slot.

The workloads differ in how many of each operation a round holds
(``WORKLOADS``).  Every output is checked; a failed check or an exception
fails the operation's slots.  Times are scaled to a fixed host speed (see
``HostSpeed``).

With ``--trace 1`` the rounds alternate untraced and traced; the traced ones
record spans around every cbflab layer (see ``tracer.py``) and the run
prints the per-layer metrics instead of the end-to-end ones.  The last line
of standard output is one JSON object; a fuller result file, with the
environment and every per-operation figure, goes to ``.perfbench_out/``.
See README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS must be pinned to one thread before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PRESET = {var: os.environ.get(var) for var in BLAS_VARS}
_NUMPY_PRELOADED = "numpy" in sys.modules
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from cbflab import harness  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# ref7: the fixed reference scale; the seed comes from --seed.
REF7 = {
    "num_cells": "7",
    "users_per_cell": "4",
    "array_rows": "4",
    "array_cols": "8",
    "channel_model": "geometric-ura",
    "hidden_sizes": "256,128,64",
    "batch_size": "64",
    "memory_capacity": "2000",
    "num_interferers": "2",
}


@dataclasses.dataclass(frozen=True)
class Mix:
    """The operations in one round of a workload."""

    trace_slots: int  # slots per trace operation; the bench window is its prefix
    train_slots: int  # slots per training operation, resumed after the warm-up
    bench_slots: int  # window of each ddcbf and mslnr-ep operation
    wmmse_at: tuple  # window slot of each one-slot wmmse operation
    trace_ops: int = 1
    train_ops: int = 1
    bench_ops: int = 1


WORKLOADS = {
    "train-ref7": Mix(
        trace_slots=21, train_slots=12, bench_slots=20, wmmse_at=(0,),
        trace_ops=2, train_ops=3, bench_ops=3,
    ),
    "bench-ref7": Mix(
        trace_slots=41, train_slots=12, bench_slots=20, wmmse_at=(0, 10), bench_ops=4
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("train_slots_per_s", "slots/s"),
    ("bench_ddcbf_ms_per_slot", "ms"),
    ("bench_mslnr_ms_per_slot", "ms"),
    ("bench_wmmse_s_per_slot", "s"),
    ("wmmse_over_mslnr", "ratio"),
    ("tracegen_slots_per_s", "slots/s"),
    ("peak_rss_mb", "MB"),
)

SETUP_REPEATS = 3
MIN_ROUNDS = 2


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, count, reason):
        if count > 0:
            self.failed += count
            self.reasons.append(f"{count} failed: {reason}")
            print(f"perfbench: {count} failed: {reason}", file=sys.stderr)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@contextmanager
def captured(module, attr):
    """Collect every value ``module.attr`` returns inside the block."""
    original = getattr(module, attr)
    results = []

    def capture(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    setattr(module, attr, capture)
    try:
        yield results
    finally:
        setattr(module, attr, original)


def _finite(values):
    return all(np.isfinite(v) for v in values)


def _bad_rows(good, slots):
    """Slots without exactly one good row; every slot when the count is off."""
    return slots - sum(good) if len(good) == slots else slots


class HostSpeed:
    """Scales measured times to one fixed host speed.

    On a shared host the speed of our core swings with other tenants' load:
    on the 2-vCPU reference host, wall times moved by up to half within a
    minute, in phases of a few seconds.  So a fixed reference kernel -- small
    complex ``eigh`` and ``solve``, a mid-size GEMM and a Python loop, the
    program's own mix -- is timed right before and right after each measured
    call, and every ``probe_every_s`` during it from a SIGALRM handler.  The
    call's time, less the time spent in those probes, is multiplied by the
    kernel's nominal time over its mean measured time.  Traced rounds turn
    the probes off, so that they do not land inside the spans.  On that host the
    scaled time of a fixed operation stayed within a few percent while its
    wall time moved by a third.
    """

    NOMINAL_S_PER_ITER = 0.022 / 60  # the kernel on the uncontended reference host
    BRACKET_ITERS = 60
    PROBE_ITERS = 10
    PROBE_EVERY_S = 0.2

    def __init__(self):
        self.probe_every_s = self.PROBE_EVERY_S
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._b = rng.standard_normal((64, 320))
        self._w = rng.standard_normal((256, 320))
        self.samples = []  # (wall seconds, scaled seconds) per measured call

    def _kernel(self, iterations):
        """Seconds per iteration of the reference kernel."""
        a, b, w = self._a, self._b, self._w
        tic = time.perf_counter()
        for _ in range(iterations):
            np.linalg.eigh(a @ a.conj().T)
            np.linalg.solve(a, a[:, :4])
            (b @ w.T).sum()
            sum(x * 2 for x in range(200))
        return (time.perf_counter() - tic) / iterations

    def time(self, fn):
        """Run ``fn()``; returns (its result, its time scaled to the nominal speed)."""
        per_iter = [self._kernel(self.BRACKET_ITERS)]
        probing = [0.0]

        def probe(signum, frame):
            tic = time.perf_counter()
            per_iter.append(self._kernel(self.PROBE_ITERS))
            probing[0] += time.perf_counter() - tic

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, self.probe_every_s, self.probe_every_s)
        try:
            tic = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - tic
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        per_iter.append(self._kernel(self.BRACKET_ITERS))
        busy = wall - probing[0]
        scaled = busy * self.NOMINAL_S_PER_ITER / statistics.fmean(per_iter)
        self.samples.append((busy, scaled))
        return result, scaled


class Pipeline:
    """The operations of one workload run, their checks and their figures.

    Every operation adds its slots to ``tally.attempted``.  An exception or a
    failed check fails them; so does an output whose SHA-256 differs from
    the first output of the same operation in this run.
    """

    def __init__(self, cfg, mix, warm_checkpoint, work, tally, tamper, speed):
        self.cfg = cfg
        self.speed = speed
        self.mix = mix
        self.warm_checkpoint = warm_checkpoint
        self.work = work
        self.tally = tally
        self.tamper = tamper or (lambda stage, path: None)
        self.trace_path = work / "trace.bin"
        self.digests = {}  # output name -> digest of its first good copy
        self.rates = {}  # (scheme, window slot) -> sum rate

    def schedule(self):
        """One round's operations, interleaved so each kind spans the round."""
        mix = self.mix
        queues = [
            [self.trace_op] * mix.trace_ops,
            [self.train_op] * mix.train_ops,
            [self.ddcbf_op] * mix.bench_ops,
            [self.mslnr_op] * mix.bench_ops,
            [functools.partial(self.wmmse_op, slot) for slot in mix.wmmse_at],
        ]
        return [op for group in itertools.zip_longest(*queues) for op in group if op]

    def run(self, op):
        """Run one operation; returns (metric, value) or None when it failed."""
        slots, metric, call = op()
        self.tally.attempted += slots
        before = self.tally.failed
        try:
            value, output, path = call()
        except Exception:
            self.tally.fail(slots, f"{metric}: {traceback.format_exc(limit=4)}")
            return None
        if self.tally.failed == before:  # digest only outputs that passed their checks
            digest = sha256(path)
            if self.digests.setdefault(output, digest) != digest:
                self.tally.fail(slots, f"{output}: SHA-256 digest differs from an earlier run")
        return metric, value

    # -- operations: each returns (slots, metric, call) ------------------------

    def trace_op(self):
        """Write a trace, read it back, and compare it with the generated one."""
        slots = self.mix.trace_slots

        def call():
            path = self.trace_path

            def write_and_read():
                harness.generate_trace_file(self.cfg, str(path), num_slots=slots)
                self.tamper("trace", path)
                return harness.load_trace(str(path))

            with captured(harness, "generate_trace") as made:
                loaded, elapsed = self.speed.time(write_and_read)
            expected = made[0]
            if (loaded.h.shape, loaded.cfg_hash) != (expected.h.shape, expected.cfg_hash):
                self.tally.fail(slots, "trace: loaded header differs from the generated one")
            else:
                differ = sum(
                    loaded.h[t].tobytes() != expected.h[t].tobytes() for t in range(slots)
                )
                self.tally.fail(differ, "trace: loaded slots differ from the generated ones")
            return slots / elapsed, "trace", path

        return slots, "tracegen_slots_per_s", call

    def train_op(self):
        """Resume after the warm-up and train; check the CSV and the checkpoint."""
        slots = self.mix.train_slots
        warmup = self.cfg.batch_size
        cfg = dataclasses.replace(
            self.cfg,
            num_slots=warmup + slots,
            checkpoint_every=warmup,
            out_dir=str(Path(self.warm_checkpoint).parent.parent),
        )

        def call():
            summary, elapsed = self.speed.time(
                lambda: harness.run_train(cfg, resume_from=self.warm_checkpoint)
            )
            csv = Path(summary["metrics_csv"])
            self.tamper("train", csv)
            rows = harness.MetricSink.read(str(csv))
            good = [
                r["slot"] == t
                and _finite(v for k, v in r.items() if k not in ("slot", "scheme"))
                for t, r in enumerate(rows)
            ]
            bad = _bad_rows(good, cfg.num_slots)
            self.tally.fail(min(bad, slots), "train: CSV lacks one finite row per slot")
            agents = harness.load_agents_from_checkpoint(
                summary["checkpoint"], cfg.network.num_cells
            )
            if len(agents) != cfg.network.num_cells:
                self.tally.fail(1, "train: final checkpoint does not restore every agent")
            return slots / elapsed, "train_csv", csv

        return slots, "train_slots_per_s", call

    def _bench(self, scheme, offset, slots, checkpoint=""):
        """run_benchmark for one scheme; checks one positive finite row per slot."""
        cfg = dataclasses.replace(
            self.cfg,
            trace_file=str(self.trace_path),
            bench_offset=offset,
            bench_slots=slots,
            out_dir=str(self.work / f"bench-{scheme}"),
        )
        out, elapsed = self.speed.time(
            lambda: harness.run_benchmark(cfg, schemes=(scheme,), checkpoint=checkpoint)
        )
        csv = Path(out["bench_csv"])
        self.tamper("bench", csv)
        rows = harness.read_bench(str(csv))
        good = [
            r["slot"] == offset + t
            and r["scheme"] == scheme
            and np.isfinite(r["sum_rate"])
            and r["sum_rate"] > 0
            and _finite(float(v) for k, v in r.items() if k.startswith("cell_rate_"))
            for t, r in enumerate(rows)
        ]
        self.tally.fail(_bad_rows(good, slots), f"bench {scheme}: no positive finite row per slot")
        for r in rows:
            self.rates[scheme, r["slot"]] = r["sum_rate"]
        return elapsed, csv

    def ddcbf_op(self):
        slots = self.mix.bench_slots

        def call():
            elapsed, csv = self._bench("ddcbf", 0, slots, self.warm_checkpoint)
            return elapsed * 1e3 / slots, "bench_ddcbf", csv

        return slots, "bench_ddcbf_ms_per_slot", call

    def mslnr_op(self):
        slots = self.mix.bench_slots

        def call():
            elapsed, csv = self._bench("mslnr-ep", 0, slots)
            return elapsed * 1e3 / slots, "bench_mslnr", csv

        return slots, "bench_mslnr_ms_per_slot", call

    def wmmse_op(self, slot):
        def call():
            elapsed, csv = self._bench("wmmse", slot, 1)
            return elapsed, f"bench_wmmse_at_{slot}", csv

        return 1, "bench_wmmse_s_per_slot", call

    def wmmse_over_mslnr(self):
        """Mean WMMSE sum rate over mean max-SLNR sum rate, on the same slots."""
        try:
            wmmse = [self.rates["wmmse", s] for s in self.mix.wmmse_at]
            mslnr = [self.rates["mslnr-ep", s] for s in self.mix.wmmse_at]
        except KeyError:  # an operation failed
            return None
        return float(np.mean(wmmse) / np.mean(mslnr))


# -- set-up, environment and the run loop -----------------------------------------


def write_config(values, seed, work):
    """Write a config file and parse it, as ``cbflab`` users do."""
    path = work / "bench.cfg"
    lines = [f"{k} = {v}" for k, v in {**values, "seed": seed, "out_dir": work}.items()]
    path.write_text("\n".join(lines) + "\n")
    return harness.parse_config(str(path))


def set_up(values, seed, work, speed):
    """Parse the config and run the training warm-up from slot 0.

    The warm-up fills every replay memory with one mini-batch of random
    actions; its final checkpoint is where each training operation resumes
    and the policy each ddcbf operation rolls out.
    """

    def warm_up():
        cfg = write_config(values, seed, work)
        warm = dataclasses.replace(
            cfg, num_slots=cfg.batch_size, checkpoint_every=cfg.batch_size,
            out_dir=str(work / "warm"),
        )
        return cfg, harness.run_train(warm)["checkpoint"]

    (cfg, checkpoint), elapsed = speed.time(warm_up)
    return cfg, checkpoint, elapsed


def git_sha():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def source_sha256():
    """Digest of every file under src/, naming the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment():
    import scipy

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def blas_problem():
    """Why BLAS may not be on one thread, or None when it is pinned."""
    wrong = {v: os.environ.get(v) for v in BLAS_VARS if os.environ.get(v) != "1"}
    if wrong:
        return f"BLAS thread variables must be 1, found {wrong}"
    if _NUMPY_PRELOADED and any(_PRESET[v] != "1" for v in BLAS_VARS):
        return "numpy was imported before the BLAS thread variables were set"
    return None


def run_workload(
    workload, seed, seconds, trace, config=REF7, mix=None, tamper=None, out_dir=OUT_DIR
):
    """Run one workload and return the full result record.

    ``config`` and ``mix`` default to ref7 and the workload's table entry;
    ``tamper(stage, path)``, when given, is called on each operation's output
    before it is checked (the self-test uses it to corrupt outputs).
    """
    mix = mix or WORKLOADS[workload]
    run_dir = Path(out_dir) / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)

    speed = HostSpeed()
    setups = [set_up(config, seed, work, speed) for _ in range(SETUP_REPEATS)]
    cfg, warm_checkpoint, _ = setups[-1]
    tally = Tally()
    pipeline = Pipeline(cfg, mix, warm_checkpoint, work, tally, tamper, speed)
    rounds, tracers = [], []
    block = 2 if trace else 1  # traced runs alternate untraced and traced rounds
    start = time.perf_counter()
    while True:
        for _ in range(block):
            tracer = Tracer().install() if trace and len(rounds) % 2 else None
            speed.probe_every_s = 0.0 if tracer else HostSpeed.PROBE_EVERY_S
            tic, first = time.perf_counter(), len(speed.samples)
            try:
                figures = [pipeline.run(op) for op in pipeline.schedule()]
            finally:
                if tracer:
                    tracer.uninstall()
            rounds.append(
                {
                    "traced": tracer is not None,
                    "wall_s": time.perf_counter() - tic,
                    "scaled_s": sum(scaled for _, scaled in speed.samples[first:]),
                    "figures": [f for f in figures if f],
                }
            )
            if tracer:
                tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + block / len(rounds)) > seconds:
            break

    plain = [r for r in rounds if not r["traced"]]
    values = {
        "setup_s": statistics.median(s for _, _, s in setups),
        "wmmse_over_mslnr": pipeline.wmmse_over_mslnr(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, _ in END_TO_END:
        samples = [v for r in plain for metric, v in r["figures"] if metric == name]
        if samples:
            values[name] = statistics.median(samples)
    end_to_end = {
        name: {"value": values.get(name), "unit": unit} for name, unit in END_TO_END
    }

    if trace:
        per_layer = layer_metrics(tracers)
        traced_s = statistics.median(r["scaled_s"] for r in rounds if r["traced"])
        plain_s = statistics.median(r["scaled_s"] for r in plain)
        per_layer["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        metrics = end_to_end
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mix": dataclasses.asdict(mix),
        "environment": environment(),
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "setup_s_samples": [s for _, _, s in setups],
        "digests": pipeline.digests,
        "rounds": rounds,
        "end_to_end": end_to_end,
        "result": result,
    }
    for i, tracer in enumerate(tracers):
        tracer.write(run_dir / f"spans-{i}.jsonl")
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = blas_problem()
    if problem:
        print(f"perfbench: refusing to run: {problem}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
