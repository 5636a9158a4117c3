"""Span recorder for the traced benchmark run.

A ``Tracer`` wraps the public functions of each ``cbflab`` module at the name
its caller looks up (``cbflab.harness.wmmse``, ``cbflab.env.build_state``,
``DdpgAgent.train_step``, ...), records one span per call -- name, start,
end, parent -- in memory, and restores every original on ``uninstall``.
Hot, cheap calls (``ura_steering``, about 1.6k per channel slot at ref7) get
count-only wrappers so that timing them does not distort their callers.

Nothing under ``src/`` knows about the tracer: it patches module and class
attributes from outside, which is why a function imported into another
module is wrapped at each importing module's name.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (owner, attribute, span name, observer).  The owner is a module path or
# "module:Class".  An observer is called as observer(tracer, span, args,
# result) after the call returns and records a gauge or a per-call value.
SPANS = (
    ("cbflab.harness", "generate_trace_file", "harness.generate_trace_file", None),
    ("cbflab.harness", "run_train", "harness.run_train", None),
    ("cbflab.harness", "run_benchmark", "harness.run_benchmark", None),
    ("cbflab.channel:ChannelProcess", "next_slot", "channel.next_slot", None),
    ("cbflab.harness", "save_trace", "channel.save_trace", "_observe_save_trace"),
    ("cbflab.harness", "load_trace", "channel.load_trace", "_observe_load_trace"),
    ("cbflab.env:BeamformingEnv", "step", "env.step", None),
    ("cbflab.env", "build_state", "env.build_state", None),
    ("cbflab.env", "decode_action", "env.decode_action", None),
    ("cbflab.env", "compute_reward", "env.compute_reward", None),
    ("cbflab.env", "compute_metrics", "network.compute_metrics", None),
    ("cbflab.harness", "compute_metrics", "network.compute_metrics", None),
    ("cbflab.env", "structured_beamformer", "solvers.structured_beamformer", None),
    ("cbflab.harness", "mslnr_beamformer", "solvers.mslnr_beamformer", None),
    ("cbflab.harness", "wmmse", "solvers.wmmse", "_observe_wmmse"),
    ("cbflab.solvers", "bisect_mu", "solvers.bisect_mu", None),
    ("cbflab.solvers", "solve_leakage_system", "solvers.solve_leakage_system", None),
    ("cbflab.drl:DdpgAgent", "train_step", "drl.train_step", None),
    ("cbflab.drl:DdpgAgent", "act", "drl.act", None),
    ("cbflab.drl:DdpgAgent", "soft_update", "drl.soft_update", None),
    ("cbflab.drl:Mlp", "forward", "drl.mlp_forward", None),
    ("cbflab.drl:Mlp", "forward_cached", "drl.mlp_forward", None),
    ("cbflab.drl:Mlp", "backward", "drl.mlp_backward", None),
    ("cbflab.drl:Adam", "step", "drl.adam_step", None),
    ("cbflab.drl:ReplayMemory", "push", "drl.replay_push", "_observe_replay_push"),
    ("cbflab.drl:ReplayMemory", "sample", "drl.replay_sample", None),
    ("cbflab.harness:MetricSink", "write_slot", "harness.write_slot", None),
    ("cbflab.harness", "save_checkpoint", "harness.save_checkpoint", "_observe_checkpoint"),
    ("cbflab.harness", "load_agents_from_checkpoint", "harness.load_agents", None),
)

COUNTS = (("cbflab.channel", "ura_steering", "channel.ura_steering"),)

MB = 1024.0 * 1024.0


def _resolve(owner):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """In-memory spans and counters for one traced round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.per_call = defaultdict(list)  # name -> one value per call
        self.gauges = {}
        # (run_train span index, id(ReplayMemory)) -> bytes of its ring buffers
        self.replay_bytes = {}
        self._stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, observer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observer is not None:
                observer(self, record, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every traced name; ``uninstall`` restores the originals.

        A name the program no longer has is skipped, so its metrics read
        ``.n == 0`` instead of the traced run failing.
        """
        for owner, attr, name, observer in SPANS:
            hook = getattr(type(self), observer) if observer else None
            self._patch(owner, attr, self._timed, name, hook)
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, self._counted, name)
        return self

    def _patch(self, owner, attr, wrap, name, *extra):
        target = _resolve(owner)
        if attr not in target.__dict__:
            return
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, wrap(name, getattr(target, attr), *extra))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- observers ----------------------------------------------------------

    @staticmethod
    def _observe_save_trace(tracer, record, args, result):
        size = os.path.getsize(args[1]) / MB
        tracer.gauges["channel.trace_mb"] = size
        tracer.per_call["channel.save_trace_ms_per_mb"].append(
            (record[2] - record[1]) * 1e3 / size
        )

    @staticmethod
    def _observe_load_trace(tracer, record, args, result):
        size = os.path.getsize(args[0]) / MB
        tracer.per_call["channel.load_trace_ms_per_mb"].append(
            (record[2] - record[1]) * 1e3 / size
        )

    @staticmethod
    def _observe_wmmse(tracer, record, args, result):
        state = result[1]
        tracer.per_call["solvers.wmmse_iterations"].append(state.iterations)
        tracer.per_call["solvers.wmmse_truncated"].append(float(state.truncated))

    @staticmethod
    def _observe_replay_push(tracer, record, args, result):
        memory, state, action = args[0], args[1], args[2]
        floats = memory.capacity * (2 * state.size + action.size + 1)
        run = _ancestor(tracer.spans, record, "harness.run_train")
        tracer.replay_bytes[run, id(memory)] = 8 * floats

    @staticmethod
    def _observe_checkpoint(tracer, record, args, result):
        tracer.gauges["harness.checkpoint_mb"] = os.path.getsize(args[0]) / MB

    # -- output -------------------------------------------------------------

    def self_times(self):
        """Span duration minus the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def write(self, path):
        """Dump spans (with self time) and counters as JSON lines."""
        with open(path, "w") as fh:
            for (name, start, end, parent), own in zip(self.spans, self.self_times()):
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "self": own}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# Per-layer timing metrics: (metric, span name, unit, use self time).
TIMINGS = (
    ("channel.next_slot_ms", "channel.next_slot", "ms", False),
    ("env.step_self_ms", "env.step", "ms", True),
    ("env.build_state_ms", "env.build_state", "ms", False),
    ("env.decode_action_ms", "env.decode_action", "ms", False),
    ("env.compute_reward_ms", "env.compute_reward", "ms", False),
    ("network.compute_metrics_ms", "network.compute_metrics", "ms", False),
    ("solvers.structured_beamformer_ms", "solvers.structured_beamformer", "ms", False),
    ("solvers.mslnr_beamformer_ms", "solvers.mslnr_beamformer", "ms", False),
    ("solvers.wmmse_s", "solvers.wmmse", "s", False),
    ("solvers.bisect_mu_ms", "solvers.bisect_mu", "ms", False),
    ("solvers.solve_leakage_system_ms", "solvers.solve_leakage_system", "ms", False),
    ("drl.train_step_self_ms", "drl.train_step", "ms", True),
    ("drl.mlp_forward_ms", "drl.mlp_forward", "ms", False),
    ("drl.mlp_backward_ms", "drl.mlp_backward", "ms", False),
    ("drl.adam_step_ms", "drl.adam_step", "ms", False),
    ("drl.soft_update_ms", "drl.soft_update", "ms", False),
    ("drl.replay_push_ms", "drl.replay_push", "ms", False),
    ("drl.replay_sample_ms", "drl.replay_sample", "ms", False),
    ("drl.act_ms", "drl.act", "ms", False),
    ("harness.write_slot_ms", "harness.write_slot", "ms", False),
    ("harness.save_checkpoint_s", "harness.save_checkpoint", "s", False),
    ("harness.load_agents_s", "harness.load_agents", "s", False),
)

# Per-call ratios recorded by the observers: (metric, unit).
PER_CALL = (
    ("channel.save_trace_ms_per_mb", "ms/MB"),
    ("channel.load_trace_ms_per_mb", "ms/MB"),
)

UNIT_SCALE = {"ms": 1e3, "s": 1.0}


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _timing(out, metric, values, unit):
    out[f"{metric}.p50"] = (percentile(values, 50), unit)
    out[f"{metric}.p90"] = (percentile(values, 90), unit)
    out[f"{metric}.n"] = (len(values), "count")


def layer_metrics(tracers):
    """Per-layer metrics, as name -> (value, unit), over the traced rounds."""
    durations = defaultdict(list)
    own = defaultdict(list)
    counts = Counter()
    per_call = defaultdict(list)
    gauges = defaultdict(list)
    for tracer in tracers:
        for (name, start, end, _), self_s in zip(tracer.spans, tracer.self_times()):
            durations[name].append(end - start)
            own[name].append(self_s)
        counts.update(tracer.counts)
        for name, values in tracer.per_call.items():
            per_call[name].extend(values)
        for name, value in tracer.gauges.items():
            gauges[name].append(value)
        per_run = Counter()
        for (run, _), size in tracer.replay_bytes.items():
            per_run[run] += size
        gauges["drl.replay_mb"].append(max(per_run.values(), default=0) / MB)

    out = {}
    for metric, span, unit, use_self in TIMINGS:
        values = own[span] if use_self else durations[span]
        _timing(out, metric, [v * UNIT_SCALE[unit] for v in values], unit)
    for metric, unit in PER_CALL:
        _timing(out, metric, per_call[metric], unit)

    def ratio(num, den):
        return num / den if den else 0.0

    wmmse_calls = len(durations["solvers.wmmse"])
    out["channel.ura_steering_calls_per_slot"] = (
        ratio(counts["channel.ura_steering"], len(durations["channel.next_slot"])),
        "count",
    )
    out["solvers.wmmse_iterations.mean"] = (
        ratio(sum(per_call["solvers.wmmse_iterations"]), wmmse_calls),
        "count",
    )
    out["solvers.wmmse_truncated_frac"] = (
        ratio(sum(per_call["solvers.wmmse_truncated"]), wmmse_calls),
        "frac",
    )
    out["solvers.bisect_mu_calls_per_wmmse"] = (
        ratio(
            sum(
                1
                for t in tracers
                for s in t.spans
                if s[0] == "solvers.bisect_mu" and _ancestor(t.spans, s, "solvers.wmmse") >= 0
            ),
            wmmse_calls,
        ),
        "count",
    )
    for name in ("channel.trace_mb", "drl.replay_mb", "harness.checkpoint_mb"):
        out[name] = (max(gauges[name], default=0.0), "MB")
    return out


def _ancestor(spans, span, name):
    """Index of the innermost span named ``name`` around ``span``, or -1."""
    parent = span[3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent
