import os

# Must run before numpy loads its BLAS backend: single-threaded kernels are
# both faster for this package's small matrices and reduction-order stable.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import json  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def break_savez(monkeypatch):
    """Return a switch that makes ``np.savez`` fail part-way, like a full disk.

    After the switch, the next ``np.savez`` writes its first array and then
    raises ``OSError``; any array written after that raises too.
    """
    write_array = np.lib.format.write_array

    def switch():
        written = []

        def write_one_then_fail(*args, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(True)
            return write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", write_one_then_fail)

    return switch


def _v1_blocks(flat, layer_sizes):
    """Split a flat net vector into its [W0, b0, W1, b1, ...] blocks."""
    blocks, start = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        for shape in ((fan_out, fan_in), (fan_out,)):
            size = int(np.prod(shape))
            blocks.append(flat[start : start + size].reshape(shape))
            start += size
    if start != flat.size:
        raise ValueError("flat vector does not match the layer sizes")
    return blocks


def agent_arrays_old(arrays, version):
    """An agent's ``state_dict`` arrays rewritten in the layout of ``version``.

    Version 2 stored the same entries.  Version 1 stored one array per
    parameter block and per Adam moment block: ``{net}_p{i}``,
    ``adam_{net}_m{i}`` and ``adam_{net}_v{i}``.
    """
    meta = json.loads(str(arrays["meta"]))
    meta["version"] = version
    if version == 2:
        return {**arrays, "meta": np.array(json.dumps(meta))}
    s, a, hidden = meta["state_dim"], meta["action_dim"], meta["hidden_sizes"]
    sizes = {"actor": [s, *hidden, a], "critic": [s + a, *hidden, 1]}
    out = {}
    for tag in ("actor", "critic", "target_actor", "target_critic"):
        net = tag.removeprefix("target_")
        for i, block in enumerate(_v1_blocks(arrays[tag], sizes[net])):
            out[f"{tag}_p{i}"] = block
    for net in ("actor", "critic"):
        for moment in ("m", "v"):
            flat = arrays[f"adam_{net}_{moment}"]
            for i, block in enumerate(_v1_blocks(flat, sizes[net])):
                out[f"adam_{net}_{moment}{i}"] = block
    out.update({k: v for k, v in arrays.items() if k.startswith("replay_")})
    out["meta"] = np.array(json.dumps(meta))
    return out


def run_checkpoint_old(src, dst, version, net):
    """Rewrite the run checkpoint ``src`` in the layout of ``version`` at ``dst``.

    Versions 1 and 2 also held the current channel ``env_channel_h``, once a
    slot had been stepped the previous slot's ``prev_*`` arrays, and
    ``sink_rows``, ``env_slot`` and ``has_prev`` in ``harness_meta``.  They
    are written in their stored order, shapes and dtypes (``net`` gives the
    dimensions), but filled with NaN: a reader that used one would turn the
    resumed metrics to NaN.  Version 1 also splits the agent entries.
    """
    with np.load(src, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays.pop("harness_meta")))
    n, k, m = net.num_cells, net.users_per_cell, net.num_antennas
    stream = meta["stream"]
    env_slot = stream["cursor"] - 1 if stream["kind"] == "trace" else stream["slot"]
    has_prev = meta["slot"] > 0
    old = {"states": arrays.pop("states")}
    old["env_channel_h"] = np.full((n, n, k, m), np.nan + 0j)
    old.update({key: v for key, v in arrays.items() if key.startswith("proc_")})
    if has_prev:
        for name in ("sinr", "rate", "received_power", "interference", "total_ipn", "powers"):
            shape = (n, n, k) if name == "interference" else (n, k)
            old[f"prev_{name}"] = np.full(shape, np.nan)
        old["prev_own_channels"] = np.full((n, k, m), np.nan + 0j)
    for a in range(meta["num_agents"]):
        prefix = f"agent{a}_"
        agent = {key[len(prefix) :]: v for key, v in arrays.items() if key.startswith(prefix)}
        old.update({prefix + key: v for key, v in agent_arrays_old(agent, version).items()})
    old["harness_meta"] = np.array(
        json.dumps(
            {
                "version": version,
                "slot": meta["slot"],
                "num_agents": meta["num_agents"],
                "sink_rows": meta["slot"],
                "env_slot": env_slot,
                "stream": stream,
                "has_prev": has_prev,
            }
        )
    )
    np.savez(dst, **old)


@pytest.fixture
def old_layout():
    """Writers of the version-1 and version-2 checkpoint layouts, for resume tests."""
    return types.SimpleNamespace(agent=agent_arrays_old, run=run_checkpoint_old)
