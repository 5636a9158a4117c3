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


def agent_arrays_v1(arrays):
    """An agent's ``state_dict`` arrays rewritten in the version-1 layout.

    Version 1 stored one array per parameter block and per Adam moment block:
    ``{net}_p{i}``, ``adam_{net}_m{i}`` and ``adam_{net}_v{i}``.
    """
    meta = json.loads(str(arrays["meta"]))
    meta["version"] = 1
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


def run_checkpoint_v1(src, dst):
    """Rewrite the run checkpoint ``src`` in the version-1 layout at ``dst``."""
    with np.load(src, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["harness_meta"]))
    meta["version"] = 1
    out = {k: v for k, v in arrays.items() if not k.startswith("agent")}
    for n in range(meta["num_agents"]):
        prefix = f"agent{n}_"
        agent = {k[len(prefix) :]: v for k, v in arrays.items() if k.startswith(prefix)}
        out.update({prefix + k: v for k, v in agent_arrays_v1(agent).items()})
    out["harness_meta"] = np.array(json.dumps(meta))
    np.savez(dst, **out)


@pytest.fixture
def v1_layout():
    """Writers of the version-1 checkpoint layout, for resume tests."""
    return types.SimpleNamespace(agent=agent_arrays_v1, run=run_checkpoint_v1)
