import os

# Must run before numpy loads its BLAS backend: single-threaded kernels are
# both faster for this package's small matrices and reduction-order stable.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cbflab.drl import AGENT_META, DdpgAgent, read_meta, savez_atomic  # noqa: E402
from cbflab.harness import _AgentArrays  # noqa: E402


def save_agent(path, agent):
    """Write ``agent``'s ``state_dict`` as agent 0 of the run checkpoint layout (``agent0_*``)."""
    savez_atomic(path, {f"agent0_{key}": value for key, value in agent.state_dict().items()})


def load_agent(path):
    """Agent 0 of a file in the run checkpoint layout, restored as a resume restores it."""
    with np.load(path, allow_pickle=False) as data:
        arrays = _AgentArrays(data, 0)
        return DdpgAgent.from_state_dict(arrays, read_meta(arrays["meta"], AGENT_META))


def round_trip(agent, directory):
    """``agent`` saved in ``directory`` (``save_agent``) and restored (``load_agent``)."""
    path = os.path.join(directory, "agent.npz")
    save_agent(path, agent)
    return load_agent(path)


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
