import os
import threading

# Must run before numpy loads its BLAS backend: single-threaded kernels are
# both faster for this package's small matrices and reduction-order stable.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cbflab import channel, drl, harness  # noqa: E402
from cbflab.drl import AGENT_META, DdpgAgent, read_meta, replacing  # noqa: E402


def save_agent(path, agent):
    """Write ``agent``'s ``state_dict`` as agent 0 of the run checkpoint layout (``agent0_*``)."""
    with replacing(path) as fh:
        np.savez(fh, **{f"agent0_{key}": value for key, value in agent.state_dict().items()})


def load_agent(path):
    """Agent 0 of a file in the run checkpoint layout, restored as a resume restores it."""
    with np.load(path, allow_pickle=False) as data:
        meta = read_meta(data["agent0_meta"], AGENT_META)
        return DdpgAgent.from_state_dict(data, "agent0_", meta)


def round_trip(agent, directory):
    """``agent`` saved in ``directory`` (``save_agent``) and restored (``load_agent``)."""
    path = os.path.join(directory, "agent.npz")
    save_agent(path, agent)
    return load_agent(path)


@pytest.fixture
def read_entry_calls(monkeypatch):
    """Record (entry name, reading thread) of every ``drl.read_entry`` call.

    The reader is wrapped where both of its callers look it up, ``drl`` and
    ``harness``.
    """
    calls = []
    read_entry = drl.read_entry

    def recording_read_entry(archive, name, *args, **kwargs):
        calls.append((name, threading.current_thread()))
        return read_entry(archive, name, *args, **kwargs)

    for module in (drl, harness):
        monkeypatch.setattr(module, "read_entry", recording_read_entry)
    return calls


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


class _SecondWriteFails:
    """A file whose second ``write``, and every one after it, raises ``OSError``."""

    def __init__(self, fh):
        self._fh = fh
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("disk full")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


@pytest.fixture
def break_writes(monkeypatch):
    """Return a switch that makes the package's file writes fail part-way, like a full disk.

    After the switch, every file that ``channel``, ``drl`` or ``harness``
    opens for writing raises ``OSError`` on its second ``write``; files
    opened for reading are untouched.
    """

    def switch():
        def open_failing_writes(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return fh if "r" in mode else _SecondWriteFails(fh)

        for module in (channel, drl, harness):
            monkeypatch.setattr(module, "open", open_failing_writes, raising=False)

    return switch
