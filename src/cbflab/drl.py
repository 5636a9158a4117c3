"""Self-contained DDPG machinery on plain numpy.

Multilayer perceptrons with hand-written reverse-mode gradients, bias-
corrected Adam, a FIFO experience replay, soft-updated target networks and
the decaying Gaussian exploration schedule.  Everything is float64 and
deterministic for a fixed seed, with BLAS on one thread per call.  Agents
never share parameters or state, matching decentralized per-BS training, so
several agents may train at once on separate threads, and the results do not
depend on how many threads there are.  A train step is two public halves,
``update_critic`` and then ``update_actor``, so that a scheduler can run one
agent's actor half while another agent's critic half runs.

A ``DdpgAgent`` is two records, and its checkpoint is those records: the dict
of its ``HYPERPARAMETERS`` (in the checkpoint's JSON ``meta``) and the dict of
its flat vectors, the parameters of each net and the Adam moments (one
checkpoint array each, and views of one block in memory).  A fresh and a
restored agent are set up alike from them.  ``read_entry`` is the one reader
and checker of a run checkpoint's arrays, and a restore reads each in place;
``read_meta`` is the one checker of its JSON metas.  ``replacing`` writes
every file the program replaces whole: checkpoints, traces and reports.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import struct
import zipfile
import zlib

import numpy as np
from numpy.lib import format as npy_format

# Version of the run checkpoint layout, laid out in ``harness.save_checkpoint``.
CHECKPOINT_VERSION = 3


def _is_count(v):
    return type(v) is int and v >= 0


# The types of a checkpoint meta's table: what each describes, and its test.
# Every int in a meta is a count, an index or a hash; no bool passes for one.
_META_TYPES = {
    int: ("an int >= 0", _is_count),
    float: ("a finite number", lambda v: type(v) is int or type(v) is float and np.isfinite(v)),
    str: ("a string", lambda v: type(v) is str),
    dict: ("a JSON object", lambda v: type(v) is dict),
    list: ("a list of ints >= 0", lambda v: type(v) is list and all(map(_is_count, v))),
}


def read_meta(entry, table, where=""):
    """Parse a checkpoint meta and check it against ``table``: the one check of a meta.

    ``entry`` is a stored JSON object whose ``version`` must be
    ``CHECKPOINT_VERSION``, or a dict nested in one (the stream's meta).
    ``table``, declared beside the meta's writer, maps each key to a type of
    ``_META_TYPES``.  ValueError, its message led by ``where``, naming the
    first key missing or mistyped.
    """
    nested = type(entry) is dict
    meta = entry if nested else json.loads(str(entry))
    if type(meta) is not dict:
        raise ValueError("meta is not a JSON object")
    if not nested and meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
    for key, kind in table.items():
        if key not in meta:
            raise ValueError(f"{where}meta lacks {key!r}")
        description, fits = _META_TYPES[kind]
        if not fits(meta[key]):
            raise ValueError(f"{where}{key} {meta[key]!r} is not {description}")
    return meta


def restore_rng(rng, state):
    """Set ``rng`` to a stored ``bit_generator.state``, a dict or its JSON text.

    ValueError naming ``rng_state``, ``rng`` unchanged, if numpy refuses it.
    """
    try:
        rng.bit_generator.state = json.loads(state) if type(state) is str else state
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(
            f"rng_state is not a {type(rng.bit_generator).__name__} state: {exc!r}"
        ) from exc


# A zip local file header: its signature, then the lengths of the member's
# name, which follows the 30-byte header, and of the extra field after it.
_LOCAL_HEADER = struct.Struct("<4s22xHH")

# The bytes read to parse a member's .npy header: np.save pads a header to a
# multiple of 64 bytes, and those of a checkpoint's arrays take 128.
_NPY_HEADER_READ = 4096


def read_entry(archive, name, out, label=None):
    """Fill ``out`` in place with array entry ``name`` of an open ``np.load`` archive.

    The one reader of a run checkpoint's arrays, as ``np.savez`` stores
    them.  Its callers size ``out`` from metas already checked against the
    config, so whatever it finds wrong is damage, not a misfit.  ``archive``
    is the ``NpzFile`` of a file, which has parsed the zip's central
    directory; the member ``{name}.npy`` is read by offset on the file's
    descriptor, its data straight into ``out`` (C-contiguous), which is
    returned.  Checked in order, each before ``out`` is written:

    * the member exists (KeyError ``{name} is not a file in the archive``),
      is stored uncompressed and its local header names it
      (zipfile.BadZipFile);
    * its ``.npy`` magic and header parse (zipfile.BadZipFile, with
      numpy's message, ``Cannot parse header`` among them);
    * it holds values of ``out``'s dtype in C order and of ``out``'s shape,
      else ValueError naming ``label`` (by default ``name``):
      ``{label} has shape X, not Y``;
    * the member is as long as its header and ``out``'s bytes
      (zipfile.BadZipFile).

    Then one ``os.preadv`` fills ``out``, and the CRC-32 of the header bytes
    and ``out`` must match the directory's: zipfile.BadZipFile for a short
    read or ``Bad CRC-32 for file ...``, ``out`` then holding what was read.
    The reads and the checksum release the GIL, so threads reading other
    entries overlap.
    """
    if not out.flags.c_contiguous:
        raise TypeError("read_entry fills C-contiguous arrays only")
    label = name if label is None else label
    member = f"{name}.npy"
    try:
        info = archive.zip.getinfo(member)
    except KeyError:
        raise KeyError(f"{name} is not a file in the archive") from None
    if info.compress_type != zipfile.ZIP_STORED:
        raise zipfile.BadZipFile(f"{member!r} is compressed, not stored")
    fd = archive.zip.fp.fileno()
    stored_name = member.encode()
    local = os.pread(fd, _LOCAL_HEADER.size + len(stored_name), info.header_offset)
    if len(local) < _LOCAL_HEADER.size or local[:4] != zipfile.stringFileHeader:
        raise zipfile.BadZipFile(f"Bad magic number for the local header of {member!r}")
    _, name_len, extra_len = _LOCAL_HEADER.unpack_from(local)
    if local[_LOCAL_HEADER.size :] != stored_name or name_len != len(stored_name):
        named = os.pread(fd, name_len, info.header_offset + _LOCAL_HEADER.size)
        raise zipfile.BadZipFile(
            f"File name in directory {member!r} and header {named!r} differ."
        )
    start = info.header_offset + len(local) + extra_len
    header = io.BytesIO(os.pread(fd, min(info.file_size, _NPY_HEADER_READ), start))
    try:
        # np.savez writes format 2.0 only for a header longer than 64 KiB.
        version = npy_format.read_magic(header)
        if version != (1, 0):
            raise zipfile.BadZipFile(f"{member!r} has .npy format version {version}, not 1.0")
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(header)
    except ValueError as exc:
        raise zipfile.BadZipFile(str(exc)) from exc
    if dtype != out.dtype:
        raise ValueError(f"{label} holds {dtype} values, not {out.dtype}")
    if fortran_order:
        raise ValueError(f"{label} is stored in Fortran order")
    if shape != out.shape:
        raise ValueError(f"{label} has shape {shape}, not {out.shape}")
    head = header.getbuffer()[: header.tell()]
    data = out.reshape(-1).view(np.uint8)
    size = len(head) + data.nbytes
    if not info.file_size == info.compress_size == size:
        raise zipfile.BadZipFile(
            f"{member!r} holds {info.file_size} bytes, its header and data {size}"
        )
    if os.preadv(fd, [data], start + len(head)) != data.nbytes:
        raise zipfile.BadZipFile(f"{member!r} is truncated")
    if zlib.crc32(data, zlib.crc32(head)) != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {member!r}")
    return out


@contextlib.contextmanager
def replacing(path, mode="wb"):
    """Open ``{path}.{pid}.tmp`` in ``mode`` for the whole new content of ``path``.

    A clean exit renames the temporary file over ``path``; if the block or the rename
    raises, the temporary file is removed and an earlier ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# Element-wise updates of a whole net run over slices of this many values
# (256 KiB of float64), so that their temporaries stay in the core's cache
# instead of streaming each net-sized intermediate through memory.
_CHUNK = 1 << 15


def _chunks(*arrays):
    """Aligned slices of equally long arrays, ``_CHUNK`` leading entries each."""
    for start in range(0, len(arrays[0]), _CHUNK):
        yield tuple(a[start : start + _CHUNK] for a in arrays)


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    # Split by sign to stay overflow-free for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _block_shapes(layer_sizes):
    """The shapes of a net's parameter blocks [W0, b0, W1, b1, ...], W being (fan_out, fan_in)."""
    return [
        shape
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        for shape in ((fan_out, fan_in), (fan_out,))
    ]


class Mlp:
    """Fully connected net: rectifier hidden layers, identity or logistic output.

    ``layer_sizes`` are the widths [in, hidden..., out].  All parameters live
    in the one float64 vector ``flat``, laid out as [W0, b0, W1, b1, ...]
    with weights W of shape (fan_out, fan_in); ``weights`` and ``biases`` are
    reshaped views into it (``blocks`` splits any vector so laid out), so
    in-place edits of either form update the net.  The net takes ownership
    of the ``flat`` it is given: it is neither copied nor converted.
    Forward maps a (B, in) batch to (B, out); a single input is a one-row
    batch.

    A ``flat`` of shape (N, P) is a stack of N nets of the same widths, row
    ``n`` being net ``n``'s vector, and the views then lead with the N axis.
    A stack's ``forward`` maps (N, B, in) to (N, B, out), batch ``n``
    through net ``n``, bit for bit as net ``n``'s own forward of that batch,
    with one batched product per layer.  Only single nets train:
    ``forward_cached`` and ``backward`` take no stack.
    """

    def __init__(self, layer_sizes, flat, output_activation="identity"):
        if output_activation not in ("identity", "sigmoid"):
            raise ValueError("output_activation must be 'identity' or 'sigmoid'")
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.num_parameters(layer_sizes):
            raise ValueError(
                f"flat vector of shape {flat.shape} does not fit layers {layer_sizes}"
            )
        self.layer_sizes = list(layer_sizes)
        self._shapes = _block_shapes(layer_sizes)
        self.flat = flat
        params = self.blocks(flat)
        self.weights = params[0::2]
        self.biases = params[1::2]
        # Each layer's (..., in, out) transposed weights and (..., 1, out) bias.
        self._affine = [
            (w.swapaxes(-1, -2), b[..., None, :]) for w, b in zip(self.weights, self.biases)
        ]
        self.output_activation = output_activation

    @staticmethod
    def num_parameters(layer_sizes):
        """The length of the ``flat`` vector of a net of these widths."""
        return sum(
            fan_out * (fan_in + 1) for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        )

    @classmethod
    def create(cls, layer_sizes, output_activation="identity", rng=None):
        """Scaled-uniform fan-in initialization: U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
        rng = np.random.default_rng(rng)
        blocks = []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            blocks.append(rng.uniform(-bound, bound, (fan_out, fan_in)).ravel())
            blocks.append(rng.uniform(-bound, bound, fan_out))
        return cls(layer_sizes, np.concatenate(blocks), output_activation)

    @property
    def input_dim(self):
        return self.layer_sizes[0]

    def blocks(self, vector):
        """Views [W0, b0, W1, b1, ...] of a vector laid out like ``flat``.

        The views of an (N, P) stack of vectors lead with its N axis.
        """
        out, start = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            out.append(vector[..., start : start + size].reshape(*vector.shape[:-1], *shape))
            start += size
        return out

    def _batch(self, x):
        """``x`` as an input batch: (B, in) for a single net, (N, B, in) for a stack."""
        a = np.asarray(x, dtype=float)
        stack = self.flat.shape[:-1]
        if a.ndim != len(stack) + 2 or a.shape[:-2] != stack or a.shape[-1] != self.input_dim:
            expected = ", ".join([*map(str, stack), "B", str(self.input_dim)])
            raise ValueError(f"input of shape {a.shape} is not ({expected})")
        return a

    def _layers(self, a, keep_cache):
        """The output for (..., B, in) inputs ``a``, and with ``keep_cache`` each layer's."""
        cache = [a] if keep_cache else None
        last = len(self._affine) - 1
        for i, (w_t, b) in enumerate(self._affine):
            z = a @ w_t + b
            if i < last:
                a = _relu(z)
            elif self.output_activation == "sigmoid":
                a = _sigmoid(z)
            else:
                a = z
            if keep_cache:
                cache.append(a)
        return a, cache

    def forward(self, x):
        return self._layers(self._batch(x), keep_cache=False)[0]

    def forward_cached(self, x):
        """The output and the activations that a later ``backward`` call takes."""
        if self.flat.ndim != 1:
            raise ValueError("a stack of nets runs only forward")
        return self._layers(self._batch(x), keep_cache=True)

    def backward(self, cache, upstream, param_grads=True, input_grad=True):
        """Reverse-mode gradients of sum(upstream * output) w.r.t. params and input.

        ``cache`` is what ``forward_cached`` returned with the output, and
        ``upstream`` must have the output's (B, out) shape; gradients are
        summed over the batch.  Returns (grad, grad_input): grad is one
        vector laid out like ``flat`` (``blocks`` splits it).  A term not
        asked for is not computed and comes back as None; the terms that are
        computed are bit-identical either way.
        """
        delta = np.asarray(upstream, dtype=float)
        y = cache[-1]
        if delta.shape != y.shape:
            raise ValueError("upstream gradient shape does not match output")
        if self.output_activation == "sigmoid":
            delta = delta * y * (1.0 - y)
        grad = np.empty_like(self.flat) if param_grads else None
        grads = self.blocks(grad) if param_grads else None
        for i in range(len(self.weights) - 1, -1, -1):
            if param_grads:
                np.matmul(delta.T, cache[i], out=grads[2 * i])
                np.sum(delta, axis=0, out=grads[2 * i + 1])
            if i > 0 or input_grad:
                delta = delta @ self.weights[i]
            if i > 0:
                delta = delta * (cache[i] > 0)
        return grad, (delta if input_grad else None)


# Adam's moment decay rates and denominator floor (Kingma and Ba's values).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over one flat parameter vector.

    ``m`` and ``v`` are the first and second moments, laid out like the
    parameters (zeros for a fresh optimizer); Adam takes ownership of them.
    """

    def __init__(self, m, v, lr):
        self.lr = lr
        self.step_count = 0
        self.m = m
        self.v = v

    def step(self, param, grad):
        """Apply one update to ``param`` in place and return it."""
        if not np.all(np.isfinite(grad)):
            raise ArithmeticError("non-finite gradient; training halted")
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1**self.step_count
        b2c = 1.0 - ADAM_BETA2**self.step_count
        for p, g, m, v in _chunks(param, grad, self.m, self.v):
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
        return param


class ReplayMemory:
    """Fixed-capacity FIFO store of (state, action, reward, next_state).

    Backed by preallocated ring-buffer arrays so mini-batch sampling is a
    single fancy-indexing pass.  The rings are allocated at the first push,
    or, for a restored memory, at its first push or sample: until then a
    restored memory keeps the ``dump`` arrays it was given.  So the rings,
    an agent's largest allocation, are made by the thread that trains, not
    by a pool thread that restored the agent; made there, they landed on
    that thread's recycled heap pages and raised the peak RSS of resumed
    ref7 runs by 10-50 MB.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._states = None
        self._actions = None
        self._rewards = None
        self._next_states = None
        self._size = 0
        self._cursor = 0
        self._restored = None  # the ``dump`` arrays of a restored memory

    def __len__(self):
        return self._size

    def _allocate(self, state_size, action_size):
        """Allocate the rings, moving a restored memory's items into them."""
        self._states = np.empty((self.capacity, state_size))
        self._actions = np.empty((self.capacity, action_size))
        self._rewards = np.empty(self.capacity)
        self._next_states = np.empty((self.capacity, state_size))
        restored, self._restored = self._restored, None
        if restored is not None:
            n = self._size
            self._states[:n] = restored["states"]
            self._actions[:n] = restored["actions"]
            self._rewards[:n] = restored["rewards"]
            self._next_states[:n] = restored["next_states"]

    def push(self, state, action, reward, next_state):
        state = np.asarray(state, dtype=float)
        action = np.asarray(action, dtype=float)
        if self._states is None:
            self._allocate(state.size, action.size)
        i = self._cursor
        self._states[i] = state
        self._actions[i] = action
        self._rewards[i] = float(reward)
        self._next_states[i] = next_state
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size, rng):
        """Uniform sample without replacement, stacked into batch arrays."""
        if batch_size > self._size:
            raise ValueError(
                f"cannot sample {batch_size} items from a memory of {self._size}"
            )
        if self._restored is not None:
            self._allocate(self._restored["states"].shape[1], self._restored["actions"].shape[1])
        picks = rng.choice(self._size, size=batch_size, replace=False)
        return (
            self._states[picks],
            self._actions[picks],
            self._rewards[picks],
            self._next_states[picks],
        )

    def dump(self):
        """The stored items as views of the ring buffers (None when empty).

        A restored memory not yet pushed to or sampled returns the arrays it
        was restored from.
        """
        if self._size == 0:
            return None
        if self._restored is not None:
            return dict(self._restored)
        return {
            "states": self._states[: self._size],
            "actions": self._actions[: self._size],
            "rewards": self._rewards[: self._size],
            "next_states": self._next_states[: self._size],
            "cursor": self._cursor,
        }

    def restore(self, blob):
        """Fill this empty memory from ``dump`` output, which it keeps until its rings exist."""
        self._restored = blob
        self._size = blob["states"].shape[0]
        self._cursor = blob["cursor"]


# Construction values of an agent besides its dimensions and seed: the keys of
# ``DdpgAgent.hyperparameters``, in the order it and its checkpoint ``meta``
# list them, each mapped to its type in ``meta``.  The harness config has a
# field of each name.  ``meta`` stores the running ``noise_sigma`` in place of
# ``noise_sigma_init``, so a restored agent continues the noise schedule.
HYPERPARAMETERS = {
    "hidden_sizes": list,
    "noise_sigma_init": float,
    "noise_decay": float,
    "noise_sigma_min": float,
    "discount": float,
    "soft_update_rate": float,
    "batch_size": int,
    "memory_capacity": int,
    "actor_lr": float,
    "critic_lr": float,
}


# The replay arrays of a checkpoint, stored as ``replay_{key}``.
_REPLAY_KEYS = ("states", "actions", "rewards", "next_states")

# The flat vectors of an agent's checkpoint: the parameters of each net and
# the Adam moments of the two online nets.
_FLAT_KEYS = (
    "actor",
    "critic",
    "target_actor",
    "target_critic",
    "adam_actor_m",
    "adam_actor_v",
    "adam_critic_m",
    "adam_critic_v",
)


def _meta_key(name):
    """The checkpoint ``meta`` key that stores hyperparameter ``name``."""
    return "noise_sigma" if name == "noise_sigma_init" else name


# The table of an agent's ``meta`` besides ``version``, in ``state_dict``'s order.
AGENT_META = {
    "state_dim": int,
    "action_dim": int,
    **{_meta_key(name): kind for name, kind in HYPERPARAMETERS.items()},
    "adam_actor_step": int,
    "adam_critic_step": int,
    "replay_cursor": int,
    "replay_len": int,
    "rng_state": dict,
}


def _layer_sizes(state_dim, action_dim, hidden_sizes):
    """Layer widths of the actor and of the critic (which also takes the action)."""
    return {
        "actor": [state_dim, *hidden_sizes, action_dim],
        "critic": [state_dim + action_dim, *hidden_sizes, 1],
    }


def _flat_vectors(state_dim, action_dim, hidden_sizes):
    """An agent's ``flats`` record, unset: each vector a view of one contiguous block.

    The ``_FLAT_KEYS`` vectors lie in that order, each as long as the
    ``flat`` vector of the net it parameterizes (an Adam moment's being its
    net's).  One block is one allocation per agent, at ref7 large enough
    for numpy to ask the kernel for huge pages.
    """
    sizes = _layer_sizes(state_dim, action_dim, hidden_sizes)
    lengths = [
        Mlp.num_parameters(sizes["critic" if "critic" in key else "actor"]) for key in _FLAT_KEYS
    ]
    block = np.empty(sum(lengths))
    ends = itertools.accumulate(lengths)
    return {key: block[end - n : end] for key, n, end in zip(_FLAT_KEYS, lengths, ends)}


class DdpgAgent:
    """One BS's actor-critic learner with target networks and replay.

    The actor ends in a logistic layer so raw actions live in [0, 1]; the
    critic takes the state-action concatenation and ends linear.  Exploration
    adds clipped Gaussian noise whose scale starts at ``noise_sigma_init`` and
    shrinks by 1/(1 + noise_decay) after every exploring action, floored at
    ``noise_sigma_min``.  Every name in ``HYPERPARAMETERS`` is a required
    keyword argument, checked by ``check_hyperparameters``; there are no
    defaults here (the harness config holds them).

    The agent is two records, both of which its checkpoint stores:
    ``hyperparameters`` maps each name to its setting, in ``HYPERPARAMETERS``
    order, and ``flats`` maps each ``_FLAT_KEYS`` key to its vector, in that
    order.  The vectors are views of one block (``_flat_vectors``), in a
    fresh and a restored agent alike; the nets and Adam optimizers own
    them.  ``noise_sigma`` is the running noise scale; a restored agent's
    ``noise_sigma_init`` is the scale it was saved at.
    """

    def __init__(self, state_dim, action_dim, *, seed, **hyperparameters):
        self.check_hyperparameters(hyperparameters)
        rng = np.random.default_rng(seed)
        hidden_sizes = hyperparameters["hidden_sizes"]
        sizes = _layer_sizes(state_dim, action_dim, hidden_sizes)
        flats = _flat_vectors(state_dim, action_dim, hidden_sizes)
        for net, activation in (("actor", "sigmoid"), ("critic", "identity")):
            flat = Mlp.create(sizes[net], activation, rng).flat
            flats[net][:] = flats[f"target_{net}"][:] = flat
            flats[f"adam_{net}_m"][:] = flats[f"adam_{net}_v"][:] = 0.0
        self._setup(state_dim, action_dim, rng, hyperparameters, flats)

    @staticmethod
    def check_hyperparameters(values):
        """Check settings that map every name in ``HYPERPARAMETERS`` to a value.

        TypeError for a missing or unknown name, as a keyword signature
        raises; ValueError, its message starting with the name, for settings
        no agent can learn with.
        """
        odd = set(values).symmetric_difference(HYPERPARAMETERS)
        if odd:
            raise TypeError(f"missing or unknown hyperparameters: {sorted(odd)}")
        if any(width < 1 for width in values["hidden_sizes"]):
            raise ValueError("hidden_sizes must list widths >= 1")
        for name in ("noise_sigma_init", "noise_decay"):
            if not values[name] >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= values["discount"] < 1:
            raise ValueError("discount must lie in [0, 1)")
        if not 0 < values["soft_update_rate"] <= 1:
            raise ValueError("soft_update_rate must lie in (0, 1]")
        if values["batch_size"] > values["memory_capacity"]:
            raise ValueError("batch_size must be <= memory_capacity")
        for name in ("actor_lr", "critic_lr"):
            if not values[name] > 0:
                raise ValueError(f"{name} must be > 0")

    def _setup(self, state_dim, action_dim, rng, hyperparameters, flats):
        """Set up the agent around its two records, checked by the caller.

        Both are put in their canonical order; the nets and optimizers take
        ownership of the vectors in ``flats``.
        """
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.rng = rng
        hp = {name: hyperparameters[name] for name in HYPERPARAMETERS}
        hp["hidden_sizes"] = tuple(hp["hidden_sizes"])
        self.hyperparameters = hp
        self.noise_sigma = hp["noise_sigma_init"]
        self.flats = {key: flats[key] for key in _FLAT_KEYS}
        sizes = _layer_sizes(state_dim, action_dim, hp["hidden_sizes"])
        self.actor = Mlp(sizes["actor"], flats["actor"], "sigmoid")
        self.critic = Mlp(sizes["critic"], flats["critic"], "identity")
        self.target_actor = Mlp(sizes["actor"], flats["target_actor"], "sigmoid")
        self.target_critic = Mlp(sizes["critic"], flats["target_critic"], "identity")
        self.adam_actor = Adam(flats["adam_actor_m"], flats["adam_actor_v"], hp["actor_lr"])
        self.adam_critic = Adam(
            flats["adam_critic_m"], flats["adam_critic_v"], hp["critic_lr"]
        )
        self.memory = ReplayMemory(hp["memory_capacity"])

    def act(self, state, explore=True):
        """Policy action, optionally with clipped exploration noise.

        Each exploring call also advances the noise schedule
        sigma <- max(sigma / (1 + noise_decay), noise_sigma_min).
        """
        action = self.actor.forward(state[None])[0]
        if explore:
            hp = self.hyperparameters
            noise = self.rng.normal(0.0, self.noise_sigma, self.action_dim)
            action = np.clip(action + noise, 0.0, 1.0)
            self.noise_sigma = max(
                self.noise_sigma / (1.0 + hp["noise_decay"]), hp["noise_sigma_min"]
            )
        return action

    def random_action(self):
        """Uniform action in [0, 1]^A for the warm-up phase."""
        return self.rng.uniform(0.0, 1.0, self.action_dim)

    def remember(self, state, action, reward, next_state):
        self.memory.push(state, action, reward, next_state)

    def ready(self):
        return len(self.memory) >= self.hyperparameters["batch_size"]

    def train_step(self, batch=None):
        """One DDPG step from a replay mini-batch: critic, actor, then targets.

        Exactly ``update_critic(batch)`` followed by ``update_actor`` on the
        batch's states, which ends with the soft update of the targets.

        Returns:
            (critic_loss, mean_q) with mean_q the pre-update critic value of
            the sampled state-action pairs.
        """
        losses, states = self.update_critic(batch)
        self.update_actor(states)
        return losses

    def update_critic(self, batch=None):
        """The first half of ``train_step``: one Adam step of the critic.

        Samples a replay mini-batch unless ``batch`` is given, and regresses
        the critic onto r + discount * Q'(s', pi'(s')).  Returns
        ((critic_loss, mean_q), states), the batch's states being what
        ``update_actor`` takes.  Each half frees its gradient and activations
        when it returns, which keeps down the memory of several agents
        training at once.
        """
        if batch is None:
            batch = self.memory.sample(self.hyperparameters["batch_size"], self.rng)
        states, actions, rewards, next_states = batch
        b = states.shape[0]
        if b == 0:
            raise ValueError("empty training batch")
        next_actions = self.target_actor.forward(next_states)
        next_q = self.target_critic.forward(
            np.hstack([next_states, next_actions])
        )[:, 0]
        targets = rewards + self.hyperparameters["discount"] * next_q

        q, ctx = self.critic.forward_cached(np.hstack([states, actions]))
        q = q[:, 0]
        err = targets - q
        critic_loss = float(np.mean(err**2))
        mean_q = float(np.mean(q))
        upstream = (-2.0 / b) * err[:, None]
        critic_grad, _ = self.critic.backward(ctx, upstream, input_grad=False)
        self.adam_critic.step(self.critic.flat, critic_grad)
        return (critic_loss, mean_q), states

    def update_actor(self, states):
        """The second half of ``train_step``: one Adam step of the actor, then ``soft_update``.

        The actor follows the deterministic policy gradient through the
        (just updated) critic's action input at ``states``.
        """
        b = states.shape[0]
        policy_actions, actor_ctx = self.actor.forward_cached(states)
        _, critic_ctx = self.critic.forward_cached(
            np.hstack([states, policy_actions])
        )
        # d(-mean Q)/dQ = -1/b; push it back to the action inputs.  Slicing
        # the full input gradient keeps it bit-identical to the unsliced
        # product, which a GEMM on the action columns of W0 alone is not.
        _, input_grad = self.critic.backward(
            critic_ctx, np.full((b, 1), -1.0 / b), param_grads=False
        )
        action_grad = input_grad[:, self.state_dim :]
        actor_grad, _ = self.actor.backward(actor_ctx, action_grad, input_grad=False)
        self.adam_actor.step(self.actor.flat, actor_grad)
        self.soft_update()

    def soft_update(self):
        """Blend online parameters into the targets: t <- rho*o + (1-rho)*t.

        ``rho`` is ``soft_update_rate``, checked at construction.
        """
        rho = self.hyperparameters["soft_update_rate"]
        for target, online in (
            (self.target_actor, self.actor),
            (self.target_critic, self.critic),
        ):
            for t, o in _chunks(target.flat, online.flat):
                t *= 1.0 - rho
                t += rho * o

    # -- checkpointing ----------------------------------------------------

    def state_dict(self):
        """Checkpoint arrays: the ``flats`` record, the replay and a JSON ``meta``.

        ``meta`` holds the ``hyperparameters`` record, with the running
        ``noise_sigma`` in place of ``noise_sigma_init``.  The arrays alias
        the live agent (no copies), so write them out before the agent trains
        or acts again.
        """
        arrays = dict(self.flats)
        replay = self.memory.dump()
        if replay is not None:
            for key in _REPLAY_KEYS:
                arrays[f"replay_{key}"] = replay[key]
        meta = {
            "version": CHECKPOINT_VERSION,
            "state_dim": self.state_dim,
            "action_dim": self.action_dim,
            **{_meta_key(name): value for name, value in self.hyperparameters.items()},
            "noise_sigma": self.noise_sigma,  # the running sigma, in its place
            "adam_actor_step": self.adam_actor.step_count,
            "adam_critic_step": self.adam_critic.step_count,
            "replay_cursor": 0 if replay is None else replay["cursor"],
            "replay_len": len(self.memory),
            "rng_state": self.rng.bit_generator.state,
        }
        arrays["meta"] = np.array(json.dumps(meta))
        return arrays

    @classmethod
    def from_state_dict(cls, archive, prefix, meta):
        """Rebuild an agent, hyper-parameters included, from its stored ``state_dict``.

        Draws no initial weights.  ``archive`` is an open run checkpoint,
        ``prefix`` (``agent{n}_``) leads the agent's entry names and ``meta``
        is its ``meta``, checked against ``AGENT_META`` (``read_meta``).
        Each net and Adam moment is read in place into one new block of the
        agent's ``flats`` layout, and the replay into arrays of its rows, by
        ``read_entry`` against the layout the meta gives them; its messages
        name the key without ``prefix``.  ValueError unless that layout holds
        (float64 values of each net's length, ``replay_len`` rows of the
        state and action widths), the replay ring's cursor lies below the
        capacity and at the row count until the ring is full, and numpy
        takes the ``rng_state``.
        """
        hyperparameters = {name: meta[_meta_key(name)] for name in HYPERPARAMETERS}
        cls.check_hyperparameters(hyperparameters)
        state_dim, action_dim = meta["state_dim"], meta["action_dim"]
        flats = _flat_vectors(state_dim, action_dim, hyperparameters["hidden_sizes"])
        for key, flat in flats.items():
            read_entry(archive, prefix + key, flat, key)
        rows, cursor = meta["replay_len"], meta["replay_cursor"]
        capacity = hyperparameters["memory_capacity"]
        if rows > capacity or cursor >= capacity or rows < capacity and cursor != rows:
            raise ValueError(
                f"a replay of {rows} items with its cursor at {cursor} "
                f"does not fit a memory of {capacity}"
            )
        agent = cls.__new__(cls)
        agent._setup(state_dim, action_dim, np.random.default_rng(), hyperparameters, flats)
        restore_rng(agent.rng, meta["rng_state"])
        agent.adam_actor.step_count = meta["adam_actor_step"]
        agent.adam_critic.step_count = meta["adam_critic_step"]
        if rows > 0:
            state, action = (rows, state_dim), (rows, action_dim)
            shapes = dict(zip(_REPLAY_KEYS, (state, action, (rows,), state)))
            replay = {
                key: read_entry(
                    archive, f"{prefix}replay_{key}", np.empty(shapes[key]), f"replay_{key}"
                )
                for key in _REPLAY_KEYS
            }
            agent.memory.restore({**replay, "cursor": cursor})
        return agent


def actor_layer_sizes(meta):
    """The actor's layer widths, from an agent's parsed checkpoint ``meta``."""
    return _layer_sizes(meta["state_dim"], meta["action_dim"], meta["hidden_sizes"])["actor"]
