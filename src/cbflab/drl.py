"""Self-contained DDPG machinery on plain numpy.

Multilayer perceptrons with hand-written reverse-mode gradients, bias-
corrected Adam, a FIFO experience replay, soft-updated target networks and
the decaying Gaussian exploration schedule.  Everything is float64 and
deterministic for a fixed seed on a single thread; agents never share
parameters, matching decentralized per-BS training.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Version of the run checkpoint layout, laid out in ``harness.save_checkpoint``.
CHECKPOINT_VERSION = 3


def read_meta(entry):
    """Parse a checkpoint's JSON ``meta`` entry; ValueError for an unknown version."""
    meta = json.loads(str(entry))
    if meta["version"] not in (1, 2, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {meta['version']}")
    return meta


def savez_atomic(path, arrays):
    """``np.savez(path, **arrays)`` that never leaves ``path`` half written.

    The archive goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; if writing fails, the temporary file is
    removed and an earlier file at ``path`` is left as it was.  As with
    ``np.savez``, ``.npz`` is appended to a path without it.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


class Mlp:
    """Fully connected net: rectifier hidden layers, identity or logistic output.

    ``layer_sizes`` are the widths [in, hidden..., out].  All parameters live
    in the one float64 vector ``flat``, laid out as [W0, b0, W1, b1, ...]
    with weights W of shape (fan_out, fan_in); ``weights``, ``biases`` and
    ``parameters()`` are reshaped views into it, so in-place edits of either
    form update the net.  The net takes ownership of the ``flat`` it is
    given: it is neither copied nor converted.  Forward maps (B, in) ->
    (B, out) and accepts single vectors as well.
    """

    def __init__(self, layer_sizes, flat, output_activation="identity"):
        if output_activation not in ("identity", "sigmoid"):
            raise ValueError("output_activation must be 'identity' or 'sigmoid'")
        pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        if flat.shape != (sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs),):
            raise ValueError(
                f"flat vector of shape {flat.shape} does not fit layers {layer_sizes}"
            )
        self._shapes = [
            shape for fan_in, fan_out in pairs for shape in ((fan_out, fan_in), (fan_out,))
        ]
        self.flat = flat
        self._params = self.blocks(flat)
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]
        self.output_activation = output_activation

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
        return self.weights[0].shape[1]

    @property
    def output_dim(self):
        return self.weights[-1].shape[0]

    def parameters(self):
        """Interleaved [W0, b0, W1, b1, ...]; mutating entries updates the net."""
        return list(self._params)

    def blocks(self, vector):
        """Views of a vector laid out like ``flat``, shaped like ``parameters()``."""
        out, start = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            out.append(vector[start : start + size].reshape(shape))
            start += size
        return out

    def _forward_impl(self, x, keep_cache):
        squeeze = x.ndim == 1
        a = np.atleast_2d(np.asarray(x, dtype=float))
        if a.shape[1] != self.input_dim:
            raise ValueError(
                f"input width {a.shape[1]} does not match net input {self.input_dim}"
            )
        cache = [a] if keep_cache else None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            if i < last:
                a = _relu(z)
            elif self.output_activation == "sigmoid":
                a = _sigmoid(z)
            else:
                a = z
            if keep_cache:
                cache.append(a)
        return (a, cache, squeeze)

    def forward(self, x):
        y, _, squeeze = self._forward_impl(x, keep_cache=False)
        return y[0] if squeeze else y

    def forward_cached(self, x):
        """Forward pass keeping activations for a later backward call."""
        y, cache, squeeze = self._forward_impl(x, keep_cache=True)
        return (y[0] if squeeze else y), (cache, squeeze)

    def backward(self, ctx, upstream, param_grads=True, input_grad=True):
        """Reverse-mode gradients of sum(upstream * output) w.r.t. params and input.

        ``upstream`` must match the forward output shape; gradients are summed
        over the batch.  Returns (grad, grad_input): grad is one vector laid
        out like ``flat`` (``blocks`` splits it like ``parameters()``).  A
        term not asked for is not computed and comes back as None; the terms
        that are computed are bit-identical either way.
        """
        cache, squeeze = ctx
        delta = np.atleast_2d(np.asarray(upstream, dtype=float))
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
        if not input_grad:
            return grad, None
        return grad, (delta[0] if squeeze else delta)

    def gradients(self, x, upstream):
        """Convenience wrapper: forward then backward in one call."""
        _, ctx = self.forward_cached(x)
        return self.backward(ctx, upstream)


class Adam:
    """Bias-corrected Adam over one flat parameter vector.

    ``m`` and ``v`` are the first and second moments, laid out like the
    parameters (zeros for a fresh optimizer); Adam takes ownership of them.
    """

    def __init__(self, m, v, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = m
        self.v = v

    def step(self, param, grad):
        """Apply one update to ``param`` in place and return it."""
        if not np.all(np.isfinite(grad)):
            raise ArithmeticError("non-finite gradient; training halted")
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for p, g, m, v in _chunks(param, grad, self.m, self.v):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        return param


class ReplayMemory:
    """Fixed-capacity FIFO store of (state, action, reward, next_state).

    Backed by preallocated ring-buffer arrays so mini-batch sampling is a
    single fancy-indexing pass.
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

    def __len__(self):
        return self._size

    def _allocate(self, state, action):
        self._states = np.empty((self.capacity, state.size))
        self._actions = np.empty((self.capacity, action.size))
        self._rewards = np.empty(self.capacity)
        self._next_states = np.empty((self.capacity, state.size))

    def push(self, state, action, reward, next_state):
        state = np.asarray(state, dtype=float)
        action = np.asarray(action, dtype=float)
        if self._states is None:
            self._allocate(state, action)
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
        picks = rng.choice(self._size, size=batch_size, replace=False)
        return (
            self._states[picks],
            self._actions[picks],
            self._rewards[picks],
            self._next_states[picks],
        )

    def dump(self):
        """The stored items as views of the ring buffers (None when empty)."""
        if self._size == 0:
            return None
        return {
            "states": self._states[: self._size],
            "actions": self._actions[: self._size],
            "rewards": self._rewards[: self._size],
            "next_states": self._next_states[: self._size],
            "cursor": self._cursor,
        }

    def restore(self, blob):
        """Fill this empty memory from ``dump`` output."""
        states = blob["states"]
        self._allocate(states[0], blob["actions"][0])
        n = states.shape[0]
        self._states[:n] = states
        self._actions[:n] = blob["actions"]
        self._rewards[:n] = blob["rewards"]
        self._next_states[:n] = blob["next_states"]
        self._size = n
        self._cursor = int(blob["cursor"])


# Construction values of an agent besides its dimensions and seed, in the
# order its checkpoint ``meta`` lists them.  The harness config has a field of
# each name.  ``meta`` stores the running ``noise_sigma`` in place of
# ``noise_sigma_init``, so a restored agent continues the noise schedule.
HYPERPARAMETERS = (
    "hidden_sizes",
    "noise_sigma_init",
    "noise_decay",
    "noise_sigma_min",
    "discount",
    "soft_update_rate",
    "batch_size",
    "memory_capacity",
    "actor_lr",
    "critic_lr",
)


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


def _layer_sizes(state_dim, action_dim, hidden_sizes):
    """Layer widths of the actor and of the critic (which also takes the action)."""
    return {
        "actor": [state_dim, *hidden_sizes, action_dim],
        "critic": [state_dim + action_dim, *hidden_sizes, 1],
    }


class DdpgAgent:
    """One BS's actor-critic learner with target networks and replay.

    The actor ends in a logistic layer so raw actions live in [0, 1]; the
    critic takes the state-action concatenation and ends linear.  Exploration
    adds clipped Gaussian noise whose scale starts at ``noise_sigma_init`` and
    shrinks by 1/(1 + noise_decay) after every exploring action, floored at
    ``noise_sigma_min``.  Every name in ``HYPERPARAMETERS`` is a required
    keyword argument; there are no defaults here (the harness config holds
    them).
    """

    def __init__(self, state_dim, action_dim, *, seed, hidden_sizes, **hyperparameters):
        rng = np.random.default_rng(seed)
        sizes = _layer_sizes(state_dim, action_dim, hidden_sizes)
        flats = {}
        for net, activation in (("actor", "sigmoid"), ("critic", "identity")):
            flat = Mlp.create(sizes[net], activation, rng).flat
            flats[net] = flat
            flats[f"target_{net}"] = flat.copy()
            flats[f"adam_{net}_m"] = np.zeros_like(flat)
            flats[f"adam_{net}_v"] = np.zeros_like(flat)
        self._build(
            state_dim, action_dim, rng, flats, hidden_sizes=hidden_sizes, **hyperparameters
        )

    def _build(
        self,
        state_dim,
        action_dim,
        rng,
        flats,
        *,
        hidden_sizes,
        noise_sigma_init,
        noise_decay,
        noise_sigma_min,
        discount,
        soft_update_rate,
        batch_size,
        memory_capacity,
        actor_lr,
        critic_lr,
    ):
        """Set up the agent around ``flats``, its vectors by ``_FLAT_KEYS`` key.

        The nets and optimizers take ownership of those vectors.
        """
        if not 0 <= discount < 1:
            raise ValueError("discount must lie in [0, 1)")
        if not 0 < soft_update_rate <= 1:
            raise ValueError("soft_update_rate must lie in (0, 1]")
        if batch_size > memory_capacity:
            raise ValueError("batch_size cannot exceed memory_capacity")
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.discount = discount
        self.soft_update_rate = soft_update_rate
        self.noise_sigma = noise_sigma_init
        self.noise_decay = noise_decay
        self.noise_sigma_min = noise_sigma_min
        self.batch_size = batch_size
        self.rng = rng
        sizes = _layer_sizes(state_dim, action_dim, hidden_sizes)
        self.actor = Mlp(sizes["actor"], flats["actor"], "sigmoid")
        self.critic = Mlp(sizes["critic"], flats["critic"], "identity")
        self.target_actor = Mlp(sizes["actor"], flats["target_actor"], "sigmoid")
        self.target_critic = Mlp(sizes["critic"], flats["target_critic"], "identity")
        self.adam_actor = Adam(flats["adam_actor_m"], flats["adam_actor_v"], actor_lr)
        self.adam_critic = Adam(flats["adam_critic_m"], flats["adam_critic_v"], critic_lr)
        self.memory = ReplayMemory(memory_capacity)

    @property
    def memory_capacity(self):
        return self.memory.capacity

    @property
    def actor_lr(self):
        return self.adam_actor.lr

    @property
    def critic_lr(self):
        return self.adam_critic.lr

    def act(self, state, explore=True):
        """Policy action, optionally with clipped exploration noise.

        Each exploring call also advances the noise schedule
        sigma <- max(sigma / (1 + noise_decay), noise_sigma_min).
        """
        action = self.actor.forward(state)
        if explore:
            noise = self.rng.normal(0.0, self.noise_sigma, self.action_dim)
            action = np.clip(action + noise, 0.0, 1.0)
            self.noise_sigma = max(
                self.noise_sigma / (1.0 + self.noise_decay), self.noise_sigma_min
            )
        return action

    def random_action(self):
        """Uniform action in [0, 1]^A for the warm-up phase."""
        return self.rng.uniform(0.0, 1.0, self.action_dim)

    def remember(self, state, action, reward, next_state):
        self.memory.push(state, action, reward, next_state)

    def ready(self):
        return len(self.memory) >= self.batch_size

    def train_step(self, batch=None):
        """One critic + actor update from a replay mini-batch.

        The critic regresses onto r + discount * Q'(s', pi'(s')); the actor
        follows the deterministic policy gradient through the critic's action
        input.  Target networks are untouched here.

        Returns:
            (critic_loss, mean_q) with mean_q the pre-update critic value of
            the sampled state-action pairs.
        """
        if batch is None:
            batch = self.memory.sample(self.batch_size, self.rng)
        states, actions, rewards, next_states = batch
        b = states.shape[0]
        if b == 0:
            raise ValueError("empty training batch")

        next_actions = self.target_actor.forward(next_states)
        next_q = self.target_critic.forward(
            np.hstack([next_states, next_actions])
        )[:, 0]
        targets = rewards + self.discount * next_q

        q, ctx = self.critic.forward_cached(np.hstack([states, actions]))
        q = q[:, 0]
        err = targets - q
        critic_loss = float(np.mean(err**2))
        mean_q = float(np.mean(q))
        upstream = (-2.0 / b) * err[:, None]
        critic_grad, _ = self.critic.backward(ctx, upstream, input_grad=False)
        self.adam_critic.step(self.critic.flat, critic_grad)

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
        return critic_loss, mean_q

    def soft_update(self, rate=None):
        """Blend online parameters into the targets: t <- rate*o + (1-rate)*t."""
        rho = self.soft_update_rate if rate is None else rate
        if not 0 <= rho <= 1:
            raise ValueError("update rate must lie in [0, 1]")
        for target, online in (
            (self.target_actor, self.actor),
            (self.target_critic, self.critic),
        ):
            for t, o in _chunks(target.flat, online.flat):
                t *= 1.0 - rho
                t += rho * o

    # -- checkpointing ----------------------------------------------------

    def state_dict(self):
        """Checkpoint arrays: one flat vector per net and per Adam moment.

        The arrays alias the live agent (no copies), so write them out before
        the agent trains or acts again.
        """
        arrays = {
            "actor": self.actor.flat,
            "critic": self.critic.flat,
            "target_actor": self.target_actor.flat,
            "target_critic": self.target_critic.flat,
            "adam_actor_m": self.adam_actor.m,
            "adam_actor_v": self.adam_actor.v,
            "adam_critic_m": self.adam_critic.m,
            "adam_critic_v": self.adam_critic.v,
        }
        replay = self.memory.dump()
        if replay is not None:
            for key in _REPLAY_KEYS:
                arrays[f"replay_{key}"] = replay[key]
        meta = {
            "version": CHECKPOINT_VERSION,
            "state_dim": self.state_dim,
            "action_dim": self.action_dim,
        }
        for name in HYPERPARAMETERS:
            meta[_meta_key(name)] = getattr(self, _meta_key(name))
        meta.update(
            adam_actor_step=self.adam_actor.step_count,
            adam_critic_step=self.adam_critic.step_count,
            replay_cursor=0 if replay is None else replay["cursor"],
            replay_len=len(self.memory),
            rng_state=self.rng.bit_generator.state,
        )
        arrays["meta"] = np.array(json.dumps(meta))
        return arrays

    @classmethod
    def from_state_dict(cls, arrays):
        """Rebuild an agent, hyper-parameters included, from ``state_dict`` arrays.

        Reads arrays of any supported version and draws no initial weights.
        The agent takes ownership of what it reads: its nets and Adam
        moments are the arrays that ``arrays`` returns (for version 1, the
        concatenation of their blocks), not copies.
        """
        meta = read_meta(arrays["meta"])
        hyperparameters = {name: meta[_meta_key(name)] for name in HYPERPARAMETERS}
        flats = {key: _flat_entry(arrays, meta, key) for key in _FLAT_KEYS}
        agent = cls.__new__(cls)
        agent._build(
            meta["state_dim"],
            meta["action_dim"],
            np.random.default_rng(),
            flats,
            **hyperparameters,
        )
        agent.rng.bit_generator.state = meta["rng_state"]
        agent.adam_actor.step_count = int(meta["adam_actor_step"])
        agent.adam_critic.step_count = int(meta["adam_critic_step"])
        if meta["replay_len"] > 0:
            replay = {key: arrays[f"replay_{key}"] for key in _REPLAY_KEYS}
            agent.memory.restore({**replay, "cursor": meta["replay_cursor"]})
        return agent

    @staticmethod
    def actor_from_state_dict(arrays):
        """The policy net alone, from ``state_dict`` arrays of any version.

        Reads only ``meta`` and the actor's entries, so with a lazily read
        archive (``np.load`` of an ``.npz``) nothing else is loaded.  Like
        ``from_state_dict``, the net takes ownership of the vector it reads.
        """
        meta = read_meta(arrays["meta"])
        sizes = _layer_sizes(meta["state_dim"], meta["action_dim"], meta["hidden_sizes"])
        return Mlp(sizes["actor"], _flat_entry(arrays, meta, "actor"), "sigmoid")


def _flat_entry(arrays, meta, key):
    """The flat vector stored under ``key`` in ``state_dict`` arrays of any version.

    Versions 2 and 3 store it under ``key``.  Version 1 stored one array per
    parameter block, ``{key}_p{i}`` for a net and ``{key}{i}`` for an Adam
    moment, which concatenate in index order to the same vector.
    """
    if meta["version"] == 1:
        prefix = key if key.startswith("adam_") else f"{key}_p"
        blocks = 2 * (len(meta["hidden_sizes"]) + 1)
        return np.concatenate([np.ravel(arrays[f"{prefix}{i}"]) for i in range(blocks)])
    return arrays[key]
