import io
import json
import os
import re
import zipfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbflab.drl import (
    AGENT_META,
    CHECKPOINT_VERSION,
    HYPERPARAMETERS,
    Adam,
    DdpgAgent,
    Mlp,
    ReplayMemory,
    read_entry,
    read_meta,
    replacing,
)
from conftest import load_agent, round_trip, save_agent


def finite_difference(fn, arr, step=1e-5):
    """Central-difference gradient of scalar fn w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        hi = fn()
        arr[idx] = orig - step
        lo = fn()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# -- forward ------------------------------------------------------------------


def test_forward_zero_net():
    net = Mlp([2, 3, 2], np.zeros(3 * 2 + 3 + 2 * 3 + 2))
    npt.assert_array_equal(net.forward(np.ones((1, 2))), np.zeros((1, 2)))


def test_forward_identity_layer():
    net = Mlp([3, 3], np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
    x = np.array([[0.3, -1.2, 4.0]])
    npt.assert_array_equal(net.forward(x), x)


def test_forward_sigmoid_at_zero():
    net = Mlp([3, 4], np.zeros(4 * 3 + 4), output_activation="sigmoid")
    npt.assert_allclose(net.forward(np.ones((1, 3))), 0.5)


def test_a_net_takes_only_batches():
    net = Mlp.create([3, 5, 2], "sigmoid", np.random.default_rng(0))
    for fn in (net.forward, net.forward_cached):
        for bad in ((3,), (1, 1, 3)):
            with pytest.raises(ValueError, match=re.escape(f"{bad} is not (B, 3)")):
                fn(np.zeros(bad))
    _, cache = net.forward_cached(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="upstream gradient shape"):
        net.backward(cache, np.zeros(2))


def test_forward_shape_mismatch():
    net = Mlp.create([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape("(1, 4) is not (B, 3)")):
        net.forward(np.ones((1, 4)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    count=st.integers(1, 8),
    activation=st.sampled_from(["identity", "sigmoid"]),
    seed=st.integers(0, 2**16),
)
def test_stacked_forward_maps_each_row_through_its_own_net(sizes, count, activation, seed):
    rng = np.random.default_rng(seed)
    nets = [Mlp.create(sizes, activation, rng) for _ in range(count)]
    stack = Mlp(sizes, np.stack([net.flat for net in nets]), activation)
    x = rng.standard_normal((count, 1, sizes[0])) * 3.0
    y = stack.forward(x)
    assert y.shape == (count, 1, sizes[-1])
    for n, net in enumerate(nets):
        assert y[n].tobytes() == net.forward(x[n]).tobytes()
    width = sizes[0]
    for bad in ((count + 1, 1, width), (count, 1, width + 1), (count, width), (width,)):
        with pytest.raises(ValueError, match=re.escape(f"is not ({count}, B, {width})")):
            stack.forward(np.zeros(bad))


def test_a_stack_of_nets_runs_only_forward():
    stack = Mlp([3, 4, 2], np.zeros((2, Mlp.num_parameters([3, 4, 2]))))
    with pytest.raises(ValueError, match="runs only forward"):
        stack.forward_cached(np.zeros((2, 1, 3)))
    with pytest.raises(ValueError, match="does not fit layers"):
        Mlp([3, 4, 2], np.zeros((2, 3, Mlp.num_parameters([3, 4, 2]))))


# -- gradients ----------------------------------------------------------------


def test_linear_layer_gradient_is_outer_product():
    rng = np.random.default_rng(1)
    net = Mlp.create([3, 2], rng=rng)
    x = rng.standard_normal((1, 3))
    up = rng.standard_normal((1, 2))
    _, cache = net.forward_cached(x)
    grad, gin = net.backward(cache, up)
    grads = net.blocks(grad)
    npt.assert_allclose(grads[0], np.outer(up, x), rtol=1e-12)
    npt.assert_allclose(grads[1], up[0], rtol=1e-12)
    npt.assert_allclose(gin[0], net.weights[0].T @ up[0], rtol=1e-12)


def test_zero_upstream_zero_gradients():
    net = Mlp.create([3, 4, 2], rng=np.random.default_rng(2))
    _, cache = net.forward_cached(np.ones((1, 3)))
    grads, gin = net.backward(cache, np.zeros((1, 2)))
    for g in grads:
        npt.assert_array_equal(g, 0.0)
    npt.assert_array_equal(gin, 0.0)


@pytest.mark.parametrize("activation", ["identity", "sigmoid"])
def test_gradients_match_finite_differences(activation):
    rng = np.random.default_rng(3)
    net = Mlp.create([4, 6, 5, 2], activation, rng)
    x = rng.standard_normal((3, 4))
    up = rng.standard_normal((3, 2))

    def loss():
        return float(np.sum(net.forward(x) * up))

    _, cache = net.forward_cached(x)
    grad, gin = net.backward(cache, up)
    for i, g in enumerate(net.blocks(grad)):
        fd = finite_difference(loss, net.blocks(net.flat)[i])
        assert rel_err(g, fd) < 1e-4, f"param block {i}"
    fd_in = finite_difference(loss, x)
    assert rel_err(gin, fd_in) < 1e-4


def test_input_gradient_through_critic_chain():
    # The actor update path: d(mean Q)/d(action) on the critic input.
    rng = np.random.default_rng(4)
    critic = Mlp.create([6, 8, 1], "identity", rng)
    sa = rng.standard_normal((5, 6))

    def mean_q():
        return float(np.mean(critic.forward(sa)))

    _, cache = critic.forward_cached(sa)
    _, gin = critic.backward(cache, np.full((5, 1), 1.0 / 5.0))
    fd = finite_difference(mean_q, sa)
    assert rel_err(gin, fd) < 1e-4


# -- adam ----------------------------------------------------------------------


def fresh_adam(p, lr):
    return Adam(np.zeros_like(p), np.zeros_like(p), lr=lr)


def test_adam_first_step_hand_computed():
    p = np.array([0.0])
    adam = fresh_adam(p, lr=0.1)
    adam.step(p, np.array([1.0]))
    # m_hat = 1, v_hat = 1 -> delta = -0.1 / (1 + 1e-8)
    expected = -0.1 / (1.0 + 1e-8)
    assert p[0] == pytest.approx(expected, rel=1e-12)


def test_adam_zero_gradient_no_move():
    p = np.array([1.5])
    adam = fresh_adam(p, lr=0.1)
    adam.step(p, np.array([0.0]))
    assert p[0] == 1.5


def test_adam_identical_params_identical_updates():
    p = np.array([0.3, 0.3])
    adam = fresh_adam(p, lr=0.05)
    adam.step(p, np.array([0.7, 0.7]))
    assert p[0] == p[1]


def test_adam_rejects_non_finite():
    p = np.array([0.0])
    adam = fresh_adam(p, lr=0.1)
    with pytest.raises(ArithmeticError):
        adam.step(p, np.array([np.nan]))
    assert adam.step_count == 0 and p[0] == 0.0


# -- replay ---------------------------------------------------------------------


def test_replay_fifo_eviction():
    mem = ReplayMemory(3)
    for i in range(4):
        mem.push([float(i)], [0.0], float(i), [0.0])
    assert len(mem) == 3
    s, _, r, _ = mem.sample(3, np.random.default_rng(0))
    assert sorted(r.tolist()) == [1.0, 2.0, 3.0]
    # Item 3 overwrote item 0; the cursor points at item 1, next to go.
    dump = mem.dump()
    assert dump["states"][:, 0].tolist() == [3.0, 1.0, 2.0]
    assert int(dump["states"][dump["cursor"], 0]) == 1


@pytest.mark.parametrize("first_use", ["push", "sample"])
def test_restored_replay_makes_its_rings_at_first_use(first_use):
    # A restored memory allocates nothing until it is used, so that its
    # rings come from the thread that trains; it continues like the original.
    original = ReplayMemory(4)
    for i in range(6):  # wrapped: items 4, 5, 2, 3, cursor at item 2
        original.push([float(i), 0.0], [1.0], float(i), [0.0, float(i)])
    blob = {key: value.copy() for key, value in original.dump().items() if key != "cursor"}
    restored = ReplayMemory(4)
    restored.restore({**blob, "cursor": original.dump()["cursor"]})
    assert len(restored) == 4
    assert all(ring is None for ring in (restored._states, restored._rewards))
    dump = restored.dump()  # the arrays it was restored from
    assert all(dump[key] is blob[key] for key in blob)
    if first_use == "push":
        for memory in (original, restored):
            memory.push([6.0, 0.0], [1.0], 6.0, [0.0, 6.0])
    batches = [memory.sample(4, np.random.default_rng(3)) for memory in (original, restored)]
    assert restored._states is not None
    for a, b in zip(*batches):
        npt.assert_array_equal(a, b)
    assert {k: np.asarray(v).tolist() for k, v in restored.dump().items()} == {
        k: np.asarray(v).tolist() for k, v in original.dump().items()
    }


def test_replay_full_sample_is_permutation():
    mem = ReplayMemory(5)
    for i in range(5):
        mem.push([float(i)], [0.0], float(i), [0.0])
    s, _, r, _ = mem.sample(5, np.random.default_rng(0))
    assert sorted(r.tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_replay_underfilled_sample_rejected():
    mem = ReplayMemory(5)
    mem.push([0.0], [0.0], 0.0, [0.0])
    with pytest.raises(ValueError):
        mem.sample(2, np.random.default_rng(0))


def test_replay_sampling_uniformity():
    mem = ReplayMemory(10)
    for i in range(10):
        mem.push([float(i)], [0.0], float(i), [0.0])
    rng = np.random.default_rng(123)
    counts = np.zeros(10)
    draws = 100_000
    for _ in range(draws):
        _, _, r, _ = mem.sample(1, rng)
        counts[int(r[0])] += 1
    expected = draws / 10.0
    sigma = np.sqrt(draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < 27.0  # chi^2_{9, 0.999} = 27.88


# -- agent ------------------------------------------------------------------------


# Exploration settings for agents whose test does not pick its own.
NOISE = dict(noise_sigma_init=0.6, noise_decay=1e-3, noise_sigma_min=0.01)


def small_agent(**kw):
    defaults = dict(
        state_dim=6,
        action_dim=3,
        hidden_sizes=(8, 6),
        actor_lr=1e-3,
        critic_lr=1e-3,
        discount=0.5,
        soft_update_rate=0.01,
        memory_capacity=64,
        batch_size=4,
        seed=0,
        **NOISE,
    )
    defaults.update(kw)
    return DdpgAgent(**defaults)


def test_act_deterministic_in_box():
    agent = small_agent()
    s = np.random.default_rng(1).standard_normal(6)
    a1 = agent.act(s, explore=False)
    a2 = agent.act(s, explore=False)
    npt.assert_array_equal(a1, a2)
    assert np.all(a1 >= 0.0) and np.all(a1 <= 1.0)


def test_act_clipping_with_huge_noise():
    agent = small_agent(noise_sigma_init=1e6)
    s = np.zeros(6)
    a = agent.act(s, explore=True)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_noise_schedule_single_step():
    agent = small_agent(noise_sigma_init=0.6, noise_decay=0.001)
    agent.act(np.zeros(6), explore=True)
    assert agent.noise_sigma == pytest.approx(0.6 / 1.001, rel=1e-12)


def test_noise_schedule_floor_and_monotone():
    agent = small_agent(noise_sigma_init=0.02, noise_decay=0.5, noise_sigma_min=0.01)
    sigmas = []
    for _ in range(10):
        agent.act(np.zeros(6), explore=True)
        sigmas.append(agent.noise_sigma)
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[-1] == 0.01


def test_greedy_act_does_not_decay():
    agent = small_agent(noise_sigma_init=0.6)
    agent.act(np.zeros(6), explore=False)
    assert agent.noise_sigma == 0.6


def test_soft_update_extremes_and_midpoint():
    agent = small_agent()
    online = agent.actor.blocks(agent.actor.flat)
    target = agent.target_actor.blocks(agent.target_actor.flat)
    for t in target:
        t.fill(0.0)
    agent.hyperparameters["soft_update_rate"] = 0.0
    agent.soft_update()
    for t in target:
        npt.assert_array_equal(t, 0.0)
    agent.hyperparameters["soft_update_rate"] = 1.0
    agent.soft_update()
    for t, o in zip(target, online):
        npt.assert_array_equal(t, o)
    # scalar check: target 0, online 2, rate 0.5 -> 1
    online[0].fill(2.0)
    target[0].fill(0.0)
    agent.hyperparameters["soft_update_rate"] = 0.5
    agent.soft_update()
    npt.assert_allclose(target[0], 1.0)


def test_target_lag_matches_exponential_average():
    rho = 0.25
    agent = small_agent(soft_update_rate=rho)
    theta0 = 3.0
    agent.critic.weights[0].fill(0.0)
    agent.target_critic.weights[0].fill(theta0)
    history = []
    for t in range(6):
        val = float(t + 1)
        agent.critic.weights[0].fill(val)
        history.append(val)
        agent.soft_update()
    expected = theta0 * (1.0 - rho) ** len(history)
    for i, val in enumerate(history):
        expected += rho * (1.0 - rho) ** (len(history) - 1 - i) * val
    npt.assert_allclose(agent.target_critic.weights[0], expected, rtol=1e-12)


def test_update_actor_ends_with_the_soft_update():
    rho = 0.25
    agent = small_agent(soft_update_rate=rho)
    fill_memory(agent, 16, seed=4)
    _, states = agent.update_critic()
    nets = {"target_actor": agent.actor, "target_critic": agent.critic}
    before = {name: getattr(agent, name).flat.copy() for name in nets}
    agent.update_actor(states)
    for name, online in nets.items():
        expected = before[name]
        expected *= 1.0 - rho
        expected += rho * online.flat
        assert getattr(agent, name).flat.tobytes() == expected.tobytes(), name


def fill_memory(agent, n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = rng.standard_normal(agent.state_dim)
        a = rng.uniform(0, 1, agent.action_dim)
        r = float(rng.standard_normal())
        s2 = rng.standard_normal(agent.state_dim)
        agent.remember(s, a, r, s2)


def test_train_step_discount_free_targets():
    agent = small_agent(discount=0.0)
    rng = np.random.default_rng(5)
    s = rng.standard_normal((4, 6))
    a = rng.uniform(0, 1, (4, 3))
    r = rng.standard_normal(4)
    s2 = rng.standard_normal((4, 6))
    q_before = agent.critic.forward(np.hstack([s, a]))[:, 0]
    loss, _ = agent.train_step(batch=(s, a, r, s2))
    assert loss == pytest.approx(float(np.mean((r - q_before) ** 2)), rel=1e-12)


def test_duplicate_batch_same_update():
    one = small_agent(seed=3)
    two = small_agent(seed=3)
    rng = np.random.default_rng(6)
    s = rng.standard_normal((4, 6))
    a = rng.uniform(0, 1, (4, 3))
    r = rng.standard_normal(4)
    s2 = rng.standard_normal((4, 6))
    one.train_step(batch=(s, a, r, s2))
    dup = (
        np.vstack([s, s]),
        np.vstack([a, a]),
        np.concatenate([r, r]),
        np.vstack([s2, s2]),
    )
    two.train_step(batch=dup)
    for p1, p2 in zip(one.actor.blocks(one.actor.flat), two.actor.blocks(two.actor.flat)):
        npt.assert_allclose(p1, p2, rtol=1e-12)
    for p1, p2 in zip(one.critic.blocks(one.critic.flat), two.critic.blocks(two.critic.flat)):
        npt.assert_allclose(p1, p2, rtol=1e-12)


def test_actor_step_increases_mean_q_under_frozen_critic():
    agent = small_agent(actor_lr=1e-6, seed=9)
    agent.adam_critic.lr = 0.0  # frozen: an agent is built with learning rates > 0
    rng = np.random.default_rng(7)
    s = rng.standard_normal((8, 6))
    a = rng.uniform(0, 1, (8, 3))
    r = rng.standard_normal(8)
    s2 = rng.standard_normal((8, 6))

    def mean_q():
        acts = agent.actor.forward(s)
        return float(np.mean(agent.critic.forward(np.hstack([s, acts]))))

    before = mean_q()
    agent.train_step(batch=(s, a, r, s2))
    assert mean_q() > before


def test_training_deterministic_for_fixed_seed():
    runs = []
    for _ in range(2):
        agent = small_agent(seed=11)
        fill_memory(agent, 16, seed=1)
        for _ in range(5):
            agent.train_step()
        runs.append([p.copy() for p in agent.actor.blocks(agent.actor.flat)])
    for p1, p2 in zip(*runs):
        npt.assert_array_equal(p1, p2)


def test_checkpoint_bit_exact_continuation(tmp_path):
    a = small_agent(seed=21)
    fill_memory(a, 20, seed=2)
    for _ in range(3):
        a.train_step()
        a.act(np.zeros(6), explore=True)
    b = round_trip(a, tmp_path)

    # identical continuation: same samples, same updates, same noise draws
    for _ in range(3):
        la, _ = a.train_step()
        lb, _ = b.train_step()
        assert la == lb
    act_a = a.act(np.ones(6), explore=True)
    act_b = b.act(np.ones(6), explore=True)
    npt.assert_array_equal(act_a, act_b)
    for p1, p2 in zip(a.actor.blocks(a.actor.flat), b.actor.blocks(b.actor.flat)):
        npt.assert_array_equal(p1, p2)


@pytest.mark.parametrize("mode, old, new", [("wb", b"old\n", b"new\n"), ("w", "old\n", "new\n")])
def test_replacing_swaps_the_whole_file_or_keeps_the_old_one(tmp_path, mode, old, new):
    path = tmp_path / "out.bin"
    with replacing(path, mode) as fh:
        fh.write(old)
    assert path.read_bytes() == b"old\n"
    with pytest.raises(OSError, match="disk full"):
        with replacing(path, mode) as fh:
            fh.write(new)
            fh.flush()
            raise OSError("disk full")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.bin"]
    with replacing(path, mode) as fh:
        fh.write(new)
        # Until the block ends, ``path`` still holds the old file.
        assert path.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["out.bin", f"out.bin.{os.getpid()}.tmp"]
    assert path.read_bytes() == b"new\n"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failed_save_keeps_previous_checkpoint(tmp_path, break_savez):
    agent = small_agent(seed=21)
    fill_memory(agent, 20, seed=2)
    path = tmp_path / "agent.npz"
    save_agent(path, agent)
    before = [p.copy() for p in agent.actor.blocks(agent.actor.flat)]
    agent.train_step()
    break_savez()
    with pytest.raises(OSError, match="disk full"):
        save_agent(path, agent)
    assert os.listdir(tmp_path) == ["agent.npz"]
    back = load_agent(path)
    for p1, p2 in zip(before, back.actor.blocks(back.actor.flat)):
        npt.assert_array_equal(p1, p2)


# A memory of this many items holds two mini-batches of ``small_agent``'s 4.
CAPACITY = 8


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    pushes=st.integers(0, 3 * CAPACITY + 3),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@example(pushes=0, steps=0, seed=0)  # empty
@example(pushes=CAPACITY // 2 + 1, steps=1, seed=1)  # partial
@example(pushes=CAPACITY, steps=2, seed=2)  # exactly full, cursor back at 0
@example(pushes=2 * CAPACITY + 3, steps=3, seed=3)  # wrapped, cursor at 3
def test_run_layout_round_trip_is_bit_exact(tmp_path_factory, pushes, steps, seed):
    agent = small_agent(memory_capacity=CAPACITY, seed=seed)
    fill_memory(agent, pushes, seed=seed)
    for _ in range(steps if agent.ready() else 0):
        agent.train_step()
        agent.act(np.zeros(6), explore=True)
    back = round_trip(agent, tmp_path_factory.mktemp("agent"))
    saved, restored = agent.state_dict(), back.state_dict()
    assert list(restored) == list(saved)
    assert str(restored["meta"]) == str(saved["meta"])
    for key, value in saved.items():
        assert restored[key].dtype == value.dtype
        assert restored[key].tobytes() == value.tobytes()
    # Both go on alike: push to a mini-batch where needed, then one train step.
    for a in (agent, back):
        fill_memory(a, max(a.hyperparameters["batch_size"] - len(a.memory), 0), seed=seed + 1)
    assert back.train_step() == agent.train_step()
    for key, flat in agent.flats.items():
        assert back.flats[key].tobytes() == flat.tobytes()


# -- flat parameters against the per-block oracle ---------------------------------
#
# The per-block implementation that the flat buffers replaced: one array per
# weight and bias, one Adam moment per block, full backward passes whose
# unused terms were thrown away.  Training on the flat buffers must match it
# bit for bit.


class OracleMlp:
    def __init__(self, weights, biases, output_activation="identity"):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.output_activation = output_activation

    @classmethod
    def create(cls, layer_sizes, output_activation="identity", rng=None):
        rng = np.random.default_rng(rng)
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, fan_out))
        return cls(weights, biases, output_activation)

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        return OracleMlp(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.output_activation,
        )

    def _forward_impl(self, x, keep_cache):
        squeeze = x.ndim == 1
        a = np.atleast_2d(np.asarray(x, dtype=float))
        cache = [a] if keep_cache else None
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            if i < last:
                a = np.maximum(z, 0.0)
            elif self.output_activation == "sigmoid":
                a = np.empty_like(z)
                pos = z >= 0
                a[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
                ex = np.exp(z[~pos])
                a[~pos] = ex / (1.0 + ex)
            else:
                a = z
            if keep_cache:
                cache.append(a)
        return (a, cache, squeeze)

    def forward(self, x):
        y, _, squeeze = self._forward_impl(x, keep_cache=False)
        return y[0] if squeeze else y

    def forward_cached(self, x):
        y, cache, squeeze = self._forward_impl(x, keep_cache=True)
        return (y[0] if squeeze else y), (cache, squeeze)

    def backward(self, ctx, upstream):
        cache, squeeze = ctx
        delta = np.atleast_2d(np.asarray(upstream, dtype=float))
        y = cache[-1]
        if self.output_activation == "sigmoid":
            delta = delta * y * (1.0 - y)
        grads = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = cache[i]
            grads[2 * i] = delta.T @ a_prev
            grads[2 * i + 1] = delta.sum(axis=0)
            delta = delta @ self.weights[i]
            if i > 0:
                delta = delta * (cache[i] > 0)
        return grads, (delta[0] if squeeze else delta)


class OracleAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class OracleAgent:
    """The per-block DDPG update."""

    def __init__(self, state_dim, action_dim, hidden_sizes, actor_lr, critic_lr,
                 memory_capacity, batch_size, seed, discount, soft_update_rate):
        self.state_dim = state_dim
        self.discount = discount
        self.soft_update_rate = soft_update_rate
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)
        sizes = [state_dim, *hidden_sizes]
        self.actor = OracleMlp.create([*sizes, action_dim], "sigmoid", self.rng)
        self.critic = OracleMlp.create(
            [state_dim + action_dim, *hidden_sizes, 1], "identity", self.rng
        )
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.adam_actor = OracleAdam(self.actor.parameters(), actor_lr)
        self.adam_critic = OracleAdam(self.critic.parameters(), critic_lr)
        self.memory = ReplayMemory(memory_capacity)

    def train_step(self):
        states, actions, rewards, next_states = self.memory.sample(
            self.batch_size, self.rng
        )
        b = states.shape[0]
        next_actions = self.target_actor.forward(next_states)
        next_q = self.target_critic.forward(np.hstack([next_states, next_actions]))[:, 0]
        targets = rewards + self.discount * next_q
        q, ctx = self.critic.forward_cached(np.hstack([states, actions]))
        q = q[:, 0]
        err = targets - q
        critic_loss = float(np.mean(err**2))
        mean_q = float(np.mean(q))
        critic_grads, _ = self.critic.backward(ctx, (-2.0 / b) * err[:, None])
        self.adam_critic.step(self.critic.parameters(), critic_grads)
        policy_actions, actor_ctx = self.actor.forward_cached(states)
        _, critic_ctx = self.critic.forward_cached(np.hstack([states, policy_actions]))
        _, input_grad = self.critic.backward(critic_ctx, np.full((b, 1), -1.0 / b))
        actor_grads, _ = self.actor.backward(actor_ctx, input_grad[:, self.state_dim :])
        self.adam_actor.step(self.actor.parameters(), actor_grads)
        self.soft_update()
        return critic_loss, mean_q

    def soft_update(self):
        rho = self.soft_update_rate
        for target, online in (
            (self.target_actor, self.actor),
            (self.target_critic, self.critic),
        ):
            for t, o in zip(target.parameters(), online.parameters()):
                t *= 1.0 - rho
                t += rho * o


def concat(blocks):
    return np.concatenate([np.ravel(b) for b in blocks])


def assert_agents_bit_equal(agent, oracle):
    for name in ("actor", "critic", "target_actor", "target_critic"):
        flat = getattr(agent, name).flat
        assert flat.tobytes() == concat(getattr(oracle, name).parameters()).tobytes(), name
    for name in ("adam_actor", "adam_critic"):
        ours, theirs = getattr(agent, name), getattr(oracle, name)
        assert ours.step_count == theirs.step_count
        assert ours.m.tobytes() == concat(theirs.m).tobytes(), f"{name} m"
        assert ours.v.tobytes() == concat(theirs.v).tobytes(), f"{name} v"
    assert agent.rng.bit_generator.state == oracle.rng.bit_generator.state


@pytest.mark.parametrize(
    "dims",
    [
        # (state_dim, action_dim, hidden_sizes, batch_size): the SMALL harness
        # shape (3 cells, 2 users, 4 antennas) and ref7 (7 cells, 4 users, 4x8 URA).
        pytest.param((134, 10, (16, 12), 8), id="small"),
        pytest.param((436, 34, (256, 128, 64), 64), id="ref7"),
    ],
)
def test_flat_training_matches_per_block_oracle(dims):
    state_dim, action_dim, hidden, batch = dims
    kw = dict(
        state_dim=state_dim,
        action_dim=action_dim,
        hidden_sizes=hidden,
        actor_lr=1e-4,
        critic_lr=1e-3,
        discount=0.5,
        soft_update_rate=0.01,
        memory_capacity=4 * batch,
        batch_size=batch,
        seed=[5, 2],
    )
    agent, oracle = DdpgAgent(**kw, **NOISE), OracleAgent(**kw)
    assert_agents_bit_equal(agent, oracle)
    rng = np.random.default_rng(8)
    for _ in range(2 * batch):
        item = (
            rng.standard_normal(state_dim),
            rng.uniform(0, 1, action_dim),
            float(rng.standard_normal()),
            rng.standard_normal(state_dim),
        )
        agent.remember(*item)
        oracle.memory.push(*item)
    for _ in range(12):
        assert agent.train_step() == oracle.train_step()
        assert_agents_bit_equal(agent, oracle)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=2, max_size=5),
    batch=st.integers(1, 6),
    activation=st.sampled_from(["identity", "sigmoid"]),
    seed=st.integers(0, 2**16),
)
def test_backward_skipping_terms_keeps_the_rest(sizes, batch, activation, seed):
    rng = np.random.default_rng(seed)
    net = Mlp.create(sizes, activation, rng)
    oracle = OracleMlp(
        [w.copy() for w in net.weights], [b.copy() for b in net.biases], activation
    )
    x = rng.standard_normal((batch, sizes[0]))
    up = rng.standard_normal((batch, sizes[-1]))
    _, ctx = net.forward_cached(x)
    _, oracle_ctx = oracle.forward_cached(x)
    oracle_grads, oracle_input = oracle.backward(oracle_ctx, up)
    full, full_input = net.backward(ctx, up)
    grad_only, no_input = net.backward(ctx, up, input_grad=False)
    no_grad, input_only = net.backward(ctx, up, param_grads=False)
    assert no_input is None and no_grad is None
    assert full.tobytes() == grad_only.tobytes() == concat(oracle_grads).tobytes()
    assert full_input.tobytes() == input_only.tobytes() == oracle_input.tobytes()


# -- checkpoint layout ------------------------------------------------------------


def test_state_dict_holds_one_flat_array_per_net_and_moment():
    agent = small_agent(seed=21)
    fill_memory(agent, 6, seed=2)
    arrays = agent.state_dict()
    nets = {"actor", "critic", "target_actor", "target_critic"}
    moments = {f"adam_{n}_{m}" for n in ("actor", "critic") for m in ("m", "v")}
    replay = {f"replay_{k}" for k in ("states", "actions", "rewards", "next_states")}
    assert set(arrays) == nets | moments | replay | {"meta"}
    for tag in nets:
        assert arrays[tag].ndim == 1
    assert arrays["critic"].size == agent.critic.flat.size == arrays["adam_critic_v"].size


def written_meta():
    """A fresh agent's ``meta`` as ``state_dict`` writes it, parsed."""
    return json.loads(str(small_agent().state_dict()["meta"]))


def test_unknown_checkpoint_version_rejected():
    meta = {**written_meta(), "version": CHECKPOINT_VERSION + 1}
    with pytest.raises(
        ValueError, match=f"unsupported checkpoint version {CHECKPOINT_VERSION + 1}"
    ):
        read_meta(json.dumps(meta), AGENT_META)


@pytest.mark.parametrize("version", [1, 2])
def test_earlier_checkpoint_versions_rejected(version):
    meta = {**written_meta(), "version": version}
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}$"):
        read_meta(json.dumps(meta), AGENT_META)


def test_agent_meta_lacking_a_key_rejected_naming_it():
    written = written_meta()
    assert list(written) == ["version", *AGENT_META]
    for key in AGENT_META:
        meta = {k: v for k, v in written.items() if k != key}
        with pytest.raises(ValueError, match=f"^meta lacks '{key}'$"):
            read_meta(json.dumps(meta), AGENT_META)


@pytest.mark.parametrize("value", [6.0, True, "6", None, -1])
def test_agent_meta_with_an_integer_key_of_another_type_rejected_naming_it(value):
    written = written_meta()
    for key in [key for key, kind in AGENT_META.items() if kind is int]:
        with pytest.raises(ValueError, match=f"^{key} {value!r} is not an int >= 0$"):
            read_meta(json.dumps({**written, key: value}), AGENT_META)
    for widths in ([8, value], value):
        with pytest.raises(ValueError, match="^hidden_sizes .* is not a list of ints >= 0$"):
            read_meta(json.dumps({**written, "hidden_sizes": widths}), AGENT_META)


# Values that a meta's number and JSON object keys refuse.
OTHER_TYPES = {
    float: ("a finite number", ["fast", None, True, float("nan"), float("inf"), [0.5]]),
    dict: ("a JSON object", [5, None, "x", [1, 2], True]),
}


@pytest.mark.parametrize(
    "key", [key for key, kind in AGENT_META.items() if kind in OTHER_TYPES]
)
def test_agent_meta_with_a_number_or_object_of_another_type_rejected_naming_it(key):
    written = written_meta()
    description, values = OTHER_TYPES[AGENT_META[key]]
    for value in values:
        message = re.escape(f"{key} {value!r} is not {description}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_meta(json.dumps({**written, key: value}), AGENT_META)


@pytest.mark.parametrize("entry", ["[1, 2]", "null", "5", '"meta"'])
def test_meta_that_is_not_a_json_object_rejected(entry):
    with pytest.raises(ValueError, match="^meta is not a JSON object$"):
        read_meta(entry, AGENT_META)


# -- reading checkpoint entries in place -------------------------------------------


def _saved(tmp_path, **arrays):
    path = tmp_path / "entries.npz"
    np.savez(path, **arrays)
    return path


def test_read_entry_fills_the_array_it_is_given(tmp_path):
    stored = np.random.default_rng(3).standard_normal((2, 5))
    path = _saved(tmp_path, a=stored[0], b=stored)
    stack = np.zeros((3, 5))
    with np.load(path) as data:
        row = stack[1]
        assert read_entry(data, "a", row) is row
        read_entry(data, "b", stack[1:])
    assert stack.tobytes() == np.vstack([np.zeros(5), stored]).tobytes()


@pytest.mark.parametrize(
    "name, out, error, message",
    [
        ("c", np.empty(4), KeyError, "c is not a file in the archive"),
        ("a", np.empty(4, np.float32), ValueError, "^a holds float64 values, not float32$"),
        ("a", np.empty(5), ValueError, r"^a has shape \(4,\), not \(5,\)$"),
        ("a", np.empty((2, 4))[:, 0], TypeError, "C-contiguous"),
    ],
    ids=["missing", "dtype", "shape", "strided"],
)
def test_read_entry_rejects_an_entry_that_does_not_fit(tmp_path, name, out, error, message):
    path = _saved(tmp_path, a=np.arange(4.0))
    with np.load(path) as data, pytest.raises(error, match=message):
        read_entry(data, name, out)


def test_read_entry_rejects_a_member_longer_than_its_array(tmp_path):
    path = tmp_path / "long.npz"
    with zipfile.ZipFile(path, "w") as archive, archive.open("a.npy", "w") as member:
        np.save(member, np.arange(4.0))
        member.write(bytes(8))
    with np.load(path) as data:
        assert data["a"].tobytes() == np.arange(4.0).tobytes()  # np.load ignores the rest
        with pytest.raises(zipfile.BadZipFile, match="'a.npy' holds 168 bytes"):
            read_entry(data, "a", np.empty(4))


def _flip_byte(at):
    def edit(npy):
        return npy[:at] + bytes([npy[at] ^ 0xFF]) + npy[at + 1 :]

    return edit


def _set_byte(at, value):
    def edit(npy):
        return npy[:at] + bytes([value]) + npy[at + 1 :]

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_flip_byte(0), "^the magic string is not correct"),
        (_flip_byte(6), r"^'a.npy' has .npy format version \(254, 0\), not 1.0$"),
        (_set_byte(6, 2), r"^'a.npy' has .npy format version \(2, 0\), not 1.0$"),
        (_flip_byte(20), "^Cannot parse header"),
    ],
    ids=["magic", "version", "version-2", "header"],
)
def test_read_entry_reports_a_header_that_does_not_parse_as_damage(tmp_path, edit, message):
    npy = io.BytesIO()
    np.save(npy, np.arange(4.0))
    path = tmp_path / "damaged.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("a.npy", edit(npy.getvalue()))
    with np.load(path) as data, pytest.raises(zipfile.BadZipFile, match=message):
        read_entry(data, "a", np.empty(4))


# -- the agent's two records ------------------------------------------------------


# Settings of the agents below, in another order than ``HYPERPARAMETERS``.
SETTINGS = dict(
    batch_size=4,
    memory_capacity=64,
    hidden_sizes=(8, 6),
    actor_lr=1e-3,
    critic_lr=2e-3,
    discount=0.5,
    soft_update_rate=0.01,
    **NOISE,
)


@pytest.mark.parametrize(
    "values, extra, message",
    [
        (
            {k: v for k, v in SETTINGS.items() if k != "hidden_sizes"},
            {},
            r"missing or unknown hyperparameters: \['hidden_sizes'\]",
        ),
        (
            {**SETTINGS, "discout": 0.5},
            {},
            r"missing or unknown hyperparameters: \['discout'\]",
        ),
        (SETTINGS, {"discount": 0.5}, "multiple values for keyword argument 'discount'"),
    ],
    ids=["missing", "unknown", "repeated"],
)
def test_agent_rejects_a_missing_unknown_or_repeated_name(values, extra, message):
    with pytest.raises(TypeError, match=message):
        DdpgAgent(6, 3, seed=0, **values, **extra)


def test_agent_keeps_its_hyperparameters_in_one_ordered_record():
    agent = DdpgAgent(6, 3, seed=0, **SETTINGS)
    assert list(agent.hyperparameters) == list(HYPERPARAMETERS)
    assert agent.hyperparameters == SETTINGS
    assert list(agent.flats) == [
        "actor",
        "critic",
        "target_actor",
        "target_critic",
        "adam_actor_m",
        "adam_actor_v",
        "adam_critic_m",
        "adam_critic_v",
    ]
    assert agent.flats["critic"] is agent.critic.flat
    assert agent.flats["adam_actor_v"] is agent.adam_actor.v


def test_fresh_and_restored_agents_keep_their_flats_in_one_block(tmp_path):
    agent = DdpgAgent(6, 3, seed=0, **SETTINGS)
    fill_memory(agent, 6, seed=2)
    restored = round_trip(agent, tmp_path)
    for a in (agent, restored):
        flats = list(a.flats.values())
        block = flats[0].base
        assert block.size == sum(flat.size for flat in flats)
        offset = 0
        for flat in flats:
            assert flat.base is block
            assert flat.ctypes.data == block.ctypes.data + offset
            offset += flat.nbytes
    for key, flat in agent.flats.items():
        assert restored.flats[key].tobytes() == flat.tobytes()


def test_restored_agent_keeps_its_hyperparameters_with_the_running_sigma(tmp_path):
    agent = DdpgAgent(6, 3, seed=0, **SETTINGS)
    fill_memory(agent, 6, seed=2)
    for _ in range(3):
        agent.act(np.zeros(6), explore=True)
    assert agent.noise_sigma < SETTINGS["noise_sigma_init"]
    back = round_trip(agent, tmp_path)
    assert back.hyperparameters == {**SETTINGS, "noise_sigma_init": agent.noise_sigma}
    assert list(back.hyperparameters) == list(HYPERPARAMETERS)
    assert back.noise_sigma == agent.noise_sigma
    assert list(back.flats) == list(agent.flats)


def test_checkpoint_does_not_depend_on_the_keyword_order():
    forward = DdpgAgent(6, 3, seed=5, **SETTINGS)
    backward = DdpgAgent(6, 3, seed=5, **dict(reversed(SETTINGS.items())))
    one, two = forward.state_dict(), backward.state_dict()
    assert list(one) == list(two)
    assert str(one["meta"]) == str(two["meta"])
    for key in one:
        assert one[key].tobytes() == two[key].tobytes()
