import os

import numpy as np
import numpy.testing as npt
import pytest

from cbflab.drl import Adam, DdpgAgent, Mlp, ReplayMemory


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
    net = Mlp([np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])
    npt.assert_array_equal(net.forward(np.ones(2)), np.zeros(2))


def test_forward_identity_layer():
    net = Mlp([np.eye(3)], [np.zeros(3)])
    x = np.array([0.3, -1.2, 4.0])
    npt.assert_array_equal(net.forward(x), x)


def test_forward_sigmoid_at_zero():
    net = Mlp([np.zeros((4, 3))], [np.zeros(4)], output_activation="sigmoid")
    npt.assert_allclose(net.forward(np.ones(3)), 0.5)


def test_forward_batch_and_vector_agree():
    rng = np.random.default_rng(0)
    net = Mlp.create([3, 5, 2], "sigmoid", rng)
    x = rng.standard_normal((4, 3))
    batched = net.forward(x)
    rowwise = np.stack([net.forward(row) for row in x])
    npt.assert_allclose(batched, rowwise, rtol=1e-15)


def test_forward_shape_mismatch():
    net = Mlp.create([3, 2], rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.ones(4))


# -- gradients ----------------------------------------------------------------


def test_linear_layer_gradient_is_outer_product():
    rng = np.random.default_rng(1)
    net = Mlp.create([3, 2], rng=rng)
    x = rng.standard_normal(3)
    up = rng.standard_normal(2)
    grads, gin = net.gradients(x, up)
    npt.assert_allclose(grads[0], np.outer(up, x), rtol=1e-12)
    npt.assert_allclose(grads[1], up, rtol=1e-12)
    npt.assert_allclose(gin, net.weights[0].T @ up, rtol=1e-12)


def test_zero_upstream_zero_gradients():
    net = Mlp.create([3, 4, 2], rng=np.random.default_rng(2))
    grads, gin = net.gradients(np.ones(3), np.zeros(2))
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

    grads, gin = net.gradients(x, up)
    for i, g in enumerate(grads):
        fd = finite_difference(loss, net.parameters()[i])
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

    _, gin = critic.gradients(sa, np.full((5, 1), 1.0 / 5.0))
    fd = finite_difference(mean_q, sa)
    assert rel_err(gin, fd) < 1e-4


# -- adam ----------------------------------------------------------------------


def test_adam_first_step_hand_computed():
    p = [np.array([0.0])]
    adam = Adam(p, lr=0.1)
    adam.step(p, [np.array([1.0])])
    # m_hat = 1, v_hat = 1 -> delta = -0.1 / (1 + 1e-8)
    expected = -0.1 / (1.0 + 1e-8)
    assert p[0][0] == pytest.approx(expected, rel=1e-12)


def test_adam_zero_gradient_no_move():
    p = [np.array([1.5])]
    adam = Adam(p, lr=0.1)
    adam.step(p, [np.array([0.0])])
    assert p[0][0] == 1.5


def test_adam_identical_params_identical_updates():
    p = [np.array([0.3]), np.array([0.3])]
    adam = Adam(p, lr=0.05)
    adam.step(p, [np.array([0.7]), np.array([0.7])])
    assert p[0][0] == p[1][0]


def test_adam_rejects_non_finite():
    p = [np.array([0.0])]
    adam = Adam(p, lr=0.1)
    with pytest.raises(ArithmeticError):
        adam.step(p, [np.array([np.nan])])


# -- replay ---------------------------------------------------------------------


def test_replay_fifo_eviction():
    mem = ReplayMemory(3)
    for i in range(4):
        mem.push([float(i)], [0.0], float(i), [0.0])
    assert len(mem) == 3
    s, _, r, _ = mem.sample(3, np.random.default_rng(0))
    assert sorted(r.tolist()) == [1.0, 2.0, 3.0]
    assert int(mem.oldest()[0][0]) == 1


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


def small_agent(**kw):
    defaults = dict(
        state_dim=6,
        action_dim=3,
        hidden_sizes=(8, 6),
        actor_lr=1e-3,
        critic_lr=1e-3,
        memory_capacity=64,
        batch_size=4,
        seed=0,
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
    agent = small_agent(noise_sigma=1e6)
    s = np.zeros(6)
    a = agent.act(s, explore=True)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)


def test_noise_schedule_single_step():
    agent = small_agent(noise_sigma=0.6, noise_decay=0.001)
    agent.act(np.zeros(6), explore=True)
    assert agent.noise_sigma == pytest.approx(0.6 / 1.001, rel=1e-12)


def test_noise_schedule_floor_and_monotone():
    agent = small_agent(noise_sigma=0.02, noise_decay=0.5, noise_sigma_min=0.01)
    sigmas = []
    for _ in range(10):
        agent.act(np.zeros(6), explore=True)
        sigmas.append(agent.noise_sigma)
    assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))
    assert sigmas[-1] == 0.01


def test_greedy_act_does_not_decay():
    agent = small_agent(noise_sigma=0.6)
    agent.act(np.zeros(6), explore=False)
    assert agent.noise_sigma == 0.6


def test_soft_update_extremes_and_midpoint():
    agent = small_agent()
    online = agent.actor.parameters()
    target = agent.target_actor.parameters()
    for t in target:
        t.fill(0.0)
    agent.soft_update(rate=0.0)
    for t in target:
        npt.assert_array_equal(t, 0.0)
    agent.soft_update(rate=1.0)
    for t, o in zip(target, online):
        npt.assert_array_equal(t, o)
    # scalar check: target 0, online 2, rate 0.5 -> 1
    online[0].fill(2.0)
    target[0].fill(0.0)
    agent.soft_update(rate=0.5)
    npt.assert_allclose(target[0], 1.0)


def test_target_lag_matches_exponential_average():
    agent = small_agent()
    rho = 0.25
    theta0 = 3.0
    agent.critic.parameters()[0].fill(0.0)
    agent.target_critic.parameters()[0].fill(theta0)
    history = []
    for t in range(6):
        val = float(t + 1)
        agent.critic.parameters()[0].fill(val)
        history.append(val)
        agent.soft_update(rate=rho)
    expected = theta0 * (1.0 - rho) ** len(history)
    for i, val in enumerate(history):
        expected += rho * (1.0 - rho) ** (len(history) - 1 - i) * val
    npt.assert_allclose(agent.target_critic.parameters()[0], expected, rtol=1e-12)


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
    for p1, p2 in zip(one.actor.parameters(), two.actor.parameters()):
        npt.assert_allclose(p1, p2, rtol=1e-12)
    for p1, p2 in zip(one.critic.parameters(), two.critic.parameters()):
        npt.assert_allclose(p1, p2, rtol=1e-12)


def test_actor_step_increases_mean_q_under_frozen_critic():
    agent = small_agent(actor_lr=1e-6, critic_lr=0.0, seed=9)
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
            agent.soft_update()
        runs.append([p.copy() for p in agent.actor.parameters()])
    for p1, p2 in zip(*runs):
        npt.assert_array_equal(p1, p2)


def test_checkpoint_bit_exact_continuation(tmp_path):
    a = small_agent(seed=21)
    fill_memory(a, 20, seed=2)
    for _ in range(3):
        a.train_step()
        a.soft_update()
        a.act(np.zeros(6), explore=True)
    path = tmp_path / "agent.npz"
    a.save(path)
    b = DdpgAgent.load(path)

    # identical continuation: same samples, same updates, same noise draws
    for _ in range(3):
        la, _ = a.train_step()
        lb, _ = b.train_step()
        assert la == lb
        a.soft_update()
        b.soft_update()
    act_a = a.act(np.ones(6), explore=True)
    act_b = b.act(np.ones(6), explore=True)
    npt.assert_array_equal(act_a, act_b)
    for p1, p2 in zip(a.actor.parameters(), b.actor.parameters()):
        npt.assert_array_equal(p1, p2)


def test_save_appends_npz_suffix(tmp_path):
    agent = small_agent()
    agent.save(tmp_path / "agent")
    assert os.listdir(tmp_path) == ["agent.npz"]


def test_failed_save_keeps_previous_checkpoint(tmp_path, break_savez):
    agent = small_agent(seed=21)
    fill_memory(agent, 20, seed=2)
    path = tmp_path / "agent.npz"
    agent.save(path)
    before = [p.copy() for p in agent.actor.parameters()]
    agent.train_step()
    break_savez()
    with pytest.raises(OSError, match="disk full"):
        agent.save(path)
    assert os.listdir(tmp_path) == ["agent.npz"]
    back = DdpgAgent.load(path)
    for p1, p2 in zip(before, back.actor.parameters()):
        npt.assert_array_equal(p1, p2)
