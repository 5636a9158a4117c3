"""Minimal end-to-end learning run on a single-cell toy problem.

One BS, one user: the only thing to learn is to spend the whole power
budget (the structured direction is already optimal).  A few thousand slots
take under a minute and approach the closed-form capacity.  The agent
keeps its settings in one dict, ``agent.hyperparameters``, and its weights
and Adam moments in another, ``agent.flats``: the two records its checkpoint
stores.

Run:  python demos/04_learning_quickstart.py
"""

import numpy as np

import cbflab as cb

net = cb.NetworkConfig(
    num_cells=1, users_per_cell=1, array_rows=2, array_cols=2,
    noise_power=cb.dbm_to_watt(-60.0),
)
model = cb.ChannelModelConfig(rng_seed=4)
env = cb.BeamformingEnv(
    net, cb.ChannelProcess(net, model), codebook_size=16, csi_keep=3,
    num_interferers=0,
)
agent = cb.DdpgAgent(
    env.state_dim, env.action_dim, hidden_sizes=(64, 32),
    actor_lr=1e-4, critic_lr=1e-3, discount=0.5, soft_update_rate=0.01,
    noise_sigma_init=0.6, noise_decay=1e-3, noise_sigma_min=0.01,
    batch_size=128, memory_capacity=1000, seed=4,
)

states = env.reset()
window = []
for slot in range(3000):
    capacity = np.log2(
        1.0 + net.max_power * np.linalg.norm(env.channel.h[0, 0, 0]) ** 2
        / net.noise_power
    )
    if slot < agent.hyperparameters["batch_size"]:
        action = agent.random_action()
    else:
        action = agent.act(states[0], explore=True)
    next_states, rewards, metrics = env.step(action[None, :])
    agent.remember(states[0], action, rewards[0], next_states[0])
    states = next_states
    if agent.ready():
        agent.train_step()  # critic, actor, then the soft update of the targets
    window.append(cb.sum_rate(metrics) / capacity)
    if (slot + 1) % 500 == 0:
        print(f"slot {slot + 1:5d}: rate/capacity over last 200 slots "
              f"= {np.mean(window[-200:]):.3f} (sigma={agent.noise_sigma:.3f})")

greedy = agent.act(states[0], explore=False)
print("greedy action:", np.round(greedy, 3),
      "<- second entry is the total-power ratio, should approach 1")
