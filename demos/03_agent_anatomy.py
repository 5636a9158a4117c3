"""What one BS agent sees and does: states, actions, rewards.

Walks a three-cell environment a few slots with hand-picked actions and
unpacks the observation blocks, the action decoding and the distributed
reward bookkeeping.

Run:  python demos/03_agent_anatomy.py
"""

import numpy as np

import cbflab as cb

net = cb.NetworkConfig(
    num_cells=3, users_per_cell=2, array_rows=2, array_cols=4,
    noise_power=cb.dbm_to_watt(-55.0),
)
model = cb.ChannelModelConfig(model_kind="gauss-markov", rng_seed=3)
trace = cb.generate_trace(net, model, 10)
env = cb.BeamformingEnv(
    net, cb.TraceStream(trace), codebook_size=32, csi_keep=3, num_interferers=2
)

layout = cb.state_layout(net.num_cells, net.users_per_cell, 3, 2)
print("state layout:", layout)
print("action length:", env.action_dim,
      "= K ratios + total-power ratio + N*K leakage weights + noise knob")

states = env.reset()
print("cold start: cross-cell blocks are zero ->",
      bool(np.all(states[0, layout['local']:] == 0.0)))

# The max-SLNR action: equal ratios, full power, every leakage weight at 1.0
# and the noise knob at 0.5, which decodes to exactly the noise power.  The
# power-only ("mslnr-power") agents learn only its first K + 1 entries:
# decode_beams pins the rest at these values.
k = net.users_per_cell
action = np.full(env.action_dim, 0.5)
action[k] = 1.0
action[k + 1 : k + 1 + net.num_cells * k] = 1.0

# decode_action takes one row per BS; this is a stack of one.
params = cb.decode_action(action[None], net.num_cells, k, net.noise_power)
print(f"decoded: q={params.q[0]}, q_total={params.q_total[0]}, mu/noise="
      f"{params.mu[0] / net.noise_power}")
full = cb.decode_beams(action[None], trace.slot(0).h, net, "structured")
power_only = cb.decode_beams(action[None, : k + 1], trace.slot(0).h, net, "mslnr-power")
print("power-only row gives the same beams:", np.array_equal(full, power_only))

for slot in range(3):
    states, rewards, metrics = env.step(np.tile(action, (net.num_cells, 1)))
    rec = env.last_reward  # (N,) arrays, one entry per agent
    print(f"slot {slot}: sum rate {cb.sum_rate(metrics):6.2f}, "
          f"agent-0 reward {rec.reward[0]:6.2f} "
          f"(own {rec.own_sum_rate[0]:.2f} - caused-rate-loss {rec.penalty[0]:.2f})")

# After a step the delayed blocks are populated and finite.
print("delayed blocks populated:",
      bool(np.any(states[0, layout['local']:] != 0.0)),
      "| all finite:", bool(np.all(np.isfinite(states))))
