"""Classical coordinated beamforming on one channel snapshot.

Compares MRT, max-SLNR with equal power, and the weighted-MMSE solver, then
shows that the converged WMMSE beams are reproduced exactly by the
leakage-regularized structure evaluated at the solver's own weights.

Run:  python demos/02_classical_beamformers.py
"""

import numpy as np

import cbflab as cb

net = cb.NetworkConfig(
    num_cells=3, users_per_cell=2, array_rows=2, array_cols=4,
    noise_power=cb.dbm_to_watt(-55.0),
)
model = cb.ChannelModelConfig(model_kind="gauss-markov", rng_seed=7)
channel = cb.ChannelProcess(net, model).next_slot()
k, m = net.users_per_cell, net.num_antennas

# MRT: every BS points straight at its own users, full power, equal split.
w = np.empty((net.num_cells, k, m), dtype=complex)
for n in range(net.num_cells):
    for j in range(k):
        w[n, j] = np.sqrt(net.max_power / k) * cb.mrt_beamformer(channel.h[n, n, j])
mrt_rate = cb.sum_rate(cb.compute_metrics(channel, cb.BeamformerSet(w=w), net))

# Max-SLNR with equal power: local CSI only.  It is the structure below with
# every leakage weight at one and mu at the noise power.
params_slnr = cb.mslnr_params(net.num_cells, k, net.noise_power)
for n in range(net.num_cells):
    w[n] = cb.structured_beamformer(channel.h[n], n, params_slnr, net.max_power)
slnr_rate = cb.sum_rate(cb.compute_metrics(channel, cb.BeamformerSet(w=w), net))

# Weighted MMSE: centralized, iterative, needs global CSI.  It starts from the
# max-SLNR beams above and stops once the sum rate changes by less than 1e-4
# relative, so it never ends below max-SLNR.
beams, state = cb.wmmse(channel, net)
wmmse_rate = cb.sum_rate(cb.compute_metrics(channel, beams, net))

print(f"MRT equal power:      {mrt_rate:7.2f} bits/s/Hz")
print(f"max-SLNR equal power: {slnr_rate:7.2f} bits/s/Hz")
print(f"weighted MMSE:        {wmmse_rate:7.2f} bits/s/Hz "
      f"({state.iterations} iterations)")

# Structure recovery: alpha = v |u|^2 and the converged mu reproduce every
# (non switched-off) WMMSE direction from local CSI alone.
alpha = state.v * np.abs(state.u) ** 2
worst = 1.0
for n in range(net.num_cells):
    directions = cb.structured_directions(channel.h[n], n, alpha, state.mu[n])
    for j in range(k):
        if beams.powers[n, j] > 1e-9 * net.max_power:
            overlap = abs(np.vdot(directions[j], beams.directions[n, j]))
            worst = min(worst, overlap)
print(f"worst |<structured, wmmse>| over active users: {worst:.12f}")

# The same structure reaches MRT as the alpha = 0 special case.
params_mrt = cb.StructuredParams(
    alpha=np.zeros((net.num_cells, k)), mu=1.0, q=np.full(k, 1.0 / k), q_total=1.0
)
w_mrt = cb.structured_beamformer(channel.h[0], 0, params_mrt, net.max_power)
align = abs(np.vdot(
    w_mrt[0] / np.linalg.norm(w_mrt[0]), cb.mrt_beamformer(channel.h[0, 0, 0])
))
print(f"alpha=0 special case aligns with MRT: {align:.12f}")
