"""Classical coordinated beamforming on one channel snapshot.

Compares MRT, max-SLNR with equal power, and the weighted-MMSE solver, then
shows that the converged WMMSE beams are reproduced exactly by the
leakage-regularized structure evaluated at the solver's own weights.  Last,
max-SLNR solves a 10-slot window in one call.

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
# every leakage weight at one and mu at the noise power.  BS n solves from its
# own slice channel.h[n]; all BSs are solved as one stack.
cells = np.arange(net.num_cells)
params_slnr = cb.mslnr_params(net.num_cells, k, net.noise_power)
w = cb.structured_beamformer(channel.h, cells, params_slnr, net.max_power)
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
# Every BS uses the same weights alpha and its own mu.
alpha = np.broadcast_to(state.v * np.abs(state.u) ** 2, (net.num_cells, net.num_cells, k))
directions = cb.structured_directions(channel.h, cells, alpha, state.mu)
overlap = np.abs(np.einsum("nkm,nkm->nk", directions.conj(), beams.directions))
worst = overlap[beams.powers > 1e-9 * net.max_power].min(initial=1.0)
print(f"worst |<structured, wmmse>| over active users: {worst:.12f}")

# The same structure reaches MRT as the alpha = 0 special case, here for BS 0
# alone (a one-BS stack).
params_mrt = cb.StructuredParams(
    alpha=np.zeros((1, net.num_cells, k)), mu=[1.0], q=np.full((1, k), 1.0 / k), q_total=[1.0]
)
w_mrt = cb.structured_beamformer(channel.h[:1], [0], params_mrt, net.max_power)[0]
align = abs(np.vdot(
    w_mrt[0] / np.linalg.norm(w_mrt[0]), cb.mrt_beamformer(channel.h[0, 0, 0])
))
print(f"alpha=0 special case aligns with MRT: {align:.12f}")

# Max-SLNR over a 10-slot window in one call: the channels stack on a leading
# slot axis, one structured solve covers every (slot, BS) pair, and one
# compute_metrics call scores the stack.  Each slot's rates equal those of a
# call on that slot alone, bit for bit.
window = cb.generate_trace(net, model, 10)
stack = cb.ChannelState(slot_index=0, h=window.h)
rates = cb.compute_metrics(stack, cb.mslnr_beams(stack, net), net).rate  # (10, N, K)
loop = []
for t in range(window.num_slots):
    ch = window.slot(t)
    loop.append(cb.compute_metrics(ch, cb.mslnr_beams(ch, net), net).rate)
assert np.array_equal(rates, np.stack(loop))
print(f"max-SLNR over 10 slots in one call: mean sum rate "
      f"{rates.sum(axis=(1, 2)).mean():.2f} bits/s/Hz, equal to the per-slot loop")
