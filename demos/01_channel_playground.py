"""Tour of the channel simulator: topology, fading, correlation, trace files.

Run:  python demos/01_channel_playground.py
"""

import tempfile

import numpy as np

import cbflab as cb

# A 7-cell hexagonal layout with 4 users per cell, like a classic macro
# deployment: 250 m cells, 2.6 GHz carrier, pedestrian users.
net = cb.NetworkConfig(num_cells=7, users_per_cell=4, array_rows=2, array_cols=4)
topo = cb.init_topology(net, rng_seed=0)
print("BS ring distances from center:",
      np.round(np.linalg.norm(topo.bs_positions[1:] - topo.bs_positions[0], axis=1), 1))

# The slot-to-slot fading correlation implied by the mobility parameters.
rho = cb.jakes_temporal_corr(net)
print(f"Jakes correlation for 3 km/h @ 2.6 GHz, 20 ms slots: {rho:.4f}")

# Generate a short correlated trace and look at the empirical correlation.
model = cb.ChannelModelConfig(model_kind="gauss-markov", temporal_corr=rho, rng_seed=1)
small = cb.NetworkConfig(num_cells=1, users_per_cell=1, array_rows=1, array_cols=2,
                         ue_speed=0.0)
trace = cb.generate_trace(small, model, 4000)
coeff = trace.h[:, 0, 0, 0, 0]
emp = np.real(np.sum(coeff[:-1].conj() * coeff[1:])) / np.sum(np.abs(coeff[:-1]) ** 2)
print(f"empirical lag-1 correlation over 4000 slots: {emp:.4f}")

# Traces round-trip bit-exactly through the binary format.
with tempfile.NamedTemporaryFile(suffix=".trace") as fh:
    cb.save_trace(trace, fh.name)
    back = cb.load_trace(fh.name)
    print("trace round-trip bit-exact:", bool(np.array_equal(back.h, trace.h)))

# The clustered-ray model concentrates energy around the BS->UE direction,
# which a DFT codebook picks up in a handful of entries.
geo = cb.ChannelModelConfig(model_kind="geometric-ura", rng_seed=2)
proc = cb.ChannelProcess(net, geo)
ch = proc.next_slot()
codebook = cb.build_codebook(net.num_antennas, 32)  # (M, 32) matrix
h = ch.h[0, 0, 0]
d = np.abs(codebook.conj().T @ h)
top = np.sort(d)[::-1]
print(f"energy captured by top-3 of 32 codebook entries: "
      f"{np.sum(top[:3]**2) / np.sum(top**2):.2%}")
