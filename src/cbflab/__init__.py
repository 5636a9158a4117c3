"""cbflab: a multi-cell massive-MIMO coordinated-beamforming laboratory.

Classical sum-rate solvers (weighted MMSE, max-SLNR, MRT), the leakage-
regularized structured beamformer they share, correlated fading simulation,
and decentralized DDPG agents that learn the structure's parameters from
local CSI plus one-slot-delayed inter-cell measurements.
"""

import os as _os

# The workload is dominated by small-matrix algebra where BLAS thread pools
# only add overhead and make reduction order runner-dependent.  Applied only
# if numpy is not loaded yet; explicit user settings win.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .channel import (
    ChannelModelConfig,
    ChannelProcess,
    ChannelTrace,
    Topology,
    TraceStream,
    generate_trace,
    init_topology,
    jakes_temporal_corr,
    load_trace,
    path_loss_db,
    save_trace,
    ura_steering,
)
from .drl import Adam, DdpgAgent, Mlp, ReplayMemory
from .env import (
    BeamformingEnv,
    RewardRecord,
    build_codebook,
    build_state,
    compress_csi,
    compute_reward,
    decode_action,
    decode_beams,
    orthogonal_measure,
    select_interfered,
    select_interferers,
    state_layout,
)
from .harness import (
    ConfigError,
    MetricSink,
    RunConfig,
    parse_config,
    run_benchmark,
    run_timing,
    run_train,
)
from .network import (
    BeamformerSet,
    ChannelState,
    NetworkConfig,
    PowerConstraintError,
    SlotMetrics,
    compute_metrics,
    dbm_to_watt,
    sum_rate,
    watt_to_dbm,
)
from .solvers import (
    StructuredParams,
    WmmseState,
    mrt_beamformer,
    mslnr_beams,
    mslnr_params,
    structured_beamformer,
    structured_directions,
    wmmse,
    wmmse_multi_init,
)

__version__ = "0.1.0"
