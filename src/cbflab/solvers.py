"""Classical coordinated-beamforming solvers and the structured beamformer.

The central object is the leakage-regularized beamformer direction

    w_bar[n, k]  proportional to  (sum_{m,j} alpha[m, j] * h[n,m,j] h[n,m,j]^H
                                   + mu_n * I)^{-1} h[n, n, k],

which every BS can evaluate from local CSI alone once the leakage weights
``alpha`` (one per user in the network), the noise-control scalar ``mu`` and
a power split are known.  The iterative weighted-MMSE solver produces exactly
this shape at every step with alpha[m, j] = v[m, j] * |u[m, j]|^2, and the
classic max-SLNR and MRT beamformers are the special cases alpha == 1 with
mu equal to the noise power, and alpha == 0, respectively.  Every solve here
treats its BSs as one stack: one batched product forms their leakage
matrices, and their shifted systems are solved together; max-SLNR stacks
every (slot, BS) pair of a stack of slots the same way.  WMMSE finds each
BS's power multiplier by Newton's method on its secular equation, and it
solves in an orthonormal basis of each BS's channel span (D = min(M, N*K)
coordinates, from one QR per slot): the leakage matrix and the targets lie
in that span, and mu is the same in any such basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BeamformerSet, compute_metrics, sum_rate

# Rank cutoff, relative to the largest eigenvalue, below which a leakage
# matrix eigenmode counts as null space in the pseudo-inverse branch.
_RANK_RCOND = 1e-12

# Multiplier search: relative power tolerance and Newton step cap.
_POWER_TOL = 1e-8
_NEWTON_ITER = 100


@dataclass(frozen=True)
class StructuredParams:
    """Parameters that pin down the beamformers of a stack of S BSs.

    Entry s of every attribute belongs to stack entry s, which
    ``structured_beamformer`` pairs with the channels of BS s.

    Attributes:
        alpha: (S, N, K) nonnegative leakage weights, one per user anywhere
            in the network.
        mu: (S,) positive noise-control regularizers.
        q: (S, K) per-user power ratios in (0, 1], each row summing to 1.
        q_total: (S,) fractions of the power budget actually spent, in (0, 1].

    A violated check raises ``ValueError`` naming the first offending BS.
    Each check asks that a value lie inside its range, so a NaN fails it.
    """

    alpha: np.ndarray
    mu: np.ndarray
    q: np.ndarray
    q_total: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "mu", "q", "q_total"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        alpha, mu, q, q_total = self.alpha, self.mu, self.q, self.q_total
        stack = (len(alpha),) if alpha.ndim == 3 else None
        if not (mu.shape == q_total.shape == q.shape[:1] == stack and q.ndim == 2):
            raise ValueError("need alpha (S, N, K), mu (S,), q (S, K) and q_total (S,)")
        sums = q.sum(axis=1)
        checks = (
            (~np.all(alpha >= 0, axis=(1, 2)), "leakage weights must be nonnegative"),
            (~(mu > 0), "mu must be positive"),
            (~np.all((q > 0) & (q <= 1), axis=1), "power ratios must lie in (0, 1]"),
            (~(np.abs(sums - 1.0) <= 1e-9), "power ratios sum to {sum!r}, expected 1"),
            (~((0 < q_total) & (q_total <= 1)), "q_total must lie in (0, 1]"),
        )
        for bad, message in checks:
            if bad.any():
                s = int(np.argmax(bad))
                raise ValueError(f"BS {s}: " + message.format(sum=float(sums[s])))


@dataclass(frozen=True)
class WmmseState:
    """Converged solver state.

    ``u``, ``v`` and ``mu`` are the values that produced the returned
    beamformers, so alpha = v * |u|^2 recovers every direction through the
    structured form on the full antenna space (``structured_directions``),
    although the solver works in a basis of each BS's channel span: mu does
    not depend on the basis.

    ``rate_history`` records the sum rate after every weight refresh, as
    ``sum_rate(compute_metrics(...))`` scores the beamformers of that
    refresh; its first entry is the rate of the start and its last the rate
    of the returned beamformers, bit for bit.  The block-coordinate updates
    provably never decrease it (up to the power tolerance of the multiplier
    search), and the stop rule watches its relative change.  ``search_steps``
    sums the Newton steps of the run's multiplier searches over BSs and updates.
    """

    u: np.ndarray
    v: np.ndarray
    mu: np.ndarray
    iterations: int
    search_steps: int
    rate_history: np.ndarray
    truncated: bool


def _leakage_matrices(flat_h, alpha):
    """Leakage matrices sum_x alpha[x] h_x h_x^H of a stack of BSs, one GEMM.

    ``flat_h`` is (S, X, M), BS s's channels to all X = N*K users, and
    ``alpha`` is (S, X), or (X,) for weights shared by every BS.  Returns
    (S, M, M).
    """
    weighted = flat_h.conj()
    weighted *= alpha[..., None]
    return flat_h.swapaxes(-1, -2) @ weighted


def _null_cutoff(lam):
    """Rank cutoff per matrix: eigenvalues at or below it count as null space."""
    return _RANK_RCOND * np.maximum(lam.max(axis=-1), 0.0)


def _eigen_projections(b0, targets):
    """Eigendecomposition of each leakage matrix and the targets in its basis.

    Stacked over leading axes: b0 (..., M, M) and targets (..., K, M) give
    ascending eigenvalues (..., M), eigenvectors (..., M, M) and
    projections Q^H c_k as (..., M, K).
    """
    lam, q = np.linalg.eigh(b0)
    proj = q.conj().swapaxes(-1, -2) @ targets.swapaxes(-1, -2)
    return lam, q, proj


def _eigen_solve(lam, q, proj, mu):
    """Eigenbasis solve x_k = Q diag(1 / (lam + mu)) Q^H c_k, stacked.

    Takes the output of ``_eigen_projections`` and mu (...,).  Where mu == 0
    this is the pseudo-inverse: modes at or below the rank cutoff are null
    space and drop out.  Returns (..., K, M).
    """
    mu = np.asarray(mu, dtype=float)[..., None]
    keep = (mu > 0) | (lam > _null_cutoff(lam)[..., None])
    if not np.all(keep.any(axis=-1)):
        raise ArithmeticError("leakage matrix is singular; use mu > 0 to regularize")
    scaled = np.divide(
        proj, (lam + mu)[..., None], out=np.zeros_like(proj), where=keep[..., None]
    )
    return (q @ scaled).swapaxes(-1, -2)


def solve_leakage_system(b0, targets, mu):
    """Solve (b0[s] + mu[s] I) x = c for every target row c of targets[s].

    Stacked: b0 (S, M, M) Hermitian positive semidefinite, targets (S, K, M)
    and mu (S,) give (S, K, M).  When every mu is positive the shifted
    matrices are positive definite, and one stacked LU solve serves them
    all.  Otherwise (mu == 0 is allowed where b0 is invertible) the stack
    takes the eigenvalue pseudo-inverse of its shifted matrices, which
    raises ArithmeticError for a matrix without range.
    """
    mu = np.asarray(mu, dtype=float)
    shifted = b0 + 0.0  # a copy, with the zeros' signs of b0 + mu I
    diagonal = np.arange(b0.shape[-1])
    shifted[:, diagonal, diagonal] += mu[:, None]
    if np.all(mu > 0):
        return np.linalg.solve(shifted, targets.swapaxes(-1, -2)).swapaxes(-1, -2)
    return _eigen_solve(*_eigen_projections(shifted, targets), 0.0)


def _power_multiplier(lam, proj, p_max, start):
    """Power multiplier per matrix from its eigenbasis, stacked over S rows.

    Finds mu >= 0 at which the power P(mu) = sum_i e_i / (lam_i + mu)^2, e_i
    the target energy in mode i, meets the budget: 0 when the unconstrained
    (pseudo-inverse) solution is already feasible, otherwise P(mu) <= p_max
    within ``_POWER_TOL * p_max``.  Takes (S, M) eigenvalues clipped at zero,
    (S, M, K) target projections (``_eigen_projections``) and (S,) starts.
    Newton's method on the concave, increasing g = P^(-1/2) - p_max^(-1/2)
    (More and Sorensen's secular equation) starts at max(start, low), where
    low = max_i(sqrt(e_i / p_max) - lam_i), the largest root of one mode's
    power alone, bounds the root from below.  From the left the steps rise onto
    the root, each by at least one ulp so rounding cannot stall them; a
    start right of it takes one step left, clamped at low.  A row leaves the
    stack on its own stop test, so it takes the steps it would take alone,
    and one still searching after ``_NEWTON_ITER`` steps raises
    ArithmeticError.  Returns the (S,) multipliers and the rows' Newton steps.
    """
    energy = (np.abs(proj) ** 2).sum(axis=-1)  # per-mode
    mu = np.zeros(lam.shape[0])
    total = energy.sum(axis=1)
    null = lam <= _null_cutoff(lam)[:, None]
    range_only = np.where(null, energy, 0.0).sum(axis=1) <= 1e-20 * total
    # Targets in the range space: the pseudo-inverse solution, without the
    # null modes, is the mu -> 0 limit, so mu = 0 applies when it is feasible.
    power0 = (energy / np.where(null, np.inf, lam) ** 2).sum(axis=1)
    rows = np.flatnonzero((total != 0.0) & ~(range_only & (power0 <= p_max)))
    energy = energy[rows]
    # Modes without target energy add nothing; an infinite eigenvalue keeps
    # them out of 0/0 at mu = 0.
    lam = np.where(energy > 0.0, lam[rows], np.inf)
    low = np.maximum((np.sqrt(energy / p_max) - lam).max(axis=1), 0.0)
    x = np.maximum(start[rows], low)

    steps = 0
    for _ in range(_NEWTON_ITER + 1):
        d = lam + x[:, None]
        share = energy / d**2
        power = share.sum(axis=1)
        gap = p_max - power
        done = (gap >= 0.0) & (gap <= _POWER_TOL * p_max)
        if done.any():
            mu[rows[done]] = x[done]
            left = ~done
            rows, lam, energy, low, x = rows[left], lam[left], energy[left], low[left], x[left]
            d, share, power, gap = d[left], share[left], power[left], gap[left]
        if not rows.size:
            return mu, steps
        # (sqrt(P / p_max) - 1) * P / sum_i(e_i / d_i^3), without cancellation.
        step = -gap / (np.sqrt(power * p_max) + p_max) * power / (share / d).sum(axis=1)
        x = np.maximum(x + step, np.where(gap < 0.0, np.nextafter(x, np.inf), low))
        steps += rows.size
    raise ArithmeticError("power multiplier search did not converge")


def structured_directions(local_h, own_cells, alpha, mu):
    """Unit-norm structured directions of a stack of S BSs.

    The S leakage matrices come from one batched product, and the S shifted
    systems are solved as one stack (``solve_leakage_system``).

    Args:
        local_h: (S, N, K, M) channels from each stacked BS to every user.
        own_cells: (S,) index of the cell each stacked BS serves.
        alpha: (S, N, K) nonnegative leakage weights.
        mu: (S,) noise-control regularizers (>= 0; 0 only where the leakage
            matrix is invertible).

    Returns:
        (S, K, M) array of unit-norm beamforming directions.
    """
    stack, cells, users, antennas = local_h.shape
    flat_h = local_h.reshape(stack, cells * users, antennas)
    b0 = _leakage_matrices(flat_h, np.reshape(alpha, (stack, cells * users)))
    targets = local_h[np.arange(stack), own_cells]
    solutions = np.ascontiguousarray(solve_leakage_system(b0, targets, mu))
    norms = np.linalg.norm(solutions, axis=-1, keepdims=True)
    collapsed = np.flatnonzero(np.any(norms == 0, axis=(1, 2)))
    if collapsed.size:
        raise ArithmeticError(f"BS {collapsed[0]}: structured direction collapsed to zero")
    return solutions / norms


def structured_beamformer(local_h, own_cells, params, p_max):
    """Beamformers (S, K, M) of a stack of BSs from local CSI and parameters.

    ``local_h`` and ``own_cells`` are as in ``structured_directions``; stack
    entry s takes entry s of the StructuredParams ``params``.  Powers follow
    p[s, k] = p_max * q_total[s] * q[s, k], so BS s spends exactly
    ``p_max * q_total[s]`` watts in total.
    """
    directions = structured_directions(local_h, own_cells, params.alpha, params.mu)
    powers = p_max * params.q_total[:, None] * params.q
    return np.sqrt(powers)[..., None] * directions


def mslnr_params(num_cells, users_per_cell, noise_power, slots=1):
    """Structured parameters of every BS's max-SLNR beamformer at full power.

    One row per BS, or per (slot, BS) pair of ``slots`` slots, slot-major.
    Every leakage weight is one, mu is the noise power and the power is split
    equally.  Including the served user's own term in the leakage matrix only
    rescales its solve (Sherman-Morrison), so the directions are the per-user
    max-SLNR ones.
    """
    rows = slots * num_cells
    return StructuredParams(
        alpha=np.ones((rows, num_cells, users_per_cell)),
        mu=np.full(rows, noise_power),
        q=np.full((rows, users_per_cell), 1.0 / users_per_cell),
        q_total=np.ones(rows),
    )


def mslnr_beams(channel, net_cfg):
    """Max-SLNR beamformers of every BS, each at full power split equally.

    ``channel.h`` may stack slots on leading axes, (..., N, N, K, M): every
    (slot, BS) pair is one entry of a single ``structured_beamformer``
    stack, so a window costs one batched solve, and the beams come back as
    (..., N, K, M), each slot's equal to its own call's bit for bit.
    """
    h = channel.h
    local_h = h.reshape(-1, *h.shape[-3:])  # (slots * N, N, K, M), slot-major
    slots = len(local_h) // net_cfg.num_cells
    cells = np.tile(np.arange(net_cfg.num_cells), slots)
    params = mslnr_params(
        net_cfg.num_cells, net_cfg.users_per_cell, net_cfg.noise_power, slots
    )
    w = structured_beamformer(local_h, cells, params, net_cfg.max_power)
    return BeamformerSet(w=w.reshape(*h.shape[:-3], *w.shape[-2:]))


def mrt_beamformer(h):
    """Maximum ratio transmission direction h / ||h||."""
    h = np.asarray(h)
    norm = np.linalg.norm(h)
    if norm == 0:
        raise ValueError("cannot form an MRT beamformer from a zero channel")
    return h / norm


def _full_power_init(num_cells, users, antennas, p_max, rng):
    """Random directions, each BS transmitting the full budget split equally."""
    g = rng.standard_normal((num_cells, users, antennas)) + 1j * rng.standard_normal(
        (num_cells, users, antennas)
    )
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    return np.sqrt(p_max / users) * g


def _wmmse_beamformers(flat_h, own_h, alpha, scale, p_max, start):
    """One WMMSE beamformer update for every BS at once.

    Each BS n solves the structured system at leakage weights ``alpha`` for
    targets ``own_h[n] * scale[n]``, with the multiplier that meets its power
    budget, searched from ``start[n]`` (``_power_multiplier``).  ``flat_h`` is
    (N, N*K, D) (BS n's channels to every user), ``own_h`` (N, K, D),
    ``alpha`` and ``scale`` (N, K), ``start`` (N,).  Returns the (N, K, D)
    beamformers, the (N,) multipliers and the search's Newton steps.

    The D coordinates may be the M antennas or those of any orthonormal
    basis U (M, D) whose span holds every channel of the BS (``wmmse``
    passes the rows of R^T from flat_h^T = U R).  Then U^H (B + mu I) U =
    C + mu I for the full- and reduced-space leakage matrices B and C, so
    the multipliers are the same and the beams lifted by U^T are the
    full-space ones, up to rounding.
    """
    b0 = _leakage_matrices(flat_h, alpha.reshape(-1))
    lam, q, proj = _eigen_projections(b0, own_h * scale[..., None])
    lam = np.clip(lam, 0.0, None)
    mu, steps = _power_multiplier(lam, proj, p_max, start)
    return _eigen_solve(lam, q, proj, mu), mu, steps


def wmmse(channel, net_cfg, stop_eps=1e-4, max_iter=500, w0=None):
    """Iterative weighted-MMSE solver for the sum-rate problem.

    Alternates closed-form updates of per-user receive scalars ``u``, MSE
    weights ``v`` and transmit beamformers (the structured solve, with its
    own per-BS multiplier found by Newton's method from the previous
    update's).  It starts from the (N, K, M)
    beamformers ``w0``, by default the max-SLNR ones at full power split
    equally (``mslnr_beams``), and stops once the sum rate changes by less
    than ``stop_eps`` relative to its current value.  Since no update lowers
    the sum rate, the result is never below its start.  Needs global CSI:
    this is the centralized genie-aided baseline.

    The beamformer update treats all N BSs as one stack, in an orthonormal
    basis of each BS's channel span: one reduced QR per slot,
    flat_h[n]^T = U[n] R[n], gives D = min(M, N*K) coordinates (the rows of
    R^T), in which every leakage matrix and target lies.  The (N, D, D)
    leakage matrices come from one batched product of the (N, N*K, D)
    coordinates, one stacked eigendecomposition serves the N multiplier
    searches (one stack, see ``_power_multiplier``) and the solve
    w[n] = Q diag(1 / (lam + mu[n])) Q^H c, with (N, K, D) targets c, and
    one product by U^T lifts the beams to the M antennas, so every updated
    beam lies in its BS's channel span.  mu is the same in any such basis,
    and the state and the beams are those of the full-space solve up to
    rounding: on the ref7 bench slots the iteration counts are equal and the
    final sum rates agree within 5e-14 relative, while ``search_steps``
    moves by a few percent (2179 -> 2108 Newton steps on one slot).  At ref7
    (N*K = 28 < M = 32) the span drops 4 dimensions that carry no channel
    energy from every eigendecomposition.

    The weight refresh scores the current beamformers with
    ``compute_metrics``, the program's one rate evaluation, which also
    checks each iterate against the power budget: u = h[n,n,k]^H w[n,k] over
    the total received power, v = 1 + SINR, and the recorded rate is exactly
    the sum rate of those beamformers.

    Returns:
        (BeamformerSet, WmmseState).  If the iteration cap is hit first, the
        state is flagged ``truncated`` rather than raising.
    """
    h = channel.h
    num_cells, _, users, antennas = h.shape
    p_max = net_cfg.max_power

    if w0 is None:
        w = mslnr_beams(channel, net_cfg).w
    else:
        w = np.array(w0, dtype=complex)
        if w.shape != (num_cells, users, antennas):
            raise ValueError(f"w0 has shape {w.shape}, expected {num_cells, users, antennas}")
    mu = np.zeros(num_cells)  # the first search starts at its lower bound
    u_gen = None
    v_gen = None
    rate_history = []
    iterations = 0
    search_steps = 0
    truncated = False

    idx = np.arange(num_cells)
    flat_h = h.reshape(num_cells, num_cells * users, antennas)
    own_h = h[idx, idx]
    # flat_h[n]^T = U[n] R[n]: the rows of R^T are BS n's channels in an
    # orthonormal basis of their span, D = min(M, N*K) coordinates.
    basis, coords = np.linalg.qr(flat_h.swapaxes(-1, -2))
    lift = basis.swapaxes(-1, -2)  # (N, D, M): coordinates to antennas
    sub_h = np.ascontiguousarray(coords.swapaxes(-1, -2))
    sub_own = sub_h.reshape(num_cells, num_cells, users, -1)[idx, idx]
    while True:
        # Weight refresh for the current beamformers, scored as every rate is.
        beams = BeamformerSet(w=w)
        metrics = compute_metrics(channel, beams, net_cfg)
        if not np.all(metrics.total_ipn > 0):
            raise ArithmeticError("receive denominator must stay positive")
        u = np.vecdot(own_h, w) / (metrics.total_ipn + metrics.received_power)
        v = 1.0 + metrics.sinr
        rate_history.append(sum_rate(metrics))
        if (
            len(rate_history) >= 2
            and abs(rate_history[-1] - rate_history[-2]) < stop_eps * abs(rate_history[-1])
        ):
            break
        if iterations >= max_iter:
            truncated = True
            break

        # Beamformer update: structured solve at alpha = v|u|^2, all BSs at
        # once, in the span coordinates, then lifted to the antennas.
        w, mu, steps = _wmmse_beamformers(sub_h, sub_own, v * np.abs(u) ** 2, u * v, p_max, mu)
        w = w @ lift
        u_gen, v_gen = u, v
        iterations += 1
        search_steps += steps

    if u_gen is None:  # stopped before any beamformer update
        u_gen, v_gen = u, v
    state = WmmseState(
        u=u_gen,
        v=v_gen,
        mu=mu.copy(),
        iterations=iterations,
        search_steps=search_steps,
        rate_history=np.asarray(rate_history),
        truncated=truncated,
    )
    return beams, state


def wmmse_multi_init(channel, net_cfg, stop_eps=1e-4, max_iter=500, num_inits=1, seed=0):
    """Best-of-R weighted-MMSE: keep the highest sum rate over R starts.

    The pool is the max-SLNR start of ``wmmse`` plus R - 1 random full-power
    starts, start ``i`` drawn with seed ``seed + i``.  So the single-start run
    is always part of the pool, and the result is never below it.

    Returns:
        (BeamformerSet, WmmseState) of the kept start, as ``wmmse``.
    """
    if num_inits < 1:
        raise ValueError("num_inits must be >= 1")
    num_cells, _, users, antennas = channel.h.shape
    best = None
    best_rate = -np.inf
    for i in range(num_inits):
        w0 = None
        if i:
            rng = np.random.default_rng(seed + i)
            w0 = _full_power_init(num_cells, users, antennas, net_cfg.max_power, rng)
        beams, state = wmmse(channel, net_cfg, stop_eps, max_iter, w0=w0)
        rate = state.rate_history[-1]
        if rate > best_rate:
            best_rate = rate
            best = beams, state
    return best
