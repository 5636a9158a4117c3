"""Classical coordinated-beamforming solvers and the structured beamformer.

The central object is the leakage-regularized beamformer direction

    w_bar[n, k]  proportional to  (sum_{m,j} alpha[m, j] * h[n,m,j] h[n,m,j]^H
                                   + mu_n * I)^{-1} h[n, n, k],

which every BS can evaluate from local CSI alone once the leakage weights
``alpha`` (one per user in the network), the noise-control scalar ``mu`` and
a power split are known.  The iterative weighted-MMSE solver produces exactly
this shape at every step with alpha[m, j] = v[m, j] * |u[m, j]|^2, and the
classic max-SLNR and MRT beamformers are the special cases alpha == 1 with
mu equal to the noise power, and alpha == 0, respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .network import BeamformerSet, compute_metrics, sum_rate

# Rank cutoff, relative to the largest eigenvalue, below which a leakage
# matrix eigenmode counts as null space in the pseudo-inverse branch.
_RANK_RCOND = 1e-12

# Default bisection settings: relative power tolerance and step cap.
_POWER_TOL = 1e-8
_BISECT_ITER = 200


@dataclass(frozen=True)
class StructuredParams:
    """Parameters that pin down one BS's beamformers through the structure.

    Attributes:
        alpha: (N, K) nonnegative leakage weights, one per user anywhere in
            the network.
        mu: positive noise-control regularizer.
        q: (K,) per-user power ratios in (0, 1], summing to 1.
        q_total: fraction of the power budget actually spent, in (0, 1].
    """

    alpha: np.ndarray
    mu: float
    q: np.ndarray
    q_total: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "q", q)
        if np.any(alpha < 0):
            raise ValueError("leakage weights must be nonnegative")
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if np.any(q <= 0) or np.any(q > 1):
            raise ValueError("power ratios must lie in (0, 1]")
        if abs(q.sum() - 1.0) > 1e-9:
            raise ValueError(f"power ratios sum to {q.sum()!r}, expected 1")
        if not 0 < self.q_total <= 1:
            raise ValueError("q_total must lie in (0, 1]")


@dataclass(frozen=True)
class WmmseState:
    """Converged solver state.

    ``u``, ``v`` and ``mu`` are the values that produced the returned
    beamformers, so alpha = v * |u|^2 recovers every direction through the
    structured form.  ``final_v`` re-evaluates the per-user weights at the
    returned beamformers; its log2-sum equals the achieved sum rate.

    ``objective_history`` records sum(v) after every weight refresh (the
    quantity the stop rule watches).  ``rate_history`` records sum(log2 v),
    the weighted sum rate: this is the quantity the block-coordinate updates
    provably never decrease (up to the bisection tolerance), whereas sum(v)
    itself can dip while the rate still climbs.
    """

    beams: BeamformerSet
    u: np.ndarray
    v: np.ndarray
    final_v: np.ndarray
    mu: np.ndarray
    iterations: int
    objective_history: np.ndarray
    rate_history: np.ndarray
    truncated: bool


def _leakage_matrix(local_h, alpha):
    """sum_{m,j} alpha[m, j] * h[m, j] h[m, j]^H for one BS's local CSI."""
    flat_h = local_h.reshape(-1, local_h.shape[-1])
    flat_a = np.asarray(alpha, dtype=float).reshape(-1)
    return np.einsum("x,xi,xl->il", flat_a, flat_h, flat_h.conj())


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
    """Solve (b0 + mu*I) x_k = c_k for each target row.

    Uses a Cholesky factorization of the Hermitian positive definite shifted
    system, falling back to an eigenvalue pseudo-inverse when the matrix is
    singular (only possible at mu == 0).
    """
    m = b0.shape[0]
    shifted = b0 + mu * np.eye(m)
    targets = np.atleast_2d(targets)
    try:
        factor = scipy.linalg.cho_factor(shifted, check_finite=False)
        return scipy.linalg.cho_solve(factor, targets.T, check_finite=False).T
    except scipy.linalg.LinAlgError:
        return _eigen_solve(*_eigen_projections(shifted, targets), 0.0)


def _power(energy, lam, mu):
    """Transmit power sum_i energy_i / (lam_i + mu)^2 of each row."""
    return (energy / (lam + mu[:, None]) ** 2).sum(axis=1)


def _bisect_eigen(lam, proj, p_max, power_tol=_POWER_TOL, max_iter=_BISECT_ITER):
    """Power multiplier per matrix from its eigenbasis, stacked over S rows.

    Takes (S, M) eigenvalues clipped at zero and (S, M, K) target
    projections.  Every row runs the same bracket-and-bisect sequence it
    would run alone: the rows still searching advance in lock step, and a row
    leaves the stack once its own stop test passes.
    """
    energy = (np.abs(proj) ** 2).sum(axis=-1)  # per-mode
    mu = np.zeros(lam.shape[0])
    total = energy.sum(axis=1)
    null = lam <= _null_cutoff(lam)[:, None]
    range_only = np.where(null, energy, 0.0).sum(axis=1) <= 1e-20 * total
    # Targets in the range space: the pseudo-inverse solution is the mu -> 0
    # limit, so mu = 0 applies when it is feasible.
    with np.errstate(divide="ignore", invalid="ignore"):
        power0 = np.where(null, 0.0, energy / lam**2).sum(axis=1)
    rows = np.flatnonzero((total != 0.0) & ~(range_only & (power0 <= p_max)))
    lam, energy = lam[rows], energy[rows]

    hi = np.ones(rows.size)
    p_hi = _power(energy, lam, hi)
    for _ in range(199):
        opening = ~(p_hi <= p_max)
        if not opening.any():
            break
        hi[opening] *= 2.0
        p_hi = _power(energy, lam, hi)
    else:
        if not np.all(p_hi <= p_max):
            raise ArithmeticError("bisection bracket did not close")
    lo = np.where(hi == 1.0, 0.0, hi / 2.0)
    for _ in range(max_iter):
        done = p_max - p_hi <= power_tol * p_max
        if done.any():
            mu[rows[done]] = hi[done]
            left = ~done
            rows, lam, energy = rows[left], lam[left], energy[left]
            lo, hi, p_hi = lo[left], hi[left], p_hi[left]
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        p_mid = _power(energy, lam, mid)
        over = p_mid > p_max
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
        p_hi = np.where(over, p_hi, p_mid)
    mu[rows] = hi
    return mu


def bisect_mu(b0, targets, p_max, power_tol=_POWER_TOL, max_iter=_BISECT_ITER):
    """Power-constraint multiplier for the shifted leakage system.

    Finds mu >= 0 such that sum_k ||(b0 + mu*I)^{-1} c_k||^2 meets the power
    budget: returns 0 when the unconstrained (pseudo-inverse) solution is
    already feasible, otherwise bisects on the strictly decreasing power
    profile until it lands within ``power_tol * p_max`` below the budget.

    ``b0`` is one (M, M) Hermitian matrix with (K, M) ``targets``, giving a
    float, or a stack (S, M, M) with (S, K, M) targets, giving an (S,) array.
    The stack runs every matrix's bracket and bisection in lock step, so each
    entry equals the per-matrix result bit for bit.  Raises ``ValueError`` if
    any matrix is not Hermitian.
    """
    b0 = np.asarray(b0)
    single = b0.ndim == 2
    stack = b0[None] if single else b0
    atol = 1e-10 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    if not np.isclose(stack, stack.conj().swapaxes(1, 2), atol=atol[:, None, None]).all():
        raise ValueError("leakage matrix must be Hermitian")
    targets = np.atleast_2d(targets)[None] if single else np.asarray(targets)
    lam, _, proj = _eigen_projections(stack, targets)
    mu = _bisect_eigen(np.clip(lam, 0.0, None), proj, p_max, power_tol, max_iter)
    return float(mu[0]) if single else mu


def structured_directions(local_h, own_cell, alpha, mu):
    """Unit-norm structured directions for one BS.

    Args:
        local_h: (N, K, M) channels from this BS to every user.
        own_cell: index of the cell this BS serves.
        alpha: (N, K) nonnegative leakage weights.
        mu: noise-control regularizer (>= 0; 0 only if the leakage matrix is
            invertible).

    Returns:
        (K, M) array of unit-norm beamforming directions.
    """
    b0 = _leakage_matrix(local_h, alpha)
    solutions = solve_leakage_system(b0, local_h[own_cell], mu)
    norms = np.linalg.norm(solutions, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ArithmeticError("structured direction collapsed to zero")
    return solutions / norms


def structured_beamformer(local_h, own_cell, params, p_max):
    """Beamformers of one BS from its local CSI and structured parameters.

    Powers follow p[k] = p_max * q_total * q[k], so the BS spends exactly
    ``p_max * q_total`` watts in total.
    """
    directions = structured_directions(local_h, own_cell, params.alpha, params.mu)
    powers = p_max * params.q_total * params.q
    return np.sqrt(powers)[:, None] * directions


def mslnr_params(num_cells, users_per_cell, noise_power, q=None, q_total=1.0):
    """Structured parameters of the max-SLNR beamformer.

    Every leakage weight is one and mu is the noise power.  Including the
    served user's own term in the leakage matrix only rescales its solve
    (Sherman-Morrison), so the directions are the per-user max-SLNR ones.
    The power split defaults to equal shares of the full budget.
    """
    if q is None:
        q = np.full(users_per_cell, 1.0 / users_per_cell)
    return StructuredParams(
        alpha=np.ones((num_cells, users_per_cell)), mu=noise_power, q=q, q_total=q_total
    )


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


def _wmmse_beamformers(flat_h, own_h, alpha, scale, p_max):
    """One WMMSE beamformer update for every BS at once.

    Each BS n solves the structured system at leakage weights ``alpha`` for
    targets ``own_h[n] * scale[n]``, with the multiplier that meets its power
    budget.  ``flat_h`` is (N, N*K, M) (BS n's channels to every user),
    ``own_h`` (N, K, M), ``alpha`` and ``scale`` (N, K).  Returns the (N, K, M)
    beamformers and the (N,) multipliers.
    """
    weighted = alpha.reshape(-1, 1) * flat_h.conj()
    b0 = flat_h.swapaxes(1, 2) @ weighted  # (N, M, M) leakage matrices
    lam, q, proj = _eigen_projections(b0, own_h * scale[..., None])
    lam = np.clip(lam, 0.0, None)
    mu = _bisect_eigen(lam, proj, p_max)
    return np.ascontiguousarray(_eigen_solve(lam, q, proj, mu)), mu


def wmmse(channel, net_cfg, stop_eps=1e-4, max_iter=500, init_seed=0):
    """Iterative weighted-MMSE solver for the sum-rate problem.

    Alternates closed-form updates of per-user receive scalars ``u``, MSE
    weights ``v`` and transmit beamformers (the structured solve, with its
    own per-BS multiplier found by bisection) until the weight sum changes by
    less than ``stop_eps``.  Needs global CSI: this is the centralized
    genie-aided baseline.

    The beamformer update treats all N BSs as one stack: the (N, M, M)
    leakage matrices come from one batched product of the (N, N*K, M)
    channels, one stacked eigendecomposition serves the N multiplier
    bisections (run in lock step, see ``bisect_mu``) and the solve
    w[n] = Q diag(1 / (lam + mu[n])) Q^H c, with (N, K, M) targets c.

    Returns:
        (BeamformerSet, WmmseState).  If the iteration cap is hit first, the
        state is flagged ``truncated`` rather than raising.
    """
    h = channel.h
    num_cells, _, users, antennas = h.shape
    p_max = net_cfg.max_power
    noise = net_cfg.noise_power
    rng = np.random.default_rng(init_seed)

    w = _full_power_init(num_cells, users, antennas, p_max, rng)
    mu = np.zeros(num_cells)
    u_gen = None
    v_gen = None
    history = []
    rate_history = []
    iterations = 0
    truncated = False

    idx = np.arange(num_cells)
    flat_h = h.reshape(num_cells, num_cells * users, antennas)
    own_h = h[idx, idx]
    while True:
        # Weight refresh for the current beamformers.
        cross = np.einsum("mnka,mja->mnkj", h.conj(), w)
        denom = (np.abs(cross) ** 2).sum(axis=(0, 3)) + noise  # (N, K)
        if not np.all(denom > 0):
            raise ArithmeticError("receive denominator must stay positive")
        signal = cross[idx, idx][:, np.arange(users), np.arange(users)]
        u = signal / denom
        v = denom / (denom - np.abs(signal) ** 2)
        history.append(float(v.sum()))
        rate_history.append(float(np.log2(v).sum()))
        if len(history) >= 2 and abs(history[-1] - history[-2]) < stop_eps:
            break
        if iterations >= max_iter:
            truncated = True
            break

        # Beamformer update: structured solve at alpha = v|u|^2, all BSs at once.
        w, mu = _wmmse_beamformers(flat_h, own_h, v * np.abs(u) ** 2, u * v, p_max)
        u_gen, v_gen = u, v
        iterations += 1

    if u_gen is None:  # stopped before any beamformer update
        u_gen, v_gen = u, v
    beams = BeamformerSet(w=w)
    state = WmmseState(
        beams=beams,
        u=u_gen,
        v=v_gen,
        final_v=v,
        mu=mu.copy(),
        iterations=iterations,
        objective_history=np.asarray(history),
        rate_history=np.asarray(rate_history),
        truncated=truncated,
    )
    return beams, state


def wmmse_multi_init(channel, net_cfg, stop_eps=1e-4, max_iter=500, num_inits=1, seed=0):
    """Best-of-R weighted-MMSE: keep the highest sum rate over R random inits.

    Initialization ``i`` uses seed ``seed + i``, so the single-init run with
    the same seed is always part of the pool.

    Returns:
        (BeamformerSet, WmmseState) of the kept initialization, as ``wmmse``.
    """
    if num_inits < 1:
        raise ValueError("num_inits must be >= 1")
    best = None
    best_rate = -np.inf
    for i in range(num_inits):
        beams, state = wmmse(channel, net_cfg, stop_eps, max_iter, init_seed=seed + i)
        rate = sum_rate(compute_metrics(channel, beams, net_cfg))
        if rate > best_rate:
            best_rate = rate
            best = beams, state
    return best
