"""Low-rank preconditioning for the shifted solves.

A greedy pivoted partial Cholesky factor of the noiseless kernel gives a rank-k surrogate
whose shifted inverse is cheap to apply through the Woodbury identity, at any shift, via
one k x k eigendecomposition. Its default rank and condition bound live in bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _streams
from .bounds import default_rank
from .kernel import GramMatrix, KernelParams, _symmetric_mv, gram, sample_inputs

# power-iteration steps behind each effectiveness_sweep metric
_POWER_ITERATIONS = 40


@dataclass(frozen=True)
class NystromPreconditioner:
    """Rank-k factor F with F F^T approximating the noiseless kernel.

    noise is the diagonal level of the matrix being preconditioned, so
    (F F^T + noise I)^(-1) approximates the inverse of the full noisy
    matrix. F^T F = V diag(eigvals) V^T is decomposed once, and with
    basis U = F V, F F^T = U diag(eigvals) U^T at every shift.
    """

    factor: np.ndarray
    noise: float

    def __post_init__(self) -> None:
        F = np.asarray(self.factor, dtype=np.float64)
        if F.ndim != 2:
            raise ValueError(f"factor must be 2-d, got shape {F.shape}")
        if not np.all(np.isfinite(F)):
            raise ValueError("factor contains non-finite entries")
        if self.noise <= 0:
            raise ValueError(f"noise must be > 0, got {self.noise}")
        object.__setattr__(self, "factor", F)
        eigvals, V = np.linalg.eigh(F.T @ F)
        # F^T F is semidefinite: a rounding below 0 is 0, so eigvals + s > 0 for any s > 0
        object.__setattr__(self, "_eigvals", np.maximum(eigvals, 0.0))
        object.__setattr__(self, "_basis", F @ V)


def nystrom_factor(K: GramMatrix, k: int) -> NystromPreconditioner:
    """Greedy pivoted partial Cholesky of the kernel with its jitter removed.

    Pivots maximize the residual diagonal at each step, keeping the
    approximation below the matrix in the semidefinite order. Stops
    early if the residual diagonal is exhausted, in which case the
    factor has fewer than k columns.
    """
    n = K.n
    if not 1 <= k <= n:
        raise ValueError(f"rank must satisfy 1 <= k <= n, got k={k}, n={n}")
    A = K.entries
    d = np.diag(A) - K.jitter
    F = np.zeros((n, k))
    exhausted_at = max(float(d.max()), 0.0) * 1e-14
    for m in range(k):
        i = int(np.argmax(d))
        if d[i] <= exhausted_at:
            F = F[:, :m]
            break
        col = np.concatenate((A[i, :i], A[i:, i]))  # K's lower triangle only
        col[i] -= K.jitter
        col -= F[:, :m] @ F[i, :m]  # zeros at m = 0
        F[:, m] = col / np.sqrt(d[i])
        d -= F[:, m] ** 2
    return NystromPreconditioner(factor=F, noise=K.jitter)


def apply_shifted_inverse(
    P: NystromPreconditioner, v: np.ndarray, extra_shift: float = 0.0
) -> np.ndarray:
    """(F F^T + s I)^(-1) v for s = noise + extra_shift, via the Woodbury
    identity on the eigenbasis: (v - U ((U^T v) / (eigvals + s))) / s,
    two matrix-vector products and no factorization."""
    s = P.noise + extra_shift
    if s <= 0:
        raise ValueError(f"total shift must be > 0, got {s}")
    v = np.asarray(v, dtype=np.float64)
    U = P._basis
    return (v - U @ ((U.T @ v) / (P._eigvals + s))) / s


def _power_iteration_deviation(K: np.ndarray, P: NystromPreconditioner, seed: int) -> float:
    """Operator norm of I - P_inv K, estimated by _POWER_ITERATIONS steps of
    power iteration on its normal matrix."""
    n = K.shape[0]
    v = _streams.stream(seed, _streams.LATENT).standard_normal(n)
    v /= np.linalg.norm(v)
    nr = 0.0
    for _ in range(_POWER_ITERATIONS):
        Mv = v - apply_shifted_inverse(P, _symmetric_mv(K, v))
        MtMv = Mv - _symmetric_mv(K, apply_shifted_inverse(P, Mv))
        nr = float(np.linalg.norm(MtMv))
        if nr == 0.0:
            return 0.0
        v = MtMv / nr
    return float(np.sqrt(nr))


def effectiveness_sweep(
    n_list: list[int], lengthscale_grid: list[float], params_base: KernelParams, seed: int
) -> list[tuple[int, float, float]]:
    """Preconditioner quality over a (size, lengthscale) grid.

    For each cell, draws inputs, assembles the noisy Gram matrix,
    builds the factor of rank default_rank(n) and reports how far the
    preconditioned matrix sits from the identity in operator norm.
    Larger values mean the preconditioner helps less.
    """
    rows: list[tuple[int, float, float]] = []
    for n in n_list:
        for ls in lengthscale_grid:
            params = replace(params_base, lengthscale=ls)
            # a scaled lengthscale from 2**112 up tags 0 under the mask, one that overflows too
            scaled = 1e9 * ls
            tag = int(scaled) & ((1 << 60) - 1) if np.isfinite(scaled) else 0
            cell_seed = _streams.derive_seed(seed, n, tag)
            K = gram(sample_inputs(n, params, cell_seed), params, jitter=params.noise_variance)
            P = nystrom_factor(K, default_rank(n))
            rows.append((n, ls, _power_iteration_deviation(K.entries, P, cell_seed)))
    return rows
