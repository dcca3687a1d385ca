"""Quadrature-based matrix square-root products and the sampler built on them.

The square root of the noisy Gram matrix is applied to a vector through
a rational approximation: a handful of shifted linear systems, with
shifts and weights derived from Jacobi elliptic functions on the
spectral interval, solved jointly by a multi-shift minimum-residual
Krylov recurrence (or per-shift preconditioned conjugate gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.special

from . import _streams
from .bounds import FidelitySpec
from .exact import GpSample, SampleMethod
from .kernel import GramMatrix, KernelParams
from .precond import NystromPreconditioner, apply_shifted_inverse, nystrom_factor

# Krylov breakdown threshold, a few ulp above what float64 reaches
_BREAKDOWN_REL = 1e-14


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a shifted-system solve."""

    iterations_run: int
    residual_norms: np.ndarray
    converged: np.ndarray
    breakdown: bool = False


def build_quadrature(lambda_min: float, lambda_max: float, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """The shifts and weights of Q shifted-system nodes for the interval
    [lambda_min, lambda_max]: sum_q weights[q] * K (shifts[q] I + K)^(-1) u
    approximates K^(1/2) u for any symmetric K with its spectrum inside it.

    Nodes sit at midpoints (q - 1/2) K'/Q of the complementary elliptic
    quarter period, mapped onto shifts lambda_min * (sn/cn)^2 with
    weights 2 K' sqrt(lambda_min) dn / (pi Q cn^2), all at the
    complementary parameter 1 - lambda_min/lambda_max.
    """
    if not 0 < lambda_min <= lambda_max:
        raise ValueError(
            f"need 0 < lambda_min <= lambda_max, got [{lambda_min}, {lambda_max}]"
        )
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    ratio = lambda_min / lambda_max
    Kp = float(scipy.special.ellipkm1(ratio))
    t = (np.arange(Q) + 0.5) * Kp / Q
    sn, cn, dn, _ = scipy.special.ellipj(t, 1.0 - ratio)
    shifts = lambda_min * (sn / cn) ** 2
    weights = (2.0 * Kp * math.sqrt(lambda_min) / (math.pi * Q)) * dn / cn**2
    return shifts, weights


def _msminres(
    A: np.ndarray,
    shifts: np.ndarray,
    u: np.ndarray,
    J: int,
    tol: float,
) -> tuple[np.ndarray, SolveReport]:
    """Multi-shift minimum-residual solves on one shared Krylov basis.

    Each shifted system keeps its own scalar Givens recurrence; one
    operator product per iteration serves all shifts.
    """
    n = u.shape[0]
    nsh = shifts.shape[0]
    X = np.zeros((nsh, n))
    beta1 = float(np.linalg.norm(u))
    if beta1 == 0.0:
        return X, SolveReport(
            iterations_run=0,
            residual_norms=np.zeros(nsh),
            converged=np.ones(nsh, dtype=bool),
        )
    v = u / beta1
    v_old = np.zeros(n)
    beta = 0.0
    W = np.zeros((nsh, n))
    W2 = np.zeros((nsh, n))
    dbar = np.zeros(nsh)
    epsln = np.zeros(nsh)
    phibar = np.full(nsh, beta1)
    cs = np.full(nsh, -1.0)
    sn = np.zeros(nsh)
    iterations = 0
    breakdown = False
    for j in range(J):
        iterations += 1
        p = A @ v
        if j > 0:
            p = p - beta * v_old
        alpha = float(v @ p)
        p -= alpha * v
        beta_new = float(np.linalg.norm(p))
        alpha_shifted = alpha + shifts
        oldeps = epsln
        delta = cs * dbar + sn * alpha_shifted
        gbar = sn * dbar - cs * alpha_shifted
        epsln = sn * beta_new
        dbar = -cs * beta_new
        gamma = np.maximum(np.hypot(gbar, beta_new), 1e-300)
        cs = gbar / gamma
        sn = beta_new / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w_new = (v[None, :] - oldeps[:, None] * W2 - delta[:, None] * W) / gamma[:, None]
        X += phi[:, None] * w_new
        W2 = W
        W = w_new
        if beta_new <= _BREAKDOWN_REL * beta1:
            breakdown = True
            break
        v_old = v
        v = p / beta_new
        beta = beta_new
        if float(np.max(np.abs(phibar))) / beta1 <= tol:
            break
    residuals = np.abs(phibar) / beta1
    return X, SolveReport(
        iterations_run=iterations,
        residual_norms=residuals,
        converged=residuals <= tol,
        breakdown=breakdown,
    )


def _pcg_single(
    A: np.ndarray,
    shift: float,
    u: np.ndarray,
    precond: NystromPreconditioner,
    J: int,
    tol: float,
) -> tuple[np.ndarray, float, int, bool]:
    """Preconditioned conjugate gradients on (shift I + K) x = u."""
    n = u.shape[0]
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(u))
    if b_norm == 0.0:
        return x, 0.0, 0, False
    r = u.copy()
    z = apply_shifted_inverse(precond, r, shift)
    p = z.copy()
    rz = float(r @ z)
    residual = 1.0
    iterations = 0
    breakdown = False
    for _ in range(J):
        iterations += 1
        Ap = A @ p + shift * p
        curvature = float(p @ Ap)
        if curvature <= 0.0:
            breakdown = True
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * Ap
        residual = float(np.linalg.norm(r)) / b_norm
        if residual <= tol:
            break
        z = apply_shifted_inverse(precond, r, shift)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return x, residual, iterations, breakdown


def shifted_solve(
    K: GramMatrix,
    shifts: Sequence[float],
    u: np.ndarray,
    J: int,
    tol: float = 1e-10,
    precond: NystromPreconditioner | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Approximately solve (shift_q I + K) v_q = u for every shift at once.

    Without a preconditioner all systems share one Krylov basis,
    costing a single operator product per iteration; with one, each
    shift gets an independent preconditioned conjugate-gradient solve.
    Returns the stacked solutions (one row per shift) and a report; on
    Krylov breakdown the current iterates come back with the report
    flagging the event instead of raising.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"u must be a vector, got shape {u.shape}")
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    shift_arr = np.asarray(shifts, dtype=np.float64)
    if shift_arr.ndim != 1 or shift_arr.shape[0] < 1:
        raise ValueError("shifts must be a nonempty 1-d sequence")
    if precond is None:
        return _msminres(K.entries, shift_arr, u, J, tol)
    runs = [_pcg_single(K.entries, float(s), u, precond, J, tol) for s in shift_arr]
    X, residuals, iterations, breakdowns = (np.array(column) for column in zip(*runs))
    return X, SolveReport(
        iterations_run=int(iterations.max()),
        residual_norms=residuals,
        converged=residuals <= tol,
        breakdown=bool(breakdowns.any()),
    )


def spectral_envelope(K: GramMatrix) -> tuple[float, float]:
    """Analytic eigenvalue envelope [jitter, n*max_diag_signal + jitter].

    No eigenvalue estimation pass: the jitter floors the spectrum and
    the trace bound n * max_i (K_ii - jitter) caps it.
    """
    if K.jitter <= 0:
        raise ValueError(f"need a positive diagonal jitter, got {K.jitter}")
    diag_signal = float(np.max(np.diag(K.entries))) - K.jitter
    lam_max = K.n * max(0.0, diag_signal) + K.jitter
    return K.jitter, lam_max


def ciq_sqrt_mv(
    K: GramMatrix,
    u: np.ndarray,
    Q: int,
    J: int,
    precond: NystromPreconditioner | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Approximate K^(1/2) u through Q shifted solves capped at J iterations."""
    lam_min, lam_max = spectral_envelope(K)
    shifts, weights = build_quadrature(lam_min, lam_max, Q)
    solutions, report = shifted_solve(K, shifts, u, J, precond=precond)
    return K.entries @ (weights @ solutions), report


def ciq_sample(
    K_xi: GramMatrix,
    params: KernelParams,
    eta: float,
    Q: int,
    J: int,
    seed: int,
    rank: int | None = None,
) -> GpSample:
    """Draw a sample via the quadrature square root of the partially
    noisy Gram matrix, on the fully noisy K_xi = gram(X, params,
    jitter=noise_variance).

    A fraction eta of the noise variance is folded into the kernel
    diagonal before the square root; the remainder is added afterwards
    as independent noise. gram pins the diagonal to variance + jitter,
    so the partially noisy K_eta is K_xi with its diagonal lowered to
    variance + eta * noise_variance: K_xi's diagonal is written during
    the call and put back afterwards, also when the draw raises, so
    K_xi must not be shared with another thread meanwhile. With a rank,
    the draw is preconditioned by a Nystrom factor of that rank; the
    sample's fidelity records the rank the factor reached, and the
    shifted solve's report rides along.
    """
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    entries = K_xi.entries
    jitter = eta * params.noise_variance
    np.fill_diagonal(entries, params.variance + jitter)
    try:
        K = GramMatrix(entries=entries, jitter=jitter)
        precond = None if rank is None else nystrom_factor(K, rank)
        u = _streams.stream(seed, _streams.LATENT).standard_normal(K_xi.n)
        f_hat, report = ciq_sqrt_mv(K, u, Q, J, precond)
    finally:
        np.fill_diagonal(entries, params.variance + params.noise_variance)
    xi = _streams.stream(seed, _streams.NOISE).standard_normal(K_xi.n)
    y = f_hat + math.sqrt((1.0 - eta) * params.noise_variance) * xi
    return GpSample(
        y=y,
        f=f_hat,
        method=SampleMethod.Ciq if precond is None else SampleMethod.CiqPreconditioned,
        params=params,
        fidelity=FidelitySpec(
            eta=eta, Q=Q, J=J, rank=None if precond is None else precond.factor.shape[1]
        ),
        seed=seed,
        solver=report,
    )
