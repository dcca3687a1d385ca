"""Quadrature-based matrix square-root products and the sampler built on them.

The square root of the noisy Gram matrix is applied to a vector through
a rational approximation: a handful of shifted linear systems, with
shifts and weights derived from Jacobi elliptic functions on the
spectral interval, solved jointly by a multi-shift minimum-residual
Krylov recurrence (or per-shift preconditioned conjugate gradients).

Every product with the kernel matrix reads its lower triangle only, as
exact.cholesky_factor does, through BLAS dsymv. That product's bits
depend on the BLAS thread count, so a quadrature draw is bitwise
reproducible at a fixed thread count, as an exact draw is.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import scipy.special

from . import _streams
from .bounds import FidelitySpec
from .exact import GpSample, SampleMethod, SolveReport
from .kernel import GramMatrix, KernelParams, _symmetric_mv
from .precond import NystromPreconditioner, apply_shifted_inverse, nystrom_factor

# Krylov breakdown threshold, a few ulp above what float64 reaches
_BREAKDOWN_REL = 1e-14

# relative residual at which a shifted solve stops
_SOLVE_TOL = 1e-10

# iterations per point at which a shifted solve stops: its Krylov space stops
# growing at n, and past that the recurrence only repeats itself. Above every
# default J at the CLI's kernel values, whose J/n peaks at 11 (ciq at n = 1).
_J_PER_POINT = 16


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
    caps: tuple[int, ...],
    tol: float,
) -> list[tuple[np.ndarray, SolveReport]]:
    """Multi-shift minimum-residual solves on one shared Krylov basis.

    Each shifted system keeps its own scalar Givens recurrence; one
    operator product per iteration serves all shifts. One recurrence
    runs to the largest of the caps, which never decrease, and returns
    the state at each: a cap past convergence or breakdown gets the
    final state, as a solve capped there stops.
    """
    n = u.shape[0]
    nsh = shifts.shape[0]
    X = np.zeros((nsh, n))
    beta1 = float(np.linalg.norm(u))
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
    breakdown = False
    states: list[tuple[np.ndarray, SolveReport]] = []
    for iterations in range(1, caps[-1] + 1):
        p = _symmetric_mv(A, v) - beta * v_old  # beta is 0 and v_old zeros at the first iteration
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
        else:
            v_old = v
            v = p / beta_new
            beta = beta_new
        residuals = np.abs(phibar) / beta1
        worst = float(np.max(residuals))
        breakdown = breakdown or not math.isfinite(worst)  # an overflow or NaN ends the basis
        stopped = breakdown or worst <= tol
        if stopped or iterations == caps[len(states)]:
            report = SolveReport(iterations, residuals, residuals <= tol, breakdown)
            states.append((X.copy(), report))
        if stopped:
            break
    return states + states[-1:] * (len(caps) - len(states))


def _pcg_single(
    A: np.ndarray,
    shift: float,
    u: np.ndarray,
    precond: NystromPreconditioner,
    caps: tuple[int, ...],
    tol: float,
) -> list[tuple[np.ndarray, float, int, bool]]:
    """Preconditioned conjugate gradients on (shift I + K) x = u: one
    recurrence to the largest of the non-decreasing caps, with the iterate,
    relative residual, iteration count and breakdown flag at each, as
    _msminres gives them."""
    n = u.shape[0]
    x = np.zeros(n)
    b_norm = float(np.linalg.norm(u))
    r = u.copy()
    z = apply_shifted_inverse(precond, r, shift)
    p = z.copy()
    rz = float(r @ z)
    residual = 1.0
    breakdown = False
    states: list[tuple[np.ndarray, float, int, bool]] = []
    for iterations in range(1, caps[-1] + 1):
        Ap = _symmetric_mv(A, p) + shift * p
        curvature = float(p @ Ap)
        if not 0.0 < curvature < math.inf:  # indefinite, or a product overflowed
            breakdown = True
        else:
            alpha = rz / curvature
            x += alpha * p
            r -= alpha * Ap
            residual = float(np.linalg.norm(r)) / b_norm
        stopped = breakdown or residual <= tol
        if stopped or iterations == caps[len(states)]:
            states.append((x.copy(), residual, iterations, breakdown))
        if stopped or iterations == caps[-1]:
            break
        z = apply_shifted_inverse(precond, r, shift)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return states + states[-1:] * (len(caps) - len(states))


def _solve_to_caps(
    K: GramMatrix,
    shifts: Sequence[float],
    u: np.ndarray,
    caps: tuple[int, ...],
    tol: float,
    precond: NystromPreconditioner | None,
) -> list[tuple[np.ndarray, SolveReport]]:
    """shifted_solve's result at each of the strictly increasing caps, from
    one recurrence per system; each equals, bit for bit, a shifted_solve
    capped there. A cap above _J_PER_POINT * n runs to that limit. A zero u
    is solved by zeros in 0 iterations at every cap."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError(f"u must be a vector, got shape {u.shape}")
    if len(caps) == 0 or caps[0] < 1:
        raise ValueError(f"J must be >= 1, got {caps[0] if caps else caps}")
    if any(a >= b for a, b in zip(caps, caps[1:])):
        raise ValueError(f"iteration caps must increase strictly, got {caps}")
    caps = tuple(min(cap, _J_PER_POINT * u.shape[0]) for cap in caps)  # ties only at the limit
    shift_arr = np.asarray(shifts, dtype=np.float64)
    if shift_arr.ndim != 1 or shift_arr.shape[0] < 1:
        raise ValueError("shifts must be a nonempty 1-d sequence")
    if float(np.linalg.norm(u)) == 0.0:
        nsh = shift_arr.shape[0]
        zero = SolveReport(0, np.zeros(nsh), np.ones(nsh, dtype=bool))
        return [(np.zeros((nsh, u.shape[0])), zero)] * len(caps)
    if precond is None:
        return _msminres(K.entries, shift_arr, u, caps, tol)
    per_shift = [_pcg_single(K.entries, float(s), u, precond, caps, tol) for s in shift_arr]
    states = []
    for runs in zip(*per_shift):  # the shifts' states at one cap
        X, residuals, iterations, breakdowns = (np.array(column) for column in zip(*runs))
        report = SolveReport(
            iterations_run=int(iterations.max()),
            residual_norms=residuals,
            converged=residuals <= tol,
            breakdown=bool(breakdowns.any()),
        )
        states.append((X, report))
    return states


def shifted_solve(
    K: GramMatrix,
    shifts: Sequence[float],
    u: np.ndarray,
    J: int,
    tol: float = _SOLVE_TOL,
    precond: NystromPreconditioner | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Approximately solve (shift_q I + K) v_q = u for every shift at once.

    Without a preconditioner all systems share one Krylov basis,
    costing a single operator product per iteration; with one, each
    shift gets an independent preconditioned conjugate-gradient solve.
    Returns the stacked solutions (one row per shift) and a report; on
    Krylov breakdown the current iterates come back with the report
    flagging the event instead of raising. A J above _J_PER_POINT * n
    runs to that limit.
    """
    return _solve_to_caps(K, shifts, u, (J,), tol, precond)[0]


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
    J: int | tuple[int, ...],
    precond: NystromPreconditioner | None = None,
) -> tuple[np.ndarray, SolveReport] | list[tuple[np.ndarray, SolveReport]]:
    """Approximate K^(1/2) u through Q shifted solves capped at J iterations.

    J may also be a strictly increasing tuple of caps: one recurrence then
    serves them all, and the product and report at each cap come back in
    a list, each bitwise equal to a call at that single cap.
    """
    lam_min, lam_max = spectral_envelope(K)
    shifts, weights = build_quadrature(lam_min, lam_max, Q)
    if isinstance(J, tuple):
        states = _solve_to_caps(K, shifts, u, J, _SOLVE_TOL, precond)
        return [
            (_symmetric_mv(K.entries, weights @ solutions), report) for solutions, report in states
        ]
    solutions, report = shifted_solve(K, shifts, u, J, precond=precond)
    return _symmetric_mv(K.entries, weights @ solutions), report


def ciq_sample(
    K_xi: GramMatrix,
    params: KernelParams,
    eta: float,
    Q: int,
    J: int | tuple[int, ...],
    seed: int,
    rank: int | None = None,
) -> GpSample | tuple[GpSample, ...]:
    """Draw a sample via the quadrature square root of the partially
    noisy Gram matrix, on the fully noisy K_xi = gram(X, params,
    jitter=noise_variance).

    A fraction eta of the noise variance is folded into the kernel
    diagonal before the square root; the remainder is added afterwards
    as independent noise. gram pins the diagonal to variance + jitter,
    so the partially noisy K_eta is K_xi with its diagonal lowered to
    variance + eta * noise_variance: K_xi's diagonal is written during
    the call and put back bit for bit as the caller left it, also when
    the draw raises, so K_xi must not be shared with another thread
    meanwhile. With a rank, the draw is preconditioned by a Nystrom
    factor of that rank; the sample's fidelity records the rank the
    factor reached, and the shifted solve's report rides along.

    J may also be a strictly increasing tuple of caps. The draw then
    builds one factor and runs one recurrence for them all, and returns
    the sample at each cap, each bitwise equal to a draw at that J.
    A cap above _J_PER_POINT * n runs to that limit, and the sample
    records the limit as its J.
    A draw keeps its bits at a fixed BLAS thread count: its Krylov
    products read K_xi's lower triangle through dsymv.
    """
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    entries = K_xi.entries
    diagonal = entries.diagonal().copy()
    jitter = eta * params.noise_variance
    np.fill_diagonal(entries, params.variance + jitter)
    try:
        K = GramMatrix(entries=entries, jitter=jitter)
        precond = None if rank is None else nystrom_factor(K, rank)
        u = _streams.stream(seed, _streams.LATENT).standard_normal(K_xi.n)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite solve is refused below
            runs = ciq_sqrt_mv(K, u, Q, J, precond)
    finally:
        np.fill_diagonal(entries, diagonal)
    caps, runs = (J, runs) if isinstance(J, tuple) else ((J,), [runs])
    if any(not np.all(np.isfinite(report.residual_norms)) for _, report in runs):
        raise ValueError("the Krylov solve met a non-finite value: kernel values too large")
    xi = _streams.stream(seed, _streams.NOISE).standard_normal(K_xi.n)
    noise = math.sqrt((1.0 - eta) * params.noise_variance) * xi
    samples = tuple(
        GpSample(
            y=f_hat + noise,
            f=f_hat,
            method=SampleMethod.Ciq if precond is None else SampleMethod.CiqPreconditioned,
            params=params,
            fidelity=FidelitySpec(
                eta=eta, Q=Q, J=min(cap, _J_PER_POINT * K_xi.n),
                rank=None if precond is None else precond.factor.shape[1],
            ),
            seed=seed,
            solver=report,
        )
        for cap, (f_hat, report) in zip(caps, runs)
    )
    return samples if isinstance(J, tuple) else samples[0]
