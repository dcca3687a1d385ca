"""Exact Cholesky sampling and the whitening transform used for verification."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from . import _streams
from .bounds import FidelitySpec
from .kernel import GramMatrix, KernelParams

if TYPE_CHECKING:
    from .ciq import SolveReport


class SampleMethod(enum.Enum):
    Exact = "exact"
    Rff = "rff"
    Ciq = "ciq"
    CiqPreconditioned = "pciq"


class FactorizationError(ValueError):
    """Raised when a Cholesky factorization hits a non-positive pivot."""

    def __init__(self, pivot_index: int):
        self.pivot_index = pivot_index
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} is not positive"
        )


@dataclass(frozen=True)
class GpSample:
    """One draw from a sampler, with the provenance needed to reproduce it.

    y is the noisy observed vector; f, when present, is the latent
    function before the final noise stage (the random-feature and
    quadrature samplers separate the two); solver, when present,
    reports how the quadrature sampler's shifted solves ended.
    """

    y: np.ndarray
    method: SampleMethod
    params: KernelParams
    fidelity: FidelitySpec
    seed: int
    f: np.ndarray | None = None
    solver: SolveReport | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"y must be a vector, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("sample contains non-finite values")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def cholesky_factor(K: GramMatrix, overwrite: bool = False) -> np.ndarray:
    """Lower-triangular, C-contiguous L with L L^T = K.entries, read from
    its lower triangle.

    LAPACK factors the transpose, K's lower triangle seen in Fortran
    order, as U^T U with U = L^T, so no transposing copy is made. With
    overwrite, a C-contiguous K.entries is overwritten by L and no
    longer holds the matrix; without it, K.entries is left unchanged.
    Raises FactorizationError naming the first failing pivot when the
    matrix is not positive definite.
    """
    U, info = scipy.linalg.lapack.dpotrf(
        K.entries.T, lower=0, clean=1, overwrite_a=int(overwrite)
    )
    if info > 0:
        raise FactorizationError(pivot_index=int(info) - 1)
    if info < 0:
        raise ValueError(f"illegal factorization argument at position {-info}")
    return U.T


def exact_sample(L: np.ndarray, params: KernelParams, seed: int) -> GpSample:
    """Draw y = L u for a Cholesky factor L of the fully noisy Gram matrix."""
    u = _streams.stream(seed, _streams.LATENT).standard_normal(L.shape[0])
    return GpSample(
        y=L @ u,
        method=SampleMethod.Exact,
        params=params,
        fidelity=FidelitySpec(),
        seed=seed,
    )


def whiten(y: np.ndarray, L: np.ndarray) -> np.ndarray:
    """L^-1 y for a lower-triangular Cholesky factor L of K_xi.

    If y is a zero-mean Gaussian with covariance K_xi, the result is a
    standard normal vector. Only y is checked for non-finite values
    (ValueError), in O(n); L is not scanned, and a non-finite L gives a
    non-finite result.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != L.shape[0]:
        raise ValueError(f"y has shape {y.shape}, expected ({L.shape[0]},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values")
    return scipy.linalg.solve_triangular(L, y, lower=True, check_finite=False)
