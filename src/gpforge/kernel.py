"""Kernel primitives: hyperparameters, input sampling and Gram assembly.

The only covariance function provided is the isotropic squared
exponential

    k(x, x') = variance * exp(-||x - x'||^2 / (2 * lengthscale^2))

with an additive diagonal jitter supplied at Gram-assembly time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np

from . import _streams

# rows per block of Gram assembly: of 64, 128, 256 and 512 rows, the fastest
# or within 7% of it at every n from 200 to 4096
_GRAM_BLOCK = 128


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential hyperparameters plus the observation noise level.

    variance        signal variance (>= 0)
    lengthscale     kernel lengthscale (> 0)
    noise_variance  observation noise variance (> 0)
    dim             input dimensionality (integer >= 1)
    """

    variance: float
    lengthscale: float
    noise_variance: float
    dim: int

    def __post_init__(self) -> None:
        if not self.variance >= 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be > 0, got {self.lengthscale}")
        if not self.noise_variance > 0:
            raise ValueError(f"noise_variance must be > 0, got {self.noise_variance}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim}")

    def to_dict(self) -> dict:
        """The four fields as a JSON-ready dict, in declaration order."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "KernelParams":
        """Inverse of to_dict: every field present, nothing else, dim a JSON
        integer and the others JSON numbers, kept as given. Raises ValueError
        on a non-mapping, a missing or unknown key or a value of another type.
        """
        names = [f.name for f in fields(cls)]
        for name, value in json_object(d, "params", names, required=names).items():
            json_value(name, value, int if name == "dim" else float)
        return cls(**d)


_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array"}


def json_value(name: str, value: object, kind: type) -> Any:
    """`value` if json.loads gives it for `kind`: bool, int, float (an int or
    float, returned as a float), str or list. A bool is neither int nor float,
    and nothing is coerced: anything else raises ValueError."""
    ok = isinstance(value, (int, float) if kind is float else kind)
    if ok and isinstance(value, bool) is (kind is bool):
        try:
            return float(value) if kind is float else value
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{name} must be a JSON {_JSON_KINDS[kind]}, got {value!r}")


def json_object(d: object, what: str, names: Iterable[str], required: Iterable[str]) -> Mapping:
    """`d` if a mapping with every `required` key and none outside `names`, else ValueError."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be an object, got {type(d).__name__}")
    missing = [name for name in required if name not in d]
    if missing:
        raise ValueError(f"missing {what} fields: {missing}")
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} fields: {unknown}")
    return d


@dataclass(frozen=True)
class InputData:
    """A set of input locations (n x d, float64) and the seed that produced it."""

    points: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        # below this, every squared distance gram forms (at most 4 d max|x|^2) is finite
        limit = math.sqrt(np.finfo(np.float64).max / (4 * max(1, pts.shape[1])))
        if not np.max(np.abs(pts), initial=0.0) < limit:
            raise ValueError(f"coordinates must be finite and below {limit:.4g} in magnitude")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class GramMatrix:
    """Dense kernel matrix with the diagonal jitter it was assembled with."""

    entries: np.ndarray
    jitter: float = 0.0

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=np.float64)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"entries must be square, got shape {ent.shape}")
        object.__setattr__(self, "entries", ent)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def rbf(x: np.ndarray, x_prime: np.ndarray, params: KernelParams) -> float:
    """Evaluate k(x, x') for a single pair of d-vectors."""
    x = np.asarray(x, dtype=np.float64).ravel()
    x_prime = np.asarray(x_prime, dtype=np.float64).ravel()
    if x.shape != x_prime.shape:
        raise ValueError(
            f"dimension mismatch: x has shape {x.shape}, x' has shape {x_prime.shape}"
        )
    d2 = float(np.sum((x - x_prime) ** 2))
    return float(params.variance * np.exp(-d2 / (2.0 * params.lengthscale**2)))


def _draw_inputs(g: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """The next n rows of an input stream, each from Normal(0, I_d / d)."""
    return g.standard_normal((n, dim)) / np.sqrt(dim)


def sample_inputs(n: int, params: KernelParams, seed: int) -> InputData:
    """Draw n i.i.d. input locations from Normal(0, I_d / d).

    The 1/d scaling keeps E||x - x'||^2 = 2 regardless of dimension, so
    lengthscales are comparable across d.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 input points, got {n}")
    pts = _draw_inputs(_streams.stream(seed, _streams.INPUTS), n, params.dim)
    return InputData(points=pts, seed=seed)


def gram(X: InputData, params: KernelParams, jitter: float = 0.0) -> GramMatrix:
    """Assemble the dense Gram matrix K + jitter * I on X, with no n x n temporary.

    Distances do not change under translation, so each coordinate whose
    range lies farther from the origin than it is wide is first centred
    on its midrange. The expanded squared distance below then loses no
    more than rounding at the points' spread, however far they lie from
    the origin, and no entry loses accuracy. The lower triangle is
    built in row blocks of _GRAM_BLOCK rows, each in one contiguous
    scratch block: one GEMM for -2 x.x', then in place the expanded
    squared distance ||x||^2 + ||x'||^2 - 2 x.x' clamped below at zero,
    the exponential and the variance. The square part of
    the block on the diagonal is replaced by the mean of itself and its
    transpose, and the block is copied into its rows of K and mirrored
    into the upper triangle, so K is exactly symmetric. The diagonal is
    pinned to variance + jitter exactly, so changing the jitter of an
    assembled matrix only means rewriting its diagonal.
    """
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    pts = X.points
    if pts.shape[1] != params.dim:
        raise ValueError(
            f"dimension mismatch: inputs have d={pts.shape[1]}, params.dim={params.dim}"
        )
    n = pts.shape[0]
    if n > 0:
        # only there is x - mid exact (Sterbenz) and smaller than |x|, so no
        # entry loses accuracy and InputData's overflow bound still holds
        low, high = pts.min(axis=0), pts.max(axis=0)
        mid = 0.5 * (low + high)
        pts = pts - np.where(np.abs(mid) > high - low, mid, 0.0)
    sq = np.sum(pts * pts, axis=1)
    minus_two_pts = -2.0 * pts  # exact: a power-of-two scale
    scale = -2.0 * params.lengthscale**2
    K = np.empty((n, n))
    # strided views with short rows cost numpy a loop per row; the scratch block has none
    scratch = np.empty(min(n, _GRAM_BLOCK) * n)
    for i0 in range(0, n, _GRAM_BLOCK):
        i1 = min(i0 + _GRAM_BLOCK, n)
        block = scratch[: (i1 - i0) * i1].reshape(i1 - i0, i1)
        np.matmul(minus_two_pts[i0:i1], pts[:i1].T, out=block)
        block += sq[i0:i1, None]
        block += sq[:i1]
        np.maximum(block, 0.0, out=block)
        block /= scale
        np.exp(block, out=block)
        block *= params.variance
        diag = block[:, i0:i1]
        np.add(diag, diag.T, out=diag)  # a + b == b + a, so the sum is symmetric
        diag *= 0.5
        K[i0:i1, :i1] = block
        K[:i0, i0:i1] = block[:, :i0].T
    np.fill_diagonal(K, params.variance + jitter)
    return GramMatrix(entries=K, jitter=float(jitter))
