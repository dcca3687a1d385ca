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
from scipy.spatial.distance import cdist

from . import _streams


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential hyperparameters plus the observation noise level.

    variance        signal variance (finite, >= 0)
    lengthscale     kernel lengthscale (finite, > 0)
    noise_variance  observation noise variance (finite, > 0)
    dim             input dimensionality (integer >= 1)
    """

    variance: float
    lengthscale: float
    noise_variance: float
    dim: int

    def __post_init__(self) -> None:
        if not 0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")
        if not 0 < self.lengthscale < math.inf:
            raise ValueError(f"lengthscale must be finite and > 0, got {self.lengthscale}")
        if not 0 < self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be finite and > 0, got {self.noise_variance}")
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
    """A set of input locations (n x d, float64)."""

    points: np.ndarray

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
    return InputData(points=pts)


def gram(X: InputData, params: KernelParams, jitter: float = 0.0) -> GramMatrix:
    """Assemble the dense Gram matrix K + jitter * I on X.

    scipy's cdist fills K with the squared distances ||x - x'||^2 summed
    from direct differences, so nothing cancels however far the points
    lie from the origin, and since (x - x')^2 == (x' - x)^2 K is exactly
    symmetric. The scaling, the exponential and the variance are then
    applied in place: K is the only n x n array the call allocates. The
    cost is O(n^2 d), where a GEMM of the expanded distance costs about
    the same at any small d: at n = 2048 the two are level at d = 2, and
    cdist is 2-3 times slower at d = 20 and 4-5 times at d = 50. The
    diagonal is pinned to variance + jitter exactly, so changing the
    jitter of an assembled matrix only means rewriting its diagonal. A
    lengthscale whose square overflows gives the constant kernel, and one
    whose square underflows the white-noise kernel, without a warning.
    """
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if X.dim != params.dim:
        raise ValueError(f"dimension mismatch: inputs have d={X.dim}, params.dim={params.dim}")
    K = cdist(X.points, X.points, "sqeuclidean")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K /= -2.0 * np.float64(params.lengthscale) ** 2
    np.exp(K, out=K)
    K *= params.variance
    np.fill_diagonal(K, params.variance + jitter)
    return GramMatrix(entries=K, jitter=float(jitter))
