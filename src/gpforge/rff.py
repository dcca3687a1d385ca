"""Random-feature sampler: spectral frequencies, feature map, batch and
streaming generation.

Both generation paths reduce blocks of _BLOCK_POINTS points against
chunks of _CHUNK_ROWS frequency rows, replayed from their streams for
every block, through one function. Memory is independent of n and D,
and the streaming variant emits values bitwise equal to the batch one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from . import _streams
from .bounds import FidelitySpec
from .exact import GpSample, SampleMethod
from .kernel import InputData, KernelParams, _draw_inputs

# frequency rows per reduction chunk and points per reduction block;
# fixed so chunk and block edges (and therefore floating-point
# accumulation order) never depend on n or D
_CHUNK_ROWS = 256
_BLOCK_POINTS = 64


class PartialOutputError(RuntimeError):
    """Raised when a streaming sink fails after some elements were emitted."""

    def __init__(self, emitted: int, cause: Exception):
        self.emitted = emitted
        super().__init__(f"sink failed after {emitted} emitted elements: {cause}")


def _draw_frequencies(g: np.random.Generator, rows: int, params: KernelParams) -> np.ndarray:
    """The next `rows` rows of a frequency stream, each from Normal(0, I_d / l^2)."""
    return g.standard_normal((rows, params.dim)) / params.lengthscale


def sample_frequencies(D: int, params: KernelParams, seed: int) -> np.ndarray:
    """The (D/2) x d frequency rows, one per sine/cosine feature pair, from
    the spectral density Normal(0, I_d / l^2)."""
    FidelitySpec(D=D)  # rejects an odd or too small D
    return _draw_frequencies(_streams.stream(seed, _streams.FREQUENCIES), D // 2, params)


def _feature_rows(X: np.ndarray, omegas: np.ndarray, D: int) -> np.ndarray:
    """Interleaved sqrt(2/D)*(sin, cos) features of each row of X."""
    proj = X @ omegas.T
    out = np.empty((X.shape[0], 2 * omegas.shape[0]))
    scale = np.sqrt(2.0 / D)
    out[:, 0::2] = scale * np.sin(proj)
    out[:, 1::2] = scale * np.cos(proj)
    return out


def feature_map(x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """The D-dimensional random feature vector at a single point, for the
    (D/2) x d frequency rows `omegas`."""
    omegas = np.asarray(omegas, dtype=np.float64)
    if omegas.ndim != 2 or omegas.shape[0] < 1:
        raise ValueError(f"omegas must be a nonempty 2-d array, got shape {omegas.shape}")
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != omegas.shape[1]:
        raise ValueError(
            f"dimension mismatch: x has length {x.shape[0]}, frequencies have d={omegas.shape[1]}"
        )
    return _feature_rows(x[None, :], omegas, 2 * omegas.shape[0])[0]


def _reduce_blocks(
    blocks: Iterable[np.ndarray], params: KernelParams, D: int, seed: int
) -> Iterator[np.ndarray]:
    """Yield sigma_f * Z w for each block of points, Z the block's features.

    The frequency and weight streams are replayed from the start for
    every block, one chunk of _CHUNK_ROWS frequency rows at a time.
    """
    n_rows = D // 2
    sigma_f = np.sqrt(params.variance)
    for x in blocks:
        freq_stream = _streams.stream(seed, _streams.FREQUENCIES)
        weight_stream = _streams.stream(seed, _streams.WEIGHTS)
        acc = np.zeros(x.shape[0])
        for start in range(0, n_rows, _CHUNK_ROWS):
            rows = min(_CHUNK_ROWS, n_rows - start)
            z = _feature_rows(x, _draw_frequencies(freq_stream, rows, params), D)
            acc += z @ weight_stream.standard_normal(2 * rows)
        yield sigma_f * acc


def rff_sample(X: InputData, params: KernelParams, D: int, seed: int) -> GpSample:
    """Draw a random-feature sample on explicit inputs.

    y = sigma_f * Z w + xi with Z the feature matrix of X, w a standard
    normal weight vector and xi independent observation noise.
    """
    fidelity = FidelitySpec(D=D)  # rejects an odd or too small D
    blocks = (X.points[s : s + _BLOCK_POINTS] for s in range(0, X.n, _BLOCK_POINTS))
    # the empty head keeps an empty X valid
    f = np.concatenate([np.empty(0), *_reduce_blocks(blocks, params, D, seed)])
    xi = _streams.stream(seed, _streams.NOISE).standard_normal(X.n)
    y = f + np.sqrt(params.noise_variance) * xi
    return GpSample(
        y=y,
        f=f,
        method=SampleMethod.Rff,
        params=params,
        fidelity=fidelity,
        seed=seed,
    )


def rff_sample_streaming(
    n: int,
    params: KernelParams,
    D: int,
    seed: int,
    sink: Callable[[int, float], None],
) -> None:
    """Emit a random-feature sample one element at a time.

    Inputs and noise are drawn from their seed-derived streams one
    block of _BLOCK_POINTS points at a time, and each block goes
    through the same chunked reduction as rff_sample, so peak memory is
    independent of both n and D and the emitted values equal
    rff_sample(sample_inputs(n, params, seed), params, D, seed).y
    bitwise.
    """
    FidelitySpec(D=D)  # rejects an odd or too small D
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    sigma_xi = np.sqrt(params.noise_variance)
    input_stream = _streams.stream(seed, _streams.INPUTS)
    noise_stream = _streams.stream(seed, _streams.NOISE)
    blocks = (
        _draw_inputs(input_stream, min(_BLOCK_POINTS, n - s), params.dim)
        for s in range(0, n, _BLOCK_POINTS)
    )
    first = 0
    for f_block in _reduce_blocks(blocks, params, D, seed):
        y_block = f_block + sigma_xi * noise_stream.standard_normal(f_block.shape[0])
        for i, y_i in enumerate(y_block.tolist(), first):
            try:
                sink(i, y_i)
            except Exception as exc:
                raise PartialOutputError(emitted=i, cause=exc) from exc
        first += f_block.shape[0]
