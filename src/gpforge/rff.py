"""Random-feature sampler: spectral frequencies, feature map, batch and
streaming generation.

Both generation paths reduce blocks of _BLOCK_POINTS points against
chunks of _CHUNK_ROWS frequency rows, replayed from their streams for
every block, through one function. Memory is independent of n and D,
and the streaming variant emits values bitwise equal to the batch one.

Sine and cosine of each projection p share one float64 range reduction
(Cody & Waite 1980): p = k 2pi/M + r with |r| <= pi/M, read sin and cos
of k 2pi/M from a table of M = _TABLE_SIZE angles and rotate by r with a
short Taylor step. Every feature is within 2.8e-16 sqrt(2/D) of its
exact value: 5.6e-17 from the table and half an ulp of sqrt(2/D) each
from scaling the table and adding the step (at most 2.3e-16 seen
against mpmath, where numpy's libm sin and cos give 1.5e-16). Each
sin/cos pair has squared norm 2/D to within 1e-15. The step 2pi/M is
held as _STEP_HI + _STEP_LO, where _STEP_HI keeps 26 bits so that
k _STEP_HI is exact for |k| <= 2^27. A block with any |p| at or beyond
_REDUCTION_LIMIT = 2^27 _STEP_HI (about 8.2e5), or a non-finite p, is
evaluated wholly by numpy's sin and cos instead; tiny lengthscales
reach it.
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

# table angles per turn, and 2pi/M = (pi + _PI_LO)/(M/2) split into 26
# leading bits and the rest; pi/(M/2) is exact as M is a power of two
_TABLE_SIZE = 1024
_PI_LO = 1.2246467991473532e-16  # pi - float(pi), rounded to float64
_STEP_HI = float(np.floor(np.pi / (_TABLE_SIZE // 2) * 2.0**33) / 2.0**33)
_STEP_LO = (np.pi / (_TABLE_SIZE // 2) - _STEP_HI) + _PI_LO / (_TABLE_SIZE // 2)
_REDUCTION_LIMIT = 2.0**27 * _STEP_HI


def _angle_table() -> np.ndarray:
    """sin(m 2pi/M) + i cos(m 2pi/M) for m < M, each part within 5.6e-17.
    The angle is m _STEP_HI (exact) plus m _STEP_LO (below 6.4e-8), added
    by the angle-sum formula to second order in long double, which is
    wider than float64 where the platform has it."""
    m = np.arange(_TABLE_SIZE, dtype=np.longdouble)
    lo = m * _STEP_LO
    sin_hi, cos_hi = np.sin(m * _STEP_HI), np.cos(m * _STEP_HI)
    half_lo2 = lo * lo / 2
    table = np.empty(_TABLE_SIZE, dtype=np.complex128)
    table.real = sin_hi + (cos_hi * lo - sin_hi * half_lo2)
    table.imag = cos_hi - (sin_hi * lo + cos_hi * half_lo2)
    return table


_TABLE = _angle_table()


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


def _feature_rows(
    X: np.ndarray, omegas: np.ndarray, D: int, work: np.ndarray | None = None
) -> np.ndarray:
    """Interleaved sqrt(2/D)*(sin, cos) features of each row of X.

    Each feature is within 2.8e-16 sqrt(2/D) of its exact value, by the
    table and Taylor step of the module docstring; a call with any
    projection beyond _REDUCTION_LIMIT (or not finite) takes numpy's
    sin and cos for every entry instead. `work`, a float64 vector of at
    least 8 m r elements for m points and r frequency rows, holds the
    result and every temporary; a caller that reuses it across calls
    allocates nothing per call, and the result is a view into it.
    """
    m, r = X.shape[0], omegas.shape[0]
    if work is None:
        work = np.empty(8 * m * r)
    parts = work[: 8 * m * r].reshape(8, m, r)
    out = parts[:2].reshape(m, 2 * r)
    proj, k, t = parts[2:5]
    rot = parts[5:7].reshape(m, 2 * r).view(np.complex128)
    idx = parts[7].view(np.int64)
    scale = np.sqrt(2.0 / D)
    np.matmul(X, omegas.T, out=proj)
    if not max(proj.max(), -proj.min()) < _REDUCTION_LIMIT:
        np.multiply(scale, np.sin(proj), out=out[:, 0::2])
        np.multiply(scale, np.cos(proj), out=out[:, 1::2])
        return out
    # p = k 2pi/M + r: k _STEP_HI and p - k _STEP_HI are exact
    np.multiply(proj, _TABLE_SIZE / (2 * np.pi), out=k)
    np.rint(k, out=k)
    np.copyto(idx, k, casting="unsafe")
    idx &= _TABLE_SIZE - 1  # k mod M; mode="wrap" costs more than this
    np.multiply(k, _STEP_HI, out=t)
    proj -= t
    np.multiply(k, _STEP_LO, out=t)
    proj -= t  # proj now holds r
    r2 = np.multiply(proj, proj, out=k)
    np.multiply(r2, -1 / 120, out=t)
    t += 1 / 6
    t *= r2
    t *= proj
    np.subtract(t, proj, out=rot.imag)  # -sin r = -r + r^3/6 - r^5/120
    np.multiply(r2, 1 / 24, out=t)
    t -= 0.5
    np.multiply(t, r2, out=rot.real)  # cos r - 1 = -r^2/2 + r^4/24
    # each (sin, cos) pair of out is the complex number S + iC from the
    # table; (S + iC)(cos r - i sin r) = sin p + i cos p, added as
    # S + iC + (S + iC)(cos r - 1 - i sin r) to keep the step small
    table = out.view(np.complex128)
    np.take(scale * _TABLE, idx, out=table, mode="clip")
    rot *= table
    table += rot
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
    every block, by restoring their saved states, one chunk of
    _CHUNK_ROWS frequency rows at a time. One work buffer serves every
    chunk's features.
    """
    n_rows = D // 2
    sigma_f = np.sqrt(params.variance)
    freq_stream = _streams.stream(seed, _streams.FREQUENCIES)
    weight_stream = _streams.stream(seed, _streams.WEIGHTS)
    freq_start = freq_stream.bit_generator.state
    weight_start = weight_stream.bit_generator.state
    work = np.empty(8 * _BLOCK_POINTS * min(_CHUNK_ROWS, n_rows))
    for x in blocks:
        freq_stream.bit_generator.state = freq_start
        weight_stream.bit_generator.state = weight_start
        acc = np.zeros(x.shape[0])
        for start in range(0, n_rows, _CHUNK_ROWS):
            rows = min(_CHUNK_ROWS, n_rows - start)
            z = _feature_rows(x, _draw_frequencies(freq_stream, rows, params), D, work)
            acc += z @ weight_stream.standard_normal(2 * rows)
        yield sigma_f * acc


def rff_sample(X: InputData, params: KernelParams, D: int, seed: int) -> GpSample:
    """Draw a random-feature sample on explicit inputs.

    y = sigma_f * Z w + xi with Z the feature matrix of X, w a standard
    normal weight vector and xi independent observation noise.
    """
    fidelity = FidelitySpec(D=D)  # rejects an odd or too small D
    if X.dim != params.dim:
        raise ValueError(f"dimension mismatch: inputs have d={X.dim}, params.dim={params.dim}")
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
