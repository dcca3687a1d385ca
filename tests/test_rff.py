"""Fourier feature sampler: feature map, batch and streaming paths."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpforge import (
    InputData,
    KernelParams,
    PartialOutputError,
    SampleMethod,
    feature_map,
    gram,
    rff_element_budget,
    rff_min_features,
    rff_sample,
    rff_sample_streaming,
    sample_frequencies,
    sample_inputs,
)
from gpforge import _streams
from gpforge._streams import FREQUENCIES, WEIGHTS, stream
from gpforge.rff import (
    _BLOCK_POINTS,
    _CHUNK_ROWS,
    _REDUCTION_LIMIT,
    _STEP_HI,
    _STEP_LO,
    _TABLE,
    _TABLE_SIZE,
    _feature_rows,
)

PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)


class TestSampleFrequencies:
    def test_deterministic_per_seed(self):
        a = sample_frequencies(64, PARAMS, seed=5)
        b = sample_frequencies(64, PARAMS, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rows_are_the_frequency_stream(self):
        """The D/2 rows are the first D/2 rows of the seed's frequency
        stream divided by the lengthscale, bitwise, as float64."""
        p = KernelParams(variance=1.0, lengthscale=0.7, noise_variance=0.25, dim=3)
        got = sample_frequencies(600, p, seed=11)
        expect = stream(11, FREQUENCIES).standard_normal((300, 3)) / 0.7
        assert got.dtype == np.float64
        assert got.tobytes() == expect.tobytes()

    def test_minimal_even_count_shape(self):
        fm = sample_frequencies(2, PARAMS, seed=0)
        assert fm.shape == (1, 2)
        assert feature_map(np.zeros(2), fm).shape == (2,)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            sample_frequencies(7, PARAMS, seed=0)

    def test_entry_variance_tracks_inverse_lengthscale(self):
        """Frequency entries follow Normal(0, 1/l^2); at l=2 the sample
        variance over ten thousand entries stays within 3 standard
        errors of 0.25."""
        p = KernelParams(variance=1.0, lengthscale=2.0, noise_variance=0.25, dim=1)
        fm = sample_frequencies(20000, p, seed=17)
        entries = fm.ravel()
        assert entries.size == 10000
        se = 0.25 * math.sqrt(2.0 / (entries.size - 1))
        assert abs(float(np.var(entries, ddof=1)) - 0.25) < 3 * se


class TestFeatureMap:
    def test_unit_self_inner_product(self):
        """Pairing sine with cosine of the same frequency makes the
        feature vector unit length regardless of the input."""
        fm = sample_frequencies(128, PARAMS, seed=3)
        rng = np.random.default_rng(42)
        for _ in range(20):
            z = feature_map(rng.standard_normal(2), fm)
            assert float(z @ z) == pytest.approx(1.0, abs=1e-12)

    def test_paired_contribution_bound(self):
        """Each frequency pair contributes at most 2/D in magnitude."""
        D = 32
        fm = sample_frequencies(D, PARAMS, seed=9)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        zx, zy = feature_map(x, fm), feature_map(y, fm)
        pair_terms = (zx * zy).reshape(-1, 2).sum(axis=1)
        assert np.all(np.abs(pair_terms) <= 2.0 / D + 1e-15)

    def test_estimator_symmetric_in_inputs(self):
        fm = sample_frequencies(64, PARAMS, seed=12)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            fwd = float(feature_map(x, fm) @ feature_map(y, fm))
            rev = float(feature_map(y, fm) @ feature_map(x, fm))
            assert fwd == pytest.approx(rev, rel=1e-14)

    def test_unbiased_for_the_kernel(self):
        """Averaging the feature inner product over 200 independent
        frequency draws recovers the kernel value within 4 standard
        errors."""
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        vals = []
        for s in range(200):
            fm = sample_frequencies(64, PARAMS, seed=1000 + s)
            vals.append(float(feature_map(x, fm) @ feature_map(y, fm)))
        vals = np.array(vals)
        target = math.exp(-float(np.sum((x - y) ** 2)) / 2.0)  # the kernel at unit scales
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert abs(float(vals.mean()) - target) < 4 * se

    def test_dimension_mismatch_rejected(self):
        fm = sample_frequencies(8, PARAMS, seed=0)
        with pytest.raises(ValueError):
            feature_map(np.zeros(3), fm)

    @pytest.mark.parametrize(
        "omegas", [np.ones(2), np.zeros((0, 2)), np.ones((1, 1, 2))], ids=["1-d", "empty", "3-d"]
    )
    def test_frequencies_not_a_nonempty_matrix_rejected(self, omegas):
        with pytest.raises(ValueError, match="nonempty 2-d"):
            feature_map(np.zeros(2), omegas)


def libm_features(X, omegas, D):
    """The interleaved features from numpy's own sin and cos."""
    proj = X @ omegas.T
    out = np.empty((X.shape[0], 2 * omegas.shape[0]))
    out[:, 0::2] = math.sqrt(2.0 / D) * np.sin(proj)
    out[:, 1::2] = math.sqrt(2.0 / D) * np.cos(proj)
    return out


class TestSineCosine:
    """The table-and-Taylor sine and cosine behind every feature."""

    def test_table_against_arbitrary_precision_oracle(self):
        """Each table entry is within 1.2e-16 of the 40-digit sine or
        cosine of m 2pi/M, and within 5.6e-17 where long double is wider
        than float64 (measured: 5.5e-17 with an 80-bit long double,
        1.1e-16 in float64 alone)."""
        wide = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
        bound = 5.6e-17 if wide else 1.2e-16
        with mpmath.workdps(40):
            step = 2 * mpmath.pi / _TABLE_SIZE
            for m in range(_TABLE_SIZE):
                assert abs(mpmath.mpf(float(_TABLE[m].real)) - mpmath.sin(m * step)) <= bound
                assert abs(mpmath.mpf(float(_TABLE[m].imag)) - mpmath.cos(m * step)) <= bound

    def test_split_step_against_arbitrary_precision_oracle(self):
        """_STEP_HI keeps 26 bits, so k _STEP_HI is exact up to the guard,
        and _STEP_HI + _STEP_LO is 2pi/M closely enough that the
        reduction errs by under 1e-18 at the guard (measured: 2.5e-27
        per step)."""
        assert (_STEP_HI * 2.0**33).is_integer() and _STEP_HI * 2.0**33 < 2.0**26
        assert _REDUCTION_LIMIT / _STEP_HI == 2.0**27
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(_STEP_HI) + mpmath.mpf(_STEP_LO) - 2 * mpmath.pi / _TABLE_SIZE)
            assert 2**27 * err < 1e-18

    @pytest.mark.parametrize("D", [16, 1024, 6000])
    def test_features_against_arbitrary_precision_oracle(self, D):
        """Every feature is within 2.8e-16 sqrt(2/D) of sqrt(2/D) times
        the 40-digit sine or cosine of its projection, the bound the
        module docstring derives (measured: at most 2.3e-16, at D=6000,
        where sqrt(2/D) sits low in its binade)."""
        rng = np.random.default_rng(D)
        p = rng.standard_normal(400) * 10.0 ** rng.uniform(-3, 5.5, size=400)
        got = _feature_rows(np.ones((1, 1)), p[:, None], D)[0]
        scale = math.sqrt(2.0 / D)
        with mpmath.workdps(40):
            for j, p_j in enumerate(p):
                exact = (mpmath.sin(mpmath.mpf(p_j)), mpmath.cos(mpmath.mpf(p_j)))
                for value, e in zip(got[2 * j : 2 * j + 2], exact):
                    assert abs(mpmath.mpf(float(value)) - scale * e) <= 2.8e-16 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, _BLOCK_POINTS),
        r=st.integers(1, 40),
        d=st.integers(1, 4),
        log_scale=st.floats(-4.0, 5.5),
        pairs=st.integers(1, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_close_to_libm_below_the_guard(self, m, r, d, log_scale, pairs, seed):
        """Below the guard, every feature is within 4.5e-16 sqrt(2/D) of
        sqrt(2/D) times numpy's sin or cos, and a reused work buffer
        with stale contents gives the same features bitwise."""
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, d))
        omegas = rng.standard_normal((r, d)) * 10.0**log_scale
        assume(np.max(np.abs(X @ omegas.T)) < _REDUCTION_LIMIT)
        D = 2 * pairs
        got = _feature_rows(X, omegas, D)
        tol = 4.5e-16 * math.sqrt(2.0 / D)
        assert np.max(np.abs(got - libm_features(X, omegas, D))) <= tol
        stale = np.full(8 * _BLOCK_POINTS * 64, np.nan)
        assert _feature_rows(X, omegas, D, stale).tobytes() == got.tobytes()

    def test_edge_projections(self):
        """Zero, signed ties between table angles, multiples of a
        quarter turn and the largest projections below the guard stay
        within 4.5e-16 sqrt(2/D) of numpy's sin and cos."""
        half_step = math.pi / _TABLE_SIZE
        p = np.array(
            [0.0, -0.0, 5e-324, 1e-300, half_step, -half_step, 3 * half_step, 2047 * half_step]
            + [math.pi / 2, math.pi, -math.pi, 2 * math.pi, 1e5 * math.pi]
            + [np.nextafter(_REDUCTION_LIMIT, 0.0), -np.nextafter(_REDUCTION_LIMIT, 0.0)]
        )
        D = 8
        got = _feature_rows(np.ones((1, 1)), p[:, None], D)
        expect = libm_features(np.ones((1, 1)), p[:, None], D)
        assert np.max(np.abs(got - expect)) <= 4.5e-16 * math.sqrt(2.0 / D)

    @pytest.mark.parametrize("lengthscale", [1e-9, 1e-15])
    def test_beyond_the_guard_is_libm(self, lengthscale):
        """Tiny lengthscales push projections past the guard, where every
        feature is numpy's sin or cos bitwise, and each sin/cos pair
        still has squared norm 2/D within 1e-15."""
        p = KernelParams(variance=1.0, lengthscale=lengthscale, noise_variance=0.25, dim=2)
        D = 2 * _CHUNK_ROWS
        X = sample_inputs(_BLOCK_POINTS, p, seed=8).points
        omegas = sample_frequencies(D, p, seed=9)
        got = _feature_rows(X, omegas, D)
        assert got.tobytes() == libm_features(X, omegas, D).tobytes()
        pair_norms = (got.reshape(_BLOCK_POINTS, -1, 2) ** 2).sum(axis=2)
        assert np.max(np.abs(pair_norms - 2.0 / D)) <= 1e-15

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_projection_is_libm(self, bad):
        p = np.array([1.0, bad])[:, None]
        with np.errstate(invalid="ignore"):
            got = _feature_rows(np.ones((1, 1)), p, 4)
            expect = libm_features(np.ones((1, 1)), p, 4)
        np.testing.assert_array_equal(got, expect)


class TestRffSample:
    def test_deterministic_per_seed(self):
        X = sample_inputs(16, PARAMS, seed=4)
        a = rff_sample(X, PARAMS, 64, seed=7)
        b = rff_sample(X, PARAMS, 64, seed=7)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.method is SampleMethod.Rff
        assert a.fidelity.D == 64

    def test_odd_feature_count_rejected(self):
        X = sample_inputs(4, PARAMS, seed=4)
        with pytest.raises(ValueError):
            rff_sample(X, PARAMS, 9, seed=0)

    def test_dimension_mismatch_rejected_before_any_draw(self, monkeypatch):
        """Inputs of the wrong dimension get gram's message, before any
        stream is made."""
        calls = count_stream_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"dimension mismatch: inputs have d=3, params.dim=2"):
            rff_sample(InputData(np.zeros((4, 3))), PARAMS, 16, 0)
        assert calls == []

    def test_reduction_matches_feature_matrix(self):
        """The block-and-chunk reduction computes sigma_f * Z w for the
        feature matrix Z built point by point from sample_frequencies
        and the weight stream, up to the rounding bound of a length-D
        dot product, with n and D/2 past their block and chunk sizes."""
        p = KernelParams(variance=2.0, lengthscale=0.7, noise_variance=0.25, dim=3)
        n, D, seed = 2 * _BLOCK_POINTS + 7, 2 * (_CHUNK_ROWS + 9), 77
        X = sample_inputs(n, p, seed=seed)
        Z = np.stack([feature_map(x, sample_frequencies(D, p, seed)) for x in X.points])
        w = stream(seed, WEIGHTS).standard_normal(D)
        reference = math.sqrt(p.variance) * (Z @ w)
        bound = D * np.finfo(float).eps * math.sqrt(p.variance) * (np.abs(Z) @ np.abs(w))
        assert np.all(np.abs(rff_sample(X, p, D, seed).f - reference) <= bound)

    def test_scalar_variance_over_many_seeds(self):
        """At n=1 the marginal variance is exactly variance + noise
        because the feature vector has unit norm; check it over 20000
        independent seeds within 4 standard errors."""
        X = sample_inputs(1, PARAMS, seed=31)
        draws = np.array([rff_sample(X, PARAMS, 8, seed=r).y[0] for r in range(20000)])
        v = float(np.var(draws, ddof=1))
        se = 1.25 * math.sqrt(2.0 / (len(draws) - 1))
        assert abs(v - 1.25) < 4 * se

    def test_empirical_covariance_with_feature_slack(self):
        """The covariance over 20000 seeds matches the noisy Gram matrix
        up to Monte-Carlo error plus the feature-count deviation budget
        at D=4096 (each seed redraws the frequencies, so the estimator
        is unbiased and the budget term is pure headroom)."""
        n, D, reps = 4, 4096, 20000
        X = sample_inputs(n, PARAMS, seed=55)
        K = gram(X, PARAMS, jitter=PARAMS.noise_variance)
        draws = np.stack([rff_sample(X, PARAMS, D, seed=r).y for r in range(reps)])
        emp = draws.T @ draws / reps
        element_slack = math.sqrt(8.0 * math.log(n / math.sqrt(0.01)) / D)
        for i in range(n):
            for j in range(n):
                se = math.sqrt((K.entries[i, i] * K.entries[j, j] + K.entries[i, j] ** 2) / reps)
                assert abs(emp[i, j] - K.entries[i, j]) < 4 * se + element_slack


def count_stream_calls(monkeypatch):
    """Record the tag of every stream made while the test runs."""
    calls = []

    def counted(seed, tag):
        calls.append(tag)
        return stream(seed, tag)

    monkeypatch.setattr(_streams, "stream", counted)
    return calls


class TestStreamingEquivalence:
    def collect(self, n, D, seed, params=PARAMS):
        out = []
        rff_sample_streaming(n, params, D, seed, lambda i, v: out.append((i, v)))
        return out

    def test_matches_batch_bitwise(self):
        """Streaming regenerates inputs, frequencies, weights and noise
        from the same counter streams, so its output equals the batch
        sampler exactly, not merely to rounding."""
        n, D, seed = 256, 128, 2024
        X = sample_inputs(n, PARAMS, seed=seed)
        batch = rff_sample(X, PARAMS, D, seed=seed)
        streamed = self.collect(n, D, seed)
        assert [i for i, _ in streamed] == list(range(n))
        np.testing.assert_array_equal(np.array([v for _, v in streamed]), batch.y)

    def test_matches_batch_across_chunk_boundaries(self):
        """A frequency matrix taller than one replay chunk exercises the
        chunked accumulation path; equality must still be exact."""
        n, D, seed = 8, 1100, 11
        X = sample_inputs(n, PARAMS, seed=seed)
        batch = rff_sample(X, PARAMS, D, seed=seed)
        streamed = self.collect(n, D, seed)
        np.testing.assert_array_equal(np.array([v for _, v in streamed]), batch.y)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 3 * _BLOCK_POINTS),
        pairs=st.integers(1, 2 * _CHUNK_ROWS + 8),
        seed=st.integers(0, 2**63 - 1),
    )
    @example(n=2 * _BLOCK_POINTS + 5, pairs=_CHUNK_ROWS + 3, seed=0)
    @example(n=_BLOCK_POINTS + 1, pairs=2 * _CHUNK_ROWS + 1, seed=1)
    def test_matches_batch_for_random_sizes(self, n, pairs, seed):
        """Bitwise equality holds for any (n, D, seed), including a
        partial point block after full ones and a partial frequency
        chunk after full ones."""
        D = 2 * pairs
        batch = rff_sample(sample_inputs(n, PARAMS, seed), PARAMS, D, seed)
        streamed = np.array([v for _, v in self.collect(n, D, seed)])
        assert np.array_equal(streamed, batch.y)

    @pytest.mark.parametrize("n", [3 * _BLOCK_POINTS, 10 * _BLOCK_POINTS + 1])
    def test_streams_replayed_not_rebuilt(self, monkeypatch, n):
        """One streaming call makes each of its four streams once, at any
        n: the frequency and weight streams are replayed for each block
        by restoring their saved states."""
        calls = count_stream_calls(monkeypatch)
        rff_sample_streaming(n, PARAMS, 2 * _CHUNK_ROWS + 8, 3, lambda i, v: None)
        assert sorted(calls) == sorted([_streams.INPUTS, _streams.NOISE, FREQUENCIES, WEIGHTS])

    def test_single_element(self):
        streamed = self.collect(1, 16, 5)
        assert len(streamed) == 1
        assert streamed[0][0] == 0

    def test_no_elements_is_refused(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            self.collect(0, 16, 5)

    def test_sink_failure_aborts_with_progress(self):
        def sink(i, v):
            if i == 3:
                raise IOError("disk full")

        with pytest.raises(PartialOutputError) as info:
            rff_sample_streaming(10, PARAMS, 16, 0, sink)
        assert info.value.emitted == 3

    def test_memory_high_water_independent_of_length(self):
        """Doubling n must not grow the peak allocation: the streaming
        path holds one replay chunk at a time, never the feature
        matrix."""
        D = 256

        def peak_bytes(n):
            sink = lambda i, v: None
            tracemalloc.start()
            rff_sample_streaming(n, PARAMS, D, 1, sink)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        peak_bytes(16)
        small = peak_bytes(64)
        large = peak_bytes(128)
        assert large < 1.5 * small + 65536


class TestFeatureCountGuarantee:
    def test_element_deviation_within_budget(self):
        """Run 500 independent feature draws at the recommended count
        and check the worst Gram-entry deviation stays under the
        per-entry budget in at least a 1 - delta fraction, up to
        binomial noise."""
        n, eps, delta, s2 = 8, 1.0, 0.05, 1.0
        p = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=s2, dim=2)
        D = rff_min_features(n, eps, delta, s2)
        budget = rff_element_budget(n, eps, s2)
        X = sample_inputs(n, p, seed=606)
        K1 = gram(X, p, jitter=0.0)
        hits = 0
        trials = 500
        for t in range(trials):
            fm = sample_frequencies(D, p, seed=40_000 + t)
            Z = np.stack([feature_map(x, fm) for x in X.points])
            hits += float(np.max(np.abs(Z @ Z.T - K1.entries))) < budget
        frac = hits / trials
        floor = (1.0 - delta) - 1.96 * math.sqrt(delta * (1 - delta) / trials)
        assert frac >= floor
