"""Tests for fractional-delay channel construction and application."""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precofdm import channel
from precofdm.channel import (
    DEFAULT_FIR_HALF_LEN,
    ChannelOperator,
    ChannelRealization,
    ChannelSpec,
    PathSpec,
    builtin_channel_spec,
    cdlc_channel_spec,
    exp_profile_spec,
    integer_channel_spec,
    load_channel_profile,
    mild_channel_spec,
    prefix_length_for,
    realize,
    severe_channel_spec,
)
from precofdm.errors import ParameterError


def dense(op):
    """The whole stream matrix, stacked from ``op.block``."""
    nb = op.realization.n_blocks
    return np.block([[op.block(l, lp) for lp in range(nb)] for l in range(nb)])


def one_path_operator(delay, block_len, n_blocks=1):
    """Exact (untruncated) operator of a unit-gain path."""
    spec = ChannelSpec((PathSpec(delay=delay, gain=1.0 + 0.0j),), math.ceil(delay))
    return ChannelOperator(
        realize(spec, 0, block_len=block_len, n_blocks=n_blocks), half_len=None
    )


def taps_at(lag0, taps, lags):
    """Taps of an FIR starting at ``lag0``, read at ``lags`` (zero outside)."""
    out = np.zeros(lags.shape, dtype=taps.dtype)
    idx = lags - lag0
    ok = (idx >= 0) & (idx < len(taps))
    out[ok] = taps[idx[ok]]
    return out


class TestStreamBlock:
    @settings(max_examples=300, deadline=None)
    @given(
        lag0=st.integers(-80, 80),
        n_taps=st.integers(1, 40),
        complex_taps=st.booleans(),
        block_len=st.integers(1, 30),
        base=st.integers(-160, 160),
        seed=st.integers(0, 2**16),
    )
    # blocks wholly past and wholly before the FIR, and one that holds it
    @example(lag0=0, n_taps=5, complex_taps=False, block_len=3, base=40, seed=0)
    @example(lag0=0, n_taps=5, complex_taps=True, block_len=3, base=-40, seed=0)
    @example(lag0=-2, n_taps=5, complex_taps=True, block_len=12, base=0, seed=0)
    def test_gather_is_toeplitz_of_tap_reads(
        self, lag0, n_taps, complex_taps, block_len, base, seed
    ):
        rng = np.random.default_rng(seed)
        taps = rng.standard_normal(n_taps)
        if complex_taps:
            taps = taps + 1j * rng.standard_normal(n_taps)
        lags = np.arange(block_len)
        want = scipy.linalg.toeplitz(
            taps_at(lag0, taps, base + lags), taps_at(lag0, taps, base - lags)
        )
        got = channel._stream_block(lag0, taps, block_len, base)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestSincDelayMatrix:
    """The delay matrix of one path, as ``ChannelOperator.block`` reads it."""

    def test_zero_delay_is_identity(self):
        assert np.array_equal(one_path_operator(0.0, 6).block(0, 0), np.eye(6))

    def test_integer_delay_is_exact_subdiagonal(self):
        t = one_path_operator(3.0, 8).block(0, 0)
        expected = np.zeros((8, 8))
        for i in range(3, 8):
            expected[i, i - 3] = 1.0
        assert np.array_equal(t, expected)

    def test_fractional_matches_elementwise_sinc(self):
        # block (1, 0) is offset by one block of rows
        t = one_path_operator(0.5, 8, n_blocks=2).block(1, 0)
        for l in range(8):
            for k in range(8):
                x = l + 8 - k - 0.5
                assert t[l, k] == pytest.approx(
                    np.sin(np.pi * x) / (np.pi * x), abs=1e-15
                )

    def test_half_sample_row_energy(self):
        t = one_path_operator(0.5, 8).block(0, 0)
        energies = np.sum(np.abs(t) ** 2, axis=1)
        assert np.all(energies > 0.0) and np.all(energies <= 1.0 + 1e-12)

    def test_bad_shape(self):
        spec = ChannelSpec((PathSpec(delay=0.1, gain=1.0 + 0.0j),), 1.0)
        for block_len, n_blocks, message in (
            (0, 4, "block_len must be >= 1"), (4, 0, "n_blocks must be >= 1"),
            (2.5, 3, "block_len must be a whole number"),
            (3, 2.5, "n_blocks must be a whole number"),
            (math.nan, 3, "block_len must be a whole number"),
            (3.0, 2, "block_len must be a whole number"),
        ):
            with pytest.raises(ParameterError, match=message):
                realize(spec, 0, block_len=block_len, n_blocks=n_blocks)
        real = realize(spec, 0, block_len=np.int64(3), n_blocks=np.int64(2))
        assert real.stream_len == 6


def two_path_realization(block_len=8, n_blocks=3):
    spec = ChannelSpec(
        (
            PathSpec(delay=0.3, gain=0.5 + 0.2j),
            PathSpec(delay=2.0, gain=0.1 - 0.7j),
        ),
        max_delay=3.0,
    )
    return realize(spec, 0, block_len=block_len, n_blocks=n_blocks)


class TestChannelOperator:
    def test_identity_path(self):
        spec = ChannelSpec((PathSpec(delay=0.0, gain=1.0 + 0.0j),), 0.0)
        op = ChannelOperator(realize(spec, 0, block_len=5, n_blocks=2))
        x = np.arange(10.0) + 1j
        assert np.allclose(op.apply(x), x, atol=1e-14)
        assert np.array_equal(dense(op), np.eye(10))

    def test_factorization_consistency(self):
        real = two_path_realization()
        h = dense(ChannelOperator(real, half_len=None))
        n = real.stream_len
        lags = np.arange(n)[:, None] - np.arange(n)[None, :]
        explicit = np.zeros((n, n), dtype=complex)
        for path, gain in zip(real.spec.paths, real.drawn_gains):
            explicit += gain * np.sinc(lags - path.delay)
        assert np.max(np.abs(h - explicit)) <= 1e-10

    def test_integer_taps_strictly_banded(self):
        spec = exp_profile_spec(0.5, np.arange(0.0, 4.0), max_delay=4.0)
        op = ChannelOperator(realize(spec, 1, block_len=10, n_blocks=2))
        h = dense(op)
        for i in range(20):
            for j in range(20):
                if not 0 <= i - j <= 3:
                    assert h[i, j] == 0.0

    def test_single_fractional_tap_fills_all_diagonals(self):
        spec = ChannelSpec((PathSpec(delay=0.5, gain=1.0 + 0.0j),), 1.0)
        h = dense(ChannelOperator(realize(spec, 0, block_len=8, n_blocks=1)))
        assert np.all(np.abs(h) > 0.0)

    def test_fractional_row_matches_integer_expansion(self):
        spec = ChannelSpec((PathSpec(delay=2.7, gain=1.0 + 0.0j),), 3.0)
        h = dense(ChannelOperator(realize(spec, 0, block_len=16, n_blocks=1)))
        for k in range(16):
            x = 8 - k - 2.7
            assert h[8, k] == pytest.approx(np.sin(np.pi * x) / (np.pi * x), abs=1e-12)

    def test_dense_and_streaming_agree(self):
        real = two_path_realization(block_len=13, n_blocks=3)
        op = ChannelOperator(real)  # default truncation covers this size
        rng = np.random.default_rng(5)
        x = rng.standard_normal(39) + 1j * rng.standard_normal(39)
        assert np.max(np.abs(op.apply(x) - dense(op) @ x)) <= 1e-9

    def test_energy_preservation_interior(self):
        spec = ChannelSpec((PathSpec(delay=3.4, gain=1.0 + 0.0j),), 4.0)
        op = ChannelOperator(
            realize(spec, 0, block_len=512, n_blocks=4), half_len=None
        )
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(2048) + 1j * rng.standard_normal(2048)) / np.sqrt(2)
        y = op.apply(x)
        interior = y[128:-128]
        p_in = np.mean(np.abs(x[128:-128]) ** 2)
        p_out = np.mean(np.abs(interior) ** 2)
        assert abs(p_out / p_in - 1.0) < 0.01

    def test_block_matches_dense_slice(self):
        real = two_path_realization(block_len=8, n_blocks=3)
        op = ChannelOperator(real, half_len=None)
        h = dense(op)
        for l in range(3):
            for lp in range(3):
                blk = op.block(l, lp)
                assert np.max(np.abs(blk - h[l * 8:(l + 1) * 8, lp * 8:(lp + 1) * 8])) <= 1e-12

    def test_block_out_of_range(self):
        op = ChannelOperator(two_path_realization())
        with pytest.raises(ParameterError):
            op.block(0, 5)

    @pytest.mark.parametrize("length", [23, 25])
    def test_stream_length_checked(self, length):
        op = ChannelOperator(two_path_realization())
        with pytest.raises(ParameterError, match="expected stream of length 24"):
            op.apply(np.ones(length))

    def test_integer_taps_with_prefix_clear_after_removal(self):
        # integer-delay taps only reach rows below the prefix length of the
        # following block, so the receiver-visible part of off-diagonal
        # blocks is exactly zero
        spec = exp_profile_spec(0.5, np.arange(0.0, 4.0), max_delay=4.0)
        g = 4
        op = ChannelOperator(realize(spec, 3, block_len=12 + g, n_blocks=3))
        blk = op.block(1, 0)
        assert np.array_equal(blk[g:, :], np.zeros((12, 12 + g)))


def per_path_kernels(real, half_len):
    """(first lag, kernel, gain) per path, each kernel its own sinc call.

    k_p is the unit tap at an integer delay and otherwise the sinc sampled
    at lags floor(tau) -+ half_len (every lag of the stream when ``None``),
    from one ``_sinc_window`` call of that path alone (whose accuracy
    ``TestSincWindow`` in test_isimetrics.py checks).
    """
    n = real.stream_len
    paths = []
    for gain, path in zip(real.drawn_gains, real.spec.paths):
        tau = path.delay
        if float(tau).is_integer():
            lag0, taps = int(tau), np.ones(1)
        else:
            lag0 = -(n - 1) if half_len is None else math.floor(tau) - half_len
            end = n if half_len is None else math.floor(tau) + half_len + 1
            taps = channel._sinc_window(lag0, end - lag0, [tau])[0]
        paths.append((lag0, taps, gain))
    return paths


def per_path_taps(real, half_len):
    """The composite FIR (first lag, taps), accumulated path by path.

    Starts from zeros on the union of the windows and adds ``gain x kernel``
    into each path's slice, in path order.
    """
    paths = per_path_kernels(real, half_len)
    lag0 = min(first for first, _, _ in paths)
    end = max(first + taps.size for first, taps, _ in paths)
    out = np.zeros(end - lag0, dtype=np.complex128)
    for first, taps, gain in paths:
        out[first - lag0 : first - lag0 + taps.size] += gain * taps
    return lag0, out


def per_path_reference(real, half_len):
    """Stream matrix and a filter from one np.convolve per path.

    Returns (H, apply) with H[i, j] = sum_p g_p k_p(i - j), k_p as in
    ``per_path_kernels``.
    """
    n = real.stream_len
    idx = np.arange(n)
    paths = per_path_kernels(real, half_len)

    def apply(x):
        y = np.zeros(n, dtype=complex)
        for lag0, taps, gain in paths:
            full = np.convolve(x, taps)
            lo, hi = max(0, lag0), min(n, lag0 + full.size)
            delayed = np.zeros(n, dtype=complex)
            if hi > lo:
                delayed[lo:hi] = full[lo - lag0 : hi - lag0]
            y += gain * delayed
        return y

    h = np.zeros((n, n), dtype=complex)
    lags = idx[:, None] - idx[None, :]
    for lag0, taps, gain in paths:
        k = lags - lag0
        inside = (k >= 0) & (k < taps.size)
        h += gain * np.where(inside, taps[np.clip(k, 0, taps.size - 1)], 0.0)
    return h, apply


def assert_rel_close(a, reference, rel=1e-12):
    assert np.linalg.norm(a - reference) <= rel * np.linalg.norm(reference)


class TestFftConvolve:
    @settings(max_examples=80, deadline=None)
    @given(
        n_x=st.integers(1, 300),
        n_taps=st.integers(1, 200),
        x_kind=st.sampled_from(["complex", "float", "int"]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_scipy_signal(self, n_x, n_taps, x_kind, seed):
        rng = np.random.default_rng(seed)
        x = {
            "complex": lambda: rng.standard_normal(n_x) + 1j * rng.standard_normal(n_x),
            "float": lambda: rng.standard_normal(n_x),
            "int": lambda: rng.integers(-3, 4, n_x),
        }[x_kind]()
        taps = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
        got = channel._fft_convolve(x, taps)
        want = scipy.signal.fftconvolve(x, taps)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_package_import_leaves_out_scipy_signal(self):
        # scipy.signal costs some 40 MB of resident memory and 400 modules,
        # scipy.fft and scipy.special some 5 MB more
        code = (
            "import sys, precofdm.cli; print([name in sys.modules for name in "
            "('scipy.signal', 'scipy.fft', 'scipy.special')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "[False, False, False]"

    def test_good_size_is_scipy_next_fast_len(self):
        # scipy.fft is the oracle here only; the package uses numpy.fft
        for n in range(1, 20001):
            assert channel._good_size(n) == scipy.fft.next_fast_len(n, False), n


class TestCompositeFilter:
    @settings(max_examples=60, deadline=None)
    @given(
        block_len=st.integers(1, 20),
        n_blocks=st.integers(1, 2),
        delays=st.lists(
            st.one_of(
                st.integers(0, 6).map(float),
                st.floats(0.0, 6.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=6,
        ),
        half_len=st.one_of(st.none(), st.integers(0, 70)),
        seed=st.integers(0, 2**16),
    )
    # the integer path's unit tap falls outside the 2-sample stream and the
    # other path's sinc is round-off: the reference output is 4.3e-16 in norm
    @example(
        block_len=1, n_blocks=2, delays=[2.0, 1.9999999999999991], half_len=None,
        seed=0,
    )
    def test_matches_per_path_reference(
        self, block_len, n_blocks, delays, half_len, seed
    ):
        paths = tuple(
            PathSpec(delay=d, gain_power=1.0 / (1 + i)) for i, d in enumerate(delays)
        )
        real = realize(
            ChannelSpec(paths, max_delay=6.0), seed,
            block_len=block_len, n_blocks=n_blocks,
        )
        op = ChannelOperator(real, half_len=half_len)
        h, reference_apply = per_path_reference(real, half_len)
        rng = np.random.default_rng(seed)
        n = real.stream_len
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # the FFT convolution's round-off scales with the taps and the input,
        # not with the output, which the stream's ends may cut to round-off
        ref = reference_apply(x)
        taps_l1 = np.sum(np.abs(per_path_taps(real, half_len)[1]))
        assert np.linalg.norm(op.apply(x) - ref) <= 1e-12 * max(
            np.linalg.norm(ref), taps_l1 * np.linalg.norm(x)
        )
        assert_rel_close(dense(op), h)
        b = block_len
        for l in range(n_blocks):
            for lp in range(n_blocks):
                ref = h[l * b : (l + 1) * b, lp * b : (lp + 1) * b]
                assert_rel_close(op.block(l, lp), ref)

    def test_one_convolution_per_apply(self, monkeypatch):
        calls = []
        fft_convolve = channel._fft_convolve

        def counted(*args, **kwargs):
            calls.append(1)
            return fft_convolve(*args, **kwargs)

        monkeypatch.setattr(channel, "_fft_convolve", counted)
        # the 24 CDL-C paths, then a fractional and an integer path
        real = realize(cdlc_channel_spec(1000.0), 0, block_len=145, n_blocks=3)
        ChannelOperator(real).apply(np.ones(real.stream_len))
        assert len(calls) == 1
        ChannelOperator(two_path_realization()).apply(np.ones(24))
        assert len(calls) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        block_len=st.integers(1, 12),
        n_blocks=st.integers(1, 3),
        paths=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 6).map(float),
                    st.floats(0.0, 6.0, allow_nan=False, allow_infinity=False),
                ),
                # fixed gains with a zero part make signed zeros show
                st.one_of(
                    st.floats(0.1, 2.0),
                    st.sampled_from([-1.0 + 0.0j, 1j, -1j, -0.5 - 0.5j, 2.0 + 0.0j]),
                ),
            ),
            min_size=1, max_size=12,
        ),
        half_len=st.one_of(st.none(), st.integers(0, 70)),
        seed=st.integers(0, 2**16),
    )
    # twelve fractional paths on the one-lag grid of a one-sample stream: a
    # reduction over the paths would add them pairwise, not in path order
    @example(
        block_len=1, n_blocks=1, paths=[(0.25 + 0.5 * k, 1.0) for k in range(12)],
        half_len=None, seed=0,
    )
    # lags 1 and 2 lie in no window; each gain of -1 leaves a -0.0 there
    @example(
        block_len=4, n_blocks=1, paths=[(0.0, -1.0 + 0.0j), (3.0, -1.0 + 0.0j)],
        half_len=5, seed=0,
    )
    def test_taps_bit_identical_to_per_path_sum(
        self, block_len, n_blocks, paths, half_len, seed
    ):
        # the one array evaluation against the per-path slices it replaced,
        # compared as bytes so that signed zeros count
        specs = tuple(
            PathSpec(delay=d, gain=g) if isinstance(g, complex)
            else PathSpec(delay=d, gain_power=g)
            for d, g in paths
        )
        real = realize(
            ChannelSpec(specs, max_delay=6.0), seed,
            block_len=block_len, n_blocks=n_blocks,
        )
        op = ChannelOperator(real, half_len=half_len)
        lag0, ref = per_path_taps(real, half_len)
        assert op._lag0 == lag0
        assert op._taps.shape == ref.shape
        assert np.array_equal(op._taps.view(np.uint8), ref.view(np.uint8))

    def test_negative_half_len_rejected(self):
        # whole numbers >= 0 (numpy integers too) or None; a fraction, NaN
        # or a float would put the kernel on a non-integer lag grid
        real = two_path_realization()
        with pytest.raises(ParameterError, match="half_len must be >= 0, got -1"):
            ChannelOperator(real, half_len=-1)
        for bad in (2.5, math.nan, 3.0, np.float64(3.0), "3"):
            with pytest.raises(ParameterError, match="half_len must be a whole number"):
                ChannelOperator(real, half_len=bad)
        for good in (0, 3, np.int64(3), None):
            ChannelOperator(real, half_len=good)


class TestPathKernelCache:
    """The per-path kernels: no module cache, so each call evaluates them
    afresh, read-only, and a caller that reuses them (an SER run, for its
    trials) holds them itself."""

    @staticmethod
    def spec():
        return ChannelSpec(
            (PathSpec(0.0, gain_power=1.0), PathSpec(1.25, gain_power=0.5),
             PathSpec(3.0, gain_power=0.25), PathSpec(4.6, gain_power=0.1)),
            max_delay=5.0,
        )

    @pytest.mark.parametrize("half_len", [None, 0, 7, DEFAULT_FIR_HALF_LEN])
    def test_cached_taps_bit_equal_to_uncached(self, half_len):
        # taps summed from kernels held across calls are the bits of every
        # operator's own evaluation and of the per-path sum
        real = realize(self.spec(), 4, block_len=9, n_blocks=3)
        lag0, held = channel._path_kernels(real.spec, real.stream_len, half_len)
        again = channel._path_kernels(real.spec, real.stream_len, half_len)
        assert again[1] is not held and again[0] == lag0
        assert np.array_equal(again[1].view(np.uint8), held.view(np.uint8))
        taps = channel._composite_taps(real.drawn_gains, held)
        ref_lag0, ref = per_path_taps(real, half_len)
        assert lag0 == ref_lag0
        assert np.array_equal(taps.view(np.uint8), ref.view(np.uint8))
        for op in (ChannelOperator(real, half_len=half_len) for _ in range(2)):
            assert op._lag0 == lag0
            assert np.array_equal(op._taps.view(np.uint8), taps.view(np.uint8))

    def test_exact_kernels_keyed_by_stream_length(self):
        spec = self.spec()
        short = ChannelOperator(realize(spec, 0, block_len=5, n_blocks=2), half_len=None)
        long = ChannelOperator(realize(spec, 0, block_len=5, n_blocks=3), half_len=None)
        # every lag of each stream: -(n - 1) ... n - 1 for the fractional paths
        assert (short._lag0, short._taps.size) == (-9, 19)
        assert (long._lag0, long._taps.size) == (-14, 29)
        for op in (short, long):
            lag0, ref = per_path_taps(op.realization, None)
            assert op._lag0 == lag0 and np.array_equal(op._taps, ref)

    @pytest.mark.parametrize("half_len", [0, 7, DEFAULT_FIR_HALF_LEN])
    def test_whole_half_len_kernels_same_on_any_stream(self, half_len):
        # so an SER run evaluates its kernels once, on one block, for its
        # window, its path stack and every trial's filter
        b = 145
        for spec in (self.spec(), cdlc_channel_spec(1000.0)):
            lag0, ref = channel._path_kernels(spec, b, half_len)
            for stream_len in (1, 16 * b, 42 * b):
                got = channel._path_kernels(spec, stream_len, half_len)
                assert got[0] == lag0
                assert np.array_equal(got[1].view(np.uint8), ref.view(np.uint8))

    def test_cached_kernels_read_only(self):
        lag0, kernels = channel._path_kernels(self.spec(), 20, 3)
        assert not kernels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kernels[0, 0] = 2.0
        # one row per path on the union of the windows: 0, 1.25 -+ 3, 3 and
        # 4.6 -+ 3 reach lags -2 ... 7
        assert (lag0, kernels.shape) == (-2, (4, 10))

    def test_path_list_spec_hashable(self):
        # a list of paths becomes a tuple, so the frozen spec hashes
        paths = [PathSpec(0.5, gain_power=1.0), PathSpec(2.0, gain=1j)]
        spec = ChannelSpec(paths, max_delay=2.0)
        assert spec == ChannelSpec(tuple(paths), max_delay=2.0)
        assert hash(spec) == hash(ChannelSpec(tuple(paths), max_delay=2.0))
        op = ChannelOperator(realize(spec, 0, block_len=4, n_blocks=2), half_len=3)
        assert op.apply(np.ones(8)).shape == (8,)

    def test_fir_lags_span_the_taps(self):
        # whole half_len: the FIR's first and last lag are the same for every
        # stream length, so an SER run reads its window from one block's
        spec = cdlc_channel_spec(1000.0)
        lag0, kernels = channel._path_kernels(spec, 145, DEFAULT_FIR_HALF_LEN)
        assert (lag0, lag0 + kernels.shape[1] - 1) == (-64, 80)
        for n_blocks in (1, 16, 42):
            op = ChannelOperator(realize(spec, 1, block_len=145, n_blocks=n_blocks))
            assert (op._lag0, op._lag0 + op._taps.size - 1) == (-64, 80)


class TestProfiles:
    def test_exp_profile_gain_magnitudes(self):
        real = realize(exp_profile_spec(0.5, np.arange(0.0, 3.0, 0.5), max_delay=2.5), 9)
        mags = np.abs(real.drawn_gains)
        assert np.allclose(mags, np.exp(-0.5 * np.arange(0.0, 3.0, 0.5)), atol=1e-12)

    def test_seed_reproducibility_bit_exact(self):
        spec = exp_profile_spec(0.05, np.arange(0.0, 5.0, 0.1), max_delay=5.0)
        a, b, c = realize(spec, 42), realize(spec, 42), realize(spec, 43)
        assert np.array_equal(a.drawn_gains, b.drawn_gains)
        assert not np.array_equal(a.drawn_gains, c.drawn_gains)

    def test_builtin_channels(self):
        mild = mild_channel_spec()
        severe = severe_channel_spec()
        integer = integer_channel_spec()
        assert len(mild.paths) == 151 and mild.max_delay == 16.0
        assert severe.paths[-1].power == pytest.approx(np.exp(-0.1 * 15.0))
        assert len(integer.paths) == 16
        assert all(float(p.delay).is_integer() for p in integer.paths)
        assert prefix_length_for(mild) == 16

    def test_cdlc_scaling(self):
        spec = cdlc_channel_spec(1000.0)
        assert spec.max_delay == pytest.approx(8.6523e-6 * 1.92e6, rel=1e-6)
        assert sum(p.power for p in spec.paths) == pytest.approx(1.0, abs=1e-12)
        assert prefix_length_for(spec) == 17
        assert prefix_length_for(cdlc_channel_spec(200.0)) == 4

    def test_builtin_lookup(self):
        assert builtin_channel_spec("mild").name == "mild"
        with pytest.raises(ParameterError):
            builtin_channel_spec("nonsense")

    def test_phases_drawn_in_one_call(self):
        # fixed gains between drawn ones: the gains and the generator state
        # after the draw equal those of one scalar draw per drawn path
        spec = ChannelSpec(
            (PathSpec(0.0, gain=0.5 - 0.5j), PathSpec(0.4, gain_power=1.0),
             PathSpec(1.0, gain=-1.0 + 0.0j), PathSpec(2.5, gain_power=0.3),
             PathSpec(3.0, gain_power=0.01), PathSpec(4.0, gain=1j)),
            max_delay=4.0,
        )
        for seed in range(50):
            rng = np.random.default_rng(seed)
            gains = realize(spec, rng).drawn_gains
            ref_rng = np.random.default_rng(seed)
            ref = np.empty(len(spec.paths), dtype=np.complex128)
            for i, path in enumerate(spec.paths):
                if path.gain is not None:
                    ref[i] = path.gain
                else:
                    phase = ref_rng.uniform(0.0, 2.0 * np.pi)
                    ref[i] = np.sqrt(path.gain_power) * np.exp(1j * phase)
            assert np.array_equal(gains.view(np.uint8), ref.view(np.uint8))
            assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    def test_fixed_gain_passthrough(self):
        spec = ChannelSpec((PathSpec(delay=1.0, gain=0.3 - 0.4j),), 1.0)
        real = realize(spec, 17)
        assert real.drawn_gains[0] == 0.3 - 0.4j

    def test_gain_validation(self):
        with pytest.raises(ParameterError):
            PathSpec(delay=1.0)
        with pytest.raises(ParameterError):
            PathSpec(delay=1.0, gain=1.0 + 0j, gain_power=1.0)
        with pytest.raises(ParameterError):
            PathSpec(delay=-0.1, gain=1.0 + 0j)
        with pytest.raises(ParameterError):
            ChannelSpec((PathSpec(delay=2.0, gain=1.0 + 0j),), max_delay=1.0)
        with pytest.raises(ParameterError, match="at least one path"):
            ChannelSpec((), max_delay=1.0)
        for decay in (0.0, -0.5):
            with pytest.raises(ParameterError, match="decay must be > 0"):
                exp_profile_spec(decay, np.arange(3.0), max_delay=2.0)
        # NaN and infinity fail every check, not only the out-of-range values
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError):
                PathSpec(delay=bad, gain=1.0 + 0j)
            with pytest.raises(ParameterError):
                PathSpec(delay=1.0, gain_power=bad)
            with pytest.raises(ParameterError):
                ChannelSpec((PathSpec(delay=2.0, gain=1.0 + 0j),), max_delay=bad)

    def test_profile_file_roundtrip(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text(
            "# test profile\n"
            "name: bumpy\n"
            "delays_samples: [0, 1.5, 3.25]\n"
            "powers_db: [0, -3, -10]\n"
            "seed: 5\n"
            "max_delay: 4\n"
        )
        spec, seed = load_channel_profile(path)
        assert seed == 5
        assert spec.name == "bumpy"
        assert np.allclose(spec.delays, [0.0, 1.5, 3.25])
        assert np.allclose(spec.powers, [1.0, 10 ** -0.3, 0.1])
        a = realize(spec, seed)
        b = realize(spec, seed)
        assert np.array_equal(a.drawn_gains, b.drawn_gains)

    def test_profile_file_with_decay_range(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("delays_samples: 0:0.5:2\ndecay: 0.5\n")
        spec, seed = load_channel_profile(path)
        assert seed is None
        assert np.allclose(spec.delays, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(spec.powers, np.exp(-1.0 * spec.delays))

    def test_profile_non_finite_range_bound(self, tmp_path):
        path = tmp_path / "chan.txt"
        path.write_text("delays_samples: 1e400:1:2\ndecay: 0.5\n")
        with pytest.raises(ParameterError, match="non-finite bound in range"):
            load_channel_profile(path)

    def test_profile_doppler_is_unknown_key(self, tmp_path):
        # channels are quasi-static, so a profile has no doppler field
        path = tmp_path / "chan.txt"
        path.write_text("delays_samples: [0, 1.5]\ndecay: 0.5\ndoppler: 0\n")
        with pytest.raises(ParameterError, match=r"unknown key\(s\) doppler"):
            load_channel_profile(path)

    def test_profile_unknown_key(self, tmp_path):
        # a misspelt key would otherwise be dropped and its default used
        path = tmp_path / "chan.txt"
        path.write_text("delays_samples: [0, 1.5]\ndecay: 0.5\nsed: 7\n")
        with pytest.raises(ParameterError, match=r"unknown key\(s\) sed"):
            load_channel_profile(path)

    def test_profile_missing_fields(self, tmp_path):
        path = tmp_path / "chan.txt"
        for text, message in (
            ("delays_samples: [0, 1]\n", "needs powers_db or decay"),
            ("decay: 0.5\n", "missing delays_samples"),
            ("delays_samples: [0, 1]\npowers_db: [0, -3, -6]\n", "lengths differ"),
        ):
            path.write_text(text)
            with pytest.raises(ParameterError, match=message):
                load_channel_profile(path)

    def test_realization_gain_count_checked(self):
        spec = ChannelSpec((PathSpec(delay=0.0, gain=1.0 + 0j),), 0.0)
        with pytest.raises(ParameterError):
            ChannelRealization(spec=spec, drawn_gains=np.ones(2, dtype=complex))
