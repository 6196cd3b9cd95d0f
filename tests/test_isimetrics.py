"""Tests for correlation tensors, tail energies, ISI energies and bounds."""

import ast
import dataclasses
import math
import os
from unittest import mock

import numpy as np
import pytest
from conftest import assert_no_child
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import precofdm
from precofdm import _fork, cli, isimetrics

from precofdm.channel import (
    ChannelSpec,
    PathSpec,
    _path_kernels,
    _sinc_window,
    cdlc_channel_spec,
    exp_profile_spec,
    integer_channel_spec,
    mild_channel_spec,
    realize,
    severe_channel_spec,
)
from precofdm.errors import ParameterError
from precofdm.isimetrics import (
    _parseval_tails,
    ebct_all,
    ebct_bound_all,
    half_shift_worst_case_scan,
    isi_bound,
    isi_energy,
    isi_gram,
    isi_transfer,
    s2i_sweep,
    signal_isi_energies,
    xcorr_ofdm_closed,
    xcorr_scfdma_closed,
    xcorr_tensor,
)
from precofdm.waveform import (
    PrecodingScheme,
    PrefixKind,
    WaveformBasis,
    default_basis,
    with_prefix,
)

SCHEMES = [PrecodingScheme.OFDM, PrecodingScheme.DFT, PrecodingScheme.DPSS]


def sweep_basis(scheme, n, m):
    """The basis whose span ``s2i_sweep`` computes a (scheme, M) row on,
    before ``_span_basis``: DFT precoding is unitary on the OFDM
    subcarriers, so a DFT row takes the OFDM basis, whose columns are +-
    their own conjugate time reverse, as ``_group_energies`` requires."""
    if scheme is PrecodingScheme.DFT:
        scheme = PrecodingScheme.OFDM
    return default_basis(scheme, n, m)


def xcorr_loop_oracle(o, r, s, q):
    """Direct lag sum over explicit loops, independent of the library path."""
    n = o.shape[0]
    acc = 0.0 + 0.0j
    for i in range(n):
        if 0 <= i - q < n:
            acc += np.conj(o[i, r]) * o[i - q, s]
    return acc


class TestCrossCorrTensor:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n,m", [(9, 9), (9, 7), (17, 17), (33, 31)])
    def test_invariants(self, scheme, n, m):
        tensor = xcorr_tensor(default_basis(scheme, n, m))
        vals = tensor.values
        flipped = np.conj(np.transpose(vals[:, :, ::-1], (1, 0, 2)))
        assert np.max(np.abs(vals - flipped)) <= 1e-12
        for r in range(m):
            assert tensor.lag(r, r, 0) == pytest.approx(1.0, abs=1e-10)
        # per-entry Cauchy-Schwarz for unit-norm columns
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_loop_oracle(self, scheme):
        basis = default_basis(scheme, 9, 7)
        tensor = xcorr_tensor(basis)
        rng = np.random.default_rng(3)
        for _ in range(60):
            r, s = rng.integers(0, 7, size=2)
            q = int(rng.integers(-8, 9))
            oracle = xcorr_loop_oracle(basis.o_matrix, r, s, q)
            assert tensor.lag(r, s, q) == pytest.approx(oracle, abs=1e-12)

    def test_zero_lag_is_kronecker(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.DPSS, 9, 9))
        zero = tensor.values[:, :, 8]
        assert np.max(np.abs(zero - np.eye(9))) <= 1e-10


class TestClosedForms:
    def test_ofdm_all_triples_n9(self):
        for m in (9, 7):
            basis = default_basis(PrecodingScheme.OFDM, 9, m)
            tensor = xcorr_tensor(basis)
            for r in range(m):
                for s in range(m):
                    for q in range(-8, 9):
                        closed = xcorr_ofdm_closed(r, s, q, 9, m)
                        assert abs(tensor.lag(r, s, q) - closed) <= 1e-12

    def test_ofdm_diagonal_limit(self):
        assert xcorr_ofdm_closed(3, 3, 0, 9, 9) == pytest.approx(1.0, abs=1e-14)
        val = xcorr_ofdm_closed(2, 2, 4, 9, 9)
        assert abs(val) == pytest.approx((9 - 4) / 9, abs=1e-12)

    def test_ofdm_zero_lag_orthogonality(self):
        assert abs(xcorr_ofdm_closed(0, 1, 0, 9, 9)) <= 1e-14

    def test_scfdma_matches_direct_sum(self):
        basis = default_basis(PrecodingScheme.DFT, 9, 7)
        tensor = xcorr_tensor(basis)
        for r in range(7):
            for s in range(7):
                for q in range(-8, 9):
                    closed = xcorr_scfdma_closed(r, s, q, 9, 7)
                    assert abs(tensor.lag(r, s, q) - closed) <= 1e-9

    def test_scfdma_full_utilization_is_shifted_pulses(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.DFT, 9, 9))
        for r in range(9):
            for s in range(9):
                for q in range(-8, 9):
                    expect = 1.0 if q == r - s else 0.0
                    assert abs(tensor.lag(r, s, q) - expect) <= 1e-10
                    assert abs(xcorr_scfdma_closed(r, s, q, 9, 9) - expect) <= 1e-9

    def test_lag_out_of_range(self):
        with pytest.raises(ParameterError):
            xcorr_ofdm_closed(0, 0, 9, 9, 9)
        with pytest.raises(ParameterError):
            xcorr_scfdma_closed(0, 0, -9, 9, 9)
        for closed in (xcorr_ofdm_closed, xcorr_scfdma_closed):
            for r, s, q in ((7, 0, 0), (0, 7, -3), (-1, 0, 2)):
                with pytest.raises(ParameterError, match="indices out of range"):
                    closed(r, s, q, 9, 7)


WHOLE_ARGS = (1, 2, -3, 9, 7)  # r, s, q, N, M


class TestWholeIndices:
    """r, s, q, N and M are whole numbers, Python or numpy integers (r and s
    integer arrays where a scan takes them); anything else is a
    ``ParameterError``, where numpy would index, wrap or raise its own."""

    @pytest.mark.parametrize("closed", [xcorr_ofdm_closed, xcorr_scfdma_closed])
    @pytest.mark.parametrize("position", range(5), ids=["r", "s", "q", "N", "M"])
    @pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(1.0), "1", None])
    def test_closed_forms_reject_non_integers(self, closed, position, bad):
        args = list(WHOLE_ARGS)
        args[position] = bad
        with pytest.raises(ParameterError):
            closed(*args)

    @pytest.mark.parametrize("closed", [xcorr_ofdm_closed, xcorr_scfdma_closed])
    @pytest.mark.parametrize("whole", [np.int64, np.int32, np.int8, np.uint8])
    def test_numpy_integers_keep_values(self, closed, whole):
        # every pair order and lag sign, against Python integers: an unsigned
        # q > 0 or s < r would wrap if the forms kept numpy's fixed widths
        for r, s, q in ((1, 2, -3), (2, 1, 3), (0, 6, 8), (6, 0, -8)):
            want = closed(r, s, q, 9, 7)
            cast = [whole(v) if v >= 0 else v for v in (r, s, q, 9, 7)]
            assert closed(*cast) == want

    def test_tensor_and_scan_reject_non_integers(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9))
        for r, s, q in ((0, 0, 0.5), (1.0, 0, 0), (0, np.float64(2.0), 1)):
            with pytest.raises(ParameterError):
                tensor.lag(r, s, q)
        for r, s in ((1.0, 2.0), (np.array([0.0, 1.0]), np.array([1, 2])), ("1", 2)):
            with pytest.raises(ParameterError, match="must be whole"):
                half_shift_worst_case_scan(tensor, r, s, [0.5])
        value = tensor.lag(1, 2, -3)
        assert tensor.lag(np.int32(1), np.uint8(2), np.int64(-3)) == value
        # a uint8 lag plus N - 1 = 299 would not fit uint8
        wide = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 300, 2))
        assert wide.lag(np.uint8(1), np.uint8(0), np.uint8(200)) == wide.lag(1, 0, 200)
        _, curve = half_shift_worst_case_scan(tensor, 1, 2, [0.5])
        for r, s in ((np.uint8(1), np.int16(2)), (np.array([1], np.uint8), [2])):
            assert half_shift_worst_case_scan(tensor, r, s, [0.5])[1].ravel() == curve


def parseval_tail_reference(o, r, s, radius, shift=0.5):
    """||C||^2 - sum_{|n| <= radius} |y(n + shift)|^2, summed in pure Python.

    C_rs[q] = sum_n conj(o_r[n]) o_s[n - q] comes from ``np.correlate`` of
    the basis columns, apart from the library's correlation path, and
    y(t) = sum_q C[q] sinc(t - q) is its band-limited interpolant.  A
    half-band fractional shift preserves energy, so this is the exact tail
    beyond ``radius`` for a non-integer ``shift``.
    """
    n = o.shape[0]
    c = np.conj(np.correlate(o[:, r], o[:, s], mode="full"))
    total = sum(abs(v) ** 2 for v in c)
    window = 0.0
    for k in range(-radius, radius + 1):
        acc = 0.0 + 0.0j
        for qi, q in enumerate(range(-(n - 1), n)):
            x = k + shift - q
            acc += c[qi] * math.sin(math.pi * x) / (math.pi * x)
        window += abs(acc) ** 2
    return total - window


def bandlimit_shift(seq, half_bandwidth, shift, eval_points):
    """Band-limit a lag sequence to |f| <= W, shift by ``shift``, resample.

    ``seq`` lives on the symmetric integer grid -(L-1)/2 .. (L-1)/2 (odd
    length).  The output at integer n is sum_q seq[q] sinc(2W (q - n -
    shift)); at W = 0.5 this is the band-limited interpolation of the
    sequence evaluated at n + shift, so shift = 0 returns the input samples
    and integer shifts translate them exactly.
    """
    seq = np.asarray(seq)
    if seq.ndim != 1 or seq.size % 2 == 0:
        raise ParameterError("seq must be 1-D with odd length (symmetric lags)")
    if not 0.0 < half_bandwidth <= 0.5:
        raise ParameterError(f"half_bandwidth must be in (0, 0.5], got {half_bandwidth}")
    half = (seq.size - 1) // 2
    lags = np.arange(-half, half + 1)
    x = 2.0 * half_bandwidth * (lags[None, :] - np.asarray(eval_points)[:, None] - shift)
    kernel = np.sinc(x)
    kernel[(x == np.round(x)) & (x != 0)] = 0.0
    return kernel @ seq


def tail_energy(values, l, origin=None):
    """Energy of a sampled sequence outside the index window [-l, l].

    ``values[k]`` corresponds to index k - origin (default: midpoint).  The
    provided samples are the truncation; they must reach at least |n| = l.
    """
    values = np.asarray(values)
    if l < 0:
        raise ParameterError(f"l must be >= 0, got {l}")
    if origin is None:
        if values.size % 2 == 0:
            raise ParameterError("even-length sequence needs an explicit origin")
        origin = (values.size - 1) // 2
    n = np.arange(values.size) - origin
    if n.max() < l and n.min() > -l:
        raise ParameterError(
            f"samples reach |n| <= {max(n.max(), -n.min())}, below the window l={l}"
        )
    return float(np.sum(np.abs(values[np.abs(n) > l]) ** 2))


def circ_shift_eval(c, tau, pts, size):
    """Fractional shift by zero-padded spectral phase ramp (circular)."""
    half = (len(c) - 1) // 2
    padded = np.concatenate([c[half:], np.zeros(size - len(c), dtype=complex), c[:half]])
    spec = np.fft.fft(padded)
    shifted = np.fft.ifft(spec * np.exp(2j * np.pi * np.fft.fftfreq(size) * tau))
    return shifted[pts % size]


class TestBandlimitShift:
    def test_zero_shift_recovers_input(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        pts = np.arange(-8, 9)
        assert np.array_equal(bandlimit_shift(c, 0.5, 0.0, pts), c)

    def test_integer_shift_translates(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        out = bandlimit_shift(c, 0.5, 3.0, np.arange(-8, 6))
        assert np.max(np.abs(out - c[3:])) <= 1e-12

    def test_half_shift_matches_spectral_oracle(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        pts = np.arange(-30, 31)
        # Richardson extrapolation removes the circular-image O(1/size) term
        u1 = circ_shift_eval(c, 0.5, pts, 1 << 21)
        u2 = circ_shift_eval(c, 0.5, pts, 1 << 22)
        oracle = 2.0 * u2 - u1
        mine = bandlimit_shift(c, 0.5, 0.5, pts)
        assert np.max(np.abs(mine - oracle)) <= 1e-9

    def test_mirror_identity_for_real_even_sequences(self):
        # for C real and even, the interpolant obeys u_{1-tau}[-n-1] = u_tau[n]
        rng = np.random.default_rng(7)
        half = rng.standard_normal(8)
        c = np.concatenate([half[::-1], [1.0], half])
        tau = 0.3
        n = np.arange(-20, 21)
        left = bandlimit_shift(c, 0.5, 1.0 - tau, -n - 1)
        right = bandlimit_shift(c, 0.5, tau, n)
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_parameter_validation(self):
        c = np.zeros(17)
        with pytest.raises(ParameterError):
            bandlimit_shift(c, 0.0, 0.5, np.arange(3))
        with pytest.raises(ParameterError):
            bandlimit_shift(np.zeros(16), 0.5, 0.5, np.arange(3))


class TestTailEnergy:
    def test_window_covering_support_gives_zero(self):
        seq = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        assert tail_energy(seq, 2) == 0.0

    def test_unit_impulse_at_origin(self):
        seq = np.zeros(9)
        seq[4] = 1.0
        assert tail_energy(seq, 0) == 0.0

    def test_counts_only_outside_window(self):
        seq = np.arange(-3.0, 4.0)
        assert tail_energy(seq, 1) == pytest.approx(9.0 + 4.0 + 4.0 + 9.0)

    def test_half_shift_edge_pair_matches_brute_force(self):
        basis = default_basis(PrecodingScheme.OFDM, 9, 9)
        tensor = xcorr_tensor(basis)
        c = tensor.values[0, 8]
        trunc = 64 * 9
        pts = np.arange(-trunc, trunc + 1)
        u = bandlimit_shift(c, 0.5, 0.5, pts)
        value = tail_energy(u, 8, origin=trunc)
        brute = 0.0
        for n in range(-trunc, trunc + 1):
            if abs(n) > 8:
                acc = 0.0 + 0.0j
                for qi, q in enumerate(range(-8, 9)):
                    x = q - n - 0.5
                    acc += c[qi] * np.sin(np.pi * x) / (np.pi * x)
                brute += abs(acc) ** 2
        assert value > 0.0
        assert value == pytest.approx(brute, abs=1e-10)
        # ebct is the untruncated tail: it equals the Parseval form, and the
        # 64 N-point sum falls short of it by at most the truncation remainder
        exact = ebct_all(tensor)[0, 8]
        assert exact == pytest.approx(
            parseval_tail_reference(basis.o_matrix, 0, 8, 8), abs=1e-12
        )
        remainder = 2.0 * np.sum(np.abs(c)) ** 2 / (np.pi**2 * 63 * 9)
        assert exact - remainder <= brute <= exact

    def test_window_beyond_samples_rejected(self):
        with pytest.raises(ParameterError):
            tail_energy(np.ones(5), 3)


class TestEbct:
    def test_ofdm_edge_pairs_dominate(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9))
        e = ebct_all(tensor)
        for r in range(9):
            top_two = set(np.argsort(e[r])[-2:])
            assert top_two == {0, 8}
        inner_max = e[1:8, :].max()
        assert e[0].min() > 0 and e[0].max() >= inner_max
        assert np.all(e[[0, 8]].max(axis=0) >= e[1:8].max(axis=0) - 1e-12)

    def test_dpss_low_orders_below_ofdm_and_dft(self):
        e_dpss = ebct_all(xcorr_tensor(default_basis(PrecodingScheme.DPSS, 9, 9)))
        e_ofdm = ebct_all(xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9)))
        e_dft = ebct_all(xcorr_tensor(default_basis(PrecodingScheme.DFT, 9, 9)))
        low = np.s_[:5, :5]
        assert e_dpss[low].max() < 0.5 * e_ofdm[low].min()
        assert e_dpss[low].max() < 0.5 * e_dft[low].min()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [9, 17])
    def test_bound_dominates_truncated_value(self, scheme, n):
        # ebct_all is the exact tail, which dominates every truncated sum;
        # check it against the independent Parseval reference
        basis = default_basis(scheme, n, n)
        values = ebct_all(xcorr_tensor(basis))
        for r in range(n):
            for s in range(n):
                ref = parseval_tail_reference(basis.o_matrix, r, s, n - 1)
                assert values[r, s] == pytest.approx(ref, abs=1e-12)

    def test_bound_all_equals_ebct_all(self):
        for scheme in SCHEMES:
            tensor = xcorr_tensor(default_basis(scheme, 9, 9))
            assert np.array_equal(ebct_bound_all(tensor), ebct_all(tensor))

    def test_bound_all_is_ebct_all(self):
        # one definition under two names, in the module and the package
        assert ebct_bound_all is ebct_all
        assert precofdm.ebct_bound_all is precofdm.ebct_all

    def test_bound_deterministic(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.DPSS, 9, 9))
        a = ebct_bound_all(tensor)
        b = ebct_bound_all(tensor)
        assert np.array_equal(a, b)

    def test_zero_sequence_bound_is_zero(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9))
        report = isi_bound(
            tensor,
            ChannelSpec((PathSpec(delay=0.5, gain=0.0j),), 1.0),
            prefix_len=2,
        )
        assert report.total_bound == 0.0


def make_pair(scheme, n, m, g, kind=PrefixKind.ZERO):
    basis = default_basis(scheme, n, m)
    pref = with_prefix(basis, g, kind)
    return basis, pref


class TestIsiTransfer:
    def test_integer_taps_with_prefix_vanish(self):
        spec = exp_profile_spec(0.5, np.arange(0.0, 4.0), max_delay=4.0)
        _, pref = make_pair(PrecodingScheme.OFDM, 9, 9, 4)
        real = realize(spec, 0, block_len=13, n_blocks=3)
        beta = isi_transfer(pref, pref, real, 1, 0)
        assert np.max(np.abs(beta)) == 0.0

    def test_identity_channel_diagonal_block(self):
        spec = ChannelSpec((PathSpec(delay=0.0, gain=1.0 + 0.0j),), 0.0)
        _, pref = make_pair(PrecodingScheme.DFT, 9, 9, 2)
        real = realize(spec, 0, block_len=11, n_blocks=2)
        beta = isi_transfer(pref, pref, real, 1, 1)
        assert np.max(np.abs(beta - np.eye(9))) <= 1e-10

    def test_fractional_tap_matches_dense_oracle(self):
        spec = ChannelSpec((PathSpec(delay=0.5, gain=0.8 - 0.6j),), 1.0)
        _, pref = make_pair(PrecodingScheme.OFDM, 9, 9, 1)
        real = realize(spec, 0, block_len=10, n_blocks=4)
        l, lp = 2, 1
        lags = (l - lp) * 10 + np.arange(10)[:, None] - np.arange(10)[None, :]
        h_block = (0.8 - 0.6j) * np.sinc(lags - 0.5)
        oracle = pref.o_r.conj().T @ h_block @ pref.o_t
        beta = isi_transfer(pref, pref, real, l, lp)
        assert np.linalg.norm(beta) > 1e-3
        assert np.max(np.abs(beta - oracle)) <= 1e-9

    def test_matches_shifted_correlation_values(self):
        # with no prefix, beta entries are the shifted band-limited
        # correlations sampled at block multiples
        tau = 0.37
        spec = ChannelSpec((PathSpec(delay=tau, gain=1.0 + 0.0j),), 1.0)
        basis, pref = make_pair(PrecodingScheme.DFT, 9, 9, 0)
        tensor = xcorr_tensor(basis)
        real = realize(spec, 0, block_len=9, n_blocks=3)
        d = 1  # output block 2, input block 1
        beta = isi_transfer(pref, pref, real, 2, 1)
        for r in range(9):
            for s in range(9):
                val = bandlimit_shift(
                    tensor.values[r, s], 0.5, tau, np.array([-d * 9])
                )[0]
                assert beta[r, s] == pytest.approx(val, abs=1e-10)

    def test_block_length_mismatch(self):
        spec = ChannelSpec((PathSpec(delay=0.0, gain=1.0 + 0.0j),), 0.0)
        _, pref = make_pair(PrecodingScheme.OFDM, 9, 9, 2)
        real = realize(spec, 0, block_len=9, n_blocks=2)
        with pytest.raises(ParameterError):
            isi_transfer(pref, pref, real, 0, 0)


class TestIsiEnergy:
    def test_integer_taps_adequate_prefix_zero(self):
        spec = integer_channel_spec()
        for scheme in SCHEMES:
            _, pref = make_pair(scheme, 33, 31, 16)
            assert isi_energy(pref, pref, spec, n_blocks=6) == 0.0

    def test_monte_carlo_expectation_oracle(self):
        tau = 0.5
        spec = ChannelSpec((PathSpec(delay=tau, gain=1.0 + 0.0j),), 1.0)
        _, pref = make_pair(PrecodingScheme.OFDM, 9, 9, 1)
        window = 4
        real = realize(spec, 0, block_len=10, n_blocks=2 * window - 1)
        energy = isi_energy(pref, pref, real, n_blocks=window)
        center = window - 1
        betas = [
            isi_transfer(pref, pref, real, center, lp)
            for lp in range(2 * window - 1)
            if lp != center
        ]
        rng = np.random.default_rng(8)
        trials = 10_000
        acc = 0.0
        for _ in range(trials):
            out = np.zeros(9, dtype=complex)
            for beta in betas:
                phases = np.exp(2j * np.pi * rng.random(9))
                out += beta @ phases
            acc += np.sum(np.abs(out) ** 2)
        mc = acc / trials
        assert energy == pytest.approx(mc, rel=0.02)

    def test_power_scaling_linearity(self):
        delays = np.arange(0.0, 3.0, 0.7)
        spec1 = exp_profile_spec(0.5, delays, max_delay=3.0)
        scaled = ChannelSpec(
            tuple(
                PathSpec(delay=p.delay, gain_power=3.0 * p.gain_power)
                for p in spec1.paths
            ),
            max_delay=3.0,
        )
        _, pref = make_pair(PrecodingScheme.DFT, 9, 9, 3)
        e1 = isi_energy(pref, pref, spec1, n_blocks=4)
        e3 = isi_energy(pref, pref, scaled, n_blocks=4)
        assert e3 == pytest.approx(3.0 * e1, rel=1e-12)

    def test_signal_energy_identity_channel(self):
        spec = ChannelSpec((PathSpec(delay=0.0, gain=1.0 + 0.0j),), 0.0)
        _, pref = make_pair(PrecodingScheme.OFDM, 9, 7, 2)
        signal, interference = signal_isi_energies(pref, pref, spec, n_blocks=3)
        assert signal == pytest.approx(7.0, abs=1e-10)
        assert interference == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=2, max_value=20),
        kind=st.sampled_from(list(PrefixKind)),
        delays=st.lists(
            st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    def test_isi_energy_is_second_of_signal_isi_energies(
        self, scheme, n, kind, delays, data
    ):
        m = data.draw(st.integers(min_value=1, max_value=n))
        g = data.draw(st.integers(min_value=0, max_value=min(4, n - 1)))
        n_blocks = data.draw(st.integers(min_value=2, max_value=5))
        spec = exp_profile_spec(0.3, delays, max_delay=max(delays))
        _, pref = make_pair(scheme, n, m, g, kind)
        for channel in (spec, realize(spec, data.draw(st.integers(0, 2**16)))):
            _, energy = signal_isi_energies(pref, pref, channel, n_blocks)
            assert isi_energy(pref, pref, channel, n_blocks) == energy

    def test_gram_quadratic_form_matches_energy(self):
        spec = exp_profile_spec(0.3, np.arange(0.0, 3.0, 0.4), max_delay=3.0)
        _, pref = make_pair(PrecodingScheme.DPSS, 9, 9, 3)
        gram = isi_gram(pref, pref, spec.delays, n_blocks=4)
        real = realize(spec, 5)
        g = real.drawn_gains
        direct = isi_energy(pref, pref, real, n_blocks=4)
        assert direct == pytest.approx(float(np.real(g.conj() @ gram @ g)), rel=1e-12)


def lag_matrix_reference(left, right):
    """Rows sum_n left*[n, r] right[n - q, s] over q in [-(B-1), B-1], pair
    r * M_right + s, from np.correlate lag sequences of the columns."""
    return np.array(
        [
            np.correlate(right[:, s], left[:, r], "full")[::-1]
            for r in range(left.shape[1])
            for s in range(right.shape[1])
        ]
    )


def sinc_kernel_reference(b, d, delays):
    """Kernel sinc(q + d B - tau_p) on the lags q of a block of length B,
    from ``long_sinc`` rounded to float64."""
    lags = np.arange(-(b - 1), b)[:, None] + d * b
    return long_sinc(lags, np.asarray(delays)[None, :]).astype(np.float64)


def offset_energies_reference(cmat, b, delays, offsets):
    """sum over the offsets d of (C k_d)^H (C k_d), shape (paths, paths)."""
    total = 0.0
    for d in offsets:
        u = cmat @ sinc_kernel_reference(b, d, delays)
        total = total + u.conj().T @ u
    return total


class TestIsiGramSquareRoot:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        schemes=st.permutations(SCHEMES),
        kind=st.sampled_from(list(PrefixKind)),
        n_blocks=st.integers(min_value=2, max_value=5),
        data=st.data(),
    )
    def test_matches_correlate_reference(self, n, schemes, kind, n_blocks, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        g = data.draw(st.integers(min_value=0, max_value=n - 1))
        delay = st.one_of(
            st.integers(min_value=0, max_value=n + g).map(float),
            st.floats(min_value=0.0, max_value=n + g),
        )
        delays = np.array(data.draw(st.lists(delay, min_size=1, max_size=4)))
        tx = with_prefix(default_basis(schemes[0], n, m), g, kind)
        rx = with_prefix(default_basis(schemes[1], n, m), g, kind)
        k_isi, k_sig = isi_gram(tx, rx, delays, n_blocks, include_signal=True)
        cmat = lag_matrix_reference(rx.o_r, tx.o_t)
        b = n + g
        isi_offsets = [d for d in range(1 - n_blocks, n_blocks) if d != 0]
        for got, offsets in ((k_isi, isi_offsets), (k_sig, [0])):
            want = offset_energies_reference(cmat, b, delays, offsets)
            kernels = [sinc_kernel_reference(b, d, delays) for d in offsets]
            # Any backward-stable U = C k is off by about eps |C| |k|, so
            # U^H U by 2 |U| times that: ISI energies near 1e-29 (OFDM into
            # DPSS) carry that much round-off in the reference itself.
            floor = (
                32 * np.finfo(float).eps * np.sqrt(np.real(np.trace(want)))
                * np.linalg.norm(cmat) * np.linalg.norm(kernels)
            )
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want) + floor

    @pytest.mark.parametrize("rx_args,n_blocks,message", [
        ((9, 7, 2), 1, "n_blocks must be >= 2"),
        ((9, 6, 2), 2, "mismatched shapes"),
        ((9, 7, 3), 2, "mismatched shapes"),
    ])
    def test_bad_inputs_rejected(self, rx_args, n_blocks, message):
        _, tx = make_pair(PrecodingScheme.OFDM, 9, 7, 2)
        _, rx = make_pair(PrecodingScheme.OFDM, *rx_args)
        with pytest.raises(ParameterError, match=message):
            isi_gram(tx, rx, np.array([0.5]), n_blocks)

    def test_dpss_far_offsets_keep_their_digits(self):
        # The +-2-offset ISI energy of DPSS is 5e-20 beside a signal energy
        # of 1260; a normal-equation Gram C^H C buries it under about 2e-18
        # to 4e-18 of round-off.
        mild = mild_channel_spec()
        _, pref = make_pair(PrecodingScheme.DPSS, 128, 121, 16)
        far = isi_gram(pref, pref, mild.delays, 3) - isi_gram(pref, pref, mild.delays, 2)
        got = float(mild.powers @ np.real(np.diag(far)))
        cmat = lag_matrix_reference(pref.o_r, pref.o_t)
        ref = offset_energies_reference(cmat, 144, mild.delays, [-2, 2])
        want = float(mild.powers @ np.real(np.diag(ref)))
        assert 4e-20 < want < 6e-20
        assert got == pytest.approx(want, rel=1e-2, abs=0)

    @pytest.mark.parametrize("kind", list(PrefixKind))
    @pytest.mark.parametrize(
        "n,m", [(9, 7), (9, 8), (16, 13), (16, 14), (17, 12), (24, 19), (33, 30)]
    )
    def test_ofdm_and_dft_energies_agree(self, n, m, kind):
        # DFT precoding is a unitary map on the OFDM subcarriers, so both
        # schemes span one space and see the same energies.
        mild = mild_channel_spec()
        g = min(16, n - 1)
        for channel in (mild, realize(mild, 3)):
            _, ofdm = make_pair(PrecodingScheme.OFDM, n, m, g, kind)
            _, dft = make_pair(PrecodingScheme.DFT, n, m, g, kind)
            want = signal_isi_energies(ofdm, ofdm, channel, n_blocks=6)
            got = signal_isi_energies(dft, dft, channel, n_blocks=6)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestSymmetricLagRoot:
    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES + ["random"]),
        n=st.integers(min_value=1, max_value=24),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_root_reproduces_lag_gram(self, scheme, n, data, seed):
        m = data.draw(st.integers(min_value=1, max_value=n))
        g = data.draw(st.integers(min_value=0, max_value=n - 1))
        if scheme == "random":
            rng = np.random.default_rng(seed)
            o = rng.standard_normal((n + g, m)) + 1j * rng.standard_normal((n + g, m))
        else:
            o = with_prefix(default_basis(scheme, n, m), g, PrefixKind.ZERO).o_t
        root = isimetrics._symmetric_lag_root(o)
        cmat = lag_matrix_reference(o, o)
        assert root.shape[1] == cmat.shape[1]
        assert np.array_equal(root, np.triu(root))
        err = np.linalg.norm(root.conj().T @ root - cmat.conj().T @ cmat)
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(cmat) ** 2

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=2, max_value=32),
        data=st.data(),
    )
    def test_zero_prefix_gram_matches_full_qr(self, scheme, n, data):
        # zero prefix: isi_gram takes the symmetric root; the full QR of C
        # is the reference.  n_blocks = 2 keeps the d = +-1 offsets only.
        m = data.draw(st.integers(min_value=1, max_value=n))
        g = data.draw(st.integers(min_value=0, max_value=n - 1))
        delays = np.array(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=n + g), min_size=1, max_size=4
        )))
        pref = with_prefix(default_basis(scheme, n, m), g, PrefixKind.ZERO)
        got = isi_gram(pref, pref, delays, n_blocks=2)
        full = isimetrics._lag_root(
            isimetrics._cross_lag_matrix(pref.o_r, pref.o_t, order="F")
        )
        b = n + g
        kernels = [sinc_kernel_reference(b, d, delays) for d in (-1, 1)]
        want = sum((full @ k).conj().T @ (full @ k) for k in kernels)
        # as in TestIsiGramSquareRoot: energies at round-off level (integer
        # delays inside the prefix) are compared against that round-off
        cmat = lag_matrix_reference(pref.o_r, pref.o_t)
        floor = (
            32 * np.finfo(float).eps * np.sqrt(np.real(np.trace(want)))
            * np.linalg.norm(cmat) * np.linalg.norm(kernels)
        )
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want) + floor

    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=1, max_value=32),
        data=st.data(),
    )
    def test_zero_prefix_root_covers_the_basis_lags(self, scheme, n, data):
        # the g zero prefix rows make the outer g lags on each side of the
        # (2B - 1)-lag C exact zeros, so the root spans the middle 2N - 1
        m = data.draw(st.integers(min_value=1, max_value=n))
        g = data.draw(st.integers(min_value=0, max_value=n - 1))
        pref = with_prefix(default_basis(scheme, n, m), g, PrefixKind.ZERO)
        root = isimetrics._gram_root(pref, pref)
        cmat = isimetrics._cross_lag_matrix(pref.o_r, pref.o_t)
        assert cmat.shape[1] == 2 * (n + g) - 1
        assert not np.any(cmat[:, :g]) and not np.any(cmat[:, 2 * n - 1 + g :])
        middle = cmat[:, g : g + 2 * n - 1]
        assert root.shape[1] == 2 * n - 1
        err = np.linalg.norm(root.conj().T @ root - middle.conj().T @ middle)
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(cmat) ** 2

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=2, max_value=32),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_span_energies_match_full_root_grams(self, scheme, n, data, seed):
        # per-path energies on the 2N - 1 lag root against the diagonal of
        # isi_gram's Grams on the QR of the whole (2B - 1)-lag C
        m = data.draw(st.integers(min_value=1, max_value=n))
        g = data.draw(st.integers(min_value=0, max_value=n - 1))
        n_blocks = data.draw(st.integers(min_value=2, max_value=4))
        rng = np.random.default_rng(seed)
        delays = np.sort(rng.uniform(0.0, n + g, size=rng.integers(1, 6)))
        channel = exp_profile_spec(rng.uniform(0.05, 1.0), delays, float(delays[-1]))
        pref = with_prefix(default_basis(scheme, n, m), g, PrefixKind.ZERO)
        span = with_prefix(sweep_basis(scheme, n, m), g, PrefixKind.ZERO)
        got = isimetrics._group_energies([span], channel, n_blocks, False)[0][:2]
        full = isimetrics._lag_root(
            isimetrics._cross_lag_matrix(pref.o_r, pref.o_t, order="F")
        )
        with mock.patch.object(isimetrics, "_gram_root", lambda tx, rx: full):
            grams = isi_gram(pref, pref, delays, n_blocks, include_signal=True)
        cmat = lag_matrix_reference(pref.o_r, pref.o_t)
        b = n + g
        isi_offsets = [d for d in range(1 - n_blocks, n_blocks) if d != 0]
        for value, gram, offsets in zip(got, grams[::-1], ([0], isi_offsets)):
            want = float(channel.powers @ np.real(np.diag(gram)))
            kernels = [sinc_kernel_reference(b, d, delays) for d in offsets]
            # as in test_zero_prefix_gram_matches_full_qr, weighted by the powers
            floor = (
                32 * np.finfo(float).eps * np.sqrt(np.real(np.trace(gram)))
                * np.linalg.norm(cmat) * np.linalg.norm(kernels)
                * np.linalg.norm(channel.powers)
            )
            assert abs(value - want) <= 1e-12 * abs(want) + floor

    @pytest.mark.parametrize("kind,uses", [(PrefixKind.ZERO, 1), (PrefixKind.CYCLIC, 0)])
    def test_symmetric_root_only_when_bases_match(self, kind, uses, monkeypatch):
        # a cyclic prefix makes o_t differ from o_r, so C has no lag symmetry
        calls = []
        root = isimetrics._symmetric_lag_root
        monkeypatch.setattr(
            isimetrics, "_symmetric_lag_root", lambda o: calls.append(o) or root(o)
        )
        _, pref = make_pair(PrecodingScheme.DFT, 9, 7, 3, kind)
        isi_gram(pref, pref, np.array([0.5]), n_blocks=2)
        assert len(calls) == uses


# (N, M) with 1 <= M <= N <= 32
SPAN_SIZES = st.integers(1, 32).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))
)


class TestParityLagRoot:
    """``_parity_lag_root``, the lag rows of the spans ``s2i_sweep`` builds:
    two half-width QRs, one per lag parity, with R~^T R~ = Re(C^H C)."""

    # M = 1 (the odd block of a real span is empty), M(M + 1)/2 < N, and the
    # odd deficits of the complex OFDM spans
    @settings(max_examples=80, deadline=None)
    @given(scheme=st.sampled_from(SCHEMES), real=st.booleans(), size=SPAN_SIZES)
    @example(scheme=PrecodingScheme.DPSS, real=True, size=(9, 1))
    @example(scheme=PrecodingScheme.OFDM, real=False, size=(32, 7))
    @example(scheme=PrecodingScheme.OFDM, real=False, size=(32, 25))
    @example(scheme=PrecodingScheme.DPSS, real=False, size=(1, 1))
    def test_rows_give_the_real_lag_gram(self, scheme, real, size):
        n, m = size
        basis = sweep_basis(scheme, n, m)
        o = isimetrics._span_basis(basis).o_matrix if real else basis.o_matrix
        even, odd = isimetrics._parity_lag_root(o)
        # two triangles on the N even and the N - 1 odd lag coordinates
        assert even.dtype == odd.dtype == np.float64
        assert even.shape[1] == n and odd.shape[1] == n - 1
        assert len(even) <= n and len(odd) <= n - 1
        for half in (even, odd):
            assert np.array_equal(half, np.triu(half))
        root = isimetrics._spread(even, odd)
        assert root.shape == (len(even) + len(odd), 2 * n - 1)
        # spread: even rows symmetric in the lag, odd rows antisymmetric
        assert np.array_equal(root[: len(even)], root[: len(even), ::-1])
        assert np.array_equal(root[len(even) :], -root[len(even) :, ::-1])
        cmat = lag_matrix_reference(o, o)
        err = np.linalg.norm(root.T @ root - np.real(cmat.conj().T @ cmat))
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(cmat) ** 2

    @settings(max_examples=60, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        real=st.booleans(),
        size=SPAN_SIZES,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(scheme=PrecodingScheme.DPSS, real=True, size=(9, 1), seed=0)
    @example(scheme=PrecodingScheme.OFDM, real=False, size=(32, 25), seed=1)
    def test_path_energies_match_the_gram_root(self, scheme, real, size, seed):
        # per path, on the 2N - 1 lags, against the rows of _gram_root's
        # triangle (zero prefix: the mirrored-pair QR), with the floor of
        # test_span_energies_match_full_root_grams
        n, m = size
        rng = np.random.default_rng(seed)
        g = int(rng.integers(0, n))
        n_blocks = int(rng.integers(2, 5))
        delays = np.sort(rng.uniform(0.0, n + g, size=rng.integers(1, 6)))
        basis = sweep_basis(scheme, n, m)
        span = isimetrics._span_basis(basis) if real else basis
        pref = with_prefix(span, g, PrefixKind.ZERO)
        roots = [
            isimetrics._spread(*isimetrics._parity_lag_root(span.o_matrix)),
            isimetrics._gram_root(pref, pref),
        ]
        b = n + g
        offsets = range(1 - n_blocks, n_blocks)
        got, want = np.zeros((2, delays.size)), np.zeros((2, delays.size))
        for d, kernel in isimetrics._offset_windows(2 * n - 1, b, delays, offsets):
            u, ref = (kernel @ root.T for root in roots)
            got[int(d != 0)] += np.einsum("pi,pi->p", u, u)
            want[int(d != 0)] += np.sum(np.abs(ref) ** 2, axis=1)
        cmat = lag_matrix_reference(span.o_matrix, span.o_matrix)
        isi_offsets = [d for d in offsets if d != 0]
        for i, offs in enumerate(([0], isi_offsets)):
            kernels = [sinc_kernel_reference(b, d, delays) for d in offs]
            floor = (
                32 * np.finfo(float).eps * np.sqrt(want[i].sum())
                * np.linalg.norm(cmat) * np.linalg.norm(kernels)
            )
            assert np.all(np.abs(got[i] - want[i]) <= 1e-12 * want[i] + floor)

    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        size=SPAN_SIZES.filter(lambda size: size[1] < size[0]),
        column=st.integers(0, 31),
        theta=st.floats(0.05, math.pi / 2 - 0.05),
    )
    def test_not_its_own_conjugate_reverse_raises(self, scheme, size, column, theta):
        # a DFT basis of M >= 2 maps each column's reverse onto another
        # column; any column turned by a phase e^{j theta} off the quarter
        # turns has J o = e^{2 j theta} p conj(o)
        n, m = size
        o = default_basis(scheme, n, m).o_matrix
        if scheme is not PrecodingScheme.DFT or m == 1:
            o = o.copy()
            o[:, column % m] *= np.exp(1j * theta)
        with pytest.raises(ParameterError, match="conjugate time reverse"):
            isimetrics._parity_lag_root(o)
        pref = with_prefix(WaveformBasis(n, m, scheme, o), 0, PrefixKind.ZERO)
        with pytest.raises(ParameterError, match="conjugate time reverse"):
            isimetrics._group_energies([pref], mild_channel_spec(), 2, False)


def unfolded_energies(rows, block_len, channel, n_blocks):
    """Power-weighted (signal, ISI) energies sum_p w_p ||R k_{p,d}||^2 of the
    lag rows R (on 2N - 1 lags) over the full windows k_d, and a float64
    error budget for any route that computes each R k by sums of products.

    Each entry of R k is a sum over the 2N - 1 lags, so it is off by
    gamma_(2N) (|R| |k|)_i (gamma_k = k eps / (1 - k eps)); a route that
    first folds k into k_q +- k_-q adds one rounding, gamma_1, per folded
    entry, with |k_q +- k_-q| <= |k_q| + |k_-q|.  Two such routes then give
    vectors u, v with ||u - v|| <= 2 gamma_(2N + 1) ||a|| for a = |R| |k|,
    and ||u|| and ||v|| at most (1 + gamma) ||a||, so their squared norms
    differ by at most 4 gamma ||a||^2.  Summing the squares (2N terms), the
    offsets (2 n_blocks) and the P weighted paths adds gamma_(2N + 2 n_blocks
    + P) times the same absolute energy sum_p w_p ||a_p||^2 to each side.
    """
    n = (rows.shape[1] + 1) // 2
    delays, powers = channel.delays, channel.powers
    eps = np.finfo(float).eps
    energies, absolute = np.zeros((2, delays.size)), np.zeros((2, delays.size))
    offsets = range(1 - n_blocks, n_blocks)
    for d, kernel in isimetrics._offset_windows(2 * n - 1, block_len, delays, offsets):
        u = kernel @ rows.T
        a = np.abs(kernel) @ np.abs(rows).T
        energies[int(d != 0)] += np.einsum("pi,pi->p", u, u)
        absolute[int(d != 0)] += np.einsum("pi,pi->p", a, a)
    k = 4 * n + 2 * n_blocks + delays.size + 4
    budget = 6 * k * eps / (1 - k * eps) * (powers @ absolute.T)
    return powers @ energies.T, budget


class TestFoldedEnergies:
    """``_group_energies`` folds each offset's window onto the even and odd
    lag coordinates of the lag rows' halves; its energies against the
    unfolded route, the spread rows times the full window."""

    @settings(max_examples=80, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        real=st.booleans(),
        size=SPAN_SIZES,
        seed=st.integers(0, 2**32 - 1),
    )
    # M = N, the odd deficits of the complex OFDM spans, an empty odd half
    # (a real span at M = 1) and N = 1, where the odd coordinates are none
    @example(scheme=PrecodingScheme.OFDM, real=True, size=(16, 16), seed=0)
    @example(scheme=PrecodingScheme.OFDM, real=False, size=(32, 25), seed=1)
    @example(scheme=PrecodingScheme.DFT, real=False, size=(9, 8), seed=2)
    @example(scheme=PrecodingScheme.DPSS, real=True, size=(9, 1), seed=3)
    @example(scheme=PrecodingScheme.DPSS, real=False, size=(1, 1), seed=4)
    def test_folded_energies_match_unfolded_route(self, scheme, real, size, seed):
        n, m = size
        rng = np.random.default_rng(seed)
        g = int(rng.integers(0, n))
        n_blocks = int(rng.integers(2, 5))
        # whole and fractional delays inside the symbol and its prefix
        count = int(rng.integers(1, 6))
        whole = rng.integers(0, n + g, size=count).astype(float)
        fraction = rng.uniform(0, n + g, count)
        delays = np.sort(np.where(rng.random(count) < 0.5, whole, fraction))
        channel = exp_profile_spec(rng.uniform(0.05, 1.0), delays, float(delays[-1]))
        basis = sweep_basis(scheme, n, m)
        span = isimetrics._span_basis(basis) if real else basis
        pref = with_prefix(span, g, PrefixKind.ZERO)
        ((signal, isi, bound),) = isimetrics._group_energies([pref], channel, n_blocks, False)
        assert bound is None
        if m == n:
            rows = np.diag(np.sqrt(n - np.abs(np.arange(1 - n, n))))
        else:
            rows = isimetrics._spread(*isimetrics._parity_lag_root(span.o_matrix))
        want, budget = unfolded_energies(rows, n + g, channel, n_blocks)
        assert abs(signal - want[0]) <= budget[0]
        assert abs(isi - want[1]) <= budget[1]

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 64, 128])
    def test_diagonal_halves_spread_to_the_square_root(self, n):
        # c_0 = sqrt(N) and c_q = sqrt((N - q)/2) on both halves; spread,
        # their Gram is diag(N - |q|) in exact arithmetic, and each entry
        # within a rounding of c_q^2 in floating point (the (q, -q) entry
        # c_q^2 - c_q^2 may keep that rounding under a fused multiply-add)
        even, odd = isimetrics._diagonal_halves(n)
        q = np.arange(1, n)
        assert even[0] == math.sqrt(n)
        assert np.array_equal(even[1:], np.sqrt((n - q) / 2))
        assert np.array_equal(odd, even[1:])
        rows = isimetrics._spread(np.diag(even), np.diag(odd))
        gram = rows.T @ rows
        want = n - np.abs(np.arange(1 - n, n))
        scale = np.sqrt(np.outer(want, want))
        assert np.all(np.abs(gram - np.diag(want)) <= np.finfo(float).eps * scale)


class TestParsevalTailProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        rows=st.integers(min_value=1, max_value=3),
        tau=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_tail_is_exact_for_random_sequences(self, n, rows, tau, data, seed):
        rng = np.random.default_rng(seed)
        cmat = rng.standard_normal((rows, 2 * n - 1)) + 1j * rng.standard_normal(
            (rows, 2 * n - 1)
        )
        radii = data.draw(
            st.lists(st.integers(n - 1, 2 * n), min_size=1, max_size=3)
        )
        tails = _parseval_tails(cmat, tau, radii)
        energy = np.sum(np.abs(cmat) ** 2, axis=1)
        l1 = np.sum(np.abs(cmat), axis=1)
        assert tails.shape == (len(radii), rows)
        assert np.all(tails >= 0.0)
        # at zero shift the window holds every lag, so nothing is left over
        assert np.all(_parseval_tails(cmat, 0.0, radii) <= 1e-12 * energy)
        # direct tail sum truncated at T = 16 N, plus its remainder bound
        t_max = 16 * n
        lags = np.arange(-(n - 1), n)
        pts = np.arange(-t_max, t_max + 1)
        y = cmat @ np.sinc(pts[None, :] + tau - lags[:, None])
        for radius, tail in zip(radii, tails):
            outside = np.abs(pts) > radius
            direct = np.sum(np.abs(y[:, outside]) ** 2, axis=1)
            remainder = 2.0 * l1**2 / (np.pi**2 * (t_max - n))
            slack = 1e-12 * energy
            assert np.all(tail >= direct - slack)
            assert np.all(tail <= direct + remainder + slack)

    @settings(max_examples=15, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=4, max_value=24),
        prefix=st.integers(min_value=12, max_value=16),
        data=st.data(),
    )
    def test_isi_bound_is_power_weighted_group_tails(self, scheme, n, prefix, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        tensor = xcorr_tensor(default_basis(scheme, n, m))
        mild = mild_channel_spec()
        cmat = tensor.values.reshape(m * m, 2 * n - 1)
        expected = np.zeros(m * m)
        for path in mild.paths:
            n_p = n + prefix - math.floor(path.delay)
            expected += path.power * _parseval_tails(cmat, 0.5, [n_p - 1])[0]
        report = isi_bound(tensor, mild, prefix)
        np.testing.assert_allclose(
            report.total_bound, expected.sum(), rtol=1e-12, atol=1e-14
        )


class TestIsiBound:
    def test_one_sinc_kernel_for_all_groups(self, monkeypatch):
        calls = []
        window = isimetrics._sinc_window

        def counted(first, width, delays):
            calls.append((first, width, list(delays)))
            return window(first, width, delays)

        monkeypatch.setattr(isimetrics, "_sinc_window", counted)
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 17, 17))
        isi_bound(tensor, mild_channel_spec(), 16)
        # mild spans 16 distinct N_p; the widest window (radius 32) holds
        # every one, and one row of sinc(j - 1/2) holds each lag difference
        # j of its 33 x 65 kernel once
        reach = 17 - 1 + 17 + 16 - 1
        assert calls == [(-reach, 2 * reach + 1, [0.5])]

    def test_bound_dominates_empirical_mild(self):
        mild = mild_channel_spec()
        basis, pref = make_pair(PrecodingScheme.OFDM, 33, 33, 16)
        gram = isi_gram(pref, pref, mild.delays, n_blocks=8)
        report = isi_bound(xcorr_tensor(basis), mild, 16)
        for seed in range(10):
            gains = realize(mild, seed).drawn_gains
            emp = float(np.real(gains.conj() @ gram @ gains))
            assert report.total_bound >= emp

    def test_path_delay_beyond_block_rejected(self):
        # N + g - floor(tau) < 1: the path skips whole blocks
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9))
        spec = ChannelSpec((PathSpec(delay=12.5, gain=1.0 + 0.0j),), 12.5)
        with pytest.raises(ParameterError, match="too large for N=9, g=2"):
            isi_bound(tensor, spec, 2)

    def test_report_fields(self):
        mild = mild_channel_spec()
        basis, pref = make_pair(PrecodingScheme.DFT, 17, 17, 16)
        _, emp = signal_isi_energies(pref, pref, mild, n_blocks=6)
        report = isi_bound(xcorr_tensor(basis), mild, 16)
        assert [f.name for f in dataclasses.fields(report)] == ["total_bound"]
        assert type(report.total_bound) is float
        assert report.total_bound >= emp


class TestS2iSweep:
    def test_eta_one_schemes_identical(self):
        mild = mild_channel_spec()
        rows = s2i_sweep(SCHEMES, [1.0], mild, 17, 16, n_blocks=6, include_bound=False)
        values = [r.s2i_db for r in rows]
        assert max(values) - min(values) <= 1e-6

    def test_integer_channel_reports_infinite(self):
        rows = s2i_sweep(
            [PrecodingScheme.OFDM],
            [1.0],
            integer_channel_spec(),
            17,
            16,
            n_blocks=4,
            include_bound=False,
        )
        assert rows[0].s2i_db == float("inf")

    def test_bound_column_is_lower_bound(self):
        mild = mild_channel_spec()
        rows = s2i_sweep(
            [PrecodingScheme.DFT], [1.0, 15 / 17], mild, 17, 16, n_blocks=6
        )
        for row in rows:
            assert row.s2i_lower_bound_db <= row.s2i_db
            assert row.tap_model == "mild"

    @pytest.mark.parametrize("n,m", [(17, 15), (24, 19)])
    def test_shared_spans_match_direct_evaluation(self, n, m, monkeypatch, pin_cpus):
        # rows that share a span reuse one computation; each must equal the
        # value computed directly on its own basis.  One process, so that
        # every call is counted here, and one share that holds every span.
        pin_cpus(1)
        mild = mild_channel_spec()
        calls = []
        per_group = isimetrics._group_energies

        def counted(prefs, *args):
            calls.append([(pref.base.scheme, pref.base.m_active) for pref in prefs])
            return per_group(prefs, *args)

        monkeypatch.setattr(isimetrics, "_group_energies", counted)
        rows = s2i_sweep(SCHEMES, [1.0, m / n], mild, n, 16, n_blocks=4)
        # in the sweep's order: the M = N span first, then the M < N spans
        assert calls == [[
            (PrecodingScheme.OFDM, n), (PrecodingScheme.OFDM, m),
            (PrecodingScheme.DPSS, m),
        ]]
        assert [(r.scheme, r.eta) for r in rows] == [
            (s.value, e) for s in SCHEMES for e in (1.0, m / n)
        ]
        for row in rows:
            if row.scheme == "ofdm" or (row.scheme == "dpss" and row.eta < 1):
                continue
            basis = default_basis(row.scheme, n, round(row.eta * n))
            pref = with_prefix(basis, 16, PrefixKind.ZERO)
            signal, energy = signal_isi_energies(pref, pref, mild, 4)
            bound = isi_bound(xcorr_tensor(basis), mild, 16).total_bound
            np.testing.assert_allclose(
                [row.s2i_db, row.s2i_lower_bound_db],
                [10 * np.log10(signal / energy), 10 * np.log10(signal / bound)],
                rtol=1e-12, atol=0,
            )

    @given(
        n=st.integers(5, 24),
        data=st.data(),
        include_bound=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(
        max_examples=12, deadline=None,
        # the fixture only patches names; every example re-pins each count
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_rows_do_not_depend_on_process_count(
        self, pin_cpus, fork_always, n, data, include_bound, seed
    ):
        g = data.draw(st.integers(0, n - 1), label="g")
        schemes = data.draw(
            st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=3), label="schemes"
        )
        etas = data.draw(st.lists(
            st.integers(1, n).map(lambda m: m / n), min_size=1, max_size=3
        ), label="etas")
        rng = np.random.default_rng(seed)
        delays = np.sort(rng.uniform(0.0, n + g, size=rng.integers(1, 5)))
        channel = exp_profile_spec(0.2, delays, float(delays[-1]))
        rows = {}
        for cpus in (1, 2, 3):
            pin_cpus(cpus, OMP_NUM_THREADS="1")
            rows[cpus] = s2i_sweep(
                schemes, etas, channel, n, g, n_blocks=3, include_bound=include_bound
            )
        # dataclass equality compares the floats exactly
        assert rows[1] == rows[2] == rows[3]
        assert_no_child()

    @pytest.mark.parametrize("n_blocks,delay", [(1, 3.0), (4, 40.0)])
    def test_bad_arguments_raise_before_any_fork(
        self, pin_cpus, no_fork, n_blocks, delay
    ):
        # N_p = 17 + 4 - 40 < 1 for the long delay
        pin_cpus(4, OMP_NUM_THREADS="1")
        channel = exp_profile_spec(0.1, [0.0, delay], delay)
        with pytest.raises(ParameterError):
            s2i_sweep(SCHEMES, [1.0, 15 / 17], channel, 17, 4, n_blocks=n_blocks)

    @pytest.mark.parametrize("schemes,etas", [([], [1.0]), (["ofdm"], [])])
    def test_empty_sweep_raises_before_any_fork(self, pin_cpus, no_fork, schemes, etas):
        pin_cpus(4, OMP_NUM_THREADS="1")
        with pytest.raises(ParameterError, match="at least one scheme and one eta"):
            s2i_sweep(schemes, etas, mild_channel_spec(), 17, 4, n_blocks=3)

    def test_one_task_sweep_never_forks(self, pin_cpus, no_fork, fork_always):
        pin_cpus(4, OMP_NUM_THREADS="1")
        # one span (every scheme spans C^N at M = N): one task, with or
        # without the bound, which comes from the same task, whatever the
        # break-even
        for include_bound in (False, True):
            rows = s2i_sweep(
                SCHEMES, [1.0], mild_channel_spec(), 17, 16, n_blocks=3,
                include_bound=include_bound,
            )
            assert len(rows) == 3

    def test_sweep_below_break_even_never_forks(self, monkeypatch, pin_cpus, no_fork):
        # three spans at N = 17 are three tasks, whose estimates (pair rows
        # plus 151 paths x 5 offsets, times N^2) sum far below the break-even
        pin_cpus(4, OMP_NUM_THREADS="1")
        work, fork_map = [], isimetrics.fork_map

        def spied(func, keys, estimates):
            work.append(estimates)
            return fork_map(func, keys, estimates)

        monkeypatch.setattr(isimetrics, "fork_map", spied)
        # spans, in the sweep's order: M = N (closed form, no pair row), OFDM
        # at M = 15 (real: an even deficit), OFDM at 14 (complex: two rows
        # per pair), DPSS at 15 and at 14
        rows = s2i_sweep(
            SCHEMES, [1.0, 15 / 17, 14 / 17], mild_channel_spec(), 17, 16, n_blocks=3
        )
        assert len(rows) == 9
        assert work == [[(p + 151 * 5) * 17 * 17 for p in (0, 120, 210, 120, 105)]]
        total = sum(work[0])
        assert total < _fork.FORK_BREAK_EVEN
        # at a break-even of the total itself, the same sweep forks
        monkeypatch.setattr(_fork, "FORK_BREAK_EVEN", total)
        with pytest.raises(AssertionError, match="asked to fork"):
            s2i_sweep(
                SCHEMES, [1.0, 15 / 17, 14 / 17], mild_channel_spec(), 17, 16,
                n_blocks=3,
            )
        assert_no_child()

    @pytest.mark.parametrize("argv,forks", [
        ("--n 64 --schemes ofdm,dft,dpss --etas [1.0,0.95] --prefix 16", False),
        ("--n 32 --channel severe --etas 0.5:0.1:1.0", False),
        ("--n 64 --etas 0.5:0.05:1.0", True),
        ("--n 96 --etas [1.0,0.95]", True),
        ("--n 128 --etas [1.0,0.95]", True),
        ("--channel mild --n 128 --etas 0.9:0.02:1.0", True),
    ])
    def test_break_even_splits_the_measured_sweeps(self, monkeypatch, argv, forks):
        # the sweeps the break-even was measured on, on their side of it:
        # the first two took longer forked on 2 CPUs, the others less.  Only
        # the estimates are compared; no span is computed.
        totals = []

        def estimated(func, keys, work):
            totals.append(sum(work))
            return [(1.0, 1.0, 1.0)] * len(keys)

        monkeypatch.setattr(isimetrics, "fork_map", estimated)
        args = cli.build_parser().parse_args(["s2i", *argv.split()])
        v = cli._resolve(args)
        s2i_sweep(v.schemes, v.etas, v.channel[0], v.n, v.prefix, n_blocks=v.blocks)
        (total,) = totals
        assert (total >= _fork.FORK_BREAK_EVEN) == forks

    @pytest.mark.parametrize("include_bound", [False, True])
    def test_spans_dealt_into_shares(
        self, monkeypatch, pin_cpus, fork_always, tmp_path, include_bound
    ):
        # spans: OFDM at M = 17, 15 and 13, DPSS at 15 and 13, handed to one
        # fork_map call in the sweep's order, with their estimates.  Above
        # the break-even (patched to 0), fork_map deals them largest
        # estimate first, so that round-robin shares balance: the M < N
        # spans by descending M (OFDM before DPSS, as the sweep built them),
        # then the closed-form M = N span.  Each process takes its whole
        # share in one _group_energies call and logs the call's spans with
        # its pid; on one CPU the one call takes them in the sweep's order.
        items, log = [], tmp_path / "shares.txt"
        fork_map, per_share = isimetrics.fork_map, isimetrics._group_energies

        def counted(func, keys, work):
            items.append(len(keys))
            return fork_map(func, keys, work)

        def logged(prefs, *args):
            spans = [(p.base.scheme.value, p.base.m_active) for p in prefs]
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(repr((os.getpid(), spans)) + "\n")
            return per_share(prefs, *args)

        monkeypatch.setattr(isimetrics, "fork_map", counted)
        monkeypatch.setattr(isimetrics, "_group_energies", logged)
        dealt = [("ofdm", 15), ("dpss", 15), ("ofdm", 13), ("dpss", 13), ("ofdm", 17)]
        shares = {
            1: [[("ofdm", 17), ("ofdm", 15), ("ofdm", 13), ("dpss", 15), ("dpss", 13)]],
            2: [dealt[0::2], dealt[1::2]],
            8: [[span] for span in dealt],
        }
        for cpus, want in shares.items():
            pin_cpus(cpus, OMP_NUM_THREADS="1")
            items.clear()
            log.unlink(missing_ok=True)
            rows = s2i_sweep(
                SCHEMES, [1.0, 15 / 17, 13 / 17], mild_channel_spec(), 17, 16,
                n_blocks=3, include_bound=include_bound,
            )
            calls = [ast.literal_eval(line) for line in log.read_text().splitlines()]
            assert items == [len(dealt)]
            # one call per share, each in its own process; share 0 runs here
            assert sorted(spans for _, spans in calls) == sorted(want)
            assert len({pid for pid, _ in calls}) == len(want)
            assert (os.getpid(), want[0]) in calls
            assert len(rows) == 9
            assert all(
                (r.s2i_lower_bound_db is not None) == include_bound for r in rows
            )
            assert_no_child()

    def test_no_correlation_tensor_on_sweep_path(self, monkeypatch):
        def refuse(basis):
            raise AssertionError("xcorr_tensor called")

        monkeypatch.setattr(isimetrics, "xcorr_tensor", refuse)
        rows = s2i_sweep(SCHEMES, [1.0, 15 / 17], mild_channel_spec(), 17, 16, n_blocks=3)
        assert all(r.s2i_lower_bound_db <= r.s2i_db for r in rows)


class TestRootBound:
    """The bound total from the lag root R against ``isi_bound`` on the tensor:
    sum_rs tail(C_rs) = sum_i tail(R_i) because R^H R = C^H C."""

    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(5, 40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_root_bound_matches_tensor_bound(self, scheme, n, data, seed):
        m = data.draw(st.integers(1, n), label="m")
        g = data.draw(st.integers(0, n - 1), label="g")
        rng = np.random.default_rng(seed)
        delays = np.sort(rng.uniform(0.0, n + g, size=rng.integers(1, 6)))
        channel = exp_profile_spec(rng.uniform(0.05, 1.0), delays, float(delays[-1]))
        basis = default_basis(scheme, n, m)
        pref = with_prefix(basis, g, PrefixKind.ZERO)
        tensor = xcorr_tensor(basis)
        span = with_prefix(sweep_basis(scheme, n, m), g, PrefixKind.ZERO)
        ((_, isi, root_bound),) = isimetrics._group_energies([span], channel, 3, True)
        tensor_bound = isi_bound(tensor, channel, g).total_bound
        floor = 64 * np.finfo(float).eps * np.sum(np.abs(tensor.values) ** 2)
        assert abs(root_bound - tensor_bound) <= floor
        # the root's rows, tailed at each path's own fractional shift, bound
        # the windowed ISI energy.  At the half shift they need not: with
        # DPSS N = 27, M = 17, g = 3 and one path at 0.58 both routes give
        # 2.69e-11 against an ISI energy of 2.96e-11.
        rows = isimetrics._gram_root(pref, pref)
        own = sum(
            path.power * _parseval_tails(
                rows, path.delay % 1.0, [n + g - math.floor(path.delay) - 1]
            ).sum()
            for path in channel.paths
        )
        if own > floor:
            assert own >= isi


class TestSpanBasis:
    """``_span_basis``: a basis of the same span, float64 when the span's
    projector is real (DPSS, and OFDM/DFT sets symmetric about f = 0), on
    which the lag root, the offset products and the energies run real."""

    @pytest.mark.parametrize("scheme,n,m,g", [
        (PrecodingScheme.OFDM, 17, 15, 4),
        (PrecodingScheme.OFDM, 16, 12, 3),
        (PrecodingScheme.DPSS, 16, 14, 2),
        (PrecodingScheme.OFDM, 24, 20, 16),
    ])
    def test_energy_functions_follow_the_root_dtype(self, scheme, n, m, g):
        mild = mild_channel_spec()
        basis = default_basis(scheme, n, m)
        span = isimetrics._span_basis(basis)
        assert span.o_matrix.dtype == np.float64
        cplx, real = (with_prefix(b, g, PrefixKind.ZERO) for b in (basis, span))
        assert isimetrics._gram_root(real, real).dtype == np.float64
        want = isi_gram(cplx, cplx, mild.delays, 4, include_signal=True)
        got = isi_gram(real, real, mild.delays, 4, include_signal=True)
        for k_got, k_want in zip(got, want):
            assert np.linalg.norm(k_got - k_want) <= 1e-12 * np.linalg.norm(k_want)
        for channel in (mild, realize(mild, 3)):
            np.testing.assert_allclose(
                signal_isi_energies(real, real, channel, 4),
                signal_isi_energies(cplx, cplx, channel, 4), rtol=1e-12, atol=0,
            )
            assert isi_energy(real, real, channel, 4) == pytest.approx(
                isi_energy(cplx, cplx, channel, 4), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("n,m", [(17, 15), (16, 12), (24, 24), (9, 1)])
    def test_ofdm_span_from_its_own_columns(self, monkeypatch, n, m):
        # an OFDM basis' real span takes the basis' own columns, with no
        # basis built again, and a DFT basis is its own span: s2i_sweep
        # never hands _span_basis one
        ofdm, dft = (default_basis(s, n, m) for s in SCHEMES[:2])

        def refuse(*args):
            raise AssertionError("basis built again")

        monkeypatch.setattr(isimetrics, "default_basis", refuse)
        assert isimetrics._span_basis(dft) is dft
        span = isimetrics._span_basis(ofdm)
        assert span.scheme is PrecodingScheme.OFDM
        assert span.o_matrix.dtype == np.float64
        o, rep = ofdm.o_matrix, span.o_matrix
        assert np.max(np.abs(rep @ rep.T - o @ o.conj().T)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(5, 40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_representative_keeps_the_span(self, scheme, n, data, seed):
        m = data.draw(st.integers(1, n), label="m")
        g = data.draw(st.integers(0, n - 1), label="g")
        n_blocks = data.draw(st.integers(2, 4), label="blocks")
        rng = np.random.default_rng(seed)
        delays = np.sort(rng.uniform(0.0, n + g, size=rng.integers(1, 6)))
        channel = exp_profile_spec(rng.uniform(0.05, 1.0), delays, float(delays[-1]))
        basis = default_basis(scheme, n, m)
        span = isimetrics._span_basis(basis)
        o, rep = basis.o_matrix, span.o_matrix
        proj = o @ o.conj().T
        real_span = np.max(np.abs(proj.imag)) <= 1e-13
        if scheme is PrecodingScheme.DFT or not real_span:
            assert span is basis
        else:
            assert rep.dtype == np.float64
        assert rep.shape == o.shape
        assert np.max(np.abs(rep @ rep.conj().T - proj)) <= 1e-13
        # the energies on the bases s2i_sweep builds for the row: a DFT
        # row's are the OFDM basis' and its span basis
        sweep = sweep_basis(scheme, n, m)
        cplx, pref = (
            with_prefix(b, g, PrefixKind.ZERO)
            for b in (sweep, isimetrics._span_basis(sweep))
        )
        ((signal, isi, bound),) = isimetrics._group_energies([pref], channel, n_blocks, True)
        want = isimetrics._group_energies([cplx], channel, n_blocks, True)[0]
        if not real_span:
            # an odd deficit N - M: the complex basis, the same bits
            assert (signal, isi, bound) == want
            return
        # energies as in test_span_energies_match_full_root_grams: round-off
        # of about eps |C| |k| in each route's R k, so 2 |R k| times that in
        # an energy; DPSS ISI energies near 1e-30 are all round-off
        grams = isi_gram(cplx, cplx, delays, n_blocks, include_signal=True)
        cmat = lag_matrix_reference(cplx.o_r, cplx.o_t)
        b = n + g
        isi_offsets = [d for d in range(1 - n_blocks, n_blocks) if d != 0]
        for value, ref, gram, offsets in zip(
            (signal, isi), want, grams[::-1], ([0], isi_offsets)
        ):
            kernels = [sinc_kernel_reference(b, d, delays) for d in offsets]
            floor = (
                32 * np.finfo(float).eps * np.sqrt(np.real(np.trace(gram)))
                * np.linalg.norm(cmat) * np.linalg.norm(kernels)
                * np.linalg.norm(channel.powers)
            )
            assert abs(value - ref) <= 1e-12 * abs(ref) + floor
        # the bound within TestRootBound's budget
        tensor = xcorr_tensor(basis)
        floor = 64 * np.finfo(float).eps * np.sum(np.abs(tensor.values) ** 2)
        assert abs(bound - want[2]) <= floor


# pi and sinc in extended precision: np.pi is a double, off by 1.2e-16
LONG_PI = 4 * np.arctan(np.longdouble(1))
LONG_EPS = float(np.finfo(np.longdouble).eps)


def long_sinc(k, tau):
    """sinc(k - tau) in longdouble for integers k and float64 delays tau,
    broadcast together: 1 at k = tau and exact zeros at other integer
    arguments.  The argument is reduced before the sine, sin(pi (k - tau))
    = (-1)^(k - n) sin(pi (n - tau)) for any integer n, with n - tau exact:
    the sine of pi (k - tau) itself loses log2(pi |k|) bits at a lag k."""
    k = np.asarray(k, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.float64)
    n = np.round(tau)
    sign = np.where((k - n) % 2 == 0, 1, -1).astype(np.longdouble)
    x = k - tau.astype(np.longdouble)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sign * np.sin(LONG_PI * (n - tau).astype(np.longdouble)) / (LONG_PI * x)
    return np.where(x == 0, np.longdouble(1), out)


LONG_ORACLE = pytest.mark.skipif(
    not LONG_EPS < 1e-18,
    reason=f"numpy.longdouble has eps {LONG_EPS:.1e} here, too coarse for an "
    "oracle of float64 round-off (needs < 1e-18, as x86-64's 80-bit type)",
)


@LONG_ORACLE
class TestSincWindow:
    """``_sinc_window``, the one delay kernel of the channel and the S2I
    analysis, against ``long_sinc``."""

    EPS = np.finfo(float).eps
    # the S2I channels, the CDL-C taps at 1000 ns, and delays an ulp or two
    # off a whole or a half sample, where k - tau rounds to an integer or
    # to a half at most lags
    DELAYS = np.concatenate([
        mild_channel_spec().delays, severe_channel_spec().delays,
        cdlc_channel_spec(1000.0).delays,
        [1.9999999999999991, 3.0000000000000004, 7.4999999999999991],
    ])

    def test_within_4_eps_of_longdouble(self):
        # np.sinc of the rounded k - tau is off by up to 3.0e-12 on the
        # mild and severe delays here, and gives 0 for the near-integer ones
        lags = np.arange(-2000, 2001)
        got = _sinc_window(-2000, lags.size, self.DELAYS)
        want = long_sinc(lags[None, :], self.DELAYS[:, None])
        nonzero = want != 0
        rel = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
        assert float(np.max(rel)) <= 4 * self.EPS
        # the only zeros are those of the whole delays (mild's 0.0 ... 15.0)
        whole = self.DELAYS == np.round(self.DELAYS)
        assert np.array_equal(nonzero, ~whole[:, None] | (lags == self.DELAYS[:, None]))

    def test_whole_delays_exact(self):
        # a unit tap at k = tau and positive zeros elsewhere, whatever the
        # first lag's parity
        delays = np.array([0.0, 1.0, 2.0, 15.0, 2000.0, 0.5])
        for first in (-7, -6, 0, 3):
            lags = np.arange(first, first + 2100)
            got = _sinc_window(first, lags.size, delays)
            want = (lags == delays[:5, None]).astype(float)
            assert got[:5].tobytes() == want.tobytes()
            assert np.all(got[5] != 0)

    @settings(max_examples=100, deadline=None)
    @given(
        first=st.integers(-3000, 3000),
        width=st.integers(1, 64),
        shift=st.integers(0, 64),
        delays=st.lists(
            st.one_of(
                st.integers(0, 40).map(float),
                st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=6,
        ),
    )
    @example(first=-5, width=11, shift=1, delays=[2.5, 1.9999999999999991, 5e-324])
    def test_any_window(self, first, width, shift, delays):
        # within 4 eps everywhere (and a few units of the last subnormal
        # place, for a delay that far below a whole sample), and a lag's
        # value does not depend on the window that holds it: the rolling S2I
        # window keeps columns of one evaluation beside those of the next
        delays = np.array(delays)
        got = _sinc_window(first, width, delays)
        want = long_sinc(np.arange(first, first + width)[None, :], delays[:, None])
        floor = 4 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(got - want) <= 4 * self.EPS * np.abs(want) + floor)
        wider = _sinc_window(first - shift, width + shift, delays)
        assert wider[:, shift:].tobytes() == got.tobytes()


def longdouble_span_reference(o, prefix_len, channel, n_blocks):
    """Dense longdouble sums for the zero-prefixed span of the N x M ``o``.

    Returns a dict: ``cmat``, the (M^2, 2N - 1) lag matrix
    sum_n o_r*[n] o_s[n - q]; ``signal`` and ``isi``, the power-weighted
    energies sum_p w_p ||C k_{p,d}||^2 at d = 0 and over 0 < |d| <
    ``n_blocks``, with ``signal_kernels`` and ``isi_kernels`` the matching
    sums sum_p w_p ||k_{p,d}||^2; and ``tail_total``, ``isi_bound``'s
    half-shift total, each pair's tail beyond N_p - 1 taken as
    ||C_rs||^2 minus its window, whose round-off floor is longdouble's.
    """
    o = np.asarray(o)
    o = o.astype(np.clongdouble if np.iscomplexobj(o) else np.longdouble)
    n, m = o.shape
    lags = np.arange(1 - n, n)
    cmat = np.empty((m * m, lags.size), dtype=o.dtype)
    for q in lags:
        if q >= 0:
            c = o[q:].conj().T @ o[: n - q]
        else:
            c = o[: n + q].conj().T @ o[-q:]
        cmat[:, q + n - 1] = c.ravel()
    b = n + prefix_len
    powers = np.asarray(channel.powers, dtype=np.longdouble)
    ref = dict.fromkeys(("signal", "isi", "signal_kernels", "isi_kernels"), 0)
    for d in range(1 - n_blocks, n_blocks):
        kernel = long_sinc(lags[:, None] + d * b, channel.delays[None, :])
        energy = powers @ np.sum(np.abs(cmat @ kernel) ** 2, axis=0)
        norms = powers @ np.sum(kernel**2, axis=0)
        key = "isi" if d else "signal"
        ref[key] += energy
        ref[key + "_kernels"] += norms
    total = np.longdouble(0)
    row_energy = np.sum(np.abs(cmat) ** 2, axis=1)
    for n_p, weight in isimetrics._window_powers(channel, n, prefix_len).items():
        pts = np.arange(1 - n_p, n_p)
        y = cmat @ long_sinc(lags[:, None] - pts[None, :], 0.5)
        tails = row_energy - np.sum(np.abs(y) ** 2, axis=1)
        total += np.longdouble(weight) * np.sum(tails)
    ref.update(cmat=cmat, tail_total=total)
    return ref


def tail_total_budget(n_len, prefix_len, channel, cnorm2):
    """float64 error budget of a power-weighted half-shift tail total over
    lag sequences of total energy ``cnorm2`` on L = 2N - 1 lags.

    With gamma_k = k eps / (1 - k eps), per window of radius R: ||c||^2 is
    off by gamma_L ||c||^2; each sample y_n = sum_q c_q S[n, q], with the
    kernel entries within 4 eps of sinc (``TestSincWindow``), by
    gamma_(L+4) (|S| |c|)_n, so the window energy by 2 gamma_(L+4)
    |||S|||_2 ||c||^2 (|||S|||_2 the spectral norm
    of the absolute kernel) and its sum by gamma_(2R+1) ||c||^2.  A lag
    root's rows, not C's, add ``TestRootBound``'s 64 eps ||C||_F^2.
    """
    eps = np.finfo(float).eps
    size = 2 * n_len - 1
    lags = np.arange(1 - n_len, n_len)

    def gamma(k):
        return k * eps / (1 - k * eps)

    budget = 0.0
    for n_p, weight in isimetrics._window_powers(channel, n_len, prefix_len).items():
        pts = np.arange(1 - n_p, n_p)
        reach = n_len + n_p - 2
        row = _sinc_window(-reach, 2 * reach + 1, [0.5])[0]
        kernel = np.abs(row[np.subtract.outer(lags, pts) + reach])
        per_energy = (
            gamma(size) + 2 * gamma(size + 4) * np.linalg.norm(kernel, 2)
            + gamma(2 * n_p - 1) + 64 * eps
        )
        budget += weight * per_energy
    return budget * cnorm2


@LONG_ORACLE
class TestLongdoubleOracle:
    """The DPSS span's lag matrix, energies and half-shift tail total
    against dense longdouble sums, on both routes: the complex basis of
    ``default_basis`` and its real representative.  DPSS bounds sit on
    the Parseval round-off floor, so this is what tells how far from the
    exact value each route's moved digits are."""

    @pytest.mark.parametrize("tap_model,n,m", [
        ("integer", 32, 24), ("mild", 32, 28), ("severe", 17, 11),
    ])
    def test_both_routes_within_float64_budgets(self, tap_model, n, m):
        channel = precofdm.builtin_channel_spec(tap_model)
        g, n_blocks = 16, 12
        basis = default_basis(PrecodingScheme.DPSS, n, m)
        ref = longdouble_span_reference(basis.o_matrix.real, g, channel, n_blocks)
        cmat = ref["cmat"].astype(np.float64)
        cnorm = float(np.linalg.norm(cmat))
        eps = np.finfo(float).eps
        routes = {"complex": basis, "real": isimetrics._span_basis(basis)}
        assert routes["real"].o_matrix.dtype == np.float64
        for route, span in routes.items():
            o = span.o_matrix
            # each lag is a dot product of two unit columns: |fl(C) - C| <=
            # gamma_N sum |o_r| |o_s| <= gamma_N
            got = isimetrics._cross_lag_matrix(o, o)
            diff = np.max(np.abs(got - ref["cmat"]))
            assert float(diff) <= n * eps / (1 - n * eps), route
            pref = with_prefix(span, g, PrefixKind.ZERO)
            ((signal, isi, bound),) = isimetrics._group_energies(
                [pref], channel, n_blocks, True
            )
            # each energy w_p ||C k||^2 is off by 2 |C k| eps |C| |k| (the
            # floor of test_span_energies_match_full_root_grams), so the
            # weighted sum by Cauchy-Schwarz at most 32 eps |C| sqrt(E K)
            for key, value in (("signal", signal), ("isi", isi)):
                want = float(ref[key])
                floor = 32 * eps * cnorm * math.sqrt(want * float(ref[key + "_kernels"]))
                assert abs(value - want) <= 1e-12 * want + floor, (route, key)
            budget = tail_total_budget(n, g, channel, cnorm**2)
            assert abs(bound - float(ref["tail_total"])) <= budget, route


class TestSquareSpanRoot:
    """At M = N the basis spans C^N, so C^H C = diag(N - |q|) over the 2N - 1
    lags and ``_group_energies`` takes R = diag(sqrt(N - |q|)) unfactored."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=2, max_value=32),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_closed_form_matches_qr_route(self, scheme, n, data, seed):
        g = data.draw(st.integers(min_value=0, max_value=n - 1), label="g")
        n_blocks = data.draw(st.integers(min_value=2, max_value=4), label="blocks")
        rng = np.random.default_rng(seed)
        delays = np.sort(rng.uniform(0.0, n + g, size=rng.integers(1, 6)))
        channel = exp_profile_spec(rng.uniform(0.05, 1.0), delays, float(delays[-1]))
        basis = default_basis(scheme, n, n)
        pref = with_prefix(basis, g, PrefixKind.ZERO)
        # the identity itself, on the un-prefixed basis
        cmat = lag_matrix_reference(basis.o_matrix, basis.o_matrix)
        root = np.diag(np.sqrt(n - np.abs(np.arange(1 - n, n))))
        err = np.linalg.norm(root.T @ root - cmat.conj().T @ cmat)
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(cmat) ** 2
        # energies against the QR route, floor as in
        # test_span_energies_match_full_root_grams
        ((signal, isi, bound),) = isimetrics._group_energies(
            [pref], channel, n_blocks, True
        )
        want = signal_isi_energies(pref, pref, channel, n_blocks)
        grams = isi_gram(pref, pref, delays, n_blocks, include_signal=True)
        pref_cmat = lag_matrix_reference(pref.o_r, pref.o_t)
        b = n + g
        isi_offsets = [d for d in range(1 - n_blocks, n_blocks) if d != 0]
        for value, ref, gram, offsets in zip(
            (signal, isi), want, grams[::-1], ([0], isi_offsets)
        ):
            kernels = [sinc_kernel_reference(b, d, delays) for d in offsets]
            floor = (
                32 * np.finfo(float).eps * np.sqrt(np.real(np.trace(gram)))
                * np.linalg.norm(pref_cmat) * np.linalg.norm(kernels)
                * np.linalg.norm(channel.powers)
            )
            assert abs(value - ref) <= 1e-12 * abs(ref) + floor
        # the bound against the tensor's, floor as in TestRootBound
        tensor = xcorr_tensor(basis)
        tensor_bound = isi_bound(tensor, channel, g).total_bound
        floor = 64 * np.finfo(float).eps * np.sum(np.abs(tensor.values) ** 2)
        assert abs(bound - tensor_bound) <= floor

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=64),
        g=st.integers(min_value=0, max_value=16),
        delays=st.lists(
            st.one_of(
                st.integers(0, 20).map(float),
                st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=8,
        ),
        n_blocks=st.integers(min_value=2, max_value=5),
    )
    def test_diagonal_root_scales_as_dense_gemm(self, n, g, delays, n_blocks):
        # the M = N route scales each offset's folded kernel columns by the
        # diagonal halves; the GEMMs on the dense diagonal matrices give the
        # same bits, and so do the energies summed from them
        delays = np.array(delays)
        channel = exp_profile_spec(0.5, delays, float(delays.max()))
        basis = default_basis(PrecodingScheme.OFDM, n, n)
        pref = with_prefix(basis, g % n, PrefixKind.ZERO)
        ((*scaled, _),) = isimetrics._group_energies([pref], channel, n_blocks, False)
        halves = isimetrics._diagonal_halves(n)
        dense = tuple(np.diag(half) for half in halves)
        with mock.patch.object(isimetrics, "_diagonal_halves", return_value=dense):
            ((*gemm, _),) = isimetrics._group_energies([pref], channel, n_blocks, False)
        assert [h.ndim for h in halves] == [1, 1]
        assert np.array(scaled).tobytes() == np.array(gemm).tobytes()

    def test_square_spans_factor_nothing(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("lag matrix built or factored")

        monkeypatch.setattr(isimetrics, "_cross_lag_matrix", refuse)
        monkeypatch.setattr(isimetrics, "_lag_root", refuse)
        rows = s2i_sweep(SCHEMES, [1.0], mild_channel_spec(), 17, 16, n_blocks=3)
        assert len(rows) == 3
        for scheme in ("ofdm", "dft", "dpss"):
            assert cli.main([
                "bound", "--scheme", scheme, "--n", "17", "--m", "17",
                "--blocks", "3", "--out", str(tmp_path / f"{scheme}.csv"),
            ]) == 0


def offset_windows(width, block_len, delays, offsets):
    """(d, k_d) per offset of ``_offset_windows``, each window copied before
    the generator overwrites it."""
    windows = isimetrics._offset_windows(width, block_len, delays, offsets)
    return [(d, kernel.copy()) for d, kernel in windows]


def folded_energies(kernel, halves):
    """Per-path energies sum |E k_e|^2 + sum |D k_o|^2 of the window
    ``kernel`` on 2N - 1 lags, folded onto the even and odd coordinates of
    the halves (transposed triangles, or diagonals that scale columns)."""
    n = (kernel.shape[1] + 1) // 2
    right, left = kernel[:, n:], kernel[:, : n - 1][:, ::-1]
    k_e = np.hstack([kernel[:, n - 1 : n], right + left])
    energies = 0
    for k, half in zip((k_e, right - left), halves):
        u = k * half if half.ndim == 1 else k @ half
        energies = energies + np.einsum("pi,pi->p", u, u)
    return energies


class TestSincTable:
    """Every block offset's kernels are one rolling window of the channel's
    sinc(k - tau_p) over the integers k, moved by B lags per offset and
    shared by the lag roots of a group of spans (``_offset_windows``,
    ``_group_energies``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=2, max_value=32),
        data=st.data(),
        decay=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_windows_match_per_offset_kernels(self, scheme, n, data, decay):
        m = data.draw(st.integers(min_value=1, max_value=n - 1), label="m")
        g = data.draw(st.integers(min_value=0, max_value=n - 1), label="g")
        n_blocks = data.draw(st.integers(min_value=2, max_value=40), label="blocks")
        # integer delays take the exact unit-tap rows of _sinc_window
        delays = np.sort(data.draw(st.lists(
            st.one_of(
                st.integers(0, n + g - 1).map(float),
                st.floats(0.0, n + g, exclude_max=True),
            ),
            min_size=1, max_size=6,
        ), label="delays"))
        b, lags = n + g, np.arange(1 - n, n)
        offsets = range(1 - n_blocks, n_blocks)
        # every offset, and isi_gram's without d = 0, which jumps from the
        # window of d = -1 to that of d = 1; isi_gram's 2B - 1 lags as well
        for width in (2 * n - 1, 2 * b - 1):
            half = width // 2
            for seq in (offsets, [d for d in offsets if d]):
                windows = offset_windows(width, b, delays, seq)
                assert [d for d, _ in windows] == list(seq)
                for d, kernel in windows:
                    want = _sinc_window(d * b - half, width, delays)
                    assert kernel.tobytes() == want.tobytes()

        # a group of a factored root and the closed-form M = N root against
        # a per-offset loop that evaluates each offset's kernels afresh and
        # folds them onto the halves
        prefs = [
            with_prefix(sweep_basis(scheme, n, size), g, PrefixKind.ZERO)
            for size in (m, n)
        ]
        even, odd = isimetrics._parity_lag_root(prefs[0].base.o_matrix)
        halves = [
            tuple(np.ascontiguousarray(half.T) for half in (even, odd)),
            isimetrics._diagonal_halves(n),
        ]
        signal, isi = [None, None], [0, 0]
        for d in offsets:
            kernel = _sinc_window(d * b - (n - 1), lags.size, delays)
            for i, pair in enumerate(halves):
                energies = folded_energies(kernel, pair)
                if d:
                    isi[i] = isi[i] + energies
                else:
                    signal[i] = energies
        channel = exp_profile_spec(decay, delays, float(delays[-1]))
        got = isimetrics._group_energies(prefs, channel, n_blocks, False)
        assert got == [
            (float(channel.powers @ s), float(channel.powers @ e), None)
            for s, e in zip(signal, isi)
        ]

    def test_each_kernel_value_evaluated_once(self, monkeypatch, pin_cpus):
        # one process, one group of three spans (OFDM and DPSS at M = 15,
        # and M = 17), the default 23 offsets: each integer |k| <= reach is
        # evaluated once, in calls no wider than one window; the bound adds
        # one tail kernel per span
        pin_cpus(1)
        mild = mild_channel_spec()
        n, g = 17, 16
        reach = (isimetrics.DEFAULT_BLOCK_WINDOW - 1) * (n + g) + n - 1
        # isimetrics reads the channel's _sinc_window under its own name
        window, tails = isimetrics._sinc_window, isimetrics._parseval_tails
        for include_bound in (False, True):
            kernel_lags, tail_calls, inside = [], [], []

            def counted_tails(*args):
                tail_calls.append(0)  # _sinc_window calls of this tail pass
                inside.append(True)
                try:
                    return tails(*args)
                finally:
                    inside.pop()

            def counted_window(first, width, delays):
                if inside:
                    tail_calls[-1] += 1
                else:
                    assert np.array_equal(delays, mild.delays)
                    assert 0 < width <= 2 * n - 1
                    kernel_lags.append(np.arange(first, first + width))
                return window(first, width, delays)

            monkeypatch.setattr(isimetrics, "_parseval_tails", counted_tails)
            monkeypatch.setattr(isimetrics, "_sinc_window", counted_window)
            rows = s2i_sweep(
                SCHEMES, [1.0, 15 / 17], mild, n, g, include_bound=include_bound
            )
            assert len(rows) == 6
            assert np.array_equal(
                np.sort(np.concatenate(kernel_lags)), np.arange(-reach, reach + 1)
            )
            assert tail_calls == [1] * (3 * include_bound)

    @pytest.mark.parametrize("spec", [
        mild_channel_spec(),
        integer_channel_spec(),
        # delays an ulp or two off an integer: k - tau rounds to an integer
        # at most lags, where the kernel's tiny values are still the sinc's
        ChannelSpec(
            (PathSpec(3.0000000000000004, gain_power=1.0),
             PathSpec(1.9999999999999991, gain_power=0.5),
             PathSpec(5.0, gain_power=0.25)),
            max_delay=5.0,
        ),
    ], ids=["mild", "integer", "near-integer"])
    def test_windows_match_channel_kernels(self, spec):
        # the S2I analysis and the channel's taps read one sinc: on every
        # lag they share, the exact kernels of a stream that reaches every
        # window are bit-equal to the S2I windows, which are zero elsewhere,
        # as the FIR is off its lags
        n, g, n_blocks = 17, 4, 4
        b, width = n + g, 2 * n - 1
        lag0, kernels = _path_kernels(spec, (n_blocks - 1) * b + n, None)
        offsets = range(1 - n_blocks, n_blocks)
        for d, window in offset_windows(width, b, spec.delays, offsets):
            i = np.arange(width) - width // 2 + d * b - lag0
            on = (i >= 0) & (i < kernels.shape[1])
            want = np.ascontiguousarray(kernels[:, i[on]])
            assert window[:, on].tobytes() == want.tobytes()
            assert not np.any(window[:, ~on])

    def test_tables_built_after_the_group_roots(
        self, monkeypatch, pin_cpus, fork_always, tmp_path
    ):
        # so that the window never coexists with a half lag matrix: two shares,
        # one per process, and each share's first kernel value comes after
        # its last root; each process logs its share's events as one line
        events, log = [], tmp_path / "events.txt"
        per_share, lag_root, window = (
            isimetrics._group_energies, isimetrics._parity_lag_root,
            isimetrics._sinc_window,
        )

        def share(prefs, *args):
            events.clear()
            values = per_share(prefs, *args)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(" ".join(events) + "\n")
            return values

        def root(*args):
            value = lag_root(*args)
            events.append("root")
            return value

        def counted_window(*args):
            events.append("sinc")
            return window(*args)

        monkeypatch.setattr(isimetrics, "_group_energies", share)
        monkeypatch.setattr(isimetrics, "_parity_lag_root", root)
        monkeypatch.setattr(isimetrics, "_sinc_window", counted_window)
        pin_cpus(2, OMP_NUM_THREADS="1")
        # shares: OFDM at M = 15, 13 and 17 (closed form, no QR); DPSS at 15, 13
        s2i_sweep(
            SCHEMES, [1.0, 15 / 17, 13 / 17], mild_channel_spec(), 17, 16,
            n_blocks=3, include_bound=False,
        )
        shares = [line.split() for line in log.read_text().splitlines()]
        assert len(shares) == 2
        for seen in shares:
            assert seen[:2] == ["root", "root"]
            assert seen[2:] and set(seen[2:]) == {"sinc"}
        assert_no_child()


class TestHalfShiftScan:
    def test_restricted_domain_max_at_half(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9))
        taus = np.arange(0.05, 0.51, 0.05)
        arg, curve = half_shift_worst_case_scan(tensor, 0, 8, taus)
        assert arg == pytest.approx(0.5)
        assert np.argmax(curve) == len(taus) - 1

    def test_curve_positive_and_reported(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.DPSS, 9, 9))
        taus = np.arange(0.1, 0.91, 0.1)
        arg, curve = half_shift_worst_case_scan(tensor, 8, 8, taus)
        assert curve.shape == taus.shape
        assert np.all(curve >= 0.0)
        assert arg in taus

    @pytest.mark.parametrize("r,s,q", [
        (0, 0, -5), (0, 0, 5), (-1, 0, 0), (0, -1, 0), (5, 0, 0), (0, 5, 4),
    ])
    def test_out_of_range_index_is_error(self, r, s, q):
        # numpy would wrap a negative index round to the other end
        tensor = xcorr_tensor(default_basis(PrecodingScheme.DPSS, 5, 5))
        with pytest.raises(ParameterError):
            tensor.lag(r, s, q)
        if q == 0:
            for rows, cols in ((r, s), (np.array([0, r]), np.array([1, s]))):
                with pytest.raises(ParameterError, match="out of range"):
                    half_shift_worst_case_scan(tensor, rows, cols, [0.5])

    def test_grid_validation(self):
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 9, 9))
        with pytest.raises(ParameterError):
            half_shift_worst_case_scan(tensor, 0, 0, np.array([0.0, 0.5]))
        with pytest.raises(ParameterError, match="non-empty"):
            half_shift_worst_case_scan(tensor, 0, 0, np.array([]))
        for grid in (0.5, [[0.25, 0.5]]):
            with pytest.raises(ParameterError, match="1-D"):
                half_shift_worst_case_scan(tensor, 0, 0, grid)

    @pytest.mark.parametrize("scheme", list(PrecodingScheme))
    def test_all_pairs_at_once_match_pair_by_pair(self, scheme):
        # bit for bit, so a scan's CSV does not depend on how pairs are batched
        tensor = xcorr_tensor(default_basis(scheme, 9, 8))
        taus = np.round(np.arange(0.05, 0.951, 0.05), 10)
        r, s = np.divmod(np.arange(64), 8)
        args, curves = half_shift_worst_case_scan(tensor, r, s, taus)
        assert curves.shape == (64, len(taus))
        for i in range(64):
            arg, curve = half_shift_worst_case_scan(tensor, r[i], s[i], taus)
            assert np.array_equal(curves[i], curve)
            assert args[i] == arg
        grid_args, grid = half_shift_worst_case_scan(
            tensor, np.arange(8)[:, None], np.arange(8)[None, :], taus
        )
        assert np.array_equal(grid.reshape(64, -1), curves)
        assert np.array_equal(grid_args.ravel(), args)
