"""Tests for correlation tensors, tail energies, ISI energies and bounds."""

import dataclasses
import math
import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import precofdm
from precofdm import cli, isimetrics

from precofdm.channel import (
    ChannelSpec,
    PathSpec,
    exp_profile_spec,
    integer_channel_spec,
    mild_channel_spec,
    realize,
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
    default_basis,
    with_prefix,
)

SCHEMES = [PrecodingScheme.OFDM, PrecodingScheme.DFT, PrecodingScheme.DPSS]


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
    """Kernel sinc(q + d B - tau_p) on the lags q of a block of length B."""
    x = np.arange(-(b - 1), b)[:, None] + d * b - np.asarray(delays)[None, :]
    kernel = np.sinc(x)
    # sin(pi k) vanishes at a nonzero integer k; np.sinc leaves about 1e-17
    kernel[(x == np.round(x)) & (x != 0)] = 0.0
    return kernel


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
        got = isimetrics._span_energies(pref, channel, n_blocks, False)[:2]
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
        sinc = isimetrics._sinc

        def counted(x):
            calls.append(np.shape(x))
            return sinc(x)

        monkeypatch.setattr(isimetrics, "_sinc", counted)
        tensor = xcorr_tensor(default_basis(PrecodingScheme.OFDM, 17, 17))
        isi_bound(tensor, mild_channel_spec(), 16)
        # mild spans 16 distinct N_p; the widest window holds every one
        assert calls == [(2 * 17 - 1, 2 * (17 + 16 - 1) + 1)]

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
        # every call is counted here.
        pin_cpus(1)
        mild = mild_channel_spec()
        calls = []
        per_span = isimetrics._span_energies

        def counted(pref, *args):
            calls.append((pref.base.scheme, pref.base.m_active))
            return per_span(pref, *args)

        monkeypatch.setattr(isimetrics, "_span_energies", counted)
        rows = s2i_sweep(SCHEMES, [1.0, m / n], mild, n, 16, n_blocks=4)
        # dealt largest first: the M < N spans, then the M = N span
        assert calls == [
            (PrecodingScheme.OFDM, m), (PrecodingScheme.DPSS, m),
            (PrecodingScheme.OFDM, n),
        ]
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
        self, pin_cpus, n, data, include_bound, seed
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
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_blocks,delay", [(1, 3.0), (4, 40.0)])
    def test_bad_arguments_raise_before_any_fork(
        self, pin_cpus, no_fork, n_blocks, delay
    ):
        # N_p = 17 + 4 - 40 < 1 for the long delay
        pin_cpus(4, OMP_NUM_THREADS="1")
        channel = exp_profile_spec(0.1, [0.0, delay], delay)
        with pytest.raises(ParameterError):
            s2i_sweep(SCHEMES, [1.0, 15 / 17], channel, 17, 4, n_blocks=n_blocks)

    def test_one_task_sweep_never_forks(self, pin_cpus, no_fork):
        pin_cpus(4, OMP_NUM_THREADS="1")
        # one span (every scheme spans C^N at M = N): one task, with or
        # without the bound, which comes from the same task
        for include_bound in (False, True):
            rows = s2i_sweep(
                SCHEMES, [1.0], mild_channel_spec(), 17, 16, n_blocks=3,
                include_bound=include_bound,
            )
            assert len(rows) == 3
        # three spans are three tasks
        with pytest.raises(AssertionError, match="process context"):
            s2i_sweep(SCHEMES, [1.0, 15 / 17], mild_channel_spec(), 17, 16, n_blocks=3)

    @pytest.mark.parametrize("include_bound", [False, True])
    def test_one_fork_map_item_per_span(self, monkeypatch, include_bound):
        seen = []

        def serial(func, items):
            items = list(items)
            seen.append([(p.base.scheme, p.base.m_active) for p in items])
            return [func(x) for x in items]

        monkeypatch.setattr(isimetrics, "fork_map", serial)
        # spans: OFDM at M = 17, 15 and 13, DPSS at 15 and 13
        rows = s2i_sweep(
            SCHEMES, [1.0, 15 / 17, 13 / 17], mild_channel_spec(), 17, 16,
            n_blocks=3, include_bound=include_bound,
        )
        # dealt largest first, so that round-robin shares balance: the M < N
        # spans by descending M, then the closed-form M = N span
        ofdm, dpss = PrecodingScheme.OFDM, PrecodingScheme.DPSS
        assert seen == [[(ofdm, 15), (dpss, 15), (ofdm, 13), (dpss, 13), (ofdm, 17)]]
        assert len(rows) == 9
        assert all((r.s2i_lower_bound_db is not None) == include_bound for r in rows)

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
        _, isi, root_bound = isimetrics._span_energies(pref, channel, 3, True)
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


class TestSquareSpanRoot:
    """At M = N the basis spans C^N, so C^H C = diag(N - |q|) over the 2N - 1
    lags and ``_span_energies`` takes R = diag(sqrt(N - |q|)) unfactored."""

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
        signal, isi, bound = isimetrics._span_energies(pref, channel, n_blocks, True)
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
        # the M = N route scales each offset's kernel columns by the
        # diagonal; the GEMM on the dense diagonal root gives the same bits,
        # and so do the per-path energies summed from them
        scale = np.sqrt(n - np.abs(np.arange(1 - n, n)))
        delays = np.array(delays)
        offsets = range(1 - n_blocks, n_blocks)
        scaled = isimetrics._offset_products(scale, n + g, delays, offsets)
        dense = isimetrics._offset_products(np.diag(scale + 0j), n + g, delays, offsets)
        for (d, u), (d_dense, u_dense) in zip(scaled, dense, strict=True):
            assert d == d_dense
            assert u.shape == u_dense.shape == (len(delays), 2 * (2 * n - 1))
            assert np.array_equal(u, u_dense)
            assert not np.any(u[:, 1::2])
            energies = np.einsum("pi,pi->p", u, u)
            assert energies.tobytes() == np.einsum("pi,pi->p", u_dense, u_dense).tobytes()

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
