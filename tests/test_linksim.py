"""Tests for QPSK mapping, frame assembly, equalization, and SER runs."""

import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from precofdm import _fork, channel, linksim
from precofdm.channel import (
    DEFAULT_FIR_HALF_LEN,
    ChannelOperator,
    ChannelSpec,
    PathSpec,
    cdlc_channel_spec,
    fir_lags,
    prefix_length_for,
    realize,
)
from precofdm.errors import ParameterError
from precofdm.linksim import (
    FrameConfig,
    analytic_qpsk_ser,
    build_frame,
    draw_payloads,
    equalize_and_detect,
    qpsk_map,
    run_ser,
    run_trial,
)
from precofdm.waveform import PrecodingScheme, PrefixKind, default_basis, with_prefix

IDENTITY = ChannelSpec((PathSpec(delay=0.0, gain=1.0 + 0.0j),), 0.0, name="identity")


def qpsk_detect(symbols):
    """Quadrant decision onto the unit-energy QPSK constellation."""
    symbols = np.asarray(symbols)
    return (1.0 / math.sqrt(2.0)) * (
        np.where(symbols.real >= 0, 1.0, -1.0)
        + 1j * np.where(symbols.imag >= 0, 1.0, -1.0)
    )


class TestQpsk:
    def test_gray_map_convention(self):
        sym = qpsk_map(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        root = 1.0 / math.sqrt(2.0)
        assert np.allclose(
            sym,
            [root + 1j * root, root - 1j * root, -root + 1j * root, -root - 1j * root],
        )
        assert np.allclose(np.abs(sym), 1.0)

    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=10_000)
        sym = qpsk_map(bits)
        assert np.array_equal(qpsk_detect(sym), sym)
        # Gray map: the first bit is the sign of I, the second that of Q
        signs = np.stack([sym.real < 0, sym.imag < 0], axis=1).ravel()
        assert np.array_equal(signs.astype(bits.dtype), bits)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ParameterError):
            qpsk_map(np.array([0, 1, 0]))

    def test_awgn_ser_matches_analytic(self):
        rng = np.random.default_rng(1)
        n = 200_000
        snr_lin = 10.0
        sym = qpsk_map(rng.integers(0, 2, size=2 * n))
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(
            0.5 / snr_lin
        )
        detected = qpsk_detect(sym + noise)
        ser = np.mean(detected != sym)
        expected = analytic_qpsk_ser(snr_lin)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(ser - expected) <= 3 * sigma

    def test_analytic_ser_matches_scipy_erfc(self):
        # scipy.special is the oracle here only; the package uses math.erfc
        from scipy.special import erfc

        for snr_db in [0.0, 4.0, 8.0, 12.0, *np.arange(-20.0, 20.25, 0.25)]:
            snr_lin = 10 ** (snr_db / 10.0)
            p = 0.5 * erfc(math.sqrt(snr_lin / 2.0))
            want = 2.0 * p - p * p
            assert abs(analytic_qpsk_ser(snr_lin) - want) <= 1e-13 * want, snr_db


class TestBuildFrame:
    def cfg(self, **kw):
        base = dict(
            scheme=PrecodingScheme.OFDM, eta=1.0, n_len=16, prefix_len=2,
            p_delta_db=10.0,
        )
        base.update(kw)
        return FrameConfig(**base)

    def frame(self, cfg, seed):
        payloads = draw_payloads(cfg, np.random.default_rng(seed))
        return build_frame(cfg, cfg.make_basis(), payloads)

    def test_stream_length_and_determinism(self):
        cfg = self.cfg()
        a = self.frame(cfg, 5)
        b = self.frame(cfg, 5)
        assert a.shape == (42 * 18,)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, self.frame(cfg, 6))

    def test_power_offset_between_subframes(self):
        # past the prefix, each block holds O i for a unit-modulus payload i,
        # so its energy is exactly M times the subframe's power scale
        cfg = self.cfg(p_delta_db=10.0)
        blocks = self.frame(cfg, 2).reshape(42, 18)[:, cfg.prefix_len :]
        energy = np.sum(np.abs(blocks) ** 2, axis=1)
        assert np.allclose(energy[14:28], cfg.m_active, rtol=1e-12)
        assert np.allclose(energy[:14], 10.0 * cfg.m_active, rtol=1e-12)
        assert np.allclose(energy[28:], 10.0 * cfg.m_active, rtol=1e-12)

    def test_plain_cp_ofdm_structure(self):
        cfg = self.cfg(p_delta_db=0.0, prefix_len=4)
        stream = self.frame(cfg, 1)
        blocks = stream.reshape(42, 20)
        # cyclic prefix repeats the symbol tail
        assert np.allclose(blocks[:, :4], blocks[:, -4:], atol=1e-12)

    def test_payloads_match_row_by_row_mapping(self):
        cfg = self.cfg()
        bits = np.random.default_rng(7).integers(0, 2, size=(42, 32))
        rows = np.stack([qpsk_map(row) for row in bits])
        assert np.array_equal(draw_payloads(cfg, np.random.default_rng(7)), rows)

    def test_block_range_is_slice_of_frame(self):
        # a run of blocks straddling both subframe edges, and the tail
        cfg = self.cfg(p_delta_db=10.0)
        basis = cfg.make_basis()
        payloads = draw_payloads(cfg, np.random.default_rng(3))
        frame = build_frame(cfg, basis, payloads)
        b = basis.block_len
        for start, stop in ((10, 31), (0, 42), (40, None)):
            part = build_frame(cfg, basis, payloads, start, stop)
            end = None if stop is None else stop * b
            assert np.allclose(part, frame[start * b : end], rtol=0, atol=1e-14)

    def test_payload_shape_checked(self):
        cfg = self.cfg()
        with pytest.raises(ParameterError):
            build_frame(cfg, cfg.make_basis(), payloads=np.zeros((3, 16)))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            self.cfg(eta=0.0)
        with pytest.raises(ParameterError, match="prefix_len must be >= 0"):
            self.cfg(prefix_len=-1)
        for p_delta_db in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                self.cfg(p_delta_db=p_delta_db)

    def test_m_active_floor(self):
        assert FrameConfig(
            scheme=PrecodingScheme.DPSS, eta=0.98, n_len=128, prefix_len=4
        ).m_active == 125


def gray_bits(symbols):
    return np.stack([symbols.real < 0, symbols.imag < 0], axis=-1)


class TestEqualizeAndDetect:
    @staticmethod
    def normal_equations(a, received):
        a_h = a.conj().T
        return a_h @ a, a_h @ received.T

    def test_identity_noiseless(self):
        rng = np.random.default_rng(3)
        sym = qpsk_map(rng.integers(0, 2, size=40)).reshape(4, 5)
        (bits,) = equalize_and_detect(np.eye(5, dtype=complex), sym.T[None], [0.0])
        assert bits.shape == (4, 5, 2)
        assert np.array_equal(qpsk_map(bits.reshape(-1)).reshape(4, 5), sym)

    def test_diagonal_high_snr(self):
        rng = np.random.default_rng(4)
        sym = qpsk_map(rng.integers(0, 2, size=12))
        a = np.diag(np.array([2.0, 0.5j, -1.0 + 1.0j, 3.0, 0.2, 1.0j]))
        gram, matched = self.normal_equations(a, sym[None, :] @ a.T)
        (bits,) = equalize_and_detect(gram, matched[None], [1e-9])
        assert np.array_equal(bits[0], gray_bits(sym))

    def test_zero_forcing_limit_on_random_channel(self):
        rng = np.random.default_rng(5)
        m = 8
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a += 4.0 * np.eye(m)  # keep it well conditioned
        sym = qpsk_map(rng.integers(0, 2, size=2 * 1000 * m)).reshape(1000, m)
        gram, matched = self.normal_equations(a, sym @ a.T)
        (bits,) = equalize_and_detect(gram, matched[None], [0.0])
        assert np.array_equal(bits, gray_bits(sym))

    def test_points_share_gram_and_keep_their_noise(self):
        # each point's decisions equal those of a solve of its own system
        rng = np.random.default_rng(6)
        m, k = 6, 9
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gram = a.conj().T @ a
        matched = rng.standard_normal((3, m, k)) + 1j * rng.standard_normal((3, m, k))
        noise_vars = [0.01, 0.5, 20.0]
        out = equalize_and_detect(gram, matched, noise_vars)
        for bits, rhs, n0 in zip(out, matched, noise_vars):
            est = np.linalg.solve(gram + n0 * np.eye(m), rhs)
            assert np.array_equal(bits, gray_bits(est.T))

    def test_singular_point_is_none(self):
        # a zero Gram matrix is singular without noise and n0 I with it: the
        # first point fails Cholesky, the second is solved
        out = equalize_and_detect(
            np.zeros((4, 4), dtype=complex), np.ones((2, 4, 3), dtype=complex),
            [0.0, 1e-3],
        )
        assert out[0] is None
        assert np.array_equal(out[1], np.zeros((3, 4, 2), dtype=bool))

    @staticmethod
    def lu_route(gram, rhs, n0):
        """Decisions of one LU solve of gram + n0 I; None as for a skipped point."""
        system = gram.copy()
        system[np.diag_indices_from(system)] += n0
        try:
            est = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        return gray_bits(est.T) if np.all(np.isfinite(est)) else None

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(1, 40),
        k=st.integers(1, 14),
        n0=st.one_of(st.just(0.0), st.floats(1e-8, 1e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cholesky_decisions_equal_lu(self, m, k, n0, seed):
        # a full-rank A gives a Hermitian positive definite gram + n0 I,
        # which Cholesky solves; LU of the same system decides alike
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        gram = a.conj().T @ a
        rhs = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        (bits,) = equalize_and_detect(gram, rhs[None], [n0])
        assert np.array_equal(bits, self.lu_route(gram, rhs, n0))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 24),
        k=st.integers(1, 14),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_deficient_zero_forcing_as_lu(self, m, k, data, seed):
        # zero columns of A (all of them: a zero gram) leave gram singular at
        # n0 = 0; Cholesky stops at an exact zero pivot, and the point is
        # skipped, as LU would skip it
        zero = data.draw(st.sets(st.integers(0, m - 1), min_size=1), label="zero")
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a[:, sorted(zero)] = 0.0
        gram = a.conj().T @ a
        rhs = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        out = equalize_and_detect(gram, rhs[None], [0.0])
        assert out == [self.lu_route(gram, rhs, 0.0)] == [None]

    def test_indefinite_point_skipped(self, monkeypatch, caplog):
        # Cholesky refuses a Hermitian matrix with a negative eigenvalue,
        # which LU would solve: the point is None, beside a solved one
        gram = np.diag([2.0, -1.0, 0.5]).astype(complex)
        rhs = np.array([[1.0 - 1.0j], [1.0 + 1.0j], [-1.0 + 1.0j]])
        out = equalize_and_detect(gram, np.stack([rhs, rhs]), [0.0, 2.0])
        assert out[0] is None
        assert np.array_equal(out[1], gray_bits(rhs.T))
        # a trial whose genie Gram has a negative diagonal entry skips the
        # point and logs it
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=24, prefix_len=4)
        normal_equations = linksim._normal_equations

        def indefinite(*args):
            gram, signal, noise = normal_equations(*args)
            gram = gram.copy()
            gram[0, 0] *= -1.0
            return gram, signal, noise

        monkeypatch.setattr(linksim, "_normal_equations", indefinite)
        with caplog.at_level("WARNING", logger="precofdm.linksim"):
            errors, symbols = run_trial(
                cfg, cdlc_channel_spec(200.0), cfg.make_basis(), [40.0], seed=3
            )
        assert errors.tolist() == symbols.tolist() == [0]
        assert "trial seed 3 skipped at 40.0 dB" in caplog.text

    def test_shapes_checked(self):
        gram = np.eye(4, dtype=complex)
        for matched, noise_vars in (
            (np.ones((2, 4, 3)), [0.1]),  # one variance for two points
            (np.ones((1, 3, 3)), [0.1]),  # M disagrees with gram
            (np.ones((4, 3)), [0.1]),  # no point axis
        ):
            with pytest.raises(ParameterError):
                equalize_and_detect(gram, matched, noise_vars)
        with pytest.raises(ParameterError):
            equalize_and_detect(np.ones((4, 3)), np.ones((1, 4, 3)), [0.1])

    def test_non_finite_point_is_none(self):
        matched = np.ones((3, 4, 2), dtype=complex)
        matched[1, 2, 0] = np.nan
        out = equalize_and_detect(np.eye(4, dtype=complex), matched, [0.1, 0.1, 0.1])
        assert out[1] is None
        assert out[0] is not None and out[2] is not None


def reference_trial(cfg, spec, basis, snrs, seed):
    """run_trial written out point by point, as equalization was first built.

    Each SNR point forms A^H A + n0 I and A^H z afresh, solves it by LU and
    counts errors with ``qpsk_detect`` and ``np.isclose``.
    """
    rng = np.random.default_rng(seed)
    real = realize(spec, rng, block_len=basis.block_len, n_blocks=cfg.n_symbols)
    payloads = draw_payloads(cfg, rng)
    op = ChannelOperator(real, half_len=DEFAULT_FIR_HALF_LEN)
    y = op.apply(build_frame(cfg, basis, payloads))
    lo, hi = 14, 28
    o_r_conj = basis.o_r.conj()
    a = o_r_conj.T @ op.block(lo, lo) @ basis.o_t
    a_h = a.conj().T
    es = float(np.real(np.trace(a_h @ a))) / cfg.m_active
    y_victim = y[lo * basis.block_len : hi * basis.block_len].reshape(14, -1)
    noise = (
        rng.standard_normal(y_victim.shape) + 1j * rng.standard_normal(y_victim.shape)
    ) / math.sqrt(2.0)
    expected = qpsk_detect(payloads[lo:hi])
    counts = []
    for snr_db in snrs:
        n0 = es / 10.0 ** (snr_db / 10.0)
        z = (y_victim + math.sqrt(n0) * noise) @ o_r_conj
        est = np.linalg.solve(a_h @ a + n0 * np.eye(cfg.m_active), a_h @ z.T).T
        counts.append(int(np.sum(~np.isclose(qpsk_detect(est), expected, atol=1e-9))))
    return counts


class TestRunSer:
    def test_identity_high_snr_error_free(self):
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=33, prefix_len=0)
        (pt,) = run_ser(cfg, IDENTITY, [40.0], n_trials=20, base_seed=0)
        assert pt.ser == 0.0
        assert pt.total_symbols == 20 * 14 * 33
        assert type(pt.snr_db) is type(pt.ser) is float
        assert type(pt.trials) is type(pt.total_symbols) is int

    def test_awgn_matches_analytic_curve(self):
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=33, prefix_len=0)
        points = run_ser(cfg, IDENTITY, [0.0, 4.0, 8.0], n_trials=60, base_seed=3)
        for pt in points:
            expected = analytic_qpsk_ser(10 ** (pt.snr_db / 10.0))
            sigma = math.sqrt(expected * (1 - expected) / pt.total_symbols)
            assert abs(pt.ser - expected) <= 3 * sigma

    def test_deterministic_given_seeds(self):
        cfg = FrameConfig(
            scheme=PrecodingScheme.DPSS, eta=0.9, n_len=17, prefix_len=3
        )
        spec = cdlc_channel_spec(200.0)
        a = run_ser(cfg, spec, [10.0, 20.0], n_trials=10, base_seed=4)
        b = run_ser(cfg, spec, [10.0, 20.0], n_trials=10, base_seed=4)
        assert a == b

    def test_error_counts_pinned(self):
        # symbol errors of 20 trials on cdlc1000ns, DFT at eta 1, 10 dB offset,
        # summed per SNR point; any change to channel filtering or detection
        # that flips a decision moves them
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DFT, eta=1.0, n_len=128,
            prefix_len=prefix_length_for(spec), p_delta_db=10.0,
        )
        basis = cfg.make_basis()
        snrs = [15.0, 25.0, 30.0, 35.0]
        trials = [run_trial(cfg, spec, basis, snrs, seed) for seed in range(20)]
        errors = sum(errors for errors, _ in trials)
        assert errors.tolist() == [89, 38, 41, 40]

    def test_error_counts_pinned_dpss(self):
        # as above for DPSS at M = 121 without power offset
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DPSS, eta=121 / 128, n_len=128,
            prefix_len=prefix_length_for(spec), p_delta_db=0.0,
        )
        basis = cfg.make_basis()
        snrs = [15.0, 25.0, 30.0, 35.0]
        trials = [run_trial(cfg, spec, basis, snrs, seed) for seed in range(20)]
        errors = sum(errors for errors, _ in trials)
        assert errors.tolist() == [201, 0, 0, 0]
        assert all(symbols.tolist() == [14 * 121] * 4 for _, symbols in trials)

    def test_error_counts_pinned_ill_conditioned(self):
        # as the DFT pin above over 0:5:40 dB and zero forcing at inf dB,
        # where the MMSE systems are worst conditioned
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DFT, eta=1.0, n_len=128,
            prefix_len=prefix_length_for(spec), p_delta_db=10.0,
        )
        basis = cfg.make_basis()
        snrs = [*np.arange(0.0, 41.0, 5.0), np.inf]
        trials = [run_trial(cfg, spec, basis, snrs, seed) for seed in range(20)]
        errors = sum(errors for errors, _ in trials)
        assert errors.tolist() == [12444, 5864, 1251, 89, 36, 38, 41, 40, 41, 40]
        assert all(symbols.tolist() == [14 * 128] * 10 for _, symbols in trials)

    def test_failed_point_skipped_alone(self, monkeypatch, caplog):
        # Cholesky fails at the second SNR point, which is not solved any
        # other way: that point alone reports zero symbols, and the others
        # keep the counts of an undisturbed run
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=24, prefix_len=4)
        spec = cdlc_channel_spec(200.0)
        snrs = [5.0, 10.0, 20.0]
        basis = cfg.make_basis()
        clean = run_trial(cfg, spec, basis, snrs, seed=11)
        zposv = linksim.lapack.zposv
        calls = []

        def cholesky_fails_second(a, b, **kwargs):
            calls.append("cholesky")
            c, x, info = zposv(a, b, **kwargs)
            return (c, x, 2) if calls.count("cholesky") == 2 else (c, x, info)

        monkeypatch.setattr(linksim.lapack, "zposv", cholesky_fails_second)
        monkeypatch.setattr(linksim.np.linalg, "solve", lambda *a: calls.append("lu"))
        with caplog.at_level("WARNING", logger="precofdm.linksim"):
            skipped = run_trial(cfg, spec, basis, snrs, seed=11)
        assert calls == ["cholesky", "cholesky", "cholesky"]
        assert skipped[0].tolist() == [clean[0][0], 0, clean[0][2]]
        assert skipped[1].tolist() == [14 * 24, 0, 14 * 24]
        assert "skipped at 10.0 dB" in caplog.text
        assert "skipped at 5.0 dB" not in caplog.text
        assert "skipped at 20.0 dB" not in caplog.text

    def test_noise_calibration(self):
        # measured noise power against the configured SNR, via the internals
        from precofdm.channel import ChannelOperator, realize

        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=64, prefix_len=4)
        basis = cfg.make_basis()
        rng = np.random.default_rng(0)
        # reproduce the per-trial noise construction at a fixed SNR
        real = realize(IDENTITY, rng, block_len=basis.block_len, n_blocks=cfg.n_symbols)
        payloads = draw_payloads(cfg, rng)
        stream = build_frame(cfg, basis, payloads)
        op = ChannelOperator(real)
        a = basis.o_r.conj().T @ op.block(14, 14) @ basis.o_t
        es = float(np.real(np.trace(a.conj().T @ a))) / cfg.m_active
        snr_db = 12.0
        n0 = es / 10 ** (snr_db / 10.0)
        noise = (
            rng.standard_normal(40_000) + 1j * rng.standard_normal(40_000)
        ) * math.sqrt(n0 / 2.0)
        measured = np.mean(np.abs(noise) ** 2)
        assert abs(10 * np.log10(es / measured) - snr_db) <= 0.05

    def test_snr_grid_validation(self):
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=17, prefix_len=0)
        with pytest.raises(ParameterError):
            run_ser(cfg, IDENTITY, [], n_trials=2)
        for bad in ([10.0, 5.0], [np.nan], [-np.inf, 10.0], [10.0, np.inf, np.inf]):
            with pytest.raises(ParameterError):
                run_ser(cfg, IDENTITY, bad, n_trials=2)
        # +inf dB is valid: no noise, so the identity channel makes no errors
        noiseless = run_ser(cfg, IDENTITY, [10.0, np.inf], n_trials=2)[1]
        assert noiseless.ser == 0.0 and noiseless.total_symbols == 2 * 14 * 17

    def test_negative_base_seed_rejected(self):
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=17, prefix_len=0)
        with pytest.raises(ParameterError, match="base_seed must be >= 0"):
            run_ser(cfg, IDENTITY, [10.0], n_trials=2, base_seed=-1)

    def test_single_trial_results(self):
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=17, prefix_len=2)
        spec = cdlc_channel_spec(200.0)
        errors, symbols = run_trial(cfg, spec, cfg.make_basis(), [5.0, 40.0], seed=3)
        assert errors.dtype.kind == symbols.dtype.kind == "i"
        assert symbols.tolist() == [14 * 17, 14 * 17]
        assert errors[0] >= errors[1]
        assert np.all((0 <= errors) & (errors <= symbols))

    def test_integer_taps_no_floor(self):
        from precofdm.channel import exp_profile_spec

        spec = exp_profile_spec(0.5, np.arange(0.0, 4.0), max_delay=4.0, name="int4")
        cfg = FrameConfig(
            scheme=PrecodingScheme.OFDM, eta=1.0, n_len=33, prefix_len=4,
            p_delta_db=10.0,
        )
        points = run_ser(cfg, spec, [30.0, 40.0], n_trials=15, base_seed=2)
        assert points[-1].ser == 0.0


class TestRunTrialReference:
    @settings(max_examples=40, deadline=None)
    @given(
        n_len=st.integers(5, 32),
        data=st.data(),
        scheme=st.sampled_from(list(PrecodingScheme)),
        p_delta_db=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**16),
        snrs=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4, unique=True),
        spread_ns=st.sampled_from([200.0, 1000.0]),
    )
    def test_counts_match_point_by_point_reference(
        self, n_len, data, scheme, p_delta_db, seed, snrs, spread_ns
    ):
        spec = cdlc_channel_spec(spread_ns)
        prefix = min(prefix_length_for(spec), n_len - 1)
        m_active = data.draw(st.integers(1, n_len), label="m_active")
        cfg = FrameConfig(
            scheme=scheme, eta=m_active / n_len, n_len=n_len, prefix_len=prefix,
            p_delta_db=p_delta_db,
        )
        basis = cfg.make_basis()
        snrs = sorted(snrs)
        errors, symbols = run_trial(cfg, spec, basis, snrs, seed)
        assert errors.tolist() == reference_trial(cfg, spec, basis, snrs, seed)
        assert symbols.tolist() == [14 * m_active] * len(snrs)


class TestVictimWindow:
    """``run_trial`` filters only the blocks that reach the victim's."""

    MIXED = ChannelSpec(
        tuple(
            PathSpec(delay=d, gain_power=10 ** (p / 10))
            for d, p in ((0.0, 0), (1.5, -3), (3.0, -6), (4.25, -9))
        ),
        4.25,
        name="mixed",
    )

    @settings(max_examples=30, deadline=None)
    @given(
        n_len=st.integers(8, 32),
        scheme=st.sampled_from(list(PrecodingScheme)),
        mixed=st.booleans(),
        p_delta_db=st.sampled_from([0.0, 10.0]),
        seed=st.integers(0, 2**16),
    )
    def test_window_matches_whole_frame(self, n_len, scheme, mixed, p_delta_db, seed):
        spec = self.MIXED if mixed else cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=scheme, eta=1.0, n_len=n_len,
            prefix_len=min(prefix_length_for(spec), n_len - 1),
            p_delta_db=p_delta_db,
        )
        basis = cfg.make_basis()
        firs, seen = [], []
        fir_filter = linksim._filter
        normal_equations = linksim._normal_equations

        def filter_spy(x, lag0, taps):
            firs.append((x, lag0, taps))
            return fir_filter(x, lag0, taps)

        def spy(basis, a_conj, received, noise, gram):
            seen.append(received)
            return normal_equations(basis, a_conj, received, noise, gram)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linksim, "_filter", filter_spy)
            patch.setattr(linksim, "_normal_equations", spy)
            run_trial(cfg, spec, basis, [20.0], seed)
        (((window, lag0, taps),), (received,)) = firs, seen

        # the whole frame through the whole-frame operator, same draws
        rng = np.random.default_rng(seed)
        b = basis.block_len
        real = realize(spec, rng, block_len=b, n_blocks=cfg.n_symbols)
        x = build_frame(cfg, basis, draw_payloads(cfg, rng))
        full = ChannelOperator(real)
        ref = full.apply(x)[14 * b : 28 * b].reshape(14, b)
        taps_l1 = np.sum(np.abs(full._taps))
        assert np.linalg.norm(received - ref) <= 1e-12 * max(
            np.linalg.norm(ref), taps_l1 * np.linalg.norm(x)
        )
        # the window's FIR is the whole frame's, tap for tap: the same gains
        # on the same kernels
        assert lag0 == full._lag0
        assert np.array_equal(taps, full._taps)
        # the FIR reaches past one block here, so the window holds the
        # victim's 14 blocks, more than one neighbour and less than the frame
        assert len(window) % b == 0
        assert 16 < len(window) // b < cfg.n_symbols

    def test_table1_window_is_sixteen_blocks(self, monkeypatch):
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DFT, eta=1.0, n_len=128,
            prefix_len=prefix_length_for(spec),
        )
        basis = cfg.make_basis()
        applied = []
        fir_filter = linksim._filter

        def spy(x, lag0, taps):
            applied.append(len(x) / basis.block_len)
            return fir_filter(x, lag0, taps)

        monkeypatch.setattr(linksim, "_filter", spy)
        run_trial(cfg, spec, basis, [20.0], seed=0)
        assert applied == [16]

    @pytest.mark.parametrize("spec", [
        cdlc_channel_spec(200.0), cdlc_channel_spec(1000.0), MIXED,
    ])
    @pytest.mark.parametrize("n_len", [8, 16, 32, 128])
    def test_window_same_from_one_block(self, monkeypatch, spec, n_len):
        # the window reads the FIR's lags on one block; on the whole frame
        # they, and so the window, are the same
        cfg = FrameConfig(
            scheme=PrecodingScheme.DFT, eta=1.0, n_len=n_len,
            prefix_len=min(prefix_length_for(spec), n_len - 1),
        )
        b = cfg.make_basis().block_len
        window = linksim._trial_window(cfg, spec, b)
        monkeypatch.setattr(
            linksim, "fir_lags", lambda spec, _: fir_lags(spec, cfg.n_symbols * b)
        )
        assert linksim._trial_window(cfg, spec, b) == window

    def test_run_holds_two_kernel_entries(self, pin_cpus, no_fork):
        # the stack and the window share the one-block entry; the trials'
        # operators read the window's
        pin_cpus(1, OMP_NUM_THREADS="1")
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=16, prefix_len=4)
        channel._path_kernels.cache_clear()
        run_ser(cfg, self.MIXED, [20.0], n_trials=2)
        assert channel._path_kernels.cache_info().currsize == 2


class TestFloorOrderingMatchesS2i:
    def test_high_snr_ordering(self):
        # severe channel: DPSS at reduced utilization must beat plain
        # DFT precoding, in both the S2I metric and the high-SNR SER floor
        from precofdm.isimetrics import s2i_sweep

        spec = cdlc_channel_spec(1000.0)
        g = prefix_length_for(spec)
        rows = s2i_sweep(
            [PrecodingScheme.DFT], [1.0], spec, 128, g,
            n_blocks=4, include_bound=False,
        ) + s2i_sweep(
            [PrecodingScheme.DPSS], [121 / 128], spec, 128, g,
            n_blocks=4, include_bound=False,
        )
        s2i = {row.scheme: row.s2i_db for row in rows}
        assert s2i["dpss"] > s2i["dft"]

        sers = {}
        for scheme, eta in ((PrecodingScheme.DFT, 1.0), (PrecodingScheme.DPSS, 121 / 128)):
            cfg = FrameConfig(
                scheme=scheme, eta=eta, n_len=128, prefix_len=g, p_delta_db=10.0
            )
            (pt,) = run_ser(cfg, spec, [35.0], n_trials=40, base_seed=0)
            sers[scheme.value] = pt.ser
        assert sers["dpss"] < sers["dft"]


class TestPathStack:
    """The per-path matrices a run builds once, and each trial contracts."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_len=st.integers(4, 24),
        m_frac=st.floats(0.3, 1.0),
        scheme=st.sampled_from(list(PrecodingScheme)),
        prefix_len=st.integers(0, 6),
        n_blocks=st.integers(1, 3),
        delays=st.lists(
            st.one_of(
                st.integers(0, 6).map(float),
                st.floats(0.0, 6.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_contraction_is_effective_channel(
        self, n_len, m_frac, scheme, prefix_len, n_blocks, delays, seed
    ):
        m = max(1, round(m_frac * n_len))
        basis = with_prefix(
            default_basis(scheme, n_len, m), min(prefix_len, n_len - 1),
            PrefixKind.CYCLIC,
        )
        spec = ChannelSpec(
            tuple(PathSpec(delay=d, gain_power=1.0 / (1 + i)) for i, d in enumerate(delays)),
            max(delays),
        )
        real = realize(spec, seed, block_len=basis.block_len, n_blocks=n_blocks)
        stack = linksim._build_path_stack(basis, spec)
        assert stack.shape == (len(delays), m * m)
        a = np.conj(np.conj(real.drawn_gains) @ stack).reshape(m, m)
        h = ChannelOperator(real).block(0, 0)
        want = basis.o_r.conj().T @ h @ basis.o_t
        # A can cancel to round-off (one path at delay 3, N = 4, M = 1 gives
        # |A| = 6e-17), so the block's norm, which |A| / |O_t| never exceeds,
        # sets the scale there
        scale = max(np.linalg.norm(want), np.linalg.norm(h))
        assert np.linalg.norm(a - want) <= 1e-12 * scale

    def test_run_ser_builds_once_in_parent(self, pin_cpus, monkeypatch, tmp_path):
        pin_cpus(3, OMP_NUM_THREADS="1")
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DPSS, eta=0.75, n_len=24,
            prefix_len=prefix_length_for(spec),
        )
        builds = tmp_path / "builds"
        build = linksim._build_path_stack

        def spy(*args):
            # a file, as a forked child's list would die with it
            with open(builds, "a") as f:
                f.write(f"{os.getpid()}\n")
            return build(*args)

        monkeypatch.setattr(linksim, "_build_path_stack", spy)
        first = run_ser(cfg, spec, [20.0], n_trials=7, base_seed=1)
        assert builds.read_text().split() == [str(os.getpid())]
        assert multiprocessing.active_children() == []
        # each run makes its own basis, so the next run builds once more, and
        # the slot then holds that run's stack alone
        assert run_ser(cfg, spec, [20.0], n_trials=7, base_seed=1) == first
        assert builds.read_text().split() == [str(os.getpid())] * 2
        assert set(linksim._path_stack_slot) == {"key", "stack"}

    def test_one_slot(self):
        spec = cdlc_channel_spec(200.0)
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=16, prefix_len=4)
        bases = cfg.make_basis(), cfg.make_basis()
        stacks = [linksim._path_stack(basis, spec) for basis in bases]
        # an equal basis that is another object is another key
        assert stacks[0] is not stacks[1]
        assert np.array_equal(stacks[0], stacks[1])
        assert linksim._path_stack(bases[1], spec) is stacks[1]
        assert linksim._path_stack_slot["key"][0] is bases[1]
        assert not stacks[1].flags.writeable
        linksim._path_stack_slot.clear()


class TestTrialSplit:
    """``_fork.fork_map`` and ``run_ser``'s seeds dealt over it."""

    SNRS = [15.0, 25.0, 35.0]

    @staticmethod
    def campaign():
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DFT, eta=1.0, n_len=32,
            prefix_len=prefix_length_for(spec), p_delta_db=10.0,
        )
        return cfg, spec, cfg.make_basis()

    @pytest.mark.parametrize("shares", [1, 2, 3])
    def test_shares_sum_to_serial_counts(self, pin_cpus, shares):
        pin_cpus(shares, OMP_NUM_THREADS="1")
        cfg, spec, basis = self.campaign()
        seeds = range(5, 12)  # 7 trials: shares of unequal length
        ran_here = []

        def count(seed):
            ran_here.append(seed)
            return np.array(run_trial(cfg, spec, basis, self.SNRS, seed))

        trials = [run_trial(cfg, spec, basis, self.SNRS, seed) for seed in seeds]
        serial = np.array([sum(e for e, _ in trials), sum(s for _, s in trials)])
        got = sum(_fork.fork_map(count, seeds))
        assert got.dtype.kind == "i"
        assert np.array_equal(got, serial)
        # this process ran the first share alone; children ran the others
        assert ran_here == list(seeds[::shares])
        assert multiprocessing.active_children() == []

    def test_child_error_raised_in_parent(self, pin_cpus):
        pin_cpus(3, OMP_NUM_THREADS="1")

        def count(seed):  # share k holds seeds k and k + 3
            if seed % 3 == 2:
                raise ParameterError(f"bad share from seed {seed}")
            return np.zeros((2, 1), dtype=int)

        with pytest.raises(ParameterError, match="bad share from seed 2"):
            _fork.fork_map(count, range(6))
        assert multiprocessing.active_children() == []

    def test_child_ended_without_counts_is_error(self, pin_cpus):
        pin_cpus(2, OMP_NUM_THREADS="1")

        def count(seed):
            if seed % 2:
                os._exit(3)
            return np.zeros((2, 1), dtype=int)

        with pytest.raises(RuntimeError, match="exited with code 3"):
            _fork.fork_map(count, range(4))
        assert multiprocessing.active_children() == []

    def test_children_joined_when_own_share_raises(self, pin_cpus):
        pin_cpus(3, OMP_NUM_THREADS="1")

        def count(seed):
            if seed == 0:
                raise ParameterError("own share")
            return np.zeros((2, 1), dtype=int)

        with pytest.raises(ParameterError, match="own share"):
            _fork.fork_map(count, range(6))
        assert multiprocessing.active_children() == []

    def test_round_robin_results_in_item_order(self, pin_cpus):
        pin_cpus(3, OMP_NUM_THREADS="1")
        got = _fork.fork_map(lambda x: (x, os.getpid()), range(7))
        assert [x for x, _ in got] == list(range(7))
        pids = [pid for _, pid in got]
        # share k holds items k, k + 3, ...; share 0 runs in this process
        assert pids[0::3] == [os.getpid()] * 3
        assert len({*pids[1::3], *pids[2::3]} - {os.getpid()}) == 2
        assert pids[1] == pids[4] and pids[2] == pids[5]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus,threads,n_trials,want", [
        (2, {}, 200, 1),  # BLAS defaults to one thread per CPU
        (2, {"OMP_NUM_THREADS": "1"}, 200, 2),
        (4, {"OMP_NUM_THREADS": "1"}, 3, 3),  # at most one process per trial
        (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 200, 2),
        (2, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x",
             "OMP_NUM_THREADS": "1"}, 200, 2),  # the first positive integer
        (2, {"OMP_NUM_THREADS": "4"}, 200, 1),
        (1, {"OMP_NUM_THREADS": "1"}, 200, 1),
    ])
    def test_share_rule(self, pin_cpus, cpus, threads, n_trials, want):
        pin_cpus(cpus, **threads)
        assert _fork._share_count(n_trials) == want

    def test_no_affinity_call_is_serial(self, monkeypatch, pin_cpus):
        pin_cpus(4, OMP_NUM_THREADS="1")
        monkeypatch.delattr(_fork.os, "sched_getaffinity")
        assert _fork._share_count(200) == 1

    def test_single_trial_never_forks(self, pin_cpus, no_fork):
        # one block of seeds is one task, which runs here; a second block
        # forks
        pin_cpus(4, OMP_NUM_THREADS="1")
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=17, prefix_len=0)
        for n_trials in (1, linksim._BLOCK_SEEDS):
            (pt,) = run_ser(cfg, IDENTITY, [20.0], n_trials=n_trials)
            assert pt.total_symbols == n_trials * 14 * 17
        with pytest.raises(AssertionError, match="process context"):
            run_ser(cfg, IDENTITY, [20.0], n_trials=linksim._BLOCK_SEEDS + 1)

    def test_run_ser_same_points_on_one_and_three_cpus(self, pin_cpus):
        cfg, spec, _ = self.campaign()
        points = {}
        for cpus in (1, 3):
            pin_cpus(cpus, OMP_NUM_THREADS="1")
            points[cpus] = run_ser(cfg, spec, self.SNRS, n_trials=7, base_seed=5)
        assert points[1] == points[3]
        assert multiprocessing.active_children() == []


class TestSeedBlocks:
    """``run_ser`` runs its trials in fixed blocks of ``_BLOCK_SEEDS`` seeds."""

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        scheme=st.sampled_from(list(PrecodingScheme)),
        n_len=st.integers(8, 32),
        data=st.data(),
        mixed=st.booleans(),
        snrs=st.lists(st.sampled_from([0.0, 10.0, 20.0, 30.0]), max_size=3, unique=True),
        base_seed=st.integers(0, 2**16),
        n_trials=st.integers(1, 3 * linksim._BLOCK_SEEDS + 1),
    )
    def test_blocks_sum_to_trials_on_any_cpu_count(
        self, pin_cpus, scheme, n_len, data, mixed, snrs, base_seed, n_trials
    ):
        spec = TestVictimWindow.MIXED if mixed else cdlc_channel_spec(200.0)
        m_active = data.draw(st.integers(max(1, n_len // 2), n_len), label="m_active")
        cfg = FrameConfig(
            scheme=scheme, eta=m_active / n_len, n_len=n_len,
            prefix_len=min(prefix_length_for(spec), n_len - 1), p_delta_db=10.0,
        )
        snrs = [*sorted(snrs), np.inf]
        points = {}
        for cpus in (1, 3):
            pin_cpus(cpus, OMP_NUM_THREADS="1")
            points[cpus] = run_ser(cfg, spec, snrs, n_trials=n_trials, base_seed=base_seed)
        assert points[1] == points[3]
        assert multiprocessing.active_children() == []
        basis = cfg.make_basis()
        trials = [
            run_trial(cfg, spec, basis, snrs, seed)
            for seed in range(base_seed, base_seed + n_trials)
        ]
        errors = sum(e for e, _ in trials)
        symbols = sum(s for _, s in trials)
        assert [pt.total_symbols for pt in points[1]] == symbols.tolist()
        assert [pt.ser for pt in points[1]] == (errors / symbols).tolist()
        assert all(pt.trials == n_trials for pt in points[1])

    def test_skip_in_block_is_that_seed_alone(self, pin_cpus, monkeypatch, caplog):
        # a Gram with a negative diagonal entry at the block's second seed:
        # that seed alone skips the point, the others keep their counts
        pin_cpus(1, OMP_NUM_THREADS="1")
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=24, prefix_len=4)
        spec = cdlc_channel_spec(200.0)
        k = linksim._BLOCK_SEEDS
        seeds = range(3, 3 + k)
        run = linksim._SerRun(cfg, spec, cfg.make_basis(), np.array([40.0]))
        clean = linksim._run_block(run, seeds)
        normal_equations = linksim._normal_equations
        calls = []

        def indefinite(*args):
            gram, signal, noise = normal_equations(*args)
            assert gram is args[-1]  # zherk wrote into the workspace
            calls.append(gram)
            if len(calls) % k == 2:
                gram = gram.copy()
                gram[0, 0] *= -1.0
            return gram, signal, noise

        monkeypatch.setattr(linksim, "_normal_equations", indefinite)
        with caplog.at_level("WARNING", logger="precofdm.linksim"):
            skipped = linksim._run_block(run, seeds)
            (pt,) = run_ser(cfg, spec, [40.0], n_trials=k, base_seed=3)
        assert skipped[1].tolist() == [[0], [0]]
        assert np.array_equal(np.delete(skipped, 1, axis=0), np.delete(clean, 1, axis=0))
        assert clean[:, 1].tolist() == [[14 * 24]] * k
        assert pt.total_symbols == (k - 1) * 14 * 24
        assert pt.ser == (clean.sum(axis=0)[0, 0] - clean[1, 0, 0]) / pt.total_symbols
        assert caplog.text.count("trial seed 4 skipped at 40.0 dB") == 2
        for seed in (3, 5, 6):
            assert f"trial seed {seed} skipped" not in caplog.text
        # every seed of both blocks wrote its Gram into the run's one workspace
        assert all(gram is run.gram for gram in calls[:k])
        assert len({id(gram) for gram in calls[k:]}) == 1

    def test_blocks_are_fixed_by_seed(self, pin_cpus, monkeypatch):
        # blocks of _BLOCK_SEEDS consecutive seeds from base_seed, the last
        # one short, whatever the process count
        k = linksim._BLOCK_SEEDS
        block = linksim._run_block
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=17, prefix_len=0)
        for cpus in (1, 2):
            pin_cpus(cpus, OMP_NUM_THREADS="1")
            seen = []
            # in this process, or in each child until it sends its results
            monkeypatch.setattr(
                linksim, "_run_block",
                lambda run, seeds: seen.append(list(seeds)) or block(run, seeds),
            )
            (pt,) = run_ser(cfg, IDENTITY, [20.0], n_trials=2 * k + 1, base_seed=7)
            assert pt.total_symbols == (2 * k + 1) * 14 * 17
            want = [list(range(7, 7 + k)), list(range(7 + k, 7 + 2 * k)), [7 + 2 * k]]
            assert seen == want[::cpus]
