"""Tests for QPSK mapping, frame assembly, equalization, and SER runs."""

import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precofdm import linksim
from precofdm.channel import (
    DEFAULT_FIR_HALF_LEN,
    ChannelOperator,
    ChannelSpec,
    PathSpec,
    cdlc_channel_spec,
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
from precofdm.waveform import PrecodingScheme

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
        # a zero Gram matrix is singular without noise and n0 I with it; the
        # singular point fails the stacked solve, so the points go one by one
        out = equalize_and_detect(
            np.zeros((4, 4), dtype=complex), np.ones((2, 4, 3), dtype=complex),
            [0.0, 1e-3],
        )
        assert out[0] is None
        assert np.array_equal(out[1], np.zeros((3, 4, 2), dtype=bool))

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

    def test_failed_point_skipped_alone(self, monkeypatch, caplog):
        # the solver fails at the second SNR point only: that point reports
        # zero symbols and the others keep the counts of an undisturbed run
        cfg = FrameConfig(scheme=PrecodingScheme.DFT, eta=1.0, n_len=24, prefix_len=4)
        spec = cdlc_channel_spec(200.0)
        snrs = [5.0, 10.0, 20.0]
        basis = cfg.make_basis()
        clean = run_trial(cfg, spec, basis, snrs, seed=11)
        solve = np.linalg.solve
        calls = []

        def singular_second(a, b):
            # the stacked call fails as a singular member makes it fail, and
            # of the points solved one by one the second is singular
            calls.append(a.ndim)
            if a.ndim == 3 or calls.count(2) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(linksim.np.linalg, "solve", singular_second)
        with caplog.at_level("WARNING", logger="precofdm.linksim"):
            skipped = run_trial(cfg, spec, basis, snrs, seed=11)
        assert calls == [3, 2, 2, 2]
        assert skipped[0].tolist() == [clean[0][0], 0, clean[0][2]]
        assert skipped[1].tolist() == [14 * 24, 0, 14 * 24]
        assert "skipped at 10.0 dB" in caplog.text

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


class TestTrialSplit:
    """``run_ser``'s seed range split over forked processes."""

    SNRS = [15.0, 25.0, 35.0]

    @staticmethod
    def campaign():
        spec = cdlc_channel_spec(1000.0)
        cfg = FrameConfig(
            scheme=PrecodingScheme.DFT, eta=1.0, n_len=32,
            prefix_len=prefix_length_for(spec), p_delta_db=10.0,
        )
        return cfg, spec, cfg.make_basis()

    @staticmethod
    def pin_cpus(monkeypatch, cpus, **threads):
        for name in linksim._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in threads.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(linksim.os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @pytest.mark.parametrize("shares", [1, 2, 3])
    def test_shares_sum_to_serial_counts(self, shares):
        cfg, spec, basis = self.campaign()
        seeds = range(5, 12)  # 7 trials: shares of unequal length
        ran_here = []

        def count(part):
            ran_here.append(part)
            return sum(
                np.array(run_trial(cfg, spec, basis, self.SNRS, seed)) for seed in part
            )

        trials = [run_trial(cfg, spec, basis, self.SNRS, seed) for seed in seeds]
        serial = np.array([sum(e for e, _ in trials), sum(s for _, s in trials)])
        got = linksim._split_counts(count, seeds, shares)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, serial)
        # this process ran the first share alone; children ran the others
        assert ran_here == [seeds[: len(seeds) // shares]]
        assert multiprocessing.active_children() == []

    def test_child_error_raised_in_parent(self):
        def count(part):
            if part[0] != 0:
                raise ParameterError(f"bad share from seed {part[0]}")
            return np.zeros((2, 1), dtype=int)

        with pytest.raises(ParameterError, match="bad share from seed 2"):
            linksim._split_counts(count, range(6), 3)
        assert multiprocessing.active_children() == []

    def test_child_ended_without_counts_is_error(self):
        def count(part):
            if part[0] != 0:
                os._exit(3)
            return np.zeros((2, 1), dtype=int)

        with pytest.raises(RuntimeError, match="exited with code 3"):
            linksim._split_counts(count, range(4), 2)
        assert multiprocessing.active_children() == []

    def test_children_joined_when_own_share_raises(self):
        def count(part):
            if part[0] == 0:
                raise ParameterError("own share")
            return np.zeros((2, 1), dtype=int)

        with pytest.raises(ParameterError, match="own share"):
            linksim._split_counts(count, range(6), 3)
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
    def test_share_rule(self, monkeypatch, cpus, threads, n_trials, want):
        self.pin_cpus(monkeypatch, cpus, **threads)
        assert linksim._share_count(n_trials) == want

    def test_no_affinity_call_is_serial(self, monkeypatch):
        self.pin_cpus(monkeypatch, 4, OMP_NUM_THREADS="1")
        monkeypatch.delattr(linksim.os, "sched_getaffinity")
        assert linksim._share_count(200) == 1

    def test_single_trial_never_forks(self, monkeypatch):
        def no_fork(method=None):
            raise AssertionError("run_ser asked for a process context")

        self.pin_cpus(monkeypatch, 4, OMP_NUM_THREADS="1")
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, eta=1.0, n_len=17, prefix_len=0)
        (pt,) = run_ser(cfg, IDENTITY, [20.0], n_trials=1)
        assert pt.total_symbols == 14 * 17
        with pytest.raises(AssertionError, match="process context"):
            run_ser(cfg, IDENTITY, [20.0], n_trials=2)

    def test_run_ser_same_points_on_one_and_three_cpus(self, monkeypatch):
        cfg, spec, _ = self.campaign()
        points = {}
        for cpus in (1, 3):
            self.pin_cpus(monkeypatch, cpus, OMP_NUM_THREADS="1")
            points[cpus] = run_ser(cfg, spec, self.SNRS, n_trials=7, base_seed=5)
        assert points[1] == points[3]
        assert multiprocessing.active_children() == []
