"""Tests for precoding bases, prefixes, edge truncation and active counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precofdm.channel import exp_profile_spec, mild_channel_spec, realize
from precofdm.dpss import DpssParams, compute_dpss, dpss_limit_half
from precofdm.errors import ParameterError
from precofdm.isimetrics import isi_gram, s2i_sweep
from precofdm.linksim import FrameConfig, run_ser
from precofdm.waveform import (
    PrecodingScheme,
    PrefixKind,
    active_count,
    default_basis,
    retained_frequencies,
    time_grid,
    with_prefix,
)

SCHEMES = [PrecodingScheme.OFDM, PrecodingScheme.DFT, PrecodingScheme.DPSS]


def dirichlet_column_oracle(n, m_active, m):
    """Column m of the DFT-precoded basis via the explicit double sum."""
    freqs = retained_frequencies(n, m_active)
    grid = time_grid(n)
    c = (m_active - 1) / 2.0
    col = np.zeros(n, dtype=complex)
    for i, t in enumerate(grid):
        acc = 0.0 + 0.0j
        for a, f in enumerate(freqs):
            acc += np.exp(2j * np.pi * t * f / n) * np.exp(
                -2j * np.pi * (a - c) * (m - c) / m_active
            )
        col[i] = acc / np.sqrt(m_active * n)
    return col


class TestBuildBasis:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [9, 16, 33])
    def test_complete_basis_is_unitary(self, scheme, n):
        basis = default_basis(scheme, n, n)
        o = basis.o_matrix
        assert np.max(np.abs(o.conj().T @ o - np.eye(n))) <= 1e-10
        assert np.max(np.abs(o @ o.conj().T - np.eye(n))) <= 1e-10

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_tall_basis_orthonormal(self, scheme):
        basis = default_basis(scheme, 17, 13)
        o = basis.o_matrix
        assert np.max(np.abs(o.conj().T @ o - np.eye(13))) <= 1e-10
        assert o.shape == (17, 13)

    def test_ofdm_columns_are_centered_exponentials(self):
        basis = default_basis(PrecodingScheme.OFDM, 9, 9)
        grid = time_grid(9)
        freqs = retained_frequencies(9, 9)
        assert list(freqs) == list(range(-4, 5))
        for m in range(9):
            col = np.exp(2j * np.pi * freqs[m] * grid / 9) / 3.0
            assert np.max(np.abs(basis.o_matrix[:, m] - col)) <= 1e-12

    def test_dft_full_utilization_is_shifted_impulses(self):
        basis = default_basis(PrecodingScheme.DFT, 9, 9)
        assert np.max(np.abs(basis.o_matrix - np.eye(9))) <= 1e-10

    def test_dft_matches_dirichlet_double_sum(self):
        basis = default_basis(PrecodingScheme.DFT, 9, 7)
        for m in range(7):
            oracle = dirichlet_column_oracle(9, 7, m)
            assert np.max(np.abs(basis.o_matrix[:, m] - oracle)) <= 1e-12

    def test_nulled_bins_are_exactly_empty(self):
        for scheme in (PrecodingScheme.OFDM, PrecodingScheme.DFT):
            basis = default_basis(scheme, 9, 7)
            full = default_basis(PrecodingScheme.OFDM, 9, 9).o_matrix
            spectrum = full.conj().T @ basis.o_matrix
            # the outermost subcarriers of the full band, one per edge
            assert np.max(np.abs(spectrum[[0, 8], :])) <= 1e-12

    def test_dpss_uses_source_columns(self):
        # the source is the W -> 0.5- set of exactly M sequences
        source = dpss_limit_half(9, 6)
        basis = default_basis(PrecodingScheme.DPSS, 9, 6)
        assert np.max(np.abs(basis.o_matrix - source.sequences)) <= 1e-12

    def test_m_exceeding_n_rejected(self):
        for scheme in SCHEMES:
            with pytest.raises(ParameterError):
                default_basis(scheme, 9, 10)
        with pytest.raises(ParameterError, match="exceeds n_len"):
            retained_frequencies(9, 10)

    @settings(max_examples=20, deadline=None)
    @given(
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(min_value=4, max_value=24),
        data=st.data(),
    )
    def test_reconstruction_roundtrip(self, scheme, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        basis = default_basis(scheme, n, m)
        rng = np.random.default_rng(0)
        symbols = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = basis.o_matrix @ symbols
        back = basis.o_matrix.conj().T @ x
        assert np.max(np.abs(back - symbols)) <= 1e-10


class TestPrefix:
    def test_zero_length_prefix_is_identity(self):
        basis = default_basis(PrecodingScheme.OFDM, 9, 9)
        pref = with_prefix(basis, 0, PrefixKind.CYCLIC)
        assert np.array_equal(pref.o_t, basis.o_matrix)
        assert np.array_equal(pref.o_r, basis.o_matrix)

    def test_cyclic_guard_repeats_last_rows(self):
        basis = default_basis(PrecodingScheme.DFT, 9, 7)
        pref = with_prefix(basis, 2, PrefixKind.CYCLIC)
        assert np.array_equal(pref.o_t[:2], basis.o_matrix[-2:])
        assert np.array_equal(pref.o_t[2:], basis.o_matrix)

    def test_zero_guard_and_receive_blocks(self):
        basis = default_basis(PrecodingScheme.OFDM, 9, 7)
        for kind in (PrefixKind.ZERO, PrefixKind.CYCLIC):
            pref = with_prefix(basis, 3, kind)
            assert np.all(pref.o_r[:3] == 0.0)
            assert np.array_equal(pref.o_r[3:], basis.o_matrix)
        assert np.all(with_prefix(basis, 3, PrefixKind.ZERO).o_t[:3] == 0.0)

    def test_prefix_length_bounds(self):
        basis = default_basis(PrecodingScheme.OFDM, 9, 9)
        with pytest.raises(ParameterError):
            with_prefix(basis, 9, PrefixKind.ZERO)
        with pytest.raises(ParameterError):
            with_prefix(basis, -1, PrefixKind.ZERO)


class TestEdgeTruncation:
    FULL = np.arange(9) - 4.0  # centered subcarriers of N = 9

    def test_ofdm_drops_edge_subcarriers(self):
        assert list(retained_frequencies(9, 7)) == list(self.FULL[1:8])

    def test_dpss_drops_high_orders(self):
        full = default_basis(PrecodingScheme.DPSS, 9, 9).o_matrix
        kept = default_basis(PrecodingScheme.DPSS, 9, 7).o_matrix
        assert np.max(np.abs(kept - full[:, :7])) <= 1e-12

    def test_full_utilization_drops_nothing(self):
        assert list(retained_frequencies(9, 9)) == list(self.FULL)
        for scheme in SCHEMES:
            basis = default_basis(scheme, 9, 9).o_matrix
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(9))) <= 1e-10

    def test_odd_deficit_drops_extra_from_upper_edge(self):
        assert list(retained_frequencies(9, 6)) == list(self.FULL[1:7])
        # DFT precoding spans exactly the retained OFDM subcarriers
        ofdm = default_basis(PrecodingScheme.OFDM, 9, 6).o_matrix
        dft = default_basis(PrecodingScheme.DFT, 9, 6).o_matrix
        assert np.max(np.abs(dft - ofdm @ (ofdm.conj().T @ dft))) <= 1e-12

    def test_even_n_frequencies_are_symmetric_half_integers(self):
        freqs = retained_frequencies(8, 8)
        assert np.allclose(freqs, np.arange(8) - 3.5)
        assert np.allclose(freqs, -freqs[::-1])


class TestActiveCount:
    def test_round_trips_every_ratio(self):
        # the ser command passes eta = m / N and reads m back
        for n in range(1, 1025):
            for m in range(1, n + 1):
                assert active_count(m / n, n) == m

    def test_floors_between_counts(self):
        assert active_count(0.98, 128) == 125
        assert active_count(0.95, 128) == 121

    @pytest.mark.parametrize("eta,n", [
        (0.0, 9), (0.1, 9), (-1.0, 9), (1.2, 9),
        (float("nan"), 9), (float("inf"), 9), (float("-inf"), 9),
    ])
    def test_count_outside_one_to_n_rejected(self, eta, n):
        with pytest.raises(ParameterError):
            active_count(eta, n)


class TestWholeSizes:
    """Sizes and counts are whole numbers: Python or numpy integers."""

    @staticmethod
    def basis():
        return default_basis(PrecodingScheme.OFDM, 16, 16)

    @staticmethod
    def sweep(**kw):
        return s2i_sweep(
            [PrecodingScheme.OFDM], [1.0], mild_channel_spec(), 16,
            **{"prefix_len": 2, "include_bound": False, **kw},
        )

    @pytest.mark.parametrize("call,name", [
        # a 16 x 16 basis labelled m_active=15.5
        (lambda: default_basis("ofdm", 16, 15.5), "m_active"),
        # "orthonormality check failed"
        (lambda: default_basis("ofdm", 16.5, 16), "n_len"),
        # TypeError from a float slice or zeros shape
        (lambda: with_prefix(TestWholeSizes.basis(), 2.5), "prefix_len"),
        (lambda: FrameConfig(
            scheme=PrecodingScheme.OFDM, n_len=16, prefix_len=2.5
        ).make_basis(), "prefix_len"),
        (lambda: TestWholeSizes.sweep(prefix_len=2.5), "prefix_len"),
        (lambda: TestWholeSizes.sweep(n_blocks=3.5), "n_blocks"),
        # a bare ValueError from scipy about select_range
        (lambda: DpssParams(16.5, 0.4, 3), "n_len"),
        (lambda: DpssParams(16, 0.4, 3.0), "count"),
    ], ids=[
        "default_basis-m", "default_basis-n", "with_prefix", "FrameConfig",
        "s2i_sweep-prefix", "s2i_sweep-blocks", "DpssParams-n", "DpssParams-count",
    ])
    def test_fraction_is_parameter_error(self, call, name):
        with pytest.raises(ParameterError, match=f"^{name} must be a whole number"):
            call()

    def test_numpy_integers_accepted(self):
        n, m, g = np.int64(16), np.int64(15), np.int64(2)
        basis = default_basis("ofdm", n, m)
        assert basis.o_matrix.shape == (16, 15)
        assert with_prefix(basis, g).o_t.shape == (18, 15)
        cfg = FrameConfig(scheme=PrecodingScheme.OFDM, n_len=n, prefix_len=g)
        assert cfg.make_basis().block_len == 18
        assert len(self.sweep(prefix_len=g, n_blocks=np.int64(3))) == 1
        assert compute_dpss(DpssParams(n, 0.4, np.int64(3))).sequences.shape == (16, 3)


class TestNarrowIntegerSizes:
    """Sizes given as narrow numpy integers are kept as the Python ints that
    ``check_whole`` returns, so size arithmetic does not wrap: in uint8,
    200 + 100 is 44 and -100 is 156."""

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_default_basis(self, whole):
        basis = default_basis("ofdm", whole(200), whole(199))
        assert type(basis.n_len) is int and type(basis.m_active) is int
        assert (basis.n_len, basis.m_active) == (200, 199)
        assert basis.o_matrix.shape == (200, 199)

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_with_prefix(self, whole):
        pref = with_prefix(default_basis("ofdm", whole(200), whole(200)), whole(100))
        assert type(pref.prefix_len) is int and type(pref.block_len) is int
        assert pref.block_len == 300
        assert pref.o_t.shape == pref.o_r.shape == (300, 200)
        assert np.array_equal(pref.o_t[:100], pref.base.o_matrix[100:])

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_frame_config(self, whole):
        cfg = FrameConfig(scheme="ofdm", n_len=whole(200), prefix_len=whole(100))
        assert type(cfg.n_len) is int and type(cfg.prefix_len) is int
        assert cfg.make_basis().block_len == 300

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_dpss_params(self, whole):
        params = DpssParams(whole(200), 0.4, whole(3))
        assert type(params.n_len) is int and type(params.count) is int
        assert compute_dpss(params).sequences.shape == (200, 3)

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_s2i_sweep(self, whole):
        # in uint8, N + g = 44 is the block length, and 1 - n_blocks = 254
        # would leave no block offset
        def sweep(n, g, n_blocks):
            channel = mild_channel_spec()
            return s2i_sweep(["ofdm"], [1.0], channel, n, g, n_blocks=n_blocks)

        assert sweep(whole(200), whole(100), whole(3)) == sweep(200, 100, 3)

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_isi_gram(self, whole):
        # in uint8, 1 - n_blocks = 254 left no offset and K = 0
        pref = with_prefix(default_basis("ofdm", 16, 12), 4, PrefixKind.ZERO)
        delays = np.array([0.5, 3.2])
        got = isi_gram(pref, pref, delays, n_blocks=whole(3))
        assert np.array_equal(got, isi_gram(pref, pref, delays, n_blocks=3))
        assert np.any(got)

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_channel_realization(self, whole):
        real = realize(mild_channel_spec(), 0, block_len=whole(200), n_blocks=whole(2))
        assert type(real.block_len) is int and type(real.n_blocks) is int
        assert real.stream_len == 400

    @pytest.mark.parametrize("whole", [np.uint8, np.int16])
    def test_run_ser(self, whole):
        # in uint8 the seeds 250 + 10 would end at 4
        def ser(n_trials, base_seed):
            cfg = FrameConfig(scheme="ofdm", n_len=8)
            spec = exp_profile_spec(0.5, [0.0, 1.5], 1.5)
            return run_ser(cfg, spec, [20.0], n_trials=n_trials, base_seed=base_seed)

        assert ser(whole(10), whole(250)) == ser(10, 250)


class TestUnknownNames:
    """A scheme or prefix kind that names no member is a ``ParameterError``
    wherever it enters."""

    @pytest.mark.parametrize("call,what", [
        (lambda: default_basis("bogus", 8, 8), "scheme"),
        (lambda: with_prefix(default_basis("ofdm", 8, 8), 2, "bogus"), "prefix kind"),
        (lambda: s2i_sweep(["bogus"], [1.0], mild_channel_spec(), 8, 2), "scheme"),
        (lambda: FrameConfig(scheme="bogus"), "scheme"),
    ], ids=["default_basis", "with_prefix", "s2i_sweep", "FrameConfig"])
    def test_unknown_name_is_parameter_error(self, call, what):
        with pytest.raises(ParameterError, match=f"^unknown {what} 'bogus'; use one of"):
            call()
