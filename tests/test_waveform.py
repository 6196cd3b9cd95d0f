"""Tests for precoding bases, prefixes, edge truncation and active counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precofdm.dpss import dpss_limit_half
from precofdm.errors import ParameterError
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
