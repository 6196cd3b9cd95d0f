"""Tests for DPSS computation against the dense concentration kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precofdm.dpss import (
    DpssParams,
    compute_dpss,
    dpss_limit_half,
    sinc_kernel,
)
from precofdm.errors import ParameterError
from precofdm.waveform import PrecodingScheme, default_basis


def dense_kernel_oracle(n, w):
    """Dense sinc kernel built with explicit loops (independent of library)."""
    b = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                b[i, j] = 2.0 * w
            else:
                b[i, j] = np.sin(2.0 * np.pi * w * (i - j)) / (np.pi * (i - j))
    return b


class TestComputeDpss:
    def test_orthonormal_columns(self):
        dset = compute_dpss(DpssParams(9, 0.25, 9))
        gram = dset.sequences.T @ dset.sequences
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_eigenvalue_range_and_order(self):
        dset = compute_dpss(DpssParams(9, 0.25, 9))
        lam = dset.eigenvalues
        assert lam[0] > 0.999 and lam[-1] < 1e-4
        assert np.all(lam > 0.0) and np.all(lam < 1.0)
        assert np.all(np.diff(lam) < 0.0)

    def test_eigenrelation_residual(self):
        for n, w in [(9, 0.25), (33, 0.1), (64, 0.45)]:
            dset = compute_dpss(DpssParams(n, w, n))
            b = sinc_kernel(n, w)
            res = b @ dset.sequences - dset.sequences * dset.eigenvalues
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-8

    def test_eigenvalues_match_dense_eigendecomposition(self):
        dset = compute_dpss(DpssParams(9, 0.25, 9))
        w_oracle = np.linalg.eigvalsh(dense_kernel_oracle(9, 0.25))[::-1]
        assert np.max(np.abs(dset.eigenvalues - w_oracle)) <= 1e-8

    def test_column_symmetry_about_midpoint(self):
        dset = compute_dpss(DpssParams(21, 0.2, 21))
        for l in range(21):
            col = dset.sequences[:, l]
            dev = min(
                np.max(np.abs(col - col[::-1])), np.max(np.abs(col + col[::-1]))
            )
            assert dev <= 1e-10

    def test_sign_convention(self):
        # largest-magnitude entry non-negative; near-ties (antisymmetric
        # columns carry an exact mathematical tie) resolve to the lowest
        # index
        dset = compute_dpss(DpssParams(16, 0.3, 16))
        for l in range(16):
            col = dset.sequences[:, l]
            mags = np.abs(col)
            idx = np.flatnonzero(mags >= mags.max() * (1.0 - 1e-8))[0]
            assert col[idx] >= 0.0

    def test_determinism(self):
        a = compute_dpss(DpssParams(17, 0.25, 17))
        b = compute_dpss(DpssParams(17, 0.25, 17))
        assert np.array_equal(a.sequences, b.sequences)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_partial_count(self):
        full = compute_dpss(DpssParams(15, 0.2, 15))
        part = compute_dpss(DpssParams(15, 0.2, 4))
        assert part.sequences.shape == (15, 4)
        assert np.allclose(part.sequences, full.sequences[:, :4], atol=1e-12)

    @pytest.mark.parametrize(
        "n,w,k",
        [(0, 0.25, 1), (9, 0.0, 9), (9, 0.6, 9), (9, 0.25, 0), (9, 0.25, 10)],
    )
    def test_invalid_params(self, n, w, k):
        with pytest.raises(ParameterError):
            DpssParams(n, w, k)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        w=st.floats(min_value=0.05, max_value=0.5),
    )
    def test_orthonormality_property(self, n, w):
        dset = compute_dpss(DpssParams(n, w, n))
        gram = dset.sequences.T @ dset.sequences
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


class TestLimitHalf:
    def test_orthonormal(self):
        dset = dpss_limit_half(9, 9)
        gram = dset.sequences.T @ dset.sequences
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-10

    def test_continuity_toward_half(self):
        lim = dpss_limit_half(9, 9)
        near = compute_dpss(DpssParams(9, 0.5 - 1e-6, 9))
        dist = np.max(np.linalg.norm(lim.sequences - near.sequences, axis=0))
        assert dist <= 1e-4

    def test_precoding_size(self):
        dset = dpss_limit_half(128, 125)
        assert dset.sequences.shape == (128, 125)
        gram = dset.sequences.T @ dset.sequences
        assert np.max(np.abs(gram - np.eye(125))) <= 1e-10

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            dpss_limit_half(9, 10)

    @pytest.mark.parametrize("n", [9, 17, 33, 64, 128])
    def test_is_compute_dpss_at_half(self, n):
        # one construction: the sequences are compute_dpss's bits, and the
        # identity kernel at W = 0.5 gives Rayleigh quotients of 1
        for m in range(1, n + 1) if n <= 33 else (1, n // 2, n - 7, n - 3, n):
            lim = dpss_limit_half(n, m)
            assert np.array_equal(
                lim.sequences, compute_dpss(DpssParams(n, 0.5, m)).sequences
            )
            assert lim.eigenvalues.shape == (m,)
            assert np.max(np.abs(lim.eigenvalues - 1.0)) <= 1e-13


class TestNesting:
    """Every set is cut from one eigensolve of all N vectors, so a set of K
    sequences is the first K columns of the K = N set, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=256),
        w=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
        data=st.data(),
    )
    def test_sets_nest_bit_for_bit(self, n, w, data):
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        full = compute_dpss(DpssParams(n, w, n)).sequences
        part = compute_dpss(DpssParams(n, w, k)).sequences
        assert part.tobytes() == np.ascontiguousarray(full[:, :k]).tobytes()
        gram = part.T @ part
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=256), data=st.data())
    def test_bases_nest_bit_for_bit(self, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n), label="m")
        full = default_basis(PrecodingScheme.DPSS, n, n).o_matrix
        part = default_basis(PrecodingScheme.DPSS, n, m).o_matrix
        assert part.tobytes() == np.ascontiguousarray(full[:, :m]).tobytes()
        # each column is +- its own time reverse, as the S2I parity split
        # needs (``isimetrics._parity_lag_root`` checks the same bound)
        parity = np.where(np.einsum("nr,nr->r", part, part[::-1]).real < 0, -1.0, 1.0)
        assert np.max(np.abs(part[::-1] - parity * part.conj())) <= 1e-10
