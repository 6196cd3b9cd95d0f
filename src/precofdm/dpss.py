"""Discrete prolate spheroidal sequences (DPSS) and their concentration eigenvalues.

A DPSS set for parameters (N, W) consists of the orthonormal eigenvectors of
the N x N sinc kernel

    B[n, m] = sin(2 pi W (n - m)) / (pi (n - m)),    B[n, n] = 2 W,

ordered by decreasing eigenvalue.  The kernel's eigenvalues cluster
exponentially near 1 and 0, so the sequences are computed from the symmetric
tridiagonal matrix that commutes with the kernel (diagonal
((N - 1 - 2n) / 2)^2 cos(2 pi W), off-diagonal n (N - n) / 2); the
concentration eigenvalues are then recovered as Rayleigh quotients against
the dense kernel.

Sequences are stored 0-based; the natural index set is the symmetric grid
n = -(N - 1)/2 .. (N - 1)/2, i.e. storage row i corresponds to sample
i - (N - 1)/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterError, check_whole

__all__ = ["DpssParams", "DpssSet", "compute_dpss", "dpss_limit_half", "sinc_kernel"]


@dataclass(frozen=True)
class DpssParams:
    """Parameters of a DPSS family: length, normalized half-bandwidth, count."""

    n_len: int
    half_bandwidth: float
    count: int

    def __post_init__(self):
        # frozen: the checked Python ints replace the fields
        for name in ("n_len", "count"):
            object.__setattr__(self, name, check_whole(name, getattr(self, name), 1))
        if not 0.0 < self.half_bandwidth <= 0.5:
            raise ParameterError(
                f"half_bandwidth must be in (0, 0.5], got {self.half_bandwidth}"
            )
        if self.count > self.n_len:
            raise ParameterError(
                f"count must be in [1, n_len={self.n_len}], got {self.count}"
            )


@dataclass(frozen=True)
class DpssSet:
    """A computed DPSS family.

    ``sequences`` is n_len x count with column l the order-l sequence;
    ``eigenvalues`` holds the matching concentration values, non-increasing.
    Arrays are marked read-only so sets can be shared freely.
    """

    sequences: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.sequences.flags.writeable = False
        self.eigenvalues.flags.writeable = False


def sinc_kernel(n_len: int, half_bandwidth: float) -> np.ndarray:
    """Dense concentration kernel sin(2 pi W (n - m)) / (pi (n - m))."""
    n = np.arange(n_len)
    d = n[:, None] - n[None, :]
    return 2.0 * half_bandwidth * np.sinc(2.0 * half_bandwidth * d)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry of each column made non-negative, ties broken
    # by lowest index.  Ties are detected with a relative tolerance:
    # antisymmetric columns carry an exact magnitude tie whose argmax would
    # otherwise flip under round-off perturbations.
    mags = np.abs(vecs)
    near_max = mags >= mags.max(axis=0, keepdims=True) * (1.0 - 1e-8)
    idx = np.argmax(near_max, axis=0)
    flip = vecs[idx, np.arange(vecs.shape[1])] < 0
    vecs = vecs.copy()
    vecs[:, flip] *= -1.0
    return vecs


def _tridiagonal_vectors(n_len: int, half_bandwidth: float, count: int) -> np.ndarray:
    n = np.arange(n_len)
    diag = ((n_len - 1 - 2 * n) / 2.0) ** 2 * np.cos(2.0 * np.pi * half_bandwidth)
    off = n[1:] * (n_len - n[1:]) / 2.0
    # One divide-and-conquer solve of every vector (stevd; Gu & Eisenstat,
    # SIAM J. Matrix Anal. Appl. 16, 1995), about 10x faster than bisection
    # and inverse iteration for K < N, so every set is cut from the same
    # vectors.  Ascending eigenvalues: the most concentrated are last.
    _, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
    return vecs[:, ::-1][:, :count]


def compute_dpss(params: DpssParams) -> DpssSet:
    """Compute the DPSS set for ``params``.

    Columns are orthonormal, ordered by decreasing concentration, and signed
    so the largest-magnitude entry of each column is non-negative.  A set of
    K sequences is the first K columns of the K = N set, bit for bit.
    Eigenvalues are Rayleigh quotients of the dense sinc kernel and lie in
    (0, 1) for W < 0.5 (up to floating-point saturation at 1 for strongly
    concentrated orders).
    """
    vecs = _tridiagonal_vectors(params.n_len, params.half_bandwidth, params.count)
    vecs = _fix_signs(np.ascontiguousarray(vecs))
    kernel = sinc_kernel(params.n_len, params.half_bandwidth)
    eigenvalues = np.einsum("nk,nk->k", vecs, kernel @ vecs)
    return DpssSet(sequences=vecs, eigenvalues=eigenvalues)


def dpss_limit_half(n_len: int, count: int) -> DpssSet:
    """DPSS set in the limit W -> 0.5 from below: ``compute_dpss`` at W = 0.5.

    The commuting tridiagonal matrix stays well defined at W = 0.5, and its
    eigenvectors are the limit of the DPSS family.  The sinc kernel is the
    identity there, so every eigenvalue is 1 within round-off.
    """
    return compute_dpss(DpssParams(n_len=n_len, half_bandwidth=0.5, count=count))
