"""Precoding schemes and effective transmit bases.

The effective basis O is the product of a centered DFT modulation matrix and
a precoder S: plain OFDM keeps the M centermost subcarriers, DFT precoding
(SC-FDMA style) spreads M time shifts across those subcarriers, and DPSS
precoding uses the W -> 0.5- prolate sequences directly as basis columns.

Storage row i of a basis corresponds to time sample i - (N - 1)/2; only the
closed-form phase conventions depend on this labeling, correlations and
channel application do not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dpss import dpss_limit_half
from .errors import ParameterError, check_whole

__all__ = [
    "PrecodingScheme",
    "PrefixKind",
    "WaveformBasis",
    "PrefixedBasis",
    "retained_frequencies",
    "active_count",
    "default_basis",
    "with_prefix",
]


class PrecodingScheme(str, Enum):
    """Precoder choice: plain OFDM, DFT spreading (SC-FDMA), or DPSS."""

    OFDM = "ofdm"
    DFT = "dft"
    DPSS = "dpss"


class PrefixKind(str, Enum):
    ZERO = "zero"
    CYCLIC = "cyclic"


def _member(kind: type[Enum], value) -> Enum:
    """The member of ``PrecodingScheme`` or ``PrefixKind`` that ``value``
    names, else ``ParameterError``."""
    try:
        return kind(value)
    except ValueError:
        what = "scheme" if kind is PrecodingScheme else "prefix kind"
        names = ", ".join(member.value for member in kind)
        raise ParameterError(f"unknown {what} {value!r}; use one of {names}") from None


@dataclass(frozen=True)
class WaveformBasis:
    """Effective transmit basis with orthonormal columns.

    ``o_matrix`` is N x M, at utilization M / N: complex from
    ``default_basis``, float64 for a real basis of a real span.
    """

    n_len: int
    m_active: int
    scheme: PrecodingScheme
    o_matrix: np.ndarray

    def __post_init__(self):
        self.o_matrix.flags.writeable = False


@dataclass(frozen=True)
class PrefixedBasis:
    """Transmit/receive basis pair extended by a guard prefix of g rows.

    ``o_t`` prepends either zeros or the last g rows of O (cyclic);
    ``o_r`` always prepends zeros - the receiver ignores prefix samples.
    """

    base: WaveformBasis
    prefix_len: int
    o_t: np.ndarray
    o_r: np.ndarray

    def __post_init__(self):
        self.o_t.flags.writeable = False
        self.o_r.flags.writeable = False

    @property
    def block_len(self) -> int:
        return self.base.n_len + self.prefix_len


def time_grid(n_len: int) -> np.ndarray:
    """Centered sample labels for storage rows 0..N-1: i - (N-1)/2."""
    return np.arange(n_len) - (n_len - 1) / 2.0


def retained_frequencies(n_len: int, m_active: int) -> np.ndarray:
    """Centered subcarrier indices kept when N - M edge components are nulled.

    The grid is j - (N-1)/2 for all N, so even N uses the symmetric
    half-integer offsets +-1/2, +-3/2, ...; this keeps the band symmetric
    and avoids placing a carrier exactly on the +-N/2 band-limit edge,
    where the fractional-delay kernel is discontinuous.  The lower edge
    loses floor((N - M)/2) subcarriers and the upper edge the remainder, so
    an odd deficit drops one extra component from the top.
    """
    if m_active > n_len:
        raise ParameterError(f"m_active={m_active} exceeds n_len={n_len}")
    d_low = (n_len - m_active) // 2
    return np.arange(d_low, d_low + m_active) - (n_len - 1) / 2.0


def _centered_dft_columns(n_len: int, freqs: np.ndarray) -> np.ndarray:
    n = time_grid(n_len)
    return np.exp(2j * np.pi * np.outer(n, freqs) / n_len) / np.sqrt(n_len)


def active_count(eta: float, n_len: int) -> int:
    """Active components at utilization ``eta``: floor(eta * N).

    The 1e-9 guard keeps a utilization written as m / N on m after
    rounding.  A count outside [1, N], or a NaN or infinite ``eta``, raises
    ``ParameterError``.
    """
    scaled = eta * n_len + 1e-9
    if not 1 <= scaled < n_len + 1:  # floor(scaled) in [1, N]; NaN fails
        raise ParameterError(f"eta={eta} gives no active count in [1, {n_len}]")
    return int(math.floor(scaled))


def _check_orthonormal(o: np.ndarray) -> None:
    """The columns of ``o`` are orthonormal to 1e-10, else ``ParameterError``."""
    gram = o.conj().T @ o
    err = np.max(np.abs(gram - np.eye(o.shape[1])))
    if err > 1e-10:
        raise ParameterError(f"basis orthonormality check failed: {err:.2e}")


def default_basis(scheme: PrecodingScheme, n_len: int, m_active: int) -> WaveformBasis:
    """Construct the effective basis O for a scheme at utilization M / N.

    OFDM keeps the M centermost subcarriers of the centered DFT; DFT
    precoding produces M Dirichlet pulses at centered time shifts; DPSS uses
    the first M sequences of the W -> 0.5- set.  Columns are renormalized to
    unit norm to pin orthonormality numerically, and then checked: columns
    that are not orthonormal to 1e-10 raise ``ParameterError``, as do
    sizes that are not whole numbers.
    """
    n_len = check_whole("n_len", n_len, 1)
    m_active = check_whole("m_active", m_active, 1)
    if m_active > n_len:
        raise ParameterError(f"need 1 <= m_active <= n_len, got {m_active}, {n_len}")
    scheme = _member(PrecodingScheme, scheme)

    if scheme is PrecodingScheme.OFDM:
        o = _centered_dft_columns(n_len, retained_frequencies(n_len, m_active))
    elif scheme is PrecodingScheme.DFT:
        freqs = retained_frequencies(n_len, m_active)
        f_sel = _centered_dft_columns(n_len, freqs)
        # M-point DFT precoder with symmetric in-block indices; time shift of
        # column m is m - (M - 1)/2 on the centered sample grid.
        a = np.arange(m_active) - (m_active - 1) / 2.0
        f_m = np.exp(-2j * np.pi * np.outer(a, a) / m_active) / np.sqrt(m_active)
        o = f_sel @ f_m
    else:
        # the whole set, cut to M after it is normalized, so that the bases
        # nest in M bit for bit (numpy sums a lone column in another order)
        o = dpss_limit_half(n_len, n_len).sequences.astype(np.complex128)

    o = o / np.linalg.norm(o, axis=0, keepdims=True)
    o = np.ascontiguousarray(o[:, :m_active])
    _check_orthonormal(o)
    return WaveformBasis(n_len=n_len, m_active=m_active, scheme=scheme, o_matrix=o)


def with_prefix(
    base: WaveformBasis, prefix_len: int, prefix_kind: PrefixKind = PrefixKind.CYCLIC
) -> PrefixedBasis:
    """Extend a basis by a guard prefix of ``prefix_len`` samples."""
    prefix_len = check_whole("prefix_len", prefix_len, 0)
    if prefix_len >= base.n_len:
        raise ParameterError(
            f"prefix_len {prefix_len} must be shorter than the symbol ({base.n_len})"
        )
    prefix_kind = _member(PrefixKind, prefix_kind)
    o = base.o_matrix
    zeros = np.zeros((prefix_len, base.m_active), dtype=o.dtype)
    if prefix_kind is PrefixKind.CYCLIC and prefix_len > 0:
        guard = o[-prefix_len:, :]
    else:
        guard = zeros
    o_t = np.vstack([guard, o])
    o_r = np.vstack([zeros, o])
    return PrefixedBasis(base=base, prefix_len=prefix_len, o_t=o_t, o_r=o_r)
