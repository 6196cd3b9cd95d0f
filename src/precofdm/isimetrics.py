"""Inter-symbol interference metrics for precoded waveform bases.

The chain implemented here:

* cross-correlation tensor C[r, s, q] between basis columns (direct sums,
  plus closed forms for the OFDM and DFT-precoded bases);
* tail energies of the correlation sequences after the band-limited
  fractional shift a channel delay applies, and the half-sample-shift figure
  of merit per pair (band-limited correlation tail energy, E_BCT).  Every
  shifted tail is evaluated exactly, with no truncation: at half-bandwidth
  1/2 a fractional shift preserves energy, so the tail beyond R equals
  ||C||^2 minus the energy of the 2R + 1 shifted samples inside the window
  (Laakso et al., "Splitting the unit delay", IEEE SP Mag. 1996);
* exact ISI transfer matrices and energies for prefixed transmit/receive
  bases over realized channels, the analytical half-shift ISI bound per
  channel, and signal-to-ISI sweeps across utilization.  The energies come
  from a square-root lag Gram: the lag-correlation matrix C of the two bases
  is factored once into a triangle R with R^H R = C^H C, on 2N - 1 lags
  with a zero prefix and 2B - 1 otherwise, and each block offset
  multiplies R by the paths' sinc kernels.  C^H C itself is never formed,
  because its round-off would swamp the DPSS energies beyond the nearest
  neighbour block.  The bound's tails are a quadratic form in the lag
  sequences, so the same R also gives the bound's total over all pairs.

Channels are quasi-static: every operation takes one set of path gains.

An S2I sweep hands its basis spans, largest first, to ``_fork.fork_map``,
which deals them round-robin into one share per process, in forked
processes when the CPUs of the affinity set hold more than one BLAS thread
pool and the spans' work estimates reach the fork break-even.  A share
takes each span's energies and its bound from one set of real lag rows R~
with R~^T R~ = Re(C^H C), the Gram that the real sinc kernels see (in
closed form at M = N, a diagonal that scales the kernels' columns).  Every
column of the spans the sweep builds is +- its own conjugate time reverse,
so Re(C^H C) splits into an even and an odd lag block, and
``_parity_lag_root`` factors each by a half-width QR over the pair rows of
its parity, from the N lag products q >= 0 alone.  Every offset's kernels,
for every R~ of the share, are one rolling window of the channel's
sinc(k - tau_p) over the integers k (``channel._sinc_window``), so each
value is evaluated once per process, and each offset folds its window once
onto the even and odd lag coordinates that the two triangles read.  A span
whose projector O O^H is real (DPSS, and OFDM/DFT subcarrier sets
symmetric about 0) runs on a real basis of it (``_span_basis``), whose lag
products are float64 and whose pairs each give one row; a complex span (an
odd deficit N - M) gives each pair a row of its real and one of its
imaginary part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ._fork import fork_map
from .channel import ChannelOperator, ChannelRealization, ChannelSpec, _sinc_window
from .errors import ParameterError, check_whole
from .waveform import (
    PrecodingScheme,
    PrefixKind,
    PrefixedBasis,
    WaveformBasis,
    _member,
    active_count,
    default_basis,
    retained_frequencies,
    with_prefix,
)

__all__ = [
    "CrossCorrTensor",
    "BoundReport",
    "S2iPoint",
    "xcorr_tensor",
    "xcorr_ofdm_closed",
    "xcorr_scfdma_closed",
    "ebct_all",
    "ebct_bound_all",
    "isi_transfer",
    "isi_gram",
    "isi_energy",
    "signal_isi_energies",
    "isi_bound",
    "s2i_sweep",
    "half_shift_worst_case_scan",
]

DEFAULT_BLOCK_WINDOW = 12


@dataclass(frozen=True)
class CrossCorrTensor:
    """All pairwise lag correlations of basis columns.

    ``values[r, s, q + n_len - 1]`` is sum_n o_r*[n] o_s[n - q] for lags
    q in [-(N-1), N-1].
    """

    m: int
    n_len: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def lag(self, r: int, s: int, q: int) -> complex:
        _check_index(r, s, q, self.n_len, self.m)
        return self.values[r, s, int(q) + self.n_len - 1]


@dataclass(frozen=True)
class BoundReport:
    """Half-shift tail total of ``isi_bound``, the analytical ISI bound."""

    total_bound: float


@dataclass(frozen=True)
class S2iPoint:
    """A sweep row, with its span's signal, ISI and bound (or None) energies."""

    scheme: str
    eta: float
    tap_model: str
    s2i_db: float
    s2i_lower_bound_db: float | None = None
    signal_energy: float | None = None
    isi_energy: float | None = None
    bound_energy: float | None = None


def _cross_lag_matrix(
    left: np.ndarray, right: np.ndarray, order: str = "C", pairs=None
) -> np.ndarray:
    """Correlations sum_n left*[n, r] right[n - q, s] for q in [-(B-1), B-1].

    Both inputs have B rows (``_check_pair`` or equal bases ensure it).
    Returns shape (M_left * M_right, 2B - 1) with pair index r * M_right + s,
    of the inputs' common dtype, stored in numpy ``order`` ("C": one
    contiguous lag sequence per pair; "F": one contiguous column per lag).
    ``pairs``, an array of pair indices, keeps only those rows, in that
    order.
    """
    b = left.shape[0]
    m_l, m_r = left.shape[1], right.shape[1]
    rows = m_l * m_r if pairs is None else len(pairs)
    out = np.empty((rows, 2 * b - 1), dtype=np.result_type(left, right), order=order)
    for q in range(-(b - 1), b):
        if q >= 0:
            c = left[q:].conj().T @ right[: b - q]
        else:
            c = left[: b + q].conj().T @ right[-q:]
        out[:, q + b - 1] = c.ravel() if pairs is None else c.ravel()[pairs]
    return out


def xcorr_tensor(basis: WaveformBasis) -> CrossCorrTensor:
    """Cross-correlation tensor of an effective basis (direct summation)."""
    o = basis.o_matrix
    n, m = o.shape
    values = _cross_lag_matrix(o, o).reshape(m, m, 2 * n - 1)
    return CrossCorrTensor(m=m, n_len=n, values=values)


def _dirichlet_ratio(delta: np.ndarray, count: np.ndarray, n_len: int) -> np.ndarray:
    """sum_{n=-(K-1)/2}^{(K-1)/2} exp(j 2 pi delta n / N) for K = count terms."""
    delta = np.asarray(delta, dtype=float)
    count = np.asarray(count, dtype=float)
    num = np.sin(np.pi * count * delta / n_len)
    den = np.sin(np.pi * delta / n_len)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = num / den
    return np.where(delta == 0, count, ratio)


def _check_index(r, s, q, n_len: int, m_active: int) -> None:
    """ParameterError unless r, s, q, N and M are whole, |q| <= N-1 and
    0 <= r, s < M; r and s may be integer arrays.  numpy would wrap a
    negative index round silently."""
    check_whole("n_len", n_len, 1)
    check_whole("m_active", m_active, 1)
    check_whole("q", q, -math.inf)
    if abs(int(q)) > n_len - 1:
        raise ParameterError(f"|q| must be <= N-1, got q={q}")
    if not all(np.asarray(i).dtype.kind in "iu" for i in (r, s)):
        raise ParameterError(f"component indices must be whole, got {r!r}, {s!r}")
    if np.any((r < 0) | (r >= m_active) | (s < 0) | (s >= m_active)):
        raise ParameterError("component indices out of range")


def _mirror(r: int, s: int, q: int, n_len: int, m_active: int) -> tuple:
    """Checked closed-form indices with q >= 0, and whether they were mirrored:
    C_rs[q] = conj(C_sr[-q])."""
    _check_index(r, s, q, n_len, m_active)
    r, s, q = int(r), int(s), int(q)  # a fixed-width s - r or -q could wrap
    return (s, r, -q, True) if q < 0 else (r, s, q, False)


def xcorr_ofdm_closed(r: int, s: int, q: int, n_len: int, m_active: int) -> complex:
    """Closed-form OFDM correlation entry; r = s uses the analytic limit.

    Matches the direct-sum tensor of the centered-subcarrier basis:
    C_rs[q >= 0] = exp(-j pi (f_r + f_s) q / N) sin(pi (N-q)(s-r)/N)
                   / (N sin(pi (s-r)/N)).
    """
    r, s, q, mirrored = _mirror(r, s, q, n_len, m_active)
    freqs = retained_frequencies(n_len, m_active)
    phase = np.exp(-1j * np.pi * (freqs[r] + freqs[s]) * q / n_len)
    ratio = _dirichlet_ratio(np.array(float(s - r)), np.array(n_len - q), n_len)
    value = complex(phase * ratio / n_len)
    return value.conjugate() if mirrored else value


def xcorr_scfdma_closed(r: int, s: int, q: int, n_len: int, m_active: int) -> complex:
    """Closed-form DFT-precoded correlation entry via the reduced double sum.

    For q >= 0, with in-block indices l', k' on the symmetric grid
    +-(M-1)/2 and centered shift labels r~ = r - (M-1)/2:

    C_rs[q] = e^{-j 2 pi q f_c / N} / (M N) *
              sum_{l',k'} e^{j 2 pi (l' r~ - k' s~)/M} e^{-j pi (l'+k') q/N}
                          D(k'-l'; N-q)

    where D is the Dirichlet ratio over N - q terms and f_c the center of
    the occupied subcarrier block.
    """
    r, s, q, mirrored = _mirror(r, s, q, n_len, m_active)
    freqs = retained_frequencies(n_len, m_active)
    f_c = float(freqs.mean())
    c_m = (m_active - 1) / 2.0
    grid = np.arange(m_active) - c_m
    lp = grid[:, None]
    kp = grid[None, :]
    r_t = r - c_m
    s_t = s - c_m
    phases = np.exp(2j * np.pi * (lp * r_t - kp * s_t) / m_active)
    phases = phases * np.exp(-1j * np.pi * (lp + kp) * q / n_len)
    ratio = _dirichlet_ratio(kp - lp, np.full_like(kp, n_len - q), n_len)
    total = np.sum(phases * ratio) / (m_active * n_len)
    value = complex(np.exp(-2j * np.pi * q * f_c / n_len) * total)
    return value.conjugate() if mirrored else value


def _parseval_tails(cmat: np.ndarray, shift: float, radii) -> np.ndarray:
    """Exact tail energies of shifted band-limited lag sequences.

    Each row of ``cmat`` (its last axis) is a lag sequence C on |q| <= N-1,
    and y(n + shift) = sum_q C[q] sinc(n + shift - q) its band-limited
    interpolant sampled at the shifted integers.  At half-bandwidth 1/2 the
    shift is unitary, so sum_n |y(n + shift)|^2 = ||C||^2 and the tail beyond
    radius R is ||C||^2 - sum_{|n| <= R} |y(n + shift)|^2 for any shift.  One
    sinc product over the widest window serves every radius.  A row may be
    any lag sequence, not only a correlation of two basis columns: the rows
    of a lag root R with R^H R = C^H C give the same tail total as C's.
    Returns shape (len(radii),) + cmat.shape[:-1].
    """
    n_len = (cmat.shape[-1] + 1) // 2
    lags = np.arange(-(n_len - 1), n_len)
    widest = max(radii)
    pts = np.arange(-widest, widest + 1)
    # the kernel sinc(q - n - shift) depends on q - n alone: one row of it,
    # read out as a Toeplitz matrix
    reach = n_len - 1 + widest
    row = _sinc_window(-reach, 2 * reach + 1, [shift])[0]
    y = cmat @ row[np.subtract.outer(lags, pts) + reach]
    power = np.abs(y) ** 2
    total = np.sum(np.abs(cmat) ** 2, axis=-1)
    window = np.array(
        [np.sum(power[..., widest - r : widest + r + 1], axis=-1) for r in radii]
    )
    return np.maximum(total - window, 0.0)


def ebct_all(tensor: CrossCorrTensor) -> np.ndarray:
    """Band-limited correlation tail energy (E_BCT) of every pair, shape (M, M).

    Entry (r, s) is the exact, untruncated energy beyond N-1 of the
    half-sample-shifted, half-band-limited correlation sequence of the pair.
    """
    m, n = tensor.m, tensor.n_len
    cmat = tensor.values.reshape(m * m, 2 * n - 1)
    return _parseval_tails(cmat, 0.5, [n - 1])[0].reshape(m, m)


# The tail is exact, so it is its own bound: one function under both names.
ebct_bound_all = ebct_all


def _check_pair(tx: PrefixedBasis, rx: PrefixedBasis):
    if tx.block_len != rx.block_len or tx.base.m_active != rx.base.m_active:
        raise ParameterError("transmit/receive bases have mismatched shapes")


def isi_transfer(
    basis_tx: PrefixedBasis,
    basis_rx: PrefixedBasis,
    realization: ChannelRealization,
    l: int,
    l_prime: int,
) -> np.ndarray:
    """ISI transfer matrix beta_{l,l'} = O_r^H H_{l,l'} O_t.

    It maps the symbols of block l' into the output of block l; the channel
    block is evaluated with the exact sinc delay kernel.
    """
    _check_pair(basis_tx, basis_rx)
    if realization.block_len != basis_tx.block_len:
        raise ParameterError("channel block length != basis block length")
    h_block = ChannelOperator(realization, half_len=None).block(l, l_prime)
    return basis_rx.o_r.conj().T @ h_block @ basis_tx.o_t


def _lag_root(cmat: np.ndarray) -> np.ndarray:
    """Upper triangle R with R^H R = cmat^H cmat, factored in place.

    Householder QR of the column-major ``cmat`` (LAPACK geqrf of its dtype,
    dgeqrf for float64 and zgeqrf for complex128, overwrites it, so no copy
    is made): cmat = Q R with Q having orthonormal columns.  R has
    min(rows, cols) rows and ``cmat``'s dtype.
    """
    geqrf, geqrf_lwork = lapack.get_lapack_funcs(("geqrf", "geqrf_lwork"), (cmat,))
    lwork = int(geqrf_lwork(*cmat.shape)[0].real)
    qr = geqrf(cmat, lwork=lwork, overwrite_a=1)[0]
    return np.triu(qr[: qr.shape[1]])


def _symmetric_lag_root(o: np.ndarray) -> np.ndarray:
    """Upper triangle R with R^H R = C^H C for the self-correlation C of ``o``.

    Rows of C come in mirrored pairs, C[(s, r), q] = conj(C[(r, s), -q]),
    so C^H C = G + J conj(G) J with J the lag reversal and G = C1^H C1 for
    the rows r <= s of C, the diagonal pairs (r, r) scaled by 1/sqrt(2).
    R1 from the QR of C1 gives G = R1^H R1, and the QR of the stacked
    [R1; conj(R1) J] gives R.  Both are QR factorizations, so R stays
    backward stable while the large QR runs on half of C's rows.
    """
    m = o.shape[1]
    r, s = np.triu_indices(m)
    half = _cross_lag_matrix(o, o, order="F", pairs=r * m + s)
    half[r == s] *= math.sqrt(0.5)
    root = _lag_root(half)
    return _lag_root(np.asfortranarray(np.vstack([root, root[:, ::-1].conj()])))


def _parity_lag_root(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd halves of real lag rows R~ with R~^T R~ = Re(C^H C)
    for the self-correlation C of ``o`` (N x M), the Gram that real kernels
    see, from two half-width QRs split by lag parity.

    Every column must be +- its own conjugate time reverse, J o_r = p_r
    conj(o_r) with p_r = +-1 (checked to 1e-10, else ``ParameterError``):
    OFDM columns exactly, DPSS orders alternately even and odd to about
    1.5e-15 (Slepian, Bell Syst. Tech. J. 57, 1978).  Then C_rs[-q] =
    p_r p_s conj(C_rs[q]), so Re(C^H C) is block diagonal in the even lag
    coordinates c_q + c_-q (q = 0..N-1) and the odd ones c_q - c_-q
    (q = 1..N-1) (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Each
    pair r <= s gives one row to each block, read from the N products
    o[q:]^H o[:N-q], q >= 0: Re C_rs[q] and Im C_rs[q], swapped where
    p_r p_s = -1, weighted sqrt(2) for r < s, which stand in for the pair
    (s, r).  A real basis has Im C = 0, so that row is not formed.  Against
    C's own even and odd parts, the row left out is O(delta |C_rs|) for the
    check's residual delta, so leaving it out moves the Gram by O(delta^2
    |C|^2), and reading the kept row from q >= 0 alone by O(delta |C|^2):
    both within the QR's own backward error for the spans ``s2i_sweep``
    builds.  Each block is factored by ``_lag_root`` and returned as its
    triangle: the even one on the N coordinates q = 0..N-1, the odd one on
    the N - 1 coordinates q = 1..N-1.  ``_spread`` puts their rows back onto
    the 2N - 1 lags as even and odd sequences, the rows of R~ (at most
    2N - 1 of them; a block with no row, such as the odd one of a real basis
    at M = 1, gives none).
    """
    n, m = o.shape
    parity = np.where(np.einsum("nr,nr->r", o, o[::-1]).real < 0, -1.0, 1.0)
    residual = np.max(np.abs(o[::-1] - parity * o.conj()))
    if residual > 1e-10:
        raise ParameterError(
            f"basis columns are not +- their own conjugate time reverse: {residual:.2e}"
        )
    r, s = np.triu_indices(m)
    pairs = r * m + s
    weight = np.where(r == s, 1.0, math.sqrt(2.0))
    same = parity[r] == parity[s]
    if np.iscomplexobj(o):
        # Re C_rs and Im C_rs, the two swapped by a factor -i where p_r p_s = -1
        scale = np.where(same, weight, -1j * weight)
        blocks = [(pairs, scale, np.real), (pairs, scale, np.imag)]
    else:
        blocks = [(pairs[same], weight[same], np.real),
                  (pairs[~same], weight[~same], np.real)]
    # the even block's lags start at q = 0, the odd block's at q = 1
    mats = [np.empty((len(keep), n - lo), order="F")
            for lo, (keep, _, _) in enumerate(blocks)]
    o_h = o.conj().T
    for q in range(n):
        c = (o_h[:, q:] @ o[: n - q]).ravel()
        for lo, (mat, (keep, scale, part)) in enumerate(zip(mats, blocks)):
            if q >= lo:
                mat[:, q - lo] = part(c[keep] * scale)
    return tuple(_lag_root(mat) if mat.size else mat[:0] for mat in mats)


def _spread(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The rows of ``_parity_lag_root``'s halves on the 2N - 1 lags: an even
    row e gives the sequence e_|q|, an odd row o gives sign(q) o_|q|."""
    n = even.shape[1]
    out = np.zeros((len(even) + len(odd), 2 * n - 1))
    out[: len(even), n - 1 :] = even
    out[: len(even), : n - 1] = even[:, :0:-1]
    out[len(even) :, n:] = odd
    out[len(even) :, : n - 1] = -odd[:, ::-1]
    return out


def _check_blocks(n_blocks: int) -> int:
    return check_whole("n_blocks", n_blocks, 2)  # fewer blocks hold no interferer


def _window_powers(channel: ChannelSpec, n_len: int, prefix_len: int) -> dict:
    """Path powers summed per tail window N_p = N + g - floor(tau_p).

    A path with N_p < 1 skips whole blocks: ``ParameterError``.
    """
    groups: dict[int, float] = {}
    for path in channel.paths:
        n_p = n_len + prefix_len - math.floor(path.delay)
        if n_p < 1:
            raise ParameterError(
                f"path delay {path.delay} too large for N={n_len}, g={prefix_len}"
            )
        groups[n_p] = groups.get(n_p, 0.0) + path.power
    return groups


def _gram_root(tx: PrefixedBasis, rx: PrefixedBasis) -> np.ndarray:
    """Upper triangle R with R^H R = C^H C for the (M_r M_t) x (2B - 1)
    lag-correlation matrix C of the two bases; R's lags are centred on 0.

    When rx.o_r equals tx.o_t (a zero prefix), every lag |q| > N-1 is a zero
    column of C, so R spans the un-prefixed basis' 2N - 1 lags, and the
    large QR factors half of C's rows, which pair up under lag reversal.
    Otherwise R spans all 2B - 1 lags.
    """
    if np.array_equal(rx.o_r, tx.o_t):
        return _symmetric_lag_root(rx.o_r[rx.prefix_len:])
    return _lag_root(_cross_lag_matrix(rx.o_r, tx.o_t, order="F"))


def _offset_windows(width: int, block_len: int, delays: np.ndarray, offsets):
    """Yield (d, k_d) per block offset d of the ascending sequence
    ``offsets``: k_d, shape (paths, W), holds the paths' sinc(k - tau_p) on
    the W = ``width`` lags k centred on d B.  k_d is one rolling window: it
    keeps the W - B lags it shares with the previous offset's and evaluates
    only the new ones, so each value is evaluated once.  The window is
    overwritten by the next offset, so a caller reads it before it asks for
    the next one."""
    kernel = np.empty((delays.size, width))
    end = None  # one past the window's last lag
    for d in offsets:
        first = d * block_len - width // 2
        # W < 2B, so the shared columns and their new places never overlap
        keep = 0 if end is None else max(0, end - first)
        kernel[:, :keep] = kernel[:, width - keep :]
        kernel[:, keep:] = _sinc_window(first + keep, width - keep, delays)
        end = first + width
        yield d, kernel


def isi_gram(
    tx: PrefixedBasis,
    rx: PrefixedBasis,
    delays: np.ndarray,
    n_blocks: int = DEFAULT_BLOCK_WINDOW,
    include_signal: bool = False,
):
    """Hermitian path-interference matrix K with
    K[p, p'] = sum_{d != 0} tr(beta_{p,d}^H beta_{p',d}),

    where beta_{p,d} is the unit-gain transfer matrix of the path with delay
    tau_p from a block d symbols away (|d| < n_blocks).  The ISI energy of a
    gain vector g is then g^H K g, and diag(K) holds per-path energies.
    With ``include_signal`` the analogous d = 0 matrix (desired-signal
    energies through the same bases) is returned as a second value.

    With C the (M_r M_t) x (2B - 1) lag-correlation matrix of the bases and
    k_d the sinc kernels of the paths at offset d, the vectorized beta_{p,d}
    is column p of C k_d, so K sums (C k_d)^H (C k_d) over d.  C is factored
    once into a triangle R with R^H R = C^H C (QR, backward stable; Golub &
    Van Loan, Matrix Computations, 5.3), and each offset costs R k_d on at
    most 2B - 1 rows instead of C k_d on M_r M_t rows.  R's width is 2N - 1
    with a zero prefix, whose lags |q| > N-1 are zero in C, else 2B - 1.
    The normal-equation Gram C^H C is never formed: it squares the condition
    number, and its round-off (about 1e-18 for DPSS at N = 128, M = 121 on
    the mild channel) exceeds the ISI energy of offset d = 2 (2.8e-20).
    Real (float64) bases give a real C and R; K is complex either way.  The
    kernels are real, so each R k_d is one real GEMM: a complex R gives the
    real (paths, 2W) product with the float view of R^T, whose complex view
    is (R k_d)^T.
    """
    _check_pair(tx, rx)
    n_blocks = _check_blocks(n_blocks)
    delays = np.asarray(delays, dtype=float)
    offsets = [d for d in range(1 - n_blocks, n_blocks) if d or include_signal]
    k = np.zeros((2, delays.size, delays.size), dtype=np.complex128)  # ISI, signal
    root = _gram_root(tx, rx)
    root_t = np.ascontiguousarray(root.T).view(np.float64)
    for d, kernel in _offset_windows(root.shape[1], tx.block_len, delays, offsets):
        u = (kernel @ root_t).view(root.dtype)
        k[0 if d else 1] += u.conj() @ u.T
    return (k[0], k[1]) if include_signal else k[0]


def _quad(gram: np.ndarray, channel: ChannelSpec | ChannelRealization) -> float:
    if isinstance(channel, ChannelRealization):
        g = channel.drawn_gains
        return float(np.real(g.conj() @ gram @ g))
    return float(channel.powers @ np.real(np.diag(gram)))


def isi_energy(
    tx: PrefixedBasis,
    rx: PrefixedBasis,
    channel: ChannelSpec | ChannelRealization,
    n_blocks: int = DEFAULT_BLOCK_WINDOW,
) -> float:
    """Average ISI energy on one block under unit per-component symbol energy.

    With a realization, evaluates sum_{d != 0} ||beta_d||_F^2 for the drawn
    gains; with a spec, returns the statistical form sum_p sigma_p^2
    E_isi(tau_p).
    """
    return signal_isi_energies(tx, rx, channel, n_blocks)[1]


def signal_isi_energies(
    tx: PrefixedBasis,
    rx: PrefixedBasis,
    channel: ChannelSpec | ChannelRealization,
    n_blocks: int = DEFAULT_BLOCK_WINDOW,
) -> tuple[float, float]:
    """Desired-signal energy and ISI energy through a basis pair.

    Their ratio is the signal-to-ISI ratio of the link.
    """
    spec = channel.spec if isinstance(channel, ChannelRealization) else channel
    k_isi, k_sig = isi_gram(tx, rx, spec.delays, n_blocks, include_signal=True)
    return _quad(k_sig, channel), _quad(k_isi, channel)


def _tail_total(cmat: np.ndarray, groups: dict) -> float:
    """Power-weighted half-shift tails of the rows of ``cmat`` (lag sequences
    on |q| <= N-1), summed: each N_p group of ``_window_powers`` weights the
    tails beyond N_p - 1, and one sinc product serves every N_p."""
    n_ps = sorted(groups)
    tails = _parseval_tails(cmat, 0.5, [n_p - 1 for n_p in n_ps])
    weights = np.array([groups[n_p] for n_p in n_ps])
    # this summation order fixes the digits of the round-off-dominated DPSS total
    return float(np.sum(weights[:, None] * tails, axis=0).sum())


def isi_bound(
    tensor: CrossCorrTensor,
    channel: ChannelSpec,
    prefix_len: int,
) -> BoundReport:
    """Half-shift tail total: the analytical ISI bound of a channel.

    Each path is taken as a half-sample shift displaced by its integer part,
    so its per-pair contribution is the exact shifted-correlation tail
    energy beyond N_p - 1 with N_p = N + g - floor(tau_p).  Path powers
    weight the terms; paths that share N_p share one tail, and one sinc
    product serves every N_p.  The half shift is not the worst fractional
    delay for every pair (see ``half_shift_worst_case_scan``), so the total
    can fall below the ISI energy; ``bound`` and ``s2i`` check for this.
    """
    m, n = tensor.m, tensor.n_len
    cmat = tensor.values.reshape(m * m, 2 * n - 1)
    return BoundReport(_tail_total(cmat, _window_powers(channel, n, prefix_len)))


def _span_basis(basis: WaveformBasis) -> WaveformBasis:
    """An orthonormal basis of ``basis``'s span, float64 when the span's
    projector P = O O^H is real, so that its S2I and bound run in real
    arithmetic (every energy depends on O only through P).

    DPSS: the real part, exact as ``default_basis`` stores DPSS with zero
    imaginary parts.  OFDM or DFT whose retained subcarriers are symmetric
    about 0 (f = -f reversed): of the OFDM columns (built for a DFT basis),
    the f = 0 column when N is odd, then sqrt(2) Re and sqrt(2) Im of the
    f > 0 columns, which span each pair e_f, e_-f = conj(e_f).  Any other
    set (an odd deficit N - M) has a complex P: ``basis`` itself.
    """
    o, n, m = basis.o_matrix, basis.n_len, basis.m_active
    if basis.scheme is not PrecodingScheme.DPSS:
        f = retained_frequencies(n, m)
        if not np.array_equal(f, -f[::-1]):
            return basis
        if basis.scheme is PrecodingScheme.DFT:
            o = default_basis(PrecodingScheme.OFDM, n, m).o_matrix
        pos = math.sqrt(2.0) * o[:, f > 0]
        o = np.hstack([o[:, f == 0].real, pos.real, pos.imag])
    return WaveformBasis(n, m, basis.scheme, np.ascontiguousarray(o.real))


def _diagonal_halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd halves of R = diag(sqrt(N - |q|)), the lag rows of
    a span of all of C^N: the diagonals c_0 = sqrt(N) and c_q =
    sqrt((N - q)/2), q = 1..N-1, on both, whose spread rows give R^T R."""
    diag = np.sqrt(np.r_[n, np.arange(n - 1, 0, -1) / 2])
    return diag, diag[1:]


def _group_energies(
    prefs: list,
    channel: ChannelSpec,
    n_blocks: int,
    include_bound: bool,
) -> list:
    """(signal energy, ISI energy, half-shift tail total or None) of each
    zero-prefixed basis in ``prefs``, all from its real lag rows R with
    R^T R = Re(C^H C), held as an even and an odd half.  The bases share N
    and the prefix, so their rows share the 2N - 1 lags.  At M < N, the
    halves are ``_parity_lag_root``'s, which needs every column +- its own
    conjugate time reverse, as the spans of ``s2i_sweep`` are, and raises
    ``ParameterError`` otherwise; they are real for a complex basis too, so
    the offset products and energies are real.

    The energies are ``signal_isi_energies(pref, pref, ...)``'s, read per
    path as sum_i |(R k_d)_{ip}|^2 and weighted by the path powers, with no
    P x P Gram: the kernels k_d are real, so |C k_d|^2 = k_d^T Re(C^H C)
    k_d.  An even row of R is e_|q| on the lags q and an odd row sign(q)
    o_|q|, so each offset's window k is folded once, into k_e[0] = k[0],
    k_e[q] = k[q] + k[-q] and k_o[q] = k[q] - k[-q] for q = 1..N-1, and
    R k = (E k_e, D k_o) for the halves E and D: two real products on N and
    N - 1 columns in place of one on 2N - 1, and each energy is
    sum |E k_e|^2 + sum |D k_o|^2.  The tail total is ``isi_bound``'s: the
    tail is a quadratic form in the lag sequence with a real symmetric
    kernel, so the total over the pairs (r, s) of C is a trace against
    C^H C, which its imaginary part does not reach, and equals the one over
    the rows of R (``_spread``).  A row of R is not a correlation sequence,
    but its tail is still non-negative in exact arithmetic, so the per-row
    clamp stays valid.  At M = N, O O^H = I and C^H C[q, q'] =
    tr(S_q^H S_q') = (N - |q|) delta_qq' for shifts S_q, so R is
    diag(sqrt(N - |q|)), unfactored: the callers' ``default_basis`` checks
    O orthonormal to 1e-10.  Its halves are the diagonals c_0 = sqrt(N) and
    c_q = sqrt((N - q)/2) on both, as (N - q)/2 ((k_q + k_-q)^2 +
    (k_q - k_-q)^2) = (N - q) (k_q^2 + k_-q^2); they scale the folded
    kernels' columns, and the tail total takes its rows from the real
    diagonal matrix diag(sqrt(N - |q|)).

    Every root is factored, and its tail total taken, before the offset
    loop, so the kernel window of ``_offset_windows`` never coexists with a
    half lag matrix.  The loop then folds each offset's kernels once for
    every root of ``prefs``, and adds each root's ISI energies in offset
    order.
    """
    n_blocks = _check_blocks(n_blocks)
    n, block_len = prefs[0].base.n_len, prefs[0].block_len
    windows = _window_powers(channel, n, prefs[0].prefix_len) if include_bound else None
    halves, bounds = [], []  # (even, odd): transposed triangles or diagonals
    for pref in prefs:
        if pref.base.m_active == n:
            halves.append(_diagonal_halves(n))
            rows = np.diag(np.sqrt(n - np.abs(np.arange(1 - n, n))))
        else:
            even, odd = _parity_lag_root(pref.base.o_matrix)
            halves.append((np.ascontiguousarray(even.T), np.ascontiguousarray(odd.T)))
            rows = _spread(even, odd)
        bounds.append(_tail_total(rows, windows) if include_bound else None)
    delays = np.asarray(channel.delays, dtype=float)
    signals, isis = [None] * len(halves), [0] * len(halves)
    offsets = range(1 - n_blocks, n_blocks)
    k_e, k_o = np.empty((delays.size, n)), np.empty((delays.size, n - 1))
    for d, kernel in _offset_windows(2 * n - 1, block_len, delays, offsets):
        right, left = kernel[:, n:], kernel[:, : n - 1][:, ::-1]
        k_e[:, 0] = kernel[:, n - 1]
        np.add(right, left, out=k_e[:, 1:])
        np.subtract(right, left, out=k_o)
        for i, pair in enumerate(halves):
            energies = 0
            for k, half in zip((k_e, k_o), pair):
                u = k * half if half.ndim == 1 else k @ half
                energies = energies + np.einsum("pi,pi->p", u, u)
            if d:
                isis[i] = isis[i] + energies
            else:
                signals[i] = energies
    return [
        (float(channel.powers @ signal), float(channel.powers @ isi), bound)
        for signal, isi, bound in zip(signals, isis, bounds)
    ]


def _span_work(pref: PrefixedBasis, n_paths: int, n_blocks: int) -> int:
    """Multiply-adds of one span in ``_group_energies``, roughly: pair rows
    x N^2 for its lag products and parity QRs (none at M = N, whose root is
    in closed form), and paths x (2 n_blocks - 1) x N^2 for its offset
    products."""
    n, m = pref.base.n_len, pref.base.m_active
    pair_rows = 0 if m == n else m * (m + 1) // 2
    if np.iscomplexobj(pref.base.o_matrix):
        pair_rows *= 2  # a row of the real and one of the imaginary part
    return (pair_rows + n_paths * (2 * n_blocks - 1)) * n * n


def _ratio_db(signal: float, interference: float) -> float:
    if interference <= 0.0:
        return float("inf")
    return 10.0 * math.log10(signal / interference)


def s2i_sweep(
    schemes,
    eta_list,
    channel: ChannelSpec,
    n_len: int,
    prefix_len: int,
    n_blocks: int = DEFAULT_BLOCK_WINDOW,
    include_bound: bool = True,
) -> list[S2iPoint]:
    """Signal-to-ISI ratio (dB) per (scheme, eta), with the half-shift bound.

    S2I is the received desired-signal energy over the ISI energy, both
    statistical under unit per-component symbol energy; the lower-bound
    column replaces the ISI energy by ``isi_bound``'s half-shift total.
    Every basis carries a zero prefix of ``prefix_len`` samples;
    m_active = floor(eta * N).

    Each energy depends on a basis O only through its span, the projector
    P = O O^H: ||O^H T O||_F^2 = tr(P T P T^H) for every transfer operator
    T, and the bound's tail totals likewise.  DFT precoding is unitary on
    the OFDM subcarriers, and at M = N every basis spans all of C^N, so the
    values are computed once per span, on the OFDM basis for every span
    but DPSS with M < N, and shared by the rows that have it.

    The bases are built here.  The spans go largest first (M < N by
    descending M, then M = N) to ``fork_map``, which deals them round-robin
    into one share per process, so the shares balance, and may run them in
    forked processes: only when the spans' work estimates (``_span_work``)
    sum to at least ``_fork.FORK_BREAK_EVEN``.  A share factors each span's
    real lag rows R once, on the basis' own 2N - 1 lags, and takes the
    per-path energies and the bound from them: the bound's tail total over
    the M^2 pair rows of C
    equals the one over the at most 2N - 1 rows of R (sum_rs tail(C_rs) =
    sum_i tail(R_i), as R^T R = Re(C^H C) and the tail kernel is real), so
    no sweep builds the correlation tensor or a path Gram.  Every column of
    the spans built here is +- its own conjugate time reverse (DPSS orders
    alternate even and odd, and OFDM columns are conjugate symmetric), so
    R comes from two half-width QRs, one per lag parity, over the pair rows
    each parity keeps (``_parity_lag_root``); at M = N, R is in closed form.
    Every span shares B, the lags and the delays, so one rolling window of
    sinc values serves all the share's roots, and each offset folds it once
    into k_q + k_-q and k_q - k_-q, which the even and odd halves of every
    root multiply at half width (``_group_energies``).  A span
    with a real projector is computed on its real basis (``_span_basis``),
    in float64.
    Every check a share would raise runs here first, so a bad argument never
    starts a process.
    """
    n_len = check_whole("n_len", n_len, 1)
    prefix_len = check_whole("prefix_len", prefix_len, 0)
    spans: dict = {}  # (DPSS with M < N, M) -> zero-prefixed basis
    rows = []  # (scheme, M, span) per row
    for scheme in schemes:
        scheme = _member(PrecodingScheme, scheme)
        for eta in eta_list:
            m = active_count(eta, n_len)
            key = scheme is PrecodingScheme.DPSS and m < n_len, m
            if key not in spans:
                span = scheme if key[0] else PrecodingScheme.OFDM
                basis = _span_basis(default_basis(span, n_len, m))
                spans[key] = with_prefix(basis, prefix_len, PrefixKind.ZERO)
            rows.append((scheme, m, key))
    if not rows:
        raise ParameterError("an S2I sweep needs at least one scheme and one eta")
    n_blocks = _check_blocks(n_blocks)
    if include_bound:
        _window_powers(channel, n_len, prefix_len)

    keys = sorted(spans, key=lambda key: (key[1] == n_len, -key[1]))
    energies = dict(zip(keys, fork_map(
        lambda share: _group_energies(
            [spans[key] for key in share], channel, n_blocks, include_bound
        ),
        keys,
        [_span_work(spans[key], len(channel.paths), n_blocks) for key in keys],
    ), strict=True))
    points = []
    for scheme, m, key in rows:
        signal, isi, bound = energies[key]
        lower = None if bound is None else _ratio_db(signal, bound)
        points.append(S2iPoint(
            scheme.value, m / n_len, channel.name, _ratio_db(signal, isi), lower,
            signal, isi, bound,
        ))
    return points


def half_shift_worst_case_scan(
    tensor: CrossCorrTensor,
    r,
    s,
    tau_grid: np.ndarray,
) -> tuple:
    """Exact tail energy beyond N-1 versus fractional shift; returns (argmax, curve).

    ``r`` and ``s`` index the pairs: two integers, or integer arrays that
    broadcast together, which scans every pair with one tail pass per shift.
    ``curve`` has shape ``broadcast(r, s).shape + (len(tau_grid),)``; each
    point is the untruncated tail of the shifted band-limited correlation
    sequence.  ``argmax`` holds, per pair, the shift at which the curve
    peaks: whether the half-sample shift maximizes it is reported, never
    assumed.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    inside = np.all((tau_grid > 0.0) & (tau_grid < 1.0))  # NaN fails
    if not (tau_grid.ndim == 1 and tau_grid.size and inside):
        raise ParameterError("tau grid must be 1-D, non-empty and inside (0, 1)")
    _check_index(np.asarray(r), np.asarray(s), 0, tensor.n_len, tensor.m)
    seqs = tensor.values[r, s]
    # one (1 x lags) row per pair: the batched product then runs the same
    # vector-matrix kernel as a single pair does, so no digit depends on
    # how many pairs are scanned together
    rows = seqs.reshape(-1, 1, seqs.shape[-1])
    radii = [tensor.n_len - 1]
    curve = np.stack(
        [_parseval_tails(rows, tau, radii)[0, :, 0] for tau in tau_grid], axis=-1
    ).reshape(seqs.shape[:-1] + tau_grid.shape)
    return tau_grid[np.argmax(curve, axis=-1)], curve
