"""Inter-symbol interference metrics for precoded waveform bases, over
quasi-static channels (one set of path gains).

Notation: O (N x M) has orthonormal columns o_r.  C, the lag-correlation
matrix of a receive and a transmit basis of block length B, has a row per
pair (r, s): C_rs[q] = sum_n o_r*[n] o_s[n - q] on the 2B - 1 lags q.  The
paths' sinc(k - tau_p) on the lags k of block offset d form k_d, and column
p of C k_d is the path's transfer matrix beta_{p,d}, vectorized.
tail_R(c) is the energy beyond radius R of a lag sequence c after a
band-limited fractional shift.

Identities, each derived once (here or in the docstring named) and checked
by the test class named:

I1  Zero-prefix lag support.  With a zero prefix (rx.o_r equal to tx.o_t)
    every lag |q| > N - 1 is a zero column of C.  Used by ``_gram_root``
    and ``_group_energies``; tested by
    ``TestSymmetricLagRoot::test_zero_prefix_root_covers_the_basis_lags``.

I2  Span dependence.  Energies and tail totals (I9) depend on O only
    through P = O O^H: ||O^H T O||_F^2 = tr(P T P T^H) for any operator T.
    DFT precoding is unitary on the OFDM subcarriers, so DFT shares OFDM's
    span, and every scheme at M = N spans C^N.  A real P has a real basis:
    DPSS's real part; for OFDM with N - M even (subcarriers symmetric about
    0) the f = 0 column (odd N), then sqrt(2) Re and sqrt(2) Im of each
    f > 0 column, which span e_f and e_-f = conj(e_f).  Used by
    ``s2i_sweep`` and ``_span_basis``; tested by ``TestSpanBasis``.

I3  Square-root Gram.  Householder QR of C gives a triangle R with
    R^H R = C^H C, so ||C k||^2 = ||R k||^2 on at most 2B - 1 rows (Golub &
    Van Loan, Matrix Computations, 5.3).  C^H C is never formed: it squares
    the condition number, and its round-off (about 1e-18 for DPSS at
    N = 128, M = 121 on mild) exceeds the ISI energy of offset d = 2
    (2.8e-20).  Used by ``_lag_root`` and ``isi_gram``; tested by
    ``TestIsiGramSquareRoot``.

I4  Mirrored pairs.  For one basis C[(s, r), q] = conj(C[(r, s), -q]), so
    C^H C = G + J conj(G) J for the lag reversal J and G = C1^H C1 over the
    rows r <= s, the rows r = s scaled by 1/sqrt(2).  The QR of C1 gives
    R1, and the QR of [R1; conj(R1) J] gives R, backward stable with the
    large QR on half of C's rows.  Used by ``_symmetric_lag_root``; tested
    by ``TestSymmetricLagRoot``.

I5  Parity split and kernel folding.  Real kernels see only Re(C^H C).  If
    every column is +- its own conjugate time reverse, J o_r = p_r conj(o_r)
    (OFDM exactly; DPSS to about 1.5e-15, its orders alternately even and
    odd: Slepian, Bell Syst. Tech. J. 57, 1978), then C_rs[-q] =
    p_r p_s conj(C_rs[q]), and Re(C^H C) is block diagonal in the even lag
    coordinates c_q + c_-q (q = 0..N-1) and the odd ones c_q - c_-q
    (q = 1..N-1) (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Each
    pair r <= s gives each block a row from its lags q >= 0: Re C_rs and
    Im C_rs, swapped where p_r p_s = -1, weighted sqrt(2) for r < s (for
    the pair (s, r)); a real basis has Im C = 0.  The blocks' QRs give
    triangles E (N columns) and D (N - 1), whose rows, spread onto the lags
    as e_|q| and sign(q) d_|q|, are rows R with R^T R = Re(C^H C).  So a
    kernel window k folds once, into k_e = (k_0, k_q + k_-q) and
    k_o = (k_q - k_-q), q >= 1, and ||R k||^2 = ||E k_e||^2 + ||D k_o||^2:
    two products on N and N - 1 columns in place of one on 2N - 1.  For
    columns that hold the identity to delta, leaving out the rows it makes
    zero moves the Gram by O(delta^2 |C|^2) and reading q >= 0 alone by
    O(delta |C|^2), both within the QR's backward error.  Used by
    ``_parity_lag_root``, ``_spread`` and ``_group_energies``; tested by
    ``TestParityLagRoot`` and ``TestFoldedEnergies``.

I6  The M = N diagonal root.  With O O^H = I and shifts S_q, C^H C[q, q'] =
    tr(S_q^H S_q') = (N - |q|) delta_qq', so the lag root is
    diag(sqrt(N - |q|)), with no QR.  Folded as in I5, its halves are the
    diagonals c_0 = sqrt(N) and c_q = sqrt((N - q)/2), as (N - q)/2
    ((k_q + k_-q)^2 + (k_q - k_-q)^2) = (N - q) (k_q^2 + k_-q^2).  Used by
    ``_diagonal_halves``; tested by ``TestSquareSpanRoot``.

I7  Nearest-integer sinc reduction, sin(pi (k - tau)) = (-1)^(k - n)
    sin(pi (n - tau)) for n the integer nearest tau.  Derived in
    ``channel._sinc_window``; tested by ``TestSincWindow``.

I8  Parseval tail.  At half-bandwidth 1/2 a fractional shift is unitary,
    so with y(n + tau) = sum_q c[q] sinc(n + tau - q), tail_R(c) = ||c||^2
    - sum_{|n| <= R} |y(n + tau)|^2 for any tau, with no truncation (Laakso
    et al., "Splitting the unit delay", IEEE SP Mag. 1996).  The
    subtraction's round-off floor, near eps ||c||^2, is where DPSS tails at
    M < N sit.  Used by ``_parseval_tails``; tested by
    ``TestParsevalTailProperties``.

I9  Lag-root rows carry the tail total.  tail_R(c) = c^H K c with K real
    symmetric, so the total over the rows of C is tr(K C^H C), which sees
    only Re(C^H C): sum_rs tail(C_rs) = sum_i tail(R_i) for the rows of any
    R with R^H R = C^H C (I3) or R^T R = Re(C^H C) (I5, I6), at most
    2N - 1 of them in place of M^2.  A row of R is no correlation sequence,
    but its tail is >= 0 all the same.  Tested by ``TestRootBound``.
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
    """All pairwise lag correlations of basis columns: ``values[r, s,
    q + n_len - 1]`` is C_rs[q] for lags q in [-(N-1), N-1]."""

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
    """The lag-correlation matrix C of two B-row bases, shape
    (M_left * M_right, 2B - 1), row r * M_right + s, of their common dtype,
    in numpy ``order`` ("C": a contiguous lag sequence per pair; "F": a
    contiguous column per lag).  ``pairs``, an array of pair indices, keeps
    only those rows, in that order.
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
    """Exact tails (I8) of the lag sequences in the rows of ``cmat`` (last
    axis, on |q| <= N-1), shifted by ``shift``, beyond each radius of
    ``radii``, from one sinc product over the widest window.  A row may be
    any lag sequence, such as a lag-root row (I9).  Returns shape
    (len(radii),) + cmat.shape[:-1].
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
    """Band-limited correlation tail energy (E_BCT) of every pair, shape
    (M, M): the exact tail (I8) beyond N-1 of its half-sample-shifted
    correlation sequence."""
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
    """ISI transfer matrix beta_{l,l'} = O_r^H H_{l,l'} O_t from block l'
    into block l, through the exact sinc channel block."""
    _check_pair(basis_tx, basis_rx)
    if realization.block_len != basis_tx.block_len:
        raise ParameterError("channel block length != basis block length")
    h_block = ChannelOperator(realization, half_len=None).block(l, l_prime)
    return basis_rx.o_r.conj().T @ h_block @ basis_tx.o_t


def _lag_root(cmat: np.ndarray) -> np.ndarray:
    """Upper triangle R with R^H R = cmat^H cmat (I3), of ``cmat``'s dtype
    and min(rows, cols) rows.  LAPACK geqrf overwrites the column-major
    ``cmat``, so no copy is made."""
    geqrf, geqrf_lwork = lapack.get_lapack_funcs(("geqrf", "geqrf_lwork"), (cmat,))
    lwork = int(geqrf_lwork(*cmat.shape)[0].real)
    qr = geqrf(cmat, lwork=lwork, overwrite_a=1)[0]
    return np.triu(qr[: qr.shape[1]])


def _symmetric_lag_root(o: np.ndarray) -> np.ndarray:
    """Upper triangle R with R^H R = C^H C for the self-correlation C of
    ``o``, from the rows r <= s of C (I4)."""
    m = o.shape[1]
    r, s = np.triu_indices(m)
    half = _cross_lag_matrix(o, o, order="F", pairs=r * m + s)
    half[r == s] *= math.sqrt(0.5)
    root = _lag_root(half)
    return _lag_root(np.asfortranarray(np.vstack([root, root[:, ::-1].conj()])))


def _parity_lag_root(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd triangles E and D (I5) of the self-correlation of
    ``o`` (N x M), float64 for a real or complex ``o``: E on the N lag
    coordinates q = 0..N-1, D on the N - 1 ones q = 1..N-1.  A block with
    no row (the odd one of a real basis at M = 1) is empty.
    ``ParameterError`` unless every column of ``o`` is +- its own
    conjugate time reverse to 1e-10.
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
    """The rows of ``_parity_lag_root``'s halves spread onto the 2N - 1
    lags (I5)."""
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
    """Upper triangle R with R^H R = C^H C for the lag-correlation matrix C
    of the two bases, its lags centred on 0: 2N - 1 of them when rx.o_r
    equals tx.o_t (I1, I4), else all 2B - 1 (I3)."""
    if np.array_equal(rx.o_r, tx.o_t):
        return _symmetric_lag_root(rx.o_r[rx.prefix_len:])
    return _lag_root(_cross_lag_matrix(rx.o_r, tx.o_t, order="F"))


def _offset_windows(width: int, block_len: int, delays: np.ndarray, offsets):
    """Yield (d, k_d) per block offset d of the ascending ``offsets``: k_d,
    shape (paths, W), holds sinc(k - tau_p) on the W = ``width`` lags
    centred on d B.  It is one rolling window, which evaluates only the lags
    new to it, so a caller reads it before it asks for the next offset."""
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
    energies through the same bases) is returned as a second value.  K is
    complex for real and complex bases alike, summed on the lag root (I3).
    """
    _check_pair(tx, rx)
    n_blocks = _check_blocks(n_blocks)
    delays = np.asarray(delays, dtype=float)
    offsets = [d for d in range(1 - n_blocks, n_blocks) if d or include_signal]
    k = np.zeros((2, delays.size, delays.size), dtype=np.complex128)  # ISI, signal
    root = _gram_root(tx, rx)
    # real kernels: R k_d is one real GEMM with the float view of R^T
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
    """Average ISI energy on one block under unit per-component symbol
    energy: sum_{d != 0} ||beta_d||_F^2 for a realization's drawn gains, or
    sum_p sigma_p^2 E_isi(tau_p) for a spec."""
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

    Each path, a half-sample shift displaced by its integer part, adds each
    pair's tail (I8) beyond N_p - 1, N_p = N + g - floor(tau_p), times its
    power.  The half shift is not the worst fractional delay for every pair
    (``half_shift_worst_case_scan``), so the total can fall below the ISI
    energy; ``bound`` and ``s2i`` check for this.
    """
    m, n = tensor.m, tensor.n_len
    cmat = tensor.values.reshape(m * m, 2 * n - 1)
    return BoundReport(_tail_total(cmat, _window_powers(channel, n, prefix_len)))


def _span_basis(basis: WaveformBasis) -> WaveformBasis:
    """The float64 basis (I2) of ``basis``'s span when its projector is
    real, DPSS or OFDM with N - M even; otherwise, and for every DFT basis,
    ``basis`` itself."""
    o, n, m = basis.o_matrix, basis.n_len, basis.m_active
    if basis.scheme is not PrecodingScheme.DPSS:
        f = retained_frequencies(n, m)
        if basis.scheme is PrecodingScheme.DFT or not np.array_equal(f, -f[::-1]):
            return basis
        pos = math.sqrt(2.0) * o[:, f > 0]
        o = np.hstack([o[:, f == 0].real, pos.real, pos.imag])
    return WaveformBasis(n, m, basis.scheme, np.ascontiguousarray(o.real))


def _diagonal_halves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd halves of the M = N lag root, as diagonals (I6)."""
    diag = np.sqrt(np.r_[n, np.arange(n - 1, 0, -1) / 2])
    return diag, diag[1:]


def _group_energies(
    prefs: list,
    channel: ChannelSpec,
    n_blocks: int,
    include_bound: bool,
) -> list:
    """(signal energy, ISI energy, half-shift tail total or None) of each
    zero-prefixed basis in ``prefs``, which share N and the prefix: the
    values of ``signal_isi_energies(pref, pref, ...)`` and ``isi_bound``
    (I9), from real lag rows in even and odd halves (I1; I5, or I6 at
    M = N).  ``ParameterError`` if a basis with M < N has a column that is
    not +- its own conjugate time reverse.  Every root and its tail total
    come before the offset loop, so the kernel window of ``_offset_windows``
    never coexists with a half lag matrix.
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
    m_active = floor(eta * N).  Each span is computed once (I2), and its
    ``_span_work`` estimate goes to ``fork_map``; every check a share would
    raise runs here first, so a bad argument never starts a process.
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

    energies = dict(zip(spans, fork_map(
        lambda share: _group_energies(share, channel, n_blocks, include_bound),
        spans.values(),
        [_span_work(span, len(channel.paths), n_blocks) for span in spans.values()],
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
    """Exact tail (I8) beyond N-1 versus fractional shift; returns
    (argmax, curve).  ``r`` and ``s`` are integers, or integer arrays that
    broadcast together, scanned with one tail pass per shift.  ``curve`` has
    shape ``broadcast(r, s).shape + (len(tau_grid),)``, and ``argmax`` holds
    each pair's peak shift: whether the half shift maximizes it is reported,
    never assumed.
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
