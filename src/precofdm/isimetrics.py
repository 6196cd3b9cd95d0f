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

An S2I sweep runs one task per basis span through ``_fork.fork_map``, in
forked processes when the CPUs of the affinity set hold more than one BLAS
thread pool; each task takes the span's energies and its bound from one R
(in closed form at M = N, a diagonal that scales the kernels' columns),
and the tasks are dealt largest first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ._fork import fork_map
from .channel import ChannelOperator, ChannelRealization, ChannelSpec
from .errors import ParameterError
from .waveform import (
    PrecodingScheme,
    PrefixKind,
    PrefixedBasis,
    WaveformBasis,
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


def _sinc(x: np.ndarray) -> np.ndarray:
    """sin(pi x) / (pi x) with exact zeros at nonzero integer arguments."""
    x = np.asarray(x, dtype=float)
    out = np.sinc(x)
    exact = (x == np.round(x)) & (x != 0)
    if np.any(exact):
        out = np.where(exact, 0.0, out)
    return out


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
        return self.values[r, s, q + self.n_len - 1]


@dataclass(frozen=True)
class BoundReport:
    """Half-shift tail total of ``isi_bound``, the analytical ISI bound."""

    total_bound: float


@dataclass(frozen=True)
class S2iPoint:
    scheme: str
    eta: float
    tap_model: str
    s2i_db: float
    s2i_lower_bound_db: float | None = None


def _cross_lag_matrix(
    left: np.ndarray, right: np.ndarray, order: str = "C", pairs=None
) -> np.ndarray:
    """Correlations sum_n left*[n, r] right[n - q, s] for q in [-(B-1), B-1].

    Both inputs have B rows (``_check_pair`` or equal bases ensure it).
    Returns shape (M_left * M_right, 2B - 1) with pair index r * M_right + s,
    stored in numpy ``order`` ("C": one contiguous lag sequence per pair;
    "F": one contiguous column per lag).  ``pairs``, an array of pair
    indices, keeps only those rows, in that order.
    """
    b = left.shape[0]
    m_l, m_r = left.shape[1], right.shape[1]
    rows = m_l * m_r if pairs is None else len(pairs)
    out = np.empty((rows, 2 * b - 1), dtype=np.complex128, order=order)
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
    """ParameterError unless |q| <= N-1 and 0 <= r, s < M; r and s may be
    integer arrays.  numpy would wrap a negative index round silently."""
    if abs(q) > n_len - 1:
        raise ParameterError(f"|q| must be <= N-1, got q={q}")
    if np.any((r < 0) | (r >= m_active) | (s < 0) | (s >= m_active)):
        raise ParameterError("component indices out of range")


def _mirror(r: int, s: int, q: int, n_len: int, m_active: int) -> tuple:
    """Checked closed-form indices with q >= 0, and whether they were mirrored:
    C_rs[q] = conj(C_sr[-q])."""
    _check_index(r, s, q, n_len, m_active)
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
    y = cmat @ _sinc(lags[:, None] - pts[None, :] - shift)
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

    Householder QR of the column-major ``cmat`` (LAPACK zgeqrf overwrites
    it, so no copy is made): cmat = Q R with Q having orthonormal columns.
    R has min(rows, cols) rows.
    """
    lwork = int(lapack.zgeqrf_lwork(*cmat.shape)[0].real)
    qr = lapack.zgeqrf(cmat, lwork=lwork, overwrite_a=1)[0]
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


def _check_blocks(n_blocks: int) -> None:
    if n_blocks < 2:
        raise ParameterError("n_blocks must be >= 2 to include any interferer")


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


def _offset_products(root: np.ndarray, block_len: int, delays: np.ndarray, offsets):
    """Yield (d, U) per block offset d: U is real (paths, 2W), with complex
    view (R k_d)^T for the paths' sinc kernels k_d on R's lags.  The kernels
    are real, so U is one real GEMM with the float view of R^T.  A real 1-D
    ``root`` is the diagonal of R: it scales the kernels' columns, the same
    bits as the GEMM on the diagonal matrix, with zero imaginary slots."""
    w = root.shape[-1]
    lags = np.arange(-(w // 2), w // 2 + 1)
    if root.ndim == 1:
        for d in offsets:
            kernel = _sinc(lags[None, :] + d * block_len - delays[:, None])
            yield d, (kernel * root).astype(np.complex128).view(np.float64)
        return
    root_t = np.ascontiguousarray(root.T).view(np.float64)
    for d in offsets:
        yield d, _sinc(lags[None, :] + d * block_len - delays[:, None]) @ root_t


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
    """
    _check_pair(tx, rx)
    _check_blocks(n_blocks)
    delays = np.asarray(delays, dtype=float)
    offsets = [d for d in range(1 - n_blocks, n_blocks) if d or include_signal]
    k = np.zeros((2, delays.size, delays.size), dtype=np.complex128)  # ISI, signal
    for d, u in _offset_products(_gram_root(tx, rx), tx.block_len, delays, offsets):
        u = u.view(np.complex128)
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


def _span_energies(
    pref: PrefixedBasis,
    channel: ChannelSpec,
    n_blocks: int,
    include_bound: bool,
) -> tuple:
    """(signal energy, ISI energy, half-shift tail total or None) of a
    zero-prefixed basis, all from one lag root R.

    The energies are ``signal_isi_energies(pref, pref, ...)``'s, read per
    path as sum_i |(R k_d)_{ip}|^2 and weighted by the path powers, with no
    P x P Gram.  The tail total is ``isi_bound``'s: the tail is a quadratic
    form in the lag sequence and R^H R = C^H C, so the total over the pairs
    (r, s) of C equals the one over the rows of R.  A row of R is not a
    correlation sequence, but its tail is still non-negative in exact
    arithmetic, so the per-row clamp stays valid.  At M = N, O O^H = I and
    C^H C[q, q'] = tr(S_q^H S_q') = (N - |q|) delta_qq' for shifts S_q, so R
    is diag(sqrt(N - |q|)), unfactored: the callers' ``default_basis`` checks
    O orthonormal to 1e-10, while ``_gram_root`` serves any bases.  The
    offsets then scale the kernels by that diagonal, and the tail total
    reads it as a matrix.
    """
    _check_blocks(n_blocks)
    n = pref.base.n_len
    square = pref.base.m_active == n
    root = (np.sqrt(n - np.abs(np.arange(1 - n, n))) if square
            else _gram_root(pref, pref))
    delays = np.asarray(channel.delays, dtype=float)
    offsets = range(1 - n_blocks, n_blocks)
    energies = {
        d: np.einsum("pi,pi->p", u, u)
        for d, u in _offset_products(root, pref.block_len, delays, offsets)
    }
    signal = energies.pop(0)
    isi = sum(energies.values())
    bound = None
    if include_bound:
        groups = _window_powers(channel, pref.base.n_len, pref.prefix_len)
        bound = _tail_total(np.diag(root + 0j) if square else root, groups)
    return float(channel.powers @ signal), float(channel.powers @ isi), bound


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

    The bases are built here, and each span is one task for ``fork_map``,
    which may run the tasks in forked processes.  A task factors the span's
    lag root R once, on the basis' own 2N - 1 lags, and takes the per-path
    energies and the bound from it: the bound's tail total over the M^2
    pair rows of C equals the one over the at most 2N - 1 rows of R
    (sum_rs tail(C_rs) = sum_i tail(R_i), as R^H R = C^H C), so no sweep
    builds the correlation tensor or a path Gram; at M = N, R is in closed
    form.  The tasks go largest first (M < N by descending M, then M = N),
    so ``fork_map``'s round-robin shares balance.  Every check a task would
    raise runs here first, so a bad argument never starts a process.
    """
    spans: dict = {}  # (DPSS with M < N, M) -> zero-prefixed basis
    rows = []  # (scheme, M, span) per row
    for scheme in schemes:
        scheme = PrecodingScheme(scheme)
        for eta in eta_list:
            m = active_count(eta, n_len)
            key = scheme is PrecodingScheme.DPSS and m < n_len, m
            if key not in spans:
                span = scheme if key[0] else PrecodingScheme.OFDM
                basis = default_basis(span, n_len, m)
                spans[key] = with_prefix(basis, prefix_len, PrefixKind.ZERO)
            rows.append((scheme, m, key))
    _check_blocks(n_blocks)
    if include_bound:
        _window_powers(channel, n_len, prefix_len)

    spans = dict(sorted(spans.items(), key=lambda kv: (kv[0][1] == n_len, -kv[0][1])))
    results = fork_map(
        lambda pref: _span_energies(pref, channel, n_blocks, include_bound),
        spans.values(),
    )
    energies = dict(zip(spans, results))
    points = []
    for scheme, m, key in rows:
        signal, isi, bound = energies[key]
        lower = None if bound is None else _ratio_db(signal, bound)
        points.append(S2iPoint(
            scheme.value, m / n_len, channel.name, _ratio_db(signal, isi), lower
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
