"""Monte-Carlo multi-user link simulation.

A frame is three subframes of 14 precoded QPSK symbols: high-power users in
the outer two, and in the middle the victim user whose symbol error rate is
measured.  A trial draws a channel realization and payloads, streams the
blocks that reach the victim subframe through the channel, adds noise
calibrated to the victim's received signal power (drawn once at unit
variance, scaled per SNR point), and detects the victim's symbols by a
one-shot MMSE equalizer from genie channel knowledge, solved by Cholesky
(a point that Cholesky cannot factor is skipped).  Interference from the
adjacent subframes is left in: it is the quantity under study.

The effective channel A = O_r^H H O_t is linear in the path gains,
A = sum_p g_p A_p, so a run builds the per-path conj(A_p) once, with all
else its trials share (``_SerRun``), and holds it until it returns.  Its
trials go in fixed blocks of ``_BLOCK_SEEDS`` seeds, which work as stacks
(``_run_block``) and go to ``_fork.fork_map``.  Every BLAS and LAPACK call
goes to scipy's library: numpy's OpenBLAS keeps a thread pool of its own,
and unpinned the two pools would spin against each other.  The blocks
write into the run's workspaces: glibc returns freed temporaries of their
size (256 KB at M = 128) to the OS, so each trial would fault them in.
"""
from __future__ import annotations

import logging
import math
import mmap
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import blas, lapack

from ._fork import fork_map
from .channel import (
    DEFAULT_FIR_HALF_LEN,
    ChannelSpec,
    _composite_taps,
    _draw_gains,
    _filter,
    _gain_table,
    _path_kernels,
    _stream_block,
    realize,  # not called here, but perfbench's tracer wraps linksim.realize
)
from .errors import ParameterError, check_whole
from .waveform import (
    PrecodingScheme,
    PrefixKind,
    PrefixedBasis,
    _member,
    active_count,
    default_basis,
    with_prefix,
)

__all__ = [
    "FrameConfig",
    "SerPoint",
    "qpsk_map",
    "analytic_qpsk_ser",
    "build_frame",
    "equalize_and_detect",
    "run_trial",
    "run_ser",
]

log = logging.getLogger(__name__)

_QPSK_SCALE = 1.0 / math.sqrt(2.0)

# Seeds per block of trials: a block's conj(A) rows, one M x M complex
# matrix per seed, then take 1 MB at M = 128.
_BLOCK_SEEDS = 4


@dataclass(frozen=True)
class FrameConfig:
    """Multi-user frame layout and transmit parameters (cyclic prefix)."""

    symbols_per_subframe: ClassVar[int] = 14
    n_subframes: ClassVar[int] = 3

    scheme: PrecodingScheme
    eta: float = 1.0
    n_len: int = 128
    prefix_len: int = 0
    p_delta_db: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError(f"eta must be in (0, 1], got {self.eta}")
        _member(PrecodingScheme, self.scheme)
        # frozen: the checked Python ints replace the fields
        for name, least in (("n_len", 1), ("prefix_len", 0)):
            value = check_whole(name, getattr(self, name), least)
            object.__setattr__(self, name, value)
        if not 0 <= self.p_delta_db < math.inf:  # NaN fails too
            raise ParameterError(
                f"p_delta_db must be finite and >= 0, got {self.p_delta_db}"
            )

    @property
    def m_active(self) -> int:
        return active_count(self.eta, self.n_len)

    @property
    def n_symbols(self) -> int:
        return self.symbols_per_subframe * self.n_subframes

    @property
    def victim_subframe(self) -> int:
        return self.n_subframes // 2

    def make_basis(self) -> PrefixedBasis:
        basis = default_basis(self.scheme, self.n_len, self.m_active)
        return with_prefix(basis, self.prefix_len, PrefixKind.CYCLIC)


@dataclass(frozen=True)
class SerPoint:
    """One SNR point of a run; ``errors_by_position`` holds the victim's
    symbol errors at each of the 14 positions of its subframe."""

    snr_db: float
    ser: float
    trials: int
    total_symbols: int
    errors_by_position: tuple[int, ...] = ()


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK; bit pair 00 -> (1 + j) / sqrt(2)."""
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ParameterError("qpsk_map needs an even number of bits")
    # each pair's I and Q level, side by side as a complex number's parts
    levels = _QPSK_SCALE * (1.0 - 2.0 * bits.reshape(-1, 2))
    return levels.view(np.complex128).reshape(-1)


def analytic_qpsk_ser(snr_lin: float) -> float:
    """Symbol error rate of Gray QPSK in AWGN at Es/N0 = snr_lin."""
    p = 0.5 * math.erfc(math.sqrt(snr_lin / 2.0))
    return 2.0 * p - p * p


def draw_payloads(cfg: FrameConfig, rng: np.random.Generator) -> np.ndarray:
    """Random QPSK payloads, one row of m_active symbols per frame symbol."""
    bits = rng.integers(0, 2, size=(cfg.n_symbols, 2 * cfg.m_active))
    return qpsk_map(bits).reshape(cfg.n_symbols, cfg.m_active)


def build_frame(
    cfg: FrameConfig, basis: PrefixedBasis, payloads: np.ndarray
) -> np.ndarray:
    """The transmit stream, per-symbol O_t i times ``_symbol_gains``, from
    ``payloads`` (n_symbols, m_active) as ``draw_payloads`` returns them."""
    payloads = np.asarray(payloads)
    if payloads.shape != (cfg.n_symbols, cfg.m_active):
        raise ParameterError(
            f"payloads must be {(cfg.n_symbols, cfg.m_active)}, got {payloads.shape}"
        )
    return _frame(basis, payloads, _symbol_gains(cfg))


def _symbol_gains(cfg: FrameConfig) -> np.ndarray:
    """Each frame symbol's amplitude: 1 in the victim's subframe, else
    10^(p_delta_db / 20)."""
    scale = 10.0 ** (cfg.p_delta_db / 20.0)
    subframe = np.arange(cfg.n_symbols) // cfg.symbols_per_subframe
    return np.where(subframe == cfg.victim_subframe, 1.0, scale)


def _gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` written into ``out`` (C order) by scipy's BLAS, dgemm for a
    float64 ``out``, else zgemm, with no operand copied: row-major C = A B
    is column-major C^T = B^T A^T."""
    def transposed(x):  # x^T as BLAS reads it: an array and its trans flag
        return (x.T, 0) if x.flags.c_contiguous else (x, 1)

    gemm = blas.dgemm if out.dtype == np.float64 else blas.zgemm
    (bt, trans_bt), (at, trans_at) = transposed(b), transposed(a)
    c = gemm(1.0, bt, at, trans_a=trans_bt, trans_b=trans_at, c=out.T, overwrite_c=1)
    return c.T


def _frame(basis: PrefixedBasis, payloads: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """The stream of consecutive payload rows, row l scaled by ``gains[l]``;
    leading axes of ``payloads`` (..., rows, M) stack streams."""
    *lead, rows, m = payloads.shape
    flat = np.ascontiguousarray(payloads, dtype=np.complex128).reshape(-1, m)
    symbols = np.empty((len(flat), basis.block_len), dtype=np.complex128)
    symbols = _gemm(flat, basis.o_t.T, symbols).reshape(*lead, rows, -1)
    np.multiply(gains[:, None], symbols, out=symbols)
    return symbols.reshape(*lead, -1)


def _gray_bits(symbols: np.ndarray) -> np.ndarray:
    """QPSK decisions as Gray bit pairs: the signs of I and Q, last axis."""
    return np.stack([symbols.real < 0, symbols.imag < 0], axis=-1)


def equalize_and_detect(
    gram: np.ndarray, matched: np.ndarray, noise_vars
) -> list[np.ndarray | None]:
    """Linear MMSE equalization at several noise variances, then QPSK decisions.

    ``gram`` is A^H A for an effective channel A (M x M), of which only the
    upper triangle is read; ``matched`` holds the outputs A^H z, one (M, K)
    block per entry of ``noise_vars``, each >= 0 and finite (0 is zero
    forcing).  Returns one entry per point: the Gray bits of the decisions,
    shape (K, M, 2), as ``qpsk_map`` reads them; or ``None`` where Cholesky
    fails (for A^H A + n0 I, singular to working precision) or the solution
    is not finite.
    """
    noise_vars = np.asarray(noise_vars, dtype=float).reshape(-1)
    m = gram.shape[0]
    matched = np.asarray(matched)
    if gram.shape != (m, m) or matched.ndim != 3 or matched.shape[:2] != (
        len(noise_vars), m
    ):
        raise ParameterError(
            f"need an (M, M) gram and (points, M, K) matched outputs for "
            f"{len(noise_vars)} noise variances, got {gram.shape} and {matched.shape}"
        )
    # comparisons, not their negations, so that NaN fails them
    if not np.all((noise_vars >= 0) & (noise_vars < np.inf)):
        raise ParameterError(
            f"noise variances must be finite and >= 0, got {noise_vars}"
        )
    estimates = np.empty((len(noise_vars), matched.shape[2], m), dtype=np.complex128)
    rhs = estimates.transpose(0, 2, 1)
    rhs[...] = matched
    solved = _solve_points(
        gram, rhs, noise_vars, np.empty((m, m), dtype=np.complex128, order="F")
    )
    return [_gray_bits(est) if ok else None for est, ok in zip(estimates, solved)]


def _solve_points(gram, rhs, noise_vars, system: np.ndarray) -> np.ndarray:
    """Solve (gram + noise_vars[p] I) x = rhs[p] by zposv (upper triangle)
    at every point p, x over ``rhs[p]`` (M x K), each system factored in
    ``system`` (M x M); all complex, Fortran order.  Returns whether each
    point was solved: factored, with a finite solution."""
    diagonal = system.reshape(-1, order="F")[:: len(system) + 1]  # a view
    factored = np.zeros(len(rhs), dtype=bool)
    for p, (n0, b) in enumerate(zip(noise_vars, rhs)):
        np.copyto(system, gram)
        diagonal += n0
        _, _, info = lapack.zposv(system, b, overwrite_a=True, overwrite_b=True)
        factored[p] = info == 0
    return factored & np.isfinite(rhs).all(axis=(1, 2))


def _normal_equations(
    a_conj: np.ndarray, t: np.ndarray, gram: np.ndarray, matched: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A^H A (its upper triangle only, all that zposv reads) and the
    matched-filter outputs A^H t, written into ``gram`` (M x M) and
    ``matched`` (M x K), complex and in Fortran order.  ``a_conj`` is
    conj(A) in C order, the effective channel of every block; ``t`` (M x K,
    Fortran order) holds O_r^H of K received blocks."""
    a_h = a_conj.T
    gram = blas.zherk(1.0, a_h, c=gram, overwrite_c=1)
    return gram, blas.zgemm(1.0, a_h, t, c=matched, overwrite_c=1)


def _build_path_stack(
    basis: PrefixedBasis, lag0: int, kernels: np.ndarray
) -> np.ndarray:
    """conj(A_p) = O^T conj(H_p[g:] O_t) of every path p, one row each, for
    the unit-gain (0, 0) blocks H_p of the ``kernels`` rows (first lag
    ``lag0``): a realization's conj(A) is conj(gains) @ stack, reshaped to
    M x M.  The stack is an anonymous memory map of its own, not a malloc
    chunk: freeing it returns its pages, where a freed heap chunk this large
    stays resident and the next run's stack need not fit the hole it left.
    """
    g = basis.prefix_len
    o = basis.base.o_matrix
    n, m = o.shape
    paths = len(kernels)
    pages = mmap.mmap(-1, paths * m * m * 16, access=mmap.ACCESS_COPY)
    stack = np.frombuffer(pages, dtype=np.complex128).reshape(paths, m * m)
    o_t_conj = np.conj(basis.o_t).view(np.float64)
    h_o = np.empty((n, 2 * m))
    for row, kernel in zip(stack, kernels):
        h = _stream_block(lag0, kernel, basis.block_len, 0)
        _gemm(h[g:], o_t_conj, h_o)
        _gemm(o.T, h_o.view(np.complex128), row.reshape(m, m))
    stack.flags.writeable = False
    return stack


def _trial_window(
    cfg: FrameConfig, lag0: int, kernels: np.ndarray, block_len: int
) -> tuple[int, int, int, int]:
    """The victim's blocks [lo, hi) and the blocks [start, stop) that reach
    them through the FIR whose per-path kernels start at lag ``lag0``."""
    b = block_len
    lo = cfg.victim_subframe * cfg.symbols_per_subframe
    hi = lo + cfg.symbols_per_subframe
    # output sample t reads inputs t - last ... t - first (last >= 0, as no
    # delay is negative), and lag 0 keeps the victim's own blocks where
    # every lag is positive
    first, last = lag0, lag0 + kernels.shape[1] - 1
    start = max(0, (lo * b - last) // b)
    stop = min(cfg.n_symbols, (hi * b - 1 - min(first, 0)) // b + 1)
    return lo, hi, start, stop


class _SerRun:
    """One run's constants (the per-path FIR kernels, the victim's window,
    the gain table, the symbols' amplitudes, the SNR points, the path
    stack), built once before any block runs, and the workspaces its blocks
    write in place.  It checks the SNR grid, and the basis against ``cfg``.
    """

    def __init__(self, cfg, channel_spec, basis, snr_grid_db):
        snr_grid_db = np.asarray(snr_grid_db, dtype=float)
        if snr_grid_db.ndim != 1 or snr_grid_db.size == 0:
            raise ParameterError("snr grid must be a non-empty 1-D sequence")
        # comparisons, not their negations, so that NaN fails them
        if not np.all(snr_grid_db > -np.inf):
            raise ParameterError(f"snr grid needs dB values above -inf: {snr_grid_db}")
        if not np.all(snr_grid_db[1:] > snr_grid_db[:-1]):
            raise ParameterError("snr grid must be strictly increasing")
        b, m, n = basis.block_len, cfg.m_active, cfg.n_len
        if (b, basis.base.n_len, basis.base.m_active) != (n + cfg.prefix_len, n, m):
            raise ParameterError("basis block length, N or M differs from the frame's")
        k, rows = _BLOCK_SEEDS, 2 * cfg.symbols_per_subframe
        self.cfg, self.basis, self.snr_grid_db = cfg, basis, snr_grid_db
        self.snr_lin = 10.0 ** (snr_grid_db / 10.0)
        self.lag0, self.kernels = _path_kernels(channel_spec, b, DEFAULT_FIR_HALF_LEN)
        self.window = _trial_window(cfg, self.lag0, self.kernels, b)
        start, stop = self.window[2:]
        self.gain_table = _gain_table(channel_spec)
        self.symbol_gains = _symbol_gains(cfg)[start:stop]
        self.stack = _build_path_stack(basis, self.lag0, self.kernels)
        self.a_conj = np.empty((k, m * m), dtype=np.complex128)
        self.payloads = np.empty((k, stop - start, m), dtype=np.complex128)
        self.rows = np.empty((k, rows, n), dtype=np.complex128)
        self.rows_o = np.empty((k, rows, m), dtype=np.complex128)
        self.estimates = np.empty(
            (len(snr_grid_db), cfg.symbols_per_subframe, m), dtype=np.complex128
        )
        self.gram = np.zeros((m, m), dtype=np.complex128, order="F")
        self.matched = np.empty((m, rows), dtype=np.complex128, order="F")
        self.system = np.empty((m, m), dtype=np.complex128, order="F")


def _run_block(run: _SerRun, seeds) -> np.ndarray:
    """Counts of a block of at most ``_BLOCK_SEEDS`` seeded trials, an int
    array (seeds, 2, points, symbols): each seed's victim symbol errors and
    detected symbols by SNR point and position in the subframe.  Each seed
    draws from ``default_rng(seed)`` in a fixed order: channel phases,
    payload bits, noise.
    """
    cfg, basis = run.cfg, run.basis
    lo, hi, start, stop = run.window
    b, g, m = basis.block_len, basis.prefix_len, cfg.m_active
    sym = cfg.symbols_per_subframe
    seeds = list(seeds)
    k = len(seeds)
    gains = np.empty((k, len(run.gain_table[0])), dtype=np.complex128)
    payloads, rows = run.payloads[:k], run.rows[:k]
    for seed, gains_i, payloads_i, rows_i in zip(seeds, gains, payloads, rows):
        rng = np.random.default_rng(seed)
        gains_i[:] = _draw_gains(run.gain_table, rng)
        payloads_i[:] = draw_payloads(cfg, rng)[start:stop]
        # the unit-variance noise (re + j im) / sqrt(2) past the prefix,
        # conjugated, written as its parts: dividing by the real sqrt(2)
        # rounds each part as multiplying it by 1 / sqrt(2) does
        re, im = rng.standard_normal((2, sym, b))[..., g:]
        noise = rows_i[sym:].view(np.float64).reshape(sym, -1, 2)
        np.multiply(re, _QPSK_SCALE, out=noise[..., 0])
        np.multiply(im, -_QPSK_SCALE, out=noise[..., 1])
    x = _frame(basis, payloads, run.symbol_gains)
    y = _filter(x, run.lag0, _composite_taps(gains, run.kernels))
    y_victim = y[:, (lo - start) * b : (hi - start) * b].reshape(k, sym, b)
    np.conj(y_victim[..., g:], out=rows[:, :sym])
    # O^T conj(rows) stands for O_r^H rows without conjugating O: O_r is
    # zero on the prefix rows, so only the rows past the prefix enter
    rows_o = run.rows_o[:k]
    _gemm(rows.reshape(-1, cfg.n_len), basis.base.o_matrix, rows_o.reshape(-1, m))
    np.conj(rows_o, out=rows_o)
    a_conj = _gemm(np.conj(gains), run.stack, run.a_conj[:k])
    counts = np.zeros((k, 2, len(run.snr_lin), sym), dtype=int)
    rhs = run.estimates.transpose(0, 2, 1)  # each point's M x symbols
    sent = payloads[:, lo - start : hi - start]
    for seed, a_i, t, sent_i, (errors, symbols) in zip(
        seeds, a_conj, rows_o, sent, counts
    ):
        gram, matched = _normal_equations(
            a_i.reshape(m, m), t.T, run.gram, run.matched
        )
        es = float(np.real(np.trace(gram))) / m
        n0 = es / run.snr_lin
        np.multiply(np.sqrt(n0)[:, None, None], matched[:, sym:], out=rhs)
        np.add(matched[:, :sym], rhs, out=rhs)
        solved = _solve_points(gram, rhs, n0, run.system)
        # a symbol is wrong where the sign of its I or of its Q differs from
        # the sent one's: where its two flags, read as one 2-byte integer, are
        # not 0
        negative = run.estimates.view(np.float64) < 0
        flips = negative != (sent_i.view(np.float64) < 0)
        errors[solved] = np.count_nonzero(flips.view(np.uint16), axis=-1)[solved]
        symbols[solved] = m
        for snr_db in run.snr_grid_db[~solved]:
            log.warning(
                "trial seed %d skipped at %.1f dB: MMSE system singular or "
                "solution not finite", seed, snr_db,
            )
    return counts


def _trial_work(run: _SerRun) -> int:
    """Multiply-adds of one seed in ``_run_block``, four to a complex one:
    paths x M^2 for conj(A), window blocks x B x M for the transmit window,
    2 x 14 x (N + M) x M for the rows through O and the matched filter,
    M^3 / 2 for the Gram, and per SNR point M^3 / 6 + 14 M^2 to solve."""
    cfg, (_, _, start, stop) = run.cfg, run.window
    n, m, sym = cfg.n_len, cfg.m_active, cfg.symbols_per_subframe
    return 4 * m * (
        len(run.kernels) * m + (stop - start) * run.basis.block_len
        + 2 * sym * (n + m) + m * m // 2 + len(run.snr_lin) * (m * m // 6 + sym * m)
    )


def run_trial(
    cfg: FrameConfig,
    channel_spec: ChannelSpec,
    basis: PrefixedBasis,
    snr_grid_db,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One seeded trial: ``run_ser``'s block for the one seed, with its
    checks.  Returns ``(errors, symbols)``: the victim's symbol errors and
    detected symbols, one int entry per SNR point, both 0 at a skipped
    point (singular MMSE system or a non-finite solution).
    """
    seed = check_whole("seed", seed, 0)
    run = _SerRun(cfg, channel_spec, basis, snr_grid_db)
    errors, symbols = _run_block(run, [seed])[0].sum(axis=-1)
    return errors, symbols


def run_ser(
    cfg: FrameConfig,
    channel_spec: ChannelSpec,
    snr_grid_db,
    n_trials: int = 200,
    base_seed: int = 0,
) -> list[SerPoint]:
    """Victim-user SER over an SNR grid, one ``SerPoint`` per SNR point.

    Trial i uses seed base_seed + i; the counts do not depend on how many
    processes ran the blocks (a block's ``fork_map`` estimate is its seeds
    x ``_trial_work``).  SNR is Es/N0 referenced to the victim's received
    per-symbol energy through its own effective channel; +inf dB is the
    noiseless SER.  A basis that is not orthonormal to 1e-10 raises
    ``ParameterError``.
    """
    n_trials = check_whole("n_trials", n_trials, 1)
    base_seed = check_whole("base_seed", base_seed, 0)
    run = _SerRun(cfg, channel_spec, cfg.make_basis(), snr_grid_db)
    seeds = range(base_seed, base_seed + n_trials)
    blocks = [seeds[i : i + _BLOCK_SEEDS] for i in range(0, n_trials, _BLOCK_SEEDS)]
    errors, symbols = np.concatenate(fork_map(
        lambda share: [_run_block(run, block) for block in share],
        blocks,
        [len(block) * _trial_work(run) for block in blocks],
    )).sum(axis=0)
    return [
        SerPoint(
            snr_db=float(snr_db),
            ser=int(e.sum()) / int(total) if total else float("nan"),
            trials=n_trials,
            total_symbols=int(total),
            errors_by_position=tuple(map(int, e)),
        )
        for snr_db, e, total in zip(run.snr_grid_db, errors, symbols.sum(axis=-1))
    ]
