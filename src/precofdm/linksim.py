"""Monte-Carlo multi-user link simulation.

A frame is three subframes of 14 precoded QPSK symbols; the outer subframes
belong to high-power users and the middle one to the victim user whose
symbol error rate is measured.  Each trial draws a channel realization and
payloads, streams the frame through the channel, adds noise calibrated to
the victim's received signal power, and detects the victim's symbols with a
one-shot MMSE equalizer built from genie channel knowledge.  Residual
interference from the adjacent subframes is left untouched: it is the
quantity under study.  Only the blocks whose samples the channel's FIR
carries into the victim subframe are built and filtered; the others cannot
change a victim sample.

The victim's effective channel A = O_r^H H O_t is linear in the path
gains, A = sum_p g_p A_p, and only the gains change between the trials of
a run.  So the per-path matrices conj(A_p) are built once per run, as one
(paths, M * M) stack, and a trial forms conj(A) as one gain contraction of
that stack.  Within a trial only the noise level changes between SNR
points, so A, its Gram matrix A^H A and the matched-filter outputs of the
received signal and of the unit-variance noise are formed once; each point
adds its scaled noise term and solves its own regularized system by
Cholesky (a point Cholesky cannot factor is skipped), and errors are
counted on the signs of the estimates.

Trials are independent given their seeds, so ``run_ser`` deals its seeds
to processes through ``_fork.fork_map``: as many processes as the CPUs it
may use hold BLAS thread pools.  The path stack is built before the
processes fork, so they share it.  The counts are integer sums, which do
not depend on the order they are added in.
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
from .channel import ChannelOperator, ChannelSpec, _path_blocks, fir_lags, realize
from .errors import ParameterError
from .waveform import (
    PrecodingScheme,
    PrefixKind,
    PrefixedBasis,
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


@dataclass(frozen=True)
class FrameConfig:
    """Multi-user frame layout and transmit parameters.

    A frame is three subframes of 14 symbols, each with a cyclic prefix.
    """

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
        if self.prefix_len < 0:
            raise ParameterError("prefix_len must be >= 0")
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
        basis = default_basis(PrecodingScheme(self.scheme), self.n_len, self.m_active)
        return with_prefix(basis, self.prefix_len, PrefixKind.CYCLIC)


@dataclass(frozen=True)
class SerPoint:
    snr_db: float
    ser: float
    trials: int
    total_symbols: int


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK; bit pair 00 -> (1 + j) / sqrt(2)."""
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ParameterError("qpsk_map needs an even number of bits")
    pairs = bits.reshape(-1, 2)
    return _QPSK_SCALE * (
        (1.0 - 2.0 * pairs[:, 0]) + 1j * (1.0 - 2.0 * pairs[:, 1])
    )


def analytic_qpsk_ser(snr_lin: float) -> float:
    """Symbol error rate of Gray QPSK in AWGN at Es/N0 = snr_lin."""
    p = 0.5 * math.erfc(math.sqrt(snr_lin / 2.0))
    return 2.0 * p - p * p


def draw_payloads(cfg: FrameConfig, rng: np.random.Generator) -> np.ndarray:
    """Random QPSK payloads, one row of m_active symbols per frame symbol."""
    bits = rng.integers(0, 2, size=(cfg.n_symbols, 2 * cfg.m_active))
    return qpsk_map(bits).reshape(cfg.n_symbols, cfg.m_active)


def build_frame(
    cfg: FrameConfig,
    basis: PrefixedBasis,
    payloads: np.ndarray,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Assemble the transmit stream: per-symbol O_t i with subframe powers.

    Subframes other than the victim's are scaled by 10^(p_delta_db / 20).
    ``payloads`` is (n_symbols, m_active), as ``draw_payloads`` returns;
    only blocks ``start`` to ``stop`` (a slice, default the whole frame)
    are built.
    """
    payloads = np.asarray(payloads)
    if payloads.shape != (cfg.n_symbols, cfg.m_active):
        raise ParameterError(
            f"payloads must be {(cfg.n_symbols, cfg.m_active)}, got {payloads.shape}"
        )
    scale = 10.0 ** (cfg.p_delta_db / 20.0)
    blocks = payloads[start:stop] @ basis.o_t.T
    subframe = np.arange(cfg.n_symbols)[start:stop] // cfg.symbols_per_subframe
    gains = np.where(subframe == cfg.victim_subframe, 1.0, scale)
    return (gains[:, None] * blocks).ravel()


def _gray_bits(symbols: np.ndarray) -> np.ndarray:
    """QPSK decisions as Gray bit pairs: the signs of I and Q, last axis."""
    return np.stack([symbols.real < 0, symbols.imag < 0], axis=-1)


def equalize_and_detect(
    gram: np.ndarray, matched: np.ndarray, noise_vars
) -> list[np.ndarray | None]:
    """Linear MMSE equalization at several noise variances, then QPSK decisions.

    ``gram`` is A^H A for an effective channel A (M x M); ``matched`` holds
    the matched-filter outputs A^H z, one (M, K) block of K received vectors
    per entry of ``noise_vars``.  Point p solves
    (gram + noise_vars[p] I) x = matched[p] by Cholesky (LAPACK zposv, which
    reads the upper triangle).
    Returns one entry per point: the Gray bits of the decisions, shape
    (K, M, 2), first bit the sign of I and second that of Q as ``qpsk_map``
    reads them; or ``None`` where Cholesky fails (the system is not
    positive definite: for A^H A + n0 I, singular to working precision) or
    the solution is not finite.
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
    diag = np.arange(m)
    decisions = []
    for n0, rhs in zip(noise_vars, matched):
        system = np.array(gram, order="F")
        system[diag, diag] += n0
        _, est, info = lapack.zposv(system, rhs, overwrite_a=True)
        ok = info == 0 and np.all(np.isfinite(est))
        decisions.append(_gray_bits(est.T) if ok else None)
    return decisions


def _normal_equations(
    basis: PrefixedBasis, a_conj: np.ndarray, received, noise
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A^H A and the matched-filter outputs A^H O_r^H y of two block stacks.

    ``a_conj`` is conj(A), A = O_r^H H_{l,l} O_t the effective channel of
    every block l, as H_{l,l'} depends only on l - l'; a trial forms it
    from the run's path stack (``_path_stack``).  ``received`` and
    ``noise`` hold one block per row.  O_r is zero on the prefix rows, so
    only the rows past the prefix enter, and O^T conj(rows) stands for
    O_r^H rows without conjugating O.  A^H A comes from BLAS zherk on
    A^H = conj(A)^T, a view: its upper triangle, which is all that zposv
    reads in ``equalize_and_detect``; the lower triangle is zero.
    """
    g = basis.prefix_len
    o = basis.base.o_matrix
    a_h = a_conj.T

    def matched(rows):
        return a_h @ (np.conj(rows[:, g:]) @ o).conj().T

    return blas.zherk(1.0, a_h), matched(received), matched(noise)


def _build_path_stack(basis: PrefixedBasis, channel_spec: ChannelSpec) -> np.ndarray:
    """conj(A_p) = O^T conj(H_p[g:] O_t) of every path p, one row each.

    H_p is path p's unit-gain (0, 0) channel block (``channel._path_blocks``),
    the same on a stream of any length, so a realization's conj(A) is
    conj(gains) @ stack, reshaped to M x M.  H_p is real, so conj(H_p O_t)
    is H_p conj(O_t), one real product on the float64 view of conj(O_t).
    The stack is an anonymous memory map of its own, not a malloc chunk:
    freeing it returns its pages, where a freed heap chunk this large
    stays resident and the next run's stack need not fit the hole it left.
    """
    g = basis.prefix_len
    o = basis.base.o_matrix
    m = o.shape[1]
    paths = len(channel_spec.paths)
    pages = mmap.mmap(-1, paths * m * m * 16, access=mmap.ACCESS_COPY)
    stack = np.frombuffer(pages, dtype=np.complex128).reshape(paths, m * m)
    o_t_conj = np.conj(basis.o_t).view(np.float64)
    blocks = _path_blocks(channel_spec, basis.block_len)
    for row, h in zip(stack, blocks):
        np.matmul(o.T, (h[g:] @ o_t_conj).view(np.complex128), out=row.reshape(m, m))
    stack.flags.writeable = False
    return stack


# The last path stack built and its key: the basis itself (held here, so
# that no other basis can take its id) and the channel spec.
_path_stack_slot: dict = {}


def _path_stack(basis: PrefixedBasis, channel_spec: ChannelSpec) -> np.ndarray:
    """``_build_path_stack``'s result, built once for a run's trials.

    One slot: a call with another key frees the stack it holds before it
    builds the new one, so at most one stack is alive.
    """
    held = _path_stack_slot.get("key")
    if held is None or held[0] is not basis or held[1] != channel_spec:
        _path_stack_slot.clear()
        stack = _build_path_stack(basis, channel_spec)
        _path_stack_slot.update(key=(basis, channel_spec), stack=stack)
    return _path_stack_slot["stack"]


def _trial_window(
    cfg: FrameConfig, channel_spec: ChannelSpec, block_len: int
) -> tuple[int, int, int, int]:
    """The victim's blocks [lo, hi) and the blocks [start, stop) that reach
    them through the channel's FIR."""
    b = block_len
    lo = cfg.victim_subframe * cfg.symbols_per_subframe
    hi = lo + cfg.symbols_per_subframe
    # output sample t reads inputs t - last ... t - first (last >= 0, as no
    # delay is negative), and lag 0 keeps the victim's own blocks where
    # every lag is positive; the lags are the same on a stream of any length
    first, last = fir_lags(channel_spec, b)
    start = max(0, (lo * b - last) // b)
    stop = min(cfg.n_symbols, (hi * b - 1 - min(first, 0)) // b + 1)
    return lo, hi, start, stop


def run_trial(
    cfg: FrameConfig,
    channel_spec: ChannelSpec,
    basis: PrefixedBasis,
    snr_grid_db,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One seeded trial: channel draw, frame, detection at each SNR point.

    Returns ``(errors, symbols)``: the victim's symbol errors and detected
    symbols, one int entry per SNR point.  Draws come from
    ``default_rng(seed)`` in a fixed order: channel phases, payload bits,
    noise.  The noise is drawn once at unit variance and scaled per point.
    The channel is realized (same gains) on the window of blocks that
    reach the victim subframe, and only that window is built and filtered.
    A skipped SNR point (singular MMSE system or a non-finite solution)
    reports zero errors and zero symbols.
    """
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    rng = np.random.default_rng(seed)
    b = basis.block_len
    lo, hi, start, stop = _trial_window(cfg, channel_spec, b)
    realization = realize(channel_spec, rng, block_len=b, n_blocks=stop - start)
    payloads = draw_payloads(cfg, rng)
    y = ChannelOperator(realization).apply(build_frame(cfg, basis, payloads, start, stop))
    y_victim = y[(lo - start) * b : (hi - start) * b].reshape(
        cfg.symbols_per_subframe, b
    )
    noise_unit = (
        rng.standard_normal(y_victim.shape) + 1j * rng.standard_normal(y_victim.shape)
    ) / math.sqrt(2.0)
    m = cfg.m_active
    stack = _path_stack(basis, channel_spec)
    a_conj = (np.conj(realization.drawn_gains) @ stack).reshape(m, m)
    gram, signal, noise = _normal_equations(basis, a_conj, y_victim, noise_unit)
    es = float(np.real(np.trace(gram))) / m
    n0 = es / 10.0 ** (snr_grid_db / 10.0)
    matched = signal + np.sqrt(n0)[:, None, None] * noise
    sent = payloads[lo:hi]
    sent_bits = _gray_bits(sent)

    errors = np.zeros(len(snr_grid_db), dtype=int)
    symbols = np.zeros_like(errors)
    for i, bits in enumerate(equalize_and_detect(gram, matched, n0)):
        if bits is None:
            log.warning(
                "trial seed %d skipped at %.1f dB: MMSE system singular or "
                "solution not finite", seed, snr_grid_db[i],
            )
            continue
        wrong = bits != sent_bits
        errors[i] = np.count_nonzero(wrong[..., 0] | wrong[..., 1])
        symbols[i] = sent.size
    return errors, symbols


def run_ser(
    cfg: FrameConfig,
    channel_spec: ChannelSpec,
    snr_grid_db,
    n_trials: int = 200,
    base_seed: int = 0,
) -> list[SerPoint]:
    """Victim-user SER over an SNR grid, averaged over seeded trials.

    Trial i uses seed base_seed + i for channel phases, payload bits, and
    noise, so each trial's counts depend only on its seed, and the result
    does not depend on how many processes ran the trials (``fork_map``).
    Returns one ``SerPoint`` per SNR point.  SNR is Es/N0
    referenced to the victim's received per-symbol energy through its own
    effective channel; +inf dB is the noiseless, interference-limited SER.
    A basis that is not orthonormal to 1e-10 raises ``ParameterError``.
    """
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    if snr_grid_db.ndim != 1 or snr_grid_db.size == 0:
        raise ParameterError("snr grid must be a non-empty 1-D sequence")
    # comparisons, not their negations, so that NaN fails them
    if not np.all(snr_grid_db > -np.inf):
        raise ParameterError(f"snr grid needs dB values above -inf, got {snr_grid_db}")
    if not np.all(snr_grid_db[1:] > snr_grid_db[:-1]):
        raise ParameterError("snr grid must be strictly increasing")
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    if base_seed < 0:
        raise ParameterError(f"base_seed must be >= 0, got {base_seed}")
    basis = cfg.make_basis()
    # the path stack is built here, before the trials fork, so that every
    # process reads this one
    _path_stack(basis, channel_spec)
    errors, symbols = sum(fork_map(
        lambda seed: np.array(run_trial(cfg, channel_spec, basis, snr_grid_db, seed)),
        range(base_seed, base_seed + n_trials),
    ))
    return [
        SerPoint(
            snr_db=float(snr_db),
            ser=int(e) / int(total) if total else float("nan"),
            trials=n_trials,
            total_symbols=int(total),
        )
        for snr_db, e, total in zip(snr_grid_db, errors, symbols)
    ]
