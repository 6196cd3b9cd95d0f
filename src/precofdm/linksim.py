"""Monte-Carlo multi-user link simulation.

A frame is three subframes of 14 precoded QPSK symbols; the outer subframes
belong to high-power users and the middle one to the victim user whose
symbol error rate is measured.  Each trial draws a channel realization and
payloads, streams the frame through the channel, adds noise calibrated to
the victim's received signal power, and detects the victim's symbols with a
one-shot MMSE equalizer built from genie channel knowledge.  Residual
interference from the adjacent subframes is left untouched: it is the
quantity under study.

Within a trial only the noise level changes between SNR points, so the
victim's effective channel A, its Gram matrix A^H A and the matched-filter
outputs of the received signal and of the unit-variance noise are formed
once; each point adds its scaled noise term and solves its own regularized
system, and errors are counted on the signs of the estimates.

Trials are independent given their seeds, so ``run_ser`` splits its seed
range into contiguous shares and runs them in forked processes, as many as
the CPUs it may use hold BLAS thread pools.  The counts are integer sums,
which do not depend on the order they are added in.
"""
from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.special import erfc

from .channel import ChannelOperator, ChannelSpec, realize
from .errors import ParameterError
from .waveform import (
    PrecodingScheme,
    PrefixKind,
    PrefixedBasis,
    _check_orthonormal,
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
    p = 0.5 * erfc(math.sqrt(snr_lin / 2.0))
    return 2.0 * p - p * p


def draw_payloads(cfg: FrameConfig, rng: np.random.Generator) -> np.ndarray:
    """Random QPSK payloads, one row of m_active symbols per frame symbol."""
    bits = rng.integers(0, 2, size=(cfg.n_symbols, 2 * cfg.m_active))
    return qpsk_map(bits).reshape(cfg.n_symbols, cfg.m_active)


def build_frame(
    cfg: FrameConfig, basis: PrefixedBasis, payloads: np.ndarray
) -> np.ndarray:
    """Assemble the transmit stream: per-symbol O_t i with subframe powers.

    Subframes other than the victim's are scaled by 10^(p_delta_db / 20).
    ``payloads`` is (n_symbols, m_active), as ``draw_payloads`` returns.
    """
    payloads = np.asarray(payloads)
    if payloads.shape != (cfg.n_symbols, cfg.m_active):
        raise ParameterError(
            f"payloads must be {(cfg.n_symbols, cfg.m_active)}, got {payloads.shape}"
        )
    scale = 10.0 ** (cfg.p_delta_db / 20.0)
    blocks = payloads @ basis.o_t.T
    subframe = np.arange(cfg.n_symbols) // cfg.symbols_per_subframe
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
    (gram + noise_vars[p] I) x = matched[p]; the points are solved in one
    call, and one by one only if that call fails.  Returns one entry per
    point: the Gray bits of the decisions, shape (K, M, 2), first bit the
    sign of I and second that of Q as ``qpsk_map`` reads them; or ``None``
    where the system is singular or the solution is not finite.
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
    systems = np.repeat(gram[None], len(noise_vars), axis=0)
    diag = np.arange(m)
    systems[:, diag, diag] += noise_vars[:, None]
    try:
        estimates = list(np.linalg.solve(systems, matched))
    except np.linalg.LinAlgError:
        estimates = []
        for system, rhs in zip(systems, matched):
            try:
                estimates.append(np.linalg.solve(system, rhs))
            except np.linalg.LinAlgError:
                estimates.append(None)
    return [
        _gray_bits(est.T) if est is not None and np.all(np.isfinite(est)) else None
        for est in estimates
    ]


def _normal_equations(
    basis: PrefixedBasis, op: ChannelOperator, l: int, received, noise
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A^H A and the matched-filter outputs A^H O_r^H y of two block stacks.

    A = O_r^H H_{l,l} O_t is the effective channel of block l; ``received``
    and ``noise`` hold one block per row.  O_r is zero on the prefix rows,
    so only the rows past the prefix enter, and conj(A) is formed as
    O^T conj(H O_t) without conjugating O.  The channel block is freed as
    soon as H O_t exists, which keeps a trial's peak heap small.
    """
    g = basis.prefix_len
    o = basis.base.o_matrix
    a_conj = o.T @ np.conj(op.block(l, l)[g:] @ basis.o_t)
    a_h = a_conj.T

    def matched(rows):
        return a_h @ (np.conj(rows[:, g:]) @ o).conj().T

    return a_h @ a_conj.conj(), matched(received), matched(noise)


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
    A skipped SNR point (singular MMSE system or a non-finite solution)
    reports zero errors and zero symbols.
    """
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    rng = np.random.default_rng(seed)
    block_len = basis.block_len
    realization = realize(
        channel_spec, rng, block_len=block_len, n_blocks=cfg.n_symbols
    )
    payloads = draw_payloads(cfg, rng)
    op = ChannelOperator(realization)
    y = op.apply(build_frame(cfg, basis, payloads))

    victim = cfg.victim_subframe
    lo = victim * cfg.symbols_per_subframe
    hi = lo + cfg.symbols_per_subframe
    y_victim = y[lo * block_len : hi * block_len].reshape(
        cfg.symbols_per_subframe, block_len
    )
    noise_unit = (
        rng.standard_normal(y_victim.shape) + 1j * rng.standard_normal(y_victim.shape)
    ) / math.sqrt(2.0)
    gram, signal, noise = _normal_equations(basis, op, lo, y_victim, noise_unit)
    es = float(np.real(np.trace(gram))) / cfg.m_active
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
        errors[i] = np.count_nonzero(np.any(bits != sent_bits, axis=-1))
        symbols[i] = sent.size
    return errors, symbols


# The variables BLAS libraries read their thread count from, in this order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _share_count(n_trials: int) -> int:
    """Processes to run ``n_trials`` trials in: CPUs over BLAS threads.

    Each process runs its BLAS calls on its own threads, so processes times
    BLAS threads stays within the CPUs this process may use; threads of one
    process would contend for the interpreter lock instead.  The BLAS
    thread count is the first positive integer among ``_BLAS_THREAD_VARS``,
    else one per CPU, the libraries' default.  At most one process per trial.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    values = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARS)
    blas_threads = next((int(v) for v in values if v.isdecimal() and int(v)), cpus)
    return max(1, min(n_trials, cpus // blas_threads))


def _send_counts(count, seeds: range, sender) -> None:
    """A forked child's body: sends ``(True, count(seeds))`` or ``(False, exc)``."""
    try:
        result = True, count(seeds)
    except Exception as exc:  # raised again in the parent
        result = False, exc
    with sender:
        sender.send(result)


def _split_counts(count, seeds: range, shares: int) -> np.ndarray:
    """``count(seeds)`` as the sum of ``count`` over ``shares`` contiguous parts.

    The first part runs in this process and every other one in a forked
    child, which sends its sum back through a one-way pipe; an exception in
    a child is raised here.  Every child is joined, also when this process's
    own part raises.  Fork rather than spawn: a child starts with the
    modules, the basis and the caller's state it needs, at no import cost.
    """
    if shares < 2:
        return count(seeds)
    import multiprocessing  # here, so that importing or a serial run pays nothing

    if "fork" not in multiprocessing.get_all_start_methods():
        return count(seeds)
    context = multiprocessing.get_context("fork")
    cuts = [len(seeds) * i // shares for i in range(shares + 1)]
    children, results = [], []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_send_counts, args=(count, seeds[lo:hi], sender)
            )
            child.start()
            sender.close()  # the child's copy is then the only write end
            children.append((child, receiver))
        total = count(seeds[: cuts[1]])
    finally:
        for child, receiver in children:
            with receiver:
                try:
                    results.append(receiver.recv())
                except EOFError:  # the child ended without sending
                    child.join()
                    results.append((False, RuntimeError(
                        f"a trial process exited with code {child.exitcode} "
                        "before it sent its counts"
                    )))
            child.join()
    for ok, value in results:
        if not ok:
            raise value
        total = total + value
    return total


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
    does not depend on how many processes ran the trials (``_share_count``).
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
    _check_orthonormal(basis.base.o_matrix)

    def count(seeds):
        return sum(
            np.array(run_trial(cfg, channel_spec, basis, snr_grid_db, seed))
            for seed in seeds
        )

    errors, symbols = _split_counts(
        count, range(base_seed, base_seed + n_trials), _share_count(n_trials)
    )
    return [
        SerPoint(
            snr_db=float(snr_db),
            ser=int(e) / int(total) if total else float("nan"),
            trials=n_trials,
            total_symbols=int(total),
        )
        for snr_db, e, total in zip(snr_grid_db, errors, symbols)
    ]
