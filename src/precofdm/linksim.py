"""Monte-Carlo multi-user link simulation.

A frame is three subframes of 14 precoded QPSK symbols; the outer subframes
belong to high-power users and the middle one to the victim user whose
symbol error rate is measured.  Each trial draws a channel realization and
payloads, streams the frame through the channel, adds noise calibrated to
the victim's received signal power, and detects the victim's symbols with a
one-shot MMSE equalizer built from genie channel knowledge.  Residual
interference from the adjacent subframes is left untouched: it is the
quantity under study.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import erfc

from .channel import DEFAULT_FIR_HALF_LEN, ChannelOperator, ChannelSpec, realize
from .errors import EqualizationError, ParameterError
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
    "TrialResult",
    "SerPoint",
    "SerCurve",
    "qpsk_map",
    "qpsk_detect",
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
        if self.p_delta_db < 0:
            raise ParameterError("p_delta_db must be >= 0")

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
class TrialResult:
    snr_db: float
    errors: int
    symbols: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.errors <= self.symbols:
            raise ParameterError("errors must lie in [0, symbols]")


@dataclass(frozen=True)
class SerPoint:
    snr_db: float
    ser: float
    trials: int
    total_symbols: int


@dataclass(frozen=True)
class SerCurve:
    points: list[SerPoint] = field(default_factory=list)


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray-mapped unit-energy QPSK; bit pair 00 -> (1 + j) / sqrt(2)."""
    bits = np.asarray(bits)
    if bits.size % 2:
        raise ParameterError("qpsk_map needs an even number of bits")
    pairs = bits.reshape(-1, 2)
    return _QPSK_SCALE * (
        (1.0 - 2.0 * pairs[:, 0]) + 1j * (1.0 - 2.0 * pairs[:, 1])
    )


def qpsk_detect(symbols: np.ndarray) -> np.ndarray:
    """Quadrant decision onto the unit-energy QPSK constellation."""
    symbols = np.asarray(symbols)
    return _QPSK_SCALE * (
        np.where(symbols.real >= 0, 1.0, -1.0)
        + 1j * np.where(symbols.imag >= 0, 1.0, -1.0)
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


def equalize_and_detect(
    received: np.ndarray, a_matrix: np.ndarray, noise_var: float
) -> np.ndarray:
    """Linear MMSE equalization of the effective channel, then QPSK slicing.

    ``received`` holds one symbol vector z per row; the estimates solve
    (A^H A + noise_var I) x = A^H z for all rows at once.  Raises
    ``EqualizationError`` when the regularized matrix cannot be solved.
    """
    received = np.atleast_2d(np.asarray(received))
    a_h = a_matrix.conj().T
    gram = a_h @ a_matrix + noise_var * np.eye(a_matrix.shape[1])
    try:
        estimates = np.linalg.solve(gram, a_h @ received.T).T
    except np.linalg.LinAlgError as exc:
        raise EqualizationError(f"MMSE matrix is singular: {exc}") from exc
    if not np.all(np.isfinite(estimates)):
        raise EqualizationError("MMSE solution is not finite")
    return qpsk_detect(estimates)


def run_trial(
    cfg: FrameConfig,
    channel_spec: ChannelSpec,
    basis: PrefixedBasis,
    snr_grid_db,
    seed: int,
    half_len: int | None = DEFAULT_FIR_HALF_LEN,
) -> list[TrialResult]:
    """One seeded trial: channel draw, frame, detection at each SNR point.

    A skipped SNR point (equalizer failure) reports zero symbols.
    """
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    rng = np.random.default_rng(seed)
    block_len = basis.block_len
    realization = realize(
        channel_spec, rng, block_len=block_len, n_blocks=cfg.n_symbols
    )
    payloads = draw_payloads(cfg, rng)
    x = build_frame(cfg, basis, payloads)
    op = ChannelOperator(realization, half_len=half_len)
    y = op.apply(x)

    victim = cfg.victim_subframe
    lo = victim * cfg.symbols_per_subframe
    hi = lo + cfg.symbols_per_subframe
    o_r_conj = basis.o_r.conj()
    a_matrix = o_r_conj.T @ op.block(lo, lo) @ basis.o_t
    es = float(np.real(np.trace(a_matrix.conj().T @ a_matrix))) / cfg.m_active

    y_victim = y[lo * block_len : hi * block_len].reshape(
        cfg.symbols_per_subframe, block_len
    )
    noise_unit = (
        rng.standard_normal(y_victim.shape) + 1j * rng.standard_normal(y_victim.shape)
    ) / math.sqrt(2.0)
    sent = payloads[lo:hi]
    expected = qpsk_detect(sent)

    results = []
    for snr_db in snr_grid_db:
        n0 = es / (10.0 ** (snr_db / 10.0))
        z = (y_victim + math.sqrt(n0) * noise_unit) @ o_r_conj
        try:
            detected = equalize_and_detect(z, a_matrix, n0)
        except EqualizationError as exc:
            log.warning("trial seed %d skipped at %.1f dB: %s", seed, snr_db, exc)
            results.append(TrialResult(float(snr_db), 0, 0, seed))
            continue
        errors = int(np.sum(~np.isclose(detected, expected, atol=1e-9)))
        results.append(TrialResult(float(snr_db), errors, sent.size, seed))
    return results


def run_ser(
    cfg: FrameConfig,
    channel_spec: ChannelSpec,
    snr_grid_db,
    n_trials: int = 200,
    base_seed: int = 0,
    half_len: int | None = DEFAULT_FIR_HALF_LEN,
    threads: int = 1,
) -> SerCurve:
    """Victim-user SER over an SNR grid, averaged over seeded trials.

    Trial i uses seed base_seed + i for channel phases, payload bits, and
    noise, so results are reproducible and independent of execution order.
    SNR is Es/N0 referenced to the victim's received per-symbol energy
    through its own effective channel.
    """
    snr_grid_db = np.asarray(snr_grid_db, dtype=float)
    if snr_grid_db.ndim != 1 or snr_grid_db.size == 0:
        raise ParameterError("snr grid must be a non-empty 1-D sequence")
    if np.any(np.diff(snr_grid_db) <= 0):
        raise ParameterError("snr grid must be strictly increasing")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    basis = cfg.make_basis()
    seeds = [base_seed + i for i in range(n_trials)]

    def work(seed: int):
        return run_trial(cfg, channel_spec, basis, snr_grid_db, seed, half_len)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, seeds))
    else:
        results = [work(s) for s in seeds]

    points = []
    for i, snr_db in enumerate(snr_grid_db):
        errors = sum(trial[i].errors for trial in results)
        total = sum(trial[i].symbols for trial in results)
        ser = errors / total if total else float("nan")
        points.append(
            SerPoint(
                snr_db=float(snr_db), ser=ser, trials=n_trials, total_symbols=total
            )
        )
    return SerCurve(points=points)
