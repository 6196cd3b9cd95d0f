"""Quasi-static multipath channels with fractional-delay taps.

A channel is a sum over paths of (complex gain) x (band-limited delay).
Integer delays shift exactly; fractional delays act through the sinc kernel
and therefore spread over all lags.  The realized channel is one composite
filter, the sum of the per-path kernels (truncated sinc interpolators, exact
for integer delays), applied to a stream by FFT convolution or read out as
matrix blocks; both forms sample the same taps, so they agree to round-off.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .configio import load_kv_file
from .errors import ParameterError

__all__ = [
    "PathSpec",
    "ChannelSpec",
    "ChannelRealization",
    "ChannelOperator",
    "realize",
    "fir_lags",
    "exp_profile_spec",
    "mild_channel_spec",
    "severe_channel_spec",
    "integer_channel_spec",
    "cdlc_channel_spec",
    "builtin_channel_spec",
    "prefix_length_for",
    "load_channel_profile",
]

DEFAULT_FIR_HALF_LEN = 64
# Sample rate (Hz) that converts delays in samples to and from seconds.
SAMPLE_RATE_HZ = 1.92e6


@dataclass(frozen=True)
class PathSpec:
    """One specular path: delay (samples) and a gain or gain power."""

    delay: float
    gain: complex | None = None
    gain_power: float | None = None

    def __post_init__(self):
        if not 0 <= self.delay < math.inf:  # NaN fails too
            raise ParameterError(f"path delay must be in [0, inf), got {self.delay}")
        if (self.gain is None) == (self.gain_power is None):
            raise ParameterError("specify exactly one of gain, gain_power")
        if self.gain_power is not None and not 0 < self.gain_power < math.inf:
            raise ParameterError(
                f"gain_power must be in (0, inf), got {self.gain_power}"
            )

    @property
    def power(self) -> float:
        return abs(self.gain) ** 2 if self.gain is not None else self.gain_power


@dataclass(frozen=True)
class ChannelSpec:
    """Ordered path list plus the nominal delay spread tau_max (samples)."""

    paths: tuple[PathSpec, ...]
    max_delay: float
    name: str = "custom"

    def __post_init__(self):
        # a tuple keeps the spec hashable, as the kernel cache needs
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.paths:
            raise ParameterError("channel needs at least one path")
        worst = max(p.delay for p in self.paths)
        if not worst <= self.max_delay < math.inf:
            raise ParameterError(
                f"max_delay {self.max_delay} must be finite and >= largest path "
                f"delay {worst}"
            )

    @property
    def delays(self) -> np.ndarray:
        return np.array([p.delay for p in self.paths])

    @property
    def powers(self) -> np.ndarray:
        return np.array([p.power for p in self.paths])

    @property
    def rms_delay_spread_ns(self) -> float:
        """Power-weighted RMS delay spread, in nanoseconds."""
        weights = self.powers / self.powers.sum()
        mean = weights @ self.delays
        rms = float(np.sqrt(weights @ (self.delays - mean) ** 2))
        return rms / SAMPLE_RATE_HZ * 1e9


@dataclass(frozen=True)
class ChannelRealization:
    """A spec with drawn complex gains, tied to a block layout."""

    spec: ChannelSpec
    drawn_gains: np.ndarray
    block_len: int = 1
    n_blocks: int = 1

    def __post_init__(self):
        self.drawn_gains.flags.writeable = False
        if len(self.drawn_gains) != len(self.spec.paths):
            raise ParameterError("one drawn gain per path required")
        layout = (self.block_len, self.n_blocks)
        if not all(isinstance(k, Integral) and k >= 1 for k in layout):
            raise ParameterError(f"block_len, n_blocks must be whole, >= 1: {layout}")

    @property
    def stream_len(self) -> int:
        return self.block_len * self.n_blocks


@functools.lru_cache(maxsize=8)
def _path_kernels(spec: ChannelSpec, stream_len: int, half_len: int | None):
    """Per-path sinc kernels on the FIR's lag grid: (first lag, rows).

    Each path's window of lags is its delay alone when the delay is an
    integer (a unit tap), else floor(delay) -+ ``half_len``, or every lag
    that can matter for the stream when ``half_len`` is ``None``, which
    makes the streaming form exact.  The sinc kernels of all paths are
    evaluated at once on the union of the windows, zero outside each
    window.  They depend only on the delays and the layout, which every
    trial of a run shares, so they are cached, read-only.
    """
    delays = spec.delays
    floor = np.floor(delays)
    reach = stream_len - 1 if half_len is None else half_len
    centre = 0 if half_len is None else floor
    whole = delays == floor
    lo = np.where(whole, floor, centre - reach).astype(np.int64)
    hi = np.where(whole, floor, centre + reach).astype(np.int64)
    lags = np.arange(lo.min(), hi.max() + 1)
    inside = (lags >= lo[:, None]) & (lags <= hi[:, None])
    kernels = np.where(inside, np.sinc(lags - delays[:, None]), 0.0)
    kernels.flags.writeable = False
    return int(lags[0]), kernels


def fir_lags(
    spec: ChannelSpec, stream_len: int, half_len: int | None = DEFAULT_FIR_HALF_LEN
) -> tuple[int, int]:
    """First and last lag of the FIR that ``ChannelOperator`` builds for
    ``spec`` on a stream of ``stream_len`` samples.  With a whole
    ``half_len`` they do not depend on the stream length."""
    lag0, kernels = _path_kernels(spec, stream_len, half_len)
    return lag0, lag0 + kernels.shape[1] - 1


def _composite_taps(gains: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """The taps of one FIR, ``gain x kernel`` summed over the paths in path
    order."""
    # a running sum adds the rows strictly in path order (a reduction over a
    # one-lag grid would sum pairwise); + 0.0 turns a -0.0 into the 0.0 that
    # summing from zero gives
    sums = np.add.accumulate(gains[:, None] * kernels, axis=0)
    return sums[-1] + 0.0


class ChannelOperator:
    """Realized channel as a linear operator on a sample stream.

    The paths are folded into one composite FIR.  ``apply`` filters the
    stream with it (FFT convolution); ``block`` reads the same taps out as a
    block of the stream matrix.
    """

    def __init__(
        self,
        realization: ChannelRealization,
        half_len: int | None = DEFAULT_FIR_HALF_LEN,
    ):
        if not (half_len is None or isinstance(half_len, Integral) and half_len >= 0):
            raise ParameterError(f"half_len must be whole, >= 0 or None: {half_len}")
        self.realization = realization
        self.stream_len = realization.stream_len
        self._lag0, kernels = _path_kernels(realization.spec, self.stream_len, half_len)
        self._taps = _composite_taps(realization.drawn_gains, kernels)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        n = self.stream_len
        if x.shape != (n,):
            raise ParameterError(f"expected stream of length {n}, got {x.shape}")
        return _filter(x, self._lag0, self._taps)

    def block(self, l: int, l_prime: int) -> np.ndarray:
        """The (l, l') block of the stream matrix, shape block_len x block_len."""
        nb = self.realization.n_blocks
        if not (0 <= l < nb and 0 <= l_prime < nb):
            raise ParameterError(f"block indices ({l}, {l_prime}) out of range {nb}")
        b = self.realization.block_len
        return _stream_block(self._lag0, self._taps, b, (l - l_prime) * b)


def _filter(x: np.ndarray, lag0: int, taps: np.ndarray) -> np.ndarray:
    """The stream ``x`` through the FIR whose taps start at lag ``lag0``,
    cut to the length of ``x``."""
    n = len(x)
    y = np.zeros(n, dtype=np.complex128)
    conv = _fft_convolve(x, taps)
    lo, hi = max(0, lag0), min(n, lag0 + len(conv))
    if hi > lo:  # the filter may miss the stream; keep slices non-negative
        y[lo:hi] += conv[lo - lag0 : hi - lag0]
    return y


def _stream_block(lag0: int, taps: np.ndarray, block_len: int, base: int):
    """A block of an FIR's stream matrix, as one gather of its taps: entry
    (i, j) is the tap at lag ``base + i - j`` of the FIR whose taps start at
    ``lag0``, and zero at a lag off the FIR."""
    lags = np.arange(block_len)
    idx = base - lag0 + np.subtract.outer(lags, lags)
    on_fir = (idx >= 0) & (idx < len(taps))
    return np.where(on_fir, taps[idx.clip(0, len(taps) - 1)], 0)


def _path_blocks(spec: ChannelSpec, block_len: int):
    """Each path's unit-gain (0, 0) block of the stream matrix, in path order.

    They are read on a one-block stream: with a whole ``half_len`` the
    kernels, and so the blocks, are the same on a stream of any length.
    Weighted by a realization's gains and summed, they give that
    realization's ``ChannelOperator(realization).block(0, 0)``, to
    round-off.  The blocks are real: the kernels are sinc samples.
    """
    lag0, kernels = _path_kernels(spec, block_len, DEFAULT_FIR_HALF_LEN)
    for kernel in kernels:
        yield _stream_block(lag0, kernel, block_len, 0)


def _fft_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Full linear convolution of a 1-D stream with complex FIR taps.

    The result is bit-equal to ``scipy.signal.fftconvolve``'s for such
    input, as these are its steps on ``numpy.fft``: a length-1 operand
    multiplies directly; otherwise both are transformed at the next fast
    complex FFT length (``_good_size``), a real operand by a real FFT whose
    second half is the conjugate mirror of the first, as ``scipy.fft``
    transforms real input.  Spelling them out keeps ``scipy.signal`` (about
    40 MB of resident memory) and ``scipy.fft`` out of the package's imports.
    """
    if len(x) == 1 or len(taps) == 1:
        return x * taps
    n = len(x) + len(taps) - 1
    size = _good_size(n)
    spectrum = _spectrum(x, size) * _spectrum(taps, size)
    return np.fft.ifft(spectrum, size)[:n]


def _good_size(n: int) -> int:
    """The least 11-smooth length >= n, as ``scipy.fft.next_fast_len(n, False)``
    picks for a complex FFT."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _spectrum(a: np.ndarray, size: int) -> np.ndarray:
    """The ``size``-point FFT of ``a``; for real ``a`` a real FFT and the
    conjugate mirror of its first half."""
    if np.iscomplexobj(a):
        return np.fft.fft(a, size)
    half = np.fft.rfft(a, size)
    out = np.empty(size, dtype=np.complex128)
    out[: len(half)] = half
    out[len(half) :] = np.conj(half[size - len(half) : 0 : -1])
    return out


def realize(
    spec: ChannelSpec,
    seed: int | np.random.Generator,
    block_len: int = 1,
    n_blocks: int = 1,
) -> ChannelRealization:
    """Draw path gains: fixed gains pass through, powers get a random phase.

    One phase per path per realization (quasi-static), uniform on [0, 2 pi),
    from ``default_rng(seed)`` in path order, drawn in one call.
    """
    gains = _draw_gains(_gain_table(spec), np.random.default_rng(seed))
    return ChannelRealization(
        spec=spec, drawn_gains=gains, block_len=block_len, n_blocks=n_blocks
    )


def _gain_table(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``realize`` reads of a spec: which paths draw a phase, the fixed
    gains (zero where a phase is drawn) and the drawn paths' amplitudes."""
    drawn = np.array([path.gain is None for path in spec.paths])
    fixed = np.array(
        [0.0 if path.gain is None else path.gain for path in spec.paths],
        dtype=np.complex128,
    )
    powers = np.array([path.gain_power for path in spec.paths if path.gain is None])
    return drawn, fixed, np.sqrt(powers)


def _draw_gains(table, rng: np.random.Generator) -> np.ndarray:
    """Path gains of one realization from a ``_gain_table``: one phase per
    drawn path, uniform on [0, 2 pi), in path order, drawn in one call."""
    drawn, fixed, amplitudes = table
    gains = fixed.copy()
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(amplitudes))
    gains[drawn] = amplitudes * np.exp(1j * phases)
    return gains


def exp_profile_spec(
    decay: float,
    delays: np.ndarray,
    max_delay: float,
    name: str = "custom",
) -> ChannelSpec:
    """Tapped-delay-line spec with amplitudes exp(-decay * tau)."""
    if not decay > 0:  # NaN fails too
        raise ParameterError(f"decay must be > 0, got {decay}")
    delays = np.asarray(delays, dtype=float)
    paths = tuple(
        PathSpec(delay=t, gain_power=float(np.exp(-2.0 * decay * t))) for t in delays
    )
    return ChannelSpec(paths=paths, max_delay=max_delay, name=name)


def mild_channel_spec() -> ChannelSpec:
    return exp_profile_spec(0.5, np.arange(0.0, 15.05, 0.1), max_delay=16.0, name="mild")


def severe_channel_spec() -> ChannelSpec:
    return exp_profile_spec(
        0.05, np.arange(0.0, 15.05, 0.1), max_delay=16.0, name="severe"
    )


def integer_channel_spec() -> ChannelSpec:
    return exp_profile_spec(0.5, np.arange(0.0, 16.0, 1.0), max_delay=16.0, name="integer")


# 24-cluster tapped-delay-line approximation of the CDL-C profile:
# (normalized delay, power dB).  Spatial structure is out of scope; each tap
# gets a unit-magnitude random phase at realization time.
_CDLC_TAPS = (
    (0.0000, -4.4), (0.2099, -1.2), (0.2219, -3.5), (0.2329, -5.2),
    (0.2176, -2.5), (0.6366, 0.0), (0.6448, -2.2), (0.6560, -3.9),
    (0.6584, -7.4), (0.7935, -7.1), (0.8213, -10.7), (0.9336, -11.1),
    (1.2285, -5.1), (1.3083, -6.8), (2.1704, -8.7), (2.7105, -13.2),
    (4.2589, -13.9), (4.6003, -13.9), (5.4902, -15.8), (5.6077, -17.1),
    (6.3065, -16.0), (6.6374, -15.7), (7.0427, -21.6), (8.6523, -22.8),
)


def cdlc_channel_spec(delay_spread_ns: float) -> ChannelSpec:
    """CDL-C style power-delay profile scaled to a delay spread, unit total power."""
    if not 0 < delay_spread_ns < math.inf:
        raise ParameterError(f"delay spread must be > 0 ns, got {delay_spread_ns}")
    powers = np.array([10.0 ** (p / 10.0) for _, p in _CDLC_TAPS])
    powers /= powers.sum()
    delays = np.array(
        [d * delay_spread_ns * 1e-9 * SAMPLE_RATE_HZ for d, _ in _CDLC_TAPS]
    )
    paths = tuple(
        PathSpec(delay=float(t), gain_power=float(p)) for t, p in zip(delays, powers)
    )
    return ChannelSpec(
        paths=paths,
        max_delay=float(delays.max()),
        name=f"cdlc{delay_spread_ns:.12g}ns",
    )


def builtin_channel_spec(name: str) -> ChannelSpec:
    """Look up a named channel: mild, severe, integer, cdlc200ns, cdlc1000ns."""
    table = {
        "mild": mild_channel_spec,
        "severe": severe_channel_spec,
        "integer": integer_channel_spec,
        "cdlc200ns": lambda: cdlc_channel_spec(200.0),
        "cdlc1000ns": lambda: cdlc_channel_spec(1000.0),
    }
    try:
        return table[name]()
    except KeyError:
        raise ParameterError(
            f"unknown channel {name!r}; expected one of {sorted(table)}"
        ) from None


def prefix_length_for(spec: ChannelSpec) -> int:
    """Guard length covering the delay spread: ceil(tau_max) samples."""
    return int(math.ceil(spec.max_delay - 1e-12))


_PROFILE_KEYS = {"delays_samples", "powers_db", "decay", "seed", "max_delay", "name"}


def _float_array(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float))


def _profile_field(path, kv: dict, key: str, convert, default=None):
    """``convert`` of the key's value (or ``default``); ``ParameterError`` if bad."""
    value = kv.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"profile {path}: {key} must be numeric, got {value!r}"
        ) from None


def load_channel_profile(path) -> tuple[ChannelSpec, int | None]:
    """Read a channel profile file; returns (spec, seed or None).

    Fields: ``delays_samples`` (list or range), one of ``powers_db`` /
    ``decay``, optional ``seed``, ``max_delay`` and ``name``.  Any other key
    raises ``ParameterError``.
    """
    kv = load_kv_file(path)
    if unknown := ", ".join(sorted(set(kv) - _PROFILE_KEYS)):
        raise ParameterError(f"profile {path}: unknown key(s) {unknown}")
    if "delays_samples" not in kv:
        raise ParameterError(f"profile {path} missing delays_samples")
    delays = _profile_field(path, kv, "delays_samples", _float_array)
    if not delays.size:
        raise ParameterError(f"profile {path}: delays_samples lists no delay, got []")
    if "powers_db" in kv:
        powers_db = _profile_field(path, kv, "powers_db", _float_array)
        if powers_db.shape != delays.shape:
            raise ParameterError("powers_db and delays_samples lengths differ")
        powers = 10.0 ** (powers_db / 10.0)
    elif "decay" in kv:
        powers = np.exp(-2.0 * _profile_field(path, kv, "decay", float) * delays)
    else:
        raise ParameterError(f"profile {path} needs powers_db or decay")
    paths = tuple(
        PathSpec(delay=float(t), gain_power=float(p)) for t, p in zip(delays, powers)
    )
    max_delay = _profile_field(path, kv, "max_delay", float, delays.max())
    name = str(kv.get("name", "profile"))
    seed = kv.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ParameterError(f"profile {path}: seed must be an integer, got {seed!r}")
    return ChannelSpec(paths=paths, max_delay=max_delay, name=name), seed
