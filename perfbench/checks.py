"""Output checks for the benchmark workloads.

Each ``check_*`` function takes parsed CLI output, and where needed a
reference computed here apart from the program's own code paths, and
returns a list of failure messages; an empty list means the output passed.
The references follow the definitions rather than the package's fast
paths: dense per-path sinc transfer blocks for S2I, Parseval tails of
directly correlated basis columns for E_BCT, and a per-path
``np.convolve`` for the channel stream.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np


# CLI floats carry 12 significant digits, so a printed value can sit up to
# this relative distance from the number the program computed.
PRINT_REL = 5e-12


def parse_csv(text: str) -> list[dict]:
    """Rows of a CLI CSV as dicts of strings."""
    return list(csv.DictReader(io.StringIO(text)))


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------------- s2i


def s2i_reference_db(o: np.ndarray, prefix_len: int, delays, powers,
                     n_blocks: int) -> float:
    """Statistical S2I (dB) of a zero-prefixed basis from dense sinc blocks.

    ``o`` is the N x M basis without prefix.  For path p and block offset d
    (|d| < n_blocks) the transfer block is beta = O^H T O with
    T[i, k] = sinc(i - k + d B - tau_p), B = N + prefix_len.  Zero prefix
    rows carry nothing, so only the N x N symbol part of T is formed.
    Signal energy is sum_p sigma_p^2 ||beta_{p,0}||_F^2 and ISI energy the
    same sum over d != 0.
    """
    n = o.shape[0]
    block = n + prefix_len
    offsets = np.arange(-(n_blocks - 1), n_blocks)
    rows = np.arange(n)
    lag = (rows[None, :, None] - rows[None, None, :]
           + offsets[:, None, None] * block).astype(float)
    oh = o.conj().T
    centre = n_blocks - 1
    signal = isi = 0.0
    for tau, power in zip(delays, powers):
        energy = np.sum(np.abs(oh @ np.sinc(lag - tau) @ o) ** 2, axis=(1, 2))
        signal += power * energy[centre]
        isi += power * (energy.sum() - energy[centre])
    return 10.0 * math.log10(signal / isi)


def check_s2i(rows: list[dict], schemes, etas, reference: dict,
              min_margin_db: float = 20.0) -> list[str]:
    """Checks one ``s2i`` CSV.

    ``reference`` maps (scheme, eta) to an independent S2I and its
    tolerance, both in dB; ``etas`` are the printed utilizations M/N, the
    first of them 1.
    """
    bad = []
    table = {}
    for row in rows:
        key = (row["scheme"], float(row["eta"]))
        s2i = float(row["s2i_db"])
        lower = float(row["s2i_lower_bound_db"])
        table[key] = s2i
        if not lower <= s2i:
            bad.append(f"{key}: lower bound {lower} above S2I {s2i}")
    expected = {(s, e) for s in schemes for e in etas}
    if set(table) != expected or len(rows) != len(expected):
        return bad + [f"rows {sorted(table)} differ from {sorted(expected)}"]
    for key, (value, tol) in reference.items():
        if abs(table[key] - value) > tol:
            bad.append(f"{key}: S2I {table[key]} vs independent {value} dB")
    full = [table[(s, 1.0)] for s in schemes]
    if _rel_gap(max(full), min(full)) > 1e-9:
        bad.append(f"schemes disagree at eta 1: {full}")
    for eta in etas:
        if _rel_gap(table[("ofdm", eta)], table[("dft", eta)]) > 1e-9:
            bad.append(f"ofdm and dft differ at eta {eta}")
        if eta < 1.0:
            margin = table[("dpss", eta)] - max(
                table[("ofdm", eta)], table[("dft", eta)])
            if margin < min_margin_db:
                bad.append(f"dpss margin {margin:.2f} dB at eta {eta}")
    return bad


def check_anchor(rows: list[dict], anchor_db: float = 28.7,
                 tol_db: float = 1.5) -> list[str]:
    """The OFDM full-utilization S2I at N = 128 on ``mild`` (paper anchor)."""
    if len(rows) != 1 or rows[0]["scheme"] != "ofdm":
        return [f"anchor run gave rows {rows}"]
    value = float(rows[0]["s2i_db"])
    if abs(value - anchor_db) > tol_db:
        return [f"anchor S2I {value} dB outside {anchor_db} +- {tol_db}"]
    return []


# ------------------------------------------------------------------- ser


def ser_counts(rows: list[dict], n_len: int, trials: int, symbols: int,
               snrs) -> tuple[dict, list[str]]:
    """Error counts keyed by (scheme, M, p_delta, snr) from one ``ser`` CSV.

    Checks every row: the trial count, no skipped trial (``symbols`` victim
    symbols per trial and component), 0 <= ser <= 1, and a whole error count.
    """
    counts, bad = {}, []
    for row in rows:
        m = round(float(row["eta"]) * n_len)
        key = (row["scheme"], m, float(row["p_delta_db"]), float(row["snr_db"]))
        total = int(row["total_symbols"])
        errors = float(row["ser"]) * total
        if int(row["trials"]) != trials or total != trials * symbols * m:
            bad.append(f"{key}: {row['trials']} trials, {total} symbols")
        if not 0.0 <= errors <= total:
            bad.append(f"{key}: ser {row['ser']} outside [0, 1]")
        counts[key] = round(errors)
        if abs(counts[key] - errors) > 1e-6 * max(1.0, errors):
            bad.append(f"{key}: ser {row['ser']} is no whole count of {total}")
    if sorted({k[3] for k in counts}) != sorted(snrs):
        bad.append(f"snr points {sorted({k[3] for k in counts})} != {sorted(snrs)}")
    return counts, bad


def check_ser_trends(counts: dict, trials: int, symbols: int) -> list[str]:
    """The paper's SER trends on the severe (1000 ns) channel.

    (a) DFT at eta 1 with a 10 dB power offset keeps a floor of at least
    5e-4 from 25 dB on; (b) DPSS at M = 121 sits at least 10x below every
    DFT configuration at 35 dB; (c) the DPSS floor changes by less than 3x
    between offsets 0 and 10 dB while the DFT floor worsens at least 2x.
    A zero count is read as one error, the resolution of the campaign.
    """
    def ser(scheme, m, pd, snr):
        key = (scheme, m, pd, snr)
        if key not in counts:
            raise KeyError(key)
        return max(counts[key], 1) / (trials * symbols * m)

    def floor(scheme, m, pd):
        return min(ser(scheme, m, pd, s) for s in (25.0, 30.0, 35.0))

    bad = []
    try:
        dft_full = [ser("dft", 128, 10.0, s) for s in (25.0, 30.0, 35.0)]
        if min(dft_full) < 5e-4:
            bad.append(f"(a) DFT floor {dft_full} below 5e-4")
        dpss35 = ser("dpss", 121, 10.0, 35.0)
        for m in (128, 125, 121):
            if ser("dft", m, 10.0, 35.0) < 10.0 * dpss35:
                bad.append(f"(b) DFT M={m} less than 10x DPSS at 35 dB")
        lo, hi = sorted([floor("dpss", 121, 0.0), floor("dpss", 121, 10.0)])
        if hi / lo >= 3.0:
            bad.append(f"(c) DPSS floor moved {hi / lo:.2f}x with the offset")
        dft_ratio = floor("dft", 128, 10.0) / floor("dft", 128, 0.0)
        if dft_ratio < 2.0:
            bad.append(f"(c) DFT floor worsened only {dft_ratio:.2f}x")
    except KeyError as exc:
        bad.append(f"missing SER row {exc}")
    return bad


def stream_reference(x: np.ndarray, delays, gains, half_len: int) -> np.ndarray:
    """Channel output from one ``np.convolve`` per path with sinc taps.

    Fractional delays use taps at lags floor(tau) - half_len ..
    floor(tau) + half_len; integer delays are plain shifts.
    """
    n = x.size
    y = np.zeros(n, dtype=complex)
    for tau, gain in zip(delays, gains):
        if float(tau).is_integer():
            lag0, taps = int(tau), np.ones(1)
        else:
            lag0 = math.floor(tau) - half_len
            taps = np.sinc(np.arange(lag0, math.floor(tau) + half_len + 1) - tau)
        full = np.convolve(x, taps)
        lo, hi = max(0, lag0), min(n, lag0 + full.size)
        y[lo:hi] += gain * full[lo - lag0 : hi - lag0]
    return y


def check_stream(y: np.ndarray, reference: np.ndarray,
                 rel_tol: float = 1e-12) -> list[str]:
    err = np.linalg.norm(y - reference) / np.linalg.norm(reference)
    if not err <= rel_tol:
        return [f"channel stream differs from np.convolve by {err:.2e}"]
    return []


# ------------------------------------------------------------ pair tails


def pair_reference(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parseval half-shift tails and l1 norms of all column-pair correlations.

    C_rs[q] = sum_n conj(o_r[n]) o_s[n - q] for |q| <= N - 1, from
    ``np.correlate`` of the basis columns; y(n + 1/2) =
    sum_q C[q] sinc(n + 1/2 - q).  The tail beyond N - 1 of the half-shifted
    sequence is ||C||^2 - sum_{|n| <= N-1} |y(n + 1/2)|^2, since a half-band
    fractional shift preserves energy.  Returns (tails, l1), each M x M.
    """
    n, m = o.shape
    lags = np.arange(-(n - 1), n)
    kernel = np.sinc(lags[:, None] + 0.5 - lags[None, :])
    tails = np.empty((m, m))
    l1 = np.empty((m, m))
    for r in range(m):
        for s in range(m):
            c = np.conj(np.correlate(o[:, r], o[:, s], mode="full"))
            y = kernel @ c
            tails[r, s] = np.vdot(c, c).real - np.vdot(y, y).real
            l1[r, s] = np.sum(np.abs(c))
    return tails, l1


def check_ebct(rows: list[dict], n: int, tails: np.ndarray,
               l1: np.ndarray) -> list[str]:
    """Checks one ``ebct`` CSV against the Parseval tails of its basis.

    bound == Parseval tail to 1e-12; ebct <= bound + 1e-12; and the gap
    bound - ebct stays within the truncation remainder 2 ||C||_1^2 /
    (pi^2 63 N) of the 64 N-point truncated sum.  Each comparison also
    allows the rounding of the printed values (``PRINT_REL``).
    """
    m = tails.shape[0]
    if len(rows) != m * m:
        return [f"N={n}: {len(rows)} rows, expected {m * m}"]
    bad = []
    for row in rows:
        r, s = int(row["r"]), int(row["s"])
        value, bound = float(row["ebct"]), float(row["bound"])
        printed = PRINT_REL * (abs(bound) + abs(value))
        if abs(bound - tails[r, s]) > 1e-12 + printed:
            bad.append(f"N={n} ({r},{s}): bound {bound} vs Parseval {tails[r, s]}")
        if value > bound + 1e-12 + printed:
            bad.append(f"N={n} ({r},{s}): ebct {value} above bound {bound}")
        remainder = 2.0 * l1[r, s] ** 2 / (math.pi**2 * 63 * n)
        if bound - value > remainder:
            bad.append(f"N={n} ({r},{s}): gap {bound - value} over {remainder}")
        if len(bad) > 5:
            break
    return bad


def check_scan(rows: list[dict], m: int, min_share: float = 0.95) -> list[str]:
    """tau = 0.5 maximizes the tail on the tau <= 0.5 grid for most pairs."""
    curves: dict = {}
    for row in rows:
        tau = float(row["tau"])
        if tau <= 0.5 + 1e-9:
            curves.setdefault((row["r"], row["s"]), []).append(
                (float(row["tail_energy"]), tau))
    if len(curves) != m * m:
        return [f"scan covers {len(curves)} pairs, expected {m * m}"]
    hits = sum(abs(max(c)[1] - 0.5) < 1e-9 for c in curves.values())
    if hits < min_share * m * m:
        return [f"tau = 0.5 is the restricted argmax for {hits}/{m * m} pairs"]
    return []
