"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line with the measured quantities (visible
with ``pytest -s``).  Expensive artifacts are shared through module-scoped
fixtures.
"""

import logging
import math
import time

import numpy as np
import pytest

import precofdm as pf
from precofdm.waveform import PrecodingScheme, PrefixKind

log = logging.getLogger("acceptance")

SCHEMES = [PrecodingScheme.OFDM, PrecodingScheme.DFT, PrecodingScheme.DPSS]


def report(criterion, detail):
    print(f"[PASS] acceptance {criterion}: {detail}")


@pytest.fixture(scope="module")
def mild():
    return pf.mild_channel_spec()


def prefixed(scheme, n, m, g, kind=PrefixKind.ZERO):
    return pf.with_prefix(pf.default_basis(scheme, n, m), g, kind)


def s2i_db(signal, interference):
    if interference <= 0.0:
        return float("inf")
    return 10.0 * math.log10(signal / interference)


def test_criterion_01_dpss_validity():
    t0 = time.time()
    worst_orth = worst_res = 0.0
    for n in (9, 33, 65):
        for w in (0.1, 0.25, 0.45):
            dset = pf.compute_dpss(pf.DpssParams(n, w, n))
            p = dset.sequences
            worst_orth = max(worst_orth, np.max(np.abs(p.T @ p - np.eye(n))))
            kernel = pf.dpss.sinc_kernel(n, w)
            res = kernel @ p - p * dset.eigenvalues
            worst_res = max(worst_res, np.max(np.linalg.norm(res, axis=0)))
    elapsed = time.time() - t0
    assert worst_orth <= 1e-10
    assert worst_res <= 1e-8
    assert elapsed < 5.0
    report(1, f"orthonormality {worst_orth:.1e}, eigenrelation {worst_res:.1e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_equivalence():
    t0 = time.time()
    worst = 0.0
    for m in (9, 7):
        tensor = pf.xcorr_tensor(pf.default_basis(PrecodingScheme.OFDM, 9, m))
        for r in range(m):
            for s in range(m):
                for q in range(-8, 9):
                    closed = pf.xcorr_ofdm_closed(r, s, q, 9, m)
                    worst = max(worst, abs(tensor.lag(r, s, q) - closed))
        tensor = pf.xcorr_tensor(pf.default_basis(PrecodingScheme.DFT, 9, m))
        for r in range(m):
            for s in range(m):
                for q in range(-8, 9):
                    closed = pf.xcorr_scfdma_closed(r, s, q, 9, m)
                    worst = max(worst, abs(tensor.lag(r, s, q) - closed))
    rng = np.random.default_rng(1)
    for scheme, m in ((PrecodingScheme.OFDM, 33), (PrecodingScheme.OFDM, 31),
                      (PrecodingScheme.DFT, 33), (PrecodingScheme.DFT, 31)):
        tensor = pf.xcorr_tensor(pf.default_basis(scheme, 33, m))
        for _ in range(200):
            r, s = (int(v) for v in rng.integers(0, m, 2))
            q = int(rng.integers(-32, 33))
            if scheme is PrecodingScheme.OFDM:
                closed = pf.xcorr_ofdm_closed(r, s, q, 33, m)
            else:
                closed = pf.xcorr_scfdma_closed(r, s, q, 33, m)
            worst = max(worst, abs(tensor.lag(r, s, q) - closed))
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(2, f"worst closed-form deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_zero_isi_theorem():
    t0 = time.time()
    spec = pf.integer_channel_spec()
    worst = 0.0
    for scheme in SCHEMES:
        for eta in (1.0, 0.95):
            m = int(math.floor(eta * 33 + 1e-9))
            pref = prefixed(scheme, 33, m, 16)
            signal, isi = pf.signal_isi_energies(pref, pref, spec, n_blocks=8)
            worst = max(worst, isi / signal)
    elapsed = time.time() - t0
    assert worst <= 1e-18
    assert elapsed < 30.0
    report(3, f"worst ISI/signal ratio {worst:.1e}, {elapsed:.1f}s")


def test_criterion_04_bound_validity(mild):
    t0 = time.time()
    basis = pf.default_basis(PrecodingScheme.OFDM, 33, 33)
    pref = pf.with_prefix(basis, 16, PrefixKind.ZERO)
    gram = pf.isi_gram(pref, pref, mild.delays, n_blocks=12)
    bound = pf.isi_bound(pf.xcorr_tensor(basis), mild, 16).total_bound
    holds = 0
    worst_emp = 0.0
    for seed in range(100):
        gains = pf.realize(mild, seed).drawn_gains
        emp = float(np.real(gains.conj() @ gram @ gains))
        worst_emp = max(worst_emp, emp)
        holds += bound >= emp
    assert holds == 100
    for scheme in SCHEMES:
        tensor = pf.xcorr_tensor(pf.default_basis(scheme, 9, 9))
        gap = pf.ebct_bound_all(tensor) - pf.ebct_all(tensor)
        assert np.all(gap >= -1e-12)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        4,
        f"channel bound held 100/100 (margin {10 * math.log10(bound / worst_emp):.1f} dB), "
        f"pair bound >= truncated E_BCT for all schemes, {elapsed:.1f}s",
    )


def test_criterion_05_eta_one_equivalence(mild):
    real = pf.realize(mild, seed=3)
    energies = []
    for scheme in SCHEMES:
        pref = prefixed(scheme, 33, 33, 16)
        energies.append(pf.isi_energy(pref, pref, real, n_blocks=8))
    spread = (max(energies) - min(energies)) / min(energies)
    assert spread <= 1e-9
    report(5, f"relative spread across schemes {spread:.2e}")


@pytest.fixture(scope="module")
def mild_grams_128(mild):
    grams = {}
    for scheme in SCHEMES:
        for m in (128, 125, 121):
            if m < 128 or scheme is PrecodingScheme.OFDM:
                pref = prefixed(scheme, 128, m, 16)
                grams[(scheme, m)] = pf.isi_gram(
                    pref, pref, mild.delays, n_blocks=12, include_signal=True
                )
    return grams


def test_criterion_06_s2i_anchor(mild, mild_grams_128):
    t0 = time.time()
    k_isi, k_sig = mild_grams_128[(PrecodingScheme.OFDM, 128)]
    values = []
    for seed in range(50):
        g = pf.realize(mild, seed).drawn_gains
        sig = float(np.real(g.conj() @ k_sig @ g))
        isi = float(np.real(g.conj() @ k_isi @ g))
        values.append(s2i_db(sig, isi))
    mean = float(np.mean(values))
    assert abs(mean - 28.7) <= 1.5
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(6, f"mean S2I over 50 realizations {mean:.2f} dB (target 28.7 +- 1.5), {elapsed:.1f}s")


def test_criterion_07_s2i_ordering(mild, mild_grams_128):
    t0 = time.time()
    stat = {}
    for (scheme, m), (k_isi, k_sig) in mild_grams_128.items():
        sig = float(mild.powers @ np.real(np.diag(k_sig)))
        isi = float(mild.powers @ np.real(np.diag(k_isi)))
        stat[(scheme, m)] = s2i_db(sig, isi)
    for m in (125, 121):
        margin_ofdm = stat[(PrecodingScheme.DPSS, m)] - stat[(PrecodingScheme.OFDM, m)]
        margin_dft = stat[(PrecodingScheme.DPSS, m)] - stat[(PrecodingScheme.DFT, m)]
        assert margin_ofdm >= 20.0, f"margin vs OFDM at M={m}: {margin_ofdm:.2f} dB"
        assert margin_dft >= 20.0, f"margin vs DFT at M={m}: {margin_dft:.2f} dB"
    rows = pf.s2i_sweep(
        SCHEMES, [1.0, 0.98, 0.95], pf.integer_channel_spec(), 128, 16,
        n_blocks=12, include_bound=False,
    )
    assert all(row.s2i_db > 150.0 for row in rows)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        7,
        "DPSS margins (dB) at M=125/121: "
        f"{stat[(PrecodingScheme.DPSS, 125)] - stat[(PrecodingScheme.OFDM, 125)]:.1f}/"
        f"{stat[(PrecodingScheme.DPSS, 121)] - stat[(PrecodingScheme.OFDM, 121)]:.1f} vs OFDM; "
        f"integer-tap channel S2I infinite, {elapsed:.1f}s",
    )


def test_criterion_08_half_shift_scan():
    t0 = time.time()
    taus = np.round(np.arange(0.05, 0.951, 0.05), 10)
    half_idx = int(np.argmin(np.abs(taus - 0.5)))
    lines = []
    for scheme in (PrecodingScheme.OFDM, PrecodingScheme.DPSS):
        tensor = pf.xcorr_tensor(pf.default_basis(scheme, 9, 9))
        full_hits = restricted_hits = 0
        deviations = []
        for r in range(9):
            for s in range(9):
                argmax, curve = pf.half_shift_worst_case_scan(tensor, r, s, taus)
                if abs(argmax - 0.5) < 1e-12:
                    full_hits += 1
                else:
                    deviations.append((r, s, float(argmax)))
                if int(np.argmax(curve[: half_idx + 1])) == half_idx:
                    restricted_hits += 1
        frac_full = full_hits / 81.0
        frac_restricted = restricted_hits / 81.0
        # the paper states the half-sample worst case as a conjecture over
        # sub-half shifts; on that domain it must hold almost everywhere,
        # while full-grid deviations are logged, not failed
        assert frac_restricted >= 0.95
        for r, s, arg in deviations:
            log.info(
                "half-shift deviation (%s): pair (%d,%d) peaks at tau=%.2f",
                scheme.value, r, s, arg,
            )
        lines.append(
            f"{scheme.value}: restricted-domain max at 0.5 for {frac_restricted:.0%}, "
            f"full-grid {frac_full:.0%} ({len(deviations)} deviations logged)"
        )
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(8, "; ".join(lines) + f", {elapsed:.1f}s")


@pytest.fixture(scope="module")
def severe_ser_curves():
    spec = pf.cdlc_channel_spec(1000.0)
    g = pf.prefix_length_for(spec)
    snrs = [15.0, 25.0, 30.0, 35.0]
    curves = {}
    for p_delta in (0.0, 10.0):
        for scheme, m in (
            (PrecodingScheme.DFT, 128),
            (PrecodingScheme.DFT, 125),
            (PrecodingScheme.DFT, 121),
            (PrecodingScheme.DPSS, 121),
        ):
            cfg = pf.FrameConfig(
                scheme=scheme, eta=m / 128, n_len=128, prefix_len=g,
                p_delta_db=p_delta,
            )
            points = pf.run_ser(cfg, spec, snrs, n_trials=200, base_seed=0)
            curves[(p_delta, scheme, m)] = {
                pt.snr_db: pt.ser for pt in points
            }
    return curves


def floor_of(sers):
    """Saturation level: the lowest SER attained in the floor region."""
    return min(sers[s] for s in (25.0, 30.0, 35.0))


def test_criterion_09_ser_trends(severe_ser_curves):
    t0 = time.time()
    curves = severe_ser_curves
    resolution = 1.0 / (200 * 14 * 121)

    # (a) DFT precoding keeps an error floor at and above 5e-4 for SNR >= 25
    dft_full = curves[(10.0, PrecodingScheme.DFT, 128)]
    assert all(dft_full[s] >= 5e-4 for s in (25.0, 30.0, 35.0))

    # (b) DPSS at eta 0.95 sits at least 10x below every DFT configuration
    dpss35 = curves[(10.0, PrecodingScheme.DPSS, 121)][35.0]
    ratios = [
        curves[(10.0, PrecodingScheme.DFT, m)][35.0] / max(dpss35, resolution)
        for m in (128, 125, 121)
    ]
    assert all(r >= 10.0 for r in ratios)

    # (c) power offset sensitivity: DPSS essentially unchanged, DFT floor
    # worsens at least twofold
    dpss0 = floor_of(curves[(0.0, PrecodingScheme.DPSS, 121)])
    dpss10 = floor_of(curves[(10.0, PrecodingScheme.DPSS, 121)])
    lo, hi = sorted([max(dpss0, resolution), max(dpss10, resolution)])
    assert hi / lo < 3.0
    dft0 = floor_of(curves[(0.0, PrecodingScheme.DFT, 128)])
    dft10 = floor_of(curves[(10.0, PrecodingScheme.DFT, 128)])
    assert dft10 / dft0 >= 2.0

    elapsed = time.time() - t0
    report(
        9,
        f"DFT floor {dft10:.1e} (>=5e-4); DPSS/DFT ratios at 35 dB "
        f"{[f'{r:.0f}' for r in ratios]}; DPSS power-offset change "
        f"{hi / lo:.2f}x, DFT {dft10 / dft0:.2f}x, {elapsed:.1f}s",
    )


def test_criterion_10_awgn_calibration():
    identity = pf.ChannelSpec(
        (pf.PathSpec(delay=0.0, gain=1.0 + 0.0j),), 0.0, name="identity"
    )
    cfg = pf.FrameConfig(
        scheme=PrecodingScheme.OFDM, eta=1.0, n_len=33, prefix_len=0
    )
    points = pf.run_ser(cfg, identity, [0.0, 4.0, 8.0, 12.0], n_trials=150, base_seed=7)
    devs = []
    for pt in points:
        expected = pf.analytic_qpsk_ser(10 ** (pt.snr_db / 10.0))
        sigma = math.sqrt(expected * (1.0 - expected) / pt.total_symbols)
        dev = abs(pt.ser - expected) / sigma
        devs.append(dev)
        assert dev <= 3.0, f"{pt.snr_db} dB: {pt.ser} vs {expected} ({dev:.1f} sigma)"
    report(10, "deviations (sigma): " + ", ".join(f"{d:.2f}" for d in devs))
