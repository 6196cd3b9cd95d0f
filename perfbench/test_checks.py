"""The benchmark's own tests.

Each output check passes on real output and fails on a corrupted copy; the
host-speed sampler scales times as documented; ``BENCHMARK.json`` lists the
metrics the runs report.

    python3 -m pytest perfbench -q
"""
import csv
import io
import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import precofdm as pf  # noqa: E402
import workloads  # noqa: E402
from precofdm import linksim  # noqa: E402


def cli_rows(tmp_path, argv):
    out = str(tmp_path / "out.csv")
    workloads.run_cli(argv + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        return checks.parse_csv(fh.read())


def edited(rows, match, field, change):
    """A copy of ``rows`` with ``field`` changed on the first matching row."""
    rows = [dict(r) for r in rows]
    row = next(r for r in rows if all(r[k] == v for k, v in match.items()))
    row[field] = format(change(float(row[field])), ".12g")
    return rows


# ------------------------------------------------------------------- s2i

S2I_N, S2I_M, S2I_PREFIX = 32, 30, 16
ETA_LOW = S2I_M / S2I_N


@pytest.fixture(scope="module")
def s2i_case(tmp_path_factory):
    rows = cli_rows(tmp_path_factory.mktemp("s2i"), [
        "s2i", "--channel", "mild", "--n", str(S2I_N), "--schemes", "ofdm,dft,dpss",
        "--etas", "[1.0, 0.95]", "--prefix", str(S2I_PREFIX)])
    spec = pf.mild_channel_spec()
    reference = {
        (s, ETA_LOW): (checks.s2i_reference_db(
            pf.default_basis(s, S2I_N, S2I_M).o_matrix, S2I_PREFIX,
            spec.delays, spec.powers, 12), tol)
        for s, tol in (("ofdm", 1e-9), ("dpss", 1e-7))
    }
    return rows, reference


def s2i_failures(rows, reference):
    return checks.check_s2i(rows, ("ofdm", "dft", "dpss"), [1.0, ETA_LOW],
                            reference, min_margin_db=10.0)


def test_s2i_checks_pass_on_program_output(s2i_case):
    assert s2i_failures(*s2i_case) == []


@pytest.mark.parametrize("scheme, eta, field, change", [
    ("ofdm", ETA_LOW, "s2i_db", lambda v: v + 0.1),   # independent reference
    ("dft", ETA_LOW, "s2i_db", lambda v: v + 0.1),    # OFDM == DFT
    ("dpss", 1.0, "s2i_db", lambda v: v + 0.1),       # agreement at eta 1
    ("dpss", ETA_LOW, "s2i_db", lambda v: v - 15.0),  # DPSS margin
    ("ofdm", 1.0, "s2i_lower_bound_db", lambda v: v + 30.0),  # bound <= S2I
])
def test_s2i_checks_catch_corruption(s2i_case, scheme, eta, field, change):
    rows, reference = s2i_case
    match = {"scheme": scheme, "eta": format(eta, ".12g")}
    assert s2i_failures(edited(rows, match, field, change), reference)


def test_s2i_check_catches_missing_row(s2i_case):
    rows, reference = s2i_case
    assert s2i_failures(rows[:-1], reference)


def test_anchor_check():
    row = {"scheme": "ofdm", "eta": "1", "tap_model": "mild", "s2i_db": "28.21"}
    assert checks.check_anchor([row]) == []
    assert checks.check_anchor([dict(row, s2i_db="26.9")])


# ------------------------------------------------------------------- ser

SER_HEADER = ["scheme", "eta", "p_delta_db", "delay_spread_ns", "snr_db", "ser",
              "trials", "total_symbols"]
# Error counts at 15/25/30/35 dB of the campaign (200 trials from seed 0).
SER_COUNTS = {
    ("dft", 128, 0.0): (849, 230, 521, 901),
    ("dft", 125, 0.0): (712, 124, 228, 418),
    ("dft", 121, 0.0): (680, 62, 86, 114),
    ("dpss", 121, 0.0): (1846, 46, 18, 7),
    ("dft", 128, 10.0): (1078, 624, 951, 1393),
    ("dft", 125, 10.0): (809, 248, 400, 675),
    ("dft", 121, 10.0): (732, 126, 163, 196),
    ("dpss", 121, 10.0): (1843, 48, 18, 8),
}


def ser_rows(counts=SER_COUNTS, trials=200):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SER_HEADER)
    for (scheme, m, pd), errors in counts.items():
        total = trials * 14 * m
        for snr, e in zip((15, 25, 30, 35), errors):
            writer.writerow([scheme, m / 128, pd, 8652.3, snr, e / total, trials, total])
    return checks.parse_csv(out.getvalue())


def ser_failures(rows):
    counts, bad = checks.ser_counts(rows, 128, 200, 14, (15.0, 25.0, 30.0, 35.0))
    return bad + checks.check_ser_trends(counts, 200, 14)


def test_ser_checks_pass_on_campaign_shaped_counts():
    assert ser_failures(ser_rows()) == []


def with_counts(key, errors):
    return ser_rows({**SER_COUNTS, key: errors})


@pytest.mark.parametrize("rows", [
    pytest.param(lambda: edited(ser_rows(), {"snr_db": "35"}, "total_symbols",
                                lambda v: int(v) - 14 * 128), id="skipped-trial"),
    pytest.param(lambda: edited(ser_rows(), {"snr_db": "15"}, "ser",
                                lambda v: v + 1.0), id="ser-above-one"),
    pytest.param(lambda: edited(ser_rows(), {"snr_db": "25"}, "trials",
                                lambda v: int(v) - 1), id="trial-count"),
    pytest.param(lambda: ser_rows()[:-1], id="missing-row"),
])
def test_ser_row_checks_catch_corruption(rows):
    assert ser_failures(rows())


def test_ser_trend_checks_catch_each_trend():
    low_floor = with_counts(("dft", 128, 10.0), (1078, 20, 951, 1393))
    near_dpss = with_counts(("dft", 121, 10.0), (732, 126, 163, 70))
    dpss_moves = with_counts(("dpss", 121, 10.0), (1843, 300, 200, 150))
    dft_steady = with_counts(("dft", 128, 10.0), (1078, 300, 400, 500))
    for rows in (low_floor, near_dpss, dpss_moves, dft_steady):
        assert checks.check_ser_trends(
            checks.ser_counts(rows, 128, 200, 14, (15.0, 25.0, 30.0, 35.0))[0],
            200, 14)


def test_stream_check_against_convolve():
    spec = pf.cdlc_channel_spec(1000.0)
    cfg = pf.FrameConfig(scheme=pf.PrecodingScheme.DFT, eta=1.0, n_len=32,
                         prefix_len=17, p_delta_db=10.0)
    basis = cfg.make_basis()
    rng = np.random.default_rng(5)
    real = pf.realize(spec, rng, block_len=basis.block_len, n_blocks=cfg.n_symbols)
    x = pf.build_frame(cfg, basis, linksim.draw_payloads(cfg, rng))
    y = pf.ChannelOperator(real, half_len=64).apply(x)
    ref = checks.stream_reference(x, spec.delays, real.drawn_gains, 64)
    assert checks.check_stream(y, ref) == []
    y[100] *= 1 + 1e-9
    assert checks.check_stream(y, ref)


# ------------------------------------------------------------ pair tails


@pytest.fixture(scope="module", params=["ofdm", "dft", "dpss"])
def ebct_case(request, tmp_path_factory):
    rows = cli_rows(tmp_path_factory.mktemp("ebct"),
                    ["ebct", "--scheme", request.param, "--n", "9"])
    tails, l1 = checks.pair_reference(pf.default_basis(request.param, 9, 9).o_matrix)
    return rows, tails, l1


def test_ebct_checks_pass_on_program_output(ebct_case):
    rows, tails, l1 = ebct_case
    assert checks.check_ebct(rows, 9, tails, l1) == []


@pytest.mark.parametrize("field, change", [
    ("bound", lambda v: v * 1.01),  # Parseval tail
    ("ebct", lambda v: v * 1.05),   # ebct <= bound (DPSS falls 1.2% short)
    ("ebct", lambda v: v * 0.5),    # truncation remainder
])
def test_ebct_checks_catch_corruption(ebct_case, field, change):
    rows, tails, l1 = ebct_case
    r, s = np.unravel_index(np.argmax(tails), tails.shape)
    bad = edited(rows, {"r": str(r), "s": str(s)}, field, change)
    assert checks.check_ebct(bad, 9, tails, l1)


def test_scan_check(tmp_path):
    rows = cli_rows(tmp_path, ["scan-halfshift", "--scheme", "ofdm", "--n", "9"])
    assert checks.check_scan(rows, 9) == []
    halved = [dict(r) for r in rows]
    for row in halved:
        if row["tau"] == "0.5" and int(row["r"]) < 2:
            row["tail_energy"] = format(float(row["tail_energy"]) * 0.5, ".12g")
    assert checks.check_scan(halved, 9)
    assert checks.check_scan(rows[19:], 9)


# ----------------------------------------------------------------- trace


def test_tracer_counts_layers_and_restores(tmp_path):
    originals = {(id(h), a): getattr(h, a) for h, a, _ in layertrace.SPANS}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        workloads.warm_up(str(tmp_path))
    finally:
        tracer.restore()
    assert all(getattr(h, a) is originals[(id(h), a)] for h, a, _ in layertrace.SPANS)
    metrics = tracer.metrics(passes=1)
    assert [name for name, _, _ in layertrace.METRICS] == list(metrics)
    assert all(metrics[name]["value"] > 0 for name in metrics)
    # the warm-up s2i runs two rows on mild at N = 24, g = 16: N_p = 40 - floor(tau)
    assert metrics["isimetrics.isi_bound.tail_passes"]["value"] == 2 * 16
    assert metrics["linksim.victim_sample_frac"]["value"] == pytest.approx(1 / 3)


# ------------------------------------------------------------ host speed


def test_scaled_time_follows_the_kernel():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scaled(2.0, [ref, ref]) == pytest.approx(2.0)
    # a host half as fast: the kernel and the pass both take twice as long
    assert hostspeed.scaled(4.0, [2 * ref, 2 * ref]) == pytest.approx(2.0)


def test_sampler_samples_and_leaves_its_time_out():
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        mark = sampler.mark()
        end = time.perf_counter() + 4 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
        wall, kernel = sampler.since(mark)
    finally:
        sampler.stop()
    assert len(kernel) >= 2
    assert all(k > 0 for k in kernel)
    assert wall == pytest.approx(4 * hostspeed.INTERVAL_S - sum(kernel), abs=0.02)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layertrace.METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "units_per_s", "op_p50_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
