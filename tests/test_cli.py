"""Tests for the command-line interface and CSV outputs."""

import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import assert_no_child

import precofdm
from precofdm import cli, isimetrics, linksim, waveform
from precofdm.channel import builtin_channel_spec, load_channel_profile
from precofdm.cli import build_parser, main
from precofdm.configio import parse_value
from precofdm.errors import ParameterError
from precofdm.isimetrics import S2iPoint, s2i_sweep


def run(args):
    return main([str(a) for a in args])


def read_lines(path):
    data = path.read_bytes()
    assert b"\r" not in data
    return data.decode().splitlines()


class TestDpssCommand:
    def test_writes_csv_and_reruns_identically(self, tmp_path):
        out = tmp_path / "dpss.csv"
        assert run(["dpss", "--n", 9, "--w", 0.25, "--k", 9, "--out", out]) == 0
        lines = read_lines(out)
        assert lines[0] == "order,eigenvalue," + ",".join(f"c{i}" for i in range(9))
        assert len(lines) == 10
        first = out.read_bytes()
        assert run(["dpss", "--n", 9, "--w", 0.25, "--k", 9, "--out", out]) == 0
        assert out.read_bytes() == first

    def test_limit_half_export(self, tmp_path):
        out = tmp_path / "dpss.csv"
        assert run(["dpss", "--n", 128, "--w", 0.5, "--k", 125, "--out", out]) == 0
        assert len(read_lines(out)) == 126

    def test_bad_params_exit_code(self, tmp_path):
        out = tmp_path / "dpss.csv"
        assert run(["dpss", "--n", 9, "--w", 0.7, "--k", 9, "--out", out]) == 2


class TestEbctCommand:
    def test_schema_and_row_count(self, tmp_path):
        out = tmp_path / "ebct.csv"
        assert run(["ebct", "--scheme", "ofdm", "--n", 9, "--m", 9, "--out", out]) == 0
        lines = read_lines(out)
        assert lines[0] == "scheme,N,M,r,s,ebct,bound"
        assert len(lines) == 82
        fields = lines[1].split(",")
        assert fields[0] == "ofdm" and fields[1] == "9"
        # both columns hold the exact tail
        assert all(line.split(",")[5] == line.split(",")[6] for line in lines[1:])

    def test_tails_evaluated_once(self, tmp_path, monkeypatch):
        calls = []
        for name in ("ebct_all", "ebct_bound_all"):
            original = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda t, name=name, f=original: calls.append(name) or f(t)
            )
        assert run(["ebct", "--n", 5, "--out", tmp_path / "ebct.csv"]) == 0
        assert calls == ["ebct_all"]

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "ebct.csv"
        run(["ebct", "--scheme", "dpss", "--n", 9, "--m", 9, "--out", out])
        value = read_lines(out)[1].split(",")[5]
        assert value == format(float(value), ".12g")
        assert "." in value or "e" in value


class TestBasisXcorrCommands:
    def test_basis_long_format(self, tmp_path):
        out = tmp_path / "basis.csv"
        assert run(["basis", "--scheme", "dft", "--n", 9, "--m", 7, "--out", out]) == 0
        lines = read_lines(out)
        assert lines[0] == "component,sample,re,im"
        assert len(lines) == 1 + 7 * 9

    def test_xcorr_long_format(self, tmp_path):
        out = tmp_path / "xcorr.csv"
        assert run(["xcorr", "--scheme", "ofdm", "--n", 9, "--m", 7, "--out", out]) == 0
        assert len(read_lines(out)) == 1 + 7 * 7 * 17


class TestS2iCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "s2i.csv"
        code = run([
            "s2i", "--schemes", "ofdm,dpss", "--etas", "[1.0]", "--channel",
            "integer", "--n", 17, "--blocks", 4, "--out", out, "--no-bound",
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "scheme,eta,tap_model,s2i_db,s2i_lower_bound_db"
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "inf"

    def test_plot_data_flag_removed(self, tmp_path, capsys):
        # its file only restated scheme, 100 * eta and s2i_db from the main CSV
        with pytest.raises(SystemExit) as exc:
            run([
                "s2i", "--schemes", "dft", "--etas", "1.0", "--channel", "integer",
                "--n", 17, "--blocks", 4, "--out", tmp_path / "s2i.csv",
                "--no-bound", "--plot-data",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --plot-data" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eta_range_parsing(self, tmp_path):
        out = tmp_path / "s2i.csv"
        run([
            "s2i", "--schemes", "dft", "--etas", "0.9:0.05:1.0", "--channel",
            "integer", "--n", 20, "--blocks", 4, "--out", out, "--no-bound",
        ])
        assert len(read_lines(out)) == 4

    def test_bound_and_s2i_print_the_same_lower_bound(self, tmp_path, monkeypatch):
        def refuse(basis):
            raise AssertionError("xcorr_tensor called")

        # neither command builds the correlation tensor
        monkeypatch.setattr(cli, "xcorr_tensor", refuse)
        monkeypatch.setattr(isimetrics, "xcorr_tensor", refuse)
        bound_csv, s2i_csv = tmp_path / "bound.csv", tmp_path / "s2i.csv"
        assert run([
            "bound", "--scheme", "dpss", "--n", 24, "--m", 21, "--channel", "mild",
            "--out", bound_csv,
        ]) == 0
        assert run([
            "s2i", "--schemes", "dpss", "--etas", "[0.875]", "--n", 24,
            "--channel", "mild", "--out", s2i_csv,
        ]) == 0
        with open(bound_csv, encoding="utf-8") as fh:
            (bound_row,) = csv.DictReader(fh)
        with open(s2i_csv, encoding="utf-8") as fh:
            (s2i_row,) = csv.DictReader(fh)
        assert bound_row["s2i_lower_bound_db"] == s2i_row["s2i_lower_bound_db"]
        assert bound_row["s2i_db"] == s2i_row["s2i_db"]


    @pytest.mark.parametrize("scheme,n,m,channel", [
        ("ofdm", 24, 21, "mild"),
        ("dft", 32, 29, "severe"),  # an odd deficit: the OFDM span's values
        ("dft", 24, 22, "integer"),
        ("dpss", 24, 21, "mild"),
        ("dpss", 17, 17, "severe"),  # M = N: the closed-form root
    ])
    def test_bound_prints_its_sweep_point(self, tmp_path, scheme, n, m, channel):
        # bound is the one-span s2i_sweep: its CSV holds that point's values
        out = tmp_path / "bound.csv"
        assert run([
            "bound", "--scheme", scheme, "--n", n, "--m", m, "--channel", channel,
            "--blocks", 4, "--out", out,
        ]) == 0
        with open(out, encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        (point,) = s2i_sweep(
            [scheme], [m / n], builtin_channel_spec(channel), n,
            int(row["prefix_len"]), n_blocks=4,
        )
        columns = ["total_bound", "empirical_isi", "s2i_db", "s2i_lower_bound_db"]
        values = [
            point.bound_energy, point.isi_energy, point.s2i_db, point.s2i_lower_bound_db
        ]
        assert [row[c] for c in columns] == [cli._fmt(v) for v in values]


class TestProcesses:
    """``s2i`` runs its tasks through ``fork_map``; ``bound`` runs serially."""

    RUNS = [
        ["bound", "--scheme", "dpss", "--n", 24, "--m", 22, "--blocks", 3],
        ["s2i", "--n", 17, "--etas", "[1.0, 0.9]", "--blocks", 3],
    ]

    @pytest.mark.parametrize("args", RUNS)
    def test_split_and_serial_write_same_bytes(
        self, tmp_path, pin_cpus, fork_always, args
    ):
        # the s2i run is far below the break-even, patched to 0 here, so that
        # its three spans split over two processes
        outputs = []
        for cpus in (1, 2):
            pin_cpus(cpus, OMP_NUM_THREADS="1")
            outputs.append(tmp_path / f"cpus{cpus}.csv")
            assert run(args + ["--out", outputs[-1]]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        assert_no_child()

    def test_bound_never_forks(self, tmp_path, pin_cpus, no_fork):
        pin_cpus(4, OMP_NUM_THREADS="1")
        out = tmp_path / "bound.csv"
        assert run(self.RUNS[0] + ["--out", out]) == 0
        assert len(read_lines(out)) == 2

    @pytest.mark.parametrize("command", ["bound", "s2i"])
    @pytest.mark.parametrize("flags,message", [
        (["--n", 17, "--blocks", 1], "n_blocks must be >= 2"),
        (["--n", 9, "--prefix", 0], "too large for N=9, g=0"),  # mild reaches 15
    ])
    def test_bad_arguments_fork_nothing(
        self, tmp_path, capsys, pin_cpus, no_fork, command, flags, message
    ):
        pin_cpus(4, OMP_NUM_THREADS="1")
        out = tmp_path / "x.csv"
        assert run([command, *flags, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSerCommand:
    def test_ser_csv_and_manifest(self, tmp_path):
        out = tmp_path / "ser.csv"
        profile = tmp_path / "chan.txt"
        profile.write_text("delays_samples: [0, 1.5]\npowers_db: [0, -3]\nseed: 9\n")
        code = run([
            "ser", "--schemes", "ofdm", "--etas", "1.0", "--channel", profile,
            "--n", 17, "--snrs", "[10, 20]", "--trials", 3, "--prefix", 2,
            "--out", out,
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == (
            "scheme,eta,p_delta_db,delay_spread_ns,snr_db,ser,trials,total_symbols"
        )
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "ser.csv.manifest.json").read_text())
        assert manifest["base_seed"] == 9
        assert manifest["trials"] == 3
        assert manifest["runs"][0]["scheme"] == "ofdm"
        assert manifest["runs"][0]["skipped_trials"] == [0, 0]

    def test_manifest_counts_skipped_trials(self, tmp_path, monkeypatch):
        # trial seed 4 skips the second SNR point; seed 5 skips both
        block = linksim._run_block

        def skipping(run, seeds):
            counts = block(run, seeds)
            for (errors, symbols), seed in zip(counts, seeds):
                skipped = {4: [1], 5: [0, 1]}.get(seed, [])
                errors[skipped] = symbols[skipped] = 0
            return counts

        monkeypatch.setattr(linksim, "_run_block", skipping)
        out = tmp_path / "ser.csv"
        assert run([
            "ser", "--schemes", "ofdm,dpss", "--etas", "[1.0, 0.5]",
            "--channel", "cdlc200ns", "--n", 16, "--snrs", "[10, 20]",
            "--trials", 4, "--seed", 3, "--out", out,
        ]) == 0
        manifest = json.loads((tmp_path / "ser.csv.manifest.json").read_text())
        assert [run["skipped_trials"] for run in manifest["runs"]] == [[1, 2]] * 4
        totals = [int(line.split(",")[-1]) for line in read_lines(out)[1:]]
        assert totals == [k * 14 * m for m in (16, 8, 16, 8) for k in (3, 2)]
        # a skipped point's errors leave the positions' counts too
        self.check_errors_by_position(out, manifest)

    @staticmethod
    def check_errors_by_position(out, manifest):
        """Each row's symbol errors, ser x total_symbols, are the sum of its
        run's 14 per-position counts at that SNR point."""
        rows = list(csv.DictReader(open(out, encoding="utf-8")))
        positions = [
            counts for run in manifest["runs"] for counts in run["errors_by_position"]
        ]
        assert len(positions) == len(rows)
        for row, counts in zip(rows, positions):
            assert len(counts) == 14 and all(type(c) is int and c >= 0 for c in counts)
            total = int(row["total_symbols"])
            errors = round(float(row["ser"]) * total) if total else 0
            assert sum(counts) == errors, (row, counts)
            if total:
                assert format(sum(counts) / total, ".12g") == row["ser"]

    def test_errors_by_position_sum_to_csv(self, tmp_path):
        # DFT at eta 1 on the 1000 ns channel with a 10 dB offset errs at the
        # subframe's edges, next to the high-power neighbours
        out = tmp_path / "ser.csv"
        assert run([
            "ser", "--schemes", "dft,ofdm", "--etas", "[1.0, 0.75]",
            "--delay-spread", "1000ns", "--n", 32, "--pdelta", 10,
            "--snrs", "[10, 30, inf]", "--trials", 6, "--out", out,
        ]) == 0
        manifest = json.loads((tmp_path / "ser.csv.manifest.json").read_text())
        self.check_errors_by_position(out, manifest)
        assert any(sum(c) for r in manifest["runs"] for c in r["errors_by_position"])

    def test_rerun_identical_bytes(self, tmp_path):
        out = tmp_path / "ser.csv"
        args = [
            "ser", "--schemes", "dft", "--etas", "1.0", "--channel", "cdlc200ns",
            "--n", 17, "--snrs", "[15]", "--trials", 4, "--seed", 1, "--out", out,
        ]
        assert run(args) == 0
        first = out.read_bytes()
        assert run(args) == 0
        assert out.read_bytes() == first

    def test_preset_table1_defaults(self, tmp_path):
        out = tmp_path / "ser.csv"
        # delay_spread_ns is the RMS spread of the scaled profile
        for spread, rms_ns in (("200ns", 200.0), ("1000ns", 1000.0)):
            code = run([
                "ser", "--preset", "table1", "--delay-spread", spread, "--pdelta", 10,
                "--schemes", "dpss", "--etas", "0.95", "--snrs", "[20]", "--trials", 2,
                "--out", out,
            ])
            assert code == 0
            row = read_lines(out)[1].split(",")
            assert row[0] == "dpss"
            assert float(row[1]) == pytest.approx(121 / 128)
            assert float(row[2]) == 10.0
            assert float(row[3]) == pytest.approx(rms_ns, abs=0.01)

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_is_error(self, tmp_path, capsys, trials):
        out = tmp_path / "x.csv"
        assert run([
            "ser", "--channel", "cdlc200ns", "--n", 9, "--snrs", "[20]",
            "--trials", trials, "--out", out,
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("spread,rms_ns", [("500ns", 500.0), ("1000.7ns", 1000.7)])
    def test_any_delay_spread(self, tmp_path, spread, rms_ns):
        out = tmp_path / "ser.csv"
        assert run([
            "ser", "--delay-spread", spread, "--n", 24, "--snrs", "[25]",
            "--trials", 1, "--out", out,
        ]) == 0
        spread_ns = float(read_lines(out)[1].split(",")[3])
        assert spread_ns == pytest.approx(rms_ns, abs=0.01)
        manifest = json.loads((tmp_path / "ser.csv.manifest.json").read_text())
        assert manifest["channel"] == f"cdlc{spread}"

    @pytest.mark.parametrize("spread", ["abc", "-5ns", "0ns", "nanns"])
    def test_bad_delay_spread_is_error(self, tmp_path, capsys, spread):
        out = tmp_path / "x.csv"
        assert run([
            "ser", f"--delay-spread={spread}", "--n", 24, "--snrs", "[25]",
            "--trials", 1, "--out", out,
        ]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_missing_channel_is_error(self, tmp_path):
        assert run(["ser", "--schemes", "ofdm", "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("flags,config", [
        (["--channel", "mild", "--delay-spread", "200ns"], None),
        ([], "channel = mild\ndelay-spread = 200ns\n"),
        (["--delay-spread", "200ns"], "channel = mild\n"),
    ], ids=["flags", "config", "flag-and-config"])
    def test_channel_and_delay_spread_together_is_error(
        self, tmp_path, capsys, flags, config
    ):
        # the run would use the channel and silently ignore the spread
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = flags + ["--config", tmp_path / "run.cfg"]
        assert run([
            "ser", *flags, "--n", 9, "--snrs", "[20]", "--trials", 1,
            "--out", tmp_path / "x.csv",
        ]) == 2
        err = capsys.readouterr().err
        assert "give exactly one of --channel and --delay-spread" in err
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.csv.manifest.json").exists()

    def test_unknown_preset_is_error(self, tmp_path, capsys):
        assert run([
            "ser", "--preset", "other", "--delay-spread", "200ns", "--n", 9,
            "--trials", 1, "--out", tmp_path / "x.csv",
        ]) == 2
        assert "unknown preset 'other'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["flag", "profile"])
    def test_negative_seed_is_error(self, tmp_path, capsys, where):
        # a seed is an index into the trial seeds, which numpy needs >= 0
        profile = tmp_path / "chan.txt"
        seed_line = "seed: -1\n" if where == "profile" else ""
        profile.write_text("delays_samples: [0, 1.5]\ndecay: 0.5\n" + seed_line)
        flag = ["--seed", -1] if where == "flag" else []
        out = tmp_path / "x.csv"
        assert run([
            "ser", "--channel", profile, "--n", 9, "--snrs", "[20]", "--trials", 1,
            "--out", out, *flag,
        ]) == 2
        assert capsys.readouterr().err == "error: base_seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == [profile]

    def test_fractional_profile_seed_is_error(self, tmp_path, capsys):
        # int() would record base_seed 7
        profile = tmp_path / "chan.txt"
        profile.write_text("delays_samples: [0, 1.5]\ndecay: 0.5\nseed: 7.5\n")
        assert run([
            "ser", "--channel", profile, "--n", 9, "--snrs", "[20]", "--trials", 1,
            "--out", tmp_path / "x.csv",
        ]) == 2
        assert "seed must be an integer, got 7.5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [profile]

    @pytest.mark.parametrize("flag,value", [
        ("--threads", "2"), ("--half-len", "full"),
    ])
    def test_removed_flags_are_error(self, tmp_path, capsys, flag, value):
        # SER runs serially with the 64-tap channel filter; neither is settable
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run([
                "ser", "--channel", "cdlc200ns", "--n", 9, "--snrs", "[20]",
                "--trials", 1, flag, value, "--out", out,
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["ser", "--snrs", "[nan]"],
        ["ser", "--snrs", "[-inf,10]"],
        ["ser", "--snrs", "[10,inf,inf]"],
        ["ser", "--pdelta", "nan"],
        ["ser", "--pdelta", "inf"],
        ["s2i", "--etas", "[nan]"],
        ["s2i", "--etas", "[inf]"],
        ["scan-halfshift", "--taus", "[0.5,nan]"],
    ], ids=" ".join)
    def test_nan_and_inf_inputs_are_error(self, tmp_path, capsys, args):
        if args[0] == "ser":
            args = args + ["--channel", "cdlc200ns", "--trials", 1]
        out = tmp_path / "x.csv"
        assert run(args + ["--n", 9, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("profile,message", [
        ("delays_samples: [0, 1.5]\ndecay: nan", "gain_power"),
        ("delays_samples: [0, 1.5]\npowers_db: [0, nan]", "gain_power"),
        ("delays_samples: [0, nan]\ndecay: 0.5", "path delay"),
        ("delays_samples: [0, 1.5]\ndecay: 0.5\nmax_delay: nan", "max_delay"),
        ("delays_samples: [0, 1.5]\ndecay: 0.5\nmax_delay: inf", "max_delay"),
    ])
    def test_nan_in_channel_profile_is_error(self, tmp_path, capsys, profile, message):
        path = tmp_path / "chan.txt"
        path.write_text(profile + "\n")
        out = tmp_path / "x.csv"
        assert run([
            "ser", "--channel", path, "--n", 9, "--trials", 1, "--snrs", "[20]",
            "--out", out,
        ]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message} ")
        assert not out.exists()

    @pytest.mark.parametrize("profile,key,value", [
        ("delays_samples: [0, 1.5]\ndecay: fast", "decay", "'fast'"),
        ("delays_samples: [0, 1.5]\ndecay: 0.5\nmax_delay: far", "max_delay", "'far'"),
        ("delays_samples: [0, x]\npowers_db: [0, -3]", "delays_samples", "[0, 'x']"),
        ("delays_samples: [0, 1.5]\npowers_db: [0, y]", "powers_db", "[0, 'y']"),
        ("delays_samples: []\npowers_db: []", "delays_samples", "[]"),
    ], ids=["decay", "max_delay", "delays", "powers", "no-delays"])
    def test_non_numeric_channel_profile_is_error(
        self, tmp_path, capsys, profile, key, value
    ):
        # the library and the CLI both name the key and its value
        path = tmp_path / "chan.txt"
        path.write_text(profile + "\n")
        with pytest.raises(ParameterError) as exc:
            load_channel_profile(path)
        assert f"{key} " in str(exc.value) and f"got {value}" in str(exc.value)
        assert run([
            "ser", "--channel", path, "--n", 9, "--trials", 1, "--snrs", "[20]",
            "--out", tmp_path / "x.csv",
        ]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert list(tmp_path.iterdir()) == [path]


class TestCsvQuoting:
    @pytest.mark.parametrize("args", [
        ["s2i", "--schemes", "ofdm,dpss", "--etas", "[1.0]", "--blocks", 3],
        ["bound", "--scheme", "dft", "--blocks", 3],
    ], ids=lambda a: a[0])
    def test_profile_name_round_trips(self, tmp_path, args):
        # a comma or a quote in a field must not split it into two
        path, out = tmp_path / "chan.txt", tmp_path / "x.csv"
        for name in ("a,b", 'a"b'):
            path.write_text(f"name: {name}\ndelays_samples: [0, 1.5]\ndecay: 0.5\n")
            assert run(args + ["--channel", path, "--n", 9, "--out", out]) == 0
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                assert None not in row and None not in row.values()
                assert row["tap_model"] == name


class TestScanCommand:
    def test_scan_output(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run([
            "scan-halfshift", "--scheme", "ofdm", "--n", 5, "--m", 5,
            "--taus", "0.25:0.25:0.75", "--out", out,
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == "scheme,N,M,r,s,tau,tail_energy"
        assert len(lines) == 1 + 25 * 3


class TestVerify:
    """Every subcommand checks its output before it is written, with no flag."""

    PASSING = [
        ["dpss", "--n", 9, "--w", 0.25, "--k", 9],
        ["bound", "--scheme", "dpss", "--n", 24, "--m", 22, "--blocks", 3],
        ["s2i", "--schemes", "ofdm,dpss", "--etas", "[1.0, 0.9]", "--n", 20,
         "--prefix", 4, "--blocks", 3],
        ["ser", "--channel", "cdlc200ns", "--schemes", "dft,dpss",
         "--etas", "[1.0, 0.9]", "--n", 17, "--snrs", "[20]", "--trials", 1],
        ["scan-halfshift", "--scheme", "dft", "--n", 5, "--taus", "[0.25, 0.5]"],
    ]

    @pytest.mark.parametrize("args", PASSING, ids=lambda a: a[0])
    def test_passes_on_correct_output(self, tmp_path, args):
        out = tmp_path / "x.csv"
        assert run(args + ["--out", out]) == 0
        assert out.exists()

    def assert_rejected(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert run(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()
        return err

    def test_bound_below_empirical_writes_nothing(self, tmp_path, capsys, monkeypatch):
        sweep, swept = cli.s2i_sweep, []

        def no_bound(*args, **kwargs):
            swept[:] = sweep(*args, **kwargs)
            return [dataclasses.replace(p, bound_energy=0.0) for p in swept]

        monkeypatch.setattr(cli, "s2i_sweep", no_bound)
        err = self.assert_rejected(
            tmp_path, capsys, ["bound", "--n", 24, "--blocks", 3],
            "ISI bound 0 below the ISI energy",
        )
        (p,) = swept
        assert err == (
            f"error: ISI bound 0 below the ISI energy {p.isi_energy:.6g} "
            f"({p.scheme}, eta=1)\n"
        )

    @pytest.mark.parametrize("flags", [
        ["--n", 24, "--m", 0], ["--n", 24, "--m", 25], ["--n", 0],
    ])
    def test_bound_m_outside_1_to_n_writes_nothing(self, tmp_path, capsys, flags):
        # bound passes M / N to the sweep, so N = 0 must not reach it
        self.assert_rejected(tmp_path, capsys, ["bound", *flags], "need 1 <= m <= n")

    def test_half_shift_bound_below_isi_writes_nothing(self, tmp_path, capsys):
        # One path at fraction 0.58: the half-shift tail total is not an upper
        # bound there (DPSS N = 27, M = 17, g = 3: 2.69e-11 against an ISI
        # energy of 2.96e-11), and both commands refuse to write it, with one
        # message.
        profile = tmp_path / "one.txt"
        profile.write_text("delays_samples: [0.5799065]\npowers_db: [0]\n")
        for args in (
            ["bound", "--scheme", "dpss", "--n", 27, "--m", 17, "--prefix", 3],
            ["s2i", "--schemes", "dpss", "--etas", "[0.63]", "--n", 27, "--prefix", 3],
        ):
            err = self.assert_rejected(
                tmp_path, capsys, args + ["--channel", profile], "ISI bound 2.686"
            )
            # both energies, to four digits
            assert re.fullmatch(
                r"error: ISI bound 2\.686\d*e-11 below the ISI energy "
                r"2\.961\d*e-11 \(dpss, eta=0\.62963\)\n",
                err,
            )

    def test_s2i_lower_bound_above_value_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # a bound below the ISI energy is a lower bound above the S2I; the
        # energies are compared, and a row without a bound is not
        rows = [
            S2iPoint("ofdm", 1.0, "mild", 30.0, 29.0, 1.0, 1e-3, 1.26e-3),
            S2iPoint("dft", 1.0, "mild", 30.0, None, 1.0, 1e-3, None),
            S2iPoint("dpss", 0.75, "mild", 30.0, 30.5, 1.0, 1e-3, 8.9e-4),
        ]
        monkeypatch.setattr(cli, "s2i_sweep", lambda *a, **kw: rows)
        self.assert_rejected(
            tmp_path, capsys, ["s2i", "--n", 20, "--prefix", 4],
            "error: ISI bound 0.00089 below the ISI energy 0.001 (dpss, eta=0.75)\n",
        )

    def test_xcorr_asymmetric_tensor_writes_nothing(self, tmp_path, capsys, monkeypatch):
        original = cli.xcorr_tensor

        def skewed(basis):
            tensor = original(basis)
            values = tensor.values.copy()
            values[0, 1, 0] += 1e-9
            return dataclasses.replace(tensor, values=values)

        monkeypatch.setattr(cli, "xcorr_tensor", skewed)
        self.assert_rejected(tmp_path, capsys, ["xcorr", "--n", 5], "lag symmetry")

    def test_scan_bad_tensor_writes_nothing(self, tmp_path, capsys, monkeypatch):
        original = cli.xcorr_tensor

        def scaled(basis):
            tensor = original(basis)
            return dataclasses.replace(tensor, values=2.0 * tensor.values)

        monkeypatch.setattr(cli, "xcorr_tensor", scaled)
        self.assert_rejected(
            tmp_path, capsys, ["scan-halfshift", "--n", 5], "unit-diagonal"
        )

    def test_ebct_asymmetric_tensor_writes_nothing(self, tmp_path, capsys, monkeypatch):
        original = cli.xcorr_tensor

        def skewed(basis):
            tensor = original(basis)
            values = tensor.values.copy()
            values[1, 0, 2] += 1e-9
            return dataclasses.replace(tensor, values=values)

        monkeypatch.setattr(cli, "xcorr_tensor", skewed)
        self.assert_rejected(tmp_path, capsys, ["ebct", "--n", 5], "lag symmetry")

    SMALL = {
        "dpss": ["--n", 5],
        "basis": ["--n", 5],
        "xcorr": ["--n", 5],
        "ebct": ["--n", 5],
        "bound": ["--n", 9, "--blocks", 3],
        "s2i": ["--n", 9, "--etas", "[1.0]", "--blocks", 3],
        "ser": ["--channel", "cdlc200ns", "--n", 9, "--snrs", "[20]", "--trials", 1],
        "scan-halfshift": ["--n", 3, "--taus", "[0.5]"],
    }

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_verify_flag_removed(self, tmp_path, capsys, command):
        # the checks always run, so there is no switch to turn them on
        with pytest.raises(SystemExit) as exc:
            run([command, *self.SMALL[command], "--verify", "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --verify" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_skewed_basis_writes_nothing(self, tmp_path, capsys, monkeypatch, command):
        # column 1 leans on column 0 in the columns default_basis builds,
        # which renormalizing does not undo, and in the sequences dpss
        # exports (it builds no basis): each is checked before any write
        def skewed(o):
            o = o.copy()
            o[:, 1] += 1e-6 * o[:, 0]
            return o

        def skewed_set(dset):
            return dataclasses.replace(dset, sequences=skewed(dset.sequences))

        dft_columns = waveform._centered_dft_columns
        limit_half, compute_dpss = waveform.dpss_limit_half, cli.compute_dpss
        monkeypatch.setattr(
            waveform, "_centered_dft_columns", lambda *a: skewed(dft_columns(*a))
        )
        monkeypatch.setattr(
            waveform, "dpss_limit_half", lambda *a: skewed_set(limit_half(*a))
        )
        monkeypatch.setattr(cli, "compute_dpss", lambda p: skewed_set(compute_dpss(p)))
        for scheme in ("ofdm", "dft", "dpss"):
            with pytest.raises(ParameterError, match="orthonormality"):
                waveform.default_basis(scheme, 5, 4)
        self.assert_rejected(
            tmp_path, capsys, [command, *self.SMALL[command]], "orthonormality"
        )
        assert list(tmp_path.iterdir()) == []

    def test_ser_builds_and_checks_each_basis_once(self, tmp_path, monkeypatch):
        built, checked = [], []
        build, check = linksim.default_basis, waveform._check_orthonormal

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        def counted_check(o):
            checked.append(o)
            check(o)

        monkeypatch.setattr(linksim, "default_basis", counted_build)
        monkeypatch.setattr(waveform, "_check_orthonormal", counted_check)
        assert run([
            "ser", "--channel", "cdlc200ns", "--schemes", "dft,dpss",
            "--etas", "[1.0, 0.9]", "--n", 17, "--snrs", "[20]", "--trials", 1,
            "--out", tmp_path / "x.csv",
        ]) == 0
        # one build and one check per (scheme, eta)
        assert len(built) == 4
        assert [o is b.o_matrix for o, b in zip(checked, built)] == [True] * 4


class TestConfigHandling:
    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 9\nw = 0.25\nk = 4\nout = ignored.csv\n")
        out = tmp_path / "out.csv"
        assert run(["dpss", "--config", cfg, "--out", out]) == 0
        assert len(read_lines(out)) == 5
        out2 = tmp_path / "out2.csv"
        assert run(["dpss", "--config", cfg, "--k", 2, "--out", out2]) == 0
        assert len(read_lines(out2)) == 3

    def test_missing_config_file(self, tmp_path):
        assert run(["dpss", "--config", tmp_path / "nope.cfg", "--n", 9]) == 2

    @pytest.mark.parametrize("line", [
        "trails = 3", "threads = 2", "half-len = full", "verify = 1",
    ])
    def test_unknown_config_key_is_error(self, tmp_path, capsys, line):
        # a key the subcommand does not read would otherwise be dropped silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 9\n{line}\n")
        out = tmp_path / "x.csv"
        assert run([
            "ser", "--config", cfg, "--channel", "cdlc200ns", "--trials", 1,
            "--snrs", "[20]", "--out", out,
        ]) == 2
        key = line.split(" = ")[0]
        assert f"unknown key(s) {key} for ser" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["s2i", "--etas", "1.0,0.95"],
        ["s2i", "--etas", "[1.0, x]"],
        ["ser", "--channel", "cdlc200ns", "--snrs", "10,20"],
        ["scan-halfshift", "--taus", "0.25,0.5"],
        # an empty list would sweep nothing and still write a CSV header
        ["s2i", "--etas", "[]"],
        ["ser", "--channel", "cdlc200ns", "--etas", "[]"],
        ["ser", "--channel", "cdlc200ns", "--snrs", "[]"],
        ["scan-halfshift", "--taus", "[]"],
    ])
    def test_bad_numeric_list_is_parameter_error(self, tmp_path, capsys, args):
        assert run(args + ["--n", 9, "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "[a, b]" in err and "start:step:stop" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,config,message", [
        (["--etas", "1:0:2"], "", "zero step in range '1:0:2'"),
        (["--etas", "2:1:1"], "", "empty range '2:1:1'"),
        ([], "n 9", "line 1: expected 'key = value'"),
        ([], "= 9", "line 1: empty key"),
        ([], "blocks = abc", "bad value for blocks: 'abc'"),
        # int() would run 12 blocks
        ([], "blocks = 12.5", "bad value for blocks: 12.5"),
    ])
    def test_malformed_value_or_line_is_error(
        self, tmp_path, capsys, flags, config, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        out = tmp_path / "x.csv"
        assert run(["s2i", "--config", cfg, "--n", 9, "--out", out, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "1e400:1:2", "-1e400:1:2", "0:1e400:2", "0:-1e400:2", "0:1:1e400",
        "0:1:-1e400",
    ])
    def test_non_finite_range_bound_is_error(self, text):
        # an infinite start or stop overflowed int(), and an infinite step
        # gave the one value 0 * inf = nan
        with pytest.raises(ParameterError, match="non-finite bound in range"):
            parse_value(text)

    @pytest.mark.parametrize("text", ["-1e308:1e-308:1e308", "0:1:1000000"])
    def test_range_of_over_a_million_values_is_error(self, text):
        # the count is a float, checked before int() and arange: the first
        # one's is inf, which overflowed int()
        with pytest.raises(
            ParameterError, match=f"^range '{text}' holds more than 1000000 values$"
        ):
            parse_value(text)

    def test_range_of_a_million_values_accepted(self):
        values = parse_value("0:1:999999")
        assert len(values) == 10**6
        assert values[0] == 0.0 and values[-1] == 999999.0

    def test_overflowing_range_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["s2i", "--n", 16, "--etas=-1e308:1e-308:1e308", "--out", "x.csv"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: range '-1e308:1e-308:1e308' holds more than 1000000 values\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args,config,text", [
        (["s2i", "--n", 16, "--etas", "1e400:1:2"], "", "1e400:1:2"),
        (["scan-halfshift", "--scheme", "ofdm", "--n", 9, "--taus=-1e400:1:0.5"],
         "", "-1e400:1:0.5"),
        (["ser", "--channel", "cdlc200ns", "--snrs=1e400:1:2"], "", "1e400:1:2"),
        (["s2i", "--n", 16], "etas: 1e400:1:2", "1e400:1:2"),
        (["ser", "--channel", "chan.txt", "--n", 16], "", "1e400:1:2"),
    ])
    def test_non_finite_range_exits_2(
        self, tmp_path, monkeypatch, capsys, args, config, text
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "chan.txt").write_text("delays_samples: 1e400:1:2\ndecay: 0.5\n")
        (tmp_path / "run.cfg").write_text(config + "\n")
        assert run([*args, "--config", "run.cfg", "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: non-finite bound in range {text!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.txt", "run.cfg"]

    @pytest.mark.parametrize("scheme", ["none", "ofdma"])
    def test_unknown_scheme_is_error(self, tmp_path, capsys, scheme):
        # "none" was an undocumented alias of ofdm
        out = tmp_path / "x.csv"
        assert run(["basis", "--scheme", scheme, "--n", 9, "--out", out]) == 2
        assert f"unknown scheme '{scheme}'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_channel_name(self, tmp_path):
        assert run([
            "s2i", "--channel", "bogus", "--n", 9, "--etas", "1.0",
            "--out", tmp_path / "x.csv",
        ]) == 2


class TestCommandTable:
    OPTIONS = {
        "dpss": ["--n", "--w", "--k"],
        "basis": ["--scheme", "--n", "--m"],
        "xcorr": ["--scheme", "--n", "--m"],
        "ebct": ["--scheme", "--n", "--m"],
        "bound": ["--scheme", "--n", "--m", "--channel", "--prefix", "--blocks"],
        "s2i": [
            "--schemes", "--etas", "--channel", "--n", "--prefix", "--blocks",
            "--no-bound",
        ],
        "ser": [
            "--preset", "--schemes", "--etas", "--channel", "--delay-spread",
            "--pdelta", "--n", "--snrs", "--trials", "--seed", "--prefix",
        ],
        "scan-halfshift": ["--scheme", "--n", "--m", "--taus"],
    }

    def test_option_strings_pinned(self):
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == list(self.OPTIONS)
        for command, options in self.OPTIONS.items():
            found = [s for a in sub.choices[command]._actions for s in a.option_strings]
            assert found == ["-h", "--help", "--config", "--out"] + options

    @pytest.mark.parametrize("command", ["dpss", "basis", "xcorr", "ebct", "bound"])
    def test_missing_n_is_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert run([command, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing n")
        assert not out.exists()

    # The library names the CLI must look up in its own namespace at call
    # time, so that wrapping them there (as a tracer does) sees every call.
    CALLS = [
        ("default_basis", ["basis", "--n", 5]),
        ("xcorr_tensor", ["xcorr", "--n", 5]),
        ("s2i_sweep", ["bound", "--n", 24, "--blocks", 3]),
        ("s2i_sweep", ["s2i", "--n", 17, "--etas", "[1.0]", "--blocks", 3]),
        ("ebct_all", ["ebct", "--n", 5]),
        ("half_shift_worst_case_scan", ["scan-halfshift", "--n", 3, "--taus", "[0.5]"]),
        ("write_csv", ["dpss", "--n", 5]),
    ]

    @pytest.mark.parametrize("name,args", CALLS)
    def test_module_globals_looked_up_at_call_time(
        self, tmp_path, monkeypatch, pin_cpus, name, args
    ):
        pin_cpus(1)  # one process, so that every call is counted here
        calls = []
        original = getattr(cli, name)

        def counted(*a, **kw):
            calls.append(1)
            return original(*a, **kw)

        monkeypatch.setattr(cli, name, counted)
        assert run(args + ["--out", tmp_path / "x.csv"]) == 0
        assert calls


class TestModuleEntry:
    """``python -m precofdm`` runs the ``precofdm`` command: the same
    ``cli.main``, whose return code is the process' exit code."""

    @staticmethod
    def python_m(*args):
        src = str(Path(precofdm.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "precofdm", *args],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_version_exits_zero(self):
        done = self.python_m("--version")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == precofdm.__version__

    def test_parameter_error_exits_two(self, tmp_path):
        out = tmp_path / "s2i.csv"
        done = self.python_m("s2i", "--n", "16", "--etas", "[1.0]", "--out", str(out))
        assert done.returncode == 2
        assert done.stderr == "error: prefix_len 16 must be shorter than the symbol (16)\n"
        assert not out.exists()
