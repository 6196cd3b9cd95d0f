"""Command-line interface.

Subcommands: dpss, basis, xcorr, ebct, bound, s2i, ser, scan-halfshift.
Every subcommand is deterministic given its flags, config file, and seed;
outputs are CSV with a header row, '.' decimals, LF endings, and floats
printed with 12 significant digits.  Flags override config-file values.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channel import (
    ChannelSpec,
    builtin_channel_spec,
    load_channel_profile,
    prefix_length_for,
)
from .configio import load_kv_file, parse_value
from .dpss import DpssParams, compute_dpss
from .errors import ParameterError
from .isimetrics import (
    ebct_all,
    ebct_bound_all,
    half_shift_worst_case_scan,
    isi_bound,
    s2i_sweep,
    signal_isi_energies,
    xcorr_tensor,
)
from .linksim import FrameConfig, run_ser
from .waveform import PrecodingScheme, PrefixKind, default_basis, with_prefix

_SCHEME_ALIASES = {
    "ofdm": PrecodingScheme.OFDM,
    "none": PrecodingScheme.OFDM,
    "dft": PrecodingScheme.DFT,
    "scfdma": PrecodingScheme.DFT,
    "dpss": PrecodingScheme.DPSS,
}


def _scheme(name: str) -> PrecodingScheme:
    try:
        return _SCHEME_ALIASES[name.strip().lower()]
    except KeyError:
        raise ParameterError(
            f"unknown scheme {name!r}; use ofdm, dft/scfdma, or dpss"
        ) from None


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise ParameterError(f"config file {path} does not exist")
    return load_kv_file(path)


def _resolve(args, config: dict, key: str, default=None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _channel_from_name(name: str) -> tuple[ChannelSpec, int | None]:
    try:
        return builtin_channel_spec(name), None
    except ParameterError:
        if os.path.exists(name):
            return load_channel_profile(name)
        raise ParameterError(
            f"channel {name!r} is neither a builtin name nor a profile file"
        ) from None


def _as_float_list(value) -> list[float]:
    if isinstance(value, str):
        value = parse_value(value)
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, list):
        try:
            return [float(v) for v in value]
        except ValueError:
            pass
    raise ParameterError(
        f"bad numeric list {value!r}; use a number, [a, b] or start:step:stop"
    )


def _as_int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParameterError(f"{key} must be an integer, got {value!r}") from None


def _verify_basis(basis) -> None:
    o = basis.o_matrix
    gram = o.conj().T @ o
    err = np.max(np.abs(gram - np.eye(basis.m_active)))
    if err > 1e-10:
        raise ParameterError(f"basis orthonormality check failed: {err:.2e}")


def _verify_tensor(tensor) -> None:
    sym = tensor.values - np.conj(np.transpose(tensor.values[:, :, ::-1], (1, 0, 2)))
    if np.max(np.abs(sym)) > 1e-12:
        raise ParameterError("tensor lag symmetry check failed")
    diag = np.array([tensor.lag(r, r, 0) for r in range(tensor.m)])
    if np.max(np.abs(diag - 1.0)) > 1e-10:
        raise ParameterError("tensor unit-diagonal check failed")


def cmd_dpss(args) -> int:
    cfg = _load_config(args.config)
    n = int(_resolve(args, cfg, "n"))
    w = float(_resolve(args, cfg, "w", 0.5))
    k = int(_resolve(args, cfg, "k", n))
    out = _resolve(args, cfg, "out", "dpss.csv")
    dset = compute_dpss(DpssParams(n_len=n, half_bandwidth=w, count=k))
    header = ["order", "eigenvalue"] + [f"c{i}" for i in range(n)]
    rows = [
        [l, dset.eigenvalues[l]] + list(dset.sequences[:, l]) for l in range(k)
    ]
    write_csv(out, header, rows)
    print(f"wrote {out} ({k} sequences, N={n}, W={_fmt(w)})")
    return 0


def cmd_basis(args) -> int:
    cfg = _load_config(args.config)
    scheme = _scheme(_resolve(args, cfg, "scheme", "ofdm"))
    n = int(_resolve(args, cfg, "n"))
    m = int(_resolve(args, cfg, "m", n))
    out = _resolve(args, cfg, "out", "basis.csv")
    basis = default_basis(scheme, n, m)
    if args.verify:
        _verify_basis(basis)
    rows = [
        (c, i, basis.o_matrix[i, c].real, basis.o_matrix[i, c].imag)
        for c in range(m)
        for i in range(n)
    ]
    write_csv(out, ["component", "sample", "re", "im"], rows)
    print(f"wrote {out} ({scheme.value}, N={n}, M={m})")
    return 0


def cmd_xcorr(args) -> int:
    cfg = _load_config(args.config)
    scheme = _scheme(_resolve(args, cfg, "scheme", "ofdm"))
    n = int(_resolve(args, cfg, "n"))
    m = int(_resolve(args, cfg, "m", n))
    out = _resolve(args, cfg, "out", "xcorr.csv")
    tensor = xcorr_tensor(default_basis(scheme, n, m))
    if args.verify:
        _verify_tensor(tensor)
    rows = [
        (r, s, q, tensor.lag(r, s, q).real, tensor.lag(r, s, q).imag)
        for r in range(m)
        for s in range(m)
        for q in range(-(n - 1), n)
    ]
    write_csv(out, ["r", "s", "q", "re", "im"], rows)
    print(f"wrote {out} ({m * m * (2 * n - 1)} entries)")
    return 0


def cmd_ebct(args) -> int:
    cfg = _load_config(args.config)
    scheme = _scheme(_resolve(args, cfg, "scheme", "ofdm"))
    n = int(_resolve(args, cfg, "n"))
    m = int(_resolve(args, cfg, "m", n))
    out = _resolve(args, cfg, "out", "ebct.csv")
    basis = default_basis(scheme, n, m)
    tensor = xcorr_tensor(basis)
    if args.verify:
        _verify_basis(basis)
        _verify_tensor(tensor)
    values = ebct_all(tensor)
    bounds = ebct_bound_all(tensor)
    rows = [
        (scheme.value, n, m, r, s, values[r, s], bounds[r, s])
        for r in range(m)
        for s in range(m)
    ]
    write_csv(out, ["scheme", "N", "M", "r", "s", "ebct", "bound"], rows)
    print(f"wrote {out} ({m * m} pairs)")
    return 0


def cmd_bound(args) -> int:
    cfg = _load_config(args.config)
    scheme = _scheme(_resolve(args, cfg, "scheme", "ofdm"))
    n = int(_resolve(args, cfg, "n"))
    m = int(_resolve(args, cfg, "m", n))
    channel, _ = _channel_from_name(_resolve(args, cfg, "channel", "mild"))
    prefix = _resolve(args, cfg, "prefix")
    prefix = prefix_length_for(channel) if prefix is None else int(prefix)
    blocks = int(_resolve(args, cfg, "blocks", 12))
    out = _resolve(args, cfg, "out", "bound.csv")
    basis = default_basis(scheme, n, m)
    pref = with_prefix(basis, prefix, PrefixKind.ZERO)
    signal, empirical = signal_isi_energies(pref, pref, channel, blocks)
    report = isi_bound(
        xcorr_tensor(basis), channel, prefix,
        empirical=empirical, signal_energy=signal,
    )
    s2i = report.s2i_db if report.s2i_db is not None else float("inf")
    lower = (
        10.0 * math.log10(signal / report.total_bound)
        if report.total_bound > 0
        else float("inf")
    )
    write_csv(
        out,
        [
            "scheme", "N", "M", "tap_model", "prefix_len",
            "total_bound", "empirical_isi", "s2i_db", "s2i_lower_bound_db",
        ],
        [
            (
                scheme.value, n, m, channel.name, prefix,
                report.total_bound, empirical, s2i, lower,
            )
        ],
    )
    if args.verify and report.total_bound < empirical:
        raise ParameterError("ISI bound fell below the empirical energy")
    print(f"wrote {out}")
    return 0


def cmd_s2i(args) -> int:
    cfg = _load_config(args.config)
    schemes = [
        _scheme(s)
        for s in str(_resolve(args, cfg, "schemes", "ofdm,dft,dpss")).split(",")
    ]
    etas = _as_float_list(_resolve(args, cfg, "etas", [1.0]))
    channel, _ = _channel_from_name(_resolve(args, cfg, "channel", "mild"))
    n = int(_resolve(args, cfg, "n", 128))
    prefix = _resolve(args, cfg, "prefix")
    prefix = prefix_length_for(channel) if prefix is None else int(prefix)
    blocks = int(_resolve(args, cfg, "blocks", 12))
    out = _resolve(args, cfg, "out", "s2i.csv")
    rows = s2i_sweep(
        schemes,
        etas,
        channel,
        n,
        prefix,
        prefix_kind=PrefixKind.ZERO,
        n_blocks=blocks,
        include_bound=not args.no_bound,
    )
    write_csv(
        out,
        ["scheme", "eta", "tap_model", "s2i_db", "s2i_lower_bound_db"],
        [
            (
                p.scheme, p.eta, p.tap_model, p.s2i_db,
                p.s2i_lower_bound_db if p.s2i_lower_bound_db is not None else "",
            )
            for p in rows
        ],
    )
    if args.plot_data:
        stem, ext = os.path.splitext(out)
        write_csv(
            stem + "_plotdata" + ext,
            ["figure", "series", "x", "y"],
            [
                ("s2i_vs_utilization", p.scheme, 100.0 * p.eta, p.s2i_db)
                for p in rows
            ],
        )
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_ser(args) -> int:
    cfg = _load_config(args.config)
    preset = _resolve(args, cfg, "preset")
    defaults = {}
    if preset == "table1":
        defaults = {"n": 128, "trials": 200, "snrs": "0:5:40"}
    elif preset:
        raise ParameterError(f"unknown preset {preset!r}")

    spread = _resolve(args, cfg, "delay-spread")
    channel_name = _resolve(args, cfg, "channel")
    if channel_name is None:
        if spread is None:
            raise ParameterError("give --channel or --delay-spread")
        ns = float(str(spread).replace("ns", ""))
        channel_name = f"cdlc{int(ns)}ns"
    channel, profile_seed = _channel_from_name(str(channel_name))

    schemes = [
        _scheme(s)
        for s in str(_resolve(args, cfg, "schemes", "ofdm,dft,dpss")).split(",")
    ]
    etas = _as_float_list(_resolve(args, cfg, "etas", [1.0]))
    n = int(_resolve(args, cfg, "n", defaults.get("n", 128)))
    trials = int(_resolve(args, cfg, "trials", defaults.get("trials", 200)))
    snrs = np.asarray(
        _as_float_list(_resolve(args, cfg, "snrs", defaults.get("snrs", "0:5:40")))
    )
    pdelta = float(_resolve(args, cfg, "pdelta", 0.0))
    seed = _resolve(args, cfg, "seed")
    seed = int(seed) if seed is not None else (profile_seed or 0)
    prefix = _resolve(args, cfg, "prefix")
    prefix = prefix_length_for(channel) if prefix is None else int(prefix)
    half_len = _resolve(args, cfg, "half-len", 64)
    if str(half_len).lower() in {"none", "full"}:
        half_len = None
    else:
        half_len = _as_int(half_len, "half-len")
    threads = _as_int(_resolve(args, cfg, "threads", 1), "threads")
    out = _resolve(args, cfg, "out", "ser.csv")

    spread_ns = channel.rms_delay_spread_ns
    rows = []
    manifest_runs = []
    for scheme in schemes:
        for eta in etas:
            frame = FrameConfig(
                scheme=scheme,
                eta=eta,
                n_len=n,
                prefix_len=prefix,
                p_delta_db=pdelta,
            )
            curve = run_ser(
                frame, channel, snrs, n_trials=trials, base_seed=seed,
                half_len=half_len, threads=threads,
            )
            for pt in curve.points:
                rows.append(
                    (
                        scheme.value, frame.m_active / n, pdelta, spread_ns,
                        pt.snr_db, pt.ser, pt.trials, pt.total_symbols,
                    )
                )
            manifest_runs.append(
                {
                    "scheme": scheme.value,
                    "eta": frame.m_active / n,
                    "m_active": frame.m_active,
                    "snr_grid_db": list(map(float, snrs)),
                }
            )
    write_csv(
        out,
        [
            "scheme", "eta", "p_delta_db", "delay_spread_ns",
            "snr_db", "ser", "trials", "total_symbols",
        ],
        rows,
    )
    manifest = {
        "tool": f"precofdm {__version__}",
        "channel": channel.name,
        "n_len": n,
        "prefix_len": prefix,
        "prefix_kind": "cyclic",
        "p_delta_db": pdelta,
        "trials": trials,
        "base_seed": seed,
        "trial_seeds": f"{seed}..{seed + trials - 1}",
        "half_len": half_len,
        "runs": manifest_runs,
    }
    with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} and {out}.manifest.json")
    return 0


def cmd_scan_halfshift(args) -> int:
    cfg = _load_config(args.config)
    scheme = _scheme(_resolve(args, cfg, "scheme", "ofdm"))
    n = int(_resolve(args, cfg, "n", 9))
    m = int(_resolve(args, cfg, "m", n))
    taus = np.asarray(_as_float_list(_resolve(args, cfg, "taus", "0.05:0.05:0.95")))
    out = _resolve(args, cfg, "out", "halfshift.csv")
    tensor = xcorr_tensor(default_basis(scheme, n, m))
    rows = []
    at_half = 0
    for r in range(m):
        for s in range(m):
            argmax, curve = half_shift_worst_case_scan(tensor, r, s, taus)
            rows.extend(
                (scheme.value, n, m, r, s, t, e) for t, e in zip(taus, curve)
            )
            if abs(argmax - 0.5) < 1e-12:
                at_half += 1
    write_csv(out, ["scheme", "N", "M", "r", "s", "tau", "tail_energy"], rows)
    print(
        f"wrote {out}; argmax at tau=0.5 for {at_half}/{m * m} pairs"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precofdm",
        description="Precoded-OFDM ISI analysis and link simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--verify", action="store_true", help="run invariant checks")
        p.add_argument("--out", help="output CSV path")

    p = sub.add_parser("dpss", help="export a DPSS set")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--w", type=float)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_dpss)

    p = sub.add_parser("basis", help="export an effective waveform basis")
    common(p)
    p.add_argument("--scheme")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("xcorr", help="export a cross-correlation tensor")
    common(p)
    p.add_argument("--scheme")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_xcorr)

    p = sub.add_parser("ebct", help="band-limited correlation tail energies")
    common(p)
    p.add_argument("--scheme")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_ebct)

    p = sub.add_parser("bound", help="ISI energy bound for a channel")
    common(p)
    p.add_argument("--scheme")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--channel")
    p.add_argument("--prefix", type=int)
    p.add_argument("--blocks", type=int)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("s2i", help="signal-to-ISI sweep over utilization")
    common(p)
    p.add_argument("--schemes")
    p.add_argument("--etas")
    p.add_argument("--channel")
    p.add_argument("--n", type=int)
    p.add_argument("--prefix", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--no-bound", action="store_true")
    p.add_argument("--plot-data", action="store_true")
    p.set_defaults(func=cmd_s2i)

    p = sub.add_parser("ser", help="multi-user SER campaign")
    common(p)
    p.add_argument("--preset")
    p.add_argument("--schemes")
    p.add_argument("--etas")
    p.add_argument("--channel")
    p.add_argument("--delay-spread")
    p.add_argument("--pdelta", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--snrs")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--prefix", type=int)
    p.add_argument("--half-len")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_ser)

    p = sub.add_parser("scan-halfshift", help="tail energy vs fractional shift")
    common(p)
    p.add_argument("--scheme")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--taus")
    p.set_defaults(func=cmd_scan_halfshift)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
