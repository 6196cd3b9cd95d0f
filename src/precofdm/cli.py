"""Command-line interface.

Subcommands: dpss, basis, xcorr, ebct, bound, s2i, ser, scan-halfshift.
Every subcommand is deterministic given its flags, config file, and seed;
outputs are CSV with a header row, '.' decimals, LF endings, and floats
printed with 12 significant digits.  Flags override config-file values.
Each subcommand checks its invariants before it writes anything, and a
failed check is a ``ParameterError`` (exit code 2) that leaves no file.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .channel import (
    DEFAULT_FIR_HALF_LEN,
    ChannelSpec,
    builtin_channel_spec,
    cdlc_channel_spec,
    load_channel_profile,
    prefix_length_for,
)
from .configio import load_kv_file, parse_value
from .dpss import DpssParams, compute_dpss
from .errors import ParameterError
from .isimetrics import (
    DEFAULT_BLOCK_WINDOW,
    _ratio_db,
    _span_energies,
    ebct_all,
    ebct_bound_all,  # not called here, but perfbench's tracer wraps cli.ebct_bound_all
    half_shift_worst_case_scan,
    isi_bound,  # not called here, but perfbench's tracer wraps cli.isi_bound
    s2i_sweep,
    signal_isi_energies,  # not called here, but perfbench's tracer wraps it in cli
    xcorr_tensor,
)
from .linksim import FrameConfig, run_ser
from .waveform import (
    PrecodingScheme, PrefixKind, _check_orthonormal, default_basis, with_prefix
)

_SCHEME_ALIASES = {
    "ofdm": PrecodingScheme.OFDM,
    "dft": PrecodingScheme.DFT,
    "scfdma": PrecodingScheme.DFT,
    "dpss": PrecodingScheme.DPSS,
}


def _scheme(name) -> PrecodingScheme:
    try:
        return _SCHEME_ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ParameterError(
            f"unknown scheme {name!r}; use ofdm, dft/scfdma, or dpss"
        ) from None


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")  # inf, -inf and nan included
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    """Quotes only a field that holds a comma, a quote or a line break."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_fmt, row) for row in rows)


def _channel(name) -> tuple:
    """A builtin channel name or a profile file: (spec, profile seed or None)."""
    name = str(name)
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
    if isinstance(value, list) and value:
        try:
            return [float(v) for v in value]
        except ValueError:
            pass
    raise ParameterError(
        f"bad numeric list {value!r}; use a number, [a, b] or start:step:stop"
    )


def _verify_tensor(tensor) -> None:
    sym = tensor.values - np.conj(np.transpose(tensor.values[:, :, ::-1], (1, 0, 2)))
    if np.max(np.abs(sym)) > 1e-12:
        raise ParameterError("tensor lag symmetry check failed")
    diag = np.diagonal(tensor.values[:, :, tensor.n_len - 1])
    if np.max(np.abs(diag - 1.0)) > 1e-10:
        raise ParameterError("tensor unit-diagonal check failed")


def cmd_dpss(v) -> None:
    dset = compute_dpss(DpssParams(n_len=v.n, half_bandwidth=v.w, count=v.k))
    _check_orthonormal(dset.sequences)
    header = ["order", "eigenvalue"] + [f"c{i}" for i in range(v.n)]
    rows = [
        [l, dset.eigenvalues[l]] + list(dset.sequences[:, l]) for l in range(v.k)
    ]
    write_csv(v.out, header, rows)
    print(f"wrote {v.out} ({v.k} sequences, N={v.n}, W={_fmt(v.w)})")


def cmd_basis(v) -> None:
    basis = default_basis(v.scheme, v.n, v.m)
    rows = [
        (c, i, basis.o_matrix[i, c].real, basis.o_matrix[i, c].imag)
        for c in range(v.m)
        for i in range(v.n)
    ]
    write_csv(v.out, ["component", "sample", "re", "im"], rows)
    print(f"wrote {v.out} ({v.scheme.value}, N={v.n}, M={v.m})")


def cmd_xcorr(v) -> None:
    n, m = v.n, v.m
    tensor = xcorr_tensor(default_basis(v.scheme, n, m))
    _verify_tensor(tensor)
    rows = [
        (r, s, q, c.real, c.imag)
        for r in range(m)
        for s in range(m)
        for q, c in zip(range(-(n - 1), n), tensor.values[r, s])
    ]
    write_csv(v.out, ["r", "s", "q", "re", "im"], rows)
    print(f"wrote {v.out} ({m * m * (2 * n - 1)} entries)")


def cmd_ebct(v) -> None:
    tensor = xcorr_tensor(default_basis(v.scheme, v.n, v.m))
    _verify_tensor(tensor)
    # the exact tail is its own bound (ebct_bound_all is ebct_all), so one
    # array fills both columns
    values = ebct_all(tensor)
    rows = [
        (v.scheme.value, v.n, v.m, r, s, values[r, s], values[r, s])
        for r in range(v.m)
        for s in range(v.m)
    ]
    write_csv(v.out, ["scheme", "N", "M", "r", "s", "ebct", "bound"], rows)
    print(f"wrote {v.out} ({v.m * v.m} pairs)")


def cmd_bound(v) -> None:
    channel, _ = v.channel
    pref = with_prefix(default_basis(v.scheme, v.n, v.m), v.prefix, PrefixKind.ZERO)
    signal, empirical, total = _span_energies(pref, channel, v.blocks, True)
    if total < empirical:
        raise ParameterError("ISI bound fell below the empirical energy")
    write_csv(
        v.out,
        [
            "scheme", "N", "M", "tap_model", "prefix_len",
            "total_bound", "empirical_isi", "s2i_db", "s2i_lower_bound_db",
        ],
        [
            (
                v.scheme.value, v.n, v.m, channel.name, v.prefix, total,
                empirical, _ratio_db(signal, empirical), _ratio_db(signal, total),
            )
        ],
    )
    print(f"wrote {v.out}")


def cmd_s2i(v) -> None:
    rows = s2i_sweep(
        v.schemes,
        v.etas,
        v.channel[0],
        v.n,
        v.prefix,
        n_blocks=v.blocks,
        include_bound=not v.no_bound,
    )
    for p in rows:
        if p.s2i_lower_bound_db is not None and p.s2i_lower_bound_db > p.s2i_db:
            raise ParameterError(
                f"S2I lower bound {p.s2i_lower_bound_db:.6g} dB above "
                f"S2I {p.s2i_db:.6g} dB ({p.scheme}, eta={p.eta:.6g})"
            )
    write_csv(
        v.out,
        ["scheme", "eta", "tap_model", "s2i_db", "s2i_lower_bound_db"],
        [
            (
                p.scheme, p.eta, p.tap_model, p.s2i_db,
                p.s2i_lower_bound_db if p.s2i_lower_bound_db is not None else "",
            )
            for p in rows
        ],
    )
    print(f"wrote {v.out} ({len(rows)} rows)")


def _spread_channel(text) -> ChannelSpec:
    """The CDL-C profile scaled to a delay spread in ns ('1000ns' or '1000')."""
    try:
        return cdlc_channel_spec(float(str(text).strip().removesuffix("ns")))
    except ValueError:  # ParameterError included
        raise ParameterError(
            f"delay spread {text!r} must be a positive number of ns, e.g. 1000ns"
        ) from None


def cmd_ser(v) -> None:
    if v.preset not in (None, "table1"):  # table1's values are the defaults
        raise ParameterError(f"unknown preset {v.preset!r}")
    if (v.channel is None) == (v.delay_spread is None):
        raise ParameterError("give exactly one of --channel and --delay-spread")
    channel, profile_seed = v.channel or (_spread_channel(v.delay_spread), None)
    n, trials, snrs, pdelta = v.n, v.trials, v.snrs, v.pdelta
    seed = (profile_seed or 0) if v.seed is None else v.seed
    prefix = prefix_length_for(channel) if v.prefix is None else v.prefix
    spread_ns = channel.rms_delay_spread_ns
    rows = []
    manifest_runs = []
    for scheme in v.schemes:
        for eta in v.etas:
            frame = FrameConfig(
                scheme=scheme,
                eta=eta,
                n_len=n,
                prefix_len=prefix,
                p_delta_db=pdelta,
            )
            points = run_ser(frame, channel, snrs, n_trials=trials, base_seed=seed)
            for pt in points:
                rows.append(
                    (
                        scheme.value, frame.m_active / n, pdelta, spread_ns,
                        pt.snr_db, pt.ser, pt.trials, pt.total_symbols,
                    )
                )
            # a trial counts 14 x M victim symbols at each point it did not skip
            per_trial = frame.symbols_per_subframe * frame.m_active
            manifest_runs.append(
                {
                    "scheme": scheme.value,
                    "eta": frame.m_active / n,
                    "m_active": frame.m_active,
                    "snr_grid_db": list(map(float, snrs)),
                    "skipped_trials": [
                        trials - pt.total_symbols // per_trial for pt in points
                    ],
                }
            )
    write_csv(
        v.out,
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
        "half_len": DEFAULT_FIR_HALF_LEN,
        "runs": manifest_runs,
    }
    with open(v.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {v.out} and {v.out}.manifest.json")


def cmd_scan_halfshift(v) -> None:
    tensor = xcorr_tensor(default_basis(v.scheme, v.n, v.m))
    _verify_tensor(tensor)
    r, s = np.divmod(np.arange(v.m * v.m), v.m)
    argmax, curves = half_shift_worst_case_scan(tensor, r, s, v.taus)
    rows = [
        (v.scheme.value, v.n, v.m, int(r[i]), int(s[i]), t, e)
        for i, curve in enumerate(curves)
        for t, e in zip(v.taus, curve)
    ]
    at_half = int(np.count_nonzero(np.abs(argmax - 0.5) < 1e-12))
    write_csv(v.out, ["scheme", "N", "M", "r", "s", "tau", "tail_energy"], rows)
    print(
        f"wrote {v.out}; argmax at tau=0.5 for {at_half}/{v.m * v.m} pairs"
    )


# Options as (name, converter, default).  A value comes from the flag, else
# the config file, else the default; ``REQUIRED`` has none, and a callable
# default is computed from the values resolved before it.  ``int`` and
# ``float`` options are typed flags, ``bool`` ones are switches.  A config
# file may set every option but the switches, and no other key.
REQUIRED = object()
_N = ("n", int, REQUIRED)
_M = ("m", int, lambda v: v.n)
_SCHEME = ("scheme", _scheme, "ofdm")
_SCHEMES = (
    "schemes", lambda names: [_scheme(s) for s in str(names).split(",")],
    "ofdm,dft,dpss",
)
_ETAS = ("etas", _as_float_list, [1.0])
_PREFIX = ("prefix", int, lambda v: prefix_length_for(v.channel[0]))
_BLOCKS = ("blocks", int, DEFAULT_BLOCK_WINDOW)

# Subcommand: (help line, handler, default output file, options).  The
# common --config and --out come first.
COMMANDS = {
    "dpss": ("export a DPSS set", cmd_dpss, "dpss.csv", [
        _N, ("w", float, 0.5), ("k", int, lambda v: v.n),
    ]),
    "basis": ("export an effective waveform basis", cmd_basis, "basis.csv", [
        _SCHEME, _N, _M,
    ]),
    "xcorr": ("export a cross-correlation tensor", cmd_xcorr, "xcorr.csv", [
        _SCHEME, _N, _M,
    ]),
    "ebct": ("band-limited correlation tail energies", cmd_ebct, "ebct.csv", [
        _SCHEME, _N, _M,
    ]),
    "bound": ("ISI energy bound for a channel", cmd_bound, "bound.csv", [
        _SCHEME, _N, _M, ("channel", _channel, "mild"), _PREFIX, _BLOCKS,
    ]),
    "s2i": ("signal-to-ISI sweep over utilization", cmd_s2i, "s2i.csv", [
        _SCHEMES, _ETAS, ("channel", _channel, "mild"), ("n", int, 128),
        _PREFIX, _BLOCKS, ("no-bound", bool, False),
    ]),
    "ser": ("multi-user SER campaign", cmd_ser, "ser.csv", [
        ("preset", str, None), _SCHEMES, _ETAS, ("channel", _channel, None),
        ("delay-spread", str, None), ("pdelta", float, 0.0), ("n", int, 128),
        ("snrs", _as_float_list, "0:5:40"), ("trials", int, 200),
        ("seed", int, None), ("prefix", int, None),
    ]),
    "scan-halfshift": (
        "tail energy vs fractional shift", cmd_scan_halfshift, "halfshift.csv",
        [_SCHEME, ("n", int, 9), _M, ("taus", _as_float_list, "0.05:0.05:0.95")],
    ),
}


def _resolve(args) -> argparse.Namespace:
    """The subcommand's option values, converted; ``ParameterError`` if bad."""
    if args.config and not os.path.exists(args.config):
        raise ParameterError(f"config file {args.config} does not exist")
    config = load_kv_file(args.config) if args.config else {}
    settable = {key for key, convert, _ in args.options if convert is not bool}
    if unknown := ", ".join(sorted(set(config) - settable)):
        raise ParameterError(
            f"config file {args.config}: unknown key(s) {unknown} for {args.command}"
        )
    v = argparse.Namespace()
    for key, convert, default in args.options:
        attr = key.replace("-", "_")
        value = getattr(args, attr)
        if value is None:
            value = config.get(key, default)
        if value is REQUIRED:
            raise ParameterError(f"missing {key}: give --{key} or set it in --config")
        if value is default and callable(default):
            value = default(v)
        elif value is not None:
            try:
                if convert is int and isinstance(value, float):
                    raise ValueError  # int() would truncate a config's 9.5 to 9
                value = convert(value)
            except ParameterError:
                raise
            except (TypeError, ValueError):
                raise ParameterError(f"bad value for {key}: {value!r}") from None
        setattr(v, attr, value)
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precofdm",
        description="Precoded-OFDM ISI analysis and link simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, out, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output CSV path")
        for key, convert, _ in options:
            if convert is bool:
                p.add_argument("--" + key, action="store_true")
            else:
                typed = convert if convert in (int, float) else None
                p.add_argument("--" + key, type=typed)
        p.set_defaults(func=handler, options=[("out", str, out)] + options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(_resolve(args))
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
