"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public names in the module namespaces that call
them (and two ``ChannelOperator`` methods on the class) with timing
wrappers; nothing under ``src/`` changes.  Each wrapper records calls, busy
time and the busy time of wrapped calls nested inside it (so self time is
busy minus nested), plus a few counters that describe the work done.
Everything stays in memory until ``metrics`` / ``dump`` at the end.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

from precofdm import channel, cli, isimetrics, linksim, waveform

# (object that holds the name, attribute, span name).  The holder is the
# namespace that calls the function, so that calls made inside the package
# pass through the wrapper too.
SPANS = [
    (waveform, "dpss_limit_half", "dpss.dpss_limit_half"),
    (cli, "default_basis", "waveform.default_basis"),
    (isimetrics, "default_basis", "waveform.default_basis"),
    (linksim, "default_basis", "waveform.default_basis"),
    (cli, "xcorr_tensor", "isimetrics.xcorr_tensor"),
    (isimetrics, "xcorr_tensor", "isimetrics.xcorr_tensor"),
    (isimetrics, "isi_gram", "isimetrics.isi_gram"),
    (cli, "signal_isi_energies", "isimetrics.signal_isi_energies"),
    (isimetrics, "signal_isi_energies", "isimetrics.signal_isi_energies"),
    (cli, "isi_bound", "isimetrics.isi_bound"),
    (isimetrics, "isi_bound", "isimetrics.isi_bound"),
    (cli, "ebct_all", "isimetrics.ebct_all"),
    (cli, "ebct_bound_all", "isimetrics.ebct_bound_all"),
    (cli, "half_shift_worst_case_scan", "isimetrics.half_shift_worst_case_scan"),
    (linksim, "realize", "channel.realize"),
    (channel.ChannelOperator, "apply", "channel.ChannelOperator.apply"),
    (channel.ChannelOperator, "block", "channel.ChannelOperator.block"),
    (linksim, "run_trial", "linksim.run_trial"),
    (linksim, "build_frame", "linksim.build_frame"),
    (linksim, "equalize_and_detect", "linksim.equalize_and_detect"),
    (cli, "write_csv", "cli.write_csv"),
    (cli, "main", "cli.main"),
]

# The per-tail-window helper of ``isi_bound``; counted, not timed.  It is
# private, so a package without it simply reports zero passes.
TAIL_HELPER = (isimetrics, "_halfshift_tail_exact")

# Per-layer metrics reported by a traced run: (name, unit, better).
METRICS = [
    ("isimetrics.isi_gram.busy_s", "s", "lower"),
    ("isimetrics.isi_gram.calls", "count", "lower"),
    ("isimetrics.isi_gram.corr_mb", "MB", "lower"),
    ("isimetrics.isi_bound.busy_s", "s", "lower"),
    ("isimetrics.isi_bound.tail_passes", "count", "lower"),
    ("isimetrics.signal_isi_energies.self_s", "s", "lower"),
    ("isimetrics.xcorr_tensor.busy_s", "s", "lower"),
    ("isimetrics.ebct_all.busy_s", "s", "lower"),
    ("isimetrics.ebct_bound_all.busy_s", "s", "lower"),
    ("isimetrics.half_shift_worst_case_scan.busy_s", "s", "lower"),
    ("isimetrics.half_shift_worst_case_scan.calls", "count", "lower"),
    ("dpss.dpss_limit_half.busy_s", "s", "lower"),
    ("dpss.dpss_limit_half.calls", "count", "lower"),
    ("waveform.default_basis.self_s", "s", "lower"),
    ("channel.realize.busy_s", "s", "lower"),
    ("channel.ChannelOperator.apply.busy_s", "s", "lower"),
    ("channel.ChannelOperator.apply.calls", "count", "lower"),
    ("channel.ChannelOperator.apply.samples", "count", "lower"),
    ("channel.ChannelOperator.block.busy_s", "s", "lower"),
    ("linksim.run_trial.self_s", "s", "lower"),
    ("linksim.run_trial.calls", "count", "lower"),
    ("linksim.build_frame.busy_s", "s", "lower"),
    ("linksim.equalize_and_detect.busy_s", "s", "lower"),
    ("linksim.equalize_and_detect.calls", "count", "lower"),
    ("linksim.victim_sample_frac", "ratio", "higher"),
    ("cli.write_csv.busy_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
]


def _fractional_paths(spec) -> int:
    return sum(not float(d).is_integer() for d in spec.delays)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.nested = defaultdict(float)
        self.counts = defaultdict(float)
        self._open: list[list] = []  # [span name, busy time of nested spans]
        self._patched: list[tuple] = []

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._open)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        key = name.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if before or after:
                arguments = signature.bind(*args, **kwargs).arguments
            if before:
                before(arguments)
            frame = [name, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.nested[name] += frame[1]
                if self._open:
                    self._open[-1][1] += elapsed
            if after:
                after(arguments)
            return result

        return wrapper

    # Counters, taken from a call's arguments.
    def _before_isimetrics_isi_gram(self, a):
        m_rx, m_tx = a["rx"].base.m_active, a["tx"].base.m_active
        mb = m_rx * m_tx * (2 * a["tx"].block_len - 1) * 16 / 2**20
        self.counts["isimetrics.isi_gram.corr_mb"] = max(
            self.counts["isimetrics.isi_gram.corr_mb"], mb)

    def _before_channel_ChannelOperator_apply(self, a):
        op = a["self"]
        self.counts["channel.ChannelOperator.apply.samples"] += (
            op.stream_len * _fractional_paths(op.realization.spec))

    def _before_linksim_run_trial(self, a):
        cfg = a["cfg"]
        self.counts["linksim.victim_samples"] += (
            cfg.symbols_per_subframe * a["basis"].block_len
            * _fractional_paths(a["channel_spec"]))

    def _after_cli_write_csv(self, a):
        self.counts["cli.csv_bytes"] += os.path.getsize(a["path"])

    def install(self) -> None:
        for holder, attr, name in SPANS:
            original = getattr(holder, attr)
            self._patched.append((holder, attr, original))
            setattr(holder, attr, self._wrap(name, original))
        holder, attr = TAIL_HELPER
        if hasattr(holder, attr):
            original = getattr(holder, attr)

            @functools.wraps(original)
            def counted(*args, **kwargs):
                if self._inside("isimetrics.isi_bound"):
                    self.counts["isimetrics.isi_bound.tail_passes"] += 1
                return original(*args, **kwargs)

            self._patched.append((holder, attr, original))
            setattr(holder, attr, counted)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per timed pass.

        Totals cover everything traced, warm-up included, divided by the
        number of timed passes; ``corr_mb`` is the largest call and
        ``victim_sample_frac`` a ratio of two totals.
        """
        out = {}
        for name, unit, _ in METRICS:
            layer, _, kind = name.rpartition(".")
            if kind == "busy_s":
                value = self.busy[layer] / passes
            elif kind == "self_s":
                value = (self.busy[layer] - self.nested[layer]) / passes
            elif kind == "calls":
                value = self.calls[layer] / passes
            elif name == "isimetrics.isi_gram.corr_mb":
                value = self.counts[name]
            elif name == "linksim.victim_sample_frac":
                filtered = self.counts["channel.ChannelOperator.apply.samples"]
                victim = self.counts["linksim.victim_samples"]
                value = victim / filtered if filtered else 0.0
            else:
                value = self.counts[name] / passes
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str) -> None:
        spans = {
            name: {
                "calls": self.calls[name],
                "busy_s": self.busy[name],
                "self_s": self.busy[name] - self.nested[name],
            }
            for name in sorted(self.calls)
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
