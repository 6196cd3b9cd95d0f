"""The benchmark's workloads: the CLI invocations of one pass and their checks.

A pass is one whole round of a workload's ``precofdm`` invocations.  The
seed only orders the invocations (and picks the trial whose channel stream
is checked); the campaigns themselves are the paper's and stay fixed, so
every seed gives the same outputs and the same checks.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random

import numpy as np

import checks
import precofdm as pf
from precofdm import cli, linksim


def run_cli(argv: list[str]) -> None:
    """``precofdm <argv>`` in-process, its messages discarded; raises on failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"precofdm {' '.join(argv)} exited with {code}")


def warm_up(outdir: str) -> None:
    """One small call into every layer: imports, BLAS and FFT set-up."""
    path = os.path.join(outdir, "warmup.csv")
    for argv in (
        ["s2i", "--channel", "mild", "--n", "24", "--schemes", "ofdm,dpss",
         "--etas", "[1.0]", "--prefix", "16"],
        ["ser", "--channel", "cdlc1000ns", "--n", "32", "--schemes", "dpss",
         "--etas", "[1.0]", "--snrs", "[20]", "--trials", "1"],
        ["ebct", "--scheme", "dft", "--n", "5"],
        ["scan-halfshift", "--scheme", "ofdm", "--n", "5", "--taus", "[0.25, 0.5]"],
    ):
        run_cli(argv + ["--out", path])


def _list(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


class Workload:
    """``invocations`` make one pass; ``outputs`` are the files it writes."""

    name = ""
    units_per_pass = 0

    def __init__(self, seed: int, outdir: str):
        self.rng = random.Random(seed)
        self.seed = seed
        self.outdir = outdir
        self.invocations: list[list[str]] = []

    def path(self, stem: str) -> str:
        return os.path.join(self.outdir, stem + ".csv")

    @property
    def outputs(self) -> list[str]:
        return [argv[argv.index("--out") + 1] for argv in self.invocations]

    def check_run(self) -> list[str]:
        """Run-level checks; also computes the references ``check_pass`` uses."""
        return []

    def check_pass(self, texts: dict) -> list[str]:
        raise NotImplementedError


class S2iMild(Workload):
    """S2I sweep with the bound column on the ``mild`` channel.

    N = 64 rather than the paper's 128: one N = 128 row takes about 10 s,
    so six rows would make one pass longer than a whole run may take.  The
    paper's N = 128 anchor is checked once per run instead.
    """

    name = "s2i_mild"
    N, PREFIX, BLOCKS = 64, 16, 12
    SCHEMES = ("ofdm", "dft", "dpss")
    ETAS = (1.0, 0.95)
    units_per_pass = len(SCHEMES) * len(ETAS)

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        schemes, etas = list(self.SCHEMES), list(self.ETAS)
        self.rng.shuffle(schemes)
        self.rng.shuffle(etas)
        self.invocations = [[
            "s2i", "--channel", "mild", "--n", str(self.N),
            "--schemes", ",".join(schemes), "--etas", _list(etas),
            "--prefix", str(self.PREFIX), "--blocks", str(self.BLOCKS),
            "--out", self.path("s2i"),
        ]]
        self.m_low = math.floor(self.ETAS[1] * self.N)
        self.reference: dict = {}

    def check_run(self):
        spec = pf.mild_channel_spec()
        eta = self.m_low / self.N
        # OFDM stands for DFT too: the pass checks that the two agree.  The
        # DPSS ISI is 1e-8 of its signal, so round-off in the dense block
        # sums alone reaches a few 1e-9 dB there.
        self.reference = {
            (scheme, eta): (checks.s2i_reference_db(
                pf.default_basis(scheme, self.N, self.m_low).o_matrix,
                self.PREFIX, spec.delays, spec.powers, self.BLOCKS), tol)
            for scheme, tol in (("ofdm", 1e-9), ("dpss", 1e-7))
        }
        anchor = self.path("anchor_n128")
        run_cli(["s2i", "--channel", "mild", "--n", "128", "--schemes", "ofdm",
                 "--etas", "[1.0]", "--prefix", "16", "--no-bound",
                 "--out", anchor])
        with open(anchor, encoding="utf-8") as fh:
            return checks.check_anchor(checks.parse_csv(fh.read()))

    def check_pass(self, texts):
        (text,) = texts.values()
        return checks.check_s2i(
            checks.parse_csv(text), self.SCHEMES,
            [1.0, self.m_low / self.N], self.reference)


class SerTable1(Workload):
    """The SER campaign of acceptance criterion 9 on the 1000 ns channel."""

    name = "ser_table1"
    N, TRIALS, SYMBOLS = 128, 200, 14
    SNRS = (15.0, 25.0, 30.0, 35.0)
    CONFIGS = (("dft", (128, 125, 121)), ("dpss", (121,)))
    PDELTAS = (0, 10)
    units_per_pass = TRIALS * sum(len(ms) for _, ms in CONFIGS) * len(PDELTAS)

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.invocations = [
            ["ser", "--preset", "table1", "--delay-spread", "1000ns",
             "--schemes", scheme, "--etas", _list(m / self.N for m in ms),
             "--pdelta", str(pd), "--snrs", _list(self.SNRS),
             "--trials", str(self.TRIALS), "--seed", "0",
             "--out", self.path(f"ser_{scheme}_p{pd}")]
            for scheme, ms in self.CONFIGS
            for pd in self.PDELTAS
        ]
        self.rng.shuffle(self.invocations)

    def check_run(self):
        """The channel stream of one trial against ``np.convolve``.

        Rebuilds trial ``seed mod 200`` of DFT at eta 1, 10 dB offset, with
        the draws in ``run_trial``'s order: channel phases, then payloads.
        """
        spec = pf.cdlc_channel_spec(1000.0)
        cfg = pf.FrameConfig(
            scheme=pf.PrecodingScheme.DFT, eta=1.0, n_len=self.N,
            prefix_len=pf.prefix_length_for(spec), p_delta_db=10.0)
        basis = cfg.make_basis()
        rng = np.random.default_rng(self.seed % self.TRIALS)
        real = pf.realize(spec, rng, block_len=basis.block_len,
                          n_blocks=cfg.n_symbols)
        x = pf.build_frame(cfg, basis, linksim.draw_payloads(cfg, rng))
        y = pf.ChannelOperator(real, half_len=64).apply(x)
        ref = checks.stream_reference(x, spec.delays, real.drawn_gains, 64)
        return checks.check_stream(y, ref)

    def check_pass(self, texts):
        counts, bad = {}, []
        for text in texts.values():
            part, problems = checks.ser_counts(
                checks.parse_csv(text), self.N, self.TRIALS, self.SYMBOLS,
                self.SNRS)
            counts.update(part)
            bad += problems
        return bad + checks.check_ser_trends(counts, self.TRIALS, self.SYMBOLS)


class PairTails(Workload):
    """Per-pair tail energies (``ebct``) and the half-shift scan."""

    name = "pair_tails"
    EBCT = tuple((scheme, n) for n in (9, 17) for scheme in ("ofdm", "dft", "dpss"))
    SCAN = (("ofdm", 9), ("dpss", 9))
    units_per_pass = sum(n * n for _, n in EBCT + SCAN)

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.invocations = [
            ["ebct", "--scheme", s, "--n", str(n), "--m", str(n),
             "--out", self.path(f"ebct_{s}_{n}")]
            for s, n in self.EBCT
        ] + [
            ["scan-halfshift", "--scheme", s, "--n", str(n), "--m", str(n),
             "--out", self.path(f"scan_{s}_{n}")]
            for s, n in self.SCAN
        ]
        self.rng.shuffle(self.invocations)
        self.reference: dict = {}

    def check_run(self):
        self.reference = {
            (s, n): checks.pair_reference(pf.default_basis(s, n, n).o_matrix)
            for s, n in self.EBCT
        }
        return []

    def check_pass(self, texts):
        bad = []
        for s, n in self.EBCT:
            tails, l1 = self.reference[(s, n)]
            rows = checks.parse_csv(texts[self.path(f"ebct_{s}_{n}")])
            bad += checks.check_ebct(rows, n, tails, l1)
        for s, n in self.SCAN:
            rows = checks.parse_csv(texts[self.path(f"scan_{s}_{n}")])
            bad += checks.check_scan(rows, n)
        return bad


WORKLOADS = {w.name: w for w in (S2iMild, SerTable1, PairTails)}
