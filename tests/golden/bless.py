"""Golden outputs: the CSV and manifest text of a fixed set of ``precofdm``
invocations, run at one BLAS thread, kept under ``tests/golden/``.

    python tests/golden/bless.py            # rerun the set, print the moved
                                            # cells, rewrite what changed
    python tests/golden/bless.py --run DIR  # only run the set into DIR

The set is the README's eight CLI lines, CI's ``s2i``, ``ser``, ``ebct`` and
``bound`` runs, the benchmark workloads' invocations with the N = 128
anchor, and ``s2i`` at N = 128 on ``severe`` and ``integer``.  Each golden
file starts with ``#`` lines that give the invocation and the Python,
numpy and scipy versions that wrote it, then holds the output's text.  An
output larger than ``INLINE_BYTES`` is kept as its sha256 with its header
line and its first and last rows.  ``tests/test_golden.py`` runs the set in
one subprocess and fails on any byte that differs, naming each moved cell;
a change that moves values by design re-blesses, and the diff of
``tests/golden/`` lists them.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
INLINE_BYTES = 20_000
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# channel profile files the CI runs write before they run
PROFILES = {
    "mixed.txt": "name: mixed,profile\ndelays_samples: [0, 1.5, 3, 4.25]\n"
                 "powers_db: [0, -3, -6, -9]\n",
    "near.txt": "name: near-integer\n"
                "delays_samples: [0, 1.9999999999999991, 3.0000000000000004, 4.25]\n"
                "powers_db: [0, -3, -6, -9]\n",
}

CASES = {
    # the README's CLI lines
    "readme_dpss": "dpss --n 128 --w 0.5 --k 125",
    "readme_basis": "basis --scheme dpss --n 128 --m 121",
    "readme_xcorr": "xcorr --scheme ofdm --n 9 --m 9",
    "readme_ebct": "ebct --scheme ofdm --n 9 --m 9",
    "readme_bound": "bound --scheme dft --n 33 --m 33 --channel mild",
    "readme_s2i": "s2i --channel mild --n 128 --etas 0.9:0.02:1.0",
    "readme_ser": "ser --preset table1 --delay-spread 1000ns --pdelta 10",
    "readme_scan": "scan-halfshift --scheme ofdm --n 9 --m 9",
    # CI's runs
    "ci_ser_n32": "ser --delay-spread 1000ns --n 32 --trials 4",
    "ci_ser_mixed": "ser --channel mixed.txt --n 32 --trials 4",
    "ci_ser_n32_trials8": "ser --delay-spread 1000ns --n 32 --trials 8",
    "ci_ser_n128": "ser --delay-spread 1000ns --schemes dft --etas [1.0] --trials 13 "
                   "--snrs [15,inf]",
    "ci_ser_zf": "ser --channel mixed.txt --n 32 --trials 8 --snrs [0,20,inf]",
    "ci_ser_mild": "ser --channel mild --n 32 --trials 8",
    "ci_ser_near": "ser --channel near.txt --n 32 --trials 8",
    "ci_s2i_n32": "s2i --n 32 --etas [1.0,0.9]",
    "ci_s2i_n32_five": "s2i --n 32 --etas [1.0,0.9,0.8]",
    "ci_s2i_mild": "s2i --n 32 --etas [1.0,0.75] --channel mild",
    "ci_s2i_severe": "s2i --n 32 --etas [1.0,0.75] --channel severe",
    "ci_s2i_integer": "s2i --n 32 --etas [1.0,0.75] --channel integer",
    "ci_s2i_near": "s2i --n 32 --etas [1.0,0.75] --channel near.txt",
    "ci_s2i_m25": "s2i --n 32 --etas [1.0,0.78125]",
    "ci_s2i_n33": "s2i --n 33 --etas [1.0,0.9]",
    "ci_s2i_blocks30": "s2i --n 32 --etas [1.0,0.9,0.75] --blocks 30",
    "ci_s2i_n128_severe": "s2i --n 128 --etas [1.0,0.9453125] --channel severe",
    "ci_s2i_n128": "s2i --n 128 --etas [1.0,0.95]",
    "ci_ebct_dpss64": "ebct --scheme dpss --n 64 --m 60",
    "ci_bound_mixed": "bound --channel mixed.txt --n 32",
    "bound_dpss128": "bound --scheme dpss --n 128 --m 115",
    # the benchmark's workloads and the N = 128 anchor, but for the parts
    # that are README lines: the OFDM ebct and scan at N = 9, and the
    # PΔ = 10 dB half of ser_table1, whose rows the README's ser line holds
    "bench_s2i_mild": "s2i --channel mild --n 64 --schemes ofdm,dft,dpss "
                      "--etas [1.0,0.95] --prefix 16 --blocks 12",
    "bench_anchor_n128": "s2i --channel mild --n 128 --schemes ofdm --etas [1.0] "
                         "--prefix 16 --no-bound",
    **{
        f"bench_ser_{scheme}_p0": (
            f"ser --preset table1 --delay-spread 1000ns --schemes {scheme} "
            f"--etas {etas} --pdelta 0 --snrs [15.0,25.0,30.0,35.0] --trials 200 --seed 0"
        )
        for scheme, etas in (
            ("dft", "[1.0,0.9765625,0.9453125]"), ("dpss", "[0.9453125]")
        )
    },
    **{
        f"bench_ebct_{scheme}_{n}": f"ebct --scheme {scheme} --n {n} --m {n}"
        for n in (9, 17) for scheme in ("ofdm", "dft", "dpss")
        if (scheme, n) != ("ofdm", 9)
    },
    "bench_scan_dpss_9": "scan-halfshift --scheme dpss --n 9 --m 9",
    # the paper's N = 128 sweep on the other two channels
    "s2i_n128_severe": "s2i --channel severe --n 128 --etas 0.9:0.02:1.0",
    "s2i_n128_integer": "s2i --channel integer --n 128 --etas 0.9:0.02:1.0",
}


def stack() -> str:
    """The versions the outputs depend on."""
    import numpy
    import scipy

    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def run_cases(outdir: str) -> None:
    """Every case through ``cli.main`` in this process, into ``outdir``."""
    from precofdm import cli

    for name, text in PROFILES.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        with open(os.path.join(outdir, "stack.txt"), "w", encoding="utf-8") as fh:
            fh.write(stack())
        for name, argv in CASES.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv.split() + ["--out", name + ".csv"])
            if code != 0:
                raise RuntimeError(f"precofdm {argv} exited with {code}")
    finally:
        os.chdir(cwd)


def run_in_subprocess(outdir: str) -> None:
    """``run_cases`` in a fresh interpreter, at one BLAS thread."""
    argv = [sys.executable, os.path.abspath(__file__), "--run", outdir]
    subprocess.run(argv, check=True)


def render(outdir: str) -> dict:
    """Golden file name -> golden text, for every output in ``outdir``."""
    with open(os.path.join(outdir, "stack.txt"), encoding="utf-8") as fh:
        versions = fh.read()
    golden = {}
    for name, argv in CASES.items():
        for file in (name + ".csv", name + ".csv.manifest.json"):
            path = os.path.join(outdir, file)
            if not os.path.exists(path):  # only ser writes a manifest
                continue
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            head = f"# precofdm {argv}\n# stack: {versions}\n"
            size = len(text.encode())
            if size > INLINE_BYTES:
                lines = text.splitlines(keepends=True)
                digest = hashlib.sha256(text.encode()).hexdigest()
                head += f"# sha256 {digest} ({size} bytes, {len(lines)} lines)\n"
                text = lines[0] + lines[1] + lines[-1]
            golden[file] = head + text
    return golden


def golden_stack(text: str) -> str:
    """The stack a golden text was written on."""
    return next(line for line in text.splitlines() if line.startswith("# stack: "))[9:]


def _body(text: str) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


def _flatten(value, where=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{where}[{i}]")
    else:
        yield where, json.dumps(value)


def moved_cells(file: str, old: str, new: str) -> list[tuple]:
    """(file, where, old text, new text) for each cell that differs."""
    moved = []
    old_meta = [line for line in old.splitlines() if line.startswith("# sha256")]
    new_meta = [line for line in new.splitlines() if line.startswith("# sha256")]
    if old_meta != new_meta:
        moved.append((file, "sha256", " ".join(old_meta), " ".join(new_meta)))
    old, new = _body(old), _body(new)
    if file.endswith(".json"):
        a, b = dict(_flatten(json.loads(old))), dict(_flatten(json.loads(new)))
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                moved.append((file, key, a.get(key, ""), b.get(key, "")))
        return moved
    a, b = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if len(a) != len(b):
        moved.append((file, "rows", str(len(a)), str(len(b))))
    header = a[0] if a else []
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        for j in range(max(len(row_a), len(row_b))):
            x = row_a[j] if j < len(row_a) else ""
            y = row_b[j] if j < len(row_b) else ""
            if x != y:
                column = header[j] if i and j < len(header) else f"column {j}"
                if i:
                    column = f"row {i} ({', '.join(row_a[:2])}) {column}"
                moved.append((file, column if i else f"header {column}", x, y))
    if old != new and not moved:  # bytes that no cell shows, such as line ends
        moved.append((file, "text", repr(old[:60]), repr(new[:60])))
    return moved


def compare(golden_dir: str, golden: dict) -> list[tuple]:
    """Every moved cell between the files in ``golden_dir`` and ``golden``."""
    moved = []
    present = {f for f in os.listdir(golden_dir) if f.endswith((".csv", ".json"))}
    for file in sorted(present - golden.keys()):
        moved.append((file, "file", "present", "not written"))
    for file, text in sorted(golden.items()):
        path = os.path.join(golden_dir, file)
        if not os.path.exists(path):
            moved.append((file, "file", "missing", "written"))
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            kept = fh.read()
        if kept != text:
            moved += moved_cells(file, kept, text)
    return moved


def table(moved: list[tuple]) -> str:
    """The moved cells as a Markdown table."""
    lines = ["| file | cell | old | new |", "|---|---|---|---|"]
    lines += [f"| `{f}` | {w} | {a} | {b} |" for f, w, a, b in moved]
    return "\n".join(lines)


def write(golden_dir: str, golden: dict) -> list[str]:
    """Rewrites the golden files whose text differs, and removes those that
    the set no longer writes; returns the names it wrote or removed."""
    changed = []
    for file in sorted(os.listdir(golden_dir)):
        if file.endswith((".csv", ".json")) and file not in golden:
            os.remove(os.path.join(golden_dir, file))
            changed.append(file)
    for file, text in sorted(golden.items()):
        path = os.path.join(golden_dir, file)
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                if fh.read() == text:
                    continue
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        changed.append(file)
    return changed


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"]:
        os.environ.update({name: "1" for name in BLAS_VARS})  # before numpy loads
        sys.path.insert(0, SRC)
        run_cases(argv[1])
        return 0
    with tempfile.TemporaryDirectory() as outdir:
        run_in_subprocess(outdir)
        golden = render(outdir)
    moved = compare(HERE, golden)
    if moved:
        print(table(moved))
    changed = write(HERE, golden)
    print(f"{len(changed)} golden files rewritten or removed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
