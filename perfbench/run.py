"""precofdm benchmark: drives the ``precofdm`` CLI in-process, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
workloads are in ``workloads.py`` and described in ``README.md``.  The run
measures set-up time in fresh child processes, warms up, then repeats whole
passes of the workload until ``--seconds`` have elapsed (closed loop, one
caller).  Untraced runs report times at the reference host speed of
``hostspeed.py``, which samples that speed during the timed loop and in
every set-up child.  Every pass's outputs are checked after the timed
loop; a pass whose outputs fail a check, or whose run-level check fails,
counts as failed.  With ``--trace 1`` the layer wrappers of ``layertrace.py`` are
installed and per-layer metrics are reported instead of end-to-end ones.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import os
import sys
import time

# Fixed before numpy loads, and inherited by the set-up children.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
# A set-up child samples the host's speed this often (it lives ~1.7 s).
SETUP_SAMPLE_INTERVAL_S = 0.1
CHILD_TIMEOUT_S = 60


def _import_package() -> None:
    """Puts ``src/`` first on the path; fails unless precofdm comes from it."""
    if not os.path.isfile(os.path.join(SRC, "precofdm", "__init__.py")):
        raise SystemExit(f"error: no precofdm sources under {SRC}")
    sys.path.insert(0, SRC)
    import precofdm

    if not os.path.abspath(precofdm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: precofdm imported from {precofdm.__file__}")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _checked(check, *args) -> list[str]:
    """A check's failure messages; a check that raises is a failure too."""
    try:
        return check(*args)
    except Exception as exc:  # malformed output must fail the pass, not the run
        return [f"check raised {type(exc).__name__}: {exc}"]


def setup_child(outdir: str) -> int:
    """Body of one set-up sample: import and warm up, then say so.

    The host-speed sampler starts as soon as numpy has loaded; the ready
    line carries its time in the handler and its kernel times.
    """
    import hostspeed

    sampler = hostspeed.SpeedSampler(SETUP_SAMPLE_INTERVAL_S)
    sampler.start()
    try:
        _import_package()
        import workloads

        workloads.warm_up(outdir)
    finally:
        sampler.stop()
    print("ready", json.dumps({"paused_s": sampler.paused, "kernel_s": sampler.samples}),
          flush=True)
    return 0


def measure_setup(outdir: str) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes: spawn until import and warm-up end.

    Returns the wall times and the same times at the reference speed, from
    the kernel times each child sampled while it set up.
    """
    import hostspeed

    walls, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--outdir", outdir],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready, _, _ = select.select([child.stdout], [], [], CHILD_TIMEOUT_S)
            line = child.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            child.stdout.close()
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        word, _, sampled = line.partition(" ")
        if word != "ready" or code != 0:
            raise SystemExit(f"error: set-up child failed with code {code}")
        sampled = json.loads(sampled)
        elapsed -= sampled["paused_s"]
        walls.append(elapsed)
        scaled.append(hostspeed.scaled(elapsed, sampled["kernel_s"]))
    return walls, scaled


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    _import_package()
    outdir = os.path.join(OUT, workload_name)
    os.makedirs(outdir, exist_ok=True)
    setup_wall, setup = ([], []) if traced else measure_setup(outdir)

    import hostspeed
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed, outdir)
    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    workloads.warm_up(outdir)
    # The traced run reports layer times as measured, without the sampler.
    sampler = None if traced else hostspeed.SpeedSampler()
    if sampler:
        sampler.start()

    walls, kernels, texts, errors = [], [], [], []
    loop_start = time.perf_counter()
    try:
        while not walls or time.perf_counter() - loop_start < seconds:
            error = None
            mark = sampler.mark() if sampler else None
            start = time.perf_counter()
            try:
                for argv in workload.invocations:
                    workloads.run_cli(argv)
            except Exception as exc:  # a failing pass is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            if sampler:
                wall, kernel = sampler.since(mark)
            else:
                wall, kernel = time.perf_counter() - start, []
            walls.append(wall)
            kernels.append(kernel)
            errors.append(error)
            texts.append({} if error else {path: _read(path) for path in workload.outputs})
    finally:
        if sampler:
            sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.restore()
        tracer.dump(os.path.join(outdir, "trace.json"))
    # Every pass is scaled by the run's mean speed: a short pass holds too
    # few samples to give its own.
    run_kernel = [k for kernel in kernels for k in kernel]
    times = [hostspeed.scaled(wall, run_kernel) for wall in walls] if sampler else walls

    run_failures = _checked(workload.check_run)
    failures = [
        run_failures + ([error] if error else _checked(workload.check_pass, output))
        for error, output in zip(errors, texts)
    ]
    failed = sum(bool(f) for f in failures)
    for i, f in enumerate(failures):
        for message in f[:10]:
            print(f"pass {i} FAILED: {message}", file=sys.stderr)

    if traced:
        metrics = tracer.metrics(len(times))
    else:
        metrics = {
            "units_per_s": {"value": workload.units_per_pass * len(times) / sum(times),
                            "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    summary = {
        "workload": workload_name, "seed": seed, "trace": int(traced),
        "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(),
        "passes": len(times), "pass_s": times, "pass_wall_s": walls,
        "pass_kernel_mean_s": [sum(k) / len(k) if k else None for k in kernels],
        "kernel_samples": len(run_kernel),
        "kernel_reference_s": hostspeed.REFERENCE_S,
        "setup_samples_s": setup, "setup_wall_s": setup_wall,
        "units_per_pass": workload.units_per_pass,
    }
    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "metrics": metrics}, fh, indent=1)
        fh.write("\n")
    print(f"# {workload_name}: {len(times)} passes, blas_threads={BLAS_THREADS}, "
          f"pass wall times {', '.join(f'{t:.3f}' for t in walls)} s, "
          f"at reference speed {', '.join(f'{t:.3f}' for t in times)} s")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": len(times), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["s2i_mild", "ser_table1", "pair_tails"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--outdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    if args.setup_child:
        return setup_child(args.outdir)
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
