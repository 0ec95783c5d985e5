"""One benchmark call in a fresh process.

Usage (from run.py): python3 child.py '<json spec>'

Imports catmap, places the prepared input, runs `catmap.cli.main` once with
the workload's argv, then checks the output and prints one JSON line:
setup time (parent's spawn to input placed), wall time of `cli.main`, peak
RSS, items attempted and failed, and, when traced, the per-layer statistics.
The parent passes its `time.monotonic()` at spawn; on Linux that clock is
system-wide, so the two processes' readings compare.
"""

import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

import catmap.cli  # part of the measured set-up


def _place_input(spec: dict) -> None:
    if spec["seed_file"]:
        shutil.copyfile(spec["seed_file"], spec["out"])
    elif os.path.exists(spec["out"]):
        os.remove(spec["out"])


def calibrate() -> float:
    """Seconds to build and sort 100,000 pseudo-random floats (median of
    three): the speed of the machine at this moment, independent of catmap."""
    times = []
    for _ in range(3):
        began = time.perf_counter()
        rng = random.Random(1)
        sorted([rng.random() for _ in range(100_000)])
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(catmap.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"catmap imported from {catmap.cli.__file__}, not {src}")
    _place_input(spec)
    setup_s = time.monotonic() - spec["spawned"]
    cal_before = calibrate()

    entry = catmap.cli.main
    recorder = None
    if spec["trace"]:
        from spans import ROOT, SpanRecorder

        recorder = SpanRecorder(spec["run_id"])
        recorder.install()
        entry = recorder.span(entry, ROOT)

    captured = io.StringIO()
    error = None
    began = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            rc = entry(spec["argv"])
    except Exception as exc:  # a crash is a failed call, reported below
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - began
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()  # the output check below is not traced
    cal_s = [cal_before, calibrate()]

    import numpy
    import scipy

    from workloads import check_call, load_references

    ref = load_references()[spec["matrix"]][spec["workload"]]
    failed, problems = check_call(
        spec["workload"], rc, captured.getvalue(), spec["out"], ref,
        spec["attempted"], spec["full"], spec["parse"],
    )
    if error:
        problems.insert(0, error)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cal_s": cal_s,
        "attempted": spec["attempted"],
        "failed": failed,
        "problems": problems[:20],
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
        },
    }
    if recorder is not None:
        report["layers"] = recorder.layer_stats()
        report["traced_wall_s"] = recorder.end[0] - recorder.start[0]
        report["missing_layers"] = recorder.missing
        recorder.write(spec["spans_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
