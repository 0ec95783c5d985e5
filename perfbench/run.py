"""catmap benchmark: the paper's three computations through the CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload census-primes --seed 0 --seconds 35 --trace 0

Workloads (see workloads.py and README.md): `census-primes`,
`census-integers` (a resumed run) and `sweep`.  Each run is a closed loop of
one CLI call at a time, every call in a fresh serial process (no census
workers, one BLAS thread), until --seconds have passed.  Fresh processes keep
the lru caches in `arith` and `census` cold, as in every real CLI call.

With --trace 0 the run reports the end-to-end metrics named in BENCHMARK.json,
as medians over its calls, with times rescaled to a reference machine speed
(see `calibrate` in child.py and README.md).  With --trace 1 it alternates
untraced and traced calls and reports the per-layer metrics (spans.py) plus the tracing overhead.
Every call's output is checked against references.json; the last line of
stdout is the JSON result.  Scratch files go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170  # a run must end within 180 s; no call may outlast this
SELF_SUM_TOL = 1e-6  # relative; self times must add up to the traced wall time
CAL_REF_S = 0.03  # calibration time that defines the reference speed


def rescale(call: dict, scale: float) -> None:
    """Convert a call's times to seconds at the reference speed; the
    measured ones stay under "raw"."""
    call["raw"] = {k: call[k] for k in ("setup_s", "wall_s", "traced_wall_s") if k in call}
    call["scale"] = scale
    for k in call["raw"]:
        call[k] *= scale
    for k in call.get("layers", {}):
        if k.endswith("_s"):
            call["layers"][k] *= scale


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CATMAP_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: on a small shared machine a second thread makes dense
    # products of N ~ 80 several times slower and far noisier
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cache_key(argv: list[str]) -> str:
    """Digest of the program's source and the argv that makes a cached file."""
    h = hashlib.sha256(json.dumps(argv).encode())
    for path in sorted((ROOT / "src" / "catmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int, refs: dict, env: dict) -> dict:
    """The seed's map, prepared input file and item count."""
    matrix, fraction = wl.pick(seed)
    plan = {"matrix": matrix, "seed_file": None, "full": None}
    ref = refs[matrix][workload]
    if workload != "census-integers":
        plan["attempted"] = wl.attempted_items(workload, ref)
        return plan
    cache = WORK / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / "integers.part"
    argv = wl.full_integers_argv(matrix, str(tmp))
    full = cache / f"integers-{cache_key(argv)}.csv"
    if not full.exists():
        subprocess.run(
            [sys.executable, "-m", "catmap.cli", *argv],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=RUN_LIMIT_S,
        )
        os.replace(tmp, full)
    head, last_key = wl.cut_artifact(full.read_bytes(), fraction)
    seed_file = WORK / "calls" / "census-integers-input.csv"
    seed_file.write_bytes(head)
    plan.update(seed_file=str(seed_file), full=str(full))
    plan["attempted"] = wl.attempted_items(workload, ref, last_key)
    return plan


def one_call(workload: str, plan: dict, env: dict, traced: bool, k: int, limit_s: float) -> dict:
    out = WORK / "calls" / f"{workload}-{k}.csv"
    spec = dict(
        plan,
        root=str(ROOT),
        workload=workload,
        argv=wl.argv(workload, plan["matrix"], str(out)),
        out=str(out),
        trace=traced,
        parse=workload != "census-integers" or k == 0,
        run_id=f"{workload}-{k}",
        spans_path=str(WORK / "spans" / f"{workload}-call{k}.tsv"),
    )
    spawned = spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=limit_s,
        )
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        why = proc.stderr.strip()[-2000:]
        if report is not None and report["problems"] and why:
            report["problems"].append(f"stderr: {why}")
    except subprocess.TimeoutExpired:
        report, why = None, f"call exceeded {limit_s:.0f} s"
    finally:
        out.unlink(missing_ok=True)
    if report is None:
        elapsed = time.monotonic() - spawned
        report = {
            "setup_s": elapsed, "wall_s": elapsed, "peak_rss_mb": 0.0,
            "attempted": plan["attempted"], "failed": plan["attempted"],
            "problems": [f"call did not finish: {why}"], "environment": {},
        }
    report["traced"] = traced
    if traced and "layers" in report:
        self_sum = sum(v for k_, v in report["layers"].items() if k_.endswith(".self_s"))
        if abs(self_sum - report["traced_wall_s"]) > SELF_SUM_TOL * report["traced_wall_s"]:
            report["problems"].append(
                f"self times sum to {self_sum}, traced wall is {report['traced_wall_s']}"
            )
    return report


def tail(values: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def end_to_end(calls: list[dict]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(c["wall_s"] for c in calls),
        "items_per_s": statistics.median(
            (c["attempted"] - c["failed"]) / c["wall_s"] for c in calls
        ),
        "setup_s": statistics.median(c["setup_s"] for c in calls),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
    }


def per_layer(names, plain: list[dict], traced: list[dict]) -> dict[str, float]:
    traced = [c for c in traced if "layers" in c]
    if not traced or not plain:
        return {}
    out = {}
    for name in names:
        if name == "trace_overhead_frac":
            out[name] = (
                statistics.median(c["traced_wall_s"] for c in traced)
                / statistics.median(c["wall_s"] for c in plain) - 1.0
            )
        elif name == "trace.wall_s":
            out[name] = statistics.median(c["traced_wall_s"] for c in traced)
        else:
            out[name] = statistics.median(c["layers"].get(name, 0) for c in traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("census-primes", "census-integers", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "catmap" / "cli.py").is_file():
        print(f"error: no catmap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    run_start = time.monotonic()
    env = child_env()
    for sub in ("calls", "spans", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    for old in (WORK / "spans").glob(f"{args.workload}-call*.tsv"):
        old.unlink()
    subprocess.run([sys.executable, "-c", "import catmap.cli"], env=env, check=True)
    plan = prepare(args.workload, args.seed, wl.load_references(), env)

    # Calls run back to back while the next one (guessed to take as long as
    # the last) still ends within --seconds; at least one call per mode.  The
    # host's speed drifts by up to 2x over seconds to minutes, so each call's
    # times are rescaled by the calibration its process timed just before and
    # after cli.main.
    loop_start = time.monotonic()
    calls: list[dict] = []
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        began = time.monotonic()
        limit = RUN_LIMIT_S - (began - run_start)
        call = one_call(args.workload, plan, env, traced, len(calls), max(limit, 1.0))
        cal = call.get("cal_s")
        rescale(call, CAL_REF_S / statistics.mean(cal) if cal else 1.0)
        calls.append(call)
        ended = time.monotonic()
        if ended + (ended - began) - loop_start > args.seconds and len(calls) > args.trace:
            break

    plain = [c for c in calls if not c["traced"]]
    traced = [c for c in calls if c["traced"]]
    environment = next((c["environment"] for c in calls if c["environment"]), {})
    problems = [p for c in calls for p in c["problems"]]
    blas = environment.get("blas_threads")
    if blas is not None and blas > environment["nproc"]:
        problems.append(f"{blas} BLAS threads exceed nproc {environment['nproc']}")
    if args.trace:
        metrics = per_layer(units, plain, traced)
    else:
        metrics = end_to_end(plain)
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    missing = sorted({m for c in traced for m in c.get("missing_layers", ())})

    print(f"workload {args.workload}, seed {args.seed}, map {plan['matrix']}, "
          f"{len(plain)} untraced + {len(traced)} traced calls")
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    for name in units:
        print(f"  {name} = {metrics.get(name, float('nan')):.6g} {units[name]}")
    walls = [c["wall_s"] for c in plain]
    t = tail(walls)
    print(f"  wall_s samples = {len(walls)}" + (f", p{t[0]} = {t[1]:.6g} s" if t else ""))
    print(f"  measured wall_s median = {statistics.median(c['raw']['wall_s'] for c in plain):.6g} s, "
          f"speed scale median = {statistics.median(c['scale'] for c in calls):.4g}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} items)")
    if missing:
        print(f"  layers not found in catmap: {', '.join(missing)}", file=sys.stderr)
    for p in problems[:20]:
        print(f"  problem: {p}", file=sys.stderr)

    correct = not problems and failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }
    record = dict(result, workload=args.workload, seed=args.seed, matrix=plan["matrix"],
                  environment=environment, calls=calls, problems=problems)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
