"""Record the output references the benchmark checks every call against.

Usage, from the repository root: python3 perfbench/make_references.py

Runs each workload once per map in the seed pool, in this process, and writes
perfbench/references.json: census record digests (after load_results) and
printed summaries, the sweep's columns, and the sweep dimensions whose
eigenspaces are all one-dimensional.  The references were recorded at the
commit that added the benchmark; re-recording them later would let a changed
result pass, so do it only when a result is meant to change, and say why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CATMAP_WORKERS", None)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from catmap.arith import order_mod  # noqa: E402
from catmap.census import load_results  # noqa: E402
from catmap.cli import main as cli_main, parse_matrix, parse_sizes  # noqa: E402
from catmap.quantum import propagator, spectrum  # noqa: E402

import workloads as wl  # noqa: E402
from child import blas_threads  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return json.loads(captured.getvalue())


def references_for(matrix: str, tmp: Path) -> dict:
    out = str(tmp / "out.csv")
    refs = {}
    for workload, argv in (
        ("census-primes", wl.argv("census-primes", matrix, out)),
        ("census-integers", wl.full_integers_argv(matrix, out)),
    ):
        doc = run_cli(argv)
        records = load_results(out).records
        refs[workload] = {
            "rows": len(records),
            "digest": wl.records_digest(records),
            "summary": doc["summary"],
        }
        os.remove(out)
    doc = run_cli(wl.argv("sweep", matrix, out))
    if doc["failures"]:
        raise SystemExit(f"sweep failures for {matrix}: {doc['failures']}")
    m = parse_matrix(matrix)
    simple = [
        N for N in parse_sizes(wl.SWEEP_SIZES)
        if set(spectrum(propagator(m, N), order_mod(m, N)).multiplicities()) == {1}
    ]
    refs["sweep"] = {
        "rows": [wl.sweep_row(r) for r in load_results(out).records],
        "simple_N": simple,
    }
    return refs


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        maps = {matrix: references_for(matrix, Path(tmp)) for matrix in wl.POOL}
    doc = {
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
        },
        "maps": maps,
    }
    wl.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    for matrix, refs in maps.items():
        print(matrix, {w: len(r["rows"]) if w == "sweep" else r["rows"] for w, r in refs.items()},
              "simple N:", len(refs["sweep"]["simple_N"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
