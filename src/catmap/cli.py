"""Command-line front end: reproducible runs of the engines and censuses.

Every artifact embeds the configuration that produced it (CSV header line or
a "config" key in JSON output), and `argv_from_config` rebuilds the exact
command line from such a header, so any stored artifact can be regenerated
byte-for-byte.

Exit codes: 0 success, 1 validation or engine error, 2 usage error,
3 invariant-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .arith import CatMap, order_mod
from .census import (
    DENSE_DIMENSION_LIMIT,
    _integer_columns,
    _json_records,
    _load_table,
    _prime_columns,
    can_append,
    quantum_sweep,
    small_order_report,
    store_results,
    summarize_integer_records,
    summarize_prime_records,
)
from .checks import run_checks
from .errors import CatmapError
from .quadorder import (
    congruence_count,
    order_profile,
    split_by_class,
)
from .quantum import Observable, propagator, spectrum

DEFAULT_MATRIX = "2,1,3,2"
DEFAULT_ETA = 0.55


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_matrix(text: str) -> CatMap:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"matrix needs 4 comma-separated integers, got {text!r}")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"matrix entries must be integers: {text!r}") from exc
    return CatMap(a, b, c, d)


def parse_vector(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"frequency needs 2 comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def parse_sizes(text: str) -> list[int]:
    """Comma-separated entries, each `a`, `a-b`, or `a-b:step` (inclusive);
    a size listed twice is an error, as it would give two sweep rows."""
    sizes: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        step = 1
        if ":" in chunk:
            chunk, step_text = chunk.rsplit(":", 1)
            step = int(step_text)
            if step < 1:
                raise ValueError(f"step must be >= 1 in {text!r}")
        if "-" in chunk.lstrip("-"):
            head, _, tail = chunk.rpartition("-")
            lo, hi = int(head), int(tail)
            if hi < lo:
                raise ValueError(f"empty range {chunk!r}")
            sizes.extend(range(lo, hi + 1, step))
        else:
            sizes.append(int(chunk))
    if not sizes:
        raise ValueError(f"no sizes in {text!r}")
    seen: set[int] = set()
    for N in sizes:
        if N in seen:
            raise ValueError(f"size {N} is listed twice in {text!r}")
        seen.add(N)
    return sizes


def parse_observable(text: str) -> Observable:
    """`cos1` / `cos2` shorthands, or terms `c:(n1,n2)=re,im` joined by `;`."""
    if text == "cos1":
        return Observable.cosine(1)
    if text == "cos2":
        return Observable.cosine(2)
    coefficients: dict[tuple[int, int], complex] = {}
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        if not term.startswith("c:"):
            raise ValueError(f"observable term must start with 'c:': {term!r}")
        body = term[2:]
        left, eq, right = body.partition("=")
        if not eq:
            raise ValueError(f"observable term needs '=': {term!r}")
        left = left.strip()
        if not (left.startswith("(") and left.endswith(")")):
            raise ValueError(f"frequency must be parenthesized: {term!r}")
        n1, n2 = parse_vector(left[1:-1])
        vals = right.split(",")
        if len(vals) != 2:
            raise ValueError(f"coefficient needs re,im: {term!r}")
        z = complex(float(vals[0]), float(vals[1]))
        key = (n1, n2)
        coefficients[key] = coefficients.get(key, 0) + z
    if not coefficients:
        raise ValueError(f"no terms in observable spec {text!r}")
    return Observable(coefficients)


# ---------------------------------------------------------------------------
# config embedding


def _config(args, *keys: str) -> dict[str, str]:
    """String map stored in artifact headers; enough to re-run the command."""
    out = {"command": args.command, "matrix": args.matrix}
    for key in keys:
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = int(value)
        out[key] = str(value)
    return out


_FLAG_OF = {
    "N": "-N",
    "n": "-n",
    "x": "-x",
    "eta": "--eta",
    "f": "--f",
    "k_max": "--k-max",
    "sizes": "--sizes",
    "fmt": "--fmt",
    "matrix": "--matrix",
    "dense_limit": "--dense-limit",
    "seed": "--seed",
}
_BOOL_FLAGS = {"timing": "--timing", "resume": "--resume", "quick": "--quick"}


def argv_from_config(config) -> list[str]:
    """Rebuild the argv that produced an artifact from its embedded config."""
    items = dict(config)
    items.pop("kind", None)
    argv = [items.pop("command")]
    for key, value in sorted(items.items()):
        if key in _BOOL_FLAGS:
            if value not in ("0", "", "False"):
                argv.append(_BOOL_FLAGS[key])
        elif key in _FLAG_OF:
            argv.extend([_FLAG_OF[key], value])
        else:
            raise ValueError(f"config key {key!r} has no known flag")
    return argv


# ---------------------------------------------------------------------------
# output helpers


def _dump(document: dict) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_order(args, m: CatMap) -> int:
    _emit(f"{order_mod(m, args.N)}\n", args.out)
    return 0


def _cmd_profile(args, m: CatMap) -> int:
    prof = order_profile(m, args.N)
    split = split_by_class(m, args.N, args.eta)
    body = {
        "N": prof.N,
        "d": prof.d,
        "s": prof.s,
        "d0": prof.d0,
        "L": prof.L,
        "ord": prof.ord,
        "lower_bound": prof.lower_bound,
        "NG": split.N_G,
        "NB": split.N_B,
        "NT": split.N_T,
        "omega": prof.omega,
        "in_S": prof.in_s,
        "ord_over_sqrt": prof.ord / math.sqrt(prof.N),
    }
    _emit(_dump({"config": _config(args, "N", "eta"), "profile": body}), args.out)
    return 0


def _cmd_nu(args, m: CatMap) -> int:
    cc = congruence_count(m, args.N, parse_vector(args.n))
    body = {
        "N": cc.N,
        "n": list(cc.n),
        "r": cc.r,
        "count": cc.count,
        "trivial_count": cc.trivial_count,
        "minus_one_exponent": cc.minus_one_exponent,
    }
    _emit(_dump({"config": _config(args, "N", "n"), "nu": body}), args.out)
    return 0


def _cmd_small_order(args, m: CatMap) -> int:
    rows, failures = small_order_report(m, args.k_max)
    body = [
        {
            "k": row.k,
            "modulus": row.modulus,
            "ord": row.order,
            "ord_over_log": row.order_over_log,
            "certified": row.certified,
        }
        for row in rows
    ]
    doc = {
        "config": _config(args, "k_max"),
        "rows": body,
        "failures": list(failures),
    }
    _emit(_dump(doc), args.out)
    return 0


def _cmd_census(args, m: CatMap) -> int:
    primes = args.command == "census-primes"
    kind = "primes" if primes else "integers"
    config = _config(args, "x", "eta", "fmt")
    resuming = bool(args.resume and args.out and args.fmt == "csv")
    # the stored header is checked and the stored rows are read once, before
    # any work, so a mismatched or corrupt file fails here and is left as it
    # was; the census resumes after the largest stored key
    appendable = resuming and can_append(args.out, kind, config)
    # a census stays one int64 column table throughout
    stored = _load_table(args.out, kind) if appendable else None
    lo = 2 if stored is None else int(stored[:, 0].max(initial=1)) + 1
    rows = (_prime_columns if primes else _integer_columns)(m, args.x, args.eta, lo)
    everything = rows if stored is None else np.concatenate([stored, rows])
    if args.out:
        store_results(rows, args.out, kind=kind, config=config, fmt=args.fmt, append=resuming)
    summarize = summarize_prime_records if primes else summarize_integer_records
    summary = summarize(everything, args.x, args.eta)
    doc = {"config": config, "summary": asdict(summary)}
    if args.out:
        doc["rows_written"] = len(rows)
    else:
        doc["records"] = _json_records(rows, kind)
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_propagator(args, m: CatMap) -> int:
    u = propagator(m, args.N)
    doc = {"config": _config(args, "N"), "operator": u.to_jsonable()}
    _emit(_dump(doc), args.out)
    return 0


def _cmd_spectrum(args, m: CatMap) -> int:
    eig = spectrum(propagator(m, args.N), order_mod(m, args.N))
    doc = {"config": _config(args, "N"), "spectrum": eig.to_jsonable()}
    _emit(_dump(doc), args.out)
    return 0


def _cmd_fourth_moment(args, m: CatMap) -> int:
    from .quantum import fourth_moment

    fm = fourth_moment(m, args.N, parse_vector(args.n))
    body = {
        "N": fm.N,
        "n": list(fm.n),
        "ord": fm.order,
        "solution_count": fm.solution_count,
        "s4": fm.s4,
        "bound": fm.bound,
        "ratio": fm.s4 / fm.bound,
    }
    _emit(_dump({"config": _config(args, "N", "n"), "fourth_moment": body}), args.out)
    return 0


def _cmd_sweep(args, m: CatMap) -> int:
    sizes = parse_sizes(args.sizes)
    f = parse_observable(args.f)
    records, failures = quantum_sweep(
        m,
        sizes,
        f,
        parse_vector(args.n),
        timing=args.timing,
        dense_limit=args.dense_limit,
    )
    config = _config(args, "sizes", "f", "n", "fmt", "dense_limit", "timing")
    doc = {"config": config, "failures": [[n, reason] for n, reason in failures]}
    if args.out:
        store_results(records, args.out, kind="sweep", config=config, fmt=args.fmt)
        doc["rows_written"] = len(records)
    else:
        doc["records"] = _json_records(records, "sweep")
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_check(args, m: CatMap) -> int:
    names = args.only.split(",") if args.only else None
    results = run_checks(quick=args.quick, seed=args.seed, names=names)
    for r in results:
        status = "ok" if r.ok else "FAIL"
        sys.stdout.write(f"[{status}] {r.name} ({r.seconds:.2f}s) {r.detail}\n")
    failed = [r.name for r in results if not r.ok]
    if failed:
        sys.stdout.write(f"FAILED {len(failed)}/{len(results)}: {', '.join(failed)}\n")
        return 3
    sys.stdout.write(f"all {len(results)} checks passed\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catmap",
        description="Quantized hyperbolic torus maps: orders, spectra, censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--matrix",
            default=DEFAULT_MATRIX,
            help=f"a,b,c,d integers (default {DEFAULT_MATRIX})",
        )
        p.add_argument("--out", default=None, help="write output to this path")
        return p

    p = add("order", _cmd_order, help="multiplicative order of the matrix mod N")
    p.add_argument("-N", type=int, required=True)

    p = add("profile", _cmd_profile, help="order profile and class split of N")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--eta", type=float, default=DEFAULT_ETA)

    p = add("nu", _cmd_nu, help="congruence solution count at frequency n")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-n", default="1,0")

    p = add("small-order", _cmd_small_order, help="moduli with ord <= k")
    p.add_argument("--k-max", type=int, default=40, dest="k_max")

    for name, what in (
        ("census-primes", "classify primes up to x"),
        ("census-integers", "profile moduli up to x"),
    ):
        p = add(name, _cmd_census, help=what)
        p.add_argument("-x", type=int, required=True)
        p.add_argument("--eta", type=float, default=DEFAULT_ETA)
        p.add_argument("--fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--resume", action="store_true")

    p = add("propagator", _cmd_propagator, help="unitary propagator matrix")
    p.add_argument("-N", type=int, required=True)

    p = add("spectrum", _cmd_spectrum, help="eigenphases, multiplicities, bases")
    p.add_argument("-N", type=int, required=True)

    p = add("fourth-moment", _cmd_fourth_moment, help="S4 statistic and its ceiling")
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-n", default="1,0")

    p = add("sweep", _cmd_sweep, help="spectral statistics over many dimensions")
    p.add_argument("--sizes", required=True, help="e.g. 3,5,7 or 5-101:2")
    p.add_argument("--f", default="cos1", help="cos1, cos2, or c:(n1,n2)=re,im;...")
    p.add_argument("-n", default="1,0")
    p.add_argument("--fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--dense-limit", type=int, default=DENSE_DIMENSION_LIMIT)

    p = add("check", _cmd_check, help="run the library invariant suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.add_argument("--seed", type=int, default=20240901)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        m = parse_matrix(args.matrix)
        return args.handler(args, m)
    except BrokenPipeError:
        return 0
    except (CatmapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
