"""Command-line front end: reproducible runs of the engines and censuses.

Every artifact embeds the configuration that produced it (CSV header line or
a "config" key in JSON output): the command and every option but --out and
--resume.  `argv_from_config` rebuilds the exact command line from it, with
each key's flag read off the parser, so any stored artifact can be
regenerated byte-for-byte.

Exit codes: 0 success, 1 validation or engine error, 2 usage error,
3 invariant-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import asdict
from functools import partial

import numpy as np

from .arith import CatMap, order_mod, primes_up_to
from .census import (
    DENSE_DIMENSION_LIMIT,
    _header_line,
    _integer_columns,
    _integer_counts,
    _integer_summary,
    _json_records,
    _load_table,
    _omega_sieve,
    _prime_columns,
    _prime_counts,
    _prime_summary,
    can_append,
    quantum_sweep,
    small_order_report,
    store_results,
)
from .checks import run_checks
from .errors import CatmapError, SchemaMismatch
from .quadorder import (
    congruence_count,
    order_profile,
    split_by_class,
)
from .quantum import Observable, fourth_moment, propagator, propagator_spectrum

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


def _config(args) -> dict[str, str]:
    """String map stored in artifact headers; enough to re-run the command:
    the command and every option it was given or defaulted, but --out and
    --resume, which say where and how to write, not what.  The keys come in
    the order the parser declares them, which a JSON artifact keeps."""
    return {
        key: str(int(value) if isinstance(value, bool) else value)
        for key, value in vars(args).items()
        if value is not None and key not in ("handler", "out", "resume")
    }


def argv_from_config(config) -> list[str]:
    """Rebuild the argv that produced an artifact from its embedded config;
    each key's flag, and whether it takes a value, come from the parser."""
    items = dict(config)
    items.pop("kind", None)
    command = items.pop("command")
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    if command not in commands.choices:
        raise ValueError(f"unknown command {command!r} in config")
    actions = {a.dest: a for a in commands.choices[command]._actions if a.option_strings}
    argv = [command]
    for key, value in sorted(items.items()):
        if key not in actions:
            raise ValueError(f"config key {key!r} has no known flag")
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            argv.extend([flag, value])
        elif value not in ("0", "", "False"):  # a store_true flag
            argv.append(flag)
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
    body = asdict(prof) | {
        "NG": split.N_G,
        "NB": split.N_B,
        "NT": split.N_T,
        "in_S": prof.in_s,
        "ord_over_sqrt": prof.ord / math.sqrt(prof.N),
    }
    _emit(_dump({"config": _config(args), "profile": body}), args.out)
    return 0


def _cmd_nu(args, m: CatMap) -> int:
    cc = congruence_count(m, args.N, parse_vector(args.n))
    _emit(_dump({"config": _config(args), "nu": asdict(cc)}), args.out)
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
        "config": _config(args),
        "rows": body,
        "failures": list(failures),
    }
    _emit(_dump(doc), args.out)
    return 0


def _resume_after(keys: np.ndarray, primes: bool, x: int) -> int:
    """The first key a resumed census computes, after stored keys that must be
    the start of what a fresh run writes: N = 2..k, or the primes <= k, with
    k <= x.  Other keys raise SchemaMismatch."""
    k = int(keys[-1]) if len(keys) else 1
    if k <= x and np.array_equal(keys, primes_up_to(k) if primes else np.arange(2, k + 1)):
        return k + 1
    what = "the primes <= k" if primes else "N = 2..k"
    raise SchemaMismatch(f"cannot resume: stored keys must be {what} with k <= x = {x}")


def _cmd_census(args, m: CatMap) -> int:
    primes = args.command == "census-primes"
    kind = "primes" if primes else "integers"
    config = _config(args)
    if args.out and args.fmt == "csv":
        _header_line(kind, config)  # a config the header cannot hold fails before any work
    if primes:
        columns, finish = _prime_columns, _prime_summary
        count = partial(_prime_counts, x=args.x)
    else:
        # one omega sieve up to x serves the stored rows and the new ones
        columns, finish = _integer_columns, _integer_summary
        count = partial(_integer_counts, x=args.x, omega=_omega_sieve(args.x))
    resuming = bool(args.resume and args.out and args.fmt == "csv")
    # the stored header is checked and the stored rows are read once, before
    # any work, so a mismatched or corrupt file fails here and is left as it
    # was; the census resumes after the last stored key.  The summary adds
    # the counts of the stored rows to those of the new ones, so the stored
    # table is dropped before the new rows are computed.
    counts, lo = Counter(), 2
    if resuming and can_append(args.out, kind, config):
        stored = _load_table(args.out, kind)
        lo = _resume_after(stored[:, 0], primes, args.x)
        counts = count(stored)
        del stored
    rows = columns(m, args.x, args.eta, lo)
    if args.out:
        store_results(rows, args.out, kind=kind, config=config, fmt=args.fmt, append=resuming)
    counts += count(rows)
    doc = {"config": config, "summary": asdict(finish(counts, args.x, args.eta))}
    if args.out:
        doc["rows_written"] = len(rows)
    else:
        doc["records"] = _json_records(rows, kind)
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_propagator(args, m: CatMap) -> int:
    u = propagator(m, args.N)
    doc = {"config": _config(args), "operator": u.to_jsonable()}
    _emit(_dump(doc), args.out)
    return 0


def _cmd_spectrum(args, m: CatMap) -> int:
    eig = propagator_spectrum(m, args.N)
    doc = {"config": _config(args), "spectrum": eig.to_jsonable()}
    _emit(_dump(doc), args.out)
    return 0


def _cmd_fourth_moment(args, m: CatMap) -> int:
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
    _emit(_dump({"config": _config(args), "fourth_moment": body}), args.out)
    return 0


def _cmd_sweep(args, m: CatMap) -> int:
    config = _config(args)
    if args.out and args.fmt == "csv":
        _header_line("sweep", config)  # a config the header cannot hold fails before any work
    records, failures = quantum_sweep(
        m,
        parse_sizes(args.sizes),
        parse_observable(args.f),
        parse_vector(args.n),
        timing=args.timing,
        dense_limit=args.dense_limit,
    )
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
    p.add_argument("--dense-limit", type=int, default=DENSE_DIMENSION_LIMIT)
    p.add_argument("--timing", action="store_true")

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
