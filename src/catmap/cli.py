"""Command-line front end: reproducible runs of the engines and censuses.

Every artifact embeds the configuration that produced it (CSV header line or
a "config" key in JSON output): the command and every option but --out and
--resume.  `argv_from_config` rebuilds the exact command line from it, with
each key's flag read off the command table `COMMANDS`, so any stored
artifact can be regenerated byte-for-byte.  A call builds the parser of the
command it names alone; the full parser, all commands, parses the rest.

Exit codes: 0 success, 1 validation or engine error, 2 usage error,
3 invariant-check failure.

The quantum commands (`propagator`, `spectrum`, `fourth-moment`, `sweep`)
import `catmap.quantum`, and `check` imports `catmap.checks`, inside their
handlers, so an order or census call starts without either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import asdict
from typing import TYPE_CHECKING

from .arith import CatMap, order_mod
from .census import (
    DENSE_DIMENSION_LIMIT,
    _header_line,
    _json_records,
    _run_census,
    quantum_sweep,
    small_order_report,
    store_results,
)
from .errors import CatmapError
from .quadorder import (
    congruence_count,
    order_profile,
    split_by_class,
)

if TYPE_CHECKING:
    from .quantum import Observable

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
    from .quantum import Observable

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
    each key's flag, and whether it takes a value, come from `COMMANDS`."""
    items = dict(config)
    items.pop("kind", None)
    command = items.pop("command")
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r} in config")
    _, _, options = COMMANDS[command]
    flags = {
        flag.lstrip("-").replace("-", "_"): (flag, kwargs.get("action") != "store_true")
        for flag, kwargs in _COMMON + options
    }
    argv = [command]
    for key, value in sorted(items.items()):
        if key not in flags:
            raise ValueError(f"config key {key!r} has no known flag")
        flag, takes_value = flags[key]
        if takes_value:
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


def _cmd_census(args, m: CatMap) -> int:
    kind = "primes" if args.command == "census-primes" else "integers"
    config = _config(args)
    if args.out and args.fmt == "csv":
        _header_line(kind, config)  # a config the header cannot hold fails before any work
    rows, summary = _run_census(
        m, kind, args.x, args.eta, args.out, fmt=args.fmt, config=config, resume=args.resume
    )
    doc = {"config": config, "summary": asdict(summary)}
    if args.out:
        doc["rows_written"] = len(rows)
    else:
        doc["records"] = _json_records(rows, kind)
    sys.stdout.write(_dump(doc))
    return 0


def _cmd_propagator(args, m: CatMap) -> int:
    from .quantum import propagator

    u = propagator(m, args.N)
    doc = {"config": _config(args), "operator": u.to_jsonable()}
    _emit(_dump(doc), args.out)
    return 0


def _cmd_spectrum(args, m: CatMap) -> int:
    from .quantum import propagator_spectrum

    eig = propagator_spectrum(m, args.N)
    doc = {"config": _config(args), "spectrum": eig.to_jsonable()}
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
    from .checks import run_checks

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
# commands

_COMMON = (
    ("--matrix", {"default": DEFAULT_MATRIX, "help": f"a,b,c,d integers (default {DEFAULT_MATRIX})"}),
    ("--out", {"default": None, "help": "write output to this path"}),
)
_N = ("-N", {"type": int, "required": True})
_ETA = ("--eta", {"type": float, "default": DEFAULT_ETA})
_FREQUENCY = ("-n", {"default": "1,0"})
_FMT = ("--fmt", {"choices": ("csv", "json"), "default": "csv"})
_CENSUS = (
    ("-x", {"type": int, "required": True}),
    _ETA,
    _FMT,
    ("--resume", {"action": "store_true", "help": "continue a CSV census after its "
                  "last stored row; JSON output is written whole"}),
)

# Each command once: (handler, help, options), every option a flag and its
# `add_argument` keywords, declared after the --matrix and --out of
# `_COMMON`.  One flag per option, so its dest is the flag without its dashes,
# "-" read as "_"; `argv_from_config` relies on that.
COMMANDS = {
    "order": (_cmd_order, "multiplicative order of the matrix mod N", (_N,)),
    "profile": (_cmd_profile, "order profile and class split of N", (_N, _ETA)),
    "nu": (_cmd_nu, "congruence solution count at frequency n", (_N, _FREQUENCY)),
    "small-order": (
        _cmd_small_order, "moduli with ord <= k", (("--k-max", {"type": int, "default": 40}),)
    ),
    "census-primes": (_cmd_census, "classify primes up to x", _CENSUS),
    "census-integers": (_cmd_census, "profile moduli up to x", _CENSUS),
    "propagator": (_cmd_propagator, "unitary propagator matrix", (_N,)),
    "spectrum": (_cmd_spectrum, "eigenphases, multiplicities, bases", (_N,)),
    "fourth-moment": (_cmd_fourth_moment, "S4 statistic and its ceiling", (_N, _FREQUENCY)),
    "sweep": (
        _cmd_sweep,
        "spectral statistics over many dimensions",
        (
            ("--sizes", {"required": True, "help": "e.g. 3,5,7 or 5-101:2"}),
            ("--f", {"default": "cos1", "help": "cos1, cos2, or c:(n1,n2)=re,im;..."}),
            _FREQUENCY,
            _FMT,
            ("--dense-limit", {"type": int, "default": DENSE_DIMENSION_LIMIT}),
            ("--timing", {"action": "store_true"}),
        ),
    ),
    "check": (
        _cmd_check,
        "run the library invariant suite",
        (
            ("--quick", {"action": "store_true"}),
            ("--only", {"default": None, "help": "comma-separated check names"}),
            ("--seed", {"type": int, "default": 20240901}),
        ),
    ),
}


def build_parser(commands: Iterable[str] = tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The catmap parser with the named commands, all by default, in the
    order given."""
    parser = argparse.ArgumentParser(
        prog="catmap",
        description="Quantized hyperbolic torus maps: orders, spectra, censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        handler, help_text, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    """Run one command.  An argv that starts with a command is parsed by that
    command's parser alone; any other argv, or one with arguments left over,
    goes through the full parser, whose usage and error texts list every
    command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = rest = None
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[:1]).parse_known_args(argv)
    if args is None or rest:
        args = build_parser().parse_args(argv)
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
