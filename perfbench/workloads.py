"""The benchmark's workloads: seed pool, CLI argv, and output checks.

Every workload is one `catmap` CLI call.  The seed picks the map from `POOL`
(seed 0 is the default map) and, for `census-integers`, where the
uninterrupted artifact is cut; the program sees only the argv and that file.

Checks compare each call's output with `references.json`, recorded at the
commit that introduced the benchmark (see make_references.py).  Census records
are compared after parsing with `catmap.census.load_results`, so a format
header change is not a failure.  A sweep compares N, n1, n2, rstar and bound
exactly everywhere, but S4, variance and max_dev only at the N whose
eigenspaces are all one-dimensional: elsewhere the canonical basis depends on
pivot ties in a QR, and a correct change may move those numbers.
"""

from __future__ import annotations

import hashlib
import json
import random
from operator import attrgetter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# All trace 4, so every seed does the same work (the same orders mod every
# prime, the same sum of scalar periods over the sweep) and the spread across
# seeds is the machine's, not the inputs'.  Every map gives 0 failed items on
# all three workloads.
POOL = ("2,1,3,2", "2,3,1,2", "4,1,-1,0", "0,1,-1,4")

PRIMES_X = 200_000
PRIMES_ETA = "0.52"
INTEGERS_X = 60_000
SWEEP_SIZES = "3-64,65-101:2"  # every dimension succeeds for every pool map
CUT_RANGE = (0.49, 0.51)  # share of the artifact's bytes a killed run left
SLACK = 1 + 1e-6  # the sweep's own ceiling tolerance
REL_TOL = 1e-9


def pick(seed: int) -> tuple[str, float]:
    """The map and the census-integers cut fraction for a seed."""
    rng = random.Random(seed)
    return POOL[seed % len(POOL)], rng.uniform(*CUT_RANGE)


def argv(workload: str, matrix: str, out: str) -> list[str]:
    if workload == "census-primes":
        return ["census-primes", "-x", str(PRIMES_X), "--eta", PRIMES_ETA,
                "--matrix", matrix, "--out", out]
    if workload == "census-integers":
        return ["census-integers", "-x", str(INTEGERS_X), "--matrix", matrix,
                "--out", out, "--resume"]
    if workload == "sweep":
        return ["sweep", "--sizes", SWEEP_SIZES, "--f", "cos1", "-n", "1,0",
                "--matrix", matrix, "--out", out]
    raise ValueError(f"unknown workload {workload!r}")


def full_integers_argv(matrix: str, out: str) -> list[str]:
    """The uninterrupted run whose artifact the resumed workload starts from."""
    return ["census-integers", "-x", str(INTEGERS_X), "--matrix", matrix, "--out", out]


def cut_artifact(blob: bytes, fraction: float) -> tuple[bytes, int]:
    """Cut blob mid-row near fraction of its bytes; also the last whole key."""
    cut = int(len(blob) * fraction)
    while blob[cut - 1 : cut] == b"\n":
        cut += 1
    head = blob[:cut]
    last_line = head[: head.rfind(b"\n")].rsplit(b"\n", 1)[-1]
    return head, int(last_line.split(b",", 1)[0])


def records_digest(records) -> str:
    """sha256 over the records' field values, in field order."""
    h = hashlib.sha256()
    getter = None
    for rec in records:
        if getter is None:
            getter = attrgetter(*rec.__dataclass_fields__)
        row = "|".join(str(getattr(v, "value", v)) for v in getter(rec))
        h.update(row.encode() + b"\n")
    return h.hexdigest()


def sweep_row(rec) -> dict:
    return {
        "N": rec.N,
        "n1": rec.n1,
        "n2": rec.n2,
        "rstar": rec.rstar,
        "bound": repr(rec.bound),
        "S4": rec.s4,
        "variance": rec.variance,
        "max_dev": rec.max_dev,
    }


def load_references() -> dict:
    """{matrix: {workload: reference}} from references.json."""
    with open(REFERENCES) as fh:
        return json.load(fh)["maps"]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_census(doc: dict, records, ref: dict) -> list[str]:
    """Records (unless None) and printed summary against the reference."""
    problems = []
    if records is not None and len(records) != ref["rows"]:
        problems.append(f"{len(records)} records, reference has {ref['rows']}")
    if records is not None and records_digest(records) != ref["digest"]:
        problems.append("record digest differs from the reference")
    if doc.get("summary") != ref["summary"]:
        problems.append("printed summary differs from the reference")
    return problems


def check_sweep(doc: dict, records, ref: dict) -> tuple[set, list[str]]:
    """Failed dimensions and the problems found, row by row."""
    expected = {row["N"]: row for row in ref["rows"]}
    simple = set(ref["simple_N"])
    failed = {int(n) for n, _ in doc.get("failures", ())}
    problems = [f"N={n} failed" for n in sorted(failed)]
    seen = set()
    for rec in records:
        got = sweep_row(rec)
        want = expected.get(rec.N)
        bad = []
        if want is None:
            bad.append("not in the reference")
        else:
            bad += [k for k in ("n1", "n2", "rstar", "bound") if got[k] != want[k]]
            if rec.N in simple:
                bad += [k for k in ("S4", "variance", "max_dev")
                        if not _close(got[k], want[k])]
        # max_dev is one of the terms summed into S4; the factor absorbs the
        # last-digit difference between two ways of taking a fourth power
        if not rec.max_dev**4 <= rec.s4 * (1 + 1e-12):
            bad.append("max_dev**4 > S4")
        if not rec.s4 <= rec.bound * SLACK:
            bad.append("S4 > bound")
        if rec.N in seen:
            bad.append("duplicate row")
        seen.add(rec.N)
        if bad:
            failed.add(rec.N)
            problems.append(f"N={rec.N}: {', '.join(bad)}")
    missing = set(expected) - seen - failed
    failed |= missing
    problems += [f"N={n} missing" for n in sorted(missing)]
    return failed, problems


def attempted_items(workload: str, ref: dict, last_key: int | None = None) -> int:
    """Items one call works on: primes classified, moduli profiled (those
    after the resume point), or dimensions swept."""
    if workload == "census-integers":
        return INTEGERS_X - last_key
    if workload == "sweep":
        return len(ref["rows"])
    return ref["rows"] + len(ref["summary"]["failures"])


def check_call(workload, rc, stdout, out, ref, attempted, full=None, parse=True):
    """(failed items, problems) for one finished CLI call.

    Any problem outside the per-dimension sweep rows fails every item of the
    call.  `full` is the uninterrupted artifact a resumed census must equal
    byte for byte; since every call of a run compares with the same file,
    parsing it once per run (`parse`) checks the records of every call.
    """
    from catmap.census import load_results

    if rc != 0:
        return attempted, [f"exit code {rc}"]
    try:
        doc = json.loads(stdout)
        records = load_results(out).records if parse or workload == "sweep" else None
    except Exception as exc:  # any way of failing to read back is a failed call
        return attempted, [f"unreadable output: {type(exc).__name__}: {exc}"]
    if workload == "sweep":
        failed, problems = check_sweep(doc, records, ref)
        if doc.get("rows_written") != len(records):
            return attempted, problems + ["rows_written does not match the file"]
        return len(failed), problems
    problems = check_census(doc, records, ref)
    if full is not None:
        if Path(out).read_bytes() != Path(full).read_bytes():
            problems.append("resumed file differs from the uninterrupted artifact")
        if doc.get("rows_written") != attempted:
            problems.append(f"rows_written {doc.get('rows_written')} != {attempted}")
    if problems:
        return attempted, problems
    return len(doc["summary"]["failures"]), problems
