"""Command-line interface: parsing, dispatch, exit codes, reproducibility."""

import json
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import pytest

from catmap import arith, census, cli
from catmap.arith import DEFAULT_MAP
from catmap.census import (
    DENSE_DIMENSION_LIMIT,
    load_results,
    summarize_integer_records,
    summarize_prime_records,
)
from catmap.checks import CheckResult
from catmap.cli import (
    argv_from_config,
    main,
    parse_matrix,
    parse_observable,
    parse_sizes,
    parse_vector,
)
from catmap.quadorder import congruence_count, order_profile
from catmap.quantum import Observable


# ---------------------------------------------------------------------------
# parsers


def test_parse_matrix():
    m = parse_matrix("2,1,3,2")
    assert (m.a, m.b, m.c, m.d) == (2, 1, 3, 2)
    with pytest.raises(ValueError):
        parse_matrix("2,1,3")
    with pytest.raises(ValueError):
        parse_matrix("2,1,3,x")


def test_parse_vector():
    assert parse_vector("1,0") == (1, 0)
    assert parse_vector("-3,7") == (-3, 7)
    with pytest.raises(ValueError):
        parse_vector("1")


def test_parse_sizes():
    assert parse_sizes("5") == [5]
    assert parse_sizes("3,5,9") == [3, 5, 9]
    assert parse_sizes("5-11:2") == [5, 7, 9, 11]
    assert parse_sizes("5-8") == [5, 6, 7, 8]
    assert parse_sizes("3,10-12") == [3, 10, 11, 12]
    with pytest.raises(ValueError):
        parse_sizes("9-5")
    with pytest.raises(ValueError):
        parse_sizes("")


@pytest.mark.parametrize("text, repeated", [("3,3,5", 3), ("3-6,5-7", 5)])
def test_repeated_sweep_size_is_rejected(text, repeated, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"size {repeated} is listed twice"):
        parse_sizes(text)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--sizes", text, "--out", str(out)]) == 1
    assert f"error: size {repeated} is listed twice" in capsys.readouterr().err
    assert not out.exists()


def test_parse_observable_shorthands():
    assert parse_observable("cos1").coefficients == Observable.cosine(1).coefficients
    assert parse_observable("cos2").coefficients == Observable.cosine(2).coefficients


def test_parse_observable_terms():
    f = parse_observable("c:(1,0)=1,0;c:(-1,0)=1,0")
    assert f.coefficients == {(1, 0): 1 + 0j, (-1, 0): 1 + 0j}
    g = parse_observable("c:(2,-1)=0.5,-0.25")
    assert g.coefficients == {(2, -1): 0.5 - 0.25j}
    # duplicate frequencies accumulate
    h = parse_observable("c:(1,1)=1,0;c:(1,1)=0,2")
    assert h.coefficients == {(1, 1): 1 + 2j}
    for bad in ("q:(1,0)=1,0", "c:(1,0)", "c:1,0=1,0", "c:(1,0)=1", ""):
        with pytest.raises(ValueError):
            parse_observable(bad)


# ---------------------------------------------------------------------------
# exit codes and simple commands


def test_order_prints_value(capsys):
    assert main(["order", "--matrix", "2,1,3,2", "-N", "55"]) == 0
    assert capsys.readouterr().out == "30\n"


def test_order_rejects_parabolic_matrix(capsys):
    assert main(["order", "--matrix", "1,1,0,1", "-N", "7"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["order"])  # missing -N
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_validation_error_exits_1(capsys):
    assert main(["order", "--matrix", "2,1,3", "-N", "5"]) == 1
    assert main(["census-primes", "-x", "50"]) == 1  # x too small
    assert main(["sweep", "--sizes", "9-5"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["census-primes", "census-integers"])
def test_census_beyond_the_int32_sieve_exits_1(command, monkeypatch, capsys):
    def no_sieve(n):
        raise AssertionError(f"sieve built up to {n}")

    monkeypatch.setattr(census, "_smallest_prime_factors", no_sieve)
    assert main([command, "-x", "2147483648"]) == 1
    assert capsys.readouterr().err.startswith("error: cutoff x must be below 2**31")


def test_profile_matches_library(capsys):
    assert main(["profile", "-N", "60"]) == 0
    doc = json.loads(capsys.readouterr().out)
    prof = order_profile(DEFAULT_MAP, 60)
    body = doc["profile"]
    assert body["ord"] == prof.ord
    assert body["d"] == prof.d and body["s"] == prof.s
    assert body["lower_bound"] == prof.lower_bound
    assert body["NG"] * body["NB"] == 60
    assert doc["config"]["command"] == "profile"
    assert doc["config"]["matrix"] == "2,1,3,2"


def test_nu_matches_library(capsys):
    assert main(["nu", "-N", "5", "-n", "1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cc = congruence_count(DEFAULT_MAP, 5, (1, 0))
    assert doc["nu"]["count"] == cc.count == 15
    assert doc["nu"]["r"] == cc.r == 3


def test_small_order_rows(capsys):
    assert main(["small-order", "--k-max", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {row["k"]: row for row in doc["rows"]}
    assert rows[3]["modulus"] == 5 and rows[3]["ord"] == 3
    assert all(row["ord"] <= row["k"] for row in doc["rows"])
    assert doc["failures"] == []


def test_propagator_and_spectrum_json(capsys):
    assert main(["propagator", "-N", "5"]) == 0
    op_doc = json.loads(capsys.readouterr().out)
    assert op_doc["operator"]["N"] == 5
    assert len(op_doc["operator"]["matrix"]) == 5
    assert main(["spectrum", "-N", "5"]) == 0
    sp_doc = json.loads(capsys.readouterr().out)
    mults = [level["multiplicity"] for level in sp_doc["spectrum"]["levels"]]
    assert sum(mults) == 5


def test_fourth_moment_json(capsys):
    assert main(["fourth-moment", "-N", "5", "-n", "1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    body = doc["fourth_moment"]
    assert body["solution_count"] == 15
    assert body["ratio"] <= 1 + 1e-6
    assert body["s4"] <= body["bound"]


# ---------------------------------------------------------------------------
# artifacts


def test_census_primes_artifact(tmp_path, capsys):
    out = tmp_path / "primes.csv"
    assert main(["census-primes", "-x", "300", "--eta", "0.52", "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows_written"] == 62  # primes up to 300
    loaded = load_results(out)
    assert loaded.kind == "primes"
    assert len(loaded.records) == 62
    assert loaded.config["command"] == "census-primes"
    assert doc["summary"]["prime_count"] == 62


def test_census_integers_stdout_records(capsys):
    assert main(["census-integers", "-x", "150"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 149
    assert doc["records"][0]["N"] == 2
    assert doc["summary"]["count"] == 149


def test_census_json_format(tmp_path, capsys):
    out = tmp_path / "ints.json"
    assert main(["census-integers", "-x", "200", "--fmt", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    loaded = load_results(out)
    assert loaded.kind == "integers"
    assert len(loaded.records) == 199


@pytest.mark.parametrize(
    "argv",
    [
        ["census-primes", "-x", "300", "--eta", "0.52"],
        ["census-integers", "-x", "200"],
        ["sweep", "--sizes", "5-13:2"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_records_match_json_artifact(argv, tmp_path, capsys):
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["records"]
    out = tmp_path / "artifact.json"
    assert main(argv + ["--fmt", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert printed == json.loads(out.read_text())["records"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv, summarize",
    [
        (["census-primes", "-x", "300", "--eta", "0.52"], summarize_prime_records),
        (["census-integers", "-x", "200", "--eta", "0.55"], summarize_integer_records),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_fresh_census_summary_needs_no_read_back(
    argv, summarize, fmt, tmp_path, capsys, monkeypatch
):
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["summary"]
    out = tmp_path / f"artifact.{fmt}"
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_load_table", None)  # nothing was resumed
        assert main(argv + ["--fmt", fmt, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"] == printed
    x, eta = int(argv[2]), float(argv[4])
    reread = summarize(load_results(out).records, x, eta)
    assert json.loads(json.dumps(asdict(reread))) == printed


def test_resumed_census_peaks_below_one_full_table(tmp_path, capsys):
    # the stored table, the new rows and their concatenation, all alive while
    # the summary ran, peaked at 12.6 MiB here
    x = 60_000
    out = tmp_path / "ints.csv"
    argv = ["census-integers", "-x", str(x), "--out", str(out)]
    assert main(argv) == 0
    full = out.read_bytes()
    out.write_bytes(full[: len(full) // 2 + 7])  # cut mid-row
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv + ["--resume"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == full
    assert peak < (x - 1) * 11 * 8, peak  # the bytes of the census's full table


def test_sweep_artifact_and_reproduction(tmp_path, capsys):
    a = tmp_path / "s1.csv"
    b = tmp_path / "s2.csv"
    assert main(["sweep", "--sizes", "5-13:2", "--out", str(a)]) == 0
    capsys.readouterr()
    argv = argv_from_config(load_results(a).config)
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_dense_limit_default_is_the_census_constant(tmp_path, capsys):
    args = cli.build_parser().parse_args(["sweep", "--sizes", "5"])
    assert args.dense_limit == DENSE_DIMENSION_LIMIT
    out = tmp_path / "s.csv"
    assert main(["sweep", "--sizes", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert load_results(out).config["dense_limit"] == str(DENSE_DIMENSION_LIMIT)


def test_census_artifact_reproduction(tmp_path, capsys):
    a = tmp_path / "c1.csv"
    b = tmp_path / "c2.csv"
    assert main(["census-integers", "-x", "250", "--out", str(a)]) == 0
    capsys.readouterr()
    argv = argv_from_config(load_results(a).config)
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_cli_resume_reconstructs_bytes(tmp_path, capsys):
    out = tmp_path / "ints.csv"
    assert main(["census-integers", "-x", "300", "--out", str(out)]) == 0
    capsys.readouterr()
    full = out.read_bytes()
    out.write_bytes(full[: int(len(full) * 0.5)])
    assert main(["census-integers", "-x", "300", "--out", str(out), "--resume"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert out.read_bytes() == full
    assert doc["summary"]["count"] == 299  # stored rows plus the new ones
    assert doc["rows_written"] < 299


_CENSUS_ARGV = {
    "primes": ["census-primes", "-x", "2000", "--eta", "0.52"],
    "integers": ["census-integers", "-x", "600"],
}


@pytest.mark.parametrize("cut", [0.5, 7 / 1000], ids=["mid-row", "in-header"])
@pytest.mark.parametrize("kind", sorted(_CENSUS_ARGV))
def test_cli_resume_gives_uninterrupted_bytes_and_summary(kind, cut, tmp_path, capsys):
    argv = _CENSUS_ARGV[kind] + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    whole = json.loads(capsys.readouterr().out)
    full = (tmp_path / "out.csv").read_bytes()
    (tmp_path / "out.csv").write_bytes(full[: int(len(full) * cut)])
    assert main(argv + ["--resume"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    assert (tmp_path / "out.csv").read_bytes() == full
    assert resumed["summary"] == whole["summary"]


def test_cli_resume_parses_each_stored_row_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "ints.csv"
    argv = ["census-integers", "-x", "600", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    full = out.read_bytes()
    head = full[: len(full) // 2]
    stored = head.count(b"\n") - 2  # complete lines past header and columns
    out.write_bytes(head)
    parsed = []

    def counting_load(path, kind):
        table = census._load_table(path, kind)
        parsed.append(len(table))
        return table

    monkeypatch.setattr(cli, "_load_table", counting_load)
    monkeypatch.setattr(census, "load_results", None)  # no second read of the rows
    assert main(argv + ["--resume"]) == 0
    assert parsed == [stored]


@pytest.mark.parametrize("cell", [0, 5], ids=["key", "order"])
def test_cli_resume_of_corrupt_file_fails_before_work(cell, tmp_path, capsys):
    out = tmp_path / "ints.csv"
    argv = ["census-integers", "-x", "300", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = out.read_bytes().split(b"\n")
    row = lines[50].split(b",")
    row[cell] = b"oops"
    lines[50] = b",".join(row)
    corrupt = b"\n".join(lines)
    corrupt = corrupt[: int(len(corrupt) * 0.6)]  # and cut mid-row later on
    assert not corrupt.endswith(b"\n")
    out.write_bytes(corrupt)
    assert main(argv + ["--resume"]) == 1
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == corrupt


def _set_key(row: bytes, key: int) -> bytes:
    return b",".join([str(key).encode(), *row.split(b",")[1:]])


# Edits of the stored rows of a census (line 0 is the header) that leave every
# row valid, but the keys not the start of a fresh census
_KEY_EDITS = {
    "repeated-key": ("integers", lambda lines: lines[:100] + [_set_key(lines[100], 150)]
                     + lines[101:]),
    "key-beyond-2**31": ("integers", lambda lines: lines[:-1]
                         + [_set_key(lines[-1], (1 << 31) + 5)]),
    "missing-prime": ("primes", lambda lines: lines[:50] + lines[51:]),
}


@pytest.mark.parametrize("edit", sorted(_KEY_EDITS))
def test_cli_resume_of_keys_that_are_not_the_census_start_exits_1(edit, tmp_path, capsys):
    kind, change = _KEY_EDITS[edit]
    out = tmp_path / "census.csv"
    argv = _CENSUS_ARGV[kind] + ["--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = out.read_bytes().split(b"\n")[:200]
    stored = b"".join(line + b"\n" for line in change(lines))
    out.write_bytes(stored)
    assert main(argv + ["--resume"]) == 1
    assert "error: cannot resume" in capsys.readouterr().err
    assert out.read_bytes() == stored


@pytest.mark.parametrize("line", [0, 1, 50], ids=["header", "columns", "row"])
def test_cli_resume_of_a_file_that_is_not_utf8_exits_1(line, tmp_path, capsys):
    out = tmp_path / "ints.csv"
    argv = ["census-integers", "-x", "300", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = out.read_bytes().split(b"\n")
    lines[line] += b"\xfe"
    corrupt = b"\n".join(lines)
    out.write_bytes(corrupt)
    assert main(argv + ["--resume"]) == 1
    assert "not UTF-8" in capsys.readouterr().err
    assert out.read_bytes() == corrupt


@pytest.mark.parametrize("command", ["census-integers", "census-primes"])
def test_cli_resume_with_another_config_fails_before_work(
    command, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "census.csv"
    assert main([command, "-x", "600", "--out", str(out)]) == 0
    capsys.readouterr()
    full = out.read_bytes()
    head = full[: len(full) // 2]
    assert not head.endswith(b"\n")
    out.write_bytes(head)

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the header was checked")

    monkeypatch.setattr(cli, "_integer_columns", no_compute)
    monkeypatch.setattr(cli, "_prime_columns", no_compute)
    assert main([command, "-x", "1200", "--out", str(out), "--resume"]) == 1
    assert "cannot append: header" in capsys.readouterr().err
    assert out.read_bytes() == head


@pytest.mark.parametrize(
    "argv",
    [["census-primes", "-x", "2000"], ["census-integers", "-x", "2000"], ["sweep", "--sizes", "3-40"]],
    ids=lambda argv: argv[0],
)
def test_small_runs_build_no_large_trial_division_table(argv, tmp_path, capsys, monkeypatch):
    limits = []
    real = arith._sieve_list

    def recording(limit):
        limits.append(limit)
        return real(limit)

    arith._factorize_cached.cache_clear()
    monkeypatch.setattr(arith, "_sieve_list", recording)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert limits
    assert max(limits) <= 1 << 16


def test_sweep_failures_reported(capsys):
    assert main(["sweep", "--sizes", "7,5,350", "-n", "7,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["N"] for r in doc["records"]] == [5]
    assert [n for n, _ in doc["failures"]] == [7, 350]


def test_argv_from_config_round_trip():
    config = {
        "command": "sweep",
        "matrix": "2,1,3,2",
        "sizes": "5-13:2",
        "f": "cos1",
        "n": "1,0",
        "fmt": "csv",
        "dense_limit": "300",
        "timing": "0",
        "kind": "sweep",
    }
    argv = argv_from_config(config)
    assert argv[0] == "sweep"
    assert "--timing" not in argv
    assert argv_from_config({**config, "timing": "1"}).count("--timing") == 1
    with pytest.raises(ValueError):
        argv_from_config({"command": "sweep", "mystery": "3"})


# every command that writes an artifact, in each format it writes
_ARTIFACT_ARGV = {
    "profile": ["profile", "-N", "360", "--eta", "0.52", "--matrix", "2,3,1,2"],
    "nu": ["nu", "-N", "77", "-n", "2,1"],
    "small-order": ["small-order", "--k-max", "12"],
    "propagator": ["propagator", "-N", "9"],
    "spectrum": ["spectrum", "-N", "12", "--matrix", "4,1,-1,0"],
    "fourth-moment": ["fourth-moment", "-N", "31", "-n", "1,1"],
    "sweep-csv": ["sweep", "--sizes", "5-13:2", "--f", "cos2", "-n", "1,1", "--dense-limit", "11"],
    "sweep-json": ["sweep", "--sizes", "5-9", "--f", "c:(1,0)=0.5,0;c:(0,1)=0,1", "--fmt", "json"],
    "census-primes-csv": ["census-primes", "-x", "300", "--eta", "0.52"],
    "census-primes-json": ["census-primes", "-x", "300", "--fmt", "json"],
    "census-integers-csv": ["census-integers", "-x", "250", "--matrix", "2,3,1,2"],
    "census-integers-json": ["census-integers", "-x", "250", "--eta", "0.58", "--fmt", "json"],
}


@pytest.mark.parametrize("name", sorted(_ARTIFACT_ARGV))
def test_every_artifact_regenerates_from_its_config(name, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_ARTIFACT_ARGV[name] + ["--out", str(a)]) == 0
    printed = capsys.readouterr().out
    text = a.read_text()
    config = json.loads(text)["config"] if text.startswith("{") else load_results(a).config
    assert main(argv_from_config(config) + ["--out", str(b)]) == 0
    assert capsys.readouterr().out == printed
    assert b.read_bytes() == a.read_bytes()


def test_sweep_json_config_keeps_its_key_order(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["sweep", "--sizes", "5", "--fmt", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    config = json.loads(out.read_text())["config"]
    assert list(config) == ["command", "matrix", "sizes", "f", "n", "fmt", "dense_limit", "timing"]


@pytest.mark.parametrize(
    "f", ["c:(1,0)=1,0; c:(-1,0)=1,0", "c:(1,0)=1,0\n"], ids=["semicolon", "newline"]
)
def test_a_config_the_csv_header_cannot_hold_exits_1_and_writes_nothing(f, tmp_path, capsys):
    argv = ["sweep", "--sizes", "5,7", "--f", f]
    out = tmp_path / "s.csv"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "CSV header" in captured.err
    assert captured.out == ""
    assert not out.exists()
    a, b = tmp_path / "a.json", tmp_path / "b.json"  # a JSON artifact holds it
    assert main(argv + ["--fmt", "json", "--out", str(a)]) == 0
    config = json.loads(a.read_text())["config"]
    assert main(argv_from_config(config) + ["--out", str(b)]) == 0
    assert b.read_bytes() == a.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["census-integers", "-x", "1000000"],
        ["census-primes", "-x", "1000000"],
        ["sweep", "--sizes", "3-64,65-101:2", "--f", "cos1", "-n", "1,0"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_a_config_the_csv_header_cannot_hold_fails_before_work(
    argv, existing, tmp_path, capsys, monkeypatch
):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the header was built")

    for engine in ("_integer_columns", "_prime_columns", "quantum_sweep"):
        monkeypatch.setattr(cli, engine, no_compute)
    out = tmp_path / "artifact.csv"
    if existing:
        out.write_bytes(b"#stored; kind=other\nunrelated\n")
    before = out.read_bytes() if existing else None
    assert main(argv + ["--matrix", "2,1,3,2\n", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "CSV header" in captured.err
    assert captured.out == ""
    assert out.read_bytes() == before if existing else not out.exists()


# ---------------------------------------------------------------------------
# check subcommand


def test_check_quick_subset_passes(capsys):
    code = main(["check", "--quick", "--only", "nu-bounds,order-lcm-composition"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[ok]") == 2
    assert "all 2 checks passed" in out


def test_check_unknown_name_exits_1(capsys):
    assert main(["check", "--only", "bogus-check"]) == 1
    assert "unknown check names" in capsys.readouterr().err


def test_check_failure_exits_3(monkeypatch, capsys):
    import catmap.cli as cli_mod

    def fake_run_checks(**kwargs):
        return [
            CheckResult("alpha", True, "fine", 0.01),
            CheckResult("beta", False, "broken", 0.02),
        ]

    monkeypatch.setattr(cli_mod, "run_checks", fake_run_checks)
    assert main(["check", "--quick"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] beta" in out
    assert "FAILED 1/2" in out


# ---------------------------------------------------------------------------
# real process entry


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "catmap.cli", "order", "-N", "55"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "30\n"
    proc = subprocess.run(
        [sys.executable, "-m", "catmap.cli", "order", "--matrix", "1,1,0,1", "-N", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
