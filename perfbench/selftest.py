"""Self-tests for the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps the benchmark contract's shape, that a short
run of every workload reports every named metric with its unit (untraced and
traced), that every per-layer metric sees work on some workload, and that the
output checks reject corrupted artifacts.  Takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class ContractShape(unittest.TestCase):
    def test_keys_names_units(self):
        self.assertEqual(
            set(BENCH),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCH["end_to_end"]))
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)


class ShortRuns(unittest.TestCase):
    """One short run per workload and mode; every named metric is reported."""

    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_every_metric_with_unit(self):
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                section = BENCH["per_layer" if trace else "end_to_end"]
                want = {m["name"]: m["unit"] for m in section}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                if not trace:
                    for k, v in result["metrics"].items():
                        self.assertGreater(v["value"], 0, k)

    def test_every_layer_sees_work_somewhere(self):
        for m in BENCH["per_layer"]:
            values = [self.results[(w, 1)]["metrics"][m["name"]]["value"] for w in WORKLOADS]
            self.assertTrue(any(values), m["name"])


class OutputChecks(unittest.TestCase):
    """The checks accept the reference outputs and reject corrupted ones."""

    @classmethod
    def setUpClass(cls):
        cls.refs = wl.load_references()[wl.POOL[0]]
        cls.tmp = ROOT / ".bench_build" / "perfbench" / "selftest"
        cls.tmp.mkdir(parents=True, exist_ok=True)
        full = cls.tmp / "full.csv"
        subprocess.run(
            [sys.executable, "-m", "catmap.cli", *wl.full_integers_argv(wl.POOL[0], str(full))],
            cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
            check=True, stdout=subprocess.DEVNULL, timeout=300,
        )
        cls.full = full

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def _check_integers(self, path: Path):
        ref = self.refs["census-integers"]
        attempted = wl.attempted_items("census-integers", ref, last_key=1)
        doc = json.dumps({"summary": ref["summary"], "rows_written": attempted})
        return wl.check_call("census-integers", 0, doc, str(path), ref, attempted, self.full)

    def test_reference_artifact_passes(self):
        copy = self.tmp / "copy.csv"
        shutil.copyfile(self.full, copy)
        self.assertEqual(self._check_integers(copy), (0, []))

    def test_changed_ord_cell_is_rejected(self):
        lines = self.full.read_text().splitlines(keepends=True)
        cols = lines[1].rstrip("\n").split(",")
        cells = lines[1000].rstrip("\n").split(",")
        ord_at = cols.index("ord")
        cells[ord_at] = str(int(cells[ord_at]) + 1)
        lines[1000] = ",".join(cells) + "\n"
        bad = self.tmp / "bad.csv"
        bad.write_text("".join(lines))
        failed, problems = self._check_integers(bad)
        self.assertEqual(failed, wl.INTEGERS_X - 1)
        self.assertIn("record digest differs from the reference", problems)

    def test_sweep_rows(self):
        from catmap.census import SweepRecord

        ref = self.refs["sweep"]
        records = [
            SweepRecord(r["N"], r["n1"], r["n2"], r["S4"], float(r["bound"]),
                        r["S4"] / float(r["bound"]), r["variance"], r["max_dev"],
                        r["rstar"], 0)
            for r in ref["rows"]
        ]
        doc = {"failures": []}
        self.assertEqual(wl.check_sweep(doc, records, ref), (set(), []))
        simple = ref["simple_N"][-1]
        at = next(i for i, r in enumerate(records) if r.N == simple)
        r = records[at]
        records[at] = SweepRecord(r.N, r.n1, r.n2, r.s4 * (1 + 1e-6), r.bound, r.ratio,
                                  r.variance, r.max_dev, r.rstar + 1, 0)
        failed, problems = wl.check_sweep(doc, records, ref)
        self.assertEqual(failed, {simple})
        self.assertEqual(len(problems), 1)
        failed, _ = wl.check_sweep({"failures": [[3, "boom"]]}, records[1:], ref)
        self.assertEqual(failed, {3, simple})


if __name__ == "__main__":
    unittest.main()
