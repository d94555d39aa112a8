#!/usr/bin/env python3
"""Tests of the benchmark itself: answer checking, input generation and
a small-size run of every workload, traced and untraced.

    python3 perfbench/test_perfbench.py

The small runs build the program first, like the benchmark does.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Judge(unittest.TestCase):
    def test_consistent(self):
        self.assertEqual(run.judge(run.CONSISTENT, "consistent"), "ok")
        self.assertEqual(run.judge(run.CONSISTENT, "inconsistent"), "wrong")
        self.assertEqual(run.judge(run.CONSISTENT, "unknown"), "failed")
        self.assertEqual(run.judge(run.CONSISTENT, "overloaded"), "failed")

    def test_conflict_needs_culprit_and_partners(self):
        want = run.conflict("R11", ["R1", "R8", "R10"])
        self.assertEqual(run.judge(want, "inconsistent", "R11", ["R10"]), "ok")
        self.assertEqual(run.judge(want, "inconsistent", "R10", ["R11"]),
                         "wrong")
        self.assertEqual(run.judge(want, "inconsistent", "R11", []), "wrong")
        self.assertEqual(run.judge(want, "inconsistent", "R11", ["R2"]),
                         "wrong")
        self.assertEqual(run.judge(want, "consistent"), "wrong")
        # serve carries no localization: the verdict alone is judged
        self.assertEqual(run.judge(want, "inconsistent"), "ok")

    def test_partition_fix(self):
        want = run.partition_fix("info_lock")
        self.assertEqual(run.judge(want, "unknown", None, [], ["info_lock"]),
                         "ok")
        self.assertEqual(run.judge(want, "inconsistent", None, [], ["x"]),
                         "wrong")
        self.assertEqual(run.judge(want, "consistent", None, [], []), "wrong")
        self.assertEqual(run.judge(want, "unknown"), "failed")
        self.assertEqual(run.judge(want, "inconsistent"), "ok")


class Inputs(unittest.TestCase):
    def test_edit_script_shape(self):
        lines, expected = run.edit_script(7, 30)
        self.assertEqual(len([l for l in lines if l.startswith("doc\t")]), 8)
        kinds = [k for k, _ in expected]
        self.assertEqual(kinds[:5], list(run.EDIT_CYCLE))
        self.assertEqual(kinds.count("consistent"), 90)
        self.assertEqual(kinds.count("conflict"), 30)
        self.assertEqual(kinds.count("revert"), 30)
        self.assertEqual(run.edit_script(7, 30)[0], lines)
        self.assertNotEqual(run.edit_script(8, 30)[0], lines)

    def test_edit_states_are_new_except_reverts(self):
        lines, expected = run.edit_script(3, 40)
        doc = {}
        for line in lines:
            kind, rid, text = line.split("\t")
            if kind == "doc":
                doc[rid] = text
        seen = {tuple(sorted(doc.items()))}
        edits = [l.split("\t") for l in lines if l.startswith("edit\t")]
        for (_, rid, text), (kind, _) in zip(edits, expected):
            doc[rid] = text
            state = tuple(sorted(doc.items()))
            self.assertEqual(state in seen, kind == "revert", kind)
            seen.add(state)

    def test_serve_mix(self):
        requests = run.serve_requests(random.Random(5), 0, False)
        distinct = [r for r in requests
                    if r[3] is None and not r[4].startswith("live~")]
        near = [r for r in requests if r[4].startswith("live~")
                and r[3] is None]
        repeats = [r for r in requests if r[3] is not None]
        self.assertEqual(len(distinct), len(near))
        self.assertEqual(len(distinct), len(repeats))
        ids = [r[0] for r in requests]
        for r in repeats:
            self.assertLess(ids.index(r[3]), ids.index(r[0]))
        self.assertEqual(len({r[1] for r in near}), len(near))
        self.assertEqual(run.serve_requests(random.Random(5), 0, False),
                         requests)


class SmallRuns(unittest.TestCase):
    def small(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "1", "--trace",
             str(trace), "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in
                 spec()["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        return result

    def test_check(self):
        result = self.small("check", 0)
        self.assertEqual(result["failed"], 1)  # Robot:1 at the limit

    def test_check_traced(self):
        self.small("check", 1)

    def test_serve(self):
        self.small("serve", 0)

    def test_serve_traced(self):
        self.small("serve", 1)

    def test_edit(self):
        self.small("edit", 0)

    def test_edit_traced(self):
        result = self.small("edit", 1)
        self.assertGreater(result["metrics"]["watch.verdict_hits"]["value"], 0)


class Bare(unittest.TestCase):
    def test_refuses_without_sources(self):
        os.makedirs(run.BUILD, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.BUILD)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "check",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
