#!/usr/bin/env python3
"""SpecCC benchmark: the check, serve and edit workloads.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The first run builds the CLI
and the benchmark driver (perfbench/driver) with dune into
.bench_build/; later runs reuse that build.  Every input is generated
here from --seed; every answer is checked against a known answer
written down here, never one computed by the code under test.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run is made untraced and then replayed with a span around every call
into a layer, and the metrics are the per-layer ones.  A wrong
definite verdict makes the exit code 1.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "corpus")
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(BUILD, "run")
DRIVER = os.path.join(BUILD, "default", "perfbench", "driver", "perfbench.exe")
CLI = os.path.join(BUILD, "default", "bin", "speccc_cli.exe")

# Wall limit per check document.  Above every document that gets its
# answer (the slowest, TELE:1, takes 3-5 s); documents that reach it
# are killed and count as failed.
CHECK_LIMIT_S = 8.0
# Serve request deadline: far above the slowest governed request
# (TELE:1, about 4 s), so the watchdog never decides a verdict.
SERVE_DEADLINE_S = 60.0
SETUPS = 15
EDIT_CYCLE = ("consistent", "consistent", "consistent", "conflict", "revert")
EDIT_MIN_OPS = 100  # p90 then has at least 10 samples beyond it

# ---------- known answers ----------

CONSISTENT = {"verdict": "consistent"}


def partition_fix(prop):
    """Table I: not consistent until `prop` is moved to the outputs."""
    return {"verdict": "not-consistent", "fix": prop}


def conflict(culprit, partners):
    """Inconsistent; `culprit` is located, with partners among `partners`."""
    return {"verdict": "inconsistent", "culprit": culprit, "partners": partners}


# The "pump is started" sentences of the live document: each one
# conflicts with "If the button is pressed, the pump is not started."
LIVE_PUMP_STARTED = ["R1", "R8", "R10"]

CHECK_CORPUS = (
    [("CARA:" + row, "cara_%s.spec" % row, CONSISTENT)
     for row in ["0", "1", "2.1.1", "2.1.2", "2.1.3", "2.2.1", "2.2.2",
                 "2.2.3", "2.2.4", "2.2.5", "2.2.6", "2.2.7", "3.1", "3.2"]]
    + [("TELE:1", "tele_1.spec", CONSISTENT),
       ("TELE:2", "tele_2.spec", CONSISTENT),
       ("TELE:3", "tele_3.spec", CONSISTENT),
       ("TELE:4", "tele_4.spec", partition_fix("info_lock")),
       ("TELE:5", "tele_5.spec", partition_fix("bb_lock")),
       ("Robot:1", "robot:1x4", CONSISTENT),
       ("Robot:2", "robot:1x9", CONSISTENT),
       ("Robot:3", "robot:2x5", CONSISTENT),
       ("alarm_conflict", "alarm_conflict.spec",
        conflict("Req-02", ["Req-01"])),
       ("pump_control", "pump_control.spec", CONSISTENT),
       ("start_stop", "start_stop.spec", CONSISTENT),
       ("live", "live.spec", CONSISTENT),
       ("live_conflict", "live_conflict.spec",
        conflict("R11", LIVE_PUMP_STARTED))])

SMALL_CHECK = ["CARA:2.2.6", "TELE:2", "alarm_conflict", "pump_control",
               "Robot:1", "Robot:3"]

# Sentence material for generated edits, the live document's own: every
# sentence is "if <input condition>, <output> holds", so any document
# built from them plus the live document's liveness sentences is
# consistent (a controller can keep every output true).
CONDITIONS = ["the button is pressed", "the occlusion is present",
              "the pressure is high", "the signal is low"]
EFFECTS = ["the pump is started", "the alarm is triggered",
           "the valve is opened", "the monitor is enabled"]
CONFLICT_WITH_R1 = "If the button is pressed, the pump is not started."


def positive_sentences():
    return ["If %s, %s." % (c, e) for c in CONDITIONS for e in EFFECTS]


def judge(expected, verdict, culprit=None, partners=(), moved_to_output=None):
    """'ok', 'failed' (no definite answer) or 'wrong'.  `culprit` and
    `moved_to_output` are None where the entry point does not refine
    (serve)."""
    want = expected["verdict"]
    refined = moved_to_output is not None
    if want == "not-consistent" and verdict in ("inconsistent", "unknown") \
            and refined:
        return "ok" if expected["fix"] in moved_to_output else "wrong"
    if verdict not in ("consistent", "inconsistent"):
        return "failed"
    if (verdict == "consistent") != (want == "consistent"):
        return "wrong"
    if want != "inconsistent" or culprit is None:
        return "ok"
    if culprit != expected["culprit"] or not partners:
        return "wrong"
    return "ok" if set(partners) <= set(expected["partners"]) else "wrong"


# ---------- statistics ----------

def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def middle_mean(values):
    """The median, smoothed: the mean of the five values around the
    middle rank.  On check's 27 documents a plain median is one
    document's time and jumps with its noise."""
    ordered = sorted(values)
    mid = (len(ordered) - 1) // 2
    middle = ordered[max(0, mid - 2):mid + 3]
    return sum(middle) / len(middle)


def geomean(values):
    return math.exp(sum(math.log(max(v, 1e-6)) for v in values) / len(values))


def ratio(num, den):
    return num / den if den else 0.0


# ---------- processes ----------

def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        log("perfbench: no SpecCC sources at %s; run from a checkout" % ROOT)
        sys.exit(2)
    if shutil.which("dune") is None:
        log("perfbench: dune not found")
        sys.exit(2)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "./bin/speccc_cli.exe", "./perfbench/driver/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def child_env():
    return dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def run_process(cmd, limit, out_path):
    """Run to completion or kill at `limit` seconds.  Returns (killed,
    wall seconds, peak RSS in MB, stdout lines)."""
    with open(out_path, "w") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env())
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = [json.loads(line) for line in f if line.startswith("{")]
    killed = killed.is_set() and wall >= limit
    return killed, wall, usage.ru_maxrss / 1024.0, lines


class Run:
    """Results of one workload run: per-op outcomes and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.metrics = {}

    def outcome(self, name, verdict_outcome):
        self.attempted += 1
        if verdict_outcome != "ok":
            self.failed += 1
        if verdict_outcome == "wrong":
            self.wrong.append(name)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}


def end_to_end(run, latencies_ms, total_s, ops_per_s, setups_s, rss_mb):
    run.metric("latency_p50_ms", middle_mean(latencies_ms), "ms")
    run.metric("latency_p90_ms", percentile(latencies_ms, 90), "ms")
    run.metric("total_s", total_s, "s")
    run.metric("geomean_ms", geomean(latencies_ms), "ms")
    run.metric("throughput_ops", ops_per_s, "ops/s")
    run.metric("ok_share", ratio(run.attempted - run.failed, run.attempted),
               "ratio")
    run.metric("setup_s", statistics.median(setups_s), "s")
    run.metric("peak_rss_mb", rss_mb, "MB")


# ---------- per-layer metrics ----------

LAYER_MS = ["translate", "timeabs", "partition", "synthesis"]
INCLUSIVE_MS = ["localize", "refine"]
CACHES = ["nlp.parse", "nbw.of_ltl", "nbw.template", "logic.nnf"]


def sum_dicts(dicts):
    total = {}
    for d in dicts:
        for k, v in d.items():
            total[k] = total.get(k, 0) + v
    return total


def layer_sums(layer_dicts):
    """Merge driver layer tables: name -> (self ms, inclusive ms, n)."""
    merged = {}
    for table in layer_dicts:
        for name, t in table.items():
            s, i, n = merged.get(name, (0.0, 0.0, 0))
            merged[name] = (s + t["self_ms"], i + t["total_ms"], n + t["n"])
    return merged


def per_layer(run, ops, layers, counters, synth, localize_checks):
    """Metrics every workload derives from its traced replay."""
    for name in LAYER_MS:
        run.metric(name + ".ms", layers.get(name, (0.0, 0.0, 0))[0] / ops, "ms")
    for name in INCLUSIVE_MS:
        run.metric(name + ".ms", layers.get(name, (0.0, 0.0, 0))[1] / ops, "ms")
    for cache in CACHES:
        hits = counters.get(cache + ".hits", 0)
        misses = counters.get(cache + ".misses", 0)
        run.metric("cache.%s.hit_rate" % cache, ratio(hits, hits + misses),
                   "ratio")
    run.metric("ltl.hashcons_nodes", counters.get("hashcons_nodes", 0) / ops,
               "count")
    run.metric("bdd.nodes", counters.get("bdd.nodes", 0) / ops, "count")
    run.metric("bdd.op_hit_rate",
               ratio(counters.get("bdd.op_hits", 0),
                     counters.get("bdd.op_hits", 0)
                     + counters.get("bdd.op_misses", 0)), "ratio")
    run.metric("bdd.reorders", counters.get("bdd.reorders", 0) / ops, "count")
    run.metric("synthesis.explicit_n", synth.get("explicit", 0) / ops, "count")
    run.metric("synthesis.symbolic_n", synth.get("symbolic", 0) / ops, "count")
    run.metric("synthesis.degraded_n", synth.get("degraded", 0) / ops, "count")
    run.metric("localize.checks", localize_checks / ops, "count")


def zero_metrics(run, names_units):
    """Layers a workload does not pass through read 0."""
    for name, unit in names_units:
        if name not in run.metrics:
            run.metric(name, 0.0, unit)


ALL_LAYER_METRICS = [
    ("watch.parse_hits", "count"), ("watch.blocks_reused", "count"),
    ("watch.solo_reused", "count"), ("watch.verdict_hits", "count"),
    ("bounded.built_blocks", "count"), ("bounded.solved_solo", "count"),
    ("harness.check_one_ms", "ms"), ("harness.attempts_mean", "count"),
    ("server.exec_ms_p50", "ms"), ("server.exec_ms_p90", "ms"),
    ("server.wait_ms_p50", "ms"), ("server.wait_ms_p90", "ms"),
    ("server.watchdog_trips", "count"), ("server.shed", "count"),
    ("store.hit_share", "ratio"), ("store.find_us", "us"),
    ("store.put_us", "us"), ("jsonl.parse_us", "us"),
    ("jsonl.render_us", "us"), ("engine_divergence_n", "count"),
]


def divergence(run, records):
    diverged = [r for r in records
                if (r["check_verdict"], r["check_engine"])
                != (r["serve_verdict"], r["serve_engine"])]
    for r in diverged:
        print("diverges %-16s check %s/%s  serve %s/%s" % (
            r["doc"], r["check_verdict"], r["check_engine"],
            r["serve_verdict"], r["serve_engine"]))
    run.metric("engine_divergence_n", len(diverged), "count")


def fidelity(untraced, traced, keys):
    """Per-op differences between the untraced run and its replay."""
    return [(i, k, a.get(k), b.get(k))
            for i, (a, b) in enumerate(zip(untraced, traced))
            for k in keys if a.get(k) != b.get(k)]


# ---------- workload: check ----------

def check_corpus(rng, small):
    corpus = [c for c in CHECK_CORPUS if not small or c[0] in SMALL_CHECK]
    corpus = [(name, os.path.join(CORPUS, src) if src.endswith(".spec")
               else src, expected) for name, src, expected in corpus]
    for _, src, _ in corpus:
        if src.endswith(".spec"):
            with open(src) as f:
                f.read()
    rng.shuffle(corpus)
    return corpus


def check_setup(seed, small):
    """Corpus generation plus one driver process start."""
    started = time.perf_counter()
    corpus = check_corpus(random.Random(seed), small)
    run_process([DRIVER, "probe"], 60, os.path.join(RUN_DIR, "probe.out"))
    return corpus, time.perf_counter() - started


def run_check_doc(name, src, limit, extra=()):
    out = os.path.join(RUN_DIR, "doc.out")
    killed, wall, rss, lines = run_process(
        [DRIVER, "doc", src] + list(extra), limit, out)
    result = lines[-1] if lines and not killed else None
    return killed, wall, rss, result


def workload_check(args, run):
    limit = 1.0 if args.small else CHECK_LIMIT_S
    setups = []
    for _ in range(SETUPS):
        corpus, setup_s = check_setup(args.seed, args.small)
        setups.append(setup_s)
    latencies, passes, rss = [], [], 0.0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        pass_started = time.perf_counter()
        for name, src, expected in corpus:
            killed, wall, doc_rss, result = run_check_doc(name, src, limit)
            latencies.append(wall * 1000.0)
            if killed or result is None:
                verdict_outcome, row = "failed", ("killed", "-")
            else:
                verdict_outcome = judge(
                    expected, result["verdict"], result["culprit"],
                    result["partners"], result["moved_to_output"])
                row = (result["verdict"], result["engine"])
                rss = max(rss, doc_rss)
            run.outcome(name, verdict_outcome)
            print("doc %-16s %-8s %-12s %10.1f ms  %s" % (
                name, row[1], row[0], wall * 1000.0, verdict_outcome))
        passes.append(time.perf_counter() - pass_started)
        if args.small:
            break
    total = sum(passes)
    end_to_end(run, latencies, statistics.median(passes), len(latencies) / total,
               setups, rss)


def trace_check(args, run):
    """Untraced pass, then each document replayed with spans, and the
    serve path run on it for the check-vs-serve engine record."""
    limit = 1.0 if args.small else CHECK_LIMIT_S
    corpus, _ = check_setup(args.seed, args.small)
    layers, counters, synth, checks = [], [], [], 0
    records, mismatches = [], []
    untraced_ms = traced_ms = 0.0
    for name, src, expected in corpus:
        killed, _, _, plain = run_check_doc(name, src, limit)
        tkilled, _, _, traced = run_check_doc(
            name, src, limit,
            ["--trace", os.path.join(RUN_DIR, "trace-check-%s.jsonl"
                                     % name.replace(":", "_"))])
        run.outcome(name, "failed" if killed or plain is None else judge(
            expected, plain["verdict"], plain["culprit"], plain["partners"],
            plain["moved_to_output"]))
        if (plain is None) != (traced is None):
            mismatches.append((name, "killed", killed, tkilled))
            continue
        if plain is None:
            continue
        mismatches += [(name,) + m[1:] for m in fidelity(
            [plain], [traced], ["verdict", "engine", "culprit", "partners",
                                "moved_to_output"])]
        untraced_ms += plain["wall_ms"]
        traced_ms += traced["wall_ms"]
        layers.append(traced["layers"])
        counters.append(traced["counters"])
        synth.append(traced["synth"])
        checks += traced["localize_checks"]
        if src.endswith(".spec"):
            _, _, _, served = run_check_doc(name, src, 120, ["--serve-only"])
            if served is not None:
                records.append({"doc": name, "check_verdict": plain["verdict"],
                                "check_engine": plain["engine"],
                                "serve_verdict": served["serve"]["verdict"],
                                "serve_engine": served["serve"]["engine"]})
    # per replayed document: killed documents have no replay
    per_layer(run, len(layers), layer_sums(layers), sum_dicts(counters),
              sum_dicts(synth), checks)
    divergence(run, records)
    run.metric("trace.overhead_share", ratio(traced_ms, untraced_ms) - 1.0,
               "ratio")
    return mismatches


# ---------- workload: serve ----------

def near_duplicate(rng, live, seen):
    """The live document with one of R1-R12 replaced by another
    consistent sentence; never a document `seen` before."""
    pool = positive_sentences()
    while True:
        i = rng.randrange(12)
        text = rng.choice([s for s in pool if s not in live])
        doc = list(live)
        doc[i] = text
        key = "\n".join(doc)
        if key not in seen:
            seen.add(key)
            return doc


def render(sentences):
    return "".join("R%d: %s\n" % (i + 1, s) for i, s in enumerate(sentences))


def read_spec(path):
    with open(path) as f:
        return f.read()


def live_sentences():
    with open(os.path.join(CORPUS, "live.spec")) as f:
        return [line.split(": ", 1)[1].rstrip("\n") for line in f
                if line.startswith("R")]


def serve_requests(rng, session, small):
    """One session's requests: distinct corpus documents, near
    duplicates of the live document and exact repeats, a third each,
    in seeded order.  Returns [(id, text, expected, repeat_of, name)]."""
    distinct = [(name, read_spec(os.path.join(CORPUS, src)), expected)
                for name, src, expected in CHECK_CORPUS
                if src.endswith(".spec")]
    if small:
        distinct = [d for d in distinct if d[0] in SMALL_CHECK]
    live, seen = live_sentences(), set()
    kinds = ["distinct", "near", "repeat"] * len(distinct)
    rng.shuffle(distinct)
    rng.shuffle(kinds)
    requests, answered = [], []
    for n in range(len(kinds)):
        if kinds[n] == "repeat" and not answered:
            # nothing to repeat yet: swap in the next first-time request
            later = next(j for j in range(n, len(kinds))
                         if kinds[j] != "repeat")
            kinds[n], kinds[later] = kinds[later], kinds[n]
        rid = "s%d-%d" % (session, n)
        if kinds[n] == "repeat":
            original, text, expected, name = rng.choice(answered)
            requests.append((rid, text, expected, original, name))
            continue
        if kinds[n] == "distinct":
            name, text, expected = distinct.pop()
        else:
            name = "live~%d" % len(seen)
            text, expected = render(near_duplicate(rng, live, seen)), CONSISTENT
        requests.append((rid, text, expected, None, name))
        # only definite verdicts are stored, so only they are repeated
        if expected["verdict"] != "not-consistent":
            answered.append((rid, text, expected, name))
    return requests


def start_server(store):
    started = time.perf_counter()
    proc = subprocess.Popen(
        [CLI, "serve", "--workers", "2", "--request-deadline",
         str(SERVE_DEADLINE_S), "--store", store],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, bufsize=1, env=child_env())
    proc.stdin.write('{"id":"health","cmd":"health"}\n')
    proc.stdin.flush()
    json.loads(proc.stdout.readline())
    return proc, time.perf_counter() - started


def stop_server(proc):
    proc.stdin.write('{"id":"health","cmd":"health"}\n')
    proc.stdin.flush()
    health = json.loads(proc.stdout.readline())["health"]
    proc.stdin.write('{"id":"bye","cmd":"shutdown"}\n')
    proc.stdin.flush()
    proc.stdin.close()
    proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return health, usage.ru_maxrss / 1024.0


def serve_session(requests, store):
    """Closed loop, 2 requests outstanding, over one fresh server."""
    if os.path.exists(store):
        os.remove(store)
    proc, _ = start_server(store)
    pending, answered, responses = {}, set(), []
    by_id = {r[0]: r for r in requests}
    queue = list(requests)
    started = time.perf_counter()
    while queue or pending:
        while queue and len(pending) < 2 and (
                queue[0][3] is None or queue[0][3] in answered):
            rid, text = queue.pop(0)[:2]
            pending[rid] = time.perf_counter()
            proc.stdin.write(json.dumps({"id": rid, "doc": text}) + "\n")
            proc.stdin.flush()
        line = proc.stdout.readline()
        now = time.perf_counter()
        response = json.loads(line)
        rid = response.get("id")
        sent = pending.pop(rid)
        answered.add(rid)
        responses.append((by_id[rid], response, (now - sent) * 1000.0))
    loop_s = time.perf_counter() - started
    health, rss = stop_server(proc)
    return loop_s, responses, health, rss


def judge_response(request, response):
    verdict = response.get("verdict", response.get("error", "failed"))
    return judge(request[2], verdict)


def workload_serve(args, run):
    """Fresh server sessions, each over one generated request set,
    until the run's seconds are used."""
    rng = random.Random(args.seed)
    store = os.path.join(RUN_DIR, "serve.store")
    setups, loops, latencies, rss, sessions = [], [], [], [], []
    # set-up alone, repeated: a server start until its first health
    # answer, then an idle shutdown
    for _ in range(SETUPS):
        if os.path.exists(store):
            os.remove(store)
        proc, setup_s = start_server(store)
        setups.append(setup_s)
        stop_server(proc)
    started = time.perf_counter()
    while not sessions or time.perf_counter() - started < args.seconds:
        requests = serve_requests(rng, len(sessions), args.small)
        loop_s, responses, health, srss = serve_session(requests, store)
        loops.append(loop_s)
        rss.append(srss)
        for request, response, latency in responses:
            latencies.append(latency)
            run.outcome(request[0], judge_response(request, response))
        sessions.append((requests, responses, health))
        if args.small:
            break
    done = len(latencies)
    print("serve: %d sessions, %d requests, store hits %d" % (
        len(sessions), done,
        sum(s[2].get("store", {}).get("hits", 0) for s in sessions)))
    end_to_end(run, latencies, statistics.median(loops), done / sum(loops),
               setups, statistics.median(rss))
    return sessions


def trace_serve(args, run):
    plain = Run()
    sessions = workload_serve(args, plain)
    run.attempted, run.failed, run.wrong = \
        plain.attempted, plain.failed, plain.wrong
    requests, responses, _ = sessions[0]
    lines = os.path.join(RUN_DIR, "serve-requests.jsonl")
    with open(lines, "w") as f:
        for rid, text, *_ in requests:
            f.write(json.dumps({"id": rid, "doc": text}) + "\n")
    # the check-vs-serve record covers the corpus documents and one
    # near duplicate (they all share the live document's shape)
    names = {r[0]: r[4] for r in requests}
    firsts = [r for r in requests if r[3] is None]
    record = [r[0] for r in firsts if not r[4].startswith("live~")] \
        + [r[0] for r in firsts if r[4].startswith("live~")][:1]

    def replay(extra):
        store = os.path.join(RUN_DIR, "serve-replay.store")
        if os.path.exists(store):
            os.remove(store)
        _, _, _, out = run_process(
            [DRIVER, "serve-replay", lines, "--store", store, "--deadline",
             str(SERVE_DEADLINE_S)] + extra,
            170, os.path.join(RUN_DIR, "serve-replay.out"))
        return [r for r in out if "op" in r], out[-1]

    plain_rows, _ = replay([])
    rows, summary = replay(
        ["--trace", os.path.join(RUN_DIR, "trace-serve.jsonl"),
         "--divergence-ids", ",".join(record)])
    for r in summary["divergence"]:
        r["doc"] = names[r["doc"]]
    answers = {resp["id"]: resp for _, resp, _ in responses}
    mismatches = [(row["id"], k, answers[row["id"]].get(k), row[k])
                  for row in rows for k in ("verdict", "engine")
                  if answers[row["id"]].get(k) != row[k]]
    ops = len(rows)
    layers = layer_sums([summary["layers"]])
    fresh = [row for row in rows if not row["hit"]]
    synth = {"explicit": sum(r["engine"] == "explicit" for r in fresh),
             "symbolic": sum(r["engine"] == "symbolic" for r in fresh),
             "degraded": sum(r["degraded"] for r in fresh)}
    per_layer(run, ops, layers, summary["counters"], synth, 0)

    def mean_us(name):
        self_ms, _, n = layers.get(name, (0.0, 0.0, 0))
        return ratio(self_ms * 1000.0, n)

    check_one = layers.get("harness.check_one", (0.0, 0.0, 0))
    run.metric("harness.check_one_ms", ratio(check_one[0], check_one[2]), "ms")
    run.metric("harness.attempts_mean",
               ratio(sum(r["attempts"] for r in fresh), len(fresh)), "count")
    for name in ("store.find", "store.put", "jsonl.parse", "jsonl.render"):
        run.metric(name + "_us", mean_us(name), "us")
    exec_ms, wait_ms, trips, shed, hits, lookups = [], [], 0, 0, 0, 0
    for _, session_responses, health in sessions:
        for _, resp, latency in session_responses:
            if resp.get("attempts", 0) >= 1:
                exec_ms.append(resp["wall"] * 1000.0)
                wait_ms.append(latency - resp["wall"] * 1000.0)
        trips += health["watchdog_trips"]
        shed += health["shed"]
        hits += health["store"]["hits"]
        lookups += health["store"]["hits"] + health["store"]["misses"]
    run.metric("server.exec_ms_p50", percentile(exec_ms, 50), "ms")
    run.metric("server.exec_ms_p90", percentile(exec_ms, 90), "ms")
    run.metric("server.wait_ms_p50", percentile(wait_ms, 50), "ms")
    run.metric("server.wait_ms_p90", percentile(wait_ms, 90), "ms")
    run.metric("server.watchdog_trips", trips, "count")
    run.metric("server.shed", shed, "count")
    run.metric("store.hit_share", ratio(hits, lookups), "ratio")
    divergence(run, summary["divergence"])
    untraced = sum(r["wall_ms"] for r in plain_rows)
    traced = sum(r["wall_ms"] for r in rows)
    run.metric("trace.overhead_share", ratio(traced, untraced) - 1.0, "ratio")
    return mismatches


# ---------- workload: edit ----------

def replaced(doc, slot, text):
    return tuple(doc[:slot]) + (text,) + tuple(doc[slot + 1:])


def unseen(rng, candidates, seen):
    """A seeded pick among `candidates` (documents) not in `seen`."""
    for _ in range(64):
        pick = rng.choice(candidates)
        if pick[0] not in seen:
            return pick
    return rng.choice(candidates)


# Conflict costs differ a lot from document to document (0.3-2 s), so
# every seed walks a window of one fixed edit walk instead of a walk of
# its own: runs then see mostly the same documents, in a window that
# starts at cycle `seed mod EDIT_OFFSETS`.
EDIT_OFFSETS = 50


def edit_script(seed, cycles):
    """R1-R6 of the live document plus its two liveness sentences, walked
    by cycles of 3 consistency-preserving edits, one edit that conflicts
    with R1 and its revert.  A consistent edit replaces one of R2-R6 by
    another sentence of the live document's vocabulary and yields a
    document not seen before, so only reverts hit the verdict cache.
    Returns the document the window starts from and its `cycles`
    cycles."""
    rng = random.Random(0)
    live = live_sentences()
    doc = live[:6] + live[12:14]
    ids = ["R%d" % (i + 1) for i in range(len(doc))]
    pool = positive_sentences()
    seen = {tuple(doc)}
    offset = seed % EDIT_OFFSETS
    edits, expected = [], []
    for cycle in range(offset + cycles):
        if cycle == offset:
            lines = ["doc\t%s\t%s" % (i, t) for i, t in zip(ids, doc)]
        for _ in range(3):
            new, slot, text = unseen(
                rng, [(replaced(doc, s, t), s, t) for s in range(1, 6)
                      for t in pool if t not in doc], seen)
            doc = list(new)
            seen.add(new)
            edits.append((ids[slot], text))
            expected.append(("consistent", CONSISTENT))
        new, slot, _ = unseen(
            rng, [(replaced(doc, s, CONFLICT_WITH_R1), s, None)
                  for s in range(1, 6)], seen)
        seen.add(new)
        partners = [ids[i] for i, s in enumerate(doc)
                    if i != slot and s.endswith(", the pump is started.")]
        edits += [(ids[slot], CONFLICT_WITH_R1), (ids[slot], doc[slot])]
        expected += [("conflict", conflict(ids[slot], partners)),
                     ("revert", CONSISTENT)]
    window = slice(offset * len(EDIT_CYCLE), None)
    lines += ["edit\t%s\t%s" % e for e in edits[window]]
    return lines, expected[window]


def run_edit(args, lines, extra, out_name):
    path = os.path.join(RUN_DIR, out_name + ".script")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    killed, _, rss, out = run_process(
        [DRIVER, "edit", path, "--cycle", str(len(EDIT_CYCLE))] + extra, 170,
        os.path.join(RUN_DIR, out_name + ".out"))
    if killed:
        raise RuntimeError("edit driver did not finish")
    return [r for r in out if "op" in r], out[-1], rss


def edit_inputs(args):
    cycles = 4 if args.small else max(40, int(args.seconds * 4))
    gen = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        lines, expected = edit_script(args.seed, cycles)
        gen.append(time.perf_counter() - started)
    return lines, expected, statistics.median(gen)


def judge_edits(run, rows, expected):
    for row, (kind, answer) in zip(rows, expected):
        run.outcome(kind, judge(answer, row["verdict"], row["culprit"],
                                row["partners"]))


def workload_edit(args, run):
    lines, expected, gen_s = edit_inputs(args)
    min_ops = 10 if args.small else EDIT_MIN_OPS
    rows, summary, rss = run_edit(
        args, lines, ["--seconds", str(args.seconds), "--min-ops",
                      str(min_ops), "--setups", str(SETUPS)], "edit")
    judge_edits(run, rows, expected)
    latencies = [r["wall_ms"] for r in rows]
    by_kind = {}
    for row, (kind, _) in zip(rows, expected):
        by_kind.setdefault(kind, []).append(row["wall_ms"])
    for kind, walls in sorted(by_kind.items()):
        print("edit %-10s n=%-4d p50 %9.3f ms  max %9.3f ms" % (
            kind, len(walls), percentile(walls, 50), max(walls)))
    elapsed_s = summary["elapsed_ms"] / 1000.0
    setups = [gen_s + ms / 1000.0 for ms in summary["setup_ms"]]
    end_to_end(run, latencies, elapsed_s, len(rows) / elapsed_s, setups, rss)
    return lines, expected, rows, summary


def trace_edit(args, run):
    plain = Run()
    lines, expected, rows, summary = workload_edit(args, plain)
    run.attempted, run.failed, run.wrong = \
        plain.attempted, plain.failed, plain.wrong
    ops = len(rows)
    head = [l for l in lines if l.startswith("doc\t")]
    script = head + [l for l in lines if l.startswith("edit\t")][:ops]
    trows, tsummary, _ = run_edit(
        args, script, ["--seconds", "0", "--min-ops", str(ops), "--setups",
                       str(SETUPS), "--trace",
                       os.path.join(RUN_DIR, "trace-edit.jsonl")], "edit-trace")
    mismatches = fidelity(rows, trows, ["verdict", "engine", "culprit",
                                        "partners"])
    reuse = fidelity(rows, trows, ["verdict_cached", "parse_hits",
                                   "blocks_reused", "solo_reused"])
    if reuse:
        print("note: replay reuse counters differ on %d op(s), first %r"
              % (len(reuse), reuse[0]))
    per_layer(run, ops, layer_sums([tsummary["layers"]]),
              tsummary["counters"], tsummary["synth"],
              tsummary["localize_checks"])
    for key in ("parse_hits", "blocks_reused", "solo_reused"):
        run.metric("watch." + key, sum(r[key] for r in rows) / ops, "count")
    run.metric("watch.verdict_hits", summary["verdict_hits"] / ops, "count")
    run.metric("bounded.built_blocks", summary["built_blocks"] / ops, "count")
    run.metric("bounded.solved_solo", summary["solved_solo"] / ops, "count")
    divergence(run, tsummary["divergence"])
    run.metric("trace.overhead_share",
               ratio(sum(r["wall_ms"] for r in trows),
                     sum(r["wall_ms"] for r in rows)) - 1.0, "ratio")
    return mismatches


# ---------- main ----------

WORKLOADS = {
    "check": (workload_check, trace_check),
    "serve": (workload_serve, trace_serve),
    "edit": (workload_edit, trace_edit),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="a few fast operations, for the tests")
    args = parser.parse_args(argv)
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    plain, traced = WORKLOADS[args.workload]
    run = Run()
    mismatches = []
    if args.trace:
        mismatches = traced(args, run)
        zero_metrics(run, ALL_LAYER_METRICS)
        for m in mismatches:
            print("replay mismatch: %r" % (m,))
    else:
        plain(args, run)
    for name in run.wrong:
        print("WRONG answer: %s" % name)
    correct = not run.wrong and not mismatches
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": run.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
