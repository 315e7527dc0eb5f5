#!/usr/bin/env python3
"""qgramsearch benchmark: the library and the CLI, driven by one client.

    python3 perfbench/run.py --workload occ-dna --seed 1 --seconds 30 --trace 0

The run imports ``src/qgramsearch`` from the checkout that holds this file,
builds the workload's inputs from the seed (several times, to time set-up),
warms up, and then works as a closed loop with one client: each operation
starts when the previous one has returned.  For ``--seconds`` it interleaves
library queries (LIBRARY_SHARE of the time) and CLI runs.  A library query
runs every matcher on one (text, pattern) pair of the workload, timed as a
library user pays for it (``build_profile`` plus the search), and the queries
are gone through in whole passes.  A CLI run is one ``qgramsearch search
--algo distq`` process on a workload file, made one at a time.  Every result is
checked against an overlapping ``bytes.find`` reference, and distq must agree
with ldistq on occurrences and on every counter but ``hashed_char_reads``.
End-to-end times are scaled to the reference machine's speed (see
``machine.py``); the report lines give the raw figures next to them.

With ``--trace 1`` spans are recorded around every call into a layer, every
other library pass runs untraced to measure the tracing overhead, and the
per-layer metrics are reported instead of the end-to-end ones.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit status is 1 if any result was wrong and 2 if no sources were found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from machine import WINDOW, Canary
from spans import NoSpans, Spans
from workloads import BUILDERS, Q

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # CLI input files, removed at exit
OUT = ROOT / ".perfbench_out"  # spans of the latest traced run per workload

ALGOS = ("naive", "kmp", "hashq", "distq", "ldistq")
PROFILED = ("distq", "ldistq")
SEARCH = {
    "naive": lambda qs, text, pattern, q: qs.naive_search(text, pattern),
    "kmp": lambda qs, text, pattern, q: qs.kmp_search(text, pattern),
    "hashq": lambda qs, text, pattern, q: qs.hashq_search(text, pattern, q),
    "distq": lambda qs, text, profile, q: qs.distq_search(text, profile),
    "ldistq": lambda qs, text, profile, q: qs.ldistq_search(text, profile),
}
STATS_FIELDS = {
    "char_cmp": "char_comparisons",
    "first_char_checks": "first_char_checks",
    "hashed_reads": "hashed_char_reads",
    "windows": "windows",
    "hq_shifts": "hq_shifts",
    "dist_shifts": "dist_shifts",
    "kmp_shifts": "kmp_shifts",
}
# per-byte counters reported per matcher: those its algorithm can make non-zero
COUNTERS = {
    "kmp": ("char_cmp", "kmp_shifts", "windows"),
    "hashq": ("char_cmp", "hashed_reads", "windows", "hq_shifts", "dist_shifts"),
    "distq": tuple(STATS_FIELDS),
    "ldistq": tuple(STATS_FIELDS),
}
SELF_TIME_LAYERS = ("corpus", "preprocess", "matchers", "check", "cli", "bench")

SETUP_REPS = 3
LIBRARY_SHARE = 0.6
MIN_CLI_RUNS = 5
WARMUP_BYTES = 400_000  # per matcher; the first pass of kmp on fib-27 was 27% slow
P90_MIN_QUERIES = 100
MAX_FAILURE_LINES = 10


def reference_positions(text: bytes, pattern: bytes) -> list[int]:
    """1-based overlapping occurrences, found by ``bytes.find`` alone."""
    found = []
    pos = text.find(pattern)
    while pos != -1:
        found.append(pos + 1)
        pos = text.find(pattern, pos + 1)
    return found


def fresh_import():
    """Import qgramsearch as a new process would, dropping any loaded copy."""
    for name in [n for n in sys.modules
                 if n == "qgramsearch" or n.startswith("qgramsearch.")]:
        del sys.modules[name]
    return importlib.import_module("qgramsearch")


def git_commit() -> str | None:
    """HEAD of the repository rooted exactly at ROOT, if there is one."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pair_mismatch(distq, ldistq, with_trace: bool) -> list[str]:
    """What differs between a distq and an ldistq outcome that must not."""
    d, l = vars(distq.stats), vars(ldistq.stats)
    diff = [f for f in d if f != "hashed_char_reads" and d[f] != l.get(f)]
    if distq.occurrences != ldistq.occurrences:
        diff.append("occurrences")
    if with_trace and distq.trace != ldistq.trace:
        diff.append("trace")
    return diff


def trace_events(trace) -> int:
    if trace is None:
        return 0
    return sum(len(getattr(trace, part, ()))
               for part in ("shifts", "positions", "hash_ends"))


class Bench:
    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.spans = Spans() if args.trace else NoSpans()
        self.untraced = NoSpans()
        self.canary = Canary()
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        # timed operations: (raw seconds, canary mark)
        self.setups = []
        self.samples = defaultdict(list)  # (query, algo) -> [(s, mark, traced)]
        self.cli_runs = defaultdict(list)  # query -> [(s, mark, peak RSS MB)]
        self.startup = []  # raw seconds of trivial CLI searches
        self.counts = {algo: Counter() for algo in ALGOS}  # first pass only
        self.passes = 0.0

    def seconds(self, raw: float, mark: int, scaled: bool) -> float:
        return raw / self.canary.factor(mark) if scaled else raw

    # ----------------------------------------------------------------- set-up
    def setup(self) -> float:
        """Import the package and build the inputs SETUP_REPS times; return the
        median generation time in seconds."""
        build = BUILDERS[self.args.workload]
        gens = []
        self.canary.tick(at_least=WINDOW)
        for _ in range(SETUP_REPS):
            mark = self.canary.mark()
            with self.spans.span("setup"):
                t0 = perf_counter()
                with self.spans.span("import"):
                    qs = fresh_import()
                t1 = perf_counter()
                with self.spans.span("corpus.generate"):
                    workload = build(qs, self.args.seed, self.args.smoke)
                t2 = perf_counter()
            self.setups.append((t2 - t0, mark))
            gens.append(t2 - t1)
            self.canary.tick(at_least=WINDOW)
        self.qs, self.wl = qs, workload
        return median(gens)

    def prepare(self) -> None:
        """Reference results and CLI input files; not part of set-up time."""
        wl = self.wl
        self.refs, ref_s, ref_bytes = [], 0.0, 0
        for query in wl.queries:
            text = wl.texts[query.text_id]
            t0 = perf_counter()
            self.refs.append(reference_positions(text, query.pattern))
            ref_s += perf_counter() - t0
            ref_bytes += len(text)
        self.ref_mbps = ref_bytes / ref_s / 1e6
        self.text_files, self.pattern_files = {}, {}
        for qi in wl.cli_queries:
            query = wl.queries[qi]
            if query.text_id not in self.text_files:
                path = self.work / f"text{query.text_id}.bin"
                path.write_bytes(wl.texts[query.text_id])
                self.text_files[query.text_id] = path
            path = self.work / f"pattern{qi}.bin"
            path.write_bytes(query.pattern)
            self.pattern_files[qi] = path

    def warm_up(self) -> None:
        """Untimed: every matcher over the first WARMUP_BYTES of queries, and
        one CLI run, so caches fill and lazy set-up finishes first."""
        done = 0
        for query in self.wl.queries:
            if done >= WARMUP_BYTES:
                break
            for algo in ALGOS:
                self.call(algo, query, self.untraced)
            done += len(self.wl.texts[query.text_id])
        self.run_cli(self.cli_argv(self.wl.cli_queries[0]))

    # ---------------------------------------------------------------- library
    def call(self, algo: str, query, spans):
        """One query as a library user pays for it: (seconds, outcome)."""
        qs = self.qs
        text = self.wl.texts[query.text_id]
        t0 = perf_counter()
        if algo in PROFILED:
            with spans.span("preprocess.build_profile"):
                subject = qs.build_profile(query.pattern, Q)
        else:
            subject = query.pattern
        with spans.span("matchers." + algo):
            outcome = SEARCH[algo](qs, text, subject, Q)
        return perf_counter() - t0, outcome

    def measure(self, seconds: float) -> None:
        """Library queries and CLI runs, interleaved so that library queries
        take LIBRARY_SHARE of the wall time and both see the whole window,
        until ``seconds`` have passed, the first library pass is complete
        (with tracing, also one query of the untraced second pass) and
        MIN_CLI_RUNS CLI runs are made.  The library goes through the queries
        in passes, tracing every other one."""
        queries = self.wl.queries
        min_queries = len(queries) + self.args.trace
        done = runs = 0
        library_s = 0.0
        self.canary.start()
        self.canary.tick(at_least=WINDOW)
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if elapsed < seconds:
                library = library_s <= LIBRARY_SHARE * elapsed
            elif done < min_queries:
                library = True
            elif runs < MIN_CLI_RUNS:
                library = False
            else:
                break
            if library:
                pass_no, qi = divmod(done, len(queries))
                t0 = perf_counter()
                self.query(qi, queries[qi], pass_no == 0,
                           bool(self.args.trace) and pass_no % 2 == 0)
                library_s += perf_counter() - t0
                done += 1
            else:
                self.cli_run(self.wl.cli_queries[runs % len(self.wl.cli_queries)])
                runs += 1
        self.passes = done / len(queries)

    def query(self, qi: int, query, first: bool, traced: bool) -> None:
        spans = self.spans if traced else self.untraced
        ref = self.refs[qi]
        text = self.wl.texts[query.text_id]
        k = qi % len(ALGOS)  # rotate so that no matcher always runs first
        ok, paired = {}, {}
        for algo in ALGOS[k:] + ALGOS[:k]:
            self.attempted += 1
            mark = self.canary.mark()
            with spans.span("query." + algo, query=self.attempted):
                elapsed, outcome = self.call(algo, query, spans)
                with spans.span("check.reference"):
                    occ = outcome if isinstance(outcome, list) \
                        else outcome.occurrences
                    ok[algo] = occ == ref and (query.expected_occ is None
                                               or len(occ) == query.expected_occ)
            self.samples[(qi, algo)].append((elapsed, mark, traced))
            if not ok[algo]:
                self.fail(f"{algo} on query {qi}: {len(occ)} occurrences, "
                          f"reference has {len(ref)}, generator promised "
                          f"{query.expected_occ}")
            if algo in PROFILED:
                paired[algo] = outcome
            if first and algo != "naive":
                self.count(algo, len(text), outcome)
            self.canary.tick()
        diff = pair_mismatch(paired["distq"], paired["ldistq"], traced)
        if diff and ok["ldistq"]:
            self.fail(f"distq and ldistq differ on query {qi}: {diff}")

    def count(self, algo: str, n: int, outcome) -> None:
        counts = self.counts[algo]
        counts["bytes"] += n
        counts["occurrences"] += len(outcome.occurrences)
        for key, name in STATS_FIELDS.items():
            counts[key] += getattr(outcome.stats, name, 0)
        counts["trace_events"] += trace_events(outcome.trace)

    # -------------------------------------------------------------------- CLI
    def cli_argv(self, qi: int) -> list[str]:
        query = self.wl.queries[qi]
        return ["search", "--algo", "distq", "--q", str(Q),
                "--text-file", str(self.text_files[query.text_id]),
                "--pattern-file", str(self.pattern_files[qi])]

    @contextmanager
    def launcher(self):
        """The small process that starts every CLI run (see launcher.py)."""
        with open(self.work / "cli-stderr.log", "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("launcher.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                env=self.env, cwd=ROOT)
            self.cli = proc
            try:
                yield
            finally:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()

    def run_cli(self, argv: list[str]) -> tuple[int, bytes, float, float]:
        """Run one CLI process to its end: (exit code, stdout, wall seconds,
        peak RSS in MB from the child's own rusage)."""
        request = {"argv": [sys.executable, "-m", "qgramsearch.cli", *argv]}
        self.cli.stdin.write(json.dumps(request).encode() + b"\n")
        self.cli.stdin.flush()
        header = self.cli.stdout.readline()
        if not header:
            raise RuntimeError("the CLI launcher exited; see "
                               f"{self.work / 'cli-stderr.log'}")
        reply = json.loads(header)
        out = self.cli.stdout.read(reply["stdout_bytes"])
        return reply["code"], out, reply["wall_s"], reply["maxrss_kb"] * 1024 / 1e6

    def cli_run(self, qi: int) -> None:
        self.attempted += 1
        mark = self.canary.mark()
        with self.spans.span("cli.search", query=self.attempted):
            code, out, wall, rss = self.run_cli(self.cli_argv(qi))
        ref = self.refs[qi]
        with self.spans.span("check.cli"):
            ok = code == (0 if ref else 1) and \
                out == b"".join(b"%d\n" % pos for pos in ref)
        if not ok:
            lines = out.count(b"\n")
            self.fail(f"CLI on query {qi}: exit {code}, {lines} lines, "
                      f"reference has {len(ref)}")
        self.cli_runs[qi].append((wall, mark, rss))
        if self.args.trace:
            self.attempted += 1
            with self.spans.span("cli.startup", query=self.attempted):
                code, out, wall, _ = self.run_cli(
                    ["search", "--text", "abc", "--pattern", "b"])
            if code != 0 or out != b"2\n":
                self.fail(f"trivial CLI search: exit {code}, output {out!r}")
            self.startup.append(wall)
        self.canary.tick()

    # ------------------------------------------------------ traced-run probes
    def layer_probes(self) -> None:
        """Per-layer figures that need a call of their own."""
        qs = self.qs
        query = self.wl.queries[0]
        text = self.wl.texts[query.text_id]
        self.peak_alloc = {}
        for algo in PROFILED:
            profile = qs.build_profile(query.pattern, Q)
            tracemalloc.start()
            try:
                SEARCH[algo](qs, text, profile, Q)
                self.peak_alloc[algo] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        loads = []
        for tid, path in self.text_files.items():
            self.attempted += 1
            t0 = perf_counter()
            data = qs.load_text(path)
            loads.append(perf_counter() - t0)
            if data != self.wl.texts[tid]:
                self.fail(f"load_text of text {tid} returned other bytes")
        self.load_s = median(loads)
        self.attempted += 1
        t0 = perf_counter()
        with self.spans.span("bench.run_benchmark"):
            try:
                qs.run_benchmark(self.wl.bench_spec)
            except qs.Error as exc:
                self.fail(f"run_benchmark: {exc}")
        self.run_benchmark_s = perf_counter() - t0

    # --------------------------------------------------------------- results
    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_FAILURE_LINES:
            print(f"FAIL {message}", file=sys.stderr)

    def query_times(self, algo: str, scaled: bool, average=median) -> list[float]:
        """Seconds of each query for ``algo``, averaged over its repetitions."""
        return [average([self.seconds(s, mark, scaled)
                         for s, mark, _ in self.samples[(qi, algo)]])
                for qi in range(len(self.wl.queries))]

    def end_to_end_values(self, scaled: bool) -> list[tuple]:
        """(name, value, unit, note).  Throughput is text bytes over the sum
        of the queries' mean times; latencies are medians over queries (or
        CLI queries) of each one's median over its repetitions."""
        wl = self.wl
        setups = [self.seconds(s, mark, scaled) for s, mark in self.setups]
        rows = [("setup_s", median(setups), "s",
                 f"median of {SETUP_REPS} set-ups")]
        n_total = sum(len(wl.texts[q.text_id]) for q in wl.queries)
        timed = sum(len(v) for v in self.samples.values()) // len(ALGOS)
        for algo in ALGOS:
            seconds = sum(self.query_times(algo, scaled, statistics.mean))
            rows.append((f"{algo}_mbps", n_total / seconds / 1e6, "MB/s",
                         f"{len(wl.queries)} queries, {timed} timed, "
                         f"{self.passes:.2f} passes"))
        distq = self.query_times("distq", scaled)
        rows.append(("distq_query_ms_p50", median(distq) * 1e3, "ms",
                     f"{len(distq)} queries"))
        if len(distq) >= P90_MIN_QUERIES:
            rows.append(("distq_query_ms_p90",
                         statistics.quantiles(distq, n=10)[-1] * 1e3, "ms",
                         f"{len(distq)} queries; reported only when at least "
                         f"{P90_MIN_QUERIES}"))
        runs = sum(len(v) for v in self.cli_runs.values())
        rows.append(("cli_search_ms_p50", median(
            median(self.seconds(s, mark, scaled) for s, mark, _ in v)
            for v in self.cli_runs.values()) * 1e3, "ms",
            f"{runs} runs over {len(self.cli_runs)} queries"))
        rows.append(("cli_peak_rss_mb", median(
            median(rss for _, _, rss in v) for v in self.cli_runs.values()),
            "MB", f"{runs} runs over {len(self.cli_runs)} queries"))
        return rows

    def end_to_end(self) -> list[tuple]:
        rows = []
        for (name, value, unit, note), (_, raw, _, _) in zip(
                self.end_to_end_values(True), self.end_to_end_values(False)):
            if raw != value:
                note += f"; raw {raw:.6g} {unit}"
            rows.append((name, value, unit, note))
        return rows

    def per_layer(self, gen_s: float) -> list[tuple]:
        spans = self.spans
        rows = [("corpus.gen_s", gen_s, "s", f"median of {SETUP_REPS}")]
        profile_ns = spans.durations("preprocess.build_profile")
        distq_profile = sum(spans.durations("preprocess.build_profile",
                                            "query.distq"))
        distq_search = sum(spans.durations("matchers.distq"))
        rows.append(("preprocess.build_profile_us_p50", median(profile_ns) / 1e3,
                     "us", f"{len(profile_ns)} calls"))
        rows.append(("preprocess.share",
                     distq_profile / (distq_profile + distq_search), "ratio",
                     "build_profile / (build_profile + search), distq"))
        for algo in ALGOS:
            search_ns = spans.durations("matchers." + algo)
            rows.append((f"matchers.{algo}.search_ms_p50",
                         median(search_ns) / 1e6, "ms",
                         f"{len(search_ns)} calls, profile prebuilt"))
        for algo, keys in COUNTERS.items():
            counts = self.counts[algo]
            for key in keys:
                rows.append((f"matchers.{algo}.{key}_per_byte",
                             counts[key] / counts["bytes"], "1/B",
                             f"{counts[key]} over {counts['bytes']} bytes"))
            rows.append((f"matchers.{algo}.hit_ratio",
                         counts["occurrences"] / max(counts["windows"], 1),
                         "ratio", f"{counts['occurrences']} occurrences over "
                                  f"{counts['windows']} windows"))
            rows.append((f"matchers.{algo}.trace_events_per_byte",
                         counts["trace_events"] / counts["bytes"], "1/B",
                         f"{counts['trace_events']} events"))
        for algo in PROFILED:
            rows.append((f"matchers.{algo}.peak_alloc_mb", self.peak_alloc[algo],
                         "MB", "tracemalloc peak of one search of query 0"))
        startup_ms = median(self.startup) * 1e3
        cli_ms = median(s for v in self.cli_runs.values() for s, _, _ in v) * 1e3
        distq = self.query_times("distq", scaled=False)
        in_process_ms = median(distq[qi] for qi in self.cli_runs) * 1e3
        rows.append(("cli.startup_ms_p50", startup_ms, "ms",
                     f"{len(self.startup)} runs of a literal search"))
        rows.append(("cli.load_ms", self.load_s * 1e3, "ms",
                     "median load_text of the CLI text files"))
        rows.append(("cli.overhead_ms",
                     cli_ms - startup_ms - self.load_s * 1e3 - in_process_ms,
                     "ms", f"CLI {cli_ms:.1f} - startup - load - in-process "
                           f"query {in_process_ms:.1f}"))
        rows.append(("bench.run_benchmark_s", self.run_benchmark_s, "s",
                     "one call on a small spec"))
        rows.append(("ref.find_mbps", self.ref_mbps, "MB/s",
                     "overlapping bytes.find loop, no repo code"))
        rows.append(("machine.canary_ms", median(self.canary.times) * 1e3, "ms",
                     f"median of {len(self.canary.times)} canary calls"))
        self_ns = spans.self_times()
        for layer in SELF_TIME_LAYERS:
            values = self_ns.get(layer, [])
            rows.append((f"{layer}.self_ms_mean",
                         sum(values) / max(len(values), 1) / 1e6, "ms",
                         f"{len(values)} spans"))
        ratios = []
        for (qi, algo), samples in self.samples.items():
            on = [self.seconds(s, m, True) for s, m, t in samples if t]
            off = [self.seconds(s, m, True) for s, m, t in samples if not t]
            if on and off:
                ratios.append(statistics.mean(on) / statistics.mean(off))
        rows.append(("trace.overhead_frac", median(ratios) - 1 if ratios else 0.0,
                     "ratio", f"traced / untraced scaled query time - 1, "
                              f"median of {len(ratios)} (query, matcher) pairs"))
        return rows

    def self_time_table(self) -> list[str]:
        self_ns = self.spans.self_times()
        total = sum(sum(v) for v in self_ns.values())
        lines = ["# layer          spans    self_s  self_ms_mean   share"]
        for layer, values in sorted(self_ns.items(), key=lambda kv: -sum(kv[1])):
            lines.append(f"# {layer:<12} {len(values):>7} {sum(values) / 1e9:>9.3f} "
                         f"{sum(values) / len(values) / 1e6:>13.4f} "
                         f"{sum(values) / total:>7.3f}")
        return lines

    # ------------------------------------------------------------------- run
    def run(self) -> int:
        args = self.args
        env = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": git_commit(),
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "loadavg_start": os.getloadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        }
        sys.path.insert(0, str(SRC))
        gen_s = self.setup()
        self.prepare()
        with self.launcher():
            self.warm_up()
            self.measure(args.seconds)
            if args.trace:
                self.layer_probes()
        env["loadavg_end"] = os.getloadavg()
        wl = self.wl
        inputs = dict(wl.props, workload=wl.name, queries=len(wl.queries),
                      text_bytes=sum(len(t) for t in wl.texts),
                      occurrences=sum(len(r) for r in self.refs),
                      cli_queries=len(set(wl.cli_queries)))
        print("# env: " + json.dumps(env))
        print("# inputs: " + json.dumps(inputs))
        if args.trace:
            rows = self.per_layer(gen_s)
            print("\n".join(self.self_time_table()))
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{wl.name}.jsonl"
            self.spans.write(path)
            print(f"# spans: {len(self.spans.records)} written to "
                  f"{path.relative_to(ROOT)}")
        else:
            rows = self.end_to_end()
        rows.append(("failed_frac", self.failed / self.attempted, "ratio",
                     f"{self.failed} of {self.attempted} operations"))
        reported = set(metric_names(args.trace))
        for name, value, unit, note in rows:
            print(f"{name} {value:.6g} {unit}  # {note}")
        print(json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, value, unit, _ in rows if name in reported},
        }))
        return 0 if self.failed == 0 else 1


def metric_names(trace: int) -> list[str]:
    """The metric names BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgramsearch" / "__init__.py").is_file():
        print(f"error: no qgramsearch sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return Bench(args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
