#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the release binaries
(`dagchkpt-bench`, `dagchkpt-serve`) and the in-process helper
`perfbench/probe` into $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload, checks every output, and prints a human-readable summary followed
by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`setup_s`, `wall_s`,
`cpu_s`, `peak_rss_mb`); with `--trace 1` they are the per-layer metrics of
the traced run. The exit code is 0 when every check passed, 1 when a check
failed (a wrong output, a Monte-Carlo row past |z| = 5, a failed request,
or work-identity counts that drifted from an earlier run of the same
sources and seed) and 2 when the benchmark could not run at all. See
perfbench/README.md for what each workload and metric stands for.
"""

import argparse
import csv
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

WORKLOADS = ("paper_sweep", "mc_engines", "replicated_joint", "serve_mixed")

# Batch workloads: a run starts passes until the next one, judged by the
# median pass so far, would end past --seconds, and makes at least this
# many. The work of a pass is fixed and its counts repeat exactly; how
# many passes fit depends on the host, so a slow host does not stretch the
# run, and a fast one gives more samples for the median.
MIN_PASSES = 3
# serve_mixed: the share of --seconds the measured bursts (loadgen runs of
# the replication_aware campaign) may take, by the same rule as batch passes
# and at least three of them; checking every answer in process afterwards
# takes about half as long again.
BURST_SHARE = 0.6
# serve_mixed: daemon starts timed for setup_s (the last one serves).
SETUP_REPS = 61
# Batch workloads: batches of set-ups timed for setup_s, and set-ups per batch.
SETUP_BATCHES = 11
SETUPS_PER_BATCH = 400
GOLDEN_SEED = 42
GOLDEN_DIR = os.path.join(REPO, "tests", "golden", "quick")
Z_LIMIT = 5.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# Every per-layer metric the traced run prints, with its unit. Layers a
# workload does not exercise read 0.
PER_LAYER = [
    ("workflows.generate_us", "us"),
    ("scenario.parse_us", "us"),
    ("scenario.expand_us", "us"),
    ("scenario.to_json_us", "us"),
    ("linearize.us", "us"),
    ("evaluator.eval_us.n50", "us"),
    ("evaluator.eval_us.n200", "us"),
    ("evaluator.eval_us.n700", "us"),
    ("evaluator.evals", "count"),
    ("strategies.sweep_ms.n200", "ms"),
    ("strategies.sweeps", "count"),
    ("strategies.candidates", "count"),
    ("strategies.joint_candidates", "count"),
    ("strategies.sweep_self_ms", "ms"),
    ("strategies.joint_self_ms", "ms"),
    ("replicated.eval_us", "us"),
    ("replicated.sweep_ms.n200", "ms"),
    ("replicated.evals", "count"),
    ("replicated.memo_entries", "count"),
    ("trialplan.compile_us", "us"),
    ("trialplan.compiles", "count"),
    ("mc.trials", "count"),
    ("mc.faults", "count"),
    ("mc.blocking.trials_per_s", "1/s"),
    ("mc.nonblocking.trials_per_s", "1/s"),
    ("mc.replicated.trials_per_s", "1/s"),
    ("mc.tenant.trials_per_s", "1/s"),
    ("quantile.push_ns", "ns"),
    ("quantile.merge_us", "us"),
    ("exec.cells", "count"),
    ("exec.cell_ms.p50", "ms"),
    ("exec.cell_ms.p99", "ms"),
    ("exec.cell.self_ms", "ms"),
    ("csvout.write_ms", "ms"),
    ("csvout.bytes", "bytes"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.bytes_in", "bytes"),
    ("protocol.bytes_out", "bytes"),
    ("cache.key_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("server.hit_ms.p50", "ms"),
    ("server.miss_ms.p50", "ms"),
    ("server.miss_ms.p99", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.miss_time_share", "ratio"),
    ("evaluator.eval.self_ms", "ms"),
    ("replicated.eval.self_ms", "ms"),
    ("sim.blocking.self_ms", "ms"),
    ("sim.nonblocking.self_ms", "ms"),
    ("sim.replicated.self_ms", "ms"),
    ("exec.run_cell_full.self_ms", "ms"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, **kw):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        raise BenchError("a helper printed no result")
    return json.loads(lines[-1])


class Bench:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.target = target if os.path.isabs(target) else os.path.join(REPO, target)
        self.env = dict(os.environ)
        self.env["CARGO_TARGET_DIR"] = self.target
        pinned = self.env.get("RAYON_NUM_THREADS", "")
        threads = int(pinned) if pinned.isdigit() and int(pinned) > 0 else self.nproc
        self.env["RAYON_NUM_THREADS"] = str(min(threads, self.nproc))
        self.release = os.path.join(self.target, "release")
        self.probe_bin = os.path.join(self.release, "perfbench-probe")
        self.bench_bin = os.path.join(self.release, "dagchkpt-bench")
        self.serve_bin = os.path.join(self.release, "dagchkpt-serve")
        self.failures = []  # human-readable reasons a check failed
        self.identity = {}  # work counts that must repeat exactly
        self.summary = []  # (name, unit, samples)
        self.latency = None  # serve_mixed request latencies

    # ---- build and helpers -------------------------------------------------

    def build(self):
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dagchkpt-bench", "-p", "dagchkpt-serve"],
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
        ):
            proc = subprocess.run(cmd, cwd=REPO, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}")

    def probe(self, *argv):
        cmd = [self.probe_bin, *argv, "--seed", str(self.seed)]
        return last_json(run_checked(cmd, env=self.env, cwd=self.tmp))

    def fail(self, why):
        log(f"CHECK FAILED: {why}")
        self.failures.append(why)

    def note(self, name, unit, samples):
        self.summary.append((name, unit, list(samples)))

    # ---- batch workloads -------------------------------------------------

    def campaign_cmd(self, out_dir):
        w = self.args.workload
        if w == "paper_sweep":
            tail = ["--campaign", "fig6", "--quick", "--seed", str(self.seed)]
        elif w == "replicated_joint":
            tail = ["--campaign", "replication_aware", "--campaign", "storage_tiers", "--quick", "--seed", str(self.seed)]
        else:
            spec = os.path.join(self.tmp, "mc_engines.json")
            if not os.path.exists(spec):
                self.probe("mcspec", "--out", spec)
            tail = ["--spec", spec]
        return [self.bench_bin, *tail, "--out", out_dir, "--no-charts"]

    def campaign_pass(self, out_dir):
        """One untraced pass in its own process: wall, CPU, peak RSS, cells."""
        os.makedirs(out_dir)
        log_path = out_dir + ".log"
        with open(log_path, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.campaign_cmd(out_dir), stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.tmp)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = open(log_path).read()
        cells = self.cells_run(text)
        if proc.returncode != 0:
            self.fail(f"campaign exited {proc.returncode}: {text[-2000:]}")
        return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
                "cells": cells, "ok": proc.returncode == 0}

    @staticmethod
    def cells_run(log_text):
        """Cells a campaign process reports ("[campaign] stage: N cells, M rows")."""
        cells = 0
        for line in log_text.splitlines():
            if line.startswith("[") and " cells, " in line:
                cells += int(line.split(": ", 1)[1].split(" cells")[0])
        return cells

    def csv_files(self, out_dir):
        return sorted(os.path.relpath(p, out_dir) for p in glob.glob(os.path.join(out_dir, "*.csv")))

    def check_outputs(self, out_dir):
        """Every expected file and no other, golden bytes at the golden
        seed, the |z| gate, and non-empty files."""
        files = self.csv_files(out_dir)
        ok = True
        if files != self.expected_files:
            self.fail(f"{out_dir}: wrote {files}, expected {self.expected_files}")
            ok = False
        if self.args.workload in ("paper_sweep", "replicated_joint") and self.seed == GOLDEN_SEED:
            for f in self.expected_files:
                golden = os.path.join(GOLDEN_DIR, f)
                ours = os.path.join(out_dir, f)
                if not (os.path.exists(golden) and os.path.exists(ours)
                        and open(golden, "rb").read() == open(ours, "rb").read()):
                    self.fail(f"{f} differs from tests/golden/quick/{f}")
                    ok = False
        for f in files:
            with open(os.path.join(out_dir, f), newline="") as fh:
                rows = list(csv.DictReader(fh))
            if not rows:
                self.fail(f"{f}: no rows")
                ok = False
            for row in rows:
                if row.get("simulator") == "mc" and row.get("z"):
                    z = float(row["z"])
                    if not abs(z) <= Z_LIMIT:
                        self.fail(f"{f}: Monte-Carlo row {row.get('workflow')} {row.get('strategy')} has |z| = {abs(z):.2f} > {Z_LIMIT}")
                        ok = False
        return ok

    def digest(self, out_dir):
        h = hashlib.sha256()
        rows = 0
        for f in self.csv_files(out_dir):
            data = open(os.path.join(out_dir, f), "rb").read()
            h.update(f.encode() + b"\0" + data)
            rows += data.count(b"\n") - 1
        return h.hexdigest()[:16], rows

    def setup_times(self):
        """Set-up of a batch workload, timed in process: building its
        campaigns and expanding every stage into cells, as the campaign
        binary does before its first cell. Each sample is the mean of a
        batch of set-ups (see workloads::setup_times)."""
        return self.probe("setup", "--workload", self.args.workload, "--batches", str(SETUP_BATCHES),
                          "--per-batch", str(SETUPS_PER_BATCH))["setup_s"]

    def run_batch(self):
        self.expected_files = sorted(self.probe("outputs", "--workload", self.args.workload)["files"])
        setups = self.setup_times()
        results = []
        attempted = failed = 0
        first_digest = None
        started = time.perf_counter()
        while len(results) < MIN_PASSES or (time.perf_counter() - started
                                            + statistics.median(r["wall"] for r in results) <= self.args.seconds):
            p = len(results)
            out_dir = os.path.join(self.tmp, f"pass{p}")
            r = self.campaign_pass(out_dir)
            ok = r["ok"] and self.check_outputs(out_dir)
            digest = self.digest(out_dir)
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                self.fail(f"pass {p} wrote different bytes than pass 0 (nondeterministic output)")
                ok = False
            attempted += max(r["cells"], 1)
            failed += 0 if ok else max(r["cells"], 1)
            results.append(r)
        self.identity.update({"cells_per_pass": results[0]["cells"], "csv_sha256": first_digest[0], "csv_rows": first_digest[1]})
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall"] for r in results),
            "cpu_s": statistics.median(r["cpu"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
        }
        self.note("setup_s", "s", setups)
        self.note("wall_s", "s", [r["wall"] for r in results])
        self.note("cpu_s", "s", [r["cpu"] for r in results])
        self.note("peak_rss_mb", "MB", [r["rss_mb"] for r in results])
        self.note("error_rate", "ratio", [failed / max(attempted, 1)])
        if not self.args.trace:
            return metrics, attempted, failed
        # Traced run: the in-process pass must reproduce the release
        # binary's bytes from the first pass above.
        ref = os.path.join(self.tmp, "pass0")
        traced_dir = os.path.join(self.tmp, "traced")
        os.makedirs(traced_dir)
        t = self.probe("trace", "--workload", self.args.workload, "--out", traced_dir, "--reference", ref)
        if t["mismatched_files"]:
            self.fail(f"traced pass did not reproduce {t['mismatched_files']}")
            failed += attempted
        layer = dict(t)
        layer.update(self.probe("probes"))
        layer["trace.traced_wall_s"] = t["traced_wall_s"]
        layer["trace.overhead_s"] = t["traced_wall_s"] - results[0]["wall"]
        for k in ("evaluator.evals", "strategies.candidates", "strategies.joint_candidates", "replicated.evals",
                  "replicated.memo_entries", "trialplan.compiles", "mc.trials", "mc.faults", "exec.cells",
                  "exec.direct_cells", "csvout.bytes"):
            self.identity["traced." + k] = t[k]
        return layer, attempted, failed

    # ---- serve_mixed ---------------------------------------------------

    def run_serve(self):
        """The probe starts the daemons (timing spawn to first Pong),
        drives them, checks every answer and shuts them down."""
        argv = ["serve", "--serve-bin", self.serve_bin, "--seconds", str(BURST_SHARE * self.args.seconds),
                "--conns", str(min(self.nproc, 4)), "--workers", str(self.nproc),
                "--setup-reps", str(SETUP_REPS), "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
        d = self.probe(*argv, *(["--traced"] if self.args.trace else []))
        for why in d["failures"]:
            self.fail(why)
        attempted, failed = d["attempted"], d["failed"]
        # How many bursts fit depends on the host; what one burst does must not.
        bursts = d["bursts"]
        self.identity.update({k + "_per_burst": d[k] / bursts
                              for k in ("requests", "distinct_keys", "succeeded", "cache.hits", "cache.misses")})
        self.identity["cache.entries"] = d["cache.entries"]
        metrics = {
            "setup_s": statistics.median(d["setup_s"]),
            "wall_s": statistics.median(d["burst_wall_s"]),
            "cpu_s": statistics.median(d["burst_cpu_s"]),
            "peak_rss_mb": d["peak_rss_mb"],
        }
        self.note("setup_s", "s", d["setup_s"])
        self.note("wall_s", "s", d["burst_wall_s"])
        self.note("cpu_s", "s", d["burst_cpu_s"])
        self.note("peak_rss_mb", "MB", [d["peak_rss_mb"]])
        self.note("error_rate", "ratio", [failed / attempted])
        self.note("rps", "1/s", [d["rps"]])
        self.latency = d
        if not self.args.trace:
            return metrics, attempted, failed
        layer = dict(d)
        layer.update(self.probe("probes"))
        layer["trace.traced_wall_s"] = d["traced_wall_s"]
        layer["trace.overhead_s"] = d["traced_wall_s"] - metrics["wall_s"]
        for k in ("exec.cells", "trialplan.compiles", "protocol.bytes_in", "protocol.bytes_out"):
            self.identity["traced." + k] = d[k]
        return layer, attempted, failed

    # ---- identity and reporting ----------------------------------------

    def source_hash(self):
        h = hashlib.sha256()
        for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"):
            path = os.path.join(REPO, top)
            if os.path.isfile(path):
                h.update(top.encode() + open(path, "rb").read())
                continue
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
                for f in sorted(filenames):
                    p = os.path.join(dirpath, f)
                    h.update(os.path.relpath(p, REPO).encode() + b"\0" + open(p, "rb").read())
        return h.hexdigest()[:16]

    def check_identity(self, src):
        """Flags work counts that differ from an earlier run of the same
        sources, workload, seed, length and mode."""
        store = os.path.join(self.target, "perfbench-identity.json")
        key = f"{self.args.workload}|seed={self.seed}|seconds={self.args.seconds}|trace={self.args.trace}|src={src}"
        try:
            known = json.load(open(store))
        except (OSError, ValueError):
            known = {}
        before = known.get(key)
        if before is not None and before != self.identity:
            drift = {k: (before.get(k), v) for k, v in self.identity.items() if before.get(k) != v}
            self.fail(f"work-identity counts drifted from an earlier run: {drift}")
        known[key] = self.identity
        tmp = store + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, store)

    def print_summary(self, env):
        print(f"perfbench {self.args.workload} seed={self.seed} env={json.dumps(env, sort_keys=True)}")
        for name, unit, xs in self.summary:
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            print(f"  {name:<12} median {statistics.median(xs):.6g} {unit} (q1 {q[0]:.6g}, q3 {q[2]:.6g}, n={len(xs)})")
        d = self.latency
        if d:
            # p99 only when at least ten samples lie beyond it.
            p99 = f"{d['p99_ms']:.3f} ms" if d["latency_samples"] >= 1000 else "n/a (< 1000 samples)"
            print(f"  latency      p50 {d['p50_ms']:.3f} ms (q1 {d['p25_ms']:.3f}, q3 {d['p75_ms']:.3f}), "
                  f"p99 {p99}, n={d['latency_samples']} requests; "
                  f"hits p50 {d['server.hit_ms.p50']:.3f} ms, misses p50 {d['server.miss_ms.p50']:.3f} ms")
            print(f"  burst time   misses (correctness replays) {100 * d['server.miss_time_share']:.1f} %, "
                  f"hits (load passes) {100 * (1 - d['server.miss_time_share']):.1f} %")
        print(f"  identity: {json.dumps(self.identity, sort_keys=True)}")

    def run(self):
        self.build()
        os.makedirs(self.target, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="perfbench-", dir=self.target)
        try:
            if self.args.workload == "serve_mixed":
                metrics, attempted, failed = self.run_serve()
            else:
                metrics, attempted, failed = self.run_batch()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        src = self.source_hash()
        self.check_identity(src)
        env = {"nproc": self.nproc, "seed": self.seed, "seconds": self.args.seconds,
               "rayon_threads": int(self.env["RAYON_NUM_THREADS"]), "profile": "release",
               "source": src, "commit": git_commit()}
        self.print_summary(env)
        names = PER_LAYER if self.args.trace else END_TO_END
        out = {name: {"value": float(metrics.get(name) or 0.0), "unit": unit} for name, unit in names}
        if self.failures:
            failed = max(failed, 1)
        result = {"correct": not self.failures, "attempted": int(attempted), "failed": int(min(failed, attempted)), "metrics": out}
        print(json.dumps(result))
        return 0 if not self.failures else 1


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("perfbench: --seed must be >= 0 and --seconds >= 1")
        return 2
    if not (os.path.isfile(os.path.join(REPO, "Cargo.toml")) and os.path.isdir(os.path.join(REPO, "crates"))):
        log(f"perfbench: {REPO} is not a checkout of the repository (no Cargo.toml / crates/)")
        return 2
    try:
        return Bench(args).run()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
