#!/usr/bin/env python3
"""The mcdiv benchmark: seeded workloads driven through the public API.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]

NAME is one of rank_rr, reduce_big, limit_series, cli_docs; perfbench/
baseline.json says why each exists, which layers it stresses and which
it bypasses.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
are for people.  `--workload all` runs every workload, untraced and then
traced, each in a process of its own, and prints one table.

Untraced (`--trace 0`): one process, one thread, a closed loop with one
client.  After WARMUP_OPS untimed ops, ops run back to back for S
seconds; each op is timed on its own, and building the next op's inputs
is never inside a timed region.  Times are CPU time of this thread
(time.thread_time): mcdiv is single-threaded and CPU-bound, and on a
shared host wall time would also count the time other tenants hold the
core.

Times are reported at the nominal host speed.  On a shared 2-vCPU VM the
same ops on the same inputs ran up to 2x slower in CPU time while other
tenants loaded the host, in stretches of a second to minutes.  So a fixed
piece of reference work, probe(), runs before every op (and around every
set-up), and every time is multiplied by host_speed = PROBE_NOMINAL_S /
(mean probe time of the run).  There, this cut the spread of ops_per_s
over repeated runs of one seed from 9% to 1%.  The probe never touches
mcdiv, so a change to the program moves the reported times exactly as it
moves the measured ones.  The unscaled figures and host_speed are
printed and kept in the report.

The end-to-end metrics are
  ops_per_s    completed ops per second of timed op time
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency (the number of samples beyond it
               is printed alongside)
  setup_s      median of SETUP_REPEATS full set-ups, each a fresh import of
               mcdiv plus the first CHUNK inputs built (documents written
               for cli_docs); interpreter start-up is not included
  peak_rss_mb  peak resident memory of this process
Failed ops (any exception, a failed self-check or a non-zero CLI exit
code) count in `failed`; fail_frac = failed / attempted.

Traced (`--trace 1`): a fixed number of ops (TRACE_OPS), so every count
repeats exactly for a given seed.  Every op runs twice, on separately
built inputs: once plain, then once with every mcdiv layer wrapped in
spans (perfbench/spans.py).  The per-layer metrics come from the traced
runs; trace.overhead_frac compares traced with plain op time and
trace.uncovered_frac is the share of traced op time that no top-level
span covers.  Traced times are CPU times as measured, not rescaled.

For every seed recorded in perfbench/baseline.json, the digest of the
first DIGEST_OPS op results must match the recorded one, so a change that
alters any output fails the run.  A report with the environment (and the
spans of a traced run) is written under .perfbench/ in the working
directory.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
SETUP_PROBES = 4  # probes before each set-up and after the last
CHUNK = 32  # inputs built per set-up step
# ops in a traced run, and ops covered by the result digest
TRACE_OPS = {"rank_rr": 160, "reduce_big": 60, "limit_series": 48, "cli_docs": 96}
DIGEST_OPS = {"rank_rr": 32, "reduce_big": 20, "limit_series": 24, "cli_docs": 48}
# untimed ops before the clock starts: one pass over each workload's strata
WARMUP_OPS = {"rank_rr": 14, "reduce_big": 10, "limit_series": 12, "cli_docs": 24}
WORKLOAD_NAMES = list(TRACE_OPS)
PROBE_NOMINAL_S = 0.7e-3  # probe time at the nominal host speed


def probe():
    """CPU time of a fixed piece of reference work with the profile of
    mcdiv's inner loops (Fraction arithmetic, tuple-keyed dicts, sorting);
    0.6 to 1.1 ms between ops on a shared 2-vCPU VM, as the load of other
    tenants comes and goes.  It never touches mcdiv, so a change to the
    program cannot move it."""
    gc.disable()
    t = time.thread_time()
    acc = {}
    for i in range(1, 120):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7 + i % 11)
    sorted(acc.items())
    dt = time.thread_time() - t
    gc.enable()
    return dt


def host_speed(probes):
    """Host speed relative to the nominal one: > 1 on a faster host, < 1
    while other tenants slow this core down."""
    return PROBE_NOMINAL_S / statistics.fmean(probes)


def _read_json(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return json.load(fh)


def _env(seed):
    """Where and on what the numbers were taken."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "mcdiv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "MCDIV_THREADS": os.environ.get("MCDIV_THREADS", "unset (= 1)"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random)"),
        "seed": seed,
    }


def _fresh_workload(name):
    """Import mcdiv and the workloads anew, as a new process would."""
    for mod in list(sys.modules):
        if mod in ("mcdiv", "workloads") or mod.startswith("mcdiv."):
            del sys.modules[mod]
    return importlib.import_module("workloads").WORKLOADS[name]


def _set_up(name, seed, workdir, count, repeats):
    """`repeats` identical set-ups, with SETUP_PROBES probes before each
    and after the last; returns the median time at the nominal host speed
    and the workload, context and inputs of the last set-up."""
    times, probes = [], []
    for _ in range(repeats):
        probes.extend(probe() for _ in range(SETUP_PROBES))
        t = time.thread_time()
        wl = _fresh_workload(name)
        ctx = wl.prepare(seed, workdir)
        inputs = [wl.build(ctx, i) for i in range(count)]
        times.append(time.thread_time() - t)
    probes.extend(probe() for _ in range(SETUP_PROBES))
    # what set-up leaves behind is never garbage; keep it out of the
    # collections that the ops trigger
    gc.collect()
    gc.freeze()
    return statistics.median(times) * host_speed(probes), wl, ctx, inputs


class Pass:
    """Latencies, failures and the first results of one sequence of ops,
    with a probe() before every op."""

    def __init__(self, digest_ops):
        self.lat = []
        self.probes = []
        self.failed = 0
        self.errors = []
        self.results = []
        self.digest_ops = digest_ops

    def run_op(self, wl, inp):
        self.probes.append(probe())
        t = time.thread_time()
        try:
            res = wl.op(inp)
        except Exception as err:  # a failing op is counted, not raised
            res = f"FAILED {type(err).__name__}: {err}"
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(res)
        self.lat.append(time.thread_time() - t)
        if len(self.results) < self.digest_ops:
            self.results.append(res)

    def digest(self):
        if len(self.results) < self.digest_ops:
            return None
        return hashlib.sha256("\n".join(self.results).encode()).hexdigest()


def run_untraced(name, seed, seconds, workdir):
    setup_s, wl, ctx, pending = _set_up(name, seed, workdir, CHUNK, SETUP_REPEATS)
    p = Pass(DIGEST_OPS[name])
    pending = deque(pending)
    next_index = CHUNK
    deadline = None
    while deadline is None or len(p.lat) < p.digest_ops or time.perf_counter() < deadline:
        if not pending:
            pending.extend(wl.build(ctx, i) for i in range(next_index, next_index + CHUNK))
            next_index += CHUNK
        p.run_op(wl, pending.popleft())
        if len(p.lat) == WARMUP_OPS[name]:
            warm_failed = p.failed
            deadline = time.perf_counter() + seconds
    raw = sorted(p.lat[WARMUP_OPS[name]:])
    speed = host_speed(p.probes[WARMUP_OPS[name]:])
    lat = [dt * speed for dt in raw]
    p90 = statistics.quantiles(lat, n=10)[8]
    values = {
        "ops_per_s": (len(lat) - (p.failed - warm_failed)) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"ops": len(lat), "warmup_ops": WARMUP_OPS[name],
            "p90_samples_beyond": sum(1 for x in lat if x > p90),
            "fail_frac": p.failed / len(p.lat),
            "host_speed": speed,
            "unscaled": {"ops_per_s": values["ops_per_s"] * speed,
                         "op_p50_ms": values["op_p50_ms"] / speed,
                         "op_p90_ms": values["op_p90_ms"] / speed}}
    return [p], values, info


def run_traced(name, seed, workdir):
    from spans import Tracer, layer_metrics

    n = TRACE_OPS[name]
    _setup_s, wl, ctx, plain_inputs = _set_up(name, seed, workdir, n, 1)
    ctx = wl.prepare(seed, workdir)
    traced_inputs = [wl.build(ctx, i) for i in range(n)]
    callers = [sys.modules[type(wl).__module__]]
    tracer = Tracer()
    plain, traced = Pass(DIGEST_OPS[name]), Pass(DIGEST_OPS[name])
    # plain and traced runs of op i alternate, so both see the same warm
    # heap and the same machine load
    for i in range(n):
        plain.run_op(wl, plain_inputs[i])
        tracer.op = i
        tracer.install(callers)
        try:
            traced.run_op(wl, traced_inputs[i])
        finally:
            tracer.uninstall()
        plain_inputs[i] = traced_inputs[i] = None
    op_time = sum(traced.lat)
    values = layer_metrics(tracer)
    values["trace.ops_per_s"] = n / op_time
    values["trace.overhead_frac"] = op_time / sum(plain.lat) - 1
    values["trace.uncovered_frac"] = 1 - tracer.top_s / op_time
    info = {"ops": n, "plain_ops_per_s": n / sum(plain.lat), "spans": tracer.next_id}
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    return [plain, traced], values, info


def single(args):
    spec = _read_json(ROOT, "BENCHMARK.json")
    recorded = _read_json(HERE, "baseline.json")["digests"].get(args.workload, {})
    recorded = recorded.get(str(args.seed))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        importlib.import_module("mcdiv")
    except ImportError as err:
        print(f"cannot import mcdiv from {ROOT}/src: {err}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            passes, values, info = run_traced(args.workload, args.seed, workdir)
        else:
            passes, values, info = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    digests = [p.digest() for p in passes]
    digest_ok = None not in digests and len(set(digests)) == 1
    digest_ok = digest_ok and recorded in (None, digests[0])
    attempted = sum(len(p.lat) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    env = _env(args.seed)
    report = {"workload": args.workload, "trace": args.trace, "env": env, "info": info,
              "digests": digests, "recorded_digest": recorded, "errors": errors,
              "metrics": metrics}
    path = os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(info, sort_keys=True)}")
    print(f"# digest {digests[-1]} (recorded: {recorded})")
    for err in errors:
        print(f"# error {err}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and digest_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _child(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args):
    """Every workload, untraced then traced, each in a process of its own."""
    rows = []
    for name in WORKLOAD_NAMES:
        plain = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        rows.append((name, plain, traced))
    print(f"{'workload':<13} {'ops/s':>8} {'p50 ms':>8} {'p90 ms':>8} {'fail_frac':>9} "
          f"{'setup s':>8} {'rss MB':>7} {'traced/s':>9} {'overhead':>9} {'uncovered':>9}")
    for name, plain, traced in rows:
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        t = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{name:<13} {m['ops_per_s']:>8.3f} {m['op_p50_ms']:>8.2f} {m['op_p90_ms']:>8.2f} "
              f"{plain['failed'] / plain['attempted']:>9.3f} {m['setup_s']:>8.3f} "
              f"{m['peak_rss_mb']:>7.1f} {t['trace.ops_per_s']:>9.3f} "
              f"{t['trace.overhead_frac']:>9.1%} {t['trace.uncovered_frac']:>9.2%}")
    print("units: ops/s and traced/s in 1/s, latencies in ms, setup in s, rss in MB; "
          "overhead = traced vs plain op time on the same inputs")
    correct = all(plain["correct"] and traced["correct"] for _, plain, traced in rows)
    print(json.dumps({"correct": correct,
                      "workloads": {name: plain for name, plain, _ in rows}}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description="mcdiv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = _read_json(ROOT, "BENCHMARK.json")["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
