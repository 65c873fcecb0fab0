#!/usr/bin/env python3
"""Campaign benchmark: builds campaign_bench from source, runs one workload,
checks its results, and prints the metrics of BENCHMARK.json.

    python3 perfbench/run.py --workload mpas-serial --seed 2024 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload mpas-serial --record-reference

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics (from a traced replay, written as a Chrome/Perfetto trace to
.bench_out/<workload>.trace.json) with --trace 1. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
REFERENCE = os.path.join(HERE, "reference.json")
# Compiler and program scratch files stay inside the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(WORK_DIR, "tmp"))
WORKLOADS = ("mpas-serial", "mpas-klevel-j4", "mpas-fleet")
DEFAULT_SEED = 2024
RUN_TIMEOUT_S = 170

# Highest percentile first; _tail metrics report the first one with at least
# ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer span names, one per timed public call of the replay.
REPLAY_LAYERS = ("ftn.transform", "sim.compile", "sim.decode", "sim.vm_init",
                 "sim.execute", "tuner.measure")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds campaign_bench; build output goes to stderr."""
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "campaign_bench",
           "-j", str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode == 0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def rank(p, n):
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def tail(samples):
    """(value, percentile, n): the highest ladder percentile with >= 10
    samples beyond it; the maximum (percentile 100) when none has."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        if n - rank(p, n) >= 10:
            return xs[rank(p, n) - 1], p, n
    return (xs[-1] if xs else 0.0), 100.0, n


def spans(trace_path):
    """{name: [(duration_s, self_s), ...]} from a Chrome trace's B/E pairs.
    Self time is the duration minus the time its child spans cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    stacks, out = {}, {}
    for ev in events:
        if ev.get("ph") not in ("B", "E"):
            continue
        stack = stacks.setdefault((ev["pid"], ev["tid"]), [])
        ts = ev["ts"] * 1e-6
        if ev["ph"] == "B":
            stack.append([ev["name"], ts, 0.0])
            continue
        name, start, children = stack.pop()
        dur = ts - start
        if stack:
            stack[-1][2] += dur
        out.setdefault(name, []).append((dur, dur - children))
    return out


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def best(samples):
    """The run's value of a timing: the fastest of its samples. A shared host
    switches between a fast mode and modes up to ~1.6x slower, in spells of
    seconds. The median of a run snaps to whichever mode held most of it;
    the fastest sample reads the fast mode, which nearly every run visits."""
    return min(samples) if samples else 0.0


def end_to_end(raw):
    m = {name: metric(best(raw[name]), "s")
         for name in ("campaign_s", "campaign_cpu_s", "diagnose_s",
                      "warm_campaign_s", "setup_s")}
    m["peak_rss_mb"] = metric(raw["peak_rss_mb"], "MB")
    return m


def per_layer(raw, trace_path):
    by_name = spans(trace_path)
    counts = raw["counts"]
    campaign_s = median(raw["campaign_s"])
    threads = raw["meta"]["eval_threads"]

    def total(name):
        return sum(s for _, s in by_name.get(name, []))

    def durations(name):
        return [d for d, _ in by_name.get(name, [])]

    m = {}

    def add_tail(prefix, name, scale):
        value, pct, n = tail(durations(name))
        m[prefix + "_p50"] = metric(median(durations(name)) * scale, "ms")
        m[prefix + "_tail"] = metric(value * scale, "ms")
        m[prefix + "_tail_pct"] = metric(pct, "percentile")
        m[prefix + "_tail_n"] = metric(n, "count")

    layer_s = {name: total(name) for name in REPLAY_LAYERS}
    execute_s = layer_s["sim.execute"]
    instructions = counts.get("sim.instructions", 0)
    variant_s = sum(durations("variant"))
    lookups = counts.get("tuner.variants", 0) + counts.get("tuner.cache_hits", 0)
    fp = counts.get("prec.all_fp_arith", 0)

    m["ftn.parse_resolve_s"] = metric(total("ftn.parse_resolve"), "s")
    m["ftn.transform_s"] = metric(layer_s["ftn.transform"], "s")
    m["ftn.transform_ms_p50"] = metric(median(durations("ftn.transform")) * 1e3, "ms")
    m["ftn.wrappers"] = metric(counts.get("ftn.wrappers", 0), "count")
    m["sim.compile_s"] = metric(layer_s["sim.compile"], "s")
    m["sim.decode_s"] = metric(layer_s["sim.decode"], "s")
    m["sim.vm_init_s"] = metric(layer_s["sim.vm_init"], "s")
    m["sim.execute_s"] = metric(execute_s, "s")
    add_tail("sim.execute_ms", "sim.execute", 1e3)
    m["sim.instructions"] = metric(instructions, "count")
    m["sim.minstr_per_s"] = metric(
        instructions / execute_s / 1e6 if execute_s else 0.0, "Minstr/s")
    m["sim.calls"] = metric(counts.get("sim.calls", 0), "count")
    m["sim.fused_frac"] = metric(
        counts.get("sim.fused_covered", 0) / instructions if instructions else 0.0,
        "ratio")
    m["sim.shadow_s"] = metric(total("sim.shadow"), "s")
    m["sim.shadow_ms_p50"] = metric(median(durations("sim.shadow")) * 1e3, "ms")
    m["prec.fmt_arith"] = metric(counts.get("prec.fmt_arith", 0), "count")
    m["prec.fmt_arith_frac"] = metric(
        counts.get("prec.fmt_arith", 0) / fp if fp else 0.0, "ratio")
    m["prec.casts"] = metric(counts.get("prec.casts", 0), "count")
    m["tuner.variants"] = metric(counts.get("tuner.variants", 0), "count")
    m["tuner.cache_hit_frac"] = metric(
        counts.get("tuner.cache_hits", 0) / lookups if lookups else 0.0, "ratio")
    m["tuner.measure_s"] = metric(layer_s["tuner.measure"], "s")
    # What the replayed layers do not explain: search, memo cache, batching,
    # and (served) the wire; the layer time is divided over the eval threads.
    m["tuner.other_s"] = metric(
        campaign_s - sum(layer_s.values()) / threads, "s")
    m["tuner.pool_eff"] = metric(
        variant_s / (threads * campaign_s) if campaign_s else 0.0, "ratio")
    m["tuner.journal_s"] = metric(total("tuner.journal_append"), "s")
    m["tuner.journal_append_ms_p50"] = metric(
        median(durations("tuner.journal_append")) * 1e3, "ms")
    m["tuner.journal_load_s"] = metric(total("tuner.journal_load"), "s")
    m["serve.connect_s"] = metric(median(durations("serve.connect")), "s")
    m["serve.store_reopen_s"] = metric(total("serve.store_reopen"), "s")
    add_tail("serve.batch_rtt_ms", "serve.batch", 1e3)
    for name in ("items_per_batch", "evals_executed", "repl_sent", "repl_failed",
                 "coalesced", "busy_rejections", "fallbacks", "failovers",
                 "hedges"):
        unit = "ratio" if name == "items_per_batch" else "count"
        m["serve." + name] = metric(counts.get("serve." + name, 0), unit)
    add_tail("serve.warm_batch_rtt_ms", "serve.warm_batch", 1e3)
    m["serve.warm_hit_frac"] = metric(counts.get("serve.warm_hit_frac", 0), "ratio")
    m["serve.store_lookup_us_p50"] = metric(
        median(durations("serve.store_lookup")) * 1e6, "us")
    m["serve.store_insert_ms_p50"] = metric(
        median(durations("serve.store_insert")) * 1e3, "ms")
    n_spans = sum(len(v) for v in by_name.values())
    m["bench.trace_overhead_frac"] = metric(
        n_spans * raw["span_pair_s"] / campaign_s if campaign_s else 0.0, "ratio")
    return m


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as f:
        return json.load(f)


def run_workload(args):
    # Passed relative to the checkout: unix socket paths under it must stay
    # within 108 bytes however deep the checkout is.
    work = os.path.join(".bench_work", "%s-%d" % (args.workload, os.getpid()))
    work_abs = os.path.join(ROOT, work)
    trace_path = os.path.join(OUT_DIR, args.workload + ".trace.json")
    shutil.rmtree(work_abs, ignore_errors=True)
    os.makedirs(work_abs)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", work]
    ref = load_reference().get(args.workload, {})
    if ref and not args.record_reference:
        cmd += ["--ref-search", ref["search"], "--ref-path", ref["path"]]
        if ref.get("diag"):
            cmd += ["--ref-diag", ref["diag"]]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=ENV,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("campaign_bench timed out after %d s" % RUN_TIMEOUT_S)
        return None
    finally:
        shutil.rmtree(work_abs, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        log("campaign_bench failed with exit code %d" % proc.returncode)
        return None
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["trace_path"] = trace_path
    return raw


def record_reference(args, raw):
    refs = load_reference()
    refs[args.workload] = {"search": raw["search_digest"],
                           "path": raw["path_digest"]}
    if raw["diag_digest"]:
        refs[args.workload]["diag"] = raw["diag_digest"]
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    log("recorded %s digests in %s" % (args.workload, REFERENCE))


def self_test():
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        failures += 0 if ok else 1

    xs = list(range(1, 221))  # 220 samples: p99 has 2 beyond, p95 has 11
    expect(tail(xs) == (209, 95.0, 220), "tail of 220 samples is p95")
    expect(tail(range(1, 101)) == (90, 90.0, 100), "tail of 100 samples is p90")
    expect(tail(range(1, 1001))[1] == 99.0, "tail of 1000 samples is p99")
    expect(tail(range(1, 10001))[1] == 99.9, "tail of 10000 samples is p99.9")
    expect(tail(range(1, 16)) == (15, 100.0, 15), "too few samples: the maximum")
    path = os.path.join(WORK_DIR, "selftest.trace.json")
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": [
            {"name": "variant", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
            {"name": "a", "ph": "B", "ts": 100, "pid": 1, "tid": 0},
            {"name": "a", "ph": "E", "ts": 400, "pid": 1, "tid": 0},
            {"name": "x", "ph": "B", "ts": 50, "pid": 1, "tid": 1},
            {"name": "x", "ph": "E", "ts": 950, "pid": 1, "tid": 1},
            {"name": "variant", "ph": "E", "ts": 1000, "pid": 1, "tid": 0},
        ]}, f)
    got = spans(path)
    os.remove(path)
    expect(abs(got["variant"][0][1] - 700e-6) < 1e-12,
           "self time excludes children on the same track only")
    expect(abs(got["a"][0][0] - 300e-6) < 1e-12, "leaf span duration")
    if not build():
        return 1
    rc = subprocess.run([BINARY, "--self-test"]).returncode
    return 1 if failures or rc else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's digests as the workload's reference "
                        "(default seed only)")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.record_reference and args.seed != DEFAULT_SEED:
        p.error("references are recorded at the default seed")
    if not build():
        log("build failed")
        return 1
    raw = run_workload(args)
    if raw is None:
        return 1
    if args.record_reference:
        record_reference(args, raw)
    attempted, failed = raw["attempted"], raw["failed"]
    meta = dict(raw["meta"], git_rev=git_rev(), source_digest=source_digest(),
                samples={k: len(raw[k]) for k in ("setup_s", "campaign_s",
                                                   "diagnose_s", "warm_campaign_s")},
                failed_frac=failed / attempted if attempted else 1.0)
    print("bench-meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        metrics = per_layer(raw, raw["trace_path"])
        log("trace: " + raw["trace_path"])
    else:
        metrics = end_to_end(raw)
    filled = all(raw[k] for k in ("setup_s", "campaign_s"))
    if not args.trace:
        filled = filled and all(raw[k] for k in ("diagnose_s", "warm_campaign_s"))
    result = {"correct": failed == 0 and attempted > 0 and filled,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
