#!/usr/bin/env python3
"""Build and run one perfbench workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload table2_cold [--seed 2026] [--seconds 20]
                             [--trace 0|1] [--threads N] [--write-goldens]

Run from the repository root.  The driver program is built from source
into .bench_build/perfbench on first use.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  The line before it summarises
the run: machine metadata, the tail percentile and its sample count, the
work counters and every check that failed.  The driver's full record and
the summary are also written to .bench_build/work/<workload>.record.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
GOLDENS = BENCH_DIR / "goldens.json"
GOLDEN_SEED = 2026
GOLDEN_REL_TOL = 1e-9
GOLDEN_FIELDS = ("rate_mean", "rate_sd", "dk_lambda", "dk_count")
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "3"],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench_driver"


def source_digest():
    """SHA-256 over the library and benchmark sources, for the metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def close(a, b):
    return abs(a - b) <= GOLDEN_REL_TOL * max(abs(a), abs(b)) or (a == 0.0 and b == 0.0)


def golden_mismatches(record):
    """Calls whose results differ from the committed goldens (default seed)."""
    if record["seed"] != GOLDEN_SEED or not GOLDENS.exists():
        return None
    goldens = json.loads(GOLDENS.read_text())["workloads"].get(record["workload"])
    if goldens is None:
        return None
    want = {(g["program"], g["period_ps"]): g for g in goldens}
    bad = []
    for r in record["results"]:
        g = want.get((r["program"], r["period_ps"]))
        if g is None or not all(close(r[f], g[f]) for f in GOLDEN_FIELDS):
            bad.append(f'{r["program"]}@{r["period_ps"]}')
    if len(want) != len(record["results"]):
        bad.append("result count differs from goldens")
    return bad


def end_to_end(record):
    passes = record["passes"]
    # Every pass issues the same calls and does the same work.  On a shared
    # host, contention from other tenants only ever adds time and comes in
    # bursts of seconds, so each call keeps its fastest half of passes: the
    # latency percentiles are taken over those samples, and analyze_s sums
    # each call's fastest pass.
    per_call = [sorted(p["latency_ms"][i] for p in passes)
                for i in range(len(passes[0]["latency_ms"]))]
    latencies = [x for xs in per_call for x in xs[:(len(xs) + 1) // 2]]
    tail_ms, tail_pct, n = tail(latencies)
    analyze_s = sum(xs[0] for xs in per_call) / 1e3
    metrics = {
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "analyze_s": (analyze_s, "s"),
        "analyze_p50_ms": (statistics.median(latencies), "ms"),
        "analyze_tail_ms": (tail_ms, "ms"),
        "instr_per_s": (passes[0]["instructions"] / analyze_s, "1/s"),
        "peak_rss_mb": (record["peak_rss_bytes"] / 2**20, "MB"),
    }
    extra = {"tail_percentile": tail_pct, "latency_samples": n}
    return metrics, extra


def per_layer(record):
    passes = record["passes"]
    work = record["work"]
    gates = record["meta"]["gates"]

    def layer(name):
        vals = [p["layers"][name] for p in passes if name in p["layers"]]
        return statistics.median(vals) if vals else 0.0

    def phase(name):
        return statistics.median(p["phases"][name] for p in passes)

    hits, misses = work["cache.hits"], work["cache.misses"]
    cycles = work["sim.cycles"]
    return {
        "sim.drive_s": (layer("sim.drive"), "s"),
        "sim.cycles": (cycles, "count"),
        "sim.gate_toggles": (work["sim.gate_toggles"], "count"),
        "sim.toggle_ratio": (work["sim.gate_toggles"] / (cycles * gates) if cycles else 0.0,
                             "ratio"),
        "timing.paths_warm_s": (layer("timing.paths_warm"), "s"),
        "timing.arrivals_s": (layer("timing.arrivals"), "s"),
        "timing.paths_enumerated": (work["timing.paths_enumerated"], "count"),
        "timing.path_expansions": (work["timing.path_expansions"], "count"),
        "dta.fetch_build_s": (layer("dta.fetch_build"), "s"),
        "dta.stage_dts_s": (layer("dta.stage_dts"), "s"),
        "dta.stage_dts_queries": (work["dta.stage_dts_queries"], "count"),
        "dta.edges_characterized": (work["dta.edges_characterized"], "count"),
        "dta.dp_fallbacks": (work["dta.dp_fallbacks"], "count"),
        "dta.dp_cache_collisions": (work["dta.dp_cache_collisions"], "count"),
        "stat.clark_min_calls": (work["stat.clark_min_calls"], "count"),
        "isa.run_s": (layer("isa.run"), "s"),
        "isa.instructions": (work["core.instructions_simulated"], "count"),
        "core.error_model_s": (layer("core.error_model"), "s"),
        "core.marginal_s": (layer("core.marginal"), "s"),
        "core.estimate_s": (layer("core.estimate"), "s"),
        "solver.linear_solves": (work["solver.linear_solves"], "count"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "cache.bytes_read": (work["cache.bytes_read"], "bytes"),
        "cache.bytes_written": (work["cache.bytes_written"], "bytes"),
        "pool.tasks": (record["pool"]["tasks"], "count"),
        "pool.steal_or_wait": (record["pool"]["steal_or_wait"], "count"),
        "phase.simulation_s": (phase("simulation"), "s"),
        "phase.training_s": (phase("training"), "s"),
        "phase.estimation_s": (phase("estimation"), "s"),
        "trace.overhead_ratio": (statistics.median(p["replay_s"] / max(p["analyze_s"], 1e-9)
                                                   for p in passes), "ratio"),
    }


def write_goldens(record):
    data = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {
        "seed": GOLDEN_SEED, "tolerance_rel": GOLDEN_REL_TOL, "workloads": {}}
    data["workloads"][record["workload"]] = [
        {k: r[k] for k in ("program", "period_ps") + GOLDEN_FIELDS} for r in record["results"]]
    GOLDENS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    log(f"wrote {len(record['results'])} goldens for {record['workload']} to {GOLDENS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    # Numeric flags are passed through as text: the driver parses them with
    # robust::parse_uint_arg / parse_double_arg and exits 3 on bad input.
    ap.add_argument("--seed", default=str(GOLDEN_SEED))
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--threads")
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()

    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    cmd = [str(driver), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.threads is not None:
        cmd += ["--threads", args.threads]
    # Library settings come from the workload alone, never the environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TERRORS_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 2
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
        return proc.returncode
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.write_goldens:
        if record["seed"] != GOLDEN_SEED or record["failed"]:
            log("perfbench: goldens come from a clean run at the default seed")
            return 2
        write_goldens(record)

    failures = list(record["failures"])
    failed = record["failed"]
    mismatched = golden_mismatches(record)
    if mismatched:
        # Every pass repeats the first pass's results bit for bit (the driver
        # checks that), so a wrong result is wrong once per pass.
        failed += len(mismatched) * len(record["passes"])
        failures += [f"{m}: differs from golden" for m in mismatched]
    attempted = record["attempted"]
    failed = min(failed, attempted)  # a call that fails two checks is one failed call

    e2e, extra = end_to_end(record)
    layers = per_layer(record) if record["trace"] else None
    summary = {
        "workload": record["workload"],
        "seed": record["seed"],
        "trace": record["trace"],
        "meta": dict(record["meta"], commit=commit(), source_digest=source_digest()),
        "passes": len(record["passes"]),
        **extra,
        "failed_frac": failed / attempted,
        "golden_checked": mismatched is not None,
        "failures": failures,
        "work": record["work"],
    }
    print(json.dumps(summary, sort_keys=True))
    (WORK_DIR / f'{record["workload"]}.record.json').write_text(
        json.dumps({"summary": summary, "record": record}) + "\n")

    chosen = layers if record["trace"] else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
