#!/usr/bin/env python3
"""Repo benchmark for tokenring-rt: one command, three workloads.

  python3 perfbench/run.py --workload {fig1,serve_mix,sim_validate}
                           --seed N --seconds S --trace {0,1}
  python3 perfbench/run.py --selftest      # quick smoke of every workload

Run from the repository root (or anywhere: paths resolve from this file).
The first run builds the library, tokenring_tool and the measuring driver
(perfbench/driver/) into .bench_build/ with CMake; later runs reuse the
build while the sources hash the same.

--trace 0 measures the end-to-end metrics, --trace 1 runs the traced
replay that splits the time into layers. Either way the last line of
stdout is one JSON object:

  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}

A human-readable table goes to stderr. See perfbench/README.md for what
each workload and metric means.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_INPUTS = ["src", "tools", "perfbench/driver", "perfbench/CMakeLists.txt"]
FIG1_REFERENCE = HERE / "reference" / "fig1_seed42.json"

# Every metric the benchmark reports: name -> (unit, better). BENCHMARK.json
# mirrors these tables; --selftest checks that it does.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "wall_par_s": ("s", "lower"),
    "max_qps": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}

PER_LAYER = {
    # fig1 traced replay (rows + residue_s = trace_total_s)
    "analysis.pdp_probe_s": ("s", "lower"),
    "analysis.pdp_probes": ("count", "lower"),
    "analysis.ttp_probe_s": ("s", "lower"),
    "analysis.ttp_probes": ("count", "lower"),
    "analysis.kernel_build_s": ("s", "lower"),
    "analysis.kernel_builds": ("count", "lower"),
    "breakdown.search_self_s": ("s", "lower"),
    "breakdown.probes_per_trial": ("count", "lower"),
    "breakdown.degenerate_frac": ("frac", "lower"),
    "breakdown.useful_frac": ("frac", "higher"),
    "msg.draw_s": ("s", "lower"),
    "exec.speedup": ("ratio", "higher"),
    "exec.efficiency": ("frac", "higher"),
    "residue_s": ("s", "lower"),
    "trace_total_s": ("s", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
    # sim_validate traced replay
    "breakdown.search_s": ("s", "lower"),
    "sim.build_s": ("s", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.max_intervisit_ratio": ("ratio", "lower"),
    # serve_mix traced run
    "serve.wire_us": ("us", "lower"),
    "serve.engine_hit_us": ("us", "lower"),
    "serve.transport_us": ("us", "lower"),
    "analysis.check_pdp_ms": ("ms", "lower"),
    "analysis.check_pdp_large_ms": ("ms", "lower"),
    "analysis.check_ttp_ms": ("ms", "lower"),
    "analysis.check_ttp_large_ms": ("ms", "lower"),
    "fault.faultcheck_ms": ("ms", "lower"),
    "fault.faultcheck_large_ms": ("ms", "lower"),
    "planner.advise_s": ("s", "lower"),
    "serve.hit_ratio": ("frac", "higher"),
    "serve.cache.evictions": ("count", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.batch.peak_depth": ("count", "lower"),
    "serve.ratelimit.rejected": ("count", "lower"),
    "serve.p50_ms": ("ms", "lower"),
    "serve.p99_ms": ("ms", "lower"),
    "serve.hit_p50_us": ("us", "lower"),
    "serve.miss_p99_ms": ("ms", "lower"),
    "serve.gen_lag_ms": ("ms", "lower"),
    # every workload
    "fail_frac": ("frac", "lower"),
}

# Layer rows of each traced replay; with residue_s they sum to the total.
LAYER_ROWS = {
    "fig1": ["msg.draw_s", "analysis.kernel_build_s", "analysis.pdp_probe_s",
             "analysis.ttp_probe_s", "breakdown.search_self_s"],
    "sim_validate": ["msg.draw_s", "breakdown.search_s", "sim.build_s",
                     "sim.run_s"],
}

# Rounds per run: --seconds divided by a round's nominal cost on a 4-core
# machine, so the inputs depend only on (seed, seconds).
FIG1_ROUND_S = 4
SIM_ROUND_S = 5

# Every timed section runs in chunks between host probes (driver/calib.cpp:
# fixed CPU work that never calls the program). A chunk's time is divided
# by the mean of the probes around it and multiplied by the probe's time on
# an idle core of the 4-vCPU virtual machine the benchmark was tuned on, so
# the end-to-end times read as seconds on that machine at its idle speed.
# This cancels the minute-to-minute speed drift of a shared host, which
# moves the raw times by up to 1.5x, while a change to the program moves
# the chunk and not the probe.
PROBE_REF_S = 0.020

# serve_mix: open-loop ladder [req/s]; p50/p99 come from the nominal rung,
# which runs as one segment per daemon launch, the other rungs on the last.
SERVE_NOMINAL = 1000
SERVE_RATES = [500, 1500]
SERVE_STEP_SHARE = [12, 2, 3]      # ladder time: nominal, then SERVE_RATES
SERVE_FILL_S = 1.5                 # untimed traffic that fills the cache
SERVE_SATURATE = 16000             # requests per closed-loop capacity pass
SERVE_PINNED = 4000                # queries in the offline timing mix
SERVE_FIXED_S = 24.0               # set-up, fill, saturation, verification

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    """The benchmark could not run (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build --------------------------------------------------------------------

def source_hash():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        base = ROOT / rel
        paths = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in paths:
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative to
    # the repository root, or absolute); the CMake tree goes there.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def ensure_built():
    for rel in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                "perfbench/CMakeLists.txt"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"missing {rel}: run from a full source checkout")
    out = build_dir()
    driver = out / "perfbench_driver"
    tool = out / "tokenring_tools" / "tokenring_tool"
    stamp = out / "perfbench.stamp"
    digest = source_hash()
    if driver.is_file() and tool.is_file() and stamp.is_file() \
            and stamp.read_text() == digest:
        return driver, tool
    log(f"perfbench: building into {out} ...")
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(out), "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    stamp.write_text(digest)
    return driver, tool


# ---- driver processes ---------------------------------------------------------

def _die_with_parent():
    # PR_SET_PDEATHSIG = 1: the driver gets SIGKILL if this script dies.
    ctypes.CDLL(None, use_errno=True).prctl(1, int(signal.SIGKILL))


def launch(driver, mode, **kwargs):
    """Start the driver; return (process, launch time)."""
    args = [str(driver), mode] + [f"--{k.replace('_', '-')}={v}"
                                  for k, v in kwargs.items()]
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            preexec_fn=_die_with_parent)
    return proc, t0


def read_events(proc, on_ready=None):
    """Collect the driver's JSON lines until it exits; a driver that runs
    past DRIVER_TIMEOUT_S is killed."""
    events = []
    watchdog = threading.Timer(DRIVER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event.get("event") == "ready" and on_ready:
                on_ready(time.perf_counter())
            events.append(event)
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"driver exited with {code}")
    return events


def run_driver(driver, mode, **kwargs):
    proc, _ = launch(driver, mode, **kwargs)
    return read_events(proc)


def timed_rounds(driver, mode, rounds, seed_of, **kwargs):
    """Launch `mode` once per round; each launch is one set-up sample plus
    one round of timed work on the inputs of seed_of(round)."""
    setups, results = [], []
    for r in range(rounds):
        proc, t0 = launch(driver, mode, seed=seed_of(r), **kwargs)
        ready = []
        events = read_events(proc, ready.append)
        if not ready:
            raise BenchError(f"{mode}: driver never reported ready")
        setups.append(ready[0] - t0)
        results += [e for e in events if e["event"] == "round"]
    return setups, results


median = statistics.median


def check_probes(probe_s):
    if not probe_s or min(probe_s) <= 0.0:
        raise BenchError("host probe failed (its fixed work came out wrong)")
    return probe_s


def host_s(chunk_s, probe_s):
    """Chunk times at the reference host speed (see PROBE_REF_S)."""
    if len(check_probes(probe_s)) != len(chunk_s) + 1:
        raise BenchError("host probes do not bracket every chunk")
    return [t * PROBE_REF_S * 2.0 / (a + b)
            for t, a, b in zip(chunk_s, probe_s, probe_s[1:])]


def host_time(passes, key):
    """One timed section at the reference host speed: the sum over its
    chunks of each chunk's median over passes."""
    chunks = zip(*[host_s(p[key + "_chunk_s"], p[key + "_probe_s"])
                   for p in passes])
    return sum(median(c) for c in chunks)


def raw_time(passes, key):
    """The same section's median raw wall time, for the notes."""
    return median([sum(p[key + "_chunk_s"]) for p in passes])


def host_setup(setups, probes):
    """Median set-up time, each sample at the reference host speed by the
    probe taken next to it."""
    return median([t * PROBE_REF_S / p
                   for t, p in zip(setups, check_probes(probes))])


# ---- fig1 -----------------------------------------------------------------------

def fig1_rows_match_reference(rows):
    """PDP columns exact; every column within the saturation search's 1e-6
    relative tolerance (a CI column measured against its mean's scale)."""
    ref = json.loads(FIG1_REFERENCE.read_text())["rows"]
    if len(ref) != len(rows):
        return False
    for i in range(0, len(rows), 7):
        got, want = rows[i:i + 7], ref[i:i + 7]
        if got[0] != want[0] or got[1:5] != want[1:5]:
            return False
        for col, scale_col in ((5, 5), (6, 5)):
            scale = max(abs(want[scale_col]), abs(want[col]), 1e-300)
            if abs(got[col] - want[col]) > 1e-6 * scale:
                return False
    return True


def workload_fig1(driver, _tool, args, nproc):
    sets = 4 if args.smoke else 100
    if args.trace:
        ev = run_driver(driver, "fig1-trace", seed=args.seed, nproc=nproc,
                        sets=sets)[-1]
        evals_ok = (ev["breakdown.predicate_evals"]
                    == ev["breakdown.predicate_evals_counter"]
                    == ev["analysis.pdp_probes"] + ev["analysis.ttp_probes"])
        checks = [ev["rows_identical"], ev["replay_matches"], evals_ok]
        layers = {k: ev[k] for k in PER_LAYER if k in ev}
        layers["exec.speedup"] = ev["wall_s"] / ev["wall_par_s"]
        layers["exec.efficiency"] = layers["exec.speedup"] / ev["jobs"]
        return checks, layer_table("fig1", layers, ev["total_s"], ev["wall_s"])

    setups, rounds = timed_rounds(
        driver, "fig1", max(2, args.seconds // FIG1_ROUND_S),
        lambda _: args.seed, nproc=nproc, sets=sets)
    checks = []
    for r in rounds:
        # Two sweeps per round, judged together.
        checks += [r["rows_identical"] and r["observations_ok"]] * 2
    if not args.smoke:
        ref = run_driver(driver, "fig1-ref", nproc=nproc)[-1]
        checks.append(fig1_rows_match_reference(ref["rows"]))
    wall_par = host_time(rounds, "wall_par")
    metrics = {
        "setup_s": host_setup(setups, [r["wall_probe_s"][0] for r in rounds]),
        "wall_s": host_time(rounds, "wall"),
        "wall_par_s": wall_par,
        "max_qps": rounds[0]["trials"] / wall_par,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }
    return checks, (metrics, raw_notes(rounds, setups))


def raw_notes(passes, setups):
    return [f"rounds={len(passes)}; raw medians: setup {median(setups):.4f} s, "
            f"wall {raw_time(passes, 'wall'):.4f} s, "
            f"wall_par {raw_time(passes, 'wall_par'):.4f} s"]


# ---- sim_validate -----------------------------------------------------------------

def workload_sim(driver, _tool, args, nproc):
    sets = 2 if args.smoke else 30
    if args.trace:
        ev = run_driver(driver, "sim-trace", seed=args.seed * 1000,
                        nproc=nproc, sets=sets)[-1]
        bad = ev["gate_failures"]
        checks = [ev["replay_matches"]] + \
            [True] * (ev["rows_checked"] - bad) + [False] * bad
        layers = {k: ev[k] for k in PER_LAYER if k in ev}
        # The concurrent copies do jobs times the work of one study.
        layers["exec.speedup"] = ev["jobs"] * ev["wall_s"] / ev["wall_par_s"]
        layers["exec.efficiency"] = layers["exec.speedup"] / ev["jobs"]
        return checks, layer_table("sim_validate", layers, ev["total_s"],
                                   ev["wall_s"])

    # Study cost varies with the drawn sets, so each round draws its own
    # (seed, round) inputs and the medians average over them.
    setups, rounds = timed_rounds(
        driver, "sim", max(2, args.seconds // SIM_ROUND_S),
        lambda r: args.seed * 1000 + r, nproc=nproc, sets=sets)
    checks = []
    for r in rounds:
        # One check per validation row of every study; a campaign copy that
        # does not reproduce the serial study fails on top.
        bad = r["gate_failures"]
        checks += [True] * (r["rows_checked"] - bad) + [False] * bad
        checks.append(r["rows_identical"])
    wall_par = host_time(rounds, "wall_par")
    metrics = {
        "setup_s": host_setup(setups, [r["wall_probe_s"][0] for r in rounds]),
        "wall_s": host_time(rounds, "wall"),
        "wall_par_s": wall_par,
        "max_qps": median([r["campaign_simulations"] for r in rounds])
        / wall_par,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }
    return checks, (metrics, raw_notes(rounds, setups))


# ---- serve_mix ------------------------------------------------------------------

def workload_serve(driver, tool, args, nproc):
    if args.smoke:
        nominal, rates, steps = 400, [200], [1.0, 0.5]
        fill, saturate, pinned = 0.2, 200, 50
    else:
        ladder_s = max(3.0, args.seconds - SERVE_FIXED_S)
        total = sum(SERVE_STEP_SHARE)
        nominal, rates = SERVE_NOMINAL, SERVE_RATES
        steps = [ladder_s * s / total for s in SERVE_STEP_SHARE]
        fill, saturate, pinned = SERVE_FILL_S, SERVE_SATURATE, SERVE_PINNED
    events = run_driver(
        driver, "serve", tool=tool, seed=args.seed, nproc=nproc,
        nominal=nominal, nominal_s=f"{steps[0]:.3f}",
        rates=",".join(map(str, rates)),
        rate_s=",".join(f"{s:.3f}" for s in steps[1:]), fill_s=fill,
        saturate=saturate, pinned=pinned, trace=args.trace)
    by = {}
    for e in events:
        by.setdefault(e["event"], []).append(e)
    setup, daemon, verify = by["setup"][0], by["daemon"][0], by["verify"][0]
    stepl, compute = by["step"], by["compute"]
    # The nominal rung and the saturation pass run once per daemon launch;
    # each reports the median over its launches.
    nominal = [s for s in stepl if s["phase"] == "nominal"]
    # Capacity at the reference host speed: each saturation slice's rate
    # times its probes' mean over PROBE_REF_S.
    saturation = [s["achieved_qps"] * statistics.fmean(check_probes(s["probe_s"]))
                  / PROBE_REF_S for s in stepl if s["phase"] == "saturate"]
    nom = {k: median([s[k] for s in nominal])
           for k in ("p50_ms", "p99_ms", "hit_p50_us", "miss_p99_ms",
                     "gen_lag_ms")}
    nom["attempted"] = sum(s["attempted"] for s in nominal)

    checks = [setup["warm_ok"], daemon["stats_ok"], daemon["exit_code"] == 0]
    for s in stepl:  # every phase, the untimed fill too
        checks += [True] * (s["attempted"] - s["failed"]) + [False] * s["failed"]
    checks += [True] * (verify["checked"] - verify["mismatched"]) + \
        [False] * verify["mismatched"]

    steps_note = [
        f"{s['phase']} {s['rate']:.0f}/s: achieved {s['achieved_qps']:.0f}/s "
        f"p50 {s['p50_ms']:.3f} ms p99 {s['p99_ms']:.2f} ms "
        f"lag {s['gen_lag_ms']:.3f} ms backlog {s['backlog_first']:.1f}"
        f"->{s['backlog_second']:.1f} pass={s['pass']} valid={s['valid']}"
        for s in stepl]
    if args.trace:
        layers = {k: v for k, v in {**daemon, **verify}.items() if k in PER_LAYER}
        layers["serve.transport_us"] = (nom["p50_ms"] * 1e3
                                        - daemon["request_p50_us"])
        layers["serve.p50_ms"] = nom["p50_ms"]
        layers["serve.p99_ms"] = nom["p99_ms"]
        layers["serve.hit_p50_us"] = nom["hit_p50_us"]
        layers["serve.miss_p99_ms"] = nom["miss_p99_ms"]
        layers["serve.gen_lag_ms"] = nom["gen_lag_ms"]
        # The nproc-thread pass computes the pinned mix jobs times over.
        layers["exec.speedup"] = (verify["jobs"] * host_time(compute, "wall")
                                  / host_time(compute, "wall_par"))
        layers["exec.efficiency"] = layers["exec.speedup"] / verify["jobs"]
        return checks, (layers, steps_note)

    metrics = {
        "setup_s": host_setup(setup["setup_s"], setup["setup_probe_s"]),
        "wall_s": host_time(compute, "wall"),
        "wall_par_s": host_time(compute, "wall_par"),
        "max_qps": median(saturation),
        "peak_rss_mb": daemon["peak_rss_mb"],
    }
    notes = steps_note + raw_notes(compute, setup["setup_s"]) + [
        f"setup samples={len(setup['setup_s'])} "
        f"nominal samples={nom['attempted']} unique={verify['unique_requests']}",
        f"nominal rung (median over launches): p50 {nom['p50_ms']:.3f} ms "
        f"p99 {nom['p99_ms']:.2f} ms (unbounded: see README)"]
    return checks, (metrics, notes)


# ---- traced layer table -----------------------------------------------------------

def layer_table(workload, layers, total, untraced_wall):
    rows = LAYER_ROWS[workload]
    layers["residue_s"] = total - sum(layers[r] for r in rows)
    layers["trace_total_s"] = total
    layers["trace_overhead_frac"] = total / untraced_wall - 1.0
    notes = [f"{'layer':<28}{'seconds':>12}{'share':>9}"]
    for r in rows + ["residue_s"]:
        notes.append(f"{r:<28}{layers[r]:>12.6f}{layers[r] / total:>9.1%}")
    notes.append(f"{'total (traced)':<28}{total:>12.6f}")
    notes.append(f"{'untraced wall_s':<28}{untraced_wall:>12.6f}")
    return layers, notes


def layer_sum_ok(workload, layers):
    """Self-test: rows + residue_s reproduce the traced total, and no layer
    is double counted (the residue is not meaningfully negative)."""
    if workload not in LAYER_ROWS:
        return True
    total = layers["trace_total_s"]
    parts = sum(layers[r] for r in LAYER_ROWS[workload]) + layers["residue_s"]
    return abs(parts - total) <= 1e-9 * total and \
        layers["residue_s"] >= -0.01 * total


# ---- result -----------------------------------------------------------------------

WORKLOADS = {
    "fig1": workload_fig1,
    "serve_mix": workload_serve,
    "sim_validate": workload_sim,
}


def names_ok():
    """Self-test: metric names and units fit the result format's limits."""
    names = list(END_TO_END) + list(PER_LAYER)
    return (len(set(names)) == len(names) and 1 <= len(END_TO_END) <= 16
            and 1 <= len(PER_LAYER) <= 128
            and all(NAME_RE.match(n) for n in names)
            and all(UNIT_RE.match(u) for u, _ in
                    list(END_TO_END.values()) + list(PER_LAYER.values())))


def benchmark_json_ok():
    """Self-test: BENCHMARK.json (when present) lists exactly these metrics
    and workloads."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return True
    spec = json.loads(path.read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    return (e2e == END_TO_END and layer == PER_LAYER
            and {w["name"] for w in spec["workloads"]} == set(WORKLOADS))


def run_workload(args, driver, tool):
    nproc = os.cpu_count() or 1
    checks, (values, notes) = WORKLOADS[args.workload](driver, tool, args,
                                                       nproc)
    table = PER_LAYER if args.trace else END_TO_END
    attempted = len(checks)
    failed = sum(1 for ok in checks if not ok)
    if args.trace:
        values["fail_frac"] = failed / max(1, attempted)
    metrics = {}
    for name, (unit, _) in table.items():
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    self_ok = names_ok() and benchmark_json_ok() and \
        (not args.trace or layer_sum_ok(args.workload, values))

    log(f"== {args.workload} seed={args.seed} trace={args.trace} "
        f"attempted={attempted} failed={failed} "
        f"fail_frac={failed / max(1, attempted):.6f} selftest_ok={self_ok}")
    for note in notes:
        log("   " + note)
    for name, m in metrics.items():
        log(f"   {name:<30} {m['value']:>16.6f} {m['unit']}")
    return {"correct": failed == 0 and self_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def selftest(driver, tool):
    """Smoke-run every workload traced and untraced at tiny sizes."""
    ok = names_ok() and benchmark_json_ok()
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace, smoke=True)
            result = run_workload(args, driver, tool)
            ok &= result["correct"] and all(
                math.isfinite(m["value"]) for m in result["metrics"].values())
    log(f"selftest: {'ok' if ok else 'FAILED'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="smoke every workload and check the benchmark")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    try:
        driver, tool = ensure_built()
        if args.selftest:
            return 0 if selftest(driver, tool) else 1
        args.smoke = False
        result = run_workload(args, driver, tool)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError, StopIteration) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
