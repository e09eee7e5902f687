#!/usr/bin/env python3
"""Simulator benchmark: time-to-result on the paper prototype and three
fleet shapes, with a per-layer breakdown from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree.  On first use it builds
the perfbench_runner program (and the library from src/) into .bench_build/.
Every repetition runs in a fresh runner process, so peak RSS is that
repetition's own.  The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
perfbench/README.md documents the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

MAX_THREADS = 4
MAX_REPS = 40
# Wall budget for all runner processes of one run (the build excluded), so
# a hung runner still ends the run well inside three minutes.
RUN_BUDGET_S = 165
LEDGER_REL_TOL = 1e-9

# twin_rounds: length of the threads=1 twin run; it ends on an evaluation
# round so its per-round digests must equal the main run's prefix.
# traced_pairs: untraced/traced pairs in a --trace 1 run, enough traced
# rounds (>= 100) that the p90 of per-round training time has at least ten
# rounds beyond it.
# min_reps: repetitions a --trace 0 run makes even when --seconds is
# already spent; the prototype's repetitions take about 10 s, and its
# median needs at least four of them to be steady.
WORKLOADS = {
    "prototype_acs": {"twin_rounds": 3, "traced_pairs": 3, "min_reps": 4},
    "fleet_cohort": {"twin_rounds": 6, "traced_pairs": 2, "min_reps": 3},
    "fleet_congested": {"twin_rounds": 11, "traced_pairs": 2, "min_reps": 3},
    "fleet_faults": {"twin_rounds": 11, "traced_pairs": 2, "min_reps": 3},
}

# Simulated outputs every repetition must reproduce exactly.
OUTPUT_KEYS = (
    "k", "e", "rounds", "client_epochs", "ledger_j", "makespan_s",
    "params_fnv", "final_digest", "events", "queue_high_water",
    "link_wait_s", "link_msgs", "link_drops", "retries", "aborted",
    "straggler_drops", "crashed",
)


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds the runner; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(min(MAX_THREADS, nproc()))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_runner", "-j", jobs])


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout carries only results.
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_runner(workload, seed, threads, deadline, extra=()):
    """One runner process.  Returns (provenance, reps, layers) or raises
    BenchError when it errors, crashes, outlives `deadline` (a monotonic
    time) or prints no repetition."""
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--threads", str(threads), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"runner timed out: {' '.join(cmd)}")
    lines = []
    for line in proc.stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    errors = [l["error"] for l in lines if l.get("kind") == "error"]
    reps = [l for l in lines if l.get("kind") == "rep"]
    if proc.returncode != 0 or errors or not reps:
        detail = errors[0] if errors else proc.stderr.strip()[-300:]
        raise BenchError(f"runner exit {proc.returncode}: {detail}")
    for rep in reps:
        rep["final_digest"] = rep["round_digests"][-1]
    provenance = next(l for l in lines if l.get("kind") == "provenance")
    layers = next((l for l in lines if l.get("kind") == "layers"), None)
    return provenance, reps, layers


def outputs(rep):
    return {k: rep[k] for k in OUTPUT_KEYS}


def check_rep(workload, rounds, rep, reference):
    """Problems with one repetition's simulated outputs (empty = correct)."""
    problems = []
    got = outputs(rep)
    if reference is not None and got != reference:
        diff = sorted(k for k in OUTPUT_KEYS if got[k] != reference[k])
        problems.append(f"outputs differ from reference in {diff}")
    if rep["rounds"] != rounds or len(rep["round_digests"]) != rounds:
        problems.append(f"ran {rep['rounds']} rounds, expected {rounds}")
    total, parts = rep["ledger_j"], rep["ledger_category_sum_j"]
    if not (total > 0 and abs(parts - total) <= LEDGER_REL_TOL * total):
        problems.append(f"ledger categories sum to {parts}, total {total}")
    if workload == "prototype_acs" and (rep["k"], rep["e"]) != (1, 10):
        problems.append(f"planner chose K={rep['k']} E={rep['e']}, "
                        "expected K*=1 E*=10")
    if workload == "fleet_congested" and not rep["link_wait_s"] > 0:
        problems.append("no link wait on the congested backhaul")
    if workload == "fleet_faults":
        trained = rep["client_epochs"] // max(rep["e"], 1)
        if rep["retries"] == 0 or rep["crashed"] == 0:
            problems.append("fault process produced no retries or crashes")
        if not 0 < rep["straggler_drops"] < trained // 2:
            problems.append("deadline drops are not a minority of updates")
    return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    return {
        "time_to_result_s": metric(
            median(r["time_to_result_s"] for r in reps), "s"),
        "setup_s": metric(
            median(r["plan_s"] + r["prepare_s"] for r in reps), "s"),
        "client_epochs_per_s": metric(
            median(r["client_epochs"] / r["run_s"] for r in reps), "1/s"),
        "peak_rss_mb": metric(median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(provenance, reps, layers):
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    deltas = layers["traced_reps"]
    ref = traced[0]
    threads = provenance["threads"]
    n_k = provenance["samples_per_server"]
    train_s = [d["train_ns"] / 1e9 for d in deltas]
    eval_s = [d["eval_ns"] / 1e9 for d in deltas]
    self_s = [r["run_s"] - t - e for r, t, e in zip(traced, train_s, eval_s)]
    found = []
    if min(self_s) < 0:
        found.append(f"negative engine self time {min(self_s)}")
    if not p90_valid(layers):
        found.append("too few traced rounds for a p90")
    run_s = median(r["run_s"] for r in traced)
    busy_s = median(d["pool_busy_ns"] / 1e9 for d in deltas)
    events = ref["events"]
    sample_epochs = ref["client_epochs"] * n_k
    metrics = {
        "sim.prepare_s": metric(median(r["prepare_s"] for r in traced), "s"),
        "core.plan_s": metric(median(r["plan_s"] for r in traced), "s"),
        "data.images": metric(layers["data_images"], "count"),
        "data.us_per_image": metric(
            layers["data_generate_s"] * 1e6 / layers["data_sample"], "us"),
        "fl.train_s": metric(median(train_s), "s"),
        "fl.train_round_ms.p50": metric(layers["train_round_ns_p50"] / 1e6,
                                        "ms"),
        "fl.train_round_ms.p90": metric(layers["train_round_ns_p90"] / 1e6,
                                        "ms"),
        "fl.client_epochs": metric(ref["client_epochs"], "count"),
        "ml.ns_per_sample_epoch": metric(
            median(t * 1e9 / sample_epochs for t in train_s), "ns"),
        "fl.eval_s": metric(median(eval_s), "s"),
        "fl.evals": metric(int(deltas[0]["evals"]), "count"),
        "sim.run_s": metric(run_s, "s"),
        "sim.engine_self_s": metric(median(self_s), "s"),
        "sim.events": metric(events, "count"),
        "sim.ns_per_event": metric(
            median(s * 1e9 / events for s in self_s) if events else 0.0,
            "ns"),
        "sim.queue_high_water": metric(ref["queue_high_water"], "count"),
        "net.link_msgs": metric(ref["link_msgs"], "count"),
        "net.link_drops": metric(ref["link_drops"], "count"),
        "net.retries": metric(ref["retries"], "count"),
        "pool.tasks": metric(int(median(d["pool_tasks"] for d in deltas)),
                             "count"),
        "pool.busy_s": metric(busy_s, "s"),
        "pool.wait_s": metric(median(d["pool_wait_ns"] / 1e9
                                     for d in deltas), "s"),
        "pool.utilization": metric(busy_s / (threads * run_s), "ratio"),
        "energy.idle_charges": metric(int(deltas[0]["idle_charges"]),
                                      "count"),
        "obs.trace_overhead_pct": metric(
            (run_s / median(r["run_s"] for r in untraced) - 1) * 100, "%"),
    }
    return metrics, found


def p90_valid(layers):
    # At least ten samples must lie beyond the p90's rank, which the sketch
    # takes as round(0.9 * (n - 1)).
    n = layers["train_rounds"]
    return n - 1 - round(0.9 * (n - 1)) >= 10


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        build()
    except BenchError as e:
        log(str(e))
        return 1

    spec = WORKLOADS[args.workload]
    threads = min(MAX_THREADS, nproc())
    with open(FINGERPRINTS) as f:
        pinned = json.load(f).get(args.workload)
    reference = None
    if pinned is not None and args.seed == pinned["seed"]:
        reference = pinned["outputs"]

    attempted = 0
    failed = 0
    problems = []
    done = []  # every repetition that returned, whether or not it passed
    provenance = None
    layers = None
    rounds = None

    def attempt(extra, threads=threads):
        nonlocal attempted, failed, provenance, rounds
        attempted += 1
        try:
            prov, reps, lay = run_runner(args.workload, args.seed, threads,
                                         start + RUN_BUDGET_S, extra)
        except BenchError as e:
            failed += 1
            problems.append(str(e))
            return None, None
        provenance = provenance or prov
        rounds = rounds or prov["rounds"]
        return reps, lay

    def accept(reps):
        nonlocal failed, reference
        for rep in reps:
            if reference is None:
                reference = outputs(rep)
            done.append(rep)
            found = check_rep(args.workload, rounds, rep, reference)
            if found:
                failed += 1
                problems.extend(found)

    start = time.monotonic()
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        reps, layers = attempt(["--trace", "1",
                                "--pairs", str(spec["traced_pairs"]),
                                "--trace-dir", OUT_DIR])
        if reps is not None:
            attempted += len(reps) - 1
            accept(reps)
    else:
        # Past half the budget, stop even short of min_reps: the twin and
        # the result must still fit.
        while attempted < MAX_REPS and \
                time.monotonic() - start < RUN_BUDGET_S / 2 and (
                    attempted < spec["min_reps"] or
                    time.monotonic() - start < args.seconds):
            reps, _ = attempt([])
            if reps is not None:
                accept(reps)
            elif provenance is None:
                break  # the workload cannot run at all

    if not done:
        for p in problems:
            log(p)
        log("no repetition produced a result")
        return 1
    # The threads=1 twin at reduced rounds must retrace the main run.
    twin_reps, _ = attempt(["--rounds", str(spec["twin_rounds"])], threads=1)
    if twin_reps is not None and twin_reps[0]["round_digests"] != \
            done[0]["round_digests"][:spec["twin_rounds"]]:
        failed += 1
        problems.append("threads=1 twin diverges from the main run")

    if args.trace:
        metrics, found = per_layer(provenance, done, layers)
        failed += len(found)
        problems.extend(found)
    else:
        metrics = end_to_end(done)
    for p in problems:
        log(p)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance, "elapsed_s": time.monotonic() - start,
        "attempted": attempted, "failed": failed, "problems": problems,
        "outputs": outputs(done[0]), "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
