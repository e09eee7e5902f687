#!/usr/bin/env python3
"""Validate telemetry artifacts written by the simulator's obs layer.

Usage:
    trace_check.py [--expect-phases] [--max-tracks N] FILE [FILE ...]

Each FILE is a telemetry artifact recognised by shape: a Chrome trace-event
file (has "traceEvents"), a metrics dump (kind == "metrics"), a round
time-series (kind == "timeseries"), a run manifest (kind == "manifest"),
or a BENCH_*.json bench report (has "bench").

Checks are structural — schema_version, required keys, numeric/ordered
timestamps, per-track process_name metadata, sketch/histogram count
consistency — so a regression in an exporter fails CI before anyone drags
a broken trace into Perfetto.
--expect-phases additionally requires that at least one edge-server track
carries the paper's Fig. 3 state machine (downloading / training /
uploading spans); use it on traces of full simulation runs.
--max-tracks N fails a trace whose edge_server_* track count exceeds N —
the gate that proves track sampling keeps fleet traces bounded.

Stdlib only.  Exit code 0 = all files valid, 1 = any check failed.
"""

import json
import sys

SCHEMA_VERSION = 1
PHASE_NAMES = ("downloading", "training", "uploading")

# Every column the fleet engine's RoundSeries promises to export.
TIMESERIES_COLUMNS = (
    "round",
    "start_s",
    "duration_s",
    "selected",
    "aggregated",
    "stragglers",
    "crashes",
    "retries",
    "aborted",
    "events",
    "queue_peak",
    "gateways",
    "energy_j",
    "energy_data_collection_j",
    "energy_waiting_j",
    "energy_download_j",
    "energy_training_j",
    "energy_upload_j",
    "energy_retry_j",
    "energy_aborted_j",
    "link_msgs",
    "link_wait_s",
    "link_util_max",
    "link_drops",
    "anomaly_mask",
)


class Checker:
    def __init__(self, path):
        self.path = path
        self.errors = []

    def error(self, msg):
        self.errors.append(f"{self.path}: {msg}")

    def require(self, cond, msg):
        if not cond:
            self.error(msg)
        return cond


def check_trace(doc, chk, expect_phases, max_tracks=None):
    events = doc.get("traceEvents")
    if not chk.require(isinstance(events, list), "traceEvents is not a list"):
        return
    chk.require(len(events) > 0, "traceEvents is empty")
    other = doc.get("otherData", {})
    chk.require("git_sha" in other, "otherData.git_sha missing")

    named_pids = set()
    track_names = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            chk.error(f"event {i} is not an object")
            continue
        ph = e.get("ph")
        if ph == "M":
            if chk.require(
                e.get("name") == "process_name",
                f"event {i}: unexpected metadata {e.get('name')!r}",
            ):
                named_pids.add(e.get("pid"))
                track_names[e.get("pid")] = e.get("args", {}).get("name", "")
            continue
        if not chk.require(ph in ("X", "i"), f"event {i}: unknown ph {ph!r}"):
            continue
        ts = e.get("ts")
        if not chk.require(
            isinstance(ts, (int, float)) and ts >= 0,
            f"event {i} ({e.get('name')!r}): bad ts {ts!r}",
        ):
            continue
        for key in ("pid", "tid"):
            chk.require(
                isinstance(e.get(key), int), f"event {i}: bad {key}"
            )
        chk.require(
            isinstance(e.get("name"), str) and e.get("name"),
            f"event {i}: missing name",
        )
        if ph == "X":
            dur = e.get("dur")
            chk.require(
                isinstance(dur, (int, float)) and dur >= 0,
                f"event {i} ({e.get('name')!r}): bad dur {dur!r}",
            )
        else:  # instant
            chk.require(
                e.get("s") in ("t", "p", "g"),
                f"event {i} ({e.get('name')!r}): instant without scope",
            )

    used_pids = {
        e.get("pid")
        for e in events
        if isinstance(e, dict) and e.get("ph") in ("X", "i")
    }
    for pid in sorted(used_pids - named_pids, key=str):
        chk.error(f"pid {pid} has events but no process_name metadata")

    server_pids = {
        pid
        for pid, name in track_names.items()
        if isinstance(name, str) and name.startswith("edge_server_")
    }
    if max_tracks is not None:
        chk.require(
            len(server_pids) <= max_tracks,
            f"{len(server_pids)} edge_server_* tracks exceed the "
            f"--max-tracks bound of {max_tracks} (sampling not holding)",
        )

    if expect_phases:
        chk.require(server_pids, "no edge_server_* tracks registered")
        seen = {
            e.get("name")
            for e in events
            if isinstance(e, dict)
            and e.get("ph") == "X"
            and e.get("pid") in server_pids
        }
        for phase in PHASE_NAMES:
            chk.require(
                phase in seen, f"no {phase!r} span on any edge_server track"
            )


def check_metrics(doc, chk):
    for section in ("counters", "gauges"):
        entries = doc.get(section)
        if not chk.require(
            isinstance(entries, list), f"{section} is not a list"
        ):
            continue
        for m in entries:
            ok = (
                isinstance(m, dict)
                and isinstance(m.get("name"), str)
                and isinstance(m.get("value"), (int, float))
            )
            chk.require(ok, f"malformed {section} entry: {m!r}")
    for h in doc.get("histograms", []):
        name = h.get("name") if isinstance(h, dict) else None
        if not chk.require(
            isinstance(name, str), f"malformed histogram entry: {h!r}"
        ):
            continue
        bounds, buckets = h.get("bounds", []), h.get("buckets", [])
        chk.require(
            len(buckets) == len(bounds) + 1,
            f"histogram {name}: {len(buckets)} buckets for "
            f"{len(bounds)} bounds (want bounds+1)",
        )
        chk.require(
            sum(buckets) == h.get("count"),
            f"histogram {name}: bucket sum != count",
        )
        for key in ("sum", "overflow", "min", "max"):
            chk.require(
                isinstance(h.get(key), (int, float)),
                f"histogram {name}: non-numeric {key} (inf/nan leaked?)",
            )
        if buckets:
            chk.require(
                h.get("overflow") == buckets[-1],
                f"histogram {name}: overflow != last bucket",
            )
        if h.get("count"):
            chk.require(
                h.get("min") <= h.get("max"),
                f"histogram {name}: min > max",
            )
    for s in doc.get("sketches", []):
        name = s.get("name") if isinstance(s, dict) else None
        if not chk.require(
            isinstance(name, str), f"malformed sketch entry: {s!r}"
        ):
            continue
        for key in ("relative_accuracy", "gamma", "sum", "min", "max"):
            chk.require(
                isinstance(s.get(key), (int, float)),
                f"sketch {name}: non-numeric {key} (inf/nan leaked?)",
            )
        chk.require(
            0.0 < s.get("relative_accuracy", 0) <= 0.25,
            f"sketch {name}: relative_accuracy out of range",
        )
        count, zero = s.get("count", 0), s.get("zero_count", 0)
        buckets = s.get("buckets", [])
        chk.require(
            sum(buckets) + zero == count,
            f"sketch {name}: bucket sum + zero_count != count",
        )
        quantiles = s.get("quantiles")
        if count > 0:
            if chk.require(
                isinstance(quantiles, dict) and quantiles,
                f"sketch {name}: non-empty sketch without quantiles",
            ):
                ordered = [
                    quantiles[q]
                    for q in ("p50", "p90", "p95", "p99", "p999")
                    if q in quantiles
                ]
                chk.require(
                    all(
                        a <= b for a, b in zip(ordered, ordered[1:])
                    ),
                    f"sketch {name}: quantiles not monotone",
                )
            chk.require(
                s.get("min") <= s.get("max"),
                f"sketch {name}: min > max",
            )


def check_timeseries(doc, chk):
    columns = doc.get("columns")
    if not chk.require(isinstance(columns, dict), "columns is not an object"):
        return
    rows = doc.get("rows")
    chk.require(isinstance(rows, int) and rows >= 0, f"bad rows {rows!r}")
    for name in TIMESERIES_COLUMNS:
        col = columns.get(name)
        if not chk.require(
            isinstance(col, list), f"column {name!r} missing"
        ):
            continue
        chk.require(
            len(col) == rows,
            f"column {name!r}: {len(col)} values for {rows} rows",
        )
        chk.require(
            all(isinstance(v, (int, float)) for v in col),
            f"column {name!r}: non-numeric value (inf/nan leaked?)",
        )
    for extra in set(columns) - set(TIMESERIES_COLUMNS):
        chk.error(f"unknown column {extra!r}")
    masks = columns.get("anomaly_mask", [])
    chk.require(
        all(
            isinstance(m, (int, float)) and m >= 0 and m == int(m)
            for m in masks
        ),
        "anomaly_mask holds non-bitmask values",
    )
    anomalies = doc.get("anomalies")
    if not chk.require(isinstance(anomalies, list), "anomalies not a list"):
        return
    flagged_rounds = {
        int(r)
        for r, m in zip(columns.get("round", []), masks)
        if int(m) != 0
    }
    for a in anomalies:
        ok = (
            isinstance(a, dict)
            and isinstance(a.get("round"), int)
            and isinstance(a.get("kind"), str)
            and isinstance(a.get("value"), (int, float))
            and isinstance(a.get("threshold"), (int, float))
        )
        if not chk.require(ok, f"malformed anomaly entry: {a!r}"):
            continue
        chk.require(
            a["round"] in flagged_rounds,
            f"anomaly round {a['round']} has a zero anomaly_mask",
        )


def check_bench(doc, chk):
    chk.require(
        isinstance(doc.get("bench"), str) and doc["bench"], "bench missing"
    )
    chk.require(isinstance(doc.get("git_sha"), str), "git_sha missing")
    metrics = doc.get("metrics")
    if not chk.require(isinstance(metrics, list), "metrics is not a list"):
        return
    for m in metrics:
        ok = (
            isinstance(m, dict)
            and isinstance(m.get("name"), str)
            and isinstance(m.get("ns_per_op"), (int, float))
        )
        chk.require(ok, f"malformed bench metric: {m!r}")


def check_manifest(doc, chk):
    chk.require(
        isinstance(doc.get("tool"), str) and doc["tool"], "tool missing"
    )
    for key in ("git_sha", "build_type", "build_flags"):
        chk.require(isinstance(doc.get(key), str), f"{key} missing")
    chk.require(isinstance(doc.get("config"), dict), "config is not an object")
    totals = doc.get("metric_totals")
    if chk.require(isinstance(totals, dict), "metric_totals is not an object"):
        for name, value in totals.items():
            chk.require(
                isinstance(value, (int, float)),
                f"metric_totals[{name}]: non-numeric (inf/nan leaked?)",
            )
    chk.require(
        isinstance(doc.get("artifacts"), list), "artifacts is not a list"
    )


def check_file(path, expect_phases, max_tracks=None):
    chk = Checker(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        chk.error(str(err))
        return chk.errors
    if not isinstance(doc, dict):
        chk.error("top level is not an object")
        return chk.errors

    chk.require(
        doc.get("schema_version") == SCHEMA_VERSION,
        f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}",
    )
    if "traceEvents" in doc:
        check_trace(doc, chk, expect_phases, max_tracks)
    elif doc.get("kind") == "metrics":
        check_metrics(doc, chk)
    elif doc.get("kind") == "timeseries":
        check_timeseries(doc, chk)
    elif doc.get("kind") == "manifest":
        check_manifest(doc, chk)
    elif "bench" in doc:
        check_bench(doc, chk)
    else:
        chk.error("unrecognised artifact (no traceEvents and no known kind)")
    return chk.errors


def main(argv):
    args = argv[1:]
    expect_phases = "--expect-phases" in args
    max_tracks = None
    paths = []
    i = 0
    pos = [a for a in args if a != "--expect-phases"]
    while i < len(pos):
        if pos[i] == "--max-tracks":
            if i + 1 >= len(pos) or not pos[i + 1].isdigit():
                print("--max-tracks needs an integer argument")
                return 1
            max_tracks = int(pos[i + 1])
            i += 2
            continue
        paths.append(pos[i])
        i += 1
    if not paths:
        print(__doc__.strip())
        return 1

    failed = False
    for path in paths:
        errors = check_file(path, expect_phases, max_tracks)
        if errors:
            failed = True
            for e in errors:
                print(f"FAIL {e}")
        else:
            print(f"ok   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
