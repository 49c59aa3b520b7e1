#!/usr/bin/env python3
"""End-to-end benchmark of the RS-Paxos KV store on a real 5-server TCP cluster.

Usage (from the repository root):
    python3 perfbench/run.py --workload put-1k --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the program from src/) into $CARGO_TARGET_DIR
or .bench_build, runs the rspbench binary, derives the named metrics from its
raw output and prints one JSON object as the last line of stdout:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
Diagnostics (run header, p999s, sample counts, registry deltas) go to the
lines before it. Exits non-zero without a result line when the build or the
cluster set-up fails, and with code 1 when the correctness gate fails.
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
WORKLOADS = ("put-1k", "put-64k", "read-zipf")

END_TO_END = {  # name -> unit
    "cpu_us_per_op": "us",
    "net_bytes_per_user_byte": "ratio",
    "wal_bytes_per_user_byte": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {  # name -> unit
    "client.put_p50_us": "us",
    "client.put_p90_us": "us",
    "client.get_p50_us": "us",
    "client.get_p90_us": "us",
    "load.offered_over_target": "ratio",
    "load.client_wait_p99_us": "us",
    "kv.service_p50_us": "us",
    "kv.service_p99_us": "us",
    "kv.ops_per_instance": "ratio",
    "kv.fast_read_frac": "ratio",
    "kv.recovery_reads": "count",
    "kv.redirects": "count",
    "kv.admission_shed": "count",
    "kv.client_backoffs": "count",
    "kv.client_timeouts": "count",
    "consensus.quorum_wait_p50_us": "us",
    "consensus.quorum_wait_p99_us": "us",
    "consensus.apply_p50_us": "us",
    "consensus.commit_p50_us": "us",
    "consensus.commit_p99_us": "us",
    "consensus.accepts_per_instance": "ratio",
    "consensus.elections": "count",
    "ec.encode_p50_us": "us",
    "ec.encode_p99_us": "us",
    "ec.encodes_per_instance": "ratio",
    "ec.encode_bytes_per_user_byte": "ratio",
    "ec.decodes": "count",
    "ec.probe_encode_us": "us",
    "ec.probe_encode_mbps": "MB/s",
    "ec.probe_decode_us": "us",
    "storage.fsyncs_per_op": "ratio",
    "storage.records_per_fsync": "ratio",
    "storage.fsync_p50_us": "us",
    "storage.fsync_p99_us": "us",
    "storage.probe_append_us": "us",
    "net.msgs_per_op": "ratio",
    "net.bytes_per_op": "bytes",
    "net.frames_per_writev_p50": "count",
    "net.send_stall_p99_us": "us",
    "net.send_drops": "count",
    "net.reconnects": "count",
    "net.probe_rtt_us": "us",
    "obs.tracer_cpu_us_per_op": "us",
    "bench.span_overhead_cpu_us_per_op": "us",
}


def ratio(num, den):
    """num / den, or 0.0 when nothing was measured (den == 0)."""
    return float(num) / float(den) if den else 0.0


def failed_ops(w):
    """Ops that did not complete: failures, cancellations, client-queue sheds
    and wrong values, all counted against ops attempted."""
    return w["failed"] + w["cancelled"] + w["client_shed"] + w["wrong_values"]


def end_to_end(raw):
    w = raw["window"]
    user_bytes = w["put_value_bytes"] + w["get_value_bytes"]
    c = w["counters"]
    return {
        "cpu_us_per_op": ratio(w["cpu_us"], w["ok"]),
        "net_bytes_per_user_byte": ratio(c["rsp_net_bytes_sent"], user_bytes),
        "wal_bytes_per_user_byte": ratio(c["rsp_wal_bytes_durable"], w["put_value_bytes"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def paired_cpu_diff(windows, mode, base):
    """Median over rounds of cpu_us_per_op(mode) - cpu_us_per_op(base), from
    the comparison sub-windows. Within a round every mode replayed the same
    arrivals on the same cluster, so each difference is paired."""
    per_op = {}
    for x in windows:
        per_op.setdefault(x["round"], {})[x["mode"]] = ratio(x["cpu_us"], x["ok"])
    return statistics.median(r[mode] - r[base] for r in per_op.values())


# Probe keys of rspbench's raw output -> per-layer metric names.
PROBES = {
    "ec_encode_us": "ec.probe_encode_us",
    "ec_encode_mbps": "ec.probe_encode_mbps",
    "ec_decode_us": "ec.probe_decode_us",
    "wal_append_us": "storage.probe_append_us",
    "net_rtt_us": "net.probe_rtt_us",
}


def per_layer(raw):
    """Per-layer metrics of a traced run. Registry deltas come from the plain
    window (the same window an untraced run measures); the comparison
    sub-windows give the tracing costs; probes give the ec/storage/net call
    times. A probe that failed is None (see unmeasured())."""
    w = raw["window"]
    c = w["counters"]
    h = w["histograms"]
    p = raw["probes"]
    ops = w["ok"]
    commits = c["rsp_consensus_commits_total"]
    compare = raw["cpu_compare"]["windows"]
    return {
        "client.put_p50_us": w["put_us"]["p50"],
        "client.put_p90_us": w["put_us"]["p90"],
        "client.get_p50_us": w["get_us"]["p50"],
        "client.get_p90_us": w["get_us"]["p90"],
        "load.offered_over_target": ratio(w["offered_qps"], w["target_qps"]),
        "load.client_wait_p99_us": w["client_wait_us"]["p99"],
        "kv.service_p50_us": w["service_us"]["p50"],
        "kv.service_p99_us": w["service_us"]["p99"],
        "kv.ops_per_instance": ratio(w["puts_ok"], commits),
        "kv.fast_read_frac": ratio(c["rsp_kv_fast_reads_total"], w["gets_ok"]),
        "kv.recovery_reads": c["rsp_kv_recovery_reads_total"],
        "kv.redirects": c["rsp_kv_redirects_total"],
        "kv.admission_shed": c["rsp_admission_shed_total"],
        "kv.client_backoffs": c["rsp_client_overload_backoffs_total"],
        "kv.client_timeouts": w["client_timeouts"],
        "consensus.quorum_wait_p50_us": h["rsp_commit_quorum_wait_us"]["p50"],
        "consensus.quorum_wait_p99_us": h["rsp_commit_quorum_wait_us"]["p99"],
        "consensus.apply_p50_us": h["rsp_commit_apply_us"]["p50"],
        "consensus.commit_p50_us": h["rsp_commit_total_us"]["p50"],
        "consensus.commit_p99_us": h["rsp_commit_total_us"]["p99"],
        "consensus.accepts_per_instance": ratio(c["rsp_consensus_accepts_sent_total"], commits),
        "consensus.elections": c["rsp_consensus_elections_started_total"],
        "ec.encode_p50_us": h["rsp_ec_encode_us"]["p50"],
        "ec.encode_p99_us": h["rsp_ec_encode_us"]["p99"],
        "ec.encodes_per_instance": ratio(c["rsp_ec_encode_total"], commits),
        "ec.encode_bytes_per_user_byte": ratio(c["rsp_ec_encode_bytes"], w["put_value_bytes"]),
        "ec.decodes": c["rsp_ec_decode_total"],
        "storage.fsyncs_per_op": ratio(c["rsp_wal_flush_total"], ops),
        "storage.records_per_fsync": ratio(h["rsp_wal_batch_records"]["sum"],
                                           h["rsp_wal_batch_records"]["count"]),
        "storage.fsync_p50_us": h["rsp_wal_fsync_us"]["p50"],
        "storage.fsync_p99_us": h["rsp_wal_fsync_us"]["p99"],
        "net.msgs_per_op": ratio(c["rsp_net_msgs_sent"], ops),
        "net.bytes_per_op": ratio(c["rsp_net_bytes_sent"], ops),
        "net.frames_per_writev_p50": h["rsp_net_frames_per_writev"]["p50"],
        "net.send_stall_p99_us": h["rsp_net_send_stall_us"]["p99"],
        "net.send_drops": c["rsp_net_send_drops_total"],
        "net.reconnects": c["rsp_net_reconnects_total"],
        "obs.tracer_cpu_us_per_op": paired_cpu_diff(compare, "plain", "tracer_off"),
        "bench.span_overhead_cpu_us_per_op": paired_cpu_diff(compare, "spans", "plain"),
        **{metric: p[key] for key, metric in PROBES.items()},
    }


# Per-layer metrics whose source may legitimately record nothing in a window,
# with the reason; a zero there means "not observed", not "measured as 0".
UNOBSERVED_IF_EMPTY = {
    "ec.encode_p50_us": ("rsp_ec_encode_us", "no encode in the window"),
    "ec.encode_p99_us": ("rsp_ec_encode_us", "no encode in the window"),
    "net.send_stall_p99_us": ("rsp_net_send_stall_us",
                              "the transport samples 1 in 16 sends; none stalled"),
}


def unmeasured(raw):
    """Per-layer metrics the traced run could not measure, with the reason.
    Empty histograms still read 0; failed probes have no value at all."""
    h = raw["window"]["histograms"]
    out = {name: why for name, (series, why) in UNOBSERVED_IF_EMPTY.items()
           if h[series]["count"] == 0}
    errors = raw["probes"]["errors"]
    for key, metric in PROBES.items():
        if raw["probes"][key] is None:
            out[metric] = "probe failed: " + errors.get(key, "no reason given")
    return out


def result(raw, trace):
    """The result line. Counts cover every window of the run; in a traced run
    that includes the comparison sub-windows."""
    w = raw["window"]
    windows = raw["cpu_compare"]["windows"] if trace else []
    names = PER_LAYER if trace else END_TO_END
    values = per_layer(raw) if trace else end_to_end(raw)
    metrics = {n: {"value": values[n], "unit": names[n]}
               for n in names if values[n] is not None}
    for n, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise ValueError("metric %s is not finite" % n)
    correct = (raw["gate"]["ok"] and w["wrong_values"] == 0
               and all(x["wrong_values"] == 0 for x in windows)
               and (not trace or raw["probes"]["ec_decode_intact"]))
    attempted = w["attempted"] + sum(x["attempted"] for x in windows)
    failed = failed_ops(w) + sum(x["attempted"] - x["ok"] for x in windows)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def source_id():
    """Git sha when run from a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        top, _, sha = out.stdout.strip().partition("\n")
        if out.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + sha
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for sub in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, sub)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-sha1:" + h.hexdigest()


def build(build_dir):
    """Configures (once) and builds rspbench; build chatter goes to stderr."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=log, stderr=log)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(["cmake", "--build", build_dir, "--target", "rspbench", "-j", jobs],
                       stdout=log, stderr=log)
    if b.returncode != 0:
        return None
    return os.path.join(build_dir, "rspbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    data_dir = os.path.abspath(".bench_data")
    os.makedirs(data_dir, exist_ok=True)
    for entry in os.listdir(data_dir):  # cluster dirs a killed run left behind
        if entry.startswith(("run-", "probe-")):
            shutil.rmtree(os.path.join(data_dir, entry), ignore_errors=True)
    spans_out = os.path.join(data_dir, "spans-%s-%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--spans-out", spans_out]
    # Set-ups, gates and probes take well under a minute; each cluster then
    # runs a warm-up of at most 2 s and --seconds of load (the plain window,
    # and in a traced run the comparison). Twice that leaves room for slow
    # drains.
    timeout = 100 + 2 * (1 + args.trace) * (args.seconds + 2)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: rspbench timed out", file=sys.stderr)
        return 2
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        print("perfbench: rspbench failed with code %d" % proc.returncode, file=sys.stderr)
        return 2
    raw = json.loads(lines[-1])

    header = dict(raw["header"])
    header["source"] = source_id()
    print(json.dumps({"header": header}))
    w = raw["window"]
    print(json.dumps({"diagnostics": {
        "put_us": w["put_us"], "get_us": w["get_us"],
        "client_wait_us": w["client_wait_us"], "service_us": w["service_us"],
        "failed_frac": ratio(failed_ops(w), w["attempted"]),
        "setup_s": raw["setup_s"], "gate": raw["gate"],
        "counters": w["counters"], "histograms": w["histograms"]}}))
    if args.trace:
        print(json.dumps({"unmeasured": unmeasured(raw), "spans_file": spans_out,
                          "cpu_compare": raw["cpu_compare"], "probes": raw["probes"]}))
    out = result(raw, args.trace)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
