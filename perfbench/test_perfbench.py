#!/usr/bin/env python3
"""Self-check of the benchmark: the metric arithmetic on a hand-computed case,
then a short version of every workload, untraced and traced, asserting that
every named metric is present and finite and the correctness gate passed.

Run from the repository root:  python3 perfbench/test_perfbench.py
(The short runs build rspbench first if needed, then take about 30 s.)
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def raw_case():
    """An rspbench output small enough to work out by hand."""
    counters = {name: 0 for name in (
        "rsp_net_bytes_sent", "rsp_net_msgs_sent", "rsp_net_send_drops_total",
        "rsp_net_reconnects_total", "rsp_wal_bytes_durable", "rsp_wal_flush_total",
        "rsp_consensus_commits_total", "rsp_consensus_accepts_sent_total",
        "rsp_consensus_elections_started_total", "rsp_kv_puts_total",
        "rsp_kv_batches_committed_total", "rsp_kv_fast_reads_total",
        "rsp_kv_consistent_reads_total", "rsp_kv_recovery_reads_total",
        "rsp_kv_redirects_total", "rsp_kv_wrong_shard_total", "rsp_admission_shed_total",
        "rsp_client_overload_backoffs_total", "rsp_ec_encode_total", "rsp_ec_encode_bytes",
        "rsp_ec_decode_total")}
    counters.update({
        "rsp_net_bytes_sent": 6000,        # over 2000 user bytes -> 3.0
        "rsp_net_msgs_sent": 50,           # over 10 ops -> 5.0
        "rsp_wal_bytes_durable": 2400,     # over 1500 put bytes -> 1.6
        "rsp_wal_flush_total": 5,          # over 10 ops -> 0.5
        "rsp_consensus_commits_total": 2,
        "rsp_consensus_accepts_sent_total": 8,  # over 2 instances -> 4.0
        "rsp_kv_fast_reads_total": 4,      # over 5 gets -> 0.8
        "rsp_ec_encode_total": 2,          # over 2 instances -> 1.0
        "rsp_ec_encode_bytes": 1500,       # over 1500 put bytes -> 1.0
    })
    hist = {"p50": 10, "p99": 20, "count": 4, "sum": 60}
    window = {
        "seconds": 1.0, "target_qps": 12.0, "offered_qps": 9.0,
        "attempted": 12, "ok": 10, "failed": 1, "client_shed": 1, "cancelled": 0,
        "wrong_values": 0, "puts_ok": 5, "gets_ok": 5,
        "put_value_bytes": 1500, "get_value_bytes": 500,
        "cpu_us": 1200.0, "client_timeouts": 0,
        "put_us": {"p50": 100.0, "p90": 200.0, "p99": 300.0, "p999": 310.0, "count": 5},
        "get_us": {"p50": 50.0, "p90": 80.0, "p99": 90.0, "p999": 95.0, "count": 5},
        "client_wait_us": {"p50": 1.0, "p90": 5.0, "p99": 7.0, "p999": 8.0, "count": 10},
        "service_us": {"p50": 60.0, "p90": 200.0, "p99": 250.0, "p999": 260.0, "count": 10},
        "counters": counters,
        "histograms": {name: dict(hist) for name in (
            "rsp_commit_quorum_wait_us", "rsp_commit_apply_us", "rsp_commit_total_us",
            "rsp_ec_encode_us", "rsp_wal_fsync_us", "rsp_wal_batch_records",
            "rsp_net_frames_per_writev", "rsp_net_send_stall_us")},
    }
    # Comparison sub-windows, 10 ops each, cpu_us per mode per round:
    #   round 0: plain 120, off 100, spans 150 us/op -> off diff 20, spans 30
    #   round 1: plain 130, off 120, spans 140 us/op -> off diff 10, spans 10
    #   round 2: plain 110, off 115, spans 160 us/op -> off diff -5, spans 50
    # medians: tracer cost 10, span overhead 30.
    cpu = {0: (1200.0, 1000.0, 1500.0), 1: (1300.0, 1200.0, 1400.0),
           2: (1100.0, 1150.0, 1600.0)}
    compare = [{"round": r, "mode": mode, "cpu_us": cpu[r][i], "attempted": 11, "ok": 10,
                "wrong_values": 0}
               for r in cpu for i, mode in enumerate(("plain", "tracer_off", "spans"))]
    return {
        "setup_s": [1.5, 0.5, 1.0],
        "peak_rss_mb": 100.0,
        "window": window,
        "cpu_compare": {"sub_window_s": 0.1, "windows": compare},
        "probes": {"ec_encode_us": 2.0, "ec_encode_mbps": 512.0, "ec_decode_us": 3.0,
                   "wal_append_us": 400.0, "net_rtt_us": 50.0, "ec_decode_intact": True,
                   "errors": {}},
        "gate": {"ok": True},
    }


class Arithmetic(unittest.TestCase):
    def test_end_to_end(self):
        m = run.end_to_end(raw_case())
        self.assertAlmostEqual(m["cpu_us_per_op"], 120.0)
        self.assertAlmostEqual(m["net_bytes_per_user_byte"], 3.0)
        self.assertAlmostEqual(m["wal_bytes_per_user_byte"], 1.6)
        self.assertAlmostEqual(m["setup_s"], 1.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 100.0)

    def test_per_layer(self):
        m = run.per_layer(raw_case())
        self.assertAlmostEqual(m["client.put_p90_us"], 200.0)
        self.assertAlmostEqual(m["client.get_p50_us"], 50.0)
        self.assertAlmostEqual(m["load.offered_over_target"], 0.75)
        self.assertAlmostEqual(m["kv.ops_per_instance"], 2.5)
        self.assertAlmostEqual(m["kv.fast_read_frac"], 0.8)
        self.assertAlmostEqual(m["consensus.accepts_per_instance"], 4.0)
        self.assertAlmostEqual(m["ec.encodes_per_instance"], 1.0)
        self.assertAlmostEqual(m["ec.encode_bytes_per_user_byte"], 1.0)
        self.assertAlmostEqual(m["storage.fsyncs_per_op"], 0.5)
        self.assertAlmostEqual(m["storage.records_per_fsync"], 15.0)
        self.assertAlmostEqual(m["net.msgs_per_op"], 5.0)
        self.assertAlmostEqual(m["net.bytes_per_op"], 600.0)
        self.assertAlmostEqual(m["obs.tracer_cpu_us_per_op"], 10.0)
        self.assertAlmostEqual(m["bench.span_overhead_cpu_us_per_op"], 30.0)

    def test_failed_counts_against_attempted(self):
        r = run.result(raw_case(), trace=False)
        self.assertEqual(r["attempted"], 12)
        self.assertEqual(r["failed"], 2)
        self.assertEqual(set(r["metrics"]), set(run.END_TO_END))
        # A traced run also counts its 9 comparison sub-windows (11 each, 1 failed).
        r = run.result(raw_case(), trace=True)
        self.assertEqual(r["attempted"], 12 + 99)
        self.assertEqual(r["failed"], 2 + 9)
        self.assertEqual(set(r["metrics"]), set(run.PER_LAYER))

    def test_failed_probe_is_unmeasured_not_zero(self):
        raw = raw_case()
        raw["probes"]["net_rtt_us"] = None
        raw["probes"]["errors"] = {"net_rtt_us": "no reply"}
        r = run.result(raw, trace=True)
        self.assertTrue(r["correct"])
        self.assertNotIn("net.probe_rtt_us", r["metrics"])
        self.assertIn("no reply", run.unmeasured(raw)["net.probe_rtt_us"])

    def test_wrong_bytes_fail_the_run(self):
        raw = raw_case()
        raw["probes"]["ec_decode_us"] = None
        raw["probes"]["ec_decode_intact"] = False
        self.assertFalse(run.result(raw, trace=True)["correct"])
        raw = raw_case()
        raw["cpu_compare"]["windows"][4]["wrong_values"] = 1
        self.assertFalse(run.result(raw, trace=True)["correct"])

    def test_zero_base_is_not_a_division_error(self):
        self.assertEqual(run.ratio(5, 0), 0.0)


class ShortRuns(unittest.TestCase):
    def run_short(self, workload, trace):
        cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        names = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(set(out["metrics"]), set(names))
        for name, m in out["metrics"].items():
            self.assertEqual(m["unit"], names[name])
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_workloads(self):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.run_short(w, trace)


if __name__ == "__main__":
    unittest.main()
