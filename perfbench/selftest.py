"""The benchmark's own checks, at reduced scale: python3 perfbench/run.py --selftest

1. Every metric name run.py can print is declared in BENCHMARK.json, and
   every declared name is printed.
2. The derived per-layer ratios come out right from the canned two-fragment
   stats and trace pair in perfbench/selftest/.
3. On the reduced-scale workload selftest-tiny, a run checked against its
   true reference passes, a deliberately wrong reference makes every run
   count as failed, and a traced partitioned run prints exactly the
   declared per-layer metrics.
"""
import os

import run

CANNED = os.path.join(run.HERE, "selftest")
US = 1e-6  # the canned trace is written in microseconds


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok    {what}")


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def canned_layers():
    fragments = [(run.load_stats(os.path.join(CANNED, f"stats-{i}.json")),
                  run.load_trace(os.path.join(CANNED, f"trace-{i}.json"))) for i in range(2)]
    generate = [d for name, _, d in fragments[0][1] if name == "bench.generate"]
    return run.per_layer(fragments, nodes=100, threads=2, generate_s=run.median(generate))


def check_declared_names(spec):
    rep = run.Rep(traced=False)
    rep.out = {"cycles": 10, "sim_s": 2.0, "setup_s": 0.1, "nodes": 4}
    rep.cpu_s, rep.peak_kib = 3.0, 8
    check(set(run.end_to_end([rep], [0.1])) == {m["name"] for m in spec["end_to_end"]},
          "end-to-end metric names match BENCHMARK.json")
    printed = set(canned_layers()) | {"obs.trace_overhead"}
    check(printed == {m["name"] for m in spec["per_layer"]},
          "per-layer metric names match BENCHMARK.json")


def check_canned_ratios():
    got = canned_layers()
    cycle_wall = 900 + 760  # both fragments' cycle spans, us
    expected = {
        "dataset.generate_s": 10 * US,
        "analysis.bootstrap_s": 50 * US,
        "analysis.collect_s": 40 * US,
        "engine.cycle_ms_p50": 0.4,
        "engine.cycle_ms_p90": 0.5,
        "engine.cycle_ms_max": 0.5,
        "engine.deliver_share": 900 / cycle_wall,
        "engine.activate_share": 180 / cycle_wall,
        "engine.commit_share": 240 / cycle_wall,
        "engine.deliver_ns_per_msg": 900e3 / 1600,
        "engine.deliver_busy_ns_per_msg": 1220e3 / 1600,
        "engine.deliver_parallel_eff": 1220 / (900 * 2),
        "engine.commit_ns_per_routed_msg": 240e3 / 1600,
        "engine.mem.bytes_per_node": 400,
        "engine.mem.mailbox_bytes_per_node": 100,
        "engine.mem.payload_bytes_per_node": 60,
        "engine.mem.scratch_bytes_per_node": 20,
        "engine.mailbox.bucket_peak": 90,
        "transport.exchange_wait_share": 100 / cycle_wall,
        "transport.serialize_ns_per_msg": 100,
        "transport.wire_bytes_per_msg": 30,
        "transport.socket.bytes_out": 24000,
        "relia.tracked": 100,
        "relia.retransmits": 30,
        "relia.acked_ratio": 0.75,
        "relia.dedup.repeats": 10,
        "profile.scratch_hit_rate": 1000 / 1200,
        "arena.intern_hit_rate": 400 / 600,
        "arena.resident_bytes_per_node": 60,
        "tracker.resident_bytes_per_node": 50,
        "engine.deliver.messages": 1600,
        "engine.route.messages": 1600,
        "engine.deliver.overflow_dropped": 4,
        "obs.attributed_share": 0.95,
    }
    check(set(got) == set(expected), "canned pair yields every per-layer metric")
    for name, value in expected.items():
        check(close(got[name], value), f"canned {name} = {value:.6g} (got {got[name]:.6g})")


def check_real_runs(spec):
    worker = run.build()
    workload, seed = "selftest-tiny", 5
    true_ref = run.reference_fields(
        run.run_worker(worker, workload, seed, run.work_dir("reference"),
                       run.REFERENCE_LAYOUT[workload], 120).out)
    wrong_ref = dict(true_ref, fingerprint="0" * 16)
    real_get_reference = run.get_reference
    try:
        run.get_reference = lambda *a: (true_ref, "selftest")
        result, _, _ = run.measure(worker, workload, seed, 1, traced=False)
        check(result["correct"] and result["failed"] == 0,
              "tiny run matches its true reference")
        check(set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
              "a real run prints exactly the declared end-to-end metrics")
        result, _, _ = run.measure(worker, workload, seed, 1, traced=True)
        check(result["correct"] and result["failed"] == 0,
              "traced tiny partitioned run passes (attributed share >= 0.9)")
        check(set(result["metrics"]) == {m["name"] for m in spec["per_layer"]},
              "a real traced run prints exactly the declared per-layer metrics")
        run.get_reference = lambda *a: (wrong_ref, "selftest")
        result, _, _ = run.measure(worker, workload, seed, 1, traced=False)
        check(not result["correct"] and result["failed"] == result["attempted"] >= 1,
              "a wrong reference counts every run in failed_runs")
    finally:
        run.get_reference = real_get_reference


def main():
    spec = run.load_spec()
    check_declared_names(spec)
    check_canned_ratios()
    check_real_runs(spec)
    print("selftest passed")
    return 0
