#!/usr/bin/env python3
"""End-to-end benchmark of the WhatsUp simulator.

Builds perfbench/ (the simulator library from src/ plus perfbench/worker.cpp)
and measures one workload for a fixed wall-clock budget. Every repetition
runs in a fresh worker process, so no run inherits a heap, arena or peak-RSS
high-water mark from an earlier one, and every repetition's simulated
outputs are checked against a reference. setup_s is the median cold set-up
of at least SETUP_SAMPLES processes: the timed ones, topped up with
set-up-only ones where few timed runs fit in the window.

    python3 perfbench/run.py --workload steady-500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all            # every workload, both modes, one table
    python3 perfbench/run.py --selftest       # the benchmark's own checks (reduced scale)
    python3 perfbench/run.py --record-references --seeds 0-31,97

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and prints the per-layer metrics,
derived from the stats registry and span trace each fragment process writes.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; failed / attempted is the failed-runs fraction. Progress,
the per-repetition table and the machine stamp go to stderr, and the stamped
result is also written under the build directory's results/. Per-layer
engine.mem.* and tracker.* figures exist only for in-process workloads and
read 0 on hostile-2p, whose fragment processes have no end-of-run engine
snapshot; transport.* and relia.* read 0 where those layers are bypassed.

Seeds: 1 is the default seed and 97 the held-out seed that later claims must
also hold on. References for seeds 0-31 and 97 are committed in
perfbench/references.json, recorded once under a single-thread layout. Any
other seed is checked against one extra run of the same build under that
layout, cached in the build directory per source hash: such a run only
shows the trajectory does not depend on threads or partitioning, not that
it is unchanged. The stamp's reference_origin says which check a run got.
"""
import argparse
import functools
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
REFERENCES_PATH = os.path.join(HERE, "references.json")

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
RUN_BUDGET_S = 165.0    # every invocation ends well inside 180 s
SETUP_SAMPLES = 9       # setup_s is a median over at least this many processes
MIN_ATTRIBUTED_SHARE = 0.9

# Layout the references are recorded under. It differs from the timed
# layout, so a match also shows the trajectory does not depend on thread
# count, shard width or partitioning. scale-10k keeps 4 threads (a single
# thread takes about 80 s there) but changes the shard width.
REFERENCE_LAYOUT = {
    "steady-500": ["--threads=1", "--partitions=1"],
    "scale-10k": ["--threads=4", "--partitions=1", "--shard-nodes=256"],
    "hostile-2p": ["--threads=1", "--partitions=1"],
    "selftest-tiny": ["--threads=1", "--partitions=1"],
}
# Outputs compared against the reference. Partitioned runs carry only the
# summed digest series, so only the first two are checked there.
CHECKED_FIELDS = [
    "fingerprint", "digest_cycles", "precision", "recall", "f1",
    "measured_items", "news_messages", "gossip_messages", "relia_tracked",
    "relia_retransmits", "relia_acked", "relia_expired", "relia_ack_messages",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------- build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def work_dir(name):
    """Per-process scratch directory for one worker run."""
    return os.path.join(build_dir(), "runs", str(os.getpid()), name)


def build():
    """Configures and builds the worker; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "analysis", "runner.hpp")):
        raise SystemExit("perfbench: simulator sources (src/) not found next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_worker")


# ---------------------------------------------------------------- one repetition

class Rep:
    """One fresh-process run of the worker."""

    def __init__(self, traced):
        self.traced = traced
        self.ok = False          # ran to completion with readable output
        self.error = None        # why the run failed (crash, timeout, mismatch)
        self.out = {}            # worker JSON
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.peak_kib = 0
        self.dir = None
        self.layers = None       # per-layer metrics of a traced run

    @property
    def cycles_per_s(self):
        return self.out["cycles"] / self.out["sim_s"]


def run_worker(worker, workload, seed, out_dir, extra, timeout_s, traced=False):
    rep = Rep(traced)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    rep.dir = out_dir
    cmd = [worker, f"--workload={workload}", f"--seed={seed}", f"--out={out_dir}",
           f"--trace={1 if traced else 0}"] + extra
    stdout_path = os.path.join(out_dir, "stdout.json")
    t0 = time.monotonic()
    with open(stdout_path, "w") as stdout:
        # Own process group, so a timeout also kills forked fragments.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True)
    status = None
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() - t0 > timeout_s:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                rep.error = f"timed out after {timeout_s:.0f} s"
                break
            time.sleep(0.02)
    finally:
        if status is None:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    rep.wall_s = time.monotonic() - t0
    # wait4 reports the worker's CPU plus that of its reaped fragment children.
    rep.cpu_s = usage.ru_utime + usage.ru_stime
    if rep.error is None and code != 0:
        rep.error = f"worker exited with status {code}"
    if rep.error is not None:
        return rep
    try:
        with open(stdout_path) as f:
            rep.out = json.loads(f.read().strip().splitlines()[-1])
        # A --setup-only run reports its set-up time alone.
        for i in range(rep.out.get("partitions", 0)):
            with open(os.path.join(out_dir, f"frag-{i}.json")) as f:
                rep.peak_kib += json.load(f)["vm_hwm_kib"]
    except (OSError, ValueError, IndexError, KeyError) as e:
        rep.error = f"unreadable worker output: {e}"
        return rep
    rep.ok = True
    return rep


def mismatches(out, reference):
    """Names of checked outputs that differ from the reference."""
    return [k for k in CHECKED_FIELDS if k in out and out[k] != reference.get(k)]


# ---------------------------------------------------------------- references

def reference_fields(out):
    return {k: out[k] for k in CHECKED_FIELDS if k in out}


def load_references():
    try:
        with open(REFERENCES_PATH) as f:
            return json.load(f)
    except OSError:
        return {}


def get_reference(worker, workload, seed, timeout_s):
    """Committed reference, else one recorded by this very source tree."""
    committed = load_references().get(workload, {}).get(str(seed))
    if committed is not None:
        return committed, "committed"
    origin = "this build, reference layout (checks layout invariance only)"
    log(f"[perfbench] WARNING: no committed {workload} reference for seed {seed}; "
        f"checking against {origin}")
    cache = os.path.join(build_dir(), "references", source_sha256()[:16],
                         f"{workload}-{seed}.json")
    if os.path.isfile(cache):
        with open(cache) as f:
            return json.load(f), origin
    rep = run_worker(worker, workload, seed, work_dir("reference"),
                     REFERENCE_LAYOUT[workload], timeout_s)
    if not rep.ok:
        raise RuntimeError(f"reference run failed: {rep.error}")
    ref = reference_fields(rep.out)
    os.makedirs(os.path.dirname(cache), exist_ok=True)
    with open(cache, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
    return ref, origin


def record_references(worker, workloads, seeds):
    refs = load_references()
    for workload in workloads:
        for seed in seeds:
            rep = run_worker(worker, workload, seed, work_dir("reference"),
                             REFERENCE_LAYOUT[workload], 600)
            if not rep.ok:
                raise SystemExit(f"{workload} seed {seed}: {rep.error}")
            refs.setdefault(workload, {})[str(seed)] = reference_fields(rep.out)
            log(f"[perfbench] {workload} seed {seed}: {rep.out['fingerprint']}")
            with open(REFERENCES_PATH, "w") as f:
                json.dump(refs, f, indent=1, sort_keys=True)
                f.write("\n")


# ---------------------------------------------------------------- metrics

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(reps, setup_samples):
    """The end-to-end metrics over successful untraced repetitions."""
    return {
        "cycles_per_s": median([r.cycles_per_s for r in reps]),
        "setup_s": median(setup_samples),
        "cpu_s": median([r.cpu_s for r in reps]),
        "peak_bytes_per_node": median([r.peak_kib * 1024.0 / r.out["nodes"] for r in reps]),
    }


def load_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    # Chrome trace-event times are microseconds; keep seconds.
    return [(e["name"], e["ts"] * 1e-6, e["dur"] * 1e-6) for e in events]


def load_stats(path):
    with open(path) as f:
        return json.load(f)["metrics"]


def ratio(num, den):
    return num / den if den else 0.0


def percentile(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def per_layer(fragments, nodes, threads, generate_s):
    """Per-layer metrics of one traced run.

    fragments: [(stats, spans)] per fragment process, fragment 0 first, where
    stats maps registry metric names to values and spans is a list of
    (name, start_s, duration_s). Counters are summed over fragments, times
    are summed per span name, and shares divide by the summed cycle wall.
    """
    total = {}
    cycle_s = []
    bootstrap = collect = None
    attributed = []
    for stats, spans in fragments:
        for name, value in stats.items():
            if name == "engine.mailbox.bucket_peak":
                total[name] = max(total.get(name, 0), value)
            elif not isinstance(value, dict):
                total[name] = total.get(name, 0) + value
        call = [s for s in spans if s[0] == "bench.run_protocol"]
        cycles = sorted(s for s in spans if s[0] == "cycle")
        if len(call) != 1 or not cycles:
            raise ValueError("trace lacks the run_protocol span or cycle spans")
        _, start, dur = call[0]
        boot = cycles[0][1] - start
        coll = start + dur - (cycles[-1][1] + cycles[-1][2])
        attributed.append(ratio(boot + sum(c[2] for c in cycles) + coll, dur))
        if bootstrap is None:  # fragment 0
            bootstrap, collect = boot, coll
        cycle_s.extend(c[2] for c in cycles)
        for name, _, d in spans:
            total["span." + name] = total.get("span." + name, 0.0) + d
    span = lambda name: total.get("span." + name, 0.0)
    count = lambda name: total.get(name, 0)
    wall = sum(cycle_s)
    delivered = count("engine.deliver.messages")
    serialized = count("transport.serialize.messages")
    hits, misses = count("profile.scratch.hits"), count("profile.scratch.misses")
    reused, interned = count("arena.intern_hits"), count("arena.interned")
    return {
        "dataset.generate_s": generate_s,
        "analysis.bootstrap_s": bootstrap,
        "analysis.collect_s": collect,
        "engine.cycle_ms_p50": 1e3 * percentile(cycle_s, 0.5),
        "engine.cycle_ms_p90": 1e3 * percentile(cycle_s, 0.9),
        "engine.cycle_ms_max": 1e3 * max(cycle_s),
        "engine.deliver_share": ratio(span("deliver_phase"), wall),
        "engine.activate_share": ratio(span("activate_phase"), wall),
        "engine.commit_share": ratio(span("commit"), wall),
        "engine.deliver_ns_per_msg": 1e9 * ratio(span("deliver_phase"), delivered),
        "engine.deliver_busy_ns_per_msg": 1e9 * ratio(span("deliver_shard"), delivered),
        "engine.deliver_parallel_eff": ratio(span("deliver_shard"), span("deliver_phase") * threads),
        "engine.commit_ns_per_routed_msg": 1e9 * ratio(span("commit"), count("engine.route.messages")),
        "engine.mem.bytes_per_node": ratio(count("engine.mem.total_bytes"), nodes),
        "engine.mem.mailbox_bytes_per_node": ratio(count("engine.mem.mailbox_bytes"), nodes),
        "engine.mem.payload_bytes_per_node": ratio(count("engine.mem.payload_bytes"), nodes),
        "engine.mem.scratch_bytes_per_node": ratio(count("engine.mem.scratch_bytes"), nodes),
        "engine.mailbox.bucket_peak": count("engine.mailbox.bucket_peak"),
        "transport.exchange_wait_share": ratio(span("socket_exchange"), wall),
        "transport.serialize_ns_per_msg": ratio(count("transport.serialize_ns"), serialized),
        "transport.wire_bytes_per_msg": ratio(count("transport.socket.bytes_out"), serialized),
        "transport.socket.bytes_out": count("transport.socket.bytes_out"),
        "relia.tracked": count("relia.tracked"),
        "relia.retransmits": count("relia.retransmits"),
        "relia.acked_ratio": ratio(count("relia.acked"), count("relia.tracked")),
        "relia.dedup.repeats": count("relia.dedup.repeats"),
        "profile.scratch_hit_rate": ratio(hits, hits + misses),
        "arena.intern_hit_rate": ratio(reused, reused + interned),
        "arena.resident_bytes_per_node": ratio(
            count("arena.blob_resident_bytes") + count("arena.stamp_resident_bytes"), nodes),
        "tracker.resident_bytes_per_node": ratio(count("tracker.resident_bytes"), nodes),
        "engine.deliver.messages": delivered,
        "engine.route.messages": count("engine.route.messages"),
        "engine.deliver.overflow_dropped": count("engine.deliver.overflow_dropped"),
        "obs.attributed_share": min(attributed),
    }


def traced_layers(rep):
    """Per-layer metrics of a traced repetition, read from its fragment files."""
    fragments = []
    for i in range(rep.out["partitions"]):
        fragments.append((load_stats(os.path.join(rep.dir, f"stats-{i}.json")),
                          load_trace(os.path.join(rep.dir, f"trace-{i}.json"))))
    generate = [d for name, _, d in fragments[0][1] if name == "bench.generate"]
    return per_layer(fragments, rep.out["nodes"], rep.out["threads"], median(generate))


# ---------------------------------------------------------------- one invocation

@functools.lru_cache(maxsize=None)
def source_sha256():
    """Hash of every source file the worker and this script are built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("bench", "partition_launcher.hpp")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else (
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            if "__pycache__" in f:
                continue
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def stamp(worker_out, reference_origin):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def git_commit():
        # Only this checkout's own repository; an exported tree has none.
        if not os.path.exists(os.path.join(ROOT, ".git")):
            return None
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": worker_out.get("compiler"),
        "build_type": worker_out.get("build_type"),
        "whatsup_tracing": worker_out.get("tracing_compiled"),
        "reference_origin": reference_origin,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def measure(worker, workload, seed, seconds, traced):
    """Runs repetitions for `seconds`; returns (result, reps, stamp)."""
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    reference, origin = get_reference(worker, workload, seed, RUN_BUDGET_S)
    log(f"[perfbench] {workload} seed {seed}: {origin} reference {reference['fingerprint']}")
    reps = []
    window_start = time.monotonic()
    plan = [False, True] if traced else [False]
    while True:
        for is_traced in plan:
            out_dir = work_dir(f"rep-{len(reps)}")
            rep = run_worker(worker, workload, seed, out_dir, [],
                             max(1.0, deadline - time.monotonic()), is_traced)
            if rep.ok:
                bad = mismatches(rep.out, reference)
                if bad:
                    rep.ok = False
                    rep.error = "differs from reference in " + ", ".join(bad)
            if rep.ok and is_traced:
                try:
                    rep.layers = traced_layers(rep)
                except (OSError, ValueError, KeyError) as e:
                    rep.ok, rep.error = False, f"unreadable trace: {e}"
                else:
                    share = rep.layers["obs.attributed_share"]
                    if share < MIN_ATTRIBUTED_SHARE:
                        rep.ok = False
                        rep.error = f"obs.attributed_share {share:.3f} < {MIN_ATTRIBUTED_SHARE}"
            reps.append(rep)
            log(f"[perfbench] rep {len(reps)}{' traced' if is_traced else ''}: "
                + (f"{rep.cycles_per_s:.3f} cycles/s, setup {rep.out['setup_s']:.4f} s, "
                   f"cpu {rep.cpu_s:.2f} s, peak {rep.peak_kib / 1024:.1f} MiB"
                   if "sim_s" in rep.out else "no timings")
                + (f"  FAILED: {rep.error}" if rep.error else ""))
        # Start another round only if it is expected to end inside the window.
        round_s = (time.monotonic() - window_start) / (len(reps) / len(plan))
        now = time.monotonic()
        if now + round_s > window_start + seconds or now + 1.5 * round_s > deadline:
            break
    # Top up with --setup-only processes, so that setup_s is a median of
    # cold set-ups even where a single timed run fills the window.
    setup_samples = [r.out["setup_s"] for r in reps if r.ok and not r.traced]
    while not traced and len(setup_samples) < SETUP_SAMPLES:
        rep = run_worker(worker, workload, seed, work_dir("setup"), ["--setup-only"],
                         max(1.0, deadline - time.monotonic()))
        if not rep.ok:
            log(f"[perfbench] set-up run FAILED: {rep.error}")
            reps.append(rep)
            break
        setup_samples.append(rep.out["setup_s"])
    spec = load_spec()
    good = [r for r in reps if r.ok]
    untraced = [r for r in good if not r.traced]
    for name, series in (("cycles_per_s", [r.cycles_per_s for r in untraced]),
                         ("setup_s", setup_samples), ("cpu_s", [r.cpu_s for r in untraced])):
        if series:
            q1, q3 = quartiles(series)
            log(f"[perfbench] {name}: median {median(series):.6g}  quartiles "
                f"{q1:.6g} .. {q3:.6g}  over {len(series)} run(s)")
    if traced:
        with_layers = [r for r in good if r.traced]
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {n: median([r.layers[n] for r in with_layers])
                  for n in names if with_layers and n in with_layers[0].layers}
        if values and untraced:
            cps_traced = median([r.cycles_per_s for r in with_layers])
            values["obs.trace_overhead"] = 1.0 - cps_traced / median([r.cycles_per_s for r in untraced])
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(untraced, setup_samples) if untraced else {}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    failed = sum(1 for r in reps if not r.ok)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    first = next((r.out for r in reps if r.out), {})
    return result, reps, stamp(first, origin)


def write_record(workload, seed, traced, result, reps, box):
    rdir = os.path.join(build_dir(), "results")
    os.makedirs(rdir, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": int(traced), "stamp": box,
        "result": result,
        "reps": [{"traced": r.traced, "ok": r.ok, "error": r.error, "cpu_s": r.cpu_s,
                  "peak_kib": r.peak_kib, "wall_s": r.wall_s, "worker": r.out,
                  "layers": r.layers} for r in reps],
    }
    with open(os.path.join(rdir, f"{workload}-seed{seed}-trace{int(traced)}.json"), "w") as f:
        json.dump(record, f, indent=1)


# ---------------------------------------------------------------- modes

def run_one(args):
    worker = build()
    result, reps, box = measure(worker, args.workload, args.seed, args.seconds, args.trace)
    log("[perfbench] stamp " + json.dumps(box, sort_keys=True))
    write_record(args.workload, args.seed, args.trace, result, reps, box)
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


def run_all(args):
    worker = build()
    spec = load_spec()
    rows = []
    box = None
    all_ok = True
    for w in (w["name"] for w in spec["workloads"]):
        for traced in (False, True):
            result, reps, box = measure(worker, w, args.seed, args.seconds, traced)
            write_record(w, args.seed, traced, result, reps, box)
            all_ok &= result["correct"]
            for name, m in result["metrics"].items():
                rows.append((w, name, m["value"], m["unit"]))
            if not traced:
                rows.append((w, "failed_runs", result["failed"] / result["attempted"], "fraction"))
    print("stamp " + json.dumps(box, sort_keys=True))
    print(f"{'workload':<12} {'metric':<36} {'value':>16}  unit")
    for w, name, value, unit in rows:
        print(f"{w:<12} {name:<36} {value:>16.6g}  {unit}")
    return 0 if all_ok else 1


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload in both modes")
    p.add_argument("--selftest", action="store_true", help="run the benchmark's own checks")
    p.add_argument("--record-references", action="store_true")
    p.add_argument("--seeds", default=f"0-31,{HELD_OUT_SEED}", help="seeds to record")
    args = p.parse_args()
    # Turn SIGTERM into an exit, so the cleanup below kills running workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    names = [w["name"] for w in load_spec()["workloads"]]
    if not (args.selftest or args.record_references or args.all or args.workload in names):
        p.error("--workload must be one of " + ", ".join(names))
    try:
        if args.selftest:
            import selftest
            return selftest.main()
        if args.record_references:
            record_references(build(), [args.workload] if args.workload else names,
                              parse_seeds(args.seeds))
            return 0
        return run_all(args) if args.all else run_one(args)
    finally:
        shutil.rmtree(os.path.join(build_dir(), "runs", str(os.getpid())), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
