// One benchmark repetition in a fresh process.
//
// perfbench/run.py starts this program once per repetition, so no run
// inherits a heap, snapshot arena or peak-RSS high-water mark from an
// earlier one. The worker generates the named workload from --seed, times
// the set-up, calls analysis::run_protocol (through
// bench/partition_launcher.hpp for partitioned workloads) and prints one
// JSON object on stdout with the timings and the simulated outputs that
// run.py checks against the references. With --setup-only it does the
// set-up (the fork and socket mesh included) and skips the simulation;
// run.py adds such processes so that setup_s is a median of several cold
// set-ups even when only one timed run fits.
//
//   perfbench_worker --workload=steady-500 --seed=1 --out=DIR [--trace=1]
//                    [--threads=N] [--partitions=P] [--shard-nodes=W]
//                    [--setup-only]
//
// --threads / --partitions / --shard-nodes override the workload's
// execution layout; run.py records the references under a layout that
// differs from the timed one. Every fragment process writes
// DIR/frag-<f>.json with its own VmHWM; with --trace=1 it also switches on
// the stats registry and the span recorder and writes DIR/stats-<f>.json
// and DIR/trace-<f>.json. The worker's own spans ("bench.*") wrap each call
// it makes into a layer.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "dataset/survey.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "partition_launcher.hpp"
#include "scenario/scenario.hpp"

#if defined(__clang__)
#define COMPILER_ID "clang " __clang_version__
#elif defined(__GNUC__)
#define COMPILER_ID "gcc " __VERSION__
#else
#define COMPILER_ID "unknown"
#endif

namespace whatsup {
namespace {

// Execution layout of a workload; its inputs are built by make_inputs.
struct Layout {
  unsigned threads = 4;
  std::size_t partitions = 1;
};

std::optional<Layout> find_layout(const std::string& name) {
  if (name == "steady-500" || name == "scale-10k") return Layout{4, 1};
  if (name == "hostile-2p") return Layout{2, 2};
  // Reduced-scale workload for perfbench/selftest.py only.
  if (name == "selftest-tiny") return Layout{2, 2};
  return std::nullopt;
}

struct Inputs {
  data::Workload workload;
  analysis::RunConfig config;
};

// The macro_sim survey shape: `users` users and `items` items, half of each
// replicated twice.
data::Workload survey(std::size_t users, std::size_t items, std::uint64_t seed) {
  Rng rng(seed);
  data::SurveyConfig config;
  config.base_users = users / 2;
  config.base_items = items / 2;
  config.replication = 2;
  return data::make_survey(config, rng);
}

// Builds the workload and run configuration from the seed alone.
Inputs make_inputs(const std::string& name, std::uint64_t seed) {
  Rng seeds(seed);
  const std::uint64_t data_seed = seeds.next_u64();
  const std::uint64_t run_seed = seeds.next_u64();
  Inputs in;
  analysis::RunConfig& config = in.config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 8;
  config.seed = run_seed;
  config.collect_cycle_digests = true;
  if (name == "steady-500") {
    obs::TraceScope span("bench.generate");
    in.workload = survey(500, 500, data_seed);
    config.warmup_cycles = 5;
    config.publish_cycles = 180;
    config.drain_cycles = 15;
  } else if (name == "scale-10k") {
    obs::TraceScope span("bench.generate");
    in.workload = survey(10000, 500, data_seed);
    config.warmup_cycles = 5;
    config.publish_cycles = 30;
    config.drain_cycles = 15;
  } else if (name == "selftest-tiny") {
    obs::TraceScope span("bench.generate");
    in.workload = survey(120, 100, data_seed);
    config.warmup_cycles = 3;
    config.publish_cycles = 12;
    config.drain_cycles = 5;
    config.measure_margin = 3;
  } else {  // hostile-2p: survey at scale 1 under PlanetLab faults
    {
      obs::TraceScope span("bench.generate");
      in.workload = analysis::standard_workload("survey", data_seed, 1.0);
    }
    {
      obs::TraceScope span("bench.scenario_parse");
      config.scenario = scenario::parse_file("scenarios/planetlab.scn");
    }
    config.network = net::NetworkConfig::planetlab_faults();
    config.reliability.enabled = true;
    config.view_hygiene.max_age = 20;
    config.view_hygiene.suspicion_limit = 2;
    config.fit_scenario_horizon();
  }
  return in;
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs::now_ns() - t0_ns) / 1e9;
}

std::uint64_t vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// FNV-1a over the per-cycle tracker digests (bench/scenario_sim.cpp's
// trajectory fingerprint).
std::uint64_t fingerprint(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t digest : digests) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (digest >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Per-fragment artifacts: peak RSS always; registry snapshot and spans when
// traced. Fragment 0 calls this after the launcher has joined its peers, so
// its trace also holds the whole-run "bench.simulate" span.
void write_fragment_files(const std::string& dir, std::size_t fragment, bool traced,
                          const obs::Snapshot* stats) {
  std::string suffix = "-";
  suffix += std::to_string(fragment);
  suffix += ".json";
  {
    std::ofstream out(dir + "/frag" + suffix);
    out << "{\"fragment\":" << fragment << ",\"vm_hwm_kib\":" << vm_hwm_kib() << "}\n";
  }
  if (!traced) return;
  obs::trace_stop();
  {
    std::ofstream out(dir + "/trace" + suffix);
    obs::trace_write_json(out);
  }
  std::ofstream out(dir + "/stats" + suffix);
  if (stats != nullptr) {
    stats->write_json(out);
  } else {
    obs::Snapshot snap = obs::Snapshot::collect();
    snap.absorb_arena();
    snap.write_json(out);
  }
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "", "steady-500 | scale-10k | hostile-2p");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "workload seed"));
  const std::string out_dir = flags.get_string("out", "", "directory for per-fragment files");
  const bool traced = flags.get_bool("trace", false, "stats registry + span trace");
  const std::int64_t threads_flag = flags.get_int("threads", 0, "0 = workload default");
  const std::int64_t partitions_flag = flags.get_int("partitions", 0, "0 = workload default");
  const auto shard_nodes = static_cast<std::size_t>(
      flags.get_int("shard-nodes", 0, "nodes per shard (0 = engine default)"));
  const bool setup_only = flags.get_bool("setup-only", false, "set up, then skip the simulation");
  if (flags.maybe_print_help(std::cout)) return 0;
  if (!flags.unknown_flags().empty()) {
    std::cerr << "perfbench_worker: unknown flag --" << flags.unknown_flags().front() << '\n';
    return 2;
  }
  std::optional<Layout> layout = find_layout(name);
  if (!layout.has_value() || out_dir.empty()) {
    std::cerr << "perfbench_worker: need --workload=<steady-500|scale-10k|hostile-2p> "
                 "and --out=DIR\n";
    return 2;
  }
  if (threads_flag > 0) layout->threads = static_cast<unsigned>(threads_flag);
  if (partitions_flag > 0) layout->partitions = static_cast<std::size_t>(partitions_flag);

  if (traced) {
    obs::Registry::instance().reset();
    obs::trace_start(1u << 17);
  }

  double setup_s = 0.0;
  Inputs in;
  {
    obs::TraceScope span("bench.setup");
    const std::uint64_t t0 = obs::now_ns();
    in = make_inputs(name, seed);
    setup_s = seconds_since(t0);
  }
  in.config.threads = layout->threads;
  in.config.shard_nodes = shard_nodes;
  in.config.observability.enable_stats = traced;
  const Cycle cycles = in.config.total_cycles();
  const std::size_t nodes = in.workload.num_users();

  analysis::RunResult result;
  std::vector<std::uint64_t> digests;
  double launch_s = 0.0;
  double sim_s = 0.0;
  if (layout->partitions <= 1) {
    obs::TraceScope span("bench.simulate");
    const std::uint64_t t0 = obs::now_ns();
    if (!setup_only) {
      obs::TraceScope call("bench.run_protocol");
      result = analysis::run_protocol(in.workload, in.config);
    }
    sim_s = seconds_since(t0);
    digests = result.cycle_digests;
  } else {
    // Fork to the last worker's join. Fragment 0 runs in this process.
    std::cout.flush();
    std::cerr.flush();
    const std::uint64_t t0 = obs::now_ns();
    {
      obs::TraceScope span("bench.simulate");
      digests = bench::run_partitioned(layout->partitions, [&](sim::Transport& transport) {
        const std::size_t fragment = transport.fragment_id();
        if (fragment == 0) launch_s = seconds_since(t0);
        if (setup_only) return std::vector<std::uint64_t>{};
        if (fragment != 0 && traced) {
          // Drop the spans and counts this child inherited from the parent.
          obs::Registry::instance().reset();
          obs::trace_start(1u << 17);
        }
        analysis::RunConfig config = in.config;
        config.partitions = static_cast<int>(layout->partitions);
        config.transport = &transport;
        analysis::RunResult partial;
        {
          obs::TraceScope call("bench.run_protocol");
          partial = analysis::run_protocol(in.workload, config);
        }
        if (fragment != 0) write_fragment_files(out_dir, fragment, traced, nullptr);
        return partial.cycle_digests;
      });
    }
    sim_s = seconds_since(t0);
  }
  if (setup_only) {
    std::cout << "{\"setup_s\":" << num(setup_s + launch_s) << "}" << std::endl;
    return 0;
  }
  write_fragment_files(out_dir, 0, traced,
                       layout->partitions <= 1 && traced ? &result.stats : nullptr);

  std::ostringstream json;
  json << "{\"workload\":\"" << name << "\",\"seed\":" << seed
       << ",\"nodes\":" << nodes << ",\"cycles\":" << cycles
       << ",\"threads\":" << layout->threads << ",\"partitions\":" << layout->partitions
       << ",\"setup_s\":" << num(setup_s + launch_s)
       << ",\"launch_s\":" << num(launch_s) << ",\"sim_s\":" << num(sim_s)
       << ",\"digest_cycles\":" << digests.size()
       << ",\"fingerprint\":\"" << hex(fingerprint(digests)) << '"';
  if (layout->partitions <= 1) {
    // Partitioned runs only carry the summed digest series.
    const analysis::ReliabilityStats& relia = result.reliability;
    json << ",\"precision\":" << num(result.scores.precision)
         << ",\"recall\":" << num(result.scores.recall)
         << ",\"f1\":" << num(result.scores.f1)
         << ",\"measured_items\":" << result.scores.items
         << ",\"news_messages\":" << result.news_messages
         << ",\"gossip_messages\":" << result.gossip_messages
         << ",\"relia_tracked\":" << relia.tracked
         << ",\"relia_retransmits\":" << relia.retransmits
         << ",\"relia_acked\":" << relia.acked
         << ",\"relia_expired\":" << relia.expired
         << ",\"relia_ack_messages\":" << relia.ack_messages;
  }
  json << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << '"'
       << ",\"tracing_compiled\":" << WHATSUP_TRACING
       << ",\"compiler\":\"" << COMPILER_ID << '"' << "}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace whatsup

int main(int argc, char** argv) {
  try {
    return whatsup::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_worker: " << e.what() << '\n';
    return 1;
  }
}
