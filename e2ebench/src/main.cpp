// e2ebench: end-to-end co-estimation benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--source-id <id>] [--socket-dir <dir>]
//
// Builds the named workload's inputs from the seed, repeats passes over
// them until `seconds` have elapsed, checks every output, and prints a
// provenance line, one line per metric, and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with plain
// backends. With --trace 1 every pass runs twice, plain and with the timing
// decorators selected; the traced outputs must equal the plain ones bit for
// bit, and the metrics are the per-layer split. See e2ebench/README.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hpp"
#include "timed_backends.hpp"
#include "workloads.hpp"

namespace {

using e2e::Json;
using e2e::Layer;
using e2e::Recorder;

constexpr const char* kWorkloads[] = {"tcpip_modes", "multicore_cold",
                                      "explore_funnel", "serve_warm"};
// At least 100 operations per run, so ten lie beyond the p90.
constexpr std::size_t kMinOps = 100;
// Passes stop being started after this long even if kMinOps is not met.
constexpr double kHardCapSeconds = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string socket_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "tcpip_modes|multicore_cold|explore_funnel|serve_warm "
               "--seed N --seconds S --trace 0|1 [--source-id ID] "
               "[--socket-dir DIR]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else if (flag == "--socket-dir") {
      a.socket_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* w) { return a.workload == w; }) ==
      std::end(kWorkloads))
    usage(("unknown workload \"" + a.workload + "\"").c_str());
  return a;
}

std::unique_ptr<e2e::Workload> make_workload(const Args& a) {
  if (a.workload == "tcpip_modes") return e2e::make_tcpip_modes(a.seed);
  if (a.workload == "multicore_cold") return e2e::make_multicore_cold(a.seed);
  if (a.workload == "explore_funnel") return e2e::make_explore_funnel(a.seed);
  return e2e::make_serve_warm(a.seed, a.socket_dir);
}

/// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

/// All passes of one kind, merged.
struct Merged {
  std::vector<double> op_ms, setup_s;
  std::map<std::string, std::vector<double>> samples;
  e2e::RunCounts counts;
  e2e::LayerTotals op_layers, setup_layers;
  e2e::WarmTotals warm;
  double ipc_ms = 0.0, prepare_ms = 0.0;
  std::size_t prepares = 0;

  /// `prologue` holds the workload's once-per-run set-up: its set-ups and
  /// samples count, its (absent) operations do not.
  Merged(const std::vector<Recorder>& passes, const Recorder& prologue) {
    setup_s = prologue.setup_s;
    samples = prologue.samples;
    setup_layers = prologue.setup_layers;
    prepare_ms = prologue.prepare_ms;
    prepares = prologue.prepares;
    for (const Recorder& r : passes) {
      op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
      setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
      for (const auto& [k, v] : r.samples)
        samples[k].insert(samples[k].end(), v.begin(), v.end());
      counts += r.counts;
      op_layers += r.op_layers;
      setup_layers += r.setup_layers;
      warm += r.warm;
      ipc_ms += r.ipc_ms;
      prepare_ms += r.prepare_ms;
      prepares += r.prepares;
    }
  }
  [[nodiscard]] double ops() const { return static_cast<double>(op_ms.size()); }
  [[nodiscard]] double op_total_ms() const {
    double s = 0.0;
    for (const double v : op_ms) s += v;
    return s;
  }
  [[nodiscard]] double median(const std::string& name) const {
    const auto it = samples.find(name);
    return it == samples.end() ? 0.0 : quantile(it->second, 0.5);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Times are scaled to the reference speed pass by pass (calibration.hpp);
/// rates are medians over passes, so a burst of contention from outside the
/// process shifts one pass, not the run's figure.
std::vector<Metric> end_to_end(const std::vector<Recorder>& passes,
                               const Recorder& prologue) {
  std::vector<double> setup_s, op_ms, runs_per_s, reactions_per_s;
  const auto scaled = [](const std::vector<double>& v, double k,
                         std::vector<double>& out) {
    for (const double x : v) out.push_back(x * k);
  };
  scaled(prologue.setup_s, prologue.speed_scale, setup_s);
  for (const Recorder& r : passes) {
    const double k = r.speed_scale;
    scaled(r.setup_s, k, setup_s);
    scaled(r.op_ms, k, op_ms);
    double op_s = 0.0;
    for (const double ms : r.op_ms) op_s += k * ms / 1e3;
    runs_per_s.push_back(
        ratio(static_cast<double>(r.op_ms.size()), k * r.wall_s));
    reactions_per_s.push_back(
        ratio(static_cast<double>(r.counts.reactions), op_s));
  }
  return {
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"runs_per_s", quantile(runs_per_s, 0.5), "ops/s"},
      {"run_ms_p50", quantile(op_ms, 0.5), "ms"},
      {"run_ms_p90", quantile(op_ms, 0.9), "ms"},
      {"reactions_per_s", quantile(reactions_per_s, 0.5), "transitions/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Merged& t, const Merged& plain,
                              const Recorder& first) {
  const double ops = t.ops();
  const auto& L = t.op_layers;
  const auto per_op = [&](Layer l) { return ratio(L.at(l), ops); };
  const auto count_per_op = [&](std::uint64_t c) {
    return ratio(static_cast<double>(c), ops);
  };
  const double setups = static_cast<double>(t.prepares);
  const double gate_ms = L.at(Layer::kHwGateCost) + L.at(Layer::kHwGateFlush) +
                         L.at(Layer::kHwGateEnqueue) +
                         L.at(Layer::kHwGateResync);
  const auto hit_ratio = [](std::uint64_t hits, std::uint64_t fills) {
    return ratio(static_cast<double>(hits), static_cast<double>(hits + fills));
  };
  const auto& c = t.counts;
  return {
      {"core.master.self_ms",
       ratio(t.op_total_ms() - t.ipc_ms - L.run_ms(), ops), "ms/op"},
      {"core.prepare_ms",
       ratio(t.prepare_ms - t.setup_layers.prepare_ms(), setups), "ms/setup"},
      {"core.ecache.hit_ratio",
       ratio(static_cast<double>(c.caching_hits),
             static_cast<double>(c.caching_sw_reactions)),
       "ratio"},
      {"core.sampling.sim_ratio",
       ratio(static_cast<double>(c.sampling_iss_calls),
             static_cast<double>(c.none_iss_calls)),
       "ratio"},
      {"core.accel.err_pct",
       ratio(first.err_pct_sum, static_cast<double>(first.err_n)), "%"},
      {"iss.cost_ms", per_op(Layer::kIss), "ms/op"},
      {"iss.calls", count_per_op(c.iss_calls), "count/op"},
      {"iss.instructions", count_per_op(c.iss_instructions), "count/op"},
      {"iss.block_hit_ratio",
       hit_ratio(t.warm.iss_block_hits, t.warm.iss_block_fills), "ratio"},
      {"swsyn.prepare_ms", ratio(t.setup_layers.at(Layer::kSwPrepare), setups),
       "ms/setup"},
      {"hwsyn.prepare_ms", ratio(t.setup_layers.at(Layer::kHwPrepare), setups),
       "ms/setup"},
      {"hw.gate.flush_ms", per_op(Layer::kHwGateFlush), "ms/op"},
      {"hw.gate.enqueue_ms", per_op(Layer::kHwGateEnqueue), "ms/op"},
      {"hw.gate.cost_ms", per_op(Layer::kHwGateCost), "ms/op"},
      {"hw.gate.resync_ms", per_op(Layer::kHwGateResync), "ms/op"},
      {"hw.gate.cycles", count_per_op(c.gate_cycles), "count/op"},
      {"hw.gate.ns_per_cycle",
       ratio(gate_ms * 1e6, static_cast<double>(c.gate_cycles)), "ns/cycle"},
      {"hw.gate.rcache_hit_ratio",
       hit_ratio(t.warm.rcache_hits, t.warm.rcache_fills), "ratio"},
      {"hw.analytical.cost_ms", per_op(Layer::kHwAnalytical), "ms/op"},
      {"hw.analytical.calls", count_per_op(L.calls_at(Layer::kHwAnalytical)),
       "count/op"},
      {"cache.icache.ms", per_op(Layer::kIcache), "ms/op"},
      {"cache.icache.miss_ratio",
       ratio(static_cast<double>(c.icache_misses),
             static_cast<double>(c.icache_accesses)),
       "ratio"},
      {"cache.coherence.ms", per_op(Layer::kCoherence), "ms/op"},
      {"cache.coherence.invalidations", count_per_op(c.invalidations),
       "count/op"},
      {"cache.coherence.writebacks", count_per_op(c.writebacks), "count/op"},
      {"bus.ms", per_op(Layer::kBus), "ms/op"},
      {"bus.bytes", count_per_op(c.bus_bytes), "B/op"},
      {"bus.grants", count_per_op(c.bus_grants), "count/op"},
      {"bus.wait_cycles", count_per_op(c.bus_wait_cycles), "count/op"},
      {"explore.analytical_s", t.median("explore.analytical_s"), "s"},
      {"explore.coarse_s", t.median("explore.coarse_s"), "s"},
      {"explore.exact_s", t.median("explore.exact_s"), "s"},
      {"explore.prefilter_kept", t.median("explore.prefilter_kept"), "count"},
      {"util.pool_efficiency", t.median("util.pool_efficiency"), "ratio"},
      {"serve.server_ms_p50", t.median("serve.server_ms"), "ms"},
      {"serve.ipc_ms_p50", t.median("serve.ipc_ms"), "ms"},
      {"serve.open_ms", t.median("serve.open_ms"), "ms"},
      {"serve.checkpoint_ms", t.median("serve.checkpoint_ms"), "ms"},
      {"serve.restore_ms", t.median("serve.restore_ms"), "ms"},
      {"serve.checkpoint_bytes", t.median("serve.checkpoint_bytes"), "B"},
      {"serve.warm_hit_ratio", t.median("serve.warm_hit_ratio"), "ratio"},
      {"dist.remote.enqueue_ms", per_op(Layer::kRemoteEnqueue), "ms/op"},
      {"dist.remote.flush_ms", per_op(Layer::kRemoteFlush), "ms/op"},
      {"trace_overhead_pct",
       100.0 * (ratio(t.op_total_ms(), plain.op_total_ms()) - 1.0), "%"},
  };
}

/// Where the traced operations' time went, as shares of their wall time.
void print_time_split(const Merged& t) {
  const double total = t.op_total_ms();
  if (total <= 0.0) return;
  static const std::pair<Layer, const char*> kNames[] = {
      {Layer::kIss, "iss"},
      {Layer::kHwGateFlush, "hw.gate.flush"},
      {Layer::kHwGateCost, "hw.gate.cost"},
      {Layer::kHwGateEnqueue, "hw.gate.enqueue"},
      {Layer::kHwGateResync, "hw.gate.resync"},
      {Layer::kHwAnalytical, "hw.analytical"},
      {Layer::kRemoteEnqueue, "dist.remote.enqueue"},
      {Layer::kRemoteFlush, "dist.remote.flush"},
      {Layer::kRemoteOther, "dist.remote.other"},
      {Layer::kIcache, "cache.icache"},
      {Layer::kCoherence, "cache.coherence"},
      {Layer::kBus, "bus"},
  };
  std::printf("time split of %zu traced operations (%.1f ms):\n",
              t.op_ms.size(), total);
  const double self = total - t.ipc_ms - t.op_layers.run_ms();
  std::printf("  %-22s %6.1f%%\n", "core.master.self", 100.0 * self / total);
  for (const auto& [layer, name] : kNames)
    if (t.op_layers.at(layer) > 0.0)
      std::printf("  %-22s %6.1f%%\n", name,
                  100.0 * t.op_layers.at(layer) / total);
  if (t.ipc_ms > 0.0)
    std::printf("  %-22s %6.1f%%\n", "serve.ipc", 100.0 * t.ipc_ms / total);
}

std::string provenance(const Args& a, const e2e::Workload& w) {
  return Json()
      .str("source_id", a.source_id)
      .str("build_type", E2EBENCH_BUILD_TYPE)
      .str("cxx_flags", E2EBENCH_CXX_FLAGS)
      .str("compiler", __VERSION__)
      .integer("nproc", std::thread::hardware_concurrency())
      .str("workload", a.workload)
      .integer("seed", static_cast<std::int64_t>(a.seed))
      .num("seconds", a.seconds)
      .boolean("trace", a.trace)
      .raw("workload_config", w.config_json())
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  e2e::register_timed_backends();
  std::unique_ptr<e2e::Workload> workload = make_workload(args);
  std::printf("provenance %s\n", provenance(args, *workload).c_str());
  std::fflush(stdout);

  // Runs one step of the workload between speed samples; the samples the
  // step takes itself are left out of its wall time.
  const auto timed_step = [&](Recorder& rec,
                              const std::function<void()>& step) {
    constexpr int kBracketSamples = 3;
    rec.probe.set_threads(workload->threads());
    for (int i = 0; i < kBracketSamples; ++i) rec.probe.sample();
    const double overhead0 = rec.probe.overhead_ms();
    const e2e::WarmTotals warm0 = e2e::warm_totals();
    const auto t0 = std::chrono::steady_clock::now();
    step();
    rec.wall_s =
        (e2e::ms_since(t0) - (rec.probe.overhead_ms() - overhead0)) / 1e3;
    rec.warm = e2e::warm_totals() - warm0;
    for (int i = 0; i < kBracketSamples; ++i) rec.probe.sample();
    rec.speed_scale = rec.probe.scale();
  };
  Recorder plain_open, traced_open;
  timed_step(plain_open, [&] { workload->open(plain_open, false); });
  if (args.trace)
    timed_step(traced_open, [&] { workload->open(traced_open, true); });
  std::vector<Recorder> plain, traced;
  const auto run_pass = [&](bool with_trace) {
    Recorder rec;
    timed_step(rec, [&] { workload->pass(rec, with_trace); });
    return rec;
  };
  const auto start = std::chrono::steady_clock::now();
  std::size_t ops = 0;
  for (;;) {
    plain.push_back(run_pass(false));
    ops += plain.back().op_ms.size();
    if (args.trace) traced.push_back(run_pass(true));
    const double elapsed = e2e::ms_since(start) / 1e3;
    if ((elapsed >= args.seconds && ops >= kMinOps) ||
        elapsed >= kHardCapSeconds)
      break;
  }
  // Stops the workload's servers and reaps their worker processes.
  workload.reset();

  // Every pass must reproduce the first plain pass bit for bit; a traced
  // pass that does not means a decorator changed the program's behaviour.
  const std::vector<Recorder::Output>& ref = plain.front().outputs;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto check = [&](const std::vector<Recorder>& passes,
                         const char* kind) {
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const Recorder& r = passes[p];
      failures.insert(failures.end(), r.failures.begin(), r.failures.end());
      attempted += std::max(r.outputs.size(), ref.size());
      for (std::size_t i = 0; i < std::max(r.outputs.size(), ref.size());
           ++i) {
        const bool same = i < r.outputs.size() && i < ref.size() &&
                          r.outputs[i].fingerprint == ref[i].fingerprint;
        const bool ok = i < r.outputs.size() && r.outputs[i].ok;
        if (!ok) {
          ++failed;
        } else if (!same) {
          ++failed;
          failures.push_back(std::string(kind) + " pass " +
                             std::to_string(p) + ": output " +
                             std::to_string(i) +
                             " differs from the first pass");
        }
      }
    }
  };
  for (const Recorder* r : {&plain_open, &traced_open}) {
    failures.insert(failures.end(), r->failures.begin(), r->failures.end());
    attempted += r->outputs.size();
    for (const Recorder::Output& o : r->outputs) failed += o.ok ? 0 : 1;
  }
  check(plain, "plain");
  check(traced, "traced");

  const Merged m(plain, plain_open);
  std::vector<Metric> shown = end_to_end(plain, plain_open);
  std::vector<Metric> reported = shown;
  if (args.trace) {
    const Merged t(traced, traced_open);
    print_time_split(t);
    reported = per_layer(t, m, plain.front());
    shown.insert(shown.end(), reported.begin(), reported.end());
  }
  const double fail_frac =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));

  std::printf("%s: %zu plain pass(es), %zu traced, %zu timed operations, "
              "%zu set-ups, %.2f s\n",
              args.workload.c_str(), plain.size(), traced.size(),
              m.op_ms.size(), m.setup_s.size(), e2e::ms_since(start) / 1e3);
  std::vector<double> scales;
  for (const Recorder& r : plain) scales.push_back(r.speed_scale);
  std::printf("speed scale (reference kernel %.1f ms / measured): median %.4f "
              "over %zu passes, min %.4f, max %.4f\n",
              e2e::kReferenceKernelMs, quantile(scales, 0.5), scales.size(),
              *std::min_element(scales.begin(), scales.end()),
              *std::max_element(scales.begin(), scales.end()));
  for (const Metric& x : shown)
    std::printf("metric %-30s %.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  // Printed, not in the metrics object: deterministic per seed, and
  // undefined where a workload has no accelerated operations.
  const Recorder& first = plain.front();
  if (first.err_n > 0)
    std::printf("metric %-30s %.6g %%\n", "accel_err_pct",
                first.err_pct_sum / static_cast<double>(first.err_n));
  else
    std::printf("metric %-30s n/a (no accelerated operations)\n",
                "accel_err_pct");
  std::printf("metric %-30s %.6g ratio (%llu/%llu)\n", "fail_frac", fail_frac,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (std::size_t i = 0; i < failures.size() && i < 10; ++i)
    std::printf("FAILED: %s\n", failures[i].c_str());

  Json metrics;
  for (const Metric& x : reported)
    metrics.raw(x.name,
                Json().num("value", x.value).str("unit", x.unit).done());
  const std::string result =
      Json()
          .boolean("correct", failed == 0)
          .integer("attempted", static_cast<std::int64_t>(attempted))
          .integer("failed", static_cast<std::int64_t>(failed))
          .raw("metrics", metrics.done())
          .done();
  std::printf("%s\n", result.c_str());
  return 0;
}
