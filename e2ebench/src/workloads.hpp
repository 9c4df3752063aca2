// The benchmark's workloads and the recorder they report into.
//
// A workload generates all of its inputs from the seed when it is built and
// then runs them as a fixed sequence, a *pass*. main.cpp repeats passes
// until the measuring time is up, so every pass of one seed must produce
// bit-identical outputs: main.cpp compares each pass's output
// fingerprints with the first untraced pass, and a traced pass (timing
// decorators selected) with the untraced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calibration.hpp"
#include "core/coestimator.hpp"
#include "timed_backends.hpp"

namespace e2e {

namespace core = socpower::core;

/// Sums of the deterministic RunResults counters the layer metrics use.
struct RunCounts {
  std::uint64_t reactions = 0;
  std::uint64_t iss_calls = 0;
  std::uint64_t iss_instructions = 0;
  std::uint64_t gate_cycles = 0;
  std::uint64_t icache_accesses = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t bus_bytes = 0;
  std::uint64_t bus_grants = 0;
  std::uint64_t bus_wait_cycles = 0;
  // Acceleration-policy counters, by the mode of the run.
  std::uint64_t caching_sw_reactions = 0;
  std::uint64_t caching_hits = 0;
  std::uint64_t none_iss_calls = 0;
  std::uint64_t sampling_iss_calls = 0;

  void add(const core::RunResults& r, core::Acceleration accel);
  RunCounts& operator+=(const RunCounts& o);
};

/// FNV-1a over 64-bit words; doubles enter as their IEEE-754 bit patterns.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double d);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Bit-exact digest of every deterministic field of a run's results
/// (energies, counts, end time); wall time is left out.
[[nodiscard]] std::uint64_t fingerprint(const core::RunResults& r);

/// Milliseconds since `t0` on the steady clock.
[[nodiscard]] double ms_since(std::chrono::steady_clock::time_point t0);

/// What one pass reports.
class Recorder {
 public:
  /// A timed operation: its host time, outputs and the decorated time
  /// spent inside it. `ok` is false when one of its checks failed.
  void op(double ms, const core::RunResults& res, core::Acceleration accel,
          const LayerTotals& layers, bool ok, const std::string& what);
  /// A checked output that is not a timed operation (a priming request, a
  /// checkpoint replay, an exploration's outcome).
  void output(std::uint64_t fp, bool ok, const std::string& what);
  /// One set-up unit: its host time and the time spent in prepare() alone
  /// (0 where the caller cannot see prepare()).
  void setup(double seconds, double prepare_ms, const LayerTotals& layers);
  /// |approx - exact| / exact of one accelerated estimate.
  void accel_error(double approx, double exact);
  /// A workload-specific layer sample; the run reports the median by name.
  void sample(const std::string& name, double value);
  /// A check that belongs to no output of its own.
  void fail(const std::string& what);

  struct Output {
    std::uint64_t fingerprint = 0;
    bool ok = true;
  };
  std::vector<Output> outputs;
  std::vector<double> op_ms;
  std::vector<double> setup_s;
  RunCounts counts;
  // Decorated time inside timed operations (read for the run buckets) and
  // inside set-up (read for the prepare buckets).
  LayerTotals op_layers;
  LayerTotals setup_layers;
  /// Part of the operations' time spent outside the program's own run
  /// (client round trip minus the server's run time).
  double ipc_ms = 0.0;
  double prepare_ms = 0.0;    // Σ prepare() wall
  std::size_t prepares = 0;
  double err_pct_sum = 0.0;
  std::size_t err_n = 0;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> failures;
  // Set by main.cpp around the pass.
  double wall_s = 0.0;
  WarmTotals warm;
  /// Samples machine speed around and inside the pass; op() calls
  /// maybe_sample() after recording each operation.
  SpeedProbe probe;
  /// probe.scale() once the pass is over: multiplies the pass's host times
  /// into reference-speed times.
  double speed_scale = 1.0;
};

/// RAII helper: times a region and snapshots the layer clock around it.
class Span {
 public:
  Span() : t0_(std::chrono::steady_clock::now()), layers0_(layer_clock()) {}
  [[nodiscard]] double ms() const { return ms_since(t0_); }
  [[nodiscard]] LayerTotals layers() const { return layer_clock() - layers0_; }

 private:
  std::chrono::steady_clock::time_point t0_;
  LayerTotals layers0_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The workload's full configuration, as a JSON object.
  [[nodiscard]] virtual std::string config_json() const = 0;
  /// Threads the workload keeps busy while it runs.
  [[nodiscard]] virtual unsigned threads() const { return 1; }
  /// Set-up that persists across passes (a long-lived server and its
  /// sessions). Called once per value of `traced`, before the first pass.
  virtual void open(Recorder& /*rec*/, bool /*traced*/) {}
  /// One pass over the inputs. `traced` selects the timing decorators.
  virtual void pass(Recorder& rec, bool traced) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_tcpip_modes(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_multicore_cold(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_explore_funnel(std::uint64_t seed);
/// `socket_dir` holds the servers' AF_UNIX sockets while a pass runs.
[[nodiscard]] std::unique_ptr<Workload> make_serve_warm(
    std::uint64_t seed, const std::string& socket_dir);

/// The per-run and structural knobs of a config that a workload varies or
/// that the measurement depends on, as JSON members (no braces).
[[nodiscard]] std::string config_knobs_json(const core::CoEstimatorConfig& c);

/// Tiny JSON writer for the provenance and result lines.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

}  // namespace e2e
