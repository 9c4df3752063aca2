// multicore_cold: the 4-core MulticoreSystem with coherent private L1s,
// alternating between the arbitrated bus and the mesh NoC. Every point is a
// fresh estimator running one exact run() and one run_separate(), so the
// gate-level reaction cache misses on every first reaction and gate
// evaluation and billing are fully exposed. It is the only workload that
// drives coherence, the NoC and per-core ISS instances.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "systems/multicore.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using socpower::systems::MulticoreParams;
using socpower::systems::MulticoreSystem;

constexpr std::size_t kPoints = 16;
constexpr socpower::sim::SimTime kHorizon = 8192;

/// Deals the values of `pool` to the points in a seed-dependent order: every
/// seed uses the same multiset of values, so the work per pass stays put
/// while the pairing of parameters (and hence the timing interplay) varies.
template <typename T>
std::vector<T> dealt(std::vector<T> pool, socpower::Rng& rng) {
  for (std::size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.below(i)]);
  return pool;
}

class MulticoreCold final : public Workload {
 public:
  explicit MulticoreCold(std::uint64_t seed) {
    socpower::Rng rng(seed);
    std::vector<socpower::sim::SimTime> ticks;
    std::vector<socpower::sim::SimTime> gaps;
    std::vector<unsigned> lines;
    std::vector<int> base;
    for (std::size_t i = 0; i < kPoints; ++i) {
      ticks.push_back(48 + 2 * static_cast<socpower::sim::SimTime>(i));
      gaps.push_back(1 + static_cast<socpower::sim::SimTime>(i % 4));
      lines.push_back(std::vector<unsigned>{2, 3, 4, 6}[i % 4]);
      base.push_back(12 + static_cast<int>(i % 8));
    }
    ticks = dealt(ticks, rng);
    gaps = dealt(gaps, rng);
    lines = dealt(lines, rng);
    base = dealt(base, rng);
    for (std::size_t i = 0; i < kPoints; ++i) {
      MulticoreParams p;
      p.cores = 4;
      p.interconnect = i % 2 == 0 ? core::InterconnectKind::kBus
                                  : core::InterconnectKind::kNoc;
      p.coherent = true;
      p.tick_period = ticks[i];
      p.start_gap = gaps[i];
      p.shared_lines = lines[i];
      p.collector_base_iterations = base[i];
      points_.push_back(p);
    }
  }

  [[nodiscard]] std::string config_json() const override {
    std::string pts = "[";
    for (const MulticoreParams& p : points_) {
      if (pts.size() > 1) pts += ", ";
      pts += Json()
                 .str("interconnect", core::interconnect_name(p.interconnect))
                 .integer("tick_period",
                          static_cast<std::int64_t>(p.tick_period))
                 .integer("start_gap", static_cast<std::int64_t>(p.start_gap))
                 .integer("shared_lines", p.shared_lines)
                 .integer("collector_base_iterations",
                          p.collector_base_iterations)
                 .done();
    }
    const MulticoreParams& p = points_.front();
    const MulticoreSystem sys(p);
    return Json()
        .str("system", "multicore")
        .integer("cores", p.cores)
        .integer("num_packets", p.num_packets)
        .integer("bytes_per_packet", p.bytes_per_packet)
        .boolean("coherent", p.coherent)
        .integer("horizon", static_cast<std::int64_t>(kHorizon))
        .str("ops_per_point", "run(none),run_separate(none)")
        .str("estimator", "fresh CoEstimator per point, one thread")
        .raw("points", pts + "]")
        .raw("config", "{" + config_knobs_json(sys.config_template()) + "}")
        .done();
  }

  void pass(Recorder& rec, bool traced) override {
    for (const MulticoreParams& p : points_) {
      const Span setup;
      const MulticoreSystem sys(p);
      core::CoEstimatorConfig cfg = sys.config_template();
      cfg.accel = core::Acceleration::kNone;
      if (traced) cfg.estimators = timed_selection();
      core::CoEstimator est(&sys.network(), cfg);
      sys.configure(est);
      const Span prepare;
      est.prepare();
      const double prepare_ms = prepare.ms();
      rec.setup(setup.ms() / 1e3, prepare_ms, setup.layers());

      const socpower::sim::Stimulus stim = sys.stimulus(kHorizon);
      const std::string what =
          std::string("multicore ") + core::interconnect_name(p.interconnect);
      for (const bool separate : {false, true}) {
        const Span op;
        const core::RunResults r =
            separate ? est.run_separate(stim) : est.run(stim);
        const double ms = op.ms();
        const bool ok = r.reactions > 0 && r.total_energy > 0.0;
        rec.op(ms, r, core::Acceleration::kNone, op.layers(), ok,
               what + (separate ? " run_separate" : " run") +
                   (ok ? "" : ": empty run"));
      }
    }
  }

 private:
  std::vector<MulticoreParams> points_;
};

}  // namespace

std::unique_ptr<Workload> make_multicore_cold(std::uint64_t seed) {
  return std::make_unique<MulticoreCold>(seed);
}

}  // namespace e2e
