// explore_funnel: one core::explore over about a thousand TCP/IP design
// points with ip_check in HW (DMA block size x bus-priority permutation x
// packet count), through the three-tier funnel: the calibrated
// hw.analytical tier prices every point, the best K go to the macro-model
// coarse pass and the best k of those are verified exactly. Each point pays
// its own prepare(), so set-up, the thread pool and the analytical tier
// dominate. It is the paper's Section 5.3 design-space use, and the only
// workload that runs the analytical tier and the explorer.
#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/explorer.hpp"
#include "systems/tcpip.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using socpower::systems::TcpIpParams;
using socpower::systems::TcpIpSystem;

constexpr unsigned kDmaSizes[] = {2, 4, 8, 16, 32, 64};
constexpr int kMaxPackets = 28;
constexpr int kPacketBytes = 32;
constexpr std::size_t kPrefilter = 24;
constexpr std::size_t kVerifyTop = 6;
constexpr unsigned kCalibrationVectors = 16;

unsigned explore_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// Phases in the order core::explore runs them.
enum Phase { kAnalytical, kCoarse, kExact, kPhases };

core::Acceleration phase_accel(int phase) {
  return phase == kExact ? core::Acceleration::kNone
                         : core::Acceleration::kMacroModel;
}

/// What one point evaluation leaves behind; written by exactly one pool
/// thread, read after explore() returns.
struct Slot {
  bool ran = false;
  bool ok = true;
  double setup_s = 0.0;
  double prepare_ms = 0.0;
  double op_ms = 0.0;
  core::RunResults res;
};

class ExploreFunnel final : public Workload {
 public:
  explicit ExploreFunnel(std::uint64_t seed) {
    std::array<int, 3> prio = {1, 2, 3};
    std::size_t i = 0;
    do {
      for (const unsigned dma : kDmaSizes) {
        for (int packets = 1; packets <= kMaxPackets; ++packets, ++i) {
          TcpIpParams p;
          p.num_packets = packets;
          p.packet_bytes = kPacketBytes;
          p.dma_block_size = dma;
          p.ip_check_in_hw = true;
          p.prio_create = prio[0];
          p.prio_ipcheck = prio[1];
          p.prio_checksum = prio[2];
          p.seed = socpower::Rng::for_stream(seed, i);
          points_.push_back(p);
        }
      }
    } while (std::next_permutation(prio.begin(), prio.end()));
  }

  [[nodiscard]] std::string config_json() const override {
    core::CoEstimatorConfig cfg = config(kAnalytical, false);
    return Json()
        .str("system", "tcpip")
        .integer("points", static_cast<std::int64_t>(points_.size()))
        .str("grid", "dma{2..64} x bus-priority permutations(6) x packets{1.." +
                         std::to_string(kMaxPackets) + "}")
        .integer("packet_bytes", kPacketBytes)
        .boolean("ip_check_in_hw", true)
        .str("payload_seeds", "Rng::for_stream(seed, point index)")
        .integer("threads", explore_threads())
        .integer("analytical_prefilter", static_cast<std::int64_t>(kPrefilter))
        .integer("verify_top", static_cast<std::int64_t>(kVerifyTop))
        .str("tiers", "analytical: macromodel + hw.analytical; coarse: "
                      "macromodel + hw.gate; exact: none + hw.gate")
        .raw("config", "{" + config_knobs_json(cfg) + "}")
        .done();
  }

  [[nodiscard]] unsigned threads() const override { return explore_threads(); }

  void pass(Recorder& rec, bool traced) override {
    const std::size_t n = points_.size();
    std::array<std::vector<Slot>, kPhases> slots;
    for (auto& s : slots) s.assign(n, Slot{});

    std::vector<core::ExplorationPoint> pts(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto thunk = [this, i, traced, &slots](int phase) {
        return [this, i, traced, phase, &slots] {
          return evaluate(points_[i], phase, traced,
                          slots[static_cast<std::size_t>(phase)][i]);
        };
      };
      pts[i].label = "p" + std::to_string(i);
      pts[i].run_analytical = thunk(kAnalytical);
      pts[i].run_coarse = thunk(kCoarse);
      pts[i].run_exact = thunk(kExact);
    }

    const unsigned threads = explore_threads();
    const Span span;
    const core::ExplorationOutcome out =
        core::explore(pts, kVerifyTop,
                      {.threads = threads, .analytical_prefilter = kPrefilter});
    const double wall_ms = span.ms();
    // Every decorated call of the explore happens inside a point thunk:
    // prepare() in its set-up, everything else in its run.
    const LayerTotals layers = span.layers();
    rec.op_layers += layers;
    rec.setup_layers += layers;

    double busy_ms = 0.0;
    for (int phase = 0; phase < kPhases; ++phase) {
      for (std::size_t i = 0; i < n; ++i) {
        const Slot& s = slots[static_cast<std::size_t>(phase)][i];
        if (!s.ran) continue;
        busy_ms += s.setup_s * 1e3 + s.op_ms;
        rec.setup(s.setup_s, s.prepare_ms, {});
        rec.op(s.op_ms, s.res, phase_accel(phase), {}, s.ok,
               "explore point " + std::to_string(i) +
                   (s.ok ? "" : ": packets lost or corrupted"));
      }
    }

    Digest fp;
    for (const auto& e : out.ranked) {
      fp.add(std::uint64_t{std::stoull(e.label.substr(1))});
      fp.add(std::uint64_t{e.coarse_rank}).add(e.coarse_energy);
      fp.add(e.exact_energy.value_or(-1.0));
      if (e.exact_energy) rec.accel_error(e.coarse_energy, *e.exact_energy);
    }
    rec.output(fp.value(), out.winner_confirmed,
               out.winner_confirmed ? "explore outcome"
                                    : "explore: coarse winner not confirmed");

    rec.sample("explore.analytical_s", out.analytical_seconds);
    rec.sample("explore.coarse_s", out.coarse_seconds);
    rec.sample("explore.exact_s", out.exact_seconds);
    rec.sample("explore.prefilter_kept",
               static_cast<double>(out.prefilter_kept));
    rec.sample("util.pool_efficiency", busy_ms / (threads * wall_ms));
  }

 private:
  static core::CoEstimatorConfig config(int phase, bool traced) {
    core::CoEstimatorConfig cfg;
    cfg.accel = phase_accel(phase);
    if (traced) cfg.estimators = timed_selection();
    if (phase == kAnalytical) {
      cfg.estimators.hw_gate = traced ? kTimedAnalytical : "hw.analytical";
      cfg.hw_analytical_calibration_vectors = kCalibrationVectors;
    }
    return cfg;
  }

  static core::RunResults evaluate(const TcpIpParams& p, int phase,
                                   bool traced, Slot& slot) {
    const auto t0 = std::chrono::steady_clock::now();
    TcpIpSystem sys(p);
    core::CoEstimator est(&sys.network(), config(phase, traced));
    sys.configure(est);
    const auto t1 = std::chrono::steady_clock::now();
    est.prepare();
    slot.prepare_ms = ms_since(t1);
    slot.setup_s = ms_since(t0) / 1e3;
    const socpower::sim::Stimulus stim = sys.stimulus();
    const auto t2 = std::chrono::steady_clock::now();
    slot.res = est.run(stim);
    slot.op_ms = ms_since(t2);
    slot.ok = sys.packets_ok(est) == p.num_packets && sys.packets_bad(est) == 0;
    slot.ran = true;
    return slot.res;
  }

  std::vector<TcpIpParams> points_;
};

}  // namespace

std::unique_ptr<Workload> make_explore_funnel(std::uint64_t seed) {
  return std::make_unique<ExploreFunnel>(seed);
}

}  // namespace e2e
