// tcpip_modes: the paper's Table 1/2 experiment. The TCP/IP NIC subsystem
// (60 x 128 B packets, gap 40, ip_check in SW) at every DMA block size, each
// point on a fresh estimator that runs the four acceleration modes in turn.
// It is the only workload where the ISS, the energy cache, the macro-model
// and the sequence compactor are all on the path, and each mode switches one
// acceleration layer on while the others bypass it.
#include <memory>
#include <string>
#include <vector>

#include "systems/tcpip.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using socpower::systems::TcpIpParams;
using socpower::systems::TcpIpSystem;

constexpr unsigned kDmaSizes[] = {2, 4, 8, 16, 32, 64};
constexpr core::Acceleration kModes[] = {
    core::Acceleration::kNone, core::Acceleration::kCaching,
    core::Acceleration::kMacroModel, core::Acceleration::kSampling};

core::CoEstimatorConfig base_config() {
  core::CoEstimatorConfig cfg;
  cfg.bus.line_cap_f = 0.5e-9;  // the Tables 1-2 bus budget
  // sync_spin and cache_hit_spin stay 0 (the defaults): the benchmark times
  // the program, not a modelled IPC busy-wait.
  return cfg;
}

class TcpipModes final : public Workload {
 public:
  explicit TcpipModes(std::uint64_t seed) {
    for (std::size_t i = 0; i < std::size(kDmaSizes); ++i) {
      TcpIpParams p;
      p.num_packets = 60;
      p.packet_bytes = 128;
      p.packet_gap = 40;
      p.dma_block_size = kDmaSizes[i];
      p.seed = socpower::Rng::for_stream(seed, i);
      points_.push_back(p);
    }
  }

  [[nodiscard]] std::string config_json() const override {
    std::string dmas = "[", seeds = "[";
    for (const TcpIpParams& p : points_) {
      dmas += (dmas.size() > 1 ? "," : "") + std::to_string(p.dma_block_size);
      seeds += (seeds.size() > 1 ? "," : "") + std::to_string(p.seed);
    }
    const TcpIpParams& p = points_.front();
    return Json()
        .str("system", "tcpip")
        .integer("num_packets", p.num_packets)
        .integer("packet_bytes", p.packet_bytes)
        .integer("packet_gap", static_cast<std::int64_t>(p.packet_gap))
        .boolean("ip_check_in_hw", p.ip_check_in_hw)
        .raw("dma_block_sizes", dmas + "]")
        .raw("stimulus_seeds", seeds + "]")
        .str("modes_per_point", "none,caching,macromodel,sampling")
        .str("estimator", "fresh CoEstimator per point, one thread")
        .raw("config", "{" + config_knobs_json(base_config()) + "}")
        .done();
  }

  void pass(Recorder& rec, bool traced) override {
    for (const TcpIpParams& p : points_) {
      const Span setup;
      TcpIpSystem sys(p);
      core::CoEstimatorConfig cfg = base_config();
      if (traced) cfg.estimators = timed_selection();
      core::CoEstimator est(&sys.network(), cfg);
      sys.configure(est);
      const Span prepare;
      est.prepare();
      const double prepare_ms = prepare.ms();
      rec.setup(setup.ms() / 1e3, prepare_ms, setup.layers());

      const socpower::sim::Stimulus stim = sys.stimulus();
      core::RunResults exact;
      for (const core::Acceleration mode : kModes) {
        est.config().accel = mode;
        const Span op;
        const core::RunResults r = est.run(stim);
        const double ms = op.ms();
        const LayerTotals layers = op.layers();

        const std::string what = "tcpip dma=" +
                                 std::to_string(p.dma_block_size) + " " +
                                 core::acceleration_name(mode);
        bool ok = sys.packets_ok(est) == p.num_packets &&
                  sys.packets_bad(est) == 0;
        std::string why = ok ? what : what + ": packets lost or corrupted";
        if (mode == core::Acceleration::kNone) {
          exact = r;
        } else {
          rec.accel_error(r.total_energy, exact.total_energy);
          // The ISS power model is data-independent, so caching is exact.
          if (mode == core::Acceleration::kCaching &&
              r.total_energy != exact.total_energy) {
            ok = false;
            why = what + ": caching energy differs from the exact run";
          }
        }
        rec.op(ms, r, mode, layers, ok, why);
      }
    }
  }

 private:
  std::vector<TcpIpParams> points_;
};

}  // namespace

std::unique_ptr<Workload> make_tcpip_modes(std::uint64_t seed) {
  return std::make_unique<TcpipModes>(seed);
}

}  // namespace e2e
