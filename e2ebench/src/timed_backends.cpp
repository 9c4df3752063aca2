#include "timed_backends.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/estimators/component_estimator.hpp"
#include "core/estimators/registry.hpp"

namespace e2e {

namespace core = socpower::core;
namespace cfsm = socpower::cfsm;
namespace sim = socpower::sim;
namespace cache = socpower::cache;
namespace bus = socpower::bus;

namespace {

using Clock = std::chrono::steady_clock;

// One block of counters per thread: each is written by its own thread only
// (so the adds need no read-modify-write atomics) and read by layer_clock().
struct ClockBlock {
  std::array<std::atomic<std::uint64_t>, kLayerCount> ns{};
  std::array<std::atomic<std::uint64_t>, kLayerCount> calls{};
};

struct ClockBlocks {
  std::mutex mu;
  std::vector<std::unique_ptr<ClockBlock>> blocks;
};

// Leaked: pool threads may still add while static destructors run.
ClockBlocks& clock_blocks() {
  static ClockBlocks* b = new ClockBlocks();
  return *b;
}

ClockBlock& local_block() {
  thread_local ClockBlock* mine = [] {
    auto block = std::make_unique<ClockBlock>();
    ClockBlock* raw = block.get();
    ClockBlocks& all = clock_blocks();
    std::lock_guard<std::mutex> lk(all.mu);
    all.blocks.push_back(std::move(block));
    return raw;
  }();
  return *mine;
}

void bump(std::atomic<std::uint64_t>& a, std::uint64_t d) {
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

class LayerTimer {
 public:
  explicit LayerTimer(Layer layer) : layer_(layer), t0_(Clock::now()) {}
  ~LayerTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0_)
                        .count();
    ClockBlock& b = local_block();
    const auto i = static_cast<std::size_t>(layer_);
    bump(b.ns[i], static_cast<std::uint64_t>(ns));
    bump(b.calls[i], 1);
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  Layer layer_;
  Clock::time_point t0_;
};

std::mutex g_warm_mu;
WarmTotals g_warm;

enum class WarmGroup { kNone, kIssBlocks, kReactionCache };

void publish_warm(WarmGroup group,
                  core::ComponentEstimator::WarmCacheCounters c) {
  if (group == WarmGroup::kNone) return;
  std::lock_guard<std::mutex> lk(g_warm_mu);
  if (group == WarmGroup::kIssBlocks) {
    g_warm.iss_block_hits += c.hits;
    g_warm.iss_block_fills += c.fills;
  } else {
    g_warm.rcache_hits += c.hits;
    g_warm.rcache_fills += c.fills;
  }
}

/// Where one decorator instance books its calls.
struct Layers {
  Layer main;     // begin_run, cost and every role call not listed below
  Layer prepare;
  Layer enqueue;  // HwBackend::enqueue
  Layer resync;   // HwBackend::resync_if_dirty
  Layer flush;    // flush() and its jobs
  Layer aux;      // CacheBackend::data_access
  WarmGroup warm = WarmGroup::kNone;
};

std::unique_ptr<core::ComponentEstimator> create_inner(
    const std::string& name) {
  std::unique_ptr<core::ComponentEstimator> inner =
      core::estimator_registry().create(name);
  if (!inner) {
    std::fprintf(stderr, "e2ebench: backend \"%s\" is not registered\n",
                 name.c_str());
    std::abort();
  }
  return inner;
}

/// Forwards the ComponentEstimator interface common to every role.
template <typename Role>
class Timed : public Role {
 public:
  Timed(std::unique_ptr<core::ComponentEstimator> inner, Layers layers)
      : owner_(std::move(inner)), layers_(layers) {
    inner_ = dynamic_cast<Role*>(owner_.get());
    if (inner_ == nullptr) {
      std::fprintf(stderr, "e2ebench: backend \"%.*s\" has the wrong role\n",
                   static_cast<int>(owner_->name().size()),
                   owner_->name().data());
      std::abort();
    }
  }
  ~Timed() override {
    publish_warm(layers_.warm, inner_->warm_cache_counters());
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void prepare(const core::EstimatorContext& ctx) override {
    LayerTimer t(layers_.prepare);
    inner_->prepare(ctx);
  }
  void begin_run() override {
    LayerTimer t(layers_.main);
    inner_->begin_run();
  }
  core::TransitionCost cost(const core::TransitionRequest& req) override {
    LayerTimer t(layers_.main);
    return inner_->cost(req);
  }
  void flush(std::vector<core::ComponentEstimator::FlushJob>& jobs) override {
    const std::size_t first = jobs.size();
    {
      LayerTimer t(layers_.flush);
      inner_->flush(jobs);
    }
    // Jobs may run on pool threads; each thread books into its own block.
    for (std::size_t i = first; i < jobs.size(); ++i)
      jobs[i].work = [work = std::move(jobs[i].work), layer = layers_.flush] {
        LayerTimer t(layer);
        return work();
      };
  }
  void stats(core::RunResults& res) const override { inner_->stats(res); }
  [[nodiscard]] std::vector<cfsm::CfsmId> component_ids() const override {
    return inner_->component_ids();
  }
  [[nodiscard]] core::BackendWarmState export_warm_state() const override {
    return inner_->export_warm_state();
  }
  void import_warm_state(const core::BackendWarmState& state) override {
    inner_->import_warm_state(state);
  }
  [[nodiscard]] core::ComponentEstimator::WarmCacheCounters
  warm_cache_counters() const override {
    return inner_->warm_cache_counters();
  }

 protected:
  std::unique_ptr<core::ComponentEstimator> owner_;
  Role* inner_ = nullptr;
  Layers layers_;
};

class TimedSw final : public Timed<core::SwBackend> {
 public:
  using Timed::Timed;
  [[nodiscard]] const socpower::swsyn::SwImage* image(
      cfsm::CfsmId task) const override {
    return inner_->image(task);
  }
  socpower::Joules replay(cfsm::CfsmId task, const cfsm::ReactionInputs& inputs,
                          const cfsm::CfsmState& pre_state) override {
    LayerTimer t(layers_.main);
    return inner_->replay(task, inputs, pre_state);
  }
};

class TimedHw final : public Timed<core::HwBackend> {
 public:
  using Timed::Timed;
  [[nodiscard]] const socpower::hwsyn::HwImage* image(
      cfsm::CfsmId task) const override {
    return inner_->image(task);
  }
  void resync_if_dirty(cfsm::CfsmId task,
                       const cfsm::CfsmState& state) override {
    LayerTimer t(layers_.resync);
    inner_->resync_if_dirty(task, state);
  }
  void mark_skipped(cfsm::CfsmId task, bool skipped) override {
    inner_->mark_skipped(task, skipped);
  }
  void reset_unit(cfsm::CfsmId task) override {
    LayerTimer t(layers_.main);
    inner_->reset_unit(task);
  }
  void enqueue(cfsm::CfsmId task, sim::SimTime time,
               const cfsm::ReactionInputs& inputs, cfsm::PathId path,
               const cfsm::CfsmState& pre_state) override {
    LayerTimer t(layers_.enqueue);
    inner_->enqueue(task, time, inputs, path, pre_state);
  }
  void separate_reset(cfsm::CfsmId task) override {
    LayerTimer t(layers_.main);
    inner_->separate_reset(task);
  }
  socpower::Joules separate_step(cfsm::CfsmId task,
                                 const cfsm::ReactionInputs& inputs) override {
    LayerTimer t(layers_.main);
    return inner_->separate_step(task, inputs);
  }
};

class TimedCache final : public Timed<core::CacheBackend> {
 public:
  using Timed::Timed;
  cache::AccessStats access(
      std::span<const std::uint32_t> addresses) override {
    LayerTimer t(layers_.main);
    return inner_->access(addresses);
  }
  cache::AccessStats access_core(
      unsigned core, std::span<const std::uint32_t> addresses) override {
    LayerTimer t(layers_.main);
    return inner_->access_core(core, addresses);
  }
  cache::CoherentAccessResult data_access(int core, bool write,
                                          std::uint32_t addr,
                                          std::uint32_t bytes) override {
    LayerTimer t(layers_.aux);
    return inner_->data_access(core, write, addr, bytes);
  }
};

class TimedBus final : public Timed<core::BusBackend> {
 public:
  using Timed::Timed;
  bus::BusScheduler::JobId submit(sim::SimTime now,
                                  bus::BusRequest request) override {
    LayerTimer t(layers_.main);
    return inner_->submit(now, std::move(request));
  }
  // Polled once per scheduler step; cheap enough that timing them would
  // mostly measure the clock. Their time counts as master self time.
  [[nodiscard]] bool has_work() const override { return inner_->has_work(); }
  [[nodiscard]] sim::SimTime next_boundary() const override {
    return inner_->next_boundary();
  }
  std::vector<bus::BusScheduler::Completion> advance(sim::SimTime t) override {
    LayerTimer timer(layers_.main);
    return inner_->advance(t);
  }
  [[nodiscard]] const bus::BusScheduler& scheduler() const override {
    return inner_->scheduler();
  }
  [[nodiscard]] const bus::Interconnect& interconnect() const override {
    return inner_->interconnect();
  }
};

template <typename Decorator>
void register_decorator(const std::string& inner, Layers layers) {
  core::estimator_registry().register_backend(
      "timed." + inner, [inner, layers] {
        return std::make_unique<Decorator>(create_inner(inner), layers);
      });
}

}  // namespace

double LayerTotals::run_ms() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i)
    if (!is_prepare(static_cast<Layer>(i))) sum += ms[i];
  return sum;
}

double LayerTotals::prepare_ms() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < kLayerCount; ++i)
    if (is_prepare(static_cast<Layer>(i))) sum += ms[i];
  return sum;
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    ms[i] += o.ms[i];
    calls[i] += o.calls[i];
  }
  return *this;
}

LayerTotals LayerTotals::operator-(const LayerTotals& o) const {
  LayerTotals d;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    d.ms[i] = ms[i] - o.ms[i];
    d.calls[i] = calls[i] - o.calls[i];
  }
  return d;
}

LayerTotals layer_clock() {
  LayerTotals t;
  ClockBlocks& all = clock_blocks();
  std::lock_guard<std::mutex> lk(all.mu);
  for (const auto& b : all.blocks) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      t.ms[i] += 1e-6 * static_cast<double>(
                            b->ns[i].load(std::memory_order_relaxed));
      t.calls[i] += b->calls[i].load(std::memory_order_relaxed);
    }
  }
  return t;
}

WarmTotals WarmTotals::operator-(const WarmTotals& o) const {
  return {iss_block_hits - o.iss_block_hits,
          iss_block_fills - o.iss_block_fills, rcache_hits - o.rcache_hits,
          rcache_fills - o.rcache_fills};
}

WarmTotals& WarmTotals::operator+=(const WarmTotals& o) {
  iss_block_hits += o.iss_block_hits;
  iss_block_fills += o.iss_block_fills;
  rcache_hits += o.rcache_hits;
  rcache_fills += o.rcache_fills;
  return *this;
}

WarmTotals warm_totals() {
  std::lock_guard<std::mutex> lk(g_warm_mu);
  return g_warm;
}

void register_timed_backends() {
  static std::once_flag once;
  std::call_once(once, [] {
    using L = Layer;
    register_decorator<TimedSw>(
        "sw.iss", {L::kIss, L::kSwPrepare, L::kIss, L::kIss, L::kIss, L::kIss,
                   WarmGroup::kIssBlocks});
    register_decorator<TimedHw>(
        "hw.gate",
        {L::kHwGateCost, L::kHwPrepare, L::kHwGateEnqueue, L::kHwGateResync,
         L::kHwGateFlush, L::kHwGateCost, WarmGroup::kReactionCache});
    register_decorator<TimedHw>(
        "hw.gate.remote",
        {L::kRemoteOther, L::kHwPrepare, L::kRemoteEnqueue, L::kRemoteOther,
         L::kRemoteFlush, L::kRemoteOther});
    register_decorator<TimedHw>(
        "hw.analytical",
        {L::kHwAnalytical, L::kHwPrepare, L::kHwAnalytical, L::kHwAnalytical,
         L::kHwAnalytical, L::kHwAnalytical});
    register_decorator<TimedCache>(
        "cache.icache", {L::kIcache, L::kResourcePrepare, L::kIcache,
                         L::kIcache, L::kIcache, L::kCoherence});
    const Layers bus_layers{L::kBus, L::kResourcePrepare, L::kBus,
                            L::kBus,  L::kBus,             L::kBus};
    register_decorator<TimedBus>("bus.arbiter", bus_layers);
    register_decorator<TimedBus>("bus.noc", bus_layers);
  });
}

core::EstimatorSelection timed_selection() {
  register_timed_backends();
  core::EstimatorSelection s;
  s.sw = "timed.sw.iss";
  s.hw_gate = "timed.hw.gate";
  s.cache = "timed.cache.icache";
  s.bus = "timed.bus.arbiter";
  s.noc = "timed.bus.noc";
  return s;
}

}  // namespace e2e
