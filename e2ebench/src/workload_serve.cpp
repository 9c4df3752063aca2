// serve_warm: an in-process serve::Server, alive for the whole run, with one
// client connection. The client opens a tcpip and a prodcons session, each
// once in-process and once with hw_remote (gate-level HW in forked worker
// processes), and primes them. Each pass then sends warm estimate requests
// that rotate the acceleration mode and the session, and ends with
// checkpoint -> restore into a second server -> replay for every session.
// Only here are the serve protocol, the dist wire and channel and the
// checkpoint on the critical path, and HW is priced almost entirely by warm
// reaction-cache hits: the opposite use of hw.gate from multicore_cold.
#include <algorithm>
#include <memory>
#include <string>
#include <sched.h>
#include <unistd.h>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/system_factory.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace serve = socpower::serve;

constexpr core::Acceleration kModes[] = {
    core::Acceleration::kNone, core::Acceleration::kCaching,
    core::Acceleration::kMacroModel, core::Acceleration::kSampling};
constexpr int kWarmRounds = 10;

// One client sends one request at a time, and the process is pinned to one
// CPU, so a second estimation thread would only add an idle allocator arena
// to the process's memory.
constexpr unsigned kServerThreads = 1;

struct SessionSpec {
  serve::SystemParams system;
  bool remote = false;
  std::size_t reference = 0;  // index of its system in references_
};

serve::RunRequest request(core::Acceleration mode) {
  serve::RunRequest rr;
  rr.accel = static_cast<std::uint8_t>(mode);
  return rr;
}

/// A server plus one connected client; stops the server when destroyed.
class Endpoint {
 public:
  Endpoint(const std::string& path, std::size_t max_sessions, Recorder& rec) {
    serve::ServerConfig cfg;
    cfg.socket_path = path;
    cfg.threads = kServerThreads;
    cfg.max_sessions = max_sessions;
    server_ = std::make_unique<serve::Server>(cfg);
    if (!server_->start()) {
      rec.fail("serve: cannot start a server on " + path);
      return;
    }
    std::string error;
    client_ = serve::Client::connect(path, &error);
    if (!client_.valid()) rec.fail("serve: connect failed: " + error);
    // A hung request fails the run well inside its time limit.
    client_.set_timeout_ms(30'000);
  }
  ~Endpoint() {
    if (server_) server_->stop();
  }
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] bool valid() const { return client_.valid(); }
  serve::Client& client() { return client_; }

 private:
  std::unique_ptr<serve::Server> server_;
  serve::Client client_;
};

class ServeWarm final : public Workload {
 public:
  ServeWarm(std::uint64_t seed, std::string socket_dir)
      : socket_dir_(std::move(socket_dir)) {
    // Pin this thread to the CPU it runs on; the servers' threads and the
    // forked estimator workers are created from it and inherit the mask.
    // Requests are sequential, so this costs only the remote workers'
    // overlap with the master, and it keeps the host's cross-core wake-up
    // latency, which varies two- to three-fold on shared machines, out of
    // every round trip.
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    CPU_SET(static_cast<unsigned>(std::max(::sched_getcpu(), 0)), &cpus);
    (void)::sched_setaffinity(0, sizeof cpus, &cpus);
    socpower::Rng rng(seed);
    serve::SystemParams tcpip;
    tcpip.name = "tcpip";
    tcpip.set("num_packets", 6);
    tcpip.set("packet_bytes", 128);
    tcpip.set("ip_check_in_hw", 1);
    tcpip.set("seed", static_cast<std::int64_t>(rng.below(1u << 30)));
    serve::SystemParams prodcons;
    prodcons.name = "prodcons";
    prodcons.set("num_packets", 10);
    prodcons.set("bytes_per_packet", 24);
    prodcons.set("consumer_base_iterations", rng.range(16, 20));
    prodcons.set("horizon", 4096);
    systems_ = {tcpip, prodcons};
    for (std::size_t s = 0; s < systems_.size(); ++s)
      for (const bool remote : {false, true})
        sessions_.push_back({systems_[s], remote, s});
    // Reference results: a fresh in-process estimator per (system, mode).
    // Every reply, remote or restored, must reproduce them bit for bit.
    for (const serve::SystemParams& sp : systems_) {
      std::vector<std::uint64_t> fps;
      for (const core::Acceleration mode : kModes) {
        std::string error;
        std::unique_ptr<serve::SystemInstance> sys =
            serve::make_system(sp, &error);
        core::CoEstimator est(&sys->network(), {});
        sys->configure(est);
        est.prepare();
        request(mode).apply(&est.config());
        fps.push_back(fingerprint(est.run(sys->stimulus())));
      }
      references_.push_back(std::move(fps));
    }
  }

  [[nodiscard]] std::string config_json() const override {
    std::string systems = "[";
    for (const serve::SystemParams& sp : systems_) {
      Json j;
      j.str("name", sp.name);
      for (const auto& [k, v] : sp.kv) j.integer(k, v);
      systems += (systems.size() > 1 ? ", " : "") + j.done();
    }
    core::CoEstimatorConfig cfg;
    return Json()
        .raw("systems", systems + "]")
        .str("sessions", "each system in-process and with hw_remote")
        .integer("server_threads", kServerThreads)
        .integer("client_connections", 1)
        .str("priming", "once per run: one request per session and mode, "
                        "untimed")
        .integer("warm_rounds", kWarmRounds)
        .str("rotation", "per round: every session x none,caching,"
                         "macromodel,sampling")
        .str("checkpoint", "per pass, every session: checkpoint, restore "
                           "into a second server (max_sessions 1), replay "
                           "the sampling request")
        .raw("config", "{" + config_knobs_json(cfg) + "}")
        .done();
  }

  void open(Recorder& rec, bool traced) override {
    if (!primary_) {
      const std::string base =
          socket_dir_ + "/e2e-" + std::to_string(::getpid());
      primary_ = std::make_unique<Endpoint>(base + "-a.sock", 0, rec);
      // One live session at most: every restore below evicts the previous
      // one, so the next restore of any session is a real one.
      replica_ = std::make_unique<Endpoint>(base + "-b.sock", 1, rec);
    }
    if (!primary_->valid() || !replica_->valid()) return;

    std::vector<std::string>& keys = keys_[traced];
    for (const SessionSpec& spec : sessions_) {
      serve::StructuralConfig structural;
      if (traced) structural.estimators = timed_selection();
      structural.hw_remote = spec.remote;
      const Span span;
      std::string error, key;
      bool created = false;
      if (!primary_->client().open_session(spec.system, structural, &key,
                                           &created, &error) ||
          !created) {
        rec.fail("serve: open_session failed: " + error);
        return;
      }
      const double ms = span.ms();
      rec.setup(ms / 1e3, ms, span.layers());
      rec.sample("serve.open_ms", ms);
      keys.push_back(key);
    }
    // Priming: the first requests of a session fill its ISS block cache and
    // reaction tables; the passes measure the warm service.
    for (std::size_t s = 0; s < sessions_.size(); ++s)
      for (std::size_t m = 0; m < std::size(kModes); ++m)
        if (!estimate(rec, primary_->client(), keys[s], s, m, nullptr)) return;
  }

  void pass(Recorder& rec, bool traced) override {
    const std::vector<std::string>& keys = keys_[traced];
    if (keys.size() != sessions_.size()) {
      rec.fail("serve: sessions are not open");
      return;
    }
    serve::Client& client = primary_->client();
    std::uint64_t hits = 0, fills = 0;
    for (int round = 0; round < kWarmRounds; ++round) {
      for (std::size_t s = 0; s < sessions_.size(); ++s) {
        double exact = 0.0;  // kModes[0] is the exact mode
        for (std::size_t m = 0; m < std::size(kModes); ++m) {
          serve::RequestStats stats;
          core::RunResults res;
          if (!estimate(rec, client, keys[s], s, m, &stats, &res)) return;
          if (m == 0)
            exact = res.total_energy;
          else
            rec.accel_error(res.total_energy, exact);
          hits += stats.warm_hits;
          fills += stats.warm_fills;
        }
      }
    }
    if (hits + fills > 0)
      rec.sample("serve.warm_hit_ratio",
                 static_cast<double>(hits) / static_cast<double>(hits + fills));

    for (std::size_t s = 0; s < sessions_.size(); ++s) {
      Span span;
      std::string error, key;
      std::vector<std::uint8_t> blob;
      if (!client.checkpoint(keys[s], &blob, &error)) {
        rec.fail("serve: checkpoint failed: " + error);
        return;
      }
      rec.sample("serve.checkpoint_ms", span.ms());
      rec.sample("serve.checkpoint_bytes", static_cast<double>(blob.size()));

      span = Span();
      bool restored = false;
      if (!replica_->client().restore(blob, &key, &restored, &error) ||
          !restored) {
        rec.fail("serve: restore failed: " + error);
        return;
      }
      const double ms = span.ms();
      rec.setup(ms / 1e3, ms, span.layers());
      rec.sample("serve.restore_ms", ms);
      if (!estimate(rec, replica_->client(), key, s, std::size(kModes) - 1,
                    nullptr))
        return;
    }
  }

 private:
  /// One estimate round trip of session `s` in mode `m`, checked against
  /// the in-process reference. Timed (a Recorder::op) when `stats` is set.
  bool estimate(Recorder& rec, serve::Client& client, const std::string& key,
                std::size_t s, std::size_t m, serve::RequestStats* stats,
                core::RunResults* out = nullptr) {
    const SessionSpec& spec = sessions_[s];
    const core::Acceleration mode = kModes[m];
    std::string what = "serve " + spec.system.name +
                       (spec.remote ? " remote " : " ") +
                       core::acceleration_name(mode);
    core::RunResults res;
    serve::RequestStats local;
    std::string error;
    const Span span;
    if (!client.estimate(key, request(mode), &res, stats ? stats : &local,
                         &error)) {
      rec.fail(what + ": " + error);
      return false;
    }
    const double ms = span.ms();
    const bool ok = fingerprint(res) == references_[spec.reference][m];
    if (!ok) what += ": differs from the in-process run";
    if (!stats) {
      rec.output(fingerprint(res), ok, what);
      return true;
    }
    rec.op(ms, res, mode, span.layers(), ok, what);
    rec.sample("serve.server_ms", stats->wall_ms);
    rec.sample("serve.ipc_ms", ms - stats->wall_ms);
    rec.ipc_ms += ms - stats->wall_ms;
    if (out) *out = std::move(res);
    return true;
  }

  std::string socket_dir_;
  std::vector<serve::SystemParams> systems_;
  std::vector<SessionSpec> sessions_;
  std::vector<std::vector<std::uint64_t>> references_;
  std::unique_ptr<Endpoint> primary_, replica_;
  std::vector<std::string> keys_[2];  // session keys, by `traced`
};

}  // namespace

std::unique_ptr<Workload> make_serve_warm(std::uint64_t seed,
                                          const std::string& socket_dir) {
  return std::make_unique<ServeWarm>(seed, socket_dir);
}

}  // namespace e2e
