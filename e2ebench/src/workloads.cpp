#include "workloads.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

namespace e2e {

void RunCounts::add(const core::RunResults& r, core::Acceleration accel) {
  reactions += r.reactions;
  iss_calls += r.iss_invocations;
  iss_instructions += r.iss_instructions;
  gate_cycles += r.gate_sim_cycles;
  icache_accesses += r.icache.accesses;
  icache_misses += r.icache.misses;
  invalidations += r.coherence.invalidations;
  writebacks += r.coherence.writebacks;
  bus_bytes += r.bus_totals.bytes;
  bus_grants += r.bus_totals.grants;
  bus_wait_cycles += r.bus_totals.wait_cycles;
  switch (accel) {
    case core::Acceleration::kCaching:
      caching_sw_reactions += r.sw_reactions;
      caching_hits += r.cache_hits_served;
      break;
    case core::Acceleration::kNone:
      none_iss_calls += r.iss_invocations;
      break;
    case core::Acceleration::kSampling:
      sampling_iss_calls += r.iss_invocations;
      break;
    case core::Acceleration::kMacroModel:
      break;
  }
}

RunCounts& RunCounts::operator+=(const RunCounts& o) {
  reactions += o.reactions;
  iss_calls += o.iss_calls;
  iss_instructions += o.iss_instructions;
  gate_cycles += o.gate_cycles;
  icache_accesses += o.icache_accesses;
  icache_misses += o.icache_misses;
  invalidations += o.invalidations;
  writebacks += o.writebacks;
  bus_bytes += o.bus_bytes;
  bus_grants += o.bus_grants;
  bus_wait_cycles += o.bus_wait_cycles;
  caching_sw_reactions += o.caching_sw_reactions;
  caching_hits += o.caching_hits;
  none_iss_calls += o.none_iss_calls;
  sampling_iss_calls += o.sampling_iss_calls;
  return *this;
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
  return *this;
}

Digest& Digest::add(double d) { return add(std::bit_cast<std::uint64_t>(d)); }

std::uint64_t fingerprint(const core::RunResults& r) {
  Digest d;
  d.add(r.total_energy).add(std::uint64_t{r.process_energy.size()});
  for (const double e : r.process_energy) d.add(e);
  d.add(r.cpu_energy).add(r.hw_energy).add(r.bus_energy).add(r.cache_energy);
  d.add(r.leakage_energy).add(std::uint64_t{r.process_leakage.size()});
  for (const double e : r.process_leakage) d.add(e);
  d.add(r.end_time).add(r.reactions).add(r.sw_reactions).add(r.hw_reactions);
  d.add(r.iss_invocations).add(r.iss_instructions).add(r.gate_sim_cycles);
  d.add(r.cache_hits_served);
  d.add(r.icache.accesses).add(r.icache.misses).add(r.icache.penalty_cycles);
  d.add(r.icache.energy);
  const auto& b = r.bus_totals;
  d.add(b.transfers).add(b.grants).add(b.bytes).add(b.addr_toggles);
  d.add(b.data_toggles).add(b.wait_cycles).add(b.energy);
  const auto& c = r.coherence;
  d.add(c.accesses).add(c.l1_hits).add(c.l1_misses).add(c.upgrades);
  d.add(c.invalidations).add(c.writebacks).add(c.energy);
  d.add(std::uint64_t{r.truncated});
  return d.value();
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void Recorder::op(double ms, const core::RunResults& res,
                  core::Acceleration accel, const LayerTotals& layers, bool ok,
                  const std::string& what) {
  op_ms.push_back(ms);
  counts.add(res, accel);
  op_layers += layers;
  const bool fine = ok && !res.truncated;
  output(fingerprint(res), fine,
         res.truncated ? what + ": truncated run" : what);
  probe.maybe_sample();
}

void Recorder::output(std::uint64_t fp, bool ok, const std::string& what) {
  outputs.push_back({fp, ok});
  if (!ok) failures.push_back(what);
}

void Recorder::setup(double seconds, double prep_ms,
                     const LayerTotals& layers) {
  setup_s.push_back(seconds);
  setup_layers += layers;
  prepare_ms += prep_ms;
  ++prepares;
}

void Recorder::accel_error(double approx, double exact) {
  err_pct_sum += exact != 0.0 ? 100.0 * std::fabs(approx - exact) /
                                    std::fabs(exact)
                              : 0.0;
  ++err_n;
}

void Recorder::sample(const std::string& name, double value) {
  samples[name].push_back(value);
}

void Recorder::fail(const std::string& what) {
  output(0, false, what);
}

std::string config_knobs_json(const core::CoEstimatorConfig& c) {
  Json j;
  j.integer("cores", c.cores)
      .str("interconnect", core::interconnect_name(c.interconnect))
      .boolean("coherence", c.coherence.enabled)
      .boolean("enable_icache", c.enable_icache)
      .num("bus_line_cap_f", c.bus.line_cap_f)
      .integer("sync_spin", c.sync_spin)
      .integer("cache_hit_spin", c.cache_hit_spin)
      .boolean("hw_batch", c.hw_batch)
      .integer("hw_flush_threads", c.hw_flush_threads)
      .boolean("hw_reaction_cache", c.hw_reaction_cache)
      .integer("hw_reaction_cache_max_entries",
               static_cast<std::int64_t>(c.hw_reaction_cache_max_entries))
      .boolean("hw_bit_parallel", c.hw_bit_parallel)
      .boolean("accelerate_hw", c.accelerate_hw)
      .boolean("hw_remote", c.hw_remote)
      .integer("hw_analytical_calibration_vectors",
               c.hw_analytical_calibration_vectors)
      .num("ecache_thresh_variance", c.energy_cache.thresh_variance)
      .integer("ecache_thresh_iss_calls",
               static_cast<std::int64_t>(c.energy_cache.thresh_iss_calls))
      .integer("sampling_k_memory",
               static_cast<std::int64_t>(c.sampling.k_memory))
      .num("sampling_keep_ratio", c.sampling.keep_ratio)
      .boolean("verify_lowlevel", c.verify_lowlevel)
      .boolean("keep_power_samples", c.keep_power_samples)
      .str("estimators.sw", c.estimators.sw)
      .str("estimators.hw_gate", c.estimators.hw_gate)
      .str("estimators.cache", c.estimators.cache)
      .str("estimators.bus", c.estimators.bus)
      .str("estimators.noc", c.estimators.noc);
  const std::string s = j.done();
  return s.substr(1, s.size() - 2);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + json_escape(k) + "\": ";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
  return *this;
}

Json& Json::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"" + json_escape(v) + "\"";
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace e2e
