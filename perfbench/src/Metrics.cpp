//===- perfbench/src/Metrics.cpp - Metric names, units, result line --------===//

#include "Metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricSpec> &endToEndSpecs() {
  static const std::vector<MetricSpec> Specs = {
      {"wall_s", "s", "lower"},
      {"verdict_p50_ms", "ms", "lower"},
      {"verdict_p99_ms", "ms", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"setup_s", "s", "lower"},
  };
  return Specs;
}

const std::vector<MetricSpec> &perLayerSpecs() {
  static const std::vector<MetricSpec> Specs = {
      {"lang.parse_us", "us", "lower"},
      {"lang.print_us", "us", "lower"},
      {"monitor.setup_us", "us", "lower"},
      {"monitor.ns_per_check", "ns", "lower"},
      {"monitor.checks_per_transition", "ratio", "lower"},
      {"explore.setup_us", "us", "lower"},
      {"explore.run_s", "s", "lower"},
      {"explore.teardown_s", "s", "lower"},
      {"explore.self_ns_per_transition", "ns", "lower"},
      {"explore.states_per_s", "1/s", "higher"},
      {"explore.rss_bytes_per_state", "B", "lower"},
      {"explore.peak_frontier", "count", "lower"},
      {"por.ample_ratio", "ratio", "higher"},
      {"por.saved_steps_per_state", "ratio", "higher"},
      {"visited.ns_per_probe", "ns", "lower"},
      {"visited.dedup_ratio", "ratio", "lower"},
      {"visited.bytes_per_state", "B", "lower"},
      {"visited.compression_ratio", "ratio", "higher"},
      {"parexplore.states_per_s", "1/s", "higher"},
      {"parexplore.worker_imbalance", "ratio", "lower"},
      {"parexplore.steal_success_ratio", "ratio", "higher"},
      {"parexplore.steal_batch_mean", "count", "higher"},
      {"parexplore.teardown_s", "s", "lower"},
      {"visited.probe_steps_per_probe", "ratio", "lower"},
      {"visited.cas_retries_per_insert", "ratio", "lower"},
      {"visited.growths", "count", "lower"},
      {"rocker.verdict_s.lamport2-3-ra", "s", "lower"},
      {"rocker.verdict_s.seqlock", "s", "lower"},
      {"rocker.violation_render_us", "us", "lower"},
      {"obs.report_us", "us", "lower"},
      {"serve.cache_key_us", "us", "lower"},
      {"serve.lookup_hit_us", "us", "lower"},
      {"serve.job_overhead_ms", "ms", "lower"},
      {"serve.queue_wait_ms_p50", "ms", "lower"},
      {"serve.hit_ratio", "ratio", "higher"},
      {"serve.batch_self_s", "s", "lower"},
      {"obs.trace_overhead_pct", "%", "lower"},
  };
  return Specs;
}

bool validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum((unsigned char)Name[0]))
    return false;
  for (char C : Name)
    if (!std::isalnum((unsigned char)C) && C != '_' && C != '.' && C != '-')
      return false;
  return true;
}

void Outcome::verdict(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Why);
}

double Outcome::failRatio() const {
  return Attempted ? static_cast<double>(Failed) / Attempted : 1.0;
}

int exitCode(const Outcome &O) { return O.correct() ? 0 : 1; }

MetricSet::MetricSet(const std::vector<MetricSpec> &Specs)
    : Specs(&Specs), Values(Specs.size(), {false, 0.0}) {}

void MetricSet::set(const std::string &Name, double Value) {
  for (size_t I = 0; I != Specs->size(); ++I)
    if (Name == (*Specs)[I].Name) {
      Values[I] = {true, Value};
      return;
    }
  std::fprintf(stderr, "perfbench: internal error: unknown metric %s\n",
               Name.c_str());
  std::abort();
}

std::vector<std::string> MetricSet::missing() const {
  std::vector<std::string> Out;
  for (size_t I = 0; I != Specs->size(); ++I)
    if (!Values[I].first)
      Out.push_back((*Specs)[I].Name);
  return Out;
}

std::string MetricSet::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != Specs->size(); ++I) {
    if (!Values[I].first)
      continue;
    if (Out.size() > 1)
      Out += ", ";
    Out += jsonString((*Specs)[I].Name) + ": {\"value\": " +
           fmtNumber(Values[I].second) +
           ", \"unit\": " + jsonString((*Specs)[I].Unit) + "}";
  }
  return Out + "}";
}

std::string resultLine(const Outcome &O, const MetricSet &M) {
  return std::string("{\"correct\": ") + (O.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(O.Attempted) +
         ", \"failed\": " + std::to_string(O.Failed) +
         ", \"metrics\": " + M.json() + "}";
}

std::string fmtNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

} // namespace perfbench
