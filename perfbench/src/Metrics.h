//===- perfbench/src/Metrics.h - Metric names, units, result line -*- C++ -*-===//
///
/// \file
/// The benchmark's metric vocabulary. The two spec tables mirror the
/// `end_to_end` and `per_layer` lists of BENCHMARK.json (the self-tests
/// compare them), and every printed metric carries its unit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "lower" or "higher".
};

/// Metrics of an untraced run (`--trace 0`).
const std::vector<MetricSpec> &endToEndSpecs();
/// Metrics of a traced run (`--trace 1`).
const std::vector<MetricSpec> &perLayerSpecs();

/// True when \p Name is a valid metric name: [A-Za-z0-9_.-]+, starting
/// with a letter or digit, at most 64 characters.
bool validMetricName(const std::string &Name);

/// Verdict accounting: every verdict the benchmark checks is attempted;
/// any mismatch against the reference makes it failed.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few mismatch descriptions.

  /// Records one checked verdict; \p Why describes a mismatch.
  void verdict(bool Ok, const std::string &Why);
  double failRatio() const;
  bool correct() const { return Failed == 0 && Attempted > 0; }
};

/// The process exit code for a finished run: nonzero on any mismatch.
int exitCode(const Outcome &O);

/// Values for one spec table; set() rejects names outside the table.
class MetricSet {
public:
  explicit MetricSet(const std::vector<MetricSpec> &Specs);
  void set(const std::string &Name, double Value);
  /// Missing metrics as a list (empty when every spec has a value).
  std::vector<std::string> missing() const;
  /// {"name": {"value": v, "unit": u}, ...} on one line, in spec order.
  std::string json() const;

private:
  const std::vector<MetricSpec> *Specs;
  std::vector<std::pair<bool, double>> Values;
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
std::string resultLine(const Outcome &O, const MetricSet &M);

/// Formats a double with all its significant digits (JSON-safe: NaN and
/// infinities become 0).
std::string fmtNumber(double V);

/// JSON string literal with escapes.
std::string jsonString(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
