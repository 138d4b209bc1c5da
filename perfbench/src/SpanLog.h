//===- perfbench/src/SpanLog.h - The benchmark's own spans -----*- C++ -*-===//
///
/// \file
/// In-memory span recording for traced runs. The benchmark opens a span
/// around each public call it makes into a layer (parse, monitor and
/// explorer construction, the run, teardown, rendering, cache key,
/// lookup); spans of one verdict share its id, and every span names the
/// span that caused it. The log is written once, at exit, as Chrome
/// trace-event JSON next to the flight recorder's output.
///
/// Single-threaded: only the benchmark's driving thread records spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANLOG_H
#define PERFBENCH_SPANLOG_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
public:
  struct Rec {
    std::string Name;
    uint64_t Id = 0;
    uint64_t Parent = 0;  ///< 0 = root.
    uint64_t Verdict = 0; ///< 0 = not inside a verdict.
    unsigned Pass = 0;    ///< Traced pass index.
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    double seconds() const { return (EndNs - StartNs) * 1e-9; }
  };

  /// RAII span; the destructor closes it.
  class Scope {
  public:
    Scope(SpanLog &L, std::string Name) : L(L), Idx(L.open(std::move(Name))) {}
    ~Scope() { L.close(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Duration so far (or the final one once closed).
    double seconds() const;

  private:
    SpanLog &L;
    size_t Idx;
  };

  /// Starts a new verdict: spans opened until endVerdict() carry its id.
  uint64_t beginVerdict();
  void endVerdict() { CurVerdict = 0; }
  void setPass(unsigned P) { CurPass = P; }

  const std::vector<Rec> &records() const { return Recs; }

  /// Writes Chrome trace-event JSON ("X" events, args = id, parent,
  /// verdict, pass). Returns false on I/O error.
  bool writeChromeJson(const std::string &Path) const;

private:
  size_t open(std::string Name);
  void close(size_t Idx);
  int64_t nowNs() const;

  std::chrono::steady_clock::time_point Origin = std::chrono::steady_clock::now();
  std::vector<Rec> Recs;
  std::vector<size_t> Stack;
  uint64_t NextId = 1;
  uint64_t NextVerdict = 1;
  uint64_t CurVerdict = 0;
  unsigned CurPass = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANLOG_H
