//===- perfbench/src/SpanLog.cpp - The benchmark's own spans ---------------===//

#include "SpanLog.h"

#include "Metrics.h"

#include <fstream>

namespace perfbench {

double SpanLog::Scope::seconds() const {
  const Rec &R = L.Recs[Idx];
  int64_t End = R.EndNs ? R.EndNs : L.nowNs();
  return (End - R.StartNs) * 1e-9;
}

int64_t SpanLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

uint64_t SpanLog::beginVerdict() { return CurVerdict = NextVerdict++; }

size_t SpanLog::open(std::string Name) {
  Rec R;
  R.Name = std::move(Name);
  R.Id = NextId++;
  R.Parent = Stack.empty() ? 0 : Recs[Stack.back()].Id;
  R.Verdict = CurVerdict;
  R.Pass = CurPass;
  R.StartNs = nowNs();
  Recs.push_back(std::move(R));
  Stack.push_back(Recs.size() - 1);
  return Recs.size() - 1;
}

void SpanLog::close(size_t Idx) {
  Recs[Idx].EndNs = nowNs();
  // Scopes are strictly nested, so the closing span is the innermost.
  if (!Stack.empty() && Stack.back() == Idx)
    Stack.pop_back();
}

bool SpanLog::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  Out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"perfbench\"}}";
  for (const Rec &R : Recs)
    Out << ",\n{\"ph\": \"X\", \"name\": " << jsonString(R.Name)
        << ", \"pid\": 1, \"tid\": 1, \"ts\": " << fmtNumber(R.StartNs / 1e3)
        << ", \"dur\": " << fmtNumber((R.EndNs - R.StartNs) / 1e3)
        << ", \"args\": {\"id\": " << R.Id << ", \"parent\": " << R.Parent
        << ", \"verdict\": " << R.Verdict << ", \"pass\": " << R.Pass << "}}";
  Out << "\n]}\n";
  return static_cast<bool>(Out.flush());
}

} // namespace perfbench
