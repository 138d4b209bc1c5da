//===- resilience/Resilience.cpp - Budgets and graceful degradation -------===//

#include "resilience/Resilience.h"

#include <atomic>
#include <csignal>

namespace rocker::resilience {

const char *rungName(StorageRung R) {
  switch (R) {
  case StorageRung::Exact:
    return "exact";
  case StorageRung::RetiredNoPayload:
    return "no-payload";
  case StorageRung::Bitstate:
    return "bitstate";
  case StorageRung::Sample:
    return "sample";
  }
  return "unknown";
}

std::string bitstateLog2Error(uint64_t K) {
  return "bitstate width " + std::to_string(K) + " outside [" +
         std::to_string(MinBitstateLog2) + ", " +
         std::to_string(MaxBitstateLog2) + "]";
}

namespace {

// Signal handlers may only touch lock-free sig_atomic_t state.
volatile std::sig_atomic_t StopFlag = 0;
std::atomic<bool> HandlersInstalled{false};

void onStopSignal(int) { StopFlag = 1; }

} // namespace

void installStopHandlers() {
  bool Expected = false;
  if (!HandlersInstalled.compare_exchange_strong(Expected, true))
    return;
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
}

bool stopRequested() { return StopFlag != 0; }

void requestStop() { StopFlag = 1; }

void clearStopRequest() { StopFlag = 0; }

unsigned bitstateLog2ForBudget(uint64_t BudgetBytes) {
  // 2^K bits = 2^(K-3) bytes; aim for <= BudgetBytes / 4.
  uint64_t TargetBytes = BudgetBytes / 4;
  unsigned K = 16;
  while (K < 33 && (uint64_t(1) << (K + 1 - 3)) <= TargetBytes)
    ++K;
  return K;
}

} // namespace rocker::resilience
