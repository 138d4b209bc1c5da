//===- perfbench/src/Generator.h - Seeded corpus generator -----*- C++ -*-===//
///
/// \file
/// Generates the seeded part of the benchmark's corpus as `.rkr` text.
/// Programs are built with ProgramBuilder and rendered by the repository's
/// printer, so the program under test only ever receives text and has to
/// parse it. Every program is loop-free (no branches at all), which keeps
/// the P×RAG reference oracle finite.
///
/// The pseudo-random source is a fixed splitmix64 stream reduced by
/// modulo, not a <random> distribution, so one seed gives byte-identical
/// output under every standard library.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One generated program: a stable name and its `.rkr` text.
struct GeneratedProgram {
  std::string Name;
  std::string Text;
};

/// Generates \p Count programs from \p Seed. Programs have 2–4 threads,
/// 1–3 release/acquire locations, an optional non-atomic location, a
/// value domain of 2–3 values and a mix of loads, stores, RMWs (FADD,
/// XCHG, CAS), fences, blocking wait/BCAS and non-atomic accesses.
std::vector<GeneratedProgram> generateCorpus(uint64_t Seed, unsigned Count);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
