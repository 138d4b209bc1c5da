//===- perfbench/src/Generator.cpp - Seeded corpus generator ---------------===//

#include "Generator.h"

#include "lang/Expr.h"
#include "lang/Printer.h"
#include "lang/Program.h"

#include <algorithm>

using namespace rocker;

namespace perfbench {
namespace {

/// splitmix64: a fixed, library-independent stream.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform-enough pick in [0, N).
  unsigned pick(unsigned N) { return static_cast<unsigned>(next() % N); }
  /// Uniform-enough pick in [Lo, Hi].
  unsigned range(unsigned Lo, unsigned Hi) { return Lo + pick(Hi - Lo + 1); }

private:
  uint64_t S;
};

/// Prefix + decimal N (built by appending: GCC 12 warns spuriously on
/// `"x" + std::to_string(N)`).
std::string named(const char *Prefix, unsigned N) {
  std::string S(Prefix);
  S += std::to_string(N);
  return S;
}

std::string generateOne(Rng &R, unsigned Index) {
  unsigned NumVals = R.range(2, 3);
  unsigned NumThreads = R.range(2, 4);
  unsigned NumRaLocs = R.range(1, 3);
  bool WithNa = R.pick(4) == 0;
  // The oracle's state space grows steeply with the total instruction
  // count (seven instructions over four threads can take it past a
  // second), so the whole program gets at most six.
  unsigned Budget = 6;

  ProgramBuilder B(named("gen", Index), NumVals);
  std::vector<LocId> Locs;
  for (unsigned L = 0; L != NumRaLocs; ++L)
    Locs.push_back(B.addLoc(named("x", L)));
  LocId Na = WithNa ? B.addNaLoc("d") : 0;

  auto Const = [&] { return Expr::makeConst(static_cast<Val>(R.pick(NumVals))); };
  for (unsigned T = 0; T != NumThreads; ++T) {
    B.beginThread(named("t", T));
    unsigned Left = NumThreads - 1 - T; // Later threads get one each.
    unsigned NumInsts = R.range(1, std::min(3u, Budget - Left));
    Budget -= NumInsts;
    for (unsigned I = 0; I != NumInsts; ++I) {
      LocId X = Locs[R.pick(NumRaLocs)];
      RegId Reg = B.reg(named("r", R.pick(2)));
      if (WithNa && R.pick(4) == 0) {
        if (R.pick(2))
          B.store(Na, Const());
        else
          B.load(Reg, Na);
        continue;
      }
      switch (R.pick(12)) {
      case 0:
      case 1:
      case 2:
        B.store(X, Const());
        break;
      case 3:
      case 4:
      case 5:
        B.load(Reg, X);
        break;
      case 6:
        B.fadd(Reg, X, Expr::makeConst(1));
        break;
      case 7:
        B.xchg(Reg, X, Const());
        break;
      case 8:
        B.cas(Reg, X, Const(), Const());
        break;
      case 9:
        B.fence();
        break;
      case 10:
        B.wait(X, Const());
        break;
      case 11:
        B.bcas(X, Const(), Const());
        break;
      }
    }
  }
  return toString(B.build());
}

} // namespace

std::vector<GeneratedProgram> generateCorpus(uint64_t Seed, unsigned Count) {
  Rng R(Seed);
  std::vector<GeneratedProgram> Out;
  Out.reserve(Count);
  for (unsigned I = 0; I != Count; ++I)
    Out.push_back({named("gen", I), generateOne(R, I)});
  return Out;
}

} // namespace perfbench
