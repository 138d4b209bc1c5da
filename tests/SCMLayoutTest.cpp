//===- tests/SCMLayoutTest.cpp - SCM state buffer and key layout -----------===//
//
// SCMState keeps M and its bit-set tables in one buffer, and SCMonitor
// writes visited-set keys through fixed-length chunk writers. These tests
// pin both against the straightforward encoder they replaced, kept here
// as the reference, and pin decodeState as the key's exact inverse:
//
//  * serialize, serializeComponents and serializeComponent(i) agree byte
//    for byte with the reference, and decodeState(serialize(S)) == S,
//    along random walks of every corpus program, in both abstraction
//    modes, and on a 12-value program whose value sets need two bytes;
//  * every reachable state of the Figure 7 and litmus programs, and of
//    random programs, round-trips through its key, in both modes;
//  * copy, move and assignment give independent states.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "lang/Step.h"
#include "litmus/Corpus.h"
#include "monitor/SCMState.h"
#include "support/StateKey.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace rocker;

namespace {

/// The byte-at-a-time key encoder the fixed-layout writers replaced.
class ReferenceEncoder {
public:
  ReferenceEncoder(const Program &P, const SCMonitor &Mon)
      : NumThreads(P.numThreads()), NumLocs(P.numLocs()),
        NumVals(P.NumVals), Abstract(Mon.isAbstract()),
        Crit(Mon.criticalValues()) {}

  std::string global(const SCMState &S) const {
    std::string Out;
    unsigned LocB = (NumLocs + 7) / 8;
    Out.append(reinterpret_cast<const char *>(S.M.data()), S.M.size());
    for (const BitSet64 &B : S.MSC)
      appendMask(Out, B.mask(), LocB);
    for (const BitSet64 &B : S.WSC)
      appendMask(Out, B.mask(), LocB);
    for (unsigned I = 0; I != S.W.size(); ++I)
      appendValSet(Out, S.W[I], static_cast<LocId>(I % NumLocs));
    for (unsigned I = 0; I != S.WRmw.size(); ++I)
      appendValSet(Out, S.WRmw[I], static_cast<LocId>(I % NumLocs));
    for (const BitSet64 &B : S.CW)
      appendMask(Out, B.mask(), LocB);
    for (const BitSet64 &B : S.CWRmw)
      appendMask(Out, B.mask(), LocB);
    return Out;
  }

  std::string thread(const SCMState &S, unsigned T) const {
    std::string Out;
    unsigned LocB = (NumLocs + 7) / 8;
    appendMask(Out, S.VSC[T].mask(), LocB);
    for (unsigned X = 0; X != NumLocs; ++X)
      appendValSet(Out, S.V[T * NumLocs + X], static_cast<LocId>(X));
    for (unsigned X = 0; X != NumLocs; ++X)
      appendValSet(Out, S.VRmw[T * NumLocs + X], static_cast<LocId>(X));
    if (!S.CV.empty()) {
      appendMask(Out, S.CV[T].mask(), LocB);
      appendMask(Out, S.CVRmw[T].mask(), LocB);
    }
    return Out;
  }

  std::vector<std::string> components(const SCMState &S) const {
    std::vector<std::string> Chunks{global(S)};
    for (unsigned T = 0; T != NumThreads; ++T)
      Chunks.push_back(thread(S, T));
    return Chunks;
  }

private:
  static void appendMask(std::string &Out, uint64_t Mask, unsigned Bytes) {
    for (unsigned I = 0; I != Bytes; ++I)
      Out.push_back(static_cast<char>((Mask >> (8 * I)) & 0xff));
  }

  // Abstract mode packs a location's critical values into
  // ceil(|Val(P,y)|/8) bytes, in increasing value order.
  void appendValSet(std::string &Out, const BitSet64 &B, LocId Y) const {
    if (!Abstract) {
      appendMask(Out, B.mask(), (NumVals + 7) / 8);
      return;
    }
    uint64_t Packed = 0;
    unsigned Bit = 0;
    for (unsigned V : Crit[Y]) {
      if (B.contains(V))
        Packed |= static_cast<uint64_t>(1) << Bit;
      ++Bit;
    }
    appendMask(Out, Packed, (Bit + 7) / 8);
  }

  unsigned NumThreads;
  unsigned NumLocs;
  unsigned NumVals;
  bool Abstract;
  std::vector<BitSet64> Crit;
};

/// Decodes \p Key (followed by KeySlack bytes of \p Junk, which the word
/// loads may read but must not use) into \p Back, reporting a wrong
/// length at \p Where.
void decodeKey(const SCMonitor &Mon, const std::string &Key, char Junk,
               SCMState &Back, const std::string &Where) {
  std::string Padded = Key + std::string(KeySlack, Junk);
  const char *End = Mon.decodeState(Padded.data(), Back);
  EXPECT_EQ(End, Padded.data() + Key.size()) << Where << ": key length";
  EXPECT_EQ(Key.size(), Mon.stateKeyBytes()) << Where << ": key length";
}

/// Checks every encoder of \p Mon on \p S against the reference, and
/// that the key decodes back to \p S; returns false (after recording the
/// failure) on the first mismatch.
bool encodersMatch(const SCMonitor &Mon, const ReferenceEncoder &Ref,
                   const SCMState &S, const std::string &Where) {
  std::vector<std::string> Want = Ref.components(S);
  std::string WantKey;
  for (const std::string &C : Want)
    WantKey += C;

  // Keys are appended, so start from a non-empty buffer.
  std::string Key = "pre";
  Mon.serialize(S, Key);
  EXPECT_EQ(Key, "pre" + WantKey) << Where << ": serialize";

  std::string Comp = "pre";
  std::vector<std::string> Chunks;
  size_t Start = Comp.size();
  Mon.serializeComponents(S, Comp, [&] {
    Chunks.push_back(Comp.substr(Start));
    Start = Comp.size();
  });
  EXPECT_EQ(Chunks, Want) << Where << ": serializeComponents";

  for (unsigned I = 0; I != Mon.numComponents(); ++I) {
    std::string One = "pre";
    Mon.serializeComponent(S, I, One);
    EXPECT_EQ(One, "pre" + Want[I]) << Where << ": serializeComponent "
                                    << I;
  }

  // Into an empty state, and into a reused one of the right shape whose
  // old contents (decoded from an all-ones key) must all be overwritten.
  SCMState Back;
  decodeKey(Mon, WantKey, '\x00', Back, Where);
  EXPECT_TRUE(Back == S) << Where << ": decode(serialize(S))";
  decodeKey(Mon, std::string(WantKey.size(), '\xff'), '\xff', Back, Where);
  decodeKey(Mon, WantKey, '\xff', Back, Where);
  EXPECT_TRUE(Back == S) << Where << ": decode(serialize(S)), reused";
  return !::testing::Test::HasFailure();
}

/// Random walks of the product P × SCM from the initial state (every
/// enabled step equally likely), checking the encoders at each state.
/// Returns the number of states checked.
unsigned checkWalks(const Program &P, bool Abstract, unsigned Walks,
                    unsigned Len, uint32_t Seed) {
  SCMonitor Mon(P, Abstract);
  ReferenceEncoder Ref(P, Mon);
  std::mt19937 Rng(Seed);
  struct Succ {
    std::vector<ThreadState> Threads;
    SCMState M;
  };
  unsigned Checked = 0;
  for (unsigned Walk = 0; Walk != Walks; ++Walk) {
    std::vector<ThreadState> Threads;
    for (const SequentialProgram &S : P.Threads)
      Threads.push_back(ThreadState::initial(S));
    SCMState M = Mon.initial();
    for (unsigned Step = 0; Step <= Len; ++Step) {
      std::string Where = P.Name + (Abstract ? " abstract" : " full") +
                          " walk " + std::to_string(Walk) + " step " +
                          std::to_string(Step);
      if (!encodersMatch(Mon, Ref, M, Where))
        return Checked;
      ++Checked;
      std::vector<Succ> Next;
      for (unsigned T = 0; T != P.numThreads(); ++T) {
        ThreadId Tid = static_cast<ThreadId>(T);
        ThreadStep St = inspectThread(P, Tid, Threads[T]);
        if (St.K == ThreadStep::Kind::Local) {
          Next.push_back({Threads, M});
          Next.back().Threads[T] = St.Next;
        } else if (St.K == ThreadStep::Kind::Access) {
          Mon.enumerate(M, Tid, St.A, [&](const Label &L, SCMState &&M2) {
            Next.push_back({Threads, std::move(M2)});
            Next.back().Threads[T] =
                applyAccess(P, Tid, Threads[T], St.A, L);
          });
        }
      }
      if (Next.empty())
        break;
      Succ &Pick = Next[std::uniform_int_distribution<size_t>(
          0, Next.size() - 1)(Rng)];
      Threads = std::move(Pick.Threads);
      M = std::move(Pick.M);
    }
  }
  return Checked;
}

std::vector<const CorpusEntry *> allCorpusEntries() {
  std::vector<const CorpusEntry *> All;
  for (const std::vector<CorpusEntry> *C :
       {&litmusTests(), &extraLitmusTests(), &figure7Programs(),
        &morePrograms()})
    for (const CorpusEntry &E : *C)
      All.push_back(&E);
  return All;
}

/// Twelve values: a register-expected CAS makes every value of x critical
/// (12 > 8, so packed sets of x span two bytes), and y's only critical
/// value, 10, sits in the second byte of its mask.
constexpr const char *Vals12Source = R"(
program vals12
vals 12
locs x y z
na d

thread t0
l:
  a := x
  b := a + 5
  r := CAS(x, a => b)
  y := b
  z := a
  d := a
  if a != 3 goto l

thread t1
  c := FADD(x, 7)
  y := 10
  wait(y == 10)
  z := c

thread t2
  e := XCHG(y, 11)
  f := z
  x := f
  g := d
)";

} // namespace

TEST(SCMLayout, CorpusWalksMatchReferenceEncoder) {
  std::vector<const CorpusEntry *> All = allCorpusEntries();
  ASSERT_GE(All.size(), 25u);
  uint32_t Seed = 1;
  unsigned Checked = 0;
  for (const CorpusEntry *E : All) {
    Program P = E->parse();
    for (bool Abstract : {false, true}) {
      Checked += checkWalks(P, Abstract, /*Walks=*/3, /*Len=*/60, Seed++);
      if (HasFailure())
        return;
    }
  }
  // Walks end early at halted or blocked states; most still go deep.
  EXPECT_GT(Checked, 5000u);
}

TEST(SCMLayout, TwoByteValueSetsMatchReferenceEncoder) {
  Program P = parseProgramOrDie(Vals12Source);
  ASSERT_EQ(P.NumVals, 12u);
  SCMonitor Abs(P, /*Abstract=*/true);
  ASSERT_EQ(Abs.criticalValues()[0].size(), 12u);
  ASSERT_TRUE(Abs.criticalValues()[1].contains(10));
  for (bool Abstract : {false, true})
    EXPECT_GT(checkWalks(P, Abstract, /*Walks=*/20, /*Len=*/80,
                         /*Seed=*/Abstract ? 7 : 8),
              500u);
}

TEST(SCMLayout, CopyMoveAndAssignmentAreIndependent) {
  Program P = findCorpusEntry("lamport2-3-ra").parse();
  for (bool Abstract : {false, true}) {
    SCMonitor Mon(P, Abstract);
    SCMState S = Mon.initial();
    Mon.stepWrite(S, 0, 0, 1, /*IsNA=*/false);
    Mon.stepWrite(S, 1, 0, 2, /*IsNA=*/false);
    const SCMState Orig = S;
    ASSERT_TRUE(Orig == S);

    // A mutated copy leaves the original unchanged.
    SCMState Copy = S;
    Mon.stepRead(Copy, 2, 0, /*IsNA=*/false);
    Mon.stepWrite(Copy, 2, 1, 1, /*IsNA=*/false);
    EXPECT_FALSE(Copy == S);
    EXPECT_TRUE(S == Orig);

    // Copy assignment, into a state of another shape and into one of the
    // same shape.
    SCMState Other;
    Other = Copy;
    EXPECT_TRUE(Other == Copy);
    Other.M[1] = 0;
    EXPECT_EQ(Copy.M[1], 1);
    Other = S;
    EXPECT_TRUE(Other == S);

    // Self-assignment is safe.
    SCMState &Alias = Other;
    Other = Alias;
    EXPECT_TRUE(Other == S);

    // A moved-to state equals the original.
    SCMState Moved = std::move(Other);
    EXPECT_TRUE(Moved == S);
    SCMState MoveAssigned;
    MoveAssigned = std::move(Moved);
    EXPECT_TRUE(MoveAssigned == S);

    // Field assignment copies the viewed elements.
    SCMState Fields = Mon.initial();
    Fields.V = S.V;
    EXPECT_TRUE(std::equal(Fields.V.begin(), Fields.V.end(), S.V.begin(),
                           S.V.end()));
    Fields.V[0] = BitSet64::allBelow(3);
    EXPECT_FALSE(S.V[0] == BitSet64::allBelow(3));

  }
}

/// Round-trips every reachable product state of \p P through its key:
/// the monitor part through decodeState, and the whole product state
/// through decodeProductStateKey. Returns the number of states checked.
uint64_t roundTripReachable(const Program &P, bool Abstract,
                            const std::string &Where) {
  SCMonitor Mon(P, Abstract);
  std::vector<ThreadState> Threads;
  for (const SequentialProgram &S : P.Threads)
    Threads.push_back(ThreadState::initial(S));
  SCMState Back;
  uint64_t Checked = 0, Failed = 0;
  ExploreOptions EO;
  EO.RecordParents = false;
  EO.StopOnViolation = false;
  ExploreResult R = test::forEachReachableState(
      P, Mon, EO, [&](const auto &S) {
        ++Checked;
        std::string Key = productStateKey(Mon, S.Threads, S.M);
        Key.append(KeySlack, '\xa5');
        const char *End =
            decodeProductStateKey(Mon, Key.data(), Threads, Back);
        if (End != Key.data() + Key.size() - KeySlack ||
            !(Threads == S.Threads) || !(Back == S.M))
          ++Failed;
      });
  EXPECT_FALSE(R.Stats.Truncated) << Where;
  EXPECT_EQ(Checked, R.Stats.NumStates) << Where;
  EXPECT_EQ(Failed, 0u) << Where;
  return Checked;
}

TEST(SCMLayout, ReachableStatesRoundTripThroughKeys) {
  std::vector<const CorpusEntry *> Programs;
  for (const std::vector<CorpusEntry> *C :
       {&litmusTests(), &extraLitmusTests(), &figure7Programs()})
    for (const CorpusEntry &E : *C)
      Programs.push_back(&E);
  uint64_t Checked = 0;
  for (const CorpusEntry *E : Programs) {
    Program P = E->parse();
    for (bool Abstract : {false, true})
      Checked += roundTripReachable(
          P, Abstract, P.Name + (Abstract ? " abstract" : " full"));
    if (HasFailure())
      return;
  }
  EXPECT_GT(Checked, 100000u);

  std::mt19937 Rng(17);
  test::RandomProgramOptions O;
  O.AllowBlocking = true;
  O.NumNaLocs = 1;
  for (unsigned I = 0; I != 200; ++I) {
    Program P = test::randomProgram(Rng, O);
    for (bool Abstract : {false, true})
      roundTripReachable(P, Abstract,
                         "random program " + std::to_string(I) +
                             (Abstract ? " abstract" : " full"));
    if (HasFailure())
      return;
  }
}

TEST(SCMLayout, CheckedKeyDecodeRejectsMalformedKeys) {
  // Checkpoint keys come from outside the process: only a key that
  // decodes and serializes back to itself is accepted.
  Program P = findCorpusEntry("lamport2-3-ra").parse();
  SCMonitor Mon(P, /*Abstract=*/true);
  std::vector<ThreadState> Threads;
  for (const SequentialProgram &S : P.Threads)
    Threads.push_back(ThreadState::initial(S));
  SCMState M = Mon.initial();
  Mon.stepWrite(M, 0, 0, 1, /*IsNA=*/false);
  Threads[1].Pc = 300; // A two-byte varint.
  std::string Key = productStateKey(Mon, Threads, M);

  std::vector<ThreadState> Back = Threads;
  for (ThreadState &TS : Back)
    TS.Pc = 0;
  SCMState BackM;
  ASSERT_TRUE(decodeProductStateKeyChecked(Mon, Key, Back, BackM));
  EXPECT_TRUE(Back == Threads);
  EXPECT_TRUE(BackM == M);

  auto Rejects = [&](const std::string &Bad) {
    return !decodeProductStateKeyChecked(Mon, Bad, Back, BackM);
  };
  EXPECT_TRUE(Rejects(""));
  EXPECT_TRUE(Rejects(Key.substr(0, Key.size() - 1)));
  EXPECT_TRUE(Rejects(Key + '\0'));
  // A varint that never ends.
  EXPECT_TRUE(Rejects(std::string(Key.size(), '\x80')));
  // A set of locations with a bit past the last location decodes to a
  // state whose key differs.
  std::string Stray = Key;
  size_t Global = Key.size() - Mon.stateKeyBytes();
  ASSERT_LT(P.numLocs(), 8u);
  Stray[Global + P.numLocs()] = static_cast<char>(0x80); // MSC[0].
  EXPECT_TRUE(Rejects(Stray));
}
