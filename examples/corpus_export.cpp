//===- examples/corpus_export.cpp - Write the corpus as .rkr files ----------===//
//
// Usage: corpus_export [directory]   (default: ./programs)
//
// Writes every bundled program (litmus tests, the extended catalog, the
// Figure 7 benchmarks, and the application idioms) as a standalone .rkr
// file with an expected-verdict header, so they can be fed back through
// `rocker_cli <file>` or used as templates for new programs.
//
//===----------------------------------------------------------------------===//

#include "litmus/Corpus.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

using namespace rocker;

static std::string sanitizeFileName(std::string S) {
  for (char &C : S)
    if (!isalnum(static_cast<unsigned char>(C)) && C != '-' && C != '.')
      C = '_';
  return S;
}

static unsigned writeGroup(const std::filesystem::path &Dir,
                           const std::vector<CorpusEntry> &Group,
                           const char *GroupName) {
  unsigned N = 0;
  for (const CorpusEntry &E : Group) {
    std::filesystem::path File =
        Dir / (sanitizeFileName(E.Name) + ".rkr");
    std::ofstream Out(File);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", File.c_str());
      continue;
    }
    Out << "# " << E.Name << " (" << GroupName << ")\n";
    Out << "# " << E.Note << "\n";
    Out << "# expected: "
        << (E.ExpectRobust ? "robust" : "NOT robust")
        << " against release/acquire\n";
    std::string Src = E.Source;
    // Trim one leading newline from raw-string sources.
    if (!Src.empty() && Src[0] == '\n')
      Src.erase(Src.begin());
    Out << Src;
    ++N;
  }
  return N;
}

int main(int argc, char **argv) {
  // One optional operand; anything that looks like a flag (--help
  // included) is refused before a directory is created.
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: corpus_export [directory]   "
                         "(default: ./programs)\n");
    return 3;
  }
  std::filesystem::path Dir = argc > 1 ? argv[1] : "programs";
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s\n", Dir.c_str());
    return 1;
  }
  unsigned N = 0;
  N += writeGroup(Dir, litmusTests(), "litmus, Sections 2-4");
  N += writeGroup(Dir, extraLitmusTests(), "extended litmus catalog");
  N += writeGroup(Dir, figure7Programs(), "Figure 7 benchmark");
  N += writeGroup(Dir, morePrograms(), "application idiom");
  std::printf("wrote %u programs to %s/\n", N, Dir.c_str());
  return 0;
}
