//===- tools/dra_compare.cpp - Cross-scheme report comparator ---------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
// The compare front end for saved runs, at two granularities.
//
// Both views read "dra-report-v1" documents only (drac --report-json,
// dra-serve --report-json, a sweep's per-job .report.json); any other
// schema is bad input.
//
// Scheme view: diffs one or more reports into the paper's Fig. 9 view:
// per-scheme energy normalized to a baseline scheme, broken down by the
// categories of each run's ledger section, with the sub-break-even
// missed-opportunity energy the compiler restructuring exists to shrink.
//
// Nest view (--nests): compares two reports' attribution sections at
// source-attribution granularity: signed per-nest joule and time deltas,
// sorted by magnitude, so an energy regression (or a restructuring win) is
// pinned to the loop nests that moved. Comparing a
// Base run against a restructured scheme of the same report names the
// nests the compiler transformed.
//
// Usage:
//   dra-compare <report.json>... [options]
//     --baseline-scheme NAME  normalize against NAME (default: Base)
//   dra-compare --nests <a.json> <b.json> [options]
//     --scheme-a NAME  scheme to pick from A (default: pair equal schemes)
//     --scheme-b NAME  scheme to pick from B (default: same as --scheme-a)
//   Both views:
//     --json FILE      write the dra-compare-v1 (scheme view) or
//                      dra-diff-v1 (nest view) document to FILE ('-' for
//                      stdout); the text table still goes to stdout
//                      unless --quiet
//     --quiet          suppress the text table
//
// Exit codes: 0 success, 1 bad input (unreadable file, unknown schema, no
// baseline run for an app, no matching run pair), 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "obs/AttribDiff.h"
#include "obs/CompareReport.h"
#include "support/FileIO.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace dra;

static int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <report.json>... [--baseline-scheme NAME] "
               "[--json FILE] [--quiet]\n"
               "       %s --nests <a.json> <b.json> [--scheme-a NAME] "
               "[--scheme-b NAME] [--json FILE] [--quiet]\n",
               Argv0, Argv0);
  return 2;
}

int main(int argc, char **argv) {
  std::vector<std::string> Files;
  std::string BaselineScheme, SchemeA, SchemeB, JsonOut;
  bool Nests = false, Quiet = false;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--nests") {
      Nests = true;
    } else if (Arg == "--baseline-scheme" && I + 1 != argc) {
      BaselineScheme = argv[++I];
    } else if (Arg == "--scheme-a" && I + 1 != argc) {
      SchemeA = argv[++I];
    } else if (Arg == "--scheme-b" && I + 1 != argc) {
      SchemeB = argv[++I];
    } else if (Arg == "--json" && I + 1 != argc) {
      JsonOut = argv[++I];
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg.rfind("--", 0) == 0) {
      return usage(argv[0]);
    } else {
      Files.push_back(Arg);
    }
  }
  // Each view takes only its own options.
  if (Nests ? Files.size() != 2 || !BaselineScheme.empty()
            : Files.empty() || !SchemeA.empty() || !SchemeB.empty())
    return usage(argv[0]);

  std::string Table, Doc, Error;
  if (Nests) {
    AttribDiff D;
    if (!diffAttribFiles(Files[0], Files[1], SchemeA, SchemeB, D, Error)) {
      std::fprintf(stderr, "dra-compare: error: %s\n", Error.c_str());
      return 1;
    }
    Table = renderAttribDiffTable(D);
    if (!JsonOut.empty())
      Doc = renderAttribDiffJson(D);
  } else {
    Comparison C;
    if (!compareReportFiles(Files,
                            BaselineScheme.empty() ? "Base" : BaselineScheme,
                            C, Error)) {
      std::fprintf(stderr, "dra-compare: error: %s\n", Error.c_str());
      return 1;
    }
    Table = renderCompareTable(C);
    if (!JsonOut.empty())
      Doc = renderCompareJson(C);
  }

  if (!Quiet)
    std::printf("%s", Table.c_str());
  if (!JsonOut.empty()) {
    if (JsonOut == "-") {
      std::printf("%s\n", Doc.c_str());
    } else if (!writeFile(JsonOut, Doc)) {
      std::fprintf(stderr, "dra-compare: error: cannot write '%s'\n",
                   JsonOut.c_str());
      return 1;
    }
  }
  return 0;
}
