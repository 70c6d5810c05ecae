#!/usr/bin/env python3
"""Architecture guards: source-tree greps that hold the project's
one-mechanism rules.

Each guard is a (pattern, paths, allowlist, reason) record. A line of a
file under `paths` (a directory, searched recursively, or one file) that
matches `pattern` fails the guard unless its `path:line:text` form
matches `allowlist`, exactly as `grep -rnE pattern paths | grep -vE
allowlist` would report it. A guard with `suffixes` reads only files
ending in one of them, like grep's --include. Every guard also carries a
planted violation: the self-test writes it into an empty scratch tree and
requires the guard to catch it, so a guard whose pattern has rotted into
matching nothing fails too.

Usage: arch_guards.py --source-dir DIR
"""

import argparse
import os
import re
import sys
import tempfile
from dataclasses import dataclass


@dataclass(frozen=True)
class Guard:
    name: str
    pattern: str
    paths: tuple
    allowlist: str
    reason: str
    # (relative path, file text) of a violation the guard must catch.
    planted: tuple
    # File-name endings to read; empty reads every file.
    suffixes: tuple = ()


# An allowlist that allows nothing.
NOTHING = r"(?!)"
# Comment lines, in `path:line:text` form.
COMMENT_LINE = r"^[^:]+:[0-9]+:\s*//"


GUARDS = [
    # One compile path (docs/PERFORMANCE.md): every compile-side pass reads
    # tile accesses from the shared TileAccessTable. A new re-evaluating
    # twin shows up as a fresh call to the virtual execution, so any call
    # outside this allowlist fails:
    #   src/ir/                          Program defines it; TileAccessTable
    #                                    is the one pass built on it.
    #   src/analysis/IterationGraph.cpp  the Program-based reference build
    #                                    the table build is tested against.
    #   src/verify/ScheduleVerifier.cpp  the Full-level independent
    #                                    re-derivation, one walk that must
    #                                    not trust the table it checks.
    Guard(
        name="No table-less twins of the access table",
        pattern=r"\b(appendTouchedTiles|touchedTiles)\(",
        paths=("src",),
        allowlist=r"^src/(ir/|analysis/IterationGraph\.cpp:"
                  r"|verify/ScheduleVerifier\.cpp:)",
        reason="call the shared TileAccessTable instead of re-evaluating "
               "subscripts",
        planted=("src/core/Twin.cpp",
                 "void twin(const Program &P, IterSpan I,\n"
                 "          std::vector<TileAccess> &Out) {\n"
                 "  P.appendTouchedTiles(0, I, Out);\n"
                 "}\n"),
    ),
    # One disk timing model (DESIGN.md Sec. 11): service times, idle-gap
    # outcomes and the DRPM controller are computed only inside
    # DiskTimingModel, whose private evaluateIdleGap is the one policy
    # dispatch; Disk, the sharded coordinator and every energy the layout
    # optimizer ranks run that model. A second timing path shows up as a
    # fresh call to one of the three timing primitives, so any call outside
    # this allowlist fails:
    #   src/sim/DiskTimingModel.h   the model itself.
    #   src/sim/{TpmPolicy,DrpmPolicy,PowerModel}.{h,cpp}
    #                               the primitives' own files.
    Guard(
        name="One disk timing model",
        pattern=r"\b(serviceMs|evaluateIdle|onRequestServiced)\(",
        paths=("src",),
        allowlist=r"^src/sim/(DiskTimingModel\.h"
                  r"|(TpmPolicy|DrpmPolicy|PowerModel)\.(h|cpp)):",
        reason="compute disk timing through DiskTimingModel "
               "(sim/DiskTimingModel.h)",
        planted=("src/core/Estimate.cpp",
                 "double estimate(const PowerModel &PM, uint64_t Bytes) {\n"
                 "  return PM.serviceMs(Bytes, PM.params().MaxRpm, false);\n"
                 "}\n"),
    ),
    # One record per idle gap (sim/IdleOutcome.h): a gap's energy is stated
    # once, as its time-ordered slices, and IdleOutcome::add is the only
    # code that charges GapEnergyJ and the category fields from them. Any
    # assignment to those fields elsewhere in src/ would be a second
    # statement of the same energy.
    Guard(
        name="One record per idle gap",
        pattern=r"(\.|->)(GapEnergyJ|SpinDownEnergyJ|StandbyEnergyJ"
                r"|RpmStepEnergyJ)\s*[-+*/]?=([^=]|$)",
        paths=("src",),
        allowlist=r"^src/sim/IdleOutcome\.h:",
        reason="charge idle-gap energy through IdleOutcome::add "
               "(sim/IdleOutcome.h)",
        planted=("src/sim/Disk.cpp",
                 "void charge(IdleOutcome &O, double Extra) {\n"
                 "  O.StandbyEnergyJ += Extra;\n"
                 "}\n"),
    ),
    # One exact-double formatter (docs/PERFORMANCE.md "Export path"):
    # appendExactDouble in src/support/ prints "%.17g" text through
    # std::to_chars, and every exporter appends through it. Any "%.17g" in
    # src/ fails, except on comment lines in src/support/ that document
    # what the formatter prints; a printf "%.17g" there or anywhere else is
    # a second, slower formatter.
    Guard(
        name="No printf exact-double formatter",
        pattern=r"%\.17g",
        paths=("src",),
        allowlist=r"^src/support/[^:]+:[0-9]+:\s*//",
        reason="append through appendExactDouble/appendJsonNumber "
               "(support/) instead of printf %.17g",
        planted=("src/obs/Export.cpp",
                 "void put(std::string &Out, double V) {\n"
                 "  char Buf[32];\n"
                 "  std::snprintf(Buf, sizeof Buf, \"%.17g\", V);\n"
                 "  Out += Buf;\n"
                 "}\n"),
    ),
    # One file reader/writer (support/FileIO.h): readFile and writeFile
    # check every step, through the close, and every whole-file read or
    # write in src/, tools/ and bench/ goes through them. A fresh fopen or
    # file stream is a second, unchecked copy, so any use outside this
    # allowlist fails:
    #   src/support/            the reader and writer themselves.
    #   src/trace/TraceIO.cpp   the dra-trace format, which streams line by
    #                           line instead of whole files.
    Guard(
        name="One file reader/writer",
        pattern=r"\bfopen\(|std::(ifstream|ofstream)\b",
        paths=("src", "tools", "bench"),
        allowlist=r"^src/(support/|trace/TraceIO\.cpp:)",
        reason="read and write whole files through readFile/writeFile "
               "(support/FileIO.h)",
        planted=("tools/dump.cpp",
                 "void dump(const std::string &Path, const std::string &S) {\n"
                 "  std::ofstream Out(Path);\n"
                 "  Out << S;\n"
                 "}\n"),
    ),
    # Results are written once (DESIGN.md Sec. 11): both engines build
    # SimResults once, in disk order, in replayAndAssemble, and every disk
    # writes its own DiskTimeline slot of the run, so no partial result is
    # ever combined. A merge( in the simulator or the timeline is a second
    # writer of the same result, so any call there fails:
    #   src/sim/                  the engines and their results.
    #   src/obs/Timeline.{h,cpp}  the per-disk timeline slots.
    # DurationHistogram::merge (support/) and LagHistogram::merge (serve/)
    # combine samples, not results, and stay outside the guard.
    Guard(
        name="Results are written once",
        pattern=r"merge\(",
        paths=("src/sim", "src/obs/Timeline.h", "src/obs/Timeline.cpp"),
        allowlist=NOTHING,
        reason="write each per-disk result from its one owner instead of "
               "merging partial results",
        planted=("src/obs/Timeline.cpp",
                 "void finish(DiskTimeline &Into, const DiskTimeline &Part) {\n"
                 "  Into.merge(Part);\n"
                 "}\n"),
    ),
    # Parallelism only where it pays (docs/PERFORMANCE.md): threads are
    # spawned only by runWorkers (support/Parallel.cpp) and the sharded
    # simulator. runWorkers serves the per-job sweep pool and the chunked
    # per-disk export writer, which measured 1.71x ops_per_s on perfbench
    # array-1024 on a quiet 4-thread host (1.36-1.44x under hypervisor
    # steal; peak RSS -2%); a fan-out inside a pool worker runs serially.
    # The compile side measured faster serial than sharded on a 4-thread
    # host, so its pools were removed; a new thread anywhere else in src/
    # fails unless a measurement puts it on this list:
    #   src/support/Parallel.cpp       the sweep pool and export chunks.
    #   src/sim/ShardedSimEngine.cpp   the shard workers.
    # Any std::thread or std::jthread object counts (std::thread:: members
    # such as hardware_concurrency do not); comment lines that mention the
    # pools are not calls.
    Guard(
        name="Parallelism only where it pays",
        pattern=r"std::j?thread([^:_A-Za-z0-9]|$)",
        paths=("src",),
        allowlist=r"^src/(support/Parallel|sim/ShardedSimEngine)\.cpp:|"
                  + COMMENT_LINE,
        reason="spawn threads only where a measurement shows they pay "
               "(see the allowlist above)",
        planted=("src/core/Pipeline.cpp",
                 "void compileAll(std::vector<Job> &Jobs) {\n"
                 "  std::vector<std::thread> Pool;\n"
                 "}\n"),
        suffixes=(".h", ".cpp"),
    ),
    # The sharded engine is not selectable (DESIGN.md Sec. 11): every
    # pipeline, sweep, tenants and drac run simulates on the serial
    # SimEngine. ShardedSimEngine is reached only from src/sim/ itself, its
    # tests, bench/sharded_sim and perfbench's probe, so naming it anywhere
    # else in src/ or in tools/ fails.
    Guard(
        name="The sharded engine is not selectable",
        pattern=r"ShardedSimEngine",
        paths=("src", "tools"),
        allowlist=r"^src/sim/",
        reason="simulate through simulateScheme (core/Pipeline.h); the "
               "sharded engine is not selectable",
        planted=("tools/drac.cpp",
                 "#include \"sim/ShardedSimEngine.h\"\n"),
        suffixes=(".h", ".cpp"),
    ),
    # One run-report reader (obs/RunReport.h): dra-compare's two views,
    # dra-dash, check-regression and the figure benches read dra-report-v1
    # through readRunReport, which sits beside the writer and is as strict
    # as it. Walking a run's or app's sections by hand is a second reader
    # with its own strictness, so a lookup of one outside that file fails.
    Guard(
        name="One run-report reader",
        pattern=r'find\("(sim|ledger|attribution|footprint)"\)',
        paths=("src", "tools", "bench"),
        allowlist=r"^src/obs/RunReport\.cpp:",
        reason="read dra-report-v1 through readRunReport "
               "(obs/RunReport.h)",
        planted=("tools/dra_dash.cpp",
                 "double energyOf(const JsonValue &Run) {\n"
                 "  const JsonValue *Sim = Run.find(\"sim\");\n"
                 "  return Sim ? Sim->find(\"energy_j\")->Num : 0.0;\n"
                 "}\n"),
    ),
]


def violations(guard, root):
    """The `path:line:text` lines of \\p root that break \\p guard."""
    pattern = re.compile(guard.pattern)
    allow = re.compile(guard.allowlist)
    found = []
    for path in files(guard, root):
        if guard.suffixes and not path.endswith(guard.suffixes):
            continue
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            for number, text in enumerate(f, 1):
                text = text.rstrip("\n")
                line = f"{rel}:{number}:{text}"
                if pattern.search(text) and not allow.search(line):
                    found.append(line)
    return found


def files(guard, root):
    """The files under \\p guard's paths: each named file, and every file
    of each named directory, in sorted order."""
    for top in guard.paths:
        top = os.path.join(root, top)
        if os.path.isfile(top):
            yield top
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                yield os.path.join(dirpath, name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--source-dir", required=True)
    args = parser.parse_args()

    failures = []
    for guard in GUARDS:
        for line in violations(guard, args.source_dir):
            failures.append(f"{guard.name}: {line}\n  error: {guard.reason}")

        # Self-test: the planted violation, alone in a scratch tree.
        with tempfile.TemporaryDirectory() as scratch:
            rel, text = guard.planted
            path = os.path.join(scratch, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            if not violations(guard, scratch):
                failures.append(f"{guard.name}: self-test: the planted "
                                f"violation in {rel} went unnoticed")

    for failure in failures:
        print(failure)
    print(f"arch_guards: {len(GUARDS)} guards, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
