#!/usr/bin/env python3
"""Architecture guards: source-tree greps that hold the project's
one-mechanism rules.

Each guard is a (pattern, paths, allowlist, reason) record. A line of a
file under `paths` that matches `pattern` fails the guard unless its
`path:line:text` form matches `allowlist`, exactly as
`grep -rnE pattern paths | grep -vE allowlist` would report it. Every
guard also carries a planted violation: the self-test writes it into an
empty scratch tree and requires the guard to catch it, so a guard whose
pattern has rotted into matching nothing fails too.

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
]


def violations(guard, root):
    """The `path:line:text` lines of \\p root that break \\p guard."""
    pattern = re.compile(guard.pattern)
    allow = re.compile(guard.allowlist)
    found = []
    for top in guard.paths:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8", errors="replace") as f:
                    for number, text in enumerate(f, 1):
                        text = text.rstrip("\n")
                        line = f"{rel}:{number}:{text}"
                        if pattern.search(text) and not allow.search(line):
                            found.append(line)
    return found


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
