#!/usr/bin/env python3
"""Front-end contract of the command-line tools.

Runs the built drac, dra-serve and dra-compare binaries and checks that:
  * every flag of a retired drac mode exits 2 with one line naming its
    replacement;
  * dra-compare --nests writes a dra-diff-v1 document and keeps each view's
    options to itself;
  * an unwritable artifact path exits 1 with "cannot write";
  * drac compiles each scheme once, even with --print-code and --dump-trace;
  * a JSON number that overflows a double and a non-finite --sim-window
    are rejected with a diagnostic instead of running on inf or NaN;
  * a program with more iterations than flat iteration ids can number
    fails fast with a diagnostic instead of enumerating them.

Usage: cli_test.py --drac BIN --dra-serve BIN --dra-compare BIN --source-dir DIR
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

FAILURES = []


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)


def run(*argv):
    return subprocess.run([str(a) for a in argv], capture_output=True,
                          text=True, timeout=300)


def removed_flags(drac):
    # flag -> what its one-line message must name
    table = {
        "--online": "dra-serve",
        "--record": "dra-serve --record",
        "--compare": "dra-compare",
        "--baseline-scheme": "dra-compare --baseline-scheme",
        "--compare-json": "dra-compare --json",
        "--no-attribution": "attribution is always recorded",
    }
    for flag, names in table.items():
        p = run(drac, flag, "x.json")
        lines = p.stderr.splitlines()
        check(p.returncode == 2, f"{flag}: exit {p.returncode}, want 2")
        check(len(lines) == 1, f"{flag}: want one stderr line, got {lines}")
        check(lines and f"{flag} was removed" in lines[0] and
              names in lines[0], f"{flag}: message {lines}")


def compare_nests(drac, compare, src, tmp):
    attrib = os.path.join(tmp, "demo.attrib.json")
    p = run(drac, os.path.join(src, "examples/programs/demo.dra"),
            "--attrib-json", attrib)
    check(p.returncode == 0, f"drac --attrib-json: exit {p.returncode}")
    out = os.path.join(tmp, "diff.json")
    p = run(compare, "--nests", attrib, attrib, "--scheme-a", "TPM",
            "--scheme-b", "T-TPM-s", "--json", out)
    check(p.returncode == 0, f"dra-compare --nests: exit {p.returncode} "
          f"({p.stderr.strip()})")
    check("TPM (A) vs T-TPM-s (B)" in p.stdout,
          "dra-compare --nests: no nest table on stdout")
    schema = json.load(open(out)).get("schema") if os.path.exists(out) else None
    check(schema == "dra-diff-v1", f"dra-compare --nests schema {schema}")
    # Each view rejects the other's options.
    check(run(compare, "--nests", attrib).returncode == 2,
          "--nests with one file must be a usage error")
    check(run(compare, "--nests", attrib, attrib, "--baseline-scheme",
              "Base").returncode == 2,
          "--nests with --baseline-scheme must be a usage error")
    check(run(compare, attrib, "--scheme-a", "TPM").returncode == 2,
          "--scheme-a without --nests must be a usage error")


def unwritable(drac, serve, src, tmp):
    bad = os.path.join(tmp, "no-such-dir", "out.json")
    p = run(drac, os.path.join(src, "examples/programs/demo.dra"),
            "--report-json", bad)
    check(p.returncode == 1, f"drac unwritable report: exit {p.returncode}")
    check(f"cannot write report to '{bad}'" in p.stderr,
          f"drac unwritable report: stderr {p.stderr!r}")
    p = run(serve, os.path.join(src, "examples/online/ci-small.stream.json"),
            "--quiet", "--timeline-json", bad)
    check(p.returncode == 1, f"dra-serve unwritable timeline: exit "
          f"{p.returncode}")
    check(f"dra-serve: error: cannot write timeline to '{bad}'" in p.stderr,
          f"dra-serve unwritable timeline: stderr {p.stderr!r}")


def pass_counts(drac, src, tmp):
    p = run(drac, os.path.join(src, "examples/programs/stencil.dra"),
            "--procs", "4", "--scheme", "T-TPM-m", "--timings",
            "--print-code", "--dump-trace", os.path.join(tmp, "t.trace"))
    check(p.returncode == 0, f"drac --timings: exit {p.returncode}")
    runs = {m.group(1): int(m.group(2)) for m in
            re.finditer(r"^([a-z-]+)\s+(\d+)\s+[\d.]+\s+[\d.]+$", p.stdout,
                        re.M)}
    # Base and T-TPM-m compile once each; only T-TPM-m restructures.
    check(runs.get("restructure") == 1, f"restructure runs {runs}")
    check(runs.get("trace-gen") == 2, f"trace-gen runs {runs}")
    check(runs.get("simulate") == 2, f"simulate runs {runs}")
    m = re.search(r"^scheduler: (\d+) invocations", p.stdout, re.M)
    check(m and int(m.group(1)) == 8, "scheduler invocations: " +
          (m.group(0) if m else "missing"))
    check("-- T-TPM-m, processor 3 --" in p.stdout, "--print-code output")


def non_finite_inputs(drac, src, tmp):
    # A tenants spec whose start_ms overflows to inf must fail to parse.
    spec = open(os.path.join(src, "examples/multitenant/consolidated.json"),
                encoding="utf-8").read()
    programs = os.path.join(src, "examples/programs") + "/"
    spec = spec.replace("../programs/", programs)
    spec = spec.replace('"start_ms": 200.0', '"start_ms": 1e999')
    bad = os.path.join(tmp, "overflow.tenants.json")
    with open(bad, "w", encoding="utf-8") as f:
        f.write(spec)
    p = run(drac, "--tenants", bad)
    check(p.returncode == 1, f"drac --tenants 1e999: exit {p.returncode}")
    check("number out of range" in p.stderr,
          f"drac --tenants 1e999: stderr {p.stderr!r}")
    check("inf" not in p.stdout, f"drac --tenants 1e999: stdout {p.stdout!r}")
    # NaN compares false against every bound; it must still be refused.
    p = run(drac, os.path.join(src, "examples/programs/stencil.dra"),
            "--sim-shards", "2", "--sim-window", "nan")
    check(p.returncode == 2, f"drac --sim-window nan: exit {p.returncode}")
    check("--sim-window" in p.stderr,
          f"drac --sim-window nan: stderr {p.stderr!r}")


def oversized_spaces(drac, tmp):
    # Both probes used to enumerate until a timeout killed them. Counting
    # adds the innermost trip count in closed form, so each must end with
    # the diagnostic well inside the 2 s limit.
    probes = {
        "long": "array A[4000000000]\n"
                "nest n compute 1.0 {\n"
                "  for i0 = 0 .. 3999999999\n"
                "  read A[i0]\n"
                "}\n",
        "square": "array A[70000][70000]\n"
                  "nest n compute 1.0 {\n"
                  "  for i0 = 0 .. 69999\n"
                  "  for i1 = 0 .. 69999\n"
                  "  read A[i0][i1]\n"
                  "}\n",
    }
    for name, body in probes.items():
        src = os.path.join(tmp, name + ".dra")
        with open(src, "w", encoding="utf-8") as f:
            f.write("program " + name + "\n" + body)
        start = time.monotonic()
        try:
            p = subprocess.run([drac, src], capture_output=True, text=True,
                               timeout=2)
        except subprocess.TimeoutExpired:
            check(False, f"{name} probe: no diagnostic within 2 s")
            continue
        took = time.monotonic() - start
        check(p.returncode == 1, f"{name} probe: exit {p.returncode}")
        check(p.stderr.startswith("drac: error: ") and
              "iterations" in p.stderr,
              f"{name} probe: stderr {p.stderr!r}")
        check(took < 2.0, f"{name} probe: took {took:.2f} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--drac", required=True)
    ap.add_argument("--dra-serve", required=True)
    ap.add_argument("--dra-compare", required=True)
    ap.add_argument("--source-dir", required=True)
    a = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="dra-cli-") as tmp:
        removed_flags(a.drac)
        compare_nests(a.drac, a.dra_compare, a.source_dir, tmp)
        unwritable(a.drac, a.dra_serve, a.source_dir, tmp)
        pass_counts(a.drac, a.source_dir, tmp)
        non_finite_inputs(a.drac, a.source_dir, tmp)
        oversized_spaces(a.drac, tmp)
    for f in FAILURES:
        print("FAIL: " + f)
    if FAILURES:
        return 1
    print("ok: removed flags, compare --nests, unwritable paths, pass counts, "
          "non-finite inputs, oversized spaces")
    return 0


if __name__ == "__main__":
    sys.exit(main())
