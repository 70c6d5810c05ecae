#!/usr/bin/env python3
"""Front-end contract of the command-line tools.

Runs the built drac, dra-serve, dra-compare and dra-dash binaries and
checks that:
  * every flag of a retired drac mode, selector or standalone document
    exits 2 with one line naming its replacement, in the source and the
    --tenants mode alike, and dra-serve no longer knows the standalone
    ledger and attribution flags;
  * dra-compare --nests writes a dra-diff-v1 document, keeps each view's
    options to itself, and diffs a report against itself into zero deltas
    only;
  * dra-compare (both views) and dra-dash read dra-report-v1 only, through
    the one report reader: dra-dash renders the ledger tables from a
    report's runs, with no external reference in its HTML, and refuses a
    run without a ledger section as dra-compare does;
  * a repeated nest name is a parse error, and a report whose attribution
    section repeats a nest label is refused by the nest view;
  * a small sweep's per-job reports validate: every ledger section closes
    and its gap counts add up, every attribution section closes, the
    compare view's normalized categories stack to the normalized energy,
    and the nest view's deltas sum to the total delta in magnitude order;
  * an unwritable artifact path exits 1 with "cannot write";
  * drac compiles each scheme once, even with --print-code and --dump-trace;
  * a JSON number that overflows a double is rejected with a diagnostic
    instead of running on inf;
  * tenant labels that would merge two tenants' attribution (empty,
    repeated, or holding ';' or whitespace) are rejected;
  * a program with more iterations than flat iteration ids can number
    fails fast with a diagnostic instead of enumerating them, and an
    array whose tile count overflows int64_t is a parse error.

Usage: cli_test.py --drac BIN --dra-serve BIN --dra-compare BIN
                   --dra-dash BIN --source-dir DIR
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
        "--sim-shards": "every run uses the serial simulator",
        "--sim-window": "every run uses the serial simulator",
        "--footprint-mode": "footprints always use the auto mode",
        "--ledger-json": "--report-json",
        "--attrib-json": "--report-json",
        "--footprint-json": "--report-json",
    }
    for flag, names in table.items():
        p = run(drac, flag, "x.json")
        lines = p.stderr.splitlines()
        check(p.returncode == 2, f"{flag}: exit {p.returncode}, want 2")
        check(len(lines) == 1, f"{flag}: want one stderr line, got {lines}")
        check(lines and f"{flag} was removed" in lines[0] and
              names in lines[0], f"{flag}: message {lines}")


def compare_nests(drac, compare, src, tmp):
    attrib = os.path.join(tmp, "demo.report.json")
    p = run(drac, os.path.join(src, "examples/programs/demo.dra"),
            "--report-json", attrib)
    check(p.returncode == 0, f"drac --report-json: exit {p.returncode}")
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
    # A report diffed against itself moves no joule and no millisecond.
    p = run(compare, "--nests", attrib, attrib)
    check(p.returncode == 0, f"dra-compare --nests self: exit {p.returncode}")
    rows = [line.split() for line in p.stdout.splitlines()
            if line and not line.startswith(("Nest ", "---"))]
    check(rows, "dra-compare --nests self: no output")
    for row in rows:
        if "(A)" in row:
            check(row[-2:] == ["(+0.0", "J)"],
                  f"dra-compare --nests self: total {' '.join(row)}")
        else:
            check(row[-3:] == ["+0.00"] * 3 and "only]" not in row,
                  f"dra-compare --nests self: row {' '.join(row)}")


def repeated_nests(drac, compare, src, tmp):
    # Two nests of one name would merge in every per-nest view: the parser
    # refuses them, and so does the report reader when a label repeats.
    dup = os.path.join(tmp, "dup.dra")
    with open(dup, "w", encoding="utf-8") as f:
        f.write("program dup\n"
                "array A[64]\n"
                "nest sweep compute 1.0 {\n  for i0 = 0 .. 63\n"
                "  read A[i0]\n}\n"
                "nest sweep compute 1.0 {\n  for i0 = 0 .. 63\n"
                "  write A[i0]\n}\n")
    p = run(drac, dup, "--report-json", os.path.join(tmp, "dup.json"))
    check(p.returncode == 1, f"drac repeated nest: exit {p.returncode}")
    check(p.stderr.startswith(dup + ": error: ") and
          "nest 'sweep' is already declared" in p.stderr,
          f"drac repeated nest: stderr {p.stderr!r}")
    report = os.path.join(tmp, "relabelled.json")
    p = run(drac, os.path.join(src, "examples/programs/demo.dra"),
            "--report-json", report)
    check(p.returncode == 0, f"drac demo report: exit {p.returncode}")
    if p.returncode != 0:
        return
    doc = json.load(open(report))
    app = doc["apps"][0]
    nests = app["runs"][0]["attribution"]["nests"]
    nests[1]["label"] = nests[0]["label"]
    with open(report, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    p = run(compare, "--nests", report, report)
    check(p.returncode == 1, f"dra-compare --nests repeated label: exit "
          f"{p.returncode}")
    check(f"{report}: attribution section repeats nest label" in p.stderr and
          f"in app '{app['app']}'" in p.stderr,
          f"dra-compare --nests repeated label: stderr {p.stderr!r}")


def report_only(serve, compare, dash, src, tmp):
    # dra-serve writes the report alone: the standalone flags are unknown.
    stream = os.path.join(src, "examples/online/ci-small.stream.json")
    for flag in ("--ledger-json", "--attrib-json"):
        p = run(serve, stream, "--quiet", flag, os.path.join(tmp, "x.json"))
        check(p.returncode == 2, f"dra-serve {flag}: exit {p.returncode}")
        check(p.stderr.startswith("usage: "),
              f"dra-serve {flag}: stderr {p.stderr!r}")
    # A standalone ledger document is not a compare or dash input.
    ledger = os.path.join(tmp, "standalone.ledger.json")
    with open(ledger, "w", encoding="utf-8") as f:
        f.write('{"schema":"dra-ledger-v1","apps":[]}')
    for argv in ([ledger], ["--nests", ledger, ledger]):
        p = run(compare, *argv)
        check(p.returncode == 1, f"dra-compare {argv[0]}: exit "
              f"{p.returncode}")
        check("not a dra-report-v1 document" in p.stderr,
              f"dra-compare {argv[0]}: stderr {p.stderr!r}")
    html = os.path.join(tmp, "dash.html")
    p = run(dash, ledger, "-o", html)
    check(p.returncode == 1, f"dra-dash dra-ledger-v1: exit {p.returncode}")
    check("unsupported schema 'dra-ledger-v1'" in p.stderr and
          "dra-report-v1" in p.stderr,
          f"dra-dash dra-ledger-v1: stderr {p.stderr!r}")
    # The report alone feeds both of dra-dash's tables.
    report = os.path.join(tmp, "serve.report.json")
    p = run(serve, stream, "--quiet", "--report-json", report)
    check(p.returncode == 0, f"dra-serve --report-json: exit {p.returncode}")
    p = run(dash, report, "-o", html)
    check(p.returncode == 0, f"dra-dash report: exit {p.returncode} "
          f"({p.stderr.strip()})")
    page = open(html, encoding="utf-8").read() if p.returncode == 0 else ""
    check("<h2>Report: ci_small</h2>" in page, "dra-dash: no report table")
    check("<h2>Ledger: ci_small</h2>" in page, "dra-dash: no ledger table")
    leak = re.search(r"https?://|src=|href=|@import|url\(", page, re.I)
    check(leak is None, "dra-dash: external reference " +
          (leak.group(0) if leak else ""))
    # The writer always writes a run's ledger, so both readers refuse a
    # run without one, naming the file and the app.
    doc = json.load(open(report))
    del doc["apps"][0]["runs"][0]["ledger"]
    bad = os.path.join(tmp, "no-ledger.report.json")
    with open(bad, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    for tool, argv in (("dra-dash", [dash, bad, "-o", html]),
                       ("dra-compare", [compare, bad])):
        p = run(*argv)
        check(p.returncode == 1, f"{tool} without ledger: exit "
              f"{p.returncode}")
        check(f"{bad}: run without 'ledger' section in app 'ci_small'"
              in p.stderr, f"{tool} without ledger: stderr {p.stderr!r}")


def close(value, want):
    return abs(value - want) <= 1e-9 * max(1.0, abs(want))


def sweep_reports(drac, compare, src, tmp):
    # The ci-small sweep's per-job reports are the only run documents: the
    # scheme and nest views read them, and every section they carry closes.
    tel = os.path.join(tmp, "sweep-telemetry")
    out = os.path.join(tmp, "sweep-out.json")
    p = run(drac, "--sweep", os.path.join(src, "bench/sweeps/ci-small.json"),
            "--jobs", "2", "--sweep-out", out, "--sweep-telemetry", tel)
    check(p.returncode == 0, f"sweep: exit {p.returncode}")
    if p.returncode != 0:
        return
    sweep = json.load(open(out))
    check(sweep["schema"] == "dra-sweep-v1", "sweep-out schema")
    check(sweep["failed"] == 0, "sweep jobs failed")
    names = sorted(os.listdir(tel))
    check(not [n for n in names if n.endswith((".ledger.json",
                                               ".attrib.json"))],
          f"sweep wrote standalone copies: {names}")
    reports = [os.path.join(tel, n) for n in names
               if n.endswith(".report.json")]
    check(len(reports) == 5, f"sweep reports: {len(reports)}")
    by_scheme = {}
    for f in reports:
        doc = json.load(open(f))
        check(doc["schema"] == "dra-report-v1", f + ": schema")
        for app in doc["apps"]:
            for r in app["runs"]:
                where = f + ":" + r["scheme"]
                by_scheme.setdefault(r["scheme"], f)
                led = r["ledger"]
                check(led["schema"] == "dra-ledger-v1", where + ": ledger")
                tot = led["total"]
                check(close(tot["sum_j"], tot["energy_j"]),
                      where + ": ledger does not close")
                gaps = led["gaps"]
                check(gaps["count"] == gaps["below_break_even"]["count"] +
                      gaps["at_least_break_even"]["count"],
                      where + ": gap counts do not add up")
                att = r["attribution"]
                check(att["schema"] == "dra-attrib-v1", where + ": attrib")
                stack = (sum(n["energy_j"] for n in att["nests"]) +
                         att["unattributed"]["energy_j"])
                check(close(stack, att["total"]["energy_j"]),
                      where + ": attribution does not close")

    cmp_json = os.path.join(tmp, "compare.json")
    p = run(compare, *reports, "--json", cmp_json)
    check(p.returncode == 0, f"dra-compare reports: exit {p.returncode} "
          f"({p.stderr.strip()})")
    if p.returncode == 0:
        doc = json.load(open(cmp_json))
        check(doc["schema"] == "dra-compare-v1", "compare.json schema")
        for app in doc["apps"]:
            for r in app["runs"]:
                stack = sum(r["categories_normalized"].values())
                check(abs(stack - r["normalized_energy"]) <= 1e-9,
                      "normalized categories do not stack: " + r["scheme"])

    diff_json = os.path.join(tmp, "diff.json")
    p = run(compare, "--nests", by_scheme.get("TPM", ""),
            by_scheme.get("T-TPM-s", ""), "--scheme-a", "TPM", "--scheme-b",
            "T-TPM-s", "--json", diff_json)
    check(p.returncode == 0, f"dra-compare --nests reports: exit "
          f"{p.returncode} ({p.stderr.strip()})")
    if p.returncode == 0:
        doc = json.load(open(diff_json))
        check(doc["schema"] == "dra-diff-v1", "diff.json schema")
        for app in doc["apps"]:
            s = sum(n["delta_j"] for n in app["nests"])
            t = app["total_b_j"] - app["total_a_j"]
            check(abs(s - t) <= 1e-6 * max(1.0, abs(t)),
                  "per-nest deltas do not sum to the total delta")
            deltas = [abs(n["delta_j"]) for n in app["nests"]]
            check(deltas == sorted(deltas, reverse=True),
                  "diff nests not sorted by delta magnitude")


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
    # The simulator selector is gone from both modes, whatever its value.
    spec = os.path.join(src, "examples/multitenant/consolidated.json")
    for argv in ([os.path.join(src, "examples/programs/stencil.dra"),
                  "--sim-shards", "2"],
                 ["--tenants", spec, "--sim-window", "nan"]):
        p = run(drac, *argv)
        flag = argv[-2]
        check(p.returncode == 2, f"drac {flag}: exit {p.returncode}")
        check(p.stderr == f"error: {flag} was removed: every run uses the "
              "serial simulator\n", f"drac {flag}: stderr {p.stderr!r}")


def tenant_labels(drac, src, tmp):
    # Two tenants from one file default to the same label (the file stem);
    # their nests would collide in dra-attrib-v1 and dra-compare --nests.
    demo = os.path.join(src, "examples/programs/demo.dra")
    labels = {"same stem": [{}, {}], "flame separators": [{"label": "x;y z"}]}
    for name, extra in labels.items():
        spec = {"schema": "dra-tenants-v1",
                "tenants": [dict(file=demo, **e) for e in extra]}
        path = os.path.join(tmp, "labels.tenants.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        p = run(drac, "--tenants", path, "--flame",
                os.path.join(tmp, "labels.flame"))
        check(p.returncode == 1, f"tenant labels, {name}: exit {p.returncode}")
        check(p.stderr.startswith("drac: error: tenant '") and
              "label" in p.stderr,
              f"tenant labels, {name}: stderr {p.stderr!r}")


def oversized_spaces(drac, tmp):
    # Each probe used to run until a timeout or a signal killed it: the
    # first two enumerated their outer loops, "deep" walked 2^30 outer
    # points, "empty" walked 4e9 outer points whose inner ranges are all
    # empty, and "huge" overflowed the tile count into an uncaught
    # std::length_error. Each must end with its diagnostic and exit 1 well
    # inside the 2 s limit.
    deep = "".join(f"  for i{k} = 0 .. 1\n" for k in range(31))
    probes = {
        "long": ("array A[4000000000]\n"
                 "nest n compute 1.0 {\n"
                 "  for i0 = 0 .. 3999999999\n"
                 "  read A[i0]\n"
                 "}\n", "drac: error: ", "iterations"),
        "square": ("array A[70000][70000]\n"
                   "nest n compute 1.0 {\n"
                   "  for i0 = 0 .. 69999\n"
                   "  for i1 = 0 .. 69999\n"
                   "  read A[i0][i1]\n"
                   "}\n", "drac: error: ", "iterations"),
        "deep": ("array A[2]\n"
                 "nest n compute 1.0 {\n" + deep +
                 "  read A[i0]\n"
                 "}\n", "drac: error: ", "iterations"),
        "empty": ("array A[4000000000]\n"
                  "nest n compute 1.0 {\n"
                  "  for i0 = 0 .. 3999999999\n"
                  "  for i1 = i0 + 1 .. i0\n"
                  "  read A[i0]\n"
                  "}\n", "drac: error: ", "loop points"),
        "huge": ("array A[4000000000][4000000000]\n"
                 "nest n compute 1.0 {\n"
                 "  for i0 = 0 .. 1\n"
                 "  read A[i0][i0]\n"
                 "}\n", None, "has more than 9223372036854775807 tiles"),
    }
    for name, (body, prefix, needle) in probes.items():
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
        # A parse error names the file; a budget error names the tool.
        prefix = prefix or src + ": error: "
        check(p.returncode == 1, f"{name} probe: exit {p.returncode}")
        check(p.stderr.startswith(prefix) and needle in p.stderr,
              f"{name} probe: stderr {p.stderr!r}")
        check(took < 2.0, f"{name} probe: took {took:.2f} s")

    # 2e9 outer points over an always-empty inner range fit the walk
    # budget. The count sums their inner ranges in closed form and no walk
    # visits them, so the empty program simulates at once (it used to walk
    # them for 74 s) and prints its 0 J table.
    src = os.path.join(tmp, "empty-fits.dra")
    with open(src, "w", encoding="utf-8") as f:
        f.write("program empty_fits\n"
                "array A[2000000000]\n"
                "nest n compute 1.0 {\n"
                "  for i0 = 0 .. 1999999999\n"
                "  for i1 = i0 + 1 .. i0\n"
                "  read A[i0]\n"
                "}\n")
    start = time.monotonic()
    try:
        p = subprocess.run([drac, src], capture_output=True, text=True,
                           timeout=2)
    except subprocess.TimeoutExpired:
        check(False, "empty-fits probe: no table within 2 s")
        return
    took = time.monotonic() - start
    check(p.returncode == 0, f"empty-fits probe: exit {p.returncode}")
    base = [line.split() for line in p.stdout.splitlines()
            if line.startswith("Base ")]
    check(len(base) == 1 and base[0][1] == "0.0",
          f"empty-fits probe: stdout {p.stdout!r}")
    check(took < 2.0, f"empty-fits probe: took {took:.2f} s")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--drac", required=True)
    ap.add_argument("--dra-serve", required=True)
    ap.add_argument("--dra-compare", required=True)
    ap.add_argument("--dra-dash", required=True)
    ap.add_argument("--source-dir", required=True)
    a = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="dra-cli-") as tmp:
        removed_flags(a.drac)
        compare_nests(a.drac, a.dra_compare, a.source_dir, tmp)
        report_only(a.dra_serve, a.dra_compare, a.dra_dash, a.source_dir,
                    tmp)
        repeated_nests(a.drac, a.dra_compare, a.source_dir, tmp)
        sweep_reports(a.drac, a.dra_compare, a.source_dir, tmp)
        unwritable(a.drac, a.dra_serve, a.source_dir, tmp)
        pass_counts(a.drac, a.source_dir, tmp)
        non_finite_inputs(a.drac, a.source_dir, tmp)
        tenant_labels(a.drac, a.source_dir, tmp)
        oversized_spaces(a.drac, tmp)
    for f in FAILURES:
        print("FAIL: " + f)
    if FAILURES:
        return 1
    print("ok: removed flags, compare --nests, report-only readers, repeated "
          "nests, sweep reports, unwritable paths, pass counts, non-finite "
          "inputs, tenant labels, oversized spaces")
    return 0


if __name__ == "__main__":
    sys.exit(main())
