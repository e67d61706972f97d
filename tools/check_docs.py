#!/usr/bin/env python3
"""Doc-drift gate: keep docs/OBSERVABILITY.md and the README honest.

Checks, failing with a nonzero exit on the first class of drift found:

 1. Every RuntimeMetrics counter registered in src/support/Metrics.cpp
    (the `Fn("name", ...)` rows of RuntimeMetrics::forEach — the stable
    JSON schema of `--metrics` and BENCH_*.json) is documented in
    docs/OBSERVABILITY.md's counter glossary.
 2. The reverse: every counter the glossary documents still exists in
    Metrics.cpp (no ghost rows for deleted counters).
 3. Every `--flag` shown on a line mentioning `fearlessc` in README.md,
    docs/OBSERVABILITY.md, or docs/SCHEDULER.md is actually accepted by
    tools/fearlessc.cpp (stale-flag detection — the drift this tool
    exists to catch).
 4. Every fault point named in src/support/FaultInjector.cpp's PointNames
    array has a row in docs/OBSERVABILITY.md's fault-point table, and the
    reverse (the `--faults` spec vocabulary stays documented).
 5. fearlessc accepts `--faults` (the flag the robustness docs are
    written around).
 6. fearlessc accepts `--workers` and `--sched-seed` (the flags the
    scheduler docs are written around). The scheduler's counters
    (tasks_spawned, steals, parks) are covered by checks 1-2 like any
    other RuntimeMetrics registration.
 7. docs/IMPLEMENTATION.md documents the `fearlessc disasm` subcommand
    (the bytecode-VM docs are written around it). The VM's counters
    (vm_instructions, ic_hits, ic_misses, checks_erased) are covered by
    checks 1-2.
 8. fearlessc accepts `--interprocedural`, `--json`, `--summaries` and
    `--werror` (the flags the interprocedural-analysis docs are written
    around); docs/ANALYSIS.md joins the flag scan of check 3. The
    analysis counters (analysis_must_disconnected etc.) are covered by
    checks 1-2 like any other RuntimeMetrics registration.
 9. The daemon docs: every wire op in src/server/Wire.cpp's OpNames
    array has a `op`-backticked mention in docs/SERVER.md; every flag
    tools/fearlessd.cpp accepts appears in docs/SERVER.md; every --flag
    on a line mentioning `fearlessd` in README.md, docs/SERVER.md, or
    docs/OBSERVABILITY.md is actually accepted by fearlessd (stale-flag
    detection, mirror of check 3); fearlessc accepts `--daemon`;
    docs/SERVER.md names all four server counters (sessions_active,
    cache_hits, cache_misses, requests_rejected — their glossary rows
    are covered by checks 1-2); and docs/SERVER.md joins the fearlessc
    flag scan of check 3.
10. Every handbook links the shared vocabulary: README.md, DESIGN.md,
    and each docs/*.md reference GLOSSARY.md.
11. The model-checker docs: fearlessc accepts the `mc` surface the docs
    are written around (`--schedule`, `--spawn`, `--mc-depth`,
    `--mc-schedules`, `--mc-preemptions`, `--mc-checks`, `--mc-dpor`,
    `--mc-out`); docs/MODELCHECK.md documents the `fearlessc mc`
    subcommand and the `fearless-schedule-v1` file format, and joins
    the flag scan of check 3 plus the GLOSSARY link rule of check 10.
    The mc counters (mc_schedules_explored etc.) are covered by checks
    1-2 like any other RuntimeMetrics registration.

Run from anywhere: paths are resolved relative to the repo root. Wired
into tools/ci.sh; `--self-test` exercises the extraction logic against
inline fixtures without touching the tree.
"""

import argparse
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METRICS_CPP = ROOT / "src" / "support" / "Metrics.cpp"
OBSERVABILITY_MD = ROOT / "docs" / "OBSERVABILITY.md"
SCHEDULER_MD = ROOT / "docs" / "SCHEDULER.md"
IMPLEMENTATION_MD = ROOT / "docs" / "IMPLEMENTATION.md"
ANALYSIS_MD = ROOT / "docs" / "ANALYSIS.md"
SERVER_MD = ROOT / "docs" / "SERVER.md"
MODELCHECK_MD = ROOT / "docs" / "MODELCHECK.md"
GLOSSARY_MD = ROOT / "docs" / "GLOSSARY.md"
LANGUAGE_MD = ROOT / "docs" / "LANGUAGE.md"
DESIGN_MD = ROOT / "DESIGN.md"
README_MD = ROOT / "README.md"
FEARLESSC_CPP = ROOT / "tools" / "fearlessc.cpp"
FEARLESSD_CPP = ROOT / "tools" / "fearlessd.cpp"
WIRE_CPP = ROOT / "src" / "server" / "Wire.cpp"
FAULTINJECTOR_CPP = ROOT / "src" / "support" / "FaultInjector.cpp"

# The forEach registration rows: Fn("counter_name", Value);
COUNTER_RE = re.compile(r'Fn\("([a-z_]+)"')

# A documented counter: a table row whose first cell is `counter_name`,
# inside the "Metrics counter glossary" section only (other sections
# tabulate trace events, which are not counters).
GLOSSARY_HEADING = "## Metrics counter glossary"
GLOSSARY_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`", re.MULTILINE)

# A CLI flag token: --word[-word...], not preceded by another dash (so
# comment rules like //----- are not flags).
FLAG_RE = re.compile(r"(?<![-\w])--([a-z][a-z-]*)\b")

# The fault-point vocabulary: the string literals of the PointNames array
# in FaultInjector.cpp (the spec / docs / trace names).
POINT_NAMES_RE = re.compile(
    r"PointNames\[NumFaultPoints\]\s*=\s*\{(.*?)\}", re.DOTALL
)
POINT_LITERAL_RE = re.compile(r'"([a-z.]+)"')

# A documented fault point: a table row whose first cell is `point.name`,
# inside the "Fault points" subsection of the robustness docs.
FAULT_TABLE_HEADING = "### Fault points"
FAULT_ROW_RE = re.compile(r"^\|\s*`([a-z.]+)`", re.MULTILINE)

# The wire-op vocabulary: the string literals of the OpNames array in
# src/server/Wire.cpp (the `op` field values of fearless-wire-v1).
OP_NAMES_RE = re.compile(r"OpNames\[NumWireOps\]\s*=\s*\{(.*?)\}", re.DOTALL)
OP_LITERAL_RE = re.compile(r'"([a-z_]+)"')

# The four server-side RuntimeMetrics registrations; docs/SERVER.md must
# name each one (their glossary rows are checks 1-2's job).
SERVER_COUNTERS = (
    "sessions_active",
    "cache_hits",
    "cache_misses",
    "requests_rejected",
)


def extract_counters(metrics_src: str) -> set:
    return set(COUNTER_RE.findall(metrics_src))


def extract_documented_counters(doc: str) -> set:
    start = doc.find(GLOSSARY_HEADING)
    if start < 0:
        return set()
    end = doc.find("\n## ", start + len(GLOSSARY_HEADING))
    section = doc[start:] if end < 0 else doc[start:end]
    return set(GLOSSARY_ROW_RE.findall(section))


def extract_accepted_flags(cli_src: str) -> set:
    return set(FLAG_RE.findall(cli_src))


def extract_fault_points(injector_src: str) -> set:
    m = POINT_NAMES_RE.search(injector_src)
    if not m:
        return set()
    return set(POINT_LITERAL_RE.findall(m.group(1)))


def extract_documented_fault_points(doc: str) -> set:
    start = doc.find(FAULT_TABLE_HEADING)
    if start < 0:
        return set()
    end = doc.find("\n#", start + len(FAULT_TABLE_HEADING))
    section = doc[start:] if end < 0 else doc[start:end]
    return set(FAULT_ROW_RE.findall(section))


def extract_documented_flags(doc: str, binary: str = "fearlessc") -> list:
    """(line_number, flag) for every --flag on a line mentioning binary."""
    out = []
    for n, line in enumerate(doc.splitlines(), 1):
        if binary not in line:
            continue
        for flag in FLAG_RE.findall(line):
            out.append((n, flag))
    return out


def extract_wire_ops(wire_src: str) -> set:
    m = OP_NAMES_RE.search(wire_src)
    if not m:
        return set()
    return set(OP_LITERAL_RE.findall(m.group(1)))


def self_test() -> int:
    metrics = 'Fn("steps", Steps);\n  Fn("wall_micros", WallMicros);'
    assert extract_counters(metrics) == {"steps", "wall_micros"}

    doc = (
        "## Metrics counter glossary\n"
        "| `steps` | unit | vm |\n"
        "prose about `not_a_counter` outside a table\n"
        "| `wall_micros` | us | executor |\n"
        "## Trace event schema\n"
        "| `not_a_counter_event` | i | - |\n"
    )
    assert extract_documented_counters(doc) == {"steps", "wall_micros"}
    assert extract_documented_counters("no glossary here") == set()

    cli = (
        'if (!std::strcmp(argv[I], "--trace")) {} // --metrics\n'
        '"--sched-seed"\n//---\n'
    )
    assert extract_accepted_flags(cli) == {"trace", "metrics", "sched-seed"}
    # Both spellings of a valued flag register it once.
    assert extract_accepted_flags('"--mc-dpor" and "--mc-dpor=" forms') == {
        "mc-dpor"
    }

    lines = "run fearlessc with --trace out.json\nunrelated --flag here\n"
    assert extract_documented_flags(lines) == [(1, "trace")]
    dlines = (
        "start fearlessd --socket /tmp/s.sock\n"
        "fearlessc talks to it with --daemon\n"
    )
    assert extract_documented_flags(dlines, "fearlessd") == [(1, "socket")]
    assert extract_documented_flags(dlines) == [(2, "daemon")]

    wire = (
        "const char *const fearless::server::OpNames[NumWireOps] = {\n"
        '    "check", "analyze", "run", "metrics", "shutdown",\n'
        "};\n"
    )
    assert extract_wire_ops(wire) == {
        "check",
        "analyze",
        "run",
        "metrics",
        "shutdown",
    }
    assert extract_wire_ops("no ops here") == set()

    injector = (
        "static constexpr const char *PointNames[NumFaultPoints] = {\n"
        '    "chan.send",    "chan.recv",  "heap.alloc",\n'
        '    "thread.start", "sched.step", "disconnect.traverse",\n'
        "};\n"
    )
    assert extract_fault_points(injector) == {
        "chan.send",
        "chan.recv",
        "heap.alloc",
        "thread.start",
        "sched.step",
        "disconnect.traverse",
    }
    assert extract_fault_points("no array here") == set()

    fault_doc = (
        "## Robustness & fault injection\n"
        "### Fault points\n"
        "| `chan.send` | a send completing |\n"
        "| `heap.alloc` | a language-level new |\n"
        "\n### Next heading\n"
        "| `not.a.point` | other table |\n"
    )
    assert extract_documented_fault_points(fault_doc) == {
        "chan.send",
        "heap.alloc",
    }
    assert extract_documented_fault_points("nothing") == set()

    print("check_docs: self-test OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    for path in (METRICS_CPP, OBSERVABILITY_MD, SCHEDULER_MD, README_MD,
                 IMPLEMENTATION_MD, ANALYSIS_MD, SERVER_MD, GLOSSARY_MD,
                 LANGUAGE_MD, DESIGN_MD, MODELCHECK_MD, FEARLESSC_CPP,
                 FEARLESSD_CPP, WIRE_CPP, FAULTINJECTOR_CPP):
        if not path.exists():
            print(f"check_docs: missing {path.relative_to(ROOT)}",
                  file=sys.stderr)
            return 1

    counters = extract_counters(METRICS_CPP.read_text())
    observability = OBSERVABILITY_MD.read_text()
    documented = extract_documented_counters(observability)
    failures = 0

    missing = sorted(counters - documented)
    for name in missing:
        print(
            f"check_docs: counter '{name}' is registered in "
            f"src/support/Metrics.cpp but has no glossary row in "
            f"docs/OBSERVABILITY.md",
            file=sys.stderr,
        )
        failures += 1

    ghosts = sorted(documented - counters)
    for name in ghosts:
        print(
            f"check_docs: docs/OBSERVABILITY.md documents counter "
            f"'{name}' which src/support/Metrics.cpp no longer registers",
            file=sys.stderr,
        )
        failures += 1

    accepted = extract_accepted_flags(FEARLESSC_CPP.read_text())
    implementation = IMPLEMENTATION_MD.read_text()
    readme = README_MD.read_text()
    server_doc = SERVER_MD.read_text()
    modelcheck = MODELCHECK_MD.read_text()
    for doc_path, text in (
        (README_MD, readme),
        (OBSERVABILITY_MD, observability),
        (SCHEDULER_MD, SCHEDULER_MD.read_text()),
        (IMPLEMENTATION_MD, implementation),
        (ANALYSIS_MD, ANALYSIS_MD.read_text()),
        (SERVER_MD, server_doc),
        (MODELCHECK_MD, modelcheck),
    ):
        for line, flag in extract_documented_flags(text):
            if flag not in accepted:
                print(
                    f"check_docs: {doc_path.relative_to(ROOT)}:{line} "
                    f"shows 'fearlessc ... --{flag}' but fearlessc does "
                    f"not accept --{flag}",
                    file=sys.stderr,
                )
                failures += 1

    points = extract_fault_points(FAULTINJECTOR_CPP.read_text())
    documented_points = extract_documented_fault_points(observability)
    if not points:
        print(
            "check_docs: could not extract the PointNames array from "
            "src/support/FaultInjector.cpp",
            file=sys.stderr,
        )
        failures += 1
    for name in sorted(points - documented_points):
        print(
            f"check_docs: fault point '{name}' is defined in "
            f"src/support/FaultInjector.cpp but has no row in "
            f"docs/OBSERVABILITY.md's fault-point table",
            file=sys.stderr,
        )
        failures += 1
    for name in sorted(documented_points - points):
        print(
            f"check_docs: docs/OBSERVABILITY.md documents fault point "
            f"'{name}' which src/support/FaultInjector.cpp no longer "
            f"defines",
            file=sys.stderr,
        )
        failures += 1

    if "faults" not in accepted:
        print(
            "check_docs: fearlessc does not accept --faults, but the "
            "robustness docs depend on it",
            file=sys.stderr,
        )
        failures += 1

    for flag in ("workers", "sched-seed"):
        if flag not in accepted:
            print(
                f"check_docs: fearlessc does not accept --{flag}, but "
                f"the scheduler docs depend on it",
                file=sys.stderr,
            )
            failures += 1

    for flag in ("interprocedural", "json", "summaries", "werror"):
        if flag not in accepted:
            print(
                f"check_docs: fearlessc does not accept --{flag}, but "
                f"the interprocedural-analysis docs depend on it",
                file=sys.stderr,
            )
            failures += 1

    # 11: the model-checker docs.
    for flag in ("schedule", "spawn", "mc-depth", "mc-schedules",
                 "mc-preemptions", "mc-checks", "mc-dpor", "mc-out"):
        if flag not in accepted:
            print(
                f"check_docs: fearlessc does not accept --{flag}, but "
                f"the model-checker docs depend on it",
                file=sys.stderr,
            )
            failures += 1
    for needle in ("fearlessc mc", "fearless-schedule-v1"):
        if needle not in modelcheck:
            print(
                f"check_docs: docs/MODELCHECK.md does not document "
                f"'{needle}'",
                file=sys.stderr,
            )
            failures += 1

    if "fearlessc disasm" not in implementation:
        print(
            "check_docs: docs/IMPLEMENTATION.md does not document the "
            "`fearlessc disasm` subcommand",
            file=sys.stderr,
        )
        failures += 1

    # 9: the daemon docs.
    ops = extract_wire_ops(WIRE_CPP.read_text())
    if not ops:
        print(
            "check_docs: could not extract the OpNames array from "
            "src/server/Wire.cpp",
            file=sys.stderr,
        )
        failures += 1
    for op in sorted(ops):
        if f"`{op}`" not in server_doc:
            print(
                f"check_docs: wire op '{op}' is defined in "
                f"src/server/Wire.cpp but docs/SERVER.md never mentions "
                f"`{op}`",
                file=sys.stderr,
            )
            failures += 1

    daemon_flags = extract_accepted_flags(FEARLESSD_CPP.read_text())
    if not daemon_flags:
        print(
            "check_docs: could not extract any flags from "
            "tools/fearlessd.cpp",
            file=sys.stderr,
        )
        failures += 1
    for flag in sorted(daemon_flags):
        if f"--{flag}" not in server_doc:
            print(
                f"check_docs: fearlessd accepts --{flag} but "
                f"docs/SERVER.md never documents it",
                file=sys.stderr,
            )
            failures += 1
    for doc_path, text in (
        (README_MD, readme),
        (OBSERVABILITY_MD, observability),
        (SERVER_MD, server_doc),
    ):
        for line, flag in extract_documented_flags(text, "fearlessd"):
            if flag not in daemon_flags:
                print(
                    f"check_docs: {doc_path.relative_to(ROOT)}:{line} "
                    f"shows 'fearlessd ... --{flag}' but fearlessd does "
                    f"not accept --{flag}",
                    file=sys.stderr,
                )
                failures += 1

    if "daemon" not in accepted:
        print(
            "check_docs: fearlessc does not accept --daemon, but the "
            "server docs depend on it",
            file=sys.stderr,
        )
        failures += 1

    for name in SERVER_COUNTERS:
        if name not in server_doc:
            print(
                f"check_docs: docs/SERVER.md never mentions the server "
                f"counter '{name}'",
                file=sys.stderr,
            )
            failures += 1

    # 10: every handbook links the shared vocabulary.
    for doc_path in (README_MD, DESIGN_MD, LANGUAGE_MD, IMPLEMENTATION_MD,
                     ANALYSIS_MD, OBSERVABILITY_MD, SCHEDULER_MD, SERVER_MD,
                     MODELCHECK_MD):
        if "GLOSSARY" not in doc_path.read_text():
            print(
                f"check_docs: {doc_path.relative_to(ROOT)} does not link "
                f"docs/GLOSSARY.md",
                file=sys.stderr,
            )
            failures += 1

    if failures:
        print(f"check_docs: {failures} drift issue(s)", file=sys.stderr)
        return 1

    print(
        f"check_docs: OK ({len(counters)} counters documented, "
        f"{len(accepted)} CLI flags consistent, "
        f"{len(points)} fault points documented, "
        f"{len(ops)} wire ops and {len(daemon_flags)} fearlessd flags "
        f"documented)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
