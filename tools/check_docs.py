#!/usr/bin/env python3
"""Docs drift gate (CI `docs` job).

Four checks, all grep-based and dependency-free:

 1. Every TraceKind enumerator (src/sim/trace.h) and every PhaseId
    enumerator (src/obs/phase.h) must appear in docs/OBSERVABILITY.md.
 2. Every counter name passed as a string literal to StatsRegistry
    add()/set() anywhere under src/ or tools/ must appear in
    docs/OBSERVABILITY.md.  Names built by concatenation
    ("disk." + name_ + ".writes") become wildcard patterns
    ("disk.*.writes") that must appear verbatim.
 3. The reverse: every counter name that §4 of docs/OBSERVABILITY.md lists
    must be spelled out by a string literal in src/ or tools/ (or be a
    `mem.` field of src/core/mem_stats.h).
 4. Every relative markdown link in the repo's *.md files must point at an
    existing file.

`--self-test` proves the gate actually bites: it re-runs checks 2 and 3
against copies of the docs with one documented counter deleted and with
one dead name planted, and fails unless the checker reports each.  CI
runs both modes, so a TraceKind or counter landing without documentation,
or a counter the code dropped, turns the docs job red.
"""

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OBS_DOC = REPO / "docs" / "OBSERVABILITY.md"

# Counter names look like dotted lowercase paths; this keeps unrelated
# .add()/.set() calls (containers, test fixtures) out of the inventory.
COUNTER_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def fail(errors):
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{len(errors)} docs error(s)", file=sys.stderr)
    sys.exit(1)


def extract_enumerators(header, enum_name):
    """Enumerator names of `enum class <enum_name>` in `header`."""
    text = header.read_text()
    m = re.search(
        rf"enum\s+class\s+{enum_name}\b[^{{]*\{{(.*?)\}};", text, re.S)
    if not m:
        fail([f"{header}: enum class {enum_name} not found"])
    names = re.findall(r"^\s*(k[A-Za-z0-9_]+)\s*[,=}]", m.group(1), re.M)
    if not names:
        fail([f"{header}: no enumerators parsed for {enum_name}"])
    return names


def split_call_arg(text, start):
    """Return text of the first argument of a call whose '(' is at start."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == '(':
            depth += 1
        elif c == ')':
            depth -= 1
            if depth == 0:
                return text[start + 1:i]
        elif c == ',' and depth == 1:
            return text[start + 1:i]
    return ""


def cpp_sources():
    return [p for d in ("src", "tools") for ext in ("*.cc", "*.h")
            for p in sorted((REPO / d).rglob(ext))]


def extract_counters():
    """Counter-name patterns from every .add("...")/.set("...") in src/ and
    tools/."""
    patterns = set()
    for path in cpp_sources():
        text = path.read_text()
        for m in re.finditer(r"\.(?:add|set)\(", text):
            arg = split_call_arg(text, m.end() - 1)
            literals = re.findall(r'"((?:[^"\\]|\\.)*)"', arg)
            if not literals:
                continue  # fully dynamic name; nothing greppable
            stripped = re.sub(r'"((?:[^"\\]|\\.)*)"', "\x00", arg)
            parts = stripped.split("\x00")
            if "?" in stripped:
                # Ternary: each literal is an alternative full name.
                for lit in literals:
                    if COUNTER_RE.match(lit):
                        patterns.add(lit)
                continue
            # Concatenation: variable segments become '*' wildcards.  A
            # wrapper like std::string("...") is not a concatenation, so a
            # segment only counts when it contains a '+'.
            name = ""
            for i, lit in enumerate(literals):
                if "+" in parts[i]:
                    if not name.endswith("*"):
                        name += "*"
                name += lit
            if "+" in parts[-1]:
                if not name.endswith("*"):
                    name += "*"
            probe = name.replace("*", "x")
            if COUNTER_RE.match(probe):
                patterns.add(name)
    if not patterns:
        fail(["no counter literals found under src/ — extractor broken?"])
    return sorted(patterns)


def check_names_documented(names, doc_text, what):
    return [f"{what} '{n}' is used in src/ but not documented in "
            f"{OBS_DOC.relative_to(REPO)}"
            for n in names if n not in doc_text]


def check_documented_emitted(doc_text):
    """§4 names that no string literal in src/ or tools/ spells out.  A
    wildcard name counts when literals spell its fixed pieces or one of its
    instances; a prose example ("disk.log.mds0.writes") counts when its
    wildcard family does."""
    sec = re.search(r"^## 4\..*?(?=^## 5\.)", doc_text, re.S | re.M)
    if not sec:
        fail([f"{OBS_DOC.relative_to(REPO)}: section 4 not found"])
    documented = {n for n in re.findall(r"`([^`]+)`", sec.group(0))
                  if COUNTER_RE.match(n.replace("*", "x"))}
    lits = set()
    for path in cpp_sources():
        text = re.sub(r"//[^\n]*|/\*.*?\*/", "", path.read_text(), flags=re.S)
        lits.update(re.findall(r'"((?:[^"\\]|\\.)*)"', text))
    mem = (REPO / "src/core/mem_stats.h").read_text()
    lits |= {"mem." + f for f in re.findall(r"std::atomic<[^>]*>\s+(\w+)\{", mem)}
    families = []
    for n in (n for n in documented if "*" in n):
        fam = re.compile(re.escape(n).replace(r"\*", ".+") + "$")
        if all(p in lits for p in n.split("*") if p) or any(map(fam.match, lits)):
            families.append(fam)
    return [f"counter '{n}' is documented in {OBS_DOC.relative_to(REPO)} §4 "
            "but emitted nowhere in src/ or tools/" for n in sorted(documented)
            if n not in lits and not any(f.match(n) for f in families)]


def check_markdown_links():
    errors = []
    md_files = sorted(REPO.glob("*.md")) + sorted(REPO.glob("docs/*.md"))
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for md in md_files:
        text = md.read_text()
        # Strip fenced code blocks: ``` samples often contain [x](y) noise.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in link_re.findall(text):
            if re.match(r"[a-z]+://", target) or target.startswith("#"):
                continue
            rel = target.split("#")[0]
            if not rel:
                continue
            if not (md.parent / rel).exists() and not (REPO / rel).exists():
                errors.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}")
    return errors


def run_checks(doc_text):
    errors = []
    trace_kinds = extract_enumerators(REPO / "src/sim/trace.h", "TraceKind")
    phase_ids = extract_enumerators(REPO / "src/obs/phase.h", "PhaseId")
    errors += check_names_documented(trace_kinds, doc_text, "TraceKind")
    errors += check_names_documented(phase_ids, doc_text, "PhaseId")
    errors += check_names_documented(extract_counters(), doc_text, "counter")
    errors += check_documented_emitted(doc_text)
    return errors


def self_test():
    """The gate must fail when a documented counter disappears from docs,
    and when the docs list a counter nothing emits."""
    doc_text = OBS_DOC.read_text()
    if run_checks(doc_text):
        fail(["self-test needs a clean baseline; fix the docs first"])
    victim = extract_counters()[0]
    mutated = doc_text.replace(victim, "REDACTED")
    missing = run_checks(mutated)
    if not any(victim in e for e in missing):
        fail([f"self-test: deleting '{victim}' from the docs was NOT "
              "detected — the checker is toothless"])
    dead = "lock.self_test_dead"
    mutated = doc_text.replace("`lock.timeouts`", f"`lock.timeouts`, `{dead}`")
    if not any(dead in e for e in run_checks(mutated)):
        fail([f"self-test: documenting the dead counter '{dead}' was NOT "
              "detected — the reverse check is toothless"])
    print(f"self-test ok: deleting '{victim}' and documenting '{dead}' "
          "are both detected")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--self-test", action="store_true",
                    help="prove the checker fails on an undocumented name "
                    "and on a dead documented one")
    args = ap.parse_args()

    if not OBS_DOC.exists():
        fail([f"{OBS_DOC.relative_to(REPO)} is missing"])
    if args.self_test:
        self_test()
        return

    errors = run_checks(OBS_DOC.read_text())
    errors += check_markdown_links()
    if errors:
        fail(errors)
    print("docs ok: trace kinds, phase ids, counters and markdown links")


if __name__ == "__main__":
    main()
