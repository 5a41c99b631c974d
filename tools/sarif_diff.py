#!/usr/bin/env python3
"""Diff two sysuq_analyze SARIF logs; fail on NEW and on STALE findings.

Usage: sarif_diff.py BASELINE.sarif CURRENT.sarif

A finding is keyed on (ruleId, file URI, message text). Line numbers are
deliberately NOT part of the key so unrelated edits that shift a known
finding up or down do not trip the gate; the analyzer's messages embed
enough context (names, mutex chains) to keep keys distinct in practice.
Duplicate keys are counted, so adding a second instance of an
already-baselined finding still fails.

Stale baseline entries (baselined findings the current scan no longer
reports) also fail: a baseline that over-states the debt masks
regressions, because a new finding can hide in the budget a resolved one
left behind. Fixing debt therefore requires regenerating the baseline in
the same change, which keeps it an exact inventory.

A matched finding whose baseline startLine differs from the current scan
prints a MOVED line (baseline line -> current line) without failing, so
a baseline whose line numbers went stale shows in the log. Among
findings sharing a key, the lines both scans report are unmoved, and the
rest pair up in ascending order.

Exit codes: 0 = baseline exactly matches, 1 = new or stale findings,
2 = usage/IO error.
"""

import json
import sys
from collections import Counter, defaultdict


def load_findings(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"sarif_diff: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    keys = Counter()
    lines = defaultdict(list)
    for run in doc.get("runs", []):
        for result in run.get("results", []):
            rule = result.get("ruleId", "")
            message = result.get("message", {}).get("text", "")
            uri = ""
            line = 0
            for loc in result.get("locations", []):
                phys = loc.get("physicalLocation", {})
                uri = phys.get("artifactLocation", {}).get("uri", "")
                line = phys.get("region", {}).get("startLine", 0)
                break
            keys[(rule, uri, message)] += 1
            lines[(rule, uri, message)].append(line)
    return keys, lines


def moved_lines(baseline_lines, current_lines):
    """(baseline, current) line pairs of one key's matched findings that moved."""
    was, now = Counter(baseline_lines), Counter(current_lines)
    unmoved = was & now
    return list(zip(sorted((was - unmoved).elements()),
                    sorted((now - unmoved).elements())))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    baseline, baseline_lines = load_findings(argv[1])
    current, current_lines = load_findings(argv[2])

    new = current - baseline
    resolved = baseline - current

    for key, count in sorted(resolved.items()):
        rule, uri, message = key
        suffix = f" (x{count})" if count > 1 else ""
        print(f"STALE: [{rule}] {uri}: {message}{suffix}")
    if resolved:
        print(
            f"{sum(resolved.values())} stale baselined finding(s) no longer "
            "reported; regenerate tools/analyze_baseline.sarif to lock in "
            "the progress."
        )

    for key, count in sorted(new.items()):
        rule, uri, message = key
        suffix = f" (x{count})" if count > 1 else ""
        print(f"NEW: [{rule}] {uri}: {message}{suffix}")
    if new:
        print(
            f"{sum(new.values())} new finding(s) vs baseline; fix them or, "
            "for accepted debt, regenerate tools/analyze_baseline.sarif."
        )

    moved = 0
    for key in sorted(baseline & current):
        rule, uri, message = key
        for was, now in moved_lines(baseline_lines[key], current_lines[key]):
            print(f"MOVED: [{rule}] {uri}: {message} (line {was} -> {now})")
            moved += 1
    if moved:
        print(
            f"{moved} baselined finding(s) moved; regenerate "
            "tools/analyze_baseline.sarif to refresh their lines."
        )

    if new or resolved:
        return 1
    print(
        f"baseline exact ({sum(current.values())} current, "
        f"{sum(baseline.values())} baselined)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
