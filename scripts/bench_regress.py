#!/usr/bin/env python3
"""Gate the ledger's deterministic work counters against a baseline.

The paper compares ECUT, ECUT+ and PT-Scan by how much data each one
fetches (§3.1.1, Fig 2). The ledger's traced runs report that cost model as
counters that depend only on the code and the seed, never on the host.
This script reads a ledger set document, takes each workload's traced run
("trace": true), and compares the counters below exactly against the
committed baseline, scripts/ledger_counters.json (seed 1, smoke size).
Times are reported by the ledger, not gated here.

It prints one table and exits 1 on any changed value, missing workload or
missing counter, and 2 on usage errors.

A change that moves a counter on purpose regenerates the baseline and says
why in CHANGES.md:

  ctest --test-dir build-ledger -L ledger   # writes smoke-out/set.json
  scripts/bench_regress.py build-ledger/smoke-out/set.json --write

Usage: scripts/bench_regress.py SET.json [--write]
       scripts/bench_regress.py --self-test
"""

import copy
import json
import os
import sys

COUNTERS = (
    "itemsets.new_candidates_per_block",
    "itemsets.tracked_itemsets",
    "itemsets.frequent_itemsets",
    "itemsets.itemsets_counted_per_block",
    "itemsets.slots_fetched_per_block",
    "itemsets.lists_opened_per_block",
    "itemsets.transactions_scanned_per_block",
    "tidlist.payload_bytes_per_record",
    "persistence.wal_bytes_per_record",
    "persistence.checkpoint_bytes_per_record",
)
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "ledger_counters.json")


def counters_of(set_doc):
    """The baseline-shaped document for a set: its seed and, per workload,
    the counters of its traced run."""
    workloads = {}
    for run in set_doc.get("runs", []):
        if not run.get("trace"):
            continue
        metrics = run.get("result", {}).get("metrics", {})
        workloads[run["workload"]] = {
            name: metrics[name]["value"] for name in COUNTERS
            if name in metrics}
    return {"seed": set_doc.get("seed"), "counters": workloads}


def compare(baseline, current):
    """Returns (table lines, number of failing rows)."""
    rows = []
    if current["seed"] != baseline["seed"]:
        rows.append(("-", "seed", baseline["seed"], current["seed"],
                     "CHANGED"))
    base, cur = baseline["counters"], current["counters"]
    for workload in sorted(set(base) | set(cur)):
        if workload not in cur:
            rows.append((workload, "-", "-", "-", "missing workload"))
            continue
        if workload not in base:
            rows.append((workload, "-", "-", "-", "not in baseline"))
            continue
        for name in COUNTERS:
            want, got = base[workload].get(name), cur[workload].get(name)
            if got is None:
                status = "missing counter"
            elif want is None:
                status = "not in baseline"
            else:
                status = "ok" if got == want else "CHANGED"
            rows.append((workload, name, want, got, status))

    lines = [f"{'workload':<14} {'counter':<40} {'baseline':>16} "
             f"{'current':>16}  status"]
    for workload, name, want, got, status in rows:
        lines.append(f"{workload:<14} {name:<40} "
                     f"{'-' if want is None else str(want):>16} "
                     f"{'-' if got is None else str(got):>16}  {status}")
    return lines, sum(1 for row in rows if row[4] != "ok")


def self_test():
    doc = {"seed": 1, "runs": [
        {"workload": w, "trace": trace, "result": {"metrics": {
            name: {"value": 10.5 if trace else 99.0} for name in COUNTERS}}}
        for w in ("a", "b") for trace in (False, True)]}
    baseline = counters_of(doc)

    changed = copy.deepcopy(doc)
    changed["runs"][3]["result"]["metrics"][COUNTERS[4]]["value"] = 21.0
    missing_workload = copy.deepcopy(doc)
    del missing_workload["runs"][2:]
    missing_counter = copy.deepcopy(doc)
    del missing_counter["runs"][1]["result"]["metrics"][COUNTERS[0]]
    untraced_moved = copy.deepcopy(doc)
    untraced_moved["runs"][0]["result"]["metrics"][COUNTERS[0]]["value"] = 1.0

    # (case, set document, expected failing rows, status that must appear)
    cases = [
        ("identical input passes", doc, 0, "ok"),
        ("untraced runs are not gated", untraced_moved, 0, "ok"),
        ("a changed value fails", changed, 1, "CHANGED"),
        ("a missing workload fails", missing_workload, 1,
         "missing workload"),
        ("a missing counter fails", missing_counter, 1, "missing counter"),
    ]
    failures = []
    for name, set_doc, want_failures, want_status in cases:
        lines, got_failures = compare(baseline, counters_of(set_doc))
        if got_failures != want_failures:
            failures.append(f"{name}: expected {want_failures} failing "
                            f"row(s), got {got_failures}")
        if not any(line.endswith("  " + want_status) for line in lines[1:]):
            failures.append(f"{name}: no row with status {want_status!r}")
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    print(f"bench_regress.py: self-test ran {len(cases)} cases, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    args = argv[1:]
    write = "--write" in args
    paths = [arg for arg in args if arg != "--write"]
    if len(paths) != 1 or paths[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        current = counters_of(json.load(f))
    if write:
        with open(BASELINE, "w") as f:
            json.dump(current, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE}")
        return 0
    with open(BASELINE) as f:
        baseline = json.load(f)
    lines, failures = compare(baseline, current)
    print("\n".join(lines))
    print(f"\n{failures} counter(s) differ from {BASELINE}.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
