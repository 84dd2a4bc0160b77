#!/usr/bin/env python3
"""Repo-specific C++ lint for the DEMON codebase.

Checks enforced (all are CI-blocking):

  naked-new      `new` expressions outside an immediate smart-pointer wrap.
                 The only sanctioned raw `new` is the private-constructor
                 factory idiom `std::unique_ptr<T>(new T(...))` /
                 `std::shared_ptr<T>(new T(...))` on a single line.
  naked-delete   Any `delete` expression (`= delete` declarations are fine).
                 Ownership in this codebase is RAII-only.
  std-rand       `std::rand` / `srand` / bare `rand(`. All randomness must
                 go through common/random.h so runs stay reproducible.
  nodiscard      Header declarations returning `Status` or `Result<T>` must
                 carry `[[nodiscard]]`: a dropped Status is a swallowed
                 corruption report.
  include-guard  Every header under src/ uses the canonical
                 `DEMON_<PATH>_H_` include guard, with the matching
                 `#define` and a `#endif  // <guard>` trailer.
  wall-timer     Raw `WallTimer` / `AccumulatingTimer` use outside
                 src/common/. Instrument through common/telemetry.h
                 instead (telemetry::ScopedTimer + histograms), so phase
                 timings land in the registry rather than ad-hoc fields.
  tidlist-raw    Raw TID-list storage access (`ItemList(` / `PairList(`
                 accessors or the test-only payload mutators) outside
                 src/tidlist/. Consumers read encoded lists through the
                 lease + view API (`Lease`, `ItemView`, `PairView`) or the
                 decoded copies (`MaterializeItemList` / `MaterializePairList`)
                 so paging and encoding stay invisible to them.
  metric-name    Telemetry registry lookups (`counter("` / `gauge("` /
                 `histogram("`) whose name literal does not follow the
                 `subsystem/name` convention: lowercase [a-z0-9_]
                 segments joined by `/`, at least two segments. A
                 concatenated name (`counter("monitor/" + name + ...)`)
                 must open with a complete `subsystem/` prefix literal.
                 Keeps the timeline/alert metric namespace greppable and
                 the Perfetto counter tracks grouped by subsystem.
  naked-sync     Raw standard sync primitives (`std::mutex` and friends,
                 `std::lock_guard` / `std::unique_lock` / `std::scoped_lock`,
                 `std::condition_variable`, or including <mutex> /
                 <condition_variable> / <shared_mutex>) outside
                 src/common/sync.h. All locking goes through the annotated
                 demon::Mutex / MutexLock / CondVar wrappers so clang's
                 -Wthread-safety analysis sees every acquisition.
  raw-argv       `argv[...]` indexing outside src/common/. Command lines
                 are declared on a flags::FlagSet (common/flags.h) and
                 parsed with Parse/ParseKnown; positional words go
                 through flags::Positional. Hand-rolled scanning is how
                 typos silently fall back to defaults.

Suppress a finding with `// lint:allow(<check>)` on the offending line.

Usage: scripts/lint.py [root]       (root defaults to the repo checkout)
       scripts/lint.py --self-test  (lint known-bad snippets; each check
                                     must fire exactly where seeded)
"""

import re
import sys
import tempfile
from pathlib import Path

CODE_DIRS = ("src", "tests", "bench", "examples")
HEADER_EXT = {".h"}
SOURCE_EXT = {".h", ".cc", ".cpp"}

SMART_WRAP_RE = re.compile(r"(unique_ptr|shared_ptr)\s*<[^;]*>\s*\(\s*new\b")
NEW_RE = re.compile(r"\bnew\b\s+[A-Za-z_:<(]")
DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?\s+[A-Za-z_:*(]")
RAND_RE = re.compile(r"\b(std::)?s?rand\s*\(")
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+|static\s+)*(?:Status|Result<[^;={}]*>)\s+\w+\s*\("
)
GUARD_RE = re.compile(r"^#ifndef\s+(\w+)\s*$")
WALL_TIMER_RE = re.compile(r"\b(WallTimer|AccumulatingTimer)\b")
# Bare `ItemList(` / `PairList(` only: the sanctioned accessors
# (MaterializeItemList, HasPairList, ItemListSize, ...) embed the words
# inside longer identifiers, so `\b` never fires on them.
TIDLIST_RAW_RE = re.compile(
    r"\b(?:ItemList|PairList)\s*\(|\bmutable_item_list_for_test\b"
)
# Telemetry registry lookups whose first argument opens with a string
# literal. The stripper blanks literal contents but keeps the quotes, so
# the opening quote still matches; the name is read from the raw line at
# the same offset.
METRIC_CALL_RE = re.compile(r"\b(?:counter|gauge|histogram)\s*\(\s*\"")
# A complete metric name: subsystem/name with optional deeper segments.
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)+$")
# The literal head of a concatenated name must be a full `subsystem/`
# (or deeper) prefix ending at a segment boundary.
METRIC_PREFIX_RE = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)*/$")
# Raw standard sync primitives and the headers that supply them. Everything
# here has an annotated wrapper in common/sync.h.
NAKED_SYNC_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)


# argv indexing outside the flags library.
RAW_ARGV_RE = re.compile(r"\bargv\s*\[")


def strip_comments_and_strings(line, in_block_comment):
    """Replaces comment and string-literal contents with spaces.

    Returns (stripped_line, still_in_block_comment). Keeping the original
    length means reported findings still line up with the source.
    """
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                out.append(" " * (n - i))
                i = n
            else:
                out.append(" " * (end + 2 - i))
                i = end + 2
                in_block_comment = False
            continue
        two = line[i : i + 2]
        if two == "//":
            out.append(" " * (n - i))
            break
        if two == "/*":
            in_block_comment = True
            i += 2
            out.append("  ")
            continue
        ch = line[i]
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if line[j] == "\\":
                    j += 2
                    continue
                if line[j] == quote:
                    break
                j += 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j, n - 1) + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), in_block_comment


def expected_guard(path, root):
    rel = path.relative_to(root / "src")
    return "DEMON_" + re.sub(r"[./]", "_", str(rel)).upper() + "_"


def allowed(raw_line, check):
    return f"lint:allow({check})" in raw_line


def lint_file(path, root, findings):
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    in_block = False
    code_lines = []
    for raw in raw_lines:
        code, in_block = strip_comments_and_strings(raw, in_block)
        code_lines.append(code)

    def report(lineno, check, message):
        if not allowed(raw_lines[lineno - 1], check):
            findings.append(f"{path.relative_to(root)}:{lineno}: [{check}] {message}")

    for lineno, code in enumerate(code_lines, start=1):
        # The sanctioned factory idiom may wrap after the opening paren, so
        # join the previous line before testing for the smart-pointer wrap.
        wrap_window = code_lines[max(0, lineno - 2)] + " " + code
        if NEW_RE.search(code) and not SMART_WRAP_RE.search(wrap_window):
            report(lineno, "naked-new",
                   "raw `new` outside an immediate smart-pointer wrap")
        if DELETE_RE.search(code) and "= delete" not in code:
            report(lineno, "naked-delete",
                   "raw `delete`; ownership must be RAII")
        if RAND_RE.search(code):
            report(lineno, "std-rand",
                   "use common/random.h, not the C PRNG")
        if (WALL_TIMER_RE.search(code)
                and not path.is_relative_to(root / "src" / "common")):
            report(lineno, "wall-timer",
                   "raw timer outside src/common/; instrument via "
                   "common/telemetry.h (ScopedTimer + histograms)")
        if (TIDLIST_RAW_RE.search(code)
                and not path.is_relative_to(root / "src" / "tidlist")):
            report(lineno, "tidlist-raw",
                   "raw TID-list storage access outside src/tidlist/; use "
                   "the lease + view API or Materialize{Item,Pair}List")
        # Metric names can wrap after the call's opening paren, so match
        # in a two-line window; stripping preserves lengths, so offsets
        # in the code window address the raw window too.
        next_code = code_lines[lineno] if lineno < len(code_lines) else ""
        next_raw = raw_lines[lineno] if lineno < len(raw_lines) else ""
        code_window = code + "\n" + next_code
        raw_window = raw_lines[lineno - 1] + "\n" + next_raw
        for m in METRIC_CALL_RE.finditer(code_window):
            if m.start() >= len(code):
                break  # starts on the next line; its own pass reports it
            end = raw_window.find('"', m.end())
            if end < 0:
                continue
            literal = raw_window[m.end():end]
            after = code_window[end + 1:].lstrip()
            ok = (METRIC_PREFIX_RE.match(literal) if after.startswith("+")
                  else METRIC_NAME_RE.match(literal))
            if not ok:
                report(lineno, "metric-name",
                       f'metric name "{literal}" is not `subsystem/name` '
                       "(lowercase [a-z0-9_] segments joined by `/`)")
        if (NAKED_SYNC_RE.search(code)
                and path != root / "src" / "common" / "sync.h"):
            report(lineno, "naked-sync",
                   "raw std sync primitive outside src/common/sync.h; use "
                   "the annotated demon::Mutex / MutexLock / CondVar "
                   "wrappers so -Wthread-safety sees the acquisition")
        if (RAW_ARGV_RE.search(code)
                and not path.is_relative_to(root / "src" / "common")):
            report(lineno, "raw-argv",
                   "argv indexing outside src/common/; declare the flags "
                   "on a flags::FlagSet and read positionals via "
                   "flags::Positional")
        if (path.suffix in HEADER_EXT
                and NODISCARD_DECL_RE.match(code)
                and "[[nodiscard]]" not in code_lines[max(0, lineno - 2)]
                and "[[nodiscard]]" not in code):
            report(lineno, "nodiscard",
                   "Status/Result-returning declaration lacks [[nodiscard]]")

    if path.suffix in HEADER_EXT and path.is_relative_to(root / "src"):
        guard = expected_guard(path, root)
        first_directive = next(
            (c.strip() for c in code_lines if c.strip().startswith("#")), "")
        match = GUARD_RE.match(first_directive)
        if not match or match.group(1) != guard:
            findings.append(
                f"{path.relative_to(root)}:1: [include-guard] expected "
                f"`#ifndef {guard}` as the first directive")
        else:
            if f"#define {guard}" not in (c.strip() for c in code_lines):
                findings.append(
                    f"{path.relative_to(root)}:1: [include-guard] missing "
                    f"`#define {guard}`")
            trailer = f"#endif  // {guard}"
            if not any(raw.strip() == trailer for raw in raw_lines):
                findings.append(
                    f"{path.relative_to(root)}:{len(raw_lines)}: "
                    f"[include-guard] missing `{trailer}` trailer")


# (case name, repo-relative path, file content, checks expected to fire).
# One seeded violation per check plus negative controls, exercised by
# --self-test against a throwaway tree — proves each regex still bites
# before CI trusts a clean run.
SELF_TEST_CASES = [
    ("naked-new fires", "src/core/a.cc",
     "void F() {\n  auto* p = new Foo();\n  Use(p);\n}\n",
     ["naked-new"]),
    ("factory idiom is sanctioned", "src/core/b.cc",
     "auto p = std::shared_ptr<Foo>(new Foo());\n",
     []),
    ("naked-delete fires", "src/core/c.cc",
     "void F(Foo* p) {\n  delete p;\n}\n",
     ["naked-delete"]),
    ("std-rand fires", "src/core/d.cc",
     "int F() {\n  return std::rand();\n}\n",
     ["std-rand"]),
    ("wall-timer fires outside src/common", "src/core/e.cc",
     "void F() {\n  WallTimer timer;\n}\n",
     ["wall-timer"]),
    ("tidlist-raw fires outside src/tidlist", "src/core/g.cc",
     "void F(const BlockTidLists& lists) {\n  Use(lists.ItemList(3));\n}\n",
     ["tidlist-raw"]),
    ("nodiscard fires on a Status declaration", "src/demo.h",
     "#ifndef DEMON_DEMO_H_\n#define DEMON_DEMO_H_\n"
     "Status Load();\n"
     "#endif  // DEMON_DEMO_H_\n",
     ["nodiscard"]),
    ("include-guard fires on a wrong guard", "src/guard.h",
     "#ifndef WRONG_H_\n#define WRONG_H_\n#endif  // WRONG_H_\n",
     ["include-guard"]),
    ("metric-name fires on a slashless name", "src/core/m.cc",
     "void F(telemetry::TelemetryRegistry* r) {\n"
     "  r->counter(\"blocks\")->Add(1);\n}\n",
     ["metric-name"]),
    ("metric-name fires on an uppercase segment", "src/core/n.cc",
     "void F(telemetry::TelemetryRegistry* r) {\n"
     "  r->histogram(\"Engine/response_seconds\");\n}\n",
     ["metric-name"]),
    ("subsystem/name literal is sanctioned", "src/core/o.cc",
     "void F(telemetry::TelemetryRegistry* r) {\n"
     "  r->gauge(\"evolution/borders/churn\")->Set(0.5);\n}\n",
     []),
    ("concatenation with a subsystem/ prefix is sanctioned", "src/core/p.cc",
     "void F(telemetry::TelemetryRegistry* r, const std::string& n) {\n"
     "  r->histogram(\"monitor/\" + n + \"/response_seconds\");\n}\n",
     []),
    ("concatenation without a trailing slash fires", "src/core/q.cc",
     "void F(telemetry::TelemetryRegistry* r, const std::string& n) {\n"
     "  r->counter(\"monitor\" + n);\n}\n",
     ["metric-name"]),
    ("wrapped metric name is still checked", "src/core/r.cc",
     "void F(telemetry::TelemetryRegistry* r) {\n"
     "  r->counter(\n      \"badname\");\n}\n",
     ["metric-name"]),
    ("naked-sync fires on a raw mutex", "src/core/h.cc",
     "std::mutex mu;\nstd::lock_guard<std::mutex> lock(mu);\n",
     ["naked-sync"]),
    ("naked-sync fires on the header include", "src/core/i.cc",
     "#include <condition_variable>\n",
     ["naked-sync"]),
    ("naked-sync respects lint:allow", "src/core/j.cc",
     "std::mutex mu;  // lint:allow(naked-sync)\n",
     []),
    ("naked-sync exempts common/sync.h", "src/common/sync.h",
     "#ifndef DEMON_COMMON_SYNC_H_\n#define DEMON_COMMON_SYNC_H_\n"
     "#include <mutex>\nstd::mutex mu;\n"
     "#endif  // DEMON_COMMON_SYNC_H_\n",
     []),
    ("comments and strings never fire", "src/core/k.cc",
     "// std::mutex in a comment\n"
     "const char* s = \"std::condition_variable\";\n",
     []),
    ("raw-argv fires on argv indexing", "src/core/s.cc",
     "int main(int argc, char** argv) {\n"
     "  const char* first = argv[1];\n  Use(first);\n}\n",
     ["raw-argv"]),
    ("raw-argv exempts src/common", "src/common/args.cc",
     "const char* F(char** argv) {\n  return argv[0];\n}\n",
     []),
    ("raw-argv respects lint:allow", "src/core/t.cc",
     "const char* F(char** argv) {\n"
     "  return argv[0];  // lint:allow(raw-argv)\n}\n",
     []),
    ("clean file stays clean", "src/core/l.cc",
     "void F() {}\n",
     []),
]


def self_test():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, rel, content, expected in SELF_TEST_CASES:
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
            findings = []
            lint_file(path, root, findings)
            got = sorted({m.group(1) for f in findings
                          if (m := re.search(r"\[([a-z-]+)\]", f))})
            if got != sorted(expected):
                failures.append(
                    f"{name}: expected {sorted(expected)}, got {got}")
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    print(f"lint.py: self-test ran {len(SELF_TEST_CASES)} cases, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return self_test()
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent
    files = sorted(
        p for d in CODE_DIRS for p in (root / d).rglob("*")
        if p.suffix in SOURCE_EXT and p.is_file())
    if not files:
        print(f"lint.py: no sources found under {root}", file=sys.stderr)
        return 2
    findings = []
    for path in files:
        lint_file(path, root, findings)
    for finding in findings:
        print(finding)
    print(f"lint.py: checked {len(files)} files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
