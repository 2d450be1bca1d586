#!/usr/bin/env python3
"""Hot-path invariant linter (DESIGN.md §11).

Enforces project rules the compiler cannot express, turning invariants
that were previously only caught by runtime tests (the zero-alloc scan
suite, the Status-not-abort API tests) into CI build failures:

  kernel-no-alloc      The block-scan kernels (ScanKernel::accumulate
                       in src/core/scan.h, which splits a call at the
                       store's uint16/uint8 stripe boundary, the uint16
                       and uint8 instantiations of ScalarAccumulate and
                       of Avx2Accumulate with its Gather8 step,
                       BlockedFullScan, BlockedEaScan in
                       src/core/scan.cc / scan_avx2.cc, and the query
                       driver's scan loops ScanBlocked and ScanWindow and
                       its ranking's bucket select SelectNearest in
                       src/core/search_driver.cc), the centroid
                       kernels behind the ADC lookup tables, k-means
                       assignment and encoding (ScalarCentroidDistances,
                       ScalarCentroidNearest and their DistanceTile step,
                       Avx2CentroidDistances, Avx2CentroidNearest and
                       their Distances8/Distances16 steps, in
                       src/clustering/centroid_kernel.cc /
                       centroid_kernel_avx2.cc), the per-row encoder
                       (EncodeRow in src/core/codebook.cc) and the TI
                       build's assignment loop (NearestClusters in
                       src/core/ti_partition.cc) must not allocate: no
                       new/malloc, no container growth. The paper's
                       speed claims (Sec. III-E) rest on these loops
                       touching nothing but caller-owned buffers.
  kernel-no-clock      Same functions: no direct clock reads. Time is
                       observed only at cooperative checkpoints through
                       StopController, so unbounded queries stay
                       bit-identical and pay zero clock syscalls.
  kernel-no-log        Same functions: no VAQ_LOG/Logf. Logging from a
                       per-block loop would allocate and serialize on the
                       sink; telemetry leaves the kernel via SearchStats.
  no-raw-stdio         No fprintf/printf/puts outside src/common/log.cc.
                       Every diagnostic goes through the leveled VAQ_LOG
                       funnel so servers and tests can capture it.
  entrypoint-no-check  Public Search*/Load* entry points of the saved
                       families (src/core/vaq_index.cc,
                       src/index/vaq_ivf.cc, src/quant/pq.cc,
                       src/quant/opq.cc), the shared query driver
                       (src/core/search_driver.cc) and its partition
                       ranking (Rank*, run on the user's visit_fraction
                       and nprobe), the shared file reader every Load
                       runs through (LoadSections and ContainerReader's
                       Parse/Section in src/common/serialize.cc) and the
                       code store's TIPT/LIST reader (PartitionedCodes'
                       Load* in src/core/scan.cc) must not VAQ_CHECK:
                       user-reachable misuse and untrusted files return
                       Status, never abort the process. (VAQ_DCHECK
                       stays legal: debug-only, compiled out of release
                       servers.)

Suppression: append  // vaq-lint: allow(<rule-id>) -- <why>  on the
offending line or the line directly above it. Suppressions are per-rule
and per-line; there is no file-level opt-out.

AST-light by design: comments and string literals are stripped, function
extents are recovered by paren/brace matching, and rules are regex over
the residue. That is exact enough for these rules because the kernels are
plain loops; anything fancier belongs in clang-tidy.

Usage:
  lint_invariants.py --root <repo-root>          # lint src/, exit 1 on hit
  lint_invariants.py --self-test <fixture-root>  # verify seeded fixture
"""

import argparse
import os
import re
import sys

# --- rule configuration ------------------------------------------------

KERNEL_FILES = {
    "src/core/scan.h",
    "src/core/scan.cc",
    "src/core/scan_avx2.cc",
    "src/core/search_driver.cc",
    "src/core/codebook.cc",
    "src/core/ti_partition.cc",
    "src/clustering/centroid_kernel.cc",
    "src/clustering/centroid_kernel_avx2.cc",
}
KERNEL_FUNCTIONS = {
    "accumulate",
    "ScalarAccumulate",
    "Avx2Accumulate",
    "Gather8",
    "BlockedFullScan",
    "BlockedEaScan",
    "ScanBlocked",
    "ScanWindow",
    "SelectNearest",
    "DistanceTile",
    "ScalarCentroidDistances",
    "ScalarCentroidNearest",
    "Distances8",
    "Distances16",
    "Avx2CentroidDistances",
    "Avx2CentroidNearest",
    "EncodeRow",
    "NearestClusters",
}

ENTRYPOINT_FILES = {
    "src/core/scan.cc",
    "src/core/vaq_index.cc",
    "src/core/search_driver.cc",
    "src/index/vaq_ivf.cc",
    "src/quant/pq.cc",
    "src/quant/opq.cc",
    "src/common/serialize.cc",
}
ENTRYPOINT_NAME = re.compile(r"\b(?:Search|Load|Parse|Section|Rank)\w*")

STDIO_EXEMPT = {"src/common/log.cc"}

ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "new-expression"),
    (re.compile(r"\b(?:malloc|calloc|realloc)\s*\("), "malloc-family call"),
    (re.compile(r"\.(?:push_back|emplace_back|resize|reserve|assign|"
                r"insert|append)\s*\("), "container growth"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "smart-pointer allocation"),
    (re.compile(r"\bstd::(?:vector|string|deque|map|set|unordered_\w+)\s*<"),
     "owning-container construction"),
]

CLOCK_PATTERNS = [
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
     "std::chrono clock read"),
    (re.compile(r"\bDeadlineNowNanos\s*\("), "deadline clock read"),
    (re.compile(r"\b(?:clock_gettime|gettimeofday|time)\s*\("),
     "libc clock read"),
    (re.compile(r"\b(?:CpuTimer|StageTimer|TraceSpan)\b"),
     "timer object (reads the clock)"),
]

LOG_PATTERNS = [
    (re.compile(r"\bVAQ_LOG\s*\("), "VAQ_LOG"),
    (re.compile(r"\bLogf\s*\("), "Logf"),
]

STDIO_PATTERN = re.compile(
    r"(?<![\w])(?:fprintf|printf|vprintf|vfprintf|puts|fputs)\s*\(")

CHECK_PATTERN = re.compile(r"\bVAQ_CHECK\s*\(")

SUPPRESS_PATTERN = re.compile(r"//\s*vaq-lint:\s*allow\(([\w,\s-]+)\)")

RULE_IDS = [
    "kernel-no-alloc",
    "kernel-no-clock",
    "kernel-no-log",
    "no-raw-stdio",
    "entrypoint-no-check",
]


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def key(self):
        return (self.rule, self.path, self.line)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --- source mangling ---------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving newlines and
    column positions so offsets keep mapping to real locations."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def find_function_extents(stripped, names):
    """Yields (name, body_start, body_end) offsets for definitions of the
    given function names (matched on the unqualified identifier)."""
    for name in names:
        for m in re.finditer(r"\b" + re.escape(name) + r"\s*\(", stripped):
            # Balance the parameter list.
            i = m.end() - 1
            depth = 0
            n = len(stripped)
            while i < n:
                if stripped[i] == "(":
                    depth += 1
                elif stripped[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if i >= n:
                continue
            # Definition if a '{' follows with only qualifier tokens in
            # between (const/noexcept/whitespace). Any ';', ')' or '(' on
            # the way means this was a call or a declaration — e.g. the
            # ')' closing an `if (Search(...))` condition.
            j = i + 1
            while j < n and stripped[j] not in "{;()":
                j += 1
            if j >= n or stripped[j] != "{":
                continue
            # Balance the body.
            k = j
            depth = 0
            while k < n:
                if stripped[k] == "{":
                    depth += 1
                elif stripped[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            if k < n:
                yield name, j, k


def collect_suppressions(raw_text):
    """Maps line number -> set of rule ids allowed on that line (a
    suppression comment also covers the line below it)."""
    allowed = {}
    for idx, line in enumerate(raw_text.splitlines(), start=1):
        m = SUPPRESS_PATTERN.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allowed.setdefault(idx, set()).update(rules)
        allowed.setdefault(idx + 1, set()).update(rules)
    return allowed


# --- rule engines ------------------------------------------------------

def scan_region(stripped, start, end, patterns, rule, relpath, where,
                violations):
    region = stripped[start:end]
    for pattern, label in patterns:
        for m in pattern.finditer(region):
            line = line_of(stripped, start + m.start())
            violations.append(Violation(
                rule, relpath, line, f"{label} in {where}"))


def lint_file(root, relpath, violations):
    path = os.path.join(root, relpath)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return
    stripped = strip_comments_and_strings(raw)

    if relpath in KERNEL_FILES:
        for name, b0, b1 in find_function_extents(stripped,
                                                  KERNEL_FUNCTIONS):
            where = f"kernel {name}()"
            scan_region(stripped, b0, b1, ALLOC_PATTERNS,
                        "kernel-no-alloc", relpath, where, violations)
            scan_region(stripped, b0, b1, CLOCK_PATTERNS,
                        "kernel-no-clock", relpath, where, violations)
            scan_region(stripped, b0, b1, LOG_PATTERNS,
                        "kernel-no-log", relpath, where, violations)

    if relpath not in STDIO_EXEMPT:
        for m in STDIO_PATTERN.finditer(stripped):
            line = line_of(stripped, m.start())
            violations.append(Violation(
                "no-raw-stdio", relpath, line,
                "raw stdio call; route diagnostics through VAQ_LOG "
                "(src/common/log.h)"))

    if relpath in ENTRYPOINT_FILES:
        names = set(ENTRYPOINT_NAME.findall(stripped))
        for name, b0, b1 in find_function_extents(stripped, names):
            region = stripped[b0:b1]
            for m in CHECK_PATTERN.finditer(region):
                line = line_of(stripped, b0 + m.start())
                violations.append(Violation(
                    "entrypoint-no-check", relpath, line,
                    f"VAQ_CHECK in public entry point {name}(); "
                    "user-reachable misuse must return Status"))

    allowed = collect_suppressions(raw)
    return [v for v in violations if v.rule not in allowed.get(v.line, ())]


def lint_tree(root):
    violations = []
    src_root = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src_root):
        for fn in sorted(filenames):
            if not fn.endswith((".h", ".cc")):
                continue
            relpath = os.path.relpath(os.path.join(dirpath, fn), root)
            relpath = relpath.replace(os.sep, "/")
            file_violations = []
            kept = lint_file(root, relpath, file_violations)
            if kept:
                violations.extend(kept)
    violations.sort(key=Violation.key)
    return violations


# --- entry points ------------------------------------------------------

def run_lint(root):
    violations = lint_tree(root)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} invariant violation(s). Rules and "
              "suppression policy: DESIGN.md §11 / tools/lint_invariants.py "
              "docstring.", file=sys.stderr)
        return 1
    return 0


def run_self_test(fixture_root):
    expected_path = os.path.join(fixture_root, "expected.txt")
    expected = set()
    with open(expected_path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rule, loc = line.split(" ", 1)
            path, lineno = loc.rsplit(":", 1)
            expected.add((rule, path, int(lineno)))

    got = {v.key() for v in lint_tree(fixture_root)}

    ok = True
    for key in sorted(expected - got):
        print(f"MISSING  {key[0]} {key[1]}:{key[2]} (seeded but not "
              "reported)")
        ok = False
    for key in sorted(got - expected):
        print(f"SPURIOUS {key[0]} {key[1]}:{key[2]} (reported but not "
              "seeded)")
        ok = False
    if not expected:
        print("self-test fixture lists no expected violations; refusing a "
              "vacuous pass")
        ok = False
    missing_rules = set(RULE_IDS) - {r for r, _, _ in expected}
    if missing_rules:
        print(f"fixture does not cover rule(s): {sorted(missing_rules)}")
        ok = False
    if ok:
        print(f"self-test OK: {len(expected)} seeded violations reported, "
              "suppressed seed stayed quiet, all "
              f"{len(RULE_IDS)} rules covered")
        return 0
    return 1


def main():
    parser = argparse.ArgumentParser(
        description="VAQ hot-path invariant linter")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--root", help="repository root to lint (scans src/)")
    group.add_argument("--self-test", metavar="FIXTURE_ROOT",
                       help="run against the seeded-violation fixture and "
                            "verify the exact report")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(run_self_test(args.self_test))
    sys.exit(run_lint(args.root))


if __name__ == "__main__":
    main()
