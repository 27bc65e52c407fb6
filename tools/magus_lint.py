#!/usr/bin/env python3
"""Project-specific lint rules clang-tidy cannot express.

Rules (each exits non-zero on violation, with file:line diagnostics):

  raw-unit-param     Public headers of the migrated subsystems must not take
                     bare `double` *parameters* whose names imply a frequency
                     or throughput unit (ghz/mbps/freq/throughput) or a
                     timestamp (`now` -- policy hooks take common::Seconds) --
                     those must be strong-typed quantities (magus::common::Ghz,
                     Mbps, Seconds, ...). Struct fields in result/spec records
                     are the documented raw boundary and stay double. Exempt:
                     hw/ (MSR codecs speak raw encodings), wl/ (phase programs
                     are a documented raw boundary), and common/units.hpp
                     (the conversion layer itself).

  naked-msr-literal  The uncore ratio-limit MSR address 0x620 appears as a
                     code literal only inside hw/; everywhere else it must be
                     spelled hw::msr::kUncoreRatioLimit. Comments, strings,
                     and identifiers (raw_0x620_) are fine.

  naked-sysfs-path   The intel_uncore_frequency sysfs root appears as a
                     string literal only inside the designated path builder
                     (hw/sysfs_uncore); everywhere else it must be obtained
                     from hw::uncore_freq_sysfs_root(). Comments are fine;
                     unlike naked-msr-literal this rule scans string
                     literals, because that is where paths live.

  threshold-source   MDFS threshold knobs (inc_threshold, dec_threshold,
                     high_freq_threshold) are sourced from config.hpp /
                     sweep structs; implementation files must not assign
                     numeric literals to them.

  pragma-once        Every public header carries `#pragma once`.

  hot-path           Code between `magus:hot-path-begin` and
                     `magus:hot-path-end` marker comments is batch-tick hot
                     path (the shared SoA kernel): no virtual functions, no
                     heap allocation (new / make_unique / make_shared /
                     malloc), no std::function, and no lock or mutex tokens
                     (the textual twin of the MAGUS_LOCK_FREE capability
                     annotations -- Clang checks direct acquisitions, this
                     rule also catches spelled-out lock types the analysis
                     cannot see through). Everything there must inline and
                     touch only the caller's arrays.

  unordered-rollup   Code between `magus:rollup-begin` and `magus:rollup-end`
                     marker comments serializes or aggregates fleet/exp
                     results, where iteration order IS the byte-identical
                     rollup contract: std::unordered_map / std::unordered_set
                     (whose iteration order is implementation-defined) are
                     banned inside these regions.

  nondeterministic-source
                     Wall-clock and entropy calls (time(, rand(/srand(,
                     std::random_device, steady_clock/system_clock/
                     high_resolution_clock ::now) are banned in include/ and
                     src/ outside an explicit allowlist: simulation results
                     must depend only on (seed, manifest), and hidden clock
                     reads are how "bit-identical" claims die. Seeded
                     common::Rng is the sanctioned randomness source.

  raw-mutex          Every lock in include/, src/, and tools/ must be a
                     common::AnnotatedMutex / LockGuard / UniqueLock /
                     CondVar (thread_annotations.hpp) so Clang's
                     -Wthread-safety capability analysis sees it. Bare
                     std::mutex / std::condition_variable / std::lock_guard /
                     std::unique_lock / std::scoped_lock are banned except in
                     the wrapper header itself or on lines carrying a
                     `magus:raw-mutex-ok` comment stating why.

Usage: tools/magus_lint.py [--root DIR]
Exit code 0 = clean, 1 = violations found.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

UNIT_PARAM_RE = re.compile(
    r"\bdouble\s+([A-Za-z_]*(?:ghz|mbps|freq|throughput)[A-Za-z_0-9]*|now)\s*[,)]"
)
NAKED_MSR_RE = re.compile(r"(?<![\w.])0x620\b(?!_)")
SYSFS_PATH_RE = re.compile(r"/sys/devices/system/cpu/intel_uncore_frequency")
THRESHOLD_RE = re.compile(
    r"\b(inc_threshold|dec_threshold|high_freq_threshold)\s*=\s*[0-9][0-9'.eE+-]*\s*[;,)]"
)
HOT_PATH_BEGIN = "magus:hot-path-begin"
HOT_PATH_END = "magus:hot-path-end"
HOT_PATH_RE = re.compile(
    r"\bvirtual\b|\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\b|\bstd::function\b"
    r"|\bmutex\b|\block_guard\b|\bunique_lock\b|\bscoped_lock\b"
    r"|\bLockGuard\b|\bUniqueLock\b|\bCondVar\b|\.lock\s*\(|->lock\s*\("
)
ROLLUP_BEGIN = "magus:rollup-begin"
ROLLUP_END = "magus:rollup-end"
UNORDERED_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
NONDET_RE = re.compile(
    # The bare-`time(` arm excludes member calls (`.time(`, `->time(`) and
    # qualified names -- std::time / ::time get their own arm so a `:`
    # prefix cannot smuggle the libc call past the rule.
    r"\bs?rand\s*\(|\bstd::random_device\b"
    r"|\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"
    r"|(?<![\w.>:])time\s*\(|\b(?:std)?::time\s*\("
)
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_MUTEX_OK = "magus:raw-mutex-ok"

# Directories whose public headers must use strong-typed quantities.
QUANTITY_HEADER_DIRS = ("common", "core", "sim", "baseline", "exp", "fleet", "trace",
                        "telemetry")
# Raw boundaries, documented in DESIGN.md: MSR codecs and workload phase programs.
RAW_UNIT_EXEMPT = {"include/magus/common/units.hpp"}

# Files where numeric threshold defaults are the source of truth.
THRESHOLD_SOURCE_FILES = {
    "include/magus/core/config.hpp",
    "include/magus/exp/evaluation.hpp",  # sweep-grid struct defaults
}

# The designated sysfs path builder: hw::uncore_freq_sysfs_root() and its
# implementation are the only places the driver root may be spelled.
SYSFS_PATH_BUILDER_FILES = {
    "include/magus/hw/sysfs_uncore.hpp",
    "src/hw/sysfs_uncore.cpp",
}

# Sanctioned wall-clock reads. The pool's task-latency histogram measures
# real elapsed time by design, and observability never feeds back into
# simulation state.
NONDET_ALLOWED_FILES = {
    "src/common/thread_pool.cpp",
}
# nondeterministic-source applies where determinism is the product contract.
NONDET_SCOPES = ("include/magus/", "src/")

# The capability-wrapper header is where the raw primitives live, by design.
RAW_MUTEX_EXEMPT_FILES = {
    "include/magus/common/thread_annotations.hpp",
}
# raw-mutex applies to everything that links into the product or its tools.
RAW_MUTEX_SCOPES = ("include/magus/", "src/", "tools/", "examples/")

# Deliberately-violating fixtures for tools/test_magus_lint.py: scanned by
# the self-tests against their own root, never by a repo-wide run.
LINT_FIXTURE_PREFIX = "tests/tools/fixtures/"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            end = min(j, n - 1) + 1
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_comments_keep_strings(text: str) -> str:
    """Blank out comments only, preserving string/char literal contents.

    Needed by rules that look *inside* string literals (naked-sysfs-path):
    strip_comments_and_strings would blank the very text they inspect.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            end = min(j, n - 1) + 1
            out.append(text[i:end])
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_violations(root: pathlib.Path):
    for path in sorted(root.glob("include/magus/**/*.hpp")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(text)

        if "#pragma once" not in text:
            yield rel, 1, "pragma-once", "public header missing `#pragma once`"

        subsystem = rel.split("/")[2] if rel.count("/") >= 2 else ""
        if subsystem in QUANTITY_HEADER_DIRS and rel not in RAW_UNIT_EXEMPT:
            for lineno, line in enumerate(code.splitlines(), 1):
                m = UNIT_PARAM_RE.search(line)
                if m:
                    yield (rel, lineno, "raw-unit-param",
                           f"bare `double {m.group(1)}` in a public API -- use a "
                           "magus::common quantity type")

    for path in sorted(root.glob("**/*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith("build") or rel.startswith(LINT_FIXTURE_PREFIX):
            continue
        text = path.read_text(encoding="utf-8")
        code = strip_comments_and_strings(text)
        code_with_strings = strip_comments_keep_strings(text)
        msr_exempt = rel.startswith(("include/magus/hw/", "src/hw/", "tests/hw/"))
        sysfs_exempt = rel in SYSFS_PATH_BUILDER_FILES
        nondet_active = (rel.startswith(NONDET_SCOPES)
                        and rel not in NONDET_ALLOWED_FILES)
        raw_mutex_active = (rel.startswith(RAW_MUTEX_SCOPES)
                            and rel not in RAW_MUTEX_EXEMPT_FILES)
        in_hot_path = False
        in_rollup = False
        for lineno, (raw, line, strline) in enumerate(
                zip(text.splitlines(), code.splitlines(),
                    code_with_strings.splitlines()), 1):
            # Markers live in comments, so track them on the raw line and
            # apply the rule to the comment-stripped one.
            if HOT_PATH_BEGIN in raw:
                in_hot_path = True
            elif HOT_PATH_END in raw:
                in_hot_path = False
            elif in_hot_path:
                m = HOT_PATH_RE.search(line)
                if m:
                    yield (rel, lineno, "hot-path",
                           f"`{m.group(0)}` inside a magus:hot-path region -- the "
                           "batch-tick kernel allows no virtual dispatch, heap "
                           "allocation, type-erased callables, or locks")
            if ROLLUP_BEGIN in raw:
                in_rollup = True
            elif ROLLUP_END in raw:
                in_rollup = False
            elif in_rollup:
                m = UNORDERED_RE.search(line)
                if m:
                    yield (rel, lineno, "unordered-rollup",
                           f"`{m.group(0)}` inside a magus:rollup region -- "
                           "iteration order is the byte-identity contract; use "
                           "std::map / std::set or a sorted vector")
            if nondet_active:
                m = NONDET_RE.search(line)
                if m:
                    yield (rel, lineno, "nondeterministic-source",
                           f"`{m.group(0).strip()}` reads wall-clock/entropy -- "
                           "results must depend only on (seed, manifest); use "
                           "seeded common::Rng / virtual time, or allowlist in "
                           "tools/magus_lint.py with justification")
            if raw_mutex_active and RAW_MUTEX_OK not in raw:
                m = RAW_MUTEX_RE.search(line)
                if m:
                    yield (rel, lineno, "raw-mutex",
                           f"`{m.group(0)}` bypasses thread-safety analysis -- "
                           "use common::AnnotatedMutex / LockGuard / UniqueLock "
                           "/ CondVar (thread_annotations.hpp), or mark the "
                           "line `magus:raw-mutex-ok` with a reason")
            if not msr_exempt and NAKED_MSR_RE.search(line):
                yield (rel, lineno, "naked-msr-literal",
                       "naked 0x620 outside hw/ -- use hw::msr::kUncoreRatioLimit")
            if not sysfs_exempt and SYSFS_PATH_RE.search(strline):
                yield (rel, lineno, "naked-sysfs-path",
                       "naked intel_uncore_frequency sysfs path outside the "
                       "designated builder -- use hw::uncore_freq_sysfs_root()")

    for path in sorted(root.glob("src/**/*.cpp")) + sorted(root.glob("include/magus/**/*.hpp")):
        rel = path.relative_to(root).as_posix()
        if rel in THRESHOLD_SOURCE_FILES:
            continue
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(code.splitlines(), 1):
            m = THRESHOLD_RE.search(line)
            if m:
                yield (rel, lineno, "threshold-source",
                       f"numeric literal assigned to {m.group(1)} -- thresholds are "
                       "sourced from config.hpp (defaults) or sweep configs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                        type=pathlib.Path, help="repository root (default: tool's parent)")
    args = parser.parse_args()

    violations = list(iter_violations(args.root))
    for rel, lineno, rule, msg in violations:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"magus_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("magus_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
