#!/usr/bin/env python3
"""Unit tests for tools/magus_lint.py.

Every lint rule gets a positive (fires) and negative (stays silent) case, the
comment/string stripping helpers are exercised directly, and the committed
fixtures under tests/tools/fixtures/ are asserted to produce exactly their
annotated violations when copied into a fake tree -- which proves each new
rule fails without the rule. Finally the real repository is linted and must
be clean.

Runs under plain unittest (no third-party deps):
    python3 tests/tools/test_magus_lint.py
"""

from __future__ import annotations

import importlib.util
import pathlib
import shutil
import tempfile
import unittest

TESTS_TOOLS_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = TESTS_TOOLS_DIR.parent.parent
FIXTURES = TESTS_TOOLS_DIR / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "magus_lint", REPO_ROOT / "tools" / "magus_lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def violations_in(root: pathlib.Path):
    return list(lint.iter_violations(root))


def rules_of(violations):
    return sorted(v[2] for v in violations)


class FakeTree:
    """A throwaway repo root the rules can be aimed at."""

    def __init__(self):
        self._dir = tempfile.TemporaryDirectory(prefix="magus_lint_test_")
        self.root = pathlib.Path(self._dir.name)

    def write(self, rel: str, text: str) -> pathlib.Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def copy_fixture(self, name: str, rel: str) -> pathlib.Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(FIXTURES / name, path)
        return path

    def cleanup(self):
        self._dir.cleanup()


class StripHelpersTest(unittest.TestCase):
    def test_line_structure_preserved(self):
        text = "int a; // tail\n/* multi\nline */ int b;\n\"str\nlit\" int c;\n"
        for fn in (lint.strip_comments_and_strings,
                   lint.strip_comments_keep_strings):
            self.assertEqual(fn(text).count("\n"), text.count("\n"))

    def test_comments_blanked_in_both_modes(self):
        text = "x = 1; // std::mutex here\n/* rand( */ y = 2;\n"
        for fn in (lint.strip_comments_and_strings,
                   lint.strip_comments_keep_strings):
            out = fn(text)
            self.assertNotIn("std::mutex", out)
            self.assertNotIn("rand(", out)
            self.assertIn("x = 1;", out)
            self.assertIn("y = 2;", out)

    def test_strings_blanked_vs_kept(self):
        text = 'const char* p = "/sys/devices/system/cpu/intel_uncore_frequency";\n'
        self.assertNotIn("intel_uncore", lint.strip_comments_and_strings(text))
        self.assertIn("intel_uncore", lint.strip_comments_keep_strings(text))

    def test_escaped_quote_does_not_end_string(self):
        text = 'a = "x\\"y"; rand();\n'
        stripped = lint.strip_comments_and_strings(text)
        self.assertNotIn("x", stripped)
        self.assertIn("rand()", stripped)

    def test_char_literal_stripped(self):
        stripped = lint.strip_comments_and_strings("char c = '\\''; time(0);\n")
        self.assertIn("time(0)", stripped)

    def test_unterminated_string_does_not_crash(self):
        lint.strip_comments_and_strings('x = "unterminated\n')
        lint.strip_comments_keep_strings('x = "unterminated\n')


class LintRuleTestCase(unittest.TestCase):
    def setUp(self):
        self.tree = FakeTree()
        self.addCleanup(self.tree.cleanup)


class PragmaOnceTest(LintRuleTestCase):
    def test_missing_pragma_fires(self):
        self.tree.write("include/magus/core/x.hpp", "struct X {};\n")
        self.assertIn("pragma-once", rules_of(violations_in(self.tree.root)))

    def test_present_pragma_silent(self):
        self.tree.write("include/magus/core/x.hpp", "#pragma once\nstruct X {};\n")
        self.assertEqual(violations_in(self.tree.root), [])


class RawUnitParamTest(LintRuleTestCase):
    def test_bare_double_ghz_fires(self):
        self.tree.write("include/magus/core/x.hpp",
                        "#pragma once\nvoid set(double target_ghz);\n")
        self.assertIn("raw-unit-param", rules_of(violations_in(self.tree.root)))

    def test_hw_subsystem_exempt(self):
        self.tree.write("include/magus/hw/x.hpp",
                        "#pragma once\nvoid set(double target_ghz);\n")
        self.assertEqual(violations_in(self.tree.root), [])


class NakedMsrLiteralTest(LintRuleTestCase):
    def test_literal_outside_hw_fires(self):
        self.tree.write("src/core/x.cpp", "int reg = 0x620;\n")
        self.assertIn("naked-msr-literal", rules_of(violations_in(self.tree.root)))

    def test_hw_and_comments_silent(self):
        self.tree.write("src/hw/x.cpp", "int reg = 0x620;\n")
        self.tree.write("src/core/y.cpp", "// MSR 0x620 is the limit register\n")
        self.assertEqual(violations_in(self.tree.root), [])


class NakedSysfsPathTest(LintRuleTestCase):
    PATH_LINE = 'auto p = "/sys/devices/system/cpu/intel_uncore_frequency";\n'

    def test_string_literal_fires(self):
        self.tree.write("src/core/x.cpp", self.PATH_LINE)
        self.assertIn("naked-sysfs-path", rules_of(violations_in(self.tree.root)))

    def test_builder_exempt_and_comment_silent(self):
        self.tree.write("src/hw/sysfs_uncore.cpp", self.PATH_LINE)
        self.tree.write("src/core/y.cpp",
                        "// /sys/devices/system/cpu/intel_uncore_frequency\n")
        self.assertEqual(violations_in(self.tree.root), [])


class ThresholdSourceTest(LintRuleTestCase):
    def test_literal_assignment_fires(self):
        self.tree.write("src/core/x.cpp", "cfg.inc_threshold = 0.05;\n")
        self.assertIn("threshold-source", rules_of(violations_in(self.tree.root)))

    def test_config_source_exempt(self):
        self.tree.write("include/magus/core/config.hpp",
                        "#pragma once\nstruct C { double inc_threshold = 0.05; };\n")
        self.assertEqual(violations_in(self.tree.root), [])


class HotPathTest(LintRuleTestCase):
    def test_allocation_inside_region_fires(self):
        self.tree.write("src/sim/x.cpp",
                        "// magus:hot-path-begin\n"
                        "auto p = std::make_unique<int>(1);\n"
                        "// magus:hot-path-end\n")
        self.assertIn("hot-path", rules_of(violations_in(self.tree.root)))

    def test_lock_tokens_inside_region_fire(self):
        fired = violations_in_fixture_tree(self.tree, "bad_hot_path_lock.cpp",
                                           "src/sim/bad_hot_path_lock.cpp")
        hot = [v for v in fired if v[2] == "hot-path"]
        self.assertEqual(len(hot), 2, msg=str(fired))
        self.assertEqual([v for v in fired if v[2] != "hot-path"], [])

    def test_outside_region_silent(self):
        self.tree.write("src/sim/x.cpp", "auto p = std::make_unique<int>(1);\n")
        self.assertEqual(violations_in(self.tree.root), [])


def violations_in_fixture_tree(tree: FakeTree, fixture: str, rel: str):
    tree.copy_fixture(fixture, rel)
    return violations_in(tree.root)


class UnorderedRollupTest(LintRuleTestCase):
    def test_fixture_fires_exactly_twice(self):
        fired = violations_in_fixture_tree(
            self.tree, "bad_unordered_rollup.cpp", "src/fleet/bad.cpp")
        self.assertEqual(rules_of(fired), ["unordered-rollup", "unordered-rollup"])

    def test_without_markers_silent(self):
        text = (FIXTURES / "bad_unordered_rollup.cpp").read_text(encoding="utf-8")
        text = text.replace("magus:rollup-begin", "").replace("magus:rollup-end", "")
        self.tree.write("src/fleet/bad.cpp", text)
        self.assertEqual(violations_in(self.tree.root), [])

    def test_rule_applies_repo_wide_even_in_tools(self):
        fired = violations_in_fixture_tree(
            self.tree, "bad_unordered_rollup.cpp", "tools/bad.cpp")
        self.assertIn("unordered-rollup", rules_of(fired))


class NondeterministicSourceTest(LintRuleTestCase):
    def test_fixture_fires_exactly_on_marked_lines(self):
        fired = violations_in_fixture_tree(
            self.tree, "bad_nondet_source.cpp", "src/core/bad.cpp")
        self.assertEqual(rules_of(fired), ["nondeterministic-source"] * 8)
        raw = (FIXTURES / "bad_nondet_source.cpp").read_text(encoding="utf-8")
        marked = [i for i, line in enumerate(raw.splitlines(), 1)
                  if "VIOLATION" in line]
        self.assertEqual(sorted(v[1] for v in fired), marked)

    def test_out_of_scope_and_allowlist_silent(self):
        self.tree.copy_fixture("bad_nondet_source.cpp", "tests/core/bad.cpp")
        self.tree.copy_fixture("bad_nondet_source.cpp", "tools/bad.cpp")
        self.tree.copy_fixture("bad_nondet_source.cpp", "src/common/thread_pool.cpp")
        self.assertEqual(violations_in(self.tree.root), [])

    def test_lookalike_identifiers_silent(self):
        self.tree.write("src/core/ok.cpp",
                        "double stretch_time_s(double t);\n"
                        "double uptime(int n);\n"
                        "auto dt = end_time(run) - phase.time(0);\n")
        self.assertEqual(violations_in(self.tree.root), [])


class RawMutexTest(LintRuleTestCase):
    def test_fixture_fires_exactly_on_marked_lines(self):
        fired = violations_in_fixture_tree(
            self.tree, "bad_raw_mutex.cpp", "src/common/bad.cpp")
        self.assertEqual(rules_of(fired), ["raw-mutex"] * 3)
        raw = (FIXTURES / "bad_raw_mutex.cpp").read_text(encoding="utf-8")
        marked = [i for i, line in enumerate(raw.splitlines(), 1)
                  if "VIOLATION" in line]
        self.assertEqual(sorted(v[1] for v in fired), marked)

    def test_marker_line_allowlisted(self):
        self.tree.write("src/common/ok.cpp",
                        "std::mutex g_m;  // magus:raw-mutex-ok -- justification\n")
        self.assertEqual(violations_in(self.tree.root), [])

    def test_wrapper_header_and_tests_exempt(self):
        self.tree.copy_fixture("bad_raw_mutex.cpp",
                               "include/magus/common/thread_annotations.hpp")
        self.tree.copy_fixture("bad_raw_mutex.cpp", "tests/common/bad.cpp")
        fired = violations_in(self.tree.root)
        # Only the header loop complains (fixture lacks #pragma once).
        self.assertEqual(rules_of(fired), ["pragma-once"])

    def test_tools_in_scope(self):
        fired = violations_in_fixture_tree(
            self.tree, "bad_raw_mutex.cpp", "tools/bad.cpp")
        self.assertEqual(rules_of(fired), ["raw-mutex"] * 3)


class CleanControlTest(LintRuleTestCase):
    def test_clean_everywhere(self):
        for rel in ("src/fleet/clean.cpp", "tools/clean.cpp",
                    "include/magus/fleet/clean.hpp"):
            tree = FakeTree()
            self.addCleanup(tree.cleanup)
            text = (FIXTURES / "clean_control.cpp").read_text(encoding="utf-8")
            if rel.endswith(".hpp"):
                text = "#pragma once\n" + text
            tree.write(rel, text)
            self.assertEqual(violations_in(tree.root), [], msg=rel)


class FixtureSkipTest(LintRuleTestCase):
    def test_fixture_directory_ignored_in_repo_scan(self):
        for f in sorted(FIXTURES.glob("*.cpp")):
            self.tree.copy_fixture(f.name, f"tests/tools/fixtures/{f.name}")
        self.assertEqual(violations_in(self.tree.root), [])


class BuildDirSkipTest(LintRuleTestCase):
    def test_build_tree_ignored(self):
        self.tree.copy_fixture("bad_raw_mutex.cpp", "build/src/bad.cpp")
        self.assertEqual(violations_in(self.tree.root), [])


class RealRepositoryTest(unittest.TestCase):
    def test_repo_is_clean(self):
        fired = violations_in(REPO_ROOT)
        self.assertEqual(fired, [], msg="\n".join(
            f"{rel}:{line}: [{rule}] {msg}" for rel, line, rule, msg in fired))


if __name__ == "__main__":
    unittest.main()
