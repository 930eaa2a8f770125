#!/usr/bin/env python3
"""Unit tests for the knob-table half of tools/check_doc_links.py: field
extraction from an options struct, and the row checks against its table in
the knob reference (coverage, non-fields, the "used by" cell)."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_doc_links  # noqa: E402

HEADER = """\
struct Opts {
  /// Fine or coarse; the enum is a type, not a member.
  enum class Granularity { kFine, kCoarse };
  Granularity granularity = Granularity::kFine;
  enum class JoinAlgo { kAuto, kHash };
  JoinAlgo join_algorithm = JoinAlgo::kAuto;
  std::map<std::string, int> pools;
  int max_dop = 1;
};
"""

GOOD_TABLE = """\
### `ns::Opts` (`opts.h`)

| knob | default | meaning | used by |
|---|---|---|---|
| `granularity` | `kFine` | stage granularity | `bench_a` |
| `join_algorithm` | `kAuto` | join override | `bench_b` |
| `pools` | empty | per-stage pools | `test_c` |
| `max_dop` | `1` | fan-out cap | `test_d` |
"""


class KnobTableTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.header = os.path.join(self.dir.name, "opts.h")
        self.doc = os.path.join(self.dir.name, "OPERATIONS.md")
        with open(self.header, "w", encoding="utf-8") as f:
            f.write(HEADER)

    def tearDown(self):
        self.dir.cleanup()

    def check(self, table):
        with open(self.doc, "w", encoding="utf-8") as f:
            f.write(table)
        findings = []
        check_doc_links.check_knob_tables(
            findings, doc=self.doc, tables=(("Opts", self.header),))
        return [message for _, _, message in findings]

    def test_nested_enums_are_not_fields(self):
        self.assertEqual(
            check_doc_links.struct_fields(self.header, "Opts"),
            ["granularity", "join_algorithm", "pools", "max_dop"])

    def test_complete_table_is_clean(self):
        self.assertEqual(self.check(GOOD_TABLE), [])

    def test_empty_used_by_cell_is_flagged(self):
        table = GOOD_TABLE.replace("| `test_d` |", "| |")
        self.assertEqual(self.check(table),
                         ['knob row Opts::max_dop has an empty "used by" cell'])

    def test_missing_used_by_column_is_flagged(self):
        table = ("### `ns::Opts` (`opts.h`)\n\n"
                 "| knob | default | meaning |\n"
                 "|---|---|---|\n"
                 "| `granularity` | `kFine` | stage granularity |\n"
                 "| `join_algorithm` | `kAuto` | join override |\n"
                 "| `pools` | empty | per-stage pools |\n"
                 "| `max_dop` | `1` | fan-out cap |\n")
        self.assertEqual(self.check(table),
                         ['knob table for Opts has no "used by" column'])

    def test_row_naming_a_non_field_is_flagged(self):
        table = GOOD_TABLE + "| `stale_knob` | `0` | gone | `bench_e` |\n"
        self.assertEqual(self.check(table),
                         ["knob row names stale_knob, not a field of Opts"])

    def test_field_without_row_is_flagged(self):
        table = "\n".join(line for line in GOOD_TABLE.splitlines()
                          if "`pools`" not in line) + "\n"
        self.assertEqual(self.check(table),
                         ["Opts::pools (%s) has no knob row" % self.header])


if __name__ == "__main__":
    unittest.main()
