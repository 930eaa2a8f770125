#!/usr/bin/env python3
"""Documentation cross-reference checker.

The docs lean heavily on three kinds of references, and all three rot
silently when code moves:

  markdown links       [text](docs/DESIGN.md), [text](#anchor),
                       [text](docs/DESIGN.md#anchor) — the target file must
                       exist and the anchor must match a heading in it
                       (GitHub slug rules: lowercase, punctuation dropped,
                       spaces to hyphens, duplicates suffixed -1, -2, ...).
  repo-path mentions   backtick spans such as `src/storage/mvcc.h` or
                       `tests/mvcc_test.cc` — the path must exist in the
                       tree. Spans are tokenized on whitespace so paths
                       inside quoted commands (`python3 tools/foo.py ...`)
                       are checked too. Tokens under generated or absolute
                       roots (build*/, /...), with shell expansions ($, <),
                       or with an explicit glob are exempt — globs only
                       need a non-empty match.
  root-doc mentions    bare `README.md`-style tokens resolve against the
                       repo root, then against the mentioning file's
                       directory.

Checked files: README.md, CHANGES.md, ROADMAP.md, and docs/*.md. Fenced
code blocks are skipped entirely (they show commands and output, not
references); inline code spans are only scanned for path tokens, never for
links.

It also keeps the knob reference in docs/OPERATIONS.md in step with the
options structs it documents (KNOB_TABLES): every data member of each
struct needs a row in its table, and every backticked name in a row's
first cell must be a member. A row may name several members
(`host` / `port`).

Usage:  check_doc_links.py [--root DIR]
Prints findings as `path:line: message` and exits non-zero if any exist.
"""

import argparse
import glob as globmod
import os
import re
import sys

# Top-level directories whose mention in an inline code span is a claim
# that the path exists. Deliberately excludes generated trees (build*/).
KNOWN_DIRS = ("src/", "tests/", "tools/", "bench/", "docs/", "examples/",
              ".github/")

INLINE_CODE = re.compile(r"`([^`]+)`")
MD_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
# `path:123` / `path:123-456` line references: strip before existence check.
LINE_REF = re.compile(r":\d+(?:-\d+)?$")
ROOT_DOC = re.compile(r"^[A-Za-z0-9_.-]+\.md$")

# (struct, header declaring it): each has a table under the
# "### `<ns>::<struct>` (`<header>`)" heading of OPERATIONS_DOC.
OPERATIONS_DOC = "docs/OPERATIONS.md"
KNOB_TABLES = (
    ("DatabaseOptions", "src/server/database.h"),
    ("ServerOptions", "src/server/server.h"),
    ("NetServerOptions", "src/net/net_server.h"),
)
TABLE_ROW = re.compile(r"^\|([^|]*)\|")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def slugify(heading):
    """GitHub-style anchor slug for a heading line's text."""
    text = INLINE_CODE.sub(r"\1", heading)
    text = re.sub(r"\*\*|\*|__", "", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def strip_fences(path):
    """Yield (lineno, line) for lines outside ``` fences."""
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if not in_fence:
                yield lineno, line


def anchors_of(path, cache={}):
    """The set of valid anchor slugs in a markdown file (deduped GitHub-style)."""
    if path not in cache:
        counts = {}
        slugs = set()
        for _, line in strip_fences(path):
            m = HEADING.match(line)
            if not m:
                continue
            slug = slugify(m.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            slugs.add(slug if n == 0 else "%s-%d" % (slug, n))
        cache[path] = slugs
    return cache[path]


def check_link(root, doc, lineno, target, findings):
    if target.startswith(("http://", "https://", "mailto:")):
        return
    path_part, _, anchor = target.partition("#")
    if path_part:
        # Relative to the linking file's directory, like GitHub renders it.
        resolved = os.path.normpath(
            os.path.join(os.path.dirname(doc), path_part))
        if resolved.startswith(".."):
            # Escapes the repo (e.g. the CI badge's ../../actions/... URL,
            # which GitHub resolves against the site, not the tree).
            return
        if not os.path.exists(resolved):
            findings.append((doc, lineno,
                             "broken link target: %s" % path_part))
            return
    else:
        resolved = doc
    if anchor:
        if os.path.isdir(resolved) or not resolved.endswith(".md"):
            return
        if anchor.lower() not in anchors_of(resolved):
            findings.append((doc, lineno,
                             "broken anchor: %s#%s" % (path_part or "",
                                                       anchor)))


def check_path_token(root, doc, lineno, token, findings):
    token = token.strip(",;:()\"'")
    token = LINE_REF.sub("", token)
    if not token or "$" in token or "<" in token or token.startswith("/"):
        return
    is_repo_path = token.startswith(KNOWN_DIRS)
    is_root_doc = ROOT_DOC.match(token) or token == "CMakeLists.txt"
    if not is_repo_path and not is_root_doc:
        return
    if "*" in token or "?" in token:
        if not globmod.glob(os.path.join(root, token)):
            findings.append((doc, lineno, "glob matches nothing: %s" % token))
        return
    if os.path.exists(os.path.join(root, token)):
        return
    # Built-binary mentions (`tools/crash_harness`, `examples/quickstart`)
    # name a CMake target; accept them when the source file exists.
    if not os.path.splitext(token)[1]:
        for suffix in (".cc", ".cpp", "_main.cc"):
            if os.path.exists(os.path.join(root, token + suffix)):
                return
    # Root-doc mentions may also be siblings of the mentioning file
    # (`DESIGN.md` inside docs/ means docs/DESIGN.md).
    if is_root_doc and os.path.exists(
            os.path.join(os.path.dirname(doc), token)):
        return
    findings.append((doc, lineno, "missing path: %s" % token))


def check_file(root, doc, findings):
    for lineno, line in strip_fences(doc):
        for span in INLINE_CODE.findall(line):
            for token in span.split():
                check_path_token(root, doc, lineno, token, findings)
        line_no_code = INLINE_CODE.sub("", line)
        for target in MD_LINK.findall(line_no_code):
            check_link(root, doc, lineno, target, findings)


def struct_fields(header, struct):
    """Data members of `struct <struct> { ... };` in a C++ header.

    Good enough for plain aggregates like the options structs: comments are
    stripped, nested braces (brace initializers, nested types) are skipped,
    and each top-level `...;` declaration without a parenthesis yields the
    identifier before its initializer. Returns None if the struct is absent.
    """
    with open(header, encoding="utf-8") as f:
        text = re.sub(r"//[^\n]*", "", f.read())
    m = re.search(r"\bstruct\s+%s\s*\{" % re.escape(struct), text)
    if not m:
        return None
    fields, depth, decl = [], 0, ""
    for ch in text[m.end():]:
        if ch == "{":
            depth += 1
        elif ch == "}":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0:
            if ch == ";":
                head = decl.split("=")[0].strip()
                if head and "(" not in head and not head.startswith(
                        ("using ", "friend ", "static ")):
                    fields.append(IDENTIFIER.findall(head)[-1])
                decl = ""
            else:
                decl += ch
    return fields


def knob_rows(doc, struct):
    """(heading line, {name: lineno}) for `struct`'s knob table; the names
    are the backticked ones in each row's first cell. Line 0 = no heading."""
    heading = re.compile(r"^#{2,6}\s+`(?:\w+::)*%s`" % re.escape(struct))
    heading_line, rows, in_section = 0, {}, False
    for lineno, line in strip_fences(doc):
        if HEADING.match(line):
            in_section = bool(heading.match(line))
            if in_section:
                heading_line = lineno
            continue
        row = TABLE_ROW.match(line) if in_section else None
        if row:
            for name in INLINE_CODE.findall(row.group(1)):
                rows.setdefault(name, lineno)
    return heading_line, rows


def check_knob_tables(findings):
    for struct, header in KNOB_TABLES:
        fields = struct_fields(header, struct)
        if fields is None:
            findings.append((header, 1, "struct %s not found" % struct))
            continue
        heading_line, rows = knob_rows(OPERATIONS_DOC, struct)
        if not heading_line:
            findings.append((OPERATIONS_DOC, 1,
                             "no knob table for %s" % struct))
            continue
        for field in fields:
            if field not in rows:
                findings.append((OPERATIONS_DOC, heading_line,
                                 "%s::%s (%s) has no knob row"
                                 % (struct, field, header)))
        for name, lineno in sorted(rows.items(), key=lambda kv: kv[1]):
            if name not in fields:
                findings.append((OPERATIONS_DOC, lineno,
                                 "knob row names %s, not a field of %s"
                                 % (name, struct)))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    args = parser.parse_args(argv)
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)

    docs = ["README.md", "CHANGES.md", "ROADMAP.md"]
    docs += sorted(globmod.glob("docs/*.md"))
    docs = [d for d in docs if os.path.exists(d)]

    findings = []
    for doc in docs:
        check_file(".", doc, findings)
    check_knob_tables(findings)

    for doc, lineno, message in findings:
        print("%s:%d: %s" % (doc, lineno, message))
    if findings:
        print("%d stale doc reference(s) in %d file(s) checked."
              % (len(findings), len(docs)), file=sys.stderr)
        return 1
    print("doc links OK (%d files)" % len(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
