#!/usr/bin/env bash
# Counts the lines the simplicity gates count: for every .rs file under the
# given paths (files or directories, relative to the repo root; default
# `crates src`), all its lines and its non-test lines, then the totals.
#
#   tools/nontest_lines.sh [paths...]
#
# The rule. A non-test line is any line that is not part of a test-only item:
#   * a test-only item is one whose attributes include exactly `#[cfg(test)]`:
#     a `mod tests { ... }`, a helper `fn` (also inside an `impl`), a `use`,
#     or a `mod x;` declaration;
#   * its span runs from the first of its doc comments (`///`) and
#     attributes to its closing `}` (or its `;` when it has no body), and
#     takes the blank lines directly above it along;
#   * a file that only a test-only `mod x;` declaration pulls in (for
#     instance `scan_parallel_tests.rs`, `init_pipeline_tests.rs`, or
#     `crates/core/src/eval.rs`) has no non-test lines at all. Declarations
#     are looked for in every .rs file tracked by git, so such a file counts
#     as test-only even when its declaring file is not among the paths;
#   * so has every file under a directory named `tests` (integration tests).
# Braces inside strings, char literals and comments are not counted.
set -euo pipefail

cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates src

python3 - "$@" <<'EOF'
import os
import re
import subprocess
import sys

CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
ATTR_OR_DOC = re.compile(r"^\s*(#\[|///)")


def code_chars(text):
    """Yields (index, char) for the characters of Rust source outside
    comments, string literals and char literals."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            i = text.find("\n", i)
            if i < 0:
                return
            continue
        if text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
            continue
        raw = re.match(r'b?r(#*)"', text[i:]) if c in "br" else None
        if raw and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            end = text.find('"' + raw.group(1), i + raw.end())
            i = n if end < 0 else end + 1 + len(raw.group(1))
            continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            lit = re.match(r"'(\\(x..|u\{[0-9a-fA-F]*\}|.)|[^\\'])'", text[i:], re.S)
            if lit:
                i += lit.end()
                continue
        yield i, c
        i += 1


def test_spans(text, lines):
    """(first, last) 0-based line ranges of the test-only items, plus the
    `mod x;` declarations among them as (name, path attribute or None)."""
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    line_of = lambda pos: next(k for k in range(len(starts) - 1) if starts[k + 1] > pos)
    chars = list(code_chars(text))
    spans, decls = [], []
    for k, line in enumerate(lines):
        if not CFG_TEST.match(line):
            continue
        first = k
        while first > 0 and ATTR_OR_DOC.match(lines[first - 1]):
            first -= 1
        while first > 0 and not lines[first - 1].strip():
            first -= 1
        # Walk the code from the attribute's end to the item's `;` or body.
        pos = starts[k] + len(line)
        j = next(j for j, (p, _) in enumerate(chars) if p >= pos)
        nest = 0
        while True:
            p, c = chars[j]
            if c in "([":
                nest += 1
            elif c in ")]":
                nest -= 1
            elif nest == 0 and c == ";":
                head = text[pos:p]
                m = re.search(r"\bmod\s+(\w+)\s*$", head)
                if m:
                    path = re.search(r'#\[path\s*=\s*"([^"]+)"\]', head)
                    decls.append((m.group(1), path.group(1) if path else None))
                break
            elif nest == 0 and c == "{":
                depth = 0
                for p, c in chars[j:]:
                    depth += {"{": 1, "}": -1}.get(c, 0)
                    if depth == 0:
                        break
                break
            j += 1
        spans.append((first, line_of(p)))
    return spans, decls


def declared_file(decl_file, name, path):
    base = os.path.dirname(decl_file)
    if path:
        return os.path.normpath(os.path.join(base, path))
    stem = os.path.splitext(os.path.basename(decl_file))[0]
    if stem not in ("lib", "main", "mod"):
        base = os.path.join(base, stem)
    for cand in (os.path.join(base, name + ".rs"), os.path.join(base, name, "mod.rs")):
        if os.path.exists(cand):
            return os.path.normpath(cand)
    return None


def read(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return text, text.split("\n")[: text.count("\n") + (0 if text.endswith("\n") else 1)]


tracked = subprocess.run(
    ["git", "ls-files", "*.rs"], capture_output=True, text=True, check=True
).stdout.split()
test_only = set()
for path in tracked:
    text, lines = read(path)
    if "#[cfg(test)]" not in text:
        continue
    for name, attr in test_spans(text, lines)[1]:
        target = declared_file(path, name, attr)
        if target:
            test_only.add(target)

files = []
for arg in sys.argv[1:]:
    if os.path.isdir(arg):
        for root, _, names in os.walk(arg):
            if "target" in root.split(os.sep):
                continue
            files += [os.path.join(root, n) for n in names if n.endswith(".rs")]
    elif arg.endswith(".rs"):
        files.append(arg)
    else:
        sys.exit(f"not a .rs file or a directory: {arg}")

total_all = total_code = 0
print(f"{'all':>7} {'nontest':>7}  file")
for path in sorted(set(os.path.normpath(f) for f in files)):
    text, lines = read(path)
    if path in test_only or "tests" in path.split(os.sep)[:-1]:
        code = 0
    else:
        dropped = set()
        for first, last in test_spans(text, lines)[0]:
            dropped.update(range(first, last + 1))
        code = len(lines) - len(dropped)
    total_all += len(lines)
    total_code += code
    print(f"{len(lines):>7} {code:>7}  {path}")
print(f"{total_all:>7} {total_code:>7}  total")
EOF
