#!/usr/bin/env bash
# Fails when an intra-repo markdown link in README.md, ROADMAP.md, or
# docs/*.md points at a path that does not exist, or at a `#anchor` that no
# heading of the target markdown file (the linking file itself for a bare
# `#anchor`) produces, or when a `NAME.md` / `docs/NAME.md` reference in a
# .rs file under src/, crates/, tests/ or examples/ does not resolve from
# the repo root. Anchors follow GitHub's slug rule: lower-case, drop every
# character but [a-z0-9 _-], spaces become '-'. External links
# (http/https/mailto) are ignored. No dependencies beyond grep/sed/awk.
set -euo pipefail

cd "$(dirname "$0")/.."

# The anchors a markdown file's headings produce, one a line (headings inside
# fenced code blocks are not headings).
slugs() {
  awk '/^```/ { fence = !fence; next } !fence && /^#+ / { sub(/^#+ +/, ""); print }' "$1" |
    tr 'A-Z' 'a-z' | LC_ALL=C sed 's/[^a-z0-9 _-]//g; s/ /-/g'
}

status=0
for file in README.md ROADMAP.md docs/*.md; do
  [ -f "$file" ] || continue
  dir=$(dirname "$file")
  # Extract inline markdown link targets: [text](target)
  targets=$(grep -o '\[[^]]*\]([^)]*)' "$file" | sed 's/.*(\(.*\))/\1/' || true)
  while IFS= read -r target; do
    [ -n "$target" ] || continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path=${target%%#*}                       # strip the anchor
    anchor=""
    [ "$path" = "$target" ] || anchor=${target#*#}
    case "$path" in
      "") resolved="$file" ;;                # same-file anchor
      /*) resolved=".$path" ;;               # repo-absolute
      *) resolved="$dir/$path" ;;            # relative to the file
    esac
    if [ ! -e "$resolved" ]; then
      echo "BROKEN: $file -> $target (no such path: $resolved)" >&2
      status=1
    elif [ -n "$anchor" ] && [[ "$resolved" == *.md ]] &&
      ! slugs "$resolved" | grep -qxF -- "$anchor"; then
      echo "BROKEN: $file -> $target (no heading of $resolved has that anchor)" >&2
      status=1
    fi
  done <<EOF
$targets
EOF
done

# Doc references in the code: an upper-case markdown name, bare or under
# docs/, not itself the tail of a longer path (benchmark/README.md is not
# one).
refs=$(grep -rnoE --include='*.rs' '(^|[^A-Za-z0-9_./-])(docs/)?[A-Z][A-Z0-9_]*\.md' \
  src crates tests examples 2>/dev/null || true)
while IFS= read -r ref; do
  [ -n "$ref" ] || continue
  loc=${ref%:*}                                # file:line
  name=$(printf '%s' "${ref##*:}" | sed 's/^[^A-Za-z]//')
  if [ ! -e "$name" ]; then
    echo "BROKEN: $loc -> $name (no such path from the repo root)" >&2
    status=1
  fi
done <<EOF
$refs
EOF

if [ "$status" -ne 0 ]; then
  echo "doc link check failed" >&2
else
  echo "doc links OK"
fi
exit "$status"
