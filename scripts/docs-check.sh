#!/bin/sh
# docs-check: the documentation half of CI.
#
#  1. The required documents exist.
#  2. Every relative markdown link in every *.md file resolves to a
#     real file or directory (external http(s)/mailto links and pure
#     anchors are skipped; "path#anchor" is checked as "path").
#  3. `go vet ./examples/...` passes, compiling every documented
#     walkthrough — they cannot silently rot. (CI's dedicated Vet step
#     covers the rest of the tree; vetting it twice buys nothing.)
#  4. jsonstored's flags are documented exactly: the flag.X("name", …)
#     definitions in cmd/jsonstored/main.go, the usage block of its
#     package doc, and the usage block and `-name` flag-table rows of
#     cmd/jsonstored/README.md name the same set, so a flag cannot be
#     added or dropped in one place only.
#  5. Every Name.md cited in a Go comment names a file that exists.
#
# Run from the repository root: scripts/docs-check.sh (or `make docs-check`).
set -u

fail=0

for required in \
    README.md \
    docs/ARCHITECTURE.md \
    docs/QUERY_LANGUAGES.md \
    cmd/jsonstored/README.md \
    examples/storequery/README.md \
    ROADMAP.md PAPER.md; do
    if [ ! -f "$required" ]; then
        echo "docs-check: missing required document: $required"
        fail=1
    fi
done

# PAPERS.md and SNIPPETS.md are generated reference corpora (arxiv
# retrieval output) whose inline asset links never shipped with them;
# they are not this repo's documentation, so they are skipped.
for f in $(find . -name '*.md' -not -path './.git/*' \
    -not -name PAPERS.md -not -name SNIPPETS.md); do
    dir=$(dirname "$f")
    # Markdown link targets: the (...) following ](. One target per
    # line; our docs never use parentheses or spaces inside targets.
    for target in $(grep -o '](\([^) ]*\))' "$f" | sed 's/^](//; s/)$//'); do
        case "$target" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "docs-check: $f: broken link: $target"
            fail=1
        fi
    done
done

if ! go vet ./examples/...; then
    echo "docs-check: go vet ./examples/... failed"
    fail=1
fi

main=cmd/jsonstored/main.go
readme=cmd/jsonstored/README.md
flags=$(mktemp -d)
trap 'rm -rf "$flags"' EXIT
grep -o 'flag\.[A-Za-z0-9]*("[a-z-]*"' "$main" | sed 's/.*("//; s/"$//' |
    LC_ALL=C sort >"$flags/defined"
sed -n '/^\/\/.jsonstored \[/,/^\/\/$/p' "$main" | grep -o '\[-[a-z-]*' |
    sed 's/^\[-//' | LC_ALL=C sort >"$flags/main.go-usage"
sed -n '/^jsonstored \[/,/^```/p' "$readme" | grep -o '\[-[a-z-]*' |
    sed 's/^\[-//' | LC_ALL=C sort >"$flags/README-usage"
grep -o '^| `-[a-z-]*` |' "$readme" | sed 's/^| `-//; s/` |$//' |
    LC_ALL=C sort >"$flags/README-table"
if [ ! -s "$flags/defined" ]; then
    echo "docs-check: found no flag definitions in $main"
    fail=1
fi
for doc in main.go-usage README-usage README-table; do
    if ! cmp -s "$flags/defined" "$flags/$doc"; then
        echo "docs-check: jsonstored flags: $main defines (<) vs $doc lists (>):"
        diff "$flags/defined" "$flags/$doc" | grep '^[<>]'
        fail=1
    fi
done

# Every Name.md a Go comment cites must exist in the repo: matched by
# file name, or by path suffix when the comment gives a path (leading
# ./ and ../ dropped). Generated files and the two reference corpora
# above are skipped.
for f in $(find . -name '*.go' -not -path './.git/*'); do
    head -n 1 "$f" | grep -q '^// Code generated .* DO NOT EDIT\.$' && continue
    for ref in $(awk '{
        c = index($0, "//"); if (!c) next
        n = split(substr($0, c + 2), w, /[][ \t(),;:`"'"'"']+/)
        for (i = 1; i <= n; i++)
            if (match(w[i], /^[A-Za-z0-9_.\/-]*[A-Za-z0-9_]\.md/))
                print NR ":" substr(w[i], 1, RLENGTH)
    }' "$f"); do
        line=${ref%%:*}
        md=$(echo "${ref#*:}" | sed 's|^\(\.\.*/\)*||')
        case "${md##*/}" in PAPERS.md | SNIPPETS.md) continue ;; esac
        case "$md" in
        */*) found=$(find . -path "*/$md" -not -path './.git/*' | head -n 1) ;;
        *) found=$(find . -name "$md" -not -path './.git/*' | head -n 1) ;;
        esac
        if [ -z "$found" ]; then
            echo "docs-check: $f:$line: cites missing $md"
            fail=1
        fi
    done
done

if [ "$fail" -eq 0 ]; then
    echo "docs-check: OK"
fi
exit "$fail"
