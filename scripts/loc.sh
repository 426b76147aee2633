#!/bin/sh
# loc: non-test Go lines per package, outside benchmark/ — the number a
# simplification PR reports before and after (ROADMAP aim 2). Every
# line of a counted file counts, comments and blanks included, so a
# run on two commits differs exactly by the lines the change added or
# removed. With arguments, only the named package directories (and the
# total over them) are printed:
#
#	scripts/loc.sh                                   # every package
#	scripts/loc.sh internal/store internal/engine internal/qir
#
# Run from the repository root (or `make loc`).
set -eu

if [ "$#" -eq 0 ]; then
    set -- $(find . -name '*.go' -not -name '*_test.go' \
        -not -path './benchmark/*' -not -path './.git/*' -not -path './.bench_build/*' |
        xargs -n1 dirname | sort -u | sed 's|^\./||')
fi

total=0
for dir in "$@"; do
    n=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        [ -f "$f" ] || continue
        n=$((n + $(wc -l <"$f")))
    done
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
