#!/bin/sh
# deps-check: fences around the serving binary.
#
#  1. cmd/jsonstored's import graph contains none of the research-only
#     packages (datalog, xmlenc, projection, gen): they exist to
#     reproduce the paper's claims and to drive tests, and must not
#     ride into the daemon. Nor does it contain the §6 streaming
#     tokenizer and validator (stream) or the translations only they
#     use (translate): the daemon builds every tree with
#     jsontree.Parse, so a second text-to-tree route there is a fork.
#  2. Non-test code in internal/store and internal/httpapi never calls
#     (*jsontree.Tree).Value: the jsonval.Value detour is the test
#     oracle for the one tree encoder (Tree.AppendJSON), not a
#     serving-path serializer.
#
# Run from the repository root: scripts/deps-check.sh (or `make deps-check`).
set -u

fail=0

deps=$(go list -deps ./cmd/jsonstored) || exit 1
for pkg in datalog xmlenc projection gen stream translate; do
    if echo "$deps" | grep -qx "jsonlogic/internal/$pkg"; then
        echo "deps-check: cmd/jsonstored depends on internal/$pkg"
        fail=1
    fi
done

for dir in internal/store internal/httpapi; do
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if hits=$(grep -n '\.Value(' "$f"); then
            echo "deps-check: $f calls Tree.Value (render with Tree.AppendJSON):"
            echo "$hits"
            fail=1
        fi
    done
done

if [ "$fail" -eq 0 ]; then
    echo "deps-check: OK"
fi
exit "$fail"
