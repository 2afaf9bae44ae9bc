#!/usr/bin/env bash
# Builds the benchmark and the cbserver under test from the checkout in
# the current directory, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload kv-mem --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <parent-results-dir> <change-results-dir>
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/cbserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a couchgo checkout" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/cbserver" ./cmd/cbserver
(cd perfbench && go build -o "$out/bin/perfbench" .)

# The checkout may not be a git repository; a digest of the Go sources
# then identifies the code under test.
commit=$(git rev-parse HEAD 2>/dev/null || true)
if [[ -z "$commit" ]]; then
	commit="tree-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

if [[ "${1:-}" == compare ]]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -cbserver "$out/bin/cbserver" -workdir "$out" -commit "$commit" "$@"
