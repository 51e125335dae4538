#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# Every build artifact, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$root" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" "$@"
