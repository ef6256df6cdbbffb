#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it is run
# from, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-closed --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout (build cache, binary, span files, the serve workload's store).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) 1>&2
exec "$out/bin/perfbench" -root "$root" "$@"
