#!/usr/bin/env bash
# Builds spritebench from source inside this checkout and runs it with the
# arguments given. BENCHMARK.json's command is `bash bench/run.sh`, to which
# the caller appends --workload/--seed/--seconds/--trace.
#
# Everything the build writes stays under .bench_build in the checkout: the
# binary, Go's build cache, and the places the go command would otherwise
# reach for in $HOME. The module has no dependencies, so nothing is
# downloaded. The first build in a checkout compiles the standard library
# (about a minute on the 2-CPU reference host); later ones take well under a
# second.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
# The benchmark keeps the pages it has faulted in (harness.Prefault says why):
# with this the Go runtime releases free memory lazily (MADV_FREE).
export GODEBUG=madvdontneed=0

go build -C "$here" -o "$out/spritebench" ./cmd/spritebench

cd "$root"
exec "$out/spritebench" "$@"
