#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write — Go's build and module caches, its work directories, the
# toolchain's own counter files (it keeps them under the user config
# directory), the binary, region files, traces — goes under .bench_build in
# the checkout, so nothing outside the checkout is touched. Arguments pass
# through to the binary; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .) >&2
exec "$build/benchmark" -workdir "$build" "$@"
