#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; every build product stays in .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
