#!/usr/bin/env bash
# The benchmark's command: build the bench inside the checkout, then run
# it.  A run may read and write only inside its checkout, so everything
# go writes (build cache, temporary files, telemetry) is pointed at
# .bench_build; a directory without the repository's sources fails
# here, before any result is printed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
cd "$root"
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
