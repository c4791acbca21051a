#!/usr/bin/env bash
# Builds promipsd and the e2ebench harness from the checkout this script is
# run from (its root), then runs the harness with the given arguments.
# Everything built or written stays under .bench_build/ in the checkout.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/work"

# No network, no toolchain download, and no cache, module directory, user
# settings or telemetry counters outside the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default "local" mode the go command starts a detached
# child of its own (the counter-file uploader), once a day for each
# configuration directory; it outlives this script. The mode file is the only
# switch: GOTELEMETRY in the environment is not read.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/bin/promipsd" ./cmd/promipsd >&2
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2

exec "$out/bin/e2ebench" -promipsd "$out/bin/promipsd" -work "$out/work" "$@"
