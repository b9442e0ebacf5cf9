#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from any
# working directory. Everything the build and the run write — Go's build
# cache, work directory and telemetry included — stays under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTMPDIR="$PWD/out/tmp" \
	XDG_CONFIG_HOME="$PWD/out/config" GOENV=off GOTOOLCHAIN=local
go build -o out/bench .
exec out/bench "$@"
