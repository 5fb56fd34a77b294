#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout.
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the go command's own state, the binary and each run's scratch
# store under .bench_build/, a traced run's spans under bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
# Never reach for the network: the module has no dependency outside the
# checkout, and a toolchain newer than the installed one cannot be fetched.
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
go build -C "$root/bench" -o "$build/hpclog-bench" .
exec "$build/hpclog-bench" --dir "$build" "$@"
