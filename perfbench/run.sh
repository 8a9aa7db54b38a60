#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. The build cache and the toolchain's own state files stay
# under .bench_build, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
		GOPROXY=off GOWORK=off GOENV=off GOFLAGS= \
		go build -buildvcs=false -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
