#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload fig4-kdd12 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, module cache, tool config) stays under .bench_build, so the run
# reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .

commit=unknown
if git -C "$root" rev-parse --verify HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/perfbench" -root "$root" -commit "$commit" "$@"
