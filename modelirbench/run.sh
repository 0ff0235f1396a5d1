#!/usr/bin/env bash
# Builds modelird and the benchmark from the checkout this is run in,
# then runs one workload. Run it from the root of the repository:
#
#	bash modelirbench/run.sh --workload archive-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$out/modelird" ./cmd/modelird)
(cd "$here" && go build -o "$out/modelirbench" .)
exec "$out/modelirbench" -bin "$out/modelird" -work "$out" "$@"
