#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload star-converged --seed 1 --seconds 20 --trace 0
#
# Every build product (compiler cache, binary, toolchain telemetry) stays
# under the build directory in the checkout: $CARGO_TARGET_DIR when set,
# .bench_build otherwise. Outside a full checkout the build fails (the
# module replaces `repro` with the parent directory) and so does the run.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
