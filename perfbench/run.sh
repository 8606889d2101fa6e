#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload iccad_mix --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache and temporary files, the binary,
# trace spans) lands in .bench_build/ under the current directory.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

# The benchmark module imports the repository's packages through a
# replace of ".."; outside a full checkout the build fails here.
(cd "$bench" && go build -buildvcs=false -o "$out/perfbench" .)

# One routing thread. The Go heap returns freed pages with MADV_DONTNEED
# by default, and every pass then faults them back in; in a VM those
# faults cost a varying amount and made identical passes differ by up to
# 50%. MADV_FREE keeps the pages mapped.
GOMAXPROCS=1 GODEBUG=madvdontneed=0 exec "$out/perfbench" "$@"
