#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload train --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the Unix-domain
# sockets of the socket fabric and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2

# A relative TMPDIR keeps socket paths short (sun_path holds 108 bytes)
# whatever the depth of the checkout.
cd "$root"
TMPDIR=${out#"$root"/}/tmp exec "$out/perfbench" -out "$out" "$@"
