#!/usr/bin/env bash
# Builds knnserve, knnshard and the servebench load generator from the
# checkout in the current directory, then runs one workload:
#
#   bash servebench/run.sh --workload select-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, generated
# CSV datasets, trace files) stays under .bench_build/servebench.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/knnserve" || ! -d "$root/cmd/knnshard" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (cmd/knnserve, cmd/knnshard and servebench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build/servebench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/bin/knnserve" ./cmd/knnserve
go build -o "$out/bin/knnshard" ./cmd/knnshard
(cd servebench && go build -o "$out/bin/servebench" .)

exec "$out/bin/servebench" -bin "$out/bin" -work "$out" "$@"
