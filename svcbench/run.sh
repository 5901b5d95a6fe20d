#!/usr/bin/env bash
# Builds mfserved and the service benchmark from this checkout's sources,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash svcbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
#
# Binaries, the Go build and module caches, the go command's own config,
# its temporary build directories, and per-run scratch files (journals,
# span files) all stay under .bench_build/svcbench in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build/svcbench"
mkdir -p "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# In a fresh config directory the first go command forks a detached
# telemetry sidecar ("go ** telemetry **") in its own session, which no
# signal of this script reaches. Turning telemetry off first starts none.
go telemetry off
go build -o "$out/mfserved" ./cmd/mfserved
(cd svcbench && go build -o "$out/svcbench" .)
exec "$out/svcbench" --mfserved "$out/mfserved" --scratch "$out" "$@"
