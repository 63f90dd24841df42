#!/usr/bin/env bash
# Builds potluckd and the benchmark driver from the checkout in the
# current directory, then runs one benchmark invocation:
#
#   bash benchmark/run.sh --workload lookup-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, daemon sockets, data
# directories, logs and span files. Build output goes to stderr so the
# last line of stdout is the result object.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
# The go command keeps its env file and telemetry counters under the
# user config directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
# With telemetry on, go build forks a detached sidecar that outlives the
# build (and this script, when the build fails); turn it off first.
# "go telemetry off" itself starts no sidecar.
go telemetry off >&2

go build -o "$out/potluckd" ./cmd/potluckd >&2
(cd "$root/benchmark" && go build -o "$out/potbench" .) >&2

exec "$out/potbench" -potluckd "$out/potluckd" -work "$out" "$@"
