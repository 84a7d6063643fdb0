#!/usr/bin/env bash
# The one command of the benchmark: build streambench (release, offline),
# then run it. Prints every metric by name with its unit, checks outputs,
# exits non-zero on any failed check. See README.md.
#
#   run.sh [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--quick]
set -euo pipefail

# Work from the repo root with relative paths: socket worlds bind Unix
# sockets under benchmark/out/tmp, and a socket path holds 108 bytes.
cd "$(dirname "$0")/.."
export STREAMBENCH_DIR=benchmark
export CARGO_NET_OFFLINE=true

target="${CARGO_TARGET_DIR:-benchmark/target}"
mkdir -p "$target" benchmark/out/tmp
target="$(cd "$target" && pwd)"
# rustc's scratch files stay inside the checkout too.
CARGO_TARGET_DIR="$target" TMPDIR="$target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/streambench" "$@"
