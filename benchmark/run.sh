#!/usr/bin/env bash
# Builds the benchmark from source (first run only) and runs one workload:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. CARGO_TARGET_DIR, when set, picks the
# build directory.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
# swarm_1k opens about two descriptors per node; raise the soft limit to
# the hard one.
hard="$(ulimit -Hn)"
if [ "$hard" = "unlimited" ]; then hard=65536; fi
ulimit -n "$hard" 2>/dev/null || true
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
