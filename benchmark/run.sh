#!/usr/bin/env bash
# The repo benchmark. With no arguments: every workload untraced, then the
# traced per-layer pass. See benchmark/README.md for the other modes.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--only WORKLOAD] [--trace 0|1]
#   benchmark/run.sh --agree [--seed N]
#   benchmark/run.sh --workload WORKLOAD --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
