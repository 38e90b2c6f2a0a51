#!/usr/bin/env bash
# Gate for the benchmark package itself: format, lints, unit tests and a
# smoke run of every workload, untraced and traced. Run from anywhere; a
# later CI issue can call this next to scripts/ci.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
cargo test --offline --release --manifest-path "$manifest"
cargo run --offline --release --quiet --manifest-path "$manifest" -- run --quick
