#!/usr/bin/env bash
# UndefinedBehaviorSanitizer gate for the real-network runtime.
#
# Builds with -DDPAXOS_SANITIZE=undefined and runs the code that handles
# bytes from the network: the framing fuzzers (hostile length prefixes,
# truncations, bit flips through the frame splitter), the TCP transport
# contract tests (forced disconnects, queue overflow, raw-socket abuse),
# the single-process real-clock election, and a reduced-request pass of
# the multi-process cluster smoke, plus the CRC-32 and snapshot unit
# tests (slice-by-8 loads eight bytes at a time from any alignment, and
# the snapshot envelope is serialized in place). Any signed overflow,
# misaligned or out-of-range access in the decode path fails the script.
#
# Usage: scripts/ubsan_check.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DDPAXOS_SANITIZE=undefined
cmake --build "$BUILD_DIR" \
    --target snapshot_test wire_fuzz_test transport_test \
             realnet_election_test real_cluster_test dpaxos_cli -j"$(nproc)"

# halt_on_error turns the first report into a hard failure instead of a
# log line; print_stacktrace makes it actionable.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1 ${UBSAN_OPTIONS:-}"

"$BUILD_DIR/tests/snapshot_test"
"$BUILD_DIR/tests/wire_fuzz_test"
"$BUILD_DIR/tests/transport_test"
"$BUILD_DIR/tests/realnet_election_test"
"$BUILD_DIR/tests/real_cluster_test"
DPAXOS_CLI="$BUILD_DIR/tools/dpaxos_cli" \
    scripts/real_cluster_smoke.sh 1000

echo "ubsan_check: PASS (no undefined behavior reported)"
