#!/usr/bin/env bash
# One-shot correctness gate (DESIGN.md section 12):
#   1. configure with thread-safety analysis + exported compile commands
#   2. build (clang: -Werror=thread-safety; gcc: annotations are no-ops)
#   3. medsync-lint over the tree + its self-test
#   4. medsync-sca: the whole-program analyzer (MS101 lock-order,
#      MS102 determinism-flow, MS103 event-loop-blocking, MS104
#      status-leak) + its fixture self-test. Uses libclang when
#      available, else the built-in frontend — the rules run either way.
#   5. clang-tidy ratchet against tools/clang_tidy_baseline.txt (skips
#      with a warning when clang-tidy is absent; CI runs it --require'd)
#   6. tier-1 ctest: every test once, the `lanes` and `storage` labels
#      included (run one label alone with `ctest -L lanes` / `-L storage`)
#   7. loopback deployment smoke: build chain_node_daemon and drive the
#      four-process Fig. 5 cascade over real TCP to convergence, checking
#      that every process reports the same protocol outcome (DESIGN.md
#      section 16)
#
# Usage: tools/check.sh [build-dir]          (default: build-check)
#        tools/check.sh --lint-only [dir]    lint stages only
#        tools/check.sh --full [dir]         also run the `soak` label
#                                            (generated 100-peer networks,
#                                            ~3 min serial; see DESIGN.md
#                                            section 13)
#
# Registered with ctest as `check_gate` (label `lint`) in --lint-only mode:
# inside a ctest run the configure/build/test stages are already the
# enclosing run, so only the lint stages add coverage there. The full gate
# is for pre-push use.
set -euo pipefail
cd "$(dirname "$0")/.."

LINT_ONLY=0
FULL=0
if [[ "${1:-}" == "--lint-only" ]]; then
  LINT_ONLY=1
  shift
elif [[ "${1:-}" == "--full" ]]; then
  FULL=1
  shift
fi
BUILD_DIR="${1:-build-check}"

if [[ "$LINT_ONLY" == 0 ]]; then
  echo "== [1/7] configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . \
    -DMEDSYNC_THREAD_SAFETY_ANALYSIS=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  echo "== [2/7] build =="
  cmake --build "$BUILD_DIR" -j"$(nproc)"
fi

echo "== [3/7] medsync-lint =="
python3 tools/medsync_lint.py
python3 tools/medsync_lint_test.py

echo "== [4/7] medsync-sca (MS101-MS104 whole-program analysis) =="
python3 tools/medsync_sca.py --build-dir "$BUILD_DIR"
python3 tools/medsync_sca_test.py

echo "== [5/7] clang-tidy ratchet =="
python3 tools/clang_tidy_ratchet.py --build-dir "$BUILD_DIR"

if [[ "$LINT_ONLY" == 0 ]]; then
  echo "== [6/7] tier-1 ctest =="
  # -LE lint: the lint stages just ran above; also keeps the registered
  # check_gate test from re-entering this script. The generated soak suite
  # (label `soak`) is excluded from the default tier and included by
  # --full.
  EXCLUDE='lint|soak'
  if [[ "$FULL" == 1 ]]; then
    EXCLUDE='lint'
  fi
  ctest --test-dir "$BUILD_DIR" --output-on-failure -LE "$EXCLUDE" \
    -j"$(nproc)"
  echo "== [7/7] loopback deployment smoke (4 processes over TCP) =="
  cmake --build "$BUILD_DIR" --target chain_node_daemon -j"$(nproc)"
  tools/run_loopback_cascade.sh "$BUILD_DIR"
fi

echo "check.sh: all gates passed"
