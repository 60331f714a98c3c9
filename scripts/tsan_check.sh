#!/usr/bin/env bash
# ThreadSanitizer sweep over the concurrency-sensitive paths.
#
# The planner's warm-start hints, connectivity scratch, and CVT scratch
# are caller-owned (stack-local per plan() call); the shared planner
# objects must stay immutable after construction. This script builds with
# -fsanitize=thread and runs the tests that hammer plan() from many
# threads (runtime/mission service) plus the interpolator unit tests,
# the task-arena unit tests, the parallel-plan determinism suite
# (full plans at 2/4/8 arena threads), the sharded-router suite
# (concurrent submit against kill/drain/revive transitions), the
# harmonic solver suite (multigrid smoothing through parallel_chunks at
# several arena widths, and the serial direct solve that runs below the
# multigrid threshold, checked at the same widths), the Delaunay suite
# (hinted construction feeding the parallel consumers), the admission
# suite (gateway submit/refresh racing a multi-threaded backend), and the
# codec suite (encode/decode used concurrently by the serving path), and
# the FMM suite (per-robot fast-marching solves fanned out over
# parallel_chunks must produce byte-identical ToA fields at any thread
# count), and the coverage suite (the CVT's block-coherent Voronoi
# assignment builds the per-block candidate lists that a reused Scratch
# caches across Lloyd steps, and narrows them per step, in per-chunk
# buffers inside parallel_chunks; checked at 1 and 4 arena threads, lists
# reused and rebuilt).
#
# Usage: scripts/tsan_check.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-tsan}"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DANR_SANITIZE=thread >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target test_runtime test_composition test_network test_grid_index \
  test_obs test_task_arena test_parallel_determinism test_shard \
  test_harmonic test_delaunay test_protocols test_decentralized \
  test_admission test_plan_codec test_fmm test_coverage >/dev/null

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(test_runtime|test_composition|test_network|test_grid_index|test_obs|test_task_arena|test_parallel_determinism|test_shard|test_harmonic|test_delaunay|test_protocols|test_decentralized|test_admission|test_plan_codec|test_fmm|test_coverage)$'
echo "OK: TSan sweep clean"
