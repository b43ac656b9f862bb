#!/usr/bin/env bash
# Times every figure/table driver binary and emits BENCH_runtime.json:
# per-figure wall-clock seconds, the memo/store cache counters each
# binary reported, and the simulated-instruction throughput
# (`sim_minstr_per_sec` = budget x memo_misses / wall seconds / 1e6 —
# memo misses are exactly the cells that were freshly simulated; memo
# and store hits cost no simulation; a figure served entirely from
# cache has no rate and records `null`). A `suite` entry aggregates the
# whole run. This populates the perf trajectory the runner work targets
# (ISSUE 2, ISSUE 7); re-run after engine changes and commit the result.
#
#   scripts/bench.sh [instruction-budget] [out-file]
#
# Defaults: 250,000 instructions per configuration (the QUICK budget —
# the full 2M budget has identical parallel/memo structure, only longer),
# writing BENCH_runtime.json at the repo root. SEESAW_THREADS pins the
# worker count; it defaults to the machine's available parallelism.
#
# All binaries share one persistent store (a fresh temp dir per
# invocation, or $SEESAW_STORE when the caller exports it), so grid
# cells shared between figures (fig7/fig8/fig9/fig10 overlap heavily)
# simulate once and land as store hits in every later binary — the
# per-binary memo caches no longer cold-start 20 times.
#
# Regression gate: when the out-file already exists (the committed
# trajectory), each binary's fresh wall-clock is diffed against it and
# any cell more than 15% slower than a baseline of at least 0.5 s fails
# the script — so engine speed never silently regresses. On failure the
# bench_diff binary diffs the old and new snapshots and attributes each
# regression (more fresh cells vs. slower simulation vs. harness
# overhead), so the verdict arrives with a cause. Set
# SEESAW_BENCH_GATE=off to record a new trajectory without gating
# (e.g. on a different machine).
set -euo pipefail
cd "$(dirname "$0")/.."

budget="${1:-250000}"
out="${2:-BENCH_runtime.json}"

echo "==> cargo build --release -p seesaw-bench --bins"
cargo build --release -p seesaw-bench --bins

bins="table1 table2 table3 fig2a fig2b fig2c fig3 fig7 fig8 fig9 \
      fig10 fig11 fig12 fig13 fig14 fig15 ablations scheduler partitions \
      multicore"

threads="${SEESAW_THREADS:-$(nproc 2>/dev/null || echo 1)}"
git_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
trace_enabled=$([ -n "${SEESAW_TRACE:-}" ] && echo true || echo false)
tmp="$(mktemp)"
baseline="$(mktemp)"
regressions="$(mktemp)"
old_snapshot="$(mktemp)"

# One store for the whole suite, so cells shared across figures simulate
# once. A caller-provided SEESAW_STORE is honored (and kept); otherwise
# the suite uses a private temp dir discarded on exit, keeping repeat
# bench.sh runs honest (every invocation re-simulates from scratch).
if [ -n "${SEESAW_STORE:-}" ]; then
  store_dir="$SEESAW_STORE"
  trap 'rm -f "$tmp" "$baseline" "$regressions" "$old_snapshot"' EXIT
else
  store_dir="$(mktemp -d)"
  trap 'rm -f "$tmp" "$baseline" "$regressions" "$old_snapshot"; rm -rf "$store_dir"' EXIT
fi
export SEESAW_STORE="$store_dir"

# Snapshot the committed trajectory before overwriting it: lines of
# "<bin> <wall_seconds>", scraped from the existing out-file.
gate="${SEESAW_BENCH_GATE:-on}"
if [ -f "$out" ] && [ "$gate" != "off" ]; then
  cp "$out" "$old_snapshot"
  grep -o '"[a-z0-9]*": { "wall_seconds": [0-9.]*' "$out" \
    | sed 's/"\([a-z0-9]*\)": { "wall_seconds": \([0-9.]*\)/\1 \2/' \
    > "$baseline" || true
fi

suite_wall=0
suite_hits=0
suite_misses=0
suite_store_hits=0

{
  echo "{"
  echo "  \"budget_instructions\": ${budget},"
  echo "  \"threads\": ${threads},"
  echo "  \"git_sha\": \"${git_sha}\","
  echo "  \"trace_enabled\": ${trace_enabled},"
  echo "  \"figures\": {"
  first=1
  for bin in $bins; do
    start=$(date +%s.%N)
    ./target/release/"$bin" "$budget" > "$tmp"
    end=$(date +%s.%N)
    secs=$(awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }')
    # Scrape the [memo] / [store] lines the sweep binaries print
    # (pure-math tables print none; report zeros for those).
    memo=$(grep '^\[memo\]' "$tmp" || true)
    hits=0; misses=0
    if [ -n "$memo" ]; then
      hits=$(echo "$memo" | awk '{print $2}')
      misses=$(echo "$memo" | awk '{print $5}')
    fi
    store_hits=$(grep '^\[store\]' "$tmp" \
      | sed -n 's/.*: \([0-9]*\) hits.*/\1/p' || true)
    store_hits="${store_hits:-0}"
    # Fresh simulation throughput: only memo misses actually ran the
    # simulator (memo and store hits are cache loads), and each ran
    # `budget` measured instructions. A figure with zero misses ran
    # entirely from cache — there is no simulation rate to report, so
    # it records null (a 0.000 there used to read as "infinitely slow"
    # in cross-run diffs).
    if [ "$misses" -gt 0 ]; then
      mips=$(awk -v b="$budget" -v m="$misses" -v w="$secs" \
        'BEGIN { printf "%.3f", (w > 0) ? b * m / w / 1e6 : 0 }')
    else
      mips=null
    fi
    suite_wall=$(awk -v a="$suite_wall" -v b="$secs" 'BEGIN { printf "%.3f", a + b }')
    suite_hits=$((suite_hits + hits))
    suite_misses=$((suite_misses + misses))
    suite_store_hits=$((suite_store_hits + store_hits))
    # Diff against the committed trajectory: >15% slower than a
    # baseline of >= 0.5 s is a regression (sub-second cells are noise).
    old=$(awk -v b="$bin" '$1 == b { print $2 }' "$baseline")
    if [ -n "$old" ]; then
      awk -v bin="$bin" -v old="$old" -v new="$secs" 'BEGIN {
        if (old >= 0.5 && new > old * 1.15)
          printf "  %s: %.3fs -> %.3fs (+%.0f%%)\n", bin, old, new, (new / old - 1) * 100
      }' >> "$regressions"
    fi
    [ "$first" = 1 ] || echo ","
    first=0
    printf '    "%s": { "wall_seconds": %s, "sim_minstr_per_sec": %s, "memo_hits": %s, "memo_misses": %s, "store_hits": %s }' \
      "$bin" "$secs" "$mips" "$hits" "$misses" "$store_hits"
  done
  echo ""
  echo "  },"
  suite_mips=$(awk -v b="$budget" -v m="$suite_misses" -v w="$suite_wall" \
    'BEGIN { printf "%.3f", (w > 0) ? b * m / w / 1e6 : 0 }')
  hit_rate=$(awk -v h="$suite_hits" -v m="$suite_misses" \
    'BEGIN { t = h + m; printf "%.3f", (t > 0) ? h / t : 0 }')
  printf '  "suite": { "wall_seconds": %s, "sim_minstr_per_sec": %s, "memo_hits": %s, "memo_misses": %s, "store_hits": %s, "memo_hit_rate": %s }\n' \
    "$suite_wall" "$suite_mips" "$suite_hits" "$suite_misses" "$suite_store_hits" "$hit_rate"
  echo "}"
} > "$out"

echo "wrote $out"
awk -v w="$suite_wall" -v h="$suite_hits" -v m="$suite_misses" \
    -v s="$suite_store_hits" -v b="$budget" 'BEGIN {
  t = h + m
  printf "suite: %.1fs wall, %d cells simulated / %d cached (%.0f%% hit rate, %d from the shared store), %.1f Minstr/s\n",
    w, m, h, (t > 0) ? 100 * h / t : 0, s, (w > 0) ? b * m / w / 1e6 : 0
}'

if [ -s "$regressions" ]; then
  echo "error: wall-clock regressions (>15% vs committed ${out}):" >&2
  cat "$regressions" >&2
  # The explanatory half of the gate: attribute each regression to more
  # fresh cells, slower simulation, or harness overhead.
  if [ -s "$old_snapshot" ] && [ -x ./target/release/bench_diff ]; then
    ./target/release/bench_diff "$old_snapshot" "$out" >&2 || true
  fi
  echo "(investigate, or re-baseline with SEESAW_BENCH_GATE=off)" >&2
  exit 1
fi
