#!/usr/bin/env bash
# Figure-output digest gate: the sha256 of every figure driver's stdout
# at a fixed instruction budget (the 22 drivers of results/run_all.sh
# plus `designs`).
#
#   scripts/digests.sh           print "<sha256>  <driver>" lines
#   scripts/digests.sh --check   diff them against results/digests.txt
#
# A refactor must keep every figure bit-identical, so --check must pass
# unchanged. Regenerate the file (`scripts/digests.sh > results/digests.txt`)
# only in a change that means to move a figure, and say so in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

budget=20000
drivers="table1 table2 table3 fig2a fig2b fig2c fig3 fig7 fig8 fig9 \
         fig10 fig11 fig12 fig13 fig14 fig15 ablations scheduler partitions \
         ext_1gb ext_icache multicore designs"

cargo build --release -q -p seesaw-bench --bins

digests() {
    for bin in $drivers; do
        # No persistent store, status board or trace dir: every cell is
        # simulated fresh and stdout is the figure alone.
        sum="$(env -u SEESAW_STORE -u SEESAW_STATUS -u SEESAW_TRACE \
            "./target/release/$bin" "$budget" | sha256sum | cut -d' ' -f1)"
        echo "$sum  $bin"
    done
}

if [ "${1:-}" = "--check" ]; then
    diff -u results/digests.txt <(digests)
    echo "figure digests match results/digests.txt"
else
    digests
fi
