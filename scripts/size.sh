#!/usr/bin/env bash
# Size ratchet (ROADMAP aim 2): non-test lines of the two crates that *are*
# the allocator, the width of its config surface, and its environment knobs.
# A file's non-test part is everything before its first `#[cfg(test)]`.
# CI runs this and fails when the total exceeds BUDGET; lower BUDGET when a
# PR shrinks the code, raise it only on purpose and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=7305

total=0
for f in crates/core/src/*.rs crates/nvm/src/*.rs; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | wc -l)
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total non-test lines (budget %d)\n' "$total" "$BUDGET"

cfg=$(grep -l 'pub struct RallocConfig' crates/core/src/*.rs)
fields=$(awk '/^pub struct RallocConfig/{on=1; next} on && /^}/{exit} on && /^    pub /{n++} END{print n+0}' "$cfg")
printf '%6d  RallocConfig fields\n' "$fields"

vars=$(find crates -name '*.rs' -path '*/src/*' ! -path '*/ledger/*' ! -path '*/target/*' \
    -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t' {} + \
    | grep -oE '"(RALLOC|GALLOC)_[A-Z_]+"' | sort -u | wc -l)
printf '%6d  distinct RALLOC_*/GALLOC_* variables read\n' "$vars"

if [ "$total" -gt "$BUDGET" ]; then
    echo "size.sh: $total non-test lines exceed the budget of $BUDGET" >&2
    exit 1
fi
