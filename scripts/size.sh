#!/usr/bin/env bash
# Size ratchet (ROADMAP aim 2): non-test lines of the two crates that *are*
# the allocator, the width of its config surface, and its environment knobs.
# A file's non-test part is everything before its first `#[cfg(test)]`.
# CI runs this and fails when the total exceeds BUDGET, or the config has
# more than MAX_FIELDS fields, or the crates read more than MAX_VARS
# variables; lower a bound when a PR shrinks what it counts, raise one only
# on purpose and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=6757
MAX_FIELDS=7
MAX_VARS=8

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

fail=0
over() { # name, value, bound
    if [ "$2" -gt "$3" ]; then
        echo "size.sh: $2 $1 exceed the bound of $3" >&2
        fail=1
    fi
}
over "non-test lines" "$total" "$BUDGET"
over "RallocConfig fields" "$fields" "$MAX_FIELDS"
over "environment variables" "$vars" "$MAX_VARS"
exit "$fail"
