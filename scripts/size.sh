#!/usr/bin/env bash
# Size ratchet (ROADMAP aim 2): non-test lines of every workspace crate,
# the width of the allocator's config surface, and its environment knobs.
# A file's non-test part is everything before its first `#[cfg(test)]`; a
# crate's is that of its .rs files outside `tests/` directories (sources,
# benches, examples). Two budgets: BUDGET for the two crates that *are* the
# allocator (core + nvm, listed per file), REST_BUDGET for every other
# crate except the benchmark (crates/bench/src/bin/ledger, all that
# crates/bench holds) and the offline dependency stand-ins (crates/shims),
# which are listed but not budgeted.
# CI runs this and fails past either budget, or when the config has more
# than MAX_FIELDS fields, or the crates read more than MAX_VARS variables
# (galloc's GALLOC_POOL, GALLOC_CAP and RALLOC_TELEMETRY: the core reads
# none); lower a bound when a PR shrinks what it counts, raise one only on
# purpose and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET=6496
REST_BUDGET=8698
MAX_FIELDS=5
MAX_VARS=3

# Non-test lines of the .rs files under the given paths (find arguments).
nontest() {
    find "$@" -name '*.rs' ! -path '*/tests/*' ! -path '*/target/*' \
        -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t' {} + | wc -l
}

total=0
for f in crates/core/src/*.rs crates/nvm/src/*.rs; do
    n=$(nontest "$f")
    printf '%6d  %s\n' "$n" "$f"
    total=$((total + n))
done
printf '%6d  total non-test lines of core + nvm (budget %d)\n\n' "$total" "$BUDGET"

rest=0
for dir in crates/*/; do
    crate=${dir%/}
    case $crate in
        crates/core | crates/nvm) continue ;;
        crates/shims) printf '%6d  %s (not budgeted)\n' "$(nontest "$crate")" "$crate"; continue ;;
    esac
    n=$(nontest "$crate" ! -path '*/ledger/*')
    printf '%6d  %s\n' "$n" "$crate"
    rest=$((rest + n))
done
printf '%6d  crates/bench/src/bin/ledger (not budgeted)\n' "$(nontest crates/bench/src/bin/ledger)"
printf '%6d  total non-test lines outside core + nvm (budget %d)\n\n' "$rest" "$REST_BUDGET"

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
over "non-test lines of core + nvm" "$total" "$BUDGET"
over "non-test lines outside core + nvm" "$rest" "$REST_BUDGET"
over "RallocConfig fields" "$fields" "$MAX_FIELDS"
over "environment variables" "$vars" "$MAX_VARS"
exit "$fail"
