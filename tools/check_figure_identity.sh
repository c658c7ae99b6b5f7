#!/usr/bin/env bash
# Figure-identity check: proves a change did not alter any figure, ablation
# or scaling table.
#
#   tools/check_figure_identity.sh <parent-build-dir> <change-build-dir>
#
# Runs every bench binary except the micro_* benchmarks from both build
# trees (each pair side by side) and diffs their stdout. The only
# nondeterministic output is SummaryTable's "tuner overhead" column, the
# wall-clock share a model-based tuner spent fitting its model; its cells
# are masked before the diff. Everything else is seeded and must match
# byte for byte.
#
# There are no committed digests: the synthetic benchmarks evaluate their
# curves through libm, whose last-ulp rounding varies across libc builds,
# so the two builds must come from the same machine.
set -u

PARENT=${1:?usage: check_figure_identity.sh <parent-build-dir> <change-build-dir>}
CHANGE=${2:?usage: check_figure_identity.sh <parent-build-dir> <change-build-dir>}

for dir in "$PARENT" "$CHANGE"; do
  if [[ ! -d "$dir/bench" ]]; then
    echo "error: '$dir' has no bench/ directory (not a build tree?)" >&2
    exit 2
  fi
done

# Replaces the last cell of every row of a table whose header names the
# "tuner overhead" column.
mask_overhead() {
  awk -F'|' -v OFS='|' '
    /\| tuner overhead +\|$/ { masked = 1; print; next }
    masked && /^\|/ { $(NF - 1) = " <wall-clock> "; print; next }
    { masked = 0; print }
  '
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

names=()
for binary in "$CHANGE"/bench/*; do
  name=$(basename "$binary")
  [[ -f "$binary" && -x "$binary" && "$name" != micro_* ]] || continue
  names+=("$name")
done
if [[ ${#names[@]} -eq 0 ]]; then
  echo "error: no bench binaries in '$CHANGE/bench'" >&2
  exit 2
fi

failures=0
for name in "${names[@]}"; do
  if [[ ! -x "$PARENT/bench/$name" ]]; then
    echo "MISSING  $name (not in $PARENT/bench)"
    failures=$((failures + 1))
    continue
  fi
  start=$SECONDS
  "$PARENT/bench/$name" > "$out/$name.parent" 2> /dev/null &
  parent_pid=$!
  "$CHANGE/bench/$name" > "$out/$name.change" 2> /dev/null
  change_status=$?
  wait "$parent_pid"
  parent_status=$?
  if [[ $parent_status -ne $change_status ]]; then
    echo "EXIT     $name (parent $parent_status, change $change_status)"
    failures=$((failures + 1))
  elif diff <(mask_overhead < "$out/$name.parent") \
            <(mask_overhead < "$out/$name.change") > "$out/$name.diff"; then
    echo "same     $name ($((SECONDS - start)) s, exit $change_status)"
  else
    echo "DIFFERS  $name"
    head -n 40 "$out/$name.diff"
    failures=$((failures + 1))
  fi
done

if [[ $failures -ne 0 ]]; then
  echo "FAIL: $failures of ${#names[@]} bench binaries differ" >&2
  exit 1
fi
echo "OK: all ${#names[@]} figure, ablation and scaling binaries identical"
