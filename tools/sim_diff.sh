#!/usr/bin/env bash
# Simulated-metric identity check: this checkout against a parent revision.
#
#   bash tools/sim_diff.sh PARENT_REV
#
# Exports PARENT_REV's committed files into a directory under $TMPDIR
# (removed on exit), then runs on each side
#
#   bash bench/vmbench/run.sh --quick
#   bash bench/vmbench/run.sh --workload W --seed 1 --seconds 3 --trace 1
#
# the latter for W in churn, files, overcommit and smp.  The checkout
# side is the working tree as it stands, uncommitted edits included.
# Simulated results repeat exactly per seed, so every one must match:
# the --quick output byte for byte, and in each traced summary the
# correct and failed fields and every metric except the host-time ones
# (names ending in _s, and trace.overhead_frac).  A traced run repeats
# the workload until --seconds of host time have passed and reports
# each metric's median over the repetitions, so `attempted` (the ops of
# every repetition) counts host time too and is skipped.  Prints
# whether the --quick outputs matched (and their diff if not), then per
# workload either how many fields are equal or each field that differs
# as "WORKLOAD FIELD PARENT -> CHECKOUT"; exits 1 if anything differed.
#
# Takes about a minute on two cores, builds included.  Not part of
# `make check`.
set -eu

parent=${1:?usage: tools/sim_diff.sh PARENT_REV}
here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/sim_diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$here" archive "$parent" | tar -x -C "$tmp/parent"

# vmbench on side $1 (a checkout root) with the remaining arguments;
# stdout only.
bench() {
  root=$1
  shift
  (cd "$root" && bash bench/vmbench/run.sh "$@") 2>/dev/null
}

# The simulated fields of a traced summary line on stdin, one
# "name value" per line.
simulated() {
  line=$(tail -n 1)
  printf '%s\n' "$line" |
    grep -o '"\(correct\|failed\)":[^,{}]*' |
    sed 's/^"\([^"]*\)":/\1 /'
  printf '%s\n' "$line" |
    grep -o '"[^"]*":{"value":[^,}]*' |
    sed 's/^"\([^"]*\)":{"value":/\1 /' |
    grep -v -e '^[^ ]*_s ' -e '^trace\.overhead_frac '
}

same=yes

bench "$tmp/parent" --quick > "$tmp/quick.parent"
bench "$here" --quick > "$tmp/quick.change"
if cmp -s "$tmp/quick.parent" "$tmp/quick.change"; then
  echo "quick: identical"
else
  same=no
  echo "quick: differs"
  diff "$tmp/quick.parent" "$tmp/quick.change" || true
fi

for w in churn files overcommit smp; do
  for side in parent change; do
    root=$here
    [ "$side" = parent ] && root=$tmp/parent
    bench "$root" --workload "$w" --seed 1 --seconds 3 --trace 1 |
      simulated > "$tmp/$w.$side" || true
  done
  n=$(wc -l < "$tmp/$w.parent")
  if [ "$n" -eq 0 ] || [ ! -s "$tmp/$w.change" ]; then
    same=no
    echo "$w: no summary from a run"
    continue
  fi
  # Fields in either file, joined by name: a field missing on one side
  # differs too.
  diffs=$(awk '
    NR == FNR { p[$1] = $2; next }
    { c[$1] = $2 }
    END {
      for (k in p) if (!(k in c) || c[k] != p[k]) print k, p[k], c[k]
      for (k in c) if (!(k in p)) print k, "-", c[k]
    }' "$tmp/$w.parent" "$tmp/$w.change" | sort)
  if [ -z "$diffs" ]; then
    echo "$w: $n simulated fields equal"
  else
    same=no
    printf '%s\n' "$diffs" |
      awk -v w="$w" '{ printf "%s %s %s -> %s\n", w, $1, $2, $3 }'
  fi
done

[ "$same" = yes ]
