#!/usr/bin/env bash
# Interleaved host-time pairs: this checkout against a parent revision.
#
#   bash tools/host_pairs.sh PARENT_REV [WORKLOAD] [SEED] [N]
#
# Exports PARENT_REV's committed files into a directory under $TMPDIR
# (removed on exit), then runs
#
#   bash bench/vmbench/run.sh --workload WORKLOAD --seed SEED \
#     --seconds 20 --trace 0
#
# N times on each side (defaults: files, seed 1, N = 10), alternating
# which side runs first.  The checkout side is the working tree as it
# stands, uncommitted edits included.  Prints every pair's host_s and
# setup_s, each side's median and quartiles of both (the same
# exclusive-method quartiles vmbench prints), how many pairs the
# checkout won on host_s (lower is a win), and
# whether every run read correct:true with 0 failed ops and string-equal
# sim_ms, sim_op_tail_us and host_live_mb.  Exits 1 when a simulated
# metric or a correctness field differs.
#
# Each run takes about 25 s on two cores, so the default costs about
# 9 minutes.  Not part of `make check`.
set -eu

parent=${1:?usage: tools/host_pairs.sh PARENT_REV [WORKLOAD] [SEED] [N]}
workload=${2:-files}
seed=${3:-1}
n=${4:-10}

here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/host_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$here" archive "$parent" | tar -x -C "$tmp/parent"

# One run on side $1 (a checkout root); appends its JSON summary line to
# $tmp/$2.runs.
run() {
  (cd "$1" && bash bench/vmbench/run.sh --workload "$workload" --seed "$seed" \
     --seconds 20 --trace 0) 2>/dev/null | tail -n 1 >> "$tmp/$2.runs"
}

# The value of metric $2 in JSON summary line $1, as printed.
field() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# The simulated and correctness part of a summary line.
simulated() {
  printf 'correct=%s failed=%s sim_ms=%s sim_op_tail_us=%s host_live_mb=%s\n' \
    "$(printf '%s\n' "$1" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')" \
    "$(printf '%s\n' "$1" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')" \
    "$(field "$1" sim_ms)" "$(field "$1" sim_op_tail_us)" \
    "$(field "$1" host_live_mb)"
}

: > "$tmp/parent.runs"
: > "$tmp/change.runs"
for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$tmp/parent" parent
    run "$here" change
  else
    run "$here" change
    run "$tmp/parent" parent
  fi
  p=$(sed -n "${i}p" "$tmp/parent.runs")
  c=$(sed -n "${i}p" "$tmp/change.runs")
  echo "pair $i:" \
    "host_s parent $(field "$p" host_s) change $(field "$c" host_s)," \
    "setup_s parent $(field "$p" setup_s) change $(field "$c" setup_s)"
done

# Median and quartiles of the numbers on stdin.
stats() {
  sort -g | awk '
    { a[NR] = $1 }
    END {
      n = NR
      med = (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
      if (n < 2) { q1 = med; q3 = med }
      else { q1 = q(1, n); q3 = q(3, n) }
      printf "median %.4f  q1 %.4f  q3 %.4f  iqr %.4f\n", med, q1, q3, q3 - q1
    }
    function q(i, n,   m, j, d) {
      m = n + 1
      j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
      d = i * m - j * 4
      return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }'
}

# Metric $2 of every run on side $1.
values() {
  while IFS= read -r line; do field "$line" "$2"; done < "$tmp/$1.runs"
}

for m in host_s setup_s; do
  echo "$workload seed $seed, $n pairs, $m (s):"
  echo "  parent $(values parent $m | stats)"
  echo "  change $(values change $m | stats)"
done
wins=$(paste <(values parent host_s) <(values change host_s) |
         awk '$2 < $1 { w++ } END { print w + 0 }')
echo "  change lower on host_s in $wins of $n pairs"

ref=$(simulated "$(head -n 1 "$tmp/parent.runs")")
same=yes
for side in parent change; do
  i=0
  while IFS= read -r line; do
    i=$((i + 1))
    sim=$(simulated "$line")
    if [ "$sim" != "$ref" ]; then
      same=no
      echo "  $side run $i differs: $sim"
    fi
  done < "$tmp/$side.runs"
done
echo "  simulated metrics string-equal on every run: $same ($ref)"
case "$ref" in correct=true\ failed=0\ *) ;; *) same=no ;; esac
[ "$same" = yes ]
