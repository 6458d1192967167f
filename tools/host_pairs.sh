#!/usr/bin/env bash
# Interleaved host-time pairs: this checkout against a parent revision.
#
#   bash tools/host_pairs.sh PARENT_REV [WORKLOAD|all] [SEED] [N]
#
# Exports PARENT_REV's committed files into a directory under $TMPDIR
# (removed on exit), then runs
#
#   bash bench/vmbench/run.sh --workload WORKLOAD --seed SEED \
#     --seconds 20 --trace 0
#
# N times on each side (defaults: files, seed 1, N = 10), alternating
# which side runs first.  WORKLOAD `all` does this for churn, files,
# overcommit and smp in turn.  The checkout side is the working tree as
# it stands, uncommitted edits included.  For each workload it prints
# every pair's host_s and setup_s, each side's median and quartiles of
# both (the same exclusive-method quartiles vmbench prints) and of
# host_raw_s (the measured phase's uncalibrated host time, from the
# line vmbench prints on stdout before the summary), how many
# pairs the checkout won on host_s (lower is a win), whether every
# run read correct:true with 0 failed ops and string-equal sim_ms and
# sim_op_tail_us, and each side's host_live_mb (which must repeat on
# every run of a side).  It ends with one summary row per workload:
# median host_s, host_raw_s and setup_s on each side, their percent
# change, the parent's host_s IQR, the win count and how host_live_mb
# compares.
# Exits 1 when a simulated metric or a correctness field differs, or
# host_live_mb varies within a side or is higher on the checkout, on
# any workload.
#
# Each run takes about 25 s on two cores, so the default costs about
# 9 minutes, and `all` four times that.  Not part of `make check`.
set -eu

parent=${1:?usage: tools/host_pairs.sh PARENT_REV [WORKLOAD|all] [SEED] [N]}
which=${2:-files}
seed=${3:-1}
n=${4:-10}
case "$which" in
  all) workloads="churn files overcommit smp" ;;
  *) workloads=$which ;;
esac

here=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/host_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$here" archive "$parent" | tar -x -C "$tmp/parent"

# One run of workload $1 on side $2 (a checkout root); appends its JSON
# summary line to $tmp/$1.$3.runs and its host_raw_s median to
# $tmp/$1.$3.raw.
run() {
  out=$(cd "$2" && bash bench/vmbench/run.sh --workload "$1" \
          --seed "$seed" --seconds 20 --trace 0 2>/dev/null)
  printf '%s\n' "$out" | tail -n 1 >> "$tmp/$1.$3.runs"
  printf '%s\n' "$out" |
    sed -n "s/^$1 host_raw_s \([^ ]*\) s.*/\1/p" >> "$tmp/$1.$3.raw"
}

# The value of metric $2 in JSON summary line $1, as printed.
field() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# The simulated and correctness part of a summary line.
simulated() {
  printf 'correct=%s failed=%s sim_ms=%s sim_op_tail_us=%s\n' \
    "$(printf '%s\n' "$1" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')" \
    "$(printf '%s\n' "$1" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')" \
    "$(field "$1" sim_ms)" "$(field "$1" sim_op_tail_us)"
}

# "median q1 q3 iqr" of the numbers on stdin.
quartiles() {
  sort -g | awk '
    { a[NR] = $1 }
    END {
      n = NR
      med = (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
      if (n < 2) { q1 = med; q3 = med }
      else { q1 = q(1, n); q3 = q(3, n) }
      printf "%.4f %.4f %.4f %.4f\n", med, q1, q3, q3 - q1
    }
    function q(i, n,   m, j, d) {
      m = n + 1
      j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
      d = i * m - j * 4
      return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }'
}

# Metric $3 of every run of workload $1 on side $2.
values() {
  while IFS= read -r line; do field "$line" "$3"; done < "$tmp/$1.$2.runs"
}

# Percent change from $1 to $2.
change() {
  awk -v p="$1" -v c="$2" 'BEGIN { printf "%+.1f%%", 100 * (c - p) / p }'
}

same_all=yes
summary=""
for w in $workloads; do
  : > "$tmp/$w.parent.runs"
  : > "$tmp/$w.change.runs"
  : > "$tmp/$w.parent.raw"
  : > "$tmp/$w.change.raw"
  for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
      run "$w" "$tmp/parent" parent
      run "$w" "$here" change
    else
      run "$w" "$here" change
      run "$w" "$tmp/parent" parent
    fi
    p=$(sed -n "${i}p" "$tmp/$w.parent.runs")
    c=$(sed -n "${i}p" "$tmp/$w.change.runs")
    echo "$w pair $i:" \
      "host_s parent $(field "$p" host_s) change $(field "$c" host_s)," \
      "host_raw_s parent $(sed -n "${i}p" "$tmp/$w.parent.raw")" \
      "change $(sed -n "${i}p" "$tmp/$w.change.raw")," \
      "setup_s parent $(field "$p" setup_s) change $(field "$c" setup_s)"
  done

  for m in host_s setup_s; do
    echo "$w seed $seed, $n pairs, $m (s):"
    for side in parent change; do
      read -r med q1 q3 iqr <<< "$(values "$w" $side $m | quartiles)"
      printf '  %-6s median %s  q1 %s  q3 %s  iqr %s\n' \
        $side "$med" "$q1" "$q3" "$iqr"
    done
  done
  echo "$w seed $seed, $n pairs, host_raw_s (s, uncalibrated):"
  for side in parent change; do
    read -r med q1 q3 iqr <<< "$(quartiles < "$tmp/$w.$side.raw")"
    printf '  %-6s median %s  q1 %s  q3 %s  iqr %s\n' \
      $side "$med" "$q1" "$q3" "$iqr"
  done
  wins=$(paste <(values "$w" parent host_s) <(values "$w" change host_s) |
           awk '$2 < $1 { w++ } END { print w + 0 }')
  echo "  change lower on host_s in $wins of $n pairs"

  ref=$(simulated "$(head -n 1 "$tmp/$w.parent.runs")")
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
    done < "$tmp/$w.$side.runs"
  done
  echo "  simulated metrics string-equal on every run: $same ($ref)"
  case "$ref" in correct=true\ failed=0\ *) ;; *) same=no ;; esac
  [ "$same" = yes ] || same_all=no

  # host_live_mb repeats run to run; the checkout's may only be lower.
  lp=$(values "$w" parent host_live_mb | sort -u)
  lc=$(values "$w" change host_live_mb | sort -u)
  if [ "$(printf '%s\n' "$lp" | wc -l)" -ne 1 ] ||
     [ "$(printf '%s\n' "$lc" | wc -l)" -ne 1 ]; then
    live=varies
  else
    live=$(awk -v p="$lp" -v c="$lc" 'BEGIN {
             print (c == p) ? "equal" : (c < p) ? "lower" : "HIGHER" }')
  fi
  echo "  host_live_mb parent $(echo $lp) change $(echo $lc): $live"
  case "$live" in equal | lower) ;; *) same_all=no ;; esac

  read -r hp _ _ hiqr <<< "$(values "$w" parent host_s | quartiles)"
  read -r hc _ _ _ <<< "$(values "$w" change host_s | quartiles)"
  read -r sp _ _ _ <<< "$(values "$w" parent setup_s | quartiles)"
  read -r sc _ _ _ <<< "$(values "$w" change setup_s | quartiles)"
  read -r rp _ _ _ <<< "$(quartiles < "$tmp/$w.parent.raw")"
  read -r rc _ _ _ <<< "$(quartiles < "$tmp/$w.change.raw")"
  summary+=$(printf '%-10s %4s  %s -> %s  %7s  %6s  %5s  %s -> %s  %7s  %s -> %s  %7s  %-9s  %s' \
    "$w" "$seed" "$hp" "$hc" "$(change "$hp" "$hc")" "$hiqr" "$wins/$n" \
    "$rp" "$rc" "$(change "$rp" "$rc")" "$sp" "$sc" "$(change "$sp" "$sc")" \
    "$same" "$live")$'\n'
done

echo
echo "medians, parent -> change (host_s iqr is the parent's):"
printf '%-10s %4s  %-16s  %7s  %6s  %5s  %-16s  %7s  %-16s  %7s  %-9s  %s\n' \
  workload seed "host_s (s)" change iqr wins "host_raw_s (s)" change \
  "setup_s (s)" change sim_equal host_live_mb
printf '%s' "$summary"
[ "$same_all" = yes ]
