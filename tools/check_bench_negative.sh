#!/bin/sh
# check_bench.sh must actually *fail* on broken payloads — a checker that
# green-lights everything pins nothing.  Corrupts copies of the repo's
# bench payloads and requires a non-zero exit each time:
#   BENCH_simspeed.json five ways (gate forced false, a backend row made
#   non-bit-exact, a skip stripped of its reason, the simd section deleted,
#   the live cone's ops per sweep set back to the uncompiled 655);
#   BENCH_net.json's wire-tax gate and BENCH_fleet.json's spot-check
#   overhead gate two ways each (meets_target forced false, the section
#   deleted).
# A payload that is missing is skipped; with none there is nothing to do.
#
# Usage: check_bench_negative.sh /path/to/repo
set -u

repo=${1:?usage: check_bench_negative.sh /path/to/repo}
checker="$(dirname "$0")/check_bench.sh"

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
fail=0
n=0

# corrupt NAME DESC SED: check_bench.sh must reject BENCH_NAME.json edited by SED.
corrupt() {
  n=$((n + 1))
  rm -f "$tmp"/BENCH_*.json
  sed "$3" "$repo/BENCH_$1.json" > "$tmp/BENCH_$1.json"
  if sh "$checker" "$tmp" >/dev/null 2>&1; then
    echo "check_bench_negative: checker PASSED BENCH_$1.json with $2" >&2
    fail=1
  fi
}

if [ -e "$repo/BENCH_simspeed.json" ]; then
  corrupt simspeed "every meets_target forced false" 's/"meets_target": true/"meets_target": false/'
  corrupt simspeed "a non-bit-exact backend row" 's/"bit_exact": true/"bit_exact": false/'
  corrupt simspeed "a skipped row with its reason stripped" '/"reason": "/d'
  corrupt simspeed "the simd gate section deleted" '/"simd": {/,/}/d'
  corrupt simspeed "live_cone ops_per_edge above its bound" \
    's/"ops_per_edge": [0-9.eE+-]*/"ops_per_edge": 655.1/'
fi
if [ -e "$repo/BENCH_net.json" ]; then
  corrupt net "the wire-tax gate forced false" \
    '/"gate": {/,/}/s/"meets_target": true/"meets_target": false/'
  corrupt net "the wire-tax gate section deleted" '/"gate": {/,/}/d'
fi
if [ -e "$repo/BENCH_fleet.json" ]; then
  # A skipped overhead gate (host with < 4 hardware threads) passes on its
  # reason whatever meets_target says, so only a measured one is forced.
  if ! sed -n '/"spot_check_overhead": {/,/}/p' "$repo/BENCH_fleet.json" \
      | grep -qF '"skipped": true'; then
    corrupt fleet "the spot-check overhead gate forced false" \
      '/"spot_check_overhead": {/,/}/s/"meets_target": true/"meets_target": false/'
  fi
  corrupt fleet "the spot-check overhead section deleted" '/"spot_check_overhead": {/,/}/d'
fi

if [ "$n" -eq 0 ]; then
  echo "check_bench_negative: no BENCH_simspeed/net/fleet.json in $repo (run the benches first)"
  exit 0
fi
if [ "$fail" -ne 0 ]; then
  echo "check_bench_negative: FAILED" >&2
  exit 1
fi
echo "check_bench_negative: OK (check_bench.sh rejects all $n corrupted payloads)"
exit 0
