#!/bin/sh
# check_bench.sh must actually *fail* on broken payloads — a checker that
# green-lights everything pins nothing.  Corrupts a copy of the repo's
# BENCH_simspeed.json five ways (gate forced false, a backend row made
# non-bit-exact, a skip stripped of its reason, the simd section deleted,
# the live cone's ops per sweep set back to the uncompiled 655) and
# requires a non-zero exit each time.
#
# Usage: check_bench_negative.sh /path/to/repo
set -u

repo=${1:?usage: check_bench_negative.sh /path/to/repo}
checker="$(dirname "$0")/check_bench.sh"
src="$repo/BENCH_simspeed.json"

if [ ! -e "$src" ]; then
  echo "check_bench_negative: no BENCH_simspeed.json in $repo (run bench_simspeed first)"
  exit 0
fi

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
fail=0

corrupt() {
  desc=$1
  sed "$2" "$src" > "$tmp/BENCH_simspeed.json"
  if sh "$checker" "$tmp" >/dev/null 2>&1; then
    echo "check_bench_negative: checker PASSED a payload with $desc" >&2
    fail=1
  fi
}

corrupt "every meets_target forced false" 's/"meets_target": true/"meets_target": false/'
corrupt "a non-bit-exact backend row" 's/"bit_exact": true/"bit_exact": false/'
corrupt "a skipped row with its reason stripped" '/"reason": "/d'
corrupt "the simd gate section deleted" '/"simd": {/,/}/d'
corrupt "live_cone ops_per_edge above its bound" 's/"ops_per_edge": [0-9.eE+-]*/"ops_per_edge": 655.1/'

if [ "$fail" -ne 0 ]; then
  echo "check_bench_negative: FAILED" >&2
  exit 1
fi
echo "check_bench_negative: OK (check_bench.sh rejects all 5 corrupted payloads)"
exit 0
