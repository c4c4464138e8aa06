#!/bin/sh
# Live paper-invariant check, run as a ctest: `aesip metrics` must exit 0
# (it self-checks every invariant against its live counters) and its JSON
# must carry the paper's numbers as exact integers. Each needle is looked
# for only inside the section that owns it, so a key of another section
# (the engine's top-level "lane_divergences", say) cannot stand in for it.
#
# Usage: check_metrics.sh /path/to/aesip
set -u

aesip=${1:?usage: check_metrics.sh /path/to/aesip}
fail=0

# run LABEL ARGS...: `aesip metrics ARGS --json -` into $out; exit 1 on failure.
run() {
  label=$1
  shift
  out=$("$aesip" metrics "$@" --json - 2>&1)
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "check_metrics: aesip metrics ($label) exited $status" >&2
    echo "$out" >&2
    exit 1
  fi
}

# section JSON KEY INDENT: the member KEY that opens at INDENT spaces, from
# its key line through its closing bracket at the same indent.
section() {
  pad=$(printf "%${3}s" "")
  printf '%s\n' "$1" | awk -v key="$pad\"$2\": " -v pad="$pad" '
    !on && index($0, key) == 1 { on = 1; print; next }
    on { print; if (index($0, pad) == 1 && substr($0, length(pad) + 1, 1) ~ /[]}]/) exit }'
}

# expect WHERE TEXT NEEDLE...: every NEEDLE occurs in TEXT.
expect() {
  where=$1
  text=$2
  shift 2
  for needle in "$@"; do
    if ! printf '%s\n' "$text" | grep -qF "$needle"; then
      echo "check_metrics: missing $needle in $where" >&2
      fail=1
    fi
  done
}

# verdict: print the run's document and fail if any needle was missing.
verdict() {
  if [ "$fail" -ne 0 ]; then
    echo "$out" >&2
    echo "check_metrics: FAILED" >&2
    exit 1
  fi
}

# The paper's cycle contract on the behavioral engine, no farm.
run "--farm no" --blocks 8 --farm no
expect "the document" "$out" \
  '"schema": "aesip-metrics-v2"' \
  '"invariants_ok": true' \
  '"batch_backend": "none"' \
  '"batch_lanes": 1'
expect "the ip section" "$(section "$out" ip 2)" \
  '"cycles_per_round": 5' \
  '"cycles_per_block": 50' \
  '"key_setup_cycles_per_load": 40'
verdict

# The farm section is the FarmStats document: its fleet counters
# (hot-swap / spot-check / quarantine-heal; docs/fleet.md) are all zero on
# this unreconfigured run, but the keys must exist so dashboards can rely
# on them, it says how many sessions the node holds, and every worker row
# carries its passes, lane divergences and uncached sweeps.
run "--farm yes" --blocks 4 --farm yes --workers 2
farm=$(section "$out" farm 2)
expect "the farm section" "$farm" \
  '"workers": 2' \
  '"batch_backend": "' \
  '"batch_lanes": ' \
  '"swaps": 0' \
  '"heals": 0' \
  '"spot_checks": 0' \
  '"spot_boosts": 0' \
  '"workers_boosted": 0' \
  '"workers_enabled": 2' \
  '"sessions_live": ' \
  '"queue_wait_us": {' \
  '"per_worker": ['
expect "the farm's per_worker rows" "$(section "$farm" per_worker 4)" \
  '"passes": ' \
  '"lane_divergences": ' \
  '"uncached_sweeps": ' \
  '"utilization": '
verdict

# A netlist engine forced onto the portable backend must report exactly
# that backend and its 64-lane geometry — the deterministic pin for the
# batch_backend / batch_lanes keys (the unforced value is host-dependent) —
# and clean traffic must never split its lanes' control state nor find the
# control-state cache full.
out=$(AESIP_BATCH_BACKEND=u64 "$aesip" metrics --blocks 4 --farm no --engine netlist --json - 2>&1)
if [ $? -ne 0 ]; then
  echo "check_metrics: aesip metrics --engine netlist (u64 backend) failed" >&2
  echo "$out" >&2
  exit 1
fi
expect "the forced-u64 netlist run" "$out" \
  '"batch_backend": "u64"' \
  '"batch_lanes": 64' \
  '"lane_divergences": 0' \
  '"uncached_sweeps": 0'
verdict

# The net section is the ServerStats document (docs/net.md): a live
# one-node cluster server behind `--net yes` must report its traffic
# counters and the cluster identity/gossip counters dashboards shard by.
run "--net yes" --blocks 4 --farm no --net yes
net=$(section "$out" net 2)
expect "the net section" "$net" \
  '"frames_received": ' \
  '"responses_sent": ' \
  '"node_id": "metrics-n0"' \
  '"cluster_nodes_alive": 1' \
  '"redirects_sent": 0'
verdict

echo "check_metrics: OK (5 cycles/round, 50 cycles/block, 40-cycle key setup, batch backend keys, fleet + net counters, lane divergences, uncached sweeps)"
exit 0
