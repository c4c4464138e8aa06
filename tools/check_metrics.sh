#!/bin/sh
# Live paper-invariant check, run as a ctest: `aesip metrics` must exit 0
# (it self-checks every invariant against its live counters) and its JSON
# must carry the paper's numbers as exact integers.
#
# Usage: check_metrics.sh /path/to/aesip
set -u

aesip=${1:?usage: check_metrics.sh /path/to/aesip}

out=$("$aesip" metrics --blocks 8 --farm no --json - 2>&1)
status=$?
if [ "$status" -ne 0 ]; then
  echo "check_metrics: aesip metrics exited $status" >&2
  echo "$out" >&2
  exit 1
fi

fail=0
for needle in \
  '"schema": "aesip-metrics-v1"' \
  '"invariants_ok": true' \
  '"cycles_per_round": 5' \
  '"cycles_per_block": 50' \
  '"key_setup_cycles_per_load": 40' \
  '"batch_backend": "none"' \
  '"batch_lanes": 1'
do
  if ! echo "$out" | grep -qF "$needle"; then
    echo "check_metrics: missing $needle" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "$out" >&2
  echo "check_metrics: FAILED" >&2
  exit 1
fi

# The farm section must carry the fleet counters (hot-swap / spot-check /
# quarantine-heal; docs/fleet.md) — all zero on this unreconfigured run,
# but the keys must exist so dashboards can rely on them.
fout=$("$aesip" metrics --blocks 4 --farm yes --workers 2 --json - 2>&1)
if [ $? -ne 0 ]; then
  echo "check_metrics: aesip metrics --farm yes failed" >&2
  echo "$fout" >&2
  exit 1
fi
for needle in \
  '"fleet": {' \
  '"passes": [' \
  '"lane_divergences": [' \
  '"batch_backend": "' \
  '"batch_lanes": ' \
  '"swaps": 0' \
  '"heals": 0' \
  '"spot_checks": 0' \
  '"spot_boosts": 0' \
  '"workers_boosted": 0' \
  '"workers_enabled": 2'
do
  if ! echo "$fout" | grep -qF "$needle"; then
    echo "check_metrics: missing $needle in the farm fleet section" >&2
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "$fout" >&2
  echo "check_metrics: FAILED" >&2
  exit 1
fi

# A netlist engine forced onto the portable backend must report exactly
# that backend and its 64-lane geometry — the deterministic pin for the
# batch_backend / batch_lanes keys (the unforced value is host-dependent) —
# and clean traffic must never split its lanes' control state.
uout=$(AESIP_BATCH_BACKEND=u64 "$aesip" metrics --blocks 4 --farm no --engine netlist --json - 2>&1)
if [ $? -ne 0 ]; then
  echo "check_metrics: aesip metrics --engine netlist (u64 backend) failed" >&2
  echo "$uout" >&2
  exit 1
fi
for needle in \
  '"batch_backend": "u64"' \
  '"batch_lanes": 64' \
  '"lane_divergences": 0'
do
  if ! echo "$uout" | grep -qF "$needle"; then
    echo "check_metrics: missing $needle in the forced-u64 netlist run" >&2
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "$uout" >&2
  echo "check_metrics: FAILED" >&2
  exit 1
fi

# The net section (docs/cluster.md): a live multi-threaded server behind
# `--net yes` must report its poller backend, per-event-loop-thread
# counters, and the cluster identity/gossip counters dashboards shard by.
nout=$("$aesip" metrics --blocks 4 --farm no --net yes --net-threads 2 --json - 2>&1)
if [ $? -ne 0 ]; then
  echo "check_metrics: aesip metrics --net yes failed" >&2
  echo "$nout" >&2
  exit 1
fi
for needle in \
  '"net": {' \
  '"threads": 2' \
  '"poller": "' \
  '"node_id": "metrics-n0"' \
  '"cluster_nodes_alive": 1' \
  '"redirects_sent": 0' \
  '"per_thread": [' \
  '"connections_adopted": '
do
  if ! echo "$nout" | grep -qF "$needle"; then
    echo "check_metrics: missing $needle in the net section" >&2
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "$nout" >&2
  echo "check_metrics: FAILED" >&2
  exit 1
fi
echo "check_metrics: OK (5 cycles/round, 50 cycles/block, 40-cycle key setup, batch backend keys, fleet + net counters, lane divergences)"
exit 0
