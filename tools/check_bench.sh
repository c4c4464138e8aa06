#!/bin/sh
# Validate the common aesip-bench-v1 envelope on every BENCH_*.json in the
# repo (see report::begin_bench_envelope and docs/benchmarks.md): each file
# must name the envelope schema, the bench that wrote it, an integer payload
# schema version, a git_rev string, and a config object — and must not
# contain negative counters (every figure the benches emit is a count,
# a rate or a ratio; a minus sign means a counter underflowed).
#
# Usage: check_bench.sh /path/to/repo
set -u

repo=${1:?usage: check_bench.sh /path/to/repo}

found=0
fail=0
for f in "$repo"/BENCH_*.json; do
  [ -e "$f" ] || continue
  found=$((found + 1))
  name=$(basename "$f")

  for needle in \
    '"schema": "aesip-bench-v1"' \
    '"bench": "' \
    '"bench_schema_version": ' \
    '"git_rev": "' \
    '"config": {'
  do
    if ! grep -qF "$needle" "$f"; then
      echo "check_bench: $name: missing $needle" >&2
      fail=1
    fi
  done

  # The bench name inside the file must match BENCH_<name>.json.
  stem=${name#BENCH_}
  stem=${stem%.json}
  if ! grep -qF "\"bench\": \"$stem\"" "$f"; then
    echo "check_bench: $name: \"bench\" key does not say \"$stem\"" >&2
    fail=1
  fi

  # The payload schema version must be a positive integer.
  ver=$(sed -n 's/.*"bench_schema_version": \([0-9][0-9]*\).*/\1/p' "$f" | head -1)
  if [ -z "$ver" ] || [ "$ver" -lt 1 ]; then
    echo "check_bench: $name: bench_schema_version is not a positive integer" >&2
    fail=1
  fi

  # No negative numeric values anywhere (": -" catches them all).
  if grep -q '": -' "$f"; then
    echo "check_bench: $name: negative counter value:" >&2
    grep '": -' "$f" >&2
    fail=1
  fi

  # Bench-specific payload contracts.
  if [ "$stem" = "net" ]; then
    # The wire-tax gate (docs/net.md), payload v4: the gate section must be
    # present, carry its per-pair ratios and their spread, and pass — the
    # median loopback/direct ratio over alternating pairs >= 0.70.
    for needle in \
      '"gate": {' \
      '"direct_blocks_per_sec": ' \
      '"loopback_blocks_per_sec": ' \
      '"ratio": ' \
      '"per_pair": [' \
      '"iqr": ' \
      '"target_ratio": ' \
      '"sweep": ['
    do
      if ! grep -qF "$needle" "$f"; then
        echo "check_bench: $name: missing $needle" >&2
        fail=1
      fi
    done
    if ! sed -n '/"gate": {/,/}/p' "$f" | grep -qF '"meets_target": true'; then
      echo "check_bench: $name: wire-tax gate failed (meets_target is not true)" >&2
      fail=1
    fi

    # The nodes x sessions cluster sweep (docs/cluster.md).
    if ! grep -qF '"cluster": [' "$f"; then
      echo "check_bench: $name: missing \"cluster\": [" >&2
      fail=1
    fi
    # Zero-frame-loss and graceful drain at every scale that ran: any
    # non-zero lost_frames or a failed drain anywhere in the file fails.
    if grep -q '"lost_frames": [^0]' "$f"; then
      echo "check_bench: $name: lost frames in a cluster row:" >&2
      grep '"lost_frames": [^0]' "$f" >&2
      fail=1
    fi
    if grep -qF '"drained": false' "$f"; then
      echo "check_bench: $name: a row did not drain gracefully" >&2
      fail=1
    fi
    # Every skipped sweep row must carry a reason (count them: rows and
    # sections are one-per-line in the writer's output).
    n_skip=$(grep -cF '"skipped": true' "$f")
    n_reason=$(grep -cF '"reason": "' "$f")
    if [ "$n_reason" -lt "$n_skip" ]; then
      echo "check_bench: $name: $n_skip skipped rows but only $n_reason reasons" >&2
      fail=1
    fi
  fi

  if [ "$stem" = "simspeed" ]; then
    # The batch-evaluation gates (docs/netlist.md), payload v8: the
    # netlist_batch section must name the resolved backend and lane width,
    # give the ROM gather's ns per op among its live-cone figures,
    # carry per-backend rows (skipped rows need a reason), pass the
    # historical >= 20x speedup over the scalar evaluator, and pass the
    # SIMD widening gate — widest native backend >= 4x over the u64
    # baseline — unless the host has no SIMD backend, in which case the
    # simd section must say so explicitly.
    for needle in \
      '"netlist_batch": {' \
      '"backend": "' \
      '"lanes": ' \
      '"speedup_per_block": ' \
      '"simd": {' \
      '"rom_gather_ns_per_op": ' \
      '"backends": [' \
      '"occupancy_sweep": ['
    do
      if ! grep -qF "$needle" "$f"; then
        echo "check_bench: $name: missing $needle" >&2
        fail=1
      fi
    done
    # The scalar gate: top of the netlist_batch section, before the simd
    # sub-object opens.
    if ! sed -n '/"netlist_batch": {/,/"simd": {/p' "$f" \
        | grep -qF '"meets_target": true'; then
      echo "check_bench: $name: netlist batch gate failed (meets_target is not true)" >&2
      fail=1
    fi
    # The SIMD widening gate: measured and met, or skipped with a reason.
    ssection=$(sed -n '/"simd": {/,/}/p' "$f")
    if printf '%s' "$ssection" | grep -qF '"skipped": true'; then
      if ! printf '%s' "$ssection" | grep -qF '"reason": "'; then
        echo "check_bench: $name: simd gate skipped without a reason" >&2
        fail=1
      fi
    else
      if ! printf '%s' "$ssection" | grep -qF '"speedup_vs_u64": '; then
        echo "check_bench: $name: simd gate missing speedup_vs_u64" >&2
        fail=1
      fi
      if ! printf '%s' "$ssection" | grep -qF '"meets_target": true'; then
        echo "check_bench: $name: SIMD widening gate failed (meets_target is not true)" >&2
        fail=1
      fi
    fi
    # The pruned-work gate (payload v8): the ops one live-cone sweep of a
    # full-lane AES-128 encrypt pass runs.  It counts ops, not time, so it
    # does not depend on the backend or the host; the control network
    # compiled out of the cone programs takes it from 655 to 227.
    ope=$(sed -n 's/.*"ops_per_edge": \([0-9.eE+-]*\).*/\1/p' "$f" | head -n 1)
    if [ -z "$ope" ]; then
      echo "check_bench: $name: missing live_cone ops_per_edge" >&2
      fail=1
    elif ! awk -v x="$ope" 'BEGIN { exit !(x + 0 > 0 && x + 0 <= 320) }'; then
      echo "check_bench: $name: live_cone ops_per_edge $ope is not in (0, 320]" >&2
      fail=1
    fi
    # Per-backend rows: a measured row must be bit-exact; a skipped row
    # must carry a reason (counted file-wide like the net bench does).
    if grep -qF '"bit_exact": false' "$f"; then
      echo "check_bench: $name: a backend row is not bit-exact" >&2
      fail=1
    fi
    n_skip=$(grep -cF '"skipped": true' "$f")
    n_reason=$(grep -cF '"reason": "' "$f")
    if [ "$n_reason" -lt "$n_skip" ]; then
      echo "check_bench: $name: $n_skip skipped rows but only $n_reason reasons" >&2
      fail=1
    fi
  fi

  if [ "$stem" = "fleet" ]; then
    # Two gates (docs/fleet.md): the zero-corruption chaos gate is
    # unconditional — SEUs injected under 100% spot-check must never leak
    # a corrupted or lost frame. The spot-check overhead gate (< 5% wall
    # tax at 25% sampling, the median of alternating pairs, payload v2) is
    # wall-clock, so like the farm bench's wall-scaling gate it may be
    # skipped with a reason on hosts with too few hardware threads.
    for needle in \
      '"spot_check_overhead": {' \
      '"per_pair": [' \
      '"swap": {' \
      '"zero_corruption": {' \
      '"corrupted_frames": 0' \
      '"lost_frames": 0'
    do
      if ! grep -qF "$needle" "$f"; then
        echo "check_bench: $name: missing $needle" >&2
        fail=1
      fi
    done
    if ! sed -n '/"zero_corruption": {/,/}/p' "$f" | grep -qF '"meets_target": true'; then
      echo "check_bench: $name: zero-corruption gate failed (meets_target is not true)" >&2
      fail=1
    fi
    section=$(sed -n '/"spot_check_overhead": {/,/}/p' "$f")
    if printf '%s' "$section" | grep -qF '"skipped": true'; then
      if ! printf '%s' "$section" | grep -qF '"reason": "'; then
        echo "check_bench: $name: spot-check overhead skipped without a reason" >&2
        fail=1
      fi
    elif ! printf '%s' "$section" | grep -qF '"meets_target": true'; then
      echo "check_bench: $name: spot-check overhead gate failed (meets_target is not true)" >&2
      fail=1
    fi
  fi

  if [ "$stem" = "pareto" ]; then
    # The variant-family Pareto gate (docs/variants.md, docs/benchmarks.md):
    # at least 5 variant rows, a non-degenerate front (>= 3 non-dominated
    # points), the paper's iterative core at the LC minimum, the best
    # pipelined core >= 2x the paper core's blocks/sec, and every row
    # bit-exact and cycle-conformant to its declared schedule. All of that
    # is folded into the pareto section's meets_target by the bench; the
    # individual invariants are re-checked here so a regression names the
    # axis that moved.
    for needle in \
      '"variants": [' \
      '"pareto": {' \
      '"front": [' \
      '"front_size": ' \
      '"pipelined_speedup_x": '
    do
      if ! grep -qF "$needle" "$f"; then
        echo "check_bench: $name: missing $needle" >&2
        fail=1
      fi
    done
    rows=$(grep -cF '"variant": "' "$f")
    if [ "$rows" -lt 5 ]; then
      echo "check_bench: $name: expected >= 5 variant rows, found $rows" >&2
      fail=1
    fi
    if grep -qF '"bit_exact": false' "$f"; then
      echo "check_bench: $name: a variant row is not bit-exact" >&2
      fail=1
    fi
    if grep -qF '"cycle_conformant": false' "$f"; then
      echo "check_bench: $name: a variant row violates its declared schedule" >&2
      fail=1
    fi
    section=$(sed -n '/"pareto": {/,/}/p' "$f")
    front=$(printf '%s' "$section" | sed -n 's/.*"front_size": \([0-9][0-9]*\).*/\1/p' | head -1)
    if [ -z "$front" ] || [ "$front" -lt 3 ]; then
      echo "check_bench: $name: Pareto front is degenerate (front_size=${front:-missing}, need >= 3)" >&2
      fail=1
    fi
    if ! printf '%s' "$section" | grep -qF '"paper_lc_is_min": true'; then
      echo "check_bench: $name: the paper's iterative core lost the LC minimum" >&2
      fail=1
    fi
    if ! printf '%s' "$section" | grep -qF '"meets_target": true'; then
      echo "check_bench: $name: Pareto gate failed (meets_target is not true)" >&2
      fail=1
    fi

    # The key-size sweep (docs/keysizes.md): the paper's iterative core at
    # AES-128/192/256.  One row per key size, key-setup cycles strictly
    # increasing with key size (the 4*Nr inverse-schedule pass: 40/48/56),
    # and the sweep's own meets_target (which also folds in latency = 5*Nr
    # and per-row bit-exactness/cycle conformance, re-checked globally by
    # the bit_exact/cycle_conformant greps above).
    for needle in \
      '"key_sizes": [' \
      '"key_size_sweep": {'
    do
      if ! grep -qF "$needle" "$f"; then
        echo "check_bench: $name: missing $needle" >&2
        fail=1
      fi
    done
    ksection=$(sed -n '/"key_sizes": \[/,/\]/p' "$f")
    krows=$(printf '%s' "$ksection" | grep -cF '"key_bits": ')
    if [ "$krows" -lt 3 ]; then
      echo "check_bench: $name: expected 3 key-size rows (128/192/256), found $krows" >&2
      fail=1
    fi
    prev=-1
    for v in $(printf '%s' "$ksection" | sed -n 's/.*"key_setup_cycles": \([0-9][0-9]*\).*/\1/p'); do
      if [ "$v" -le "$prev" ]; then
        echo "check_bench: $name: key-setup cycles not monotone in key size ($prev -> $v)" >&2
        fail=1
      fi
      prev=$v
    done
    if ! sed -n '/"key_size_sweep": {/,/}/p' "$f" | grep -qF '"meets_target": true'; then
      echo "check_bench: $name: key-size sweep gate failed (meets_target is not true)" >&2
      fail=1
    fi
  fi

  if [ "$stem" = "farm" ]; then
    # The wall-scaling gate: either measured and met, or explicitly skipped
    # with a reason (hosts with fewer hardware threads than workers cannot
    # show wall-clock scaling; the simulated-domain figures still apply).
    if ! grep -qF '"wall_scaling": {' "$f"; then
      echo "check_bench: $name: missing \"wall_scaling\": {" >&2
      fail=1
    else
      section=$(sed -n '/"wall_scaling": {/,/}/p' "$f")
      if printf '%s' "$section" | grep -qF '"skipped": true'; then
        if ! printf '%s' "$section" | grep -qF '"reason": "'; then
          echo "check_bench: $name: wall_scaling skipped without a reason" >&2
          fail=1
        fi
      elif ! printf '%s' "$section" | grep -qF '"meets_target": true'; then
        echo "check_bench: $name: wall-scaling gate failed (meets_target is not true)" >&2
        fail=1
      fi
    fi
    # v4: every engine-sweep row records the engine's batch geometry.
    for needle in '"batch_backend": "' '"batch_lanes": '; do
      if ! grep -qF "$needle" "$f"; then
        echo "check_bench: $name: missing $needle (engine rows must record batch geometry)" >&2
        fail=1
      fi
    done
  fi
done

# Bench outputs are run artifacts (gitignored): a tree that has not run the
# benches yet has nothing to validate.
if [ "$found" -eq 0 ]; then
  echo "check_bench: no BENCH_*.json files in $repo (run the benches to generate them)"
  exit 0
fi
if [ "$fail" -ne 0 ]; then
  echo "check_bench: FAILED" >&2
  exit 1
fi
echo "check_bench: OK ($found BENCH_*.json files carry the aesip-bench-v1 envelope)"
exit 0
