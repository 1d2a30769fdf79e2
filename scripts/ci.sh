#!/usr/bin/env bash
# Repository gate: formatting, lints, build, tests. Run from anywhere;
# fails fast on the first broken step. This is the command CI runs and
# the one to run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Not --all: that would also reformat the vendored offline stub crates in
# vendor/, which are deliberately excluded from the workspace.
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
# Bound the randomized property suites (tests/explain_all.rs reads this
# itself — the vendored proptest has no env support): enough cases to
# catch regressions, few enough to keep the gate fast.
PROPTEST_CASES="${PROPTEST_CASES:-8}" cargo test -q

echo "==> lift differential: simplified-defs session lifter vs raw-defs oracle, 64 cases"
# The session lifter asserts the simplified `defs`, the fresh-solver oracle
# the raw term; every answer must still agree. Widen the generated
# differential that guards this beyond the 8 cases of the step above.
PROPTEST_CASES=64 cargo test -q --test lift_model_filter \
    filtered_session_lifter_matches_the_fresh_oracle

echo "==> fork differential: forked term arenas vs a plain one, 256 cases"
# Every router forks a frozen, shared term arena. Replayed on a context that
# is frozen and forked at every assert, each op stream must build the same
# term ids and reach the same verdicts as on a plain context.
PROPTEST_CASES=256 cargo test -q --test session_differential \
    session_fresh_and_oracle_agree_on_op_streams

echo "==> fault hermeticity: fault and serve tests, 20 rounds, 8 threads, no lock"
# An armed fault stays on the thread guard or the server that armed it, so
# these binaries run their tests side by side with no cross-test lock; a
# fault that leaks into a neighbouring test fails some round.
for round in $(seq 1 20); do
  out="$(cargo test -q --test fault_injection --test serve_faults --test serve_soak \
      -- --test-threads=8 2>&1)" || { echo "round $round failed"; echo "$out"; exit 1; }
done

echo "==> perfbench self-test: every workload catches a corrupted expectation"
# The benchmark harness (perfbench/, its own cargo workspace) builds against
# the workspace crates by path: this fails as soon as an API change breaks
# it, and checks each workload repeats its exact counters.
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- self-test

echo "==> observability smoke: explain --trace=json --metrics-out"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cat > "$OBS_DIR/spec.txt" <<'EOF'
// @originate P1 200.7.0.0/16
// @originate P2 201.0.0.0/16
// @originate Customer 123.0.1.0/20
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(P1 -> ... -> P2)
  !(P2 -> ... -> P1)
}
Connectivity {
  Customer ~> D1
  Customer ~> D2
}
EOF
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --router R1 --neighbor P1 --dir export \
    --trace=json --metrics-out "$OBS_DIR/metrics.json" --json \
    > "$OBS_DIR/report.json" 2> "$OBS_DIR/trace.jsonl"
# The emitted JSON-lines must parse and contain all four stage spans; the
# metrics file must be a well-formed registry dump.
./target/release/netexpl obs-check \
    --trace-file "$OBS_DIR/trace.jsonl" --metrics-file "$OBS_DIR/metrics.json"

echo "==> robustness smoke: tight budget degrades explain, fails synth with NX501"
# An already-expired deadline must degrade explain to a *partial* result
# (exit 0, verdicts + interrupts in the JSON) — not an error, not a hang.
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --router R1 --neighbor P1 --dir export --timeout 0 --json \
    > "$OBS_DIR/partial.json" 2> "$OBS_DIR/partial.err"
grep -q '"partial": true' "$OBS_DIR/partial.json"
grep -q '"verdicts"' "$OBS_DIR/partial.json"
grep -q '"exhausted"' "$OBS_DIR/partial.json"
grep -q '"deadline"' "$OBS_DIR/partial.json"
# Synthesis cannot be partial: the same deadline fails it with the budget
# interrupt code and exit 1.
if ./target/release/netexpl synth --topology paper --spec "$OBS_DIR/spec.txt" \
    --timeout 0 > /dev/null 2> "$OBS_DIR/synth.err"; then
  echo "synth --timeout 0 unexpectedly succeeded"; exit 1
fi
grep -q 'error\[NX501\]' "$OBS_DIR/synth.err"

echo "==> fault-injection smoke: every armed site degrades, never panics"
# Unfaulted baseline: a site that is off this pipeline's path must
# reproduce it byte-for-byte.
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --router R1 --neighbor P1 --dir export --json > "$OBS_DIR/baseline.json"
for site in sat.search dpll.search encode.paths seed.encode \
            simplify.pass lift.candidate session.query; do
  status=0
  NETEXPL_FAULT="$site" ./target/release/netexpl explain --topology paper \
      --spec "$OBS_DIR/spec.txt" --router R1 --neighbor P1 --dir export --json \
      > "$OBS_DIR/fault.json" 2> "$OBS_DIR/fault.err" || status=$?
  if grep -q 'panicked' "$OBS_DIR/fault.err"; then
    echo "site $site: panicked"; cat "$OBS_DIR/fault.err"; exit 1
  fi
  if [ "$status" -eq 0 ]; then
    # Success is only sound if flagged partial or untouched by the fault.
    grep -q '"partial": true' "$OBS_DIR/fault.json" \
      || cmp -s "$OBS_DIR/fault.json" "$OBS_DIR/baseline.json" \
      || { echo "site $site: exit 0, not partial, diverges from baseline"; exit 1; }
  elif [ "$status" -eq 1 ]; then
    # Classified failure: exactly one error[NXnnn] line, no backtrace.
    grep -q 'error\[NX[0-9]*\]' "$OBS_DIR/fault.err" \
      || { echo "site $site: exit 1 without a classified error"; cat "$OBS_DIR/fault.err"; exit 1; }
  else
    echo "site $site: unexpected exit status $status"; exit 1
  fi
done

# Typos and retired sites in NETEXPL_FAULT must be rejected, not silently
# ignored.
for site in no.such.site lift.shard smt.check; do
  status=0
  NETEXPL_FAULT="$site" ./target/release/netexpl synth --topology paper \
      --spec "$OBS_DIR/spec.txt" > /dev/null 2> "$OBS_DIR/fault.err" || status=$?
  [ "$status" -eq 1 ] && grep -q 'error\[NX001\]' "$OBS_DIR/fault.err" \
    || { echo "unknown fault site $site was not rejected"; exit 1; }
done

echo "==> model-filter smoke: scenario 2 R3 (Figure 4) from cached witnesses"
# Explain the paper's scenario-2 configuration at R3. The session lifter
# must reach Figure 4 while deciding candidates from cached SAT witnesses
# (lift.model_filtered > 0). Agreement with the unfiltered fresh-solver
# lifter is tests/lift_model_filter.rs's job.
cat > "$OBS_DIR/s2.spec" <<'EOF'
// @originate P1 200.7.0.0/16
// @originate P2 200.7.0.0/16
// @originate Customer 123.0.1.0/20
mode strict
dest D1 = 200.7.0.0/16
Req2 {
  (Customer -> R3 -> R1 -> P1 -> ... -> D1)
  >> (Customer -> R3 -> R2 -> P2 -> ... -> D1)
}
EOF
cat > "$OBS_DIR/s2.conf" <<'EOF'
! ===== router R1 =====
! import from P1
route-map R1_from_P1 permit 10
  set community 100:1 additive
! ===== router R2 =====
! import from P2
route-map R2_from_P2 permit 10
  set community 100:2 additive
! ===== router R3 =====
! import from R1
route-map R3_from_R1 deny 10
  match community 100:2
route-map R3_from_R1 permit 20
  set local-preference 200
! import from R2
route-map R3_from_R2 deny 10
  match community 100:1
route-map R3_from_R2 permit 20
  set local-preference 100
EOF
./target/release/netexpl explain --topology paper \
    --spec "$OBS_DIR/s2.spec" --config "$OBS_DIR/s2.conf" --router R3 \
    --metrics-out "$OBS_DIR/s2-metrics.json" > "$OBS_DIR/s2.txt"
sed -n '/^subspecification/,/^}/p' "$OBS_DIR/s2.txt" > "$OBS_DIR/s2-subspec.txt"
for line in '(R3 -> R1 -> P1 -> ... -> D1)' '>> (R3 -> R2 -> P2 -> ... -> D1)' \
            '!(R1 -> R2 -> R3)' '!(R2 -> R1 -> R3)' 'R3 ~> D1' 'Customer ~> D1'; do
  grep -qF -- "$line" "$OBS_DIR/s2-subspec.txt" \
    || { echo "scenario 2 R3: missing Figure 4 line $line"; exit 1; }
done
model_filtered="$(grep -o '"lift.model_filtered": *[0-9]*' "$OBS_DIR/s2-metrics.json" \
    | grep -o '[0-9]*$' || echo 0)"
[ "$model_filtered" -gt 0 ] \
  || { echo "session lifter decided no candidate from a cached witness"; exit 1; }

echo "==> diff smoke: one-clause cosmetic edit recomputes one router"
# Synthesize the paper configuration, renumber one route-map clause (a
# cosmetic edit dirtying exactly its owner), and check the delta run
# reuses the rest and beats the from-scratch wall.
./target/release/netexpl synth --topology paper --spec "$OBS_DIR/spec.txt" \
    | tail -n +3 > "$OBS_DIR/old.conf"
awk '!done && /^route-map / { sub(/[0-9]+$/, $NF + 1); done = 1 } { print }' \
    "$OBS_DIR/old.conf" > "$OBS_DIR/new.conf"
! cmp -s "$OBS_DIR/old.conf" "$OBS_DIR/new.conf" \
  || { echo "diff smoke: edit produced an identical config"; exit 1; }
./target/release/netexpl diff --topology paper --spec "$OBS_DIR/spec.txt" \
    "$OBS_DIR/old.conf" "$OBS_DIR/new.conf" --json > "$OBS_DIR/diff.json"
grep -q '"reason": "local edit"' "$OBS_DIR/diff.json"
awk '
  /"delta_ms":/    { v = $2; gsub(/[,"]/, "", v); delta = v + 0; seen++ }
  /"full_ms":/     { v = $2; gsub(/[,"]/, "", v); full = v + 0; seen++ }
  /"recomputed":/  { v = $2; gsub(/[,"]/, "", v); rec = v + 0; seen++ }
  /"reused":/      { v = $2; gsub(/[,"]/, "", v); reused = v + 0; seen++ }
  END {
    if (seen != 4) { print "diff --json missing delta/full/reused/recomputed"; exit 1 }
    if (rec != 1) { printf "cosmetic edit recomputed %d routers, want 1\n", rec; exit 1 }
    if (reused < 1) { print "cosmetic edit reused nothing"; exit 1 }
    if (delta >= full) { printf "delta (%.1fms) not faster than full (%.1fms)\n", delta, full; exit 1 }
  }
' "$OBS_DIR/diff.json"

echo "==> network-lint smoke: dataflow pass clean on paper, exit codes honored"
# The paper scenario must come through the network pass with zero errors.
./target/release/netexpl lint --topology paper --spec "$OBS_DIR/spec.txt" \
    --network --json > "$OBS_DIR/netlint.json"
grep -q '"errors": 0' "$OBS_DIR/netlint.json"
# A generated multi-router topology must also lint cleanly end to end.
cat > "$OBS_DIR/ring.txt" <<'EOF'
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 { !(Pa -> ... -> Pb) }
EOF
./target/release/netexpl lint --topology ring:4 --spec "$OBS_DIR/ring.txt" \
    --network --json > "$OBS_DIR/netlint-ring.json"
grep -q '"errors": 0' "$OBS_DIR/netlint-ring.json"
# Exit-code contract: `!(P1 -> Customer)` is unrealizable (NE005, warning)
# — plain lint exits 0, --deny-warnings promotes it to a failure.
cat > "$OBS_DIR/warn.txt" <<'EOF'
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> Customer) }
EOF
./target/release/netexpl lint --topology paper --spec "$OBS_DIR/warn.txt" \
    > /dev/null
if ./target/release/netexpl lint --topology paper --spec "$OBS_DIR/warn.txt" \
    --deny-warnings > /dev/null 2>&1; then
  echo "lint --deny-warnings did not fail on a warning"; exit 1
fi

echo "==> profile smoke: attribution report names a dominant router"
./target/release/netexpl profile --topology paper --spec "$OBS_DIR/spec.txt" \
    --all --trace-out "$OBS_DIR/profile_trace.json" > "$OBS_DIR/profile.txt"
grep -Eq 'dominant router: R[0-9]' "$OBS_DIR/profile.txt"
grep -q 'Amdahl:' "$OBS_DIR/profile.txt"
grep -q 'critical path:' "$OBS_DIR/profile.txt"
# The side-channel Chrome trace must be a parseable trace_event document.
grep -q '"traceEvents"' "$OBS_DIR/profile_trace.json"

echo "==> explain-all smoke: every router reported, run bounded"
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --all --workers 4 --timeout 10 --json > "$OBS_DIR/all.json"
for router in R1 R2 R3 Customer P1 P2; do
  grep -q "\"router\": \"$router\"" "$OBS_DIR/all.json" \
    || { echo "explain --all: $router missing from the aggregate"; exit 1; }
done
grep -q '"cancelled": false' "$OBS_DIR/all.json"

echo "==> serve smoke: warm reuse, fault isolation, clean drain"
./target/release/netexpl serve --workers 2 --queue 8 > "$OBS_DIR/serve.log" 2>&1 &
SERVE_PID=$!
# A crashed smoke step must not leak the background server.
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$OBS_DIR"' EXIT
for _ in $(seq 1 100); do
  grep -q 'listening on ' "$OBS_DIR/serve.log" && break
  sleep 0.1
done
ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/serve.log" | head -1)"
[ -n "$ADDR" ] || { echo "serve printed no listening line"; cat "$OBS_DIR/serve.log"; exit 1; }
# Cold request, then the identical one warm, with the pool hit visible in
# the server's own metrics. In a release build the warm path must also be
# the faster one.
./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > "$OBS_DIR/serve-cold.json"
grep -q '"warm": false' "$OBS_DIR/serve-cold.json"
./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > "$OBS_DIR/serve-warm.json"
grep -q '"warm": true' "$OBS_DIR/serve-warm.json"
./target/release/netexpl request --addr "$ADDR" --op stats > "$OBS_DIR/serve-stats.json"
grep -q '"serve.pool.hits": 1' "$OBS_DIR/serve-stats.json"
awk '
  /"duration_ms":/ { v = $2; gsub(/,/, "", v); ms[++n] = v + 0 }
  END {
    if (n != 2) { print "expected two serve timings, got " n; exit 1 }
    if (ms[2] >= ms[1]) { printf "warm (%sms) not faster than cold (%sms)\n", ms[2], ms[1]; exit 1 }
  }
' "$OBS_DIR/serve-cold.json" "$OBS_DIR/serve-warm.json"
# Only the four serve.* sites are armable through the server; a pipeline
# site is rejected (NX802) and arms nothing.
status=0
./target/release/netexpl request --addr "$ADDR" --op arm-fault \
    --site session.query > /dev/null 2> "$OBS_DIR/serve-arm.err" || status=$?
[ "$status" -eq 1 ] && grep -q 'error\[NX802\]' "$OBS_DIR/serve-arm.err" \
  || { echo "arm-fault did not reject session.query with NX802"; cat "$OBS_DIR/serve-arm.err"; exit 1; }
# One armed worker crash: that request fails with the relayed NX804, the
# next one succeeds on a fresh session.
./target/release/netexpl request --addr "$ADDR" --op arm-fault \
    --site serve.worker --shots 1 > /dev/null
if ./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > /dev/null 2> "$OBS_DIR/serve-fault.err"; then
  echo "armed serve.worker fault did not fail the request"; exit 1
fi
grep -q 'error\[NX804\]' "$OBS_DIR/serve-fault.err"
./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > /dev/null
# Drain: the shutdown op is the only stop signal; the server must exit 0.
./target/release/netexpl request --addr "$ADDR" --op shutdown > /dev/null
wait "$SERVE_PID"
grep -q 'drained' "$OBS_DIR/serve.log"

echo "==> serve memory smoke: alternating cold builds keep the peak bounded"
# One pool slot and two specs in turn: every request evicts the other
# spec's session and builds cold. Each cold build starts from a fresh term
# context, so the server's peak resident set must stay flat instead of
# growing with the number of builds.
cat > "$OBS_DIR/ring-a.txt" <<'EOF'
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(Pa -> ... -> Pb)
  !(Pb -> ... -> Pa)
}
EOF
{ cat "$OBS_DIR/ring-a.txt"; printf 'Req2 {\n  R0 ~> D2\n}\n'; } > "$OBS_DIR/ring-b.txt"
./target/release/netexpl serve --workers 1 --pool 1 > "$OBS_DIR/serve-mem.log" 2>&1 &
MEM_PID=$!
trap 'kill "$SERVE_PID" "$MEM_PID" 2> /dev/null || true; rm -rf "$OBS_DIR"' EXIT
for _ in $(seq 1 100); do
  grep -q 'listening on ' "$OBS_DIR/serve-mem.log" && break
  sleep 0.1
done
MEM_ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/serve-mem.log" | head -1)"
[ -n "$MEM_ADDR" ] \
  || { echo "serve printed no listening line"; cat "$OBS_DIR/serve-mem.log"; exit 1; }
for i in $(seq 1 20); do
  if [ $((i % 2)) -eq 1 ]; then spec="$OBS_DIR/ring-a.txt"; else spec="$OBS_DIR/ring-b.txt"; fi
  ./target/release/netexpl request --addr "$MEM_ADDR" --op explain --topology ring:6 \
      --spec "$spec" --skip-lift > "$OBS_DIR/serve-mem.json"
  grep -q '"warm": false' "$OBS_DIR/serve-mem.json" \
    || { echo "serve memory smoke: request $i was not a cold build"; exit 1; }
done
hwm_kb="$(awk '/^VmHWM:/ { print $2 }' "/proc/$MEM_PID/status")"
./target/release/netexpl request --addr "$MEM_ADDR" --op shutdown > /dev/null
wait "$MEM_PID"
echo "serve peak RSS after 20 cold builds: $((hwm_kb / 1024)) MiB (limit 128 MiB)"
[ "$hwm_kb" -le $((128 * 1024)) ] \
  || { echo "serve peak RSS over the 128 MiB limit"; exit 1; }

echo "==> CNF-size gate: ring:6 synthesis bit-blasts to a linear-size CNF"
# Var–var local-preference comparisons are O(width) circuits (lowering them
# by enumerating their [0, 200] domain emitted ~119k clauses here), every
# enum's exactly-one is a sequential at-most-one ladder of O(n) clauses, and
# an asserted top-level disjunction is one clause with no definition
# variable. Together they store 4,084 clauses here; the pairwise
# exactly-one through a Tseitin gate per pair stored 6,381.
# The count is the clauses the SAT solver stores for the synthesis query
# (the `session.query` span with `origin` `synthesize`): level-0 units and
# satisfied clauses are not stored. It is deterministic: it depends on the
# encoding, not the machine.
./target/release/netexpl synth --topology ring:6 --spec "$OBS_DIR/ring-b.txt" \
    --trace=json > /dev/null 2> "$OBS_DIR/synth-trace.jsonl"
clauses="$(grep '"name":"session.query"' "$OBS_DIR/synth-trace.jsonl" \
    | grep '"origin":"synthesize"' \
    | grep -o '"cnf_clauses":[0-9]*' | grep -o '[0-9]*$' | head -1 || true)"
[ -n "$clauses" ] || { echo "no synthesis session.query span with cnf_clauses in the trace"; exit 1; }
echo "ring:6 synthesis CNF: $clauses clauses (limit 5000)"
[ "$clauses" -le 5000 ] \
  || { echo "synthesis CNF over the 5000-clause limit"; exit 1; }

echo "==> lint encodes its route domain once per network"
# The SAT pass probes every entry of every route map as an assumption query
# on one session, so the domain is asserted once (one `session.assert` span
# under `lint.sat`), not once per route map. Deterministic, like the gate
# above.
./target/release/netexpl lint --topology ring:6 --spec "$OBS_DIR/ring-b.txt" --network \
    --trace=json > /dev/null 2> "$OBS_DIR/lint-trace.jsonl"
sat_id="$(grep '"name":"lint.sat"' "$OBS_DIR/lint-trace.jsonl" \
    | grep -o '"id":[0-9]*' | grep -o '[0-9]*$' | head -1 || true)"
[ -n "$sat_id" ] || { echo "no lint.sat span in the trace"; exit 1; }
asserts="$(grep '"name":"session.assert"' "$OBS_DIR/lint-trace.jsonl" \
    | grep -c "\"parent\":$sat_id," || true)"
echo "ring:6 lint: $asserts session.assert span(s) under lint.sat (want 1)"
[ "$asserts" -eq 1 ] \
  || { echo "lint asserted its domain $asserts times, not once per network"; exit 1; }

echo "==> OK"
