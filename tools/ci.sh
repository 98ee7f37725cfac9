#!/usr/bin/env sh
# CI entry point: build and test the tree four times —
#   1. the plain Release-ish build (RelWithDebInfo, the default), followed
#      by a 1 s-per-workload run of perfbench/ whose correctness checks
#      must pass, and by the lock telemetry tax gate (an uncontended
#      TrackedMutex lock/unlock costs at most 3x the bare std::mutex),
#   2. an AddressSanitizer build (OBIWAN_SANITIZE=address),
#   3. an UndefinedBehaviorSanitizer build (OBIWAN_SANITIZE=undefined), and
#   4. a ThreadSanitizer build (OBIWAN_SANITIZE=thread) running the
#      concurrency-heavy transport tests (real sockets, retry decorator,
#      connection pool, server thread lifecycle).
# Any failure fails the script.
#
# Usage: tools/ci.sh [jobs]          (jobs defaults to nproc)
set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"

run_flavour() {
  flavour="$1"
  build_dir="$2"
  shift 2
  echo "=== [$flavour] configure ==="
  cmake -B "$build_dir" -S . "$@"
  echo "=== [$flavour] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [$flavour] test ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

run_flavour release build-ci

# The wall-clock benchmark (perfbench/, Release, TCP loopback) doubles as an
# end-to-end check: every workload verifies its results (Touch sums, walk
# labels and zero replicas left after eviction, holder and writer state equal
# to the master's) and exits non-zero on a violation or a failed op.
echo "=== [release] perfbench correctness run ==="
python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

# Lock telemetry is always on, so its uncontended cost is bounded in the one
# binary that ships: bench_contention's tracked lock/unlock round against the
# bare mutex it wraps, median of 5 repetitions each.
echo "=== [release] lock telemetry tax ==="
(cd build-ci && ./bench/bench_contention \
    --benchmark_filter='BM_(Tracked|Plain)MutexLockUnlock$' \
    --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
    --benchmark_out=BM_lock_tax.json --benchmark_out_format=json)
python3 - build-ci/BM_lock_tax.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
median = {b["run_name"]: b["real_time"] for b in doc["benchmarks"]
          if b.get("aggregate_name") == "median"}
tracked = median["BM_TrackedMutexLockUnlock"]
plain = median["BM_PlainMutexLockUnlock"]
assert tracked <= 3 * plain, \
    f"tracked lock/unlock {tracked:.1f} ns > 3x plain {plain:.1f} ns"
print(f"lock tax OK: tracked {tracked:.1f} ns, plain {plain:.1f} ns "
      f"({tracked / plain:.2f}x, bound 3x)")
EOF

run_flavour asan build-asan -DOBIWAN_SANITIZE=address
run_flavour ubsan build-ubsan -DOBIWAN_SANITIZE=undefined

# ThreadSanitizer flavour: the transport layer is the concurrency hot spot
# (client threads sharing one pooled TCP transport, the retry decorator's
# counter, the server's per-connection threads), plus the update-fanout soak
# (concurrent writers fanning pushes out on the bounded notification pool,
# and the resync daemon's background worker), the contention observatory
# (tracked mutexes, exemplar captures and scrapes racing lock traffic), the
# sharded object table (shard/world guards racing protocol paths, holder
# drops racing re-registration) and the update-journey tracker (fanout
# worker threads stamping hops against scrapes and alert evaluation) — so
# TSan runs those groups rather than the whole (slow under TSan) suite.
echo "=== [tsan] configure ==="
cmake -B build-tsan -S . -DOBIWAN_SANITIZE=thread
echo "=== [tsan] build ==="
cmake --build build-tsan -j "$JOBS" --target tcp_test net_test compress_test fanout_test obs_test contention_test object_table_test journey_test
echo "=== [tsan] test ==="
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R '^(Tcp|TcpDeadline|TcpPool|TcpRetry|TcpServer|Loopback|Sim|SimDeadline|RetryingTransport|CompressedTransport|FanoutTcp|AdminHttp|FleetMonitor|Contention|ObjectTable|Journey|BurnRate)'

# The fig4 bench must emit a schema-valid BENCH_*.json with latency
# percentiles (skip the google-benchmark micro-benchmarks; the paper series
# and the telemetry export are what CI checks).
echo "=== [bench] fig4 JSON schema ==="
(cd build-ci && ./bench/bench_fig4_rmi_vs_lmi --benchmark_filter=SchemaOnly)
python3 - build-ci/BENCH_fig4_rmi_vs_lmi.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "x_label", "xs", "series", "rpc_latency_ns", "metrics"):
    assert key in doc, f"missing key: {key}"
assert doc["series"], "no series"
for s in doc["series"]:
    assert len(s["values"]) == len(doc["xs"]), f"ragged series {s['name']}"
assert doc["rpc_latency_ns"], "no rpc latency summaries"
for op, summary in doc["rpc_latency_ns"].items():
    for key in ("count", "sum", "max", "p50", "p95", "p99"):
        assert key in summary, f"{op} missing {key}"
    assert summary["count"] > 0, f"{op} summary is empty"
for section in ("counters", "gauges", "histograms"):
    assert isinstance(doc["metrics"][section], list), f"bad {section}"
print("BENCH_fig4_rmi_vs_lmi.json: schema OK "
      f"({len(doc['series'])} series, {len(doc['rpc_latency_ns'])} ops)")
EOF

# The two-site cascade test, exporting its shared tracer, must leave a
# loadable Chrome trace: valid JSON, every B has a matching E (per pid/tid,
# LIFO order), and the cascade's span categories are present.
echo "=== [trace] two-site cascade Chrome trace ==="
TRACE_JSON="$(pwd)/build-ci/span_two_site.trace.json"
rm -f "$TRACE_JSON"
(cd build-ci && OBIWAN_SPAN_EXPORT="$TRACE_JSON" \
    ./tests/span_test --gtest_filter='*TwoSiteCascade*')
python3 tools/check_chrome_trace.py "$TRACE_JSON" --min-processes 2 \
    --category rmi --category dispatch --category fault --category get \
    --category put

# The TCP pooling bench must report the pool actually amortizing connects:
# the JSON's transport section records connects-per-call across the pooled
# and per-connect series.
echo "=== [bench] tcp pool JSON ==="
(cd build-ci && ./bench/bench_tcp_pool --benchmark_filter=SchemaOnly)
python3 - build-ci/BENCH_tcp_pool.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "xs", "series", "transport", "metrics"):
    assert key in doc, f"missing key: {key}"
t = doc["transport"]
for key in ("requests", "connects", "pool_hits", "timeouts", "connects_per_call"):
    assert key in t, f"transport section missing {key}"
assert t["requests"] > 0, "no TCP requests recorded"
# Half the runs are per-connect, half pooled; pooling must have amortized a
# substantial share of connects overall.
assert t["connects_per_call"] < 0.75, \
    f"pooling did not amortize connects: {t['connects_per_call']}"
assert t["pool_hits"] > 0, "pool never hit"
names = [s["name"] for s in doc["series"]]
assert "pooled" in names and "per-connect" in names, f"bad series: {names}"
print(f"BENCH_tcp_pool.json: transport OK (connects_per_call="
      f"{t['connects_per_call']:.3f}, pool_hits={t['pool_hits']})")
EOF

# The contention bench is the sharded-table refactor's success gate: the
# wait share at the top thread count must sit at or below the committed
# pre-shard baseline (bench/BASELINE_contention.json, captured on the PR 7
# single-mutex site), and the lock telemetry (with at least one tail
# exemplar linking a fat bucket back to a trace) must reach the JSON export.
echo "=== [bench] contention JSON ==="
(cd build-ci && ./bench/bench_contention --benchmark_filter=SchemaOnly)
python3 - build-ci/BENCH_contention.json bench/BASELINE_contention.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
with open(sys.argv[2]) as f:
    baseline = json.load(f)["contention"]
for key in ("bench", "xs", "series", "contention", "metrics"):
    assert key in doc, f"missing key: {key}"
c = doc["contention"]
for key in ("threads", "wait_share", "wall_ms", "contended", "site_p99_us"):
    assert key in c, f"contention section missing {key}"
    assert len(c[key]) == len(c["threads"]), f"ragged {key}: {c[key]}"
assert all(0.0 <= w <= 1.0 for w in c["wait_share"]), \
    f"wait_share out of [0,1]: {c['wait_share']}"
# The refactor's acceptance: the top-thread-count wait share must not
# regress past the committed single-mutex baseline. (The 10% epsilon
# absorbs scheduler noise on a loaded CI box; the sharded table typically
# lands far below the baseline, near zero.)
assert c["threads"] == baseline["threads"], \
    f"thread grid changed: {c['threads']} vs baseline {baseline['threads']}"
budget = baseline["wait_share"][-1] * 1.10
assert c["wait_share"][-1] <= budget, \
    f"wait share regressed past the pre-shard baseline: " \
    f"{c['wait_share'][-1]:.6f} > {budget:.6f} " \
    f"(baseline {baseline['wait_share'][-1]:.6f})"
hists = {h["name"] for h in doc["metrics"]["histograms"]}
for needed in ("obiwan_lock_wait_ns", "obiwan_lock_hold_ns"):
    assert needed in hists, f"missing lock histogram {needed}"
counters = {ctr["name"] for ctr in doc["metrics"]["counters"]}
for needed in ("obiwan_lock_contended_total", "obiwan_lock_acquisitions_total"):
    assert needed in counters, f"missing lock counter {needed}"
exemplars = sum(
    len(h.get("tail_exemplars", [])) for h in doc["metrics"]["histograms"])
assert exemplars >= 1, "no tail exemplars captured anywhere"
print(f"BENCH_contention.json: contention OK (wait_share={c['wait_share']} "
      f"vs baseline {baseline['wait_share']}, {exemplars} exemplars)")
EOF

# The scale bench records what the sharded table buys: throughput must not
# fall as demander threads are added (disjoint chains hit disjoint shards;
# refresh round trips overlap), and the object-count series must stay alive
# up to 16k resident replicas (sharded O(1) lookups, and no protocol path
# rescans the table, keep the per-op cost flat).
echo "=== [bench] scale JSON ==="
(cd build-ci && ./bench/bench_scale --benchmark_filter=SchemaOnly)
python3 - build-ci/BENCH_scale.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "xs", "series", "scale", "metrics"):
    assert key in doc, f"missing key: {key}"
s = doc["scale"]
for key in ("threads", "thr_kops", "objects", "obj_thr_kops"):
    assert key in s, f"scale section missing {key}"
assert len(s["thr_kops"]) == len(s["threads"]), f"ragged thr_kops: {s}"
assert len(s["obj_thr_kops"]) == len(s["objects"]), f"ragged obj_thr_kops: {s}"
assert all(t > 0 for t in s["thr_kops"]), f"dead thread series: {s['thr_kops']}"
assert all(t > 0 for t in s["obj_thr_kops"]), \
    f"dead object series: {s['obj_thr_kops']}"
# Adding threads must not collapse throughput. On the 4-core CI box the
# curve rises, about 2.2x from 1 to 8 threads (Release, median of 5 runs).
# Each point is one ~1 ms run, so the 0.6 floor leaves headroom for a noisy
# point, and for a box with fewer cores than threads, where the CPU-bound
# share of the op mix cannot scale, while still catching serialization
# collapse (threads convoying on one lock, futex storms).
assert s["thr_kops"][-1] >= 0.6 * s["thr_kops"][0], \
    f"throughput collapsed with threads: {s['thr_kops']}"
print(f"BENCH_scale.json: scale OK (thr_kops={s['thr_kops']}, "
      f"obj_thr_kops={s['obj_thr_kops']})")
EOF

# The mobility bench must report the disconnection-reconvergence experiment:
# a put with one of N holders unreachable stays bounded by ~one notification
# deadline (the parallel fanout claim), and the reconnecting holder
# reconverges through the retry queue + resync daemon. It must also report
# the fleet-convergence experiment: >=200 simulated device sites observed by
# a FleetMonitor through churn, with the lag distribution spiking at peak
# and returning to zero after reconnection.
echo "=== [bench] mobility reconvergence + fleet JSON ==="
(cd build-ci && ./bench/bench_mobility --benchmark_filter=SchemaOnly)
python3 - build-ci/BENCH_mobility.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("bench", "xs", "series", "reconvergence", "fleet", "journey",
            "metrics"):
    assert key in doc, f"missing key: {key}"
r = doc["reconvergence"]
for key in ("holders", "disconnected", "updates_during_window",
            "put_ms_all_up", "put_ms_one_down", "notify_deadline_ms",
            "reconverge_ms", "resync_refreshes"):
    assert key in r, f"reconvergence section missing {key}"
assert r["holders"] >= 2 and r["disconnected"] >= 1, f"degenerate setup: {r}"
# One dead holder must cost about one notification deadline on top of the
# all-up put — not one deadline per holder.
overhead_ms = r["put_ms_one_down"] - r["put_ms_all_up"]
assert overhead_ms < 2 * r["notify_deadline_ms"], \
    f"fanout did not parallelize: one-down overhead {overhead_ms:.0f} ms"
assert r["resync_refreshes"] >= 1, "resync daemon never refreshed"
assert r["reconverge_ms"] > 0, "reconvergence not measured"
print(f"BENCH_mobility.json: reconvergence OK (one-down overhead "
      f"{overhead_ms:.0f} ms vs deadline {r['notify_deadline_ms']:.0f} ms, "
      f"reconverge {r['reconverge_ms']:.0f} ms, "
      f"{r['resync_refreshes']} resync refreshes)")

fl = doc["fleet"]
for key in ("sites", "churned", "updates", "updates_observed",
            "peak_lag_versions", "peak_stale_replicas", "unreachable_at_peak",
            "bytes_per_update_peak", "converge_ms", "converge_polls",
            "final_lag_versions_max", "final_stale_replicas", "slo_breach_s"):
    assert key in fl, f"fleet section missing {key}"
assert fl["sites"] >= 200, f"fleet too small: {fl['sites']} sites"
assert fl["churned"] >= 1, "no churned devices in the fleet experiment"
# The monitor must have seen the churn: unreachable devices at peak, a lag
# spike covering every missed update, and stale replicas across the fleet.
assert fl["unreachable_at_peak"] >= fl["churned"], \
    f"churned devices not unreachable at peak: {fl}"
assert fl["peak_lag_versions"]["max"] >= 1, "no lag spike observed"
assert fl["peak_stale_replicas"] >= 1, "no stale replicas observed at peak"
assert fl["updates_observed"] >= fl["updates"], \
    f"monitor missed updates: {fl['updates_observed']} < {fl['updates']}"
assert fl["bytes_per_update_peak"] > 0, "bytes-per-update not measured"
# ...and the reconnection must actually reconverge, with SLO burn recorded
# for the window the fleet spent out of bounds.
assert fl["converge_ms"] > 0, "fleet convergence not measured"
assert fl["final_lag_versions_max"] == 0, "fleet did not reconverge (lag)"
assert fl["final_stale_replicas"] == 0, "fleet did not reconverge (stale)"
assert fl["slo_breach_s"] > 0, "SLO burn never accrued during churn"
print(f"BENCH_mobility.json: fleet OK ({fl['sites']} sites, "
      f"{fl['churned']} churned, peak lag max {fl['peak_lag_versions']['max']}, "
      f"converged in {fl['converge_ms']:.0f} ms, "
      f"SLO burn {fl['slo_breach_s']:.2f} s)")

# The journey cross-check: the per-update tracer must have followed the
# fleet updates hop by hop, its event-driven convergence measurement must
# come in at or under the poll-loop estimate (polling can only overestimate:
# it adds up to one poll interval plus refresh latency of aliasing error),
# and the sustained churn must have tripped the burn-rate alert.
j = doc["journey"]
for key in ("minted", "completed", "superseded_notifies", "ttfr_ms_p95",
            "convergence_ms_p95", "measured_convergence_ms",
            "polled_convergence_ms", "aliasing_error_ms", "poll_interval_ms",
            "alert_firing", "fast_burn_rate"):
    assert key in j, f"journey section missing {key}"
assert j["minted"] >= 1, "no update journeys minted"
assert j["completed"] >= 1, "no update journey completed"
assert j["measured_convergence_ms"] > 0, "journey convergence not measured"
assert j["aliasing_error_ms"] >= 0, \
    f"polled convergence beat the event-driven measurement: {j}"
assert j["polled_convergence_ms"] >= j["measured_convergence_ms"], \
    f"aliasing inverted: {j}"
# Churn supersedes queued notifications (per-holder version coalescing), so
# only the newest update fully converges and the older ones show up here.
assert j["superseded_notifies"] >= 1, "churn superseded no notifications"
assert j["alert_firing"] is True, "burn-rate alert did not fire under churn"
assert j["fast_burn_rate"] > 1.0, f"fast burn rate too low: {j}"
print(f"BENCH_mobility.json: journey OK ({j['minted']} minted, "
      f"{j['completed']} completed, measured "
      f"{j['measured_convergence_ms']:.0f} ms vs polled "
      f"{j['polled_convergence_ms']:.0f} ms, aliasing "
      f"{j['aliasing_error_ms']:.0f} ms, burn {j['fast_burn_rate']:.1f})")
EOF

# The replication observatory, exercised over real TCP: a provider shell
# hosts a bound chain, a demander shell replicates part of it and writes its
# frontier DOT and its flight-recorder dump on exit, and a third one-shot
# `--inspect` pulls the provider's report through the kInspect RMI method as
# JSON. The JSON must match the report schema, the DOT must parse as a
# well-formed frontier digraph, and the flight dump must be a balanced Chrome
# trace of the replication (get, rpc, materialize) that carries the
# demander's replica-table summary.
echo "=== [shell] replication observatory: inspect JSON + frontier DOT + flight dump ==="
SHELL_BIN=./build-ci/examples/obiwan_shell
OBS_JSON="$(pwd)/build-ci/observatory.json"
OBS_DOT="$(pwd)/build-ci/observatory.dot"
FLIGHT_JSON="$(pwd)/build-ci/flight.json"
rm -f "$OBS_JSON" "$OBS_DOT" "$FLIGHT_JSON"
{ printf 'host-registry\nbind todo inspect-me 3\n'; sleep 6; } | \
    "$SHELL_BIN" --site 1 --port 7461 >/dev/null &
OBS_SERVER=$!
sleep 1
printf 'lookup todo\nreplicate todo 2\ninspect\nfrontier\n' | \
    "$SHELL_BIN" --site 2 --port 7462 --registry 127.0.0.1:7461 \
    --frontier "$OBS_DOT" --flight-dump "$FLIGHT_JSON" >/dev/null
"$SHELL_BIN" --site 3 --port 7463 --registry 127.0.0.1:7461 \
    --inspect 127.0.0.1:7461 > "$OBS_JSON"
kill "$OBS_SERVER" 2>/dev/null || true
wait "$OBS_SERVER" 2>/dev/null || true
python3 - "$OBS_JSON" "$OBS_DOT" <<'EOF'
import json, re, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("site", "address", "now_ns", "summary", "objects", "pins"):
    assert key in doc, f"missing key: {key}"
for key in ("masters", "replicas", "proxy_ins", "frontier"):
    assert key in doc["summary"], f"summary missing {key}"
assert doc["site"] == 1, f"inspected the wrong site: {doc['site']}"
assert doc["summary"]["masters"] == 3, f"bad master count: {doc['summary']}"
assert len(doc["objects"]) == doc["summary"]["masters"], "missing object rows"
for o in doc["objects"]:
    for key in ("id", "role", "class", "version", "known_master_version",
                "stale", "staleness_versions", "age_ns", "payload_bytes",
                "faults", "puts", "holders", "edges"):
        assert key in o, f"object row missing {key}: {o}"
    assert o["role"] in ("master", "replica"), f"bad role: {o['role']}"
    for e in o["edges"]:
        for key in ("to", "proxy", "class"):
            assert key in e, f"edge missing {key}: {e}"
assert any(o["holders"] > 0 for o in doc["objects"]), \
    "no master records the demander as a holder"
assert any(p["anchored"] for p in doc["pins"]), "bind pin not anchored"
for p in doc["pins"]:
    for key in ("pin", "target", "cluster", "anchored", "members",
                "lease_remaining_ns"):
        assert key in p, f"pin row missing {key}: {p}"

with open(sys.argv[2]) as f:
    dot = f.read()
assert dot.startswith("digraph obiwan_frontier {"), "bad DOT header"
assert dot.count("{") == dot.count("}"), "unbalanced braces in DOT"
nodes = re.findall(r'^\s*"[^"]+"\s*\[', dot, re.M)
edges = re.findall(r'^\s*"[^"]+"\s*->\s*"[^"]+"', dot, re.M)
assert nodes, "no nodes in frontier DOT"
assert edges, "no edges in frontier DOT"
assert "style=dashed" in dot, "frontier DOT lost its dashed frontier styling"
print(f"observatory: inspect JSON schema OK ({len(doc['objects'])} objects, "
      f"{len(doc['pins'])} pins), frontier DOT OK "
      f"({len(nodes)} nodes, {len(edges)} edges)")
EOF
python3 tools/check_chrome_trace.py "$FLIGHT_JSON" \
    --category get --category materialize --category rpc \
    --other-data "site 2 state"

# The embedded admin endpoint, served by a real shell over TCP: /metrics must
# be well-formed Prometheus text exposition (every sample under a # TYPE,
# counters suffixed _total, histogram buckets cumulative with +Inf == _count,
# "# EOF"-terminated, OpenMetrics via Accept), /healthz must report ready
# while the RMI plane is up, and the update-journey routes /updates.json and
# /alerts.json must serve their schemas.
echo "=== [shell] admin endpoint: /metrics exposition + /healthz ==="
ADMIN_METRICS="$(pwd)/build-ci/admin_metrics.prom"
ADMIN_HEALTH="$(pwd)/build-ci/admin_healthz.json"
rm -f "$ADMIN_METRICS" "$ADMIN_HEALTH"
{ printf 'host-registry\nbind todo admin-doc 3\n'; sleep 6; } | \
    "$SHELL_BIN" --site 7 --port 7472 --admin 7474 >/dev/null &
ADMIN_SERVER=$!
sleep 1
curl -fsS http://127.0.0.1:7474/metrics > "$ADMIN_METRICS"
curl -fsS http://127.0.0.1:7474/healthz > "$ADMIN_HEALTH"
curl -fsS http://127.0.0.1:7474/inspect.json | python3 -c \
    'import json,sys; d=json.load(sys.stdin); assert d["site"] == 7, d'
curl -fsS http://127.0.0.1:7474/profile.json | python3 -c \
    'import json,sys; d=json.load(sys.stdin); \
     queues={q["queue"] for q in d["queues"]}; \
     assert {"stale_replicas","notify_retries","fanout_inflight"} <= queues, d'
curl -fsS http://127.0.0.1:7474/contention | grep -q "lock hotness" || {
    echo "/contention missing lock hotness report"; exit 1; }
# Content negotiation: an OpenMetrics Accept header must switch the
# /metrics content type (body stays "# EOF"-terminated either way).
curl -fsSi -H 'Accept: application/openmetrics-text' \
    http://127.0.0.1:7474/metrics | \
    grep -qi 'content-type: application/openmetrics-text' || {
    echo "/metrics did not negotiate OpenMetrics content type"; exit 1; }
curl -fsS http://127.0.0.1:7474/updates.json | python3 -c \
    'import json,sys; d=json.load(sys.stdin); \
     assert {"site","now","minted","completed","slo_convergence_ns", \
             "ttfr_ns","convergence_ns","hops","recent","slowest"} <= \
         set(d), d; \
     assert {"queue","wire","apply"} <= set(d["hops"]), d; \
     assert d["site"] == 7, d'
curl -fsS http://127.0.0.1:7474/alerts.json | python3 -c \
    'import json,sys; d=json.load(sys.stdin); \
     a=d["alerts"][0]; \
     assert a["name"] == "update_convergence_burn", d; \
     assert a["state"] in ("ok","firing"), d; \
     assert {"window_s","total","bad","burn_rate"} <= set(a["fast"]), d; \
     assert {"window_s","total","bad","burn_rate"} <= set(a["slow"]), d'
kill "$ADMIN_SERVER" 2>/dev/null || true
wait "$ADMIN_SERVER" 2>/dev/null || true
python3 - "$ADMIN_METRICS" "$ADMIN_HEALTH" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [l for l in f.read().splitlines() if l]
types = {}
families = {}  # family -> {"samples": n, "buckets": {labels: [counts]}}
for line in lines:
    if line.startswith("# TYPE "):
        name, kind = line[len("# TYPE "):].split()
        assert kind in ("counter", "gauge", "histogram"), line
        assert name not in types, f"duplicate TYPE for {name}"
        types[name] = kind
        continue
    if line == "# EOF":
        # OpenMetrics not-truncated terminator; must be the last line.
        assert line == lines[-1], "# EOF not at end of exposition"
        continue
    if line.startswith("#"):
        assert line.startswith("# HELP "), f"unknown comment: {line}"
        continue
    sample = line
    if " # {" in line:
        # OpenMetrics exemplar suffix: only on _bucket lines, trace-stamped,
        # with a numeric exemplar value after the closing brace.
        sample, exemplar = line.split(" # {", 1)
        assert sample.split("{")[0].split(" ")[0].endswith("_bucket"), \
            f"exemplar outside a _bucket series: {line}"
        assert exemplar.startswith('trace_id="'), f"bad exemplar: {line}"
        body, evalue = exemplar.rsplit("} ", 1)
        float(evalue)
    name = sample.split("{")[0].split(" ")[0]
    value = float(sample.rsplit(" ", 1)[1])
    family = name
    for suffix in ("_bucket", "_sum", "_count"):
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and types.get(base) == "histogram":
            family = base
    assert family in types, f"sample without TYPE: {line}"
    if types[family] == "counter":
        assert name.endswith("_total"), f"counter without _total: {line}"
    fam = families.setdefault(family, {"samples": 0, "buckets": {}, "count": {}})
    fam["samples"] += 1
    if types[family] == "histogram":
        labels = sample.split("{", 1)[1].rsplit("}", 1)[0] if "{" in sample else ""
        base_labels = ",".join(
            kv for kv in labels.split(",") if not kv.startswith("le="))
        if name.endswith("_bucket"):
            fam["buckets"].setdefault(base_labels, []).append(value)
        elif name.endswith("_count"):
            fam["count"][base_labels] = value
for family, fam in families.items():
    for labels, counts in fam["buckets"].items():
        assert counts == sorted(counts), \
            f"non-cumulative buckets for {family}{{{labels}}}: {counts}"
        assert counts[-1] == fam["count"].get(labels), \
            f"+Inf bucket != _count for {family}{{{labels}}}"
for needed in ("obiwan_site_uptime_ns", "obiwan_build_info",
               "obiwan_rmi_client_latency_ns",
               "obiwan_admin_http_requests_total",
               "obiwan_lock_wait_ns", "obiwan_lock_hold_ns",
               "obiwan_lock_acquisitions_total", "obiwan_queue_depth",
               "obiwan_admin_http_active", "obiwan_process_rss_bytes",
               "obiwan_process_threads"):
    assert needed in types, f"missing metric family {needed}"
assert types["obiwan_rmi_client_latency_ns"] == "histogram"
assert types["obiwan_lock_wait_ns"] == "histogram"
assert any(kind == "histogram" for kind in types.values())

with open(sys.argv[2]) as f:
    health = json.load(f)
assert health["status"] == "ok", f"unhealthy: {health}"
assert health["transport"] is True, f"transport down: {health}"
assert "stale_backlog" in health and "max_stale_backlog" in health, health
print(f"admin endpoint: exposition OK ({len(types)} families, "
      f"{sum(f['samples'] for f in families.values())} samples), healthz OK")
EOF

echo "=== CI green: release + perfbench + asan + ubsan + tsan + bench JSON + chrome trace + reconvergence + observatory + flight dump + fleet + journeys + admin + contention ==="
