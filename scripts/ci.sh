#!/usr/bin/env bash
# CI entry point: the tier-1 build and test command, the benchmark's
# self-test, an ASan/UBSan build running the full test suite, the JSON
# benches' smokes and one second of each benchmark workload, a Debug
# build of the abort and epoch-GC differential suites, the graph tests
# and the snapshot-read sweep, the docs gate, a TSan subset, and the
# trace and audit tool round-trips. Fails on any test failure, any
# sanitizer report, any bench gate, a malformed or incomplete
# BENCH_*.json, a dangling path in the docs, or a run that changes the
# git working tree.
set -euo pipefail

cd "$(dirname "$0")/.."

# A CI run must leave the checkout as it found it: builds and bench
# outputs go to ignored directories, never over tracked files. Record the
# tree's status now and compare it at the end (skipped outside a git
# checkout).
tree_status_at_start=""
in_git_checkout=0
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  in_git_checkout=1
  tree_status_at_start="$(git status --porcelain)"
fi

# Shim gate: TryAppend is the checker's only admission path. Four names
# of the deleted isolated fast path stay only because the benchmark
# harness still reads them; nothing else in the code may name them, so
# nothing comes to depend on them before they go. (The first grep fails,
# and so does CI, once the shims are gone: delete this gate with them.)
shim_hits="$(grep -rHwE --include='*.h' --include='*.cc' --include='*.py' \
               --include='*.sh' 'TryAppendIsolated|memo_entries|fast_path' \
               src tests bench tools examples)"
shim_hits="$(grep -vxF \
  -e 'src/core/online.h:  AdmitResult TryAppendIsolated(const Operation& op) {' \
  -e 'src/core/online.h:  std::size_t memo_entries() const { return 0; }' \
  -e 'src/shard/sharded_admitter.h:    std::uint64_t memo_entries = 0;' \
  -e 'src/shard/sharded_admitter.h:    std::size_t fast_path = 0;' \
  <<< "$shim_hits" || true)"
if [[ -n "$shim_hits" ]]; then
  echo "shim-gate: a benchmark-only shim is named outside its declaration:"
  echo "$shim_hits"
  exit 1
fi

# Tier-1, exactly as ROADMAP.md states it: the plain default build
# (no preset) must compile every target and pass every test, so a
# preset-only job cannot hide a warning that stops the default build.
(cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j)

# The benchmark is its own CMake project over src/ (perfbench/). Its
# self-test builds it from the current sources and checks its gates, so
# a src/ change that breaks that build fails here, not in a benchmark run.
python3 perfbench/run.py --self-test

# The long-lived smoke's flat-RSS gate runs here, on the tier-1 build:
# under ASan (below) the free-quarantine inflates RSS, so that build
# reports it as not gated and enforces only the count-based gates
# (flat_memory, bounded_work).
(cd build && ./bench/bench_longlived --smoke)

# ASan fills every fresh heap allocation with 0xFF bytes, up to 1 MiB
# of it (its default fills only the first 4 KiB). The checker allocates
# its ancestor-row blocks uninitialized, 128 KiB each at T = 1024; a
# column read before it was written then reads 0xFFFF, above the largest
# +1-encoded index (0xFFFE), and trips PushForward's RELSER_CHECK or a
# digest gate instead of passing silently on zeroed pages.
asan_fill_options="malloc_fill_byte=255:max_malloc_fill_size=1048576"

cmake --preset asan
cmake --build --preset asan -j"$(nproc)"
ASAN_OPTIONS="$asan_fill_options" ctest --preset asan

# Fault smoke: the robustness layer under deterministic fault injection.
# Exits non-zero unless the committed prefix replays relatively
# serializably at every fault rate in the (shrunken) grid.
(cd build-asan && ./bench/bench_faults --smoke)
python3 -c "import json; json.load(open('build-asan/BENCH_faults.json'))"

# Sharded smoke: the partitioned admission subsystem over a shrunken
# shard-count x cross-shard-ratio grid. Exits non-zero unless every
# cell's committed history replays relatively serializably on a full
# single checker. (Single-shard decision identity with the serial
# abort-and-cascade policy is gated by shard_test above.)
(cd build-asan && ./bench/bench_sharded --smoke)
python3 -c "import json; json.load(open('build-asan/BENCH_sharded.json'))"

# Long-lived-transaction smoke: the spec-aware schedulers must keep
# every short-transaction-latency guarantee at each long-txn length,
# AND the admission GC phase must hold its exit-coded flat-memory
# and bounded-work gates at the smoke op count (the full 10^7-op run is
# the offline gate; same binary, same gates). Its flat-RSS gate ran on
# the tier-1 build above. The JSON must parse and report the per-wave
# admitter set-up time (reported, not gated) and the ancestor-row
# pool's high water mark, which must be positive.
(cd build-asan && ./bench/bench_longlived --smoke)
python3 - <<'EOF'
import json

gc = json.load(open("build-asan/BENCH_longlived.json"))["gc"]
for key in ("setup_ms_p50", "setup_ms_max", "hw_pool_rows"):
    assert key in gc, f"gc lacks {key}"
assert gc["hw_pool_rows"] > 0, "gc.hw_pool_rows is not positive"
EOF

# Audit smoke: the offline auditor's scale + minimization gates (a
# 100k-op committed-epoch ingest/check and a planted cycle reduced to a
# <=10-op witness whose exported trace passes the shared validator).
(cd build-asan && ./bench/bench_audit --smoke)
python3 -c "import json; json.load(open('build-asan/BENCH_audit.json'))"

# Benchmark workloads under ASan/UBSan: the benchmark's own CMake
# project, sanitized, runs one traced second of each workload, then
# five untraced seconds of sharded-snapshot (the two-shard, GC and
# snapshot-read path) at three more seeds, with the same 0xFF fill as
# the sanitized test suite. A failed RELSER_CHECK, a
# heap error or undefined behaviour on the admission, exact-abort,
# truncation or snapshot-read path aborts the run here, with its
# report, instead of as a bare SIGABRT in a benchmark run.
cmake -S perfbench -B build-perfbench-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=undefined" \
  "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined"
cmake --build build-perfbench-asan -j"$(nproc)"
for workload in relaxed-batch strict-window sharded-snapshot; do
  ASAN_OPTIONS="$asan_fill_options" ./build-perfbench-asan/perfbench \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 > /dev/null
done
for seed in 2 3 4; do
  ASAN_OPTIONS="$asan_fill_options" ./build-perfbench-asan/perfbench \
    --workload sharded-snapshot --seed "$seed" --seconds 5 --trace 0 \
    > /dev/null
done
# strict-window is the abort-heavy workload: every abort removes the
# victim and its dependents in place and re-admits the dependents, so a
# stale row, arc or frontier left by the removal fails the re-admission's
# RELSER_CHECK or reads an unwritten 0xFF column here.
for seed in 2 3 4; do
  ASAN_OPTIONS="$asan_fill_options" ./build-perfbench-asan/perfbench \
    --workload strict-window --seed "$seed" --seconds 5 --trace 0 \
    > /dev/null
done

# Debug build of the abort differential suites, the epoch-GC
# differential suite, the graph substrate's tests, the snapshot-read
# sweep, the suites of the ObjectId-indexed frontiers and the
# OpIndexer numbering (online_test, model_test, sched_test), the
# sharded admitter's suites (shard_test, sharded_differential_test,
# reshard_test) and the trace suite with its witness goldens
# (trace_test): RELSER_DCHECK is on here (RelWithDebInfo and Release
# compile it out), so RestoreRow's preconditions, the check that no
# truncated operation is fed again, ShardSlice::Project's owned-op
# check, OpIndexer's range checks, the coordinator's AddArcs endpoint
# check, the check that every arc of a refused coordinator batch is
# found again to clear its mirrored bit, the check that an implied
# B-arc's justifying predecessor holds a live row and rose in the same
# append, and the checker's other debug checks run under every abort
# and truncation of those suites and under mvcc_test's kills, cascades
# and snapshot admits.
cmake -S . -B build-debug -DCMAKE_BUILD_TYPE=Debug
cmake --build build-debug -j"$(nproc)" \
  --target rollback_differential_test fault_test differential_online_test \
           mvcc_test epoch_gc_differential_test graph_test online_test \
           model_test sched_test shard_test sharded_differential_test \
           reshard_test trace_test
(cd build-debug &&
 ctest -R '^(rollback_differential_test|fault_test|differential_online_test|mvcc_test|epoch_gc_differential_test|graph_test|online_test|model_test|sched_test|shard_test|sharded_differential_test|reshard_test|trace_test)$' \
   --output-on-failure)

# Docs gate: every relative markdown link and every repo path mentioned
# in README.md / docs/*.md must exist on disk, and so must every bare
# upper-case root document name (ROADMAP.md); a bare BENCH_*.json name
# must be a root file or a string literal in some bench/*.cc (the file
# that bench writes); every file under docs/
# must be reachable from README.md's documentation index; and every
# event kind the validator accepts (src/obs/inspect.cc) must be
# documented in the normative schema, docs/trace-format.md.
python3 - <<'EOF'
import os, re, sys

bad = []
bench_sources = "".join(
    open(os.path.join("bench", f), encoding="utf-8").read()
    for f in sorted(os.listdir("bench")) if f.endswith(".cc"))
docs = ["README.md"] + sorted(
    os.path.join("docs", f) for f in os.listdir("docs") if f.endswith(".md"))
for doc in docs:
    text = open(doc, encoding="utf-8").read()
    base = os.path.dirname(doc)
    for target in re.findall(r"\]\(([^)#]+?)(?:#[^)]*)?\)", text):
        if re.match(r"[a-z]+:", target):  # http(s), mailto, ...
            continue
        if not os.path.exists(os.path.join(base, target)):
            bad.append(f"{doc}: broken link -> {target}")
    for path in re.findall(
            r"\b(?:src|docs|tests|bench|tools|scripts|examples)/"
            r"[\w./-]+\.(?:h|cc|cpp|md|sh|json|txt)\b", text):
        if not os.path.exists(path):
            bad.append(f"{doc}: dangling path -> {path}")
    for name in re.findall(r"(?<![\w./-])[A-Z][A-Z0-9_]*\.md\b", text):
        if not os.path.exists(name):
            bad.append(f"{doc}: no root file {name}")
    for name in re.findall(r"(?<![\w./-])BENCH_\w+\.json\b", text):
        if not os.path.exists(name) and f'"{name}"' not in bench_sources:
            bad.append(f"{doc}: {name} is neither a root file nor "
                       "written by a bench/*.cc")

# Reachability: README.md must link every docs/*.md.
readme = open("README.md", encoding="utf-8").read()
linked = set(re.findall(r"\]\((docs/[^)#]+?\.md)(?:#[^)]*)?\)", readme))
for f in sorted(os.listdir("docs")):
    if f.endswith(".md") and f"docs/{f}" not in linked:
        bad.append(f"README.md: docs/{f} not linked from the docs index")

# Event-kind coverage: the kinds the validator knows are the kinds the
# normative schema documents.
inspect = open("src/obs/inspect.cc", encoding="utf-8").read()
body = re.search(
    r"bool IsKnownTraceEventKind\(std::string_view kind\) \{(.*?)\}",
    inspect, re.S)
if body is None:
    bad.append("src/obs/inspect.cc: IsKnownTraceEventKind not found")
else:
    kinds = set(re.findall(r'kind == "(\w+)"', body.group(1)))
    if not kinds:
        bad.append("src/obs/inspect.cc: no event kinds extracted")
    schema = open("docs/trace-format.md", encoding="utf-8").read()
    for kind in sorted(kinds | {"header"}):
        if f"`{kind}`" not in schema:
            bad.append(f"docs/trace-format.md: event kind `{kind}` "
                       "undocumented")

for line in bad:
    print("docs-gate:", line)
sys.exit(1 if bad else 0)
EOF

# ThreadSanitizer job: the execution substrate and the sharded
# admission front-end are the components with real cross-thread
# traffic, so the TSan build compiles just their test binaries and runs
# them under the race detector (pool churn, the fault-injection suite,
# multi-core sharded admission with cross-shard kill cascades, a
# reduced-round sharded differential sweep, the
# MVCC snapshot-read fleets whose settledness counters and commit CAS
# are the fast path's entire synchronization story, and the epoch-GC
# machinery: the settled-flag publication, the per-step collectors
# racing admission, router swaps between client phases, and a
# reduced-round GC'd-vs-unbounded differential). bench_sharded's smoke
# grid adds the multi-client fleet racing for the shard ownership tokens
# (submitters deciding inline against token holders applying the inbox
# on release), and bench_faults' smoke adds aborts, timeouts and fault
# pauses, the paths that leave work for a release re-check or a try
# after a post. mvcc_test's client fleets (ShardedFleetReadHeavySound and
# the FleetGridSoundAndAllReadersArcFree grid: four clients, up to four
# shards, snapshot reads on) race client-side classification
# (settledness counters, watermark, commit CAS) against the lock-free
# NoteCommit of committing token holders. The token hand-over cases of
# shard_test (liveness, the contended caller-runs fleet, backpressure
# under pauses, the exact inbox bound) then run 20 more times each, since
# a lost re-check shows up as a rare hang rather than a report.
# -fno-sanitize-recover turns any report into a non-zero exit.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" \
  --target exec_test fault_test shard_test \
           sharded_differential_test mvcc_test \
           epoch_test epoch_gc_differential_test reshard_test \
           bench_sharded bench_faults
(cd build-tsan &&
 RELSER_SHARD_DIFF_ROUNDS=120 \
 RELSER_EPOCH_DIFF_ROUNDS=40 \
 ctest -R '^(exec_test|fault_test|shard_test|sharded_differential_test|mvcc_test|epoch_test|epoch_gc_differential_test|reshard_test)$' \
   --output-on-failure)
(cd build-tsan &&
 ./tests/shard_test --gtest_filter='ShardedAdmitterLivenessTest.*:ShardedAdmitterTest.CallerRunsUnderContentionDecidesEveryOpOnce:ShardedAdmitterTest.BackpressureRetriesAndTimeoutsUnderFaultPlan:ShardedAdmitterTest.QueueCapacityBoundsQueuedOperationsExactly' \
   --gtest_repeat=20)
(cd build-tsan && ./bench/bench_sharded --smoke)
(cd build-tsan && ./bench/bench_faults --smoke)

# Trace smoke: export a paper-figure trace, validate it against the
# documented schema, and summarize it.
(cd build-asan &&
 ./tools/trace_inspect --demo ra ci_trace.jsonl ci_trace.chrome.json &&
 ./tools/trace_inspect --check ci_trace.jsonl &&
 ./tools/trace_inspect ci_trace.jsonl > /dev/null &&
 python3 -c "import json; json.load(open('ci_trace.chrome.json'))")

# Audit round-trip smoke: the demo exports Figure 3, audits it back to
# ACCEPT, then flips one bit to VIOLATION and minimizes the witness
# (exit 0 only if every expectation held). On top of the demo's own
# checks: the exported trace must audit to exit 0, the witness trace
# must pass the shared validator and audit to exactly exit 1 — the
# documented exit-code contract. (The exit code is captured with `||`:
# under `set -e` a bare non-zero command would end the script before
# the comparison runs.)
(cd build-asan &&
 rm -rf ci_audit && mkdir ci_audit &&
 ./tools/audit --demo ci_audit &&
 ./tools/audit ci_audit/fig3_s2.jsonl > /dev/null &&
 ./tools/trace_inspect --check ci_audit/fig3_witness.jsonl &&
 { rc=0; ./tools/audit --no-witness ci_audit/fig3_witness.jsonl \
     > /dev/null || rc=$?; [ "$rc" -eq 1 ]; } &&
 python3 -c "import json; json.load(open('ci_audit/fig3_witness.chrome.json'))")

# Over-long transaction: one operation past the checker's 65,534-op
# bound is a parse error, exit 2 with a message, not an abort.
(cd build-asan &&
 python3 -c 'print("{\"txn\": 1, \"object\": \"x\", \"rw\": \"w\"}\n" * 65535,
                   end="")' > ci_audit/overlong.jsonl &&
 { rc=0; ./tools/audit ci_audit/overlong.jsonl > /dev/null 2>&1 || rc=$?;
   [ "$rc" -eq 2 ]; })

# Streaming-audit smoke: the constant-memory segmented replay must
# reproduce the batch auditor's exit codes from a pipe — 0 on the
# accepted Figure 3 export, exactly 1 on the minimized witness.
(cd build-asan &&
 ./tools/audit --stream - < ci_audit/fig3_s2.jsonl > /dev/null &&
 { rc=0; ./tools/audit --stream --no-witness - \
     < ci_audit/fig3_witness.jsonl > /dev/null || rc=$?;
   [ "$rc" -eq 1 ]; })

if [ "$in_git_checkout" -eq 1 ] &&
   [ "$(git status --porcelain)" != "$tree_status_at_start" ]; then
  echo "ci: the run changed the working tree:" >&2
  diff <(printf '%s\n' "$tree_status_at_start") \
       <(git status --porcelain) >&2 || true
  exit 1
fi

echo "ci: all checks passed"
