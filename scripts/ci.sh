#!/usr/bin/env bash
# Tier-1 gate, organized as named stages with per-stage timing and a summary
# table. Run before every merge. Works offline (all deps are vendored or std).
#
#   scripts/ci.sh                      # run every stage in order
#   CARVE_CI_STAGE=chaos scripts/ci.sh # run one stage by name
#
# Stages:
#   fmt                cargo fmt --check
#   build              release build of the whole workspace
#   test-par1          release tests pinned to 1 traversal thread
#   test-par4          release tests forked to 4 traversal threads
#   test-debug         debug-profile tests (catches debug_assert!-only bugs)
#   chaos              release tests under delay-only ambient chaos
#   chaos-lossy        release tests under drop/corrupt chaos + lane retry
#   adapt-determinism  adapt_trace bitwise-diffed over threads {1,4} x
#                      {clean, lossy chaos} (DESIGN.md §7)
#   leaf-kernel-determinism
#                      matvec_digest (1-rank matvec, 2-rank overlapped
#                      matvec, assembled CSR, hanging-chain mesh; each
#                      row cold and warm, an assemble row's warm pass
#                      through its matvec row's workspace, at panel
#                      widths 1 and 8, in one process)
#                      byte-compared over threads {1,4} and against the
#                      committed results/matvec_digest.txt: every panel
#                      width is bitwise identical in every use of the
#                      traversal sweep, and a changed summation order is
#                      an explicit re-record (DESIGN.md §6h)
#   mesh-digest        dist_mesh_digest (every DistMesh::finish field, per
#                      rank, over meshes x ranks {1,2,3,4,7} x curves x
#                      orders, two adapt steps that end in finish, plus
#                      empty ranks) byte-compared with
#                      the committed results/dist_mesh_digest.txt: the ghost
#                      layer, node set, ownership and plans are a pure
#                      function of the owned leaves and the splitters
#   clippy             clippy with warnings denied
#   doc                rustdoc with warnings denied
#   perf-gate          scripts/perf_gate.py: benchmark/ as 3 alternating
#                      HEAD~1/working-tree pairs per workload; outputs,
#                      failures and the BENCHMARK.json bounds (≈ 11 min)
#   serve-gate         bench_serve request replay: latency floors (cache
#                      hit ≥5× faster than miss, block-CG ≤1/3 the
#                      rounds) plus the latency-stripped report
#                      byte-compared over threads {1,4} x {clean, lossy
#                      chaos} (DESIGN.md §6i)
#   scaling-gate       repro_scaling --check vs the committed scaling
#                      artifact (per-rank replay structure at 256..28672
#                      ranks, digests, reference-model efficiencies)
#
# No stage may change a tracked file: the run fails if `git diff HEAD` differs
# before and after the stages.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(fmt build test-par1 test-par4 test-debug chaos chaos-lossy
        adapt-determinism leaf-kernel-determinism mesh-digest clippy doc
        perf-gate serve-gate scaling-gate)

run_stage() {
  case "$1" in
    fmt)
      cargo fmt --all --check
      ;;
    build)
      cargo build --release --workspace
      ;;
    # Traversal results must be independent of the intra-rank thread budget
    # (bitwise, see DESIGN.md §6d) — run the suite pinned and forked.
    test-par1)
      CARVE_PAR_THREADS=1 cargo test -q --release --workspace
      ;;
    test-par4)
      CARVE_PAR_THREADS=4 cargo test -q --release --workspace
      ;;
    test-debug)
      cargo test -q --workspace
      ;;
    # Ambient chaos: delay-only fault injection on every simulated-MPI run
    # (CARVE_CHAOS seeds env_chaos_plan). Message counts and results must be
    # schedule-independent, so the whole suite must stay green under it.
    chaos)
      CARVE_CHAOS=29 cargo test -q --release --workspace
      ;;
    # Lossy chaos: same seed, but the exchange lanes additionally drop and
    # corrupt frames; the retry/backoff protocol must recover every loss so
    # the suite stays green and bitwise identical to the fault-free run. The
    # short retry base keeps recovery snappy under test load.
    chaos-lossy)
      CARVE_CHAOS=29:lossy CARVE_RETRY_BASE=0.01 cargo test -q --release --workspace
      ;;
    # The dynamic-AMR loop must produce one serialized carve-adapt-trace-v1
    # document — element counts, DOF counts, leaf/field hashes — no matter
    # the thread budget or chaos schedule. Diff the matrix bitwise.
    adapt-determinism)
      cargo build --release -q -p carve-bench --bin adapt_trace
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      for threads in 1 4; do
        CARVE_PAR_THREADS=$threads \
          ./target/release/adapt_trace "$tmp/t${threads}.json"
        CARVE_PAR_THREADS=$threads CARVE_CHAOS=29:lossy CARVE_RETRY_BASE=0.01 \
          ./target/release/adapt_trace "$tmp/t${threads}-lossy.json"
      done
      for f in t4 t1-lossy t4-lossy; do
        cmp "$tmp/t1.json" "$tmp/$f.json" \
          || { echo "ci: adapt trace t1 vs $f differs" >&2; return 1; }
      done
      echo "ci: adapt trace bitwise-identical over threads {1,4} x {clean,lossy}"
      ;;
    # The SoA leaf panels (DESIGN.md §6h) and the recorded-plan replay
    # (§6d) must give the same bits at every width and thread budget, cold
    # or warm: matvec_digest digests the output bits of all three uses of
    # the traversal (1-rank matvec, 2-rank overlapped matvec, assembly),
    # each computed cold and warm (an assembly's warm pass replays the plan
    # its matvec row recorded), at panel widths 1 and 8,
    # and exits 1 naming a row that differs; the documents of the thread
    # budgets are byte-compared
    # with each other and with the committed reference, so a change of
    # accumulation order has to re-record results/matvec_digest.txt on
    # purpose.
    leaf-kernel-determinism)
      cargo build --release -q -p carve-bench --bin matvec_digest
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      for threads in 1 4; do
        CARVE_PAR_THREADS=$threads ./target/release/matvec_digest "$tmp/t${threads}.txt"
      done
      cmp "$tmp/t1.txt" "$tmp/t4.txt" \
        || { echo "ci: matvec digest t1 vs t4 differs" >&2; return 1; }
      cmp results/matvec_digest.txt "$tmp/t1.txt" \
        || { echo "ci: matvec digest differs from results/matvec_digest.txt" >&2; return 1; }
      echo "ci: matvec digest bitwise-identical over widths {1,8} x threads {1,4}, equal to results/matvec_digest.txt"
      ;;
    # Everything the distributed finish decides, digested per rank. A change
    # to how the ghost layer, the node set or the plans are computed must
    # reproduce the committed file; a change to what they are re-records it
    # on purpose.
    mesh-digest)
      cargo build --release -q -p carve-bench --bin dist_mesh_digest
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      ./target/release/dist_mesh_digest "$tmp/digest.txt"
      cmp results/dist_mesh_digest.txt "$tmp/digest.txt" \
        || { echo "ci: dist mesh digest differs from results/dist_mesh_digest.txt" >&2; return 1; }
      echo "ci: dist mesh digest equal to results/dist_mesh_digest.txt"
      ;;
    # carve-comm additionally denies unwrap/expect crate-wide (lib.rs).
    clippy)
      cargo clippy --workspace --all-targets -- -D warnings
      ;;
    doc)
      RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
      ;;
    # Its worktree and builds live under mktemp -d and target/perf-gate/.
    perf-gate)
      python3 scripts/perf_gate.py
      ;;
    # Serving engine gate (DESIGN.md §6i): one full replay enforcing the
    # hit-vs-miss latency floor and the block-CG round budget, then the
    # latency-stripped document byte-compared over threads {1,4} x
    # {clean, lossy chaos} — every request/cache/round count and the
    # solution/read digest must be a pure function of the trace.
    serve-gate)
      cargo build --release -q -p carve-bench --bin bench_serve
      local tmp
      tmp=$(mktemp -d)
      trap 'rm -rf "$tmp"' RETURN
      ./target/release/bench_serve "$tmp/full.json"
      for threads in 1 4; do
        CARVE_PAR_THREADS=$threads \
          ./target/release/bench_serve --check "$tmp/t${threads}.json"
        CARVE_PAR_THREADS=$threads CARVE_CHAOS=29:lossy CARVE_RETRY_BASE=0.01 \
          ./target/release/bench_serve --check "$tmp/t${threads}-lossy.json"
      done
      for f in t4 t1-lossy t4-lossy; do
        cmp "$tmp/t1.json" "$tmp/$f.json" \
          || { echo "ci: serve replay t1 vs $f differs" >&2; return 1; }
      done
      echo "ci: serve replay deterministic over threads {1,4} x {clean,lossy}"
      ;;
    # The committed replay-scaling artifact (newest SCALING_PR*.json) must
    # be regenerable from source, bit-for-bit in its per-rank structure:
    # any drift in partitioning, node ownership, ghost layout, neighbor
    # counts, or the pinned reference model fails the gate, as does an
    # efficiency dropping below the committed floor. Machine-independent —
    # the check never calibrates.
    scaling-gate)
      local newest
      newest=$(ls SCALING_PR*.json 2>/dev/null | sort -V | tail -n 1 || true)
      if [[ -z "$newest" ]]; then
        echo "ci: no SCALING_PR*.json artifact committed" >&2
        return 1
      fi
      cargo build --release -q -p carve-bench --bin repro_scaling
      ./target/release/repro_scaling --check "$newest"
      ;;
    *)
      echo "ci: unknown stage '$1' (known: ${STAGES[*]})" >&2
      return 2
      ;;
  esac
}

if [[ -n "${CARVE_CI_STAGE:-}" ]]; then
  selected=("$CARVE_CI_STAGE")
else
  selected=("${STAGES[@]}")
fi

# Fingerprint of every tracked file's difference from HEAD.
tracked_diff() {
  git diff HEAD --binary | git hash-object --stdin
}
tracked_before=$(tracked_diff)

summary=()
for stage in "${selected[@]}"; do
  echo "ci: ==> $stage"
  start=$SECONDS
  run_stage "$stage"
  summary+=("$(printf '%-18s %5ss  ok' "$stage" "$((SECONDS - start))")")
done

if [[ "$(tracked_diff)" != "$tracked_before" ]]; then
  echo "ci: the run changed tracked files:" >&2
  git diff HEAD --stat >&2
  exit 1
fi

echo
echo "ci: summary"
printf '  %s\n' "${summary[@]}"
echo "ci: all stages green, no tracked file changed"
