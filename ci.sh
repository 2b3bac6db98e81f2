#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full workspace test suite, and
# smoke tests of the trace export, fault recovery, fleet, cluster,
# workload, adjacency-intersection, serving-daemon, ablation, perf, and
# performance-counter profile repro paths.
#
#   ./ci.sh            # everything
#   ./ci.sh quick      # everything except the ablation stage
#   ./ci.sh <stage>    # one stage: fmt | clippy | doc | test | trace | faults | fleet | cluster | workloads | intersect | serve | ablation | perf | profile
#
# Each stage's wall-clock time is reported in a summary at the end.
#
# trigon-bench is excluded from the test step (its Criterion benches are
# exercised by `cargo bench` instead).
set -euo pipefail
cd "$(dirname "$0")"

# Scratch space for smoke-test artifacts, removed on every exit path
# (the old inline `mktemp -d` leaked its directory on failure).
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

mode="${1:-all}"
timing_names=()
timing_secs=()

# run_stage NAME FUNC — runs FUNC when selected, recording wall-clock.
run_stage() {
    local name="$1" func="$2"
    case "$mode" in
        all | quick) ;;
        "$name") ;;
        *) return 0 ;;
    esac
    echo "== $name =="
    local start end
    start=$SECONDS
    "$func"
    end=$SECONDS
    timing_names+=("$name")
    timing_secs+=("$((end - start))")
}

stage_fmt() {
    cargo fmt --all --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

stage_test() {
    cargo test --workspace --exclude trigon-bench
}

stage_trace() {
    local trace_out="$scratch/trace.json"
    cargo run --release --quiet -- run --gen gnp --n 500 --method gpu-opt \
        --trace "$trace_out" --verbose > /dev/null
    grep -q '"traceEvents"' "$trace_out"
    grep -q '"SM 0"' "$trace_out"
}

# Fault-recovery smoke test: a run with injected transfer and ECC faults
# must exit 0 and report the exact count of an unfaulted serial run.
stage_faults() {
    local serial faulted
    serial="$(cargo run --release --quiet -- run --gen gnp --n 500 \
        --method cpu-fast | awk '/^triangles/ {print $2}')"
    faulted="$(cargo run --release --quiet -- run --gen gnp --n 500 \
        --method gpu-opt --faults xfer:1,ecc:2 --fault-seed 7 \
        | awk '/^triangles/ {print $2}')"
    if [ -z "$serial" ] || [ "$serial" != "$faulted" ]; then
        echo "fault recovery drifted: serial=$serial faulted=$faulted" >&2
        return 1
    fi
    echo "recovered count $faulted matches serial"
}

# Multi-device fleet smoke test: a heterogeneous fleet run and a fleet
# run losing 2 of 4 devices must both exit 0 and report the exact count
# of a serial CPU run (the sharded reduction is bit-identical by design).
stage_fleet() {
    local serial fleet lossy
    serial="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method cpu-fast | awk '/^triangles/ {print $2}')"
    fleet="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method gpu-opt --devices 2xC2050,1xC1060 \
        | awk '/^triangles/ {print $2}')"
    lossy="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method gpu-opt --devices 4xC2050 --device-loss 2 --fault-seed 7 \
        | awk '/^triangles/ {print $2}')"
    if [ -z "$serial" ] || [ "$serial" != "$fleet" ] || [ "$serial" != "$lossy" ]; then
        echo "fleet counts drifted: serial=$serial fleet=$fleet lossy=$lossy" >&2
        return 1
    fi
    echo "fleet count $fleet matches serial (with and without device loss)"
}

# Simulated cluster smoke tests: a one-node cluster must report exactly
# the numbers of the equivalent plain fleet run (the one-node path
# delegates verbatim; full byte-identity of trace and report is pinned
# by tests/prop_cluster.rs, which this stage also runs in full mode), a
# 4-node run with node loss and injected chunk faults must report the
# exact count of a serial CPU run, and the 64-node scaling sweep must
# write bench_out/BENCH_cluster.json with its bench_meta provenance
# header.
stage_cluster() {
    local plain_fleet one_node serial faulted line
    plain_fleet="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method gpu-opt --devices 2xC2050 \
        | awk '/^(triangles|tests|kernel|makespan|layout)/')"
    one_node="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method gpu-opt --cluster '1x(2xC2050)' \
        | awk '/^(triangles|tests|kernel|makespan|layout)/')"
    if [ -z "$plain_fleet" ] || [ "$plain_fleet" != "$one_node" ]; then
        echo "one-node cluster diverged from the plain fleet run:" >&2
        diff <(echo "$plain_fleet") <(echo "$one_node") >&2 || true
        return 1
    fi
    serial="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method cpu-fast | awk '/^triangles/ {print $2}')"
    faulted="$(cargo run --release --quiet -- run --gen ring --n 1000 \
        --method gpu-opt --cluster 4xC2050 --node-loss 1 \
        --faults xfer:1,ecc:1 --fault-seed 7 \
        | awk '/^triangles/ {print $2}')"
    if [ -z "$serial" ] || [ "$serial" != "$faulted" ]; then
        echo "faulted cluster count drifted: serial=$serial cluster=$faulted" >&2
        return 1
    fi
    echo "cluster count $faulted matches serial (node loss + chunk faults)"
    cargo test --release --quiet --test prop_cluster
    cargo run --release --quiet -p trigon-bench --bin repro -- cluster > /dev/null
    test -s bench_out/BENCH_cluster.json
    local key
    for key in '"schema_version": 1' '"bench_meta"' '"strong"' '"weak"' \
        '"uplink_cycles"' '"ghost_cycles"'; do
        grep -q "$key" bench_out/BENCH_cluster.json
    done
}

# Workload smoke tests: every ChunkKernel workload runs through the CLI,
# kcount at k = 3 reproduces the triangle count, clustering is unchanged
# by executor choice and by injected faults, the thread width changes no
# line of a host fold's or the hybrid count's output but the wall clock,
# and the repro sweep writes bench_out/BENCH_workloads.json.
stage_workloads() {
    local tri k3 clus_cpu clus_gpu clus_faulted truss enum_line args width
    for args in "--method cpu-fast --workload ktruss --k 4" "--method cpu-intersect" \
        "--method hybrid"; do
        for width in 1 2; do
            # shellcheck disable=SC2086 # $args is a list of flags
            cargo run --release --quiet -- run --gen ring --n 1000 $args \
                --threads "$width" | grep -v '^wall' > "$scratch/width$width"
        done
        if ! diff "$scratch/width1" "$scratch/width2"; then
            echo "thread width changed 'run --gen ring --n 1000 $args'" >&2
            return 1
        fi
    done
    tri="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --method gpu-opt | awk '/^triangles/ {print $2}')"
    k3="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload kcount --k 3 | awk '/^cliques/ {print $2}')"
    if [ -z "$tri" ] || [ "$tri" != "$k3" ]; then
        echo "kcount k=3 drifted from triangles: tri=$tri k3=$k3" >&2
        return 1
    fi
    clus_cpu="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload clustering --method cpu-fast | awk '/^mean cc/ {print $3}')"
    clus_gpu="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload clustering --method gpu-opt | awk '/^mean cc/ {print $3}')"
    clus_faulted="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload clustering --method gpu-opt --faults xfer:1,ecc:2 \
        --fault-seed 7 | awk '/^mean cc/ {print $3}')"
    if [ -z "$clus_cpu" ] || [ "$clus_cpu" != "$clus_gpu" ] \
        || [ "$clus_cpu" != "$clus_faulted" ]; then
        echo "clustering drifted: cpu=$clus_cpu gpu=$clus_gpu faulted=$clus_faulted" >&2
        return 1
    fi
    truss="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload ktruss --k 4 | awk '/^truss/ {print $2}')"
    enum_line="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload enumerate | awk '/^enumerated/ {print $2}')"
    if [ -z "$truss" ] || [ "$enum_line" != "$tri" ]; then
        echo "workload smoke failed: truss=$truss enumerated=$enum_line tri=$tri" >&2
        return 1
    fi
    echo "workloads agree: triangles=$tri truss(k=4)=$truss clustering=$clus_cpu"
    cargo run --release --quiet -p trigon-bench --bin repro -- workloads > /dev/null
    test -s bench_out/BENCH_workloads.json
    local key
    for key in '"schema_version": 1' '"workload": "ktruss"' '"workload": "clustering"' \
        '"checksum"' '"mean_clustering"'; do
        grep -q "$key" bench_out/BENCH_workloads.json
    done
}

# Intersection smoke test: the degree-ordered adjacency-intersection
# backends (host and simulated-device) must report the exact count of
# the combination fast path through the CLI, the simulated variant must
# survive a fault plan bit-identically, and the dedicated property suite
# must pass.
stage_intersect() {
    local comb cpu gpu faulted
    comb="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --method cpu-fast | awk '/^triangles/ {print $2}')"
    cpu="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --workload triangles --method cpu_intersect \
        | awk '/^triangles/ {print $2}')"
    gpu="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --method gpu-intersect | awk '/^triangles/ {print $2}')"
    faulted="$(cargo run --release --quiet -- run --gen gnp --n 400 \
        --method gpu-intersect --faults xfer:1,ecc:1 --fault-seed 7 \
        | awk '/^triangles/ {print $2}')"
    if [ -z "$comb" ] || [ "$comb" != "$cpu" ] || [ "$comb" != "$gpu" ] \
        || [ "$comb" != "$faulted" ]; then
        echo "intersection drifted: comb=$comb cpu=$cpu gpu=$gpu faulted=$faulted" >&2
        return 1
    fi
    echo "intersection count $cpu matches combination (host, device, faulted)"
    cargo test --release --quiet --test prop_intersect
}

# Serving-daemon smoke test over a stdio pipe: load an R-MAT graph,
# query it twice (the second answer must come from the warm result
# cache with the same count), load a grid whose S-UTM footprint
# overflows the C2050 so the Eqs. 1-2 admission test rejects the query
# with code 5, and check the report op's admission ledger. The
# cache-transparency property suite (tests/prop_serve.rs), the TCP
# end-to-end tests (persistent-connection latency, descriptor
# exhaustion) and the benchmark package's tests, which also prove the
# benchmark still builds against the serving API, then run.
stage_serve() {
    local out="$scratch/serve_out"
    {
        echo '{"op":"load","name":"r","gen":"rmat","n":600,"seed":7}'
        echo '{"op":"query","graph":"r","workload":"triangles","method":"gpu-opt"}'
        echo '{"op":"query","graph":"r","workload":"triangles","method":"gpu-opt"}'
        echo '{"op":"load","name":"big","gen":"grid","n":262144,"seed":1}'
        echo '{"op":"query","graph":"big","workload":"triangles","method":"gpu-opt"}'
        echo '{"op":"report"}'
        echo '{"op":"shutdown"}'
    } | cargo run --release --quiet -- serve --ndjson --device c2050 > "$out"
    local cold warm cold_count warm_count
    cold="$(sed -n 2p "$out")"
    warm="$(sed -n 3p "$out")"
    echo "$cold" | grep -q '"cache":"miss"'
    echo "$warm" | grep -q '"cache":"hit"'
    cold_count="$(echo "$cold" | grep -o '"count":[0-9]*' | head -1)"
    warm_count="$(echo "$warm" | grep -o '"count":[0-9]*' | head -1)"
    if [ -z "$cold_count" ] || [ "$cold_count" != "$warm_count" ]; then
        echo "warm replay drifted: cold=$cold_count warm=$warm_count" >&2
        return 1
    fi
    sed -n 5p "$out" | grep -q '"ok":false'
    sed -n 5p "$out" | grep -q '"code":5'
    sed -n 6p "$out" | grep -q '"rejected":1'
    sed -n 6p "$out" | grep -q '"result_hits":1'
    echo "daemon smoke: warm ${warm_count#*:} matches cold, oversized grid rejected"
    cargo test --release --quiet --test prop_serve
    cargo test --release --quiet --test cli serve_
    cargo test --release --quiet --manifest-path benchmark/Cargo.toml
}

# Ablation sweep (combination vs intersection, layout x schedule) with
# CSV output — the same command the Actions full gate runs, so the two
# can never drift.
stage_ablation() {
    if [ "$mode" = "quick" ]; then
        echo "skipped in quick mode (runs in the full gate)"
        return 0
    fi
    cargo run --release --quiet -p trigon-bench --bin repro -- ablation --csv bench_out
    test -s bench_out/ablation_layout_schedule.csv
    test -s bench_out/ablation_strategies.csv
}

# Measures real wall-clock of the counting strategies, asserts parallel
# counts are bit-identical to the serial ones (inside run_perf), and
# enforces the committed normalized regression envelope: >25 % slowdown
# of the 1-thread fig10 run vs crates/bench/baselines/perf_baseline.json
# fails. Export TRIGON_PERF_SKIP_REGRESSION=1 to measure without gating
# (e.g. on a heavily loaded machine).
stage_perf() {
    cargo run --release --quiet -p trigon-bench --bin repro -- perf --quick \
        --baseline crates/bench/baselines/perf_baseline.json
    test -s bench_out/BENCH_perf.json
    local key
    for key in '"schema_version": 1' '"fig10"' '"fig11"' '"overhead"' '"thread_sweep"'; do
        grep -q "$key" bench_out/BENCH_perf.json
    done
}

# Simulated performance-counter gate. Unlike perf, the counters are
# priced deterministically at simulate time, so the baseline check is
# EXACT: any divergence from
# crates/bench/baselines/profile_baseline.json — one transaction, one
# cycle — fails. Bless an intended cost-model change by deleting the
# baseline, re-running this stage, and committing the rewritten file.
# Export TRIGON_PROFILE_SKIP_REGRESSION=1 to sweep without gating.
# The CLI smoke run also checks --profile writes a counter document and
# --verbose prints the hotspot table.
stage_profile() {
    local profile_out="$scratch/profile.json"
    cargo run --release --quiet -- run --gen gnp --n 500 --method gpu-opt \
        --profile "$profile_out" --verbose > "$scratch/profile_stdout"
    grep -q '"transactions"' "$profile_out"
    grep -q '"roofline"' "$profile_out"
    grep -q 'hottest ALS' "$scratch/profile_stdout"
    cargo run --release --quiet -p trigon-bench --bin repro -- profile \
        --baseline crates/bench/baselines/profile_baseline.json
    test -s bench_out/BENCH_profile.json
    local key
    for key in '"schema_version": 1' '"bench_meta"' '"coalescing_efficiency"' \
        '"min_transactions"' '"bound"'; do
        grep -q "$key" bench_out/BENCH_profile.json
    done
}

case "$mode" in
    all | quick | fmt | clippy | doc | test | trace | faults | fleet | cluster | workloads | intersect | serve | ablation | perf | profile) ;;
    *)
        echo "usage: ./ci.sh [quick|fmt|clippy|doc|test|trace|faults|fleet|cluster|workloads|intersect|serve|ablation|perf|profile]" >&2
        exit 2
        ;;
esac

run_stage fmt stage_fmt
run_stage clippy stage_clippy
run_stage doc stage_doc
run_stage test stage_test
run_stage trace stage_trace
run_stage faults stage_faults
run_stage fleet stage_fleet
run_stage cluster stage_cluster
run_stage workloads stage_workloads
run_stage intersect stage_intersect
run_stage serve stage_serve
run_stage ablation stage_ablation
run_stage perf stage_perf
run_stage profile stage_profile

echo
echo "stage timing:"
for i in "${!timing_names[@]}"; do
    printf '  %-8s %3ds\n' "${timing_names[$i]}" "${timing_secs[$i]}"
done
echo "CI OK"
