# Development targets; CI (.github/workflows/ci.yml) runs `just check`.

# Build, test, lint, and static analysis — the merge gate.
check: build test lint analyze

build:
    cargo build --release --workspace

test:
    cargo test -q --workspace

lint:
    cargo clippy --workspace --all-targets -- -D warnings
    ! grep -rn '^\[\[bench\]\]' crates/*/Cargo.toml
    ! grep -rn 'FlatChunk' crates/*/src
    ! grep -rnE '(Chained|Seg|Disk)(Ranked|Stream)List' crates/*/src src tests examples
    ! grep -rn 'thread_local!' crates/*/src
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Static analysis: lock discipline, pager IO under pool guards, panics
# reachable from the query/server paths, swallowed Results. Fails on any
# finding not in analysis/baseline.toml (see DESIGN.md §7).
analyze:
    cargo run --release -q -p xk-analyze -- --baseline analysis/baseline.toml

# Regenerate the analyzer baseline after fixing or annotating findings.
# Review the diff before committing: every surviving entry is debt.
analyze-baseline:
    cargo run --release -q -p xk-analyze -- --baseline analysis/baseline.toml --write-baseline

# Loom-style model checks of the buffer pool's lock discipline (the
# vendored xk-loom stand-in; see vendor/loom/src/lib.rs).
test-loom:
    RUSTFLAGS="--cfg loom" cargo test -q -p xk-storage --test loom_pool

# Dependency hygiene. cargo-deny is not baked into the dev image, so the
# local target degrades to a notice; CI installs it and enforces.
deny:
    @if command -v cargo-deny >/dev/null 2>&1; then \
        cargo deny check; \
    else \
        echo "cargo-deny not installed; CI runs this check (see deny.toml)"; \
    fi

# The differential & concurrency suite in isolation: parallel-vs-serial
# equivalence, the sharded-pool property test, fault poisoning, and the
# storage/engine unit tests that spin up threads.
test-concurrent:
    cargo test -q --test concurrent_e2e
    cargo test -q -p xk-storage --test proptest_shards
    cargo test -q -p xk-storage --test fault_injection
    cargo test -q -p xk-storage concurrent
    cargo test -q -p xksearch query_batch

# Serve an index over HTTP (xkserve; see DESIGN.md §6).
serve db addr="127.0.0.1:8080":
    cargo run --release -p xk-server --bin xksearch -- serve {{db}} --addr {{addr}}

# The repository's benchmark and its only stopwatch: the frozen command
# of BENCHMARK.json (all four workloads, 10 s windows; every wall-clock
# or footprint number in the docs comes from here, the per-layer ones
# with `--trace 1` — see crates/xkbench/README.md). There are no
# `[[bench]]` targets; CI's clippy job refuses one.
bench-e2e:
    cargo run --release --offline --quiet -p xkbench --bin xkbench -- run

# The same at the contract-test scale (6k papers, 2 s windows).
bench-e2e-quick:
    cargo run --release --offline --quiet -p xkbench --bin xkbench -- run --quick

# A/A: two sets from one binary held against BENCHMARK.json's bounds.
bench-aa:
    cargo run --release --offline --quiet -p xkbench --bin xkbench -- aa --quick

# Regenerate the paper's evaluation artifacts into results/.
figures:
    cargo run --release -p xk-bench --bin figures -- all

# Anchored-vs-fresh B+tree probe page reads into
# results/BENCH_lookup_locality.json (pass smoke="--smoke" for the CI
# corpus).
bench-locality smoke="":
    cargo run --release -p xk-bench --bin lookup_locality -- {{smoke}}

# Both operation-count suites at the committed-baseline scale (--smoke),
# each into {{out}}/BENCH_<suite>.json in the shared xk-trial envelope
# (schema in EXPERIMENTS.md), then a schema validation pass.
bench-all out="results":
    XK_BENCH_OUT={{out}} cargo run --release -p xk-bench --bin figures -- --smoke
    XK_BENCH_OUT={{out}} cargo run --release -p xk-bench --bin lookup_locality -- --smoke
    cargo run --release -p xk-bench --bin bench_diff -- validate {{out}}

# Rerun both suites fresh and diff them against the checked-in results/
# baselines. Exits nonzero when a deterministic operation count (page
# reads, match lookups, nodes scanned) moves past the 1.25x gate, which
# is where algorithmic regressions show; the suites' smoke-scale timings
# are recorded, not gated — timing claims belong to `just bench-e2e`.
# The comparator self-test runs first: it must catch a planted 2x count
# regression before it is trusted on real data.
bench-diff:
    rm -rf target/bench_fresh
    just bench-all target/bench_fresh
    cargo run --release -p xk-bench --bin bench_diff -- diff results target/bench_fresh

# The full crash-recovery sweep: kill the engine at *every* WAL write
# and sync site, recover, differential-check against the brute-force
# oracle (CI samples the sites with XK_SOAK_SMOKE=1). On failure the
# harness prints its seed; XK_SOAK_SEED=<seed> replays the exact run.
soak:
    cargo test -q --test crash_recovery_soak
    cargo test -q --test append_fault_injection

# Mixed read/write soak: concurrent queries across all four algorithms
# racing append_subtree transactions under WAL fault injection, every
# result checked against the brute-force oracle for its commit epoch
# (full tier; CI runs the sampled tier with XK_SOAK_SMOKE=1), then the
# epoch-isolation differential: readers racing appends, seals and merges
# must answer from one whole published snapshot, never a blend.
soak-mixed:
    cargo test -q --test mixed_soak
    cargo test -q --test epoch_isolation
