#!/usr/bin/env bash
# CI entry point: build, full test suite, and a fixed-range chaos smoke
# sweep. Everything runs offline — dependencies are vendored under
# `vendor/` and resolved through the workspace, so no network is needed.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# Each stage prints its header, and the next header (or the end) prints
# how many seconds it took.
stage_name=""
stage() {
    if [ -n "$stage_name" ]; then
        echo "-- $stage_name: $((SECONDS - stage_started)) s"
    fi
    stage_name=$1
    stage_started=$SECONDS
    if [ -n "$stage_name" ]; then
        echo "== $stage_name =="
    fi
}

stage "lint (clippy, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings
# One build of every crate: a switch is a runtime option or a cfg, never a
# cargo feature that some dependency edge turns on (DESIGN.md §14).
if grep -n '^\[features\]' crates/*/Cargo.toml; then echo "no cargo features"; exit 1; fi
# One hasher: maps keyed by values the program makes itself (tags, ranks,
# event times) hash with desim::FixedState, defined once.
if grep -rnE 'impl (std::hash::)?Hasher for' crates/*/src | grep -v '^crates/desim/src/hash.rs:'; then
    echo "one hasher: use desim::FixedState"; exit 1
fi
# One wait protocol: a rank thread of either real backend sleeps on a
# futex bell (native::sync::futex::Bell, DESIGN.md §13), so no condition
# variable may come back into the native crate outside its test modules.
for f in crates/native/src/*.rs; do
    if sed '/^#\[cfg(test)\]$/,$d' "$f" | grep -n 'Condvar'; then
        echo "one wait protocol: no Condvar in native ($f)"; exit 1
    fi
done

stage "docs (rustdoc, warnings are errors)"
# Broken or ambiguous intra-doc links are how a deleted or renamed public
# item goes unnoticed in the prose that points at it.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

stage "format check"
cargo fmt --check

stage "build (release)"
cargo build --release --offline
# benchmark/ is frozen outside [benchmark] issues, implements `Transport`
# itself (src/traced.rs) and calls the mailbox, frame and VSR layers
# directly (src/probes.rs), so a signature drift in the crates breaks its
# build: find that here, compile only, not at the benchmark smoke near
# the end. run.sh builds into the same directory, so the smoke reuses
# this build. --locked: benchmark/Cargo.lock is frozen with it, so a
# manifest edit that would rewrite the lock fails here.
CARGO_TARGET_DIR=benchmark/target cargo build --release --offline --locked \
    --manifest-path benchmark/Cargo.toml

stage "test suite"
cargo test -q --offline

stage "chaos smoke (25 seeds, fixed range, parallel sweep)"
# A deterministic subset of the default 250-seed sweep; the fixed range
# keeps the smoke run reproducible and fast, and SWEEP_JOBS exercises the
# parallel sweep dispatcher (fingerprints are byte-identical at any job
# count). See crates/integration/tests/chaos.rs and DESIGN.md §8, §10.
CHAOS_SEED_START=0 CHAOS_SEEDS=25 SWEEP_JOBS="${SWEEP_JOBS:-4}" \
    cargo test -q --offline -p integration --test chaos

stage "native backend smoke (quickstart + fig5-small on OS threads)"
# The same portable programs on the native threaded backend, compared
# against the simulator's per-consumer payload fingerprints. Real threads
# can deadlock rather than fail, so bound each run with a wall-clock
# timeout. See DESIGN.md §11.
timeout 120 cargo run --release --offline -q -p integration \
    --example quickstart_native -- --backend both
timeout 180 cargo test -q --release --offline -p integration \
    --test backend_equivalence

stage "socket backend smoke (multi-process equivalence over shared-memory rings)"
# The same portable programs again, this time with one OS *process* per
# rank and every payload crossing the Wire codec through a shared-memory
# ring per link, and every wake-up through a futex doorbell in a shared
# world page (DESIGN.md §16). backend_equivalence certifies the socket
# fingerprints against sim and native; the socket crate's own tests pin
# progress wherever a rank blocks (floods, frames larger than a link's
# ring both ways at once, close barrier, a reader that dies while its
# writer waits for room, a half frame on a live rank, a dial that wakes
# a rank with no links, a deadline on such a rank), the ring's byte
# stream under hostile publishes, and one thread per rank process; recv_deadline_semantics
# pins the half-read-frame and absolute-deadline contracts; the quickstart run
# exercises the launcher + merged wall-clock trace end to end. Process
# worlds can wedge rather than fail, so everything is timeout-bounded.
# A rank process runs one thread, which reads its own links wherever it
# waits (DESIGN.md §16.3): no reader, acceptor or writer thread may come
# back beside it.
if grep -rn 'thread::spawn' crates/socket/src; then echo "no threads in socket ranks"; exit 1; fi
# Nor may a poll come back: a rank sleeps on its futex doorbell and is
# woken through shared memory, so past the preamble it makes no socket
# call per message or per wake. strace is not on every host, and
# /proc/<pid>/io does not count socket send/recv, so this grep is the
# structural check.
if grep -rnE 'poll\(|POLLIN' crates/socket/src; then echo "no poll in socket ranks"; exit 1; fi
# A socket rank's thread is the only writer of its own mail, so it owns a
# bare single-threaded `Matcher` and decodes the frame a receive takes
# where it lies in its link's buffer: no multi-producer `Mailbox`, with its
# staging nodes and atomics, may come back into a rank. Test modules are
# left out: they feed a `Mailbox` as the reference the receive must match.
for f in crates/socket/src/*.rs; do
    if sed '/^#\[cfg(test)\]$/,$d' "$f" | grep -n 'Mailbox::new'; then
        echo "no Mailbox in socket ranks ($f)"; exit 1
    fi
done
timeout 300 cargo test -q --release --offline -p socket
timeout 300 cargo test -q --release --offline -p integration \
    --test backend_equivalence socket_
timeout 300 cargo test -q --release --offline -p integration \
    --test recv_deadline_semantics
timeout 120 cargo run --release --offline -q -p integration \
    --example quickstart_native -- --backend socket \
    --trace target/quickstart_socket.trace.json

stage "replica smoke (VSR failover: sim kills + native + 8-process socket)"
# The viewstamped-replication subsystem (DESIGN.md §17): protocol unit
# tests, simulator kills at exact element cursors, a native-thread
# abandonment run and the 8-process socket abort/failover test, plus a
# consumer-kill slice of the chaos sweep (primary element-kills, standby
# kills, and the pinned unreplicated terminate-and-account contract).
# Failover paths wedge rather than fail when broken, so everything is
# timeout-bounded. See crates/replica and DESIGN.md §17.
timeout 300 cargo test -q --release --offline -p replica
# The `replicated` filter selects exactly the consumer-kill tests
# (including the *un*replicated terminate-and-account regression).
CHAOS_SEED_START=0 CHAOS_SEEDS=25 SWEEP_JOBS="${SWEEP_JOBS:-4}" \
    timeout 600 cargo test -q --release --offline -p integration \
    --test chaos replicated

stage "streamprof smoke (chrome traces + golden byte-compare)"
# fig2 rendered through the streamprof adapters (ASCII Gantt must stay
# byte-identical to the pre-streamprof output) plus Chrome-trace export,
# written aside and compared with the committed results/fig2_*: a
# simulated run is deterministic, so any difference is drift. The golden
# test byte-compares the sim quickstart trace and structurally validates
# the native one. See DESIGN.md §12.
RESULTS_DIR=target/ci_results cargo run --release --offline -q -p bench-harness --bin fig2 -- \
    --chrome-trace > /dev/null
for f in fig2_reference.csv fig2_reference.trace.json fig2_decoupled.csv \
    fig2_decoupled.trace.json; do
    cmp "target/ci_results/$f" "results/$f"
done
timeout 180 cargo test -q --release --offline -p integration \
    --test streamprof_trace

stage "examples over apps, and drift gates on the committed sim results"
# quickstart is Listing 1 as every backend runs it (apps::portable);
# alpha_tuning sweeps and fits the same program (about 1 s in release);
# the other four examples run the figure apps and the static lint (under
# half a second each in release).
# A simulated run is deterministic, so every committed simulator result
# that regenerates in seconds is regenerated into target/ci_results and
# compared byte for byte: the ablations and fig3 whole, fig5-8 up to 64
# ranks as the first rows of the committed CSVs (a failed write exits
# non-zero, so no stale file from an earlier run is compared). A change
# meant to move them regenerates the committed files over their full row
# range (EXPERIMENTS.md).
timeout 120 cargo run --release --offline -q -p integration --example quickstart > /dev/null
timeout 120 cargo run --release --offline -q -p integration --example alpha_tuning > /dev/null
for example in cg_solver mapreduce_wordcount particle_pipeline streamcheck_fig5; do
    timeout 120 cargo run --release --offline -q -p integration --example "$example" > /dev/null
done
for bin in ablation fig3; do
    RESULTS_DIR=target/ci_results timeout 300 \
        cargo run --release --offline -q -p bench-harness --bin "$bin" > /dev/null
done
for f in ablation_granularity ablation_alpha ablation_credits fig3_schedules; do
    cmp "target/ci_results/$f.csv" "results/$f.csv"
    cmp "target/ci_results/$f.svg" "results/$f.svg"
done
for fig in fig5:fig5_mapreduce fig6:fig6_cg fig7:fig7_pic_comm fig8:fig8_pic_io; do
    csv="${fig#*:}.csv"
    MAX_PROCS=64 RESULTS_DIR=target/ci_results timeout 300 \
        cargo run --release --offline -q -p bench-harness --bin "${fig%%:*}" > /dev/null
    head -n "$(wc -l < "target/ci_results/$csv")" "results/$csv" | cmp "target/ci_results/$csv" -
done

stage "schedcheck model checking (bounded exhaustive interleavings)"
# The native backend's lock-free core — mailbox push/drain, the futex
# bell's park, typed values passed over on the way to a directed match,
# deadline receives, batched credit returns, a small tree collective —
# and the socket backend's shared-memory ring and futex doorbells (publish and claim against park and re-check, restart at the
# front, ring-full waits both ways, a dial racing a park, a death mark
# racing a room wait, a frame waited for in the ring) re-compiled against schedcheck's shadow primitives
# (--cfg schedcheck switches the native::sync facade) and explored
# exhaustively up to a preemption bound: every clean model must cover
# >= 1,000 distinct schedules with zero SC201-SC203 violations, and the
# seeded known-bad tests (including PR 6's real lost-wakeup bug,
# reintroduced locally) must be caught with replayable traces. The
# separate target dir keeps the cfg'd build from thrashing the normal
# cache. See DESIGN.md §14. Every target of the two crates that use the
# facade is built under the cfg first, models or not, so a test that
# names std's type where the facade's is meant fails here.
RUSTFLAGS='--cfg schedcheck' CARGO_TARGET_DIR=target/schedcheck \
    cargo build -q --release --offline -p native -p socket --all-targets
SCHEDCHECK_PREEMPTIONS=2 RUSTFLAGS='--cfg schedcheck' \
    CARGO_TARGET_DIR=target/schedcheck \
    timeout 600 cargo test -q --release --offline -p schedcheck
SCHEDCHECK_PREEMPTIONS=2 RUSTFLAGS='--cfg schedcheck' \
    CARGO_TARGET_DIR=target/schedcheck \
    timeout 600 cargo test -q --release --offline -p native --test schedcheck_models
SCHEDCHECK_PREEMPTIONS=2 RUSTFLAGS='--cfg schedcheck' CARGO_TARGET_DIR=target/schedcheck timeout 600 cargo test -q --release --offline -p socket --test schedcheck_ring

stage "native stress battery (reduced iterations, watchdog-bounded)"
# The concurrency battery behind the lock-free mailbox and the tree
# collectives: MPSC hammering, lost-wakeup polling races, deadline
# recompute under spurious wakes, a credit-window audit at several ack
# batch sizes, and randomized interleavings. NATIVE_STRESS_ITERS=1 keeps
# CI fast; hang-prone tests abort themselves via an internal watchdog,
# the timeout is the backstop. See DESIGN.md §13.
NATIVE_STRESS_ITERS=1 timeout 300 cargo test -q --release --offline \
    -p native --test native_stress

stage "benchmark smoke (benchmark/ builds, runs and checks its outputs)"
# benchmark/ is a cargo workspace of its own that path-depends on the
# crates, so nothing above notices a crate change that breaks its build,
# its output checks (digests, golden.json, exact counts) or a probe. The
# quick mode is a smoke, not a measurement: 1 launch x 8 slices per
# workload, untraced then traced (~15 s after the one release build).
# Numbers are read from full runs only — results/BENCH_stream.json.
timeout 900 bash benchmark/run.sh --quick > /dev/null
timeout 900 bash benchmark/run.sh --quick --trace 1 > /dev/null
# Its unit tests, minus one: frame_io_calls_are_four_writes_and_two_reads
# pins the call counts of the frame layer as it was before ISSUE 16 (one
# write per frame, buffered reads) and says so in its own comment; a PR
# that claims a gain may not edit benchmark/, so the next [benchmark]
# issue re-pins it to (1, 2) and removes this skip.
timeout 900 cargo test -q --release --offline --manifest-path benchmark/Cargo.toml \
    -- --skip frame_io_calls_are_four_writes_and_two_reads

stage "extended-scale fig5 smoke (tree aggregation vs flat incast)"
# One point of the FIG5_EXTENDED sweep (coarse granularity, 1,024 ranks,
# fixed seed) — enough to prove the aggregated master drain collapses
# versus the flat pipeline without paying for the full 16K sweep — and
# its rows of results/fig5_extended.csv and fig5_master_drain.csv must
# come back byte for byte. Time-boxed because a broken hand-off wedges
# rather than fails; RESULTS_DIR keeps the partial sweep away from the
# committed artifacts. See DESIGN.md §15.
FIG5_EXTENDED=1 MAX_PROCS=1024 RESULTS_DIR=target/ci_results timeout 300 \
    cargo run --release --offline -q -p bench-harness --bin fig5
for csv in fig5_extended.csv fig5_master_drain.csv; do
    head -n "$(wc -l < "target/ci_results/$csv")" "results/$csv" | cmp "target/ci_results/$csv" -
done

stage ""
echo "== ci.sh: all green =="
