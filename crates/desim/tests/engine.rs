//! Engine-level integration tests: determinism, failure handling, scale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use desim::{FaultPlan, SimConfig, SimDuration, SimTime, Simulation};
use parking_lot::Mutex;
use rand::Rng;

mod common;
use common::Queue;

#[test]
fn empty_simulation_completes_at_time_zero() {
    let sim = Simulation::new(SimConfig::default());
    let out = sim.run().unwrap();
    assert_eq!(out.end_time, SimTime::ZERO);
    assert!(out.proc_stats.is_empty());
}

#[test]
fn processes_start_at_time_zero_in_spawn_order() {
    let mut sim = Simulation::new(SimConfig::default());
    let order = Arc::new(Mutex::new(Vec::new()));
    for i in 0..5usize {
        let order = order.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            order.lock().push(i);
        });
    }
    sim.run_expect();
    assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn advance_interleaves_processes_by_virtual_time() {
    let mut sim = Simulation::new(SimConfig::default());
    let log = Arc::new(Mutex::new(Vec::new()));
    // p0 steps 3x10us, p1 steps 2x15us: interleaving must follow the clock.
    for (i, step, count) in [(0usize, 10u64, 3usize), (1, 15, 2)] {
        let log = log.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            for _ in 0..count {
                ctx.advance(SimDuration::from_micros(step));
                log.lock().push((i, ctx.now().as_nanos() / 1_000));
            }
        });
    }
    sim.run_expect();
    // At t=30 both processes have events; ties break FIFO by *schedule*
    // time, and p1 scheduled its t=30 wake-up at t=15, before p0's at t=20.
    assert_eq!(*log.lock(), vec![(0, 10), (1, 15), (0, 20), (1, 30), (0, 30)]);
}

#[test]
fn outcome_reports_busy_time_and_finish_time() {
    let mut sim = Simulation::new(SimConfig::default());
    sim.spawn("worker", |ctx| {
        ctx.advance(SimDuration::from_millis(3));
    });
    sim.spawn("idler", |_ctx| {});
    let out = sim.run_expect();
    assert_eq!(out.end_time, SimTime(3_000_000));
    assert_eq!(out.proc_stats[0].busy, SimDuration::from_millis(3));
    assert_eq!(out.proc_stats[0].finished_at, SimTime(3_000_000));
    assert_eq!(out.proc_stats[1].busy, SimDuration::ZERO);
    assert_eq!(out.proc_stats[1].finished_at, SimTime::ZERO);
}

#[test]
fn deadlock_is_detected_and_reported() {
    let mut sim = Simulation::new(SimConfig::default());
    sim.spawn("stuck", |ctx| {
        ctx.suspend("waiting for godot");
    });
    let err = sim.run().unwrap_err();
    assert!(err.0.contains("deadlock"), "got: {}", err.0);
    assert!(err.0.contains("waiting for godot"), "got: {}", err.0);
    assert!(err.0.contains("stuck"), "got: {}", err.0);
}

#[test]
fn deadlock_with_partner_processes_is_detected() {
    // Two processes each waiting for the other to wake them.
    let mut sim = Simulation::new(SimConfig::default());
    for i in 0..2 {
        sim.spawn(format!("p{i}"), |ctx| {
            ctx.suspend("mutual wait");
        });
    }
    let err = sim.run().unwrap_err();
    assert!(err.0.contains("deadlock"));
}

#[test]
fn deadlock_report_names_each_blocked_process_last_span() {
    // No trace sink records here: a span is noted in its process's context
    // and reaches the kernel when the process next blocks, so the report
    // shows the span current at each process's last block.
    let report = |lazy: bool| {
        let mut sim = Simulation::new(SimConfig { lazy_time: lazy, ..SimConfig::default() });
        sim.spawn("open", |ctx| {
            ctx.advance(SimDuration::from_millis(1));
            ctx.trace_begin("comm");
            ctx.advance(SimDuration::from_millis(2));
            ctx.suspend("waiting in comm");
        });
        sim.spawn("closed", |ctx| {
            // Blocks once inside the span (in `advance`), then after it.
            ctx.traced("comp", |ctx| ctx.advance(SimDuration::from_millis(4)));
            ctx.advance(SimDuration::from_millis(1));
            ctx.suspend("waiting after comp");
        });
        sim.spawn("spanless", |ctx| ctx.suspend("waiting"));
        sim.run().unwrap_err().0
    };
    for lazy in [false, true] {
        let err = report(lazy);
        let lines: Vec<&str> = err.lines().filter(|l| l.contains("blocked on")).collect();
        assert_eq!(
            lines,
            [
                "  pid 0 `open` blocked on: waiting in comm \
                 [last span: comm (open since 0.001000)]",
                "  pid 1 `closed` blocked on: waiting after comp \
                 [last span: comp (0.000000 .. 0.004000)]",
                "  pid 2 `spanless` blocked on: waiting [last span: none]",
            ],
            "lazy_time: {lazy}; report:\n{err}"
        );
    }
}

#[test]
fn process_panic_fails_the_simulation_with_message() {
    let mut sim = Simulation::new(SimConfig::default());
    sim.spawn("ok", |ctx| {
        ctx.advance(SimDuration::from_secs(1));
    });
    sim.spawn("bad", |ctx| {
        ctx.advance(SimDuration::from_micros(1));
        panic!("boom at {:?}", ctx.now());
    });
    let err = sim.run().unwrap_err();
    assert!(err.0.contains("boom"), "got: {}", err.0);
    assert!(err.0.contains("bad"), "got: {}", err.0);
}

#[test]
fn identical_seeds_give_identical_outcomes() {
    fn run_once(seed: u64) -> (u64, Vec<u64>) {
        let mut sim = Simulation::new(SimConfig { seed, ..SimConfig::default() });
        let ch: Queue<u64> = Queue::new();
        let samples = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8usize {
            let tx = ch.clone();
            let samples = samples.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                for _ in 0..20 {
                    let jitter: f64 = ctx.rng().gen_range(0.0..1e-4);
                    samples.lock().push((jitter * 1e9) as u64);
                    ctx.advance_secs(1e-5 + jitter);
                    tx.send(ctx, ctx.now().as_nanos());
                }
            });
        }
        let out = sim.run_expect();
        let s = samples.lock().clone();
        (out.end_time.as_nanos(), s)
    }
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(a.0, c.0, "different seed should perturb timing");
}

#[test]
fn different_pids_get_decorrelated_rngs() {
    let mut sim = Simulation::new(SimConfig::default());
    let draws = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4usize {
        let draws = draws.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            let v: u64 = ctx.rng().gen();
            draws.lock().push(v);
        });
    }
    sim.run_expect();
    let draws = draws.lock();
    let mut dedup = draws.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), draws.len(), "per-pid RNG streams collided");
}

#[test]
fn trace_records_spans_in_virtual_time() {
    let mut sim = Simulation::new(SimConfig { trace: true, ..SimConfig::default() });
    sim.spawn("p", |ctx| {
        ctx.traced("comp", |ctx| ctx.advance(SimDuration::from_micros(10)));
        ctx.traced("comm", |ctx| ctx.advance(SimDuration::from_micros(5)));
    });
    let out = sim.run_expect();
    let spans = out.trace.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].tag, "comp");
    assert_eq!(spans[0].start, SimTime::ZERO);
    assert_eq!(spans[0].end, SimTime(10_000));
    assert_eq!(spans[1].tag, "comm");
    assert_eq!(spans[1].end, SimTime(15_000));
}

#[test]
fn nested_trace_spans_close_lifo() {
    let mut sim = Simulation::new(SimConfig { trace: true, ..SimConfig::default() });
    sim.spawn("p", |ctx| {
        ctx.trace_begin("outer");
        ctx.advance(SimDuration::from_micros(1));
        ctx.trace_begin("inner");
        ctx.advance(SimDuration::from_micros(2));
        ctx.trace_end("inner");
        ctx.advance(SimDuration::from_micros(1));
        ctx.trace_end("outer");
    });
    let out = sim.run_expect();
    let total = |tag| -> u64 {
        let spans = out.trace.spans().iter().filter(|s| s.tag == tag);
        spans.map(|s| s.end.since(s.start).as_nanos()).sum()
    };
    assert_eq!(total("outer"), 4_000);
    assert_eq!(total("inner"), 2_000);
}

#[test]
fn barrier_synchronises_thousand_processes() {
    const N: usize = 1_000;
    let mut sim = Simulation::new(SimConfig::default());
    // The last arrival posts one release per waiter.
    let bar: Queue<()> = Queue::new();
    let arrived = Arc::new(AtomicU64::new(0));
    let max_t = Arc::new(AtomicU64::new(0));
    for i in 0..N {
        let (bar, arrived) = (bar.clone(), arrived.clone());
        let max_t = max_t.clone();
        sim.spawn(format!("p{i}"), move |ctx| {
            ctx.advance(SimDuration::from_nanos(i as u64));
            if arrived.fetch_add(1, Ordering::SeqCst) + 1 == N as u64 {
                for _ in 1..N {
                    bar.send(ctx, ());
                }
            } else {
                bar.recv(ctx);
            }
            max_t.fetch_max(ctx.now().as_nanos(), Ordering::SeqCst);
            assert!(ctx.now() >= SimTime(N as u64 - 1));
        });
    }
    sim.run_expect();
    assert_eq!(max_t.load(Ordering::SeqCst), N as u64 - 1);
}

/// The big one: the Fig. 5-8 experiments need 8,192 simulated ranks. Verify
/// the engine can host that many fibers and push a meaningful
/// number of events through them.
#[test]
fn scales_to_8192_processes() {
    const N: usize = 8_192;
    let mut sim = Simulation::new(SimConfig::default());
    let ch: Queue<usize> = Queue::new();
    let done = Arc::new(AtomicU64::new(0));
    for i in 0..N {
        let ch = ch.clone();
        let done = done.clone();
        sim.spawn(format!("r{i}"), move |ctx| {
            for _ in 0..4 {
                ctx.advance(SimDuration::from_micros(1));
                ch.send(ctx, i);
                // Keep the queue from growing unboundedly.
                let _ = ch.try_recv();
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    let out = sim.run_expect();
    assert_eq!(done.load(Ordering::SeqCst), N as u64);
    assert_eq!(out.end_time, SimTime(4_000));
    assert_eq!(out.proc_stats.len(), N);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[test]
fn killed_process_is_removed_and_reported() {
    let mut sim = Simulation::new(SimConfig {
        fault_plan: FaultPlan::new(1).kill(1, SimTime(5_000)),
        ..SimConfig::default()
    });
    let survivor_done = Arc::new(AtomicU64::new(0));
    {
        let survivor_done = survivor_done.clone();
        sim.spawn("survivor", move |ctx| {
            ctx.advance(SimDuration::from_micros(20));
            survivor_done.store(1, Ordering::SeqCst);
        });
    }
    let victim_progress = Arc::new(AtomicU64::new(0));
    {
        let victim_progress = victim_progress.clone();
        sim.spawn("victim", move |ctx| {
            for _ in 0..100 {
                ctx.advance(SimDuration::from_micros(1));
                victim_progress.store(ctx.now().as_nanos(), Ordering::SeqCst);
            }
        });
    }
    let out = sim.run().unwrap();
    assert_eq!(out.killed, vec![1]);
    assert!(out.proc_stats[1].killed);
    assert!(!out.proc_stats[0].killed);
    assert_eq!(survivor_done.load(Ordering::SeqCst), 1, "survivor must finish");
    // The victim stopped at the kill time, far short of its 100us of work.
    // Its step *completing* at t=5000 is pre-empted by the kill (scheduled
    // earlier), so the last completed step is the one at t=4000.
    assert_eq!(victim_progress.load(Ordering::SeqCst), 4_000);
    assert_eq!(out.end_time, SimTime(20_000));
}

#[test]
fn kill_at_time_zero_removes_process_before_it_runs() {
    let mut sim = Simulation::new(SimConfig {
        fault_plan: FaultPlan::new(1).kill(0, SimTime::ZERO),
        ..SimConfig::default()
    });
    let ran = Arc::new(AtomicU64::new(0));
    {
        let ran = ran.clone();
        sim.spawn("victim", move |ctx| {
            // The t=0 kill beats any advance; at most the first statements
            // at t=0 may run depending on activation order, so count loop
            // iterations rather than asserting nothing ran.
            for _ in 0..10 {
                ctx.advance(SimDuration::from_micros(1));
                ran.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    sim.spawn("bystander", |ctx| ctx.advance(SimDuration::from_micros(1)));
    let out = sim.run().unwrap();
    assert_eq!(out.killed, vec![0]);
    assert_eq!(ran.load(Ordering::SeqCst), 0);
}

/// Regression: when every live process is blocked on a process that fault
/// injection killed, the deadlock detector must fire (a readable error),
/// not hang the host test process.
#[test]
fn deadlock_detector_fires_when_blocked_on_killed_process() {
    let mut sim = Simulation::new(SimConfig {
        fault_plan: FaultPlan::new(1).kill(0, SimTime(1_000)),
        ..SimConfig::default()
    });
    let ch: Queue<u64> = Queue::new();
    let tx = ch.clone();
    sim.spawn("producer", move |ctx| {
        // Would send at t=10us, but is killed at t=1us.
        ctx.advance(SimDuration::from_micros(10));
        tx.send(ctx, 7);
    });
    let rx = ch.clone();
    sim.spawn("consumer", move |ctx| {
        // Blocks forever: the message never arrives.
        rx.recv(ctx);
    });
    let err = sim.run().unwrap_err();
    assert!(err.0.contains("deadlock"), "got: {}", err.0);
    assert!(err.0.contains("consumer"), "got: {}", err.0);
}

#[test]
fn paused_process_defers_events_until_resume() {
    // The victim advances in 10us steps; a 50us pause starting at 15us
    // stretches its second step's wake-up from t=20us to t=65us.
    let run = |plan: FaultPlan| {
        let mut sim = Simulation::new(SimConfig { fault_plan: plan, ..SimConfig::default() });
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = times.clone();
        sim.spawn("victim", move |ctx| {
            for _ in 0..3 {
                ctx.advance(SimDuration::from_micros(10));
                t2.lock().push(ctx.now().as_nanos());
            }
        });
        sim.run().unwrap();
        let v = times.lock().clone();
        v
    };
    assert_eq!(run(FaultPlan::default()), vec![10_000, 20_000, 30_000]);
    let paused = run(FaultPlan::new(1).pause(0, SimTime(15_000), SimDuration::from_micros(50)));
    assert_eq!(paused, vec![10_000, 65_000, 75_000]);
}

#[test]
fn fault_spans_appear_in_trace() {
    let mut sim = Simulation::new(SimConfig {
        trace: true,
        fault_plan: FaultPlan::new(1).kill(0, SimTime(2_000)).pause(
            1,
            SimTime(1_000),
            SimDuration::from_micros(3),
        ),
        ..SimConfig::default()
    });
    for i in 0..2 {
        sim.spawn(format!("p{i}"), |ctx| {
            for _ in 0..10 {
                ctx.advance(SimDuration::from_micros(1));
            }
        });
    }
    let out = sim.run().unwrap();
    let kills: Vec<_> = out.trace.spans().iter().filter(|s| s.tag == "fault-kill").collect();
    let pauses: Vec<_> = out.trace.spans().iter().filter(|s| s.tag == "fault-pause").collect();
    assert_eq!(kills.len(), 1);
    assert_eq!(kills[0].pid, 0);
    assert_eq!(kills[0].start, SimTime(2_000));
    assert_eq!(pauses.len(), 1);
    assert_eq!(pauses[0].pid, 1);
    assert_eq!(pauses[0].start, SimTime(1_000));
    assert_eq!(pauses[0].end, SimTime(4_000));
}

#[test]
fn fault_injected_runs_replay_identically() {
    let run = || {
        let mut sim = Simulation::new(SimConfig {
            seed: 77,
            fault_plan: FaultPlan::new(9).kill(2, SimTime(40_000)).pause(
                0,
                SimTime(10_000),
                SimDuration::from_micros(25),
            ),
            ..SimConfig::default()
        });
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4usize {
            let log = log.clone();
            sim.spawn(format!("p{i}"), move |ctx| {
                for _ in 0..30 {
                    let jitter: f64 = ctx.rng().gen_range(0.0..1e-5);
                    ctx.advance_secs(1e-6 + jitter);
                    log.lock().push((i, ctx.now().as_nanos()));
                }
            });
        }
        let out = sim.run().unwrap();
        let events = log.lock().clone();
        (out.end_time, out.killed.clone(), events)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds and plans must replay bit-identically");
    assert_eq!(a.1, vec![2]);
}

#[test]
fn empty_fault_plan_changes_nothing() {
    let run = |plan: FaultPlan| {
        let mut sim = Simulation::new(SimConfig { fault_plan: plan, ..SimConfig::default() });
        for i in 0..3usize {
            sim.spawn(format!("p{i}"), move |ctx| {
                for _ in 0..5 {
                    ctx.advance(SimDuration::from_micros(i as u64 + 1));
                }
            });
        }
        let out = sim.run().unwrap();
        assert!(out.killed.is_empty());
        // No hidden injector process with an empty plan.
        assert_eq!(out.proc_stats.len(), 3);
        out.end_time
    };
    // A non-default plan seed must not perturb a fault-free run either.
    assert_eq!(run(FaultPlan::default()), run(FaultPlan::new(0xDEAD_BEEF)));
}

#[test]
fn lazy_time_matches_eventful_end_time() {
    // Pure-compute programs never touch the heap under a lazy clock; the
    // run's end time must still cover every local lead (via the horizon).
    let run = |lazy: bool| {
        let mut sim = Simulation::new(SimConfig { lazy_time: lazy, ..SimConfig::default() });
        for i in 0..4u64 {
            sim.spawn(format!("p{i}"), move |ctx| {
                for _ in 0..10 {
                    ctx.advance(SimDuration::from_micros(i + 1));
                }
            });
        }
        let out = sim.run_expect();
        (out.end_time, out.proc_stats.iter().map(|p| p.finished_at).collect::<Vec<_>>())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn lazy_lead_survives_a_suspend() {
    // A process 10us ahead of the kernel suspends on a 5us wake: the wake
    // is in its local past, so the local clock must stay at 10us — waiting
    // and computing overlap, they do not add.
    let mut sim = Simulation::new(SimConfig { lazy_time: true, ..SimConfig::default() });
    sim.spawn("p", |ctx| {
        ctx.advance(SimDuration::from_micros(10));
        ctx.wake_self_at(SimTime(5_000));
        ctx.suspend("test-nap");
        assert_eq!(ctx.now(), SimTime(10_000));
        // A wake strictly past the local lead does advance the clock.
        ctx.wake_self_at(SimTime(25_000));
        ctx.suspend("test-nap");
        assert_eq!(ctx.now(), SimTime(25_000));
    });
    assert_eq!(sim.run_expect().end_time, SimTime(25_000));
}

#[test]
fn lazy_time_is_forced_off_under_process_faults() {
    // A kill plan needs committed time (the victim must die mid-compute,
    // not after lazily finishing its whole body), so `lazy_time` must not
    // change a faulty run's outcome.
    let run = |lazy: bool| {
        let plan = FaultPlan::new(7).kill(1, SimTime(25_000));
        let mut sim = Simulation::new(SimConfig {
            lazy_time: lazy,
            fault_plan: plan,
            ..SimConfig::default()
        });
        for i in 0..3usize {
            sim.spawn(format!("p{i}"), move |ctx| {
                for _ in 0..10 {
                    ctx.advance(SimDuration::from_micros(i as u64 + 4));
                }
            });
        }
        let out = sim.run_expect();
        (out.end_time, out.killed.clone())
    };
    let (end, killed) = run(true);
    assert_eq!(killed, vec![1]);
    assert_eq!((end, killed), run(false));
}
