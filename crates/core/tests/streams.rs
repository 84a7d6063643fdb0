//! Integration tests of the stream library over the simulated machine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpisim::{MachineConfig, NoiseModel, World};
use mpistream::{
    run_decoupled, ChannelConfig, GroupSpec, Role, RoutePolicy, Stream, StreamChannel, Wait,
};
use parking_lot::Mutex;

fn quiet() -> World {
    World::new(MachineConfig { noise: NoiseModel::none(), ..MachineConfig::default() })
}

fn ideal() -> World {
    World::new(MachineConfig::ideal())
}

#[test]
fn every_element_is_delivered_exactly_once() {
    // 6 producers, 2 consumers, static routing: full conservation.
    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = got.clone();
    quiet().run_expect(8, move |rank| {
        let comm = rank.comm_world();
        let g3 = g2.clone();
        run_decoupled::<(usize, u32), _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 4 },
            ChannelConfig::default(),
            |rank, p| {
                let me = rank.world_rank();
                for i in 0..25u32 {
                    p.stream.isend(rank, (me, i));
                }
            },
            move |rank, c| {
                c.stream.operate(rank, |_, elem| g3.lock().push(elem));
            },
        );
    });
    let mut got = got.lock().clone();
    got.sort_unstable();
    let mut expect: Vec<(usize, u32)> = Vec::new();
    for me in [0usize, 1, 2, 4, 5, 6] {
        for i in 0..25u32 {
            expect.push((me, i));
        }
    }
    expect.sort_unstable();
    assert_eq!(got, expect);
}

#[test]
fn per_producer_order_is_preserved_at_a_consumer() {
    let got = Arc::new(Mutex::new(Vec::<(usize, u32)>::new()));
    let g2 = got.clone();
    quiet().run_expect(4, move |rank| {
        let comm = rank.comm_world();
        let g3 = g2.clone();
        run_decoupled::<(usize, u32), _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 4 },
            ChannelConfig::default(),
            |rank, p| {
                let me = rank.world_rank();
                for i in 0..50u32 {
                    rank.compute(1e-6);
                    p.stream.isend(rank, (me, i));
                }
            },
            move |rank, c| {
                c.stream.operate(rank, |_, e| g3.lock().push(e));
            },
        );
    });
    let got = got.lock();
    for p in 0..3usize {
        let seq: Vec<u32> = got.iter().filter(|(src, _)| *src == p).map(|(_, i)| *i).collect();
        assert_eq!(seq, (0..50).collect::<Vec<_>>(), "producer {p} order broken");
    }
}

#[test]
fn fcfs_absorbs_a_slow_producer() {
    // One producer is 100x slower per element. The consumer must keep
    // processing fast producers' elements meanwhile: the makespan should
    // track the slow producer's finish, not the sum of everyone.
    let out = quiet().run_expect(5, |rank| {
        let comm = rank.comm_world();
        run_decoupled::<u64, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 5 },
            ChannelConfig { element_bytes: 1 << 10, ..ChannelConfig::default() },
            |rank, p| {
                let slow = rank.world_rank() == 0;
                let per_elem = if slow { 1e-3 } else { 1e-5 };
                for i in 0..100 {
                    rank.compute_exact(per_elem);
                    p.stream.isend(rank, i);
                }
            },
            |rank, c| {
                c.stream.operate(rank, |rank, _| rank.compute_exact(2e-5));
            },
        );
    });
    let t = out.elapsed_secs();
    // Slow producer: 100 ms of compute. Consumer work: 400 elements x
    // 20 us = 8 ms, fully overlapped except the slow producer's tail.
    assert!(t > 0.1, "must wait for slow producer, got {t}");
    assert!(t < 0.112, "tail should be the slow producer, not queued work: {t}");
}

#[test]
fn round_robin_spreads_over_consumers() {
    let counts = Arc::new(Mutex::new(std::collections::BTreeMap::new()));
    let c2 = counts.clone();
    ideal().run_expect(6, move |rank| {
        let comm = rank.comm_world();
        let c3 = c2.clone();
        run_decoupled::<u32, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 3 }, // 4 producers, 2 consumers
            ChannelConfig { route: RoutePolicy::RoundRobin, ..ChannelConfig::default() },
            |rank, p| {
                for i in 0..40u32 {
                    p.stream.isend(rank, i);
                }
            },
            move |rank, c| {
                let me = rank.world_rank();
                let n = c.stream.operate(rank, |_, _| {});
                c3.lock().insert(me, n);
            },
        );
    });
    let counts = counts.lock();
    // 4 producers x 40 elements, round-robin over 2 consumers: 80 each.
    assert_eq!(counts.len(), 2);
    for (_, n) in counts.iter() {
        assert_eq!(*n, 80);
    }
}

#[test]
fn keyed_routing_is_consistent_and_covers_all() {
    // Same key must always reach the same consumer regardless of producer.
    let seen = Arc::new(Mutex::new(Vec::<(u64, usize)>::new()));
    let s2 = seen.clone();
    ideal().run_expect(8, move |rank| {
        let comm = rank.comm_world();
        let s3 = s2.clone();
        run_decoupled::<u64, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 4 },
            ChannelConfig::default(),
            |rank, p| {
                for key in 0..64u64 {
                    p.stream.isend_keyed(rank, key, key);
                }
            },
            move |rank, c| {
                let me = rank.world_rank();
                c.stream.operate(rank, |_, key| s3.lock().push((key, me)));
            },
        );
    });
    let seen = seen.lock();
    let mut owner: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for &(key, consumer) in seen.iter() {
        let prev = owner.insert(key, consumer);
        if let Some(p) = prev {
            assert_eq!(p, consumer, "key {key} routed to two consumers");
        }
    }
    // Both consumers got some share (64 keys over 2 consumers).
    let distinct: std::collections::BTreeSet<usize> = owner.values().copied().collect();
    assert_eq!(distinct.len(), 2);
}

#[test]
fn aggregation_reduces_message_count_but_not_elements() {
    fn run(aggregation: usize) -> (u64, u64) {
        let msgs = Arc::new(AtomicU64::new(0));
        let elems = Arc::new(AtomicU64::new(0));
        let (m2, e2) = (msgs.clone(), elems.clone());
        let out = ideal().run_expect(4, move |rank| {
            let comm = rank.comm_world();
            let (m3, e3) = (m2.clone(), e2.clone());
            run_decoupled::<u32, _, _, _>(
                rank,
                &comm,
                GroupSpec { every: 4 },
                ChannelConfig { aggregation, ..ChannelConfig::default() },
                |rank, p| {
                    for i in 0..100u32 {
                        p.stream.isend(rank, i);
                    }
                },
                move |rank, c| {
                    let n = c.stream.operate(rank, |_, _| {});
                    e3.fetch_add(n, Ordering::SeqCst);
                    m3.fetch_add(c.stream.stats().batches, Ordering::SeqCst);
                },
            );
        });
        let _ = out;
        (msgs.load(Ordering::SeqCst), elems.load(Ordering::SeqCst))
    }
    let (m1, e1) = run(1);
    let (m10, e10) = run(10);
    assert_eq!(e1, 300);
    assert_eq!(e10, 300);
    assert_eq!(m1, 300);
    assert_eq!(m10, 30);
}

#[test]
fn partial_batches_are_flushed_at_terminate() {
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    ideal().run_expect(2, move |rank| {
        let comm = rank.comm_world();
        let t3 = t2.clone();
        run_decoupled::<u32, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 2 },
            ChannelConfig { aggregation: 64, ..ChannelConfig::default() },
            |rank, p| {
                for i in 0..70u32 {
                    // 64 + partial 6
                    p.stream.isend(rank, i);
                }
            },
            move |rank, c| {
                t3.fetch_add(c.stream.operate(rank, |_, _| {}), Ordering::SeqCst);
            },
        );
    });
    assert_eq!(total.load(Ordering::SeqCst), 70);
}

#[test]
fn credit_window_bounds_consumer_queue_memory() {
    // Without credits a fast producer can park the full stream at a slow
    // consumer; with a credit window the consumer's mailbox stays bounded.
    fn run(credits: Option<usize>) -> u64 {
        let max_queued = Arc::new(AtomicU64::new(0));
        let m2 = max_queued.clone();
        quiet().run_expect(2, move |rank| {
            let comm = rank.comm_world();
            let m3 = m2.clone();
            run_decoupled::<[u8; 8], _, _, _>(
                rank,
                &comm,
                GroupSpec { every: 2 },
                ChannelConfig {
                    element_bytes: 1 << 20, // 1 MB elements
                    credits,
                    ..ChannelConfig::default()
                },
                |rank, p| {
                    for _ in 0..64 {
                        p.stream.isend(rank, [0u8; 8]); // fast producer
                    }
                },
                move |rank, c| {
                    c.stream.operate(rank, |rank, _| {
                        m3.fetch_max(rank.mailbox_bytes(), Ordering::SeqCst);
                        rank.compute_exact(1e-3); // slow consumer
                    });
                },
            );
        });
        max_queued.load(Ordering::SeqCst)
    }
    let unbounded = run(None);
    let bounded = run(Some(4));
    assert!(bounded <= 4 << 20, "credit window of 4 x 1MB must bound queue, got {bounded}");
    assert!(
        unbounded > bounded * 4,
        "unbounded queue ({unbounded}) should far exceed bounded ({bounded})"
    );
}

#[test]
fn stats_agree_between_endpoints() {
    let prod_stats = Arc::new(Mutex::new(Vec::new()));
    let cons_stats = Arc::new(Mutex::new(Vec::new()));
    let (p2, c2) = (prod_stats.clone(), cons_stats.clone());
    quiet().run_expect(4, move |rank| {
        let comm = rank.comm_world();
        let (p3, c3) = (p2.clone(), c2.clone());
        let stats = run_decoupled::<u32, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 4 },
            ChannelConfig { aggregation: 5, ..ChannelConfig::default() },
            |rank, p| {
                for i in 0..20u32 {
                    p.stream.isend(rank, i);
                }
            },
            |rank, c| {
                c.stream.operate(rank, |_, _| {});
            },
        );
        if rank.world_rank() == 3 {
            c3.lock().push(stats);
        } else {
            p3.lock().push(stats);
        }
    });
    let total_sent: u64 =
        prod_stats.lock().iter().map(|s: &mpistream::StreamStats| s.elements).sum();
    let total_recv: u64 =
        cons_stats.lock().iter().map(|s: &mpistream::StreamStats| s.elements).sum();
    assert_eq!(total_sent, 60);
    assert_eq!(total_recv, 60);
    let batches_sent: u64 = prod_stats.lock().iter().map(|s| s.batches).sum();
    let batches_recv: u64 = cons_stats.lock().iter().map(|s| s.batches).sum();
    assert_eq!(batches_sent, batches_recv);
}

#[test]
fn two_channels_coexist_without_crosstalk() {
    // A forward data channel and a reply channel with swapped roles (the
    // CG/PIC pattern). Payload types differ; ids must not collide.
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = ok.clone();
    quiet().run_expect(4, move |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 4 };
        let (_prod, _cons, role) = spec.split(rank, &comm);
        let fwd = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let rev = StreamChannel::create(rank, &comm, role.reverse(), ChannelConfig::default());
        match role {
            Role::Producer => {
                let mut out: Stream<u64> = Stream::attach(fwd);
                let mut back: Stream<i32> = Stream::attach(rev);
                for i in 0..10u64 {
                    out.isend(rank, i * (rank.world_rank() as u64 + 1));
                }
                out.terminate(rank);
                let n = back.operate(rank, |_, v| assert_eq!(v, -7));
                assert!(n > 0);
                ok2.fetch_add(1, Ordering::SeqCst);
            }
            Role::Consumer => {
                let mut input: Stream<u64> = Stream::attach(fwd);
                let mut reply: Stream<i32> = Stream::attach(rev);
                input.operate(rank, |_, _| {});
                // Reply to each producer explicitly.
                for c in 0..reply.channel().consumers().len() {
                    reply.isend_to(rank, c, -7);
                }
                reply.terminate(rank);
                ok2.fetch_add(1, Ordering::SeqCst);
            }
            Role::Bystander => unreachable!(),
        }
    });
    assert_eq!(ok.load(Ordering::SeqCst), 4);
}

#[test]
fn step_poll_allows_polling_consumers() {
    quiet().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut stream: Stream<u32> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..10u32 {
                    rank.compute_exact(1e-4);
                    stream.isend(rank, i);
                }
                stream.terminate(rank);
            }
            Role::Consumer => {
                let mut got = 0u64;
                while !stream.all_terminated() {
                    let n = stream.step(rank, Wait::Poll, |_, _| {}).map_or(0, |ev| ev.elems);
                    if n == 0 {
                        got += stream.operate_while(rank, || got == 0, |_, _| {});
                        // interleave "other work"
                        rank.compute_exact(1e-5);
                    } else {
                        got += n;
                    }
                }
                assert_eq!(got, 10);
            }
            Role::Bystander => unreachable!(),
        }
    });
}

/// `recv_one` pulls a whole batch off the wire and hands out one element;
/// the rest stays buffered. A consumer that then drains with
/// `operate_while` must get the buffered elements too — they were
/// accounted and credited on arrival, so skipping them ends in `free()`
/// panicking with "3 undelivered elements".
#[test]
fn operate_while_hands_out_what_recv_one_buffered() {
    quiet().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let config = ChannelConfig { aggregation: 4, ..ChannelConfig::default() };
        let ch = StreamChannel::create(rank, &comm, role, config);
        let mut stream: Stream<u32> = Stream::attach(ch);
        match role {
            Role::Producer => {
                (0..10u32).for_each(|i| stream.isend(rank, i));
                stream.terminate(rank);
            }
            Role::Consumer => {
                let mut got = vec![stream.recv_one(rank).expect("the first element")];
                let n = stream.operate_while(rank, || true, |_, v| got.push(v));
                assert_eq!(n, 9, "three buffered elements, then six from the wire");
                assert_eq!(got, (0..10).collect::<Vec<u32>>());
                stream.free(rank);
            }
            Role::Bystander => unreachable!(),
        }
    });
}

#[test]
#[should_panic(expected = "isend on a non-producer endpoint")]
fn consumer_cannot_isend() {
    ideal().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut stream: Stream<u32> = Stream::attach(ch);
        match role {
            Role::Consumer => stream.isend(rank, 1), // boom
            Role::Producer => {
                stream.terminate(rank);
            }
            _ => unreachable!(),
        }
    });
}

#[test]
fn operate2_multiplexes_two_channels_fcfs() {
    use mpistream::operate2;
    // 3 producers feed one consumer over two channels with different
    // element types and cadences; the consumer drains both FCFS.
    let got_a = Arc::new(AtomicU64::new(0));
    let got_b = Arc::new(AtomicU64::new(0));
    let (ga, gb) = (got_a.clone(), got_b.clone());
    quiet().run_expect(4, move |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 4 };
        let role = spec.role_of(rank.world_rank());
        let ch_a = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let ch_b = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut sa: Stream<u32> = Stream::attach(ch_a);
        let mut sb: Stream<String> = Stream::attach(ch_b);
        match role {
            Role::Producer => {
                for i in 0..20u32 {
                    rank.compute_exact(3e-6);
                    sa.isend(rank, i);
                    if i % 2 == 0 {
                        rank.compute_exact(5e-6);
                        sb.isend(rank, format!("m{i}"));
                    }
                }
                sa.terminate(rank);
                sb.terminate(rank);
            }
            Role::Consumer => {
                let (na, nb) =
                    operate2(rank, &mut sa, &mut sb, |_, _| {}, |_, s| assert!(s.starts_with('m')));
                ga.store(na, Ordering::SeqCst);
                gb.store(nb, Ordering::SeqCst);
                sa.free(rank);
                sb.free(rank);
            }
            Role::Bystander => unreachable!(),
        }
    });
    assert_eq!(got_a.load(Ordering::SeqCst), 60);
    assert_eq!(got_b.load(Ordering::SeqCst), 30);
}

#[test]
fn free_accepts_clean_shutdown() {
    ideal().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut s: Stream<u8> = Stream::attach(ch);
        match role {
            Role::Producer => {
                s.isend(rank, 1);
                s.terminate(rank);
                s.free(rank);
            }
            Role::Consumer => {
                s.operate(rank, |_, _| {});
                s.free(rank);
            }
            Role::Bystander => unreachable!(),
        }
    });
}

#[test]
#[should_panic(expected = "never terminated")]
fn free_rejects_unterminated_producer() {
    ideal().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut s: Stream<u8> = Stream::attach(ch);
        match role {
            Role::Producer => {
                s.isend(rank, 1); // aggregation=1: flushed immediately
                s.free(rank); // boom: not terminated
            }
            Role::Consumer => {
                s.operate_while(rank, || false, |_, _| {});
            }
            Role::Bystander => unreachable!(),
        }
    });
}

// ---------------------------------------------------------------------
// Termination edge cases
// ---------------------------------------------------------------------

/// Producers that never inject a single element still close the stream
/// cleanly: the consumer's operate returns 0 without hanging, every Term
/// claims zero, and free() accepts both ends.
#[test]
fn zero_element_producers_terminate_cleanly() {
    ideal().run_expect(3, |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut s: Stream<u64> = Stream::attach(ch);
        match role {
            Role::Producer => {
                s.terminate(rank);
                assert_eq!(s.stats().elements, 0);
                assert_eq!(s.stats().batches, 0);
                s.free(rank);
            }
            Role::Consumer => {
                let n = s.operate(rank, |_, _| panic!("no elements were sent"));
                assert_eq!(n, 0);
                assert!(s.all_terminated());
                s.free(rank);
            }
            Role::Bystander => unreachable!(),
        }
    });
}

/// One producer terminates immediately (before sending anything) while
/// the other streams normally: the early Term must not confuse the
/// consumer's accounting.
#[test]
fn producer_terminating_before_sending_is_clean() {
    let got = Arc::new(Mutex::new(Vec::new()));
    let g = got.clone();
    ideal().run_expect(3, move |rank| {
        let comm = rank.comm_world();
        let role = if rank.world_rank() < 2 { Role::Producer } else { Role::Consumer };
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut s: Stream<u32> = Stream::attach(ch);
        match role {
            Role::Producer => {
                if rank.world_rank() == 0 {
                    // Quit on the spot, before any isend.
                    s.terminate(rank);
                } else {
                    for i in 0..30u32 {
                        rank.compute_exact(1e-6);
                        s.isend(rank, i);
                    }
                    s.terminate(rank);
                }
                s.free(rank);
            }
            Role::Consumer => {
                let g = g.clone();
                let n = s.operate(rank, move |_, v| g.lock().push(v));
                assert_eq!(n, 30);
                s.free(rank);
            }
            Role::Bystander => unreachable!(),
        }
    });
    let mut v = got.lock().clone();
    v.sort_unstable();
    assert_eq!(v, (0..30).collect::<Vec<_>>());
}

/// terminate() is idempotent: a second call is a no-op — no duplicate
/// Term on the wire, no stats movement — and the consumer's accounting
/// stays exact.
#[test]
fn double_terminate_is_idempotent() {
    ideal().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let ch = StreamChannel::create(rank, &comm, role, ChannelConfig::default());
        let mut s: Stream<u8> = Stream::attach(ch);
        match role {
            Role::Producer => {
                for i in 0..5u8 {
                    s.isend(rank, i);
                }
                s.terminate(rank);
                assert!(s.is_terminated());
                let stats = s.stats();
                let t = rank.now();
                s.terminate(rank); // idempotent no-op
                assert_eq!(s.stats(), stats, "second terminate must not move stats");
                assert_eq!(rank.now(), t, "second terminate must not spend time");
                s.free(rank);
            }
            Role::Consumer => {
                let n = s.operate(rank, |_, _| {});
                assert_eq!(n, 5);
                // Exactly one Term was consumed; a duplicate would leave
                // terms_seen past the producer count or traffic behind.
                assert!(s.all_terminated());
                let extra = s.step(rank, Wait::Poll, |_, _| {});
                assert_eq!(extra, None, "no duplicate Term on the wire");
                s.free(rank);
            }
            Role::Bystander => unreachable!(),
        }
    });
}

/// An invalid channel configuration surfaces as a typed error from
/// `try_run_decoupled` — on every rank, before any group is split or any
/// channel id consumed — instead of a panic mid-collective.
#[test]
fn invalid_config_returns_typed_error_before_any_communication() {
    use mpistream::{try_run_decoupled, ConfigError};
    ideal().run_expect(4, |rank| {
        let comm = rank.comm_world();
        let t0 = rank.now();
        let err = try_run_decoupled::<u32, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 2 },
            ChannelConfig { aggregation: 0, ..ChannelConfig::default() },
            |_rank, _p| panic!("producer body must not run"),
            |_rank, _c| panic!("consumer body must not run"),
        )
        .expect_err("aggregation = 0 must be rejected");
        assert_eq!(err, ConfigError::ZeroAggregation);
        assert_eq!(rank.now(), t0, "validation must not communicate or spend time");

        // The same world can immediately run a valid configuration: the
        // failed attempt consumed no channel id and left no group state.
        let stats = try_run_decoupled::<u32, _, _, _>(
            rank,
            &comm,
            GroupSpec { every: 2 },
            ChannelConfig::default(),
            |rank, p| {
                for i in 0..3u32 {
                    p.stream.isend(rank, i);
                }
            },
            |rank, c| {
                let n = c.stream.operate(rank, |_, _| {});
                assert_eq!(n, 3); // 2 producers x 3, split over 2 consumers
            },
        )
        .expect("valid config runs");
        assert!(stats.elements > 0);
    });
}

/// `StreamChannel::try_create` rejects a bad config with the same typed
/// error on every member rank, collectively, before the id broadcast.
#[test]
fn try_create_rejects_invalid_config_on_every_rank() {
    use mpistream::ConfigError;
    ideal().run_expect(2, |rank| {
        let comm = rank.comm_world();
        let spec = GroupSpec { every: 2 };
        let role = spec.role_of(rank.world_rank());
        let err = StreamChannel::try_create(
            rank,
            &comm,
            role,
            ChannelConfig { credits: Some(0), ..ChannelConfig::default() },
        )
        .expect_err("zero credit window must be rejected");
        assert_eq!(err, ConfigError::ZeroCreditWindow);
    });
}

/// `credit_batch` validation: zero is rejected, a batch above the credit
/// window's stall margin (`credits - aggregation + 1`) is rejected, and the
/// margin itself is the largest accepted value.
#[test]
fn credit_batch_validation_bounds() {
    use mpistream::ConfigError;
    let base = ChannelConfig { credits: Some(8), aggregation: 2, ..ChannelConfig::default() };

    let err = ChannelConfig { credit_batch: 0, ..base.clone() }.validate().unwrap_err();
    assert_eq!(err, ConfigError::ZeroCreditBatch);

    // Stall margin: 8 - 2 + 1 = 7. Eight must be rejected, seven accepted.
    let err = ChannelConfig { credit_batch: 8, ..base.clone() }.validate().unwrap_err();
    assert_eq!(err, ConfigError::CreditBatchAboveWindow { batch: 8, credits: 8, aggregation: 2 });
    ChannelConfig { credit_batch: 7, ..base }.validate().expect("margin itself is valid");

    // Without credits no acknowledgement flows at all, so any batch is fine.
    ChannelConfig { credits: None, credit_batch: 1_000_000, ..ChannelConfig::default() }
        .validate()
        .expect("credit_batch is ignored when credits are unbounded");
}

/// A credit-batched stream delivers exactly the same elements as an
/// unbatched one and terminates cleanly — the sim sanitizer (orphan scan +
/// credit audit) stays silent even though the consumer now accumulates
/// acknowledgements and drops the remainder at `Term`.
#[test]
fn credit_batching_conserves_elements_on_sim() {
    for batch in [1usize, 3, 7] {
        let received: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let rcv = received.clone();
        ideal().run_expect(4, move |rank| {
            let comm = rank.comm_world();
            let spec = GroupSpec { every: 2 };
            let role = spec.role_of(rank.world_rank());
            let ch = StreamChannel::create(
                rank,
                &comm,
                role,
                ChannelConfig {
                    credits: Some(8),
                    aggregation: 2,
                    credit_batch: batch,
                    ..ChannelConfig::default()
                },
            );
            let mut stream: Stream<u32> = Stream::attach(ch);
            match role {
                Role::Producer => {
                    let me = rank.world_rank() as u32;
                    for i in 0..50u32 {
                        stream.isend(rank, me * 1000 + i);
                    }
                    stream.terminate(rank);
                }
                Role::Consumer => {
                    stream.operate(rank, |_, e| rcv.lock().push(e));
                }
                Role::Bystander => unreachable!(),
            }
        });
        let mut got = received.lock().clone();
        got.sort_unstable();
        // Producers are world ranks 0 and 2 under every=2.
        let want: Vec<u32> = (0..50u32).chain((0..50u32).map(|i| 2000 + i)).collect();
        assert_eq!(got, want, "credit_batch={batch} lost or duplicated elements");
    }
}
