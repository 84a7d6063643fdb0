//! The happens-before sanitizer — the dynamic pass of `streamcheck`.
//!
//! A vector-clock race detector layered into the simulator's send/receive
//! paths. The report types in this module are always compiled (so outcomes
//! can carry them unconditionally), but the instrumentation call sites in
//! [`crate::Rank`] and [`crate::World`] only exist under the `check`
//! feature, and even then only run when a run opts in with
//! [`crate::World::with_check`] — the fault-free, check-free hot path pays
//! nothing.
//!
//! What it detects:
//!
//! - **Wildcard-receive races** (`SC101`): an [`Src::Any`](crate::Src)
//!   receive on a *user* tag matched one message while a causally
//!   *concurrent* message from a different source was also available. The
//!   match order is then timing-dependent — exactly the nondeterminism that
//!   makes wildcard receives dangerous in MPI codes. Internal stream and
//!   collective traffic uses wildcard receives by design (FCFS across
//!   producers is the mechanism that absorbs imbalance, §II-C) and is
//!   excluded.
//! - **Orphan messages** (`SC102`): messages still parked in a mailbox when
//!   the simulation finalizes. Stream credit messages are excluded — a
//!   producer's terminate drains credits opportunistically and late credits
//!   legitimately linger.
//! - **Credit-protocol violations** (`SC103`): a producer put more elements
//!   in flight to one consumer than the channel's credit window admits,
//!   breaking the memory bound of §II-D. The stream library reports its
//!   sends and credit grants through the `Rank::check_data_sent` /
//!   `Rank::check_credit_issued` hooks.

#[cfg(feature = "check")]
use std::collections::{BTreeMap, BTreeSet};
#[cfg(feature = "check")]
use std::sync::Arc;

#[cfg(feature = "check")]
use parking_lot::Mutex;

use crate::msg::Tag;

/// One structured sanitizer finding. Codes live in the same `SCxxx`
/// namespace as the static lints (SC0xx static, SC1xx dynamic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SanReport {
    /// Two causally unordered messages were both available to one
    /// wildcard receive: the match is timing-dependent.
    WildcardRace {
        receiver: usize,
        tag: Tag,
        /// Source whose message the receive actually matched.
        chosen_src: usize,
        /// Source of a concurrent message that could equally have matched.
        rival_src: usize,
        time_ns: u64,
    },
    /// A message was never matched by any receive before finalize.
    Orphan { dst: usize, src: usize, tag: Tag, bytes: u64, available_ns: u64 },
    /// A stream producer exceeded a channel's credit window.
    CreditOverrun {
        channel: u16,
        producer: usize,
        consumer: usize,
        /// Elements in flight *after* the offending send.
        in_flight: u64,
        window: u64,
        time_ns: u64,
    },
}

impl SanReport {
    /// Lint-catalogue code of this finding (see DESIGN.md §9).
    pub fn code(&self) -> &'static str {
        match self {
            SanReport::WildcardRace { .. } => "SC101",
            SanReport::Orphan { .. } => "SC102",
            SanReport::CreditOverrun { .. } => "SC103",
        }
    }

    /// Machine-readable rendering (one JSON object, no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            SanReport::WildcardRace { receiver, tag, chosen_src, rival_src, time_ns } => format!(
                "{{\"code\":\"SC101\",\"kind\":\"wildcard_race\",\"receiver\":{receiver},\
                 \"tag\":{},\"chosen_src\":{chosen_src},\"rival_src\":{rival_src},\
                 \"time_ns\":{time_ns}}}",
                tag.0
            ),
            SanReport::Orphan { dst, src, tag, bytes, available_ns } => format!(
                "{{\"code\":\"SC102\",\"kind\":\"orphan\",\"dst\":{dst},\"src\":{src},\
                 \"tag\":{},\"bytes\":{bytes},\"available_ns\":{available_ns}}}",
                tag.0
            ),
            SanReport::CreditOverrun {
                channel,
                producer,
                consumer,
                in_flight,
                window,
                time_ns,
            } => {
                format!(
                    "{{\"code\":\"SC103\",\"kind\":\"credit_overrun\",\"channel\":{channel},\
                     \"producer\":{producer},\"consumer\":{consumer},\"in_flight\":{in_flight},\
                     \"window\":{window},\"time_ns\":{time_ns}}}"
                )
            }
        }
    }
}

impl std::fmt::Display for SanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanReport::WildcardRace { receiver, tag, chosen_src, rival_src, time_ns } => write!(
                f,
                "SC101 wildcard-receive race: rank {receiver} matched tag {:#x} from rank \
                 {chosen_src} while a causally concurrent message from rank {rival_src} was \
                 also available (t={time_ns}ns)",
                tag.0
            ),
            SanReport::Orphan { dst, src, tag, bytes, available_ns } => write!(
                f,
                "SC102 orphan message: {bytes} bytes from rank {src} to rank {dst} \
                 (tag {:#x}, available at t={available_ns}ns) never matched by a receive",
                tag.0
            ),
            SanReport::CreditOverrun {
                channel,
                producer,
                consumer,
                in_flight,
                window,
                time_ns,
            } => {
                write!(
                    f,
                    "SC103 credit overrun: channel {channel} producer rank {producer} has \
                     {in_flight} elements in flight to consumer rank {consumer}, window is \
                     {window} (t={time_ns}ns)"
                )
            }
        }
    }
}

/// Stream-channel metadata registered by the stream library's `check` hooks.
#[cfg(feature = "check")]
#[derive(Clone, Copy)]
struct ChanMeta {
    window: Option<u64>,
    credit_tag: Tag,
}

#[cfg(feature = "check")]
struct SanInner {
    /// `clocks[r]` is rank `r`'s vector clock; ticked on send, joined and
    /// ticked on receive.
    clocks: Vec<Vec<u64>>,
    reports: Vec<SanReport>,
    /// Deduplication of race reports per (receiver, tag, src pair).
    seen_races: BTreeSet<(usize, u64, usize, usize)>,
    channels: BTreeMap<u16, ChanMeta>,
    /// Elements in flight (sent, not yet credited) per
    /// `(channel, producer rank, consumer rank)`.
    inflight: BTreeMap<(u16, usize, usize), u64>,
    /// Overruns already reported, so a sustained violation yields one
    /// report per (channel, producer, consumer) rather than one per send.
    seen_overruns: BTreeSet<(u16, usize, usize)>,
}

/// Shared state of one run's dynamic pass. Created by
/// [`crate::World::with_check`]; every instrumented call site funnels here.
#[cfg(feature = "check")]
pub(crate) struct Sanitizer {
    inner: Mutex<SanInner>,
}

/// `a` happens-before-or-equals `b` under vector-clock order.
#[cfg(feature = "check")]
fn le(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

#[cfg(feature = "check")]
impl Sanitizer {
    pub fn new(nprocs: usize) -> Sanitizer {
        Sanitizer {
            inner: Mutex::new(SanInner {
                clocks: vec![vec![0; nprocs]; nprocs],
                reports: Vec::new(),
                seen_races: BTreeSet::new(),
                channels: BTreeMap::new(),
                inflight: BTreeMap::new(),
                seen_overruns: BTreeSet::new(),
            }),
        }
    }

    /// Tick `src`'s clock for a send event and return the snapshot the
    /// message carries.
    pub fn on_send(&self, src: usize) -> Arc<Vec<u64>> {
        let mut inner = self.inner.lock();
        inner.clocks[src][src] += 1;
        Arc::new(inner.clocks[src].clone())
    }

    /// Join the sender's snapshot into `dst`'s clock (receive event).
    pub fn on_recv(&self, dst: usize, clock: Option<&Arc<Vec<u64>>>) {
        let mut inner = self.inner.lock();
        if let Some(c) = clock {
            for (mine, theirs) in inner.clocks[dst].iter_mut().zip(c.iter()) {
                *mine = (*mine).max(*theirs);
            }
        }
        inner.clocks[dst][dst] += 1;
    }

    /// A wildcard receive matched `chosen_src`'s message while `rivals`
    /// (same tag, different sources) were also available. Report each rival
    /// whose send is causally concurrent with the chosen one.
    pub fn on_wildcard_match(
        &self,
        receiver: usize,
        tag: Tag,
        chosen_src: usize,
        chosen_clock: Option<&Arc<Vec<u64>>>,
        rivals: &[(usize, Option<Arc<Vec<u64>>>)],
        time_ns: u64,
    ) {
        let Some(chosen) = chosen_clock else { return };
        let mut inner = self.inner.lock();
        for (rival_src, rival_clock) in rivals {
            let Some(rival) = rival_clock else { continue };
            if le(chosen, rival) || le(rival, chosen) {
                continue; // causally ordered: the match is deterministic
            }
            let (a, b) = (chosen_src.min(*rival_src), chosen_src.max(*rival_src));
            if inner.seen_races.insert((receiver, tag.0, a, b)) {
                inner.reports.push(SanReport::WildcardRace {
                    receiver,
                    tag,
                    chosen_src,
                    rival_src: *rival_src,
                    time_ns,
                });
            }
        }
    }

    /// Register a stream channel's flow-control parameters (idempotent;
    /// every member rank registers on creation).
    pub fn register_channel(&self, id: u16, window: Option<u64>, credit_tag: Tag) {
        self.inner.lock().channels.entry(id).or_insert(ChanMeta { window, credit_tag });
    }

    /// A producer put `elems` more elements in flight to `consumer`.
    pub fn data_sent(&self, id: u16, producer: usize, consumer: usize, elems: u64, time_ns: u64) {
        let mut inner = self.inner.lock();
        let key = (id, producer, consumer);
        let in_flight = {
            let e = inner.inflight.entry(key).or_insert(0);
            *e += elems;
            *e
        };
        let window = inner.channels.get(&id).and_then(|m| m.window);
        if let Some(w) = window {
            if in_flight > w && inner.seen_overruns.insert(key) {
                inner.reports.push(SanReport::CreditOverrun {
                    channel: id,
                    producer,
                    consumer,
                    in_flight,
                    window: w,
                    time_ns,
                });
            }
        }
    }

    /// A consumer granted `elems` credits back to `producer`.
    pub fn credit_issued(&self, id: u16, consumer: usize, producer: usize, elems: u64) {
        let mut inner = self.inner.lock();
        let e = inner.inflight.entry((id, producer, consumer)).or_insert(0);
        *e = e.saturating_sub(elems);
    }

    /// A message still parked in `dst`'s mailbox at finalize. Credit
    /// messages of registered channels are skipped (see module docs).
    pub fn orphan(&self, dst: usize, src: usize, tag: Tag, bytes: u64, available_ns: u64) {
        let mut inner = self.inner.lock();
        if inner.channels.values().any(|m| m.credit_tag == tag) {
            return;
        }
        inner.reports.push(SanReport::Orphan { dst, src, tag, bytes, available_ns });
    }

    /// Everything reported so far.
    pub fn reports(&self) -> Vec<SanReport> {
        self.inner.lock().reports.clone()
    }

    /// Diagnostic dump of the per-pair in-flight credit state, appended to
    /// desim deadlock reports. `None` when no credited channel has traffic.
    pub fn deadlock_diag(&self) -> Option<String> {
        let inner = self.inner.lock();
        let mut lines: Vec<String> = Vec::new();
        let mut pairs: Vec<_> = inner.inflight.iter().collect();
        pairs.sort_by_key(|(&k, _)| k);
        for (&(id, p, c), &n) in pairs {
            if n == 0 {
                continue;
            }
            match inner.channels.get(&id).and_then(|m| m.window) {
                Some(w) => lines.push(format!(
                    "channel {id}: rank {p} -> rank {c}: {n}/{w} elements in flight{}",
                    if n >= w { " (window full)" } else { "" }
                )),
                None => lines.push(format!(
                    "channel {id}: rank {p} -> rank {c}: {n} elements in flight (unbounded)"
                )),
            }
        }
        if lines.is_empty() {
            None
        } else {
            Some(format!("streamcheck sanitizer credit state:\n{}", lines.join("\n")))
        }
    }
}

#[cfg(all(test, feature = "check"))]
mod tests {
    use super::*;

    #[test]
    fn concurrent_sends_race_ordered_sends_do_not() {
        let san = Sanitizer::new(3);
        // Ranks 1 and 2 send to 0 with no causal link: concurrent.
        let c1 = san.on_send(1);
        let c2 = san.on_send(2);
        san.on_wildcard_match(0, Tag::user(7), 1, Some(&c1), &[(2, Some(c2))], 10);
        assert_eq!(san.reports().len(), 1);
        assert_eq!(san.reports()[0].code(), "SC101");

        // Now order them: 1 sends to 2, 2 receives (joins), then sends.
        let san = Sanitizer::new(3);
        let c1 = san.on_send(1);
        san.on_recv(2, Some(&c1));
        let c2 = san.on_send(2);
        let c1b = san.on_send(1);
        // c1b happened before... no: c1b concurrent with c2? 1's second send
        // does not see 2's state, but c1 <= c2 holds for the *first* pair.
        san.on_wildcard_match(0, Tag::user(7), 1, Some(&c1), &[(2, Some(c2.clone()))], 10);
        assert!(san.reports().is_empty(), "ordered pair must not race");
        // The second send from 1 *is* concurrent with 2's send.
        san.on_wildcard_match(0, Tag::user(7), 1, Some(&c1b), &[(2, Some(c2))], 11);
        assert_eq!(san.reports().len(), 1);
    }

    #[test]
    fn credit_overrun_detected_once_per_pair() {
        let san = Sanitizer::new(4);
        san.register_channel(0, Some(8), Tag::internal(2, 0, 1));
        san.data_sent(0, 1, 3, 6, 100);
        assert!(san.reports().is_empty());
        san.credit_issued(0, 3, 1, 6);
        san.data_sent(0, 1, 3, 8, 200);
        assert!(san.reports().is_empty(), "window exactly full is legal");
        san.data_sent(0, 1, 3, 1, 300);
        san.data_sent(0, 1, 3, 1, 400);
        let reports = san.reports();
        assert_eq!(reports.len(), 1, "sustained overrun reports once");
        assert_eq!(reports[0].code(), "SC103");
        assert!(san.deadlock_diag().unwrap().contains("channel 0"));
    }

    #[test]
    fn orphans_skip_registered_credit_tags() {
        let san = Sanitizer::new(2);
        let credit = Tag::internal(2, 5, 1);
        san.register_channel(5, Some(4), credit);
        san.orphan(0, 1, credit, 8, 50);
        assert!(san.reports().is_empty());
        san.orphan(0, 1, Tag::user(3), 64, 60);
        assert_eq!(san.reports().len(), 1);
        assert_eq!(san.reports()[0].code(), "SC102");
    }
}
