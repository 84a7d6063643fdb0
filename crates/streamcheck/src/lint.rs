//! The static pass: five lints over a [`Topology`], producing a
//! structured, machine-readable [`Report`].
//!
//! Lint catalogue (see DESIGN.md §9 for the full write-up):
//!
//! | code  | checks |
//! |-------|--------|
//! | SC001 | group-partition validity: α-groups non-empty, pairwise disjoint, covering the world |
//! | SC002 | dataflow cycles: a cycle whose every edge is credit-bounded can fill and deadlock (error); a cycle with an unbounded edge cannot credit-deadlock but is not memory-bounded (info) |
//! | SC003 | termination reachability: every consumer eventually hears `Term` from every producer under the drain discipline |
//! | SC004 | routing totality: keyed maps cover their key domain and stay in range; endpoint sets non-empty |
//! | SC005 | config validity: the value rules of `ChannelConfig::violations` (zero granularity / aggregation / credit window / timeout / credit batch, window below one batch), t/2t patience hierarchy |
//! | SC006 | `ChannelConfig::violations`' credit-batch rule: the batched credit flush fits the window's stall margin, or a stalled producer waits forever for a flush that never triggers |
//! | SC007 | replica-group sanity: `ChannelConfig::violations`' replication rules, the consumer list carries `replicas + 1` ranks, replication patience sits above the t/2t hierarchy, an effective routing stays `Static` (one logical consumer), and a group too small to out-vote one death is flagged |
//!
//! The dynamic sanitizer's findings use the same namespace one hundred up:
//! SC101 wildcard race, SC102 orphan message, SC103 credit overrun (see
//! `mpisim::check`); the native backend's model checker uses two hundred
//! up: SC201 data race, SC202 deadlock/lost wakeup, SC203 leak/double
//! free (see `schedcheck` and DESIGN.md §14).

use std::collections::{BTreeSet, HashMap, HashSet};

use mpistream::{ConfigError, RoutePolicy};

use crate::topology::{ChannelDecl, Drain, Routing, SimDuration, Topology};

/// How bad a finding is. Only [`Severity::Error`] findings make a report
/// unclean: warnings are completing-but-lossy behaviours, infos are
/// properties worth knowing (e.g. a benign request/reply cycle).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(severity_name(*self))
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Catalogue code (`SC001`..`SC007`).
    pub code: &'static str,
    pub severity: Severity,
    /// What the finding is about — a channel or group name, or `topology`.
    pub subject: String,
    pub message: String,
}

/// The static pass's result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// True when the dataflow graph is acyclic and no error was found: the
    /// pipeline cannot deadlock on stream flow control (§II-D), whatever
    /// the timing.
    pub certified_deadlock_free: bool,
}

impl Report {
    /// No error-severity findings (warnings and infos allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        let errors = self.errors().count();
        let warnings = self.findings.iter().filter(|f| f.severity == Severity::Warning).count();
        let cert = if self.certified_deadlock_free {
            "certified deadlock-free"
        } else {
            "NOT certified deadlock-free"
        };
        let mut out = if self.findings.is_empty() {
            format!("streamcheck: clean — {cert}\n")
        } else {
            format!(
                "streamcheck: {} finding(s), {errors} error(s), {warnings} warning(s) — {cert}\n",
                self.findings.len()
            )
        };
        let mut sorted: Vec<&Finding> = self.findings.iter().collect();
        sorted.sort_by_key(|f| std::cmp::Reverse(f.severity));
        for f in sorted {
            out.push_str(&format!(
                "  {:7} {} [{}] {}\n",
                severity_name(f.severity),
                f.code,
                f.subject,
                f.message
            ));
        }
        out
    }

    /// Machine-readable rendering (one JSON object).
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"code\":\"{}\",\"severity\":\"{}\",\"subject\":\"{}\",\"message\":\"{}\"}}",
                    f.code,
                    severity_name(f.severity),
                    json_escape(&f.subject),
                    json_escape(&f.message)
                )
            })
            .collect();
        format!(
            "{{\"certified_deadlock_free\":{},\"errors\":{},\"findings\":[{}]}}",
            self.certified_deadlock_free,
            self.errors().count(),
            findings.join(",")
        )
    }
}

fn severity_name(s: Severity) -> &'static str {
    match s {
        Severity::Info => "info",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Run every lint over `topo`.
pub fn check(topo: &Topology) -> Report {
    let mut findings = Vec::new();
    lint_groups(topo, &mut findings);
    for ch in &topo.channels {
        lint_config(ch, &mut findings);
        lint_replication(ch, &mut findings);
        lint_routing(ch, &mut findings);
        lint_termination(ch, &mut findings);
    }
    let acyclic = lint_cycles(topo, &mut findings);
    let clean = !findings.iter().any(|f| f.severity == Severity::Error);
    Report { findings, certified_deadlock_free: acyclic && clean }
}

/// SC001: the α-partition must be made of non-empty, pairwise-disjoint
/// groups covering the world (§II-A: *every* process belongs to exactly
/// one group).
fn lint_groups(topo: &Topology, findings: &mut Vec<Finding>) {
    if topo.groups.is_empty() {
        return; // channel-only declaration: nothing to check
    }
    let mut owner: HashMap<usize, &str> = HashMap::new();
    for g in &topo.groups {
        if g.ranks.is_empty() {
            findings.push(Finding {
                code: "SC001",
                severity: Severity::Error,
                subject: g.name.clone(),
                message: "group is empty: a group must own at least one process".into(),
            });
        }
        let mut seen = HashSet::new();
        for &r in &g.ranks {
            if r >= topo.world {
                findings.push(Finding {
                    code: "SC001",
                    severity: Severity::Error,
                    subject: g.name.clone(),
                    message: format!(
                        "rank {r} is out of range for a world of {} ranks",
                        topo.world
                    ),
                });
                continue;
            }
            if !seen.insert(r) {
                continue; // duplicate inside one group: one report via overlap below
            }
            if let Some(other) = owner.insert(r, &g.name) {
                findings.push(Finding {
                    code: "SC001",
                    severity: Severity::Error,
                    subject: g.name.clone(),
                    message: format!(
                        "rank {r} is already owned by group `{other}`: groups must be disjoint"
                    ),
                });
            }
        }
    }
    let missing: Vec<usize> = (0..topo.world).filter(|r| !owner.contains_key(r)).collect();
    if !missing.is_empty() {
        findings.push(Finding {
            code: "SC001",
            severity: Severity::Error,
            subject: "topology".into(),
            message: format!(
                "{} rank(s) belong to no group (first: rank {}): the partition must cover \
                 the world",
                missing.len(),
                missing[0]
            ),
        });
    }
}

/// SC005–SC007's configuration findings: one per rule the channel's
/// config breaks ([`ChannelConfig::violations`](mpistream::ChannelConfig::violations)),
/// in its own words, plus SC005's t/2t patience hierarchy, which needs the
/// declared consumer patience.
fn lint_config(ch: &ChannelDecl, findings: &mut Vec<Finding>) {
    for e in ch.config.violations() {
        // No `_` arm: a new rule must be given its code here.
        let code = match e {
            // A relation between three healthy-looking knobs, not a
            // degenerate value: its own code.
            ConfigError::CreditBatchAboveWindow { .. } => "SC006",
            ConfigError::ReplicationNeedsStaticRoute
            | ConfigError::ReplicationWithoutTimeout
            | ConfigError::ZeroReplicationPatience => "SC007",
            ConfigError::ZeroGranularity
            | ConfigError::ZeroAggregation
            | ConfigError::ZeroCreditWindow
            | ConfigError::CreditWindowBelowBatch { .. }
            | ConfigError::ZeroFailureTimeout
            | ConfigError::ZeroCreditBatch => "SC005",
        };
        let (subject, message) = (ch.name.clone(), e.to_string());
        findings.push(Finding { code, severity: Severity::Error, subject, message });
    }
    if let (Some(t), Some(p)) = (ch.config.failure_timeout, ch.consumer_patience) {
        if p < t + t {
            findings.push(Finding {
                code: "SC005",
                severity: Severity::Error,
                subject: ch.name.clone(),
                message: format!(
                    "consumer patience ({p}) is below twice the producer timeout ({t}): a \
                     producer legitimately blocked on a full credit window for up to {t} \
                     would be declared dead (t/2t hierarchy)"
                ),
            });
        }
    }
}

/// SC007: the replica-group checks a [`ChannelConfig`](mpistream::ChannelConfig)
/// cannot make on its own (`crates/replica`; the config's own replication
/// rules are [`lint_config`]'s). A replicated channel's consumer list *is*
/// its Viewstamped Replication group — `consumers[0]` the view-0 primary,
/// the rest standbys — so:
///
/// - the consumer list must carry exactly `replicas + 1` ranks;
/// - an effective routing that overrides a configured Static route must
///   stay [`Routing::Static`]: the group is one *logical* consumer, so
///   spreading (or keyed partitioning) across it would split state that
///   is supposed to be one replicated whole;
/// - the standbys' failover patience must sit at or above twice the
///   consumer's declared (default `2t`) producer patience (the
///   `t`/`2t`/patience hierarchy: replica failover is the slowest, most
///   deliberate detector);
/// - a group of fewer than three replicas cannot form a majority without
///   the victim, so it cannot actually survive a death (warning — it
///   still replicates, it just cannot fail over).
fn lint_replication(ch: &ChannelDecl, findings: &mut Vec<Finding>) {
    let replicas = ch.config.replicas;
    if replicas == 0 {
        return;
    }
    if ch.consumers.len() != replicas + 1 {
        findings.push(Finding {
            code: "SC007",
            severity: Severity::Error,
            subject: ch.name.clone(),
            message: format!(
                "channel declares {replicas} replicas but lists {} consumer rank(s): the \
                 consumer list is the replica group (primary + standbys = {} ranks)",
                ch.consumers.len(),
                replicas + 1
            ),
        });
    }
    if ch.config.route == RoutePolicy::Static && ch.routing != Routing::Static {
        findings.push(Finding {
            code: "SC007",
            severity: Severity::Error,
            subject: ch.name.clone(),
            message: "replicated channel must route Static: the replica group is one \
                 logical consumer, spreading elements across it splits replicated state"
                .into(),
        });
    }
    // A zero patience, or none at all, is already one of the config's rules.
    let patience = ch.config.effective_replication_patience().filter(|&p| p > SimDuration::ZERO);
    if let (Some(patience), Some(t)) = (patience, ch.config.failure_timeout) {
        let consumer_patience = ch.consumer_patience.unwrap_or(t + t);
        if patience < consumer_patience + consumer_patience {
            findings.push(Finding {
                code: "SC007",
                severity: Severity::Error,
                subject: ch.name.clone(),
                message: format!(
                    "replication patience ({patience}) sits below twice the consumer \
                     patience ({consumer_patience}): a standby could depose a primary \
                     that is legitimately waiting out the t/2t failure-detection \
                     hierarchy"
                ),
            });
        }
    }
    if replicas + 1 < 3 {
        findings.push(Finding {
            code: "SC007",
            severity: Severity::Warning,
            subject: ch.name.clone(),
            message: format!(
                "a replica group of {} cannot form a majority without the victim: state is \
                 replicated but no failover can complete after a death (need >= 3 ranks, \
                 i.e. replicas >= 2)",
                replicas + 1
            ),
        });
    }
}

/// SC004: routing totality — keyed maps must cover their key domain and
/// stay in range; endpoint sets must be non-empty.
fn lint_routing(ch: &ChannelDecl, findings: &mut Vec<Finding>) {
    if ch.producers.is_empty() {
        findings.push(Finding {
            code: "SC004",
            severity: Severity::Error,
            subject: ch.name.clone(),
            message: "channel has no producers".into(),
        });
    }
    if ch.consumers.is_empty() {
        findings.push(Finding {
            code: "SC004",
            severity: Severity::Error,
            subject: ch.name.clone(),
            message: "channel has no consumers: every send would have no target".into(),
        });
        return;
    }
    let nc = ch.consumers.len();
    if let Routing::Keyed { buckets } = &ch.routing {
        if buckets.is_empty() {
            findings.push(Finding {
                code: "SC004",
                severity: Severity::Error,
                subject: ch.name.clone(),
                message: "keyed routing with an empty key domain".into(),
            });
            return;
        }
        let holes: Vec<usize> =
            buckets.iter().enumerate().filter(|(_, b)| b.is_none()).map(|(i, _)| i).collect();
        if !holes.is_empty() {
            findings.push(Finding {
                code: "SC004",
                severity: Severity::Error,
                subject: ch.name.clone(),
                message: format!(
                    "keyed routing does not cover the key domain: {} of {} bucket(s) have \
                     no consumer (first hole: bucket {}) — elements keyed there are lost",
                    holes.len(),
                    buckets.len(),
                    holes[0]
                ),
            });
        }
        for (i, b) in buckets.iter().enumerate() {
            if let Some(c) = b {
                if *c >= nc {
                    findings.push(Finding {
                        code: "SC004",
                        severity: Severity::Error,
                        subject: ch.name.clone(),
                        message: format!(
                            "bucket {i} routes to consumer index {c}, but the channel has \
                             only {nc} consumer(s)"
                        ),
                    });
                }
            }
        }
    }
    // Consumers no producer can reach still complete (they hear `Term`s),
    // but they burn a rank doing nothing: worth knowing, not an error.
    let mut targeted: BTreeSet<usize> = BTreeSet::new();
    for pi in 0..ch.producers.len() {
        targeted.extend(ch.targets_of_producer(pi));
    }
    let idle: Vec<usize> =
        (0..nc).filter(|ci| !targeted.contains(ci)).map(|ci| ch.consumers[ci]).collect();
    if !idle.is_empty() {
        let shown: Vec<String> = idle.iter().take(4).map(|r| r.to_string()).collect();
        let ellipsis = if idle.len() > 4 { ", …" } else { "" };
        findings.push(Finding {
            code: "SC004",
            severity: Severity::Info,
            subject: ch.name.clone(),
            message: format!(
                "{} consumer rank(s) ({}{}) are never targeted by the routing: they only \
                 drain termination markers",
                idle.len(),
                shown.join(", "),
                ellipsis
            ),
        });
    }
}

/// SC003: termination reachability — a consumer's drain only finishes once
/// every producer's `Term` arrived (or, under a fault-tolerant drain, the
/// producer was declared dead, which misattributes a live one).
fn lint_termination(ch: &ChannelDecl, findings: &mut Vec<Finding>) {
    for &p in &ch.producers {
        if ch.terminating.contains(&p) {
            continue;
        }
        match (ch.drain, ch.config.failure_timeout) {
            (Drain::Operate, _) | (Drain::OperateOutcome, None) => {
                findings.push(Finding {
                    code: "SC003",
                    severity: Severity::Error,
                    subject: ch.name.clone(),
                    message: format!(
                        "producer rank {p} never terminates its flow and the drain waits \
                         unboundedly for its Term: every consumer hangs"
                    ),
                });
            }
            (Drain::OperateOutcome, Some(_)) => {
                findings.push(Finding {
                    code: "SC003",
                    severity: Severity::Warning,
                    subject: ch.name.clone(),
                    message: format!(
                        "producer rank {p} never terminates its flow: the fault-tolerant \
                         drain completes but wrongly reports it dead, and its element \
                         accounting is lost"
                    ),
                });
            }
        }
    }
    // The Static-routing loss-accounting path (PR 1): with a failure
    // timeout and pinned routing, a consumer death drops that consumer's
    // pinned elements into `StreamStats::lost` instead of re-routing.
    if ch.config.failure_timeout.is_some()
        && matches!(ch.routing, Routing::Static | Routing::Keyed { .. })
    {
        findings.push(Finding {
            code: "SC003",
            severity: Severity::Info,
            subject: ch.name.clone(),
            message: "failure timeout with pinned (static/keyed) routing: a dead consumer's \
                      elements are dropped and counted in StreamStats::lost, not re-routed"
                .into(),
        });
    }
}

/// SC002: dataflow-cycle detection with credit-exhaustion analysis on the
/// rank-level routing graph. Returns whether the graph is acyclic.
fn lint_cycles(topo: &Topology, findings: &mut Vec<Finding>) -> bool {
    // Edges: producer rank -> consumer rank for every routing-reachable
    // pair, labelled with boundedness and the channel it came from.
    struct Edge {
        to: usize,
        bounded: bool,
        chan: usize,
    }
    let mut adj: HashMap<usize, Vec<Edge>> = HashMap::new();
    let mut nodes: BTreeSet<usize> = BTreeSet::new();
    for (chan, ch) in topo.channels.iter().enumerate() {
        let bounded = ch.config.credits.is_some();
        for (pi, &p) in ch.producers.iter().enumerate() {
            for ci in ch.targets_of_producer(pi) {
                let c = ch.consumers[ci];
                adj.entry(p).or_default().push(Edge { to: c, bounded, chan });
                nodes.insert(p);
                nodes.insert(c);
            }
        }
    }

    let sccs = strongly_connected(&nodes, |n| {
        adj.get(&n).map(|es| es.iter().map(|e| e.to).collect()).unwrap_or_default()
    });

    let mut acyclic = true;
    let mut reported: HashSet<Vec<usize>> = HashSet::new();
    for scc in &sccs {
        let set: HashSet<usize> = scc.iter().copied().collect();
        let has_cycle = scc.len() > 1
            || adj.get(&scc[0]).map(|es| es.iter().any(|e| e.to == scc[0])).unwrap_or(false);
        if !has_cycle {
            continue;
        }
        acyclic = false;
        // Channels participating in the cycle (edges inside the SCC).
        let mut chans: BTreeSet<usize> = BTreeSet::new();
        for &n in scc {
            for e in adj.get(&n).into_iter().flatten() {
                if set.contains(&e.to) {
                    chans.insert(e.chan);
                }
            }
        }
        let chan_key: Vec<usize> = chans.iter().copied().collect();
        if !reported.insert(chan_key) {
            continue; // same channel cycle, different SCC: one report is enough
        }
        let names: Vec<&str> = chans.iter().map(|&i| topo.channels[i].name.as_str()).collect();
        // Credit-exhaustion: the cycle can deadlock only if back-pressure
        // propagates all the way around, i.e. a cycle exists using bounded
        // edges alone. An unbounded edge absorbs pressure (at a memory
        // cost) and breaks the blocking chain.
        let bounded_cycle = {
            let bounded_sccs = strongly_connected(&set, |n| {
                adj.get(&n)
                    .map(|es| {
                        es.iter()
                            .filter(|e| e.bounded && set.contains(&e.to))
                            .map(|e| e.to)
                            .collect()
                    })
                    .unwrap_or_default()
            });
            bounded_sccs.iter().any(|s| {
                s.len() > 1
                    || adj
                        .get(&s[0])
                        .map(|es| es.iter().any(|e| e.bounded && e.to == s[0]))
                        .unwrap_or(false)
            })
        };
        if bounded_cycle {
            findings.push(Finding {
                code: "SC002",
                severity: Severity::Error,
                subject: names.join("+"),
                message: format!(
                    "credit-exhaustion deadlock: dataflow cycle through {} rank(s) via \
                     channel(s) [{}] where a cycle of credit-bounded edges exists — once \
                     the windows fill, every endpoint waits for credits nobody can grant",
                    scc.len(),
                    names.join(", ")
                ),
            });
        } else {
            findings.push(Finding {
                code: "SC002",
                severity: Severity::Info,
                subject: names.join("+"),
                message: format!(
                    "dataflow cycle through {} rank(s) via channel(s) [{}] with an \
                     unbounded edge: it cannot credit-deadlock, but buffering on the \
                     unbounded edge is not memory-bounded",
                    scc.len(),
                    names.join(", ")
                ),
            });
        }
    }
    acyclic
}

/// Iterative Kosaraju: strongly connected components of the graph over
/// `nodes` with successor function `succ`. Returns each component as a
/// sorted vector.
fn strongly_connected(
    nodes: &(impl IntoIterator<Item = usize> + Clone),
    succ: impl Fn(usize) -> Vec<usize>,
) -> Vec<Vec<usize>> {
    let node_list: Vec<usize> = nodes.clone().into_iter().collect();
    let node_set: HashSet<usize> = node_list.iter().copied().collect();

    // Pass 1: finish order via iterative DFS.
    let mut visited: HashSet<usize> = HashSet::new();
    let mut order: Vec<usize> = Vec::new();
    for &start in &node_list {
        if visited.contains(&start) {
            continue;
        }
        let mut stack: Vec<(usize, Vec<usize>, usize)> = vec![(start, succ(start), 0)];
        visited.insert(start);
        while let Some((n, succs, i)) = stack.last_mut() {
            if *i < succs.len() {
                let next = succs[*i];
                *i += 1;
                if node_set.contains(&next) && visited.insert(next) {
                    let s = succ(next);
                    stack.push((next, s, 0));
                }
            } else {
                order.push(*n);
                stack.pop();
            }
        }
    }

    // Transpose adjacency.
    let mut rev: HashMap<usize, Vec<usize>> = HashMap::new();
    for &n in &node_list {
        for m in succ(n) {
            if node_set.contains(&m) {
                rev.entry(m).or_default().push(n);
            }
        }
    }

    // Pass 2: reverse DFS in reverse finish order.
    let mut assigned: HashSet<usize> = HashSet::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for &start in order.iter().rev() {
        if assigned.contains(&start) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        assigned.insert(start);
        while let Some(n) = stack.pop() {
            comp.push(n);
            for &m in rev.get(&n).into_iter().flatten() {
                if assigned.insert(m) {
                    stack.push(m);
                }
            }
        }
        comp.sort_unstable();
        sccs.push(comp);
    }
    sccs
}
