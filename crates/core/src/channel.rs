//! Stream channels: the communication fabric between decoupled groups.

use desim::SimDuration;
// A channel's tags live in the one tag space every backend shares.
use mpisim::msg::{CODE_CREDIT, CODE_DATA, CODE_REPL, CODE_TAKEOVER, NS_STREAM};

use crate::group::Role;
use crate::transport::{Event, Group, Tag, Transport};

/// How stream elements are routed from producers to consumers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Producer `i` always feeds consumer `i % n_consumers`. Preserves
    /// per-producer ordering at a single consumer and keeps the mapping
    /// cache-friendly; the default in the paper's case studies.
    Static,
    /// Successive elements from one producer rotate over all consumers —
    /// maximal spreading for load balance.
    RoundRobin,
}

/// Configuration of one channel (the knobs of Eq. 4).
#[derive(Clone, Debug)]
pub struct ChannelConfig {
    /// Modelled wire size of one stream element, in bytes — the stream
    /// granularity `S`.
    pub element_bytes: u64,
    /// Elements coalesced into one message on the producer side. `1`
    /// disables aggregation. Raising this trades pipelining fineness
    /// (β(S) in the model) against per-message overhead (D/S · o).
    pub aggregation: usize,
    /// Flow-control window: maximum elements a producer may have
    /// unacknowledged per consumer. `None` = unbounded (buffer at the
    /// consumer can then grow up to the total transferred data `D`;
    /// see the memory discussion in §II-D).
    pub credits: Option<usize>,
    /// Default routing of `Stream::isend`.
    pub route: RoutePolicy,
    /// Elements' worth of credit a consumer accumulates per producer
    /// before acknowledging with a single credit message. `1` (the
    /// default) keeps the original protocol — one credit message per
    /// data batch received. Raising it amortizes the per-message cost of
    /// the return path (one wire message *and*, on the native backend,
    /// one producer wake-up per `credit_batch` elements instead of one
    /// per batch — the same amortization the simulator's wake-hint
    /// protocol applies to receiver wake-ups). Bounded by the credit
    /// window: a batch larger than `credits - aggregation + 1` could
    /// withhold the credit a stalled producer is waiting for
    /// ([`ConfigError::CreditBatchAboveWindow`]). Ignored (no credits
    /// flow at all) when `credits` is `None`.
    pub credit_batch: usize,
    /// Failure-detection timeout. `None` (the default) keeps the original
    /// infallible protocol: endpoints wait forever and a crashed peer
    /// deadlocks the stream. `Some(t)`: a consumer that hears nothing from
    /// a still-open producer for `t` of virtual time declares it dead (see
    /// [`crate::Stream::operate_outcome`]), and a producer whose credit
    /// window stays exhausted for `t` declares the consumer dead and
    /// re-routes (under [`RoutePolicy::RoundRobin`]) or drops elements.
    pub failure_timeout: Option<SimDuration>,
    /// Number of *standby* replicas for the channel's consumer state.
    /// `0` (the default) keeps the original unreplicated protocol and adds
    /// zero overhead. With `replicas = r`, the channel's consumer group
    /// must list `r + 1` ranks: `consumers[0]` is the initial primary and
    /// the rest are standbys running a Viewstamped Replication group
    /// (`crates/replica`). Surviving any single death requires a group
    /// that can still form a majority without the victim, i.e. `r >= 2`.
    /// Requires [`RoutePolicy::Static`]: a replicated channel has one
    /// *logical* consumer, so round-robin spreading (and its loss
    /// accounting) does not apply.
    pub replicas: usize,
    /// How long a standby waits without hearing from the primary before it
    /// starts a view change. Must sit *above* the `t`/`2t` producer/
    /// consumer patience hierarchy so replica failover is the slowest,
    /// most deliberate detector. `None` with `replicas > 0` derives
    /// `4 * failure_timeout`; if `failure_timeout` is also `None` the
    /// config is rejected ([`ConfigError::ReplicationWithoutTimeout`]).
    pub replication_patience: Option<SimDuration>,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            element_bytes: 64 << 10,
            aggregation: 1,
            credits: None,
            route: RoutePolicy::Static,
            credit_batch: 1,
            failure_timeout: None,
            replicas: 0,
            replication_patience: None,
        }
    }
}

/// Why a [`ChannelConfig`] was rejected at channel construction. Each
/// variant is a configuration that would hang or misbehave at runtime —
/// better refused up front with a typed error than discovered when an
/// 8,192-rank simulation stalls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `element_bytes == 0`: the stream granularity `S` must be positive —
    /// a zero-byte element makes every cost model term degenerate.
    ZeroGranularity,
    /// `aggregation == 0`: a message must carry at least one element, or
    /// the producer's flush loop never makes progress.
    ZeroAggregation,
    /// `credits == Some(0)`: a zero-element window can never admit an
    /// element, so the first send blocks forever.
    ZeroCreditWindow,
    /// `credits < aggregation`: the window can never admit one aggregated
    /// batch, so the producer stalls permanently on its first full batch.
    CreditWindowBelowBatch { credits: usize, aggregation: usize },
    /// `failure_timeout == Some(0)`: every peer would be declared dead the
    /// instant the endpoint first waits, partitioning a healthy stream.
    ZeroFailureTimeout,
    /// `credit_batch == 0`: the consumer would accumulate credit forever
    /// and never acknowledge anything.
    ZeroCreditBatch,
    /// `credit_batch > credits - aggregation + 1`: a producer can stall
    /// with as few as `credits - aggregation + 1` elements outstanding,
    /// all of which the consumer may already have processed — if the
    /// accumulation threshold lies above that, the acknowledgement never
    /// flushes and the stream deadlocks.
    CreditBatchAboveWindow { batch: usize, credits: usize, aggregation: usize },
    /// `replicas > 0` with [`RoutePolicy::RoundRobin`]: a replicated
    /// channel has exactly one logical consumer (the replica group), so
    /// round-robin spreading — and the per-consumer loss accounting it
    /// implies — is meaningless and would split the stream across ranks
    /// whose state is supposed to be one replicated whole.
    ReplicationNeedsStaticRoute,
    /// `replicas > 0` with neither `replication_patience` nor
    /// `failure_timeout`: the standbys would have no way to ever suspect a
    /// dead primary, so a primary death hangs the group forever.
    ReplicationWithoutTimeout,
    /// `replication_patience == Some(0)`: the standbys would depose a
    /// healthy primary the instant they first wait.
    ZeroReplicationPatience,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroGranularity => {
                write!(f, "element_bytes is 0: stream granularity must be at least one byte")
            }
            ConfigError::ZeroAggregation => {
                write!(f, "aggregation is 0: a message must carry at least one element")
            }
            ConfigError::ZeroCreditWindow => {
                write!(f, "credits is Some(0): a zero credit window blocks the first send forever")
            }
            ConfigError::CreditWindowBelowBatch { credits, aggregation } => write!(
                f,
                "credit window ({credits}) is smaller than one aggregated batch \
                 ({aggregation} elements): the producer can never send"
            ),
            ConfigError::ZeroFailureTimeout => {
                write!(f, "failure_timeout is Some(0): every peer would be declared dead instantly")
            }
            ConfigError::ZeroCreditBatch => {
                write!(f, "credit_batch is 0: accumulated credit would never be acknowledged")
            }
            ConfigError::CreditBatchAboveWindow { batch, credits, aggregation } => write!(
                f,
                "credit_batch ({batch}) exceeds credits - aggregation + 1 \
                 ({credits} - {aggregation} + 1): a producer stalled on the window \
                 could wait forever for a credit flush that never triggers"
            ),
            ConfigError::ReplicationNeedsStaticRoute => write!(
                f,
                "replicas > 0 requires RoutePolicy::Static: a replicated channel \
                 has one logical consumer (the replica group)"
            ),
            ConfigError::ReplicationWithoutTimeout => write!(
                f,
                "replicas > 0 needs replication_patience or failure_timeout: \
                 without either, a dead primary is never suspected"
            ),
            ConfigError::ZeroReplicationPatience => write!(
                f,
                "replication_patience is Some(0): a healthy primary would be \
                 deposed the instant a standby first waits"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl ChannelConfig {
    /// Check the configuration for values that hang or misbehave at
    /// runtime: the first of [`ChannelConfig::violations`]. Called by
    /// [`StreamChannel::create`]; also usable up front without building a
    /// channel.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.violations().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every rule the configuration breaks, in a fixed order (the order
    /// [`ChannelConfig::validate`] reports the first of). A rule is
    /// checked only where it is defined: the credit-batch margin only when
    /// the window holds at least one batch. `streamcheck`'s static pass
    /// reports exactly these.
    pub fn violations(&self) -> Vec<ConfigError> {
        let mut found = Vec::new();
        if self.element_bytes == 0 {
            found.push(ConfigError::ZeroGranularity);
        }
        if self.aggregation == 0 {
            found.push(ConfigError::ZeroAggregation);
        }
        match self.credits {
            Some(0) => found.push(ConfigError::ZeroCreditWindow),
            Some(c) if c < self.aggregation => found.push(ConfigError::CreditWindowBelowBatch {
                credits: c,
                aggregation: self.aggregation,
            }),
            _ => {}
        }
        if self.failure_timeout == Some(SimDuration::ZERO) {
            found.push(ConfigError::ZeroFailureTimeout);
        }
        if self.credit_batch == 0 {
            found.push(ConfigError::ZeroCreditBatch);
        }
        if let Some(c) = self.credits.filter(|&c| self.aggregation > 0 && c >= self.aggregation) {
            if self.credit_batch > c - self.aggregation + 1 {
                found.push(ConfigError::CreditBatchAboveWindow {
                    batch: self.credit_batch,
                    credits: c,
                    aggregation: self.aggregation,
                });
            }
        }
        if self.replication_patience == Some(SimDuration::ZERO) {
            found.push(ConfigError::ZeroReplicationPatience);
        }
        if self.replicas > 0 {
            if self.route == RoutePolicy::RoundRobin {
                found.push(ConfigError::ReplicationNeedsStaticRoute);
            }
            if self.effective_replication_patience().is_none() {
                found.push(ConfigError::ReplicationWithoutTimeout);
            }
        }
        found
    }

    /// The standbys' failover patience: `replication_patience` when set,
    /// otherwise `4 * failure_timeout` — twice the consumer's `2t`
    /// patience, keeping replica failover the slowest detector in the
    /// `t`/`2t`/patience hierarchy. `None` when neither knob is set.
    pub fn effective_replication_patience(&self) -> Option<SimDuration> {
        self.replication_patience
            .or_else(|| self.failure_timeout.map(|t| SimDuration(t.0.saturating_mul(4))))
    }
}

/// A communication channel between a producer group and a consumer group
/// (`MPIStream_CreateChannel` in the paper). Creation is collective over
/// a [`Group`]; every member declares its [`Role`]. The channel itself is
/// backend-free — plain rank lists, a config and a tag namespace — so the
/// same value describes a simulated or a native channel (and feeds
/// `streamcheck` topology extraction either way).
#[derive(Clone, Debug)]
pub struct StreamChannel {
    pub(crate) id: u16,
    pub(crate) producers: Vec<usize>,
    pub(crate) consumers: Vec<usize>,
    pub(crate) my_role: Role,
    pub(crate) config: ChannelConfig,
}

impl StreamChannel {
    /// Collectively create a channel over `group`. Each rank passes its
    /// own role; the membership lists are agreed through an allgather, and
    /// the channel id is allocated world-uniquely and broadcast.
    pub fn create<TP: Transport>(
        rank: &mut TP,
        group: &TP::Group,
        role: Role,
        config: ChannelConfig,
    ) -> StreamChannel {
        match StreamChannel::try_create(rank, group, role, config) {
            Ok(ch) => ch,
            Err(e) => panic!("invalid ChannelConfig: {e}"),
        }
    }

    /// [`StreamChannel::create`] returning the typed [`ConfigError`] instead
    /// of panicking on an invalid configuration. Validation happens before
    /// any communication, so a rejected config leaves the communicator in a
    /// usable state on every rank (all ranks see the same config and reject
    /// identically).
    pub fn try_create<TP: Transport>(
        rank: &mut TP,
        group: &TP::Group,
        role: Role,
        config: ChannelConfig,
    ) -> Result<StreamChannel, ConfigError> {
        config.validate()?;
        let code = match role {
            Role::Producer => 0u8,
            Role::Consumer => 1,
            Role::Bystander => 2,
        };
        let roles = rank.allgatherv(group, 1, (rank.world_rank(), code));
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for (w, c) in roles {
            match c {
                0 => producers.push(w),
                1 => consumers.push(w),
                _ => {}
            }
        }
        producers.sort_unstable();
        consumers.sort_unstable();
        assert!(!producers.is_empty(), "channel needs at least one producer");
        assert!(!consumers.is_empty(), "channel needs at least one consumer");
        assert!(
            config.replicas == 0 || consumers.len() == config.replicas + 1,
            "replicated channel declares {} replicas but {} consumer ranks joined \
             (the consumer group IS the replica group: primary + standbys)",
            config.replicas,
            consumers.len(),
        );
        let id = if group.rank_of(rank.world_rank()) == Some(0) {
            Some(rank.alloc_channel_id())
        } else {
            None
        };
        let id = rank.bcast(group, 0, 2, id);
        let ch = StreamChannel { id, producers, consumers, my_role: role, config };
        // Sanitizer: every member registers the channel's flow-control
        // parameters (idempotent) so credit audits and the orphan scan can
        // classify this channel's traffic. A no-op on backends without a
        // checker.
        let window = ch.config.credits.map(|c| c as u64);
        rank.observe(Event::RegisterChannel { id: ch.id, window, credit_tag: ch.credit_tag() });
        Ok(ch)
    }

    /// World ranks of the producer group.
    pub fn producers(&self) -> &[usize] {
        &self.producers
    }

    /// World ranks of the consumer group.
    pub fn consumers(&self) -> &[usize] {
        &self.consumers
    }

    /// This rank's role on the channel.
    pub fn role(&self) -> Role {
        self.my_role
    }

    /// Channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// World-unique channel id (the key profiling and sanitizer hooks use
    /// to attribute traffic to this channel).
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Tag carrying this channel's data batches ([`crate::StreamMsg`]
    /// frames). Public so replication drivers (`crates/replica`) can run
    /// their own receive loops over the same wire protocol.
    pub fn data_tag(&self) -> Tag {
        Tag::internal(NS_STREAM, self.id, CODE_DATA)
    }

    /// Tag carrying this channel's credit acknowledgements, consumer to
    /// producer: bare `u64` element counts on unreplicated channels,
    /// view-stamped `CreditMsg` envelopes on replicated ones
    /// (`crates/replica`).
    pub fn credit_tag(&self) -> Tag {
        Tag::internal(NS_STREAM, self.id, CODE_CREDIT)
    }

    /// Tag carrying replica-group traffic (VSR prepare/prepare-ok/commit/
    /// view-change messages) between the channel's consumer ranks.
    pub fn repl_tag(&self) -> Tag {
        Tag::internal(NS_STREAM, self.id, CODE_REPL)
    }

    /// Tag carrying takeover announcements and term acknowledgements from
    /// the replica group's current primary to the producers.
    pub fn takeover_tag(&self) -> Tag {
        Tag::internal(NS_STREAM, self.id, CODE_TAKEOVER)
    }

    /// The replica group's world ranks (the consumer list) when the
    /// channel is replicated (`config.replicas > 0`); `None` otherwise.
    /// `consumers[0]` is the view-0 primary.
    pub fn replica_group(&self) -> Option<&[usize]> {
        if self.config.replicas > 0 {
            Some(&self.consumers)
        } else {
            None
        }
    }
}
