//! `ChannelConfig::violations` lists every rule a config breaks, each
//! exactly where it is defined, and `validate()` reports the first of
//! them — the one order both channel creation and `streamcheck` read.

use mpistream::transport::SimDuration;
use mpistream::{ChannelConfig, ConfigError, RoutePolicy};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A config breaking only `rule`, for every rule there is.
fn breaking_only(rule: ConfigError) -> ChannelConfig {
    let base = ChannelConfig::default();
    let replicated = ChannelConfig { replicas: 2, failure_timeout: Some(ms(10)), ..base.clone() };
    // No `_` arm: a new rule needs its case here.
    match rule {
        ConfigError::ZeroGranularity => ChannelConfig { element_bytes: 0, ..base },
        ConfigError::ZeroAggregation => ChannelConfig { aggregation: 0, ..base },
        ConfigError::ZeroCreditWindow => ChannelConfig { credits: Some(0), ..base },
        ConfigError::CreditWindowBelowBatch { credits, aggregation } => {
            ChannelConfig { credits: Some(credits), aggregation, ..base }
        }
        ConfigError::ZeroFailureTimeout => {
            ChannelConfig { failure_timeout: Some(SimDuration::ZERO), ..base }
        }
        ConfigError::ZeroCreditBatch => ChannelConfig { credit_batch: 0, ..base },
        ConfigError::CreditBatchAboveWindow { batch, credits, aggregation } => {
            ChannelConfig { credit_batch: batch, credits: Some(credits), aggregation, ..base }
        }
        ConfigError::ReplicationNeedsStaticRoute => {
            ChannelConfig { route: RoutePolicy::RoundRobin, ..replicated }
        }
        ConfigError::ReplicationWithoutTimeout => {
            ChannelConfig { failure_timeout: None, ..replicated }
        }
        ConfigError::ZeroReplicationPatience => {
            ChannelConfig { replication_patience: Some(SimDuration::ZERO), ..base }
        }
    }
}

#[test]
fn a_config_breaking_one_rule_violates_exactly_that_rule() {
    let rules = [
        ConfigError::ZeroGranularity,
        ConfigError::ZeroAggregation,
        ConfigError::ZeroCreditWindow,
        ConfigError::CreditWindowBelowBatch { credits: 4, aggregation: 8 },
        ConfigError::ZeroFailureTimeout,
        ConfigError::ZeroCreditBatch,
        ConfigError::CreditBatchAboveWindow { batch: 8, credits: 8, aggregation: 2 },
        ConfigError::ReplicationNeedsStaticRoute,
        ConfigError::ReplicationWithoutTimeout,
        ConfigError::ZeroReplicationPatience,
    ];
    for rule in rules {
        let config = breaking_only(rule);
        assert_eq!(config.violations(), [rule], "{config:?}");
        assert_eq!(config.validate(), Err(rule), "{config:?}");
    }
    assert_eq!(ChannelConfig::default().violations(), []);
    assert_eq!(ChannelConfig::default().validate(), Ok(()));
}

#[test]
fn the_credit_batch_rule_is_checked_only_where_it_is_defined() {
    // No window, a zero window, a window below one batch, or no batch:
    // the margin `credits - aggregation + 1` means nothing, so only the
    // degenerate value is reported.
    let cases = [
        (ChannelConfig { credit_batch: 99, ..ChannelConfig::default() }, vec![]),
        (
            ChannelConfig { credits: Some(0), credit_batch: 99, ..ChannelConfig::default() },
            vec![ConfigError::ZeroCreditWindow],
        ),
        (
            ChannelConfig {
                credits: Some(2),
                aggregation: 4,
                credit_batch: 99,
                ..ChannelConfig::default()
            },
            vec![ConfigError::CreditWindowBelowBatch { credits: 2, aggregation: 4 }],
        ),
        (
            ChannelConfig {
                credits: Some(8),
                aggregation: 0,
                credit_batch: 99,
                ..ChannelConfig::default()
            },
            vec![ConfigError::ZeroAggregation],
        ),
        (
            ChannelConfig { credits: Some(8), credit_batch: 0, ..ChannelConfig::default() },
            vec![ConfigError::ZeroCreditBatch],
        ),
    ];
    for (config, want) in cases {
        assert_eq!(config.violations(), want, "{config:?}");
    }
}

#[test]
fn validate_reports_the_first_violation_in_a_pinned_order() {
    let everything = ChannelConfig {
        element_bytes: 0,
        aggregation: 0,
        credits: Some(0),
        route: RoutePolicy::RoundRobin,
        credit_batch: 0,
        failure_timeout: Some(SimDuration::ZERO),
        replicas: 2,
        replication_patience: Some(SimDuration::ZERO),
    };
    let relations = ChannelConfig {
        credits: Some(8),
        aggregation: 2,
        credit_batch: 9,
        route: RoutePolicy::RoundRobin,
        replicas: 2,
        ..ChannelConfig::default()
    };
    let cases = [
        (
            everything,
            vec![
                ConfigError::ZeroGranularity,
                ConfigError::ZeroAggregation,
                ConfigError::ZeroCreditWindow,
                ConfigError::ZeroFailureTimeout,
                ConfigError::ZeroCreditBatch,
                ConfigError::ZeroReplicationPatience,
                ConfigError::ReplicationNeedsStaticRoute,
            ],
        ),
        (
            relations,
            vec![
                ConfigError::CreditBatchAboveWindow { batch: 9, credits: 8, aggregation: 2 },
                ConfigError::ReplicationNeedsStaticRoute,
                ConfigError::ReplicationWithoutTimeout,
            ],
        ),
    ];
    for (config, want) in cases {
        assert_eq!(config.violations(), want, "{config:?}");
        assert_eq!(config.validate(), Err(want[0]), "{config:?}");
    }
}
