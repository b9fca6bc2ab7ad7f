//! Integration tests for the fingerprint-keyed result cache against the real
//! paper registry: golden request-fingerprint values (one per backend) that pin
//! the on-disk cache key format, and cache-served sweeps whose summaries match
//! fresh runs on every headline metric and on the determinism fingerprint.

use std::path::PathBuf;

use pdq_netsim::{FlowSpec, NodeId, SimTime};
use pdq_repro::scenario::{
    request_fingerprint, CachePolicy, ProtocolRegistry, ResultCache, Scenario, SimBackend, Sweep,
    TopologySpec, WorkloadSpec,
};
use pdq_workloads::{DeadlineDist, SizeDist};

fn paper_registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    pdq::register_pdq(&mut registry);
    pdq_baselines::register_baselines(&mut registry);
    registry
}

fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
    let dir = std::env::temp_dir().join(format!("pdq-result-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = ResultCache::open(&dir).unwrap();
    (dir, cache)
}

/// One deterministic scenario per backend. These are also the golden-fingerprint
/// subjects, so they must never drift: any edit here invalidates the pinned
/// values below *by design* (a changed request is a different cache key).
fn packet_scenario() -> Scenario {
    Scenario::new("golden-packet")
        .workload(WorkloadSpec::QueryAggregation {
            flows: 6,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        })
        .protocol("pdq(full)")
        .seed(1)
}

fn flow_scenario() -> Scenario {
    Scenario::new("golden-flow")
        .backend(SimBackend::Flow)
        .workload(WorkloadSpec::QueryAggregation {
            flows: 6,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        })
        .protocol("rcp")
        .seed(2)
}

fn fluid_scenario() -> Scenario {
    let flows = vec![
        FlowSpec::new(1, NodeId(1), NodeId(4), 50_000),
        FlowSpec::new(2, NodeId(2), NodeId(4), 20_000),
        FlowSpec::new(3, NodeId(3), NodeId(4), 80_000),
    ];
    Scenario::new("golden-fluid")
        .backend(SimBackend::Fluid)
        .topology(TopologySpec::SingleBottleneck {
            senders: 3,
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::Manual(flows))
        .stop_at(SimTime::from_secs(60))
        .protocol("tcp")
}

/// The request fingerprint is the cache key: if these pinned values change, every
/// existing cache directory silently becomes a full miss. That must only ever
/// happen through a deliberate spec-format change, never by accident — hence one
/// golden value per backend.
#[test]
fn golden_request_fingerprints_are_pinned_per_backend() {
    for (scenario, golden) in [
        (packet_scenario(), "dca12297213276809dad8f05bbabef85"),
        (flow_scenario(), "28152bf53c172156543db34ab39ae95d"),
        (fluid_scenario(), "aae41ad88647cf7c1e7891b2092ea886"),
    ] {
        assert_eq!(
            request_fingerprint(&scenario),
            golden,
            "request fingerprint drifted for {}",
            scenario.name
        );
    }
    // The fingerprint ignores the display name (overlapping grids share records)
    // but keys on everything else, seed included.
    let renamed = packet_scenario().name("some-other-table-row");
    assert_eq!(
        request_fingerprint(&renamed),
        "dca12297213276809dad8f05bbabef85"
    );
    let reseeded = packet_scenario().seed(99);
    assert_ne!(
        request_fingerprint(&reseeded),
        "dca12297213276809dad8f05bbabef85"
    );
}

/// Store-then-lookup through the real registry: the cached summary reproduces the
/// fresh run's headline metrics and determinism fingerprint, per backend.
#[test]
fn cached_summaries_round_trip_real_runs_on_every_backend() {
    let registry = paper_registry();
    let (dir, cache) = temp_cache("round-trip");
    for scenario in [packet_scenario(), flow_scenario(), fluid_scenario()] {
        let fresh = scenario.run(&registry).unwrap();
        cache.store(&scenario, &fresh).unwrap();
        let cached = cache
            .lookup(&scenario)
            .unwrap_or_else(|| panic!("{}: stored record missed", scenario.name));
        assert_eq!(cached.scenario, fresh.scenario);
        assert_eq!(cached.backend, fresh.backend);
        assert_eq!(cached.flows, fresh.flows);
        assert_eq!(cached.completed, fresh.completed);
        assert_eq!(cached.deadlines_met, fresh.deadlines_met);
        assert_eq!(cached.mean_fct_secs, fresh.mean_fct_secs);
        assert_eq!(cached.goodput_bytes, fresh.goodput_bytes);
        assert_eq!(cached.fingerprint(), fresh.fingerprint());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache-served sweep over the real registry returns the same summaries as the
/// uncached sweep, executing nothing on the second pass.
#[test]
fn cache_served_sweeps_match_uncached_sweeps_cell_for_cell() {
    let registry = paper_registry();
    let (dir, cache) = temp_cache("sweep");
    let sweep = Sweep::new(vec![packet_scenario(), flow_scenario(), fluid_scenario()]);
    let uncached = sweep.run(&registry, 2).unwrap();
    let first = sweep
        .run_cached(&registry, 2, Some(&cache), CachePolicy::ReadWrite, None)
        .unwrap();
    assert_eq!((first.cache_hits, first.executed), (0, 3));
    let second = sweep
        .run_cached(&registry, 2, Some(&cache), CachePolicy::ReadWrite, None)
        .unwrap();
    assert_eq!((second.cache_hits, second.executed), (3, 0));
    for ((fresh, warm), hit) in uncached.iter().zip(&first.summaries).zip(&second.summaries) {
        assert_eq!(fresh.fingerprint(), warm.fingerprint());
        assert_eq!(fresh.fingerprint(), hit.fingerprint());
        assert_eq!(fresh.scenario, hit.scenario);
        assert_eq!(fresh.mean_fct_secs, hit.mean_fct_secs);
        assert_eq!(fresh.end_time, hit.end_time);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The record format is pinned: a record that an earlier build stored for the
/// packet scenario is served by `lookup`, and storing what it serves (or the
/// fresh run it came from) writes back the committed bytes exactly.
#[test]
fn committed_record_is_served_and_restored_byte_for_byte() {
    const RECORD: &str = include_str!("fixtures/dca12297213276809dad8f05bbabef85.record");
    let scenario = packet_scenario();
    let (dir, cache) = temp_cache("fixture");
    let path = cache.record_path(&scenario);
    std::fs::write(&path, RECORD).unwrap();
    let served = cache.lookup(&scenario).expect("committed record is served");
    assert_eq!(served.scenario, scenario.name);
    let fresh = scenario.run(&paper_registry()).unwrap();
    assert_eq!(served.fingerprint(), fresh.fingerprint());
    assert_eq!(served.mean_fct_secs, fresh.mean_fct_secs);
    for summary in [&served, &fresh] {
        std::fs::remove_file(&path).unwrap();
        cache.store(&scenario, summary).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), RECORD);
    }
    std::fs::remove_dir_all(&dir).ok();
}
