//! Smoke test keeping the `cargo bench` targets runnable without invoking criterion
//! in CI: the figure experiments the benches drive must produce non-empty tables at
//! `Scale::Quick`.

use pdq_bench::{all_experiments, run_experiment, Scale};

#[test]
fn quick_scale_experiments_produce_tables() {
    for name in ["fig3a", "fig5a", "fig9a"] {
        let tables = run_experiment(name, Scale::Quick).expect(name);
        assert!(!tables.is_empty(), "{name} returned no tables");
        for table in &tables {
            assert!(!table.columns.is_empty(), "{name} table has no columns");
            assert!(!table.rows.is_empty(), "{name} table has no rows");
            for row in &table.rows {
                assert_eq!(
                    row.len(),
                    table.columns.len(),
                    "{name} row width mismatch in `{}`",
                    table.title
                );
            }
        }
    }
}

/// The engine-scale perf scenario must stay runnable: `Scale::Large` must exist and
/// compile (it is the ≥10k-flow configuration used for engine benchmarking), and one
/// Quick-sized iteration must produce a sane table without the full cost.
#[test]
fn engine_scale_scenario_smoke() {
    // Compile-time check that the Large configuration is still wired up.
    let large = Scale::Large;
    assert_ne!(large, Scale::Quick);
    let tables = run_experiment("engine_scale", Scale::Quick).expect("engine_scale");
    assert_eq!(tables.len(), 1);
    let table = &tables[0];
    assert_eq!(table.rows.len(), 1);
    let flows: usize = table.rows[0][0].parse().expect("flow count cell");
    let completed: usize = table.rows[0][2].parse().expect("completed cell");
    assert!(flows >= 100, "quick scenario too small: {flows} flows");
    assert!(completed > 0, "no flow completed");
}

/// The WAN pacing scenario must stay runnable: one Quick-sized iteration runs
/// every protocol with pacing off and on, and each row must report a sane,
/// fully-parsed outcome.
#[test]
fn wan_pacing_scenario_smoke() {
    let tables = run_experiment("wan", Scale::Quick).expect("wan");
    assert_eq!(tables.len(), 1);
    let table = &tables[0];
    assert!(table.rows.len() >= 4, "expected >= 2 protocols x off/on");
    for row in &table.rows {
        assert!(row[1] == "on" || row[1] == "off", "bad pacing cell {row:?}");
        let flows: usize = row[2].parse().expect("flow count cell");
        let completed: usize = row[3].parse().expect("completed cell");
        assert!(flows > 0 && completed > 0, "empty WAN run: {row:?}");
    }
}

/// Scaled-down mirror of `benches/event_queue.rs`: the hold loop (pop the minimum,
/// push a replacement) at per-hop and at WAN distances, and the burst drain, must
/// keep the queue consistent — pops in nondecreasing time order, events conserved,
/// telemetry balanced. This keeps the micro-bench's harness logic exercised in CI
/// without criterion.
#[test]
fn event_queue_bench_harness_smoke() {
    use pdq_netsim::event::{EventKind, EventQueue, TimerKind};
    use pdq_netsim::{FlowId, NodeId, SimTime};

    let mut state = 0x9E3779B97F4A7C15u64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let pending = 1_000usize;
    for span_ns in [pending as u64 * 2_500, 60_000_000] {
        let mut q = EventQueue::new();
        for i in 0..pending {
            q.schedule(
                SimTime::from_nanos(lcg() % span_ns),
                EventKind::Timer {
                    node: NodeId((i % 64) as u32),
                    flow: FlowId(i as u64),
                    kind: TimerKind::Rto,
                    token: i as u64,
                    gen: 0,
                },
            );
        }
        // Hold phase.
        let mut last = SimTime::ZERO;
        for _ in 0..5_000 {
            let ev = q.pop().expect("hold queue never empties");
            assert!(ev.at >= last, "pops went backwards in time");
            last = ev.at;
            q.set_now(ev.at);
            q.schedule(ev.at + SimTime::from_nanos(1 + lcg() % span_ns), ev.kind);
            assert_eq!(q.len(), pending);
        }
        // Burst drain.
        let mut drained = 0usize;
        while let Some(ev) = q.pop() {
            assert!(ev.at >= last, "drain went backwards in time");
            last = ev.at;
            drained += 1;
        }
        assert_eq!(drained, pending);
        let stats = q.stats();
        assert_eq!(stats.pushes, stats.pops);
        assert_eq!(stats.peak_pending, pending as u64);
        if span_ns > 26_000_000 {
            // WAN distances: events reach the fine wheel through the coarse wheel.
            assert!(stats.overflow_migrations > 0, "{stats:?}");
        }
    }
}

#[test]
fn bench_covers_only_known_experiments() {
    // The names baked into benches/figures.rs must stay valid experiment names;
    // run_experiment returns None for unknown ones.
    let known = all_experiments();
    let benched = [
        "fig3a",
        "fig3b",
        "fig3c",
        "fig3d",
        "fig3e",
        "fig4a",
        "fig4b",
        "fig5a",
        "fig5b",
        "fig5c",
        "fig6",
        "fig7",
        "fig8a",
        "fig8b",
        "fig8c",
        "fig8d",
        "fig8e",
        "fig9a",
        "fig9b",
        "fig10",
        "fig11a",
        "fig11b",
        "fig11c",
        "fig12",
        "headline",
        "ablation",
        "engine_scale",
        "wan",
    ];
    for name in benched {
        assert!(
            known.contains(&name),
            "bench references unknown experiment {name}"
        );
    }
}
