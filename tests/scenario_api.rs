//! Integration tests for the declarative Scenario API: spec round-trips that
//! reproduce identical run results, a test-only dummy protocol installed through the
//! registry, and sweep determinism across thread counts.

use std::num::NonZeroUsize;
use std::sync::Arc;

use pdq_netsim::{
    Ctx, FlowId, FlowInfo, HostAgent, Packet, PacketKind, SimTime, Simulator, TimerKind,
};
use pdq_scenario::{
    GridBuilder, ProtocolInstaller, ProtocolRegistry, Scenario, ScenarioError, SimBackend, Sweep,
    TopologySpec, WorkloadSpec,
};
use pdq_workloads::{DeadlineDist, Pattern, SizeDist};

fn paper_registry() -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    pdq::register_pdq(&mut registry);
    pdq_baselines::register_baselines(&mut registry);
    registry
}

/// Every committed spec file parses, and its key lines are exactly the lines
/// `to_spec` writes back: the files stay in canonical form, so they double as
/// format fixtures. The benchmark's files hold several scenarios separated by
/// `---` lines, split the way the benchmark splits them.
#[test]
fn committed_specs_parse_and_stay_canonical() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["specs", "perfbench/specs"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "scn") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 8, "{files:?}");
    let key_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .map(String::from)
            .collect()
    };
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        for block in text.split("\n---\n") {
            let scenario = Scenario::from_spec(block)
                .unwrap_or_else(|e| panic!("{}: {e}\n{block}", path.display()));
            assert_eq!(
                key_lines(block),
                key_lines(&scenario.to_spec()),
                "{}",
                path.display()
            );
        }
    }
}

/// Build → serialize → parse → run must give the identical run, for every workload
/// family a figure uses.
#[test]
fn spec_round_trip_reproduces_identical_runs() {
    let registry = paper_registry();
    let scenarios = vec![
        Scenario::new("qa")
            .workload(WorkloadSpec::QueryAggregation {
                flows: 6,
                sizes: SizeDist::query(),
                deadlines: DeadlineDist::paper_default(),
            })
            .protocol("pdq(full)"),
        Scenario::new("pattern")
            .workload(WorkloadSpec::Pattern {
                pattern: Pattern::RandomPermutation,
                sizes: SizeDist::UniformMean(100_000),
                deadlines: DeadlineDist::None,
                flows_per_pair: 1,
            })
            .protocol("rcp")
            .seed(3),
        Scenario::new("poisson")
            .workload(WorkloadSpec::Poisson {
                rate_flows_per_sec: 800.0,
                duration: SimTime::from_millis(40),
                sizes: SizeDist::vl2_like(),
                short_deadlines: DeadlineDist::paper_default(),
                short_flow_threshold_bytes: 40_000,
                pattern: Pattern::RandomPermutation,
            })
            .protocol("d3")
            .seed(7),
        Scenario::new("mp")
            .topology(TopologySpec::BCube { n: 2, k: 2 })
            .workload(WorkloadSpec::PermutationAtLoad {
                load: 0.5,
                sizes: SizeDist::UniformMean(200_000),
                deadlines: DeadlineDist::None,
            })
            .protocol("mpdq(2)")
            .seed(4),
    ];
    for scenario in scenarios {
        let text = scenario.to_spec();
        let parsed = Scenario::from_spec(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
        assert_eq!(parsed, scenario, "{text}");
        let a = scenario.run(&registry).unwrap();
        let b = parsed.run(&registry).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "round-tripped spec must reproduce the run: {}",
            scenario.name
        );
        assert!(a.flows > 0, "{} generated no flows", scenario.name);
    }
}

/// `backend = flow` scenarios round-trip through the spec format and reproduce the
/// identical run — including the fingerprint — for every protocol with a flow-level
/// model.
#[test]
fn flow_backend_spec_round_trip_and_fingerprint_determinism() {
    let registry = paper_registry();
    let base = Scenario::new("flow")
        .backend(SimBackend::Flow)
        .topology(TopologySpec::FatTree { hosts: 16 })
        .workload(WorkloadSpec::Pattern {
            pattern: Pattern::RandomPermutation,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
            flows_per_pair: 2,
        })
        .seed(5)
        .stop_at(SimTime::from_secs(60));
    for protocol in ["pdq(full)", "pdq(basic)", "pdq(full;aging=2)", "rcp", "d3"] {
        let scenario = base.clone().protocol(protocol);
        let text = scenario.to_spec();
        assert!(text.contains("backend = flow"), "{text}");
        let parsed = Scenario::from_spec(&text).unwrap_or_else(|e| panic!("{text}\n{e}"));
        assert_eq!(parsed, scenario, "{text}");
        let a = scenario.run(&registry).unwrap();
        let b = parsed.run(&registry).unwrap();
        assert_eq!(a.backend, SimBackend::Flow);
        assert!(a.flows > 0 && a.completed > 0, "{protocol}");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "round-tripped flow spec must reproduce the run: {protocol}"
        );
        // Fingerprints are deterministic across repeated runs (the flow results
        // live in a HashMap — the digest must not depend on iteration order).
        assert_eq!(
            a.fingerprint(),
            scenario.run(&registry).unwrap().fingerprint()
        );
    }
}

/// Protocols without a flow-level model reject `backend = flow` scenarios with an
/// error naming the families that do support it.
#[test]
fn flow_backend_rejects_packet_only_protocols() {
    let registry = paper_registry();
    for protocol in ["tcp", "mpdq(3)", "pdq(full;random)"] {
        let err = Scenario::new("x")
            .backend(SimBackend::Flow)
            .protocol(protocol)
            .run(&registry)
            .unwrap_err();
        let ScenarioError::Backend {
            backend, supported, ..
        } = &err
        else {
            panic!("wrong error for {protocol}: {err:?}")
        };
        assert_eq!(*backend, SimBackend::Flow);
        assert_eq!(
            supported,
            &vec!["d3".to_string(), "pdq".to_string(), "rcp".to_string()]
        );
        let msg = err.to_string();
        assert!(msg.contains("flow") && msg.contains("pdq"), "{msg}");
    }
}

/// Replicating a sweep cell across more seeds tightens the 95% confidence
/// interval: the CI half-width with 8 seeds must be below the 2-seed one.
#[test]
fn replication_shrinks_the_confidence_interval() {
    let registry = paper_registry();
    let sweep = GridBuilder::new(
        Scenario::new("ci")
            .workload(WorkloadSpec::QueryAggregation {
                flows: 6,
                sizes: SizeDist::query(),
                deadlines: DeadlineDist::paper_default(),
            })
            .protocol("rcp"),
    )
    .build()
    .unwrap();

    let few = sweep
        .run_replicated(&registry, 2, NonZeroUsize::new(2).unwrap())
        .unwrap();
    let many = sweep
        .run_replicated(&registry, 2, NonZeroUsize::new(8).unwrap())
        .unwrap();
    assert_eq!(few.len(), 1);
    assert_eq!(many.len(), 1);
    assert_eq!(few[0].seeds, vec![1, 2]);
    assert_eq!(many[0].seeds, (1..=8).collect::<Vec<u64>>());
    let few_stats = few[0].mean_fct_stats().unwrap();
    let many_stats = many[0].mean_fct_stats().unwrap();
    assert!(few_stats.ci95 > 0.0, "seeds must produce distinct FCTs");
    assert!(
        many_stats.ci95 < few_stats.ci95,
        "8-seed CI ({}) must be tighter than the 2-seed CI ({})",
        many_stats.ci95,
        few_stats.ci95
    );
    // Replication is thread-count independent, like plain sweeps: identical runs
    // per fingerprint (the metric floats may differ in the last ulp because
    // per-flow sums iterate a hash map).
    let serial = sweep
        .run_replicated(&registry, 1, NonZeroUsize::new(8).unwrap())
        .unwrap();
    for (a, b) in serial[0].runs.iter().zip(&many[0].runs) {
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
    let serial_stats = serial[0].mean_fct_stats().unwrap();
    assert!((serial_stats.mean - many_stats.mean).abs() <= 1e-12 * many_stats.mean.abs());
}

// A test-only dummy protocol: blast every flow in one burst, complete on receipt.
// It exercises the full open-registry path — nothing in the scenario crate or the
// experiment harness knows about it.
struct Blast;

impl HostAgent for Blast {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        let mut off = 0;
        while off < flow.spec.size_bytes {
            let pay = (flow.spec.size_bytes - off).min(1444) as u32;
            ctx.send(Packet::data(
                flow.spec.id,
                flow.spec.src,
                flow.spec.dst,
                off,
                pay,
            ));
            off += pay as u64;
        }
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        if packet.kind == PacketKind::Data {
            let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
            if packet.seq + packet.payload as u64 >= size {
                ctx.flow_completed(packet.flow);
            }
        }
    }
    fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
}

struct BlastInstaller;

impl ProtocolInstaller for BlastInstaller {
    fn name(&self) -> String {
        "blast".into()
    }
    fn label(&self) -> String {
        "Blast (test dummy)".into()
    }
    fn install(&self, sim: &mut Simulator) {
        sim.install_agents(|_, _| Box::new(Blast));
    }
}

/// A third-party protocol registered at runtime runs through the same scenario path
/// as the built-in schemes.
#[test]
fn dummy_protocol_installs_through_the_registry() {
    let mut registry = paper_registry();
    registry.register_instance(Arc::new(BlastInstaller));

    let scenario = Scenario::new("dummy")
        .topology(TopologySpec::SingleBottleneck {
            senders: 3,
            access_loss: 0.0,
        })
        .workload(WorkloadSpec::QueryAggregation {
            flows: 3,
            sizes: SizeDist::Fixed(30_000),
            deadlines: DeadlineDist::None,
        })
        .protocol("blast");
    let summary = scenario.run(&registry).unwrap();
    assert_eq!(summary.completed, 3);
    assert_eq!(summary.protocol_label, "Blast (test dummy)");

    // The same spec string survives serialization and still resolves.
    let parsed = Scenario::from_spec(&scenario.to_spec()).unwrap();
    assert_eq!(parsed.run(&registry).unwrap().completed, 3);

    // But an unregistered registry rejects it with the available list.
    let err = scenario.run(&paper_registry()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("blast") && msg.contains("pdq"), "{msg}");
}

/// The sweep runner must return identical summaries in identical order regardless of
/// the worker thread count.
#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let registry = paper_registry();
    let base = Scenario::new("grid").workload(WorkloadSpec::QueryAggregation {
        flows: 5,
        sizes: SizeDist::query(),
        deadlines: DeadlineDist::paper_default(),
    });
    let sweep = Sweep::grid(&base, &["pdq(full)", "tcp"], &[1, 2, 3]);
    assert_eq!(sweep.len(), 6);

    let single = sweep.run(&registry, 1).unwrap();
    for threads in [2, 4, 8] {
        let multi = sweep.run(&registry, threads).unwrap();
        assert_eq!(single.len(), multi.len());
        for (a, b) in single.iter().zip(&multi) {
            assert_eq!(a.scenario, b.scenario, "order must be scenario order");
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{threads}-thread run diverged on {}",
                a.scenario
            );
        }
    }
    // And the grid actually varies what it should: same protocol, different seeds
    // give different workloads.
    assert_ne!(single[0].fingerprint(), single[1].fingerprint());
}
