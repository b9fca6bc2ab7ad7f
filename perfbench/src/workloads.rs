//! The benchmark's workloads and the one execution path every run goes through.
//!
//! Each workload is a fixed list of scenarios committed as plain-text specs under
//! `perfbench/specs/`. The drift tests at the bottom of this file assert that the
//! committed specs still equal the experiment definitions they were taken from, so a
//! later change to an experiment fails the benchmark's tests instead of silently
//! changing what the benchmark measures.
//!
//! [`prepare`] and [`run_prepared`] execute one scenario with the same calls as
//! `pdq_scenario::Scenario::run` on the packet backend, split so that each phase
//! (topology build, workload generation, protocol install, simulation, summary) can
//! be timed from outside the library. The phased-run test checks that the split
//! path reproduces `Scenario::run`.

use std::time::Instant;

use pdq_netsim::{FlowSpec, PacerConfig, ShardAssignment, SimConfig, Simulator};
use pdq_scenario::{ProtocolRegistry, RunSummary, Scenario, ScenarioError, SimBackend, Sweep};
use pdq_topology::{EcmpRouter, Partition};

/// The seed at which the committed specs run unchanged and the pinned outputs apply.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads of the `fig5a_sweep` workload (the benchmark host has two cores).
pub const SWEEP_THREADS: usize = 2;

/// Seeds every fig5a cell runs under in one repetition (the sweep's `--replicate`).
/// The VL2-like sizes are heavy-tailed: one grid's work varies fivefold between
/// seeds, and three draws per repetition steady it.
pub const SWEEP_REPLICATES: usize = 3;

/// Engine shards of the partitioned-engine runs in `dc_large`'s traced iterations.
pub const SHARDS_2: u32 = 2;

const DC_LARGE_SPEC: &str = include_str!("../specs/dc_large.scn");
const WAN_PACED_SPEC: &str = include_str!("../specs/wan_paced.scn");
const FIG5A_SWEEP_SPEC: &str = include_str!("../specs/fig5a_sweep.scn");

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// engine_scale Large: PDQ(Full), 10k flows, 128-host fat-tree, one shard.
    DcLarge,
    /// wan Paper: PDQ(Full) and TCP, paced, on a lossy 60 ms inter-datacenter mesh.
    WanPaced,
    /// The fig5a Quick grid through `Sweep::run_cached` on two threads.
    Fig5aSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DcLarge, Workload::WanPaced, Workload::Fig5aSweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DcLarge => "dc_large",
            Workload::WanPaced => "wan_paced",
            Workload::Fig5aSweep => "fig5a_sweep",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed scenarios at benchmark seed `seed`, before replication.
    fn base(self, seed: u64) -> Vec<Scenario> {
        let text = match self {
            Workload::DcLarge => DC_LARGE_SPEC,
            Workload::WanPaced => WAN_PACED_SPEC,
            Workload::Fig5aSweep => FIG5A_SWEEP_SPEC,
        };
        let stride = self.replicates() as u64;
        parse_specs(text)
            .into_iter()
            .map(|s| {
                let seed = mapped_seed(s.seed, seed, stride);
                s.seed(seed)
            })
            .collect()
    }

    /// Seeds each committed scenario runs under in one repetition.
    pub fn replicates(self) -> usize {
        match self {
            Workload::Fig5aSweep => SWEEP_REPLICATES,
            _ => 1,
        }
    }

    /// Every scenario run of one repetition at benchmark seed `seed`, in run order:
    /// the replicates of a scenario run consecutively under consecutive seeds, as
    /// in `Sweep::run_replicated_cached`.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        let k = self.replicates() as u64;
        self.base(seed)
            .into_iter()
            .flat_map(|s| (0..k).map(move |r| s.clone().seed(s.seed.wrapping_add(r))))
            .collect()
    }

    /// Threads that run the workload's scenarios: the sweep's workers, or one.
    pub fn lanes(self) -> usize {
        match self {
            Workload::DcLarge | Workload::WanPaced => 1,
            Workload::Fig5aSweep => SWEEP_THREADS,
        }
    }
}

/// A committed spec's seed shifted by the benchmark seed, `stride` seeds per step,
/// so that [`DEFAULT_SEED`] reproduces the committed scenario exactly and distinct
/// benchmark seeds never share a replicate seed.
pub fn mapped_seed(spec_seed: u64, seed: u64, stride: u64) -> u64 {
    spec_seed.wrapping_add(seed.wrapping_sub(DEFAULT_SEED).wrapping_mul(stride))
}

/// Parse a spec file holding one or more scenarios separated by `---` lines.
fn parse_specs(text: &str) -> Vec<Scenario> {
    text.split("\n---\n")
        .map(|spec| Scenario::from_spec(spec).expect("committed benchmark spec parses"))
        .collect()
}

/// The grid of the `fig5a_sweep` workload at benchmark seed `seed`, to be run
/// with [`SWEEP_REPLICATES`] replicates.
pub fn sweep(seed: u64) -> Sweep {
    Sweep::new(Workload::Fig5aSweep.base(seed))
}

/// Host-clock boundaries of one phased scenario run.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Before `TopologySpec::build`.
    pub start: Instant,
    /// After the topology is built, before `WorkloadSpec::generate`.
    pub built: Instant,
    /// After the flows are generated, before the protocol is resolved.
    pub generated: Instant,
    /// After protocol install and `add_flows`: the simulator is ready.
    pub installed: Instant,
    /// After the simulation returned.
    pub ran: Instant,
    /// After `RunSummary::new` and `fingerprint()`.
    pub summarized: Instant,
}

impl Phases {
    /// Seconds from the start to a ready simulator.
    pub fn setup_s(&self) -> f64 {
        (self.installed - self.start).as_secs_f64()
    }

    /// Seconds in the simulation call.
    pub fn run_s(&self) -> f64 {
        (self.ran - self.installed).as_secs_f64()
    }
}

/// What a phased run produces: the summary, its fingerprint and the phase clock.
pub struct PhasedRun {
    /// The run's summary (full packet-level results included).
    pub summary: RunSummary,
    /// `summary.fingerprint()`, computed inside the summary phase.
    pub fingerprint: String,
    /// Flows the workload generated.
    pub flows: usize,
    /// Process CPU seconds (user + system, all threads) during the simulation.
    pub cpu_s: f64,
    /// Phase boundaries.
    pub phases: Phases,
}

/// A simulator ready to run: everything `Scenario::run` does before `Simulator::run`.
pub struct Prepared {
    sim: Simulator,
    assignment: Option<ShardAssignment>,
    flows: Vec<FlowSpec>,
    label: String,
    start: Instant,
    built: Instant,
    generated: Instant,
    installed: Instant,
}

impl Prepared {
    /// Seconds from the start to a ready simulator.
    pub fn setup_s(&self) -> f64 {
        (self.installed - self.start).as_secs_f64()
    }
}

/// Set one packet-level scenario up the way `Scenario::run` and
/// `pdq_scenario::execute_sharded` do: build the topology, generate the flows,
/// resolve and install the protocol, add the flows and partition the network.
pub fn prepare(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
) -> Result<Prepared, ScenarioError> {
    if scenario.backend != SimBackend::Packet {
        return Err(ScenarioError::Spec(
            "the benchmark runs the packet backend only".into(),
        ));
    }
    let start = Instant::now();
    let mut topo = scenario.topology.build();
    if let Some(bytes) = scenario.queue_capacity {
        for link in &mut topo.net.links {
            link.queue_capacity_bytes = bytes;
        }
    }
    let built = Instant::now();
    let flows = scenario.workload.generate(&topo, scenario.seed);
    let generated = Instant::now();

    let mut installer = registry.resolve(&scenario.protocol)?;
    if scenario.pacing {
        installer = installer
            .with_pacing(PacerConfig::default())
            .ok_or_else(|| {
                ScenarioError::Spec(format!(
                    "protocol {:?} has no paced variant",
                    scenario.protocol
                ))
            })?;
    }
    let config = SimConfig {
        seed: scenario.seed,
        trace: scenario.trace.clone(),
        max_sim_time: scenario.stop_at,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net.clone(), config);
    sim.set_router(EcmpRouter::new());
    installer.install(&mut sim);
    sim.add_flows(flows.iter().cloned());
    let assignment = (scenario.engine_threads > 1)
        .then(|| Partition::of_topology(&topo, scenario.engine_threads))
        .filter(|p| p.shards() > 1)
        .map(|p| p.to_assignment(&topo.net));
    Ok(Prepared {
        sim,
        assignment,
        flows,
        label: installer.label(),
        start,
        built,
        generated,
        installed: Instant::now(),
    })
}

/// Run a prepared scenario and summarize it, timing the run and the summary.
pub fn run_prepared(scenario: &Scenario, prepared: Prepared) -> PhasedRun {
    let Prepared {
        sim,
        assignment,
        flows,
        label,
        start,
        built,
        generated,
        installed,
    } = prepared;
    let cpu0 = crate::sys::cpu_seconds();
    let results = match &assignment {
        Some(a) => sim.run_sharded(a, |_| Box::new(EcmpRouter::new())),
        None => sim.run(),
    };
    let cpu_s = crate::sys::cpu_seconds() - cpu0;
    let ran = Instant::now();

    let mut summary = RunSummary::new(scenario, label, results);
    summary.attach_coflows(&flows);
    let fingerprint = summary.fingerprint();
    let summarized = Instant::now();

    PhasedRun {
        summary,
        fingerprint,
        flows: flows.len(),
        cpu_s,
        phases: Phases {
            start,
            built,
            generated,
            installed,
            ran,
            summarized,
        },
    }
}

/// [`prepare`] then [`run_prepared`]: one scenario run, every phase timed.
pub fn run_phased(
    scenario: &Scenario,
    registry: &ProtocolRegistry,
) -> Result<PhasedRun, ScenarioError> {
    Ok(run_prepared(scenario, prepare(scenario, registry)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_experiments::common::{default_registry, PDQ_FULL};
    use pdq_experiments::{scalebench, sweeps, wan, Scale};

    fn specs(w: Workload) -> Vec<String> {
        w.base(DEFAULT_SEED).iter().map(Scenario::to_spec).collect()
    }

    fn assert_same(bench: Vec<String>, source: Vec<Scenario>, file: &str) {
        let source: Vec<String> = source.iter().map(Scenario::to_spec).collect();
        assert_eq!(
            bench,
            source,
            "perfbench/specs/{file} has drifted from its experiment definition; \
             the definition now serializes as:\n{}",
            source.join("---\n")
        );
    }

    #[test]
    fn dc_large_matches_engine_scale_large() {
        let source = scalebench::engine_scale_scenario(Scale::Large);
        assert_same(specs(Workload::DcLarge), vec![source], "dc_large.scn");
    }

    #[test]
    fn wan_paced_matches_wan_paper_paced() {
        let source = [PDQ_FULL, "tcp"]
            .map(|p| wan::wan_scenario(Scale::Paper, p, true))
            .to_vec();
        assert_same(specs(Workload::WanPaced), source, "wan_paced.scn");
    }

    #[test]
    fn fig5a_sweep_matches_fig5a_quick_grid() {
        let source = sweeps::fig5a_grid(Scale::Quick).scenarios;
        assert_same(specs(Workload::Fig5aSweep), source, "fig5a_sweep.scn");
    }

    #[test]
    fn seeds_shift_every_scenario_and_never_overlap() {
        for w in Workload::ALL {
            let k = w.replicates() as u64;
            let a = w.scenarios(DEFAULT_SEED);
            let b = w.scenarios(DEFAULT_SEED + 4);
            assert_eq!(a.len(), w.base(DEFAULT_SEED).len() * k as usize);
            for (a, b) in a.iter().zip(&b) {
                assert_eq!(b.seed, a.seed + 4 * k);
            }
        }
        let cells = Workload::Fig5aSweep.scenarios(DEFAULT_SEED);
        let seeds: Vec<u64> = cells
            .iter()
            .take(SWEEP_REPLICATES)
            .map(|s| s.seed)
            .collect();
        assert_eq!(seeds, [7, 8, 9]);
        assert_eq!(mapped_seed(7, 0, 1), 6);
    }

    #[test]
    fn phased_run_reproduces_scenario_run() {
        // Small stand-ins for the workloads: same topology kinds, protocols, pacing
        // and shard counts, at the quick tier.
        let registry = default_registry();
        let mut cases = vec![
            scalebench::engine_scale_scenario(Scale::Quick),
            scalebench::engine_scale_scenario(Scale::Quick).engine_threads(2),
            wan::wan_scenario(Scale::Quick, "tcp", true),
        ];
        cases.extend(
            sweeps::fig5a_grid(Scale::Quick)
                .scenarios
                .into_iter()
                .take(4),
        );
        for s in cases {
            let phased = run_phased(&s, &registry).unwrap();
            let reference = s.run(&registry).unwrap();
            assert_eq!(
                phased.fingerprint,
                reference.fingerprint(),
                "{}",
                s.to_spec()
            );
            assert_eq!(phased.summary.protocol_label, reference.protocol_label);
        }
    }
}
