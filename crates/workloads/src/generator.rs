//! Flow-set generators combining a pattern, a size distribution, a deadline
//! distribution and an arrival process into concrete [`FlowSpec`]s.

use pdq_netsim::{FlowSpec, NodeId, SimTime};
use pdq_topology::Topology;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::deadlines::DeadlineDist;
use crate::pattern::Pattern;
use crate::sizes::SizeDist;

/// Configuration for a static (all flows known up front) workload over a pattern.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Sending pattern.
    pub pattern: Pattern,
    /// Flow sizes.
    pub sizes: SizeDist,
    /// Flow deadlines (relative to arrival).
    pub deadlines: DeadlineDist,
    /// Number of flows each (sender, receiver) pair carries.
    pub flows_per_pair: usize,
    /// Arrival time of every flow (the paper's aggregation/permutation experiments
    /// start all flows simultaneously).
    pub arrival: SimTime,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            pattern: Pattern::RandomPermutation,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::None,
            flows_per_pair: 1,
            arrival: SimTime::ZERO,
        }
    }
}

/// Generate the query-aggregation workload of §5.2: `n_flows` flows all destined to the
/// aggregator (the topology's last host), assigned to the remaining hosts so that every
/// sender carries either `⌊f/n⌋` or `⌈f/n⌉` flows (footnote 6 of the paper).
///
/// Flow ids start at `first_id` and increase by one per flow.
pub fn query_aggregation_flows(
    topo: &Topology,
    n_flows: usize,
    sizes: &SizeDist,
    deadlines: &DeadlineDist,
    first_id: u64,
    rng: &mut SmallRng,
) -> Vec<FlowSpec> {
    let hosts = &topo.hosts;
    assert!(hosts.len() >= 2);
    let receiver = hosts[hosts.len() - 1];
    let mut senders: Vec<NodeId> = hosts[..hosts.len() - 1].to_vec();
    senders.shuffle(rng);
    let mut flows = Vec::with_capacity(n_flows);
    for k in 0..n_flows {
        let src = senders[k % senders.len()];
        flows.push(make_flow(
            first_id + k as u64,
            src,
            receiver,
            sizes,
            deadlines,
            SimTime::ZERO,
            rng,
        ));
    }
    flows
}

/// Generate a static workload over an arbitrary pattern: every (sender, receiver) pair
/// of the pattern carries `flows_per_pair` flows, all arriving at `cfg.arrival`.
pub fn pattern_flows(
    topo: &Topology,
    cfg: &WorkloadConfig,
    first_id: u64,
    rng: &mut SmallRng,
) -> Vec<FlowSpec> {
    let pairs = cfg.pattern.pairs(topo, rng);
    let mut flows = Vec::with_capacity(pairs.len() * cfg.flows_per_pair);
    let mut id = first_id;
    for (src, dst) in pairs {
        for _ in 0..cfg.flows_per_pair {
            flows.push(make_flow(
                id,
                src,
                dst,
                &cfg.sizes,
                &cfg.deadlines,
                cfg.arrival,
                rng,
            ));
            id += 1;
        }
    }
    flows
}

/// Configuration for a Poisson arrival workload (used by Figure 5).
#[derive(Clone, Debug)]
pub struct PoissonConfig {
    /// Aggregate flow arrival rate over the whole network, in flows per second.
    pub rate_flows_per_sec: f64,
    /// Generate arrivals over `[0, duration)`.
    pub duration: SimTime,
    /// Flow sizes.
    pub sizes: SizeDist,
    /// Deadlines applied to "short" flows (size below `short_flow_threshold_bytes`).
    pub short_deadlines: DeadlineDist,
    /// Flows with at most this many bytes are considered short / deadline-constrained
    /// (the paper uses 40 KB for the VL2-like workload).
    pub short_flow_threshold_bytes: u64,
    /// How source-destination pairs are chosen for each arrival.
    pub pattern: Pattern,
}

/// Generate a dynamic workload: flow arrivals form a Poisson process of the configured
/// aggregate rate; each arrival picks a (src, dst) pair by re-sampling the pattern
/// (for `RandomPermutation` and `StaggeredProb` this matches the paper's "random
/// permutation traffic" with ongoing arrivals). Short flows get deadlines, long flows do
/// not, mirroring §5.3.
pub fn poisson_flows(
    topo: &Topology,
    cfg: &PoissonConfig,
    first_id: u64,
    rng: &mut SmallRng,
) -> Vec<FlowSpec> {
    assert!(cfg.rate_flows_per_sec > 0.0);
    let mut flows = Vec::new();
    let mut t = 0.0f64;
    let mut id = first_id;
    let duration_s = cfg.duration.as_secs_f64();
    // Pre-draw one set of pattern pairs; re-drawn periodically to vary endpoints.
    let mut pairs = cfg.pattern.pairs(topo, rng);
    let mut used = 0usize;
    while t < duration_s {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / cfg.rate_flows_per_sec;
        if t >= duration_s {
            break;
        }
        if used >= pairs.len() {
            pairs = cfg.pattern.pairs(topo, rng);
            used = 0;
        }
        let (src, dst) = pairs[used];
        used += 1;
        let size = cfg.sizes.sample(rng);
        let arrival = SimTime::from_secs_f64(t);
        let deadline = if size <= cfg.short_flow_threshold_bytes {
            cfg.short_deadlines.sample(rng)
        } else {
            None
        };
        let mut spec = FlowSpec::new(id, src, dst, size).with_arrival(arrival);
        if let Some(d) = deadline {
            spec = spec.with_deadline(arrival + d);
        }
        flows.push(spec);
        id += 1;
    }
    flows
}

fn make_flow(
    id: u64,
    src: NodeId,
    dst: NodeId,
    sizes: &SizeDist,
    deadlines: &DeadlineDist,
    arrival: SimTime,
    rng: &mut SmallRng,
) -> FlowSpec {
    let size = sizes.sample(rng);
    let mut spec = FlowSpec::new(id, src, dst, size).with_arrival(arrival);
    if let Some(d) = deadlines.sample(rng) {
        spec = spec.with_deadline(arrival + d);
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdq_netsim::LinkParams;
    use pdq_topology::single_rooted_tree;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn topo() -> Topology {
        single_rooted_tree(4, 3, LinkParams::default(), LinkParams::default())
    }

    #[test]
    fn query_aggregation_balances_senders() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(1);
        let flows = query_aggregation_flows(
            &t,
            25,
            &SizeDist::query(),
            &DeadlineDist::paper_default(),
            0,
            &mut rng,
        );
        assert_eq!(flows.len(), 25);
        let receiver = t.hosts[11];
        let mut per_sender: HashMap<NodeId, usize> = HashMap::new();
        for f in &flows {
            assert_eq!(f.dst, receiver);
            assert!(f.deadline.is_some());
            *per_sender.entry(f.src).or_default() += 1;
        }
        // 25 flows over 11 senders: each sender has 2 or 3.
        assert!(per_sender.values().all(|&c| c == 2 || c == 3));
        // Flow ids are dense starting at 0.
        let mut ids: Vec<u64> = flows.iter().map(|f| f.id.value()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn pattern_flows_respects_flows_per_pair() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = WorkloadConfig {
            pattern: Pattern::RandomPermutation,
            flows_per_pair: 3,
            ..Default::default()
        };
        let flows = pattern_flows(&t, &cfg, 100, &mut rng);
        assert_eq!(flows.len(), 12 * 3);
        assert!(flows.iter().all(|f| f.deadline.is_none()));
        assert!(flows.iter().all(|f| f.arrival == SimTime::ZERO));
        assert_eq!(flows[0].id.value(), 100);
    }

    #[test]
    fn poisson_flows_have_increasing_arrivals_and_short_deadlines() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = PoissonConfig {
            rate_flows_per_sec: 2_000.0,
            duration: SimTime::from_millis(100),
            sizes: SizeDist::vl2_like(),
            short_deadlines: DeadlineDist::paper_default(),
            short_flow_threshold_bytes: 40_000,
            pattern: Pattern::RandomPermutation,
        };
        let flows = poisson_flows(&t, &cfg, 0, &mut rng);
        // Expected ~200 arrivals in 100 ms at 2000/s.
        assert!(flows.len() > 120 && flows.len() < 300, "{}", flows.len());
        let mut last = SimTime::ZERO;
        for f in &flows {
            assert!(f.arrival >= last);
            last = f.arrival;
            assert!(f.arrival < SimTime::from_millis(100));
            if f.size_bytes <= 40_000 {
                assert!(f.deadline.is_some());
                assert!(f.deadline.unwrap() > f.arrival);
            } else {
                assert!(f.deadline.is_none());
            }
            assert_ne!(f.src, f.dst);
        }
    }

    /// Deterministic seeding: every generator must produce an identical flow set
    /// when driven by an identically seeded RNG, and a different one for a
    /// different seed — the experiments and the end-to-end determinism test all
    /// rest on this.
    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let t = topo();
        let poisson_cfg = PoissonConfig {
            rate_flows_per_sec: 2_000.0,
            duration: SimTime::from_millis(50),
            sizes: SizeDist::vl2_like(),
            short_deadlines: DeadlineDist::paper_default(),
            short_flow_threshold_bytes: 40_000,
            pattern: Pattern::RandomPermutation,
        };
        let generate = |seed: u64| -> Vec<FlowSpec> {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut flows = query_aggregation_flows(
                &t,
                20,
                &SizeDist::query(),
                &DeadlineDist::paper_default(),
                0,
                &mut rng,
            );
            flows.extend(pattern_flows(
                &t,
                &WorkloadConfig::default(),
                1000,
                &mut rng,
            ));
            flows.extend(poisson_flows(&t, &poisson_cfg, 2000, &mut rng));
            flows
        };
        let key = |flows: &[FlowSpec]| -> Vec<(u64, u32, u32, u64, u64, Option<u64>)> {
            flows
                .iter()
                .map(|f| {
                    (
                        f.id.value(),
                        f.src.0,
                        f.dst.0,
                        f.size_bytes,
                        f.arrival.as_nanos(),
                        f.deadline.map(|d| d.as_nanos()),
                    )
                })
                .collect()
        };
        let a = generate(42);
        let b = generate(42);
        assert_eq!(key(&a), key(&b), "same seed must give identical flows");
        let c = generate(43);
        assert_ne!(key(&a), key(&c), "different seed must vary the workload");
    }

    #[test]
    fn poisson_rate_scales_flow_count() {
        let t = topo();
        let mut rng = SmallRng::seed_from_u64(4);
        let base = PoissonConfig {
            rate_flows_per_sec: 1_000.0,
            duration: SimTime::from_millis(200),
            sizes: SizeDist::query(),
            short_deadlines: DeadlineDist::None,
            short_flow_threshold_bytes: 0,
            pattern: Pattern::RandomPermutation,
        };
        let low = poisson_flows(&t, &base, 0, &mut rng).len();
        let mut high_cfg = base.clone();
        high_cfg.rate_flows_per_sec = 4_000.0;
        let high = poisson_flows(&t, &high_cfg, 0, &mut rng).len();
        assert!(high as f64 > 2.5 * low as f64, "low={low} high={high}");
    }
}
