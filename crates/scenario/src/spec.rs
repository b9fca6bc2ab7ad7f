//! Declarative topology and workload specifications.
//!
//! [`TopologySpec`] and [`WorkloadSpec`] are plain-data descriptions that a
//! [`crate::Scenario`] serializes into its plain-text spec and materializes at run
//! time. They cover every setup the paper's figures use; workload generation
//! reproduces the experiment harness' historical RNG draw order exactly, so a spec
//! plus a seed pins down the flow set byte for byte.

use pdq_netsim::{CoflowId, CoflowTag, FlowSpec, LinkParams, NodeId, SimTime};
use pdq_topology::{
    bcube::{bcube, bcube_levels_for, bcube_servers, bcube_with_at_least},
    fattree::{fat_tree_degree_for, fat_tree_with_at_least},
    jellyfish::{jellyfish_paper_config, paper_config_hosts as jellyfish_paper_config_hosts},
    single::{default_paper_tree, single_bottleneck, single_bottleneck_with_access_loss},
    wan::{wan, WanParams},
    Topology,
};
use pdq_workloads::{
    coflow_flows, coflow_set, pattern_flows, poisson_flows, query_aggregation_flows, CoflowConfig,
    DeadlineDist, Pattern, PoissonConfig, SizeDist, WorkloadConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kv::{Kv, Writer};

/// Hosts in the paper's default tree ([`TopologySpec::PaperTree`], Figure 2a).
const PAPER_TREE_HOSTS: usize = 12;

/// A buildable topology. All variants use default (paper) link parameters; the only
/// link-level variation the figures need — access-link loss — is part of
/// [`TopologySpec::SingleBottleneck`].
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// The paper's default 12-server single-rooted tree (Figure 2a).
    PaperTree,
    /// `senders` hosts behind one switch sending to a single receiver (Figure 2b),
    /// optionally with random loss on the shared access link (Figure 9).
    SingleBottleneck {
        /// Number of sending hosts.
        senders: usize,
        /// Loss rate injected on the switch↔receiver link, both directions.
        access_loss: f64,
    },
    /// Smallest three-level fat-tree with at least `hosts` hosts (Figure 8).
    FatTree {
        /// Minimum host count.
        hosts: usize,
    },
    /// `bcube(n, k)`: BCube with the given level count and switch port count
    /// (Figure 11 uses BCube(2,3)).
    BCube {
        /// BCube level parameter `n`.
        n: usize,
        /// Switch port count `k`.
        k: usize,
    },
    /// Smallest BCube with `n`-port switches and at least `hosts` hosts (Figure 8c).
    BCubeHosts {
        /// Minimum host count.
        hosts: usize,
        /// Switch port count.
        n: usize,
    },
    /// Jellyfish at the paper's 2:1 network:server port ratio with at least `hosts`
    /// hosts, wired with the given graph seed (Figure 8d).
    Jellyfish {
        /// Minimum host count.
        hosts: usize,
        /// Random-graph wiring seed.
        seed: u64,
    },
    /// Inter-datacenter WAN: `sites` site switches in a heterogeneous full
    /// long-haul mesh (10–100 ms RTTs, BDP-scaled queues, optional per-link
    /// loss), `hosts_per_site` hosts per site. See `pdq_topology::wan`.
    Wan {
        /// Number of datacenter sites.
        sites: usize,
        /// Hosts per site.
        hosts_per_site: usize,
        /// Round-trip propagation of the longest site pair, milliseconds.
        rtt_ms: f64,
        /// Line rate of the slowest long-haul pair, Gbit/s.
        gbps: f64,
        /// Random loss probability on every long-haul direction.
        loss_rate: f64,
    },
}

impl TopologySpec {
    /// Build the topology.
    pub fn build(&self) -> Topology {
        let link = LinkParams::default();
        match *self {
            TopologySpec::PaperTree => default_paper_tree(),
            TopologySpec::SingleBottleneck {
                senders,
                access_loss,
            } => {
                if access_loss > 0.0 {
                    single_bottleneck_with_access_loss(senders, link, access_loss)
                } else {
                    single_bottleneck(senders, link)
                }
            }
            TopologySpec::FatTree { hosts } => fat_tree_with_at_least(hosts, link),
            TopologySpec::BCube { n, k } => bcube(n, k, link),
            TopologySpec::BCubeHosts { hosts, n } => bcube_with_at_least(hosts, n, link),
            TopologySpec::Jellyfish { hosts, seed } => jellyfish_paper_config(hosts, seed, link),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            } => wan(WanParams {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            }),
        }
    }

    /// The largest topology a spec may build, in hosts: a k = 64 fat-tree, 64× the
    /// largest committed scenario (engine_scale Huge, 1024 hosts). A mistyped size
    /// then fails validation at once instead of trying to allocate the topology.
    pub const MAX_HOSTS: usize = 65_536;

    /// The number of hosts [`TopologySpec::build`] makes, computed from the
    /// parameters alone; `None` if it overflows `usize` or no topology fits (a
    /// BCube with fewer than 2 switch ports).
    pub fn host_count(&self) -> Option<usize> {
        match *self {
            TopologySpec::PaperTree => Some(PAPER_TREE_HOSTS),
            TopologySpec::SingleBottleneck { senders, .. } => senders.checked_add(1),
            TopologySpec::FatTree { hosts } => fat_tree_degree_for(hosts)
                .and_then(|k| k.checked_pow(3))
                .map(|c| c / 4),
            TopologySpec::BCube { n, k } => bcube_servers(n, k),
            TopologySpec::BCubeHosts { hosts, n } => {
                bcube_levels_for(hosts, n).and_then(|k| bcube_servers(n, k))
            }
            TopologySpec::Jellyfish { hosts, .. } => jellyfish_paper_config_hosts(hosts),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                ..
            } => sites.checked_mul(hosts_per_site),
        }
    }

    /// Check the parameters against their documented ranges, so that a bad spec is
    /// an error instead of a panic (or a hang) in [`TopologySpec::build`]: BCube
    /// switches need at least 2 ports, a single bottleneck needs a sender and an
    /// access loss rate in [0, 1), a WAN must pass [`WanParams::validate`], a
    /// requested host count must be at least 2, and the built topology may have at
    /// most [`TopologySpec::MAX_HOSTS`] hosts.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            TopologySpec::SingleBottleneck {
                senders,
                access_loss,
            } => {
                if senders == 0 {
                    return Err("a single bottleneck needs at least one sender".into());
                }
                if !(0.0..1.0).contains(&access_loss) {
                    return Err(format!(
                        "access loss rate must be in [0, 1), got {access_loss}"
                    ));
                }
            }
            TopologySpec::BCube { n, .. } | TopologySpec::BCubeHosts { n, .. } if n < 2 => {
                return Err(format!(
                    "BCube switch port count must be at least 2, got {n}"
                ))
            }
            TopologySpec::FatTree { hosts }
            | TopologySpec::BCubeHosts { hosts, .. }
            | TopologySpec::Jellyfish { hosts, .. }
                if hosts < 2 =>
            {
                return Err(format!("a topology needs at least 2 hosts, got {hosts}"))
            }
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            } => WanParams {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            }
            .validate()?,
            _ => {}
        }
        match self.host_count() {
            Some(hosts) if hosts <= Self::MAX_HOSTS => Ok(()),
            _ => Err(format!(
                "topology is larger than the {} hosts a spec may build",
                Self::MAX_HOSTS
            )),
        }
    }

    /// One-token spec form, parseable back via [`TopologySpec::parse`].
    pub fn spec_token(&self) -> String {
        match *self {
            TopologySpec::PaperTree => "paper_tree".into(),
            TopologySpec::SingleBottleneck {
                senders,
                access_loss,
            } => {
                if access_loss > 0.0 {
                    format!("single_bottleneck:{senders}:loss={access_loss}")
                } else {
                    format!("single_bottleneck:{senders}")
                }
            }
            TopologySpec::FatTree { hosts } => format!("fat_tree:{hosts}"),
            TopologySpec::BCube { n, k } => format!("bcube:{n}:{k}"),
            TopologySpec::BCubeHosts { hosts, n } => format!("bcube_hosts:{hosts}:{n}"),
            TopologySpec::Jellyfish { hosts, seed } => format!("jellyfish:{hosts}:{seed}"),
            TopologySpec::Wan {
                sites,
                hosts_per_site,
                rtt_ms,
                gbps,
                loss_rate,
            } => {
                if loss_rate > 0.0 {
                    format!("wan:{sites}:{hosts_per_site}:{rtt_ms}:{gbps}:loss={loss_rate}")
                } else {
                    format!("wan:{sites}:{hosts_per_site}:{rtt_ms}:{gbps}")
                }
            }
        }
    }

    /// Parse the [`TopologySpec::spec_token`] form, rejecting out-of-range
    /// parameters (see [`TopologySpec::validate`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad = || format!("unrecognized topology: {s:?}");
        if s == "paper_tree" {
            return Ok(TopologySpec::PaperTree);
        }
        let mut parts = s.split(':');
        let kind = parts.next().ok_or_else(bad)?;
        let next_usize = |parts: &mut std::str::Split<'_, char>| -> Result<usize, String> {
            parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
        };
        let spec = match kind {
            "single_bottleneck" => {
                let senders = next_usize(&mut parts)?;
                let access_loss = match parts.next() {
                    None => 0.0,
                    Some(arg) => arg
                        .strip_prefix("loss=")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(bad)?,
                };
                TopologySpec::SingleBottleneck {
                    senders,
                    access_loss,
                }
            }
            "fat_tree" => TopologySpec::FatTree {
                hosts: next_usize(&mut parts)?,
            },
            "bcube" => TopologySpec::BCube {
                n: next_usize(&mut parts)?,
                k: next_usize(&mut parts)?,
            },
            "bcube_hosts" => TopologySpec::BCubeHosts {
                hosts: next_usize(&mut parts)?,
                n: next_usize(&mut parts)?,
            },
            "jellyfish" => {
                let hosts = next_usize(&mut parts)?;
                let seed = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
                TopologySpec::Jellyfish { hosts, seed }
            }
            "wan" => {
                let sites = next_usize(&mut parts)?;
                let hosts_per_site = next_usize(&mut parts)?;
                let mut next_f64 = || -> Result<f64, String> {
                    parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())
                };
                let rtt_ms = next_f64()?;
                let gbps = next_f64()?;
                let loss_rate = match parts.next() {
                    None => 0.0,
                    Some(arg) => arg
                        .strip_prefix("loss=")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(bad)?,
                };
                TopologySpec::Wan {
                    sites,
                    hosts_per_site,
                    rtt_ms,
                    gbps,
                    loss_rate,
                }
            }
            _ => return Err(bad()),
        };
        if parts.next().is_some() {
            return Err(bad());
        }
        spec.validate()
            .map_err(|e| format!("topology {s:?}: {e}"))?;
        Ok(spec)
    }
}

/// A generatable workload: everything a run needs to materialize its flow set from a
/// topology and a seed.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Query aggregation (§5.2): `flows` flows, all towards the topology's last host.
    QueryAggregation {
        /// Number of flows.
        flows: usize,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadline distribution.
        deadlines: DeadlineDist,
    },
    /// A static pattern workload: every pattern pair carries `flows_per_pair` flows,
    /// all arriving at time zero (Figures 4 and 8).
    Pattern {
        /// Sending pattern.
        pattern: Pattern,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadline distribution.
        deadlines: DeadlineDist,
        /// Flows per (sender, receiver) pair.
        flows_per_pair: usize,
    },
    /// Poisson flow arrivals over a pattern; short flows get deadlines (Figure 5).
    Poisson {
        /// Aggregate arrival rate over the whole network, flows per second.
        rate_flows_per_sec: f64,
        /// Arrivals are generated over `[0, duration)`.
        duration: SimTime,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadlines applied to flows at or below the short-flow threshold.
        short_deadlines: DeadlineDist,
        /// Flows of at most this many bytes count as short / deadline-constrained.
        short_flow_threshold_bytes: u64,
        /// How (src, dst) pairs are drawn.
        pattern: Pattern,
    },
    /// Random-permutation traffic at a fractional load: only `load × hosts` senders
    /// transmit, one flow each (Figure 11).
    PermutationAtLoad {
        /// Fraction of hosts that send, in `(0, 1]`.
        load: f64,
        /// Flow-size distribution.
        sizes: SizeDist,
        /// Deadline distribution (deadlines are absolute; arrivals are at time zero).
        deadlines: DeadlineDist,
    },
    /// `flows` flows between random distinct host pairs with arrivals spread uniformly
    /// over `[0, spread]` — the engine-scale stress scenario.
    RandomPairs {
        /// Number of flows.
        flows: usize,
        /// Arrival spread.
        spread: SimTime,
        /// Flow-size distribution.
        sizes: SizeDist,
    },
    /// Coflow-structured aggregation traffic: `coflows` groups of `width` member
    /// flows each, every group converging on one reducer host, with Poisson group
    /// arrivals and optional per-coflow deadlines. Emitted flows carry a
    /// [`CoflowTag`], so coflow-aware schedulers and CCT metrics can recover
    /// membership.
    Coflow {
        /// Number of coflows.
        coflows: usize,
        /// Member flows per coflow (aggregation fan-in).
        width: usize,
        /// Coflow arrival rate (Poisson); `<= 0` starts every coflow at time zero.
        rate_coflows_per_sec: f64,
        /// Member flow-size distribution.
        sizes: SizeDist,
        /// Per-coflow deadline distribution (relative to the coflow's arrival).
        deadlines: DeadlineDist,
    },
    /// An explicit flow list (node ids refer to the built topology).
    Manual(Vec<FlowSpec>),
}

impl WorkloadSpec {
    /// Materialize the flow set on `topo`, deterministically in `seed`.
    ///
    /// Flow ids start at 1. Each variant reproduces the exact RNG draw order the
    /// corresponding figure historically used, so scenario runs are byte-identical to
    /// the pre-scenario harness.
    pub fn generate(&self, topo: &Topology, seed: u64) -> Vec<FlowSpec> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            WorkloadSpec::QueryAggregation {
                flows,
                sizes,
                deadlines,
            } => query_aggregation_flows(topo, *flows, sizes, deadlines, 1, &mut rng),
            WorkloadSpec::Pattern {
                pattern,
                sizes,
                deadlines,
                flows_per_pair,
            } => {
                let cfg = WorkloadConfig {
                    pattern: pattern.clone(),
                    sizes: sizes.clone(),
                    deadlines: deadlines.clone(),
                    flows_per_pair: *flows_per_pair,
                    ..Default::default()
                };
                pattern_flows(topo, &cfg, 1, &mut rng)
            }
            WorkloadSpec::Poisson {
                rate_flows_per_sec,
                duration,
                sizes,
                short_deadlines,
                short_flow_threshold_bytes,
                pattern,
            } => {
                let cfg = PoissonConfig {
                    rate_flows_per_sec: *rate_flows_per_sec,
                    duration: *duration,
                    sizes: sizes.clone(),
                    short_deadlines: short_deadlines.clone(),
                    short_flow_threshold_bytes: *short_flow_threshold_bytes,
                    pattern: pattern.clone(),
                };
                poisson_flows(topo, &cfg, 1, &mut rng)
            }
            WorkloadSpec::PermutationAtLoad {
                load,
                sizes,
                deadlines,
            } => {
                let pairs = Pattern::RandomPermutation.pairs(topo, &mut rng);
                let n_senders = ((topo.host_count() as f64) * load).round().max(1.0) as usize;
                pairs
                    .into_iter()
                    .take(n_senders)
                    .enumerate()
                    .map(|(i, (src, dst))| {
                        let mut spec =
                            FlowSpec::new(i as u64 + 1, src, dst, sizes.sample(&mut rng));
                        if let Some(d) = deadlines.sample(&mut rng) {
                            spec = spec.with_deadline(d);
                        }
                        spec
                    })
                    .collect()
            }
            WorkloadSpec::RandomPairs {
                flows,
                spread,
                sizes,
            } => {
                let hosts: &[NodeId] = &topo.hosts;
                let mut out = Vec::with_capacity(*flows);
                for i in 0..*flows {
                    let src = hosts[rng.gen_range(0..hosts.len())];
                    let mut dst = hosts[rng.gen_range(0..hosts.len())];
                    while dst == src {
                        dst = hosts[rng.gen_range(0..hosts.len())];
                    }
                    let at = SimTime::from_nanos(rng.gen_range(0..=spread.as_nanos()));
                    out.push(
                        FlowSpec::new(i as u64 + 1, src, dst, sizes.sample(&mut rng))
                            .with_arrival(at),
                    );
                }
                out
            }
            WorkloadSpec::Coflow {
                coflows,
                width,
                rate_coflows_per_sec,
                sizes,
                deadlines,
            } => {
                let cfg = CoflowConfig {
                    coflows: *coflows,
                    width: *width,
                    rate_coflows_per_sec: *rate_coflows_per_sec,
                    sizes: sizes.clone(),
                    deadlines: deadlines.clone(),
                };
                coflow_flows(&coflow_set(topo, &cfg, 1, 1, &mut rng))
            }
            WorkloadSpec::Manual(flows) => flows.clone(),
        }
    }

    /// Check that the workload generates flows and that its size distribution passes
    /// [`SizeDist::validate`]: a flow count, flows per pair, coflow count or coflow
    /// width of zero is an error rather than a run that silently does nothing.
    /// Manual flow lists are taken as given.
    pub fn validate(&self) -> Result<(), String> {
        let zero = |n: usize, key: &'static str| (n == 0).then_some(key);
        let (sizes, empty) = match self {
            WorkloadSpec::QueryAggregation { flows, sizes, .. }
            | WorkloadSpec::RandomPairs { flows, sizes, .. } => {
                (sizes, zero(*flows, "workload.flows"))
            }
            WorkloadSpec::Pattern {
                flows_per_pair,
                sizes,
                ..
            } => (sizes, zero(*flows_per_pair, "workload.flows_per_pair")),
            WorkloadSpec::Coflow {
                coflows,
                width,
                sizes,
                ..
            } => (
                sizes,
                zero(*coflows, "workload.coflows").or(zero(*width, "workload.width")),
            ),
            WorkloadSpec::Poisson { sizes, .. } | WorkloadSpec::PermutationAtLoad { sizes, .. } => {
                (sizes, None)
            }
            WorkloadSpec::Manual(_) => return Ok(()),
        };
        if let Some(key) = empty {
            return Err(format!("{key} must be at least 1"));
        }
        sizes.validate()
    }

    /// The workload with its flow-size distribution replaced — the flow-size sweep
    /// axis. Errors for [`WorkloadSpec::Manual`], whose flows are explicit.
    pub fn with_sizes(&self, sizes: SizeDist) -> Result<WorkloadSpec, String> {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::QueryAggregation { sizes: s, .. }
            | WorkloadSpec::Pattern { sizes: s, .. }
            | WorkloadSpec::Poisson { sizes: s, .. }
            | WorkloadSpec::PermutationAtLoad { sizes: s, .. }
            | WorkloadSpec::RandomPairs { sizes: s, .. }
            | WorkloadSpec::Coflow { sizes: s, .. } => *s = sizes,
            WorkloadSpec::Manual(_) => {
                return Err("a manual workload has no size distribution to sweep".into())
            }
        }
        Ok(w)
    }

    /// The workload with its deadline distribution replaced — the deadline sweep
    /// axis. For [`WorkloadSpec::Poisson`] this sets the short-flow deadlines;
    /// errors for workloads without a deadline knob (random pairs, manual).
    pub fn with_deadlines(&self, deadlines: DeadlineDist) -> Result<WorkloadSpec, String> {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::QueryAggregation { deadlines: d, .. }
            | WorkloadSpec::Pattern { deadlines: d, .. }
            | WorkloadSpec::PermutationAtLoad { deadlines: d, .. }
            | WorkloadSpec::Coflow { deadlines: d, .. } => *d = deadlines,
            WorkloadSpec::Poisson {
                short_deadlines, ..
            } => *short_deadlines = deadlines,
            WorkloadSpec::RandomPairs { .. } => {
                return Err("a random-pairs workload carries no deadlines".into())
            }
            WorkloadSpec::Manual(_) => {
                return Err("a manual workload has no deadline distribution to sweep".into())
            }
        }
        Ok(w)
    }

    /// The workload with its load knob replaced — the load sweep axis. For
    /// [`WorkloadSpec::PermutationAtLoad`] the value is the sending-host fraction;
    /// for [`WorkloadSpec::Poisson`] it is the aggregate arrival rate in flows per
    /// second. Other workloads have no load parameter and error.
    pub fn with_load(&self, load: f64) -> Result<WorkloadSpec, String> {
        let mut w = self.clone();
        match &mut w {
            WorkloadSpec::PermutationAtLoad { load: l, .. } => *l = load,
            WorkloadSpec::Poisson {
                rate_flows_per_sec, ..
            } => *rate_flows_per_sec = load,
            WorkloadSpec::Coflow {
                rate_coflows_per_sec,
                ..
            } => *rate_coflows_per_sec = load,
            other => {
                return Err(format!(
                    "workload {:?} has no load parameter to sweep",
                    other.kind()
                ))
            }
        }
        Ok(w)
    }

    /// The workload kind token written as the `workload =` line of a scenario spec.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::QueryAggregation { .. } => "query_aggregation",
            WorkloadSpec::Pattern { .. } => "pattern",
            WorkloadSpec::Poisson { .. } => "poisson",
            WorkloadSpec::PermutationAtLoad { .. } => "permutation_at_load",
            WorkloadSpec::RandomPairs { .. } => "random_pairs",
            WorkloadSpec::Coflow { .. } => "coflow",
            WorkloadSpec::Manual(_) => "manual",
        }
    }

    /// Write this workload's spec lines: the `workload` kind, then its
    /// `workload.*` keys (manual flows use repeated `flow` keys).
    pub(crate) fn write_keys(&self, w: &mut Writer) {
        w.push("workload", self.kind());
        match self {
            WorkloadSpec::QueryAggregation {
                flows,
                sizes,
                deadlines,
            } => {
                w.push("workload.flows", flows);
                w.push("workload.sizes", sizes);
                w.push("workload.deadlines", deadlines);
            }
            WorkloadSpec::Pattern {
                pattern,
                sizes,
                deadlines,
                flows_per_pair,
            } => {
                w.push("workload.pattern", pattern);
                w.push("workload.sizes", sizes);
                w.push("workload.deadlines", deadlines);
                w.push("workload.flows_per_pair", flows_per_pair);
            }
            WorkloadSpec::Poisson {
                rate_flows_per_sec,
                duration,
                sizes,
                short_deadlines,
                short_flow_threshold_bytes,
                pattern,
            } => {
                w.push("workload.rate_flows_per_sec", rate_flows_per_sec);
                w.push("workload.duration_ns", duration.as_nanos());
                w.push("workload.sizes", sizes);
                w.push("workload.short_deadlines", short_deadlines);
                w.push("workload.short_threshold_bytes", short_flow_threshold_bytes);
                w.push("workload.pattern", pattern);
            }
            WorkloadSpec::PermutationAtLoad {
                load,
                sizes,
                deadlines,
            } => {
                w.push("workload.load", load);
                w.push("workload.sizes", sizes);
                w.push("workload.deadlines", deadlines);
            }
            WorkloadSpec::RandomPairs {
                flows,
                spread,
                sizes,
            } => {
                w.push("workload.flows", flows);
                w.push("workload.spread_ns", spread.as_nanos());
                w.push("workload.sizes", sizes);
            }
            WorkloadSpec::Coflow {
                coflows,
                width,
                rate_coflows_per_sec,
                sizes,
                deadlines,
            } => {
                w.push("workload.coflows", coflows);
                w.push("workload.width", width);
                w.push("workload.rate_coflows_per_sec", rate_coflows_per_sec);
                w.push("workload.sizes", sizes);
                w.push("workload.deadlines", deadlines);
            }
            WorkloadSpec::Manual(flows) => {
                let ns =
                    |t: Option<SimTime>| t.map_or("-".to_string(), |t| t.as_nanos().to_string());
                for f in flows {
                    // The coflow tag is a 7th field written only when present, so
                    // untagged flow lines stay byte-identical to older specs.
                    let coflow = f
                        .coflow
                        .map(|t| {
                            format!(
                                " {}:{}:{}",
                                t.id.value(),
                                t.bottleneck_bytes,
                                ns(t.deadline)
                            )
                        })
                        .unwrap_or_default();
                    w.push(
                        "flow",
                        format_args!(
                            "{} {} {} {} {} {}{coflow}",
                            f.id.value(),
                            f.src.0,
                            f.dst.0,
                            f.size_bytes,
                            f.arrival.as_nanos(),
                            ns(f.deadline)
                        ),
                    );
                }
            }
        }
    }

    /// Rebuild a workload from a spec's `workload` kind, its `workload.*` keys and
    /// (manual workloads) its repeated `flow` lines.
    pub(crate) fn from_kv(kv: &Kv) -> Result<Self, String> {
        let workload = match kv.require("workload")? {
            "query_aggregation" => WorkloadSpec::QueryAggregation {
                flows: kv.parse("workload.flows")?,
                sizes: kv.parse("workload.sizes")?,
                deadlines: kv.parse("workload.deadlines")?,
            },
            "pattern" => WorkloadSpec::Pattern {
                pattern: kv.parse("workload.pattern")?,
                sizes: kv.parse("workload.sizes")?,
                deadlines: kv.parse("workload.deadlines")?,
                flows_per_pair: kv.parse("workload.flows_per_pair")?,
            },
            "poisson" => WorkloadSpec::Poisson {
                rate_flows_per_sec: kv.parse("workload.rate_flows_per_sec")?,
                duration: SimTime::from_nanos(kv.parse("workload.duration_ns")?),
                sizes: kv.parse("workload.sizes")?,
                short_deadlines: kv.parse("workload.short_deadlines")?,
                short_flow_threshold_bytes: kv.parse("workload.short_threshold_bytes")?,
                pattern: kv.parse("workload.pattern")?,
            },
            "permutation_at_load" => WorkloadSpec::PermutationAtLoad {
                load: kv.parse("workload.load")?,
                sizes: kv.parse("workload.sizes")?,
                deadlines: kv.parse("workload.deadlines")?,
            },
            "random_pairs" => WorkloadSpec::RandomPairs {
                flows: kv.parse("workload.flows")?,
                spread: SimTime::from_nanos(kv.parse("workload.spread_ns")?),
                sizes: kv.parse("workload.sizes")?,
            },
            "coflow" => WorkloadSpec::Coflow {
                coflows: kv.parse("workload.coflows")?,
                width: kv.parse("workload.width")?,
                rate_coflows_per_sec: kv.parse("workload.rate_coflows_per_sec")?,
                sizes: kv.parse("workload.sizes")?,
                deadlines: kv.parse("workload.deadlines")?,
            },
            "manual" => WorkloadSpec::Manual(
                kv.all("flow")
                    .map(parse_flow_line)
                    .collect::<Result<_, _>>()?,
            ),
            kind => return Err(format!("unrecognized workload kind: {kind:?}")),
        };
        Ok(workload)
    }
}

fn parse_flow_line(line: &str) -> Result<FlowSpec, String> {
    let bad = || {
        format!(
            "bad flow line: {line:?} (want: id src dst bytes arrival_ns deadline_ns|- \
             [coflow_id:bottleneck_bytes:deadline_ns|-])"
        )
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 6 && fields.len() != 7 {
        return Err(bad());
    }
    let id: u64 = fields[0].parse().map_err(|_| bad())?;
    let src: u32 = fields[1].parse().map_err(|_| bad())?;
    let dst: u32 = fields[2].parse().map_err(|_| bad())?;
    let bytes: u64 = fields[3].parse().map_err(|_| bad())?;
    let arrival: u64 = fields[4].parse().map_err(|_| bad())?;
    let mut spec = FlowSpec::new(id, NodeId(src), NodeId(dst), bytes)
        .with_arrival(SimTime::from_nanos(arrival));
    if fields[5] != "-" {
        let deadline: u64 = fields[5].parse().map_err(|_| bad())?;
        spec = spec.with_deadline(SimTime::from_nanos(deadline));
    }
    if let Some(tag) = fields.get(6) {
        let parts: Vec<&str> = tag.split(':').collect();
        if parts.len() != 3 {
            return Err(bad());
        }
        let cid: u64 = parts[0].parse().map_err(|_| bad())?;
        let bottleneck: u64 = parts[1].parse().map_err(|_| bad())?;
        let deadline = if parts[2] == "-" {
            None
        } else {
            Some(SimTime::from_nanos(parts[2].parse().map_err(|_| bad())?))
        };
        spec = spec.with_coflow(CoflowTag {
            id: CoflowId(cid),
            bottleneck_bytes: bottleneck,
            deadline,
        });
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_tokens_round_trip() {
        let specs = vec![
            TopologySpec::PaperTree,
            TopologySpec::SingleBottleneck {
                senders: 12,
                access_loss: 0.0,
            },
            TopologySpec::SingleBottleneck {
                senders: 12,
                access_loss: 0.02,
            },
            TopologySpec::FatTree { hosts: 16 },
            TopologySpec::BCube { n: 2, k: 3 },
            TopologySpec::BCubeHosts { hosts: 16, n: 4 },
            TopologySpec::Jellyfish { hosts: 16, seed: 7 },
            TopologySpec::Wan {
                sites: 4,
                hosts_per_site: 4,
                rtt_ms: 60.0,
                gbps: 2.5,
                loss_rate: 0.0,
            },
            TopologySpec::Wan {
                sites: 3,
                hosts_per_site: 2,
                rtt_ms: 100.0,
                gbps: 1.0,
                loss_rate: 0.0001,
            },
        ];
        for s in specs {
            let token = s.spec_token();
            assert_eq!(TopologySpec::parse(&token).expect(&token), s, "{token}");
        }
        assert!(TopologySpec::parse("torus:4").is_err());
        assert!(TopologySpec::parse("fat_tree:16:extra").is_err());
    }

    #[test]
    fn topologies_build() {
        assert_eq!(TopologySpec::PaperTree.build().host_count(), 12);
        let lossy = TopologySpec::SingleBottleneck {
            senders: 3,
            access_loss: 0.02,
        }
        .build();
        let n = lossy.net.link_count();
        assert_eq!(lossy.net.links[n - 1].loss_rate, 0.02);
        assert_eq!(lossy.net.links[n - 2].loss_rate, 0.02);
        assert!(TopologySpec::FatTree { hosts: 16 }.build().host_count() >= 16);
        let wan = TopologySpec::Wan {
            sites: 2,
            hosts_per_site: 3,
            rtt_ms: 50.0,
            gbps: 1.0,
            loss_rate: 0.001,
        }
        .build();
        assert_eq!(wan.host_count(), 6);
        assert!(wan.net.links.iter().any(|l| l.loss_rate == 0.001));
    }

    #[test]
    fn host_count_matches_the_built_topology() {
        // `validate` bounds topologies by `host_count` without building them, so the
        // count must be exactly what `build` makes, rounding-up variants included.
        for token in [
            "paper_tree",
            "single_bottleneck:5",
            "fat_tree:17",
            "bcube:3:1",
            "bcube_hosts:10:3",
            "jellyfish:100:1",
            "wan:3:2:60:1",
        ] {
            let spec = TopologySpec::parse(token).unwrap();
            assert_eq!(
                spec.host_count(),
                Some(spec.build().host_count()),
                "{token}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let topo = default_paper_tree();
        let w = WorkloadSpec::QueryAggregation {
            flows: 9,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        };
        assert_eq!(w.generate(&topo, 5), w.generate(&topo, 5));
        assert_ne!(w.generate(&topo, 5), w.generate(&topo, 6));
        // Ids start at 1, matching the historical harness.
        assert_eq!(w.generate(&topo, 5)[0].id.value(), 1);
    }

    #[test]
    fn flow_lines_round_trip() {
        let flows = vec![
            FlowSpec::new(1, NodeId(0), NodeId(5), 100_000),
            FlowSpec::new(2, NodeId(3), NodeId(5), 20_000)
                .with_arrival(SimTime::from_millis(10))
                .with_deadline(SimTime::from_millis(30)),
            FlowSpec::new(3, NodeId(4), NodeId(5), 50_000)
                .with_deadline(SimTime::from_millis(40))
                .with_coflow(CoflowTag {
                    id: CoflowId(9),
                    bottleneck_bytes: 60_000,
                    deadline: Some(SimTime::from_millis(40)),
                }),
        ];
        let w = WorkloadSpec::Manual(flows.clone());
        let mut keys = Writer::new("flows");
        w.write_keys(&mut keys);
        let text = keys.finish();
        let kv = Kv::read(&text).unwrap();
        let flow_lines: Vec<&str> = kv.all("flow").collect();
        assert_eq!(flow_lines.len(), 3);
        // Untagged lines keep the historical 6-field form byte for byte.
        assert_eq!(flow_lines[0], "1 0 5 100000 0 -");
        assert_eq!(flow_lines[2], "3 4 5 50000 0 40000000 9:60000:40000000");
        assert_eq!(WorkloadSpec::from_kv(&kv).unwrap(), w);
        assert!(parse_flow_line("1 2 3").is_err());
        assert!(parse_flow_line("1 0 5 100 0 - 9:60000").is_err());
    }

    #[test]
    fn coflow_workload_round_trips_and_generates_tagged_groups() {
        let w = WorkloadSpec::Coflow {
            coflows: 6,
            width: 3,
            rate_coflows_per_sec: 400.0,
            sizes: SizeDist::query(),
            deadlines: DeadlineDist::paper_default(),
        };
        let mut keys = Writer::new("coflow");
        w.write_keys(&mut keys);
        let text = keys.finish();
        let kv = Kv::read(&text).unwrap();
        assert_eq!(kv.pairs()[0], ("workload", "coflow"));
        assert_eq!(WorkloadSpec::from_kv(&kv).unwrap(), w);

        let topo = default_paper_tree();
        let flows = w.generate(&topo, 5);
        assert_eq!(flows.len(), 18);
        assert_eq!(flows[0].id.value(), 1, "flow ids start at 1");
        assert!(flows.iter().all(|f| f.coflow.is_some()));
        assert_eq!(
            flows[0].coflow.unwrap().id,
            CoflowId(1),
            "coflow ids start at 1"
        );
        assert_eq!(w.generate(&topo, 5), w.generate(&topo, 5));
        assert_ne!(w.generate(&topo, 5), w.generate(&topo, 6));

        // Sweep axes: load maps to the coflow arrival rate.
        let loaded = w.with_load(900.0).unwrap();
        match loaded {
            WorkloadSpec::Coflow {
                rate_coflows_per_sec,
                ..
            } => assert_eq!(rate_coflows_per_sec, 900.0),
            other => panic!("unexpected workload {other:?}"),
        }
        assert!(w.with_sizes(SizeDist::Fixed(1_000)).is_ok());
        assert!(w.with_deadlines(DeadlineDist::None).is_ok());
    }
}
