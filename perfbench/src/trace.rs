//! Tracing from outside the program: timing decorators around the public
//! controller and agent types, a registry of protocol installers that install the
//! decorated types, and an in-memory span log written out when the benchmark ends.
//!
//! Controller and agent calls are far too frequent to store as spans; each
//! decorator counts its calls and sums their durations locally and adds them to a
//! shared [`LayerTotals`] when the simulator drops it at the end of the run, so the
//! hot path touches no shared state.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pdq::{Discipline, PdqHostAgent, PdqParams, PdqSwitchController, PdqVariant};
use pdq_baselines::{
    D3Params, D3SwitchController, RateHostAgent, RateMode, RcpParams, RcpSwitchController,
    TcpHostAgent, TcpParams,
};
use pdq_netsim::{
    Ctx, FlowId, FlowInfo, HostAgent, Link, LinkController, PacerConfig, Packet, SimTime,
    Simulator, TimerKind,
};
use pdq_scenario::{InstallerHandle, ProtocolInstaller, ProtocolRegistry, SimBackend};

/// A protocol layer whose calls the decorators time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `PdqSwitchController`.
    PdqSwitch,
    /// `PdqHostAgent` (sender, pacer and receiver).
    PdqHost,
    /// `RcpSwitchController` and `D3SwitchController`.
    BaselinesSwitch,
    /// `TcpHostAgent` and `RateHostAgent`.
    BaselinesHost,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [
        Layer::PdqSwitch,
        Layer::PdqHost,
        Layer::BaselinesSwitch,
        Layer::BaselinesHost,
    ];

    /// The layer's `calls`, `self_s` and `ns_per_call` metric names.
    pub fn metric_names(self) -> [&'static str; 3] {
        match self {
            Layer::PdqSwitch => [
                "pdq.switch.calls",
                "pdq.switch.self_s",
                "pdq.switch.ns_per_call",
            ],
            Layer::PdqHost => ["pdq.host.calls", "pdq.host.self_s", "pdq.host.ns_per_call"],
            Layer::BaselinesSwitch => [
                "baselines.switch.calls",
                "baselines.switch.self_s",
                "baselines.switch.ns_per_call",
            ],
            Layer::BaselinesHost => [
                "baselines.host.calls",
                "baselines.host.self_s",
                "baselines.host.ns_per_call",
            ],
        }
    }
}

/// Calls and summed call time of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTotals {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub nanos: u64,
}

/// Per-layer call totals, filled in as decorators are dropped.
#[derive(Debug, Default)]
pub struct LayerTotals(Mutex<[CallTotals; 4]>);

impl LayerTotals {
    /// A snapshot of the totals, indexed like [`Layer::ALL`].
    pub fn snapshot(&self) -> [CallTotals; 4] {
        *self.0.lock().expect("layer totals poisoned")
    }

    fn add(&self, layer: Layer, t: CallTotals) {
        // Called from `Drop`: never panic, even after another thread panicked.
        let mut all = match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let slot = &mut all[layer as usize];
        slot.calls += t.calls;
        slot.nanos += t.nanos;
    }
}

/// A controller or agent wrapped so that every call into it is counted and timed.
pub struct Timed<T> {
    inner: T,
    layer: Layer,
    local: CallTotals,
    totals: Arc<LayerTotals>,
}

impl<T> Timed<T> {
    fn new(inner: T, layer: Layer, totals: &Arc<LayerTotals>) -> Self {
        Timed {
            inner,
            layer,
            local: CallTotals::default(),
            totals: totals.clone(),
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let started = Instant::now();
        let r = f(&mut self.inner);
        self.local.calls += 1;
        self.local.nanos += started.elapsed().as_nanos() as u64;
        r
    }
}

impl<T> Drop for Timed<T> {
    fn drop(&mut self) {
        self.totals.add(self.layer, self.local);
    }
}

impl<T: LinkController> LinkController for Timed<T> {
    fn init(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.time(|c| c.init(now, link))
    }
    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.time(|c| c.on_forward(packet, now, link))
    }
    fn on_reverse(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.time(|c| c.on_reverse(packet, now, link))
    }
    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.time(|c| c.on_tick(now, link))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: HostAgent> HostAgent for Timed<T> {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        self.time(|a| a.on_flow_arrival(flow, ctx))
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        self.time(|a| a.on_packet(packet, ctx))
    }
    fn on_timer(&mut self, flow: FlowId, kind: TimerKind, token: u64, ctx: &mut Ctx) {
        self.time(|a| a.on_timer(flow, kind, token, ctx))
    }
}

#[derive(Clone, Copy, Debug)]
enum Proto {
    Pdq,
    Tcp,
    Rcp,
    D3,
}

/// Installs the same controllers and agents as the library installer it mirrors
/// (`pdq(full)`, `tcp`, `rcp`, `d3`), each wrapped in [`Timed`]. Names and labels
/// come from the mirrored installer; the traced-versus-untraced fingerprint check
/// shows that the installs are equivalent.
struct TracedInstaller {
    proto: Proto,
    pacer: Option<PacerConfig>,
    mirrored: InstallerHandle,
    totals: Arc<LayerTotals>,
}

impl ProtocolInstaller for TracedInstaller {
    fn name(&self) -> String {
        self.mirrored.name()
    }

    fn label(&self) -> String {
        self.mirrored.label()
    }

    fn install(&self, sim: &mut Simulator) {
        let totals = &self.totals;
        let pacer = self.pacer;
        match self.proto {
            Proto::Pdq => {
                let mut params = PdqParams::variant(PdqVariant::Full);
                params.pacer = pacer;
                let p = params.clone();
                sim.install_agents(|_, node| {
                    let agent = PdqHostAgent::new(p.clone(), Discipline::Exact, node.0 as u64 + 1);
                    Box::new(Timed::new(agent, Layer::PdqHost, totals))
                });
                sim.install_switch_controllers(|_, _| {
                    let ctl = PdqSwitchController::new(params.clone());
                    Box::new(Timed::new(ctl, Layer::PdqSwitch, totals))
                });
            }
            Proto::Tcp => {
                let params = TcpParams {
                    pacer,
                    ..TcpParams::default()
                };
                sim.install_agents(|_, _| {
                    let agent = TcpHostAgent::new(params.clone());
                    Box::new(Timed::new(agent, Layer::BaselinesHost, totals))
                });
            }
            Proto::Rcp | Proto::D3 => {
                let mode = match self.proto {
                    Proto::Rcp => RateMode::Rcp,
                    _ => RateMode::D3 { quenching: true },
                };
                sim.install_agents(|_, _| {
                    let agent = RateHostAgent::new(mode);
                    let agent = match pacer {
                        Some(config) => agent.with_pacer(config),
                        None => agent,
                    };
                    Box::new(Timed::new(agent, Layer::BaselinesHost, totals))
                });
                let proto = self.proto;
                sim.install_switch_controllers(|_, _| match proto {
                    Proto::Rcp => Box::new(Timed::new(
                        RcpSwitchController::new(RcpParams::default()),
                        Layer::BaselinesSwitch,
                        totals,
                    )),
                    _ => Box::new(Timed::new(
                        D3SwitchController::new(D3Params::default()),
                        Layer::BaselinesSwitch,
                        totals,
                    )),
                });
            }
        }
    }

    fn with_pacing(&self, config: PacerConfig) -> Option<InstallerHandle> {
        Some(Arc::new(TracedInstaller {
            proto: self.proto,
            pacer: Some(config),
            mirrored: self.mirrored.with_pacing(config)?,
            totals: self.totals.clone(),
        }))
    }
}

/// A registry whose `pdq(full)`, `tcp`, `rcp` and `d3` install timed controllers
/// and agents reporting into `totals`; `library` supplies the mirrored installers.
pub fn traced_registry(library: &ProtocolRegistry, totals: &Arc<LayerTotals>) -> ProtocolRegistry {
    let mut registry = ProtocolRegistry::new();
    for (family, spec, proto) in [
        ("pdq", "pdq(full)", Proto::Pdq),
        ("tcp", "tcp", Proto::Tcp),
        ("rcp", "rcp", Proto::Rcp),
        ("d3", "d3", Proto::D3),
    ] {
        let mirrored = library
            .resolve(spec)
            .expect("the library registry resolves every traced protocol");
        let totals = totals.clone();
        registry.register_family_with_backends(
            family,
            format!("timed {spec}"),
            &[SimBackend::Packet],
            Box::new(move |args| {
                let expected = spec.strip_prefix(family).filter(|a| !a.is_empty());
                let given = args.map(|a| format!("({a})"));
                if given.as_deref() != expected {
                    return Err(format!("the traced registry only installs {spec}"));
                }
                Ok(Arc::new(TracedInstaller {
                    proto,
                    pacer: None,
                    mirrored: mirrored.clone(),
                    totals: totals.clone(),
                }) as InstallerHandle)
            }),
        );
    }
    registry
}

/// One timed interval of the benchmark: a scenario run or one of its phases.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier, unique within the benchmark process.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The repetition the span belongs to.
    pub rep: usize,
    /// Span name: `scenario`, `build`, `generate`, `install`, `run`, `summary`,
    /// `cache.store`, `cache.lookup` or `sweep`.
    pub name: &'static str,
    /// What the span covers, e.g. the scenario name.
    pub label: String,
    /// Start, in nanoseconds since the benchmark started.
    pub start_ns: u64,
    /// End, in nanoseconds since the benchmark started.
    pub end_ns: u64,
}

/// The in-memory span log.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a span and return its id.
    pub fn record(
        &self,
        parent: Option<u64>,
        rep: usize,
        name: &'static str,
        label: &str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let id = spans.len() as u64;
        spans.push(Span {
            id,
            parent,
            rep,
            name,
            label: label.to_string(),
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Record a scenario span with one child span per phase of `p`.
    pub fn record_phases(
        &self,
        parent: Option<u64>,
        rep: usize,
        label: &str,
        p: &crate::workloads::Phases,
        end: Instant,
    ) -> u64 {
        let root = self.record(parent, rep, "scenario", label, p.start, end);
        for (name, a, b) in [
            ("build", p.start, p.built),
            ("generate", p.built, p.generated),
            ("install", p.generated, p.installed),
            ("run", p.installed, p.ran),
            ("summary", p.ran, p.summarized),
        ] {
            self.record(Some(root), rep, name, label, a, b);
        }
        root
    }

    /// The log as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"rep\":{},\"name\":\"{}\",\"label\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.rep,
                s.name,
                json_string(&s.label),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]");
        out
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_phased;
    use pdq_experiments::common::default_registry;
    use pdq_experiments::{scalebench, sweeps, wan, Scale};

    #[test]
    fn timed_installs_change_no_output_and_count_every_layer() {
        let library = default_registry();
        let totals = Arc::new(LayerTotals::default());
        let traced = traced_registry(&library, &totals);
        let mut cases = vec![
            scalebench::engine_scale_scenario(Scale::Quick),
            wan::wan_scenario(Scale::Quick, "tcp", true),
            wan::wan_scenario(Scale::Quick, "rcp", true),
        ];
        // PDQ(Full), D3, RCP and TCP at the first rate.
        cases.extend(
            sweeps::fig5a_grid(Scale::Quick)
                .scenarios
                .into_iter()
                .step_by(3),
        );
        for s in &cases {
            let plain = run_phased(s, &library).unwrap();
            let timed = run_phased(s, &traced).unwrap();
            assert_eq!(plain.fingerprint, timed.fingerprint, "{}", s.to_spec());
            assert_eq!(plain.summary.protocol_label, timed.summary.protocol_label);
        }
        for (layer, t) in Layer::ALL.into_iter().zip(totals.snapshot()) {
            assert!(t.calls > 0 && t.nanos > 0, "{layer:?} saw no calls");
        }
    }

    #[test]
    fn traced_registry_only_resolves_the_timed_protocols() {
        let library = default_registry();
        let traced = traced_registry(&library, &Arc::new(LayerTotals::default()));
        for spec in ["pdq(full)", "tcp", "rcp", "d3"] {
            assert_eq!(traced.resolve(spec).unwrap().name(), spec);
        }
        for spec in ["pdq(es)", "tcp(x)", "d3(noquench)", "mpdq(3)"] {
            assert!(traced.resolve(spec).is_err(), "{spec}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
