//! When a link's transmit completions become visible.
//!
//! A packet leaves a link's queue (and enters its transmission counters) at its
//! transmit completion, which sits in the dispatch order at
//! `(depart, serialization start, class)`: after same-instant packet deliveries
//! created no later, before timers, controller ticks, trace samples and the stop
//! created no earlier. These tests script packets onto one bottleneck so that
//! completions coincide exactly with a delivery on that link, an RCP controller tick
//! and a trace sample, and pin what the controller and the trace observe. They also
//! pin the link counters of runs that stop with packets still queued. Every expected
//! value was recorded from the engine that scheduled completions as queued events.

use std::sync::{Arc, Mutex};

use pdq_baselines::{RcpParams, RcpSwitchController};
use pdq_netsim::{
    Ctx, FlowId, FlowInfo, FlowSpec, HostAgent, Link, LinkController, LinkId, LinkParams, Network,
    Packet, PacketKind, SimConfig, SimResults, SimTime, Simulator, TimerKind, TraceConfig,
};

/// What a controller saw: `(kind, now ns, queue_bytes, bytes_transmitted,
/// packets_transmitted)`.
type Seen = (&'static str, u64, u64, u64, u64);

/// Wraps a controller and logs the link state it is handed on every call.
struct Recorder {
    inner: RcpSwitchController,
    log: Arc<Mutex<Vec<Seen>>>,
}

impl Recorder {
    fn note(&self, kind: &'static str, now: SimTime, link: &Link) {
        self.log.lock().unwrap().push((
            kind,
            now.as_nanos(),
            link.queue_bytes(),
            link.stats.bytes_transmitted,
            link.stats.packets_transmitted,
        ));
    }
}

impl LinkController for Recorder {
    fn init(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.inner.init(now, link)
    }
    fn on_forward(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.note("fwd", now, link);
        self.inner.on_forward(packet, now, link);
    }
    fn on_reverse(&mut self, packet: &mut Packet, now: SimTime, link: &Link) {
        self.inner.on_reverse(packet, now, link);
    }
    fn on_tick(&mut self, now: SimTime, link: &Link) -> Option<SimTime> {
        self.note("tick", now, link);
        self.inner.on_tick(now, link)
    }
}

/// Sends scripted packets, `(flow, send time ns, wire bytes)`, each on a timer (or
/// at once when the time is 0). The receiving side completes a flow on its first
/// packet when `complete_on_first` is set.
struct Script {
    sends: Vec<(u64, u64, u32)>,
    complete_on_first: bool,
}

impl Script {
    fn packet(flow: &FlowInfo, index: u64, wire: u32) -> Packet {
        let mut p = Packet::data(flow.spec.id, flow.spec.src, flow.spec.dst, index, 1);
        p.wire_size = wire;
        p
    }
}

impl HostAgent for Script {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        for (i, &(f, at, wire)) in self.sends.iter().enumerate() {
            if f != flow.spec.id.value() {
                continue;
            }
            if at == 0 {
                ctx.send(Script::packet(flow, i as u64, wire));
            } else {
                let at = SimTime::from_nanos(at);
                ctx.set_timer_at(flow.spec.id, TimerKind::Custom(0), at, i as u64);
            }
        }
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        if self.complete_on_first && packet.kind == PacketKind::Data {
            ctx.flow_completed(packet.flow);
        }
    }
    fn on_timer(&mut self, flow: FlowId, _: TimerKind, token: u64, ctx: &mut Ctx) {
        let info = ctx.flow(flow).expect("scripted flow").clone();
        let wire = self.sends[token as usize].2;
        ctx.send(Script::packet(&info, token, wire));
    }
}

/// h0 and h2 reach h1 through s0. Access links carry 1 byte per ns; the bottleneck
/// s0 → h1 (link 4) carries 1 byte per 10 ns. No propagation delay, so a packet
/// reaches the next node exactly one processing delay after it departs.
const BOTTLENECK: LinkId = LinkId(4);

fn sim(processing_ns: u64, sends: Vec<(u64, u64, u32)>, complete_on_first: bool) -> Simulator {
    let mut net = Network::new();
    let h0 = net.add_host("h0");
    let h2 = net.add_host("h2");
    let h1 = net.add_host("h1");
    let s0 = net.add_switch("s0");
    let fast = LinkParams {
        rate_bps: 8e9,
        prop_delay: SimTime::ZERO,
        ..LinkParams::default()
    };
    let slow = LinkParams {
        rate_bps: 8e8,
        ..fast
    };
    net.add_duplex_link(h0, s0, fast);
    net.add_duplex_link(h2, s0, fast);
    let (b, _) = net.add_duplex_link(s0, h1, slow);
    assert_eq!(b, BOTTLENECK);
    let mut sim = Simulator::new(
        net,
        SimConfig {
            processing_delay: SimTime::from_nanos(processing_ns),
            ..SimConfig::default()
        },
    );
    sim.install_agents(move |_, _| {
        Box::new(Script {
            sends: sends.clone(),
            complete_on_first,
        })
    });
    sim.add_flow(FlowSpec::new(1, h0, h1, 1_000_000));
    sim.add_flow(FlowSpec::new(2, h2, h1, 1_000_000));
    sim
}

/// Every link's `(bytes, packets, busy ns, max queue bytes, tail drops)`, in id order.
fn link_counters(res: &SimResults) -> Vec<(u64, u64, u64, u64, u64)> {
    let mut stats: Vec<_> = res.link_stats.iter().collect();
    stats.sort_by_key(|(id, _)| id.index());
    stats
        .iter()
        .map(|(_, s)| {
            (
                s.bytes_transmitted,
                s.packets_transmitted,
                s.busy_time.as_nanos(),
                s.max_queue_bytes,
                s.tail_drops,
            )
        })
        .collect()
}

#[test]
fn same_instant_completions_are_seen_in_key_order() {
    // Processing delay 1 µs; RCP ticks every 100 µs (created at the previous tick),
    // and so does the trace (first sample created at 0).
    let sends = vec![
        // Pa departs the bottleneck at 100 µs (started at 85 µs): the tick and the
        // sample at 100 µs were created at 0, so they run first despite their class.
        (1, 82_500, 1500),
        // Pb reaches s0 at 100 µs, created at 99 µs: after Pa's completion (created
        // 85 µs). It serializes 100–200 µs, and its completion ties the 200 µs tick
        // and sample on creation (100 µs), so class puts the completion first.
        (2, 89_000, 10_000),
        // Pc reaches s0 at 200 µs, created at 199 µs: after Pb's completion.
        (1, 197_500, 1500),
        // Pd serializes 250–250.5 µs. Pe reaches s0 at 250.5 µs created at
        // 249.5 µs, before Pd's serialization began: the delivery runs first and
        // sees Pd queued. Pf reaches s0 at 251.5 µs created at 250.5 µs, the instant
        // Pe began serializing: a creation tie, so class runs the delivery first.
        (1, 248_950, 50),
        (2, 249_400, 100),
        (1, 250_400, 100),
    ];
    let mut sim = sim(1_000, sends, false);
    let log = Arc::new(Mutex::new(Vec::new()));
    sim.set_controller(
        BOTTLENECK,
        Box::new(Recorder {
            inner: RcpSwitchController::new(RcpParams {
                interval_rtts: 1.0,
                default_rtt: SimTime::from_micros(100),
                ..RcpParams::default()
            }),
            log: log.clone(),
        }),
    );
    let config = sim.config_mut();
    config.stop_when_flows_done = false;
    config.max_sim_time = SimTime::from_micros(320);
    config.trace = TraceConfig {
        interval: SimTime::from_micros(100),
        links: vec![BOTTLENECK],
        flows: false,
    };
    let res = sim.run();

    let seen = log.lock().unwrap().clone();
    let expected: Vec<Seen> = vec![
        ("fwd", 85_000, 0, 0, 0),
        ("tick", 100_000, 1500, 0, 0),
        ("fwd", 100_000, 0, 1500, 1),
        ("tick", 200_000, 0, 11_500, 2),
        ("fwd", 200_000, 0, 11_500, 2),
        ("fwd", 250_000, 0, 13_000, 3),
        ("fwd", 250_500, 50, 13_000, 3),
        ("fwd", 251_500, 100, 13_050, 4),
        ("tick", 300_000, 0, 13_250, 6),
    ];
    assert_eq!(seen, expected);

    let sampled = |series: &[pdq_netsim::Sample]| -> Vec<(u64, f64)> {
        series.iter().map(|s| (s.at.as_nanos(), s.value)).collect()
    };
    assert_eq!(
        sampled(&res.traces.link_queue_bytes[&BOTTLENECK]),
        vec![(100_000, 1500.0), (200_000, 0.0), (300_000, 0.0)]
    );
    assert_eq!(
        sampled(&res.traces.link_utilization[&BOTTLENECK]),
        vec![(100_000, 0.0), (200_000, 1.15), (300_000, 0.175)]
    );
    assert_eq!(
        link_counters(&res)[BOTTLENECK.index()],
        (13_250, 6, 132_500, 10_000, 0)
    );
}

/// h0 and h2 each send five 1500-byte packets at once; with a 15 µs processing
/// delay, the first packet of flow 1 reaches h1 at 46.5 µs and that of flow 2 at
/// 61.5 µs, each instant also a bottleneck completion created at the same time.
fn burst(complete_on_first: bool) -> Simulator {
    let sends = (0..5).flat_map(|_| [(1, 0, 1500), (2, 0, 1500)]).collect();
    sim(15_000, sends, complete_on_first)
}

/// The bottleneck counters both stopped runs must end with: two packets out.
const BURST_COUNTERS: [(u64, u64, u64, u64, u64); 6] = [
    (7500, 5, 7500, 7500, 0),
    (0, 0, 0, 0, 0),
    (7500, 5, 7500, 7500, 0),
    (0, 0, 0, 0, 0),
    (3000, 2, 30_000, 15_000, 0),
    (0, 0, 0, 0, 0),
];

#[test]
fn run_stopped_by_finished_flows_counts_only_completed_departures() {
    // Flow 2 completes on a delivery at 61.5 µs that sorts before the completion
    // then due on the bottleneck: the run stops with eight packets still queued.
    let res = burst(true).run();
    assert_eq!(res.completed_count(), 2);
    assert_eq!(res.end_time, SimTime::from_nanos(61_500));
    assert_eq!(link_counters(&res), BURST_COUNTERS);
}

#[test]
fn run_stopped_by_the_time_cap_counts_only_completed_departures() {
    // The stop at 61.5 µs was created at 0, so it precedes the completion due then.
    let mut sim = burst(false);
    sim.config_mut().stop_when_flows_done = false;
    sim.config_mut().max_sim_time = SimTime::from_nanos(61_500);
    let res = sim.run();
    assert_eq!(res.completed_count(), 0);
    assert_eq!(link_counters(&res), BURST_COUNTERS);
}
