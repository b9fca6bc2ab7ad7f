//! Partitioned simulation: N cooperating [`EngineCore`]s under conservative-lookahead
//! synchronization.
//!
//! # Model
//!
//! A [`ShardAssignment`] maps every node to exactly one shard. Each shard owns an
//! [`EngineCore`] holding the agents, link queues, flow replicas and event queue of its
//! nodes (a link belongs to the shard of its *source* node, so each directed queue has
//! exactly one writer). Shards advance in lock-step windows:
//!
//! 1. every shard publishes the time of its earliest pending event;
//! 2. all shards compute the same global minimum `T` and process every local event in
//!    `[T, T + L)`, where the lookahead `L` is the minimum cross-shard link latency
//!    (propagation + per-hop processing). A packet accepted at time `t ≥ T` onto a
//!    link that crosses a shard boundary is handed over at once, since its departure
//!    `d ≥ t` is fixed at enqueue; it arrives at `d + prop + processing ≥ T + L`,
//!    i.e. at or after the window end — so no shard can ever receive an event for a
//!    time it has already passed;
//! 3. boundary messages (packets, flow registrations, completion notices) are
//!    exchanged, ingested in a deterministic order, and the next window begins.
//!
//! # Determinism
//!
//! * Every flow — injected before the run or spawned by an agent at run time — is
//!   routed on a private RNG derived from `(seed, flow id)` (see
//!   `engine::route_rng`), so its path is a pure function of the flow and identical
//!   at every shard count. Pre-registered flows are routed up front in arrival
//!   order; runtime-spawned ones at arrival, on whichever shard hosts the source.
//! * Random loss on [`LossStream::Engine`] links (the default) draws from each
//!   core's own stream (`seed ⊕ shard id`): N-shard runs are self-deterministic,
//!   but lossy runs are shard-count-*invariant* only when every lossy link is
//!   marked [`LossStream::PerLink`] — those links consume a private `(seed, link
//!   id)` stream in packet-crossing order, which the content-derived event order
//!   reproduces at every shard count. The WAN topologies mark their lossy
//!   long-haul links this way.
//!
//! [`LossStream::Engine`]: crate::network::LossStream::Engine
//! [`LossStream::PerLink`]: crate::network::LossStream::PerLink
//! * Boundary messages are ingested sorted by `(message class, time, source shard,
//!   sequence)`, and results are merged in shard order, so an N-shard run is
//!   bit-reproducible for a fixed seed and shard count.
//!
//! A single-shard run never enters this module's driver and is byte-identical to the
//! sequential engine. When stopping because every flow finished, shards may process a
//! bounded tail of in-flight events from the window containing the final finish (the
//! global condition is only observable at the next barrier); this can nudge link byte
//! counters and trace samples by up to one lookahead window but never changes a flow
//! record or the end time. Link counters settle at the end of the window a core last
//! processed: departures completed before it are counted, later ones are not. See the repository README ("Partitioned engine &
//! determinism model") for when N-shard results are fingerprint-identical to 1-shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use crate::agent::FlowInfo;
use crate::engine::{make_flow_info, EngineCore, FlowState, Router, Simulator};
use crate::event::EventKind;
use crate::flow::{FlowRecord, FlowSpec};
use crate::ids::{FlowId, LinkId, NodeId};
use crate::metrics::SimResults;
use crate::packet::Packet;
use crate::time::SimTime;

/// A node → shard map plus the conservative lookahead it guarantees.
///
/// Build one with [`ShardAssignment::new`] (typically via the topology crate's
/// `Partition`, which knows how to cut fat-trees along pods, BCube along sub-cubes and
/// arbitrary graphs by BFS bisection) and pass it to [`Simulator::run_sharded`].
#[derive(Clone, Debug)]
pub struct ShardAssignment {
    shard_of: Arc<[u32]>,
    shards: u32,
    lookahead: SimTime,
}

impl ShardAssignment {
    /// Create an assignment.
    ///
    /// `shard_of[i]` is the shard owning node `i`; `lookahead` must be a lower bound
    /// on the *propagation* delay of every link whose endpoints live on different
    /// shards (the engine adds its per-hop processing delay on top). Use
    /// [`SimTime::MAX`] when no link crosses a shard boundary.
    ///
    /// # Panics
    /// If any entry names a shard `>= shards`, or `shards` is zero.
    pub fn new(shard_of: Vec<u32>, shards: u32, lookahead: SimTime) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shard_of.iter().all(|&s| s < shards),
            "node assigned to a shard >= shard count"
        );
        ShardAssignment {
            shard_of: shard_of.into(),
            shards,
            lookahead,
        }
    }

    /// The trivial assignment: every node on shard 0 (sequential execution).
    pub fn single(n_nodes: usize) -> Self {
        ShardAssignment {
            shard_of: vec![0; n_nodes].into(),
            shards: 1,
            lookahead: SimTime::MAX,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of nodes covered by the assignment.
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.index()]
    }

    /// The guaranteed minimum cross-shard propagation delay.
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }
}

/// A boundary-crossing message exchanged between shards at window barriers.
pub(crate) struct ShardMsg {
    /// Simulated time the message takes effect (event time for packets/timers,
    /// notification time for registrations/finishes).
    pub(crate) at: SimTime,
    /// Simulated time on the sending shard when the message was created. Ingested
    /// events carry this as their creation stamp so the receiving queue orders them
    /// exactly as a single global queue would have.
    pub(crate) sent: SimTime,
    /// Sending shard (ingest tie-break).
    pub(crate) src_shard: u32,
    /// Sender-assigned sequence number (ingest tie-break, preserves the sender's
    /// creation order).
    pub(crate) seq: u64,
    /// Payload.
    pub(crate) body: MsgBody,
}

/// What a [`ShardMsg`] carries.
pub(crate) enum MsgBody {
    /// Make a flow (routed at run time on another shard) visible to this shard before
    /// any of its packets arrive.
    Register(Box<FlowInfo>),
    /// A replica of the flow finished on another shard; the home shard settles the
    /// liveness accounting and records the finish.
    Finished {
        /// The finished flow.
        flow: FlowId,
        /// True for completion, false for early termination.
        completed: bool,
    },
    /// An agent on another shard armed a timer for a flow homed here.
    SetTimer {
        /// The flow the timer belongs to.
        flow: FlowId,
        /// Timer class.
        kind: crate::event::TimerKind,
        /// Agent-chosen token.
        token: u64,
    },
    /// A packet that crossed the shard boundary, to be delivered at `node` at `at`.
    Packet {
        /// The node the packet arrives at.
        node: NodeId,
        /// The packet itself (its `flow_slot` is re-stamped by the receiver).
        packet: Box<Packet>,
    },
}

impl MsgBody {
    /// Ingest-order class: registrations must precede any use of the flow; finishes
    /// and timers touch records before packets are scheduled.
    fn rank(&self) -> u8 {
        match self {
            MsgBody::Register(_) => 0,
            MsgBody::Finished { .. } => 1,
            MsgBody::SetTimer { .. } => 2,
            MsgBody::Packet { .. } => 3,
        }
    }
}

/// Record a finish on `rec` if it beats the existing one: earlier wins, and at equal
/// times completion beats termination. Used both when a `Finished` message reaches the
/// home shard and when replica records are merged into the final results.
fn apply_finish(rec: &mut FlowRecord, completed: bool, at: SimTime) {
    let existing = match (rec.completed_at, rec.terminated_at) {
        (Some(t), _) => Some((t, true)),
        (None, Some(t)) => Some((t, false)),
        (None, None) => None,
    };
    let better = match existing {
        None => true,
        Some((t, was_completed)) => at < t || (at == t && completed && !was_completed),
    };
    if better {
        if completed {
            rec.completed_at = Some(at);
            rec.terminated_at = None;
            rec.bytes_acked = rec.spec.size_bytes;
        } else {
            rec.terminated_at = Some(at);
            rec.completed_at = None;
            rec.bytes_acked = 0;
        }
    }
}

impl EngineCore {
    /// Apply a barrier's worth of boundary messages, in the canonical order.
    pub(crate) fn ingest(&mut self, mut msgs: Vec<ShardMsg>) {
        msgs.sort_by_key(|m| (m.body.rank(), m.at, m.src_shard, m.seq));
        for msg in msgs {
            match msg.body {
                MsgBody::Register(info) => {
                    if self.flows.contains(info.spec.id) {
                        continue;
                    }
                    let record = FlowRecord::new(info.spec.clone());
                    self.flows.insert(
                        info.spec.id,
                        FlowState {
                            info: Some(*info),
                            record,
                            bytes_at_last_sample: 0,
                            timer_gen: 0,
                            home: false,
                        },
                    );
                }
                MsgBody::Finished { flow, completed } => {
                    let Some(slot) = self.flows.slot_of(flow) else {
                        continue;
                    };
                    let state = &mut self.flows.slots[slot as usize];
                    let was_live =
                        state.record.completed_at.is_none() && state.record.terminated_at.is_none();
                    apply_finish(&mut state.record, completed, msg.at);
                    if was_live && state.home {
                        self.unfinished_flows = self.unfinished_flows.saturating_sub(1);
                    }
                }
                MsgBody::SetTimer { flow, kind, token } => {
                    let Some(slot) = self.flows.slot_of(flow) else {
                        continue;
                    };
                    let state = &self.flows.slots[slot as usize];
                    let Some(info) = state.info.as_ref() else {
                        continue;
                    };
                    let node = info.spec.src;
                    let gen = state.timer_gen;
                    // A remotely-armed timer may name a time this shard has already
                    // passed; clamp so the clock never runs backwards (no shipped
                    // protocol arms cross-shard timers — see the README).
                    let at = msg.at.max(self.now);
                    self.events.schedule_created(
                        at,
                        msg.sent,
                        EventKind::Timer {
                            node,
                            flow,
                            kind,
                            token,
                            gen,
                        },
                    );
                }
                MsgBody::Packet { node, packet } => {
                    let mut packet = *packet;
                    let Some(slot) = self.flows.slot_of(packet.flow) else {
                        // Unknown flow: its registration was lost (cannot happen —
                        // registrations sort first). Drop rather than corrupt.
                        continue;
                    };
                    packet.flow_slot = slot;
                    let at = msg.at.max(self.now);
                    let flow = packet.flow;
                    let tie = crate::engine::packet_tie(&packet);
                    let parked = self.pool.park(packet);
                    self.events.schedule_created(
                        at,
                        msg.sent,
                        EventKind::PacketAtNode {
                            node,
                            packet: parked,
                            flow,
                            tie,
                        },
                    );
                }
            }
        }
    }
}

impl Simulator {
    /// Run the simulation partitioned across `assignment.shards()` cores, one OS
    /// thread per shard, synchronized by conservative lookahead.
    ///
    /// `make_router` builds each shard's router (only consulted for flows spawned by
    /// agents at run time; flows injected before the run are pre-routed on the
    /// sequential RNG stream so their paths match a 1-shard run exactly).
    ///
    /// With a single-shard assignment this is exactly [`Simulator::run`].
    ///
    /// # Panics
    /// If the assignment does not cover the network's nodes, or the effective
    /// lookahead (cross-shard propagation + processing delay) is zero.
    pub fn run_sharded<F>(mut self, assignment: &ShardAssignment, mut make_router: F) -> SimResults
    where
        F: FnMut(u32) -> Box<dyn Router + Send>,
    {
        let shards = assignment.shards() as usize;
        if shards <= 1 {
            return self.run();
        }
        assert_eq!(
            assignment.node_count(),
            self.core.network.node_count(),
            "shard assignment does not cover the network"
        );
        let lookahead = assignment
            .lookahead()
            .saturating_add(self.core.config.processing_delay);
        assert!(
            lookahead > SimTime::ZERO,
            "conservative lookahead must be positive (zero-latency shard boundary)"
        );

        // Drain the pre-scheduled flow arrivals in (time, insertion) order — the exact
        // order the sequential engine would route them in.
        let mut specs: Vec<FlowSpec> = Vec::new();
        while let Some(ev) = self.core.events.pop() {
            match ev.kind {
                EventKind::FlowArrival(spec) => specs.push(*spec),
                other => panic!("run_sharded: unexpected pre-run event {other:?}"),
            }
        }

        // Pre-route every injected flow on its own (seed, flow id)-derived RNG — the
        // same derivation the sequential engine uses at arrival time — so paths are a
        // pure function of the flow and byte-identical to a 1-shard run.
        let mut router = self.core.router;
        let network = self.core.network;
        let config = self.core.config;
        let routed: Vec<(FlowSpec, Option<FlowInfo>)> = specs
            .into_iter()
            .map(|spec| {
                let mut route_rng = crate::engine::route_rng(config.seed, spec.id);
                let info = router.route(&network, &spec, &mut route_rng).map(|path| {
                    assert_eq!(
                        path.src(),
                        spec.src,
                        "router returned a path with wrong source"
                    );
                    assert_eq!(
                        path.dst(),
                        spec.dst,
                        "router returned a path with wrong destination"
                    );
                    make_flow_info(&network, &config, spec.clone(), path)
                });
                (spec, info)
            })
            .collect();

        let shard_of = assignment.shard_of.clone();
        let mut cores: Vec<EngineCore> = (0..shards)
            .map(|s| {
                EngineCore::for_shard(
                    s as u32,
                    shards,
                    shard_of.clone(),
                    network.clone(),
                    config.clone(),
                    make_router(s as u32),
                )
            })
            .collect();

        // Hand every agent and controller to the shard owning its node / link source.
        for (idx, slot) in self.core.agents.into_iter().enumerate() {
            if let Some(agent) = slot {
                cores[shard_of[idx] as usize].agents[idx] = Some(agent);
            }
        }
        for (idx, slot) in self.core.controllers.into_iter().enumerate() {
            if let Some(ctl) = slot {
                let src = network.link(LinkId(idx as u32)).src;
                cores[shard_of[src.index()] as usize].controllers[idx] = Some(ctl);
            }
        }

        // Register every pre-routed flow on each shard its path touches (the source
        // shard is its home and schedules the arrival event), in global arrival order
        // so per-core slot numbering is deterministic.
        for (spec, info) in routed {
            let home = shard_of[spec.src.index()] as usize;
            match info {
                None => {
                    let mut record = FlowRecord::new(spec.clone());
                    record.failed = true;
                    cores[home].flows.insert(
                        spec.id,
                        FlowState {
                            info: None,
                            record,
                            bytes_at_last_sample: 0,
                            timer_gen: 0,
                            home: true,
                        },
                    );
                }
                Some(info) => {
                    let mut touched: Vec<u32> = info
                        .path
                        .nodes
                        .iter()
                        .map(|n| shard_of[n.index()])
                        .collect();
                    touched.sort_unstable();
                    touched.dedup();
                    for s in touched {
                        cores[s as usize].flows.insert(
                            spec.id,
                            FlowState {
                                info: Some(info.clone()),
                                record: FlowRecord::new(spec.clone()),
                                bytes_at_last_sample: 0,
                                timer_gen: 0,
                                home: s as usize == home,
                            },
                        );
                    }
                }
            }
            let hc = &mut cores[home];
            hc.pending_arrivals += 1;
            hc.events
                .schedule(spec.arrival, EventKind::FlowArrival(Box::new(spec)));
        }

        for core in &mut cores {
            core.setup();
        }
        let flows_done = run_barrier_loop(&mut cores, lookahead);
        merge_results(cores, flows_done)
    }
}

/// Drive the cores to completion: lock-step conservative-lookahead windows with two
/// barriers per round (publish/decide, then exchange/ingest). Every worker computes
/// the same break decision from the same published snapshot, so all threads leave the
/// loop together. Returns true if the run ended because every flow finished.
fn run_barrier_loop(cores: &mut [EngineCore], lookahead: SimTime) -> bool {
    let n = cores.len();
    let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let unfinished: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let pending: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let mailboxes: Vec<Mutex<Vec<ShardMsg>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = Barrier::new(n);
    let flows_done = AtomicBool::new(false);
    let look_ns = lookahead.as_nanos();

    std::thread::scope(|scope| {
        for (i, core) in cores.iter_mut().enumerate() {
            let next_times = &next_times;
            let unfinished = &unfinished;
            let pending = &pending;
            let mailboxes = &mailboxes;
            let barrier = &barrier;
            let flows_done = &flows_done;
            scope.spawn(move || {
                loop {
                    // Publish this core's horizon and liveness counters.
                    next_times[i].store(core.next_event_nanos(), Ordering::SeqCst);
                    unfinished[i].store(core.unfinished_flows as u64, Ordering::SeqCst);
                    pending[i].store(core.pending_arrivals as u64, Ordering::SeqCst);
                    barrier.wait();

                    // Identical decision on every worker from the published snapshot.
                    let t_min = next_times
                        .iter()
                        .map(|a| a.load(Ordering::SeqCst))
                        .min()
                        .expect("at least one shard");
                    let all_done = core.config.stop_when_flows_done
                        && unfinished
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .sum::<u64>()
                            == 0
                        && pending
                            .iter()
                            .map(|a| a.load(Ordering::SeqCst))
                            .sum::<u64>()
                            == 0;
                    if all_done {
                        if i == 0 {
                            flows_done.store(true, Ordering::SeqCst);
                        }
                        break;
                    }
                    if t_min == u64::MAX {
                        break;
                    }

                    // Safe window: no shard can inject an event below t_min + L.
                    let window_end = SimTime::from_nanos(t_min.saturating_add(look_ns));
                    core.process_window(window_end);

                    // Exchange boundary messages.
                    for (to, mailbox) in mailboxes.iter().enumerate() {
                        let batch = std::mem::take(&mut core.outbox[to]);
                        if !batch.is_empty() {
                            mailbox.lock().expect("mailbox poisoned").extend(batch);
                        }
                    }
                    barrier.wait();
                    let msgs = std::mem::take(&mut *mailboxes[i].lock().expect("mailbox poisoned"));
                    core.ingest(msgs);
                }
            });
        }
    });
    flows_done.load(Ordering::SeqCst)
}

/// Fold N cores' state into one [`SimResults`], deterministically.
///
/// * link counters come from the shard owning each link's source (its only writer);
/// * flow records are merged home-record-then-replicas with earliest-finish-wins,
///   summed drops and max delivered bytes (delivery happens on one shard only);
/// * traces are a disjoint union (each series is sampled by exactly one shard);
/// * the end time mirrors the sequential engine: the instant the last flow settled
///   when the run stopped because all flows finished, the latest core clock otherwise.
fn merge_results(mut cores: Vec<EngineCore>, flows_done: bool) -> SimResults {
    for core in &mut cores {
        core.retire_all_links();
    }
    let shard_of = cores[0].shard_of.clone();

    let link_stats: Vec<_> = cores[0]
        .network
        .links
        .iter()
        .map(|l| {
            let owner = shard_of[l.src.index()] as usize;
            (l.id, cores[owner].network.link(l.id).stats.clone())
        })
        .collect();

    let mut flows: HashMap<FlowId, FlowRecord> = HashMap::new();
    let mut max_now = SimTime::ZERO;
    let mut traces = crate::metrics::Traces::default();
    let mut queue = crate::event::QueueStats::default();
    for core in &cores {
        max_now = max_now.max(core.now);
        let s = core.events.stats();
        queue.pushes += s.pushes;
        queue.pops += s.pops;
        // Per-shard peaks need not be simultaneous; the sum is an upper bound.
        queue.peak_pending += s.peak_pending;
        queue.overflow_migrations += s.overflow_migrations;
        queue.buckets_sorted += s.buckets_sorted;
        for state in &core.flows.slots {
            let rec = &state.record;
            match flows.get_mut(&rec.spec.id) {
                None => {
                    flows.insert(rec.spec.id, rec.clone());
                }
                Some(merged) => {
                    merged.drops += rec.drops;
                    merged.raw_bytes_delivered =
                        merged.raw_bytes_delivered.max(rec.raw_bytes_delivered);
                    merged.failed |= rec.failed;
                    if let Some(t) = rec.completed_at {
                        apply_finish(merged, true, t);
                    } else if let Some(t) = rec.terminated_at {
                        apply_finish(merged, false, t);
                    }
                }
            }
        }
        for (k, v) in &core.traces.link_utilization {
            traces
                .link_utilization
                .entry(*k)
                .or_default()
                .extend(v.iter().copied());
        }
        for (k, v) in &core.traces.link_queue_bytes {
            traces
                .link_queue_bytes
                .entry(*k)
                .or_default()
                .extend(v.iter().copied());
        }
        for (k, v) in &core.traces.flow_goodput {
            traces
                .flow_goodput
                .entry(*k)
                .or_default()
                .extend(v.iter().copied());
        }
        traces
            .event_queue_depth
            .extend(core.traces.event_queue_depth.iter().copied());
    }
    for series in traces
        .link_utilization
        .values_mut()
        .chain(traces.link_queue_bytes.values_mut())
        .chain(traces.flow_goodput.values_mut())
        .chain(std::iter::once(&mut traces.event_queue_depth))
    {
        // Stable sort: same-instant samples keep shard order (cores are iterated in
        // shard order above), so the merged series is deterministic.
        series.sort_by_key(|s| s.at);
    }

    // Sequential runs that stop because every flow finished end at the instant of the
    // final settling event: the last finish, or the arrival of an unroutable flow if
    // that zeroed the pending count afterwards.
    let end_time = if flows_done {
        let mut end = SimTime::ZERO;
        for r in flows.values() {
            if let Some(t) = r.completed_at {
                end = end.max(t);
            }
            if let Some(t) = r.terminated_at {
                end = end.max(t);
            }
            if r.failed {
                end = end.max(r.spec.arrival);
            }
        }
        if end == SimTime::ZERO {
            max_now
        } else {
            end
        }
    } else {
        max_now
    };

    SimResults {
        flows,
        link_stats,
        traces,
        queue,
        end_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{blast_sim, dumbbell, BlastAgent};
    use crate::engine::SimConfig;
    use crate::network::{LinkParams, Network};
    use crate::packet::{PacketKind, MTU_BYTES};

    /// Split the dumbbell (h0,h1 – s0 – s1 – h2) down the middle: the senders' side on
    /// shard 0, the receiver's side on shard 1. The s0–s1 links cross the boundary.
    fn dumbbell_assignment() -> ShardAssignment {
        // Nodes: h0=0, h1=1, s0=2, s1=3, h2=4.
        ShardAssignment::new(vec![0, 0, 0, 1, 1], 2, crate::network::DEFAULT_PROP_DELAY)
    }

    fn run_split(mut sim: Simulator) -> SimResults {
        sim.core.config.seed = 7;
        let assignment = dumbbell_assignment();
        sim.run_sharded(&assignment, |_| Box::new(crate::engine::ShortestPathRouter))
    }

    fn run_seq(mut sim: Simulator) -> SimResults {
        sim.core.config.seed = 7;
        sim.run()
    }

    fn two_flow_sim() -> Simulator {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 200_000));
        sim.add_flow(
            FlowSpec::new(2, hosts[1], hosts[2], 150_000).with_arrival(SimTime::from_micros(50)),
        );
        sim
    }

    #[test]
    fn sharded_matches_sequential_flow_records() {
        let seq = run_seq(two_flow_sim());
        let par = run_split(two_flow_sim());
        assert_eq!(seq.flows.len(), par.flows.len());
        for (id, s) in &seq.flows {
            let p = par.flow(*id).unwrap();
            assert_eq!(s.outcome(), p.outcome(), "outcome mismatch for {id:?}");
            assert_eq!(s.completed_at, p.completed_at, "fct mismatch for {id:?}");
            assert_eq!(s.bytes_acked, p.bytes_acked);
            assert_eq!(s.raw_bytes_delivered, p.raw_bytes_delivered);
            assert_eq!(s.drops, p.drops);
        }
        assert_eq!(seq.end_time, par.end_time);
    }

    #[test]
    fn sharded_link_stats_match_up_to_the_stop_tail() {
        let seq = run_seq(two_flow_sim());
        let par = run_split(two_flow_sim());
        // The sequential engine halts at the exact event that settles the last flow;
        // a shard only learns that at the next barrier, so it may serialize a few
        // more in-flight packets from the window containing the finish (bounded by
        // one lookahead window). Counters are therefore >= sequential, and close.
        for ((id_s, s), (id_p, p)) in seq.link_stats.iter().zip(par.link_stats.iter()) {
            assert_eq!(id_s, id_p);
            assert!(
                p.bytes_transmitted >= s.bytes_transmitted,
                "sharded processed fewer events than sequential on {id_s:?}"
            );
            assert!(
                p.bytes_transmitted - s.bytes_transmitted <= 10 * MTU_BYTES as u64,
                "stop tail on {id_s:?} exceeds one lookahead window: {} vs {}",
                p.bytes_transmitted,
                s.bytes_transmitted
            );
            assert_eq!(s.tail_drops, p.tail_drops);
        }
    }

    #[test]
    fn single_shard_assignment_is_the_sequential_path() {
        let seq = run_seq(two_flow_sim());
        let mut sim = two_flow_sim();
        sim.core.config.seed = 7;
        let one = ShardAssignment::single(5);
        let par = sim.run_sharded(&one, |_| Box::new(crate::engine::ShortestPathRouter));
        assert_eq!(seq.end_time, par.end_time);
        for (id, s) in &seq.flows {
            assert_eq!(s.completed_at, par.flow(*id).unwrap().completed_at);
        }
    }

    #[test]
    fn sharded_run_is_self_deterministic() {
        let a = run_split(two_flow_sim());
        let b = run_split(two_flow_sim());
        assert_eq!(a.end_time, b.end_time);
        for (id, ra) in &a.flows {
            assert_eq!(ra.completed_at, b.flow(*id).unwrap().completed_at);
        }
    }

    #[test]
    fn unroutable_flow_on_a_shard_is_recorded_failed() {
        // Disconnected islands split across shards.
        let mut net = Network::new();
        let h0 = net.add_host("h0");
        let s0 = net.add_switch("s0");
        let h1 = net.add_host("h1");
        let h2 = net.add_host("h2");
        let s1 = net.add_switch("s1");
        let h3 = net.add_host("h3");
        net.add_duplex_link(h0, s0, LinkParams::default());
        net.add_duplex_link(s0, h1, LinkParams::default());
        net.add_duplex_link(h2, s1, LinkParams::default());
        net.add_duplex_link(s1, h3, LinkParams::default());
        let mut sim = blast_sim(net);
        sim.add_flow(FlowSpec::new(1, h0, h1, 50_000));
        sim.add_flow(FlowSpec::new(2, h0, h3, 50_000));
        let assignment = ShardAssignment::new(vec![0, 0, 0, 1, 1, 1], 2, SimTime::MAX);
        let res = sim.run_sharded(&assignment, |_| Box::new(crate::engine::ShortestPathRouter));
        assert_eq!(
            res.flow(FlowId(1)).unwrap().outcome(),
            crate::flow::FlowOutcome::Completed
        );
        assert_eq!(
            res.flow(FlowId(2)).unwrap().outcome(),
            crate::flow::FlowOutcome::Failed
        );
    }

    #[test]
    fn cross_shard_traces_merge_disjointly() {
        let mut sim = two_flow_sim();
        // Trace the cross-boundary link s0->s1 (owned by shard 0) and the receiver
        // access link s1->h2 (owned by shard 1), plus per-flow goodput (sampled at the
        // destination shard).
        sim.core.config.trace = crate::metrics::TraceConfig {
            interval: SimTime::from_micros(200),
            links: vec![LinkId(4), LinkId(6)],
            flows: true,
        };
        sim.core.config.stop_when_flows_done = false;
        sim.core.config.max_sim_time = SimTime::from_millis(3);
        let res = run_split(sim);
        assert!(!res.traces.link_utilization[&LinkId(4)].is_empty());
        assert!(!res.traces.link_utilization[&LinkId(6)].is_empty());
        assert!(res.traces.flow_goodput.contains_key(&FlowId(1)));
        for series in res.traces.link_utilization.values() {
            for pair in series.windows(2) {
                assert!(pair[0].at < pair[1].at, "duplicate or unsorted samples");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_assignment_panics() {
        let sim = blast_sim(dumbbell());
        let bad = ShardAssignment::new(vec![0, 1], 2, SimTime::MAX);
        let _ = sim.run_sharded(&bad, |_| Box::new(crate::engine::ShortestPathRouter));
    }

    #[test]
    fn apply_finish_prefers_earliest_then_completion() {
        let spec = FlowSpec::new(1, NodeId(0), NodeId(1), 1000);
        let mut rec = FlowRecord::new(spec);
        apply_finish(&mut rec, false, SimTime::from_micros(10));
        assert!(rec.terminated_at.is_some());
        // A later completion does not displace an earlier termination...
        apply_finish(&mut rec, true, SimTime::from_micros(20));
        assert_eq!(rec.terminated_at, Some(SimTime::from_micros(10)));
        assert!(rec.completed_at.is_none());
        // ...an earlier completion does...
        apply_finish(&mut rec, true, SimTime::from_micros(5));
        assert_eq!(rec.completed_at, Some(SimTime::from_micros(5)));
        assert!(rec.terminated_at.is_none());
        assert_eq!(rec.bytes_acked, 1000);
        // ...and at equal times completion beats termination.
        apply_finish(&mut rec, false, SimTime::from_micros(5));
        assert_eq!(rec.completed_at, Some(SimTime::from_micros(5)));
    }

    /// A sender-side agent that spawns a second flow mid-run (like M-PDQ subflows):
    /// run-time routing and cross-shard registration must both work.
    struct Spawner {
        inner: BlastAgent,
        spawned: bool,
    }
    impl crate::agent::HostAgent for Spawner {
        fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut crate::agent::Ctx) {
            self.inner.on_flow_arrival(flow, ctx);
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut crate::agent::Ctx) {
            if packet.kind == PacketKind::Ack && !self.spawned {
                self.spawned = true;
                let parent = ctx.flow(packet.flow).unwrap().spec.clone();
                let mut sub = FlowSpec::new(900, parent.src, parent.dst, 40_000);
                sub.parent = Some(parent.id);
                ctx.spawn_flow(sub);
            }
            self.inner.on_packet(packet, ctx);
        }
        fn on_timer(
            &mut self,
            flow: FlowId,
            kind: crate::event::TimerKind,
            token: u64,
            ctx: &mut crate::agent::Ctx,
        ) {
            self.inner.on_timer(flow, kind, token, ctx);
        }
    }

    #[test]
    fn run_time_spawned_flows_cross_shards() {
        let net = dumbbell();
        let hosts = net.hosts();
        let mut sim = Simulator::new(net, SimConfig::default());
        sim.install_agents(|_, _| {
            Box::new(Spawner {
                inner: BlastAgent::new(),
                spawned: false,
            })
        });
        sim.add_flow(FlowSpec::new(1, hosts[0], hosts[2], 60_000));
        let res = run_split(sim);
        assert_eq!(
            res.flow(FlowId(1)).unwrap().outcome(),
            crate::flow::FlowOutcome::Completed
        );
        let sub = res.flow(FlowId(900)).unwrap();
        assert_eq!(sub.outcome(), crate::flow::FlowOutcome::Completed);
        assert_eq!(sub.raw_bytes_delivered, 40_000);
    }
}
