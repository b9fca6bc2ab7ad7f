//! Allocation accounting for the engine hot path.
//!
//! The engine's contract: forwarding a packet hop by hop performs **zero heap
//! allocations per hop** in steady state — flow state is resolved through dense
//! slabs, the next link is read from the flow's path as a plain id, a packet stays in
//! one slot of a recycled pool from injection to delivery, and the links' departure
//! rings / the event queue only reallocate on (amortized, logarithmic) capacity
//! growth. Per *event* the same holds: agent callbacks queue their actions into one
//! reused buffer, and bucket sorts sort a reused scratch of keys.
//!
//! The tests pin both properties with a counting global allocator. Running the same
//! fixed workload over a *longer* path multiplies the number of per-hop operations
//! while holding flows, packets and agent callbacks constant; running it with *more
//! packets* multiplies the agent callbacks and bucket sorts. Any allocation per hop,
//! per callback or per sort would scale the count difference with that work; we
//! assert the difference stays far below it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use pdq_netsim::{
    Ctx, FlowId, FlowInfo, FlowSpec, HostAgent, LinkParams, Network, Packet, PacketKind, SimConfig,
    Simulator, TimerKind, MSS_BYTES,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Agent callbacks made by the engine (flow arrivals and packet deliveries).
static CALLBACKS: AtomicU64 = AtomicU64::new(0);

/// The counters above are process-wide and tests run on parallel threads, so each
/// test holds this lock while it measures. It guards no data, so a poisoned lock
/// (another test failed) is still usable.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Window sender / ACKing receiver, the minimal transport that drives the forwarding
/// hot path without protocol overhead: the sender puts `window` packets on the wire
/// at once and one more for every ACK, so a window of at least the flow's packet
/// count is a plain blast.
struct Blast {
    window: u64,
    sent: HashMap<FlowId, u64>,
    received: HashMap<FlowId, u64>,
}

impl Blast {
    fn new(window: u64) -> Self {
        Blast {
            window,
            sent: HashMap::new(),
            received: HashMap::new(),
        }
    }

    /// Send the flow's next MSS of data, if any is left.
    fn send_next(&mut self, flow: FlowId, ctx: &mut Ctx) {
        let spec = &ctx.flow(flow).unwrap().spec;
        let (src, dst, size) = (spec.src, spec.dst, spec.size_bytes);
        let offset = self.sent.entry(flow).or_insert(0);
        if *offset < size {
            let payload = (size - *offset).min(MSS_BYTES as u64) as u32;
            ctx.send(Packet::data(flow, src, dst, *offset, payload));
            *offset += payload as u64;
        }
    }
}

impl HostAgent for Blast {
    fn on_flow_arrival(&mut self, flow: &FlowInfo, ctx: &mut Ctx) {
        CALLBACKS.fetch_add(1, Ordering::Relaxed);
        for _ in 0..self.window {
            self.send_next(flow.spec.id, ctx);
        }
    }
    fn on_packet(&mut self, packet: Packet, ctx: &mut Ctx) {
        CALLBACKS.fetch_add(1, Ordering::Relaxed);
        match packet.kind {
            PacketKind::Data => {
                let size = ctx.flow(packet.flow).unwrap().spec.size_bytes;
                let total = self.received.entry(packet.flow).or_insert(0);
                *total += packet.payload as u64;
                let total = *total;
                ctx.send(packet.make_echo(PacketKind::Ack, total));
                if total >= size {
                    ctx.flow_completed(packet.flow);
                }
            }
            PacketKind::Ack => self.send_next(packet.flow, ctx),
            _ => {}
        }
    }
    fn on_timer(&mut self, _: FlowId, _: TimerKind, _: u64, _: &mut Ctx) {}
}

/// A line topology `h0 - s0 - s1 - ... - s(n-1) - h1` with `n` switches.
fn line(switches: usize) -> Network {
    let mut net = Network::new();
    let h0 = net.add_host("h0");
    let mut prev = h0;
    for i in 0..switches {
        let s = net.add_switch(format!("s{i}"));
        net.add_duplex_link(prev, s, LinkParams::default());
        prev = s;
    }
    let h1 = net.add_host("h1");
    net.add_duplex_link(prev, h1, LinkParams::default());
    net
}

/// What one run cost, counted over `sim.run()` alone.
struct Cost {
    allocations: u64,
    callbacks: u64,
    buckets_sorted: u64,
}

/// The cost of running `packets` full-MSS packets (plus ACKs) end to end over a line
/// with `switches` switches, at most `window` of them in flight.
fn run(switches: usize, packets: u64, window: u64) -> Cost {
    let net = line(switches);
    let hosts = net.hosts();
    let mut sim = Simulator::new(net, SimConfig::default());
    sim.install_agents(|_, _| Box::new(Blast::new(window)));
    sim.add_flow(FlowSpec::new(
        1,
        hosts[0],
        hosts[1],
        packets * MSS_BYTES as u64,
    ));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let callbacks = CALLBACKS.load(Ordering::Relaxed);
    let res = sim.run();
    let cost = Cost {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        callbacks: CALLBACKS.load(Ordering::Relaxed) - callbacks,
        buckets_sorted: res.queue.buckets_sorted,
    };
    assert_eq!(res.completed_count(), 1, "flow must complete");
    cost
}

/// Allocations of a blast: every packet sent at once.
fn allocs_for(switches: usize, packets: u64) -> u64 {
    run(switches, packets, packets).allocations
}

/// Zero allocations per hop: stretching the path from 2 to 12 switches adds
/// `10 extra hops × 200 packets × 2 directions = 4000` hop traversals (each a
/// link enqueue with its departure-ring entry, and one PacketAtNode event). If any
/// of those allocated even once per hop, the allocation delta would be ≥ 4000;
/// container capacity growth (event queue, departure rings, packet pool — all
/// amortized) stays orders of magnitude below that.
#[test]
fn forwarding_does_not_allocate_per_hop() {
    const PACKETS: u64 = 200;
    let _measuring = measuring();
    // Warm up the allocator's internal structures once.
    let _ = allocs_for(2, PACKETS);
    let short = allocs_for(2, PACKETS);
    let long = allocs_for(12, PACKETS);
    let extra = long.saturating_sub(short);
    let per_hop_ops = 10 * PACKETS * 2; // extra hops × packets × (data + ack)
    eprintln!(
        "short={short} long={long} extra={extra} budget={}",
        per_hop_ops / 4
    );
    assert!(
        extra < per_hop_ops / 4,
        "path stretched by {per_hop_ops} hop traversals cost {extra} allocations \
         (short={short}, long={long}); the hot path is allocating per hop"
    );
}

/// Zero allocations per agent callback and per bucket sort: ten times the packets
/// over the same short path adds two delivery callbacks (data and ACK) per extra
/// packet and spreads them over ten times the wheel buckets, each sorted once. If a
/// callback allocated its action buffer, or a sort its keys, the allocation delta
/// would be at least the extra callbacks and sorts. A window of 32 packets keeps the
/// pool and the queue at a steady size, and the shorter run already spans more than
/// the wheel (1024 buckets of ~25 µs), so its bucket buffers are all in use before
/// the longer one starts adding work.
#[test]
fn callbacks_and_bucket_sorts_do_not_allocate() {
    const PACKETS: u64 = 3_000;
    const WINDOW: u64 = 32;
    let _measuring = measuring();
    let base = run(2, PACKETS, WINDOW);
    let more = run(2, 10 * PACKETS, WINDOW);
    let callbacks = more.callbacks - base.callbacks;
    let sorts = more.buckets_sorted - base.buckets_sorted;
    let extra = more.allocations.saturating_sub(base.allocations);
    eprintln!(
        "base={} more={} extra={extra} extra callbacks={callbacks} extra sorts={sorts}",
        base.allocations, more.allocations
    );
    assert!(
        extra < (callbacks + sorts) / 100,
        "{callbacks} extra callbacks and {sorts} extra bucket sorts cost {extra} \
         allocations (base={}, more={}); callbacks or sorts are allocating",
        base.allocations,
        more.allocations
    );
}
