//! The discrete-event queue: a deterministic three-tier calendar/ladder scheduler.
//!
//! Events are ordered by firing time, then by a **content-derived tie-break** that is
//! independent of insertion order: creation time first (an event scheduled earlier in
//! simulated time fires first among same-instant events, which is what a global FIFO
//! gives almost everywhere), then a deterministic rank over the event class and its
//! identifiers (flow, node, link, packet). A monotone per-queue sequence number is the
//! final fallback for fully identical keys, so same-engine runs stay FIFO-stable.
//!
//! Deriving the order from content rather than from insertion history is what makes
//! the partitioned engine (see the `shard` module) reproduce the sequential engine's
//! event order exactly: a shard inserts a cross-boundary packet when the barrier
//! delivers it, not when its sender transmitted it, so insertion order differs between
//! shard counts — but the content key does not.
//!
//! # Structure: fine wheel, coarse wheel, residual heap
//!
//! The queue is the hottest data structure in the simulator: every packet hop pushes
//! and pops one [`Event`]. A binary heap pays an `O(log n)` sift on a ~64-byte key
//! comparison for *every* push and pop; at 10⁵–10⁶ pending events those sifts dominate
//! the run. The queue is therefore a calendar/ladder scheduler with three tiers, in
//! the style of Varghese & Lauck's hierarchical timing wheels:
//!
//! * **Near future — the fine wheel.** Time is cut into fixed-width buckets
//!   (`bucket width` defaults to the per-hop latency quantum and is derived from the
//!   topology's minimum link latency by the engine — the same quantum the shard
//!   lookahead uses, so one bucket ≈ one hop's worth of events). The fine ring holds
//!   the [`WHEEL_SLOTS`] buckets after the current one; pushing into it is `O(1)`
//!   (append to the bucket's unsorted `Vec`).
//! * **Far future — the coarse wheel.** Its slots are *blocks* of [`WHEEL_SLOTS`]
//!   buckets each, and it holds the [`WHEEL_SLOTS`] blocks after the current bucket's
//!   block (~26 s at the engine's ~25 µs buckets). Pushing into it is `O(1)` too.
//!   When the next occupied block starts at or before the next occupied fine bucket,
//!   the cursor steps to just before the block and the block's events spill into the
//!   fine ring at `O(1)` each — the fine ring's span is exactly one block. Long-haul
//!   WAN arrivals and timers (30 ms one-way is past the fine ring's ~26 ms) live here.
//! * **Beyond the coarse horizon — a residual heap.** Only events further out than
//!   the coarse ring reaches (the hard-stop event, very long timers, or everything
//!   past about a millisecond at 1 ns buckets) sit in a min-heap. Each time the cursor
//!   moves, the events the coarse horizon now covers move from the heap into the
//!   coarse ring; when both rings are empty, the cursor jumps ahead so the heap
//!   minimum's block enters the coarse ring.
//!
//! A bucket is sorted **lazily**, by the full deterministic key, only when it becomes
//! the *current* bucket; popped events then stream out of a sorted run with no
//! per-event comparisons. The sort itself allocates nothing: it sorts a reused
//! scratch of `(at, index)` pairs, orders runs of equal `at` by the full key, and
//! then permutes the events in place. Same-bucket events
//! scheduled while the bucket is draining (same-instant timers, forwarding chains)
//! are placed by binary search into the not-yet-popped tail of the run. Amortized
//! push/pop is `O(1)` for both wheels and `O(log n)` only for the residual heap.
//!
//! # Why the total order survives the restructure
//!
//! Popping always returns the globally minimal key, exactly as a binary heap would:
//!
//! * buckets partition time, and the current bucket's range is `<=` every other
//!   pending event's, so the global minimum lives in the current run;
//! * the current run is sorted by the full key `(at, created, class, content, seq)`
//!   and in-run insertions maintain that order (an event scheduled *behind* the
//!   current bucket — e.g. a cross-shard timer clamped to `now` — binary-searches to
//!   the front of the remaining tail, exactly where the heap would have popped it);
//! * far-tier events (coarse or heap) reach their fine bucket before that bucket is
//!   sorted, so they participate in the same in-bucket order.
//!
//! Sequence numbers are assigned at push time in the same order as before, so the
//! popped sequence is **bit-identical** to the binary-heap implementation — every
//! figure table, cached record and shard-count-invariance fingerprint is preserved.
//! `tests/event_queue_prop.rs` pins this differentially against a reference heap.
//!
//! # Why events are small
//!
//! [`EventKind`] never carries a large payload inline — a flow arrival boxes its
//! `FlowSpec` (one allocation per *flow*) and a packet lives in the engine's recycled
//! packet pool and is referenced by a [`PacketSlot`] (no allocation per *hop* in
//! steady state). This keeps `size_of::<Event>()` at a few machine words, so the
//! bucket sort's swaps and in-run insertions move little memory.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::flow::FlowSpec;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::time::SimTime;

/// Timer classes used by transport agents. The meaning of each class is up to the
/// protocol; the engine merely delivers them back to the owning host.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Retransmission timeout (TCP-style).
    Rto,
    /// Rate-pacing timer: time to hand the next packet to the NIC.
    Pacing,
    /// PDQ probe timer for paused flows.
    Probe,
    /// M-PDQ subflow re-balancing timer.
    Rebalance,
    /// Protocol-defined timer class.
    Custom(u8),
}

/// A handle to a packet in the engine's packet pool, where it stays from the moment the
/// engine accepts it until it is delivered, dropped or handed to another shard, hop
/// after hop. Pool slots are recycled, so packet hops allocate nothing in steady
/// state; the slot is only meaningful to the engine that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketSlot(pub u32);

/// What happens at an instant of simulated time.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A new flow arrives at its source host. Boxed: a `FlowSpec` is ~10× the size of
    /// every other variant and would otherwise inflate the whole queue.
    FlowArrival(Box<FlowSpec>),
    /// A packet has crossed a link (queueing, serialization, propagation and
    /// processing) and is now at `node`. Scheduled when the link accepts it, created
    /// at its departure time.
    PacketAtNode {
        /// Node the packet is at.
        node: NodeId,
        /// Where the packet is parked in the engine's packet pool.
        packet: PacketSlot,
        /// Flow the packet belongs to — the primary same-instant ordering key, so
        /// that ordering is preserved under monotone flow-id relabelings.
        flow: FlowId,
        /// Content-derived subkey (see [`crate::engine::packet_tie`]) separating
        /// same-flow packets: pool slots are engine-local and
        /// insertion-order-dependent, so the key is computed from the packet itself
        /// before it is parked.
        tie: u64,
    },
    /// A host timer fires.
    Timer {
        /// Host that set the timer.
        node: NodeId,
        /// Flow the timer belongs to.
        flow: FlowId,
        /// Timer class.
        kind: TimerKind,
        /// Opaque token chosen by the agent (used to ignore stale timers).
        token: u64,
        /// The flow's timer generation at scheduling time; the engine drops the event
        /// without a callback if the flow's generation has moved on (lazy
        /// cancellation — see `Ctx::cancel_flow_timers`).
        gen: u32,
    },
    /// A periodic link-controller tick (e.g. the PDQ / RCP rate controller update).
    ControllerTick {
        /// The link whose controller should tick.
        link: LinkId,
    },
    /// Periodic sampling of link utilization / queue sizes for traces.
    TraceSample,
    /// Hard stop of the simulation.
    Stop,
}

/// Mix two words into a well-distributed 64-bit key (splitmix-style). Used to build
/// content tie-break keys that are stable across engines but unlikely to collide.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.rotate_left(31);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

/// Class rank of a link's transmit completion. Completions are not queued events:
/// every link is a FIFO whose departure times are fixed at enqueue, so the engine
/// retires them lazily (see [`EventPos`]). The rank keeps their place among
/// same-instant events: after packet deliveries, before timers and ticks.
pub(crate) const TRANSMIT_RANK: u8 = 2;

impl EventKind {
    /// Rank of the event class among same-instant events. Flow arrivals fire before
    /// packet deliveries, which fire before transmit completions ([`TRANSMIT_RANK`]),
    /// timers and ticks — a fixed convention both engines share.
    fn class_rank(&self) -> u8 {
        match self {
            EventKind::FlowArrival(_) => 0,
            EventKind::PacketAtNode { .. } => 1,
            EventKind::Timer { .. } => 3,
            EventKind::ControllerTick { .. } => 4,
            EventKind::TraceSample => 5,
            EventKind::Stop => 6,
        }
    }

    /// Content-derived `(primary, subkey)` ordering events of the same class at the
    /// same instant. The primary key is the owning flow's id (or link's id), so flows
    /// tie-break in id order and the order is preserved under monotone flow-id
    /// relabelings; the subkey separates same-flow events and is built only from
    /// id-invariant packet/timer content. Neither component ever depends on
    /// engine-internal state such as pool slots or insertion counters — the property
    /// the partitioned engine's determinism rests on.
    fn content_key(&self) -> (u64, u64) {
        match self {
            EventKind::FlowArrival(spec) => (spec.id.value(), 0),
            EventKind::PacketAtNode {
                node, flow, tie, ..
            } => (flow.value(), mix(*tie, node.0 as u64)),
            EventKind::Timer {
                node,
                flow,
                kind,
                token,
                ..
            } => {
                let kind_rank = match kind {
                    TimerKind::Rto => 0u64,
                    TimerKind::Pacing => 1,
                    TimerKind::Probe => 2,
                    TimerKind::Rebalance => 3,
                    TimerKind::Custom(c) => 4 + *c as u64,
                };
                (
                    flow.value(),
                    mix(*token, ((node.0 as u64) << 8) | kind_rank),
                )
            }
            EventKind::ControllerTick { link } => (link.0 as u64, 0),
            EventKind::TraceSample | EventKind::Stop => (0, 0),
        }
    }
}

/// An event scheduled for a particular time.
#[derive(Clone, Debug)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Simulated time at which the event was scheduled (the queue's clock when
    /// `schedule` ran, or the explicit stamp passed to `schedule_created`). First
    /// tie-break among same-instant events: causes fire in scheduling order.
    pub created: SimTime,
    /// Final FIFO fallback sequence number (assigned by the queue). Only reached when
    /// `(at, created, class, content)` are all equal, i.e. for genuinely identical
    /// events within one engine.
    pub seq: u64,
    /// What to do.
    pub kind: EventKind,
}

/// The full deterministic ordering key of an [`Event`].
type EventKey = (SimTime, SimTime, u8, (u64, u64), u64);

impl Event {
    /// The full deterministic ordering key (ascending = fires first).
    fn key(&self) -> EventKey {
        (
            self.at,
            self.created,
            self.kind.class_rank(),
            self.kind.content_key(),
            self.seq,
        )
    }

    /// The event's position in the dispatch order, up to its class.
    pub(crate) fn pos(&self) -> EventPos {
        EventPos {
            at: self.at,
            created: self.created,
            class: self.kind.class_rank(),
        }
    }
}

/// A point in the dispatch order: the `(time, creation time, class rank)` prefix of
/// an event key.
///
/// The engine compares a link's pending transmit completions against the position
/// of the event being dispatched: a packet whose completion key
/// `(depart, depart − tx, TRANSMIT_RANK)` sorts below it has left the link. No
/// queued event has class [`TRANSMIT_RANK`], so the prefix never ties and the
/// content key is never needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventPos {
    pub(crate) at: SimTime,
    pub(crate) created: SimTime,
    pub(crate) class: u8,
}

impl EventPos {
    /// The position of a transmit completion at `depart` of a packet that began
    /// serializing at `start`.
    pub(crate) fn transmit_done(start: SimTime, depart: SimTime) -> Self {
        EventPos {
            at: depart,
            created: start,
            class: TRANSMIT_RANK,
        }
    }

    /// Past every event that fires strictly before `t`, and before every event at `t`.
    pub(crate) fn start_of(t: SimTime) -> Self {
        EventPos {
            at: t,
            created: SimTime::ZERO,
            class: 0,
        }
    }

    /// Past every event that fires at or before `t`.
    pub(crate) fn end_of(t: SimTime) -> Self {
        EventPos {
            at: t,
            created: SimTime::MAX,
            class: u8::MAX,
        }
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    /// Natural ascending key order: the minimum fires first. (Min-heap users must
    /// wrap events in [`std::cmp::Reverse`]; the queue's residual heap does.) The
    /// `(at, created)` prefix decides almost every comparison, so the class and
    /// content parts of the key are only computed when it ties.
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.created)
            .cmp(&(other.at, other.created))
            .then_with(|| self.key().cmp(&other.key()))
    }
}

/// Cheap telemetry counters maintained by [`EventQueue`]; see [`EventQueue::stats`].
///
/// The counters cost one integer op per queue operation, so they are always on —
/// scheduler regressions (e.g. events thrashing between the far tiers and the fine
/// wheel, or buckets re-sorting pathologically often) are visible from a run's
/// summary without a profiler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Maximum number of simultaneously pending events.
    pub peak_pending: u64,
    /// Events moved from a far tier (the coarse wheel, which every residual-heap event
    /// passes through) into the fine wheel.
    pub overflow_migrations: u64,
    /// Buckets lazily sorted on becoming current (≈ one per non-empty bucket drained).
    pub buckets_sorted: u64,
}

/// Slots per wheel ring. Power of two. A fine slot is one bucket and a coarse slot is
/// one block of `WHEEL_SLOTS` buckets, so with the engine's per-hop bucket width
/// (~25 µs at the paper's defaults) the fine ring spans ~26 ms of simulated future —
/// past every intra-datacenter packet and pacing timer — and the coarse ring ~26 s,
/// past every WAN round trip and retransmission timeout.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
const RING: u64 = WHEEL_SLOTS as u64;

/// One wheel ring: [`WHEEL_SLOTS`] unsorted `Vec`s indexed by an absolute index
/// (bucket or block) modulo the ring size, plus an occupancy bitmap. Its owner keeps
/// every resident index in `(base, base + WHEEL_SLOTS]` for the ring's base, so a slot
/// holds events of exactly one absolute index.
#[derive(Debug)]
struct Ring {
    slots: Vec<Vec<Event>>,
    occupied: [u64; WHEEL_WORDS],
    /// Total events in `slots`.
    len: usize,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            len: 0,
        }
    }

    fn slot(index: u64) -> usize {
        (index % RING) as usize
    }

    fn push(&mut self, index: u64, ev: Event) {
        let slot = Self::slot(index);
        self.slots[slot].push(ev);
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
        self.len += 1;
    }

    /// Swap slot `index`'s events out into `with` (which must be empty).
    fn take(&mut self, index: u64, with: &mut Vec<Event>) {
        debug_assert!(with.is_empty());
        let slot = Self::slot(index);
        std::mem::swap(with, &mut self.slots[slot]);
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        self.len -= with.len();
    }

    /// The earliest occupied index in `(base, base + WHEEL_SLOTS]`. By the residency
    /// invariant the first set bit at ring distance `d` is exactly index `base + d`.
    fn next_after(&self, base: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut d = 1u64;
        while d <= RING {
            let slot = Self::slot(base.wrapping_add(d));
            let word = self.occupied[slot / 64] >> (slot % 64);
            if word != 0 {
                // Every distance scanned so far was empty, so a set bit here cannot
                // be a wrapped-around distance past `WHEEL_SLOTS`.
                let d = d + u64::from(word.trailing_zeros());
                debug_assert!(d <= RING);
                return Some(base + d);
            }
            // Skip to the next bitmap word boundary.
            d += 64 - (slot % 64) as u64;
        }
        None
    }

    /// Move every event out into `all`, leaving the ring empty.
    fn drain_into(&mut self, all: &mut Vec<Event>) {
        for slot in &mut self.slots {
            all.append(slot);
        }
        self.occupied = [0; WHEEL_WORDS];
        self.len = 0;
    }

    /// True if every resident event has index `f(e)` in `(base, base + WHEEL_SLOTS]`
    /// and sits in that index's slot, and the bitmap and `len` agree with the slots.
    fn holds_only(&self, base: u64, f: impl Fn(&Event) -> u64) -> bool {
        self.slots.iter().enumerate().all(|(slot, evs)| {
            let bit = self.occupied[slot / 64] & (1u64 << (slot % 64)) != 0;
            bit != evs.is_empty()
                && evs.iter().all(|e| {
                    let i = f(e);
                    i > base && i - base <= RING && Self::slot(i) == slot
                })
        }) && self.len == self.slots.iter().map(Vec::len).sum::<usize>()
    }
}

/// The step [`EventQueue::advance`] takes next, by where the earliest pending event
/// outside the current run lives.
enum Next {
    /// In this fine bucket; no coarse block starts at or before it.
    Bucket(u64),
    /// In coarse block `block`, or in fine bucket `fine` (which starts no earlier
    /// than the block): the block must spill before any fine bucket becomes current.
    Block { block: u64, fine: Option<u64> },
    /// Both rings are empty; only the residual heap holds events.
    Heap,
    /// Nothing is pending.
    Empty,
}

/// A min-priority queue of events ordered by
/// `(time, creation time, class rank, content key)` — an insertion-order-independent
/// total order shared by the sequential and the partitioned engine.
///
/// Implemented as a three-tier calendar/ladder scheduler (see the module docs): a
/// fine bucket wheel with lazily sorted buckets, a coarse wheel of
/// [`WHEEL_SLOTS`]-bucket blocks and a residual heap beyond the coarse horizon. The
/// popped sequence is bit-identical to a binary heap over the same key.
///
/// With `N` = [`WHEEL_SLOTS`] and `C = cursor / N`, the tiers hold:
/// `current` the buckets `<= cursor`, the fine ring the buckets `(cursor, cursor + N]`,
/// the coarse ring the blocks `(C, C + N]` and the heap the blocks `> C + N`.
#[derive(Debug)]
pub struct EventQueue {
    /// The current bucket's not-yet-popped events, sorted **descending** by key so
    /// the next event to fire is `current.last()` and popping is `Vec::pop`.
    current: Vec<Event>,
    /// Absolute index (`at / bucket_ns`) of the bucket `current` is draining.
    cursor: u64,
    /// Future buckets `(cursor, cursor + N]`, by bucket index; unsorted. The ring's
    /// N slots hold N buckets because the current bucket lives in `current`.
    fine: Ring,
    /// Future blocks `(cursor / N, cursor / N + N]`, by block index; unsorted.
    coarse: Ring,
    /// Earliest firing time in each occupied coarse slot, so `peek_time` never scans
    /// a block.
    coarse_min: Vec<SimTime>,
    /// Capacity recycled from the last spilled coarse block, handed to the next coarse
    /// slot that fills up.
    spare: Vec<Event>,
    /// Scratch for [`EventQueue::sort_current`], kept so bucket sorts never allocate.
    sort_keys: Vec<(u64, u32)>,
    /// Residual tier: events beyond the coarse horizon, min-first.
    heap: BinaryHeap<Reverse<Event>>,
    /// Bucket width in nanoseconds (≥ 1).
    bucket_ns: u64,
    len: usize,
    next_seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Default bucket width: one hop's latency at the paper's link defaults
    /// (propagation + per-hop processing). The engine overrides this with the actual
    /// topology's minimum link latency — the same quantum the shard lookahead uses.
    pub const DEFAULT_BUCKET_WIDTH: SimTime =
        SimTime(crate::network::DEFAULT_PROP_DELAY.0 + crate::network::DEFAULT_PROCESSING_DELAY.0);

    /// Create an empty queue with the default bucket width.
    pub fn new() -> Self {
        EventQueue::with_bucket_width(Self::DEFAULT_BUCKET_WIDTH)
    }

    /// Create an empty queue whose wheel buckets are `width` wide (clamped to ≥ 1 ns).
    ///
    /// The width trades sort batch size against wheel span: it should be on the order
    /// of the smallest inter-event latency the workload produces (for the packet
    /// engine: the topology's minimum link propagation + processing delay), so one
    /// bucket holds roughly one hop's worth of events.
    pub fn with_bucket_width(width: SimTime) -> Self {
        EventQueue {
            current: Vec::new(),
            cursor: 0,
            fine: Ring::new(),
            coarse: Ring::new(),
            coarse_min: vec![SimTime::ZERO; WHEEL_SLOTS],
            spare: Vec::new(),
            sort_keys: Vec::new(),
            heap: BinaryHeap::new(),
            bucket_ns: width.as_nanos().max(1),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// The wheel's bucket width.
    pub fn bucket_width(&self) -> SimTime {
        SimTime::from_nanos(self.bucket_ns)
    }

    /// Change the bucket width, redistributing any pending events. Sequence numbers
    /// (and therefore the deterministic total order) are preserved.
    pub fn set_bucket_width(&mut self, width: SimTime) {
        let width = width.as_nanos().max(1);
        if width == self.bucket_ns {
            return;
        }
        let mut all: Vec<Event> = Vec::with_capacity(self.len);
        all.append(&mut self.current);
        self.fine.drain_into(&mut all);
        self.coarse.drain_into(&mut all);
        all.extend(self.heap.drain().map(|Reverse(e)| e));
        self.bucket_ns = width;
        self.cursor = self.now.as_nanos() / width;
        self.len = 0;
        for ev in all {
            self.insert(ev);
        }
    }

    /// Advance the queue's notion of the current simulated time; subsequent
    /// `schedule` calls stamp their events as created now. The engine calls this as
    /// it dispatches each event.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Schedule `kind` to fire at time `at`, created at the current clock.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let created = self.now;
        self.schedule_created(at, created, kind);
    }

    /// Schedule `kind` to fire at `at` with an explicit creation stamp. The
    /// partitioned engine uses this to ingest cross-shard events with the sender's
    /// send time, so the merged order matches what a single queue would have produced.
    pub fn schedule_created(&mut self, at: SimTime, created: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.pushes += 1;
        self.insert(Event {
            at,
            created,
            seq,
            kind,
        });
        self.stats.peak_pending = self.stats.peak_pending.max(self.len as u64);
    }

    fn bucket_of(&self, ev: &Event) -> u64 {
        ev.at.as_nanos() / self.bucket_ns
    }

    /// Place an event in the tier its firing time selects.
    fn insert(&mut self, ev: Event) {
        let b = self.bucket_of(&ev);
        if b <= self.cursor {
            // Lands in (or before) the bucket currently being drained: binary-search
            // into the sorted remaining run. `current` is descending, so the prefix
            // holds the strictly larger keys. An event behind the current bucket
            // (e.g. a cross-shard timer clamped to `now`) lands at the very end —
            // popped next, exactly as a heap would order it.
            let idx = self.current.partition_point(|e| *e > ev);
            self.current.insert(idx, ev);
        } else if b - self.cursor <= RING {
            self.fine.push(b, ev);
        } else if b / RING - self.cursor / RING <= RING {
            self.push_coarse(b / RING, ev);
        } else {
            self.heap.push(Reverse(ev));
        }
        self.len += 1;
    }

    fn push_coarse(&mut self, block: u64, ev: Event) {
        let slot = Ring::slot(block);
        if self.coarse.slots[slot].is_empty() {
            if self.coarse.slots[slot].capacity() == 0 {
                std::mem::swap(&mut self.coarse.slots[slot], &mut self.spare);
            }
            self.coarse_min[slot] = ev.at;
        } else {
            self.coarse_min[slot] = self.coarse_min[slot].min(ev.at);
        }
        self.coarse.push(block, ev);
    }

    /// Move the cursor forward to bucket `cursor`, then move every heap event the
    /// coarse horizon `(cursor / N, cursor / N + N]` now covers into the coarse ring.
    /// No caller moves the cursor to within `N` buckets of a heap event, so heap
    /// events always pass through the coarse ring, never straight into the fine one.
    fn set_cursor(&mut self, cursor: u64) {
        debug_assert!(cursor >= self.cursor);
        self.cursor = cursor;
        let horizon = cursor / RING + RING;
        while let Some(Reverse(e)) = self.heap.peek() {
            let block = self.bucket_of(e) / RING;
            if block > horizon {
                break;
            }
            let Reverse(e) = self.heap.pop().expect("peeked heap event");
            self.push_coarse(block, e);
        }
    }

    /// Where the earliest pending event outside `current` lives.
    fn next(&self) -> Next {
        let fine = self.fine.next_after(self.cursor);
        match self.coarse.next_after(self.cursor / RING) {
            Some(block) if fine.is_none_or(|b| block * RING <= b) => Next::Block { block, fine },
            _ => match fine {
                Some(b) => Next::Bucket(b),
                None if self.heap.is_empty() => Next::Empty,
                None => Next::Heap,
            },
        }
    }

    /// Spill coarse block `block` into the fine ring: the cursor steps to the bucket
    /// just before the block, which makes the fine ring's window exactly the block.
    fn spill(&mut self, block: u64) {
        self.set_cursor(block * RING - 1);
        let mut events = Vec::new();
        self.coarse.take(block, &mut events);
        self.stats.overflow_migrations += events.len() as u64;
        for ev in events.drain(..) {
            let b = self.bucket_of(&ev);
            self.fine.push(b, ev);
        }
        self.spare = events;
        debug_assert!(self.tiers_consistent(), "tier invariants broken by a spill");
    }

    /// Make the earliest non-empty bucket current and sort it by the full key.
    /// Returns false if no events are pending anywhere.
    fn advance(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            match self.next() {
                Next::Block { block, .. } => self.spill(block),
                Next::Bucket(b) => {
                    self.set_cursor(b);
                    self.fine.take(b, &mut self.current);
                    self.sort_current();
                    self.stats.buckets_sorted += 1;
                    return true;
                }
                Next::Heap => {
                    // Jump to the last bucket of the block two before the heap
                    // minimum's: the coarse horizon then covers that block, while
                    // the fine ring ends just short of it.
                    let Reverse(e) = self.heap.peek().expect("heap is non-empty");
                    let block = self.bucket_of(e) / RING;
                    self.set_cursor((block - 1) * RING - 1);
                }
                Next::Empty => return false,
            }
        }
    }

    /// The lazy in-bucket sort: order `current` descending by the full key, so pops
    /// come off the tail. It sorts the reusable `sort_keys` scratch of
    /// `(!at, index)` pairs, 16-byte primitives the standard sort handles without a
    /// comparator call, rather than the 56-byte events; only runs of events with
    /// equal `at` (same-instant ties, a small share of a bucket) are then ordered by
    /// the full key. Each event then moves to its place by following the
    /// permutation's cycles with swaps. Keys are unique (seq fallback), so unstable
    /// sorts are deterministic, and nothing here allocates once the scratch has grown
    /// to the largest bucket. (Sorting `(at, created)` packed into a `u128` instead,
    /// 32 bytes a pair through a comparator closure, drew about twice the profile
    /// samples on engine_scale Large.)
    fn sort_current(&mut self) {
        let events = &mut self.current;
        let keys = &mut self.sort_keys;
        keys.clear();
        // `!at` sorts the latest event first, as `current` is ordered.
        keys.extend(
            events
                .iter()
                .enumerate()
                .map(|(i, e)| (!e.at.as_nanos(), i as u32)),
        );
        keys.sort_unstable();
        // Runs of equal `at` are ordered by the rest of the key.
        let mut start = 0;
        while start < keys.len() {
            let at = keys[start].0;
            let end = start + keys[start..].iter().take_while(|k| k.0 == at).count();
            if end - start > 1 {
                keys[start..end]
                    .sort_unstable_by(|a, b| events[b.1 as usize].cmp(&events[a.1 as usize]));
            }
            start = end;
        }
        // Position `i` must receive the event now at `keys[i].1`. Each visited entry
        // is marked done by pointing it at itself.
        for i in 0..keys.len() {
            let mut to = i;
            loop {
                let from = keys[to].1 as usize;
                keys[to].1 = to as u32;
                if from == i {
                    break;
                }
                events.swap(to, from);
                to = from;
            }
        }
    }

    /// True if every tier holds only the buckets its invariant allows (see
    /// [`EventQueue`]) and the counts add up. Linear in the pending events; checked
    /// by `debug_assert!` at each spill.
    fn tiers_consistent(&self) -> bool {
        let block = |e: &Event| self.bucket_of(e) / RING;
        let base = self.cursor / RING;
        self.current
            .iter()
            .all(|e| self.bucket_of(e) <= self.cursor)
            && self.fine.holds_only(self.cursor, |e| self.bucket_of(e))
            && self.coarse.holds_only(base, block)
            && self.coarse.slots.iter().enumerate().all(|(slot, evs)| {
                evs.iter()
                    .map(|e| e.at)
                    .min()
                    .is_none_or(|m| m == self.coarse_min[slot])
            })
            && self
                .heap
                .peek()
                .is_none_or(|Reverse(e)| block(e) > base + RING)
            && self.len == self.current.len() + self.fine.len + self.coarse.len + self.heap.len()
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        loop {
            if let Some(ev) = self.current.pop() {
                self.len -= 1;
                self.stats.pops += 1;
                return Some(ev);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Remove and return the earliest event **if it fires strictly before `until`**;
    /// leave the queue untouched otherwise.
    ///
    /// This is the batched window drain the partitioned engine's shard loop runs on:
    /// one call per event replaces the `peek_time`-compare-then-`pop` round-trip, and
    /// consecutive calls inside one window stream straight off the current bucket's
    /// sorted run (a `Vec::pop` and one time comparison — no re-peeking, no sifting).
    pub fn pop_window(&mut self, until: SimTime) -> Option<Event> {
        loop {
            if let Some(ev) = self.current.last() {
                if ev.at >= until {
                    return None;
                }
                let ev = self.current.pop().expect("checked non-empty");
                self.len -= 1;
                self.stats.pops += 1;
                return Some(ev);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(ev) = self.current.last() {
            return Some(ev.at);
        }
        // The current run is drained: the earliest event is in the next occupied fine
        // bucket (unsorted, so scan it), or — only when a coarse block starts at or
        // before that bucket — possibly in that block, whose minimum is kept. Later
        // buckets and blocks start later than either, and the heap only matters when
        // both rings are empty.
        let bucket_min = |b: u64| {
            self.fine.slots[Ring::slot(b)]
                .iter()
                .map(|e| e.at)
                .min()
                .expect("occupied slot is non-empty")
        };
        match self.next() {
            Next::Bucket(b) => Some(bucket_min(b)),
            Next::Block { block, fine } => {
                let block_min = self.coarse_min[Ring::slot(block)];
                Some(fine.map_or(block_min, |b| block_min.min(bucket_min(b))))
            }
            Next::Heap => self.heap.peek().map(|Reverse(e)| e.at),
            Next::Empty => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A snapshot of the queue's telemetry counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), EventKind::Stop);
        q.schedule(SimTime::from_micros(10), EventKind::TraceSample);
        q.schedule(SimTime::from_micros(20), EventKind::Stop);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(times, vec![10_000, 20_000, 30_000]);
    }

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            flow: FlowId(token),
            kind: TimerKind::Rto,
            token,
            gen: 0,
        }
    }

    #[test]
    fn ties_are_insertion_order_independent() {
        // The partitioned engine's determinism rests on this: two queues fed the same
        // same-instant events in different orders pop them in the same order.
        let t = SimTime::from_micros(5);
        let mut forward = EventQueue::new();
        let mut reverse = EventQueue::new();
        for token in 1..=5 {
            forward.schedule(t, timer(token));
        }
        for token in (1..=5).rev() {
            reverse.schedule(t, timer(token));
        }
        let order = |q: &mut EventQueue| -> Vec<u64> {
            std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::Timer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(order(&mut forward), order(&mut reverse));
    }

    #[test]
    fn creation_time_orders_same_instant_events() {
        // Among events firing at the same instant, the one scheduled earlier in
        // simulated time fires first — the causal analogue of global FIFO.
        let t = SimTime::from_micros(5);
        let mut q = EventQueue::new();
        q.set_now(SimTime::from_micros(3));
        q.schedule(t, timer(7)); // created later...
        q.schedule_created(t, SimTime::from_micros(1), timer(9)); // ...but this was created first
        let first = q.pop().unwrap();
        assert_eq!(first.created, SimTime::from_micros(1));
        match first.kind {
            EventKind::Timer { token, .. } => assert_eq!(token, 9),
            _ => unreachable!(),
        }
    }

    #[test]
    fn class_rank_orders_same_instant_events() {
        // At equal (at, created), flow arrivals outrank packet deliveries, which
        // outrank timers, controller ticks, trace samples and the stop.
        let t = SimTime::from_micros(5);
        let mut q = EventQueue::new();
        q.schedule(t, EventKind::Stop);
        q.schedule(t, EventKind::TraceSample);
        q.schedule(t, EventKind::ControllerTick { link: LinkId(0) });
        q.schedule(t, timer(1));
        q.schedule(
            t,
            EventKind::PacketAtNode {
                node: NodeId(0),
                packet: PacketSlot(0),
                flow: FlowId(1),
                tie: 0,
            },
        );
        q.schedule(
            t,
            EventKind::FlowArrival(Box::new(FlowSpec::new(1, NodeId(0), NodeId(1), 1))),
        );
        let ranks: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| e.kind.class_rank())
            .collect();
        assert_eq!(ranks, vec![0, 1, 3, 4, 5, 6]);
    }

    #[test]
    fn transmit_completions_sort_between_deliveries_and_timers() {
        // A lazily retired completion sorts by time, then creation (serialization
        // start), then class: after packet deliveries, before everything else.
        let t = SimTime::from_micros(5);
        let start = SimTime::from_micros(4);
        let done = EventPos::transmit_done(start, t);
        let at = |created: SimTime, class: u8| EventPos {
            at: t,
            created,
            class,
        };
        assert!(at(start, 1) < done, "a delivery created with it goes first");
        assert!(done < at(start, 3), "a timer created with it goes after");
        assert!(
            at(SimTime::from_micros(3), 5) < done,
            "earlier creation wins"
        );
        assert!(done < at(t, 1), "later creation loses, whatever the class");
        assert!(EventPos::start_of(t) < done && done < EventPos::end_of(t));
        let ev = Event {
            at: t,
            created: start,
            seq: 0,
            kind: EventKind::ControllerTick { link: LinkId(0) },
        };
        assert_eq!(ev.pos(), at(start, 4));
    }

    #[test]
    fn events_stay_small() {
        // Buckets move events by value on sort/insert; a regression that embeds a
        // Packet or FlowSpec inline would show up here.
        assert!(
            std::mem::size_of::<Event>() <= 64,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }

    #[test]
    fn bucket_sort_breaks_time_ties_by_the_full_key() {
        // The bucket sort orders `(at, index)` pairs and consults the full key only
        // where `at` ties. Pile every class, many contents and exact content
        // duplicates (told apart by seq alone) onto one instant and two creation
        // times in one bucket, scheduled in a scrambled order: pops must follow
        // `key()`.
        let at = SimTime::from_micros(100);
        let created = [SimTime::from_micros(40), SimTime::from_micros(60)];
        let mut q = EventQueue::new();
        let mut scheduled = Vec::new();
        for i in 0..240u64 {
            let j = (i * 97) % 240; // scrambles insertion order
            let kind = match j % 6 {
                0 => timer(j % 5),
                1 => EventKind::PacketAtNode {
                    node: NodeId((j % 3) as u32),
                    packet: PacketSlot(j as u32),
                    flow: FlowId(j % 4),
                    tie: j % 7,
                },
                2 => EventKind::ControllerTick {
                    link: LinkId((j % 3) as u32),
                },
                3 => {
                    EventKind::FlowArrival(Box::new(FlowSpec::new(j % 3, NodeId(0), NodeId(1), 1)))
                }
                4 => EventKind::TraceSample,
                _ => EventKind::Stop,
            };
            let created = created[(j % 2) as usize];
            scheduled.push(Event {
                at,
                created,
                seq: i,
                kind: kind.clone(),
            });
            q.schedule_created(at, created, kind);
        }
        let bucket = q.bucket_of(&scheduled[0]);
        assert!(
            bucket > q.cursor,
            "events must wait in the fine ring to be bucket-sorted"
        );
        scheduled.sort_by_key(Event::key);
        let popped: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(q.stats().buckets_sorted, 1);
        let keys = |evs: &[Event]| evs.iter().map(Event::key).collect::<Vec<_>>();
        assert_eq!(keys(&popped), keys(&scheduled));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_micros(7), EventKind::Stop);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
    }

    #[test]
    fn far_future_events_cross_the_far_tiers() {
        // A tiny bucket width forces everything beyond WHEEL_SLOTS ns into the coarse
        // ring or the residual heap; pops must still come out in exact key order, and
        // the telemetry must show the migrations.
        let mut q = EventQueue::with_bucket_width(SimTime::from_nanos(1));
        let times: Vec<u64> = vec![5, 2_000, 1_000_000, 3, 70_000, 2_000_000, 1];
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), timer(t));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(popped, sorted);
        let stats = q.stats();
        assert_eq!(stats.pushes, times.len() as u64);
        assert_eq!(stats.pops, times.len() as u64);
        assert_eq!(stats.peak_pending, times.len() as u64);
        assert!(
            stats.overflow_migrations >= 4,
            "expected far-future events to migrate, got {stats:?}"
        );
    }

    #[test]
    fn coarse_block_spills_before_its_first_bucket() {
        // At 1 ns buckets the fine ring covers the 1024 buckets after the cursor and a
        // coarse block is 1024 buckets. From cursor 0, bucket 1024 (the first of block
        // 1) is in the fine ring while 1500 (same block) is in the coarse ring: the
        // block must spill before bucket 1024 becomes current, or 1500 would be
        // stranded behind the cursor.
        let mut q = EventQueue::with_bucket_width(SimTime::from_nanos(1));
        q.schedule(SimTime::from_nanos(1_500), timer(1));
        q.schedule(SimTime::from_nanos(1_024), timer(2));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_024)));
        let first = q.pop().unwrap();
        assert_eq!(first.at.as_nanos(), 1_024);
        assert_eq!(q.stats().overflow_migrations, 1, "block spilled first");
        q.set_now(first.at);
        q.schedule(SimTime::from_nanos(1_900), timer(3)); // cursor 1024: fine
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_500)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(order, vec![1_500, 1_900]);
    }

    #[test]
    fn events_beyond_the_coarse_horizon_round_trip_the_heap() {
        // At 1 ns buckets the coarse ring reaches ~1.05 ms; events past it wait in the
        // residual heap, pass through the coarse ring and spill into the fine ring,
        // including after the cursor jumps over empty rings — up to the very last
        // nanosecond, whose block index arithmetic must not overflow. Pushes between
        // pops land behind, inside and beyond each new horizon.
        let mut q = EventQueue::with_bucket_width(SimTime::from_nanos(1));
        let mut pending: Vec<u64> =
            vec![5, 3_000_000, 2_000_000_000, u64::MAX, 3_000_001, 1_048_577];
        for &t in &pending {
            q.schedule(SimTime::from_nanos(t), timer(t));
        }
        let mut popped = Vec::new();
        let mut far = pending.iter().filter(|&&t| t > 1_024).count() as u64;
        while let Some(peek) = q.peek_time() {
            let ev = q.pop().unwrap();
            assert_eq!(ev.at, peek, "peek_time disagrees with pop");
            q.set_now(ev.at);
            popped.push(ev.at.as_nanos());
            if popped.len() == 3 {
                for t in [ev.at.as_nanos() + 10, ev.at.as_nanos() + 40_000_000] {
                    q.schedule(SimTime::from_nanos(t), timer(t));
                    pending.push(t);
                    far += u64::from(t - ev.at.as_nanos() > 1_024);
                }
            }
        }
        pending.sort_unstable();
        assert_eq!(popped, pending);
        let stats = q.stats();
        assert_eq!(stats.pops, pending.len() as u64);
        assert_eq!(stats.overflow_migrations, far, "each far event spills once");
    }

    #[test]
    fn same_bucket_push_during_drain_keeps_order() {
        // Schedule two same-bucket events, pop one, then push another event landing
        // between the popped one and the remaining one: it must pop next.
        let w = EventQueue::DEFAULT_BUCKET_WIDTH.as_nanos();
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(w / 8), timer(1));
        q.schedule(SimTime::from_nanos(w / 2), timer(2));
        let first = q.pop().unwrap();
        assert_eq!(first.at.as_nanos(), w / 8);
        q.set_now(first.at);
        q.schedule(SimTime::from_nanos(w / 4), timer(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(order, vec![w / 4, w / 2]);
    }

    #[test]
    fn pop_window_is_exclusive_at_the_boundary() {
        // An event exactly at `until` must stay; one a nanosecond earlier must pop.
        let mut q = EventQueue::new();
        let until = SimTime::from_micros(50);
        q.schedule(until, timer(1));
        q.schedule(SimTime::from_nanos(until.as_nanos() - 1), timer(2));
        let ev = q.pop_window(until).expect("event before the boundary");
        assert_eq!(ev.at.as_nanos(), until.as_nanos() - 1);
        assert!(q.pop_window(until).is_none(), "boundary event leaked");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(until));
    }

    #[test]
    fn windowed_drains_match_global_pop_order() {
        // Splitting the same schedule into conservative-lookahead windows must
        // reproduce the un-windowed pop sequence exactly — the property the shard
        // loop's batched drain rests on.
        let schedule: Vec<(u64, u64)> = (0..200u64)
            .map(|i| ((i * 7919) % 500 * 1_000, i)) // many same-instant collisions
            .collect();
        let mut global = EventQueue::new();
        let mut windowed = EventQueue::new();
        for &(at, tok) in &schedule {
            global.schedule(SimTime::from_nanos(at), timer(tok));
            windowed.schedule(SimTime::from_nanos(at), timer(tok));
        }
        let reference: Vec<Event> = std::iter::from_fn(|| global.pop()).collect();
        let mut drained: Vec<Event> = Vec::new();
        let window = 37_000u64; // deliberately misaligned with bucket width
        let mut t = 0u64;
        while drained.len() < reference.len() {
            t += window;
            while let Some(ev) = windowed.pop_window(SimTime::from_nanos(t)) {
                drained.push(ev);
            }
        }
        assert_eq!(drained, reference);
    }

    #[test]
    fn set_bucket_width_preserves_order_and_pending_events() {
        let mut q = EventQueue::with_bucket_width(SimTime::from_micros(1));
        for i in 0..50u64 {
            q.schedule(SimTime::from_nanos((i * 31) % 40 * 1_000), timer(i));
        }
        let first = q.pop().unwrap();
        q.set_now(first.at);
        q.set_bucket_width(SimTime::from_millis(1));
        assert_eq!(q.bucket_width(), SimTime::from_millis(1));
        assert_eq!(q.len(), 49);
        let mut rest: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        rest.insert(0, first);
        for pair in rest.windows(2) {
            assert!(pair[0] < pair[1], "order broken across re-bucketing");
        }
        assert_eq!(rest.len(), 50);
    }
}
