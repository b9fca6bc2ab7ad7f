//! Differential property test: the calendar/ladder [`EventQueue`] must pop the exact
//! sequence a reference binary heap over the same deterministic key would pop.
//!
//! This is the property the partitioned engine's shard-count invariance rests on:
//! the scheduler may restructure *how* events are stored (bucket wheel, lazy sorts,
//! coarse-block spills, residual-heap refills), but the popped order — including same-instant ties broken by
//! `(created, class, content, seq)` and events ingested with explicit
//! `schedule_created` stamps — must stay bit-identical to a total-order heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use pdq_netsim::event::{Event, EventKind, EventQueue, PacketSlot, TimerKind};
use pdq_netsim::{FlowId, FlowSpec, LinkId, NodeId, SimTime};

/// The straightforward model: a min-heap over [`Event`]'s public `Ord` (the full
/// deterministic key), with the same seq stamping and clock the real queue uses.
struct RefQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    now: SimTime,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let created = self.now;
        self.schedule_created(at, created, kind);
    }

    fn schedule_created(&mut self, at: SimTime, created: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            at,
            created,
            seq,
            kind,
        }));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    fn pop_window(&mut self, until: SimTime) -> Option<Event> {
        if self.heap.peek().is_some_and(|Reverse(e)| e.at < until) {
            self.pop()
        } else {
            None
        }
    }
}

/// A content-bearing event kind derived from the op's payload, cycling through every
/// class so ties exercise class ranks, flow/link ids, packet ties and timer tokens.
fn kind_for(sel: u64, a: u64) -> EventKind {
    match sel % 7 {
        0 => EventKind::Timer {
            node: NodeId((a % 3) as u32),
            flow: FlowId(a % 7),
            kind: TimerKind::Rto,
            token: a,
            gen: 0,
        },
        1 => EventKind::Timer {
            node: NodeId((a % 3) as u32),
            flow: FlowId(a % 5),
            kind: TimerKind::Pacing,
            token: a / 2,
            gen: 1,
        },
        2 => EventKind::PacketAtNode {
            node: NodeId((a % 4) as u32),
            packet: PacketSlot(0), // pool slots never participate in ordering
            flow: FlowId(a % 7),
            tie: a.wrapping_mul(0x9E37),
        },
        3 => EventKind::FlowArrival(Box::new(FlowSpec::new(
            a % 7,
            NodeId(0),
            NodeId(1),
            1 + a % 3,
        ))),
        4 => EventKind::ControllerTick {
            link: LinkId((a % 4) as u32),
        },
        5 => EventKind::TraceSample,
        _ => EventKind::Stop,
    }
}

/// Full observable identity of a popped event. `Event`'s `PartialEq` compares the
/// ordering key; the debug string additionally pins every payload field.
fn ident(e: &Event) -> (u64, u64, u64, String) {
    (
        e.at.as_nanos(),
        e.created.as_nanos(),
        e.seq,
        format!("{:?}", e.kind),
    )
}

/// How an op's payload `a` becomes a time at bucket width `w`: a push relative to
/// `now` (given as the first argument), an absolute push, and a window length.
struct Draws {
    relative: fn(u64, u64, u64) -> u64,
    absolute: fn(u64, u64) -> u64,
    window: fn(u64, u64) -> u64,
}

/// Coarse-grained near-future draws (everything within 360 µs): lots of exact ties.
const NEAR: Draws = Draws {
    relative: |now, a, _| now + (a % 40) * 2_500,
    absolute: |a, _| (a % 120) * 3_000,
    window: |a, _| (a % 50) * 1_700 + 1,
};

/// Bucket-relative scales up to several seconds. The fine ring spans 1024 buckets, a
/// coarse block 1024 buckets and the coarse ring 1024 blocks (~1–8 ms at 1–8 ns
/// buckets), so the scales straddle the fine ring's end, cross many blocks, land on
/// block starts, straddle the coarse horizon (heap events then refill the coarse
/// ring as the cursor moves) and reach seconds out in the residual heap.
fn far(a: u64, w: u64) -> u64 {
    match a % 5 {
        0 => a * 2 * w,
        1 => a * 37 * w,
        2 => a * 1_024 * w,
        3 => (a * 2_000 + a) * w,
        _ => a * 10_000_000,
    }
}

/// Multi-scale draws reaching several seconds: every tier, jumps over empty rings,
/// and windows from nanoseconds to seconds that cross block boundaries. Relative
/// pushes on the block scale snap to the start of one of the next three blocks, so
/// the fine ring's next bucket is often exactly a block start while the coarse ring
/// holds later events of that block.
const FAR: Draws = Draws {
    relative: |now, a, w| match a % 5 {
        2 => (now / (1_024 * w) + 1 + a % 3) * 1_024 * w,
        _ => now + far(a, w),
    },
    absolute: far,
    window: |a, w| far(a, w) + 1,
};

/// Counts consecutive pops that tie on `(at, created)` but differ in event class:
/// the ties that only the class and content parts of the key can order.
#[derive(Default)]
struct CrossClassTies {
    last: Option<(SimTime, SimTime, std::mem::Discriminant<EventKind>)>,
    count: usize,
}

impl CrossClassTies {
    fn see(&mut self, e: &Event) {
        let cur = (e.at, e.created, std::mem::discriminant(&e.kind));
        if let Some(last) = self.last {
            self.count += usize::from(last.0 == cur.0 && last.1 == cur.1 && last.2 != cur.2);
        }
        self.last = Some(cur);
    }
}

/// Replay `ops` against both queues; they must agree op by op — every pop, every
/// window drain and every `peek_time` — and on the drained tail. Returns the number
/// of cross-class `(at, created)` ties among the pops.
fn replay(width: u64, ops: &[(u8, u64, u64, u64)], draws: &Draws) -> usize {
    let mut cal = EventQueue::with_bucket_width(SimTime::from_nanos(width));
    let mut reference = RefQueue::new();
    let mut ties = CrossClassTies::default();
    for &(op, a, sel, c) in ops {
        prop_assert_eq!(cal.peek_time(), reference.peek_time());
        match op {
            // Pushes outnumber pops ~2:1 so the queues actually fill up.
            0..=6 => {
                // Even ops push relative to `now`; odd ops use absolute times that
                // may land in the past (behind `now`), which the engine never does
                // but the queue must still order correctly (cross-shard ingests
                // clamp to `now`, the boundary case).
                let at = SimTime::from_nanos(if op % 2 == 0 {
                    (draws.relative)(reference.now.as_nanos(), a, width)
                } else {
                    (draws.absolute)(a, width)
                });
                // Explicit creation stamp, possibly before `now` — the
                // cross-shard ingestion path.
                let created = (c != 0).then(|| at.saturating_sub(SimTime::from_nanos(c * 1_000)));
                // Some pushes bring a twin at the same `(at, created)`: of another
                // class, or (a % 7 == 6) an exact duplicate only seq tells apart.
                // Independent draws alone almost never tie across classes.
                let twin = (sel >= 7).then(|| kind_for(sel + 1 + a % 7, a));
                for kind in std::iter::once(kind_for(sel, a)).chain(twin) {
                    match created {
                        None => {
                            cal.schedule(at, kind.clone());
                            reference.schedule(at, kind);
                        }
                        Some(created) => {
                            cal.schedule_created(at, created, kind.clone());
                            reference.schedule_created(at, created, kind);
                        }
                    }
                }
            }
            7 => {
                let got = cal.pop();
                let want = reference.pop();
                prop_assert_eq!(got.as_ref().map(ident), want.as_ref().map(ident));
                if let Some(ev) = got {
                    ties.see(&ev);
                    cal.set_now(ev.at);
                    reference.set_now(ev.at);
                }
            }
            _ => {
                // Batched window drain, deliberately misaligned with the bucket
                // width: both queues must stop at exactly the same boundary event.
                let until =
                    SimTime::from_nanos(reference.now.as_nanos() + (draws.window)(a, width));
                loop {
                    let got = cal.pop_window(until);
                    let want = reference.pop_window(until);
                    prop_assert_eq!(got.as_ref().map(ident), want.as_ref().map(ident));
                    let Some(ev) = got else { break };
                    ties.see(&ev);
                    cal.set_now(ev.at);
                    reference.set_now(ev.at);
                }
            }
        }
        prop_assert_eq!(cal.len(), reference.heap.len());
    }
    // Drain to empty: the tails must match event for event.
    loop {
        prop_assert_eq!(cal.peek_time(), reference.peek_time());
        let got = cal.pop();
        let want = reference.pop();
        prop_assert_eq!(got.as_ref().map(ident), want.as_ref().map(ident));
        let Some(ev) = got else { break };
        ties.see(&ev);
    }
    prop_assert!(cal.is_empty());
    let stats = cal.stats();
    prop_assert_eq!(stats.pushes, stats.pops);
    ties.count
}

/// The op mix the property tests draw from, generated by a fixed LCG instead.
fn fixed_ops(seed: u64, n: usize) -> Vec<(u8, u64, u64, u64)> {
    let mut x = seed;
    let mut next = |m: u64| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % m
    };
    (0..n)
        .map(|_| (next(10) as u8, next(600), next(12), next(5)))
        .collect()
}

/// The generators must actually produce what the bucket sort's tie fallback is
/// there for: events of different classes at the same `(at, created)`.
#[test]
fn generators_collide_on_time_and_creation_across_classes() {
    let ops = fixed_ops(7, 300);
    assert!(
        replay(25_100, &ops, &NEAR) >= 30,
        "near draws rarely tie across classes"
    );
    assert!(
        replay(4, &ops, &FAR) >= 30,
        "far draws rarely tie across classes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of pushes (relative and absolute coarse-grained times —
    /// lots of exact ties), explicit `schedule_created` stamps, single pops and
    /// batched window drains, across random bucket widths (1 ns to well past the
    /// whole schedule, so everything from per-event buckets to one-bucket-fits-all
    /// degenerate layouts is exercised).
    #[test]
    fn calendar_queue_matches_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u64..600, 0u64..12, 0u64..5), 1..300),
        width in 1u64..2_000_000,
    ) {
        replay(width, &ops, &NEAR);
    }

    /// The same interleavings with times from nanoseconds to seconds at 1–8 ns
    /// buckets: events pass through all three tiers (fine ring, coarse ring,
    /// residual heap), the cursor jumps when both rings are empty, and windows
    /// drain across coarse-block boundaries.
    #[test]
    fn far_future_draws_match_reference_heap(
        ops in prop::collection::vec((0u8..10, 0u64..600, 0u64..12, 0u64..5), 1..300),
        width in 1u64..=8,
    ) {
        replay(width, &ops, &FAR);
    }
}
