//! Serialized, pipelined bus links and the flits they carry.

use hbm_axi::{Completion, Cycle, DelayQueue, StampedRing, Transaction};

use crate::stats::LinkStats;

/// A unit of transfer through the fabric: a request (AR flit, or AW+W
/// data) moving towards memory, or a response (R data or B ack) moving
/// back. Requests and responses share physical lateral buses on the
/// Xilinx fabric, so a single flit type keeps arbitration honest.
#[derive(Debug, Clone, Copy)]
pub enum Flit {
    /// A transaction moving master → memory.
    Req(Transaction),
    /// A completion moving memory → master.
    Resp(Completion),
}

impl Flit {
    /// Bus occupancy of this flit in beats: 1 for an AR flit, burst-length
    /// beats for write data or read data, 1 for a B ack.
    #[inline]
    pub fn cost_beats(&self) -> u64 {
        match self {
            Flit::Req(t) => t.fwd_link_cycles(),
            Flit::Resp(c) => c.txn.ret_link_cycles(),
        }
    }

    /// `true` for request flits.
    #[inline]
    pub fn is_req(&self) -> bool {
        matches!(self, Flit::Req(_))
    }
}

/// A pipelined bus segment with finite rate, queue capacity, and latency.
///
/// * `rate` is the link's bandwidth in beats per accelerator cycle
///   (1.0 for `facc`-clocked ports, 450/facc for switch-internal buses);
/// * a flit of `c` beats makes the link busy for `c / rate` cycles
///   (serialization);
/// * switching the granted source costs `dead_beats / rate` extra cycles
///   (bus-multiplexing dead cycles, paper §IV-A);
/// * delivered flits appear in the downstream queue `latency` cycles
///   later and occupy one of `capacity` slots until consumed.
#[derive(Debug, Clone)]
pub struct SerialLink<T = Flit> {
    q: DelayQueue<T>,
    rate: f64,
    busy_until: f64,
    last_src: Option<u16>,
    dead_beats: f64,
    stats: LinkStats,
}

impl<T> SerialLink<T> {
    /// Creates a link. `rate` in beats/cycle, `dead_beats` charged on
    /// grant switches, queue `capacity` and pipeline `latency` as in
    /// [`DelayQueue`].
    pub fn new(rate: f64, dead_beats: f64, capacity: usize, latency: Cycle) -> SerialLink<T> {
        assert!(rate > 0.0, "link rate must be positive");
        SerialLink {
            q: DelayQueue::new(capacity, latency),
            rate,
            busy_until: 0.0,
            last_src: None,
            dead_beats,
            stats: LinkStats::default(),
        }
    }

    /// `true` if a flit from any source could be sent at `now`.
    #[inline]
    pub fn can_send(&self, now: Cycle) -> bool {
        (now as f64) >= self.busy_until && self.q.can_push()
    }

    /// Sends an item of `cost_beats` from `src`, charging serialization
    /// and any grant-switch penalty. Panics if `can_send` is false.
    pub fn send(&mut self, now: Cycle, src: u16, cost_beats: u64, item: T) {
        assert!(self.can_send(now), "send on busy/full link");
        let mut busy = cost_beats as f64 / self.rate;
        if self.last_src.is_some_and(|s| s != src) {
            busy += self.dead_beats / self.rate;
            self.stats.grant_switches += 1;
        }
        self.busy_until = now as f64 + busy;
        self.last_src = Some(src);
        self.stats.flits += 1;
        self.stats.beats += cost_beats;
        self.q.push(now, item).ok().expect("capacity checked in can_send");
    }

    /// The downstream queue's ready head.
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<&T> {
        self.q.peek(now)
    }

    /// Pops the downstream queue's ready head.
    #[inline]
    pub fn pop(&mut self, now: Cycle) -> Option<T> {
        self.q.pop(now)
    }

    /// Number of leading downstream items ready at `now`, capped at
    /// `max` — the scan window for out-of-order (VOQ) consumers.
    #[inline]
    pub fn window(&self, now: Cycle, max: usize) -> usize {
        self.q.ready_len(now).min(max)
    }

    /// A reference to the `idx`-th downstream item if ready.
    #[inline]
    pub fn peek_at(&self, now: Cycle, idx: usize) -> Option<&T> {
        self.q.peek_at(now, idx)
    }

    /// Removes the `idx`-th downstream item if ready (out-of-order
    /// consumption by a buffered output stage).
    #[inline]
    pub fn pop_at(&mut self, now: Cycle, idx: usize) -> Option<T> {
        self.q.pop_at(now, idx)
    }

    /// Delivery time of the oldest in-flight item, if any — the earliest
    /// cycle at which `peek`/`pop` can succeed. A past time means the
    /// head is ready now.
    #[inline]
    pub fn next_ready_at(&self) -> Option<Cycle> {
        self.q.next_ready_at()
    }

    /// Items in flight or waiting downstream.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` when nothing is in flight on this link.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Peak queue occupancy since construction (see
    /// [`DelayQueue::high_water`]). Maintained by the queue itself;
    /// reading it costs nothing during simulation.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.q.high_water()
    }

    /// Traffic counters for this link.
    #[inline]
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Clears traffic counters.
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }
}

/// A lateral channel between adjacent switches of the Xilinx fabric: a
/// [`SerialLink`] whose slots return to the sender `latency` cycles after
/// the receiving switch pops them — the credit crosses the same switch
/// boundary the data did.
///
/// Data and freed slots are both delayed by `latency ≥ 1`, so nothing one
/// end does to the channel in a cycle reaches the other end before the
/// next cycle. That is why the fabric can tick its switches one after
/// another within a cycle (DESIGN.md §3.3).
#[derive(Debug, Clone)]
pub(crate) struct LateralLink {
    link: SerialLink<Flit>,
    latency: Cycle,
    /// Cycles at which popped slots become free again, ascending. Popped
    /// slots plus queued flits never exceed the capacity, so the ring is
    /// sized to it.
    freed: StampedRing<()>,
    /// Deepest occupancy seen at the end of a fabric tick.
    peak: usize,
}

impl LateralLink {
    /// Creates a channel; the arguments are those of [`SerialLink::new`].
    pub fn new(rate: f64, dead_beats: f64, capacity: usize, latency: Cycle) -> LateralLink {
        assert!(latency >= 1, "lateral latency must be >= 1 (no same-cycle hops)");
        LateralLink {
            link: SerialLink::new(rate, dead_beats, capacity, latency),
            latency,
            freed: StampedRing::new(capacity),
            peak: 0,
        }
    }

    /// `true` if a flit could be sent at `now`: the link is idle and
    /// queued flits plus slots still on their way back leave room.
    #[inline]
    pub fn can_send(&self, now: Cycle) -> bool {
        let returning = self.freed.len() - self.freed.ready_len(now);
        self.link.can_send(now) && self.link.len() + returning < self.freed.capacity()
    }

    /// Sends a flit as [`SerialLink::send`] does, after taking back every
    /// slot that has returned by `now`.
    pub fn send(&mut self, now: Cycle, src: u16, cost_beats: u64, flit: Flit) {
        while self.freed.pop(now).is_some() {}
        let used = self.link.len() + self.freed.len();
        assert!(used < self.freed.capacity(), "send on a full lateral channel");
        self.link.send(now, src, cost_beats, flit);
    }

    /// The ready head at the receiving switch.
    #[inline]
    pub fn peek(&self, now: Cycle) -> Option<&Flit> {
        self.link.peek(now)
    }

    /// Pops the ready head; its slot returns to the sender at
    /// `now + latency`.
    pub fn pop(&mut self, now: Cycle) -> Option<Flit> {
        let flit = self.link.pop(now)?;
        let pushed = self.freed.push_at(now + self.latency, ());
        debug_assert!(pushed.is_ok(), "queued plus returning slots never exceed capacity");
        Some(flit)
    }

    /// Records the current occupancy as a candidate peak. The fabric calls
    /// it at the end of every tick that sent on this channel, so the peak
    /// counts what the channel holds between cycles.
    #[inline]
    pub fn note_peak(&mut self) {
        self.peak = self.peak.max(self.link.len());
    }

    /// Deepest end-of-tick occupancy since construction.
    pub fn high_water(&self) -> usize {
        self.peak
    }

    /// The underlying link, for occupancy, horizon and traffic counters.
    #[inline]
    pub fn link(&self) -> &SerialLink<Flit> {
        &self.link
    }

    /// Clears traffic counters.
    pub fn reset_stats(&mut self) {
        self.link.reset_stats();
    }
}

/// Minimum head-delivery time over a set of links, clamped to `now` —
/// the links' joint contribution to a fabric's next-event horizon.
///
/// Returns `Some(now)` as soon as any head is already ready (callers can
/// step immediately), the earliest future delivery time otherwise, and
/// `None` when every link is empty (quiescent until new traffic is
/// offered).
pub fn horizon<'a, T: 'a>(
    links: impl IntoIterator<Item = &'a SerialLink<T>>,
    now: Cycle,
) -> Option<Cycle> {
    let mut best: Option<Cycle> = None;
    for l in links {
        if let Some(t) = l.next_ready_at() {
            if t <= now {
                return Some(now);
            }
            best = Some(best.map_or(t, |b: Cycle| b.min(t)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::{AxiId, BurstLen, Dir, MasterId, Transaction};

    fn txn(dir: Dir, beats: u8) -> Transaction {
        Transaction::new(MasterId(0), AxiId(0), 0, BurstLen::of(beats), dir, 0, 0).unwrap()
    }

    #[test]
    fn flit_costs() {
        assert_eq!(Flit::Req(txn(Dir::Read, 16)).cost_beats(), 1);
        assert_eq!(Flit::Req(txn(Dir::Write, 16)).cost_beats(), 16);
        let c = Completion { txn: txn(Dir::Read, 16), produced_at: 0 };
        assert_eq!(Flit::Resp(c).cost_beats(), 16);
        let c = Completion { txn: txn(Dir::Write, 16), produced_at: 0 };
        assert_eq!(Flit::Resp(c).cost_beats(), 1);
    }

    #[test]
    fn serialization_blocks_link() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 16, 0);
        l.send(0, 0, 4, 1);
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
    }

    #[test]
    fn faster_rate_shortens_occupancy() {
        let mut l: SerialLink<u32> = SerialLink::new(1.5, 0.0, 16, 0);
        l.send(0, 0, 6, 1);
        // 6 beats at 1.5 beats/cycle = 4 cycles.
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
    }

    #[test]
    fn dead_cycles_on_grant_switch() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 2.0, 16, 0);
        l.send(0, 0, 1, 1);
        assert!(l.can_send(1));
        // Different source: 1 beat + 2 dead beats.
        l.send(1, 1, 1, 2);
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
        assert_eq!(l.stats().grant_switches, 1);
        // Same source again: no penalty.
        l.send(4, 1, 1, 3);
        assert!(l.can_send(5));
        assert_eq!(l.stats().grant_switches, 1);
    }

    #[test]
    fn latency_applies_to_delivery() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 16, 5);
        l.send(0, 0, 1, 7);
        assert!(l.peek(4).is_none());
        assert_eq!(l.pop(5), Some(7));
    }

    #[test]
    fn full_queue_blocks_send() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 2, 0);
        l.send(0, 0, 1, 1);
        l.send(1, 0, 1, 2);
        assert!(!l.can_send(10));
        l.pop(10);
        assert!(l.can_send(10));
    }

    fn flit(seq: u64) -> Flit {
        let t =
            Transaction::new(MasterId(0), AxiId(0), 0, BurstLen::of(1), Dir::Read, 0, seq).unwrap();
        Flit::Req(t)
    }

    fn seq_of(f: &Flit) -> u64 {
        match f {
            Flit::Req(t) => t.seq,
            Flit::Resp(c) => c.txn.seq,
        }
    }

    #[test]
    fn lateral_delivery_waits_hop_latency() {
        let mut l = LateralLink::new(1.0, 0.0, 4, 2);
        l.send(10, 0, 1, flit(7));
        assert!(l.peek(11).is_none());
        assert_eq!(l.link().next_ready_at(), Some(12));
        assert_eq!(seq_of(&l.pop(12).unwrap()), 7);
    }

    #[test]
    fn lateral_slot_returns_hop_latency_after_pop() {
        let mut l = LateralLink::new(1.0, 0.0, 2, 2);
        l.send(0, 0, 1, flit(0));
        l.send(1, 0, 1, flit(1));
        assert!(!l.can_send(2), "capacity 2 exhausted");
        l.pop(2).unwrap();
        // The slot popped at 2 frees at 2 + hop_latency = 4.
        assert!(!l.can_send(2));
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
        l.send(4, 0, 1, flit(2));
        assert!(!l.can_send(5), "the returned slot was taken again");
    }

    #[test]
    fn lateral_serialization_and_dead_beats_match_serial_link() {
        let mut l = LateralLink::new(1.0, 2.0, 16, 1);
        l.send(0, 0, 4, flit(0));
        assert!(!l.can_send(3));
        assert!(l.can_send(4));
        // Grant switch: 1 beat + 2 dead beats.
        l.send(4, 1, 1, flit(1));
        assert!(!l.can_send(6));
        assert!(l.can_send(7));
        assert_eq!(l.link().stats().grant_switches, 1);
        assert_eq!(l.link().stats().beats, 5);
    }

    #[test]
    fn lateral_peak_counts_end_of_tick_occupancy() {
        let mut l = LateralLink::new(1.0, 0.0, 4, 1);
        l.send(0, 0, 1, flit(0));
        l.note_peak();
        // A send and a pop in the same cycle leave the occupancy at 1.
        l.send(1, 0, 1, flit(1));
        l.pop(1).unwrap();
        l.note_peak();
        assert_eq!(l.high_water(), 1);
    }

    #[test]
    fn stats_count_beats() {
        let mut l: SerialLink<u32> = SerialLink::new(1.0, 0.0, 16, 0);
        l.send(0, 0, 16, 1);
        l.send(16, 0, 1, 2);
        assert_eq!(l.stats().flits, 2);
        assert_eq!(l.stats().beats, 17);
    }
}
