//! A traced copy of the simulator's conductor, assembled only from the
//! crates' public constructors.
//!
//! [`Traced`] replays `HbmSystem::step`, `HbmSystem::next_event` and the
//! pacer-driven span and drain loops call for call, with a span around
//! every call into a layer: traffic sources (`TrafficSource`), the
//! interconnect's port hand-off (`offer_request`, `peek_request`,
//! `pop_request`, `offer_completion`, `pop_completion` — the
//! `StampedRing` boundary), the interconnect's `tick`, and the memory
//! controllers. Nothing inside the simulator is instrumented.
//!
//! Counts (cycles stepped, horizon queries, offers) are exact. Host
//! times are taken on every [`SAMPLE_EVERY`]-th stepped cycle only and
//! scaled up, which keeps the traced run within a small factor of the
//! untraced one. The caller checks that the traced run's statistics
//! equal the library's own run of the same point: if they differ, this
//! copy no longer describes the program.

use std::time::Instant;

use hbm_axi::{Completion, Cycle, MasterId, PortId};
use hbm_core::system::{FabricKind, SystemConfig, TrafficSource};
use hbm_fabric::XilinxFabric;
use hbm_fabric::{DirectFabric, FabricConfig, FabricStats, FullCrossbarFabric, Interconnect};
use hbm_mao::MaoFabric;
use hbm_mem::{BankPool, MemStats, MemoryController};
use hbm_traffic::{BmTrafficGen, GenStats, Workload};

/// One stepped cycle in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// Layers a span is charged to.
const SRC: usize = 0;
const FABRIC_TICK: usize = 1;
const HANDOFF: usize = 2;
const MC: usize = 3;

/// Host time and exact work counts of one or more traced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTrace {
    /// Cycles the clock advanced over, skipped ones included.
    pub simulated_cycles: u64,
    /// Cycles actually stepped.
    pub stepped_cycles: u64,
    /// Stepped cycles whose spans were timed.
    pub timed_cycles: u64,
    /// Host ns in sources, fabric tick, hand-off and controllers, over
    /// the timed cycles.
    pub layer_ns: [u64; 4],
    /// Spans closed per layer over the timed cycles (each carries one
    /// clock read of overhead, subtracted when reporting).
    pub layer_laps: [u64; 4],
    /// System horizon queries.
    pub horizon_queries: u64,
    /// Host ns spent answering them (every query is timed).
    pub horizon_ns: u64,
    /// Queries a source answered with "now".
    pub src_now_answers: u64,
    /// …of which that source issued nothing in the following step.
    pub src_now_blocked: u64,
    /// Transactions sources offered to the interconnect.
    pub offers: u64,
    /// Offers the interconnect accepted.
    pub accepts: u64,
    /// Payload bytes of accepted offers.
    pub issued_bytes: u64,
    /// Payload bytes of completions delivered back to sources.
    pub delivered_bytes: u64,
}

impl LayerTrace {
    /// Accumulates another trace.
    pub fn merge(&mut self, o: &LayerTrace) {
        self.simulated_cycles += o.simulated_cycles;
        self.stepped_cycles += o.stepped_cycles;
        self.timed_cycles += o.timed_cycles;
        for (a, b) in self.layer_ns.iter_mut().zip(o.layer_ns) {
            *a += b;
        }
        for (a, b) in self.layer_laps.iter_mut().zip(o.layer_laps) {
            *a += b;
        }
        self.horizon_queries += o.horizon_queries;
        self.horizon_ns += o.horizon_ns;
        self.src_now_answers += o.src_now_answers;
        self.src_now_blocked += o.src_now_blocked;
        self.offers += o.offers;
        self.accepts += o.accepts;
        self.issued_bytes += o.issued_bytes;
        self.delivered_bytes += o.delivered_bytes;
    }

    /// Host ns per timed cycle in `layer`, less the clock reads.
    fn per_timed_cycle(&self, layer: usize) -> f64 {
        if self.timed_cycles == 0 {
            return 0.0;
        }
        let ns = self.layer_ns[layer] as f64 - self.layer_laps[layer] as f64 * lap_cost_ns();
        ns.max(0.0) / self.timed_cycles as f64
    }

    /// Host ns per stepped cycle in the traffic sources.
    pub fn src_ns(&self) -> f64 {
        self.per_timed_cycle(SRC)
    }

    /// Host ns per stepped cycle in `Interconnect::tick`.
    pub fn fabric_tick_ns(&self) -> f64 {
        self.per_timed_cycle(FABRIC_TICK)
    }

    /// Host ns per stepped cycle in the port hand-off calls.
    pub fn handoff_ns(&self) -> f64 {
        self.per_timed_cycle(HANDOFF)
    }

    /// Host ns per stepped cycle in `MemoryController` calls.
    pub fn mc_ns(&self) -> f64 {
        self.per_timed_cycle(MC)
    }

    /// Host ns per stepped cycle over the whole step.
    pub fn step_ns(&self) -> f64 {
        (0..4).map(|l| self.per_timed_cycle(l)).sum()
    }
}

/// The statistics a traced run must reproduce, as one string.
pub fn stats_json(
    gens: &[hbm_traffic::GenStats],
    mem: &hbm_mem::MemStats,
    fabric: &hbm_fabric::FabricStats,
) -> String {
    format!(
        "{}|{}|{}",
        serde_json::to_string(gens).expect("stats serialise"),
        serde_json::to_string(mem).expect("stats serialise"),
        serde_json::to_string(fabric).expect("stats serialise")
    )
}

/// The simulation state of one system, stepped by the traced loops.
pub struct Traced {
    gens: Vec<Box<dyn TrafficSource>>,
    fabric: Box<dyn Interconnect>,
    mcs: Vec<MemoryController>,
    banks: BankPool,
    stuck: Vec<Option<Completion>>,
    now: Cycle,
    /// The source that answered the latest horizon query with "now".
    watched: Option<usize>,
    /// Whole-run counters and times.
    pub trace: LayerTrace,
}

/// The interconnect `HbmSystem` builds for `cfg`, from public parts.
fn build_fabric(cfg: &SystemConfig) -> Box<dyn Interconnect> {
    let n = cfg.hbm.num_pch;
    let cap = cfg.hbm.pch_capacity;
    let xilinx = |tweak: &dyn Fn(&mut FabricConfig)| {
        let mut fc = FabricConfig::for_clock(cfg.clock);
        fc.port_capacity = cap;
        fc.num_switches = n / fc.ports_per_switch;
        tweak(&mut fc);
        Box::new(XilinxFabric::new(fc)) as Box<dyn Interconnect>
    };
    match &cfg.fabric {
        FabricKind::Xilinx => xilinx(&|_| {}),
        FabricKind::XilinxTweaked(t) => xilinx(&|fc| {
            fc.lateral_buses = t.lateral_buses;
            fc.lateral_rate = t.lateral_rate;
            fc.dead_beats = t.dead_beats;
        }),
        FabricKind::Mao(mc) => {
            let mut mc = *mc;
            mc.num_ports = n;
            mc.num_masters = n;
            mc.port_capacity = cap;
            Box::new(MaoFabric::new(mc))
        }
        FabricKind::FullCrossbar => Box::new(FullCrossbarFabric::new(n, cap, 6, 8)),
        FabricKind::Direct => Box::new(DirectFabric::new(n, cap, 4, 8)),
    }
}

/// Host ns one clock read adds to the span it closes, measured once per
/// process (reads of the monotonic clock are not free on every host).
fn lap_cost_ns() -> f64 {
    static COST: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        const READS: u32 = 20_000;
        let t0 = Instant::now();
        let mut last = t0;
        for _ in 0..READS {
            last = std::hint::black_box(Instant::now());
        }
        (last - t0).as_nanos() as f64 / f64::from(READS)
    })
}

/// Start-of-span clock for one step: a no-op unless `T`.
struct Laps<const T: bool> {
    last: Option<Instant>,
    ns: [u64; 4],
    laps: [u64; 4],
}

impl<const T: bool> Laps<T> {
    fn start() -> Self {
        Laps { last: T.then(Instant::now), ns: [0; 4], laps: [0; 4] }
    }

    /// Charges the time since the previous lap to `layer`.
    #[inline(always)]
    fn lap(&mut self, layer: usize) {
        if T {
            let t = Instant::now();
            if let Some(last) = self.last {
                self.ns[layer] += (t - last).as_nanos() as u64;
            }
            self.laps[layer] += 1;
            self.last = Some(t);
        }
    }
}

/// The pacer of `HbmSystem`'s span loops: after each horizon query that
/// confirmed an immediate event, a doubling burst (capped at 64) of
/// steps runs without consulting the horizon.
#[derive(Default)]
struct Pacer {
    credit: u32,
    burst: u32,
}

impl Pacer {
    const MAX_CREDIT: u32 = 64;

    fn take_credit(&mut self) -> bool {
        if self.credit > 0 {
            self.credit -= 1;
            true
        } else {
            false
        }
    }

    fn stepped(&mut self) {
        self.burst = (self.burst * 2).clamp(1, Self::MAX_CREDIT);
        self.credit = self.burst;
    }

    fn skipped(&mut self) {
        self.burst = 0;
        self.credit = 0;
    }
}

impl Traced {
    /// A system driven by `sources`, one per master port, as
    /// `HbmSystem::with_sources` builds it.
    pub fn with_sources(cfg: &SystemConfig, sources: Vec<Box<dyn TrafficSource>>) -> Traced {
        cfg.hbm.validate().expect("invalid HBM configuration");
        let n = cfg.hbm.num_pch;
        assert_eq!(sources.len(), n, "need exactly one traffic source per master port");
        Traced {
            gens: sources,
            fabric: build_fabric(cfg),
            mcs: (0..n)
                .map(|p| MemoryController::new(&cfg.hbm, cfg.clock, cfg.hbm.refresh_phase(p)))
                .collect(),
            banks: BankPool::new(n, cfg.hbm.banks_per_pch),
            stuck: vec![None; n],
            now: 0,
            watched: None,
            trace: LayerTrace::default(),
        }
    }

    /// Every master runs `workload`, as `HbmSystem::new` builds it.
    pub fn new(cfg: &SystemConfig, workload: Workload, max_txns: Option<u64>) -> Traced {
        let n = cfg.hbm.num_pch;
        let sources = (0..n)
            .map(|m| {
                Box::new(BmTrafficGen::new(
                    MasterId(m as u16),
                    n,
                    cfg.hbm.pch_capacity,
                    workload,
                    max_txns,
                )) as Box<dyn TrafficSource>
            })
            .collect();
        Traced::with_sources(cfg, sources)
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    fn step(&mut self) {
        if self.trace.stepped_cycles.is_multiple_of(SAMPLE_EVERY) {
            self.step_with::<true>();
            self.trace.timed_cycles += 1;
        } else {
            self.step_with::<false>();
        }
        self.trace.stepped_cycles += 1;
        self.trace.simulated_cycles += 1;
    }

    /// `HbmSystem::step`, with spans when `T`.
    fn step_with<const T: bool>(&mut self) {
        let now = self.now;
        let mut laps = Laps::<T>::start();
        let watched = self.watched.take();
        // 1. Masters offer their head-of-line transaction.
        for (m, gen) in self.gens.iter_mut().enumerate() {
            let polled = gen.poll(now);
            laps.lap(SRC);
            let mut issued = false;
            if let Some(txn) = polled {
                self.trace.offers += 1;
                let bytes = txn.bytes();
                let ok = self.fabric.offer_request(now, txn).is_ok();
                laps.lap(HANDOFF);
                if ok {
                    gen.accepted();
                    laps.lap(SRC);
                    self.trace.accepts += 1;
                    self.trace.issued_bytes += bytes;
                    issued = true;
                }
            }
            if watched == Some(m) && !issued {
                self.trace.src_now_blocked += 1;
            }
        }
        // 2. The interconnect moves flits.
        self.fabric.tick(now);
        laps.lap(FABRIC_TICK);
        // 3. Memory side: one request per port per cycle, then
        //    completions back into the return network.
        for (p, mc) in self.mcs.iter_mut().enumerate() {
            let port = PortId(p as u16);
            let head = self.fabric.peek_request(now, port).map(|h| h.dir);
            laps.lap(HANDOFF);
            if let Some(dir) = head {
                let room = mc.can_accept(dir);
                laps.lap(MC);
                if room {
                    let txn = self.fabric.pop_request(now, port).expect("peeked head");
                    laps.lap(HANDOFF);
                    mc.accept(now, txn);
                    laps.lap(MC);
                }
            }
            mc.tick(now, &mut self.banks.unit_mut(p));
            laps.lap(MC);
            if let Some(c) = self.stuck[p].take() {
                if let Err(c) = self.fabric.offer_completion(now, port, c) {
                    self.stuck[p] = Some(c);
                }
                laps.lap(HANDOFF);
            }
            if self.stuck[p].is_none() {
                let done = mc.pop_completion(now);
                laps.lap(MC);
                if let Some(c) = done {
                    if let Err(c) = self.fabric.offer_completion(now, port, c) {
                        self.stuck[p] = Some(c);
                    }
                    laps.lap(HANDOFF);
                }
            }
        }
        // 4. Masters drain completions.
        for (m, gen) in self.gens.iter_mut().enumerate() {
            loop {
                let c = self.fabric.pop_completion(now, MasterId(m as u16));
                laps.lap(HANDOFF);
                let Some(c) = c else { break };
                self.trace.delivered_bytes += c.txn.bytes();
                gen.completed(now, &c.txn);
                laps.lap(SRC);
            }
        }
        if T {
            for (a, b) in self.trace.layer_ns.iter_mut().zip(laps.ns) {
                *a += b;
            }
            for (a, b) in self.trace.layer_laps.iter_mut().zip(laps.laps) {
                *a += b;
            }
        }
        self.now += 1;
    }

    /// `HbmSystem::next_event`, timed and counted.
    fn next_event(&mut self) -> Option<Cycle> {
        let t0 = Instant::now();
        let ev = self.horizon();
        let ns = t0.elapsed().as_nanos() as f64 - lap_cost_ns();
        self.trace.horizon_ns += ns.max(0.0) as u64;
        self.trace.horizon_queries += 1;
        if self.watched.is_some() {
            self.trace.src_now_answers += 1;
        }
        ev
    }

    fn horizon(&mut self) -> Option<Cycle> {
        let now = self.now;
        if self.stuck.iter().any(|s| s.is_some()) {
            return Some(now);
        }
        let mut best: Option<Cycle> = None;
        let merge = |t: Option<Cycle>, best: &mut Option<Cycle>| -> bool {
            match t {
                Some(t) if t <= now => true,
                Some(t) => {
                    if best.is_none_or(|b| t < b) {
                        *best = Some(t);
                    }
                    false
                }
                None => false,
            }
        };
        for (m, g) in self.gens.iter().enumerate() {
            if merge(g.next_event(now), &mut best) {
                self.watched = Some(m);
                return Some(now);
            }
        }
        if merge(self.fabric.next_event(now), &mut best) {
            return Some(now);
        }
        for mc in &self.mcs {
            if merge(mc.next_event(now), &mut best) {
                return Some(now);
            }
        }
        best
    }

    /// Moves the clock forward without stepping.
    fn skip_to(&mut self, t: Cycle) {
        self.trace.simulated_cycles += t - self.now;
        self.now = t;
    }

    /// `HbmSystem::run` (sequential, no probe): `cycles` cycles with the
    /// event-horizon fast-forward.
    pub fn run(&mut self, cycles: Cycle) {
        let deadline = self.now.saturating_add(cycles);
        let mut pacer = Pacer::default();
        while self.now < deadline {
            if pacer.take_credit() {
                self.step();
                continue;
            }
            match self.next_event() {
                Some(t) if t <= self.now => {
                    self.step();
                    pacer.stepped();
                }
                Some(t) => {
                    self.skip_to(t.min(deadline));
                    pacer.skipped();
                }
                None => {
                    self.skip_to(deadline);
                    pacer.skipped();
                }
            }
        }
    }

    /// `HbmSystem::run_until_drained` (sequential, no probe).
    pub fn run_until_drained(&mut self, max_cycles: Cycle) -> bool {
        let deadline = self.now.saturating_add(max_cycles);
        let mut pacer = Pacer::default();
        loop {
            if self.drained() {
                return true;
            }
            if self.now >= deadline {
                return false;
            }
            if pacer.take_credit() {
                self.step();
                continue;
            }
            match self.next_event() {
                Some(t) if t <= self.now => {
                    self.step();
                    pacer.stepped();
                }
                Some(t) => {
                    self.skip_to(t.min(deadline));
                    pacer.skipped();
                }
                None => {
                    self.skip_to(deadline);
                    pacer.skipped();
                }
            }
        }
    }

    /// Nothing pending anywhere.
    pub fn drained(&self) -> bool {
        self.gens.iter().all(|g| g.drained())
            && self.fabric.drained()
            && self.mcs.iter().all(|m| m.drained())
            && self.stuck.iter().all(|s| s.is_none())
    }

    /// Clears every component's statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        for g in &mut self.gens {
            g.reset_stats();
        }
        for m in &mut self.mcs {
            m.reset_stats();
        }
        self.fabric.reset_stats();
    }

    /// Per-master source statistics.
    pub fn gen_stats(&self) -> Vec<GenStats> {
        self.gens.iter().map(|g| *g.stats()).collect()
    }

    /// DRAM statistics summed over pseudo-channels.
    pub fn mem_stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for m in &self.mcs {
            total.merge(m.stats());
        }
        total
    }

    /// Interconnect statistics.
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// Deepest request queue any controller reached.
    pub fn mc_queue_hwm(&self) -> usize {
        self.mcs.iter().map(|m| m.queue_high_waters()[0]).max().unwrap_or(0)
    }
}
