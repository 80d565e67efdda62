//! The assembled HBM system and its cycle-driven simulation loop.

use hbm_axi::{ClockDomain, Completion, Cycle, MasterId, PortId, SharedTracer, Tracer};
use hbm_fabric::{
    DirectFabric, FabricConfig, FabricStats, FullCrossbarFabric, Interconnect, XilinxFabric,
};
use hbm_mao::{MaoConfig, MaoFabric};
use hbm_mem::{BankPool, HbmConfig, MemStats, MemoryController};
use hbm_traffic::{BmTrafficGen, GenStats, Workload};
use serde::{Deserialize, Serialize};

use crate::probe::{Probe, ProbeConfig};
use crate::profile;

/// Overridable parameters of the Xilinx switch fabric, for what-if
/// studies (e.g. the lateral-bus-count ablation of DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XilinxTweaks {
    /// Lateral buses per direction between adjacent switches (stock: 2).
    pub lateral_buses: usize,
    /// Lateral bandwidth in beats per accelerator cycle (stock: 1.0).
    pub lateral_rate: f64,
    /// Dead beats per arbitration grant switch (stock: 2.0).
    pub dead_beats: f64,
}

impl Default for XilinxTweaks {
    fn default() -> XilinxTweaks {
        XilinxTweaks { lateral_buses: 2, lateral_rate: 1.0, dead_beats: 2.0 }
    }
}

/// Which interconnect connects masters to pseudo-channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FabricKind {
    /// The stock Xilinx segmented switch network.
    Xilinx,
    /// The Xilinx network with overridden fabric parameters.
    XilinxTweaked(XilinxTweaks),
    /// The Memory Access Optimizer.
    Mao(MaoConfig),
    /// A hypothetical monolithic 32×32 crossbar: no lateral buses, but
    /// the contiguous address map and AXI ID stalls of the stock fabric
    /// (isolates the topology adaption from the MAO's other two).
    FullCrossbar,
    /// Direct 1:1 port mapping (single-channel only).
    Direct,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Accelerator clock.
    pub clock: ClockDomain,
    /// HBM geometry and timing.
    pub hbm: HbmConfig,
    /// Interconnect choice.
    pub fabric: FabricKind,
}

impl SystemConfig {
    /// The paper's measurement platform: XCVU37P HBM behind the stock
    /// Xilinx switch fabric at 300 MHz.
    pub fn xilinx() -> SystemConfig {
        SystemConfig {
            clock: ClockDomain::ACC_300,
            hbm: HbmConfig::default(),
            fabric: FabricKind::Xilinx,
        }
    }

    /// The same platform with the MAO ("version four" of Table III)
    /// inserted in place of the switch fabric's lateral routing.
    pub fn mao() -> SystemConfig {
        SystemConfig {
            clock: ClockDomain::ACC_300,
            hbm: HbmConfig::default(),
            fabric: FabricKind::Mao(MaoConfig::default()),
        }
    }

    /// A direct 1:1 system (ideal single-channel baseline).
    pub fn direct() -> SystemConfig {
        SystemConfig {
            clock: ClockDomain::ACC_300,
            hbm: HbmConfig::default(),
            fabric: FabricKind::Direct,
        }
    }

    /// Same configuration at a different accelerator clock.
    pub fn at_clock(mut self, clock: ClockDomain) -> SystemConfig {
        self.clock = clock;
        self
    }

    /// The stock switch-fabric parameters for this platform, shared by
    /// the `Xilinx` and `XilinxTweaked` arms (the tweaks overlay it).
    fn xilinx_fabric_config(&self) -> FabricConfig {
        let mut fc = FabricConfig::for_clock(self.clock);
        fc.port_capacity = self.hbm.pch_capacity;
        fc.num_switches = self.hbm.num_pch / fc.ports_per_switch;
        fc
    }

    fn build_fabric(&self) -> Box<dyn Interconnect> {
        let n = self.hbm.num_pch;
        let cap = self.hbm.pch_capacity;
        match &self.fabric {
            FabricKind::Xilinx => Box::new(XilinxFabric::new(self.xilinx_fabric_config())),
            FabricKind::XilinxTweaked(t) => {
                let mut fc = self.xilinx_fabric_config();
                fc.lateral_buses = t.lateral_buses;
                fc.lateral_rate = t.lateral_rate;
                fc.dead_beats = t.dead_beats;
                Box::new(XilinxFabric::new(fc))
            }
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
}
/// A producer/consumer of memory transactions attached to one master
/// port — either a synthetic [`BmTrafficGen`] or an accelerator engine
/// (see the `hbm-accel` crate).
///
/// Contract per cycle: the system calls [`poll`](TrafficSource::poll)
/// once; if the returned transaction is accepted by the interconnect it
/// calls [`accepted`](TrafficSource::accepted), otherwise the source
/// must return the *same* transaction on the next poll (head-of-line
/// retry). Delivered completions arrive via
/// [`completed`](TrafficSource::completed).
pub trait TrafficSource {
    /// The head-of-line transaction to offer this cycle, if any.
    fn poll(&mut self, now: Cycle) -> Option<hbm_axi::Transaction>;

    /// The pending transaction was accepted by the interconnect.
    fn accepted(&mut self);

    /// A completion for this source was delivered. Implementations must
    /// panic on AXI ordering violations (they indicate simulator bugs).
    fn completed(&mut self, now: Cycle, txn: &hbm_axi::Transaction);

    /// Traffic statistics.
    fn stats(&self) -> &GenStats;

    /// Clears statistics (end of warm-up).
    fn reset_stats(&mut self);

    /// `true` when the source has nothing pending and nothing in flight.
    fn drained(&self) -> bool;

    /// A lower bound on the first cycle ≥ `now` at which
    /// [`poll`](TrafficSource::poll) could return a transaction, assuming
    /// no completion is delivered in the meantime. `None` means the
    /// source only wakes on a completion (or is done for good).
    ///
    /// The contract is one-sided: reporting earlier than the true next
    /// issue merely costs a no-op step, reporting later would skip real
    /// work. The default is the maximally conservative `Some(now)`;
    /// sources whose idle `poll` is side-effect free override it to
    /// enable the event-horizon fast-forward of [`HbmSystem::run`] (see
    /// DESIGN.md §3).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Transactions issued but not yet completed, as seen by this source.
    /// Purely observational (feeds the time-series [`Probe`]); the default
    /// suits sources that do not track it.
    fn in_flight(&self) -> usize {
        0
    }
}

impl TrafficSource for BmTrafficGen {
    fn poll(&mut self, now: Cycle) -> Option<hbm_axi::Transaction> {
        BmTrafficGen::poll(self, now)
    }

    fn accepted(&mut self) {
        BmTrafficGen::accepted(self)
    }

    fn completed(&mut self, now: Cycle, txn: &hbm_axi::Transaction) {
        BmTrafficGen::completed(self, now, txn).expect("AXI ordering violated — simulator bug")
    }

    fn stats(&self) -> &GenStats {
        BmTrafficGen::stats(self)
    }

    fn reset_stats(&mut self) {
        BmTrafficGen::reset_stats(self)
    }

    fn drained(&self) -> bool {
        BmTrafficGen::drained(self)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        BmTrafficGen::next_event(self, now)
    }

    fn in_flight(&self) -> usize {
        BmTrafficGen::in_flight(self)
    }
}

/// Amortizes [`HbmSystem::next_event`] over saturated stretches.
///
/// Consulting the horizon costs a scan of every component, which is
/// wasted work while the system is busy every cycle. After each step the
/// horizon *confirmed*, the pacer grants an exponentially growing number
/// of "blind" steps (capped) before the next consultation. Blind steps
/// are ordinary [`HbmSystem::step`] calls — exactly what naive stepping
/// would do — so the heuristic cannot affect simulated behaviour; at
/// worst it executes up to [`Pacer::MAX_CREDIT`] no-op cycles of an idle
/// gap before the next horizon check skips the rest.
#[derive(Default)]
struct Pacer {
    credit: u32,
    burst: u32,
}

impl Pacer {
    const MAX_CREDIT: u32 = 64;

    /// Consumes one blind-step credit if available.
    fn take_credit(&mut self) -> bool {
        if self.credit > 0 {
            self.credit -= 1;
            true
        } else {
            false
        }
    }

    /// The horizon confirmed an immediate event: grow the blind burst.
    fn stepped(&mut self) {
        self.burst = (self.burst * 2).clamp(1, Self::MAX_CREDIT);
        self.credit = self.burst;
    }

    /// The horizon skipped ahead: traffic is sparse, re-check every step.
    fn skipped(&mut self) {
        self.burst = 0;
        self.credit = 0;
    }
}

/// The simulated system: traffic sources, interconnect, memory
/// controllers.
pub struct HbmSystem {
    cfg: SystemConfig,
    gens: Vec<Box<dyn TrafficSource>>,
    fabric: Box<dyn Interconnect>,
    mcs: Vec<MemoryController>,
    /// Bank row state for every pseudo-channel, structure-of-arrays (unit
    /// `p` belongs to controller `p`).
    banks: BankPool,
    /// Completions produced by a controller that could not yet enter the
    /// return network (per port).
    stuck: Vec<Option<Completion>>,
    now: Cycle,
    /// Lifecycle tracer, when tracing is enabled (see
    /// [`enable_tracing`](HbmSystem::enable_tracing)). `None` keeps every
    /// stamp site a single branch — the hot loop is unchanged.
    tracer: Option<SharedTracer>,
    /// Windowed time-series sampler, when attached.
    probe: Option<Probe>,
}

impl HbmSystem {
    /// Builds a system in which every master runs `workload`, optionally
    /// bounded to `max_txns` transactions per master.
    pub fn new(cfg: &SystemConfig, workload: Workload, max_txns: Option<u64>) -> HbmSystem {
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
        HbmSystem::with_sources(cfg, sources)
    }

    /// Builds a heterogeneous system: one workload per master (the
    /// paper's motivation for global addressing is exactly such systems,
    /// where "data can often not be partitioned in a way that the memory
    /// access from all \[cores\] is optimal", §V).
    pub fn with_workloads(cfg: &SystemConfig, workloads: &[Workload]) -> HbmSystem {
        let n = cfg.hbm.num_pch;
        assert_eq!(workloads.len(), n, "need exactly one workload per master");
        let sources = workloads
            .iter()
            .enumerate()
            .map(|(m, wl)| {
                Box::new(BmTrafficGen::new(MasterId(m as u16), n, cfg.hbm.pch_capacity, *wl, None))
                    as Box<dyn TrafficSource>
            })
            .collect();
        HbmSystem::with_sources(cfg, sources)
    }

    /// Builds a system driven by arbitrary traffic sources, one per
    /// master port (e.g. accelerator engines).
    pub fn with_sources(cfg: &SystemConfig, sources: Vec<Box<dyn TrafficSource>>) -> HbmSystem {
        cfg.hbm.validate().expect("invalid HBM configuration");
        let n = cfg.hbm.num_pch;
        assert_eq!(sources.len(), n, "need exactly one traffic source per master port");
        let fabric = cfg.build_fabric();
        let mcs = (0..n)
            .map(|p| MemoryController::new(&cfg.hbm, cfg.clock, cfg.hbm.refresh_phase(p)))
            .collect();
        HbmSystem {
            stuck: vec![None; n],
            gens: sources,
            fabric,
            mcs,
            banks: BankPool::new(n, cfg.hbm.banks_per_pch),
            now: 0,
            cfg: cfg.clone(),
            tracer: None,
            probe: None,
        }
    }

    /// The configured accelerator clock.
    pub fn clock(&self) -> ClockDomain {
        self.cfg.clock
    }

    /// The full system configuration this instance was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Turns on per-transaction lifecycle tracing, keeping at most
    /// `record_cap` completed records. The tracer is attached to the
    /// interconnect and every memory controller; the returned handle can
    /// be inspected at any time (e.g. by `hbm_core::export`). Tracing is
    /// observation-only: a traced run is bit-identical to an untraced one
    /// (enforced by the `fastpath_equivalence` property tests).
    ///
    /// Every fabric stamps into one tracer; `record_cap` bounds the
    /// retained records of the whole system, in delivery order.
    pub fn enable_tracing(&mut self, record_cap: usize) -> SharedTracer {
        let tracer = Tracer::shared(record_cap);
        self.fabric.attach_tracer(tracer.clone());
        for (p, mc) in self.mcs.iter_mut().enumerate() {
            mc.attach_tracer(p as u16, tracer.clone());
        }
        self.tracer = Some(tracer.clone());
        tracer
    }

    /// The tracer handle, when tracing is enabled.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// Attaches a windowed time-series probe. [`run`](HbmSystem::run) and
    /// [`run_until_drained`](HbmSystem::run_until_drained) will sample it
    /// every `cfg.interval` cycles, starting from the current cycle.
    pub fn attach_probe(&mut self, cfg: ProbeConfig) {
        self.probe = Some(Probe::new(cfg, self.now, self.cfg.hbm.num_pch));
    }

    /// The attached probe, when any.
    pub fn probe(&self) -> Option<&Probe> {
        self.probe.as_ref()
    }

    /// Takes one probe sample at the current cycle. Gathers the gauges
    /// first (immutable borrows), then feeds them to the sampler.
    fn sample_probe(&mut self) {
        if self.probe.is_none() {
            return;
        }
        let in_flight: u64 = self.gens.iter().map(|g| g.in_flight() as u64).sum();
        let fabric_occupancy = self.fabric.occupancy() as u64;
        let mc_queued: u64 = self.mcs.iter().map(|m| m.queue_len() as u64).sum();
        let per_pch: Vec<MemStats> = self.mcs.iter().map(|m| *m.stats()).collect();
        if let Some(p) = self.probe.as_mut() {
            p.sample(self.now, &per_pch, in_flight, fabric_occupancy, mc_queued);
        }
    }

    /// Closes the probe's last (possibly partial) window at the end of a
    /// run, unless a sample was already taken at this exact cycle.
    fn sample_probe_final(&mut self) {
        match &self.probe {
            Some(p) if p.last_sample_at() != self.now => self.sample_probe(),
            _ => {}
        }
    }

    /// The current simulation cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the system by one cycle.
    pub fn step(&mut self) {
        self.step_prof(profile::active());
    }

    /// [`step`](Self::step) with the phase-profiler activity bit hoisted
    /// by the caller (the span loops read it once, not per cycle). When
    /// `prof` is false every stamp is a never-taken branch on a register
    /// bool — observation only, the simulated schedule is untouched.
    fn step_prof(&mut self, prof: bool) {
        let now = self.now;
        // 1. Masters offer their head-of-line transaction.
        for gen in &mut self.gens {
            if let Some(txn) = gen.poll(now) {
                if self.fabric.offer_request(now, txn).is_ok() {
                    gen.accepted();
                }
            }
        }
        if prof {
            profile::lap(profile::Phase::GensTick);
        }
        // 2. The interconnect moves flits.
        self.fabric.tick(now);
        if prof {
            profile::lap(profile::Phase::FabricTick);
        }
        // 3. Memory side: deliver requests (one per port per cycle, as an
        //    AXI handshake would) and return completions.
        for (p, mc) in self.mcs.iter_mut().enumerate() {
            let port = PortId(p as u16);
            if let Some(head) = self.fabric.peek_request(now, port) {
                if mc.can_accept(head.dir) {
                    let txn = self.fabric.pop_request(now, port).expect("peeked head");
                    mc.accept(now, txn);
                }
            }
            if prof {
                profile::lap(profile::Phase::QueueOps);
            }
            mc.tick(now, &mut self.banks.unit_mut(p));
            if prof {
                profile::lap(profile::Phase::McTick);
            }
            if let Some(c) = self.stuck[p].take() {
                if let Err(c) = self.fabric.offer_completion(now, port, c) {
                    self.stuck[p] = Some(c);
                }
            }
            if self.stuck[p].is_none() {
                if let Some(c) = mc.pop_completion(now) {
                    if let Err(c) = self.fabric.offer_completion(now, port, c) {
                        self.stuck[p] = Some(c);
                    }
                }
            }
        }
        // 4. Masters drain completions.
        for (m, gen) in self.gens.iter_mut().enumerate() {
            while let Some(c) = self.fabric.pop_completion(now, MasterId(m as u16)) {
                if let Some(tr) = &self.tracer {
                    tr.delivered(now, &c.txn);
                }
                gen.completed(now, &c.txn);
            }
        }
        if prof {
            profile::lap(profile::Phase::QueueOps);
        }
        self.now += 1;
    }

    /// A lower bound on the first cycle ≥ `now` at which
    /// [`step`](Self::step) would do observable work: the minimum of
    /// every component's own horizon
    /// (sources, fabric, controllers, plus any completion stuck between
    /// a controller and the return network). `None` means the system is
    /// quiescent forever — nothing will happen without external changes.
    ///
    /// Cycles strictly before the returned bound are provably no-op
    /// steps: every `poll` early-out is side-effect free, fabric ticks
    /// only mutate on grants (which need a ready queue head), and the
    /// controllers' idle paths mutate nothing. [`run`](Self::run) and
    /// [`run_until_drained`](Self::run_until_drained) therefore jump
    /// `now` straight to the bound
    /// without stepping; statistics are bit-identical to naive stepping
    /// (asserted by the `fastpath_equivalence` property test and
    /// documented in DESIGN.md §3).
    pub fn next_event(&self) -> Option<Cycle> {
        let now = self.now;
        if self.stuck.iter().any(|s| s.is_some()) {
            return Some(now); // retried against the fabric every cycle
        }
        let mut best: Option<Cycle> = None;
        let merge = |t: Option<Cycle>, best: &mut Option<Cycle>| -> bool {
            match t {
                Some(t) if t <= now => true, // immediate: caller returns Some(now)
                Some(t) => {
                    if best.is_none_or(|b| t < b) {
                        *best = Some(t);
                    }
                    false
                }
                None => false,
            }
        };
        for g in &self.gens {
            if merge(g.next_event(now), &mut best) {
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

    /// Runs for `cycles` cycles, fast-forwarding over provably idle gaps.
    /// With a probe attached, the span is split at sampling boundaries;
    /// the stepped cycles (and hence all statistics) are identical either
    /// way, because `run_span(a); run_span(b)` ≡ `run_span(a + b)` — the
    /// fast-forward clamps to the deadline and re-derives the same
    /// horizon on re-entry.
    pub fn run(&mut self, cycles: Cycle) {
        if self.probe.is_none() {
            return self.run_span(cycles);
        }
        let deadline = self.now.saturating_add(cycles);
        while self.now < deadline {
            let next = self.probe.as_ref().expect("probe attached").next_sample_at();
            if next <= self.now {
                self.sample_probe();
                continue;
            }
            self.run_span(next.min(deadline) - self.now);
            if self.now >= next {
                self.sample_probe();
            }
        }
        self.sample_probe_final();
    }

    /// The un-probed span loop behind [`run`](HbmSystem::run).
    fn run_span(&mut self, cycles: Cycle) {
        let prof = profile::active();
        let deadline = self.now.saturating_add(cycles);
        let mut pacer = Pacer::default();
        while self.now < deadline {
            if pacer.take_credit() {
                self.step_prof(prof);
                continue;
            }
            let ev = self.next_event();
            if prof {
                profile::lap(profile::Phase::HorizonCompute);
            }
            match ev {
                Some(t) if t <= self.now => {
                    self.step_prof(prof);
                    pacer.stepped();
                }
                Some(t) => {
                    self.now = t.min(deadline);
                    pacer.skipped();
                }
                None => {
                    self.now = deadline;
                    pacer.skipped();
                }
            }
        }
    }

    /// Runs until every generator, the fabric, and every controller are
    /// drained, or until `max_cycles` more cycles have elapsed. Returns
    /// `true` on a clean drain (in particular: immediately, without
    /// stepping, when the system is already drained — even with
    /// `max_cycles == 0`).
    ///
    /// With a probe attached the span is split at sampling boundaries,
    /// exactly like [`run`](HbmSystem::run).
    pub fn run_until_drained(&mut self, max_cycles: Cycle) -> bool {
        if self.probe.is_none() {
            return self.drain_span(max_cycles);
        }
        let deadline = self.now.saturating_add(max_cycles);
        let drained = loop {
            let next = self.probe.as_ref().expect("probe attached").next_sample_at();
            if next <= self.now {
                self.sample_probe();
                continue;
            }
            if self.drain_span(next.min(deadline) - self.now) {
                break true;
            }
            if self.now >= next {
                self.sample_probe();
            }
            if self.now >= deadline {
                break false;
            }
        };
        self.sample_probe_final();
        drained
    }

    /// The un-probed drain loop behind
    /// [`run_until_drained`](HbmSystem::run_until_drained).
    fn drain_span(&mut self, max_cycles: Cycle) -> bool {
        let prof = profile::active();
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
                self.step_prof(prof);
                continue;
            }
            let ev = self.next_event();
            if prof {
                profile::lap(profile::Phase::HorizonCompute);
            }
            match ev {
                Some(t) if t <= self.now => {
                    self.step_prof(prof);
                    pacer.stepped();
                }
                Some(t) => {
                    self.now = t.min(deadline);
                    pacer.skipped();
                }
                None => {
                    self.now = deadline;
                    pacer.skipped();
                }
            }
        }
    }

    /// `true` when no transaction is anywhere in the system.
    pub fn drained(&self) -> bool {
        self.gens.iter().all(|g| g.drained())
            && self.fabric.drained()
            && self.mcs.iter().all(|m| m.drained())
            && self.stuck.iter().all(|s| s.is_none())
    }

    /// Clears all statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        for g in &mut self.gens {
            g.reset_stats();
        }
        for m in &mut self.mcs {
            m.reset_stats();
        }
        self.fabric.reset_stats();
    }

    /// Per-master generator statistics.
    pub fn gen_stats(&self) -> Vec<GenStats> {
        self.gens.iter().map(|g| *g.stats()).collect()
    }

    /// Aggregate memory statistics over all pseudo-channels.
    pub fn mem_stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for m in &self.mcs {
            total.merge(m.stats());
        }
        total
    }

    /// Per-pseudo-channel memory statistics.
    pub fn mem_stats_per_pch(&self) -> Vec<MemStats> {
        self.mcs.iter().map(|m| *m.stats()).collect()
    }

    /// Interconnect statistics.
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// Visits the high-water mark of every queue in the system — the
    /// fabric's internal queues (labeled by family) plus each memory
    /// controller's request/response/ack queues. Marks are maintained at
    /// push time by the queues themselves; sampling happens once per
    /// measurement, never inside the cycle loop.
    pub fn for_each_queue_hwm(&self, visit: &mut dyn FnMut(&'static str, usize)) {
        self.fabric.for_each_queue_hwm(visit);
        for mc in &self.mcs {
            let [req, resp, ack] = mc.queue_high_waters();
            visit("mc_req", req);
            visit("mc_resp", resp);
            visit("mc_ack", ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_axi::Dir;
    use hbm_traffic::RwRatio;

    #[test]
    fn scs_system_drains_bounded_stream() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(8));
        assert!(sys.run_until_drained(100_000), "system failed to drain");
        let total: u64 = sys.gen_stats().iter().map(|g| g.completed).sum();
        assert_eq!(total, 32 * 8);
    }

    #[test]
    fn mao_system_drains_ccra_stream() {
        let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccra(), Some(8));
        assert!(sys.run_until_drained(200_000));
        let total: u64 = sys.gen_stats().iter().map(|g| g.completed).sum();
        assert_eq!(total, 32 * 8);
    }

    #[test]
    fn direct_system_runs_scs() {
        let mut sys = HbmSystem::new(&SystemConfig::direct(), Workload::scs(), Some(16));
        assert!(sys.run_until_drained(100_000));
    }

    #[test]
    fn bytes_move_through_memory() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(4));
        sys.run_until_drained(100_000);
        let mem = sys.mem_stats();
        // 32 masters × 4 × 512 B, split 2:1 read/write (3 reads, 1 write
        // per master under the 2:1 sequence R,R,W,R).
        assert_eq!(mem.total_bytes(), 32 * 4 * 512);
        assert!(mem.bytes_read > mem.bytes_written);
    }

    #[test]
    fn read_latency_matches_paper_ballpark() {
        // Single local read at low load: the paper measures 48 cycles
        // (global addressing enabled, closest PCH).
        let wl = Workload { rw: RwRatio::READ_ONLY, outstanding: 1, ..Workload::scs() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(4));
        sys.run_until_drained(10_000);
        let stats = &sys.gen_stats()[0];
        let mean = stats.read_lat.mean().unwrap();
        assert!(
            (30.0..70.0).contains(&mean),
            "local read latency {mean} should be near the paper's 48 cycles"
        );
    }

    #[test]
    fn write_latency_below_read_latency() {
        let run = |dir| {
            let wl = Workload {
                rw: if dir == Dir::Read { RwRatio::READ_ONLY } else { RwRatio::WRITE_ONLY },
                outstanding: 1,
                ..Workload::scs()
            };
            let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(4));
            sys.run_until_drained(10_000);
            let s = &sys.gen_stats()[0];
            match dir {
                Dir::Read => s.read_lat.mean().unwrap(),
                Dir::Write => s.write_lat.mean().unwrap(),
            }
        };
        let rd = run(Dir::Read);
        let wr = run(Dir::Write);
        assert!(wr < rd - 10.0, "posted writes ({wr}) must ack much faster than reads ({rd})");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = HbmSystem::new(&SystemConfig::mao(), Workload::ccra(), Some(32));
            sys.run_until_drained(200_000);
            let stats = sys.gen_stats();
            (
                stats.iter().map(|g| g.completed).sum::<u64>(),
                stats.iter().map(|g| g.read_lat.mean().unwrap_or(0.0)).sum::<f64>(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "identical seeds must give identical results");
    }

    #[test]
    fn rotation_zero_uses_no_lateral_buses() {
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), Workload::scs(), Some(16));
        sys.run_until_drained(100_000);
        assert_eq!(sys.fabric_stats().lateral_beats(), 0);
    }

    #[test]
    fn rotation_crosses_lateral_buses() {
        let wl = Workload { rotation: 4, ..Workload::scs() };
        let mut sys = HbmSystem::new(&SystemConfig::xilinx(), wl, Some(16));
        sys.run_until_drained(100_000);
        assert!(sys.fabric_stats().lateral_beats() > 0);
    }
}
