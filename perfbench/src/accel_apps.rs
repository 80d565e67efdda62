//! `accel_apps`: the §V accelerator applications, each driven to
//! completion on the stock fabric and through the MAO, one after
//! another on one thread.

use std::time::Instant;

use hbm_accel::engine::IdleSource;
use hbm_accel::gather::gather_phases;
use hbm_accel::matmul_a::pe_array_phases;
use hbm_accel::matmul_b::adder_tree_phases;
use hbm_accel::stencil::stencil_phases;
use hbm_accel::{
    adder_tree_engines, gather_engines, pe_array_engines, stencil_engines, AccelReport,
    DataflowEngine, GatherDims, MatmulDims, Phase, StencilDims,
};
use hbm_axi::{BurstLen, Cycle};
use hbm_bench::fig7::AccelBandwidths;
use hbm_core::batch;
use hbm_core::experiment::Fidelity;
use hbm_core::system::{HbmSystem, SystemConfig, TrafficSource};

use crate::anchors::{self, mean_abs_rel_err_pct};
use crate::conductor::{stats_json, LayerTrace, Traced};
use crate::grids::{self, seed_mix, Grid};
use crate::layers::ModelCounts;
use crate::report::{CheckLog, Metrics, Outcome};
use crate::stats::median;

/// Drain budget: far beyond the slowest application.
const BUDGET: Cycle = 20_000_000;

/// Burst length, outstanding transactions and IDs of the matmul and
/// stencil engines.
const BURST: u8 = 16;
const OUTSTANDING: usize = 16;
const IDS: usize = 8;

/// The applications, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Accelerator A (PE array) at a compute-bound rate.
    PeCompute,
    /// Accelerator A at a memory-bound rate, on all 32 ports.
    PeMemory,
    /// Accelerator B (adder trees), memory bound, on all 32 ports.
    AdderTree,
    /// 5-point Jacobi stencil sweep.
    Stencil,
    /// Gather reduction over a large table; the seed drives the indices.
    Gather,
}

impl App {
    /// Every application.
    pub const ALL: [App; 5] =
        [App::PeCompute, App::PeMemory, App::AdderTree, App::Stencil, App::Gather];

    fn name(self) -> &'static str {
        match self {
            App::PeCompute => "pe_array/compute_bound",
            App::PeMemory => "pe_array/memory_bound",
            App::AdderTree => "adder_tree",
            App::Stencil => "stencil",
            App::Gather => "gather",
        }
    }
}

/// One application on one fabric, ready to run.
pub struct Built {
    app: App,
    fabric: &'static str,
    cfg: SystemConfig,
    engines: Vec<DataflowEngine>,
    total_ops: u64,
    /// Ops per cycle of the whole engine set (the compute ceiling).
    ops_per_cycle: f64,
    /// Payload bytes the phase scripts issue.
    scripted_bytes: u64,
}

fn script_bytes(phases: &[Phase], burst: BurstLen) -> u64 {
    phases
        .iter()
        .map(|p| {
            Phase::chunks(&p.reads, burst)
                .iter()
                .chain(Phase::chunks(&p.writes, burst).iter())
                .map(|(_, bl)| bl.bytes())
                .sum::<u64>()
        })
        .sum()
}

/// The gather problem at benchmark seed `seed` (the seed drives the
/// indices only).
pub fn gather_dims(seed: u64) -> GatherDims {
    let mut dims = GatherDims::new(8_192, 512 << 20);
    dims.seed ^= seed_mix(seed);
    dims
}

/// Builds `app` on `cfg`: its engine scripts and expectations.
pub fn build(app: App, fabric: &'static str, cfg: SystemConfig, seed: u64) -> Built {
    let burst = BurstLen::of(BURST);
    let (engines, total_ops, ops_per_cycle, scripted_bytes) = match app {
        App::PeCompute | App::PeMemory => {
            let (dims, p, opc) = if app == App::PeCompute {
                (MatmulDims::square(128), 8, 64.0)
            } else {
                (MatmulDims::square(256), 32, 1e6)
            };
            let tile_k = 32;
            let bytes =
                (0..p).map(|m| script_bytes(&pe_array_phases(&dims, m, p, tile_k), burst)).sum();
            let e = pe_array_engines(&dims, p, tile_k, opc, burst, OUTSTANDING, IDS);
            (e, dims.total_ops(), opc, bytes)
        }
        App::AdderTree => {
            let (dims, p, opc) = (MatmulDims::square(128), 32, 1e6);
            let bytes = (0..p).map(|m| script_bytes(&adder_tree_phases(&dims, m, p), burst)).sum();
            let e = adder_tree_engines(&dims, p, opc, burst, OUTSTANDING, IDS);
            (e, dims.total_ops(), opc, bytes)
        }
        App::Stencil => {
            let (dims, p, opc) = (StencilDims::square(512), 32, 1e9);
            let bytes = (0..p).map(|m| script_bytes(&stencil_phases(&dims, m, p), burst)).sum();
            let e = stencil_engines(&dims, p, opc, burst, OUTSTANDING, IDS);
            (e, dims.total_ops(), opc, bytes)
        }
        App::Gather => {
            let dims = gather_dims(seed);
            let (p, opc) = (32, 1e9);
            let bl1 = BurstLen::of(1);
            let bytes = (0..p).map(|m| script_bytes(&gather_phases(&dims, m, p), bl1)).sum();
            let e = gather_engines(&dims, p, opc, 32, 32);
            (e, dims.total_ops(), opc, bytes)
        }
    };
    Built { app, fabric, cfg, engines, total_ops, ops_per_cycle, scripted_bytes }
}

/// Every application on both fabrics, in run order.
pub fn setup(seed: u64) -> Vec<Built> {
    let mut out = Vec::new();
    for app in App::ALL {
        for (fabric, cfg) in [("XLNX", SystemConfig::xilinx()), ("MAO", SystemConfig::mao())] {
            out.push(build(app, fabric, cfg, seed));
        }
    }
    out
}

fn sources(engines: Vec<DataflowEngine>, n: usize) -> Vec<Box<dyn TrafficSource>> {
    let used = engines.len();
    let mut s: Vec<Box<dyn TrafficSource>> = Vec::with_capacity(n);
    for e in engines {
        s.push(Box::new(e));
    }
    for _ in used..n {
        s.push(Box::new(IdleSource::default()));
    }
    s
}

/// What one finished run reports.
struct RunResult {
    app: App,
    fabric: &'static str,
    report: Option<AccelReport>,
    wall_s: f64,
    stats: String,
    comp_gops: f64,
}

/// Runs `b` to completion as `hbm_accel::run_engines` does, checking
/// byte conservation at drain.
fn run_one(b: Built, log: &mut CheckLog) -> RunResult {
    let t = Instant::now();
    let n = b.cfg.hbm.num_pch;
    let mut sys = HbmSystem::with_sources(&b.cfg, sources(b.engines, n));
    let drained = sys.run_until_drained(BUDGET);
    let wall_s = t.elapsed().as_secs_f64();
    let gens = sys.gen_stats();
    let stats = stats_json(&gens, &sys.mem_stats(), &sys.fabric_stats());
    let comp_gops = b.ops_per_cycle * f64::from(b.cfg.clock.freq_mhz()) / 1e3;
    let label = format!("{}/{}", b.app.name(), b.fabric);
    if !drained {
        log.fail(format!("{label}: did not finish within {BUDGET} cycles"));
        return RunResult { app: b.app, fabric: b.fabric, report: None, wall_s, stats, comp_gops };
    }
    let cycles = sys.now();
    let delivered: u64 = gens.iter().map(|g| g.total_bytes()).sum();
    let mem = sys.mem_stats().total_bytes();
    let report = AccelReport {
        cycles,
        ops: b.total_ops,
        bytes: delivered,
        gops: b.total_ops as f64 / b.cfg.clock.cycles_to_ns(cycles),
        gbps: b.cfg.clock.throughput_gbps(delivered, cycles),
        op_intensity: b.total_ops as f64 / delivered as f64,
    };
    let device = b.cfg.hbm.num_pch as f64 * hbm_bench::paper::DEVICE_BW / 32.0;
    if delivered != b.scripted_bytes || mem != delivered {
        log.fail(format!(
            "{label}: bytes not conserved: scripted {} delivered {delivered} DRAM {mem}",
            b.scripted_bytes
        ));
    } else if report.gbps > device {
        log.fail(format!("{label}: {} GB/s exceeds the device's {device}", report.gbps));
    } else {
        log.ok();
    }
    RunResult { app: b.app, fabric: b.fabric, report: Some(report), wall_s, stats, comp_gops }
}

/// The §V methodology's inputs: the bandwidth of each accelerator's
/// access pattern on each fabric, measured with the traffic generator
/// (the Fig. 7 grid, one thread). Returns them with the simulated cycles.
fn pattern_bandwidths(seed: u64) -> (AccelBandwidths, u64) {
    let points = Grid::Fig7.points(seed);
    let rows = batch::run_grid_fid(&points, Fidelity::QUICK, 1);
    let fid = Fidelity::QUICK;
    (grids::accel_bandwidths(&rows), points.len() as u64 * (fid.warmup + fid.cycles))
}

/// (§V bandwidth anchors, roofline error), in percent. The anchors
/// compare the memory-bound accelerators' achieved bandwidth with the
/// paper's measured 12.55 / 403.75 / 9.59 / 273 GB/s. The roofline error
/// is the paper's estimation claim: each matmul run's achieved GOPS
/// against the Roofline built from its access pattern's bandwidth.
fn accuracy(runs: &[RunResult], pattern: &AccelBandwidths) -> (f64, f64) {
    let achieved = |app, fabric| {
        runs.iter()
            .find(|r| r.app == app && r.fabric == fabric)
            .and_then(|r| r.report)
            .map_or(f64::NAN, |r| r.gbps)
    };
    let pairs = anchors::accel_pairs(&AccelBandwidths {
        a_xlnx: achieved(App::PeMemory, "XLNX"),
        a_mao: achieved(App::PeMemory, "MAO"),
        b_xlnx: achieved(App::AdderTree, "XLNX"),
        b_mao: achieved(App::AdderTree, "MAO"),
    });
    let roofline: Vec<f64> = runs
        .iter()
        .filter_map(|r| {
            let bw = match (r.app, r.fabric) {
                (App::PeCompute | App::PeMemory, "XLNX") => pattern.a_xlnx,
                (App::PeCompute | App::PeMemory, _) => pattern.a_mao,
                (App::AdderTree, "XLNX") => pattern.b_xlnx,
                (App::AdderTree, _) => pattern.b_mao,
                _ => return None,
            };
            Some(r.report.map_or(f64::NAN, |a| 100.0 * a.prediction_error(r.comp_gops, bw)))
        })
        .collect();
    (mean_abs_rel_err_pct(&pairs), roofline.iter().sum::<f64>() / roofline.len() as f64)
}

/// The end-to-end run: repeated passes over every application.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut log = CheckLog::default();
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    // Per pass: the pattern grid, then each application run.
    let mut units: Vec<Vec<f64>> = Vec::new();
    let mut cycles = 0;
    let mut first: Option<Vec<String>> = None;
    let mut acc = (f64::NAN, f64::NAN);
    crate::repeat_for(seconds, 3, |_| {
        let built = crate::timed_setup(&mut setup_s, || setup(seed), drop);
        let t = Instant::now();
        let (pattern, pattern_cycles) = pattern_bandwidths(seed);
        let pattern_s = t.elapsed().as_secs_f64();
        let runs: Vec<RunResult> = built.into_iter().map(|b| run_one(b, &mut log)).collect();
        walls.push(t.elapsed().as_secs_f64());
        units.push(std::iter::once(pattern_s).chain(runs.iter().map(|r| r.wall_s)).collect());
        cycles =
            pattern_cycles + runs.iter().filter_map(|r| r.report.map(|a| a.cycles)).sum::<u64>();
        let stats: Vec<String> = runs.iter().map(|r| r.stats.clone()).collect();
        match &first {
            None => {
                acc = accuracy(&runs, &pattern);
                first = Some(stats);
            }
            Some(f) if *f != stats => log.fail("runs differ between passes of one seed".into()),
            Some(_) => {}
        }
    });
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s));
    crate::put_unit_times(&mut m, &units, 1, cycles);
    m.put("peak_rss_mib", crate::peak_rss_mib());
    m.put("anchor_err_pct", acc.0);
    m.put("holdout_err_pct", acc.1);
    let notes = crate::pass_notes(
        &walls,
        &format!("{} runs per pass; job = one application run to completion", App::ALL.len() * 2),
    );
    Outcome::new(log, m, notes)
}

/// The traced run: every application once on the library's conductor
/// and once on the traced one; their statistics must be equal.
pub fn run_traced(seed: u64) -> (Outcome, Vec<(&'static str, u64)>) {
    let mut log = CheckLog::default();
    let mut trace = LayerTrace::default();
    let mut model = ModelCounts::default();
    let mut overhead = Vec::new();
    for (i, (reference, traced)) in setup(seed).into_iter().zip(setup(seed)).enumerate() {
        let label = format!("{}/{}", traced.app.name(), traced.fabric);
        let cfg = traced.cfg.clone();
        let n = cfg.hbm.num_pch;
        let scripted = traced.scripted_bytes;
        let run_traced_one = |b: Built| {
            let t = Instant::now();
            let mut sys = Traced::with_sources(&b.cfg, sources(b.engines, n));
            let drained = sys.run_until_drained(BUDGET);
            (sys, drained, t.elapsed().as_secs_f64())
        };
        // Alternate which side runs first.
        let (want, (sys, drained, traced_s)) = if i % 2 == 0 {
            let w = run_one(reference, &mut CheckLog::default());
            (w, run_traced_one(traced))
        } else {
            let tr = run_traced_one(traced);
            (run_one(reference, &mut CheckLog::default()), tr)
        };
        overhead.push(100.0 * (traced_s / want.wall_s - 1.0));
        let mem = sys.mem_stats();
        let got = stats_json(&sys.gen_stats(), &mem, &sys.fabric_stats());
        let t = sys.trace;
        if !drained || want.report.map(|r| r.cycles) != Some(sys.now()) || got != want.stats {
            log.fail(format!("{label}: traced run differs from HbmSystem::run_until_drained"));
        } else if t.issued_bytes != scripted
            || t.delivered_bytes != scripted
            || mem.total_bytes() != scripted
        {
            log.fail(format!(
                "{label}: bytes not conserved: scripted {scripted} issued {} delivered {} DRAM {}",
                t.issued_bytes,
                t.delivered_bytes,
                mem.total_bytes()
            ));
        } else {
            log.ok();
        }
        trace.merge(&t);
        model.merge(&ModelCounts::of(
            &mem,
            &sys.fabric_stats(),
            sys.now(),
            &cfg,
            sys.mc_queue_hwm(),
        ));
    }
    let mut m = Metrics::default();
    crate::layers::put_kernel(&mut m, &trace, &model);
    m.put("trace.overhead_pct", median(&overhead));
    let counts = crate::layers::kernel_counts(&trace, &model);
    (Outcome::new(log, m, format!("traced {} application runs", App::ALL.len() * 2)), counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_accel::gather::gather_targets;

    #[test]
    fn setup_is_pure_and_the_seed_drives_only_the_gather_indices() {
        let expect = |seed| -> Vec<(u64, u64)> {
            setup(seed).iter().map(|b| (b.total_ops, b.scripted_bytes)).collect()
        };
        assert_eq!(expect(3), expect(3));
        assert_eq!(expect(3), expect(4));
        assert_eq!(gather_targets(&gather_dims(3), 5, 32), gather_targets(&gather_dims(3), 5, 32));
        assert_ne!(gather_targets(&gather_dims(3), 5, 32), gather_targets(&gather_dims(4), 5, 32));
        assert_eq!(setup(1).len(), 2 * App::ALL.len());
    }
}
