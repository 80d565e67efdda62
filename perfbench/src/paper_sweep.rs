//! `paper_sweep`: the paper's anchored grids at QUICK windows through
//! `batch::run_grid_fid` (jobs = nproc, default batching, cache off),
//! plus the §IV-A latency probes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hbm_core::batch::{self, GridPoint};
use hbm_core::experiment::Fidelity;
use hbm_core::measure::Measurement;
use hbm_core::metrics;

use crate::anchors::{self, mean_abs_rel_err_pct, Pair};
use crate::conductor::{stats_json, LayerTrace, Traced};
use crate::grids::{self, Grid, ProbeSpec, PROBES};
use crate::layers::{FarmTrace, ModelCounts};
use crate::report::{CheckLog, Metrics, Outcome};
use crate::stats::median;
use crate::{peak_rss_mib, repeat_for};

/// Everything the workload needs before the first point is issued.
pub struct Setup {
    grids: Vec<(Grid, Vec<GridPoint>)>,
    probes: Vec<(ProbeSpec, GridPoint)>,
}

/// Builds the grids and probe points for `seed`.
pub fn setup(seed: u64) -> Setup {
    Setup {
        grids: Grid::SWEEP.iter().map(|&g| (g, g.points(seed))).collect(),
        probes: PROBES.iter().map(|p| (*p, p.point(seed))).collect(),
    }
}

impl Setup {
    /// Points plus probes: the operations one pass attempts.
    pub fn operations(&self) -> u64 {
        (self.grids.iter().map(|(_, p)| p.len()).sum::<usize>() + self.probes.len()) as u64
    }
}

/// One untraced pass.
struct Pass {
    wall_s: f64,
    /// Host seconds per grid (the latency probes count as one grid).
    job_s: Vec<f64>,
    sim_cycles: u64,
    /// `None` for a grid whose run panicked.
    rows: Vec<Option<Vec<Measurement>>>,
    probe_latency: [f64; 4],
}

fn window(fid: Fidelity) -> u64 {
    fid.warmup + fid.cycles
}

fn run_pass(s: &Setup, seed: u64, jobs: usize) -> Pass {
    let t0 = Instant::now();
    let mut job_s = Vec::new();
    let mut rows = Vec::new();
    let mut sim_cycles = 0;
    for (_, points) in &s.grids {
        let t = Instant::now();
        let r =
            catch_unwind(AssertUnwindSafe(|| batch::run_grid_fid(points, Fidelity::QUICK, jobs)));
        job_s.push(t.elapsed().as_secs_f64());
        sim_cycles += points.len() as u64 * window(Fidelity::QUICK);
        rows.push(r.ok());
    }
    let t = Instant::now();
    let mut probe_latency = [f64::NAN; 4];
    for (i, spec) in PROBES.iter().enumerate() {
        if let Ok((lat, cycles)) = catch_unwind(|| grids::run_probe(spec, seed)) {
            probe_latency[i] = lat;
            sim_cycles += cycles;
        }
    }
    job_s.push(t.elapsed().as_secs_f64());
    Pass { wall_s: t0.elapsed().as_secs_f64(), job_s, sim_cycles, rows, probe_latency }
}

/// Output checks on one pass; returns (anchor pairs, held-out pairs).
fn check_pass(
    s: &Setup,
    p: &Pass,
    first: Option<&Pass>,
    log: &mut CheckLog,
) -> (Vec<Pair>, Vec<Pair>) {
    let mut tuned = Vec::new();
    let mut held = Vec::new();
    for (gi, ((grid, points), rows)) in s.grids.iter().zip(&p.rows).enumerate() {
        let Some(rows) = rows else {
            log.fail_n(points.len() as u64, format!("{}: grid run panicked", grid.name()));
            continue;
        };
        for (i, m) in rows.iter().enumerate() {
            if grids::beyond_device(m) {
                log.fail(format!(
                    "{} row {i}: {} GB/s exceeds the device's bandwidth",
                    grid.name(),
                    m.total_gbps()
                ));
            } else if let Some(Some(first_rows)) = first.map(|f| &f.rows[gi]) {
                if row_json(m) != row_json(&first_rows[i]) {
                    log.fail(format!(
                        "{} row {i}: differs between passes of one seed",
                        grid.name()
                    ));
                } else {
                    log.ok();
                }
            } else {
                log.ok();
            }
        }
        match grid {
            Grid::Table4 => tuned.extend(anchors::table4_pairs(&grids::table4_rows(rows))),
            Grid::Fig4 => tuned.extend(anchors::fig4_pairs(&hbm_core::experiment::fig4_rows(rows))),
            Grid::Fig7 => tuned.extend(anchors::accel_pairs(&grids::accel_bandwidths(rows))),
            Grid::Table2 => held.extend(anchors::table2_pairs(&grids::table2_rows(rows))),
            _ => {}
        }
    }
    for (i, lat) in p.probe_latency.iter().enumerate() {
        if lat.is_finite() {
            log.ok();
        } else {
            log.fail(format!("latency probe {i} panicked"));
        }
    }
    if p.probe_latency.iter().all(|l| l.is_finite()) {
        tuned.extend(anchors::latency_pairs(&grids::latency_row(p.probe_latency)));
    }
    (tuned, held)
}

fn row_json(m: &Measurement) -> String {
    serde_json::to_string(m).expect("measurement serialises")
}

/// The end-to-end run: repeated untraced passes for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let jobs = batch::default_threads();
    hbm_core::ResultCache::global().disable();
    let mut log = CheckLog::default();
    let mut setup_s = Vec::new();
    let mut last_setup = None;
    let passes = repeat_for(seconds, 3, |_| {
        let s = crate::timed_setup(&mut setup_s, || setup(seed), drop);
        let p = run_pass(&s, seed, jobs);
        last_setup = Some(s);
        p
    });
    let s = last_setup.expect("at least one pass");
    let mut errors = None;
    for p in &passes {
        let (tuned, held) = check_pass(&s, p, Some(&passes[0]), &mut log);
        if errors.is_none() && !tuned.is_empty() && !held.is_empty() {
            errors = Some((mean_abs_rel_err_pct(&tuned), mean_abs_rel_err_pct(&held)));
        }
    }
    let (anchor, holdout) = errors.unwrap_or((f64::NAN, f64::NAN));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let units: Vec<Vec<f64>> = passes.iter().map(|p| p.job_s.clone()).collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s));
    crate::put_unit_times(&mut m, &units, 0, passes[0].sim_cycles);
    m.put("peak_rss_mib", peak_rss_mib());
    m.put("anchor_err_pct", anchor);
    m.put("holdout_err_pct", holdout);
    let notes = crate::pass_notes(
        &walls,
        &format!(
            "{} points + {} probes per pass; jobs = {jobs}; job = one grid ({} of them)",
            s.operations() - s.probes.len() as u64,
            s.probes.len(),
            units[0].len()
        ),
    );
    Outcome::new(log, m, notes)
}

/// One point measured on the traced conductor: its statistics and
/// trace, plus host time.
pub struct TracedPoint {
    /// Per-master source statistics, DRAM and fabric statistics, as JSON.
    pub stats: String,
    /// Layer trace of the run.
    pub trace: LayerTrace,
    /// Model counters for the per-layer report.
    pub model: ModelCounts,
}

/// `measure()` on the traced conductor.
pub fn traced_measure(
    cfg: &hbm_core::SystemConfig,
    wl: hbm_traffic::Workload,
    fid: Fidelity,
) -> TracedPoint {
    let mut sys = Traced::new(cfg, wl, None);
    sys.run(fid.warmup);
    sys.reset_stats();
    sys.run(fid.cycles);
    traced_point(&sys, cfg, fid.cycles)
}

fn traced_point(sys: &Traced, cfg: &hbm_core::SystemConfig, measured: u64) -> TracedPoint {
    let gens = sys.gen_stats();
    let mem = sys.mem_stats();
    let fabric = sys.fabric_stats();
    TracedPoint {
        stats: stats_json(&gens, &mem, &fabric),
        trace: sys.trace,
        model: ModelCounts::of(&mem, &fabric, measured, cfg, sys.mc_queue_hwm()),
    }
}

/// The traced run: each grid once untraced through `run_grid_fid` and
/// once through the traced conductor farmed by `try_par_map`, in
/// alternating order, plus the probes.
pub fn run_traced(seed: u64) -> (Outcome, Vec<(&'static str, u64)>) {
    let jobs = batch::default_threads();
    hbm_core::ResultCache::global().disable();
    // The planner's lane counters live in the metric registry.
    metrics::set_enabled(true);
    let s = setup(seed);
    let mut log = CheckLog::default();
    let mut trace = LayerTrace::default();
    let mut model = ModelCounts::default();
    let mut farm = FarmTrace::default();
    let mut overhead = Vec::new();
    for (gi, (grid, points)) in s.grids.iter().enumerate() {
        let untraced = |log: &mut CheckLog| -> Option<(Vec<Measurement>, f64)> {
            let t = Instant::now();
            match catch_unwind(AssertUnwindSafe(|| {
                batch::run_grid_fid(points, Fidelity::QUICK, jobs)
            })) {
                Ok(rows) => Some((rows, t.elapsed().as_secs_f64())),
                Err(_) => {
                    log.fail_n(
                        points.len() as u64,
                        format!("{}: untraced grid panicked", grid.name()),
                    );
                    None
                }
            }
        };
        let traced = || {
            let t = Instant::now();
            let pts = batch::try_par_map(points, jobs, |(cfg, wl)| {
                let start = t.elapsed().as_secs_f64();
                let p = traced_measure(cfg, *wl, Fidelity::QUICK);
                (p, start, t.elapsed().as_secs_f64())
            });
            (pts, t.elapsed().as_secs_f64())
        };
        let (reference, (pts, traced_wall)) = if gi % 2 == 0 {
            let r = untraced(&mut log);
            (r, traced())
        } else {
            let tr = traced();
            (untraced(&mut log), tr)
        };
        let Some((rows, untraced_wall)) = reference else { continue };
        overhead.push(100.0 * (traced_wall / untraced_wall - 1.0));
        let mut spans = Vec::new();
        for (i, (r, m)) in pts.into_iter().zip(&rows).enumerate() {
            match r {
                Ok((p, start, end)) => {
                    if p.stats != stats_json(&m.per_master, &m.mem, &m.fabric) {
                        log.fail(format!(
                            "{} point {i}: traced statistics differ from run_grid_fid",
                            grid.name()
                        ));
                    } else {
                        log.ok();
                    }
                    trace.merge(&p.trace);
                    model.merge(&p.model);
                    spans.push((start, end));
                }
                Err(_) => log.fail(format!("{} point {i}: traced run panicked", grid.name())),
            }
        }
        farm.add_grid(&spans, traced_wall, jobs);
    }
    for (spec, (cfg, wl)) in &s.probes {
        let mut reference = hbm_core::HbmSystem::new(cfg, *wl, Some(ProbeSpec::MAX_TXNS));
        reference.run_until_drained(ProbeSpec::BUDGET);
        let mut sys = Traced::new(cfg, *wl, Some(ProbeSpec::MAX_TXNS));
        sys.run_until_drained(ProbeSpec::BUDGET);
        let want =
            stats_json(&reference.gen_stats(), &reference.mem_stats(), &reference.fabric_stats());
        let p = traced_point(&sys, cfg, sys.now());
        if p.stats != want || sys.now() != reference.now() {
            log.fail(format!("latency probe {spec:?}: traced statistics differ"));
        } else {
            log.ok();
        }
        trace.merge(&p.trace);
        model.merge(&p.model);
    }
    let registry = metrics::Registry::global().render();
    let lanes = crate::layers::registry_value(&registry, "hbm_batch_points_total{path=\"lanes\"}");
    let batches = crate::layers::registry_value(&registry, "hbm_batch_tasks_total{kind=\"lanes\"}");
    let mut m = Metrics::default();
    crate::layers::put_kernel(&mut m, &trace, &model);
    farm.put(&mut m);
    m.put("batch.lockstep_lanes", if batches == 0 { 0.0 } else { lanes as f64 / batches as f64 });
    m.put("trace.overhead_pct", median(&overhead));
    let counts = crate::layers::kernel_counts(&trace, &model);
    let notes = format!("traced {} points + {} probes; jobs = {jobs}", s.operations() - 4, 4);
    (Outcome::new(log, m, notes), counts)
}

/// A different seed must change every random-pattern row of Table IV
/// and leave the stride-pattern rows unchanged.
pub fn check_seed_sensitivity(seed: u64, log: &mut CheckLog) {
    let jobs = batch::default_threads();
    let points = Grid::Table4.points(seed);
    let a = batch::run_grid_fid(&points, Fidelity::QUICK, jobs);
    let b = batch::run_grid_fid(&Grid::Table4.points(seed.wrapping_add(1)), Fidelity::QUICK, jobs);
    for (i, ((_, wl), (ma, mb))) in points.iter().zip(a.iter().zip(&b)).enumerate() {
        let random = matches!(wl.pattern, hbm_traffic::Pattern::Scra | hbm_traffic::Pattern::Ccra);
        let same = row_json(ma) == row_json(mb);
        if random == same {
            log.fail(format!(
                "table4 point {i} ({:?}): seed {seed} vs {} rows {}",
                wl.pattern,
                seed.wrapping_add(1),
                if same { "identical" } else { "differ" }
            ));
        } else {
            log.ok();
        }
    }
}
