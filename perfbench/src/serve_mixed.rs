//! `serve_mixed`: an in-process sweep server with a disk-backed result
//! cache, fed over the NDJSON wire by a closed loop of `nproc` client
//! connections, each keeping one job in flight.
//!
//! The job stream ([`stream`]) is drawn from the paper grids. About a
//! third of the jobs repeat an earlier job exactly (memory-tier hits),
//! half of the others are adaptive (analytical first, some points
//! escalated to cycle accuracy), and every fourth fresh job overlaps
//! the job before it (points that may coalesce onto an in-flight
//! computation). The last job is the anchored grid in full; it is then
//! answered again from the disk tier through a fresh cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hbm_core::analytic::{self, Calibration, EscalationPolicy};
use hbm_core::batch::{self, GridPoint};
use hbm_core::cache::{fingerprint, ResultCache};
use hbm_core::experiment::{Fidelity, FidelityTier};
use hbm_core::measure::Measurement;
use hbm_serve::{
    Client, Event, JobSpec, RowStatus, ServeConfig, Server, StatsSnapshot, WireServer,
};

use crate::anchors::{self, mean_abs_rel_err_pct};
use crate::grids::{self, splitmix64, Grid};
use crate::report::{CheckLog, Metrics, Outcome};
use crate::stats::{median, nearest_rank};

/// Jobs in the stream before the final full grid.
pub const JOBS: usize = 100;

/// Seed variants of each grid the stream draws from (distinct variants
/// are distinct points to the cache, as a user sweeping seeds makes).
const VARIANTS: u64 = 2;

/// One job of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// Job name (grid and window).
    pub name: String,
    /// The grid points, in order.
    pub points: Vec<GridPoint>,
    /// Analytical first, escalating only where the model is unsure.
    pub adaptive: bool,
    /// The earlier job this one repeats exactly, if any.
    pub repeat_of: Option<usize>,
}

impl JobPlan {
    fn spec(&self) -> JobSpec {
        let spec = JobSpec::new(self.name.clone(), Fidelity::QUICK, self.points.clone());
        if self.adaptive {
            spec.with_adaptive()
        } else {
            spec
        }
    }
}

/// A small deterministic generator for the stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The benchmark seed of grid variant `v`.
fn variant_seed(seed: u64, v: u64) -> u64 {
    if v == 0 {
        seed
    } else {
        splitmix64(seed ^ 0x5e12_7e00).wrapping_add(v)
    }
}

/// The final job, at the cycle tier: every grid with tuned anchors the
/// served path can answer (Table IV, Fig. 4, the §V patterns) and the
/// held-out Table II.
pub fn full_grid(seed: u64) -> Vec<GridPoint> {
    [Grid::Table2, Grid::Table4, Grid::Fig4, Grid::Fig7]
        .iter()
        .flat_map(|g| g.points(seed))
        .collect()
}

/// The job stream for `seed`: [`JOBS`] jobs, then [`full_grid`].
///
/// The stream's shape does not depend on the seed: which jobs repeat,
/// overlap or are adaptive, and each fresh job's grid (round robin) and
/// size (4–8 points, cycling). So every seed asks for about the same
/// work. The seed draws which earlier job each repeat copies, where each
/// grid's windows start, and the RNG seeds of the points. Each grid's
/// fresh windows walk its points (all variants) consecutively, so they
/// overlap earlier windows only once the grid is used up. Pure: the
/// same seed always gives the same stream.
pub fn stream(seed: u64) -> Vec<JobPlan> {
    let mut rng = Rng(splitmix64(seed ^ 0x0005_e12e));
    // Per grid: its points over every variant, and a cursor (counting
    // points handed out, from a seeded start).
    let mut pools: Vec<(Grid, Vec<GridPoint>, usize, usize)> = Grid::ALL
        .iter()
        .map(|&g| {
            let pool: Vec<GridPoint> =
                (0..VARIANTS).flat_map(|v| g.points(variant_seed(seed, v))).collect();
            let start = rng.below(pool.len());
            (g, pool, start, 0)
        })
        .collect();
    let mut jobs: Vec<JobPlan> = Vec::with_capacity(JOBS + 1);
    let mut fresh = 0;
    let mut next_grid = 0;
    // (pool, window start, window length) of the previous fresh job.
    let mut last = (0, 0, 0);
    for i in 0..JOBS {
        if i % 3 == 2 && i >= 5 {
            // An exact repeat of a job at least three back, which has
            // most likely finished: a memory-tier hit.
            let j = rng.below(i - 2);
            let mut again = jobs[j].clone();
            again.repeat_of = Some(j);
            jobs.push(again);
            continue;
        }
        let len = 4 + fresh % 5;
        let overlap = fresh % 4 == 3;
        let (gi, start) = if overlap {
            // The second half of the previous job's window, and on.
            (last.0, last.1 + last.2 / 2)
        } else {
            let gi = next_grid % pools.len();
            next_grid += 1;
            (gi, pools[gi].2)
        };
        let (grid, pool, cursor, used) = &mut pools[gi];
        *cursor = (*cursor).max(start + len);
        let points = (start..start + len).map(|k| pool[k % pool.len()].clone()).collect();
        // Each grid alternates cycle-tier and adaptive fresh jobs;
        // overlaps stay at the cycle tier, where they can coalesce.
        let adaptive = !overlap && *used % 2 == 1;
        *used += usize::from(!overlap);
        jobs.push(JobPlan {
            name: format!("{}[{start}..{}]", grid.name(), start + len),
            points,
            adaptive,
            repeat_of: None,
        });
        last = (gi, start, len);
        fresh += 1;
    }
    jobs.push(JobPlan {
        name: "anchored grids".into(),
        points: full_grid(seed),
        adaptive: false,
        repeat_of: None,
    });
    jobs
}

/// A scratch directory for one pass's disk tier, under the working
/// directory (the benchmark writes nowhere else).
fn scratch_dir(pass: usize) -> PathBuf {
    Path::new("perfbench").join(".work").join(format!("cache-{}-{pass}", std::process::id()))
}

/// A running server, its wire front end, and the client connections.
struct Rig {
    server: Server,
    wire: WireServer,
    clients: Vec<Client>,
    cache: ResultCache,
}

impl Rig {
    fn start(dir: &Path, workers: usize) -> Rig {
        let cache = ResultCache::with_dir(dir);
        let server = Server::spawn(ServeConfig {
            workers,
            cache: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let wire = WireServer::bind("127.0.0.1:0", server.handle()).expect("bind loopback");
        let addr = wire.local_addr().to_string();
        let clients = (0..workers).map(|_| Client::connect(&addr).expect("connect")).collect();
        Rig { server, wire, clients, cache }
    }

    fn stop(self) {
        drop(self.clients);
        self.wire.stop();
        self.server.shutdown();
    }
}

/// What one job came back with.
struct JobResult {
    job: Option<hbm_serve::JobId>,
    latency_ms: f64,
    rows: Option<Vec<Measurement>>,
    queue_wait_ms: f64,
    run_ms: f64,
}

/// One pass: set-up, the stream, the disk-tier re-answer.
struct Pass {
    setup_s: Vec<f64>,
    wall_s: f64,
    jobs: Vec<JobResult>,
    stats: StatsSnapshot,
    flush_ms: f64,
    disk_load_ms: f64,
    warm_grid_ms: f64,
    get_us: f64,
    warm_rows: Vec<Option<Measurement>>,
    escalated_server: u64,
    decode_us_per_row: f64,
}

fn escalated_points_registry() -> u64 {
    let text = hbm_core::metrics::Registry::global().render();
    crate::layers::registry_value(&text, "hbm_adaptive_points_total{route=\"cycle\"}")
}

/// Drives `plans` through the rig's connections, each a closed loop.
fn drive(rig: &mut Rig, plans: &[JobPlan], with_status: bool) -> Vec<JobResult> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<JobResult>>> =
        Mutex::new((0..plans.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for client in rig.clients.iter_mut() {
            let (next, results) = (&next, &results);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= plans.len() {
                    break;
                }
                let r = run_job(client, &plans[i], with_status);
                results.lock().expect("results lock")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every job was driven"))
        .collect()
}

fn run_job(client: &mut Client, plan: &JobPlan, with_status: bool) -> JobResult {
    let t = Instant::now();
    let failed = |t: Instant| JobResult {
        job: None,
        latency_ms: 1e3 * t.elapsed().as_secs_f64(),
        rows: None,
        queue_wait_ms: 0.0,
        run_ms: 0.0,
    };
    let Ok(Ok(job)) = client.submit_with_retry(&plan.spec(), 50) else { return failed(t) };
    let mut rows: Vec<Option<Measurement>> = vec![None; plan.points.len()];
    let mut ok = true;
    let end = client.subscribe_each(job, |ev| {
        if let Event::Row(r) = ev {
            match (&r.status, &r.measurement, rows.get_mut(r.index)) {
                (RowStatus::Done, Some(m), Some(slot)) => *slot = Some(m.clone()),
                _ => ok = false,
            }
        }
    });
    let latency_ms = 1e3 * t.elapsed().as_secs_f64();
    if !matches!(end, Ok(Some(hbm_serve::JobState::Done))) || !ok {
        return failed(t);
    }
    let (queue_wait_ms, run_ms) = if with_status {
        match client.status(job) {
            Ok(Some(s)) => (s.queue_wait_ms, s.run_ms),
            _ => (f64::NAN, f64::NAN),
        }
    } else {
        (0.0, 0.0)
    };
    JobResult {
        job: Some(job),
        latency_ms,
        rows: rows.into_iter().collect(),
        queue_wait_ms,
        run_ms,
    }
}

fn run_pass(seed: u64, pass: usize, workers: usize, traced: bool) -> Pass {
    let dir = scratch_dir(pass);
    let _ = std::fs::remove_dir_all(&dir);
    let mut setup_s = Vec::new();
    let (plans, mut rig) = crate::timed_setup(
        &mut setup_s,
        || {
            let plans = stream(seed);
            Calibration::active();
            (plans, Rig::start(&dir, workers))
        },
        |(_, rig)| rig.stop(),
    );
    let t0 = Instant::now();
    let escalated_before = escalated_points_registry();
    let jobs = drive(&mut rig, &plans, traced);
    let stats = rig.server.handle().stats();
    let escalated_server = escalated_points_registry() - escalated_before;
    let last_job = jobs.last().and_then(|j| j.job);
    let decode_us_per_row = match (traced, last_job) {
        (true, Some(job)) => replay_us_per_row(&mut rig, job),
        _ => 0.0,
    };
    let t = Instant::now();
    let flushed = rig.cache.flush();
    let flush_ms = 1e3 * t.elapsed().as_secs_f64();
    let full = &plans.last().expect("stream ends with the full grid").points;
    let t = Instant::now();
    let fresh = ResultCache::with_dir(&dir);
    let mut warm_rows = Vec::with_capacity(full.len());
    let mut get_ns = Vec::new();
    let mut disk_load_ms = 0.0;
    for (i, (cfg, wl)) in full.iter().enumerate() {
        let g = Instant::now();
        warm_rows.push(fresh.get(fingerprint(cfg, wl, Fidelity::QUICK)).map(|m| (*m).clone()));
        let dt = g.elapsed().as_secs_f64();
        if i == 0 {
            disk_load_ms = 1e3 * dt;
        } else {
            get_ns.push(1e9 * dt);
        }
    }
    let warm_grid_ms = 1e3 * t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    rig.stop();
    let _ = std::fs::remove_dir_all(&dir);
    if flushed.is_err() {
        warm_rows.iter_mut().for_each(|r| *r = None);
    }
    Pass {
        setup_s,
        wall_s,
        jobs,
        stats,
        flush_ms,
        disk_load_ms,
        warm_grid_ms,
        get_us: if get_ns.is_empty() { 0.0 } else { median(&get_ns) / 1e3 },
        warm_rows,
        escalated_server,
        decode_us_per_row,
    }
}

/// Replays the finished last job's rows over the wire: µs per row of
/// server encode, loopback and client decode.
fn replay_us_per_row(rig: &mut Rig, job: hbm_serve::JobId) -> f64 {
    let client = &mut rig.clients[0];
    let t = Instant::now();
    let rows = client.collect(job).ok().flatten().map_or(0, |(rows, _)| rows.len());
    if rows == 0 {
        return f64::NAN;
    }
    1e6 * t.elapsed().as_secs_f64() / rows as f64
}

fn row_json(m: &Measurement) -> String {
    serde_json::to_string(m).expect("measurement serialises")
}

/// Output checks on a pass; returns the full grid's (anchor, held-out)
/// error.
fn check_pass(
    plans: &[JobPlan],
    p: &Pass,
    direct: &[(usize, Vec<Measurement>)],
    log: &mut CheckLog,
) -> (f64, f64) {
    for (i, (plan, r)) in plans.iter().zip(&p.jobs).enumerate() {
        let Some(rows) = &r.rows else {
            log.fail(format!("job {i} ({}): not completed with every row done", plan.name));
            continue;
        };
        let too_fast = rows.iter().find(|m| grids::beyond_device(m));
        let repeat_differs = plan.repeat_of.is_some_and(|j| {
            p.jobs[j]
                .rows
                .as_ref()
                .is_some_and(|first| first.iter().map(row_json).ne(rows.iter().map(row_json)))
        });
        let direct_differs = direct
            .iter()
            .any(|(j, want)| *j == i && want.iter().map(row_json).ne(rows.iter().map(row_json)));
        if let Some(m) = too_fast {
            log.fail(format!("job {i}: a row reports {} GB/s, beyond the device", m.total_gbps()));
        } else if repeat_differs {
            log.fail(format!("job {i}: rows differ from the job it repeats"));
        } else if direct_differs {
            log.fail(format!("job {i}: served rows differ from run_grid_fid rows"));
        } else {
            log.ok();
        }
    }
    let cold = p.jobs.last().and_then(|r| r.rows.clone()).unwrap_or_default();
    let warm: Option<Vec<Measurement>> = p.warm_rows.iter().cloned().collect();
    match warm {
        Some(warm) if warm.iter().map(row_json).eq(cold.iter().map(row_json)) => log.ok(),
        _ => log.fail("warm disk-tier rows differ from the cold served rows".into()),
    }
    if p.stats.jobs_rejected != 0 {
        log.fail(format!("{} submissions were rejected", p.stats.jobs_rejected));
    }
    if cold.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n2 = Grid::Table2.points(0).len();
    let n4 = n2 + Grid::Table4.points(0).len();
    let nf = n4 + Grid::Fig4.points(0).len();
    let mut tuned = anchors::table4_pairs(&grids::table4_rows(&cold[n2..n4]));
    tuned.extend(anchors::fig4_pairs(&hbm_core::experiment::fig4_rows(&cold[n4..nf])));
    tuned.extend(anchors::accel_pairs(&grids::accel_bandwidths(&cold[nf..])));
    let held = anchors::table2_pairs(&grids::table2_rows(&cold[..n2]));
    (mean_abs_rel_err_pct(&tuned), mean_abs_rel_err_pct(&held))
}

/// Direct `run_grid_fid` rows for the full grid and the first three
/// cycle-tier fresh jobs, to compare served rows against.
fn direct_rows(plans: &[JobPlan], workers: usize) -> Vec<(usize, Vec<Measurement>)> {
    let mut picks: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.adaptive && p.repeat_of.is_none())
        .map(|(i, _)| i)
        .take(3)
        .collect();
    picks.push(plans.len() - 1);
    picks
        .into_iter()
        .map(|i| (i, batch::run_grid_fid(&plans[i].points, Fidelity::QUICK, workers)))
        .collect()
}

/// The end-to-end run: repeated passes, each with a fresh server and
/// cache directory.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let workers = batch::default_threads();
    hbm_core::ResultCache::global().disable();
    let plans = stream(seed);
    let mut log = CheckLog::default();
    let passes = crate::repeat_for(seconds, 2, |i| run_pass(seed, i, workers, false));
    let direct = direct_rows(&plans, workers);
    let mut errors = (f64::NAN, f64::NAN);
    for (i, p) in passes.iter().enumerate() {
        let e = check_pass(&plans, p, &direct, &mut log);
        if i == 0 {
            errors = e;
        }
    }
    let window = Fidelity::QUICK.warmup + Fidelity::QUICK.cycles;
    // Each job's median latency over passes.
    let per_pass: Vec<Vec<f64>> =
        passes.iter().map(|p| p.jobs.iter().map(|j| j.latency_ms).collect()).collect();
    let latencies = crate::stats::unit_medians(&per_pass);
    let rates: Vec<f64> =
        passes.iter().map(|p| (p.stats.cache_misses * window) as f64 / p.wall_s / 1e6).collect();
    let mut m = Metrics::default();
    let setups: Vec<f64> = passes.iter().flat_map(|p| p.setup_s.iter().copied()).collect();
    m.put("setup_s", median(&setups));
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    m.put("wall_s", median(&walls));
    m.put("sim_mcycles_per_s", median(&rates));
    m.put("peak_rss_mib", crate::peak_rss_mib());
    m.put("job_p50_ms", median(&latencies));
    m.put("job_p90_ms", nearest_rank(&latencies, 90));
    m.put("anchor_err_pct", errors.0);
    m.put("holdout_err_pct", errors.1);
    let notes = crate::pass_notes(
        &walls,
        &format!(
            "{} jobs per pass over {workers} closed-loop connections; job = submit to last row",
            plans.len()
        ),
    );
    Outcome::new(log, m, notes)
}

/// Client-side view of the adaptive jobs: predicted points, escalated
/// points, and µs per `analytic::predict` call.
fn adaptive_view(plans: &[JobPlan]) -> (u64, u64, f64) {
    let cal = Calibration::active();
    let fid = Fidelity { tier: FidelityTier::Analytical, ..Fidelity::QUICK };
    let (mut points, mut escalated, mut ns) = (0u64, 0u64, 0.0);
    for plan in plans.iter().filter(|p| p.adaptive) {
        let t = Instant::now();
        let rows: Vec<Measurement> =
            plan.points.iter().map(|(cfg, wl)| analytic::predict(cfg, wl, fid, cal)).collect();
        ns += 1e9 * t.elapsed().as_secs_f64();
        let mask =
            analytic::escalation_mask(&plan.points, &rows, cal, &EscalationPolicy::default());
        points += plan.points.len() as u64;
        escalated += mask.iter().filter(|&&e| e).count() as u64;
    }
    (points, escalated, if points == 0 { 0.0 } else { ns / points as f64 / 1e3 })
}

/// The traced run: one untraced pass and one pass with client-side
/// spans (job status, wire replay, cache and analytic calls).
pub fn run_traced(seed: u64) -> (Outcome, Vec<(&'static str, u64)>) {
    let workers = batch::default_threads();
    hbm_core::ResultCache::global().disable();
    let plans = stream(seed);
    let mut log = CheckLog::default();
    let plain = run_pass(seed, 0, workers, false);
    let p = run_pass(seed, 1, workers, true);
    check_pass(&plans, &p, &[], &mut log);
    let (adaptive_points, escalated, predict_us) = adaptive_view(&plans);
    if escalated != p.escalated_server {
        log.fail(format!(
            "client-side escalation mask says {escalated} points, the server escalated {}",
            p.escalated_server
        ));
    }
    let s = &p.stats;
    let reused = s.cache_hits + s.cache_coalesced;
    let lookups = reused + s.cache_misses;
    let waits: Vec<f64> = p.jobs.iter().map(|j| j.queue_wait_ms).collect();
    let runs: Vec<f64> = p.jobs.iter().map(|j| j.run_ms).collect();
    let mut m = Metrics::default();
    m.put("cache.hit_frac", if lookups == 0 { 0.0 } else { reused as f64 / lookups as f64 });
    m.put("cache.coalesced", s.cache_coalesced as f64);
    m.put("cache.get_us", p.get_us);
    m.put("cache.flush_ms", p.flush_ms);
    m.put("cache.disk_load_ms", p.disk_load_ms);
    m.put("cache.warm_grid_ms", p.warm_grid_ms);
    m.put("analytic.predict_us_per_point", predict_us);
    m.put("adaptive.escalated_frac", escalated as f64 / adaptive_points.max(1) as f64);
    m.put("serve.queue_wait_ms_p50", median(&waits));
    m.put("serve.queue_wait_ms_p90", nearest_rank(&waits, 90));
    m.put("serve.run_ms_p50", median(&runs));
    m.put("serve.stream_us_p50", s.stream_us.p50_us as f64);
    m.put("serve.worker_util", s.worker_utilisation);
    m.put("serve.rejected", s.jobs_rejected as f64);
    m.put("wire.client_decode_us_per_row", p.decode_us_per_row);
    m.put("trace.overhead_pct", 100.0 * (p.wall_s / plain.wall_s - 1.0));
    let counts = vec![
        ("jobs", plans.len() as u64),
        ("rows_done", s.rows_done),
        ("points_reused", reused),
        ("points_simulated", s.cache_misses),
        ("adaptive_points", adaptive_points),
        ("escalated_points", escalated),
    ];
    let notes = format!("traced {} jobs; {workers} connections", plans.len());
    (Outcome::new(log, m, notes), counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pure_and_seeded() {
        let a = stream(7);
        assert_eq!(a, stream(7));
        assert_eq!(a.len(), JOBS + 1);
        assert_ne!(a, stream(8));
    }

    #[test]
    fn stream_mixes_repeats_adaptive_jobs_and_overlaps() {
        let s = stream(3);
        let repeats = s.iter().filter(|j| j.repeat_of.is_some()).count();
        assert!((30..=36).contains(&repeats), "{repeats} repeats");
        for (i, j) in s.iter().enumerate() {
            if let Some(k) = j.repeat_of {
                assert!(k + 3 <= i, "job {i} repeats job {k}, too recent");
                assert_eq!(j.points, s[k].points);
            }
            assert!((4..=8).contains(&j.points.len()) || i == JOBS, "job {i} size");
        }
        let adaptive = s.iter().filter(|j| j.adaptive && j.repeat_of.is_none()).count();
        assert!((20..=30).contains(&adaptive), "{adaptive} adaptive fresh jobs");
        // Which jobs repeat, and every fresh job's size and tier, are
        // the same for every seed.
        let shape = |s: &[JobPlan]| -> Vec<Option<(usize, bool)>> {
            s.iter()
                .map(|j| j.repeat_of.is_none().then_some((j.points.len(), j.adaptive)))
                .collect()
        };
        assert_eq!(shape(&s), shape(&stream(4)), "the stream's shape must not depend on the seed");
        let shared = s
            .windows(2)
            .filter(|w| {
                w[1].repeat_of.is_none() && w[1].points.iter().any(|p| w[0].points.contains(p))
            })
            .count();
        assert!(shared >= 3, "{shared} fresh jobs share points with the job before");
    }
}
