//! The simulator's benchmark: named workloads through the crates'
//! public entry points, end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep|accel_apps|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1
//! when any output check failed. See `perfbench/NOTES.md` for what each
//! workload runs and what each metric means.

mod accel_apps;
mod anchors;
mod conductor;
mod grids;
mod layers;
mod paper_sweep;
mod report;
mod serve_mixed;
mod stats;

use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper_sweep", "accel_apps", "serve_mixed"];

const USAGE: &str = "usage: perfbench --workload paper_sweep|accel_apps|serve_mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `pass` until `seconds` have elapsed and at least `min` passes
/// are done.
pub fn repeat_for<T>(seconds: f64, min: usize, mut pass: impl FnMut(usize) -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len()));
    }
    out
}

/// Set-up is cheap next to the work, so every pass sets up at least
/// this many times and for at least [`SETUP_MIN_S`] (at most
/// [`SETUP_MAX_REPS`] times); a run reports the median over all of them.
const SETUP_REPS: usize = 9;
const SETUP_MIN_S: f64 = 0.05;
const SETUP_MAX_REPS: usize = 100;

/// Sets up repeatedly as above, appending each set-up's seconds to
/// `times` and handing every result but the last to `discard`.
pub fn timed_setup<T>(
    times: &mut Vec<f64>,
    mut make: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> T {
    let t0 = Instant::now();
    let mut reps = 0;
    loop {
        let t = Instant::now();
        let v = std::hint::black_box(make());
        times.push(t.elapsed().as_secs_f64());
        reps += 1;
        let enough = reps >= SETUP_REPS && t0.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if enough || reps >= SETUP_MAX_REPS {
            return v;
        }
        discard(v);
    }
}

/// Puts the host-time metrics of a workload whose passes run units one
/// after another: `units[p][u]` is unit `u`'s seconds in pass `p`, and
/// units from `first_job` on are the jobs a user waits on. `wall_s` is
/// the sum of per-unit medians, the job percentiles are taken over
/// per-job medians (nearest rank), and every pass simulates
/// `cycles_per_pass` cycles.
pub fn put_unit_times(
    m: &mut report::Metrics,
    units: &[Vec<f64>],
    first_job: usize,
    cycles_per_pass: u64,
) {
    let med = stats::unit_medians(units);
    let wall: f64 = med.iter().sum();
    m.put("wall_s", wall);
    m.put("sim_mcycles_per_s", cycles_per_pass as f64 / wall / 1e6);
    let jobs_ms: Vec<f64> = med[first_job..].iter().map(|s| 1e3 * s).collect();
    m.put("job_p50_ms", stats::median(&jobs_ms));
    m.put("job_p90_ms", stats::nearest_rank(&jobs_ms, 90));
}

/// The notes line of an untraced run: passes made and the spread of
/// their wall times.
pub fn pass_notes(walls: &[f64], what: &str) -> String {
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    format!(
        "{} passes, wall IQR/median {:.4} (s: {}); {what}",
        walls.len(),
        stats::iqr_share(walls),
        listed.join(" ")
    )
}

/// Runs a traced workload twice at one seed and fails every count that
/// does not repeat bit for bit.
fn traced_twice(run: impl Fn() -> (Outcome, Vec<(&'static str, u64)>)) -> Outcome {
    let (mut first, counts) = run();
    let (second, again) = run();
    first.log.merge(second.log);
    for ((name, a), (_, b)) in counts.iter().zip(&again) {
        if a == b {
            first.log.ok();
        } else {
            first.log.fail(format!("count {name} differs between two traced runs: {a} vs {b}"));
        }
    }
    if counts.len() != again.len() {
        first.log.fail("traced runs reported different count sets".into());
    }
    let listed: Vec<String> = counts.iter().map(|(n, v)| format!("{n}={v}")).collect();
    first.notes.push_str(&format!("\n# counts (repeated exactly): {}", listed.join(" ")));
    first
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = args.seed;
    let outcome = match (args.workload.as_str(), args.trace) {
        ("paper_sweep", false) => paper_sweep::run(seed, args.seconds),
        ("paper_sweep", true) => {
            let mut o = traced_twice(|| paper_sweep::run_traced(seed));
            paper_sweep::check_seed_sensitivity(seed, &mut o.log);
            o
        }
        ("accel_apps", false) => accel_apps::run(seed, args.seconds),
        ("accel_apps", true) => traced_twice(|| accel_apps::run_traced(seed)),
        ("serve_mixed", false) => serve_mixed::run(seed, args.seconds),
        ("serve_mixed", true) => traced_twice(|| serve_mixed::run_traced(seed)),
        _ => unreachable!("workload names are checked by the parser"),
    };
    let (names, idle_is_zero) =
        if args.trace { (&PER_LAYER[..], true) } else { (&END_TO_END[..], false) };
    let (text, correct) = outcome.render(names, idle_is_zero);
    println!("{text}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args("--workload accel_apps --seed 7 --seconds 12 --trace 1"));
        assert_eq!(
            a,
            Ok(Args { workload: "accel_apps".into(), seed: 7, seconds: 12.0, trace: true })
        );
    }

    #[test]
    fn rejects_unknown_input() {
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload paper_sweep --trace 2")).is_err());
        assert!(parse_args(&args("--workload paper_sweep --seconds 0")).is_err());
        assert!(parse_args(&args("--workload paper_sweep --bogus 1")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
