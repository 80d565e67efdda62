//! `sweep` — parameter-grid sweeps to CSV.
//!
//! ```text
//! sweep [--fabrics xlnx,mao,direct] [--patterns scs,ccs,scra,ccra]
//!       [--bursts 1,2,4,8,16] [--rotations 0]
//!       [--warmup N] [--cycles N] [--threads N]
//! ```
//!
//! Prints one CSV row per grid point to stdout (redirect to a file for
//! plotting). Every figure of the paper is a slice of this grid. An
//! unknown flag or a bad fabric, pattern or number prints usage to
//! stderr and exits 2; `--help` prints usage and exits 0.

use hbm_axi::BurstLen;
use hbm_bench::cli::{Cli, Spec};
use hbm_core::prelude::*;

/// Every flag `sweep` reads; it takes no positionals.
static SWEEP: Spec = Spec {
    prog: "sweep",
    usage: "\
usage: sweep [--fabrics xlnx,mao,direct] [--patterns scs,ccs,scra,ccra]
             [--bursts 1,2,4,8,16] [--rotations 0]
             [--warmup N] [--cycles N] [--threads N]
       sweep --help",
    verbs: &[],
    switches: &[],
    value_flags: &[
        "--fabrics",
        "--patterns",
        "--bursts",
        "--rotations",
        "--warmup",
        "--cycles",
        "--threads",
    ],
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&SWEEP, &args);
    let fabrics = cli.parsed_list("--fabrics", "xlnx,mao", "xlnx|mao|direct", |f| {
        let cfg = match f {
            "xlnx" => SystemConfig::xilinx(),
            "mao" => SystemConfig::mao(),
            "direct" => SystemConfig::direct(),
            _ => return None,
        };
        Some((f.to_string(), cfg))
    });
    let patterns = cli.parsed_list("--patterns", "scs,ccs,scra,ccra", "scs|ccs|scra|ccra", |p| {
        let wl = match p {
            "scs" => Workload::scs(),
            "ccs" => Workload::ccs(),
            "scra" => Workload::scra(),
            "ccra" => Workload::ccra(),
            _ => return None,
        };
        Some((p.to_string(), wl))
    });
    let bursts = cli.parsed_list("--bursts", "1,2,4,8,16", "burst lengths 1..=16", |b| {
        BurstLen::new(b.parse().ok()?)
    });
    let rotations = cli.parsed_list("--rotations", "0", "rotations 0..=31", |r| {
        r.parse::<usize>().ok().filter(|&r| r < 32)
    });
    let warmup = cli.parsed("--warmup", 2_000, "a cycle count", |v| v.parse::<u64>().ok());
    let cycles = cli.parsed("--cycles", 8_000, "a positive cycle count", |v| {
        v.parse::<u64>().ok().filter(|&c| c > 0)
    });
    let threads =
        cli.parsed("--threads", hbm_core::batch::default_threads(), "a positive integer", |v| {
            hbm_core::batch::parse_jobs(v).ok()
        });

    println!(
        "fabric,pattern,burst,rotation,read_gbps,write_gbps,total_gbps,\
         read_lat_mean,read_lat_std,write_lat_mean,write_lat_std,\
         page_hit_rate,lateral_beats,id_stall_cycles"
    );
    // Build the grid first, then fan it out over threads.
    let mut labels: Vec<(String, String, u8, usize)> = Vec::new();
    let mut grid: Vec<hbm_core::batch::GridPoint> = Vec::new();
    for (fabric, cfg) in &fabrics {
        for (pattern, base) in &patterns {
            // The direct fabric only supports single-channel locality.
            if fabric == "direct" && matches!(base.pattern, Pattern::Ccs | Pattern::Ccra) {
                continue;
            }
            for &burst in &bursts {
                for &rot in &rotations {
                    if rot != 0 && (fabric == "direct" || !matches!(base.pattern, Pattern::Scs)) {
                        continue;
                    }
                    let wl = Workload { burst, stride: burst.bytes(), rotation: rot, ..*base };
                    labels.push((fabric.clone(), pattern.clone(), burst.beats(), rot));
                    grid.push((cfg.clone(), wl));
                }
            }
        }
    }
    let results = hbm_core::batch::run_grid(&grid, warmup, cycles, threads);
    for ((fabric, pattern, beats, rot), m) in labels.iter().zip(results.iter()) {
        println!(
            "{fabric},{pattern},{beats},{rot},{:.3},{:.3},{:.3},{:.1},{:.1},{:.1},{:.1},{:.4},{},{}",
            m.read_gbps(),
            m.write_gbps(),
            m.total_gbps(),
            m.read_latency_mean().unwrap_or(f64::NAN),
            m.read_latency_std().unwrap_or(f64::NAN),
            m.write_latency_mean().unwrap_or(f64::NAN),
            m.write_latency_std().unwrap_or(f64::NAN),
            m.mem.hit_rate().unwrap_or(0.0),
            m.fabric.lateral_beats(),
            m.fabric.id_stall_cycles,
        );
    }
}
