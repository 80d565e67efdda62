//! The paper's anchored grids, rebuilt from the experiment definitions
//! in `hbm_core::experiment` with the benchmark seed mixed into every
//! workload's RNG seed.
//!
//! At seed 0 the mix is the identity, so every grid here is literally
//! the grid `repro <fig> --quick` measures and [`rows_json`] prints the
//! same rows (pinned by the `builtin_seed_rows_equal_repro_rows` test).

use hbm_axi::BurstLen;
use hbm_bench::fig7::AccelBandwidths;
use hbm_core::batch::GridPoint;
use hbm_core::experiment::{LatencyProbe, Table2Row, Table4Row};
use hbm_core::measure::Measurement;
use hbm_core::system::{FabricKind, HbmSystem, SystemConfig};
use hbm_mao::MaoConfig;
use hbm_traffic::{Pattern, RwRatio, Workload};

/// SplitMix64 finaliser: a bijective scramble of one 64-bit word.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The word XOR-ed into built-in RNG seeds for benchmark seed `seed`
/// (0 for seed 0, so the built-in seeds are one point of the family).
pub fn seed_mix(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        splitmix64(seed)
    }
}

/// `wl` with the benchmark seed mixed into its RNG seed.
pub fn seeded(wl: Workload, seed: u64) -> Workload {
    Workload { seed: wl.seed ^ seed_mix(seed), ..wl }
}

fn base(pattern: Pattern) -> Workload {
    match pattern {
        Pattern::Scs => Workload::scs(),
        Pattern::Ccs => Workload::ccs(),
        Pattern::Scra => Workload::scra(),
        Pattern::Ccra => Workload::ccra(),
    }
}

/// One grid of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Fig. 2: read/write ratio sweep.
    Fig2,
    /// Fig. 3: burst length × pattern × direction.
    Fig3,
    /// Fig. 4: rotation offset at BL 16 and BL 2.
    Fig4,
    /// Table II: latency under single and burst traffic.
    Table2,
    /// Table IV: CCS/CCRA throughput, XLNX vs MAO.
    Table4,
    /// Fig. 7: the two accelerators' access-pattern bandwidths.
    Fig7,
    /// Fig. 5: stride sweep through the MAO (serve pool only).
    Fig5,
    /// Fig. 6: reorder depth through the MAO (serve pool only).
    Fig6,
}

impl Grid {
    /// The grids `paper_sweep` measures, in order.
    pub const SWEEP: [Grid; 6] =
        [Grid::Fig2, Grid::Fig3, Grid::Fig4, Grid::Table2, Grid::Table4, Grid::Fig7];

    /// Every grid a served job may draw from.
    pub const ALL: [Grid; 8] = [
        Grid::Fig2,
        Grid::Fig3,
        Grid::Fig4,
        Grid::Table2,
        Grid::Table4,
        Grid::Fig7,
        Grid::Fig5,
        Grid::Fig6,
    ];

    /// The `repro` experiment name.
    pub fn name(self) -> &'static str {
        match self {
            Grid::Fig2 => "fig2",
            Grid::Fig3 => "fig3",
            Grid::Fig4 => "fig4",
            Grid::Table2 => "table2",
            Grid::Table4 => "table4",
            Grid::Fig7 => "fig7",
            Grid::Fig5 => "fig5",
            Grid::Fig6 => "fig6",
        }
    }

    /// The grid's points at benchmark seed `seed`, in row order.
    pub fn points(self, seed: u64) -> Vec<GridPoint> {
        let pts = match self {
            Grid::Fig2 => fig2_ratios()
                .into_iter()
                .map(|rw| (SystemConfig::xilinx(), Workload { rw, ..Workload::scs() }))
                .collect(),
            Grid::Fig3 => fig3_points(),
            Grid::Fig4 => hbm_core::experiment::fig4_grid(),
            Grid::Table2 => table2_meta().into_iter().map(|(.., p)| p).collect(),
            Grid::Table4 => table4_points(),
            Grid::Fig7 => fig7_points_grid(),
            Grid::Fig5 => fig5_strides()
                .into_iter()
                .map(|stride| {
                    let wl = Workload { stride, working_set: 4 << 30, ..Workload::ccs() };
                    (SystemConfig::mao(), wl)
                })
                .collect(),
            Grid::Fig6 => fig6_depths()
                .into_iter()
                .map(|depth| {
                    let mao = MaoConfig { reorder_depth: depth.max(2), ..MaoConfig::default() };
                    let cfg = SystemConfig { fabric: FabricKind::Mao(mao), ..SystemConfig::mao() };
                    let wl = Workload { num_ids: depth, outstanding: depth, ..Workload::ccra() };
                    (cfg, wl)
                })
                .collect(),
        };
        pts.into_iter().map(|(cfg, wl)| (cfg, seeded(wl, seed))).collect::<Vec<GridPoint>>()
    }
}

fn fig2_ratios() -> Vec<RwRatio> {
    [(1, 0), (4, 1), (3, 1), (2, 1), (1, 1), (1, 2), (1, 3), (1, 4), (0, 1)]
        .into_iter()
        .map(|(reads, writes)| RwRatio { reads, writes })
        .collect()
}

fn fig3_cases() -> Vec<(Pattern, u8)> {
    let mut cases = Vec::new();
    for pattern in [Pattern::Scs, Pattern::Ccs, Pattern::Scra, Pattern::Ccra] {
        for bl in [1u8, 2, 4, 8, 16] {
            cases.push((pattern, bl));
        }
    }
    cases
}

fn fig3_points() -> Vec<GridPoint> {
    fig3_cases()
        .into_iter()
        .flat_map(|(pattern, bl)| {
            let mk = move |rw| Workload {
                burst: BurstLen::of(bl),
                stride: BurstLen::of(bl).bytes(),
                rw,
                ..base(pattern)
            };
            [RwRatio::READ_ONLY, RwRatio::WRITE_ONLY, RwRatio::TWO_TO_ONE]
                .map(|rw| (SystemConfig::xilinx(), mk(rw)))
        })
        .collect()
}

type Table2Meta = (&'static str, &'static str, Pattern, GridPoint);

fn table2_meta() -> Vec<Table2Meta> {
    let mut out = Vec::new();
    for (traffic, outstanding, bl) in [("Single", 1usize, 1u8), ("Burst", 32, 16)] {
        for (fabric, cfg) in [("XLNX", SystemConfig::xilinx()), ("MAO", SystemConfig::mao())] {
            for pattern in [Pattern::Ccs, Pattern::Ccra] {
                let wl = Workload {
                    outstanding,
                    burst: BurstLen::of(bl),
                    stride: BurstLen::of(bl).bytes(),
                    num_ids: if traffic == "Single" { 1 } else { 16 },
                    ..base(pattern)
                };
                out.push((traffic, fabric, pattern, (cfg.clone(), wl)));
            }
        }
    }
    out
}

const TABLE4_DIRS: [(&str, RwRatio); 3] =
    [("RD", RwRatio::READ_ONLY), ("WR", RwRatio::WRITE_ONLY), ("Both", RwRatio::TWO_TO_ONE)];

fn table4_points() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for pattern in [Pattern::Ccs, Pattern::Ccra] {
        for (_, rw) in TABLE4_DIRS {
            let wl = Workload { rw, ..base(pattern) };
            points.push((SystemConfig::xilinx(), wl));
            points.push((SystemConfig::mao(), wl));
        }
    }
    points
}

/// Accelerator A's pattern (CCS 2:1) and B's (CCS 15:1), each on the
/// stock fabric and through the MAO — `hbm_bench::fig7`'s four points.
fn fig7_points_grid() -> Vec<GridPoint> {
    let a = Workload::ccs();
    let b = Workload { rw: RwRatio { reads: 15, writes: 1 }, ..Workload::ccs() };
    vec![
        (SystemConfig::xilinx(), a),
        (SystemConfig::mao(), a),
        (SystemConfig::xilinx(), b),
        (SystemConfig::mao(), b),
    ]
}

fn fig5_strides() -> Vec<u64> {
    vec![64, 128, 256, 512, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
}

fn fig6_depths() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

/// Whether a row reports more than its configuration's theoretical
/// bandwidth (or no finite bandwidth at all).
pub fn beyond_device(m: &Measurement) -> bool {
    let device = if m.device_gbps > 0.0 { m.device_gbps } else { hbm_bench::paper::DEVICE_BW };
    let gbps = m.total_gbps();
    !gbps.is_finite() || gbps > device * (1.0 + 1e-9)
}

/// Table II rows folded from measurements in [`Grid::Table2`] order.
pub fn table2_rows(ms: &[Measurement]) -> Vec<Table2Row> {
    table2_meta()
        .into_iter()
        .zip(ms)
        .map(|((traffic, fabric, pattern, _), m)| Table2Row {
            traffic,
            fabric,
            pattern,
            rd_mean: m.read_latency_mean().unwrap_or(f64::NAN),
            rd_std: m.read_latency_std().unwrap_or(f64::NAN),
            rd_p50: m.gen.read_lat.p50().unwrap_or(0),
            rd_p99: m.gen.read_lat.p99().unwrap_or(0),
            wr_mean: m.write_latency_mean().unwrap_or(f64::NAN),
            wr_std: m.write_latency_std().unwrap_or(f64::NAN),
            wr_p50: m.gen.write_lat.p50().unwrap_or(0),
            wr_p99: m.gen.write_lat.p99().unwrap_or(0),
        })
        .collect()
}

/// Table IV rows folded from measurements in [`Grid::Table4`] order.
pub fn table4_rows(ms: &[Measurement]) -> Vec<Table4Row> {
    let mut meta = Vec::new();
    for pattern in [Pattern::Ccs, Pattern::Ccra] {
        for (direction, _) in TABLE4_DIRS {
            meta.push((pattern, direction));
        }
    }
    meta.into_iter()
        .zip(ms.chunks(2))
        .map(|((pattern, direction), m)| Table4Row {
            pattern,
            direction,
            xlnx_gbps: m[0].total_gbps(),
            mao_gbps: m[1].total_gbps(),
        })
        .collect()
}

/// The four accelerator-pattern bandwidths from [`Grid::Fig7`] rows.
pub fn accel_bandwidths(ms: &[Measurement]) -> AccelBandwidths {
    AccelBandwidths {
        a_xlnx: ms[0].total_gbps(),
        a_mao: ms[1].total_gbps(),
        b_xlnx: ms[2].total_gbps(),
        b_mao: ms[3].total_gbps(),
    }
}

/// One §IV-A latency probe: a single closed-page transaction stream on
/// the stock fabric, bounded to 8 transactions per master and drained.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Rotation offset (0 = local PCH, 28 = farthest).
    pub rotation: usize,
    /// Read-only or write-only.
    pub rw: RwRatio,
}

impl ProbeSpec {
    /// Transactions each master issues.
    pub const MAX_TXNS: u64 = 8;
    /// Drain budget in cycles.
    pub const BUDGET: u64 = 50_000;

    /// The probe's system configuration and workload.
    pub fn point(&self, seed: u64) -> GridPoint {
        let wl = Workload {
            rotation: self.rotation,
            rw: self.rw,
            outstanding: 1,
            burst: BurstLen::of(1),
            stride: 32,
            ..Workload::scs()
        };
        (SystemConfig::xilinx(), seeded(wl, seed))
    }

    /// The probed latency (master 0's mean, read or write) from the
    /// drained system's per-master statistics.
    pub fn latency(&self, gens: &[hbm_traffic::GenStats]) -> f64 {
        let s = &gens[0];
        let lat = if self.rw.writes == 0 { s.read_lat.mean() } else { s.write_lat.mean() };
        lat.expect("probe master completed transactions")
    }
}

/// The four probes of `experiment::latency_probe`, in field order.
pub const PROBES: [ProbeSpec; 4] = [
    ProbeSpec { rotation: 0, rw: RwRatio::READ_ONLY },
    ProbeSpec { rotation: 28, rw: RwRatio::READ_ONLY },
    ProbeSpec { rotation: 0, rw: RwRatio::WRITE_ONLY },
    ProbeSpec { rotation: 28, rw: RwRatio::WRITE_ONLY },
];

/// Runs one probe on the library's own conductor; returns the latency
/// and the simulated cycles.
pub fn run_probe(spec: &ProbeSpec, seed: u64) -> (f64, u64) {
    let (cfg, wl) = spec.point(seed);
    let mut sys = HbmSystem::new(&cfg, wl, Some(ProbeSpec::MAX_TXNS));
    sys.run_until_drained(ProbeSpec::BUDGET);
    (spec.latency(&sys.gen_stats()), sys.now())
}

/// Folds four probe latencies into the `repro latency` row.
pub fn latency_row(l: [f64; 4]) -> LatencyProbe {
    LatencyProbe { read_local: l[0], read_far: l[1], write_local: l[2], write_far: l[3] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_bench::fig7::{fig7_points, Fig7Report};
    use hbm_core::batch::run_grid_fid;
    use hbm_core::experiment::{self, fig4_rows, Fidelity, Fig2Row, Fig3Row, Fig5Row, Fig6Row};
    use hbm_roofline::accelerator::{table5, AcceleratorA, AcceleratorB};

    /// The full Fig. 7 / Table V report built from [`Grid::Fig7`] rows.
    fn fig7_report(ms: &[Measurement]) -> Fig7Report {
        let bw = accel_bandwidths(ms);
        Fig7Report {
            a_points: fig7_points(|p| AcceleratorA { p }, bw.a_xlnx, bw.a_mao),
            b_points: fig7_points(|p| AcceleratorB { p }, bw.b_xlnx, bw.b_mao),
            table5_a: table5(|p| AcceleratorA { p }, bw.a_xlnx, bw.a_mao),
            table5_b: table5(|p| AcceleratorB { p }, bw.b_xlnx, bw.b_mao),
            bw,
        }
    }

    /// The rows `repro <grid.name()> --quick --json` prints, as JSON, from
    /// the grid's measurements.
    fn rows_json(grid: Grid, ms: &[Measurement]) -> String {
        let json = match grid {
            Grid::Fig2 => serde_json::to_string(
                &fig2_ratios()
                    .into_iter()
                    .zip(ms)
                    .map(|(ratio, m)| Fig2Row {
                        ratio,
                        read_gbps: m.read_gbps(),
                        write_gbps: m.write_gbps(),
                        total_gbps: m.total_gbps(),
                    })
                    .collect::<Vec<_>>(),
            ),
            Grid::Fig3 => serde_json::to_string(
                &fig3_cases()
                    .into_iter()
                    .zip(ms.chunks(3))
                    .map(|((pattern, burst), m)| Fig3Row {
                        pattern,
                        burst,
                        rd_gbps: m[0].total_gbps(),
                        wr_gbps: m[1].total_gbps(),
                        both_gbps: m[2].total_gbps(),
                    })
                    .collect::<Vec<_>>(),
            ),
            Grid::Fig4 => serde_json::to_string(&fig4_rows(ms)),
            Grid::Table2 => serde_json::to_string(&table2_rows(ms)),
            Grid::Table4 => serde_json::to_string(&table4_rows(ms)),
            Grid::Fig7 => serde_json::to_string(&fig7_report(ms)),
            Grid::Fig5 => serde_json::to_string(
                &fig5_strides()
                    .into_iter()
                    .zip(ms)
                    .map(|(stride, m)| Fig5Row { stride, total_gbps: m.total_gbps() })
                    .collect::<Vec<_>>(),
            ),
            Grid::Fig6 => serde_json::to_string(
                &fig6_depths()
                    .into_iter()
                    .zip(ms)
                    .map(|(depth, m)| Fig6Row { depth, total_gbps: m.total_gbps() })
                    .collect::<Vec<_>>(),
            ),
        };
        json.expect("experiment rows serialise")
    }

    fn rows_of(grid: Grid) -> String {
        let fid = Fidelity::QUICK;
        let json = match grid {
            Grid::Fig2 => serde_json::to_string(&experiment::fig2_rw_ratio(fid)),
            Grid::Fig3 => serde_json::to_string(&experiment::fig3_burst_length(fid)),
            Grid::Fig4 => serde_json::to_string(&experiment::fig4_rotation(fid)),
            Grid::Table2 => serde_json::to_string(&experiment::table2_latency(fid)),
            Grid::Table4 => serde_json::to_string(&experiment::table4_throughput(fid)),
            Grid::Fig7 => serde_json::to_string(&hbm_bench::fig7::fig7_report(fid)),
            Grid::Fig5 => serde_json::to_string(&experiment::fig5_stride(fid)),
            Grid::Fig6 => serde_json::to_string(&experiment::fig6_reorder(fid)),
        };
        json.expect("rows serialise")
    }

    /// `repro <fig> --quick --json --no-cache` prints exactly the rows of
    /// these experiment functions; at seed 0 the rebuilt grids give them
    /// byte for byte.
    #[test]
    fn builtin_seed_rows_equal_repro_rows() {
        for grid in Grid::ALL {
            let ms = run_grid_fid(&grid.points(0), Fidelity::QUICK, 2);
            assert_eq!(rows_json(grid, &ms), rows_of(grid), "{} rows", grid.name());
        }
        let probes = PROBES.map(|p| run_probe(&p, 0).0);
        assert_eq!(
            serde_json::to_string(&latency_row(probes)).unwrap(),
            serde_json::to_string(&experiment::latency_probe()).unwrap()
        );
    }

    #[test]
    fn seeds_change_only_the_rng_seed_and_repeat() {
        for grid in Grid::ALL {
            let builtin = grid.points(0);
            let a = grid.points(42);
            assert_eq!(a, grid.points(42), "{} is not pure", grid.name());
            assert_eq!(a.len(), builtin.len());
            for ((cfg0, wl0), (cfg, wl)) in builtin.iter().zip(&a) {
                assert_eq!(cfg0, cfg);
                assert_ne!(wl0.seed, wl.seed);
                assert_eq!(Workload { seed: wl0.seed, ..*wl }, *wl0);
            }
        }
        assert_eq!(seed_mix(0), 0);
        assert_ne!(seed_mix(1), seed_mix(2));
    }
}
