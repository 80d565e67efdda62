//! Model error against the paper's published values
//! (`hbm_bench::paper`), split by whether the model was tuned to them.
//!
//! *Tuned* anchors are the values DESIGN.md's "Calibration anchors"
//! list: Table IV, the Fig. 4a rotation curve (% of device), the §IV-A
//! latency probes and the §V accelerator bandwidths. *Held-out* values
//! are Table II's read and write latency means, which the model was not
//! fitted to. Each error is the mean absolute relative error over every
//! (measured, paper) pair, in percent.

use hbm_bench::fig7::AccelBandwidths;
use hbm_bench::paper;
use hbm_core::experiment::{Fig4Row, LatencyProbe, Table2Row, Table4Row};
use hbm_traffic::Pattern;

/// One (measured, paper) pair.
pub type Pair = (f64, f64);

/// Mean |measured − paper| / paper over `pairs`, in percent.
pub fn mean_abs_rel_err_pct(pairs: &[Pair]) -> f64 {
    assert!(!pairs.is_empty(), "no anchors to compare against");
    let sum: f64 = pairs.iter().map(|&(m, p)| ((m - p) / p).abs()).sum();
    100.0 * sum / pairs.len() as f64
}

fn pattern_name(p: Pattern) -> &'static str {
    match p {
        Pattern::Scs => "SCS",
        Pattern::Ccs => "CCS",
        Pattern::Scra => "SCRA",
        Pattern::Ccra => "CCRA",
    }
}

/// Table IV: XLNX and MAO throughput of every row with a paper value.
pub fn table4_pairs(rows: &[Table4Row]) -> Vec<Pair> {
    let mut out = Vec::new();
    for r in rows {
        let name = pattern_name(r.pattern);
        if let Some(&(.., x, m)) =
            paper::TABLE4.iter().find(|(pa, d, ..)| *pa == name && *d == r.direction)
        {
            out.push((r.xlnx_gbps, x));
            out.push((r.mao_gbps, m));
        }
    }
    out
}

/// Fig. 4a: % of device bandwidth at the paper's BL 16 rotations.
pub fn fig4_pairs(rows: &[Fig4Row]) -> Vec<Pair> {
    rows.iter()
        .filter(|r| r.burst == 16)
        .filter_map(|r| {
            paper::FIG4_PCT.iter().find(|(rot, _)| *rot == r.rotation).map(|&(_, p)| (r.pct, p))
        })
        .collect()
}

/// §IV-A: the four closed-page latency probes.
pub fn latency_pairs(l: &LatencyProbe) -> Vec<Pair> {
    let (rl, rf, wl, wf) = paper::LATENCY_PROBE;
    vec![(l.read_local, rl), (l.read_far, rf), (l.write_local, wl), (l.write_far, wf)]
}

/// §V: the accelerators' bandwidths without and with the MAO.
pub fn accel_pairs(bw: &AccelBandwidths) -> Vec<Pair> {
    let (ax, am, bx, bm) = paper::ACCEL_BW;
    vec![(bw.a_xlnx, ax), (bw.a_mao, am), (bw.b_xlnx, bx), (bw.b_mao, bm)]
}

/// Table II (held out): read and write latency means of every row with
/// a paper value.
pub fn table2_pairs(rows: &[Table2Row]) -> Vec<Pair> {
    let mut out = Vec::new();
    for r in rows {
        let name = pattern_name(r.pattern);
        if let Some(&(.., rd, _, wr, _)) = paper::TABLE2
            .iter()
            .find(|(tr, f, pa, ..)| *tr == r.traffic && *f == r.fabric && *pa == name)
        {
            out.push((r.rd_mean, rd));
            out.push((r.wr_mean, wr));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_mean_absolute_relative_percent() {
        assert_eq!(mean_abs_rel_err_pct(&[(110.0, 100.0), (45.0, 50.0)]), 10.0);
        assert_eq!(mean_abs_rel_err_pct(&[(7.0, 7.0)]), 0.0);
    }

    #[test]
    fn table4_row_pairs_with_its_paper_cells() {
        // CCRA WR: paper 48 (XLNX) / 144 (MAO).
        let row =
            Table4Row { pattern: Pattern::Ccra, direction: "WR", xlnx_gbps: 52.8, mao_gbps: 129.6 };
        let pairs = table4_pairs(&[row]);
        assert_eq!(pairs, vec![(52.8, 48.0), (129.6, 144.0)]);
        assert!((mean_abs_rel_err_pct(&pairs) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_uses_bl16_rows_at_paper_rotations_only() {
        let row = |rotation, burst, pct| Fig4Row {
            rotation,
            burst,
            total_gbps: 0.0,
            pct,
            max_lateral_util: 0.0,
        };
        let rows = [row(0, 16, 99.0), row(2, 16, 74.9), row(2, 2, 10.0), row(8, 16, 25.0)];
        let pairs = fig4_pairs(&rows);
        assert_eq!(pairs, vec![(74.9, 74.9), (25.0, 12.5)]);
        assert_eq!(mean_abs_rel_err_pct(&pairs), 50.0);
    }

    #[test]
    fn held_out_table2_pairs_read_and_write_means() {
        // Burst/MAO/CCS: paper 264.5 read, 72.0 write.
        let row = Table2Row {
            traffic: "Burst",
            fabric: "MAO",
            pattern: Pattern::Ccs,
            rd_mean: 264.5 * 1.2,
            rd_std: 0.0,
            rd_p50: 0,
            rd_p99: 0,
            wr_mean: 72.0 * 0.8,
            wr_std: 0.0,
            wr_p50: 0,
            wr_p99: 0,
        };
        let pairs = table2_pairs(&[row]);
        assert_eq!(pairs.len(), 2);
        assert!((mean_abs_rel_err_pct(&pairs) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn latency_and_accelerator_anchors_cover_every_paper_value() {
        let l =
            LatencyProbe { read_local: 48.0, read_far: 72.0, write_local: 17.0, write_far: 41.0 };
        assert_eq!(mean_abs_rel_err_pct(&latency_pairs(&l)), 0.0);
        let bw = AccelBandwidths { a_xlnx: 12.55, a_mao: 403.75, b_xlnx: 9.59, b_mao: 546.0 };
        assert_eq!(mean_abs_rel_err_pct(&accel_pairs(&bw)), 25.0);
    }
}
