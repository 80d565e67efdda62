//! Golden-file test for full measurement rows on the stock Xilinx fabric.
//!
//! Pins `serde_json::to_string` of the whole [`Measurement`] — per-master
//! generator statistics, memory statistics and the lateral-bus
//! `FabricStats` — for four short-window points that exercise local
//! traffic, rotation across switches, and cross-switch random access. Any
//! change to a simulated row shows up here as a byte diff; regenerate
//! with
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test rows_golden
//! ```
//!
//! and review the diff of `tests/golden/rows_xilinx.jsonl`. A change that
//! alters rows on purpose also bumps `SIM_KERNEL_VERSION`.

use hbm_fpga::core::prelude::*;

const GOLDEN: &str = "tests/golden/rows_xilinx.jsonl";

const WARMUP: u64 = 1_000;
const CYCLES: u64 = 3_000;

/// One line per point: `label<TAB>row JSON`.
fn rows() -> String {
    let points = [
        ("scs_rot2", Workload { rotation: 2, ..Workload::scs() }),
        ("ccs", Workload::ccs()),
        ("ccra", Workload::ccra()),
        ("scra_rot4", Workload { rotation: 4, ..Workload::scra() }),
    ];
    let cfg = SystemConfig::xilinx();
    let mut out = String::new();
    for (label, wl) in points {
        let m = measure(&cfg, wl, WARMUP, CYCLES);
        let row = serde_json::to_string(&m).expect("measurement serialises");
        out.push_str(&format!("{label}\t{row}\n"));
    }
    out
}

#[test]
fn xilinx_rows_match_golden() {
    let got = rows();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — regenerate with REGEN_GOLDEN=1");
    for (g, w) in got.lines().zip(want.lines()) {
        let label = g.split('\t').next().unwrap_or("?");
        assert_eq!(
            g, w,
            "row {label} drifted from {GOLDEN}; if intentional, bump SIM_KERNEL_VERSION, \
             regenerate with REGEN_GOLDEN=1 and review the diff"
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "row count drifted from {GOLDEN}");
}
