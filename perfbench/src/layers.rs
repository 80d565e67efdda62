//! Per-layer metrics of the kernel (sources, fabric, controllers, DRAM,
//! step/horizon) and the sweep farm, from traced runs.

use hbm_core::system::SystemConfig;
use hbm_fabric::FabricStats;
use hbm_mem::MemStats;

use crate::conductor::LayerTrace;
use crate::report::Metrics;
use crate::stats::{median, nearest_rank};

/// Model statistics of one or more runs, over their measured windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelCounts {
    /// Measured cycles (after warm-up).
    pub measured_cycles: u64,
    /// Runs merged.
    pub runs: u64,
    /// Flits over every link family.
    pub flits: u64,
    /// Σ over runs of the busiest lateral bus's beats per cycle.
    pub lateral_util_sum: f64,
    /// Cycles masters stalled on AXI ID ordering.
    pub id_stall_cycles: u64,
    /// DRAM accesses that hit an open row.
    pub page_hits: u64,
    /// DRAM accesses classified (hit, closed or miss).
    pub page_accesses: u64,
    /// Read/write bus turnarounds.
    pub turnarounds: u64,
    /// Data-bus busy and stalled ns, summed over pseudo-channels.
    pub busy_ns: f64,
    /// See `busy_ns`.
    pub stall_ns: f64,
    /// Measured window × pseudo-channels, in ns.
    pub window_ns: f64,
    /// Deepest controller request queue.
    pub queue_hwm: usize,
}

impl ModelCounts {
    /// The counts of one run measured over `measured` cycles.
    pub fn of(
        mem: &MemStats,
        fabric: &FabricStats,
        measured: u64,
        cfg: &SystemConfig,
        queue_hwm: usize,
    ) -> ModelCounts {
        let lateral: u64 = fabric
            .lateral_right
            .iter()
            .chain(&fabric.lateral_left)
            .flatten()
            .map(|l| l.flits)
            .sum();
        ModelCounts {
            measured_cycles: measured,
            runs: 1,
            flits: fabric.ingress.flits + fabric.egress.flits + fabric.mc_links.flits + lateral,
            lateral_util_sum: fabric.lateral_occupancy(measured).unwrap_or(0.0),
            id_stall_cycles: fabric.id_stall_cycles,
            page_hits: mem.page_hits,
            page_accesses: mem.page_hits + mem.page_closed + mem.page_misses,
            turnarounds: mem.turnarounds,
            busy_ns: mem.busy_ns,
            stall_ns: mem.stall_ns,
            window_ns: cfg.clock.cycles_to_ns(measured) * cfg.hbm.num_pch as f64,
            queue_hwm,
        }
    }

    /// Accumulates another run.
    pub fn merge(&mut self, o: &ModelCounts) {
        self.measured_cycles += o.measured_cycles;
        self.runs += o.runs;
        self.flits += o.flits;
        self.lateral_util_sum += o.lateral_util_sum;
        self.id_stall_cycles += o.id_stall_cycles;
        self.page_hits += o.page_hits;
        self.page_accesses += o.page_accesses;
        self.turnarounds += o.turnarounds;
        self.busy_ns += o.busy_ns;
        self.stall_ns += o.stall_ns;
        self.window_ns += o.window_ns;
        self.queue_hwm = self.queue_hwm.max(o.queue_hwm);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Puts the kernel layers' metrics (src, fabric, mc, dram, step,
/// horizon).
pub fn put_kernel(m: &mut Metrics, t: &LayerTrace, c: &ModelCounts) {
    let measured = c.measured_cycles as f64;
    let simulated = t.simulated_cycles as f64;
    m.put("src.ns_per_cycle", t.src_ns());
    m.put("src.offer_accept_frac", ratio(t.accepts as f64, t.offers as f64));
    m.put("src.horizon_block_frac", ratio(t.src_now_blocked as f64, t.src_now_answers as f64));
    m.put("fabric.tick_ns_per_cycle", t.fabric_tick_ns());
    m.put("fabric.handoff_ns_per_cycle", t.handoff_ns());
    m.put("fabric.flits_per_cycle", ratio(c.flits as f64, measured));
    m.put("fabric.max_lateral_util", ratio(c.lateral_util_sum, c.runs as f64));
    m.put("fabric.id_stall_per_kcycle", ratio(1e3 * c.id_stall_cycles as f64, measured));
    m.put("mc.tick_ns_per_cycle", t.mc_ns());
    m.put("mc.queue_hwm", c.queue_hwm as f64);
    m.put("dram.page_hit_frac", ratio(c.page_hits as f64, c.page_accesses as f64));
    m.put("dram.turnarounds_per_kcycle", ratio(1e3 * c.turnarounds as f64, measured));
    m.put("dram.busy_frac", ratio(c.busy_ns, c.window_ns));
    m.put("dram.stall_frac", ratio(c.stall_ns, c.window_ns));
    m.put("step.stepped_frac", ratio(t.stepped_cycles as f64, simulated));
    m.put("step.ns_per_stepped_cycle", t.step_ns());
    m.put("horizon.queries_per_kcycle", ratio(1e3 * t.horizon_queries as f64, simulated));
    m.put("horizon.ns_per_query", ratio(t.horizon_ns as f64, t.horizon_queries as f64));
}

/// The kernel's exact work counts, for the determinism self-test.
pub fn kernel_counts(t: &LayerTrace, c: &ModelCounts) -> Vec<(&'static str, u64)> {
    vec![
        ("simulated_cycles", t.simulated_cycles),
        ("stepped_cycles", t.stepped_cycles),
        ("horizon_queries", t.horizon_queries),
        ("src_offers", t.offers),
        ("src_accepts", t.accepts),
        ("src_now_blocked", t.src_now_blocked),
        ("issued_bytes", t.issued_bytes),
        ("delivered_bytes", t.delivered_bytes),
        ("flits", c.flits),
        ("id_stall_cycles", c.id_stall_cycles),
        ("page_hits", c.page_hits),
        ("page_accesses", c.page_accesses),
        ("turnarounds", c.turnarounds),
    ]
}

/// Host-time spans of farmed points, grid by grid.
#[derive(Debug, Clone, Default)]
pub struct FarmTrace {
    busy_s: f64,
    capacity_s: f64,
    point_ms: Vec<f64>,
    tail_s: f64,
}

impl FarmTrace {
    /// One grid farmed over `jobs` workers in `wall` seconds; `spans`
    /// are each point's (start, end) in seconds from the grid's start.
    pub fn add_grid(&mut self, spans: &[(f64, f64)], wall: f64, jobs: usize) {
        if spans.is_empty() {
            return;
        }
        self.busy_s += spans.iter().map(|(s, e)| e - s).sum::<f64>();
        self.capacity_s += jobs as f64 * wall;
        self.point_ms.extend(spans.iter().map(|(s, e)| 1e3 * (e - s)));
        // The first worker to find the queue empty finished the
        // earliest of the last `jobs` points to end; from then on the
        // farm runs short-handed.
        let mut ends: Vec<f64> = spans.iter().map(|&(_, e)| e).collect();
        ends.sort_by(f64::total_cmp);
        let first_idle = ends[ends.len().saturating_sub(jobs)];
        self.tail_s += wall - first_idle;
    }

    /// Puts `farm.*`.
    pub fn put(&self, m: &mut Metrics) {
        m.put("farm.busy_frac", ratio(self.busy_s, self.capacity_s));
        let (p50, p90) = if self.point_ms.is_empty() {
            (0.0, 0.0)
        } else {
            (median(&self.point_ms), nearest_rank(&self.point_ms, 90))
        };
        m.put("farm.point_ms_p50", p50);
        m.put("farm.point_ms_p90", p90);
        m.put("farm.tail_s", self.tail_s);
    }
}

/// The value of one sample line (`name{labels} value`) of a Prometheus
/// text exposition; 0 when absent.
pub fn registry_value(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_tail_starts_when_the_first_worker_idles() {
        let mut f = FarmTrace::default();
        // Two workers: points end at 1, 2, 3 and 5; the grid ends at 5.
        f.add_grid(&[(0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (2.0, 5.0)], 5.0, 2);
        assert_eq!(f.tail_s, 2.0);
        assert_eq!(f.busy_s, 1.0 + 2.0 + 2.0 + 3.0);
        assert_eq!(f.capacity_s, 10.0);
    }

    #[test]
    fn registry_lines_parse_by_series() {
        let text = "# TYPE x counter\nx{path=\"lanes\"} 12\nx{path=\"scalar\"} 3\n";
        assert_eq!(registry_value(text, "x{path=\"lanes\"}"), 12);
        assert_eq!(registry_value(text, "x{path=\"scalar\"}"), 3);
        assert_eq!(registry_value(text, "y"), 0);
    }
}
