//! # hbm-mem — HBM DRAM substrate
//!
//! Cycle-level model of the HBM2 memory on Xilinx Virtex UltraScale+
//! devices: 32 pseudo-channels (PCH) of 64-bit DDR DRAM, each with its own
//! banks, open-page tracking, refresh, and a memory controller performing
//! AXI→DDR conversion with a bounded reordering window and
//! direction batching.
//!
//! The model reproduces, from first principles, the effects the paper's
//! measurements hinge on:
//!
//! * row (page) hits stream back-to-back while misses pay
//!   precharge + activate + CAS — the burst-length sensitivity of Fig. 3;
//! * the PCH data bus is bidirectional and pays a turnaround penalty when
//!   changing direction — the read/write-ratio behaviour of Fig. 2;
//! * periodic refresh steals ~7 % of the raw bandwidth — the derating
//!   Xilinx quotes and the paper adopts;
//! * limited banks bound the activate rate — the random-access floor of
//!   Fig. 3c/d;
//! * the controller may only reorder across distinct AXI IDs — the
//!   reorder-window effect of Fig. 6.
//!
//! Internally each PCH advances in nanoseconds (its native DDR timing),
//! while the external interface is in accelerator-clock cycles; the
//! [`hbm_axi::ClockDomain`] conversion happens at the controller boundary.
//!
//! ## Simplification vs. the real device
//!
//! On silicon, two PCHs share one memory controller and command path. The
//! model instantiates one controller per PCH: the shared command path is a
//! second-order effect (commands are a small fraction of bus time) and the
//! data paths — where all first-order contention lives — are independent
//! on the real device too.
//!
//! ## Example
//!
//! ```
//! use hbm_mem::{BankPool, HbmConfig, PchDram};
//! use hbm_axi::Dir;
//!
//! let cfg = HbmConfig::default(); // the XCVU37P's two HBM2 stacks
//! assert_eq!(cfg.num_pch, 32);
//! assert!((cfg.theoretical_bw_gbps() - 460.8).abs() < 0.1);
//!
//! // Bank row state lives in a pool owned by the system (one unit per
//! // PCH, structure-of-arrays); the channel borrows its unit per call.
//! let mut banks = BankPool::new(1, cfg.banks_per_pch);
//!
//! // First access to a closed page pays tRCD + tCL before data:
//! let mut pch = PchDram::new(&cfg, 0.0);
//! let t = pch.execute_burst(&mut banks.unit_mut(0), 0.0, Dir::Read, 0, 512);
//! assert!((t.first_data_ns - cfg.timings.closed_page_ns()).abs() < 1e-9);
//! ```

pub mod address;
pub mod bank;
pub mod config;
pub mod controller;
pub mod pch;
pub mod stats;

pub use address::{row_segments, PchAddress, RowSegments};
pub use bank::{BankPool, BanksMut, PageOutcome};
pub use config::{AddressMapPolicy, HbmConfig, McConfig, PagePolicy, PchGeometry, Timings};
pub use controller::MemoryController;
pub use pch::PchDram;
pub use stats::MemStats;
