//! Capstan reconfigurable dataflow architecture simulator.
//!
//! The paper evaluates generated kernels on the cycle-accurate Capstan
//! simulator of Rucker et al. (MICRO'21), with Ramulator DRAM models and
//! the ISCA'19 network model. That toolchain is closed; this crate rebuilds
//! the machine at the fidelity the paper's experiments observe:
//!
//! - [`arch`] — the chip: 200 pattern compute units (6 stages × 16 lanes),
//!   200 pattern memory units (16 banks × 4096 words), 80 memory
//!   controllers, 16 shuffle networks (§8.2), and the three memory systems
//!   of Table 6 (four-channel DDR4-2133, HBM-2E, and an ideal memory).
//! - [`place`](mod@place) — placement and resource accounting: datapaths packed into
//!   PCU stages and replicated by the outer parallelization, buffers
//!   mapped to PMUs by capacity, DRAM streams to MCs, gathers to shuffle
//!   networks. Regenerates Table 5.
//! - [`sim`] — a deterministic bottleneck/fluid cycle model driven by the
//!   Spatial interpreter's event trace: pipeline throughput per pattern,
//!   bandwidth-constrained DRAM with random-access penalties, scanner
//!   throughput, and shuffle contention. Regenerates Table 6 and Fig. 12.

pub mod arch;
pub mod place;
pub mod sim;

pub use arch::{CapstanConfig, MemoryModel};
pub use place::{place, ResourceReport};
pub use sim::{simulate, SimReport};
