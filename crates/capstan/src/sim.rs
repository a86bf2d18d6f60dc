//! Cycle simulation: a deterministic bottleneck/fluid model driven by the
//! Spatial interpreter's event trace.
//!
//! The authors' simulator models Capstan at cycle granularity with an
//! on-chip network model and Ramulator DRAM. Our model preserves the
//! quantities their experiments measure: per-pattern pipeline throughput
//! (16 lanes per PCU, replicated by the outer parallelization), aggregate
//! DRAM bandwidth with random-access burst waste, bit-vector scanner
//! throughput, shuffle-network port contention, and pipeline/DRAM fill
//! latency. Within a top-level phase, patterns stream concurrently (the
//! dataflow pipeline), so phase time is the *max* of its component times;
//! phases (e.g. the two scanner passes of a union kernel) run in sequence,
//! so their times add.

use std::collections::HashMap;

use stardust_spatial::{ExecStats, SpatialProgram, SpatialStmt};

use crate::arch::CapstanConfig;
use crate::place::{place, ResourceReport};

/// Timing breakdown of one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Kernel name.
    pub name: String,
    /// Total cycles.
    pub cycles: f64,
    /// Total seconds at the configured clock.
    pub seconds: f64,
    /// Cycles bound by PCU pipelines.
    pub compute_cycles: f64,
    /// Cycles bound by DRAM bandwidth.
    pub dram_cycles: f64,
    /// Cycles bound by bit-vector scanners.
    pub scan_cycles: f64,
    /// Cycles bound by shuffle-network ports.
    pub shuffle_cycles: f64,
    /// Fill/latency overhead cycles.
    pub fill_cycles: f64,
    /// Which component dominated.
    pub bottleneck: String,
    /// The placement used for throughput limits.
    pub resources: ResourceReport,
}

impl SimReport {
    /// Speedup of this execution relative to another (other / self).
    pub fn speedup_over(&self, other: &SimReport) -> f64 {
        other.seconds / self.seconds
    }
}

/// Per-pattern-node static information gathered from the program.
struct NodeInfo {
    /// Top-level phase index (position of the node's root statement).
    phase: usize,
    /// Effective elements per cycle: lanes when vectorized, 1 otherwise,
    /// times the replication from enclosing parallel loops.
    throughput: f64,
    /// Whether this node is a scan (uses the scanner, not just the PCU).
    is_scan: bool,
}

/// Precomputed, stats-independent analysis of one program on one
/// configuration: placement, per-node throughput, and burst counts.
/// Build it once per `(program, config)` and call [`SimModel::run`]
/// for each execution trace — a bandwidth or dataset sweep pays the
/// program walk once instead of per point.
pub struct SimModel {
    name: String,
    resources: ResourceReport,
    nodes: HashMap<usize, NodeInfo>,
    bursts: usize,
    config: CapstanConfig,
}

impl SimModel {
    /// Analyzes `program` under `config`.
    pub fn new(program: &SpatialProgram, config: &CapstanConfig) -> Self {
        SimModel {
            name: program.name.clone(),
            resources: place(program, config),
            nodes: collect_nodes(program, config),
            bursts: count_bursts(program),
            config: *config,
        }
    }

    /// Simulates one execution trace on the analyzed program.
    pub fn run(&self, stats: &ExecStats) -> SimReport {
        self.run_at(stats, &self.config)
    }

    /// Simulates one execution trace under a different configuration,
    /// reusing this model's placement/node/burst analysis. Valid when
    /// `config` differs from the construction configuration only in
    /// ways the static analysis ignores — in practice, the memory
    /// model of a bandwidth sweep.
    pub fn run_at(&self, stats: &ExecStats, config: &CapstanConfig) -> SimReport {
        simulate_with(
            &self.name,
            &self.resources,
            &self.nodes,
            self.bursts,
            stats,
            config,
        )
    }
}

/// Simulates a program execution described by `stats` on the configured
/// machine.
pub fn simulate(program: &SpatialProgram, stats: &ExecStats, config: &CapstanConfig) -> SimReport {
    SimModel::new(program, config).run(stats)
}

fn simulate_with(
    name: &str,
    resources: &ResourceReport,
    nodes: &HashMap<usize, NodeInfo>,
    bursts: usize,
    stats: &ExecStats,
    config: &CapstanConfig,
) -> SimReport {
    // --- Per-phase compute/scan time --------------------------------
    let mut phase_compute: HashMap<usize, f64> = HashMap::new();
    let mut phase_scan: HashMap<usize, f64> = HashMap::new();
    for (id, info) in nodes {
        let trips = stats.trips(*id) as f64;
        if trips == 0.0 {
            continue;
        }
        let cycles = trips / info.throughput;
        let slot = if info.is_scan {
            phase_scan.entry(info.phase).or_default()
        } else {
            phase_compute.entry(info.phase).or_default()
        };
        // Patterns within a phase pipeline; the slowest dominates.
        if cycles > *slot {
            *slot = cycles;
        }
    }
    let compute_cycles: f64 = phase_compute.values().sum();

    // --- Scanner time ------------------------------------------------
    // Scanners examine `scan_bits` bits at `scanner_bits_per_cycle` per
    // active scanner (replicated with the outer loop).
    let scanners = resources.par.max(1) as f64;
    let scan_rate = config.scanner_bits_per_cycle() * scanners;
    let mut scan_cycles = (stats.scan_bits as f64 + stats.bv_gen_bits as f64) / scan_rate;
    scan_cycles += phase_scan.values().sum::<f64>() * 0.0; // per-phase emits folded below
    let scan_emit_cycles: f64 = phase_scan.values().sum();
    let scan_cycles = scan_cycles.max(scan_emit_cycles);

    // --- DRAM time -----------------------------------------------------
    let bulk_bytes =
        4.0 * (stats.total_dram_read_words() as f64 + stats.total_dram_write_words() as f64);
    // Random reads waste most of a burst; random writes with (mostly)
    // monotonic addresses coalesce in DRAM row buffers and cost little
    // more than their payload.
    let random_bytes = stats.dram_random_reads as f64 * config.memory.random_access_bytes()
        + stats.dram_random_writes as f64 * 8.0;
    let bpc = config.dram_bytes_per_cycle();
    let dram_cycles = if bpc.is_infinite() {
        0.0
    } else {
        (bulk_bytes + random_bytes) / bpc
    };

    // --- Shuffle time ----------------------------------------------------
    // Each shuffle network serves one gather per cycle.
    let shuffle_cycles = if config.memory.is_ideal() {
        0.0
    } else {
        stats.shuffle_accesses as f64 / config.shuffle_networks as f64
    };

    // --- Fill / latency ---------------------------------------------------
    // Each load/store burst pays first-word latency, amortized across the
    // MCs; pipelines pay their depth once per phase.
    let bursts = bursts as f64;
    let latency_cycles = config.memory.latency_sec() * config.clock_hz;
    let fill_cycles = bursts * latency_cycles / resources.mcs.max(1) as f64
        + nodes.len() as f64 * config.pcu_stages as f64;

    let cycles = compute_cycles
        .max(dram_cycles)
        .max(scan_cycles)
        .max(shuffle_cycles)
        + fill_cycles;
    let bottleneck = [
        ("compute", compute_cycles),
        ("dram", dram_cycles),
        ("scan", scan_cycles),
        ("shuffle", shuffle_cycles),
    ]
    .iter()
    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
    .expect("nonempty")
    .0
    .to_string();

    SimReport {
        name: name.to_string(),
        cycles,
        seconds: cycles / config.clock_hz,
        compute_cycles,
        dram_cycles,
        scan_cycles,
        shuffle_cycles,
        fill_cycles,
        bottleneck,
        resources: resources.clone(),
    }
}

/// Merges multi-stage reports (stages execute back to back).
pub fn combine(reports: &[SimReport]) -> SimReport {
    assert!(!reports.is_empty(), "combine needs at least one report");
    let mut total = reports[0].clone();
    for r in &reports[1..] {
        total.cycles += r.cycles;
        total.seconds += r.seconds;
        total.compute_cycles += r.compute_cycles;
        total.dram_cycles += r.dram_cycles;
        total.scan_cycles += r.scan_cycles;
        total.shuffle_cycles += r.shuffle_cycles;
        total.fill_cycles += r.fill_cycles;
    }
    total
}

fn collect_nodes(program: &SpatialProgram, config: &CapstanConfig) -> HashMap<usize, NodeInfo> {
    let mut nodes = HashMap::new();
    for (phase, top) in program.accel.iter().enumerate() {
        collect_stmt(top, phase, 1, config, &mut nodes);
    }
    nodes
}

fn collect_stmt(
    s: &SpatialStmt,
    phase: usize,
    replication: usize,
    config: &CapstanConfig,
    nodes: &mut HashMap<usize, NodeInfo>,
) {
    match s {
        SpatialStmt::Foreach {
            id,
            counter,
            par,
            body,
        } => {
            let par = (*par).max(1);
            let is_scan = matches!(counter, stardust_spatial::Counter::Scan2 { .. });
            // Elements per cycle: loop-carrying bodies issue one
            // iteration per replica per cycle; innermost bodies vectorize
            // across the PCU lanes (one lane group per `par`, capped at the
            // lane count).
            let throughput = if body_has_loops(body) {
                (replication * par) as f64
            } else {
                (replication * par.min(config.lanes).max(1) * config.lanes) as f64
                    / config.lanes as f64
            };
            nodes.insert(
                *id,
                NodeInfo {
                    phase,
                    throughput: throughput.max(1.0),
                    is_scan,
                },
            );
            for b in body {
                collect_stmt(b, phase, replication * par, config, nodes);
            }
        }
        SpatialStmt::Reduce {
            id,
            counter,
            par,
            body,
            ..
        } => {
            let par = (*par).max(1);
            let is_scan = matches!(counter, stardust_spatial::Counter::Scan2 { .. });
            // A Reduce folds `par` elements per cycle per replica through
            // the PCU reduction tree.
            let throughput = (replication * par) as f64;
            nodes.insert(
                *id,
                NodeInfo {
                    phase,
                    throughput: throughput.max(1.0),
                    is_scan,
                },
            );
            for b in body {
                collect_stmt(b, phase, replication, config, nodes);
            }
        }
        _ => {}
    }
}

fn body_has_loops(body: &[SpatialStmt]) -> bool {
    body.iter()
        .any(|s| matches!(s, SpatialStmt::Foreach { .. } | SpatialStmt::Reduce { .. }))
}

fn count_bursts(program: &SpatialProgram) -> usize {
    let mut n = 0;
    program.visit(&mut |s| {
        if matches!(
            s,
            SpatialStmt::Load { .. } | SpatialStmt::Store { .. } | SpatialStmt::StreamStore { .. }
        ) {
            n += 1;
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MemoryModel;
    use stardust_spatial::ir::MemDecl;
    use stardust_spatial::{Counter, Machine, MemKind, SExpr};

    fn streaming_program(n: usize) -> (SpatialProgram, ExecStats) {
        let mut p = SpatialProgram::new("stream");
        p.add_dram("in_dram", n);
        p.add_dram("out_dram", n);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("buf", MemKind::Sram, n)));
        p.accel.push(SpatialStmt::Load {
            dst: "buf".into(),
            src: "in_dram".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(n as f64),
            par: 16,
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(n as f64)),
            par: 16,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out_dram".into(),
                index: SExpr::var("i"),
                value: SExpr::mul(SExpr::read("buf", SExpr::var("i")), SExpr::Const(3.0)),
            }],
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        let stats = m.run(&p).unwrap();
        (p, stats)
    }

    #[test]
    fn more_bandwidth_is_never_slower() {
        let (p, stats) = streaming_program(4096);
        let mut last = f64::INFINITY;
        for gbps in [20.0, 50.0, 100.0, 500.0, 2000.0] {
            let cfg = CapstanConfig::with_memory(MemoryModel::Custom { gbps });
            let r = simulate(&p, &stats, &cfg);
            assert!(
                r.seconds <= last * 1.0001,
                "bandwidth {gbps} slower: {} vs {last}",
                r.seconds
            );
            last = r.seconds;
        }
    }

    #[test]
    fn ideal_memory_is_fastest() {
        let (p, stats) = streaming_program(4096);
        let ideal = simulate(&p, &stats, &CapstanConfig::with_memory(MemoryModel::Ideal));
        let hbm = simulate(&p, &stats, &CapstanConfig::with_memory(MemoryModel::Hbm2e));
        let ddr = simulate(&p, &stats, &CapstanConfig::with_memory(MemoryModel::Ddr4));
        assert!(ideal.seconds <= hbm.seconds);
        assert!(hbm.seconds < ddr.seconds);
    }

    #[test]
    fn ddr4_binds_streaming_kernels_on_memory() {
        let (p, stats) = streaming_program(1 << 16);
        let r = simulate(&p, &stats, &CapstanConfig::with_memory(MemoryModel::Ddr4));
        assert_eq!(r.bottleneck, "dram");
    }

    #[test]
    fn speedup_is_relative() {
        let (p, stats) = streaming_program(4096);
        let hbm = simulate(&p, &stats, &CapstanConfig::with_memory(MemoryModel::Hbm2e));
        let ddr = simulate(&p, &stats, &CapstanConfig::with_memory(MemoryModel::Ddr4));
        let s = hbm.speedup_over(&ddr);
        assert!(s > 1.0, "HBM should beat DDR4, got {s}");
    }

    #[test]
    fn combine_adds_stage_times() {
        let (p, stats) = streaming_program(4096);
        let cfg = CapstanConfig::default();
        let r = simulate(&p, &stats, &cfg);
        let two = combine(&[r.clone(), r.clone()]);
        assert!((two.seconds - 2.0 * r.seconds).abs() < 1e-12);
    }

    #[test]
    fn cycles_positive_and_finite() {
        let (p, stats) = streaming_program(1024);
        let r = simulate(&p, &stats, &CapstanConfig::default());
        assert!(r.cycles.is_finite());
        assert!(r.cycles > 0.0);
        assert!(r.seconds > 0.0);
    }
}
