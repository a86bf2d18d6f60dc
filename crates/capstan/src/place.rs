//! Placement and resource accounting (Table 5).
//!
//! Maps a lowered Spatial program onto Capstan's distributed resources:
//! every pattern's datapath is packed into PCU pipeline stages and
//! replicated across PCUs by the enclosing parallelization factors; every
//! on-chip buffer takes PMUs by capacity (and by banking when replicated);
//! every DRAM stream occupies a memory-controller port; data-dependent
//! gathers claim shuffle networks (which caps outer parallelism at 16,
//! §8.2).

use stardust_spatial::{Counter, MemKind, SExpr, SpatialProgram, SpatialStmt};

use crate::arch::CapstanConfig;

/// Chip resources required by a kernel (one Table 5 row).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// Kernel name.
    pub name: String,
    /// Outer parallelization factor.
    pub par: usize,
    /// Pattern compute units used.
    pub pcus: usize,
    /// Pattern memory units used.
    pub pmus: usize,
    /// Memory controllers used.
    pub mcs: usize,
    /// Shuffle networks used.
    pub shuffles: usize,
    /// Chip totals (for percentage reporting).
    pub config: CapstanConfig,
}

impl ResourceReport {
    /// PCU utilization in percent.
    pub fn pcu_pct(&self) -> f64 {
        100.0 * self.pcus as f64 / self.config.pcus as f64
    }

    /// PMU utilization in percent.
    pub fn pmu_pct(&self) -> f64 {
        100.0 * self.pmus as f64 / self.config.pmus as f64
    }

    /// MC utilization in percent.
    pub fn mc_pct(&self) -> f64 {
        100.0 * self.mcs as f64 / self.config.mcs as f64
    }

    /// Shuffle-network utilization in percent.
    pub fn shuffle_pct(&self) -> f64 {
        100.0 * self.shuffles as f64 / self.config.shuffle_networks as f64
    }

    /// The limiting resource(s): whichever utilization is highest (bold in
    /// Table 5).
    pub fn limiting(&self) -> &'static str {
        let entries = [
            ("PCU", self.pcu_pct()),
            ("PMU", self.pmu_pct()),
            ("MC", self.mc_pct()),
            ("Shuffle", self.shuffle_pct()),
        ];
        entries
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .expect("nonempty")
            .0
    }

    /// Whether the kernel fits on the chip.
    pub fn fits(&self) -> bool {
        self.pcus <= self.config.pcus
            && self.pmus <= self.config.pmus
            && self.mcs <= self.config.mcs
            && self.shuffles <= self.config.shuffle_networks
    }
}

#[derive(Default)]
struct Tally {
    pcus: f64,
    pmus: f64,
    mcs: f64,
    has_gather: bool,
}

/// Places a program onto the chip, returning the resource report.
///
/// Top-level phases (e.g. the two scanner passes of a union kernel)
/// execute sequentially and time-share the fabric, so the chip must fit
/// the *largest* phase, not their sum.
pub fn place(program: &SpatialProgram, config: &CapstanConfig) -> ResourceReport {
    let outer_par = outermost_par(program);
    let drams: std::collections::HashSet<&str> =
        program.drams.iter().map(|d| d.name.as_str()).collect();
    let mut tally = Tally::default();
    let mut phase = Tally::default();
    for s in &program.accel {
        let is_phase = matches!(s, SpatialStmt::Foreach { .. } | SpatialStmt::Reduce { .. });
        if is_phase {
            let mut t = Tally::default();
            walk(s, 1, config, &drams, &mut t);
            phase.pcus = phase.pcus.max(t.pcus);
            phase.pmus = phase.pmus.max(t.pmus);
            phase.mcs = phase.mcs.max(t.mcs);
            phase.has_gather |= t.has_gather;
        } else {
            walk(s, 1, config, &drams, &mut tally);
        }
    }
    tally.pcus += phase.pcus;
    tally.pmus += phase.pmus;
    tally.mcs += phase.mcs;
    tally.has_gather |= phase.has_gather;
    // Every kernel needs at least one PCU for control and one MC to talk
    // to the host.
    let pcus = tally.pcus.ceil().max(1.0) as usize;
    let pmus = tally.pmus.ceil().max(1.0) as usize;
    let mcs = (tally.mcs.ceil().max(1.0) as usize).min(config.mcs);
    let shuffles = if tally.has_gather {
        outer_par.min(config.shuffle_networks)
    } else {
        0
    };
    ResourceReport {
        name: program.name.clone(),
        par: outer_par,
        pcus: pcus.min(config.pcus),
        pmus: pmus.min(config.pmus),
        mcs,
        shuffles,
        config: *config,
    }
}

/// The parallelization factor of the outermost parallel loop.
pub fn outermost_par(program: &SpatialProgram) -> usize {
    let mut best = 1usize;
    program.visit(&mut |s| {
        if let SpatialStmt::Foreach { par, .. } | SpatialStmt::Reduce { par, .. } = s {
            if *par > best {
                best = *par;
            }
        }
    });
    best
}

/// Data-dependent reads of *on-chip* memories go through the shuffle
/// network; random DRAM reads go through the memory controllers instead.
fn expr_gathers(e: &SExpr, drams: &std::collections::HashSet<&str>) -> bool {
    let mut found = false;
    e.visit_reads(&mut |mem, random| {
        if random && !drams.contains(mem) {
            found = true;
        }
    });
    found
}

fn stmt_alu_ops(s: &SpatialStmt) -> usize {
    match s {
        SpatialStmt::Bind { value, .. }
        | SpatialStmt::SetReg { value, .. }
        | SpatialStmt::Enq { value, .. } => value.alu_ops() + 1,
        SpatialStmt::WriteMem { index, value, .. }
        | SpatialStmt::RmwAdd { index, value, .. }
        | SpatialStmt::StoreScalar { index, value, .. } => index.alu_ops() + value.alu_ops() + 1,
        _ => 0,
    }
}

fn walk(
    s: &SpatialStmt,
    replication: usize,
    config: &CapstanConfig,
    drams: &std::collections::HashSet<&str>,
    tally: &mut Tally,
) {
    match s {
        SpatialStmt::Alloc(d) => {
            let pmus = match d.kind {
                MemKind::Sram | MemKind::SparseSram | MemKind::Fifo => {
                    (d.size as f64 / config.pmu_words() as f64).max(0.25)
                }
                MemKind::BitVector => (d.size as f64 / (config.pmu_words() * 32) as f64).max(0.125),
                MemKind::Reg | MemKind::Dram | MemKind::SparseDram => 0.0,
            };
            tally.pmus += pmus * replication as f64;
        }
        SpatialStmt::Load { .. } | SpatialStmt::Store { .. } | SpatialStmt::StreamStore { .. } => {
            // One stream port per replica; many replicas share an MC's
            // queue, modeled as half an MC per stream beyond the first.
            tally.mcs += 0.5 * replication as f64 + 0.5;
        }
        SpatialStmt::StoreScalar { index, value, .. } => {
            tally.mcs += 0.25 * replication as f64;
            if expr_gathers(index, drams) || expr_gathers(value, drams) {
                tally.has_gather = true;
            }
        }
        SpatialStmt::Foreach {
            counter, par, body, ..
        } => {
            let par = (*par).max(1);
            // Innermost loops vectorize across PCU lanes (par = lanes, one
            // extra PCU column per lane group); loop-carrying loops
            // replicate their whole sub-datapath `par` times in space.
            let innermost = !body_contains_loops(body);
            let lane_groups = if innermost {
                par.div_ceil(config.lanes)
            } else {
                1
            };
            let rep = if innermost {
                replication
            } else {
                replication * par
            };
            let ops: usize =
                body.iter().map(stmt_alu_ops).sum::<usize>() + counter_ops(counter) + 1;
            tally.pcus +=
                (ops as f64 / config.pcu_stages as f64).ceil() * (rep * lane_groups) as f64;
            for b in body {
                if expr_uses_gather(b, drams) {
                    tally.has_gather = true;
                }
                walk(b, rep, config, drams, tally);
            }
        }
        SpatialStmt::Reduce {
            counter,
            par,
            body,
            expr,
            ..
        } => {
            let rep = replication * (*par).max(1);
            let ops: usize = body.iter().map(stmt_alu_ops).sum::<usize>()
                + expr.alu_ops()
                + counter_ops(counter)
                + 2; // reduction tree + control
            tally.pcus += (ops as f64 / config.pcu_stages as f64).ceil() * replication as f64;
            if expr_gathers(expr, drams) {
                tally.has_gather = true;
            }
            for b in body {
                if expr_uses_gather(b, drams) {
                    tally.has_gather = true;
                }
                walk(b, rep, config, drams, tally);
            }
        }
        SpatialStmt::GenBitVector { .. } => {
            // Scanner front-end occupies part of a PCU.
            tally.pcus += 0.5 * replication as f64;
        }
        SpatialStmt::WriteMem { random: true, .. } | SpatialStmt::RmwAdd { .. } => {
            // Atomics route through PMU ports; gathers through shuffles.
        }
        _ => {}
    }
}

fn body_contains_loops(body: &[SpatialStmt]) -> bool {
    body.iter()
        .any(|s| matches!(s, SpatialStmt::Foreach { .. } | SpatialStmt::Reduce { .. }))
}

fn counter_ops(c: &Counter) -> usize {
    match c {
        Counter::Range { .. } => 1,
        Counter::Scan2 { .. } => 3,
    }
}

fn expr_uses_gather(s: &SpatialStmt, drams: &std::collections::HashSet<&str>) -> bool {
    match s {
        SpatialStmt::Bind { value, .. }
        | SpatialStmt::SetReg { value, .. }
        | SpatialStmt::Enq { value, .. } => expr_gathers(value, drams),
        SpatialStmt::WriteMem {
            index,
            value,
            random,
            ..
        } => *random || expr_gathers(index, drams) || expr_gathers(value, drams),
        SpatialStmt::RmwAdd { index, value, .. } => {
            expr_gathers(index, drams) || expr_gathers(value, drams)
        }
        SpatialStmt::StoreScalar { index, value, .. } => {
            expr_gathers(index, drams) || expr_gathers(value, drams)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_spatial::ir::MemDecl;

    fn toy_program(par: usize, gather: bool) -> SpatialProgram {
        let mut p = SpatialProgram::new("toy");
        p.add_dram("a_dram", 1024);
        p.add_dram("y_dram", 1024);
        let read = if gather {
            SExpr::read_random("buf", SExpr::var("i"))
        } else {
            SExpr::read("buf", SExpr::var("i"))
        };
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "buf",
            MemKind::SparseSram,
            1024,
        )));
        p.accel.push(SpatialStmt::Load {
            dst: "buf".into(),
            src: "a_dram".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(1024.0),
            par: 16,
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(1024.0)),
            par,
            body: vec![SpatialStmt::StoreScalar {
                dst: "y_dram".into(),
                index: SExpr::var("i"),
                value: SExpr::mul(read, SExpr::Const(2.0)),
            }],
        });
        p.assign_ids();
        p
    }

    #[test]
    fn more_par_uses_more_resources() {
        let cfg = CapstanConfig::default();
        let r1 = place(&toy_program(1, false), &cfg);
        let r16 = place(&toy_program(16, false), &cfg);
        assert!(r16.pcus >= r1.pcus);
        assert!(r16.mcs >= r1.mcs);
        assert_eq!(r16.par, 16);
    }

    #[test]
    fn gather_claims_shuffles() {
        let cfg = CapstanConfig::default();
        let with = place(&toy_program(16, true), &cfg);
        let without = place(&toy_program(16, false), &cfg);
        assert_eq!(with.shuffles, 16);
        assert_eq!(without.shuffles, 0);
    }

    #[test]
    fn shuffles_capped_at_networks() {
        let cfg = CapstanConfig::default();
        let r = place(&toy_program(32, true), &cfg);
        assert_eq!(r.shuffles, 16);
    }

    #[test]
    fn report_percentages_and_limit() {
        let cfg = CapstanConfig::default();
        let r = place(&toy_program(16, true), &cfg);
        assert!(r.pcu_pct() > 0.0 && r.pcu_pct() <= 100.0);
        assert!(r.fits());
        assert!(["PCU", "PMU", "MC", "Shuffle"].contains(&r.limiting()));
    }

    #[test]
    fn minimum_one_of_each() {
        let cfg = CapstanConfig::default();
        let p = SpatialProgram::new("empty");
        let r = place(&p, &cfg);
        assert_eq!(r.pcus, 1);
        assert_eq!(r.pmus, 1);
        assert_eq!(r.mcs, 1);
    }
}
