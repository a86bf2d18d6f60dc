//! `perf`: the end-to-end + per-layer ledger for compiler-produced Table-3
//! kernels. One workload per process; every output is checked; every
//! metric is printed by name with its unit. See `README.md` beside this
//! file for the workload and metric tables.
//!
//! Usage:
//! `perf --workload <name> [--seed N] [--seconds S] [--trace [0|1]]`,
//! `perf --all [--trace]`, `perf --check-repeat [--workload <name>]`.

mod metrics;
mod oracle;
mod serving;
mod table3;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use stardust_core::pipeline::{CompiledKernel, ImageCache, KernelOutput, KernelRun, TensorData};
use stardust_core::CompileError;
use stardust_kernels::Stage;
use stardust_spatial::{DramImage, ExecStats, MachinePool, ProgramCache, RunBudget};
use stardust_tensor::SparseTensor;

use metrics::{geomean_by_group, median, steady_by_group, Metrics};

/// Workload names, in ledger order. Later issues cite them.
pub const WORKLOADS: [&str; 4] = ["compile-sweep", "warm-run", "serve-steady", "serve-churn"];
/// `--seed` only moves the serve request order and the churn matrices.
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 16;

/// What one run was asked to do.
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    /// `None` when the traffic depends on a non-default `--seed`.
    pub fingerprint_expected: Option<u64>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// A result in the form it is compared in: stored output words and the
/// interpreter's event counts.
pub struct Checked {
    bits: Vec<u64>,
    pub stats: ExecStats,
}

impl Checked {
    pub fn new(output: &KernelOutput, stats: ExecStats) -> Self {
        Checked {
            bits: oracle::output_bits(output),
            stats,
        }
    }
}

/// A row's checked result. Every measured operation must reproduce it bit
/// for bit; `oracle_ok` records that it agreed with the hand-written
/// reference at 1e-9, and a row whose reference did not can only fail.
pub struct Reference {
    pub run: Checked,
    oracle_ok: bool,
}

impl Reference {
    pub fn new(output: &KernelOutput, stats: ExecStats, oracle_ok: bool) -> Self {
        Reference {
            run: Checked::new(output, stats),
            oracle_ok,
        }
    }

    pub fn agrees(&self, got: &Checked) -> bool {
        self.oracle_ok && self.run.bits == got.bits && self.run.stats == got.stats
    }
}

/// The caches and pool a warm pooled run serves from.
#[derive(Default)]
pub struct Warm {
    pub programs: ProgramCache,
    pub images: ImageCache,
    pub pool: MachinePool,
}

/// Makes a stage's tensor output an input of the stages after it, as
/// `Kernel::run` does.
pub fn feed_forward(
    available: &mut HashMap<String, TensorData>,
    stage: &Stage,
    output: &KernelOutput,
) {
    if let KernelOutput::Tensor(out) = output {
        let name = stage.program.output().to_string();
        available.insert(name, TensorData::Sparse(out.clone()));
    }
}

/// One stage on a pooled machine, as `execute_image_pooled_budgeted` runs
/// it, with a span per layer call. `core.checkout_bind` covers both halves
/// of the pool round trip: checkout + image bind, and the check-in that
/// scrubs the machine.
pub fn traced_pooled_stage(
    t: &mut trace::Tracer,
    compiled: &CompiledKernel,
    image: &DramImage,
    pool: &MachinePool,
    budget: &RunBudget,
) -> Result<KernelRun, CompileError> {
    let mut machine = t.leaf("core.checkout_bind", || {
        compiled.bind_image_pooled(image, pool).map(|mut m| {
            m.set_budget(budget.clone());
            m
        })
    })?;
    let stats = t
        .run_span(|| machine.run(compiled.spatial()))
        .map_err(CompileError::Execution)?;
    let output = t.leaf("core.read_output", || compiled.read_output(&machine))?;
    t.leaf("core.checkout_bind", || drop(machine));
    Ok(KernelRun { output, stats })
}

/// Re-times the format conversion a set-up did, from the packed tensors'
/// own coordinate lists: `tensor.from_coo_ms`.
pub fn reconvert_ms<'a>(inputs: impl Iterator<Item = &'a HashMap<String, TensorData>>) -> f64 {
    let mut ms = 0.0;
    for data in inputs.flat_map(HashMap::values) {
        if let TensorData::Sparse(packed) = data {
            let coo = packed.to_coo();
            let t = Instant::now();
            std::hint::black_box(SparseTensor::from_coo(&coo, packed.format().clone()));
            ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    ms
}

/// A `/proc/self/status` field in kB (`VmHWM`: peak resident set).
pub fn rss_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// Sets up `repeats` times, keeping only the last set-up alive, and
/// returns it with the duration of each: `setup_s` is their median, so
/// cheap set-ups repeat more often.
pub fn set_up_repeatedly<S>(
    repeats: usize,
    mut set_up: impl FnMut() -> S,
    seconds: impl Fn(&S) -> f64,
) -> (S, Vec<f64>) {
    let mut durations = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        // The previous set-up (its caches, pool or server) goes first.
        drop(last.take());
        let setup = set_up();
        durations.push(seconds(&setup));
        last = Some(setup);
    }
    (last.expect("at least one set-up"), durations)
}

/// Fills in the end-to-end metrics from an untraced phase: `by_group`
/// holds, per row or case, one operation time in milliseconds per pass or
/// chunk. Each group's time is its [`metrics::steady`] sample; `op_ms_p50`
/// is the median group (the pooled median of a mix of fast and slow rows
/// sits in the gap between two of them and jumps from run to run) and
/// `geomean_op_ms` the geometric mean over groups.
pub fn end_to_end_metrics(m: &mut Metrics, ops_per_s: f64, by_group: &[Vec<f64>], setup_s: &[f64]) {
    m.set("ops_per_s", ops_per_s);
    m.set("op_ms_p50", median(&steady_by_group(by_group)));
    m.set("geomean_op_ms", geomean_by_group(by_group));
    m.set("peak_rss_mb", rss_kb("VmHWM") / 1024.0);
    m.set("setup_s", median(setup_s));
}

/// Writes the trace under the build directory and says where.
pub fn write_trace(t: &trace::Tracer, plan: &Plan) -> String {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let path = target
        .join("perf")
        .join(format!("trace-{}.json", plan.workload));
    match t.write_json(&path) {
        Ok(()) => format!("trace written to {}", path.display()),
        Err(e) => format!("trace not written to {}: {e}", path.display()),
    }
}

fn run_workload(plan: &Plan) -> Outcome {
    match plan.workload.as_str() {
        "compile-sweep" => table3::run(table3::Mode::CompileSweep, plan),
        "warm-run" => table3::run(table3::Mode::WarmRun, plan),
        "serve-steady" => serving::run(serving::Traffic::Steady, plan),
        "serve-churn" => serving::run(serving::Traffic::Churn, plan),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Prints the metric table, then the contract's one-line JSON result.
/// Returns whether the run was correct.
fn report(plan: &Plan, outcome: &Outcome) -> bool {
    let defs = if plan.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    outcome.metrics.assert_declared(&defs);
    let fingerprint_ok = outcome
        .fingerprint_expected
        .is_none_or(|want| want == outcome.fingerprint);
    let correct = outcome.failed == 0 && fingerprint_ok;

    println!(
        "workload {} seed {} seconds {} trace {}",
        plan.workload,
        plan.seed,
        plan.seconds,
        u8::from(plan.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    match outcome.fingerprint_expected {
        Some(want) if want != outcome.fingerprint => println!(
            "  input fingerprint {:#018x} DIFFERS from the recorded {want:#018x}: \
             the traffic changed",
            outcome.fingerprint
        ),
        Some(_) => println!(
            "  input fingerprint {:#018x} (as recorded)",
            outcome.fingerprint
        ),
        None => println!(
            "  input fingerprint {:#018x} (not checked: seeded traffic)",
            outcome.fingerprint
        ),
    }
    println!(
        "  fail_share {} of {} operations",
        outcome.failed, outcome.attempted
    );
    for d in &defs {
        let value = outcome
            .metrics
            .get(&d.name)
            .map_or("-".to_string(), |v| format!("{v:.4}"));
        let bound = d.bound.map_or(String::new(), |b| {
            format!("  [may worsen {:.0} %]", b * 100.0)
        });
        println!("  {:<40} {value:>16} {}{bound}", d.name, d.unit);
    }

    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            // A metric this workload does not exercise reads 0.
            let v = outcome.metrics.get(&d.name).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    correct
}

/// Runs this binary again as `perf --workload <w> --trace <t>` and returns
/// the metrics of its result line. One workload per process keeps peak
/// memory attributable.
fn run_child(workload: &str, trace: bool, show: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if show {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}\n{}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("no result line")?;
    let doc = stardust_bench::json::parse(line).map_err(|e| e.to_string())?;
    let Some(stardust_bench::json::Value::Obj(fields)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(|v| v.as_num());
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect()
}

/// Two sets of runs of the same code must agree: end-to-end medians of
/// three within each metric's bound, exact per-layer metrics identical.
fn check_repeat(workloads: &[&str]) -> Result<(), String> {
    let e2e = metrics::end_to_end();
    let layer = metrics::per_layer();
    let mut disagreements = Vec::new();
    for workload in workloads {
        let mut medians: Vec<Vec<(String, f64)>> = Vec::new();
        let mut exact: Vec<Vec<(String, f64)>> = Vec::new();
        for set in 0..2 {
            let mut runs = Vec::new();
            for run in 0..3 {
                eprintln!("{workload}: set {set}, run {run}");
                runs.push(run_child(workload, false, false)?);
            }
            medians.push(
                e2e.iter()
                    .map(|d| {
                        let values: Vec<f64> = runs
                            .iter()
                            .filter_map(|r| r.iter().find(|(n, _)| n == &d.name).map(|(_, v)| *v))
                            .collect();
                        (d.name.clone(), median(&values))
                    })
                    .collect(),
            );
            eprintln!("{workload}: set {set}, traced run");
            exact.push(run_child(workload, true, false)?);
        }
        println!("{workload}");
        for (d, ((_, a), (_, b))) in e2e.iter().zip(medians[0].iter().zip(&medians[1])) {
            let worse = match d.better {
                metrics::Better::Lower => b / a - 1.0,
                metrics::Better::Higher => a / b - 1.0,
            };
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let verdict = if worse.abs() > bound {
                "DISAGREE"
            } else {
                "ok"
            };
            println!(
                "  {:<40} {a:>14.4} {b:>14.4} {}  {:+.2} % of {:.0} %  {verdict}",
                d.name,
                d.unit,
                worse * 100.0,
                bound * 100.0
            );
            if worse.abs() > bound {
                disagreements.push(format!("{workload}: {}", d.name));
            }
        }
        for d in layer.iter().filter(|d| d.exact) {
            let of = |set: &[(String, f64)]| {
                let (_, v) = set.iter().find(|(n, _)| n == &d.name)?;
                Some(*v)
            };
            let (a, b) = (of(&exact[0]), of(&exact[1]));
            // 0 on both sides: the workload does not exercise the metric.
            if a == Some(0.0) && b == Some(0.0) {
                continue;
            }
            let same = a.map(f64::to_bits) == b.map(f64::to_bits);
            let shown = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            println!(
                "  {:<40} {:>14} {:>14} {}  exact  {}",
                d.name,
                shown(a),
                shown(b),
                d.unit,
                if same { "ok" } else { "DISAGREE" }
            );
            if !same {
                disagreements.push(format!("{workload}: {}", d.name));
            }
        }
    }
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!("runs disagree on: {}", disagreements.join(", ")))
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace [0|1]]\n       \
         perf --all [--trace]\n       perf --check-repeat [--workload <name>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).filter(|v| !v.starts_with("--"))
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let workload = value_of("--workload").cloned();
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            eprintln!("unknown workload {w}");
            return usage();
        }
    }
    let trace = has("--trace") && value_of("--trace").is_none_or(|v| v != "0");

    if has("--check-repeat") {
        let chosen: Vec<&str> = match &workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.to_vec(),
        };
        return match check_repeat(&chosen) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    if has("--all") {
        for w in WORKLOADS {
            if let Err(e) = run_child(w, trace, true) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let Some(workload) = workload else {
        return usage();
    };
    let number = |flag: &str, default: u64| match value_of(flag) {
        None => Some(default),
        Some(v) => v.parse::<u64>().ok(),
    };
    let (Some(seed), Some(seconds)) = (
        number("--seed", DEFAULT_SEED),
        number("--seconds", u64::from(DEFAULT_SECONDS)),
    ) else {
        return usage();
    };
    if !(1..=60).contains(&seconds) {
        eprintln!("--seconds must be between 1 and 60");
        return usage();
    }
    let plan = Plan {
        workload,
        seed,
        seconds: seconds as u32,
        trace,
    };
    let outcome = run_workload(&plan);
    if report(&plan, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
