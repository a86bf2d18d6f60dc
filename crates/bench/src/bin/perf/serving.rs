//! `serve-steady` and `serve-churn`: closed-loop clients against a
//! one-worker `Server`. Steady traffic re-reads eight warm cases through a
//! window of eight outstanding requests; churn keeps registering datasets
//! the server has never seen, one request outstanding.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use stardust_bench::{instantiate, Scale};
use stardust_core::pipeline::{CompiledKernel, Compiler, TensorData};
use stardust_core::CompileError;
use stardust_datasets as datasets;
use stardust_kernels::{self as kernels, merge_stats, stage_hints, Kernel};
use stardust_serve::{DatasetId, ProgramId, ServeConfig, Server, Ticket};
use stardust_spatial::interp::mix64;
use stardust_spatial::{DramImage, ExecStats, RunBudget};
use stardust_tensor::Format;

use crate::metrics::{median, steady, tail_percentile, Metrics};
use crate::oracle;
use crate::trace::{Span, Tracer, NO_PARENT};
use crate::{
    end_to_end_metrics, feed_forward, reconvert_ms, rss_kb, set_up_repeatedly, traced_pooled_stage,
    Checked, Outcome, Plan, Reference, Warm,
};

/// Which of the two serving workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Steady,
    Churn,
}

/// Kernels of the steady cases, most requested first (Zipf rank order).
const STEADY_KERNELS: [&str; 8] = [
    "SpMV",
    "Plus3",
    "SDDMM",
    "Residual",
    "TTV",
    "MTTKRP",
    "InnerProd",
    "Plus2",
];
/// Requests the steady client keeps outstanding.
const STEADY_WINDOW: usize = 8;
/// Churn: matrix dimension, density, live datasets per program, and how
/// many requests pass between two registrations.
const CHURN_DIM: usize = 192;
const CHURN_DENSITY: f64 = 0.05;
const CHURN_LIVE_PER_PROGRAM: usize = 4;
const CHURN_PERIOD: usize = 80;
const CHURN_KERNELS: [&str; 2] = ["SpMV", "Plus3"];
/// Both serving set-ups take tens of milliseconds.
const SETUP_REPEATS: usize = 25;

impl Traffic {
    /// Requests per nominal second of `--seconds` (see `table3::Mode::passes`).
    fn requests(self, seconds: u32) -> usize {
        let per_second = match self {
            Traffic::Steady => 6000,
            Traffic::Churn => 14 * CHURN_PERIOD,
        };
        per_second * seconds as usize
    }

    /// Requests per throughput sample. A steady chunk is long enough that
    /// its Zipf mix, and so its cost, varies by a percent; churn registers
    /// once per chunk.
    fn chunk(self) -> usize {
        match self {
            Traffic::Steady => 2000,
            Traffic::Churn => CHURN_PERIOD,
        }
    }

    /// Recorded traffic fingerprint at the default seed: every bound input
    /// word and the request order of the first nominal second.
    fn fingerprint(self) -> u64 {
        match self {
            Traffic::Steady => 0x246a_3b16_db13_21f9,
            Traffic::Churn => 0xb421_73f0_186a_b2fb,
        }
    }
}

/// splitmix64: the benchmark's own generator, so request order depends on
/// `--seed` and nothing else.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `len` case indices below `cases`, case `k` drawn with weight
/// `1/(k+1)` (Zipf, s = 1): repeated keys queue up behind each other, so
/// the server forms batches, which round-robin order never does.
pub fn zipf_sequence(seed: u64, cases: usize, len: usize) -> Vec<u8> {
    let weights: Vec<f64> = (1..=cases).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = SplitMix(seed);
    (0..len)
        .map(|_| {
            let mut u = rng.unit() * total;
            let mut pick = cases - 1;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    pick = k;
                    break;
                }
                u -= w;
            }
            pick as u8
        })
        .collect()
}

fn server_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_depth: 64,
        tenant_inflight: 32,
        batch_max: 8,
        // Generous fuel: no kernel aborts, every run takes the armed path.
        budget: RunBudget::default().with_max_steps(1_000_000_000),
        shards: 1,
    }
}

/// A serial fresh-machine run of `kernel`, checked against the
/// hand-written reference: what every served response must equal.
fn serial_reference(
    kernel_name: &str,
    kernel: &Kernel,
    inputs: &HashMap<String, TensorData>,
) -> Reference {
    let want = oracle::expected(kernel_name, inputs);
    let serial = kernel
        .run(inputs)
        .unwrap_or_else(|e| panic!("{kernel_name}: serial reference run failed: {e}"));
    let oracle_ok = oracle::check(&want, &serial.output)
        .map_err(|e| eprintln!("{kernel_name}: {e}"))
        .is_ok();
    Reference::new(&serial.output, serial.total_stats(), oracle_ok)
}

/// One registered (program, dataset) pair with its reference.
struct Case {
    /// Latency group: the case for steady, the program for churn.
    group: usize,
    kernel: Arc<Kernel>,
    inputs: HashMap<String, TensorData>,
    reference: Reference,
    handle: (ProgramId, DatasetId),
}

/// A submitted request the client has not waited for yet.
struct InFlight {
    op: u32,
    start: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// What the client learned from one answered request.
struct Answer {
    /// Client side: `submit` call to `Ticket::wait` return.
    ms: f64,
    /// Server side: `JobOutput::latency`.
    server_us: f64,
}

/// Samples of one measured phase.
struct Phase {
    /// Per group, each chunk's median client-side latency, milliseconds.
    by_group: Vec<Vec<f64>>,
    /// Every client-side latency, milliseconds.
    all_ms: Vec<f64>,
    /// `JobOutput::latency` per group, microseconds.
    server_us_by_group: Vec<Vec<f64>>,
    /// Seconds each chunk of requests took.
    chunk_seconds: Vec<f64>,
    attempted: u64,
    failed: u64,
    refused: u64,
}

/// The closed-loop client: submits, waits, checks every response bit for
/// bit outside the timed interval, and keeps the samples.
struct Client<'a> {
    server: &'a Server,
    tracer: Option<&'a mut Tracer>,
    phase: Phase,
    next_op: u32,
    chunk: usize,
    /// Steady throughput is requests over wall time (the client checks
    /// responses on the second core while the worker runs); churn has one
    /// request outstanding, so its time base is the time requests and
    /// registrations took, without the client's own work between them.
    wall_clock: bool,
    chunk_start: Instant,
    chunk_busy_ms: f64,
    chunk_done: usize,
    /// Client-side latencies of the current chunk, per group.
    chunk_ms: Vec<Vec<f64>>,
}

impl<'a> Client<'a> {
    fn new(
        server: &'a Server,
        tracer: Option<&'a mut Tracer>,
        traffic: Traffic,
        groups: usize,
        first_op: u32,
    ) -> Self {
        Client {
            server,
            tracer,
            phase: Phase {
                by_group: vec![Vec::new(); groups],
                all_ms: Vec::new(),
                server_us_by_group: vec![Vec::new(); groups],
                chunk_seconds: Vec::new(),
                attempted: 0,
                failed: 0,
                refused: 0,
            },
            next_op: first_op,
            chunk: traffic.chunk(),
            wall_clock: traffic == Traffic::Steady,
            chunk_start: Instant::now(),
            chunk_busy_ms: 0.0,
            chunk_done: 0,
            chunk_ms: vec![Vec::new(); groups],
        }
    }

    /// Submits one request; a typed refusal counts as a failed operation.
    fn submit(&mut self, case: &Case) -> Option<InFlight> {
        let op = self.next_op;
        self.next_op += 1;
        self.phase.attempted += 1;
        let start = Instant::now();
        let submitted = self.server.submit(0, case.handle.0, case.handle.1);
        let now = Instant::now();
        match submitted {
            Ok(ticket) => Some(InFlight {
                op,
                start,
                submitted: now,
                ticket,
            }),
            Err(e) => {
                eprintln!("request {op} refused: {e}");
                self.phase.refused += 1;
                self.phase.failed += 1;
                self.end_of_op(0.0);
                None
            }
        }
    }

    /// Waits for a response and checks it against the case's reference.
    fn finish(&mut self, request: InFlight, case: &Case) -> Option<Answer> {
        let wait_start = Instant::now();
        let response = request.ticket.wait();
        let done = Instant::now();
        let ms = (done - request.start).as_secs_f64() * 1e3;
        if let Some(t) = self.tracer.as_deref_mut() {
            let op = t.record(Span {
                name: "op",
                start_ns: t.at(request.start),
                end_ns: t.at(done),
                parent: NO_PARENT,
                op_id: request.op,
            });
            for (name, from, to) in [
                ("serve.submit", request.start, request.submitted),
                ("serve.wait", wait_start, done),
            ] {
                t.record(Span {
                    name,
                    start_ns: t.at(from),
                    end_ns: t.at(to),
                    parent: op,
                    op_id: request.op,
                });
            }
        }
        let answer = match response {
            Ok(job) => {
                let server_us = job.latency.as_secs_f64() * 1e6;
                let got = Checked::new(&job.output, job.stats);
                case.reference
                    .agrees(&got)
                    .then_some(Answer { ms, server_us })
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", request.op);
                None
            }
        };
        self.phase.failed += u64::from(answer.is_none());
        self.end_of_op(ms);
        answer
    }

    /// Keeps an answer as a latency sample of `group`.
    fn sample(&mut self, group: usize, answer: &Answer) {
        self.chunk_ms[group].push(answer.ms);
        self.phase.all_ms.push(answer.ms);
        self.phase.server_us_by_group[group].push(answer.server_us);
    }

    fn end_of_op(&mut self, busy_ms: f64) {
        self.chunk_busy_ms += busy_ms;
        self.chunk_done += 1;
        if self.chunk_done == self.chunk {
            let seconds = if self.wall_clock {
                self.chunk_start.elapsed().as_secs_f64()
            } else {
                self.chunk_busy_ms / 1e3
            };
            self.phase.chunk_seconds.push(seconds);
            for (kept, chunk) in self.phase.by_group.iter_mut().zip(&mut self.chunk_ms) {
                if !chunk.is_empty() {
                    kept.push(median(chunk));
                    chunk.clear();
                }
            }
            self.chunk_start = Instant::now();
            self.chunk_busy_ms = 0.0;
            self.chunk_done = 0;
        }
    }
}

/// Drives `sequence` (indices into `cases`) keeping `window` requests
/// outstanding.
fn drive_window(client: &mut Client<'_>, cases: &[Case], sequence: &[u8], window: usize) {
    let mut pending: VecDeque<(usize, InFlight)> = VecDeque::with_capacity(window);
    for &c in sequence {
        let c = usize::from(c);
        if let Some(request) = client.submit(&cases[c]) {
            pending.push_back((c, request));
        }
        if pending.len() >= window {
            let (c, request) = pending.pop_front().expect("window is full");
            if let Some(answer) = client.finish(request, &cases[c]) {
                client.sample(c, &answer);
            }
        }
    }
    for (c, request) in pending {
        if let Some(answer) = client.finish(request, &cases[c]) {
            client.sample(c, &answer);
        }
    }
}

/// The rolling working set of `serve-churn`.
struct Churn {
    seed: u64,
    programs: [(ProgramId, Arc<Kernel>); 2],
    live: [VecDeque<Case>; 2],
    /// A registered dataset nobody has requested yet, per program.
    unseen: [Option<Case>; 2],
    registered: u64,
    rng: SplitMix,
    /// First-request latencies, milliseconds.
    cold_ms: Vec<f64>,
    fingerprint: u64,
    /// Requests still folded into the fingerprint.
    fingerprint_left: usize,
    generate_ms: f64,
    from_coo_ms: f64,
}

impl Churn {
    /// Generates the next never-seen dataset for `program` and its checked
    /// reference; the caller registers it.
    fn generate(&mut self, program: usize) -> (HashMap<String, TensorData>, Reference) {
        let mut seed = self.seed;
        mix64(&mut seed, self.registered);
        self.registered += 1;
        let n = CHURN_DIM;
        let t = Instant::now();
        let matrix = datasets::random_matrix(n, n, CHURN_DENSITY, seed);
        let tensors = if program == 0 {
            vec![
                (
                    "x",
                    datasets::random_vector(n, seed ^ 1),
                    Format::dense_vec(),
                ),
                ("A", matrix, Format::csr()),
            ]
        } else {
            let rotated = [1, 2].map(|k| datasets::rotate_matrix_columns(&matrix, k));
            let [c, d] = rotated;
            vec![
                ("B", matrix, Format::csr()),
                ("C", c, Format::csr()),
                ("D", d, Format::csr()),
            ]
        };
        self.generate_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let inputs: HashMap<String, TensorData> = tensors
            .iter()
            .map(|(name, coo, format)| {
                (name.to_string(), TensorData::from_coo(coo, format.clone()))
            })
            .collect();
        self.from_coo_ms += t.elapsed().as_secs_f64() * 1e3;
        if self.fingerprint_left > 0 {
            oracle::fingerprint_inputs(&mut self.fingerprint, &inputs);
        }
        let reference =
            serial_reference(CHURN_KERNELS[program], &self.programs[program].1, &inputs);
        (inputs, reference)
    }

    fn register(&mut self, client: &mut Client<'_>, program: usize) {
        let (inputs, reference) = self.generate(program);
        let copy = inputs.clone();
        let t = Instant::now();
        let dataset = client.server.register_dataset(copy);
        let done = Instant::now();
        client.chunk_busy_ms += (done - t).as_secs_f64() * 1e3;
        if let Some(tr) = client.tracer.as_deref_mut() {
            tr.record(Span {
                name: "serve.register",
                start_ns: tr.at(t),
                end_ns: tr.at(done),
                parent: NO_PARENT,
                op_id: client.next_op,
            });
        }
        self.unseen[program] = Some(Case {
            group: program,
            kernel: Arc::clone(&self.programs[program].1),
            inputs,
            reference,
            handle: (self.programs[program].0, dataset),
        });
    }

    /// One request: to the program's unseen dataset if there is one (a
    /// cold operation: stage-plan compile and image build on the request
    /// path), else to a live one drawn uniformly.
    fn request(&mut self, client: &mut Client<'_>, program: usize) {
        let fold = |h: &mut u64, left: &mut usize, v: u64| {
            if *left > 0 {
                mix64(h, v);
                *left -= 1;
            }
        };
        if let Some(case) = self.unseen[program].take() {
            fold(&mut self.fingerprint, &mut self.fingerprint_left, u64::MAX);
            let answer = client.submit(&case).and_then(|r| client.finish(r, &case));
            // A cold request is not a sample of the program's warm latency.
            if let Some(a) = answer {
                self.cold_ms.push(a.ms);
            }
            self.live[program].push_back(case);
            if self.live[program].len() > CHURN_LIVE_PER_PROGRAM {
                self.live[program].pop_front();
            }
        } else {
            let pick = self.rng.below(self.live[program].len());
            fold(
                &mut self.fingerprint,
                &mut self.fingerprint_left,
                pick as u64,
            );
            let case = &self.live[program][pick];
            if let Some(answer) = client.submit(case).and_then(|r| client.finish(r, case)) {
                client.sample(program, &answer);
            }
        }
    }

    /// `requests` alternating-program requests, one outstanding, with a
    /// registration in the middle of every period.
    fn drive(&mut self, client: &mut Client<'_>, requests: usize) {
        for i in 0..requests {
            if i % CHURN_PERIOD == CHURN_PERIOD / 2 {
                self.register(client, (i / CHURN_PERIOD) % 2);
            }
            self.request(client, i % 2);
        }
    }
}

/// One pinned stage of the bench-side direct loop (what `serve` calls a
/// stage plan).
struct DirectStage {
    compiled: CompiledKernel,
    image: Arc<DramImage>,
}

/// Compiles and pins every stage of `kernel` on `inputs`, sizing later
/// stages from the real intermediates as the server's plan builder does.
fn pin_stages(
    kernel: &Kernel,
    inputs: &HashMap<String, TensorData>,
    warm: &Warm,
) -> Result<Vec<DirectStage>, CompileError> {
    let mut available = inputs.clone();
    let mut stages = Vec::with_capacity(kernel.stages.len());
    for (i, stage) in kernel.stages.iter().enumerate() {
        let hints = stage_hints(stage, &available)?;
        let compiled =
            Compiler::compile_cached(&stage.program, &stage.stmt, hints, &warm.programs)?;
        let image = warm.images.get_or_build(&compiled, &available)?;
        if i + 1 < kernel.stages.len() {
            feed_forward(
                &mut available,
                stage,
                &compiled.execute_image(&image)?.output,
            );
        }
        stages.push(DirectStage { compiled, image });
    }
    Ok(stages)
}

/// The server's per-job stage loop, called directly: pooled checkout and
/// bind, budgeted run, read-back, per pinned stage.
fn direct_op(
    t: &mut Tracer,
    stages: &[DirectStage],
    warm: &Warm,
    budget: &RunBudget,
) -> Result<Checked, CompileError> {
    let op = t.open("direct.op");
    let result = (|| {
        let mut total = ExecStats::default();
        let mut output = None;
        for stage in stages {
            let run = traced_pooled_stage(t, &stage.compiled, &stage.image, &warm.pool, budget)?;
            merge_stats(&mut total, &run.stats);
            output = Some(run.output);
        }
        Ok(Checked::new(&output.expect("a kernel has stages"), total))
    })();
    t.close(op);
    result
}

/// The server alone against the direct stage loop: each of `picks`
/// (indices into `cases`) goes through the server with nothing else
/// outstanding and at once through the bench-side loop, so both meet the
/// same stretches of a shared box. `client` keeps the served samples;
/// returns the direct loop's operation times per group in microseconds
/// and how many of its operations failed or disagreed with their reference.
fn alone_and_direct(
    client: &mut Client<'_>,
    t: &mut Tracer,
    cases: &[&Case],
    picks: &[usize],
    first_op: u32,
) -> (Vec<Vec<f64>>, u64) {
    let warm = Warm::default();
    let budget = server_config().budget;
    let pinned: Vec<Vec<DirectStage>> = cases
        .iter()
        .map(|c| {
            pin_stages(&c.kernel, &c.inputs, &warm)
                .unwrap_or_else(|e| panic!("direct loop: pinning stages failed: {e}"))
        })
        .collect();
    let mut direct_us = vec![Vec::new(); client.phase.by_group.len()];
    let mut failed = 0;
    for (i, &c) in picks.iter().enumerate() {
        let case = cases[c];
        if let Some(answer) = client.submit(case).and_then(|r| client.finish(r, case)) {
            client.sample(case.group, &answer);
        }
        t.set_op(first_op + i as u32);
        let start = t.now_ns();
        let result = direct_op(t, &pinned[c], &warm, &budget);
        direct_us[case.group].push((t.now_ns() - start) as f64 / 1e3);
        let ok = result.is_ok_and(|got| case.reference.agrees(&got));
        failed += u64::from(!ok);
    }
    (direct_us, failed)
}

/// `serve.overhead_us`: per group, the median of the server's own latency
/// with one request outstanding minus the median of the direct stage loop
/// over the same cases, weighted by the group's share of the requests.
/// Medians of single requests, whose tail is long; the two sides were
/// measured interleaved, so a slow stretch of the box is in both.
fn overhead_us(served_us: &[Vec<f64>], direct_us: &[Vec<f64>]) -> f64 {
    let total: usize = served_us.iter().map(Vec::len).sum();
    served_us
        .iter()
        .zip(direct_us)
        .filter(|(served, direct)| !served.is_empty() && !direct.is_empty())
        .map(|(served, direct)| {
            (median(served) - median(direct)) * served.len() as f64 / total as f64
        })
        .sum()
}

/// Everything a set-up leaves behind.
struct Setup {
    server: Server,
    /// Steady: the eight cases. Churn: empty (the working set rolls).
    cases: Vec<Case>,
    churn: Option<Churn>,
    seconds: f64,
    generate_ms: f64,
    from_coo_ms: f64,
    fingerprint: u64,
}

fn warm_up(server: &Server, case: &Case) {
    let job = server
        .submit(0, case.handle.0, case.handle.1)
        .expect("warm-up request admitted")
        .wait()
        .expect("warm-up request completes");
    assert!(
        case.reference.agrees(&Checked::new(&job.output, job.stats)),
        "warm-up response differs from the serial reference"
    );
}

fn set_up_steady() -> Setup {
    let t0 = Instant::now();
    let scale = Scale::ci();
    let sets: Vec<_> = STEADY_KERNELS
        .iter()
        .map(|name| {
            let (kernel, set) = instantiate(name, &scale).swap_remove(0);
            (*name, kernel, set)
        })
        .collect();
    let instantiate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let server = Server::start(server_config());
    let mut fingerprint = 0u64;
    let cases: Vec<Case> = sets
        .into_iter()
        .enumerate()
        .map(|(group, (name, kernel, set))| {
            oracle::fingerprint_inputs(&mut fingerprint, &set.inputs);
            let reference = serial_reference(name, &kernel, &set.inputs);
            let handle = (
                server.register_program(kernel.clone()),
                server.register_dataset(set.inputs.clone()),
            );
            let case = Case {
                group,
                kernel: Arc::new(kernel),
                inputs: set.inputs,
                reference,
                handle,
            };
            warm_up(&server, &case);
            case
        })
        .collect();
    let seconds = t0.elapsed().as_secs_f64();
    let from_coo_ms = reconvert_ms(cases.iter().map(|c| &c.inputs));
    Setup {
        server,
        cases,
        churn: None,
        seconds,
        generate_ms: instantiate_ms - from_coo_ms,
        from_coo_ms,
        fingerprint,
    }
}

fn set_up_churn(plan: &Plan) -> Setup {
    let t0 = Instant::now();
    let server = Server::start(server_config());
    let kernels = [kernels::spmv(CHURN_DIM), kernels::plus3(CHURN_DIM)];
    let programs = kernels.map(|k| (server.register_program(k.clone()), Arc::new(k)));
    let mut churn = Churn {
        seed: plan.seed,
        programs,
        live: [VecDeque::new(), VecDeque::new()],
        unseen: [None, None],
        registered: 0,
        rng: SplitMix(plan.seed),
        cold_ms: Vec::new(),
        fingerprint: 0,
        fingerprint_left: Traffic::Churn.requests(1),
        generate_ms: 0.0,
        from_coo_ms: 0.0,
    };
    for i in 0..2 * CHURN_LIVE_PER_PROGRAM {
        let program = i % 2;
        let (inputs, reference) = churn.generate(program);
        let case = Case {
            group: program,
            kernel: Arc::clone(&churn.programs[program].1),
            handle: (
                churn.programs[program].0,
                server.register_dataset(inputs.clone()),
            ),
            inputs,
            reference,
        };
        warm_up(&server, &case);
        churn.live[program].push_back(case);
    }
    Setup {
        server,
        cases: Vec::new(),
        generate_ms: churn.generate_ms,
        from_coo_ms: churn.from_coo_ms,
        fingerprint: 0,
        churn: Some(churn),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

pub fn run(traffic: Traffic, plan: &Plan) -> Outcome {
    let (setup, setup_s) = set_up_repeatedly(
        SETUP_REPEATS,
        || match traffic {
            Traffic::Steady => set_up_steady(),
            Traffic::Churn => set_up_churn(plan),
        },
        |s| s.seconds,
    );
    let Setup {
        server,
        cases,
        mut churn,
        generate_ms,
        from_coo_ms,
        mut fingerprint,
        ..
    } = setup;

    let requests = traffic.requests(plan.seconds);
    let chunk = traffic.chunk();
    let groups = match traffic {
        Traffic::Steady => cases.len(),
        Traffic::Churn => CHURN_KERNELS.len(),
    };
    // One seeded sequence for the whole run; each phase takes the next
    // slice, so the traced phases see fresh but identically drawn traffic.
    let sequence = match traffic {
        Traffic::Steady => zipf_sequence(plan.seed, cases.len(), requests * 2),
        Traffic::Churn => Vec::new(),
    };
    let prefix = &sequence[..sequence.len().min(Traffic::Steady.requests(1))];
    prefix
        .iter()
        .for_each(|&c| mix64(&mut fingerprint, u64::from(c)));

    let rss_before = rss_kb("VmRSS");
    let mut client = Client::new(&server, None, traffic, groups, 0);
    match churn.as_mut() {
        None => drive_window(&mut client, &cases, &sequence[..requests], STEADY_WINDOW),
        Some(churn) => churn.drive(&mut client, requests),
    }
    let untraced = client.phase;
    let rss_after = rss_kb("VmRSS");
    // Churn folded its own: datasets and picks as they were drawn.
    let fingerprint = churn.as_ref().map_or(fingerprint, |c| c.fingerprint);
    let mut outcome = Outcome {
        attempted: untraced.attempted,
        failed: untraced.failed,
        fingerprint,
        fingerprint_expected: (plan.seed == crate::DEFAULT_SEED).then_some(traffic.fingerprint()),
        metrics: Metrics::default(),
        notes: vec![format!(
            "{requests} requests, {} answered and checked, {} refused",
            untraced.attempted - untraced.failed,
            untraced.refused
        )],
    };
    let ops_per_s = chunk as f64 / steady(&untraced.chunk_seconds);
    if !plan.trace {
        end_to_end_metrics(
            &mut outcome.metrics,
            ops_per_s,
            &untraced.by_group,
            &setup_s,
        );
        return outcome;
    }

    // Traced phase A: the same traffic with client-side spans.
    let mut t = Tracer::new();
    let traced_requests = (requests / 4).next_multiple_of(chunk);
    let mut client = Client::new(&server, Some(&mut t), traffic, groups, 0);
    match churn.as_mut() {
        None => drive_window(
            &mut client,
            &cases,
            &sequence[requests..requests + traced_requests],
            STEADY_WINDOW,
        ),
        Some(churn) => churn.drive(&mut client, traced_requests),
    }
    let traced = client.phase;

    // Phase B: the server alone (one request outstanding) interleaved with
    // the direct stage loop over the same cases.
    let direct_requests = (requests / 8).next_multiple_of(chunk);
    let direct_cases: Vec<&Case> = match &churn {
        None => cases.iter().collect(),
        Some(churn) => churn.live.iter().flatten().collect(),
    };
    let picks: Vec<usize> = match traffic {
        Traffic::Steady => (sequence[sequence.len() - direct_requests..].iter())
            .map(|&c| usize::from(c))
            .collect(),
        Traffic::Churn => {
            let mut rng = SplitMix(plan.seed ^ 0xd1ec7);
            // Live cases are listed program 0 first; alternate programs.
            (0..direct_requests)
                .map(|i| (i % 2) * CHURN_LIVE_PER_PROGRAM + rng.below(CHURN_LIVE_PER_PROGRAM))
                .collect()
        }
    };
    let mut client = Client::new(&server, None, traffic, groups, 0);
    let (direct_us, direct_failed) = alone_and_direct(
        &mut client,
        &mut t,
        &direct_cases,
        &picks,
        traced_requests as u32,
    );
    let alone = client.phase;

    let stats = server.shutdown();
    outcome.attempted += traced.attempted + alone.attempted + picks.len() as u64;
    outcome.failed += traced.failed + alone.failed + direct_failed;

    let m = &mut outcome.metrics;
    let chunk_u32 = chunk as u32;
    m.set_opt("serve.submit_us", t.per_op_us("serve.submit", chunk_u32));
    m.set_opt("serve.wait_us", t.per_op_us("serve.wait", chunk_u32));
    m.set_opt("serve.register_us", t.median_us("serve.register"));
    for (metric, span) in [
        ("core.checkout_bind_us", "core.checkout_bind"),
        ("spatial.run_us", "spatial.run"),
        ("core.read_output_us", "core.read_output"),
    ] {
        m.set_opt(metric, t.per_op_us(span, chunk_u32));
    }
    m.set_opt("spatial.run.ns_per_trip", t.run_ns_per_trip());
    m.set(
        "serve.overhead_us",
        overhead_us(&alone.server_us_by_group, &direct_us),
    );
    m.set_opt(
        "serve.latency_ms_p99",
        tail_percentile(&untraced.all_ms, 0.99),
    );
    if let Some(churn) = &churn {
        m.set("serve.cold_op_ms_p50", median(&churn.cold_ms));
        let new_datasets = (requests / CHURN_PERIOD) as f64;
        m.set(
            "serve.rss_kb_per_dataset",
            (rss_after - rss_before) / new_datasets,
        );
    }
    m.set(
        "serve.batch_mean",
        stats.completed as f64 / stats.batches as f64,
    );
    m.set("serve.batch_peak", stats.batch_peak as f64);
    m.set(
        "serve.refused",
        (stats.rejected_queue_full + stats.rejected_tenant_cap) as f64,
    );
    m.set("serve.retried", stats.retried as f64);
    m.set("serve.image_builds", stats.image_builds as f64);
    m.set("serve.working_sets", stats.working_sets as f64);
    m.set("spatial.pool.created", stats.pool.stats.created as f64);
    m.set("spatial.pool.reused", stats.pool.stats.reused as f64);
    m.set(
        "spatial.pool.quarantined",
        stats.pool.stats.quarantined as f64,
    );
    m.set("datasets.generate_ms", generate_ms);
    m.set("tensor.from_coo_ms", from_coo_ms);
    m.set(
        "bench.trace_overhead_pct",
        (ops_per_s * steady(&traced.chunk_seconds) / chunk as f64 - 1.0) * 100.0,
    );
    outcome.notes.push(format!(
        "traced: {traced_requests} requests with client spans, {direct_requests} alone interleaved \
         with the direct stage loop; serve.latency_ms_p99 over {} samples",
        untraced.all_ms.len()
    ));
    outcome.notes.push(crate::write_trace(&t, plan));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sequence_is_a_function_of_its_seed() {
        let a = zipf_sequence(7, 8, 4000);
        assert_eq!(a, zipf_sequence(7, 8, 4000));
        assert_ne!(a, zipf_sequence(8, 8, 4000));
        // A longer draw extends a shorter one: phases slice one sequence.
        assert_eq!(a[..1000], zipf_sequence(7, 8, 1000)[..]);
    }

    #[test]
    fn zipf_sequence_is_skewed_towards_low_ranks() {
        let seq = zipf_sequence(1, 8, 80_000);
        let mut counts = [0usize; 8];
        seq.iter().for_each(|&c| counts[usize::from(c)] += 1);
        // Weights 1/k over H_8 = 2.7179: rank 1 draws 36.8 %, rank 8 4.6 %.
        let share = |k: usize| counts[k] as f64 / seq.len() as f64;
        assert!((share(0) - 0.368).abs() < 0.01, "rank 1: {}", share(0));
        assert!((share(7) - 0.046).abs() < 0.005, "rank 8: {}", share(7));
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }

    #[test]
    fn overhead_weighs_groups_by_their_requests() {
        let served = vec![vec![110.0, 110.0, 500.0], vec![1030.0], Vec::new()];
        let direct = vec![vec![90.0, 100.0, 400.0], vec![1000.0], vec![5.0]];
        // Medians differ by 10 on 3 requests and by 30 on 1: (10 * 3 + 30 * 1) / 4
        assert!((overhead_us(&served, &direct) - 15.0).abs() < 1e-12);
    }
}
