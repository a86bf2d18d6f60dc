//! A sampling profile of the `warm-run` rows: every 100 µs of wall time
//! a `SIGALRM` records where the process is, and one `addr2line` call
//! names the samples afterwards.
//!
//! ```sh
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!     cargo run --release --offline -p stardust-bench --example profile -- all --seconds 5
//! ```
//!
//! The first argument picks the rows: `all`, or a substring of
//! `Kernel/dataset` (`Plus2`, `SDDMM/bcsstk30`). Each pass runs every
//! picked row once through `Kernel::run_pooled` with every cache warm,
//! as `perf --workload warm-run` does. Line tables let `addr2line -i`
//! name the functions inlined at each sample; without them a sample is
//! charged to its enclosing symbol. A sample inside a shared library
//! (`memcpy`, `round`) is charged to its caller, read from the return
//! address at the stack pointer. The report lists the top frames and
//! the shares of the buckets below. Sampling needs x86_64 Linux; on any
//! other target the example says so and exits.

use std::time::{Duration, Instant};

use stardust_bench::{instantiate, Scale, KERNEL_NAMES};
use stardust_core::pipeline::{ImageCache, TensorData};
use stardust_kernels::Kernel;
use stardust_spatial::{MachinePool, ProgramCache};

/// The `warm-run` scale of the `perf` benchmark.
const WARM_RUN: Scale = Scale {
    suite: 24,
    random_matrix_dim: 300,
    random_tensor_dim: 64,
    facebook: 96,
    rank: 16,
};

/// Where a sample's time goes: the bucket of the innermost frame of its
/// inline chain whose function name starts with one of the bucket's
/// prefixes; `other` when none does.
const BUCKETS: [(&str, &[&str]); 8] = [
    (
        "plan",
        &[
            "lane_plan",
            "scan_plan",
            "reduce_plan",
            "seg_plan",
            "resolve_plan",
            "give_plan",
        ],
    ),
    ("genbv", &["do_gen_bit_vector", "set_coordinate_bits"]),
    (
        "emit",
        &[
            "fill_scan_lanes",
            "eval_lanes",
            "scan_chunks",
            "scan2_skip",
            "words2",
        ],
    ),
    ("fifo", &["fifo_", "do_stream_store", "do_enq", "deq_value"]),
    ("load", &["do_load"]),
    ("alloc", &["do_alloc", "reserve_words", "reserve_bits"]),
    (
        "dispatch",
        &[
            "exec_simple_op",
            "operand_value",
            "eval_ops",
            "run_simple_body",
            "run_range_simple",
            "run_scan2_simple",
        ],
    ),
    ("readout", &["read_output"]),
];

/// One row of the `warm-run` matrix.
struct Row {
    label: String,
    kernel: Kernel,
    inputs: std::collections::HashMap<String, TensorData>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|at| args.get(at + 1)?.parse::<f64>().ok())
        .unwrap_or(5.0);
    let pick = args
        .iter()
        .enumerate()
        .find(|&(at, a)| !a.starts_with("--") && (at == 0 || args[at - 1] != "--seconds"))
        .map_or("all", |(_, a)| a.as_str());
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        println!("profile: SIGALRM sampling is implemented for x86_64 Linux only; nothing run");
        return;
    }
    let rows: Vec<Row> = KERNEL_NAMES
        .into_iter()
        .flat_map(|name| {
            instantiate(name, &WARM_RUN)
                .into_iter()
                .map(move |(kernel, set)| Row {
                    label: format!("{name}/{}", set.dataset),
                    kernel,
                    inputs: set.inputs,
                })
        })
        .filter(|row| pick == "all" || row.label.contains(pick))
        .collect();
    if rows.is_empty() {
        eprintln!("profile: no row matches {pick:?}");
        std::process::exit(2);
    }
    let (programs, images, pool) = (
        ProgramCache::default(),
        ImageCache::default(),
        MachinePool::default(),
    );
    let pass = || {
        for row in &rows {
            row.kernel
                .run_pooled(&row.inputs, &programs, &images, &pool)
                .unwrap_or_else(|e| panic!("{}: {e}", row.label));
        }
    };
    pass(); // warms every cache, unsampled
    let budget = Duration::from_secs_f64(seconds);
    sampler::start(100);
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed() < budget {
        pass();
        passes += 1;
    }
    let wall = t0.elapsed();
    let (samples, lost) = sampler::stop();
    println!(
        "profile: {} row(s) matching {pick:?}, {passes} pass(es) in {:.2} s ({:.3} ms per pass)",
        rows.len(),
        wall.as_secs_f64(),
        wall.as_secs_f64() * 1e3 / f64::from(passes)
    );
    report(&samples, lost);
}

/// Charges each sample to an address of this executable, names every
/// address with one `addr2line` call, and prints the top frames and the
/// bucket shares.
fn report(samples: &[(u64, u64)], lost: usize) {
    let image = symbols::Image::of_current_exe();
    let mut charged: Vec<u64> = Vec::with_capacity(samples.len());
    let (mut to_caller, mut outside) = (0usize, 0usize);
    for &(rip, ret) in samples {
        if image.contains(rip) {
            charged.push(image.elf_addr(rip));
        } else if image.contains(ret) {
            // Back one byte, into the call instruction's inline chain.
            charged.push(image.elf_addr(ret) - 1);
            to_caller += 1;
        } else {
            outside += 1;
        }
    }
    let chains = symbols::inline_chains(&image.path, &charged);
    let total = charged.len().max(1) as f64;
    println!(
        "samples: {} named, {to_caller} of them charged to their caller; {outside} outside \
         the executable, {lost} past the buffer",
        charged.len()
    );
    let mut frames = std::collections::HashMap::<String, usize>::new();
    let mut buckets = [0usize; BUCKETS.len() + 1];
    for addr in &charged {
        let chain = chains.get(addr).map_or(&[][..], Vec::as_slice);
        let short: Vec<&str> = chain.iter().take(2).map(|f| short_name(f)).collect();
        *frames.entry(short.join(" in ")).or_default() += 1;
        buckets[bucket_of(chain)] += 1;
    }
    println!("buckets:");
    for (k, &n) in buckets.iter().enumerate() {
        let name = BUCKETS.get(k).map_or("other", |b| b.0);
        println!("  {name:<9} {:>6.1} %", 100.0 * n as f64 / total);
    }
    let mut top: Vec<(String, usize)> = frames.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("top frames (innermost, in its caller):");
    for (name, n) in top.iter().take(25) {
        println!("  {:>6.1} %  {name}", 100.0 * *n as f64 / total);
    }
}

/// A function name's last path segment without its generic arguments
/// (`do_load`, `fill_scan_lanes`, `index_of`).
fn short_name(name: &str) -> &str {
    let (mut depth, mut start) = (0usize, 0);
    let bytes = name.as_bytes();
    for (at, &c) in bytes.iter().enumerate() {
        match c {
            b'<' => depth += 1,
            b'>' => depth = depth.saturating_sub(1),
            b':' if depth == 0 && bytes.get(at + 1) == Some(&b':') => start = at + 2,
            _ => {}
        }
    }
    let tail = &name[start..];
    match tail.find('<') {
        Some(cut) if cut > 0 => &tail[..cut],
        _ => tail,
    }
}

/// The index into [`BUCKETS`] of the innermost frame of `chain` that
/// matches one, or `BUCKETS.len()` for `other`.
fn bucket_of(chain: &[String]) -> usize {
    chain
        .iter()
        .find_map(|name| {
            let last = short_name(name);
            BUCKETS
                .iter()
                .position(|(_, prefixes)| prefixes.iter().any(|p| last.starts_with(p)))
        })
        .unwrap_or(BUCKETS.len())
}

/// Reading the executable's own mappings and naming addresses in it.
mod symbols {
    use std::collections::HashMap;
    use std::io::Write;
    use std::path::{Path, PathBuf};
    use std::process::{Command, Stdio};

    /// The executable's mappings in this process.
    pub struct Image {
        pub path: PathBuf,
        /// Executable `[start, end)` ranges.
        text: Vec<(u64, u64)>,
        /// What to subtract from a run-time address for `addr2line`:
        /// the load base of a position-independent executable, else 0.
        bias: u64,
    }

    impl Image {
        pub fn of_current_exe() -> Image {
            let path = std::env::current_exe().expect("current_exe");
            let elf = std::fs::read(&path).expect("read the executable");
            let pie = elf.get(16) == Some(&3); // e_type == ET_DYN
            let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
            let (mut text, mut base) = (Vec::new(), None);
            for line in maps.lines() {
                let cols: Vec<&str> = line.split_whitespace().collect();
                if cols.len() < 6 || Path::new(cols[5]) != path {
                    continue;
                }
                let (start, end) = cols[0].split_once('-').expect("maps range");
                let (start, end) = (hex(start), hex(end));
                if hex(cols[2]) == 0 {
                    base = Some(base.map_or(start, |b: u64| b.min(start)));
                }
                if cols[1].contains('x') {
                    text.push((start, end));
                }
            }
            Image {
                path,
                text,
                bias: if pie { base.unwrap_or(0) } else { 0 },
            }
        }

        pub fn contains(&self, addr: u64) -> bool {
            self.text.iter().any(|&(s, e)| (s..e).contains(&addr))
        }

        pub fn elf_addr(&self, addr: u64) -> u64 {
            addr - self.bias
        }
    }

    fn hex(s: &str) -> u64 {
        u64::from_str_radix(s, 16).expect("hex in /proc/self/maps")
    }

    /// The inline chain of each address, innermost function first, from
    /// one `addr2line -a -f -i -C` call fed on stdin.
    pub fn inline_chains(exe: &Path, addrs: &[u64]) -> HashMap<u64, Vec<String>> {
        let mut unique = addrs.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let mut child = Command::new("addr2line")
            .args(["-a", "-f", "-i", "-C", "-e"])
            .arg(exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("addr2line (binutils) on PATH");
        let mut stdin = child.stdin.take().expect("piped stdin");
        let input: String = unique.iter().map(|a| format!("{a:#x}\n")).collect();
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let out = child.wait_with_output().expect("addr2line output");
        writer
            .join()
            .expect("stdin writer")
            .expect("write to addr2line");
        // Per address: the address line, then a function line and a
        // location line per inline level.
        let mut chains = HashMap::new();
        let mut current: Option<(u64, Vec<String>)> = None;
        let mut lines = String::from_utf8_lossy(&out.stdout).into_owned();
        lines.push('\n');
        let mut want_function = false;
        for line in lines.lines() {
            if let Some(addr) = line.strip_prefix("0x") {
                if let Ok(addr) = u64::from_str_radix(addr, 16) {
                    chains.extend(current.take());
                    current = Some((addr, Vec::new()));
                    want_function = true;
                    continue;
                }
            }
            if let Some((_, chain)) = current.as_mut() {
                if want_function {
                    chain.push(line.to_string());
                }
                want_function = !want_function;
            }
        }
        chains.extend(current);
        chains
    }
}

/// The `SIGALRM` sampler. `std` exposes neither interval timers nor
/// signal handlers, and the build has no `libc` crate, so the two libc
/// calls are declared here.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sampler {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    const SIGALRM: i32 = 14;
    const ITIMER_REAL: i32 = 0;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offsets of `uc_mcontext.gregs[REG_RSP]` and `[REG_RIP]` in
    /// the x86_64 `ucontext_t`: `gregs` starts 40 bytes in.
    const RSP_AT: usize = 40 + 15 * 8;
    const RIP_AT: usize = 40 + 16 * 8;
    /// 26 s of samples at 10 kHz; later samples are counted as lost.
    const MAX_SAMPLES: usize = 1 << 18;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's x86_64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    /// `(rip, return address at rsp)` of each sample.
    static SAMPLES: [[AtomicU64; 2]; MAX_SAMPLES] =
        [const { [AtomicU64::new(0), AtomicU64::new(0)] }; MAX_SAMPLES];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// Records one sample: only lock-free atomic stores, which are
    /// async-signal-safe.
    extern "C" fn on_alarm(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        let k = TAKEN.fetch_add(1, Relaxed);
        if k >= MAX_SAMPLES {
            return;
        }
        // SAFETY: with `SA_SIGINFO` the kernel passes the interrupted
        // thread's `ucontext_t` as `ctx`, and that thread's stack is
        // mapped at its saved stack pointer.
        let (rip, ret) = unsafe {
            let ctx = ctx.cast::<u8>();
            let rip = ctx.add(RIP_AT).cast::<u64>().read_unaligned();
            let rsp = ctx.add(RSP_AT).cast::<u64>().read_unaligned();
            (rip, (rsp as *const u64).read_unaligned())
        };
        SAMPLES[k][0].store(rip, Relaxed);
        SAMPLES[k][1].store(ret, Relaxed);
    }

    fn arm(period_us: i64) {
        let t = Timeval {
            sec: 0,
            usec: period_us,
        };
        let timer = Itimerval {
            interval: t,
            value: t,
        };
        // SAFETY: a valid `itimerval`; the old value is not wanted.
        let rc = unsafe { setitimer(ITIMER_REAL, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer");
    }

    /// Installs the handler and starts a `period_us` interval timer.
    pub fn start(period_us: i64) {
        let handler: extern "C" fn(i32, *mut c_void, *mut c_void) = on_alarm;
        let act = SigAction {
            handler: handler as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: a valid `struct sigaction` whose handler only stores
        // to atomics; the old action is not wanted.
        let rc = unsafe { sigaction(SIGALRM, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction");
        TAKEN.store(0, Relaxed);
        arm(period_us);
    }

    /// Stops the timer and returns the samples and how many were lost.
    pub fn stop() -> (Vec<(u64, u64)>, usize) {
        arm(0);
        let taken = TAKEN.load(Relaxed);
        let kept = taken.min(MAX_SAMPLES);
        let samples = SAMPLES[..kept]
            .iter()
            .map(|[rip, ret]| (rip.load(Relaxed), ret.load(Relaxed)))
            .collect();
        (samples, taken - kept)
    }
}

/// Off x86_64 Linux `main` returns before sampling starts.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod sampler {
    pub fn start(_period_us: i64) {}

    pub fn stop() -> (Vec<(u64, u64)>, usize) {
        (Vec::new(), 0)
    }
}
