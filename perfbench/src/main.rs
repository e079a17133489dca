//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload conv_fwd|train_dp|serve_open --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run brings the worker pool up, runs the Table III calibration,
//! builds the workload's inputs from the seed, runs one warmup pass (whose
//! simulated values every later pass must repeat bit for bit), then
//! repeats the same pass until `--seconds` have been measured. Simulated metrics are exact; host
//! metrics are medians over the measured passes. Outputs are checked
//! outside the timed sections. The last line of standard output is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The exit code is 1 when any output is wrong.
//! `perfbench/METRICS.md` defines every metric.

mod calib;
mod conv_fwd;
mod serve_open;
mod trace;
mod train_dp;

use std::collections::BTreeMap;
use std::time::Instant;

pub type Values = BTreeMap<String, f64>;

/// What one pass over a workload's seeded unit of work produced.
#[derive(Default)]
pub struct PassOut {
    /// Simulated values (end-to-end and per-layer); every pass of one run
    /// must repeat them exactly.
    pub exact: Values,
    /// Digest of the pass's outputs; must repeat exactly too.
    pub digest: u64,
    /// Host seconds of the timed calls, checks excluded.
    pub host_s: f64,
    /// Host seconds of each step inside the pass; empty when the whole
    /// pass is one step.
    pub step_s: Vec<f64>,
    /// Simulated Gflop the pass delivered.
    pub sim_gflop: f64,
    /// Operations the pass checked (conv calls, trainer steps, requests).
    pub attempted: u64,
    /// Worker-pool handoffs the pass cost; depends on the thread count.
    pub pool_handoffs: u64,
}

pub trait Workload {
    /// One pass over the seeded unit of work. `Err` is a wrong output.
    fn pass(&mut self) -> Result<PassOut, String>;
    /// Checks that need another run of the same inputs, made once after
    /// the measured window.
    fn final_check(&mut self, _reference: &PassOut) -> Result<(), String> {
        Ok(())
    }
}

const WORKLOADS: [&str; 3] = ["conv_fwd", "train_dp", "serve_open"];

/// Set-up is repeated in rounds: one before the warmup pass, for
/// `SETUP_SLICE_S` host seconds, and one after each measured pass, for
/// `SETUP_SHARE` of that pass's wall time (and at least `SETUP_SLICE_S`);
/// every round makes at least `SETUP_MIN_REPS` set-ups. Each round records
/// its mean set-up time and `setup_s` is the median round. Spreading the
/// rounds over the run in proportion to the passes keeps a transient state
/// of the machine from deciding the figure, and the mean of many set-ups
/// within a round evens out single set-ups, which vary by a factor of two
/// (page faults on the first set-up after a pass, two modes for
/// sub-millisecond set-ups).
const SETUP_MIN_REPS: usize = 10;
const SETUP_SLICE_S: f64 = 0.1;
const SETUP_SHARE: f64 = 0.125;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("sim_gflops_cg", "Gflop/s"),
    ("sim_ms_per_sample", "ms"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("table3_err_pct", "%"),
    ("host_sim_gflop_per_s", "Gflop/s"),
    ("host_s_per_step", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not touch reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.pool_handoffs", "count"),
    ("plans.image_size_aware.calls", "count"),
    ("plans.image_size_aware.host_s", "s"),
    ("plans.image_size_aware.sim_cycles", "cycles"),
    ("plans.batch_size_aware.calls", "count"),
    ("plans.batch_size_aware.host_s", "s"),
    ("plans.batch_size_aware.sim_cycles", "cycles"),
    ("plans.bwd_filter.calls", "count"),
    ("plans.bwd_filter.host_s", "s"),
    ("plans.bwd_filter.sim_cycles", "cycles"),
    ("plans.reference.calls", "count"),
    ("plans.reference.host_s", "s"),
    ("plans.reference.sim_cycles", "cycles"),
    ("conv.select.host_s", "s"),
    ("conv.fwd.host_s", "s"),
    ("conv.fwd.sim_cycles", "cycles"),
    ("conv.bwd_data.host_s", "s"),
    ("conv.bwd_data.sim_cycles", "cycles"),
    ("conv.bwd_filter.host_s", "s"),
    ("conv.bwd_filter.sim_cycles", "cycles"),
    ("swsim.dma_get_bytes", "bytes"),
    ("swsim.dma_put_bytes", "bytes"),
    ("swsim.dma_requests", "count"),
    ("swsim.bus_vectors_sent", "count"),
    ("swsim.dma_stall_cycles", "cycles"),
    ("swsim.compute_cycles", "cycles"),
    ("swsim.p0_issue_slots", "count"),
    ("swsim.p1_issue_slots", "count"),
    ("perfmodel.table3.img_128_128.mdl_over_meas", "ratio"),
    ("perfmodel.table3.img_128_256.mdl_over_meas", "ratio"),
    ("perfmodel.table3.batch_256_256.mdl_over_meas", "ratio"),
    ("perfmodel.table3.batch_128_384.mdl_over_meas", "ratio"),
    ("executor.run_config.host_s", "s"),
    ("layers.conv2d.fwd.host_s", "s"),
    ("layers.conv2d.bwd.host_s", "s"),
    ("layers.conv2d.fwd.sim_cycles", "cycles"),
    ("layers.conv2d.bwd.sim_cycles", "cycles"),
    ("layers.relu.fwd.host_s", "s"),
    ("layers.relu.bwd.host_s", "s"),
    ("layers.maxpool2.fwd.host_s", "s"),
    ("layers.maxpool2.bwd.host_s", "s"),
    ("layers.linear.fwd.host_s", "s"),
    ("layers.linear.bwd.host_s", "s"),
    ("layers.softmax.fwd.host_s", "s"),
    ("layers.softmax.bwd.host_s", "s"),
    ("optim.step.host_s", "s"),
    ("cluster.step.self_host_s", "s"),
    ("cluster.collective.buckets", "count"),
    ("cluster.collective.comm_us", "us"),
    ("cluster.collective.hidden_us", "us"),
    ("cluster.collective.overlap_permille", "permille"),
    ("cluster.step_us", "us"),
    ("serve.engine.host_s", "s"),
    ("serve.batcher.batches", "count"),
    ("serve.batcher.fill_permille", "permille"),
    ("serve.plan_cache.hits", "count"),
    ("serve.plan_cache.misses", "count"),
    ("serve.dispatch.redispatches", "count"),
    ("serve.health.cg_failures", "count"),
    ("serve.health.open_breakers", "count"),
    ("serve.path.degraded_batches", "count"),
    ("serve.path.host_batches", "count"),
    ("serve.fault_extra_cycles", "cycles"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.max_rps", "1/s"),
    ("serve.fail_permille", "permille"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.span_coverage_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn build(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "conv_fwd" => Box::new(conv_fwd::ConvFwd::new(seed)?),
        "train_dp" => Box::new(train_dp::TrainDp::new(seed)?),
        "serve_open" => Box::new(serve_open::ServeOpen::new(seed)?),
        _ => unreachable!("workload names are checked in parse_args"),
    })
}

/// Nearest-rank percentile of `v` (`q` in 0..=100).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// FNV-1a over the bit patterns of `vals`, folded into `h`.
pub fn digest_f64(mut h: u64, vals: &[f64]) -> u64 {
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's seeded input stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_F00D)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_map(m: &Values) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Values every pass must repeat, compared against the warmup pass.
fn same_exact(a: &PassOut, b: &PassOut) -> Result<(), String> {
    if a.digest != b.digest {
        return Err(format!(
            "output digest changed between passes: {:016x} vs {:016x}",
            a.digest, b.digest
        ));
    }
    for (k, v) in &a.exact {
        match b.exact.get(k) {
            Some(w) if w.to_bits() == v.to_bits() => {}
            other => return Err(format!("simulated value {k} changed: {v} vs {other:?}")),
        }
    }
    if a.exact.len() != b.exact.len() {
        return Err("simulated value set changed between passes".into());
    }
    Ok(())
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args, process_start) {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    sw_runtime::global().prewarm();
    let mut exact = Values::new();
    let executor_host_s = calib::table3(&mut exact)?;

    // Freeing one large block raises the allocator's mmap and trim
    // thresholds, so repeated set-ups reuse heap memory instead of faulting
    // pages in on some repetitions and not others (a 24 ms / 33 ms split
    // on `conv_fwd` before).
    drop(std::hint::black_box(Vec::<u8>::with_capacity(30 << 20)));
    let mut setup_times: Vec<f64> = Vec::new();
    let mut workload = None;
    set_up(args, SETUP_SLICE_S, &mut setup_times, &mut workload)?;
    let mut w = workload.expect("set_up builds at least once");
    let first_call_s = process_start.elapsed().as_secs_f64();

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // Warmup pass: fills the process-wide tile cache and fixes the values
    // every measured pass must repeat.
    let reference = match w.pass() {
        Ok(p) => p,
        Err(e) => {
            failures.push(e);
            PassOut::default()
        }
    };
    attempted += reference.attempted.max(1);

    let mut untraced: Vec<PassOut> = Vec::new();
    let mut traced: Vec<(PassOut, f64, Vec<trace::Span>, usize)> = Vec::new();
    let window = Instant::now();
    let min_each = if args.trace { 2 } else { 3 };
    while failures.is_empty() {
        let measured = window.elapsed().as_secs_f64();
        let enough = untraced.len() >= min_each && (!args.trace || traced.len() >= min_each);
        if enough && measured >= args.seconds {
            break;
        }
        let traced_pass = args.trace && traced.len() <= untraced.len();
        trace::set_enabled(traced_pass);
        let base = trace::span_count();
        let t0 = Instant::now();
        let out = w.pass();
        let wall = t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                failures.push(e);
                attempted += 1;
                break;
            }
        };
        attempted += out.attempted;
        if let Err(e) = same_exact(&reference, &out) {
            failures.push(e);
        }
        if traced_pass {
            traced.push((out, wall, trace::spans_since(base), base));
        } else {
            untraced.push(out);
        }
        set_up(
            args,
            (SETUP_SHARE * wall).max(SETUP_SLICE_S),
            &mut setup_times,
            &mut None,
        )?;
    }
    if failures.is_empty() {
        if let Err(e) = w.final_check(&reference) {
            failures.push(e);
        }
    }
    exact.extend(reference.exact.clone());

    // Host figures over the untraced passes.
    let mut step_samples: Vec<f64> = Vec::new();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut rates: Vec<f64> = Vec::new();
    for p in &untraced {
        if p.step_s.is_empty() {
            step_samples.push(p.host_s);
        } else {
            step_samples.extend(&p.step_s);
        }
        pass_s.push(p.host_s);
        rates.push(p.sim_gflop / p.host_s);
    }
    let n = step_samples.len();
    // The highest percentile with at least ten samples beyond it.
    let tail_q = if n >= 20 {
        (100.0 * (1.0 - 10.0 / n as f64)).floor()
    } else {
        50.0
    };

    let mut e2e = Values::new();
    for key in [
        "sim_gflops_cg",
        "sim_ms_per_sample",
        "sim_p50_us",
        "sim_p99_us",
        "table3_err_pct",
    ] {
        e2e.insert(key.into(), exact.get(key).copied().unwrap_or(0.0));
    }
    e2e.insert("host_sim_gflop_per_s".into(), median(&rates));
    e2e.insert("host_s_per_step".into(), median(&step_samples));
    e2e.insert("setup_s".into(), median(&setup_times));
    e2e.insert("peak_rss_mb".into(), peak_rss_mb());

    // Per-layer figures: exact counters from the warmup pass, host times
    // as medians over the traced passes.
    let mut layer = Values::new();
    for (k, _) in PER_LAYER {
        if let Some(v) = exact.get(*k) {
            layer.insert(k.to_string(), *v);
        }
    }
    let handoffs: Vec<f64> = untraced.iter().map(|p| p.pool_handoffs as f64).collect();
    layer.insert("runtime.pool_handoffs".into(), median(&handoffs));
    layer.insert("executor.run_config.host_s".into(), executor_host_s);
    let mut self_times = Values::new();
    if !traced.is_empty() {
        let per_pass: Vec<BTreeMap<String, (u64, f64, f64)>> = traced
            .iter()
            .map(|(_, _, spans, base)| trace::totals(spans, *base))
            .collect();
        let mut names: Vec<String> = per_pass.iter().flat_map(|m| m.keys().cloned()).collect();
        names.sort();
        names.dedup();
        for name in names {
            let incl: Vec<f64> = per_pass
                .iter()
                .map(|m| m.get(&name).map_or(0.0, |t| t.1))
                .collect();
            let selft: Vec<f64> = per_pass
                .iter()
                .map(|m| m.get(&name).map_or(0.0, |t| t.2))
                .collect();
            self_times.insert(format!("{name}.self_s"), median(&selft));
            let host_key = format!("{name}.host_s");
            if PER_LAYER.iter().any(|(k, _)| *k == host_key) {
                layer.insert(host_key, median(&incl));
            }
            let self_key = format!("{name}.self_host_s");
            if PER_LAYER.iter().any(|(k, _)| *k == self_key) {
                layer.insert(self_key, median(&selft));
            }
        }
        let coverage: Vec<f64> = traced
            .iter()
            .map(|(_, wall, spans, base)| trace::coverage_pct(spans, *base, *wall))
            .collect();
        layer.insert("obs.span_coverage_pct".into(), median(&coverage));
        let traced_s: Vec<f64> = traced.iter().map(|(p, ..)| p.host_s).collect();
        let untraced_s: Vec<f64> = untraced.iter().map(|p| p.host_s).collect();
        layer.insert(
            "obs.trace_overhead_pct".into(),
            100.0 * (median(&traced_s) / median(&untraced_s) - 1.0),
        );
        write_spans(args, &traced[0].2, traced[0].3);
    }

    let correct = failures.is_empty();
    for f in &failures {
        eprintln!("perfbench: wrong output: {f}");
    }
    let detail = format!(
        "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"threads\":{},\"passes\":{},\"traced_passes\":{},\
         \"host_s_per_step_samples\":{n},\"host_s_per_step_tail_pct\":{tail_q},\"host_s_per_step_tail\":{},\
         \"host_s_steps\":[{}],\"host_s_per_pass\":{},\"first_timed_call_s\":{},\"latency_clock\":\"{}\",\"digest\":\"{:016x}\",\
         \"exact\":{},\"self_s\":{}}}}}",
        args.workload,
        args.seed,
        sw_runtime::effective_threads(),
        untraced.len(),
        traced.len(),
        json_num(percentile(&step_samples, tail_q)),
        step_samples
            .iter()
            .map(|v| json_num(*v))
            .collect::<Vec<_>>()
            .join(","),
        json_num(median(&pass_s)),
        json_num(first_call_s),
        if args.workload == "serve_open" {
            "logical clock of the serve engine; arrivals are scheduled on it, so the generator is never late"
        } else {
            "simulated chip cycles at 1.45 GHz"
        },
        reference.digest,
        json_map(&exact),
        json_map(&self_times),
    );
    println!("{detail}");

    let (list, values): (&[(&str, &str)], &Values) = if args.trace {
        (PER_LAYER, &layer)
    } else {
        (&END_TO_END, &e2e)
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|(k, unit)| {
            let v = values.get(*k).copied().unwrap_or(0.0);
            format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", json_num(v))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        failures.len(),
        metrics.join(",")
    );
    Ok(correct)
}

/// Repeat the workload's set-up (its seeded inputs and the objects its
/// passes run on; the worker pool is already up) for one round of at
/// least `slice_s` host seconds and `SETUP_MIN_REPS` set-ups, and record
/// the mean host seconds of one; the last set-up is left in `built`.
fn set_up(
    args: &Args,
    slice_s: f64,
    times: &mut Vec<f64>,
    built: &mut Option<Box<dyn Workload>>,
) -> Result<(), String> {
    let (mut spent, mut n) = (0.0, 0);
    while n < SETUP_MIN_REPS || spent < slice_s {
        // Free the previous set-up first, so repetitions reuse its memory.
        drop(built.take());
        let t0 = Instant::now();
        *built = Some(build(&args.workload, args.seed)?);
        spent += t0.elapsed().as_secs_f64();
        n += 1;
    }
    times.push(spent / n as f64);
    Ok(())
}

/// Write the first traced pass's spans under `perfbench/out/`.
fn write_spans(args: &Args, spans: &[trace::Span], base: usize) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, trace::to_json(spans, base)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
