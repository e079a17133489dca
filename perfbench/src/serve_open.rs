//! `serve_open`: open-loop Poisson arrivals on the serve engine's logical
//! clock.
//!
//! Requests draw their shape from a Zipf mix over a fixed menu of
//! mesh-eligible shapes, so the rare shapes of the tail keep the plan
//! cache missing at a low rate through the trace; 70% are high priority
//! and the rest carry a dispatch deadline. The engine runs under a low-rate
//! seeded DMA-fault profile, so breakers and redispatch stay exercised.
//!
//! One pass first offers the whole trace at once to measure the service
//! capacity, then replays it at each rate of `LADDER` (fractions of that
//! capacity) on a fresh engine; each engine's replay is one host step.
//! Latency is arrival to completion on the
//! logical clock, where arrivals are scheduled, so the generator is never
//! late. A shed or timed-out request counts as missing the limit.

use crate::{digest_f64, percentile, trace, PassOut, Rng, Values, Workload, DIGEST_SEED};
use std::collections::BTreeSet;
use std::time::Instant;
use sw_bench::chaos_load::{chaos_serve_config, fault_profiles};
use sw_tensor::ConvShape;
use swdnn::serve::{ChaosConfig, Priority, RequestClass, ServeConfig, ServeEngine};
use swdnn::SwdnnError;

/// Requests in the trace replayed at every rate.
const REQUESTS: usize = 2400;
/// Offered rates as fractions of the measured capacity.
const LADDER: [f64; 4] = [0.25, 0.4, 0.55, 0.7];
/// The rung whose latencies are the workload's end-to-end figures.
const NOMINAL: usize = 0;
/// p99 latency limit, logical µs.
pub const P99_LIMIT_US: f64 = 20_000.0;
/// Latency charged to a request that was shed or timed out.
const MISS_US: f64 = 10.0 * P99_LIMIT_US;
/// Probability that a bus message is dropped, failing its slice.
const MSG_DROP_RATE: f64 = 5e-6;
/// Dispatch deadline of low-priority requests, logical µs.
const LOW_DEADLINE_US: u64 = 8_000;

/// Zipf exponent over the menu.
const ZIPF_S: f64 = 1.1;

/// `(batch, Ni, No, Ro, Co)` of the menu, most popular first: mesh-eligible
/// 3×3 convolutions whose output rows divide by the 4-CG row split. Every
/// shape costs one plan-cache miss per engine, about 0.1 s of host time,
/// so the menu is short and its tail rare.
const MENU: [(usize, usize, usize, usize, usize); 8] = [
    (8, 8, 8, 8, 8),
    (8, 16, 16, 8, 8),
    (16, 8, 16, 8, 8),
    (8, 16, 8, 16, 8),
    (16, 16, 16, 8, 8),
    (8, 24, 16, 8, 8),
    (16, 32, 16, 8, 8),
    (8, 32, 32, 16, 8),
];

#[derive(Clone, Copy)]
struct Arrival {
    /// Exponential gap, normalised to a mean of exactly 1 over the trace;
    /// scaled by each rung's rate.
    gap: f64,
    shape: ConvShape,
    class: RequestClass,
}

pub struct ServeOpen {
    trace: Vec<Arrival>,
    chaos: ChaosConfig,
}

impl ServeOpen {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let menu: Vec<ConvShape> = MENU
            .iter()
            .map(|&(b, ni, no, ro, co)| ConvShape::new(b, ni, no, ro, co, 3, 3))
            .collect();
        // Stratified draws: each shape appears in its Zipf proportion and
        // 70% of requests are high priority, exactly; the seed shuffles
        // the order and draws the gaps and tenants. I.i.d. draws moved the
        // nominal p99 by 8% between seeds through the mix alone.
        let weights: Vec<f64> = (0..menu.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut shapes = Vec::with_capacity(REQUESTS);
        let mut cum = 0.0;
        for (shape, w) in menu.iter().zip(&weights) {
            let before = (cum / total * REQUESTS as f64).round() as usize;
            cum += w;
            let after = (cum / total * REQUESTS as f64).round() as usize;
            shapes.extend(std::iter::repeat_n(*shape, after - before));
        }
        let mut high: Vec<bool> = (0..REQUESTS).map(|i| i < REQUESTS * 7 / 10).collect();
        shuffle(&mut shapes, &mut rng);
        shuffle(&mut high, &mut rng);
        let mut gaps: Vec<f64> = (0..REQUESTS).map(|_| -rng.unit().ln()).collect();
        let mean_gap = gaps.iter().sum::<f64>() / REQUESTS as f64;
        gaps.iter_mut().for_each(|g| *g /= mean_gap);
        let trace = (0..REQUESTS)
            .map(|i| Arrival {
                gap: gaps[i],
                shape: shapes[i],
                class: RequestClass {
                    priority: if high[i] {
                        Priority::High
                    } else {
                        Priority::Low
                    },
                    tenant: rng.below(4) as u32,
                    deadline_us: (!high[i]).then_some(LOW_DEADLINE_US),
                },
            })
            .collect();
        // The chaos bench's `dma_flaky` profile, seeded per run, plus a
        // bus-message drop rate low enough that only a few slices fail:
        // DMA retries alone never exhaust, so without drops no slice would
        // fail and redispatch and the breakers would sit idle.
        let (_, mut chaos) = fault_profiles()
            .into_iter()
            .find(|(name, _)| *name == "dma_flaky")
            .ok_or("the chaos bench has no dma_flaky profile")?;
        chaos.fault = chaos
            .fault
            .reseed(rng.next_u64())
            .with_msg_drop_rate(MSG_DROP_RATE);
        Ok(Self { trace, chaos })
    }

    fn config(&self, queue_limit: usize) -> ServeConfig {
        ServeConfig {
            queue_limit,
            ..chaos_serve_config(self.chaos)
        }
    }
}

/// Fisher-Yates, driven by the benchmark's seeded stream.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// One rung's outcome.
struct Rung {
    engine: ServeEngine,
    /// Logical µs from the last arrival until the queue drained.
    drain_us: u64,
    latencies: Vec<f64>,
}

/// Replay `trace` with inter-arrival gaps scaled by `mean_gap_us` (0 puts
/// every arrival at time 0), then drain, and check that every request is
/// accounted exactly once.
fn replay(
    engine: ServeEngine,
    trace: &[Arrival],
    mean_gap_us: f64,
    rung: u64,
) -> Result<Rung, String> {
    let mut engine = engine;
    let mut at = 0.0f64;
    let mut shed_calls = 0u64;
    let mut accepted = BTreeSet::new();
    trace::span("serve.engine", rung, || -> Result<(), String> {
        for (i, a) in trace.iter().enumerate() {
            at += a.gap * mean_gap_us;
            let t = at.round() as u64;
            trace::span("serve.run_until", i as u64, || engine.run_until(t))
                .map_err(|e| format!("run_until: {e}"))?;
            match trace::span("serve.submit", i as u64, || {
                engine.submit_with(a.shape, a.class)
            }) {
                Ok(id) => {
                    accepted.insert(id);
                }
                Err(SwdnnError::Overloaded { .. }) => shed_calls += 1,
                Err(e) => return Err(format!("submit: {e}")),
            }
        }
        trace::span("serve.drain", rung, || engine.drain()).map_err(|e| format!("drain: {e}"))?;
        Ok(())
    })?;
    let last_arrival = at.round() as u64;

    trace::span("bench.check", rung, || {
        let done = engine.completions();
        let drops = engine.drops();
        let attempted = trace.len();
        if done.len() + drops.len() != attempted {
            return Err(format!(
                "rung {rung}: {attempted} attempted but {} served + {} dropped",
                done.len(),
                drops.len()
            ));
        }
        let shed = drops.iter().filter(|d| d.id.is_none()).count() as u64;
        if shed != shed_calls {
            return Err(format!(
                "rung {rung}: {shed_calls} rejected submissions, {shed} recorded"
            ));
        }
        let mut seen = BTreeSet::new();
        for id in done
            .iter()
            .map(|c| c.id)
            .chain(drops.iter().filter_map(|d| d.id))
        {
            if !seen.insert(id) {
                return Err(format!("rung {rung}: request {id} accounted twice"));
            }
        }
        if seen != accepted {
            return Err(format!(
                "rung {rung}: {} accepted, {} accounted",
                accepted.len(),
                seen.len()
            ));
        }
        let mut latencies: Vec<f64> = done.iter().map(|c| c.latency_us() as f64).collect();
        latencies.extend(drops.iter().map(|_| MISS_US));
        Ok(Rung {
            drain_us: engine.now_us().saturating_sub(last_arrival),
            latencies,
            engine,
        })
    })
}

impl Workload for ServeOpen {
    fn pass(&mut self) -> Result<PassOut, String> {
        let rt = sw_runtime::global();
        let handoffs0 = rt.pool_handoffs();
        let mut out = PassOut {
            digest: DIGEST_SEED,
            ..PassOut::default()
        };
        // Capacity: the whole trace at once, on a queue that holds it.
        let t0 = Instant::now();
        let engine = ServeEngine::new(self.config(REQUESTS)).map_err(|e| e.to_string())?;
        let sat = replay(engine, &self.trace, 0.0, 0)?;
        out.step_s.push(t0.elapsed().as_secs_f64());
        let busy_s = sat.engine.now_us() as f64 / 1e6;
        let served = sat.engine.completions().len() as f64;
        let capacity_rps = served / busy_s;
        let mut flops = sat.engine.counters.flops.get() as f64;
        let mut rungs = Vec::new();
        for (i, frac) in LADDER.iter().enumerate() {
            let rate = frac * capacity_rps;
            let t0 = Instant::now();
            let engine = ServeEngine::new(self.config(24)).map_err(|e| e.to_string())?;
            let rung = replay(engine, &self.trace, 1e6 / rate, i as u64 + 1)?;
            out.step_s.push(t0.elapsed().as_secs_f64());
            flops += rung.engine.counters.flops.get() as f64;
            rungs.push((rate, rung));
        }
        let handoffs = rt.pool_handoffs() - handoffs0;
        out.host_s = out.step_s.iter().sum();
        out.sim_gflop = flops / 1e9;
        out.attempted = (self.trace.len() * (LADDER.len() + 1)) as u64;
        out.pool_handoffs = handoffs;

        let e = &mut out.exact;
        e.insert("serve.capacity_rps".into(), capacity_rps);
        let mut max_rps = 0.0f64;
        let mut misses = sat.engine.cache_stats().plan_misses;
        let mut hits = sat.engine.cache_stats().plan_hits;
        for (i, (rate, rung)) in rungs.iter().enumerate() {
            let p99 = percentile(&rung.latencies, 99.0);
            let ok = p99 <= P99_LIMIT_US && (rung.drain_us as f64) <= P99_LIMIT_US;
            if ok {
                max_rps = max_rps.max(*rate);
            }
            e.insert(format!("serve.rung{i}.offered_rps"), *rate);
            e.insert(format!("serve.rung{i}.p99_us"), p99);
            e.insert(format!("serve.rung{i}.drain_us"), rung.drain_us as f64);
            let s = rung.engine.cache_stats();
            misses += s.plan_misses;
            hits += s.plan_hits;
            for c in rung.engine.completions() {
                out.digest = digest_f64(out.digest, &[c.id as f64, c.completion_us as f64]);
            }
        }
        e.insert("serve.max_rps".into(), max_rps);
        e.insert("serve.plan_cache.hits".into(), hits as f64);
        e.insert("serve.plan_cache.misses".into(), misses as f64);

        let (_, nominal) = &rungs[NOMINAL];
        nominal_figures(e, nominal);
        Ok(out)
    }
}

/// End-to-end and per-layer figures of the nominal rung.
fn nominal_figures(e: &mut Values, rung: &Rung) {
    let en = &rung.engine;
    let c = &en.counters;
    let s = en.summary();
    let attempted = rung.latencies.len() as f64;
    let served_images: f64 = en.completions().iter().map(|c| c.shape.batch as f64).sum();
    let busy_s = c.busy_us.get() as f64 / 1e6;
    let cgs = swdnn::ChipSpec::sw26010().core_groups as f64;
    let fails = s.rejected + s.evicted + s.timed_out;
    e.insert(
        "sim_gflops_cg".into(),
        c.flops.get() as f64 / busy_s / 1e9 / cgs,
    );
    e.insert("sim_ms_per_sample".into(), busy_s * 1e3 / served_images);
    e.insert("sim_p50_us".into(), percentile(&rung.latencies, 50.0));
    e.insert("sim_p99_us".into(), percentile(&rung.latencies, 99.0));
    e.insert(
        "serve.fail_permille".into(),
        1000.0 * fails as f64 / attempted,
    );
    e.insert("serve.batcher.batches".into(), s.batches as f64);
    e.insert("serve.batcher.fill_permille".into(), 1000.0 * s.batch_fill);
    e.insert(
        "serve.dispatch.redispatches".into(),
        c.redispatches.get() as f64,
    );
    e.insert(
        "serve.health.cg_failures".into(),
        c.cg_failures.get() as f64,
    );
    e.insert(
        "serve.health.open_breakers".into(),
        en.open_breakers() as f64,
    );
    e.insert(
        "serve.path.degraded_batches".into(),
        s.degraded_batches as f64,
    );
    e.insert("serve.path.host_batches".into(), s.host_batches as f64);
    e.insert(
        "serve.fault_extra_cycles".into(),
        c.fault_extra_cycles.get() as f64,
    );
    e.insert("serve.shed".into(), (s.rejected + s.evicted) as f64);
    e.insert("serve.timed_out".into(), s.timed_out as f64);
}
