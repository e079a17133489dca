//! `conv_fwd`: single-core-group forward convolutions with real
//! arithmetic through `Conv2d::forward`.
//!
//! One pass runs every shape of a fixed menu of mesh-eligible shapes
//! (channels mostly ≥ 64) once, in a seeded order, on seeded input
//! tensors. The simulated DMA engines see a seeded low-rate stall profile,
//! the contention noise of a shared chip, so simulated times depend on the
//! seed as well as on the shapes. The shapes themselves are not drawn from
//! the seed: a seeded mix moved the pass's simulated and host totals by a
//! quarter between seeds, far more than any bound a change is held to.
//! Every output is spot-checked at seeded positions against a direct dot
//! product, outside the timed calls.

use crate::{digest_f64, percentile, trace, PassOut, Rng, Workload, DIGEST_SEED};
use std::time::Instant;
use sw_sim::FaultPlan;
use sw_tensor::{init::seeded_tensor, ConvShape, Layout, Tensor4};
use swdnn::plans::PlanTiming;
use swdnn::Conv2d;

/// `(batch, Ni, No, Ro, Co, K)`: mesh-eligible shapes the selector maps to
/// the image-size-aware and batch-size-aware plans.
const MENU: [(usize, usize, usize, usize, usize, usize); 10] = [
    (32, 64, 64, 8, 8, 3),
    (32, 64, 96, 8, 8, 3),
    (32, 64, 128, 8, 8, 3),
    (32, 128, 64, 8, 8, 3),
    (32, 128, 128, 8, 8, 3),
    (32, 96, 64, 8, 16, 3),
    (32, 64, 64, 8, 8, 5),
    (64, 64, 64, 8, 8, 3),
    (128, 64, 64, 4, 8, 3),
    (64, 128, 64, 4, 4, 3),
];

/// Output positions spot-checked per call.
const CHECKS_PER_CALL: usize = 48;

/// Seeded DMA stall profile: probability per transfer and cycles lost.
pub const STALL_RATE: f64 = 2e-3;
pub const STALL_CYCLES: u64 = 256;

struct Call {
    conv: Conv2d,
    plan: &'static str,
    input: Tensor4<f64>,
    filter: Tensor4<f64>,
    /// Seeded output positions `(b, no, r, c)` to check.
    probes: Vec<(usize, usize, usize, usize)>,
}

pub struct ConvFwd {
    calls: Vec<Call>,
}

impl ConvFwd {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut picks: Vec<usize> = (0..MENU.len()).collect();
        crate::serve_open::shuffle(&mut picks, &mut rng);
        let fault = FaultPlan::none(rng.next_u64()).with_dma_stalls(STALL_RATE, STALL_CYCLES);
        let mut calls = Vec::with_capacity(picks.len());
        for m in picks {
            let (b, ni, no, ro, co, k) = MENU[m];
            let shape = ConvShape::new(b, ni, no, ro, co, k, k);
            let conv = Conv2d::new(shape)
                .map_err(|e| format!("{shape}: {e}"))?
                .with_fault(Some(fault));
            let plan = conv.plan().name();
            if plan == "reference" {
                return Err(format!("{shape} is not mesh-eligible"));
            }
            let input = seeded_tensor(shape.input_shape(), Layout::Nchw, rng.next_u64());
            let filter = seeded_tensor(shape.filter_shape(), Layout::Nchw, rng.next_u64());
            let probes = (0..CHECKS_PER_CALL)
                .map(|_| (rng.below(b), rng.below(no), rng.below(ro), rng.below(co)))
                .collect();
            calls.push(Call {
                conv,
                plan,
                input,
                filter,
                probes,
            });
        }
        Ok(Self { calls })
    }
}

/// Direct dot product for output `(b, o, r, c)` of a valid, stride-1
/// convolution, with the sum of absolute terms for the tolerance.
fn direct(
    shape: &ConvShape,
    x: &Tensor4<f64>,
    w: &Tensor4<f64>,
    at: (usize, usize, usize, usize),
) -> (f64, f64) {
    let (b, o, r, c) = at;
    let (mut sum, mut mag) = (0.0, 0.0);
    for i in 0..shape.ni {
        for kr in 0..shape.kr {
            for kc in 0..shape.kc {
                let t = x.get(b, i, r + kr, c + kc) * w.get(o, i, kr, kc);
                sum += t;
                mag += t.abs();
            }
        }
    }
    (sum, mag)
}

/// Add a plan timing's counters to `exact` under `swsim.*`.
pub fn add_swsim(exact: &mut crate::Values, t: &PlanTiming) {
    let s = &t.stats.totals;
    for (k, v) in [
        ("swsim.dma_get_bytes", s.dma_get_bytes),
        ("swsim.dma_put_bytes", s.dma_put_bytes),
        ("swsim.dma_requests", s.dma_requests),
        ("swsim.bus_vectors_sent", s.bus_vectors_sent),
        ("swsim.dma_stall_cycles", s.dma_stall_cycles),
        ("swsim.compute_cycles", s.compute_cycles),
        ("swsim.p0_issue_slots", s.p0_issue_slots),
        ("swsim.p1_issue_slots", s.p1_issue_slots),
    ] {
        *exact.entry(k.into()).or_default() += v as f64;
    }
}

/// Add one call to the `plans.<plan>.*` and `conv.<pass>.*` counters.
pub fn add_plan_call(exact: &mut crate::Values, plan: &str, pass: &str, cycles: u64) {
    *exact.entry(format!("plans.{plan}.calls")).or_default() += 1.0;
    *exact.entry(format!("plans.{plan}.sim_cycles")).or_default() += cycles as f64;
    *exact.entry(format!("conv.{pass}.sim_cycles")).or_default() += cycles as f64;
}

impl Workload for ConvFwd {
    fn pass(&mut self) -> Result<PassOut, String> {
        let rt = sw_runtime::global();
        let handoffs0 = rt.pool_handoffs();
        let mut host_s = 0.0;
        let mut runs = Vec::with_capacity(self.calls.len());
        for (i, call) in self.calls.iter().enumerate() {
            if trace::enabled() {
                // Plan selection timed on its own; `forward` selects again.
                trace::span("conv.select", i as u64, || call.conv.plan());
            }
            let t0 = Instant::now();
            let run = trace::span("conv.fwd", i as u64, || {
                trace::span(&format!("plans.{}", call.plan), i as u64, || {
                    call.conv.forward(&call.input, &call.filter)
                })
            });
            host_s += t0.elapsed().as_secs_f64();
            runs.push(run.map_err(|e| format!("{}: {e}", call.conv.shape))?);
        }
        let handoffs = rt.pool_handoffs() - handoffs0;

        trace::span("bench.check", 0, || {
            let mut out = PassOut {
                host_s,
                attempted: self.calls.len() as u64,
                digest: DIGEST_SEED,
                ..PassOut::default()
            };
            out.pool_handoffs = handoffs;
            let clock_hz = self.calls[0].conv.chip.clock_ghz * 1e9;
            let (mut flops, mut cycles, mut samples) = (0.0, 0.0, 0.0);
            let mut call_us = Vec::with_capacity(runs.len());
            for (call, run) in self.calls.iter().zip(&runs) {
                let shape = call.conv.shape;
                for &at in &call.probes {
                    let got = run.output.get(at.0, at.1, at.2, at.3);
                    let (want, mag) = direct(&shape, &call.input, &call.filter, at);
                    if (got - want).abs() > 1e-12 * mag.max(1e-300) {
                        return Err(format!("{shape} output {at:?}: got {got}, want {want}"));
                    }
                }
                out.digest = digest_f64(out.digest, run.output.data());
                let t = &run.timing;
                flops += shape.flops() as f64;
                cycles += t.cycles as f64;
                samples += shape.batch as f64;
                call_us.push(t.cycles as f64 / clock_hz * 1e6);
                add_swsim(&mut out.exact, t);
                add_plan_call(&mut out.exact, call.plan, "fwd", t.cycles);
            }
            let sim_s = cycles / clock_hz;
            out.sim_gflop = flops / 1e9;
            out.exact
                .insert("sim_gflops_cg".into(), flops / sim_s / 1e9);
            out.exact
                .insert("sim_ms_per_sample".into(), sim_s * 1e3 / samples);
            out.exact
                .insert("sim_p50_us".into(), percentile(&call_us, 50.0));
            out.exact
                .insert("sim_p99_us".into(), percentile(&call_us, 99.0));
            Ok(out)
        })
    }
}
