//! `train_dp`: `DataParallelTrainer` steps over simulated chips with
//! bucketized, overlapped gradient collectives.
//!
//! The network is a small CNN on 8-channel 6×6 inputs whose two
//! `Conv2dLayer`s run forward, backward-data and backward-filter on the
//! simulated core group (`Engine::Simulated`, 8→16→32 channels), followed
//! by ReLU, 2×2 max pooling and a linear classifier. Every layer is wrapped from
//! outside in [`Timed`], which records a span around each `Layer` call and
//! the conv layers' `simulated_cycles` deltas. A pass builds the network
//! afresh from the seed and runs `STEPS` trainer steps on seeded batches,
//! so every pass repeats the same arithmetic. After the steps (untimed),
//! the conv layers' last-microbatch operands are replayed through the
//! public `Conv2d` calls to split a layer's backward into its
//! backward-data and backward-filter passes, and the logits are replayed
//! through `SoftmaxCrossEntropy`, which the trainer calls directly.

use crate::conv_fwd::{add_plan_call, add_swsim};
use crate::{digest_f64, percentile, trace, PassOut, Rng, Values, Workload, DIGEST_SEED};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use sw_sim::FaultPlan;
use sw_tensor::{init::seeded_tensor, ConvShape, Layout, Shape4, Tensor4};
use swdnn::cluster::TrainConfig;
use swdnn::layers::{Conv2dLayer, Engine, Layer, Linear, MaxPool2, ReLU, SoftmaxCrossEntropy};
use swdnn::network::Sequential;
use swdnn::plans::BwdFilterPlan;
use swdnn::{Conv2d, DataParallelTrainer, Optimizer, SwdnnError};

const MICROBATCH: usize = 32;
const MICROBATCHES: usize = 4;
const CHIPS: usize = 4;
/// The chip count of the re-run whose parameters must match bit for bit.
const CHECK_CHIPS: usize = 2;
const STEPS: usize = 2;
const IN_CH: usize = 8;
const HW: usize = 6;
const CLASSES: usize = 10;
const BUCKET_PARAMS: usize = 1024;

/// What the wrappers share within one pass.
#[derive(Default)]
struct Shared {
    /// Inside `DataParallelTrainer::step`.
    in_step: bool,
    /// The step being run: the id of the spans recorded inside it.
    step: u64,
    /// `visit_params` walks seen this step: `MICROBATCHES` gradient takes,
    /// one gradient load, then the optimizer.
    walks: usize,
    /// Microbatch being computed (counts first-layer forwards this pass).
    microbatch: usize,
    /// Capture operands for the replays (last microbatch of last step).
    capture: bool,
    /// Simulated cycles per microbatch, all conv passes.
    mb_cycles: Vec<u64>,
    exact: Values,
    /// Per conv layer: conv, input, output gradient, filters.
    conv_ops: Vec<Option<ConvOperands>>,
    logits: Vec<Tensor4<f64>>,
}

struct ConvOperands {
    conv: Conv2d,
    input: Tensor4<f64>,
    d_out: Option<Tensor4<f64>>,
    weights: Tensor4<f64>,
}

/// A layer whose calls the benchmark records from outside.
trait Inspect: Layer + 'static {
    fn as_conv(&self) -> Option<&Conv2dLayer> {
        None
    }
}
impl Inspect for Conv2dLayer {
    fn as_conv(&self) -> Option<&Conv2dLayer> {
        Some(self)
    }
}
impl Inspect for ReLU {}
impl Inspect for MaxPool2 {}
impl Inspect for Linear {}

struct Timed<L> {
    inner: L,
    index: usize,
    last: bool,
    fwd_name: String,
    bwd_name: String,
    shared: Rc<RefCell<Shared>>,
}

impl<L: Inspect> Timed<L> {
    fn boxed(inner: L, index: usize, last: bool, shared: &Rc<RefCell<Shared>>) -> Box<dyn Layer> {
        let name = inner.name();
        Box::new(Self {
            inner,
            index,
            last,
            fwd_name: format!("layers.{name}.fwd"),
            bwd_name: format!("layers.{name}.bwd"),
            shared: shared.clone(),
        })
    }

    fn cycles(&self) -> u64 {
        self.inner.as_conv().map_or(0, |c| c.simulated_cycles)
    }

    fn charge(&self, pass: &str, cycles: u64) {
        if self.inner.as_conv().is_none() {
            return;
        }
        let mut sh = self.shared.borrow_mut();
        *sh.exact
            .entry(format!("layers.conv2d.{pass}.sim_cycles"))
            .or_default() += cycles as f64;
        let mb = sh.microbatch;
        if sh.mb_cycles.len() <= mb {
            sh.mb_cycles.resize(mb + 1, 0);
        }
        sh.mb_cycles[mb] += cycles;
    }
}

impl<L: Inspect> Layer for Timed<L> {
    fn forward(&mut self, input: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        let capture = {
            let mut sh = self.shared.borrow_mut();
            if self.index == 0 && sh.in_step {
                sh.microbatch += 1;
            }
            sh.capture && sh.microbatch == MICROBATCHES * STEPS
        };
        if capture {
            if let Some(c) = self.inner.as_conv() {
                self.shared.borrow_mut().conv_ops[self.index] = Some(ConvOperands {
                    conv: c.conv,
                    input: input.clone(),
                    d_out: None,
                    weights: c.weights.clone(),
                });
            }
        }
        let before = self.cycles();
        let step = self.shared.borrow().step;
        let out = trace::span(&self.fwd_name, step, || self.inner.forward(input))?;
        self.charge("fwd", self.cycles() - before);
        if self.last && self.shared.borrow().capture {
            self.shared.borrow_mut().logits.push(out.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor4<f64>) -> Result<Tensor4<f64>, SwdnnError> {
        {
            let mut sh = self.shared.borrow_mut();
            if sh.capture && sh.microbatch == MICROBATCHES * STEPS {
                if let Some(Some(ops)) = sh.conv_ops.get_mut(self.index) {
                    ops.d_out = Some(d_out.clone());
                }
            }
        }
        let before = self.cycles();
        let step = self.shared.borrow().step;
        let out = trace::span(&self.bwd_name, step, || self.inner.backward(d_out))?;
        self.charge("bwd", self.cycles() - before);
        Ok(out)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        let (name, step) = {
            let mut sh = self.shared.borrow_mut();
            if !sh.in_step {
                (None, 0)
            } else {
                if self.index == 0 {
                    sh.walks += 1;
                }
                let name = match sh.walks {
                    w if w <= MICROBATCHES => "cluster.take_gradients",
                    w if w == MICROBATCHES + 1 => "cluster.load_gradients",
                    _ => "optim.step",
                };
                (Some(name), sh.step)
            }
        };
        match name {
            Some(n) => trace::span(n, step, || self.inner.visit_params(f)),
            None => self.inner.visit_params(f),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

pub struct TrainDp {
    seed: u64,
    stall: FaultPlan,
    batches: Vec<(Tensor4<f64>, Vec<usize>)>,
    conv_shapes: [ConvShape; 2],
}

impl TrainDp {
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let conv_shapes = [
            ConvShape::new(MICROBATCH, IN_CH, 16, HW - 2, HW - 2, 3, 3),
            ConvShape::new(MICROBATCH, 16, 32, HW - 4, HW - 4, 3, 3),
        ];
        for s in conv_shapes {
            let conv = Conv2d::new(s).map_err(|e| e.to_string())?;
            let lowered = Conv2d {
                shape: conv.backward_data_shape(),
                ..conv
            };
            if conv.plan().name() == "reference"
                || lowered.plan().name() == "reference"
                || BwdFilterPlan::auto(&s).supports(&s).is_err()
            {
                return Err(format!("{s}: a conv pass would fall back to the host"));
            }
        }
        let n = MICROBATCH * MICROBATCHES;
        let batches = (0..STEPS)
            .map(|_| {
                let labels: Vec<usize> = (0..n).map(|_| rng.below(CLASSES)).collect();
                let mut x: Tensor4<f64> =
                    seeded_tensor(Shape4::new(n, IN_CH, HW, HW), Layout::Nchw, rng.next_u64());
                // A learnable signal: the label shifts one channel.
                for (b, &y) in labels.iter().enumerate() {
                    let ch = y % IN_CH;
                    let lift = if y >= IN_CH { -1.0 } else { 1.0 };
                    for r in 0..HW {
                        for c in 0..HW {
                            x.set(b, ch, r, c, x.get(b, ch, r, c) + lift);
                        }
                    }
                }
                (x, labels)
            })
            .collect();
        let stall = FaultPlan::none(rng.next_u64())
            .with_dma_stalls(crate::conv_fwd::STALL_RATE, crate::conv_fwd::STALL_CYCLES);
        Ok(Self {
            seed,
            stall,
            batches,
            conv_shapes,
        })
    }

    fn network(&self, shared: &Rc<RefCell<Shared>>) -> Result<Sequential, SwdnnError> {
        let conv = |i: usize| -> Result<Conv2dLayer, SwdnnError> {
            let mut l =
                Conv2dLayer::new(self.conv_shapes[i], Engine::Simulated, self.seed + i as u64)?;
            l.conv = l.conv.with_fault(Some(self.stall));
            Ok(l)
        };
        let s2 = self.conv_shapes[1];
        let flat = s2.no * (s2.ro / 2) * (s2.co / 2);
        Ok(Sequential::new(vec![
            Timed::boxed(conv(0)?, 0, false, shared),
            Timed::boxed(ReLU::new(), 1, false, shared),
            Timed::boxed(conv(1)?, 2, false, shared),
            Timed::boxed(ReLU::new(), 3, false, shared),
            Timed::boxed(MaxPool2::new(), 4, false, shared),
            Timed::boxed(Linear::new(flat, CLASSES, self.seed + 2), 5, true, shared),
        ]))
    }

    /// Train `STEPS` steps on `chips` chips from a fresh network.
    fn train(&self, chips: usize, out: &mut PassOut) -> Result<Rc<RefCell<Shared>>, String> {
        let shared = Rc::new(RefCell::new(Shared {
            conv_ops: (0..6).map(|_| None).collect(),
            ..Shared::default()
        }));
        let net = self.network(&shared).map_err(|e| e.to_string())?;
        let cfg = TrainConfig {
            chips,
            microbatches: MICROBATCHES,
            bucket_params: Some(BUCKET_PARAMS),
            overlap: true,
            ..TrainConfig::default()
        };
        let mut trainer = DataParallelTrainer::new(net, Optimizer::sgd_momentum(0.05, 0.9), cfg)
            .map_err(|e| e.to_string())?;
        let mut digest = DIGEST_SEED;
        for (step, (x, y)) in self.batches.iter().enumerate() {
            {
                let mut sh = shared.borrow_mut();
                sh.in_step = true;
                sh.step = step as u64;
                sh.walks = 0;
                sh.capture = step + 1 == STEPS;
            }
            let t0 = Instant::now();
            let rep = trace::span("cluster.step", step as u64, || trainer.step(x, y));
            let dt = t0.elapsed().as_secs_f64();
            out.step_s.push(dt);
            out.host_s += dt;
            shared.borrow_mut().in_step = false;
            let rep = rep.map_err(|e| format!("step {step}: {e}"))?;
            out.attempted += 1;
            if !rep.loss.is_finite() {
                return Err(format!("step {step}: loss {}", rep.loss));
            }
            digest = digest_f64(digest, &[rep.loss]);
            let c = rep.collective;
            let e = &mut out.exact;
            *e.entry("cluster.collective.buckets".into()).or_default() += c.buckets as f64;
            *e.entry("cluster.collective.comm_us".into()).or_default() += c.comm_us;
            *e.entry("cluster.collective.hidden_us".into()).or_default() += c.hidden_us;
            *e.entry("cluster.collective.overlap_permille".into())
                .or_default() += c.overlap_permille as f64 / STEPS as f64;
            *e.entry("cluster.step_us".into()).or_default() += rep.step_us;
        }
        out.digest = digest_f64(digest, &trainer.parameters());
        Ok(shared)
    }

    /// Replay the captured operands through the public `Conv2d` calls and
    /// the softmax loss (see the module docs).
    fn replay(&self, shared: &Shared, exact: &mut Values) -> Result<(), String> {
        let last = &self.batches[STEPS - 1].1;
        for (i, logits) in shared.logits.iter().enumerate() {
            let y = &last[i * MICROBATCH..(i + 1) * MICROBATCH];
            let mut loss = SoftmaxCrossEntropy::new();
            trace::span("layers.softmax.fwd", i as u64, || loss.forward(logits, y))
                .map_err(|e| e.to_string())?;
            trace::span("layers.softmax.bwd", i as u64, || loss.backward(y))
                .map_err(|e| e.to_string())?;
        }
        for (i, ops) in shared.conv_ops.iter().enumerate() {
            let Some(ops) = ops else { continue };
            let d_out = ops.d_out.as_ref().ok_or("no output gradient captured")?;
            let conv = ops.conv;
            let id = i as u64;
            let plan = trace::span("conv.select", id, || conv.plan()).name();
            let run = trace::span("conv.fwd", id, || {
                trace::span(&format!("plans.{plan}"), id, || {
                    conv.forward(&ops.input, &ops.weights)
                })
            })
            .map_err(|e| e.to_string())?;
            add_plan_call(exact, plan, "fwd", run.timing.cycles);
            add_swsim(exact, &run.timing);
            let lowered = Conv2d {
                shape: conv.backward_data_shape(),
                ..conv
            };
            let plan = lowered.plan().name();
            let run = trace::span("conv.bwd_data", id, || {
                trace::span(&format!("plans.{plan}"), id, || {
                    conv.backward_data_on_chip(d_out, &ops.weights)
                })
            })
            .map_err(|e| e.to_string())?;
            add_plan_call(exact, plan, "bwd_data", run.timing.cycles);
            add_swsim(exact, &run.timing);
            let (_, timing) = trace::span("conv.bwd_filter", id, || {
                trace::span("plans.bwd_filter", id, || {
                    conv.backward_filter_on_chip(&ops.input, d_out)
                })
            })
            .map_err(|e| e.to_string())?;
            add_plan_call(exact, "bwd_filter", "bwd_filter", timing.cycles);
            add_swsim(exact, &timing);
        }
        Ok(())
    }
}

impl Workload for TrainDp {
    fn pass(&mut self) -> Result<PassOut, String> {
        let rt = sw_runtime::global();
        let handoffs0 = rt.pool_handoffs();
        let mut out = PassOut::default();
        let shared = self.train(CHIPS, &mut out)?;
        let handoffs = rt.pool_handoffs() - handoffs0;
        out.pool_handoffs = handoffs;
        let sh = shared.borrow();
        trace::span("bench.replay", 0, || self.replay(&sh, &mut out.exact))?;

        let clock_hz = swdnn::ChipSpec::sw26010().clock_ghz * 1e9;
        let cycles: u64 = sh.mb_cycles.iter().sum();
        if sh.mb_cycles.len() != MICROBATCHES * STEPS + 1 || sh.mb_cycles[0] != 0 {
            return Err(format!(
                "expected {} microbatches per pass, saw {:?}",
                MICROBATCHES * STEPS,
                sh.mb_cycles
            ));
        }
        let mb_us: Vec<f64> = sh.mb_cycles[1..]
            .iter()
            .map(|&c| c as f64 / clock_hz * 1e6)
            .collect();
        let flops: f64 = self
            .conv_shapes
            .iter()
            .map(|s| 3.0 * s.flops() as f64)
            .sum::<f64>()
            * (MICROBATCHES * STEPS) as f64;
        let sim_s = cycles as f64 / clock_hz;
        out.sim_gflop = flops / 1e9;
        out.exact.extend(sh.exact.clone());
        out.exact
            .insert("sim_gflops_cg".into(), flops / sim_s / 1e9);
        out.exact.insert(
            "sim_ms_per_sample".into(),
            sim_s * 1e3 / (MICROBATCH * MICROBATCHES * STEPS) as f64,
        );
        out.exact
            .insert("sim_p50_us".into(), percentile(&mb_us, 50.0));
        out.exact
            .insert("sim_p99_us".into(), percentile(&mb_us, 99.0));
        Ok(out)
    }

    fn final_check(&mut self, reference: &PassOut) -> Result<(), String> {
        let mut other = PassOut::default();
        trace::span("bench.check", 0, || self.train(CHECK_CHIPS, &mut other))?;
        if other.digest != reference.digest {
            return Err(format!(
                "parameters after {STEPS} steps differ between {CHIPS} and {CHECK_CHIPS} chips"
            ));
        }
        Ok(())
    }
}
