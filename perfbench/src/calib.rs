//! The Table III calibration every workload runs once: the four published
//! rows at their published plan and blocking, simulated with the plans'
//! sampled timing, against the Gflops the paper measured on the chip.

use crate::Values;
use std::time::Instant;
use sw_perfmodel::select::Blocking;
use sw_perfmodel::{ChipSpec, ConvPerfModel, PlanKind};
use sw_tensor::ConvShape;
use swdnn::plans::{BatchAwarePlan, ConvPlan, ImageAwarePlan};
use swdnn::Executor;

/// Published one-CG Gflops of the four Table III rows, in
/// `sw_bench::configs::table3_configs` order.
const PUBLISHED_GFLOPS: [f64; 4] = [350.0, 375.0, 410.0, 392.0];

/// Run the four rows, putting the exact values in `exact`. Returns the
/// host seconds the executor took over the four rows.
pub fn table3(exact: &mut Values) -> Result<f64, String> {
    let chip = ChipSpec::sw26010();
    let model = ConvPerfModel::default();
    let rows = sw_bench::configs::table3_configs();
    if rows.len() != PUBLISHED_GFLOPS.len() {
        return Err(format!("expected 4 Table III rows, got {}", rows.len()));
    }
    let mut err_sum = 0.0;
    let mut exec_host = 0.0;
    for ((plan, b_b, b_co, ni, no), published) in rows.into_iter().zip(PUBLISHED_GFLOPS) {
        let shape = ConvShape::new(128, ni, no, 64, 64, 3, 3);
        let row = format!("{plan}_{ni}_{no}");
        let (kind, blocking, timing) = if plan == "img" {
            let blocking = Blocking { b_b, b_co };
            let timing = ImageAwarePlan::new(blocking).time_full_shape(&shape);
            (PlanKind::ImageSizeAware, blocking, timing)
        } else {
            let timing = BatchAwarePlan::auto(&shape).time_full_shape(&shape);
            (PlanKind::BatchSizeAware, Blocking::default(), timing)
        };
        let timing = timing.map_err(|e| format!("table3 {row}: {e}"))?;
        let meas = timing.gflops(&shape, &chip);
        let est = model.estimate(kind, blocking, shape.batch, ni, no, shape.kc);
        exact.insert(
            format!("perfmodel.table3.{row}.mdl_over_meas"),
            est.gflops_per_cg / meas,
        );
        err_sum += (meas - published).abs() / published;

        // The same row through the executor's public entry point, timed.
        let t0 = Instant::now();
        let rep = Executor::new()
            .run_config_with(&shape, kind)
            .map_err(|e| format!("executor {row}: {e}"))?;
        exec_host += t0.elapsed().as_secs_f64();
        if rep.timing.cycles == 0 {
            return Err(format!("executor {row}: zero simulated cycles"));
        }
    }
    exact.insert("table3_err_pct".into(), 100.0 * err_sum / 4.0);
    Ok(exec_host)
}
