//! Auto-tune a fused operator (tile sizes × thread budgets, as the
//! paper's "respective tool auto-tuners" do) and inspect the winning
//! variant with the nvprof-substitute profiler.
//!
//! Run with: `cargo run --release --example autotune_profile`

use polyject::codegen::compile_with_options;
use polyject::core::Budget;
use polyject::prelude::*;
use polyject_tune::{evaluate_point, grid_anchors, TuneRequest};

fn main() {
    let kernel = polyject::ir::ops::transpose_2d_of(2048, 2048, ElemType::F16);
    let model = GpuModel::v100();

    for config in [Config::Isl, Config::Influenced] {
        println!("== {} ==", config.name());
        let req = TuneRequest {
            kernel: kernel.clone(),
            config,
            gpu: model.clone(),
            budget: Budget::unlimited(),
        };
        // The fixed tiling/mapping grid; the first strictly fastest point
        // wins, so ties keep the untiled default.
        let mut best: Option<polyject_tune::Evaluated> = None;
        for point in grid_anchors() {
            let cand = evaluate_point(&req, &point).expect("tunable");
            println!(
                "  tile={:<12} max_threads={:<5} -> {:.4} ms ({})",
                cand.point
                    .tiling
                    .map(|t| t.tile_size.to_string())
                    .unwrap_or_else(|| "untiled".into()),
                cand.point.mapping.max_threads,
                cand.timing.ms(),
                cand.timing.bottleneck()
            );
            if best
                .as_ref()
                .is_none_or(|b| cand.timing.time < b.timing.time)
            {
                best = Some(cand);
            }
        }
        let best = best.expect("the grid is not empty");
        println!(
            "  winner: tile={:?} {:.4} ms",
            best.point.tiling.map(|t| t.tile_size),
            best.timing.ms()
        );
        let winner = compile_with_options(
            &kernel,
            config,
            &req.budget,
            &best.point.to_compile_options(),
        )
        .expect("compiles");
        println!("{}", profile(&winner.ast, &kernel, &model).render());
    }

    // On different device models the comparison shape persists.
    for m in [GpuModel::v100(), GpuModel::a100(), GpuModel::consumer()] {
        let isl = estimate(
            &compile(&kernel, Config::Isl).expect("compiles").ast,
            &kernel,
            &m,
        );
        let infl = estimate(
            &compile(&kernel, Config::Influenced).expect("compiles").ast,
            &kernel,
            &m,
        );
        println!(
            "{:<22} isl {:.4} ms  infl {:.4} ms  speedup {:.2}x",
            m.name,
            isl.ms(),
            infl.ms(),
            isl.time / infl.time
        );
    }
}
