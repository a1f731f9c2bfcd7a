//! Criterion microbenchmarks of the substrate: the kernels that dominate
//! training time (Remark 2 of the paper notes GRU cost O(n·d²) dominates).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use uae::core::{Phase, PnRisk, RiskEstimator, WeightCtx};
use uae::data::{generate, seq_batches, SimConfig};
use uae::nn::GruCell;
use uae::tensor::{
    arena, gru_unroll_steps, with_kernel_mode, with_num_threads, Exec, KernelMode, Matrix, Params,
    Rng, Tape, ValueExec, Var,
};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let a = Matrix::randn(256, 128, 1.0, &mut rng);
    let b = Matrix::randn(128, 128, 1.0, &mut rng);
    c.bench_function("matmul_256x128x128", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)))
    });
}

/// Naive vs cache-blocked GEMM on one thread. These are the two shapes at
/// which an early run once measured the blocked kernel slower than the
/// naive reference; later runs did not reproduce that (see ROADMAP), and
/// the cases stay to keep the comparison measurable.
fn bench_gemm_kernels(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(5);
    for (m, k, n) in [(128, 64, 64), (512, 256, 256)] {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        for (label, mode) in [
            ("naive", KernelMode::Naive),
            ("blocked", KernelMode::Blocked),
        ] {
            c.bench_function(&format!("matmul_{m}x{k}x{n}_{label}_1t"), |bench| {
                bench.iter(|| {
                    with_num_threads(1, || {
                        with_kernel_mode(mode, || std::hint::black_box(a.matmul(&b)))
                    })
                })
            });
        }
    }
}

/// One GRU₁ unroll forward and backward on the tape at the benchmark's
/// `train` shapes (batch 64, input 142, hidden 32, 18 steps, every row
/// live): the per-step op sequence the tape used to record, against the
/// one-node [`Tape::gru_unroll`]. Both produce the same bits. Beside them,
/// the tape-free forward alone (`ValueExec::gru_unroll`, one arena scope
/// as in serving), which runs the tape node's forward kernel.
fn bench_gru_unroll(c: &mut Criterion) {
    let (batch, in_dim, hidden, steps) = (64, 142, 32, 18);
    let mut rng = Rng::seed_from_u64(2);
    let mut params = Params::new();
    let cell = GruCell::new("g", in_dim, hidden, &mut params);
    params.init(&mut rng);
    let xs: Vec<Matrix> = (0..steps)
        .map(|_| Matrix::randn(batch, in_dim, 1.0, &mut rng))
        .collect();
    let mask = Matrix::filled(batch, 1, 1.0);
    for (label, one_node) in [("per_step", false), ("node", true)] {
        c.bench_function(
            &format!("gru_unroll_b{batch}_in{in_dim}_h{hidden}_t{steps}_{label}"),
            |bench| {
                bench.iter_batched(
                    Tape::new,
                    |mut tape| {
                        let vars = cell.param_vars(&mut tape, &params);
                        let h0 = cell.zero_state(&mut tape, batch);
                        let xs: Vec<Var> = xs.iter().map(|x| tape.input(x.clone())).collect();
                        let masks: Vec<Var> =
                            (0..steps).map(|_| tape.input(mask.clone())).collect();
                        let states = if one_node {
                            tape.gru_unroll(&vars, h0, &xs, &masks)
                        } else {
                            gru_unroll_steps(&mut tape, &vars, &h0, &xs, &masks)
                        };
                        let mut loss = tape.sum_all(states[0]);
                        for &h in &states[1..] {
                            let s = tape.sum_all(h);
                            loss = tape.add(loss, s);
                        }
                        params.zero_grads();
                        tape.backward(loss, &mut params);
                        std::hint::black_box(params.grad_norm());
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    let masks: Vec<Matrix> = (0..steps).map(|_| mask.clone()).collect();
    c.bench_function(
        &format!("gru_unroll_b{batch}_in{in_dim}_h{hidden}_t{steps}_value"),
        |bench| {
            bench.iter(|| {
                arena::scoped(|| {
                    let mut vx = ValueExec::new();
                    let vars = cell.param_vars(&mut vx, &params);
                    let h0 = cell.zero_state(&mut vx, batch);
                    std::hint::black_box(vx.gru_unroll(&vars, &h0, &xs, &masks));
                })
            })
        },
    );
}

fn bench_uae_training_step(c: &mut Criterion) {
    let ds = generate(&SimConfig::tiny(), 3);
    let sessions: Vec<usize> = (0..ds.sessions.len().min(64)).collect();
    let mut rng = Rng::seed_from_u64(3);
    let batches = seq_batches(&ds, &sessions, 32, 20, &mut rng);
    let batch = batches[batches.len() - 1].clone();
    let mut params = Params::new();
    let net =
        uae::core::AttentionNet::new("g", &ds.schema, 8, 32, &[32], None, &mut params, &mut rng);
    c.bench_function("attention_net_fwd_bwd", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let out = net.forward(&mut tape, &params, &batch);
            let ctx = WeightCtx {
                batch: &batch,
                alpha_hat: None,
                p_hat: None,
            };
            let w = PnRisk.weights(Phase::Attention, &ctx);
            let loss = uae::core::masked_sequence_bce(
                &mut tape,
                &out.logits,
                &w.pos,
                &w.neg,
                batch.valid_steps() as f32,
                false,
            );
            params.zero_grads();
            tape.backward(loss, &mut params);
            std::hint::black_box(params.grad_norm());
        })
    });
}

fn bench_dataset_generation(c: &mut Criterion) {
    let cfg = SimConfig::tiny();
    c.bench_function("generate_tiny_dataset", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            seed += 1;
            std::hint::black_box(generate(&cfg, seed))
        })
    });
}

fn bench_flatten(c: &mut Criterion) {
    let ds = generate(&SimConfig::product(0.1), 4);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    c.bench_function("flatten_product_0.1", |bench| {
        bench.iter(|| std::hint::black_box(uae::data::FlatData::from_sessions(&ds, &sessions)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul, bench_gemm_kernels, bench_gru_unroll, bench_uae_training_step, bench_dataset_generation, bench_flatten
}
criterion_main!(benches);
