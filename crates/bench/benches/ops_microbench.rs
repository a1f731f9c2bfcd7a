//! Criterion microbenchmarks of the substrate: the kernels that dominate
//! training time (Remark 2 of the paper notes GRU cost O(n·d²) dominates).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use uae_core::{Phase, PnRisk, RiskEstimator, WeightCtx};
use uae_data::{generate, seq_batches, SimConfig};
use uae_nn::GruCell;
use uae_tensor::{with_kernel_mode, with_num_threads, KernelMode, Matrix, Params, Rng, Tape};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(1);
    let a = Matrix::randn(256, 128, 1.0, &mut rng);
    let b = Matrix::randn(128, 128, 1.0, &mut rng);
    c.bench_function("matmul_256x128x128", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)))
    });
}

/// Naive vs cache-blocked GEMM on one thread, at the two shapes where the
/// blocked kernel has measured slower than the naive reference.
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

fn bench_gru_step(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(2);
    let mut params = Params::new();
    let cell = GruCell::new("g", 64, 64, &mut params);
    params.init(&mut rng);
    let x = Matrix::randn(128, 64, 1.0, &mut rng);
    c.bench_function("gru_step_batch128_h64", |bench| {
        bench.iter_batched(
            Tape::new,
            |mut tape| {
                let xv = tape.input(x.clone());
                let h0 = cell.zero_state(&mut tape, 128);
                std::hint::black_box(cell.step(&mut tape, &params, &xv, &h0));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_uae_training_step(c: &mut Criterion) {
    let ds = generate(&SimConfig::tiny(), 3);
    let sessions: Vec<usize> = (0..ds.sessions.len().min(64)).collect();
    let mut rng = Rng::seed_from_u64(3);
    let batches = seq_batches(&ds, &sessions, 32, 20, &mut rng);
    let batch = batches[batches.len() - 1].clone();
    let mut params = Params::new();
    let net =
        uae_core::AttentionNet::new("g", &ds.schema, 8, 32, &[32], None, &mut params, &mut rng);
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
            let loss = uae_core::masked_sequence_bce(
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
        bench.iter(|| std::hint::black_box(uae_data::FlatData::from_sessions(&ds, &sessions)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul, bench_gemm_kernels, bench_gru_step, bench_uae_training_step, bench_dataset_generation, bench_flatten
}
criterion_main!(benches);
