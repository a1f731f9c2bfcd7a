//! Bit-identity of the parallel compute backend.
//!
//! The backend's determinism contract: for any thread count, every kernel
//! produces results byte-identical to the single-threaded run, because row
//! partitioning never splits the accumulation of a single output element.
//! These tests pin the thread count with `with_num_threads` (which bypasses
//! the small-work heuristics, so tiny shapes genuinely fan out) and compare
//! bitwise.

use uae_tensor::gradcheck::check_params;
use uae_tensor::{
    dispatch_stats, gru_unroll_steps, with_fusion, with_kernel_mode, with_num_threads, Exec,
    GruVars, KernelMode, Matrix, ParamId, Params, Rng, Tape, ValueExec, Var,
};

/// Ragged shapes exercising 1×1, 1×n, n×1, and row counts that do not divide
/// evenly by any of the tested thread counts.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 1),
    (7, 1, 5),
    (1, 1, 9),
    (5, 3, 1),
    (2, 2, 2),
    (3, 17, 29),
    (33, 8, 13),
    (64, 32, 48),
];

const THREADS: &[usize] = &[2, 3, 4, 5, 8];

fn mk(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::randn(rows, cols, 1.0, &mut rng)
}

#[test]
fn matmul_family_is_bitwise_identical_across_thread_counts() {
    for &(m, k, n) in SHAPES {
        let a = mk(m, k, 1);
        let b = mk(k, n, 2);
        let bt = mk(n, k, 3);
        let bias = mk(1, n, 4);
        let serial = with_num_threads(1, || {
            (
                a.matmul(&b),
                a.matmul_nt(&bt),
                a.matmul_tn(&mk(m, n, 5)),
                a.matmul_bias(&b, &bias),
            )
        });
        for &nt in THREADS {
            let par = with_num_threads(nt, || {
                (
                    a.matmul(&b),
                    a.matmul_nt(&bt),
                    a.matmul_tn(&mk(m, n, 5)),
                    a.matmul_bias(&b, &bias),
                )
            });
            assert_eq!(serial.0, par.0, "matmul {m}x{k}x{n} at {nt} threads");
            assert_eq!(serial.1, par.1, "matmul_nt {m}x{k}x{n} at {nt} threads");
            assert_eq!(serial.2, par.2, "matmul_tn {m}x{k}x{n} at {nt} threads");
            assert_eq!(serial.3, par.3, "matmul_bias {m}x{k}x{n} at {nt} threads");
        }
    }
}

#[test]
fn batched_matmul_is_bitwise_identical_across_thread_counts() {
    for &(batch, trans_b) in &[(1, false), (3, false), (5, true), (7, true)] {
        let (m, p, n) = (3, 4, 5);
        let a = mk(batch * m, p, 10);
        let b = if trans_b {
            mk(batch * n, p, 11)
        } else {
            mk(batch * p, n, 11)
        };
        let run = || {
            let mut tape = Tape::new();
            let av = tape.input(a.clone());
            let bv = tape.input(b.clone());
            let c = tape.batched_matmul(av, bv, batch, trans_b);
            tape.value(c).clone()
        };
        let serial = with_num_threads(1, run);
        for &nt in THREADS {
            let par = with_num_threads(nt, run);
            assert_eq!(
                serial, par,
                "batched batch={batch} trans_b={trans_b} at {nt} threads"
            );
        }
    }
}

#[test]
fn backward_gradients_are_bitwise_identical_across_thread_counts() {
    // An MLP-like graph: input → matmul → tanh → matmul → weighted BCE.
    let run = |nt: usize| {
        with_num_threads(nt, || {
            let mut rng = Rng::seed_from_u64(42);
            let mut params = Params::new();
            let w1 = params.add("w1", Matrix::randn(6, 13, 0.5, &mut rng));
            let w2 = params.add("w2", Matrix::randn(13, 1, 0.5, &mut rng));
            let x = Matrix::randn(21, 6, 1.0, &mut rng);
            let pos: Vec<f32> = (0..21).map(|i| (i % 2) as f32).collect();
            let neg: Vec<f32> = pos.iter().map(|p| 1.0 - p).collect();
            let mut tape = Tape::new();
            let xv = tape.input(x);
            let w1v = tape.param(&params, w1);
            let h = tape.matmul(xv, w1v);
            let h = tape.tanh(h);
            let w2v = tape.param(&params, w2);
            let z = tape.matmul(h, w2v);
            let loss = tape.weighted_bce(z, &pos, &neg, 21.0, false);
            params.zero_grads();
            tape.backward(loss, &mut params);
            (params.grad(w1).clone(), params.grad(w2).clone())
        })
    };
    let serial = run(1);
    for &nt in THREADS {
        let par = run(nt);
        assert_eq!(serial.0, par.0, "grad w1 differs at {nt} threads");
        assert_eq!(serial.1, par.1, "grad w2 differs at {nt} threads");
    }
}

#[test]
fn gradcheck_passes_with_the_pool_and_threads_enabled() {
    // Numeric gradient check with the parallel path + scratch pool active:
    // pooled (stale-content) buffers must never leak into results.
    with_num_threads(4, || {
        let mut rng = Rng::seed_from_u64(7);
        let mut params = Params::new();
        let w = params.add("w", Matrix::randn(5, 3, 0.5, &mut rng));
        let b = params.add("b", Matrix::zeros(1, 3));
        let v = params.add("v", Matrix::randn(3, 1, 0.5, &mut rng));
        let x = Matrix::randn(9, 5, 0.8, &mut rng);
        let pos: Vec<f32> = (0..9).map(|i| (i % 3 == 0) as u8 as f32).collect();
        let neg: Vec<f32> = pos.iter().map(|p| 1.0 - p).collect();
        let check = check_params(&mut params, 5e-3, |tape, params| {
            let xv = tape.input(x.clone());
            let wv = tape.param(params, w);
            let bv = tape.param(params, b);
            let h = tape.linear(xv, wv, bv);
            let h = tape.tanh(h);
            let vv = tape.param(params, v);
            let z = tape.matmul(h, vv);
            tape.weighted_bce(z, &pos, &neg, 9.0, false)
        });
        assert!(check.passes(3e-2), "max_rel_err={}", check.max_rel_err);
    });
}

#[test]
fn segmented_matmul_tn_is_per_segment_matmul_tn_summed_latest_first() {
    let ragged: &[&[usize]] = &[&[3, 0, 5, 1, 7], &[64], &[1; 9], &[2, 9, 4]];
    for &seg_lens in ragged {
        for (cols, n) in [(13, 7), (1, 5), (6, 1), (33, 32)] {
            let segs: Vec<(Matrix, Matrix)> = seg_lens
                .iter()
                .enumerate()
                .map(|(s, &len)| (mk(len, cols, 20 + s as u64), mk(len, n, 40 + s as u64)))
                .collect();
            let pairs: Vec<(&Matrix, &Matrix)> = segs.iter().map(|(a, b)| (a, b)).collect();
            for mode in [KernelMode::Blocked, KernelMode::Naive] {
                // Oracle: one `matmul_tn` per segment, `add_assign`ed latest
                // first, as a per-step tape accumulates a shared weight.
                let mut expect: Option<Matrix> = None;
                for (a, b) in segs.iter().rev() {
                    let p = with_kernel_mode(mode, || a.matmul_tn(b));
                    match &mut expect {
                        Some(e) => e.add_assign(&p),
                        None => expect = Some(p),
                    }
                }
                let expect = expect.unwrap();
                for nt in [1, 2, 3, 4, 8] {
                    let got = with_num_threads(nt, || {
                        with_kernel_mode(mode, || Matrix::matmul_tn_segmented(&pairs))
                    });
                    assert_eq!(
                        got, expect,
                        "segments {seg_lens:?}, {cols}x{n}, {mode:?}, {nt} threads"
                    );
                }
            }
        }
    }
}

/// One GRU unroll problem. Inputs and the initial state are parameters, so
/// their gradients (`dX`, `dh0`) land in `Params` beside the nine gates'.
struct GruCase {
    params: Params,
    gates: [ParamId; 9],
    xs: Vec<ParamId>,
    h0: ParamId,
    masks: Vec<Matrix>,
    /// Per-step head weights; `None` leaves that step's state out of the loss.
    heads: Vec<Option<Matrix>>,
}

fn gru_case(
    steps: usize,
    batch: usize,
    in_dim: usize,
    hidden: usize,
    mask: impl Fn(usize, usize) -> bool,
    head: impl Fn(usize) -> bool,
) -> GruCase {
    let mut rng = Rng::seed_from_u64((steps * 1000 + batch * 100 + in_dim * 10 + hidden) as u64);
    let mut params = Params::new();
    let gates = [0, 1, 2, 3, 4, 5, 6, 7, 8].map(|k| {
        let (rows, cols) = match k % 3 {
            0 => (in_dim, hidden),
            1 => (hidden, hidden),
            _ => (1, hidden),
        };
        params.add(format!("gate{k}"), Matrix::randn(rows, cols, 0.5, &mut rng))
    });
    let xs = (0..steps)
        .map(|t| params.add(format!("x{t}"), Matrix::randn(batch, in_dim, 1.0, &mut rng)))
        .collect();
    let h0 = params.add("h0", Matrix::randn(batch, hidden, 0.5, &mut rng));
    let masks = (0..steps)
        .map(|t| Matrix::from_fn(batch, 1, |i, _| mask(t, i) as u8 as f32))
        .collect();
    let heads = (0..steps)
        .map(|t| head(t).then(|| Matrix::randn(batch, hidden, 1.0, &mut rng)))
        .collect();
    GruCase {
        params,
        gates,
        xs,
        h0,
        masks,
        heads,
    }
}

/// How [`gru_run`] records the unroll.
#[derive(Clone, Copy, PartialEq)]
enum Unroll {
    /// `Tape::gru_unroll`, then every step's head.
    Node,
    /// The per-step default body (`gru_unroll_steps`), then every step's head.
    Steps,
    /// The per-step body in the networks' interleaved layout: each step's
    /// input and mask, the step, then its head. This is the tape the node
    /// must reproduce.
    Interleaved,
}

/// Runs `case` forward and backward, returning every state and every
/// parameter gradient.
fn gru_run(case: &mut GruCase, unroll: Unroll) -> (Vec<Matrix>, Vec<Matrix>) {
    let steps = case.xs.len();
    let hidden = case.params.value(case.gates[1]).cols();
    let mut tape = Tape::new();
    let params = &case.params;
    let handles = case.gates.map(|id| tape.param(params, id));
    let vars = GruVars::new(handles);
    let h0 = tape.param(params, case.h0);
    let mut loss: Option<Var> = None;
    let mut head = |tape: &mut Tape, t: usize, h: Var| {
        if let Some(w) = &case.heads[t] {
            let w = tape.input(w.clone());
            let hw = tape.mul(h, w);
            let l = tape.sum_all(hw);
            loss = Some(loss.map_or(l, |acc| tape.add(acc, l)));
        }
    };
    let states = if unroll == Unroll::Interleaved {
        let mut states: Vec<Var> = Vec::new();
        for t in 0..steps {
            let x = tape.param(params, case.xs[t]);
            let m = tape.input(case.masks[t].clone());
            let h = tape.gru_step(&vars, &x, states.last().unwrap_or(&h0), Some(&m));
            states.push(h);
            head(&mut tape, t, h);
        }
        states
    } else {
        let xs: Vec<Var> = case.xs.iter().map(|&id| tape.param(params, id)).collect();
        let masks: Vec<Var> = case.masks.iter().map(|m| tape.input(m.clone())).collect();
        let before = tape.len();
        let states = if unroll == Unroll::Node {
            let states = tape.gru_unroll(&vars, h0, &xs, &masks);
            if hidden > 1 {
                assert_eq!(
                    tape.len(),
                    before + 1 + steps,
                    "one node plus a handle per step"
                );
            }
            states
        } else {
            gru_unroll_steps(&mut tape, &vars, &h0, &xs, &masks)
        };
        for (t, &h) in states.iter().enumerate() {
            head(&mut tape, t, h);
        }
        states
    };
    let values = states.iter().map(|&s| tape.value(s).clone()).collect();
    case.params.zero_grads();
    tape.backward(loss.expect("some step has a head"), &mut case.params);
    let grads = case
        .params
        .ids()
        .map(|id| case.params.grad(id).clone())
        .collect();
    (values, grads)
}

/// `case`'s states from the tape-free `ValueExec::gru_unroll`: the fused
/// unroll kernel, or with fusion off the per-gate steps.
fn value_run(case: &GruCase, fused: bool) -> Vec<Matrix> {
    let params = &case.params;
    let mut vx = with_fusion(fused, ValueExec::new);
    let vars = GruVars::new(case.gates.map(|id| vx.param(params, id)));
    let xs: Vec<Matrix> = case.xs.iter().map(|&id| vx.param(params, id)).collect();
    vx.gru_unroll(&vars, params.value(case.h0), &xs, &case.masks)
}

#[test]
fn gru_unroll_node_matches_the_per_step_tape_bitwise() {
    let every = |_: usize, _: usize| true;
    let ragged = |t: usize, i: usize| (t + i) % 4 != 3;
    let all = |_: usize| true;
    let cases = vec![
        ("ragged", gru_case(5, 7, 13, 9, ragged, all)),
        ("T = 1", gru_case(1, 4, 6, 5, ragged, all)),
        (
            "an all-padding step",
            gru_case(4, 5, 8, 6, |t, i| t != 2 && i != 4, all),
        ),
        ("batch 1", gru_case(6, 1, 9, 7, |t, _| t != 3, all)),
        ("in_dim 1", gru_case(5, 6, 1, 8, ragged, all)),
        ("hidden 1 (fallback)", gru_case(4, 3, 5, 1, ragged, all)),
        ("hidden 33 (dot16)", gru_case(3, 4, 37, 33, every, all)),
        ("hidden 5", gru_case(4, 4, 6, 5, ragged, all)),
        ("hidden 17", gru_case(3, 3, 9, 17, ragged, all)),
        ("batch 0", gru_case(3, 0, 4, 3, ragged, all)),
        (
            "last steps without a head",
            gru_case(5, 3, 4, 6, ragged, |t| t < 3),
        ),
        (
            "only the last step's head",
            gru_case(4, 3, 4, 6, ragged, |t| t == 3),
        ),
    ];
    for (name, mut case) in cases {
        // The hidden-1 fallback records the per-step ops itself, so its
        // reference is the per-step body in the same (unroll, then heads)
        // layout; every other shape must match the interleaved tape.
        let reference = if case.params.value(case.gates[1]).cols() > 1 {
            Unroll::Interleaved
        } else {
            Unroll::Steps
        };
        let serial = with_num_threads(1, || gru_run(&mut case, Unroll::Node));
        for nt in [1, 2, 4] {
            let (node_states, node_grads) =
                with_num_threads(nt, || gru_run(&mut case, Unroll::Node));
            let (ref_states, ref_grads) = with_num_threads(nt, || gru_run(&mut case, reference));
            assert_eq!(node_states, ref_states, "{name}: states at {nt} threads");
            for fused in [true, false] {
                let value_states = with_num_threads(nt, || value_run(&case, fused));
                assert_eq!(
                    value_states, ref_states,
                    "{name}: ValueExec (fused {fused}) states at {nt} threads"
                );
            }
            for (k, (a, b)) in node_grads.iter().zip(&ref_grads).enumerate() {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{name}: gradient of {} at {nt} threads",
                    case.params.name(case.params.ids().nth(k).unwrap())
                );
            }
            assert_eq!(node_grads, serial.1, "{name}: gradients vary with threads");
        }
    }
}

#[test]
fn value_exec_gru_unroll_opens_no_parallel_region() {
    // The `train` shapes of GRU₁: batch 64, input 142, hidden 32, 18 steps.
    let case = gru_case(18, 64, 142, 32, |_, _| true, |_| true);
    with_num_threads(4, || {
        let before = dispatch_stats().par_regions;
        value_run(&case, true);
        assert_eq!(
            dispatch_stats().par_regions - before,
            0,
            "the tape-free unroll runs one row block on the calling thread"
        );
        let mut tape = Tape::new();
        let params = &case.params;
        let vars = GruVars::new(case.gates.map(|id| tape.param(params, id)));
        let h0 = tape.param(params, case.h0);
        let xs: Vec<Var> = case.xs.iter().map(|&id| tape.param(params, id)).collect();
        let masks: Vec<Var> = case.masks.iter().map(|m| tape.input(m.clone())).collect();
        let before = dispatch_stats().par_regions;
        tape.gru_unroll(&vars, h0, &xs, &masks);
        assert_eq!(
            dispatch_stats().par_regions - before,
            1,
            "the tape node's forward is one parallel region"
        );
    });
}

#[test]
fn gru_unroll_node_passes_gradcheck() {
    with_num_threads(2, || {
        let mut case = gru_case(3, 2, 3, 4, |t, i| t != 1 || i != 0, |_| true);
        let (gates, xs, h0, masks) = (case.gates, case.xs.clone(), case.h0, case.masks.clone());
        let check = check_params(&mut case.params, 5e-3, |tape, params| {
            let handles = gates.map(|id| tape.param(params, id));
            let vars = GruVars::new(handles);
            let h0 = tape.param(params, h0);
            let xs: Vec<Var> = xs.iter().map(|&id| tape.param(params, id)).collect();
            let masks: Vec<Var> = masks.iter().map(|m| tape.input(m.clone())).collect();
            let states = tape.gru_unroll(&vars, h0, &xs, &masks);
            let mut loss = None;
            for h in states {
                let sq = tape.square(h);
                let l = tape.mean_all(sq);
                loss = Some(loss.map_or(l, |acc| tape.add(acc, l)));
            }
            loss.unwrap()
        });
        assert!(check.passes(5e-2), "max_rel_err={}", check.max_rel_err);
    });
}
