//! End-to-end Tape ↔ ValueExec equivalence (DESIGN.md §11).
//!
//! The Exec refactor's contract is structural: every forward pass is written
//! once, generic over the execution context, so the tape-free value path is
//! bit-identical to the training tape *by construction*. These suites pin
//! that contract end-to-end — through the full UAE networks and through
//! every Table-IV recommender — instead of the per-layer pinning tests they
//! replaced. Each comparison runs at one thread and at four (the blocked
//! kernels are deterministic and row-partitioned, so the engine must not
//! care), and CI re-runs the whole suite under `UAE_NUM_THREADS=1` and `=4`.

use uae::core::{
    AttentionEstimator, AttentionNet, LocalPropensityNet, PropensityNet, Uae, UaeConfig,
};
use uae::data::{generate, infer_seq_batches, FlatData, SimConfig};
use uae::models::{predict, train, LabelMode, ModelConfig, ModelKind, TrainConfig};
use uae::serve::{FrozenModel, FrozenRecommender, RecScorer, Scorer, ScorerConfig};
use uae::tensor::{
    arena_stats, reset_arena_stats, with_fusion, with_num_threads, Params, Rng, Tape, ValueExec,
};

/// The full attention + propensity stack of UAE, forward under both engines
/// over padded session batches, compared logit-by-logit.
#[test]
fn uae_networks_match_bitwise_under_both_engines() {
    let ds = generate(&SimConfig::tiny(), 21);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let batches = infer_seq_batches(&ds, &sessions, 8, None);
    let mut rng = Rng::seed_from_u64(5);
    let mut params_g = Params::new();
    let g = AttentionNet::new("g", &ds.schema, 4, 8, &[8], None, &mut params_g, &mut rng);
    let mut params_h = Params::new();
    let h = PropensityNet::new("h", 8, 6, &[8], &mut params_h);
    params_h.init(&mut rng);

    for threads in [1usize, 4] {
        with_num_threads(threads, || {
            for b in &batches {
                let mut tape = Tape::new();
                let gf = g.forward(&mut tape, &params_g, b);
                let h_logits = h.forward(&mut tape, &params_h, b, &gf.z1);

                let mut vx = ValueExec::new();
                let gv = g.forward(&mut vx, &params_g, b);
                let hv = h.forward(&mut vx, &params_h, b, &gv.z1);

                for t in 0..b.steps {
                    assert_eq!(
                        tape.value(gf.logits[t]).data(),
                        gv.logits[t].data(),
                        "attention logits diverged at t={t}, threads={threads}"
                    );
                    assert_eq!(
                        tape.value(h_logits[t]).data(),
                        hv[t].data(),
                        "propensity logits diverged at t={t}, threads={threads}"
                    );
                }
            }
        });
    }
}

/// Same contract for the SAR baseline's local propensity head, with the
/// value engine fused and unfused.
#[test]
fn local_propensity_matches_bitwise_under_both_engines() {
    let ds = generate(&SimConfig::tiny(), 22);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let batches = infer_seq_batches(&ds, &sessions, 8, None);
    let mut rng = Rng::seed_from_u64(6);
    let mut params = Params::new();
    let net = LocalPropensityNet::new("sar", &ds.schema, 4, &[8], None, &mut params);
    params.init(&mut rng);
    for (threads, fused) in [(1usize, false), (1, true), (4, false), (4, true)] {
        with_num_threads(threads, || {
            for b in &batches {
                let mut tape = Tape::new();
                let lt = net.forward(&mut tape, &params, b);
                let mut vx = with_fusion(fused, ValueExec::new);
                let lv = net.forward(&mut vx, &params, b);
                for t in 0..b.steps {
                    assert_eq!(
                        tape.value(lt[t]).data(),
                        lv[t].data(),
                        "t={t}, threads={threads}, fused={fused}"
                    );
                }
            }
        });
    }
}

/// Every Table-IV recommender, trained for one epoch so the parameters are
/// off the init manifold, then forward under both engines over several
/// batch shapes, with the value engine fused and unfused.
#[test]
fn every_recommender_matches_bitwise_under_both_engines() {
    let ds = generate(&SimConfig::tiny(), 23);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    for kind in ModelKind::all() {
        let mut rng = Rng::seed_from_u64(17);
        let (model, mut params) = kind.build(&ds.schema, &ModelConfig::default(), &mut rng);
        train(
            model.as_ref(),
            &mut params,
            &flat,
            None,
            None,
            LabelMode::Observed,
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        for (threads, fused) in [(1usize, false), (1, true), (4, false), (4, true)] {
            with_num_threads(threads, || {
                for (lo, hi) in [(0usize, 1usize), (0, 7), (3, flat.len().min(40))] {
                    let idx: Vec<usize> = (lo..hi).collect();
                    let batch = flat.gather(&idx);
                    let mut tape = Tape::new();
                    let logits = model.forward(&mut tape, &params, &batch);
                    let free = with_fusion(fused, || model.infer(&params, &batch));
                    assert_eq!(
                        tape.value(logits).data(),
                        free.data(),
                        "{} diverged on rows {lo}..{hi} at threads={threads} fused={fused}",
                        kind.name()
                    );
                }
            });
        }
    }
}

/// Fusion transparency at ragged shapes: the fused composites (packed GRU
/// step, fused linear+activation, fused scaled softmax) must be bitwise
/// equal to both the unfused value path and the tape oracle at hidden widths
/// that are not lane multiples (5, 17), at `hidden == 1` (where GRU packing
/// is deliberately skipped to keep the `n == 1` matvec summation order), on
/// length-1 session streams, and on an empty session set — at one thread
/// and at four.
#[test]
fn fusion_is_bitwise_transparent_at_ragged_shapes() {
    let ds = generate(&SimConfig::tiny(), 31);
    let all: Vec<usize> = (0..ds.sessions.len()).collect();
    for hidden in [1usize, 5, 17] {
        let mut rng = Rng::seed_from_u64(40 + hidden as u64);
        let mut params_g = Params::new();
        let g = AttentionNet::new(
            "g",
            &ds.schema,
            3,
            hidden,
            &[9],
            None,
            &mut params_g,
            &mut rng,
        );
        let mut params_h = Params::new();
        let h = PropensityNet::new("h", hidden, 5, &[7], &mut params_h);
        params_h.init(&mut rng);
        let shapes: [(&[usize], Option<usize>); 3] =
            [(&all, None), (&all[..1], Some(1)), (&[], None)];
        for (sessions, max_len) in shapes {
            let batches = infer_seq_batches(&ds, sessions, 4, max_len);
            for threads in [1usize, 4] {
                with_num_threads(threads, || {
                    for b in &batches {
                        let mut tape = Tape::new();
                        let gf = g.forward(&mut tape, &params_g, b);
                        let h_logits = h.forward(&mut tape, &params_h, b, &gf.z1);
                        for fused in [false, true] {
                            with_fusion(fused, || {
                                let mut vx = ValueExec::new();
                                let gv = g.forward(&mut vx, &params_g, b);
                                let hv = h.forward(&mut vx, &params_h, b, &gv.z1);
                                for t in 0..b.steps {
                                    assert_eq!(
                                        tape.value(gf.logits[t]).data(),
                                        gv.logits[t].data(),
                                        "attention: hidden={hidden} t={t} fused={fused} threads={threads}"
                                    );
                                    assert_eq!(
                                        tape.value(h_logits[t]).data(),
                                        hv[t].data(),
                                        "propensity: hidden={hidden} t={t} fused={fused} threads={threads}"
                                    );
                                }
                            });
                        }
                    }
                });
            }
        }
    }
}

/// The allocation acceptance criterion: after one warm-up request, serve
/// scoring bump-allocates every intermediate from retained arena chunks —
/// zero fresh heap chunks, zero retires — through both the UAE scorer and
/// the recommender scorer. The training-side predictions run the same
/// tape-free forward off the arena: only the serving scorers open a
/// generation.
#[test]
fn steady_state_serve_scoring_is_arena_allocation_free() {
    let ds = generate(&SimConfig::tiny(), 33);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let cfg = UaeConfig {
        gru_hidden: 8,
        mlp_hidden: vec![8],
        epochs: 1,
        seed: 3,
        ..Default::default()
    };
    let mut uae = Uae::new(&ds.schema, cfg);
    uae.fit(&ds, &sessions);
    let scorer = Scorer::with_config(
        FrozenModel::from_uae(&uae, &ds.schema, 15.0),
        ScorerConfig {
            batch_size: 8,
            max_len: None,
        },
    )
    .expect("frozen model rebuilds");
    let warm = scorer.score(&ds, &sessions);
    reset_arena_stats();
    let steady = scorer.score(&ds, &sessions);
    assert_eq!(steady.attention, warm.attention, "warm-up changed results");
    let stats = arena_stats();
    assert!(stats.allocs > 0, "arena saw no traffic — scoping broken?");
    assert_eq!(
        stats.heap_allocs, 0,
        "steady-state UAE scoring allocated fresh chunks: {stats:?}"
    );
    assert_eq!(stats.retires, 0, "leaked leases forced a retire: {stats:?}");

    let flat = FlatData::from_sessions(&ds, &sessions);
    let mut rng = Rng::seed_from_u64(9);
    let (model, params) = ModelKind::Dcn.build(&ds.schema, &ModelConfig::default(), &mut rng);
    let before = arena_stats().allocs;
    uae.predict(&ds, &sessions);
    uae.predict_propensity(&ds, &sessions);
    predict(model.as_ref(), &params, &flat, 16);
    assert_eq!(
        arena_stats().allocs,
        before,
        "training-side prediction allocated from the arena"
    );
    let frozen =
        FrozenRecommender::new(&ds.schema, ModelKind::Dcn, &ModelConfig::default(), &params);
    let rec = RecScorer::with_batch_size(frozen, 16).expect("frozen recommender rebuilds");
    let warm = rec.score(&flat);
    reset_arena_stats();
    let steady = rec.score(&flat);
    assert_eq!(steady, warm, "warm-up changed recommender results");
    let stats = arena_stats();
    assert!(stats.allocs > 0, "arena saw no recommender traffic");
    assert_eq!(
        stats.heap_allocs, 0,
        "steady-state recommender scoring allocated fresh chunks: {stats:?}"
    );
    assert_eq!(stats.retires, 0, "leaked leases forced a retire: {stats:?}");
}

/// The serving acceptance criterion: a downstream recommender exported to a
/// variant-2 `.uaem` and re-scored through the batched [`RecScorer`] is
/// bit-identical to the live model's `predict`, at one thread and at four.
#[test]
fn exported_recommenders_round_trip_bitwise_through_uaem() {
    let ds = generate(&SimConfig::tiny(), 24);
    let sessions: Vec<usize> = (0..ds.sessions.len()).collect();
    let flat = FlatData::from_sessions(&ds, &sessions);
    let dir = std::env::temp_dir().join(format!("uae_exec_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for kind in [ModelKind::WideDeep, ModelKind::Dcn] {
        let cfg = ModelConfig::default();
        let mut rng = Rng::seed_from_u64(29);
        let (model, mut params) = kind.build(&ds.schema, &cfg, &mut rng);
        train(
            model.as_ref(),
            &mut params,
            &flat,
            None,
            None,
            LabelMode::Observed,
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        );
        let reference = predict(model.as_ref(), &params, &flat, 64);

        let path = dir.join(format!("{}.uaem", kind.cli_name()));
        FrozenRecommender::new(&ds.schema, kind, &cfg, &params)
            .write_to(&path)
            .unwrap();
        let frozen = FrozenRecommender::read_from(&path).unwrap();
        for threads in [1usize, 4] {
            with_num_threads(threads, || {
                for batch_size in [1usize, 64] {
                    let scores = RecScorer::with_batch_size(frozen.clone(), batch_size)
                        .unwrap()
                        .score(&flat);
                    assert_eq!(
                        scores,
                        reference,
                        "{} diverged at threads={threads} batch_size={batch_size}",
                        kind.name()
                    );
                }
            });
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
