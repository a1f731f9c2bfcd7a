//! Simulator configuration and the two dataset presets of the paper.
//!
//! The paper evaluates on (a) **30-Music** (public Last.fm sessions: 455K
//! sessions, 5.5K users, 1.99M songs, 12 features, 3 feedback types) and (b)
//! **Product** (proprietary Huawei Music logs: 8.47M sessions, 3.75M users,
//! 1.73M songs, 44 features, 6 feedback types). Neither is available here,
//! so [`crate::gen::generate`] synthesises datasets whose *causal structure*
//! matches the paper's (features → attention α → propensity p | attention →
//! observed feedback e, with E\[e\] = p·α) and whose headline statistics match
//! Figures 2–3. The presets default to laptop-scale sizes; `scale` grows
//! them proportionally for the benches.

/// Coefficients of the true attention model
/// `α = σ(bias + eng·engagement' + rank·rank_decay + appeal·appeal' + hour·hour_factor)`.
#[derive(Debug, Clone, Copy)]
pub struct AttentionParams {
    pub bias: f32,
    /// Weight on the centred user-engagement trait.
    pub engagement: f32,
    /// Weight on the (negative) normalised play rank — produces Fig. 3's
    /// decay of active feedback with rank.
    pub rank: f32,
    /// Weight on the centred song-appeal signal.
    pub appeal: f32,
    /// Weight on a diurnal factor (listening at night is more background).
    pub hour: f32,
}

/// Coefficients of the true sequential propensity model.
///
/// The *base* willingness to act is
/// `z = bias + last·1[e_{t-1}=1] + recent·#active(last 6) + act·activeness
///      + first_song·1[t=0] − rank·rank_norm`;
/// an attending user acts with probability `σ(z + like_eagerness)` on a
/// preferred song and `σ(z + skip_eagerness)` on a disliked one (attentive
/// listeners skip what they dislike — the mechanism that makes attended
/// auto-plays *reliable* positives, the paper's Fig. 1 premise). The
/// recorded propensity is the marginal
/// `p = pref·σ(z + like) + (1 − pref)·σ(z + skip)`, a function of
/// `(X, E^{t-1})` as Definition 1 requires.
#[derive(Debug, Clone, Copy)]
pub struct PropensityParams {
    pub bias: f32,
    /// Boost when the immediately preceding action was active (Fig. 2(a)).
    pub last_active: f32,
    /// Per-action boost from active actions in the last six steps, excluding
    /// the immediate predecessor (Fig. 2(b)/(c)).
    pub recent_active: f32,
    /// Weight on the user's latent activeness trait.
    pub activeness: f32,
    /// Extra logit for acting on a *preferred* song (Like/Share/Download).
    pub like_eagerness: f32,
    /// Extra logit for acting on a *disliked* song (Skip/Dislike). Large
    /// positive: attentive users rarely sit through songs they dislike.
    pub skip_eagerness: f32,
    /// Boost at rank 1: the first song of a session is user-initiated
    /// (pressing play is itself an engaged act), so the willingness to act is
    /// high before any feedback history exists. Observable via the rank
    /// feature, so estimators can learn it.
    pub first_song: f32,
    /// Decay of the willingness to act with normalised play rank.
    pub rank: f32,
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub name: String,
    pub num_users: usize,
    pub num_songs: usize,
    pub num_artists: usize,
    pub num_albums: usize,
    pub num_genres: usize,
    pub num_sessions: usize,
    /// Sessions shorter than this are not generated (the paper filters
    /// 30-Music sessions with < 10 interactions).
    pub min_session_len: usize,
    /// Mean of the Poisson extra length beyond `min_session_len`.
    pub mean_extra_len: f64,
    /// Number of simulated days (Product uses a 7+1+1 day split).
    pub days: u32,
    /// `true` → six feedback types (Product); `false` → Like/Skip/Auto-play
    /// (30-Music).
    pub product_feedback: bool,
    /// Extra uninformative dense features to reach the paper's feature count.
    pub num_distractor_dense: usize,
    /// Std of the observation noise on the appeal feature (higher → lower
    /// achievable AUC; 30-Music has weaker features than Product).
    pub appeal_noise: f32,
    /// Dimension of the latent user/song preference vectors.
    pub latent_dim: usize,
    /// Zipf exponent of song exposure popularity.
    pub popularity_exponent: f64,
    /// Personalisation of the production exposure policy: probability that a
    /// served song is drawn from the user's preferred pool rather than pure
    /// popularity. Real recommenders are personalised, which is what keeps
    /// *unattended* auto-plays weakly preference-correlated (and hence still
    /// worth a non-zero weight — the reason small γ hurts in Fig. 6).
    pub exposure_tilt: f64,
    pub attention: AttentionParams,
    pub propensity: PropensityParams,
}

impl SimConfig {
    /// The 30-Music-like preset at `scale = 1.0` (≈3k sessions).
    ///
    /// Relative to Product: fewer users, a much larger song catalogue per
    /// user, longer sessions, noisier features (lower achievable AUC, as in
    /// Table IV), and only three feedback types.
    pub fn thirty_music(scale: f64) -> Self {
        let s = |x: usize| ((x as f64 * scale).round() as usize).max(1);
        SimConfig {
            name: "30-Music".into(),
            num_users: s(600),
            num_songs: s(6000),
            num_artists: s(800),
            num_albums: s(2000),
            num_genres: 20,
            num_sessions: s(3000),
            min_session_len: 10,
            mean_extra_len: 12.0,
            days: 10,
            product_feedback: false,
            num_distractor_dense: 0,
            appeal_noise: 0.45,
            latent_dim: 8,
            popularity_exponent: 1.05,
            exposure_tilt: 0.4,
            attention: AttentionParams {
                bias: -1.35,
                engagement: 8.6,
                rank: 1.4,
                appeal: 1.3,
                hour: 0.5,
            },
            propensity: PropensityParams {
                bias: -3.55,
                last_active: 4.9,
                recent_active: 0.45,
                activeness: 0.9,
                like_eagerness: 0.0,
                skip_eagerness: 4.0,
                first_song: 1.9,
                rank: 0.7,
            },
        }
    }

    /// The Product-like preset at `scale = 1.0` (≈6k sessions).
    ///
    /// Calibration targets from the paper's Figure 2(a): overall active rate
    /// ≈ 0.0876, P(active | last active) ≈ 0.5588, P(active | last passive)
    /// ≈ 0.0488; and Figure 3's decline of active feedback with play rank.
    pub fn product(scale: f64) -> Self {
        let s = |x: usize| ((x as f64 * scale).round() as usize).max(1);
        SimConfig {
            name: "Product".into(),
            num_users: s(3000),
            num_songs: s(5000),
            num_artists: s(600),
            num_albums: s(1500),
            num_genres: 24,
            num_sessions: s(6000),
            min_session_len: 8,
            mean_extra_len: 10.0,
            days: 9,
            product_feedback: true,
            num_distractor_dense: 22,
            appeal_noise: 0.30,
            latent_dim: 8,
            popularity_exponent: 1.1,
            exposure_tilt: 0.5,
            attention: AttentionParams {
                bias: -1.1,
                engagement: 9.0,
                rank: 1.5,
                appeal: 1.5,
                hour: 0.4,
            },
            propensity: PropensityParams {
                bias: -3.55,
                last_active: 4.9,
                recent_active: 0.5,
                activeness: 0.95,
                like_eagerness: 0.0,
                skip_eagerness: 4.0,
                first_song: 1.6,
                rank: 0.7,
            },
        }
    }

    /// A tiny configuration for fast unit tests.
    pub fn tiny() -> Self {
        let mut cfg = SimConfig::product(0.05);
        cfg.name = "tiny".into();
        cfg
    }

    /// The benchmark-matrix scenarios: named stress variants of the Product
    /// preset, each bending one causal mechanism the debiasing estimators
    /// differ on. `scale` grows counts proportionally as in [`Self::product`].
    /// Returns `None` for an unknown name; see [`scenario_names`] for the
    /// catalogue.
    ///
    /// * `baseline` — the unmodified Product preset.
    /// * `position-bias` — attention and propensity both decay much harder
    ///   with play rank, the classic position-bias regime rel-MF's
    ///   rank-bucketed propensities target.
    /// * `cold-start` — 4× the users with a quarter of the sessions each and
    ///   noisier appeal: little per-user history, weak features.
    /// * `adversarial-propensity` — the willingness to act is dominated by
    ///   the *latent* activeness trait rather than the observable feedback
    ///   history, so learned propensities are systematically misspecified
    ///   (stress for the IPS-style estimators' clipping).
    /// * `podcast` — long background sessions (40+ songs) with a lower base
    ///   willingness to act: sparse positives over long horizons, the NDB
    ///   window's home turf.
    pub fn scenario(name: &str, scale: f64) -> Option<Self> {
        let mut cfg = SimConfig::product(scale);
        match name {
            "baseline" => {}
            "position-bias" => {
                cfg.attention.rank = 4.0;
                cfg.attention.bias = -0.2;
                cfg.propensity.rank = 2.2;
                cfg.propensity.first_song = 2.4;
            }
            "cold-start" => {
                let s = |x: usize| ((x as f64 * scale).round() as usize).max(1);
                cfg.num_users = s(12_000);
                cfg.num_sessions = s(4500);
                cfg.appeal_noise = 0.55;
            }
            "adversarial-propensity" => {
                cfg.propensity.last_active = 0.8;
                cfg.propensity.recent_active = 0.05;
                cfg.propensity.activeness = 2.5;
                cfg.propensity.bias = -1.6;
                cfg.appeal_noise = 0.45;
            }
            "podcast" => {
                let s = |x: usize| ((x as f64 * scale).round() as usize).max(1);
                cfg.min_session_len = 40;
                cfg.mean_extra_len = 40.0;
                cfg.num_sessions = s(1500);
                cfg.propensity.bias = -4.3;
                cfg.attention.bias = -1.6;
            }
            _ => return None,
        }
        cfg.name = name.into();
        Some(cfg)
    }

    /// A scale-out preset: production-shaped behaviour with a 1.2M-user
    /// population and a 40k-song catalogue, but a modest session count so
    /// generation and training stay tractable. The point is the *schema* —
    /// `user_id` cardinality in the millions makes dense per-id embedding
    /// tables the dominant memory cost, which is exactly the regime hashed
    /// embeddings and memory-mapped `.uaem` arenas exist for (see the
    /// `uae embed-accuracy` report and the benchmark's `serve-swap`).
    pub fn million_users() -> Self {
        let mut cfg = SimConfig::product(0.33);
        cfg.name = "million-users".into();
        cfg.num_users = 1_200_000;
        cfg.num_songs = 40_000;
        cfg.num_artists = 5_000;
        cfg.num_albums = 12_000;
        cfg
    }
}

/// The scenario catalogue, in the order the benchmark matrix reports them.
pub fn scenario_names() -> &'static [&'static str] {
    &[
        "baseline",
        "position-bias",
        "cold-start",
        "adversarial-propensity",
        "podcast",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_counts() {
        let base = SimConfig::product(1.0);
        let double = SimConfig::product(2.0);
        assert_eq!(double.num_sessions, base.num_sessions * 2);
        assert_eq!(double.num_users, base.num_users * 2);
        // Non-count knobs are unaffected.
        assert_eq!(double.days, base.days);
        assert_eq!(double.latent_dim, base.latent_dim);
    }

    #[test]
    fn presets_differ_where_the_paper_says_they_do() {
        let tm = SimConfig::thirty_music(1.0);
        let pr = SimConfig::product(1.0);
        assert!(!tm.product_feedback);
        assert!(pr.product_feedback);
        // 30-Music has noisier features (lower AUC in Table IV).
        assert!(tm.appeal_noise > pr.appeal_noise);
        // Product has more features (44 vs 12 in Table III).
        assert!(pr.num_distractor_dense > tm.num_distractor_dense);
    }

    #[test]
    fn scale_never_drops_to_zero() {
        let cfg = SimConfig::thirty_music(1e-6);
        assert!(cfg.num_users >= 1);
        assert!(cfg.num_sessions >= 1);
    }

    #[test]
    fn every_scenario_name_resolves_and_unknowns_do_not() {
        for &name in scenario_names() {
            let cfg = SimConfig::scenario(name, 1.0).expect(name);
            assert_eq!(cfg.name, name);
            assert!(cfg.num_sessions >= 1);
        }
        assert!(SimConfig::scenario("no-such-scenario", 1.0).is_none());
    }

    #[test]
    fn scenarios_bend_the_mechanisms_they_claim_to() {
        let base = SimConfig::scenario("baseline", 1.0).unwrap();
        let pb = SimConfig::scenario("position-bias", 1.0).unwrap();
        assert!(pb.attention.rank > base.attention.rank * 2.0);
        assert!(pb.propensity.rank > base.propensity.rank);
        let cs = SimConfig::scenario("cold-start", 1.0).unwrap();
        assert!(cs.num_users > base.num_users * 3);
        assert!(cs.appeal_noise > base.appeal_noise);
        let adv = SimConfig::scenario("adversarial-propensity", 1.0).unwrap();
        assert!(adv.propensity.activeness > base.propensity.activeness * 2.0);
        assert!(adv.propensity.last_active < base.propensity.last_active / 2.0);
        let pod = SimConfig::scenario("podcast", 1.0).unwrap();
        assert!(pod.min_session_len >= 40);
        assert!(pod.propensity.bias < base.propensity.bias);
        // Scaling applies to scenario-specific counts too.
        let cs_half = SimConfig::scenario("cold-start", 0.5).unwrap();
        assert_eq!(cs_half.num_users, cs.num_users / 2);
    }

    #[test]
    fn million_users_is_wide_but_shallow() {
        let cfg = SimConfig::million_users();
        assert!(cfg.num_users >= 1_000_000, "the preset's whole point");
        // Session volume stays modest so generation/training are tractable;
        // only the id *cardinalities* blow up.
        assert!(cfg.num_sessions <= SimConfig::product(1.0).num_sessions);
        assert!(cfg.product_feedback);
    }
}
