//! Order statistics, score fingerprints and the comparison verdict: the
//! arithmetic every report and `--compare` table rests on.

/// Median of `values` (mean of the middle two for an even count), as
/// Python's `statistics.median` gives it. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in (0, 1]). `NaN` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them, extrapolating past the ends of very small samples as it
/// does. One sample yields that sample three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let len = s.len();
    match len {
        0 => [f64::NAN; 3],
        1 => [s[0]; 3],
        _ => {
            let (n, m) = (4usize, len + 1);
            let mut out = [0.0; 3];
            for (i, slot) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / n).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
            }
            out
        }
    }
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Splits `[0, span)` into consecutive windows of `len` seconds and returns,
/// for every window, the items whose time `at` falls in it.
pub fn windows<T>(items: &[T], at: impl Fn(&T) -> f64, len: f64, span: f64) -> Vec<Vec<&T>> {
    let n = (span / len).floor().max(0.0) as usize;
    let mut out: Vec<Vec<&T>> = (0..n).map(|_| Vec::new()).collect();
    for it in items {
        let t = at(it);
        if t >= 0.0 {
            if let Some(w) = out.get_mut((t / len) as usize) {
                w.push(it);
            }
        }
    }
    out
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a (64-bit) over the little-endian bits of each score, so two
/// score vectors hash equal exactly when they are bit-identical.
pub fn fnv1a(chunks: &[&[f32]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for v in chunk.iter() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The fingerprint of one scored request: every session's attention,
/// propensity and weight vectors, in request order.
pub fn reply_fingerprint(sessions: &[uae_serve::SessionScores]) -> u64 {
    let chunks: Vec<&[f32]> = sessions
        .iter()
        .flat_map(|s| [&s.attention[..], &s.propensity[..], &s.weights[..]])
        .collect();
    fnv1a(&chunks)
}

/// Records the fingerprint of every reply per request slot, so that the
/// timed window only hashes and stores; the comparison with a reference
/// scorer happens after it.
#[derive(Debug, Clone)]
pub struct FingerprintLedger {
    seen: Vec<Option<u64>>,
    /// Replies whose fingerprint differed from an earlier reply to the same
    /// request (scores changed between repetitions or generations).
    pub conflicts: u64,
}

impl FingerprintLedger {
    pub fn new(slots: usize) -> FingerprintLedger {
        FingerprintLedger {
            seen: vec![None; slots],
            conflicts: 0,
        }
    }

    pub fn observe(&mut self, slot: usize, fp: u64) {
        match self.seen[slot] {
            None => self.seen[slot] = Some(fp),
            Some(prev) if prev != fp => self.conflicts += 1,
            Some(_) => {}
        }
    }

    pub fn merge(&mut self, other: &FingerprintLedger) {
        self.conflicts += other.conflicts;
        for (slot, fp) in other.seen.iter().enumerate() {
            if let Some(fp) = fp {
                self.observe(slot, *fp);
            }
        }
    }

    /// Slots that received at least one reply.
    pub fn observed(&self) -> Vec<usize> {
        (0..self.seen.len())
            .filter(|&s| self.seen[s].is_some())
            .collect()
    }

    /// Compares every observed slot with `reference(slot)`. Returns the
    /// number of slots checked, or a description of the first failure.
    pub fn check(&self, mut reference: impl FnMut(usize) -> u64) -> Result<usize, String> {
        if self.conflicts > 0 {
            return Err(format!(
                "{} replies disagreed with an earlier reply to the same request",
                self.conflicts
            ));
        }
        let mut checked = 0;
        for slot in self.observed() {
            let want = reference(slot);
            let got = self.seen[slot].expect("observed slot");
            if got != want {
                return Err(format!(
                    "request {slot}: reply fingerprint {got:016x}, reference {want:016x}"
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }
}

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The outcome of comparing one (workload, metric) pair across two sets of
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of paired runs in which `b` beats `a` (ties count for neither).
pub fn win_fraction(pairs: &[(f64, f64)], better: Better) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let wins = pairs
        .iter()
        .filter(|&&(a, b)| match better {
            Better::Lower => b < a,
            Better::Higher => b > a,
        })
        .count();
    wins as f64 / pairs.len() as f64
}

/// The verdict on a change, from the parent's runs `a`, the change's runs
/// `b`, their pairs (same seed) and the metric's bound (share of the
/// parent's median; `None` for a metric without a bound):
///
/// * improved — the change wins at least nine tenths of the pairs and the
///   medians differ by more than the parent's own quartile distance;
/// * unresolved — otherwise, when the parent's quartile distance exceeds
///   the bound, unless every run of the change reads better than every run
///   of the parent (then unchanged);
/// * regressed — otherwise, when the change's median is worse than the
///   parent's by more than the bound;
/// * unchanged — otherwise.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: Option<f64>,
) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let [q1, _, q3] = quartiles(a);
    let gain = match better {
        Better::Lower => ma - mb,
        Better::Higher => mb - ma,
    };
    if gain > 0.0 && win_fraction(pairs, better) >= 0.9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if -gain > q3 - q1 && win_fraction(pairs, flip(better)) >= 0.9 {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    let all_better = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if (q3 - q1) / ma.abs() > bound {
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

fn flip(better: Better) -> Better {
    match better {
        Better::Lower => Better::Higher,
        Better::Higher => Better::Lower,
    }
}

/// The largest value (`-inf` for an empty slice).
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        let r = relative_iqr(&v);
        assert!((r - 5.5 / 5.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn windows_bucket_by_time_and_drop_the_tail() {
        let at = [0.1, 0.4, 0.6, 1.2, 1.49, 1.5, 2.0, -0.1];
        let w = windows(&at, |&t| t, 0.5, 1.5);
        let sizes: Vec<usize> = w.iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, 1, 2]);
        assert_eq!(*w[2][1], 1.49);
    }

    #[test]
    fn fingerprints_distinguish_single_bit_changes() {
        let a = [0.25f32, 0.5, 0.75];
        let mut b = a;
        assert_eq!(fnv1a(&[&a]), fnv1a(&[&b]));
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(fnv1a(&[&a]), fnv1a(&[&b]));
        // Chunk boundaries do not matter, order does.
        assert_eq!(fnv1a(&[&a[..1], &a[1..]]), fnv1a(&[&a]));
        assert_ne!(fnv1a(&[&a[1..], &a[..1]]), fnv1a(&[&a]));
    }

    #[test]
    fn ledger_accepts_matching_reference_and_rejects_corruption() {
        let fp = |slot: usize| fnv1a(&[&[slot as f32, 1.0]]);
        let mut ledger = FingerprintLedger::new(4);
        for slot in [0, 2, 2, 3] {
            ledger.observe(slot, fp(slot));
        }
        assert_eq!(ledger.check(fp), Ok(3));
        // A corrupted reference for one slot must fail the check.
        let corrupted = |slot: usize| if slot == 2 { fp(2) ^ 1 } else { fp(slot) };
        let err = ledger.check(corrupted).unwrap_err();
        assert!(err.contains("request 2"), "{err}");
        // Two different replies to the same request fail even against a
        // reference that matches the first.
        ledger.observe(3, fp(3) ^ 4);
        assert!(ledger.check(fp).is_err());
    }

    #[test]
    fn ledgers_merge_and_detect_cross_ledger_conflicts() {
        let mut a = FingerprintLedger::new(2);
        let mut b = FingerprintLedger::new(2);
        a.observe(0, 7);
        b.observe(1, 9);
        a.merge(&b);
        assert_eq!(a.observed(), vec![0, 1]);
        assert_eq!(a.conflicts, 0);
        let mut c = FingerprintLedger::new(2);
        c.observe(0, 8);
        a.merge(&c);
        assert_eq!(a.conflicts, 1);
    }

    #[test]
    fn verdicts_follow_the_pairs_and_spread_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let pairs = |b: &[f64]| -> Vec<(f64, f64)> {
            parent.iter().copied().zip(b.iter().copied()).collect()
        };
        // 20% faster on every pair: improved.
        let fast: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            verdict(&parent, &fast, &pairs(&fast), Better::Lower, Some(0.1)),
            Verdict::Improved
        );
        // 20% slower: regressed past a 10% bound.
        let slow: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slow, &pairs(&slow), Better::Lower, Some(0.1)),
            Verdict::Regressed
        );
        // 5% slower: within the bound.
        let near: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            verdict(&parent, &near, &pairs(&near), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // For a higher-is-better metric the same numbers flip.
        assert_eq!(
            verdict(&parent, &slow, &pairs(&slow), Better::Higher, Some(0.1)),
            Verdict::Improved
        );
        // A parent spread wider than the bound leaves a slowdown unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 40.0 * f64::from(i % 2)).collect();
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.05).collect();
        let p: Vec<(f64, f64)> = noisy.iter().copied().zip(worse.iter().copied()).collect();
        assert_eq!(
            verdict(&noisy, &worse, &p, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Fewer than nine tenths of pairs won: not an improvement.
        let mut mixed = fast.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(
            verdict(&parent, &mixed, &pairs(&mixed), Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        // Without a bound, only a consistent, out-of-spread move counts.
        assert_eq!(
            verdict(&parent, &slow, &pairs(&slow), Better::Lower, None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &near, &pairs(&near), Better::Lower, None),
            Verdict::Regressed
        );
    }
}
