//! Order statistics and mixing helpers shared by the workloads.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_TAIL: usize = 10;

/// Median of `v` (mean of the middle two for an even count); 0 for an
/// empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (0–100) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_TAIL`] samples lie
/// beyond the percentile: a p99 from 300 samples rests on three values
/// and says little about the tail.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&pct) {
        return Err(format!("p{pct} of {n} samples is undefined"));
    }
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    if beyond < MIN_TAIL {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it (need {MIN_TAIL})"
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

/// One line describing the timed repetitions of a run.
pub fn spread_note(walls_s: &[f64]) -> String {
    let min = walls_s.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls_s.iter().copied().fold(0.0, f64::max);
    format!(
        "{} timed repetitions: min {min:.4} s, median {:.4} s, max {max:.4} s",
        walls_s.len(),
        median(walls_s)
    )
}

/// Geometric mean of positive ratios; 0 for an empty slice.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// SplitMix64 finaliser: derives independent seeds from coordinates.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(c.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Running FNV-1a digest over a stream of makespans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value into the digest.
    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
