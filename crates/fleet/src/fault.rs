//! Deterministic fault injection: seeded kill / truncate / corrupt
//! plans for chaos-testing campaign recovery.
//!
//! A [`FaultPlan`] is a pure function from `(seed, fault kind, shard,
//! attempt)` to "does this fault fire?". Nothing about it consults a
//! clock or a global RNG, so a chaos run is exactly reproducible from
//! its spec string — which is what lets the chaos suite assert
//! byte-identity of recovered merges against the fault-free run, and
//! lets CI replay the very same failure pattern on every push.
//!
//! The spec grammar is a comma-separated key=value list, e.g.
//! `seed=7,kill=60,truncate=30,only=2`: each fault kind gets a firing
//! percentage (0–100), `seed` perturbs the per-(shard, attempt) draws,
//! and `only=K` restricts injection to shard K (used by the
//! retry-exhaustion smoke: `kill=100,only=0` makes shard 0 fail every
//! attempt while the rest of the campaign proceeds).
//!
//! Faults are keyed on *attempt* as well as shard, so a shard that was
//! killed on attempt 1 gets an independent draw on attempt 2 — the
//! recovery path is exercised without dooming the shard forever
//! (unless the percentage is 100, which is how exhaustion is forced).

use std::fmt;

/// The kinds of failure the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Kill the worker mid-shard, after its attempt is counted and
    /// before any artifact is published — like a SIGKILL.
    Kill,
    /// Truncate one of the shard's artifacts after it is published —
    /// simulates a torn copy or lost tail pages.
    Truncate,
    /// Flip a byte inside one published artifact — simulates bit rot.
    Corrupt,
}

impl FaultKind {
    /// All kinds, in spec order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Kill, FaultKind::Truncate, FaultKind::Corrupt];

    fn spec_key(self) -> &'static str {
        match self {
            FaultKind::Kill => "kill",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
        }
    }

    fn salt(self) -> u64 {
        match self {
            FaultKind::Kill => 0x4b49_4c4c,
            FaultKind::Truncate => 0x5452_554e,
            FaultKind::Corrupt => 0x434f_5252,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec_key())
    }
}

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed perturbing every per-(shard, attempt) draw.
    pub seed: u64,
    /// Probability (percent, 0–100) that a worker is killed mid-shard.
    pub kill_pct: u8,
    /// Probability that a published artifact is truncated.
    pub truncate_pct: u8,
    /// Probability that a published artifact has a byte flipped.
    pub corrupt_pct: u8,
    /// When set, faults fire only on this shard.
    pub only: Option<usize>,
}

/// splitmix64 finalizer — the same dependency-free mixer the RNG
/// streams elsewhere in the workspace build on.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses a spec string like `seed=7,kill=60,truncate=30,only=2`.
    /// Unknown keys and out-of-range values are errors — a chaos spec
    /// that silently ignored a typo would "certify" nothing.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: `{part}` is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let pct = |v: &str| -> Result<u8, String> {
                let p: u8 = v
                    .parse()
                    .map_err(|_| format!("chaos spec: `{key}={v}` is not a number"))?;
                if p > 100 {
                    return Err(format!("chaos spec: `{key}={v}` exceeds 100 percent"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("chaos spec: `seed={value}` is not a number"))?;
                }
                "kill" => plan.kill_pct = pct(value)?,
                "truncate" => plan.truncate_pct = pct(value)?,
                "corrupt" => plan.corrupt_pct = pct(value)?,
                "only" => {
                    plan.only = Some(
                        value
                            .parse()
                            .map_err(|_| format!("chaos spec: `only={value}` is not a shard"))?,
                    );
                }
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    fn pct_of(&self, kind: FaultKind) -> u8 {
        match kind {
            FaultKind::Kill => self.kill_pct,
            FaultKind::Truncate => self.truncate_pct,
            FaultKind::Corrupt => self.corrupt_pct,
        }
    }

    /// The deterministic per-(kind, shard, attempt) draw in 0..100.
    fn draw(&self, kind: FaultKind, shard: usize, attempt: u32) -> u64 {
        let h = mix(self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(kind.salt())
            .wrapping_add((shard as u64) << 32)
            .wrapping_add(u64::from(attempt)));
        h % 100
    }

    /// Whether `kind` fires for `shard` on its `attempt`-th execution.
    /// Pure: same plan, shard and attempt always answer the same.
    pub fn fires(&self, kind: FaultKind, shard: usize, attempt: u32) -> bool {
        if let Some(only) = self.only {
            if only != shard {
                return false;
            }
        }
        let p = self.pct_of(kind);
        p > 0 && self.draw(kind, shard, attempt) < u64::from(p)
    }

    /// Which of a shard's `artifacts` (`> 0`) a firing truncate or
    /// corrupt fault damages: a pure draw, independent of the one that
    /// decided the fault fires.
    pub fn target(&self, kind: FaultKind, shard: usize, attempt: u32, artifacts: usize) -> usize {
        let h = mix(self.draw(kind, shard, attempt) ^ self.seed.rotate_left(17) ^ kind.salt());
        (h % artifacts.max(1) as u64) as usize
    }

    /// Deterministically damages published artifact bytes for
    /// [`FaultKind::Truncate`] / [`FaultKind::Corrupt`]. Returns `None`
    /// for [`FaultKind::Kill`], which alters no bytes, or when the
    /// content is empty.
    pub fn damage(
        &self,
        kind: FaultKind,
        shard: usize,
        attempt: u32,
        bytes: &[u8],
    ) -> Option<Vec<u8>> {
        let h = mix(self.draw(kind, shard, attempt).wrapping_add(self.seed) ^ kind.salt());
        match kind {
            FaultKind::Truncate => {
                if bytes.is_empty() {
                    return None;
                }
                // drop between 1 and 64 tail bytes (bounded by length)
                let cut = 1 + (h as usize) % 64.min(bytes.len());
                Some(bytes[..bytes.len() - cut.min(bytes.len())].to_vec())
            }
            FaultKind::Corrupt => {
                if bytes.is_empty() {
                    return None;
                }
                let mut out = bytes.to_vec();
                let at = (h as usize) % out.len();
                // XOR with a nonzero mask so the byte always changes
                out[at] ^= 0x20 | 0x01;
                Some(out)
            }
            FaultKind::Kill => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_every_key() {
        let plan = FaultPlan::parse("seed=7, kill=60,truncate=30,corrupt=5,only=2").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                seed: 7,
                kill_pct: 60,
                truncate_pct: 30,
                corrupt_pct: 5,
                only: Some(2),
            }
        );
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("kill").is_err());
        assert!(FaultPlan::parse("kill=101").is_err());
        assert!(FaultPlan::parse("kil=10").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("only=-1").is_err());
        // `stall` is not a fault kind
        assert!(FaultPlan::parse("stall=5").is_err());
    }

    #[test]
    fn fires_is_deterministic_and_respects_only() {
        let plan = FaultPlan::parse("seed=42,kill=50,truncate=50,only=1").unwrap();
        for kind in FaultKind::ALL {
            for shard in 0..4 {
                for attempt in 0..6 {
                    let a = plan.fires(kind, shard, attempt);
                    let b = plan.fires(kind, shard, attempt);
                    assert_eq!(a, b, "draws must be pure");
                    if shard != 1 {
                        assert!(!a, "only=1 must suppress shard {shard}");
                    }
                }
            }
        }
    }

    #[test]
    fn pct_bounds_are_honored() {
        let never = FaultPlan::parse("seed=3").unwrap();
        let always = FaultPlan::parse("seed=3,kill=100").unwrap();
        for shard in 0..8 {
            for attempt in 0..8 {
                assert!(!never.fires(FaultKind::Kill, shard, attempt));
                assert!(always.fires(FaultKind::Kill, shard, attempt));
            }
        }
    }

    #[test]
    fn draws_vary_across_attempts() {
        // with a 50% kill rate some attempts fire and some do not —
        // the recovery path is reachable
        let plan = FaultPlan::parse("seed=11,kill=50").unwrap();
        let fired: Vec<bool> = (0..32)
            .map(|attempt| plan.fires(FaultKind::Kill, 0, attempt))
            .collect();
        assert!(fired.iter().any(|&f| f));
        assert!(fired.iter().any(|&f| !f));
    }

    #[test]
    fn damage_changes_bytes_deterministically() {
        let plan = FaultPlan::parse("seed=5,truncate=100,corrupt=100").unwrap();
        let content = b"header\n0,a,1\n1,b,2\n#checksum,fnv1a64,0123456789abcdef\n";
        let t = plan.damage(FaultKind::Truncate, 0, 1, content).unwrap();
        assert!(t.len() < content.len());
        assert_eq!(t, plan.damage(FaultKind::Truncate, 0, 1, content).unwrap());
        let c = plan.damage(FaultKind::Corrupt, 0, 1, content).unwrap();
        assert_eq!(c.len(), content.len());
        assert_ne!(c, content.to_vec());
        assert_eq!(c, plan.damage(FaultKind::Corrupt, 0, 1, content).unwrap());
        // kill never alters bytes
        assert!(plan.damage(FaultKind::Kill, 0, 1, content).is_none());
        // degenerate inputs
        assert!(plan.damage(FaultKind::Truncate, 0, 1, b"").is_none());
        assert!(plan.damage(FaultKind::Corrupt, 0, 1, b"").is_none());
    }

    #[test]
    fn target_is_pure_in_range_and_reaches_every_artifact() {
        let plan = FaultPlan::parse("seed=5,truncate=100").unwrap();
        let mut hit = [false; 2];
        for shard in 0..8 {
            for attempt in 1..8 {
                let t = plan.target(FaultKind::Truncate, shard, attempt, 2);
                assert_eq!(t, plan.target(FaultKind::Truncate, shard, attempt, 2));
                hit[t] = true;
                // a lone artifact is always the target
                assert_eq!(plan.target(FaultKind::Truncate, shard, attempt, 1), 0);
            }
        }
        assert_eq!(hit, [true, true]);
    }
}
