//! The shard lease protocol: atomic claims, heartbeats, and
//! expiry-based work-stealing over a shared campaign directory.
//!
//! One lease file per shard (`lease-<k>.lock`) coordinates any number
//! of worker processes that can see the directory — the same machine
//! today, NFS-style shared storage across hosts tomorrow:
//!
//! * **fresh claim** — `OpenOptions::create_new` on the lease path is
//!   the atomic test-and-set: exactly one claimant wins, every loser
//!   sees `AlreadyExists`. This is the strong mutual-exclusion path.
//! * **heartbeat** — the holder periodically rewrites the lease
//!   (write-then-rename, so readers never see a torn file) with a
//!   fresh wall-clock timestamp.
//! * **steal** — a claimant that finds a lease whose heartbeat is
//!   older than [`LeaseConfig::timeout_ms`] declares the holder dead
//!   and renames its own lease over the stale one.
//!
//! The steal path is deliberately *best-effort* exclusion: two
//! claimants racing an expired lease can, in a narrow window, both
//! believe they won, and a stalled-but-alive holder can wake after
//! being stolen from. The protocol stays correct anyway, because
//! exclusion is an **efficiency** mechanism here, not a safety one:
//! shard results are pure functions of the campaign parameters, so
//! duplicate execution commits byte-identical artifacts, and
//! [`commit_bytes`] publishes them atomically.
//! The worst outcome of any race is wasted CPU, never corruption.
//!
//! Leases read the real wall clock ([`unix_time_ms`] — `SystemTime`,
//! shared across processes, unlike a per-process monotonic origin).
//! That function is the sanctioned home for that read (its
//! `#[expect(clippy::disallowed_types)]`); lease timestamps never touch
//! science artifacts.

use std::io;
use std::path::{Path, PathBuf};

use crate::artifact::{commit_bytes, seal, unseal};

/// Lease timing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// A lease whose heartbeat is older than this is stealable.
    pub timeout_ms: u64,
    /// How often holders renew their heartbeat. Keep well under
    /// `timeout_ms` (a 10:1 ratio tolerates scheduling hiccups).
    pub heartbeat_ms: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            timeout_ms: 30_000,
            heartbeat_ms: 3_000,
        }
    }
}

/// Milliseconds since the Unix epoch — the shared cross-process time
/// base leases are stamped with.
#[expect(
    clippy::disallowed_types,
    reason = "leases need a clock shared across processes; no science artifact carries it"
)]
pub fn unix_time_ms() -> u64 {
    match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => d.as_secs().saturating_mul(1000) + u64::from(d.subsec_millis()),
        Err(_) => 0,
    }
}

/// The canonical lease file name for a shard (`lease-007.lock`).
pub fn lease_file_name(shard: usize) -> String {
    format!("lease-{shard:03}.lock")
}

fn render_lease(owner: &str, heartbeat_ms: u64) -> String {
    seal(&format!("owner={owner}\nheartbeat_ms={heartbeat_ms}\n"))
}

/// Parses a lease file body: `(owner, heartbeat_ms)`.
fn parse_lease(text: &str) -> Option<(String, u64)> {
    let body = unseal(text).ok()?;
    let mut owner = None;
    let mut heartbeat = None;
    for line in body.lines() {
        if let Some(v) = line.strip_prefix("owner=") {
            owner = Some(v.to_string());
        } else if let Some(v) = line.strip_prefix("heartbeat_ms=") {
            heartbeat = v.parse().ok();
        }
    }
    Some((owner?, heartbeat?))
}

/// A held lease on one shard. Dropping it does **not** release — a
/// crashed holder's lease must stay visible so its age can expire;
/// call [`release`](Lease::release) on the success path.
#[derive(Debug, Clone)]
pub struct Lease {
    path: PathBuf,
    owner: String,
    shard: usize,
    /// Whether this claim went through the steal path (the previous
    /// holder's heartbeat had expired) rather than a fresh
    /// `create_new`.
    pub stolen: bool,
}

/// Outcome of a claim attempt.
#[derive(Debug)]
pub enum Claim {
    /// The lease is ours.
    Acquired(Lease),
    /// Someone else holds a live lease.
    Held {
        /// The current holder's owner token.
        owner: String,
        /// Milliseconds since that holder's last heartbeat.
        age_ms: u64,
    },
    /// A lease file exists but cannot be parsed — typically the
    /// microsecond window where a fresh claimant has created the file
    /// but not yet written it (or that claimant died inside the
    /// window). Callers treat a *persistently* unreadable lease as
    /// expired; see [`force_claim`].
    Unreadable,
}

/// Attempts to claim shard `shard` in `dir` for `owner`.
///
/// Fresh claims go through `create_new` (atomic; exactly one winner).
/// A lease whose heartbeat is older than `cfg.timeout_ms` at `now_ms`
/// is stolen by renaming a new lease over it.
pub fn try_claim(
    dir: &Path,
    shard: usize,
    owner: &str,
    now_ms: u64,
    cfg: &LeaseConfig,
) -> io::Result<Claim> {
    use std::io::Write as _;
    let path = dir.join(lease_file_name(shard));
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
    {
        Ok(mut file) => {
            file.write_all(render_lease(owner, now_ms).as_bytes())?;
            Ok(Claim::Acquired(Lease {
                path,
                owner: owner.to_string(),
                shard,
                stolen: false,
            }))
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                // vanished between create_new and read (released) or
                // unreadable: let the caller poll again
                Err(_) => return Ok(Claim::Unreadable),
            };
            match parse_lease(&text) {
                None => Ok(Claim::Unreadable),
                Some((holder, heartbeat)) => {
                    let age_ms = now_ms.saturating_sub(heartbeat);
                    if age_ms > cfg.timeout_ms {
                        force_claim(dir, shard, owner, now_ms)
                    } else {
                        Ok(Claim::Held {
                            owner: holder,
                            age_ms,
                        })
                    }
                }
            }
        }
        Err(e) => Err(e),
    }
}

/// Unconditionally installs a lease for `owner` by atomic rename over
/// whatever is there — the steal path. Used by [`try_claim`] on
/// expired leases and by workers that observed an unreadable lease for
/// longer than the timeout (a claimant that died between creating and
/// writing the file).
pub fn force_claim(dir: &Path, shard: usize, owner: &str, now_ms: u64) -> io::Result<Claim> {
    let path = dir.join(lease_file_name(shard));
    commit_bytes(&path, render_lease(owner, now_ms).as_bytes())?;
    Ok(Claim::Acquired(Lease {
        path,
        owner: owner.to_string(),
        shard,
        stolen: true,
    }))
}

impl Lease {
    /// The shard this lease covers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The owner token the lease was claimed with.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// Renews the heartbeat. Returns `false` when the lease is no
    /// longer ours (stolen after an expiry, or released) — the holder
    /// should finish its current shard (re-execution elsewhere is
    /// byte-identical, so completing is harmless) but must not renew
    /// further.
    pub fn heartbeat(&self, now_ms: u64) -> io::Result<bool> {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => match parse_lease(&text) {
                Some((holder, _)) if holder == self.owner => {
                    commit_bytes(&self.path, render_lease(&self.owner, now_ms).as_bytes())?;
                    Ok(true)
                }
                _ => Ok(false),
            },
            Err(_) => Ok(false),
        }
    }

    /// Whether the lease file still names us as the holder.
    pub fn owned(&self) -> bool {
        std::fs::read_to_string(&self.path)
            .ok()
            .and_then(|t| parse_lease(&t))
            .is_some_and(|(holder, _)| holder == self.owner)
    }

    /// Releases the lease if still ours (removes the file). Returns
    /// whether we were still the holder.
    pub fn release(self) -> io::Result<bool> {
        if self.owned() {
            std::fs::remove_file(&self.path)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fleet-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fresh_claim_then_held_then_release() {
        let d = dir("basic");
        let cfg = LeaseConfig::default();
        let a = try_claim(&d, 0, "alice", 1_000, &cfg).unwrap();
        let lease = match a {
            Claim::Acquired(l) => l,
            other => panic!("expected acquisition, got {other:?}"),
        };
        assert!(!lease.stolen);
        assert_eq!(lease.shard(), 0);
        // a second claimant is told who holds it and how stale it is
        match try_claim(&d, 0, "bob", 5_000, &cfg).unwrap() {
            Claim::Held { owner, age_ms } => {
                assert_eq!(owner, "alice");
                assert_eq!(age_ms, 4_000);
            }
            other => panic!("expected held, got {other:?}"),
        }
        // heartbeat renews, release frees
        assert!(lease.heartbeat(6_000).unwrap());
        assert!(lease.release().unwrap());
        match try_claim(&d, 0, "bob", 7_000, &cfg).unwrap() {
            Claim::Acquired(l) => assert!(!l.stolen),
            other => panic!("expected fresh acquisition, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn expired_lease_is_stolen_and_old_holder_detects_loss() {
        let d = dir("steal");
        let cfg = LeaseConfig {
            timeout_ms: 100,
            heartbeat_ms: 10,
        };
        let old = match try_claim(&d, 3, "old", 1_000, &cfg).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("{other:?}"),
        };
        // within the timeout: held
        assert!(matches!(
            try_claim(&d, 3, "thief", 1_100, &cfg).unwrap(),
            Claim::Held { .. }
        ));
        // past the timeout: stolen
        let new = match try_claim(&d, 3, "thief", 1_101, &cfg).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("{other:?}"),
        };
        assert!(new.stolen);
        assert!(new.owned());
        // the stalled old holder wakes: heartbeat refuses to renew,
        // release is a no-op
        assert!(!old.heartbeat(2_000).unwrap());
        assert!(!old.owned());
        assert!(!old.release().unwrap());
        assert!(new.owned(), "old holder's release must not evict the thief");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unreadable_lease_reports_unreadable_then_force_claims() {
        let d = dir("torn");
        // simulate a claimant that died between create_new and write
        std::fs::write(d.join(lease_file_name(1)), b"").unwrap();
        let cfg = LeaseConfig::default();
        assert!(matches!(
            try_claim(&d, 1, "w", 1_000, &cfg).unwrap(),
            Claim::Unreadable
        ));
        let l = match force_claim(&d, 1, "w", 2_000).unwrap() {
            Claim::Acquired(l) => l,
            other => panic!("{other:?}"),
        };
        assert!(l.stolen);
        assert!(l.owned());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn lease_file_round_trips_and_rejects_tampering() {
        let text = render_lease("w1-99", 123_456);
        assert_eq!(parse_lease(&text), Some(("w1-99".to_string(), 123_456)));
        assert_eq!(parse_lease(&text[..text.len() - 3]), None);
        assert_eq!(parse_lease("owner=w\n"), None);
    }
}
