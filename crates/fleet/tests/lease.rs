//! Lease-protocol integration tests: mutual exclusion under
//! concurrent claimants, expiry-based stealing, and steal idempotence.

use std::path::PathBuf;

use anneal_fleet::{force_claim, try_claim, unix_time_ms, Claim, LeaseConfig};

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fleet-lease-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Many threads race `try_claim` on the same fresh shard: `create_new`
/// guarantees exactly one wins; everyone else sees it held (or, in the
/// claim-write window, unreadable) — never a second acquisition.
#[test]
fn concurrent_claimants_exactly_one_wins() {
    let d = fresh_dir("race");
    let cfg = LeaseConfig::default();
    let winners = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let d = &d;
                let cfg = &cfg;
                s.spawn(move || {
                    let owner = format!("claimant-{i}");
                    match try_claim(d, 0, &owner, unix_time_ms(), cfg).unwrap() {
                        Claim::Acquired(l) => {
                            assert!(!l.stolen, "a race on a fresh shard must never steal");
                            1usize
                        }
                        Claim::Held { .. } | Claim::Unreadable => 0,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum::<usize>()
    });
    assert_eq!(winners, 1, "exactly one concurrent claimant may win");
    let _ = std::fs::remove_dir_all(&d);
}

/// Repeated rounds of the race, claiming and releasing, never observe
/// two simultaneous holders. A round may have more than one winner — a
/// claimant scheduled after the winner released finds the shard free —
/// so the test counts holders while each lease is held instead of
/// winners per round.
#[test]
fn claim_release_cycles_stay_exclusive() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    let d = fresh_dir("cycles");
    let cfg = LeaseConfig::default();
    let holders = AtomicUsize::new(0);
    let most_holders = AtomicUsize::new(0);
    let start = Barrier::new(4);
    for round in 0..10 {
        let winners = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (d, cfg, start) = (&d, &cfg, &start);
                    let (holders, most_holders) = (&holders, &most_holders);
                    s.spawn(move || {
                        let owner = format!("r{round}-c{i}");
                        // all four claimants race for the free shard at once
                        start.wait();
                        match try_claim(d, 1, &owner, unix_time_ms(), cfg).unwrap() {
                            Claim::Acquired(l) => {
                                let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                                most_holders.fetch_max(now, Ordering::SeqCst);
                                // hold briefly, then release for the next claimant
                                std::thread::sleep(std::time::Duration::from_millis(2));
                                holders.fetch_sub(1, Ordering::SeqCst);
                                assert!(l.release().unwrap());
                                1usize
                            }
                            _ => 0,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        });
        assert!(winners >= 1, "round {round}: nobody acquired a free shard");
        assert_eq!(
            most_holders.load(Ordering::SeqCst),
            1,
            "round {round}: two claimants held the lease at once"
        );
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// An expired lease is stolen; the steal is idempotent in the sense
/// that repeated steals just hand the lease to the latest thief, and a
/// superseded holder's release can never evict the current one.
#[test]
fn expiry_steal_and_idempotence() {
    let d = fresh_dir("steal");
    let cfg = LeaseConfig {
        timeout_ms: 40,
        heartbeat_ms: 5,
    };
    let t0 = 1_000u64;
    let original = match try_claim(&d, 2, "original", t0, &cfg).unwrap() {
        Claim::Acquired(l) => l,
        other => panic!("{other:?}"),
    };
    // heartbeats keep it alive indefinitely
    for i in 1..=5 {
        assert!(original.heartbeat(t0 + i * 30).unwrap());
        assert!(matches!(
            try_claim(&d, 2, "thief", t0 + i * 30 + 10, &cfg).unwrap(),
            Claim::Held { .. }
        ));
    }
    // stop heartbeating; once past the timeout the steal succeeds
    let last_beat = t0 + 5 * 30;
    let first = match try_claim(&d, 2, "thief-a", last_beat + 41, &cfg).unwrap() {
        Claim::Acquired(l) => l,
        other => panic!("{other:?}"),
    };
    assert!(first.stolen);
    // a second force-steal supersedes the first — last thief wins
    let second = match force_claim(&d, 2, "thief-b", last_beat + 42).unwrap() {
        Claim::Acquired(l) => l,
        other => panic!("{other:?}"),
    };
    assert!(second.stolen);
    assert!(!first.owned());
    assert!(second.owned());
    // neither superseded holder can evict the current one
    assert!(!original.release().unwrap());
    assert!(!first.release().unwrap());
    assert!(second.owned());
    assert!(second.release().unwrap());
    let _ = std::fs::remove_dir_all(&d);
}
