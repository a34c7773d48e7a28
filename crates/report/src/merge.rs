//! Incremental, order-independent merging of campaign shard CSVs.
//!
//! A sharded tournament (`anneal-arena::campaign`) splits its
//! portfolio × instance matrix into independently runnable shards, each
//! of which persists one CSV artifact:
//!
//! ```text
//! instance_index,instance,<scheduler 1>,<scheduler 2>,...
//! 0,c0000-layered24-hc8,184650,179000,...
//! 2,c0002-forkjoin10-bus4,97noise...
//! ```
//!
//! [`merge_shard_csvs`] folds any subset of those artifacts back into
//! one [`MergedCampaign`]. The merge is
//!
//! * **order-independent** — rows are keyed by the global
//!   `instance_index` and re-sorted, so feeding shards in any order
//!   (or re-merging after one more shard lands) yields the same result;
//! * **byte-reproducible** — [`MergedCampaign::matrix_csv`] and
//!   [`MergedCampaign::standings_csv`] are pure functions of the cell
//!   values, with fixed float formatting;
//! * **validating** — mismatched scheduler headers, duplicate instance
//!   indices and ragged rows are hard errors, not silent corruption.

use std::fmt;
use std::io;
use std::path::Path;

use crate::csv::{f, Csv};

/// One merged row: an instance and every scheduler's makespan on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedRow {
    /// Global instance index within the campaign family.
    pub index: u64,
    /// Instance display name.
    pub instance: String,
    /// Makespans (ns) in scheduler-header order.
    pub makespans: Vec<u64>,
}

/// The merged portfolio × instance matrix of a (possibly partial)
/// campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedCampaign {
    /// Scheduler names, in the shared shard-header order.
    pub schedulers: Vec<String>,
    /// Rows sorted by ascending `index`.
    pub rows: Vec<MergedRow>,
}

/// Why a shard merge was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shard text was supplied, or a shard had no header line.
    Empty,
    /// Two shards disagree on the scheduler columns.
    HeaderMismatch {
        /// Header of the first shard.
        expected: String,
        /// The offending shard's header.
        found: String,
    },
    /// The same `instance_index` appears twice (within or across
    /// shards) — shards must partition the instance set.
    DuplicateIndex(u64),
    /// A malformed line.
    Parse {
        /// 0-based shard position in the merge call.
        shard: usize,
        /// 1-based line number within that shard.
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "nothing to merge"),
            MergeError::HeaderMismatch { expected, found } => {
                write!(
                    f,
                    "shard header mismatch: expected {expected:?}, found {found:?}"
                )
            }
            MergeError::DuplicateIndex(i) => {
                write!(f, "instance index {i} appears in more than one shard row")
            }
            MergeError::Parse { shard, line, msg } => {
                write!(f, "shard {shard}, line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges shard CSV documents (see the module docs for the layout)
/// into one matrix. Accepts any non-empty subset of a campaign's
/// shards, in any order.
pub fn merge_shard_csvs<S: AsRef<str>>(shards: &[S]) -> Result<MergedCampaign, MergeError> {
    let mut schedulers: Option<Vec<String>> = None;
    let mut rows: Vec<MergedRow> = Vec::new();
    for (shard_no, text) in shards.iter().enumerate() {
        let mut lines = text.as_ref().lines().enumerate();
        let (_, header) = lines.next().ok_or(MergeError::Empty)?;
        let cols: Vec<&str> = header.split(',').collect();
        if cols.len() < 3 || cols[0] != "instance_index" || cols[1] != "instance" {
            return Err(MergeError::Parse {
                shard: shard_no,
                line: 1,
                msg: format!("bad header {header:?}"),
            });
        }
        let shard_scheds: Vec<String> = cols[2..].iter().map(|s| s.to_string()).collect();
        match &schedulers {
            None => schedulers = Some(shard_scheds),
            Some(expected) => {
                if *expected != shard_scheds {
                    return Err(MergeError::HeaderMismatch {
                        expected: expected.join(","),
                        found: shard_scheds.join(","),
                    });
                }
            }
        }
        let width = cols.len();
        for (lineno, line) in lines {
            if line.is_empty() {
                continue;
            }
            let parse_err = |msg: String| MergeError::Parse {
                shard: shard_no,
                line: lineno + 1,
                msg,
            };
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != width {
                return Err(parse_err(format!(
                    "expected {width} columns, got {}",
                    cells.len()
                )));
            }
            let index: u64 = cells[0]
                .parse()
                .map_err(|_| parse_err(format!("bad instance_index {:?}", cells[0])))?;
            let makespans = cells[2..]
                .iter()
                .map(|c| {
                    c.parse::<u64>()
                        .map_err(|_| parse_err(format!("bad makespan {c:?}")))
                })
                .collect::<Result<Vec<u64>, MergeError>>()?;
            rows.push(MergedRow {
                index,
                instance: cells[1].to_string(),
                makespans,
            });
        }
    }
    let schedulers = schedulers.ok_or(MergeError::Empty)?;
    rows.sort_by_key(|r| r.index);
    if let Some(w) = rows.windows(2).find(|w| w[0].index == w[1].index) {
        return Err(MergeError::DuplicateIndex(w[0].index));
    }
    Ok(MergedCampaign { schedulers, rows })
}

/// Outcome of validating a campaign directory's sealed shard
/// artifacts before a merge (see [`scan_sealed_shards`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardScan {
    /// `(shard, unsealed CSV text)` for every artifact whose checksum
    /// validated, ascending by shard.
    pub valid: Vec<(usize, String)>,
    /// `(shard, quarantine path, reason)` for artifacts that existed
    /// but failed validation and were moved aside — these shards need
    /// a re-run, and merging must not proceed as if they were absent
    /// by accident.
    pub quarantined: Vec<(usize, String, String)>,
    /// Shards with no artifact at all (never run, or quarantined on a
    /// previous pass and not yet re-run).
    pub missing: Vec<usize>,
}

impl ShardScan {
    /// Whether every shard produced a validated artifact.
    pub fn complete(&self) -> bool {
        self.quarantined.is_empty() && self.missing.is_empty()
    }
}

/// Scans `dir` for the sealed shard artifacts `file_name(0..shards)`,
/// validating each checksum footer. Corrupt or truncated artifacts are
/// quarantined (`anneal_fleet::quarantine`) so a later pass re-runs
/// them — garbage is never merged and never silently dropped. Only
/// filesystem-level failures (not validation failures) are `Err`.
pub fn scan_sealed_shards(
    dir: &Path,
    shards: usize,
    file_name: impl Fn(usize) -> String,
) -> io::Result<ShardScan> {
    let mut scan = ShardScan::default();
    for k in 0..shards {
        let path = dir.join(file_name(k));
        match anneal_fleet::read_sealed(&path) {
            Ok(text) => scan.valid.push((k, text)),
            Err(anneal_fleet::ArtifactError::Missing { .. }) => scan.missing.push(k),
            Err(reason) => {
                let qpath = anneal_fleet::quarantine(&path)?;
                scan.quarantined
                    .push((k, qpath.display().to_string(), reason.to_string()));
            }
        }
    }
    Ok(scan)
}

/// Renders the shared shard/matrix CSV layout: header
/// `instance_index,instance,<schedulers...>`, one row per instance.
/// Both shard artifacts (`anneal-arena`'s `ShardResult`) and
/// [`MergedCampaign::matrix_csv`] go through this single writer, so
/// the two can never drift apart — which is what keeps a merged matrix
/// parseable as a shard and resumed campaigns byte-reproducible.
pub fn render_matrix_csv<'a>(
    schedulers: &[String],
    rows: impl IntoIterator<Item = (u64, &'a str, &'a [u64])>,
) -> Csv {
    let mut csv = Csv::new();
    let mut header = vec!["instance_index".to_string(), "instance".to_string()];
    header.extend(schedulers.iter().cloned());
    csv.row(&header);
    for (index, instance, makespans) in rows {
        let mut cells = vec![index.to_string(), instance.to_string()];
        cells.extend(makespans.iter().map(|m| m.to_string()));
        csv.row(&cells);
    }
    csv
}

impl MergedCampaign {
    /// Number of merged instances.
    pub fn num_instances(&self) -> usize {
        self.rows.len()
    }

    /// The merged matrix as one CSV in the same shard layout — feeding
    /// it back through [`merge_shard_csvs`] is the identity.
    pub fn matrix_csv(&self) -> Csv {
        render_matrix_csv(
            &self.schedulers,
            self.rows
                .iter()
                .map(|r| (r.index, r.instance.as_str(), r.makespans.as_slice())),
        )
    }

    /// Per-scheduler aggregate standings over every merged instance:
    /// win count (ties count for all tied schedulers), mean and worst
    /// makespan ratio versus the per-instance best.
    ///
    /// Header: `scheduler,instances,wins,mean_ratio,worst_ratio`.
    pub fn standings_csv(&self) -> Csv {
        let n = self.rows.len();
        let mut wins = vec![0usize; self.schedulers.len()];
        let mut ratio_sum = vec![0.0f64; self.schedulers.len()];
        let mut ratio_max = vec![0.0f64; self.schedulers.len()];
        for row in &self.rows {
            #[expect(
                clippy::expect_used,
                reason = "merge() rejected shards with empty scheduler headers"
            )]
            let best = *row.makespans.iter().min().expect("non-empty header");
            for (i, &m) in row.makespans.iter().enumerate() {
                if m == best {
                    wins[i] += 1;
                }
                let ratio = if best == 0 {
                    1.0
                } else {
                    m as f64 / best as f64
                };
                ratio_sum[i] += ratio;
                ratio_max[i] = ratio_max[i].max(ratio);
            }
        }
        let mut csv = Csv::new();
        csv.row(&[
            "scheduler",
            "instances",
            "wins",
            "mean_ratio",
            "worst_ratio",
        ]);
        for (i, name) in self.schedulers.iter().enumerate() {
            csv.row(&[
                name.clone(),
                n.to_string(),
                wins[i].to_string(),
                f(ratio_sum[i] / (n.max(1)) as f64, 4),
                f(ratio_max[i], 4),
            ]);
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARD_A: &str = "instance_index,instance,hlf,heft\n0,i0,100,90\n2,i2,50,50\n";
    const SHARD_B: &str = "instance_index,instance,hlf,heft\n1,i1,70,80\n";

    #[test]
    fn merge_is_order_independent_and_sorted() {
        let ab = merge_shard_csvs(&[SHARD_A, SHARD_B]).unwrap();
        let ba = merge_shard_csvs(&[SHARD_B, SHARD_A]).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(ab.num_instances(), 3);
        let indices: Vec<u64> = ab.rows.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        assert_eq!(
            ab.matrix_csv().as_str(),
            ba.matrix_csv().as_str(),
            "matrix must be byte-identical regardless of shard order"
        );
    }

    #[test]
    fn matrix_roundtrips_through_merge() {
        let m = merge_shard_csvs(&[SHARD_A, SHARD_B]).unwrap();
        let text = m.matrix_csv().as_str().to_string();
        let again = merge_shard_csvs(&[text.as_str()]).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn standings_aggregate_correctly() {
        let m = merge_shard_csvs(&[SHARD_A, SHARD_B]).unwrap();
        let text = m.standings_csv().as_str().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "scheduler,instances,wins,mean_ratio,worst_ratio");
        // hlf: wins on i1 and ties on i2; ratios 100/90, 1.0, 1.0
        assert_eq!(lines[1], "hlf,3,2,1.0370,1.1111");
        // heft: wins on i0 and ties on i2; ratios 1.0, 80/70, 1.0
        assert_eq!(lines[2], "heft,3,2,1.0476,1.1429");
    }

    #[test]
    fn partial_merge_accepts_any_subset() {
        let only_b = merge_shard_csvs(&[SHARD_B]).unwrap();
        assert_eq!(only_b.num_instances(), 1);
        assert_eq!(only_b.rows[0].instance, "i1");
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(
            merge_shard_csvs::<&str>(&[]).unwrap_err(),
            MergeError::Empty
        );
        assert_eq!(merge_shard_csvs(&[""]).unwrap_err(), MergeError::Empty);
        assert!(matches!(
            merge_shard_csvs(&[SHARD_A, "instance_index,instance,hlf\n"]).unwrap_err(),
            MergeError::HeaderMismatch { .. }
        ));
        assert_eq!(
            merge_shard_csvs(&[SHARD_A, SHARD_A]).unwrap_err(),
            MergeError::DuplicateIndex(0)
        );
        assert!(matches!(
            merge_shard_csvs(&["bogus,header,x\n"]).unwrap_err(),
            MergeError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            merge_shard_csvs(&["instance_index,instance,hlf\n0,i0\n"]).unwrap_err(),
            MergeError::Parse { line: 2, .. }
        ));
        assert!(matches!(
            merge_shard_csvs(&["instance_index,instance,hlf\nx,i0,5\n"]).unwrap_err(),
            MergeError::Parse { line: 2, .. }
        ));
        assert!(matches!(
            merge_shard_csvs(&["instance_index,instance,hlf\n0,i0,notanum\n"]).unwrap_err(),
            MergeError::Parse { line: 2, .. }
        ));
    }

    #[test]
    fn scan_validates_quarantines_and_reports_missing() {
        let dir = std::env::temp_dir().join(format!("report-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let name = |k: usize| format!("shard-{k:03}.csv");
        // shard 0: valid sealed artifact; shard 1: corrupt; shard 2: absent
        std::fs::write(dir.join(name(0)), anneal_fleet::seal(SHARD_A)).unwrap();
        std::fs::write(dir.join(name(1)), &anneal_fleet::seal(SHARD_B)[..20]).unwrap();
        let scan = scan_sealed_shards(&dir, 3, name).unwrap();
        assert!(!scan.complete());
        assert_eq!(scan.valid, vec![(0, SHARD_A.to_string())]);
        assert_eq!(scan.missing, vec![2]);
        assert_eq!(scan.quarantined.len(), 1);
        assert_eq!(scan.quarantined[0].0, 1);
        assert!(scan.quarantined[0]
            .1
            .ends_with("shard-001.csv.quarantined-1"));
        assert!(
            !dir.join(name(1)).exists(),
            "corrupt artifact must move aside"
        );
        // after the re-run lands a valid artifact, the scan completes
        std::fs::write(dir.join(name(1)), anneal_fleet::seal(SHARD_B)).unwrap();
        std::fs::write(dir.join(name(2)), anneal_fleet::seal(SHARD_A)).unwrap();
        let scan = scan_sealed_shards(&dir, 3, name).unwrap();
        assert!(scan.complete());
        assert_eq!(scan.valid.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_messages_render() {
        for e in [
            MergeError::Empty,
            MergeError::HeaderMismatch {
                expected: "a".into(),
                found: "b".into(),
            },
            MergeError::DuplicateIndex(3),
            MergeError::Parse {
                shard: 0,
                line: 2,
                msg: "bad".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
