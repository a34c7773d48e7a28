//! # anneal-report
//!
//! Plain-text reporting for the `annealsched` reproduction: ASCII
//! tables (Tables 1 and 2), multi-series line charts (Figure 1), Gantt
//! rendering of simulation traces as text and SVG (Figure 2), an SVG
//! win/loss matrix for scheduler tournaments (`anneal-arena`), a
//! minimal CSV writer for machine-readable experiment output, and the
//! order-independent shard merge behind sharded campaigns
//! ([`merge::merge_shard_csvs`]).
//!
//! Everything renders to plain strings — no terminal control codes, no
//! external dependencies — so artifacts diff cleanly and CI can assert
//! byte-identical output:
//!
//! ```
//! use anneal_report::{merge_shard_csvs, Csv};
//!
//! let mut shard = Csv::new();
//! shard
//!     .row(&["instance_index", "instance", "hlf", "heft"])
//!     .row(&["0", "chain16-ring5", "1200", "1100"]);
//! let merged = merge_shard_csvs(&[shard.as_str()]).unwrap();
//! assert_eq!(merged.num_instances(), 1);
//! assert_eq!(merged.matrix_csv().as_str(), shard.as_str());
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chart;
pub mod csv;
pub mod gantt;
pub mod merge;
pub mod obs_summary;
pub mod svg;
pub mod table;
pub mod winloss;

pub use chart::{Chart, Series};
pub use csv::Csv;
pub use gantt::render_gantt;
pub use merge::{
    merge_shard_csvs, render_matrix_csv, scan_sealed_shards, MergeError, MergedCampaign, MergedRow,
    ShardScan,
};
pub use obs_summary::{
    cell_time_shares, render_fleet_summary, render_metrics_summary, render_shares_summary,
    render_shares_svg, render_time_share_svg, slower_first, CellSample, SchedulerShare,
    CELL_NS_PREFIX,
};
pub use svg::render_svg;
pub use table::Table;
pub use winloss::{render_win_loss_matrix, WinLossOptions};
