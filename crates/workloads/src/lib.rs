//! # anneal-workloads
//!
//! Task-graph generators for the four benchmark programs of D'Hollander &
//! Devis (ICPP 1991), plus random-graph populations for statistical
//! experiments.
//!
//! The paper's Table 1 programs:
//!
//! | Program        | Tasks | Avg dur (µs) | Avg comm (µs) | C/C    | Max speedup |
//! |----------------|-------|--------------|----------------|--------|-------------|
//! | Newton-Euler   |  95   |  9.12        | 3.96           | 43.0 % | 7.86        |
//! | Gauss-Jordan   | 111   | 84.77        | 6.85           |  8.1 % | 9.14        |
//! | FFT            |  73   | 72.74        | 6.41           |  8.8 % | 40.85       |
//! | Matrix Multiply| 111   | 73.96        | 7.21           |  9.7 % | 82.10       |
//!
//! ("Avg comm" is total communication weight divided by the number of
//! *tasks*; that definition makes every Table-1 row internally
//! consistent: `avg_comm = cc_ratio × avg_duration`.)
//!
//! The authors' original partitioner is gone, so each generator rebuilds
//! the algorithm's dependence structure from first principles
//! ([`newton_euler`], [`gauss_jordan`], [`fft`], [`matmul`]) and the
//! [`paper`] module calibrates durations/communication so the Table-1
//! statistics are reproduced: the paper publishes those statistics but
//! not the graphs, so they are what a substitute can be checked against
//! (`tests/calibration.rs`). [`calibrate`] holds the generic scaling
//! tools and [`stats`] the Table-1 row extraction. Beyond the paper's
//! programs, [`stencil`] provides a wavefront workload whose
//! parallelism ramps up and down, and [`fft::fft_butterfly`] the
//! classic radix-2 dataflow.

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

pub mod calibrate;
pub mod fft;
pub mod gauss_jordan;
pub mod matmul;
pub mod newton_euler;
pub mod paper;
pub mod random;
pub mod stats;
pub mod stencil;

pub use paper::{fft_paper, gj_paper, mm_paper, ne_paper, paper_workloads};
pub use stats::Table1Row;
