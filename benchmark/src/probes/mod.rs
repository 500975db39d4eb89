//! One file per layer: each probe calls only public functions of its
//! layer (listed in `probe_api.json`), from the harness, and reports
//! that layer's metrics.

pub mod controller;
pub mod core;
pub mod flowsim;
pub mod messages;
pub mod obs;
pub mod scheduler;
pub mod sdn;
pub mod timeline;
pub mod topology;
pub mod uds;

/// Named metric values a probe contributes to the traced run.
pub type Metrics = Vec<(&'static str, f64)>;

/// Mean of nanosecond samples, in microseconds.
pub fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        0.0
    } else {
        ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(ns: &[u64], p: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    crate::stats::percentile_of(&mut v, p)
}
