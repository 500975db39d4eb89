//! The service soak gate (`cargo xtask soak`) at its CI configuration,
//! in simulated time, on the first of its two seeds: `fat_tree(16)` with
//! an overload phase, run twice. The gate's own audits must come back
//! empty — invariants, honest sheds, byte-identical double runs,
//! throughput floor — and the seed's digest is pinned, so a change that
//! moves a single verdict, shed or metric anywhere under
//! `ServiceController` fails Tier-1 rather than only the xtask gate. The
//! second seed runs, against its own pin, in `cargo xtask soak`.

use taps_service::{run_soak, SoakConfig};

#[test]
fn the_default_soak_is_clean_and_its_digests_are_pinned() {
    let cfg = SoakConfig {
        seeds: &[11],
        ..SoakConfig::default()
    };
    let (lines, failures) = run_soak(&cfg);
    assert!(failures.is_empty(), "soak failures: {failures:?}");
    assert_eq!(lines.len(), 1, "one report line per seed");
    let pinned = [(11, "b4ae16e9536366c4")];
    for (line, (seed, digest)) in lines.iter().zip(pinned) {
        assert!(line.starts_with(&format!("seed {seed}:")), "{line}");
        assert!(line.ends_with(&format!("digest {digest}")), "{line}");
    }
}
