//! Application-shaped workload presets, following the statistics §II
//! cites: web-search tasks have at least 88 flows, MapReduce tasks 30 to
//! 50 000+, Cosmos tasks mostly 30–70; interactive services operate
//! under 200–300 ms SLAs with per-stage budgets of tens of ms.
//!
//! Besides the free-standing presets, this module hosts the **scenario
//! matrix** behind `cargo xtask scenarios` (DESIGN.md §16): a validated,
//! seeded [`ScenarioConfig`] that opens the workload families the
//! paper's §V evaluation does not reach — weighted tasks (DCoflow-style
//! σ-order values), a close-to-deadline stress regime (RCD), trace-shaped
//! flow-size distributions behind a [`PiecewiseCdf`] inverse-transform
//! sampler, incast fan-in, straggler flows, and diurnal load ramps via
//! [`crate::ReplayPlan`] rate shaping.

use crate::{sample_exp, sample_normal, BurstPhase, ReplayPlan, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use taps_flowsim::Workload;

/// Web-search partition/aggregate: every task is a query whose ~88+
/// worker answers (small flows) converge on one random aggregator host
/// under a tight SLA.
pub fn web_search(num_hosts: usize, queries: usize, seed: u64) -> Workload {
    assert!(num_hosts >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks = Vec::with_capacity(queries);
    let mut arrival = 0.0f64;
    for _ in 0..queries {
        arrival += sample_exp(&mut rng, 0.005); // ~200 queries/s
        let sla = 0.020 + sample_exp(&mut rng, 0.020); // tens of ms
        let aggregator = rng.gen_range(0..num_hosts);
        let workers = sample_normal(&mut rng, 96.0, 8.0, 88.0).round() as usize;
        let mut flows = Vec::with_capacity(workers);
        for _ in 0..workers {
            let w = loop {
                let w = rng.gen_range(0..num_hosts);
                if w != aggregator {
                    break w;
                }
            };
            // Small partial results, 2-20 kB.
            let size = sample_normal(&mut rng, 10_000.0, 4_000.0, 2_000.0);
            flows.push((w, aggregator, size));
        }
        tasks.push((arrival, arrival + sla, flows));
    }
    let wl = Workload::from_tasks(tasks);
    debug_assert!(wl.validate().is_ok());
    wl
}

/// MapReduce shuffle: `mappers x reducers` all-to-all coflows with
/// larger intermediate data and a per-stage deadline.
pub fn mapreduce_shuffle(
    num_hosts: usize,
    jobs: usize,
    mappers: usize,
    reducers: usize,
    seed: u64,
) -> Workload {
    assert!(num_hosts >= mappers + reducers);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks = Vec::with_capacity(jobs);
    let mut arrival = 0.0f64;
    for _ in 0..jobs {
        arrival += sample_exp(&mut rng, 0.050);
        let deadline = 0.100 + sample_exp(&mut rng, 0.100);
        // Pick disjoint mapper/reducer host sets for this job.
        let base = rng.gen_range(0..num_hosts - mappers - reducers + 1);
        let mut flows = Vec::with_capacity(mappers * reducers);
        for m in 0..mappers {
            for r in 0..reducers {
                let size = sample_normal(&mut rng, 400_000.0, 150_000.0, 50_000.0);
                flows.push((base + m, base + mappers + r, size));
            }
        }
        tasks.push((arrival, arrival + deadline, flows));
    }
    let wl = Workload::from_tasks(tasks);
    debug_assert!(wl.validate().is_ok());
    wl
}

/// Cosmos-style tasks: 30–70 medium flows between random endpoints.
pub fn cosmos(num_hosts: usize, num_tasks: usize, seed: u64) -> Workload {
    let cfg = WorkloadConfig {
        num_tasks,
        mean_flows_per_task: 50.0,
        sd_flows_per_task: 10.0,
        mean_flow_size: 150_000.0,
        sd_flow_size: 40_000.0,
        min_flow_size: 5_000.0,
        mean_deadline: 0.060,
        min_deadline: 0.005,
        arrival_rate: 40.0,
        num_hosts,
        seed,
        size_dist: crate::SizeDist::Normal,
    };
    cfg.generate()
}

/// Incast: `fan_in` senders fire simultaneously at one receiver — the
/// many-to-one burst pattern that stresses the receiver's access link
/// (the pathology ICTCP, cited in §I, was built for). Every burst is one
/// task: the aggregate result is useless unless every sender lands in
/// time.
pub fn incast(num_hosts: usize, bursts: usize, fan_in: usize, seed: u64) -> Workload {
    assert!(num_hosts > fan_in, "need more hosts than the fan-in");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks = Vec::with_capacity(bursts);
    let mut arrival = 0.0f64;
    for _ in 0..bursts {
        arrival += sample_exp(&mut rng, 0.010);
        let receiver = rng.gen_range(0..num_hosts);
        let deadline = 0.010 + sample_exp(&mut rng, 0.015);
        let mut flows = Vec::with_capacity(fan_in);
        let mut used = vec![receiver];
        for _ in 0..fan_in {
            let s = loop {
                let s = rng.gen_range(0..num_hosts);
                if !used.contains(&s) {
                    break s;
                }
            };
            used.push(s);
            // Small, near-uniform responses (64 kB +- 8 kB).
            flows.push((
                s,
                receiver,
                sample_normal(&mut rng, 64_000.0, 8_000.0, 8_000.0),
            ));
        }
        tasks.push((arrival, arrival + deadline, flows));
    }
    let wl = Workload::from_tasks(tasks);
    debug_assert!(wl.validate().is_ok());
    wl
}

/// A typed scenario-validation failure: [`ScenarioConfig::generate`]
/// refuses to emit degenerate workloads instead of silently producing
/// tasks with empty size supports or zero/negative deadline ranges.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// A deadline (slack) range was empty, zero, or negative:
    /// `lo` must be positive and `hi` strictly greater than `lo`.
    DeadlineRange {
        /// Lower bound of the offending range.
        lo: f64,
        /// Upper bound of the offending range.
        hi: f64,
    },
    /// A mean or minimum deadline was zero, negative, or non-finite.
    NonPositiveDeadline {
        /// The offending value, seconds.
        value: f64,
    },
    /// A flow-size distribution had an empty support (no CDF points, or
    /// a non-positive size on its support).
    EmptySizeSupport,
    /// A piecewise CDF was not strictly monotone in both size and
    /// cumulative probability, or did not end at probability 1.
    NonMonotoneCdf {
        /// Index of the first offending point.
        index: usize,
    },
    /// A weight range was empty, non-finite, or reached zero/negative
    /// weights.
    WeightRange {
        /// Lower bound of the offending range.
        lo: f64,
        /// Upper bound of the offending range.
        hi: f64,
    },
    /// The topology cannot host the scenario (e.g. incast fan-in needs
    /// more hosts than senders + receiver).
    HostCount {
        /// Hosts required.
        need: usize,
        /// Hosts configured.
        have: usize,
    },
    /// An arrival rate, link capacity, ramp scale, or straggler factor
    /// was zero, negative, or non-finite.
    NonPositiveRate {
        /// Name of the offending knob.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::DeadlineRange { lo, hi } => {
                write!(
                    f,
                    "deadline slack range [{lo}, {hi}] is empty or non-positive"
                )
            }
            ScenarioError::NonPositiveDeadline { value } => {
                write!(f, "deadline {value} s is not positive")
            }
            ScenarioError::EmptySizeSupport => {
                write!(f, "flow-size distribution has an empty support")
            }
            ScenarioError::NonMonotoneCdf { index } => {
                write!(f, "piecewise CDF is not strictly monotone at point {index}")
            }
            ScenarioError::WeightRange { lo, hi } => {
                write!(f, "weight range [{lo}, {hi}] is empty or non-positive")
            }
            ScenarioError::HostCount { need, have } => {
                write!(f, "scenario needs at least {need} hosts, got {have}")
            }
            ScenarioError::NonPositiveRate { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A piecewise-linear flow-size CDF sampled by inverse transform with
/// log-linear interpolation between points (data-center size
/// distributions span orders of magnitude, so interpolating in log-size
/// space avoids over-weighting the large end of each segment). Every
/// sample lies inside `[min_bytes, max_bytes]` — the support is closed,
/// which the scenario property tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecewiseCdf {
    /// `(size bytes, cumulative probability)`, strictly increasing in
    /// both coordinates, last probability exactly 1.
    points: Vec<(f64, f64)>,
}

impl PiecewiseCdf {
    /// Validates and builds a CDF from `(bytes, cum_prob)` points.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, ScenarioError> {
        if points.is_empty() {
            return Err(ScenarioError::EmptySizeSupport);
        }
        let mut prev = (0.0f64, 0.0f64);
        for (i, &(bytes, p)) in points.iter().enumerate() {
            if !bytes.is_finite() || bytes <= 0.0 {
                return Err(ScenarioError::EmptySizeSupport);
            }
            if !p.is_finite() || bytes <= prev.0 || p <= prev.1 || p > 1.0 {
                return Err(ScenarioError::NonMonotoneCdf { index: i });
            }
            prev = (bytes, p);
        }
        if prev.1 != 1.0 {
            return Err(ScenarioError::NonMonotoneCdf {
                index: points.len() - 1,
            });
        }
        Ok(PiecewiseCdf { points })
    }

    /// Web-search flow sizes: mostly short query/response traffic with a
    /// heavy tail of multi-megabyte background transfers (shaped after
    /// the production web-search workload DCTCP measured; also used by
    /// the pFabric/PIAS evaluations).
    #[expect(
        clippy::expect_used,
        reason = "static literal table, validated in tests"
    )]
    pub fn websearch() -> Self {
        Self::new(vec![
            (6_000.0, 0.15),
            (13_000.0, 0.30),
            (19_000.0, 0.40),
            (33_000.0, 0.53),
            (53_000.0, 0.60),
            (133_000.0, 0.70),
            (667_000.0, 0.80),
            (1_333_000.0, 0.90),
            (3_333_000.0, 1.00),
        ])
        .expect("static websearch CDF")
    }

    /// Data-mining flow sizes: ~half the flows are tiny control/lookup
    /// messages while the top decile carries multi-megabyte shuffles
    /// (shaped after the VL2 data-mining measurement).
    #[expect(
        clippy::expect_used,
        reason = "static literal table, validated in tests"
    )]
    pub fn data_mining() -> Self {
        Self::new(vec![
            (100.0, 0.50),
            (1_000.0, 0.60),
            (10_000.0, 0.70),
            (100_000.0, 0.80),
            (1_000_000.0, 0.95),
            (10_000_000.0, 1.00),
        ])
        .expect("static data-mining CDF")
    }

    /// Smallest size on the support.
    pub fn min_bytes(&self) -> f64 {
        self.points[0].0
    }

    /// Largest size on the support.
    pub fn max_bytes(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// Draws one size by inverse transform.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        let mut prev = self.points[0];
        if u <= prev.1 {
            return prev.0;
        }
        for &(bytes, p) in &self.points[1..] {
            if u <= p {
                // Log-linear interpolation inside the segment.
                let frac = (u - prev.1) / (p - prev.1);
                return prev.0 * (bytes / prev.0).powf(frac);
            }
            prev = (bytes, p);
        }
        self.max_bytes()
    }
}

/// The workload family a [`ScenarioConfig`] draws from.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioFamily {
    /// The paper's §V-A shape with per-task admission weights drawn
    /// uniformly from `[weight_lo, weight_hi]` (DCoflow σ-order values).
    Weighted {
        /// Smallest task weight (must be positive).
        weight_lo: f64,
        /// Largest task weight (must exceed `weight_lo`).
        weight_hi: f64,
    },
    /// RCD-style stress: each task's relative deadline is its bottleneck
    /// transfer time times a slack factor drawn from
    /// `U(slack_lo, slack_hi)` — barely feasible, so preemption and path
    /// choice decide who finishes.
    CloseToDeadline {
        /// Lower slack multiplier (the canonical regime uses 1.05).
        slack_lo: f64,
        /// Upper slack multiplier (the canonical regime uses 1.5).
        slack_hi: f64,
        /// Access-link capacity in bytes/s used to derive each task's
        /// bottleneck transfer time.
        link_capacity: f64,
    },
    /// Trace-shaped flow sizes drawn from a measured [`PiecewiseCdf`].
    TraceShaped {
        /// The flow-size distribution.
        sizes: PiecewiseCdf,
        /// Mean flows per task (spread: a quarter of the mean).
        mean_flows_per_task: f64,
        /// Mean relative deadline, seconds (exponential).
        mean_deadline: f64,
        /// Relative-deadline floor, seconds.
        min_deadline: f64,
    },
    /// Many-to-one bursts: `fan_in` distinct senders converge on one
    /// receiver per task under a tight deadline.
    Incast {
        /// Senders per burst.
        fan_in: usize,
    },
    /// Mostly-uniform tasks whose last flow is `straggler_factor` times
    /// larger — the task-completion metric hinges on that one flow.
    Straggler {
        /// Non-straggler flows per task.
        flows_per_task: usize,
        /// Size multiplier of the straggler flow (must exceed 1).
        straggler_factor: f64,
        /// Access-link capacity in bytes/s used to size deadlines so the
        /// straggler is feasible but tight.
        link_capacity: f64,
    },
    /// A diurnal load ramp: the base §V-A shape re-timed through
    /// [`ReplayPlan`] rate shaping — arrival gaps compress towards the
    /// midday peak (`peak_scale`) and relax again, in five equal phases.
    DiurnalRamp {
        /// Peak arrival-rate multiplier at the middle phase.
        peak_scale: f64,
    },
}

/// A validated, seeded scenario: one cell of the golden scenario matrix.
///
/// [`ScenarioConfig::generate`] is a pure function of the config — the
/// same seed yields a bit-identical [`Workload`], which is what the
/// `cargo xtask scenarios` gate's double-run digests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioConfig {
    /// The workload family.
    pub family: ScenarioFamily,
    /// Number of tasks to draw.
    pub num_tasks: usize,
    /// Hosts to draw endpoints from (must match the topology).
    pub num_hosts: usize,
    /// Poisson task arrival rate, tasks per second.
    pub arrival_rate: f64,
    /// PRNG seed (StdRng; lint L4).
    pub seed: u64,
}

impl ScenarioConfig {
    /// Weighted-admission preset: testbed-scale tasks with weights in
    /// `[0.25, 4.0]`.
    pub fn weighted(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::Weighted {
                weight_lo: 0.25,
                weight_hi: 4.0,
            },
            num_tasks,
            num_hosts,
            arrival_rate: 2500.0,
            seed,
        }
    }

    /// Close-to-deadline preset: deadlines at `transfer_time × U(1.05,
    /// 1.5)` over gigabit access links.
    pub fn close_to_deadline(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::CloseToDeadline {
                slack_lo: 1.05,
                slack_hi: 1.5,
                link_capacity: 1.25e8,
            },
            num_tasks,
            num_hosts,
            arrival_rate: 200.0,
            seed,
        }
    }

    /// Web-search trace-shaped preset.
    pub fn websearch_sizes(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::TraceShaped {
                sizes: PiecewiseCdf::websearch(),
                mean_flows_per_task: 4.0,
                mean_deadline: 0.120,
                min_deadline: 0.010,
            },
            num_tasks,
            num_hosts,
            arrival_rate: 400.0,
            seed,
        }
    }

    /// Data-mining trace-shaped preset.
    pub fn data_mining_sizes(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::TraceShaped {
                sizes: PiecewiseCdf::data_mining(),
                mean_flows_per_task: 4.0,
                mean_deadline: 0.250,
                min_deadline: 0.020,
            },
            num_tasks,
            num_hosts,
            arrival_rate: 200.0,
            seed,
        }
    }

    /// Incast preset: 6-way fan-in bursts.
    pub fn incast(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::Incast { fan_in: 6 },
            num_tasks,
            num_hosts,
            arrival_rate: 500.0,
            seed,
        }
    }

    /// Straggler preset: 5 uniform flows plus an 8× straggler per task.
    pub fn straggler(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::Straggler {
                flows_per_task: 5,
                straggler_factor: 8.0,
                link_capacity: 1.25e8,
            },
            num_tasks,
            num_hosts,
            arrival_rate: 250.0,
            seed,
        }
    }

    /// Diurnal-ramp preset: arrivals compress 4× towards the middle
    /// phase and relax back.
    pub fn diurnal_ramp(num_hosts: usize, num_tasks: usize, seed: u64) -> Self {
        ScenarioConfig {
            family: ScenarioFamily::DiurnalRamp { peak_scale: 4.0 },
            num_tasks,
            num_hosts,
            arrival_rate: 400.0,
            seed,
        }
    }

    /// Validates every knob; [`ScenarioConfig::generate`] calls this
    /// first, so a degenerate config fails loudly instead of emitting a
    /// degenerate workload.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.num_hosts < 2 {
            return Err(ScenarioError::HostCount {
                need: 2,
                have: self.num_hosts,
            });
        }
        if !self.arrival_rate.is_finite() || self.arrival_rate <= 0.0 {
            return Err(ScenarioError::NonPositiveRate {
                what: "arrival_rate",
                value: self.arrival_rate,
            });
        }
        match &self.family {
            ScenarioFamily::Weighted {
                weight_lo,
                weight_hi,
            } => {
                if !weight_lo.is_finite()
                    || !weight_hi.is_finite()
                    || *weight_lo <= 0.0
                    || weight_hi <= weight_lo
                {
                    return Err(ScenarioError::WeightRange {
                        lo: *weight_lo,
                        hi: *weight_hi,
                    });
                }
            }
            ScenarioFamily::CloseToDeadline {
                slack_lo,
                slack_hi,
                link_capacity,
            } => {
                if !slack_lo.is_finite() || !slack_hi.is_finite() || *slack_lo <= 0.0 {
                    return Err(ScenarioError::DeadlineRange {
                        lo: *slack_lo,
                        hi: *slack_hi,
                    });
                }
                if slack_hi <= slack_lo {
                    return Err(ScenarioError::DeadlineRange {
                        lo: *slack_lo,
                        hi: *slack_hi,
                    });
                }
                if !link_capacity.is_finite() || *link_capacity <= 0.0 {
                    return Err(ScenarioError::NonPositiveRate {
                        what: "link_capacity",
                        value: *link_capacity,
                    });
                }
            }
            ScenarioFamily::TraceShaped {
                sizes,
                mean_flows_per_task,
                mean_deadline,
                min_deadline,
            } => {
                // Re-validate: the CDF may have been built literally.
                PiecewiseCdf::new(sizes.points.clone())?;
                if !mean_flows_per_task.is_finite() || *mean_flows_per_task < 1.0 {
                    return Err(ScenarioError::NonPositiveRate {
                        what: "mean_flows_per_task",
                        value: *mean_flows_per_task,
                    });
                }
                for d in [*mean_deadline, *min_deadline] {
                    if !d.is_finite() || d <= 0.0 {
                        return Err(ScenarioError::NonPositiveDeadline { value: d });
                    }
                }
            }
            ScenarioFamily::Incast { fan_in } => {
                if *fan_in == 0 || self.num_hosts <= *fan_in {
                    return Err(ScenarioError::HostCount {
                        need: fan_in + 1,
                        have: self.num_hosts,
                    });
                }
            }
            ScenarioFamily::Straggler {
                flows_per_task,
                straggler_factor,
                link_capacity,
            } => {
                if *flows_per_task == 0 {
                    return Err(ScenarioError::NonPositiveRate {
                        what: "flows_per_task",
                        value: 0.0,
                    });
                }
                if !straggler_factor.is_finite() || *straggler_factor <= 1.0 {
                    return Err(ScenarioError::NonPositiveRate {
                        what: "straggler_factor",
                        value: *straggler_factor,
                    });
                }
                if !link_capacity.is_finite() || *link_capacity <= 0.0 {
                    return Err(ScenarioError::NonPositiveRate {
                        what: "link_capacity",
                        value: *link_capacity,
                    });
                }
            }
            ScenarioFamily::DiurnalRamp { peak_scale } => {
                if !peak_scale.is_finite() || *peak_scale <= 0.0 {
                    return Err(ScenarioError::NonPositiveRate {
                        what: "peak_scale",
                        value: *peak_scale,
                    });
                }
            }
        }
        Ok(())
    }

    /// Generates the scenario's workload; same config, same bytes.
    pub fn generate(&self) -> Result<Workload, ScenarioError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let wl = match &self.family {
            ScenarioFamily::Weighted {
                weight_lo,
                weight_hi,
            } => {
                let mut tasks = Vec::with_capacity(self.num_tasks);
                let mut arrival = 0.0f64;
                for _ in 0..self.num_tasks {
                    arrival += sample_exp(&mut rng, 1.0 / self.arrival_rate);
                    let deadline_rel = sample_exp(&mut rng, 0.040).max(0.002);
                    let nflows = sample_normal(&mut rng, 2.0, 0.5, 1.0).round() as usize;
                    let flows = random_flows(&mut rng, self.num_hosts, nflows, 100_000.0);
                    let weight = rng.gen_range(*weight_lo..*weight_hi);
                    tasks.push((arrival, arrival + deadline_rel, flows, weight));
                }
                Workload::from_weighted_tasks(tasks)
            }
            ScenarioFamily::CloseToDeadline {
                slack_lo,
                slack_hi,
                link_capacity,
            } => {
                let mut tasks = Vec::with_capacity(self.num_tasks);
                let mut arrival = 0.0f64;
                for _ in 0..self.num_tasks {
                    arrival += sample_exp(&mut rng, 1.0 / self.arrival_rate);
                    let nflows = sample_normal(&mut rng, 3.0, 0.75, 1.0).round() as usize;
                    let flows = random_flows(&mut rng, self.num_hosts, nflows, 150_000.0);
                    // The bottleneck transfer time is the serialization
                    // delay of the largest flow — a lower bound on the
                    // task's completion, so slack < 1 would be provably
                    // infeasible and ~1.05 is barely feasible.
                    let bottleneck = flows.iter().map(|f| f.2).fold(0.0, f64::max) / link_capacity;
                    let slack = rng.gen_range(*slack_lo..*slack_hi);
                    tasks.push((arrival, arrival + bottleneck * slack, flows));
                }
                Workload::from_tasks(tasks)
            }
            ScenarioFamily::TraceShaped {
                sizes,
                mean_flows_per_task,
                mean_deadline,
                min_deadline,
            } => {
                let mut tasks = Vec::with_capacity(self.num_tasks);
                let mut arrival = 0.0f64;
                for _ in 0..self.num_tasks {
                    arrival += sample_exp(&mut rng, 1.0 / self.arrival_rate);
                    let deadline_rel = sample_exp(&mut rng, *mean_deadline).max(*min_deadline);
                    let nflows = sample_normal(
                        &mut rng,
                        *mean_flows_per_task,
                        mean_flows_per_task / 4.0,
                        1.0,
                    )
                    .round() as usize;
                    let mut flows = Vec::with_capacity(nflows);
                    for _ in 0..nflows {
                        let (src, dst) = random_pair(&mut rng, self.num_hosts);
                        flows.push((src, dst, sizes.sample(&mut rng)));
                    }
                    tasks.push((arrival, arrival + deadline_rel, flows));
                }
                Workload::from_tasks(tasks)
            }
            ScenarioFamily::Incast { fan_in } => {
                let mut tasks = Vec::with_capacity(self.num_tasks);
                let mut arrival = 0.0f64;
                for _ in 0..self.num_tasks {
                    arrival += sample_exp(&mut rng, 1.0 / self.arrival_rate);
                    let receiver = rng.gen_range(0..self.num_hosts);
                    let deadline_rel = 0.010 + sample_exp(&mut rng, 0.015);
                    let mut used = vec![receiver];
                    let mut flows = Vec::with_capacity(*fan_in);
                    for _ in 0..*fan_in {
                        let s = loop {
                            let s = rng.gen_range(0..self.num_hosts);
                            if !used.contains(&s) {
                                break s;
                            }
                        };
                        used.push(s);
                        flows.push((
                            s,
                            receiver,
                            sample_normal(&mut rng, 64_000.0, 8_000.0, 8_000.0),
                        ));
                    }
                    tasks.push((arrival, arrival + deadline_rel, flows));
                }
                Workload::from_tasks(tasks)
            }
            ScenarioFamily::Straggler {
                flows_per_task,
                straggler_factor,
                link_capacity,
            } => {
                let mut tasks = Vec::with_capacity(self.num_tasks);
                let mut arrival = 0.0f64;
                for _ in 0..self.num_tasks {
                    arrival += sample_exp(&mut rng, 1.0 / self.arrival_rate);
                    let base = sample_normal(&mut rng, 48_000.0, 8_000.0, 8_000.0);
                    let mut flows = Vec::with_capacity(flows_per_task + 1);
                    for _ in 0..*flows_per_task {
                        let (src, dst) = random_pair(&mut rng, self.num_hosts);
                        flows.push((src, dst, sample_normal(&mut rng, base, base / 8.0, 1_000.0)));
                    }
                    let (src, dst) = random_pair(&mut rng, self.num_hosts);
                    let straggler = base * straggler_factor;
                    flows.push((src, dst, straggler));
                    // Feasible but dominated by the straggler: ~2–3× its
                    // serialization delay.
                    let slack = rng.gen_range(2.0..3.0);
                    let deadline_rel = (straggler / link_capacity) * slack;
                    tasks.push((arrival, arrival + deadline_rel, flows));
                }
                Workload::from_tasks(tasks)
            }
            ScenarioFamily::DiurnalRamp { peak_scale } => {
                let mut base_cfg = WorkloadConfig::paper_single_rooted(self.num_hosts, self.seed);
                base_cfg.num_tasks = self.num_tasks;
                base_cfg.mean_flows_per_task = 2.0;
                base_cfg.sd_flows_per_task = 0.5;
                base_cfg.mean_flow_size = 100_000.0;
                base_cfg.sd_flow_size = 25_000.0;
                base_cfg.arrival_rate = self.arrival_rate;
                let base = base_cfg.generate();
                // Five equal phases: off-peak, shoulder, peak, shoulder,
                // off-peak — a compressed diurnal curve.
                let seg = (self.num_tasks / 5).max(1);
                let scales = [1.0, peak_scale.sqrt(), *peak_scale, peak_scale.sqrt(), 1.0];
                let phases: Vec<BurstPhase> = scales
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != 1.0)
                    .map(|(i, s)| BurstPhase {
                        start: i * seg,
                        len: seg,
                        rate_scale: *s,
                    })
                    .collect();
                ReplayPlan::build_with_phases(&base, 1.0, &phases).retime(&base)
            }
        };
        debug_assert!(wl.validate().is_ok(), "{:?}", wl.validate());
        Ok(wl)
    }
}

/// Draws a `src != dst` host pair.
fn random_pair<R: Rng>(rng: &mut R, num_hosts: usize) -> (usize, usize) {
    let src = rng.gen_range(0..num_hosts);
    let dst = loop {
        let d = rng.gen_range(0..num_hosts);
        if d != src {
            break d;
        }
    };
    (src, dst)
}

/// Draws `n` random flows with normal sizes around `mean_size`.
fn random_flows<R: Rng>(
    rng: &mut R,
    num_hosts: usize,
    n: usize,
    mean_size: f64,
) -> Vec<(usize, usize, f64)> {
    (0..n)
        .map(|_| {
            let (src, dst) = random_pair(rng, num_hosts);
            (
                src,
                dst,
                sample_normal(rng, mean_size, mean_size / 4.0, 1_000.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_search_matches_section_ii_statistics() {
        let wl = web_search(128, 50, 3);
        wl.validate().unwrap();
        assert_eq!(wl.num_tasks(), 50);
        for t in &wl.tasks {
            assert!(t.num_flows() >= 88, "web search tasks have >= 88 flows");
            // All flows of a query converge on one aggregator.
            let dst = wl.flows[t.flows.start].dst;
            assert!(t.flows.clone().all(|fid| wl.flows[fid].dst == dst));
            // SLA within the paper's interactive range.
            let sla = t.deadline - t.arrival;
            assert!((0.020..0.300).contains(&sla), "sla {sla}");
        }
    }

    #[test]
    fn mapreduce_is_all_to_all() {
        let wl = mapreduce_shuffle(64, 5, 4, 8, 9);
        wl.validate().unwrap();
        for t in &wl.tasks {
            assert_eq!(t.num_flows(), 32);
            // 4 distinct sources, 8 distinct destinations, disjoint.
            let mut srcs: Vec<usize> = t.flows.clone().map(|f| wl.flows[f].src).collect();
            let mut dsts: Vec<usize> = t.flows.clone().map(|f| wl.flows[f].dst).collect();
            srcs.sort_unstable();
            srcs.dedup();
            dsts.sort_unstable();
            dsts.dedup();
            assert_eq!(srcs.len(), 4);
            assert_eq!(dsts.len(), 8);
            assert!(srcs.iter().all(|s| !dsts.contains(s)));
        }
    }

    #[test]
    fn cosmos_flow_counts_in_range() {
        let wl = cosmos(64, 20, 5);
        wl.validate().unwrap();
        let avg =
            wl.tasks.iter().map(|t| t.num_flows()).sum::<usize>() as f64 / wl.num_tasks() as f64;
        assert!((30.0..=70.0).contains(&avg), "avg flows/task {avg}");
    }

    #[test]
    fn incast_converges_on_one_receiver_with_distinct_senders() {
        let wl = incast(32, 10, 12, 4);
        wl.validate().unwrap();
        for t in &wl.tasks {
            assert_eq!(t.num_flows(), 12);
            let recv = wl.flows[t.flows.start].dst;
            let mut senders = Vec::new();
            for fid in t.flows.clone() {
                assert_eq!(wl.flows[fid].dst, recv);
                assert!(!senders.contains(&wl.flows[fid].src), "duplicate sender");
                senders.push(wl.flows[fid].src);
            }
        }
    }

    #[test]
    fn pareto_sizes_are_heavy_tailed_with_matched_mean() {
        use crate::{SizeDist, WorkloadConfig};
        let mut cfg = WorkloadConfig::paper_single_rooted(64, 9);
        cfg.num_tasks = 200;
        cfg.mean_flows_per_task = 50.0;
        cfg.sd_flows_per_task = 0.0;
        cfg.size_dist = SizeDist::Pareto { alpha: 1.5 };
        let wl = cfg.generate();
        let mean = wl.total_bytes() / wl.num_flows() as f64;
        assert!(
            (mean - 200_000.0).abs() < 40_000.0,
            "pareto mean should track the config: {mean}"
        );
        // Heavy tail: the max dwarfs the normal distribution's reach.
        let max = wl.flows.iter().map(|f| f.size).fold(0.0, f64::max);
        assert!(max > 600_000.0, "tail too light: max {max}");
    }

    #[test]
    fn scenario_validation_rejects_degenerate_configs() {
        // Empty/negative deadline (slack) ranges.
        let mut cfg = ScenarioConfig::close_to_deadline(16, 10, 1);
        if let ScenarioFamily::CloseToDeadline {
            slack_lo, slack_hi, ..
        } = &mut cfg.family
        {
            *slack_lo = 1.5;
            *slack_hi = 1.5;
        }
        assert!(matches!(
            cfg.generate(),
            Err(ScenarioError::DeadlineRange { .. })
        ));
        let mut cfg = ScenarioConfig::close_to_deadline(16, 10, 1);
        if let ScenarioFamily::CloseToDeadline { slack_lo, .. } = &mut cfg.family {
            *slack_lo = -0.5;
        }
        assert!(matches!(
            cfg.generate(),
            Err(ScenarioError::DeadlineRange { .. })
        ));

        // Empty flow-size supports.
        assert_eq!(
            PiecewiseCdf::new(vec![]).unwrap_err(),
            ScenarioError::EmptySizeSupport
        );
        assert_eq!(
            PiecewiseCdf::new(vec![(0.0, 1.0)]).unwrap_err(),
            ScenarioError::EmptySizeSupport
        );
        assert!(matches!(
            PiecewiseCdf::new(vec![(100.0, 0.5), (50.0, 1.0)]),
            Err(ScenarioError::NonMonotoneCdf { index: 1 })
        ));
        assert!(matches!(
            PiecewiseCdf::new(vec![(100.0, 0.5), (200.0, 0.9)]),
            Err(ScenarioError::NonMonotoneCdf { .. })
        ));

        // Zero/negative deadlines on the trace-shaped family.
        let mut cfg = ScenarioConfig::websearch_sizes(16, 10, 1);
        if let ScenarioFamily::TraceShaped { mean_deadline, .. } = &mut cfg.family {
            *mean_deadline = 0.0;
        }
        assert!(matches!(
            cfg.generate(),
            Err(ScenarioError::NonPositiveDeadline { value }) if value == 0.0
        ));

        // Weight ranges that reach zero.
        let mut cfg = ScenarioConfig::weighted(16, 10, 1);
        if let ScenarioFamily::Weighted { weight_lo, .. } = &mut cfg.family {
            *weight_lo = 0.0;
        }
        assert!(matches!(
            cfg.generate(),
            Err(ScenarioError::WeightRange { .. })
        ));

        // Incast fan-in needs enough hosts.
        let cfg = ScenarioConfig::incast(4, 10, 1);
        assert!(matches!(
            cfg.generate(),
            Err(ScenarioError::HostCount { need: 7, have: 4 })
        ));
    }

    #[test]
    fn piecewise_cdf_samples_stay_on_the_support() {
        use rand::SeedableRng;
        for cdf in [PiecewiseCdf::websearch(), PiecewiseCdf::data_mining()] {
            let mut rng = StdRng::seed_from_u64(17);
            let mut below_median = 0usize;
            for _ in 0..5_000 {
                let s = cdf.sample(&mut rng);
                assert!(
                    s >= cdf.min_bytes() && s <= cdf.max_bytes(),
                    "{s} outside [{}, {}]",
                    cdf.min_bytes(),
                    cdf.max_bytes()
                );
                if s <= 150_000.0 {
                    below_median += 1;
                }
            }
            // Both distributions are dominated by small flows.
            assert!(below_median > 2_500, "small flows dominate: {below_median}");
        }
    }

    #[test]
    fn close_to_deadline_slack_stays_in_range() {
        let cfg = ScenarioConfig::close_to_deadline(16, 40, 9);
        let wl = cfg.generate().unwrap();
        let cap = 1.25e8;
        for t in &wl.tasks {
            let bottleneck = t
                .flows
                .clone()
                .map(|fid| wl.flows[fid].size)
                .fold(0.0, f64::max)
                / cap;
            let slack = (t.deadline - t.arrival) / bottleneck;
            assert!(
                (1.05..1.5).contains(&slack),
                "slack {slack} outside U(1.05, 1.5)"
            );
        }
    }

    #[test]
    fn weighted_family_draws_weights_in_range() {
        let wl = ScenarioConfig::weighted(16, 30, 3).generate().unwrap();
        assert!(wl.tasks.iter().any(|t| t.weight != 1.0));
        for t in &wl.tasks {
            assert!((0.25..4.0).contains(&t.weight), "weight {}", t.weight);
        }
        // Every other family leaves the default weight alone.
        let wl = ScenarioConfig::incast(16, 10, 3).generate().unwrap();
        assert!(wl.tasks.iter().all(|t| t.weight == 1.0));
    }

    #[test]
    fn straggler_tasks_have_one_dominant_flow() {
        let wl = ScenarioConfig::straggler(16, 20, 5).generate().unwrap();
        for t in &wl.tasks {
            assert_eq!(t.num_flows(), 6);
            let mut sizes: Vec<f64> = t.flows.clone().map(|f| wl.flows[f].size).collect();
            sizes.sort_by(f64::total_cmp);
            let straggler = sizes[sizes.len() - 1];
            let runner_up = sizes[sizes.len() - 2];
            assert!(
                straggler > 4.0 * runner_up,
                "straggler {straggler} vs {runner_up}"
            );
        }
    }

    #[test]
    fn diurnal_ramp_compresses_the_peak_phase() {
        let cfg = ScenarioConfig::diurnal_ramp(16, 50, 7);
        let wl = cfg.generate().unwrap();
        wl.validate().unwrap();
        assert_eq!(wl.num_tasks(), 50);
        let span = |a: usize, b: usize| wl.tasks[b].arrival - wl.tasks[a].arrival;
        // The peak phase (tasks 20..30) is denser than the off-peak head.
        let head = span(0, 10);
        let peak = span(20, 30);
        assert!(peak < head / 2.0, "peak {peak} vs head {head}");
    }

    #[test]
    fn scenario_generation_is_bit_identical_per_seed() {
        let mk = |seed| {
            [
                ScenarioConfig::weighted(16, 12, seed),
                ScenarioConfig::close_to_deadline(16, 12, seed),
                ScenarioConfig::websearch_sizes(16, 12, seed),
                ScenarioConfig::data_mining_sizes(16, 12, seed),
                ScenarioConfig::incast(16, 12, seed),
                ScenarioConfig::straggler(16, 12, seed),
                ScenarioConfig::diurnal_ramp(16, 12, seed),
            ]
        };
        for (a, b) in mk(21).iter().zip(mk(21).iter()) {
            let wa = a.generate().unwrap();
            let wb = b.generate().unwrap();
            assert_eq!(wa.num_flows(), wb.num_flows());
            for (x, y) in wa.flows.iter().zip(&wb.flows) {
                assert_eq!(x.size.to_bits(), y.size.to_bits());
                assert_eq!((x.src, x.dst), (y.src, y.dst));
                assert_eq!(x.deadline.to_bits(), y.deadline.to_bits());
            }
            for (x, y) in wa.tasks.iter().zip(&wb.tasks) {
                assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            }
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = web_search(32, 5, 11);
        let b = web_search(32, 5, 11);
        assert_eq!(a.num_flows(), b.num_flows());
        assert!(a
            .flows
            .iter()
            .zip(&b.flows)
            .all(|(x, y)| x.size == y.size && x.src == y.src));
    }
}
