//! The one conversion between continuous time and slot indices.
//!
//! TAPS grants *slot indices*; everything around the scheduler speaks
//! seconds. [`Clock`] owns every rule that crosses that boundary, so the
//! engine, the validator, the oracle, the flowsim adapter and the SDN
//! controller round a time the same way.
//!
//! The rules are tolerant, not exact. A deadline of `0.3` s with
//! `0.1` s slots means "by the end of slot 2", but `0.3 / 0.1` is
//! `2.9999999999999996` in `f64`: neither value is representable, and
//! exact arithmetic on the two nearest doubles puts the deadline just
//! before boundary 3. The same holds for 489 of the deadlines
//! `k · 1e-4` (`k` in `1..=1000`) at the default 0.1 ms slot. So every
//! rule rounds a time within 1e-9 of a boundary onto that boundary: the
//! slot rules measure the tolerance in slots ([`SLOT_TOL`]), the on-time
//! rule in seconds ([`TIME_TOL`]). The unit tests check each method
//! against the expression it replaced and against exact rational
//! arithmetic, and list where the two differ.

/// Tolerance of the slot-unit rules ([`Clock::slot_at`],
/// [`Clock::slot_of`], [`Clock::slots_for`]), in slots.
const SLOT_TOL: f64 = 1e-9;

/// Tolerance of the on-time rule ([`Clock::reached`],
/// [`Clock::boundary_by`]), in seconds.
const TIME_TOL: f64 = 1e-9;

/// A slot length, and every rule that converts between seconds and slot
/// indices at that length. Slot `s` covers `[start(s), start(s + 1))`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Clock {
    slot: f64,
}

impl Clock {
    /// The clock of `slot`-second slots.
    #[inline]
    pub const fn new(slot: f64) -> Self {
        Clock { slot }
    }

    /// The slot length, seconds.
    #[inline]
    pub fn slot(self) -> f64 {
        self.slot
    }

    /// Seconds at which slot `s` starts (boundary `s`).
    #[inline]
    pub fn start(self, s: u64) -> f64 {
        slots::to_f64(s) * self.slot
    }

    /// The first slot starting at or after `t`: `⌈t/slot − 1e-9⌉`,
    /// 0 for negative `t`.
    #[inline]
    pub fn slot_at(self, t: f64) -> u64 {
        slots::from_f64_ceil((t / self.slot) - SLOT_TOL)
    }

    /// The slot containing `t`: `⌊t/slot + 1e-9⌋`, 0 for negative `t`.
    #[inline]
    pub fn slot_of(self, t: f64) -> u64 {
        slots::from_f64_floor((t / self.slot) + SLOT_TOL)
    }

    /// Whether boundary `c` is reached by time `t`:
    /// `start(c) ≤ t + 1e-9`. A flow whose completion slot is `c` is on
    /// time for deadline `t` exactly when this holds.
    #[inline]
    pub fn reached(self, c: u64, t: f64) -> bool {
        self.start(c) <= t + TIME_TOL
    }

    /// The last boundary reached by `t`: the largest `c` with
    /// [`reached(c, t)`](Self::reached), or 0 when not even boundary 0 is
    /// (`t < −1e-9`). `reached(c, t)` holds exactly for `c ≤
    /// boundary_by(t)`, because `start` is monotone in `c`.
    pub fn boundary_by(self, t: f64) -> u64 {
        let mut c = slots::from_f64_floor((t + TIME_TOL) / self.slot);
        while self.reached(c + 1, t) {
            c += 1;
        }
        while c > 0 && !self.reached(c, t) {
            c -= 1;
        }
        c
    }

    /// Slots a transfer of `bytes` needs at `bottleneck` bytes/s:
    /// `⌈bytes/(bottleneck·slot) − 1e-9⌉`, at least 1.
    #[inline]
    pub fn slots_for(self, bytes: f64, bottleneck: f64) -> u64 {
        let per_slot = bottleneck * self.slot;
        slots::from_f64_ceil((bytes / per_slot) - SLOT_TOL).max(1)
    }
}

/// Checked conversions between `f64` and slot indices.
///
/// Slot indices live in `u64`, but every schedule quantity that crosses
/// into continuous time goes through `f64`, which represents integers
/// exactly only up to 2^53. These helpers are the only `as` casts
/// between the two (lint L2), and [`Clock`] is their only caller.
mod slots {
    /// Largest slot index `f64` represents exactly (2^53). Schedules a
    /// few thousand slots long never get close; the asserts below turn a
    /// silent precision loss into a loud failure if that ever changes.
    const MAX_EXACT: u64 = 1 << 53;

    /// Rounds `x` up to a slot count. Negative inputs clamp to 0.
    ///
    /// Panics on NaN/infinite input or values past [`MAX_EXACT`] — both
    /// indicate corrupt schedule arithmetic upstream.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "MAX_EXACT = 2^53 is exactly representable in f64; checked: finite, clamped to [0, 2^53]"
    )]
    pub(super) fn from_f64_ceil(x: f64) -> u64 {
        assert!(x.is_finite(), "slot count from non-finite value {x}");
        let c = x.ceil().max(0.0);
        assert!(c <= MAX_EXACT as f64, "slot count {c} exceeds 2^53");
        c as u64
    }

    /// Rounds `x` down to a slot count. Negative inputs clamp to 0.
    ///
    /// Panics on NaN/infinite input or values past [`MAX_EXACT`].
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "MAX_EXACT = 2^53 is exactly representable in f64; checked: finite, clamped to [0, 2^53]"
    )]
    pub(super) fn from_f64_floor(x: f64) -> u64 {
        assert!(x.is_finite(), "slot count from non-finite value {x}");
        let f = x.floor().max(0.0);
        assert!(f <= MAX_EXACT as f64, "slot count {f} exceeds 2^53");
        f as u64
    }

    /// Converts a slot index to `f64` exactly.
    ///
    /// Panics past [`MAX_EXACT`], where the conversion would round.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "checked: <= 2^53, exactly representable"
    )]
    pub(super) fn to_f64(slots: u64) -> f64 {
        assert!(slots <= MAX_EXACT, "slot index {slots} exceeds 2^53");
        slots as f64
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn ceil_floor_round_and_clamp() {
            assert_eq!(from_f64_ceil(2.0001), 3);
            assert_eq!(from_f64_ceil(-1.5), 0);
            assert_eq!(from_f64_floor(2.999), 2);
            assert_eq!(from_f64_floor(-0.1), 0);
            assert_eq!(to_f64(7), 7.0);
        }

        #[test]
        #[should_panic(expected = "non-finite")]
        fn nan_input_panics() {
            from_f64_ceil(f64::NAN);
        }

        #[test]
        #[should_panic(expected = "exceeds 2^53")]
        fn oversized_slot_index_panics() {
            to_f64(MAX_EXACT + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Few cases under Miri, which interprets every float operation.
    const CASES: u32 = if cfg!(miri) { 8 } else { 2048 };

    /// The slot lengths the repo runs at, and the index of a random one.
    const SLOTS: [f64; 4] = [1e-4, 1e-3, 0.1, 1.0];

    /// Bottlenecks in bytes/s: 1, 10 and 100 Gb/s.
    const RATES: [f64; 3] = [1.25e8, 1.25e9, 1.25e10];

    fn pick(table: &[f64], i: usize, random: f64) -> f64 {
        table.get(i).copied().unwrap_or(random)
    }

    /// A value near `x`: one ulp below it (`how` 0), on it (1), one ulp
    /// above (2), `off` tolerances away, a tolerance being 1e-9 (3) or
    /// 1e-9 `unit`s (4) — inside the band where the tolerant rules act,
    /// and just outside it — or exactly one tolerance below (5, 6), where
    /// `t + 1e-9` or `t/unit + 1e-9` lands back on the boundary and `<`
    /// and `<=` part.
    fn near(x: f64, unit: f64, (how, off): (u8, f64)) -> f64 {
        match how {
            0 if x > 0.0 => f64::from_bits(x.to_bits() - 1),
            2 => f64::from_bits(x.to_bits() + 1),
            3 => x + off * 1e-9,
            4 => x + off * 1e-9 * unit,
            5 => x - 1e-9,
            6 => (x / unit - 1e-9) * unit,
            _ => x,
        }
    }

    // ---- the expressions the Clock replaced, kept verbatim ------------

    /// `AllocEngine::slot_at`.
    fn old_slot_at(slot: f64, t: f64) -> u64 {
        slots::from_f64_ceil((t / slot) - 1e-9)
    }

    /// flowsim `Taps::current_slot`.
    fn old_current_slot(slot: f64, now: f64) -> u64 {
        slots::from_f64_floor((now / slot) + 1e-9)
    }

    /// The on-time test of `AllocEngine::finish`, `oracle::naive_batch`
    /// and the validator, and (negated) flowsim's boundary test.
    fn old_on_time(slot: f64, completion_slot: u64, deadline: f64) -> bool {
        slots::to_f64(completion_slot) * slot <= deadline + 1e-9
    }

    /// `alloc::slots_for` and the validator's `required_slots`.
    fn old_slots_for(slot: f64, bytes: f64, bottleneck: f64) -> u64 {
        let per_slot = bottleneck * slot;
        slots::from_f64_ceil((bytes / per_slot) - 1e-9).max(1)
    }

    /// `FlowAlloc::completion_time`, `next_wake` and the grant trace.
    fn old_seconds(slot: f64, s: u64) -> f64 {
        slots::to_f64(s) * slot
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Every method computes exactly the expression it replaced, on
        /// exact products `k·slot`, one ulp either side, inside and just
        /// outside the tolerance band, and on random times (negative
        /// ones included).
        #[test]
        fn clock_computes_the_old_expressions(
            si in 0usize..5,
            rs in 1e-5f64..1.0,
            k in 0u64..200_000,
            nudge in (0u8..7, -3.0f64..3.0),
            random in (0u8..4, -1.0f64..1e3),
            bi in 0usize..4,
            rb in 1e6f64..1e11,
        ) {
            let slot = pick(&SLOTS, si, rs);
            let clock = Clock::new(slot);
            let t = if random.0 == 0 { random.1 } else { near(old_seconds(slot, k), slot, nudge) };
            prop_assert_eq!(clock.slot_at(t), old_slot_at(slot, t));
            prop_assert_eq!(clock.slot_of(t), old_current_slot(slot, t));
            prop_assert_eq!(clock.start(k).to_bits(), old_seconds(slot, k).to_bits());
            for c in [k.saturating_sub(1), k, k + 1] {
                prop_assert_eq!(clock.reached(c, t), old_on_time(slot, c, t));
            }
            // `boundary_by` is the largest `c` the old on-time test accepts.
            let b = clock.boundary_by(t);
            prop_assert!(!old_on_time(slot, b + 1, t));
            prop_assert!(old_on_time(slot, b, t) || (b == 0 && !old_on_time(slot, 0, t)));

            let rate = pick(&RATES, bi, rb);
            let bytes = if random.0 == 0 {
                random.1.abs() * rate * slot
            } else {
                near(slots::to_f64(k) * (rate * slot), rate * slot, nudge)
            };
            prop_assert_eq!(clock.slots_for(bytes, rate), old_slots_for(slot, bytes, rate));
        }

        /// Against exact rational arithmetic every rule is off by at most
        /// one, and only where the exact quotient lies within the
        /// tolerance (plus the division's own rounding) of an integer:
        /// the rounding the tolerance exists for.
        #[test]
        fn clock_differs_from_exact_only_inside_the_tolerance(
            si in 0usize..5,
            rs in 1e-4f64..1.0,
            k in 0u64..100_000,
            nudge in (0u8..7, -3.0f64..3.0),
            random in (0u8..4, 0.0f64..10.0),
            bi in 0usize..4,
            rb in 1e6f64..1e11,
        ) {
            let slot = pick(&SLOTS, si, rs);
            let clock = Clock::new(slot);
            let t = if random.0 == 0 { random.1 } else { near(old_seconds(slot, k), slot, nudge) };
            prop_assume!(t >= 0.0);
            let q = Exact::ratio(parts(t), parts(slot));
            // Rounding slack of `t / slot` in slots, plus the tolerance.
            let window = SLOT_TOL + q.approx() * f64::EPSILON * 2.0;

            let at = clock.slot_at(t);
            prop_assert!(at == q.ceil() || (at + 1 == q.ceil() && q.above_floor() <= window));
            let of = clock.slot_of(t);
            prop_assert!(of == q.floor() || (of == q.floor() + 1 && q.below_ceil() <= window));
            // The exact boundary rule is `floor(t / slot)`.
            let by = clock.boundary_by(t);
            let seconds = TIME_TOL / slot + q.approx() * f64::EPSILON * 2.0;
            prop_assert!(by == q.floor() || (by == q.floor() + 1 && q.below_ceil() <= seconds));

            let rate = pick(&RATES, bi, rb);
            let bytes = if random.0 == 0 {
                random.1 * rate * slot
            } else {
                near(slots::to_f64(k) * (rate * slot), rate * slot, nudge)
            };
            prop_assume!(bytes > 0.0);
            let (mr, er) = parts(rate);
            let (ms, es) = parts(slot);
            let e = Exact::ratio(parts(bytes), (mr * ms, er + es));
            let exact = e.ceil().max(1);
            let window = SLOT_TOL + e.approx() * f64::EPSILON * 4.0;
            let need = clock.slots_for(bytes, rate);
            prop_assert!(need == exact || (need + 1 == exact && e.above_floor() <= window));
        }
    }

    /// `x = m · 2^e` exactly, for finite `x ≥ 0`.
    fn parts(x: f64) -> (u128, i32) {
        assert!(x >= 0.0 && x.is_finite());
        let bits = x.to_bits();
        let frac = u128::from(bits & ((1 << 52) - 1));
        match i32::try_from(bits >> 52).unwrap() {
            0 => (frac, -1074),
            biased => (frac | (1 << 52), biased - 1075),
        }
    }

    /// The exact quotient of two non-negative dyadic rationals, as
    /// `floor` plus the remainder `rem / den`.
    struct Exact {
        floor: u128,
        rem: u128,
        den: u128,
    }

    impl Exact {
        /// `(mn · 2^en) / (md · 2^ed)` for `md > 0`.
        fn ratio((mn, en): (u128, i32), (md, ed): (u128, i32)) -> Exact {
            let shift = en - ed;
            let fits = |m: u128, by: i32| m.leading_zeros() > by.unsigned_abs();
            let (num, den) = if shift >= 0 {
                assert!(fits(mn, shift), "numerator overflows u128");
                (mn << shift, md)
            } else if fits(md, -shift) {
                (mn, md << -shift)
            } else {
                // The denominator dwarfs any numerator below 2^53.
                return Exact {
                    floor: 0,
                    rem: mn,
                    den: u128::MAX,
                };
            };
            Exact {
                floor: num / den,
                rem: num % den,
                den,
            }
        }

        fn floor(&self) -> u64 {
            u64::try_from(self.floor).unwrap()
        }

        fn ceil(&self) -> u64 {
            self.floor() + u64::from(self.rem != 0)
        }

        /// How far the quotient lies above its floor (0 when integral).
        fn above_floor(&self) -> f64 {
            self.rem as f64 / self.den as f64
        }

        /// How far the quotient lies below its ceiling (0 when integral).
        fn below_ceil(&self) -> f64 {
            if self.rem == 0 {
                0.0
            } else {
                (self.den - self.rem) as f64 / self.den as f64
            }
        }

        fn approx(&self) -> f64 {
            self.floor as f64 + self.above_floor()
        }
    }

    #[test]
    fn exact_ratio_is_exact() {
        let q = Exact::ratio(parts(6.0), parts(4.0));
        assert_eq!((q.floor(), q.ceil()), (1, 2));
        assert_eq!(q.above_floor(), 0.5);
        let q = Exact::ratio(parts(0.75), parts(0.25));
        assert_eq!((q.floor(), q.ceil(), q.rem), (3, 3, 0));
    }

    /// Where the tolerant rules differ from exact arithmetic on purpose:
    /// a deadline meant as a boundary, written as a decimal or as a
    /// product `k · slot`, whose double falls just short of it.
    #[test]
    fn the_tolerance_keeps_decimal_deadlines_on_their_boundary() {
        // 0.3 s with 0.1 s slots: boundary 3, though 0.3 / 0.1 < 3.
        let clock = Clock::new(0.1);
        assert_eq!(0.3 / 0.1, 2.9999999999999996);
        assert_eq!(Exact::ratio(parts(0.3), parts(0.1)).floor(), 2);
        assert_eq!(clock.boundary_by(0.3), 3);
        assert!(clock.reached(3, 0.3));
        assert_eq!(clock.slot_at(0.3), 3);
        assert_eq!(clock.slot_of(0.3), 3);

        // Deadlines k · 1e-4 at the default slot: exact arithmetic puts
        // 489 of the first 1 000 below boundary k, the untolerant
        // `floor(t / slot)` 68 (49, 59, 81, …), the Clock none.
        let clock = Clock::new(1e-4);
        let (mut exact_short, mut float_short) = (Vec::new(), Vec::new());
        for k in 1..=1000u64 {
            let t = clock.start(k);
            if Exact::ratio(parts(t), parts(1e-4)).floor() != k {
                exact_short.push(k);
            }
            if slots::from_f64_floor(t / 1e-4) != k {
                float_short.push(k);
            }
            assert_eq!(clock.boundary_by(t), k);
            assert_eq!(clock.slot_of(t), k);
            assert_eq!(clock.slot_at(t), k);
        }
        assert_eq!(exact_short.len(), 489);
        assert_eq!(float_short.len(), 68);
        assert_eq!(float_short[..3], [49, 59, 81]);
    }

    #[test]
    fn boundary_by_clamps_below_zero() {
        let clock = Clock::new(1e-4);
        assert_eq!(clock.boundary_by(-1.0), 0);
        assert!(!clock.reached(0, -1.0));
        assert_eq!(clock.boundary_by(-1e-10), 0);
        assert!(clock.reached(0, -1e-10));
    }
}
