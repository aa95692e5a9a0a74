//! Property-based tests for the analysis pipeline's invariants.

use dynamips_core::anonymize::audit_truncation;
use dynamips_core::changes::{change_count, sandwiched_durations, spans_of};
use dynamips_core::durations::DurationSet;
use dynamips_core::stats::{cdf_at, quantile, weighted_cdf_at, BoxStats};
use dynamips_netaddr::Ipv6Prefix;
use dynamips_netsim::SimTime;
use proptest::prelude::*;
use std::net::Ipv6Addr;

fn arb_observations() -> impl Strategy<Value = Vec<(SimTime, u8)>> {
    // Time-ordered observations of a small value domain, with gaps.
    proptest::collection::vec((1u64..5, 0u8..6), 1..200).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(dt, v)| {
                t += dt;
                (SimTime(t), v)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn spans_partition_the_observations(obs in arb_observations()) {
        let spans = spans_of(obs.iter().copied());
        // Every observation falls into exactly one span with its value.
        for (t, v) in &obs {
            let covering: Vec<_> = spans
                .iter()
                .filter(|s| s.first <= *t && *t <= s.last && s.value == *v)
                .collect();
            prop_assert!(!covering.is_empty(), "observation not covered");
        }
        // Spans are ordered, non-overlapping, and adjacent spans differ.
        for w in spans.windows(2) {
            prop_assert!(w[0].last < w[1].first);
            prop_assert_ne!(w[0].value, w[1].value);
        }
        prop_assert_eq!(change_count(&spans), spans.len().saturating_sub(1));
    }

    #[test]
    fn sandwiched_durations_are_bounded(obs in arb_observations()) {
        let spans = spans_of(obs.iter().copied());
        let durations = sandwiched_durations(&spans);
        if spans.len() >= 3 {
            prop_assert_eq!(durations.len(), spans.len() - 2);
        } else {
            prop_assert!(durations.is_empty());
        }
        let total = obs.last().unwrap().0 - obs.first().unwrap().0;
        for d in &durations {
            prop_assert!(*d >= 1);
            prop_assert!(*d <= total);
        }
        // The sum of interior durations cannot exceed the observed span.
        prop_assert!(durations.iter().sum::<u64>() <= total);
    }

    #[test]
    fn ttf_fractions_sum_to_one(durations in proptest::collection::vec(1u64..5000, 1..300)) {
        let mut set = DurationSet::new();
        set.extend(durations.iter().copied());
        let mut distinct = durations.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let sum: f64 = distinct.iter().map(|&d| set.total_time_fraction(d)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "{sum}");
        // Cumulative TTF at the maximum is exactly 1.
        let max = *distinct.last().unwrap();
        let c = set.cumulative_ttf_at(&[max]);
        prop_assert!((c[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_ttf_is_monotone(durations in proptest::collection::vec(1u64..5000, 1..300)) {
        let mut set = DurationSet::new();
        set.extend(durations);
        let marks: Vec<u64> = (0..20).map(|i| 1 + i * 251).collect();
        let c = set.cumulative_ttf_at(&marks);
        for w in c.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        for v in &c {
            prop_assert!((0.0..=1.0 + 1e-12).contains(v));
        }
    }

    #[test]
    fn quantile_is_monotone_and_bounded(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = quantile(&values, i as f64 / 10.0).unwrap();
            prop_assert!(q >= lo - 1e-9 && q <= hi + 1e-9);
            prop_assert!(q >= prev - 1e-9, "quantiles must be monotone");
            prev = q;
        }
        let b = BoxStats::from_values(&values).unwrap();
        prop_assert!(b.p5 <= b.p25 + 1e-9 && b.p25 <= b.p50 + 1e-9);
        prop_assert!(b.p50 <= b.p75 + 1e-9 && b.p75 <= b.p95 + 1e-9);
    }

    #[test]
    fn cdf_agrees_with_direct_counting(
        values in proptest::collection::vec(0f64..1000.0, 1..200),
        threshold in 0f64..1000.0,
    ) {
        let c = cdf_at(&values, &[threshold]);
        let direct = values.iter().filter(|&&v| v <= threshold).count() as f64
            / values.len() as f64;
        prop_assert!((c[0] - direct).abs() < 1e-12);
    }

    #[test]
    fn weighted_cdf_equals_unweighted_for_unit_weights(
        values in proptest::collection::vec(0f64..1000.0, 1..100),
        threshold in 0f64..1000.0,
    ) {
        let weighted: Vec<(f64, f64)> = values.iter().map(|&v| (v, 1.0)).collect();
        let a = weighted_cdf_at(&weighted, &[threshold]);
        let b = cdf_at(&values, &[threshold]);
        prop_assert!((a[0] - b[0]).abs() < 1e-9);
    }

    #[test]
    fn truncation_k_min_grows_as_length_shrinks(
        subs in proptest::collection::vec((0u32..40, 0u16..1024), 1..120),
    ) {
        // Arbitrary subscriber -> /64 observations inside one /44.
        let obs: Vec<(u32, Ipv6Prefix)> = subs
            .iter()
            .map(|(sub, slot)| {
                let bits = (0x2001_0db8_0000_0000u64 | (*slot as u64)) as u128;
                let p64 = Ipv6Prefix::slash64_of(Ipv6Addr::from(bits << 64));
                (*sub, p64)
            })
            .collect();
        let mut prev_k_min = 0usize;
        for len in [64u8, 60, 56, 52, 48, 44] {
            let s = audit_truncation(&obs, len).unwrap();
            prop_assert!(
                s.k_min >= prev_k_min,
                "k_min must not shrink when buckets merge (len {len})"
            );
            prev_k_min = s.k_min;
        }
        // At /44 everything is one bucket holding every subscriber.
        let all = audit_truncation(&obs, 44).unwrap();
        #[allow(clippy::disallowed_types, reason = "test: cardinality only")]
        let distinct: std::collections::HashSet<u32> = subs.iter().map(|(s, _)| *s).collect();
        prop_assert_eq!(all.buckets, 1);
        prop_assert_eq!(all.k_min, distinct.len());
    }
}
