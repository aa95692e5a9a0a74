//! Microbenchmarks for the core data structures and analysis kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dynamips_core::changes::{sandwiched_durations, spans_of};
use dynamips_core::durations::{detect_period, DurationSet};
use dynamips_netaddr::{
    common_prefix_len_v6, nibble_boundary_class, trailing_zero_bits_v6, Ipv4Prefix, Ipv4Trie,
    Ipv6Prefix, Ipv6Trie,
};
use dynamips_netsim::rngutil::derive_rng;
use dynamips_netsim::SimTime;
use rand::Rng;
use std::hint::black_box;
use std::net::{Ipv4Addr, Ipv6Addr};

fn trie_benches(c: &mut Criterion) {
    let mut rng = derive_rng(1, 0);
    // A routing-table-like v4 trie: 10k prefixes of mixed lengths.
    let mut v4 = Ipv4Trie::new();
    for _ in 0..10_000 {
        let bits: u32 = rng.gen();
        let len = rng.gen_range(8..=24);
        v4.insert(
            Ipv4Prefix::new_truncated(Ipv4Addr::from(bits), len).unwrap(),
            rng.gen::<u32>(),
        );
    }
    let mut v6 = Ipv6Trie::new();
    for _ in 0..10_000 {
        let bits: u128 = rng.gen();
        let len = rng.gen_range(19..=48);
        v6.insert(
            Ipv6Prefix::new_truncated(Ipv6Addr::from(bits), len).unwrap(),
            rng.gen::<u32>(),
        );
    }
    let v4_queries: Vec<Ipv4Addr> = (0..1000)
        .map(|_| Ipv4Addr::from(rng.gen::<u32>()))
        .collect();
    let v6_queries: Vec<Ipv6Prefix> = (0..1000)
        .map(|_| Ipv6Prefix::slash64_of(Ipv6Addr::from(rng.gen::<u128>())))
        .collect();

    let mut g = c.benchmark_group("trie");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("v4_lpm_1k_lookups", |b| {
        b.iter(|| {
            for q in &v4_queries {
                black_box(v4.lookup(*q));
            }
        })
    });
    g.bench_function("v6_lpm_1k_prefix_lookups", |b| {
        b.iter(|| {
            for q in &v6_queries {
                black_box(v6.lookup_prefix(q));
            }
        })
    });
    g.finish();
}

fn prefix_math(c: &mut Criterion) {
    let mut rng = derive_rng(2, 0);
    let prefixes: Vec<Ipv6Prefix> = (0..1000)
        .map(|_| Ipv6Prefix::slash64_of(Ipv6Addr::from(rng.gen::<u128>())))
        .collect();
    let mut g = c.benchmark_group("prefix_math");
    g.throughput(Throughput::Elements(999));
    g.bench_function("cpl_chain", |b| {
        b.iter(|| {
            for pair in prefixes.windows(2) {
                black_box(common_prefix_len_v6(&pair[0], &pair[1]));
            }
        })
    });
    g.throughput(Throughput::Elements(1000));
    g.bench_function("trailing_zeros", |b| {
        b.iter(|| {
            for p in &prefixes {
                black_box(trailing_zero_bits_v6(p));
            }
        })
    });
    g.bench_function("nibble_class", |b| {
        b.iter(|| {
            for p in &prefixes {
                black_box(nibble_boundary_class(p));
            }
        })
    });
    g.finish();
}

fn analysis_kernels(c: &mut Criterion) {
    let mut rng = derive_rng(3, 0);
    // A year of hourly observations with daily changes.
    let obs: Vec<(SimTime, u32)> = (0..(365 * 24))
        .map(|h| (SimTime(h), (h / 24) as u32))
        .collect();
    let mut set = DurationSet::new();
    for _ in 0..10_000 {
        set.push(rng.gen_range(20..28));
    }
    let mut g = c.benchmark_group("analysis");
    g.bench_function("spans_of_year_of_hours", |b| {
        b.iter(|| black_box(spans_of(obs.iter().copied())))
    });
    let spans = spans_of(obs.iter().copied());
    g.bench_function("sandwiched_durations", |b| {
        b.iter(|| black_box(sandwiched_durations(&spans)))
    });
    g.bench_function("detect_period_10k", |b| {
        b.iter(|| black_box(detect_period(&set, 0.05, 0.5)))
    });
    g.bench_function("cumulative_ttf_marks", |b| {
        b.iter(|| black_box(set.cumulative_ttf_marks()))
    });
    // The prefix-sum + partition_point form; the old per-threshold
    // rescan was O(T·N) over this same input.
    let weighted: Vec<(f64, f64)> = (0..10_000)
        .map(|_| {
            let v = rng.gen_range(1.0..2000.0f64);
            (v, v)
        })
        .collect();
    let thresholds: Vec<f64> = (0..200).map(|t| t as f64 * 10.0).collect();
    g.bench_function("weighted_cdf_10k_values_200_thresholds", |b| {
        b.iter(|| {
            black_box(dynamips_core::stats::weighted_cdf_at(
                &weighted,
                &thresholds,
            ))
        })
    });
    g.finish();
}

fn inference_kernels(c: &mut Criterion) {
    use dynamips_core::changes::{ProbeHistory, Span};
    use dynamips_core::poolinfer::infer_pool_boundary;
    use dynamips_core::subscriber::infer_subscriber_len_mode;
    use dynamips_core::targetgen::{sixgen_targets, NibbleModel};
    use dynamips_netaddr::Ipv6PrefixPool;

    let mut rng = derive_rng(4, 0);
    let pool = Ipv6PrefixPool::new("2001:db8:4000::/40".parse().unwrap(), 56).unwrap();
    let histories: Vec<ProbeHistory> = (0..100u32)
        .map(|i| ProbeHistory {
            probe: dynamips_atlas::ProbeId(i),
            virtual_index: 0,
            asn: dynamips_routing::Asn(64500),
            v4: vec![],
            v6: (0..200)
                .map(|k| Span {
                    value: pool
                        .prefix(rng.gen_range(0..pool.capacity()))
                        .unwrap()
                        .nth_subprefix(64, 0)
                        .unwrap(),
                    first: SimTime(k * 24),
                    last: SimTime(k * 24 + 23),
                })
                .collect(),
        })
        .collect();
    let refs: Vec<&ProbeHistory> = histories.iter().collect();
    let seeds: Vec<Ipv6Prefix> = histories
        .iter()
        .flat_map(|h| h.v6.iter().map(|s| s.value))
        .collect();

    let mut g = c.benchmark_group("inference");
    g.bench_function("pool_boundary_100_probes", |b| {
        b.iter(|| black_box(infer_pool_boundary(&refs, 16..=56, 4, 0.85)))
    });
    g.bench_function("subscriber_len_mode", |b| {
        b.iter(|| black_box(infer_subscriber_len_mode(refs.iter().copied())))
    });
    g.bench_function("entropy_model_train_20k_seeds", |b| {
        b.iter(|| black_box(NibbleModel::train(&seeds)))
    });
    let model = NibbleModel::train(&seeds).unwrap();
    g.bench_function("entropy_model_generate_4k", |b| {
        b.iter(|| black_box(model.generate(4096)))
    });
    g.bench_function("sixgen_20k_seeds_4k_targets", |b| {
        b.iter(|| black_box(sixgen_targets(&seeds, 44, 4096)))
    });
    g.finish();
}

criterion_group!(
    benches,
    trie_benches,
    prefix_math,
    analysis_kernels,
    inference_kernels
);
criterion_main!(benches);
