//! CDN-derived artifacts: Figures 2, 3, 4 and 7.

use crate::atlas_exps::FIGURE_ASES;
use crate::context::CdnAnalysis;
use dynamips_core::association::figure3_boxes;
use dynamips_core::report::TextTable;
use dynamips_core::stats::cdf_at;
use dynamips_routing::Rir;

/// Figure 2: CDF of address-association durations for the featured ISPs.
pub fn fig2(c: &CdnAnalysis) -> String {
    let marks_days = [1.0, 7.0, 14.0, 30.0, 61.0, 91.0, 152.0];
    let mut t = TextTable::new(&["AS (runs)", "1d", "1w", "2w", "1m", "2m", "3m", "5m"]);
    for name in FIGURE_ASES {
        let Some(asn) = c.asn_by_name(name) else {
            continue;
        };
        let Some(days) = c.by_asn_days.get(&asn) else {
            continue;
        };
        let cdf = cdf_at(days, &marks_days);
        let mut row = vec![format!("{name} ({})", days.len())];
        row.extend(cdf.iter().map(|v| format!("{v:.2}")));
        t.row(&row);
    }
    format!(
        "Figure 2: CDF of IPv4-IPv6 address association durations for the\n\
         featured ISPs (CDN dataset; P(duration <= x)).\n\n{}",
        t.render()
    )
}

/// Figure 3: association-duration boxplots per registry, fixed vs mobile.
pub fn fig3(c: &CdnAnalysis) -> String {
    let boxes = figure3_boxes(&c.runs, |asn| c.rir_of(asn));
    let mut t = TextTable::new(&["group", "p5", "p25", "median", "p75", "p95", "n"]);
    for (label, stats) in boxes {
        match stats {
            Some(b) => t.row(&[
                label,
                format!("{:.0}", b.p5),
                format!("{:.0}", b.p25),
                format!("{:.0}", b.p50),
                format!("{:.0}", b.p75),
                format!("{:.0}", b.p95),
                b.n.to_string(),
            ]),
            None => t.row(&[
                label,
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]),
        };
    }
    format!(
        "Figure 3: address-association durations (days) by Internet registry\n\
         and access type. Boxes: quartiles; whiskers: 5th/95th percentiles.\n\n{}",
        t.render()
    )
}

/// Figure 4: distribution of IPv6 /64 associations per IPv4 /24.
pub fn fig4(c: &CdnAnalysis) -> String {
    let mut out = String::from(
        "Figure 4: number of associated IPv6 /64s per IPv4 /24 (log10 bins;\n\
         'unique' = density over /24s, 'weighted' = density weighted by\n\
         association volume).\n\n",
    );
    for (label, stats) in [("Mobile", &c.mobile_degree), ("Fixed", &c.fixed_degree)] {
        let (edges, unique) = stats.unique_density(6, 2);
        let (_, weighted) = stats.weighted_density(6, 2);
        out.push_str(&format!(
            "--- {label} /24 degree ({} /24s; weighted peak near {}) ---\n",
            stats.unique_p64_per_v24.len(),
            stats
                .weighted_peak(6, 2)
                .map(|p| format!("{p:.0} /64s per /24"))
                .unwrap_or_else(|| "n/a".into()),
        ));
        let mut t = TextTable::new(&["degree <=", "unique", "weighted"]);
        for (i, edge) in edges.iter().enumerate() {
            if unique[i] == 0.0 && weighted[i] == 0.0 {
                continue;
            }
            t.row(&[
                format!("{edge:.0}"),
                format!("{:.3}", unique[i]),
                format!("{:.3}", weighted[i]),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "fraction of /64s with a single associated /24: {:.2}\n\n",
            stats.p64_degree_one_fraction
        ));
    }
    out
}

/// Figure 7: trailing-zero frequencies used to infer delegated prefix
/// lengths, per registry (unique fixed /64s).
pub fn fig7(c: &CdnAnalysis) -> String {
    let mut t = TextTable::new(&["registry", "/48", "/52", "/56", "/60", "inferable"]);
    for rir in Rir::ALL {
        let Some(counter) = c.nibble_by_rir.get(&rir) else {
            continue;
        };
        let f = counter.fractions();
        t.row(&[
            rir.label().to_string(),
            format!("{:.2}", f[0]),
            format!("{:.2}", f[1]),
            format!("{:.2}", f[2]),
            format!("{:.2}", f[3]),
            format!("{:.1}%", 100.0 * counter.inferable_fraction()),
        ]);
    }
    format!(
        "Figure 7: fraction of observed fixed-line /64 prefixes with trailing\n\
         zeros at each nibble boundary, by registry. ('inferable' = any\n\
         boundary; the paper reports ARIN 59.0%, RIPENCC 78.8%, APNIC 54.5%,\n\
         LACNIC 15.1%, AFRINIC 83.1%.)\n\n{}\n\
         Mobile /64s inferable: {:.1}% (paper: no consistent trailing zeros).\n",
        t.render(),
        100.0 * c.mobile_nibble.inferable_fraction()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentConfig;

    #[test]
    fn all_cdn_artifacts_render() {
        let c = CdnAnalysis::compute(&ExperimentConfig::small(7));
        for text in [fig2(&c), fig3(&c), fig4(&c), fig7(&c)] {
            assert!(!text.is_empty());
        }
        let f3 = fig3(&c);
        assert!(f3.contains("ALL-fixed"));
        assert!(f3.contains("ALL-mobile"));
        let f7 = fig7(&c);
        for rir in ["ARIN", "RIPENCC", "APNIC", "LACNIC", "AFRINIC"] {
            assert!(f7.contains(rir), "missing {rir}:\n{f7}");
        }
    }
}
