//! In-text quantitative claims (experiment C1 in DESIGN.md).
//!
//! The paper makes several load-bearing numeric claims outside its tables
//! and figures; this module recomputes each from the simulated datasets and
//! prints paper-vs-measured.

use crate::context::{AtlasAnalysis, CdnAnalysis};
use dynamips_core::report::TextTable;
use dynamips_core::stats::quantile;

/// A single claim check.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier.
    pub id: &'static str,
    /// What the paper says.
    pub paper: String,
    /// What we measure.
    pub measured: String,
}

/// Compute every claim from both analyses.
pub fn compute_claims(a: &AtlasAnalysis, c: &CdnAnalysis) -> Vec<Claim> {
    let mut claims = Vec::new();

    // DTAG simultaneity.
    if let Some((_, dtag)) = a.by_name("DTAG") {
        claims.push(Claim {
            id: "dtag-simultaneity",
            paper: "90.6% of DTAG dual-stack changes are same-hour".into(),
            measured: format!(
                "{:.1}% of DTAG dual-stack v4 changes co-occur with a v6 change",
                100.0 * dtag.cooccurrence.simultaneity()
            ),
        });
    }
    if let Some((_, comcast)) = a.by_name("Comcast") {
        claims.push(Claim {
            id: "comcast-non-cooccurrence",
            paper: "most Comcast v4/v6 changes did not co-occur".into(),
            measured: format!(
                "{:.1}% of Comcast dual-stack v4 changes co-occur",
                100.0 * comcast.cooccurrence.simultaneity()
            ),
        });
    }

    // Periodic renumbering.
    let v4_periodic = a.periodic_v4_ases();
    let v6_periodic = a.periodic_v6_ases();
    claims.push(Claim {
        id: "periodic-v4",
        paper: "consistent periodic renumbering on 35 networks (non-dual-stack v4)".into(),
        measured: format!(
            "{} simulated networks with a detected v4 period: {}",
            v4_periodic.len(),
            v4_periodic
                .iter()
                .map(|(asn, p)| format!("{asn}@{p}h"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    });
    claims.push(Claim {
        id: "periodic-v6",
        paper: "24h IPv6 renumbering in German ISPs; 12h in ANTEL; 48h in Global Village".into(),
        measured: format!(
            "{} networks with a detected v6 period: {}",
            v6_periodic.len(),
            v6_periodic
                .iter()
                .map(|(asn, p)| format!("{asn}@{p}h"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    });

    // CDN: fixed vs mobile.
    let fixed_days: Vec<f64> = c
        .runs
        .iter()
        .filter(|r| !r.mobile)
        .map(|r| r.days as f64)
        .collect();
    let mobile_days: Vec<f64> = c
        .runs
        .iter()
        .filter(|r| r.mobile)
        .map(|r| r.days as f64)
        .collect();
    let fixed_median = quantile(&fixed_days, 0.5).unwrap_or(0.0);
    let mobile_median = quantile(&mobile_days, 0.5).unwrap_or(0.0);
    claims.push(Claim {
        id: "fixed-median-61d",
        paper: "median fixed association duration is 61 days".into(),
        measured: format!("fixed median: {fixed_median:.0} days"),
    });
    claims.push(Claim {
        id: "mobile-75pct-1d",
        paper: "75% of mobile associations last one day or less".into(),
        measured: format!(
            "{:.0}% of mobile associations last <= 1 day",
            100.0 * mobile_days.iter().filter(|&&d| d <= 1.0).count() as f64
                / mobile_days.len().max(1) as f64
        ),
    });
    claims.push(Claim {
        id: "fixed-60x-mobile",
        paper: "fixed associations last 60x longer at median".into(),
        measured: format!(
            "fixed/mobile median ratio: {:.0}x",
            fixed_median / mobile_median.max(1.0)
        ),
    });
    claims.push(Claim {
        id: "mobile-p64-share",
        paper: "65.7% of unique /64 prefixes come from cellular access".into(),
        measured: format!(
            "{:.1}% of unique /64s are cellular",
            100.0 * c.mobile_p64_fraction
        ),
    });
    claims.push(Claim {
        id: "p64-degree-one",
        paper: "87% of unique mobile /64s have a connectivity degree of one".into(),
        measured: format!(
            "{:.0}% of mobile /64s associate with a single /24",
            100.0 * c.mobile_degree.p64_degree_one_fraction
        ),
    });

    // Orange trailing zeros.
    claims.push(Claim {
        id: "orange-trailing-zeros",
        paper: "Orange: 99.7% of /64s have the last 8 bits zero".into(),
        measured: a
            .by_name("Orange")
            .map(|(_, s)| {
                let zeroed = s.inferred.counts[..=56].iter().sum::<u64>();
                format!(
                    "{:.1}% of Orange probes infer <= /56 (zero-out CPEs)",
                    100.0 * zeroed as f64 / s.inferred.total().max(1) as f64
                )
            })
            .unwrap_or_else(|| "Orange not present".into()),
    });

    // AS-mismatch filtering accounting (32.7B -> 31.6B in the paper).
    claims.push(Claim {
        id: "as-mismatch-filter",
        paper: "filtering kept 31.6B of 32.7B associations (96.6%)".into(),
        measured: format!(
            "kept {} of {} raw associations ({:.1}%); discarded {} as-mismatch + {} unrouted",
            c.kept_count,
            c.raw_count,
            100.0 * c.kept_count as f64 / c.raw_count.max(1) as f64,
            c.discarded_as_mismatch,
            c.discarded_unrouted
        ),
    });

    claims
}

/// Render the claim table.
pub fn render(a: &AtlasAnalysis, c: &CdnAnalysis) -> String {
    let mut t = TextTable::new(&["claim", "paper", "measured"]);
    for claim in compute_claims(a, c) {
        t.row(&[claim.id.to_string(), claim.paper, claim.measured]);
    }
    format!("In-text claims, paper vs measured:\n\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentConfig;

    #[test]
    fn claims_compute_and_render() {
        let cfg = ExperimentConfig::small(11);
        let a = AtlasAnalysis::compute(&cfg);
        let c = CdnAnalysis::compute(&cfg);
        let claims = compute_claims(&a, &c);
        assert!(claims.len() >= 9);
        let ids: Vec<&str> = claims.iter().map(|c| c.id).collect();
        assert!(ids.contains(&"dtag-simultaneity"));
        assert!(ids.contains(&"mobile-p64-share"));
        let text = render(&a, &c);
        assert!(text.contains("paper"));
    }
}
