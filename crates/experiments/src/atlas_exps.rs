//! Atlas-derived artifacts: Tables 1–2, Figures 1, 5, 6, 8 and 9.

use crate::context::AtlasAnalysis;
use dynamips_core::durations::DurationSet;
use dynamips_core::report::{bar_chart, thousands, TextTable};
use dynamips_netsim::YEAR;

/// The ten ASes of Table 1, in the paper's row order.
pub const TABLE1_ASES: [&str; 10] = [
    "DTAG",
    "Comcast",
    "Orange",
    "LGI",
    "Free SAS",
    "Kabel DE",
    "Proximus",
    "Versatel",
    "BT",
    "Netcologne",
];

/// The six ASes featured in Figures 1, 2 and 5.
pub const FIGURE_ASES: [&str; 6] = ["DTAG", "Orange", "Comcast", "LGI", "BT", "Proximus"];

/// The ASes of Figure 6 (Table-1 networks plus Sky UK).
pub const FIG6_ASES: [&str; 11] = [
    "DTAG",
    "Orange",
    "LGI",
    "Comcast",
    "Versatel",
    "Free SAS",
    "Kabel DE",
    "Netcologne",
    "BT",
    "Sky U.K.",
    "Proximus",
];

/// Table 1: per-AS probe counts and observed assignment changes.
pub fn table1(a: &AtlasAnalysis) -> String {
    let mut t = TextTable::new(&[
        "AS",
        "Country",
        "All probes",
        "All v4 changes",
        "DS probes",
        "DS v4 changes",
        "(%)",
        "v6 changes",
    ]);
    for name in TABLE1_ASES {
        let Some((_, s)) = a.by_name(name) else {
            continue;
        };
        let pct = if s.v4_changes_all > 0 {
            format!(
                "{:.0}%",
                100.0 * s.v4_changes_ds as f64 / s.v4_changes_all as f64
            )
        } else {
            "-".to_string()
        };
        t.row(&[
            name.to_string(),
            s.country.clone(),
            thousands(s.probes as u64),
            thousands(s.v4_changes_all),
            thousands(s.ds_probes as u64),
            thousands(s.v4_changes_ds),
            pct,
            thousands(s.v6_changes),
        ]);
    }
    format!(
        "Table 1: assignment changes observed in the simulated RIPE Atlas\n\
         \"IP echo\" dataset ({} clean probes after sanitization).\n\n{}",
        thousands(a.sanitize.probes_out as u64),
        t.render()
    )
}

/// Figure 1: cumulative total time fraction for IPv4 (non-dual-stack /
/// dual-stack) and IPv6 assignment durations in the six featured ASes.
pub fn fig1(a: &AtlasAnalysis) -> String {
    let mut out = String::new();
    for (title, pick) in [
        (
            "IPv4, non dual-stack",
            (|s: &crate::context::AsStats| &s.v4_durations_nds)
                as fn(&crate::context::AsStats) -> &DurationSet,
        ),
        ("IPv4, dual-stack", |s| &s.v4_durations_ds),
        ("IPv6", |s| &s.v6_durations),
    ] {
        out.push_str(&format!("--- {title} ---\n"));
        let mut t = TextTable::new(&[
            "AS (total yrs)",
            "1h",
            "6h",
            "12h",
            "1d",
            "3d",
            "1w",
            "2w",
            "1m",
            "3m",
            "6m",
            "1y",
            "4y",
        ]);
        for name in FIGURE_ASES {
            let Some((_, s)) = a.by_name(name) else {
                continue;
            };
            let set = pick(s);
            let years = set.total_hours() as f64 / YEAR as f64;
            let mut row = vec![format!("{name} ({years:.2})")];
            for (_, v) in set.cumulative_ttf_marks() {
                // Normalize IEEE negative zero for display.
                row.push(format!("{:.2}", if v == 0.0 { 0.0 } else { v }));
            }
            t.row(&row);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    format!(
        "Figure 1: cumulative total time fraction of assignment durations\n\
         (fraction of total assigned time spent in assignments lasting <= x).\n\n{out}"
    )
}

/// Figure 5: common prefix lengths between subsequent IPv6 /64 assignments.
pub fn fig5(a: &AtlasAnalysis) -> String {
    let mut out = String::from(
        "Figure 5: common prefix lengths (CPL) between subsequent IPv6 /64\n\
         assignments. 'changes' = assignment changes at that CPL,\n\
         'probes' = probes with at least one such change.\n\n",
    );
    for name in FIGURE_ASES {
        let Some((_, s)) = a.by_name(name) else {
            continue;
        };
        out.push_str(&format!(
            "--- {name} (total changes: {}) ---\n",
            thousands(s.cpl.total_changes())
        ));
        let mut t = TextTable::new(&["CPL", "changes", "probes"]);
        for cpl in 0..=64usize {
            if s.cpl.changes[cpl] == 0 {
                continue;
            }
            t.row(&[
                format!("/{cpl}"),
                thousands(s.cpl.changes[cpl]),
                thousands(s.cpl.probes[cpl]),
            ]);
        }
        if t.is_empty() {
            out.push_str("(no IPv6 assignment changes observed)\n\n");
        } else {
            out.push_str(&t.render());
            out.push('\n');
        }
    }
    out
}

/// Figure 6: inferred prefix lengths identifying a subscriber, per ISP.
pub fn fig6(a: &AtlasAnalysis) -> String {
    let mut out = String::from(
        "Figure 6: inferred prefix length identifying a subscriber\n\
         (percentage of probes inferring each length; probes with >= 1 IPv6\n\
         assignment change).\n\n",
    );
    let mut t = TextTable::new(&[
        "AS (probes)",
        "/47-",
        "/48",
        "/52",
        "/56",
        "/60",
        "/62",
        "/63",
        "/64",
    ]);
    for name in FIG6_ASES {
        let Some((_, s)) = a.by_name(name) else {
            continue;
        };
        if s.inferred.total() == 0 {
            continue;
        }
        let below48: f64 = (0..48).map(|l| s.inferred.percentage(l as u8)).sum();
        t.row(&[
            format!("{name} ({})", s.inferred.total()),
            format!("{below48:.0}%"),
            format!("{:.0}%", s.inferred.percentage(48)),
            format!("{:.0}%", s.inferred.percentage(52)),
            format!("{:.0}%", s.inferred.percentage(56)),
            format!("{:.0}%", s.inferred.percentage(60)),
            format!("{:.0}%", s.inferred.percentage(62)),
            format!("{:.0}%", s.inferred.percentage(63)),
            format!("{:.0}%", s.inferred.percentage(64)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Figure 8: CDF of unique prefixes of various lengths observed per probe.
pub fn fig8(a: &AtlasAnalysis) -> String {
    let mut out = String::from(
        "Figure 8: unique prefixes of each length observed per probe\n\
         (median count, and fraction of probes seeing <= 5), per AS.\n\n",
    );
    for name in FIGURE_ASES {
        let Some((_, s)) = a.by_name(name) else {
            continue;
        };
        if s.pools.probes() == 0 {
            continue;
        }
        out.push_str(&format!("--- {name} ({} probes) ---\n", s.pools.probes()));
        let mut t = TextTable::new(&["prefix length", "median unique", "P(<=5 unique)"]);
        for (i, len) in dynamips_core::pools::POOL_LENGTHS.iter().enumerate() {
            t.row(&[
                format!("/{len}"),
                format!("{:.1}", s.pools.median(i)),
                format!("{:.2}", s.pools.cdf_at(i, 5)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 9: inferred subscriber prefix lengths over all probes.
pub fn fig9(a: &AtlasAnalysis) -> String {
    let items: Vec<(String, f64)> = (40..=64u8)
        .filter(|&l| a.global_inferred.percentage(l) > 0.05)
        .map(|l| (format!("/{l}"), a.global_inferred.percentage(l)))
        .collect();
    format!(
        "Figure 9: inferred prefix lengths identifying a subscriber, all\n\
         probes with >= 1 IPv6 assignment change ({} probes).\n\n{}",
        a.global_inferred.total(),
        bar_chart(&items, 50)
    )
}

/// Table 2: percentage of assignment changes crossing /24 and BGP prefixes.
pub fn table2(a: &AtlasAnalysis) -> String {
    let mut t = TextTable::new(&["AS", "Diff /24", "Diff BGP (v4)", "Diff BGP (v6)"]);
    for name in TABLE1_ASES {
        let Some((_, s)) = a.by_name(name) else {
            continue;
        };
        t.row(&[
            name.to_string(),
            format!("{:.0}%", s.crossing.pct_v4_diff_slash24()),
            format!("{:.0}%", s.crossing.pct_v4_diff_bgp()),
            format!("{:.0}%", s.crossing.pct_v6_diff_bgp()),
        ]);
    }
    format!(
        "Table 2: percentage of changes in assignments across /24 blocks\n\
         and routed BGP prefixes.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentConfig;

    fn analysis() -> AtlasAnalysis {
        AtlasAnalysis::compute(&ExperimentConfig::small(7))
    }

    #[test]
    fn all_atlas_artifacts_render() {
        let a = analysis();
        for text in [
            table1(&a),
            fig1(&a),
            fig5(&a),
            fig6(&a),
            fig8(&a),
            fig9(&a),
            table2(&a),
        ] {
            assert!(!text.is_empty());
        }
        // Table 1 includes every named AS row.
        let t1 = table1(&a);
        for name in TABLE1_ASES {
            assert!(t1.contains(name), "missing {name} in table 1:\n{t1}");
        }
        let t2 = table2(&a);
        assert!(t2.contains('%'));
    }
}
