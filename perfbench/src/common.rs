//! Shared pieces of every workload: metric records, the result line,
//! statistics, process accounting from `/proc`, oracle tables and the
//! metric-definition guards.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (artifacts, passes, requests).
    pub attempted: u64,
    /// Operations whose oracle failed: wrong bytes, non-2xx, transport
    /// error, broken invariant.
    pub failed: u64,
    /// Human-readable lines printed before the result line.
    pub report: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    /// Count one attempted operation, failing it (with a reason on
    /// stderr) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }
}

/// The last stdout line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        // `{}` on f64 prints the shortest text that reads back to the
        // same number, so every measured digit is kept.
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running 64-bit FNV-1a digest.
pub fn fnv_mix(digest: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// 64-bit FNV-1a of `bytes`: the digest recorded in the oracle tables.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut digest = FNV_OFFSET;
    fnv_mix(&mut digest, bytes);
    digest
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// User + system CPU time of process `pid` (all its threads, live and
/// exited), in ms. `/proc/<pid>/stat` counts in clock ticks, which are
/// 10 ms on Linux.
pub fn cpu_ms(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of stat(5), utime 14 and stime 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: no field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) * 10.0)
}

/// One oracle table: lines of `world key digest`, `#` comments.
pub struct Oracle {
    rows: Vec<(u64, String, String)>,
}

impl Oracle {
    pub fn parse(text: &str) -> Result<Oracle, String> {
        let mut rows = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let [world, key, digest] = parts[..] else {
                return Err(format!("oracle line {}: {line:?}", n + 1));
            };
            let world = world
                .parse()
                .map_err(|_| format!("oracle line {}: bad world {world:?}", n + 1))?;
            rows.push((world, key.to_string(), digest.to_string()));
        }
        Ok(Oracle { rows })
    }

    /// The recorded digest of `key` in `world`.
    pub fn get(&self, world: u64, key: &str) -> Option<&str> {
        self.rows
            .iter()
            .find(|(w, k, _)| *w == world && k == key)
            .map(|(_, _, d)| d.as_str())
    }

    /// Whether `world` has any recorded row.
    pub fn has_world(&self, world: u64) -> bool {
        self.rows.iter().any(|(w, _, _)| *w == world)
    }
}

/// How an end-to-end metric is computed: `num / den`, each a named
/// quantity of the run. Quantities a harness setting fixes (offered
/// rate, run length, unit count) are listed separately, so the guards
/// below can refuse a metric that only echoes them.
pub struct Derivation {
    pub metric: &'static str,
    pub num: &'static str,
    pub den: &'static str,
}

/// Guards carried over from the rejected first attempt at this
/// benchmark: no two end-to-end metrics of a workload may be
/// reciprocals (the same two quantities divided both ways), and no
/// metric may be made only of quantities a harness setting fixes.
pub fn check_derivations(defs: &[Derivation], harness_fixed: &[&str]) -> Result<(), String> {
    for (i, a) in defs.iter().enumerate() {
        let fixed = |q: &str| q == "1" || harness_fixed.contains(&q);
        if fixed(a.num) && fixed(a.den) {
            return Err(format!(
                "{} = {} / {} echoes harness settings",
                a.metric, a.num, a.den
            ));
        }
        for b in &defs[i + 1..] {
            if a.num == b.den && a.den == b.num {
                return Err(format!(
                    "{} and {} are reciprocals ({} / {})",
                    a.metric, b.metric, a.num, a.den
                ));
            }
        }
    }
    Ok(())
}

/// SplitMix64: the seeded stream behind every generated input.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5eed_da7a_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn guards_refuse_reciprocals_and_echoes() {
        let recip = [
            Derivation {
                metric: "wall_s",
                num: "wall",
                den: "units",
            },
            Derivation {
                metric: "ops_per_s",
                num: "units",
                den: "wall",
            },
        ];
        assert!(check_derivations(&recip, &[]).is_err());
        let echo = [Derivation {
            metric: "ops_per_s",
            num: "sent",
            den: "seconds",
        }];
        assert!(check_derivations(&echo, &["sent", "seconds"]).is_err());
        let fine = [
            Derivation {
                metric: "latency_ms",
                num: "wall",
                den: "units",
            },
            Derivation {
                metric: "cpu_ms",
                num: "cpu",
                den: "units",
            },
        ];
        assert!(check_derivations(&fine, &["units"]).is_ok());
    }

    #[test]
    fn oracle_rows_round_trip() {
        let o = Oracle::parse("# c\n2020 fig1 00ff\n\n7 digest ab\n").unwrap();
        assert_eq!(o.get(2020, "fig1"), Some("00ff"));
        assert_eq!(o.get(7, "digest"), Some("ab"));
        assert!(o.get(7, "fig1").is_none());
        assert!(Oracle::parse("2020 fig1").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics.push(Metric::new("latency_ms", 1.25, "ms"));
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
