//! Seeded fault injection for serialized TSV datasets.
//!
//! The DynamIPs loaders ingest flat TSV dumps (the IP-echo dataset of
//! `dynamips-atlas` and the association dataset of `dynamips-cdn`). Real
//! dumps of this shape arrive damaged in well-known ways: collection jobs
//! die mid-write, encodings get mangled in transit, fields are dropped or
//! doubled by buggy exporters, clocks skew, and concurrent writers
//! interleave. This crate reproduces those faults *deterministically*: a
//! seed and a per-line corruption rate produce the same damaged dump every
//! time, and every injected fault is tagged with ground truth so a harness
//! can verify that the lossy loaders quarantine exactly what was broken
//! and keep everything that was not.
//!
//! The operators are dataset-agnostic — they only assume TAB-separated
//! fields, an identifier in the first column, a timestamp-like multi-digit
//! integer column after it, and address-shaped fields — so the same
//! harness exercises both dataset formats.

// Panic-freedom: shipping code degrades instead of panicking (tests are
// exempt via clippy.toml), and library code renders to strings instead
// of printing. The shared levels come from the workspace `[lints]` table.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod net;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// One fault class the injector can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CorruptionOp {
    /// Replace the line with random printable garbage.
    GarbageLine,
    /// Sprinkle multi-byte mojibake (U+FFFD and friends) through the line.
    MojibakeLine,
    /// Remove one TAB-separated field.
    DropField,
    /// Insert a spurious extra field.
    ExtraField,
    /// Emit the line twice (duplicate record).
    DuplicateLine,
    /// Swap the line with its predecessor (out-of-order record).
    SwapLines,
    /// Mangle the timestamp-like column: a large forward skew or a
    /// non-parseable negative value, chosen at random.
    SkewTimestamp,
    /// Replace an address field with one of the other address family.
    MixedFamily,
    /// Replace the first column with an identifier stolen from an earlier
    /// line (probe-id / prefix collision; the line still parses).
    CollideId,
    /// Tear the line mid-write and splice in the tail of the previous line
    /// (interleaved partial write).
    TornWrite,
    /// Cut the whole file at a random point (truncated dump). Applied at
    /// most once, with the same per-line probability.
    TruncateFile,
}

/// The per-line operators, i.e. everything except [`CorruptionOp::TruncateFile`].
const LINE_OPS: [CorruptionOp; 10] = [
    CorruptionOp::GarbageLine,
    CorruptionOp::MojibakeLine,
    CorruptionOp::DropField,
    CorruptionOp::ExtraField,
    CorruptionOp::DuplicateLine,
    CorruptionOp::SwapLines,
    CorruptionOp::SkewTimestamp,
    CorruptionOp::MixedFamily,
    CorruptionOp::CollideId,
    CorruptionOp::TornWrite,
];

impl CorruptionOp {
    /// Every operator, in a stable order.
    pub fn all() -> &'static [CorruptionOp] {
        const ALL: [CorruptionOp; 11] = [
            CorruptionOp::GarbageLine,
            CorruptionOp::MojibakeLine,
            CorruptionOp::DropField,
            CorruptionOp::ExtraField,
            CorruptionOp::DuplicateLine,
            CorruptionOp::SwapLines,
            CorruptionOp::SkewTimestamp,
            CorruptionOp::MixedFamily,
            CorruptionOp::CollideId,
            CorruptionOp::TornWrite,
            CorruptionOp::TruncateFile,
        ];
        &ALL
    }

    /// Stable kebab-case label, for reports and degradation accounting.
    pub fn label(&self) -> &'static str {
        match self {
            CorruptionOp::GarbageLine => "garbage-line",
            CorruptionOp::MojibakeLine => "mojibake-line",
            CorruptionOp::DropField => "drop-field",
            CorruptionOp::ExtraField => "extra-field",
            CorruptionOp::DuplicateLine => "duplicate-line",
            CorruptionOp::SwapLines => "swap-lines",
            CorruptionOp::SkewTimestamp => "skew-timestamp",
            CorruptionOp::MixedFamily => "mixed-family",
            CorruptionOp::CollideId => "collide-id",
            CorruptionOp::TornWrite => "torn-write",
            CorruptionOp::TruncateFile => "truncate-file",
        }
    }

    /// Whether a lossy loader can still recover the affected record(s).
    /// `SwapLines` is repairable (loaders re-sort or are order-agnostic),
    /// `DuplicateLine` and `CollideId` keep parsing; the rest destroy at
    /// least part of the affected line.
    pub fn recoverable(&self) -> bool {
        matches!(
            self,
            CorruptionOp::DuplicateLine | CorruptionOp::SwapLines | CorruptionOp::CollideId
        )
    }
}

impl std::fmt::Display for CorruptionOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ground truth for one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppliedOp {
    /// 1-based line number *in the corrupted output* of the (first)
    /// affected line. For [`CorruptionOp::TruncateFile`] this is the first
    /// line torn or removed by the cut.
    pub line: usize,
    /// The fault applied there.
    pub op: CorruptionOp,
}

/// Ground-truth record of everything [`corrupt_tsv`] did to a dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionLog {
    /// Non-blank, non-comment input lines considered for corruption.
    pub lines_in: usize,
    /// Input lines emitted verbatim, in place, and not destroyed by a file
    /// truncation — the records a lossy loader must recover.
    pub clean_lines: usize,
    /// Every injected fault, in application order.
    pub applied: Vec<AppliedOp>,
}

impl CorruptionLog {
    /// Faults grouped by operator.
    pub fn counts(&self) -> BTreeMap<CorruptionOp, u64> {
        let mut m = BTreeMap::new();
        for a in &self.applied {
            *m.entry(a.op).or_insert(0) += 1;
        }
        m
    }

    /// Number of injected faults of one operator.
    pub fn count(&self, op: CorruptionOp) -> u64 {
        self.applied.iter().filter(|a| a.op == op).count() as u64
    }

    /// Total injected faults.
    pub fn total(&self) -> u64 {
        self.applied.len() as u64
    }

    /// Whether the dump came through untouched.
    pub fn is_identity(&self) -> bool {
        self.applied.is_empty()
    }

    /// Render the per-operator fault counts as an aligned table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{} faults over {} lines ({} left clean)",
            self.total(),
            self.lines_in,
            self.clean_lines
        );
        for (op, n) in self.counts() {
            let _ = writeln!(out, "  {:<16} {:>8}", op.label(), n);
        }
        out
    }
}

/// Scratch state threaded through per-line corruption. Untouched lines are
/// borrowed from the input — real dumps run to tens of millions of lines,
/// and at low rates almost every line passes through clean, so per-line
/// allocations would dominate the whole harness.
struct Corruptor<'a> {
    /// Emitted lines and whether each is a verbatim, in-place original.
    out: Vec<(Cow<'a, str>, bool)>,
    /// First-column values of previously emitted clean lines (collision
    /// donors), capped.
    seen_ids: Vec<&'a str>,
    /// The previous original content line (torn-write donor).
    prev_original: Option<&'a str>,
    log: CorruptionLog,
}

/// Maximum identifier pool for [`CorruptionOp::CollideId`].
const SEEN_ID_CAP: usize = 1024;

/// Deterministically corrupt a TSV dump.
///
/// Each non-blank, non-comment line is hit with probability `rate`
/// (`0.0..=1.0`) by one operator drawn uniformly from the per-line set;
/// afterwards the whole file is truncated with probability `rate`. Blank
/// lines and `#` comments pass through untouched. Returns the damaged text
/// plus a [`CorruptionLog`] tagging every fault with ground truth.
///
/// The same `(text, seed, rate)` triple always produces the same output.
///
/// # Panics
///
/// Panics if `rate` is not a probability (NaN or outside `0.0..=1.0`) —
/// the harness treats that as a usage error, not data corruption.
pub fn corrupt_tsv(text: &str, seed: u64, rate: f64) -> (String, CorruptionLog) {
    assert!(
        (0.0..=1.0).contains(&rate),
        "corruption rate must be in 0.0..=1.0, got {rate}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut c = Corruptor {
        out: Vec::new(),
        seen_ids: Vec::new(),
        prev_original: None,
        log: CorruptionLog::default(),
    };

    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            c.out.push((Cow::Borrowed(line), false));
            continue;
        }
        c.log.lines_in += 1;
        if rate > 0.0 && rng.gen_bool(rate) {
            let op = LINE_OPS[rng.gen_range(0..LINE_OPS.len())];
            apply_line_op(&mut c, &mut rng, line, op);
        } else {
            emit_clean(&mut c, line);
        }
        c.prev_original = Some(line);
    }

    if c.log.lines_in >= 2 && rate > 0.0 && rng.gen_bool(rate) {
        truncate_file(&mut c, &mut rng);
    }

    c.log.clean_lines = c.out.iter().filter(|(_, clean)| *clean).count();
    let mut text_out = String::with_capacity(text.len() + 64);
    for (l, _) in &c.out {
        text_out.push_str(l);
        text_out.push('\n');
    }
    (text_out, c.log)
}

/// Emit `line` untouched and remember its identifier for collisions.
fn emit_clean<'a>(c: &mut Corruptor<'a>, line: &'a str) {
    if c.seen_ids.len() < SEEN_ID_CAP {
        if let Some(id) = line.split('\t').next() {
            c.seen_ids.push(id);
        }
    }
    c.out.push((Cow::Borrowed(line), true));
}

fn apply_line_op<'a>(c: &mut Corruptor<'a>, rng: &mut SmallRng, line: &'a str, op: CorruptionOp) {
    let tag = |c: &mut Corruptor, op| {
        let line = c.out.len(); // 1-based: the slot about to be filled
        c.log.applied.push(AppliedOp { line: line + 1, op });
    };
    match op {
        CorruptionOp::GarbageLine => {
            tag(c, op);
            let n = rng.gen_range(1..40);
            let garbage: String = (0..n)
                .map(|_| {
                    let b = rng.gen_range(0x20u8..0x7f);
                    if b == b' ' && rng.gen_bool(0.2) {
                        '\t'
                    } else {
                        b as char
                    }
                })
                .collect();
            c.out.push((Cow::Owned(garbage), false));
        }
        CorruptionOp::MojibakeLine => {
            tag(c, op);
            const JUNK: [char; 5] = ['\u{FFFD}', 'Ã', '¼', '�', '漢'];
            let stride = rng.gen_range(2..6);
            let mangled: String = line
                .chars()
                .enumerate()
                .map(|(i, ch)| {
                    if i % stride == 0 {
                        JUNK[(i / stride) % JUNK.len()]
                    } else {
                        ch
                    }
                })
                .collect();
            c.out.push((Cow::Owned(mangled), false));
        }
        CorruptionOp::DropField => {
            tag(c, op);
            let mut fields: Vec<&str> = line.split('\t').collect();
            if fields.len() > 1 {
                let victim = rng.gen_range(0..fields.len());
                fields.remove(victim);
            } else {
                fields.clear();
            }
            c.out.push((Cow::Owned(fields.join("\t")), false));
        }
        CorruptionOp::ExtraField => {
            tag(c, op);
            let mut fields: Vec<&str> = line.split('\t').collect();
            let at = rng.gen_range(0..=fields.len());
            fields.insert(at, "xtra");
            c.out.push((Cow::Owned(fields.join("\t")), false));
        }
        CorruptionOp::DuplicateLine => {
            // The original copy stays recoverable; the echo is the fault.
            emit_clean(c, line);
            tag(c, op);
            c.out.push((Cow::Borrowed(line), false));
        }
        CorruptionOp::SwapLines => {
            if c.out.len() < 2 {
                // Nothing to swap with yet; leave the line alone.
                emit_clean(c, line);
                return;
            }
            tag(c, op);
            c.out.push((Cow::Borrowed(line), false));
            let n = c.out.len();
            c.out.swap(n - 2, n - 1);
            c.out[n - 2].1 = false;
        }
        CorruptionOp::SkewTimestamp => {
            let fields: Vec<&str> = line.split('\t').collect();
            // Timestamp-like column: the first multi-digit integer after
            // the identifier (hour in the echo layout, day in the
            // association layout); single-digit flag columns don't match.
            let Some(idx) = fields
                .iter()
                .enumerate()
                .skip(1)
                .find(|(_, f)| f.len() >= 2 && f.bytes().all(|b| b.is_ascii_digit()))
                .map(|(i, _)| i)
            else {
                emit_clean(c, line);
                return;
            };
            tag(c, op);
            let mut fields: Vec<String> = fields.into_iter().map(String::from).collect();
            if rng.gen_bool(0.5) {
                // Forward skew: parses, but lands far in the future.
                let base: u64 = fields[idx].parse().unwrap_or(0);
                let skew = rng.gen_range(100_000u64..10_000_000);
                fields[idx] = (base.saturating_add(skew)).to_string();
            } else {
                // Negative timestamp: fails to parse as unsigned.
                fields[idx] = format!("-{}", fields[idx]);
            }
            c.out.push((Cow::Owned(fields.join("\t")), false));
        }
        CorruptionOp::MixedFamily => {
            let fields: Vec<&str> = line.split('\t').collect();
            let v4_at = fields.iter().position(|f| f.parse::<Ipv4Addr>().is_ok());
            let v6_at = fields.iter().position(|f| f.parse::<Ipv6Addr>().is_ok());
            let (idx, replacement) = match (v4_at, v6_at) {
                (Some(i), _) => (i, format!("2001:db8::{:x}", rng.gen_range(1u32..0xffff))),
                (None, Some(i)) => (i, format!("203.0.113.{}", rng.gen_range(1u32..255))),
                (None, None) => {
                    emit_clean(c, line);
                    return;
                }
            };
            tag(c, op);
            let mut fields: Vec<String> = fields.into_iter().map(String::from).collect();
            fields[idx] = replacement;
            c.out.push((Cow::Owned(fields.join("\t")), false));
        }
        CorruptionOp::CollideId => {
            if c.seen_ids.is_empty() {
                emit_clean(c, line);
                return;
            }
            tag(c, op);
            let donor = c.seen_ids[rng.gen_range(0..c.seen_ids.len())];
            let mut fields: Vec<String> = line.split('\t').map(String::from).collect();
            fields[0] = donor.to_string();
            c.out.push((Cow::Owned(fields.join("\t")), false));
        }
        CorruptionOp::TornWrite => {
            let Some(prev) = c.prev_original else {
                emit_clean(c, line);
                return;
            };
            tag(c, op);
            let cut = floor_char_boundary(line, rng.gen_range(0..line.len().max(1)));
            let splice = floor_char_boundary(prev, rng.gen_range(0..prev.len().max(1)));
            c.out.push((
                Cow::Owned(format!("{}{}", &line[..cut], &prev[splice..])),
                false,
            ));
        }
        // File-level op; `truncate_file` applies it after the per-line
        // pass. Reaching it here is a dispatch bug — degrade to identity
        // rather than panic.
        CorruptionOp::TruncateFile => emit_clean(c, line),
    }
}

/// Cut the accumulated output at a random point in its second half: the
/// cut line keeps a prefix of itself, everything after it disappears.
fn truncate_file(c: &mut Corruptor, rng: &mut SmallRng) {
    if c.out.len() < 2 {
        return;
    }
    let at = rng.gen_range(c.out.len() / 2..c.out.len());
    c.log.applied.push(AppliedOp {
        line: at + 1,
        op: CorruptionOp::TruncateFile,
    });
    let (line, _) = &c.out[at];
    let keep = floor_char_boundary(line, rng.gen_range(0..line.len().max(1)));
    let partial = line[..keep].to_string();
    c.out.truncate(at);
    if !partial.is_empty() {
        c.out.push((Cow::Owned(partial), false));
    }
}

/// Largest char-boundary index `<= at` (stable substitute for the unstable
/// `str::floor_char_boundary`).
fn floor_char_boundary(s: &str, at: usize) -> usize {
    let mut at = at.min(s.len());
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dump shaped like the real ones: id, family-ish field, timestamp,
    /// addresses.
    fn sample(lines: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("# synthetic dump\n");
        for i in 0..lines {
            writeln!(
                s,
                "{}\t4\t{}\t10.0.{}.1\t2001:db8:0:{:x}::1",
                i / 4,
                100 + i,
                i % 200,
                i
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn rate_zero_is_identity() {
        let text = sample(50);
        let (out, log) = corrupt_tsv(&text, 7, 0.0);
        assert_eq!(out, text);
        assert!(log.is_identity());
        assert_eq!(log.lines_in, 50);
        assert_eq!(log.clean_lines, 50);
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let text = sample(120);
        let (a1, l1) = corrupt_tsv(&text, 42, 0.3);
        let (a2, l2) = corrupt_tsv(&text, 42, 0.3);
        assert_eq!(a1, a2);
        assert_eq!(l1, l2);
        let (b, _) = corrupt_tsv(&text, 43, 0.3);
        assert_ne!(a1, b, "different seeds should damage differently");
    }

    #[test]
    fn full_rate_touches_nearly_everything() {
        let text = sample(100);
        let (out, log) = corrupt_tsv(&text, 1, 1.0);
        assert_ne!(out, text);
        // Every line is hit by an operator; a handful may fall back to a
        // clean emit (swap/collide/torn on the first line), and the final
        // truncation removes tagged-but-cut entries from the output.
        assert!(log.total() >= 90, "only {} faults", log.total());
        assert!(log.clean_lines <= 10, "{} clean", log.clean_lines);
    }

    #[test]
    fn moderate_rate_leaves_most_lines_clean() {
        let text = sample(400);
        let (_, log) = corrupt_tsv(&text, 9, 0.05);
        assert!(log.clean_lines >= 300, "{} clean", log.clean_lines);
        assert!(log.total() >= 5);
    }

    #[test]
    fn comments_and_blanks_pass_through() {
        let text = "# header\n\n# more\n";
        let (out, log) = corrupt_tsv(text, 3, 1.0);
        assert_eq!(out, text);
        assert_eq!(log.lines_in, 0);
        assert!(log.is_identity());
    }

    #[test]
    fn every_line_operator_eventually_fires() {
        let text = sample(200);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let (_, log) = corrupt_tsv(&text, seed, 0.5);
            seen.extend(log.applied.iter().map(|a| a.op));
        }
        for op in CorruptionOp::all() {
            assert!(seen.contains(op), "{op} never fired");
        }
    }

    #[test]
    fn applied_line_numbers_point_into_the_output() {
        let text = sample(80);
        for seed in 0..20 {
            let (out, log) = corrupt_tsv(&text, seed, 0.4);
            if log.count(CorruptionOp::TruncateFile) > 0 {
                // Tags behind a truncation cut legitimately point past the
                // shortened output.
                continue;
            }
            let nlines = out.lines().count();
            for a in &log.applied {
                assert!(a.line <= nlines, "{a:?} out of range ({nlines} lines)");
            }
        }
    }

    #[test]
    fn duplicate_keeps_one_clean_copy() {
        // Drive seeds until a duplicate fires, then check the accounting.
        let text = sample(60);
        for seed in 0..100 {
            let (out, log) = corrupt_tsv(&text, seed, 0.3);
            if let Some(tag) = log
                .applied
                .iter()
                .find(|a| a.op == CorruptionOp::DuplicateLine)
            {
                let lines: Vec<&str> = out.lines().collect();
                // Tagged slot holds the echo of its predecessor (unless a
                // later truncation ate it).
                if tag.line <= lines.len() && tag.line >= 2 {
                    assert_eq!(lines[tag.line - 1], lines[tag.line - 2]);
                    return;
                }
            }
        }
        panic!("duplicate never fired in 100 seeds");
    }

    #[test]
    fn rate_must_be_a_probability() {
        let r = std::panic::catch_unwind(|| corrupt_tsv("a\tb\n", 0, 1.5));
        assert!(r.is_err());
    }

    #[test]
    fn labels_are_stable_kebab_case() {
        for op in CorruptionOp::all() {
            let l = op.label();
            assert!(l.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
        assert_eq!(CorruptionOp::TruncateFile.label(), "truncate-file");
        assert!(CorruptionOp::SwapLines.recoverable());
        assert!(!CorruptionOp::GarbageLine.recoverable());
    }

    #[test]
    fn render_mentions_counts() {
        let (_, log) = corrupt_tsv(&sample(100), 11, 0.5);
        let text = log.render();
        assert!(text.contains("faults over 100 lines"), "{text}");
    }
}
