//! Fixture: transitive nondeterminism. `render_table` is declared an
//! artifact sink in lint.toml; the wall-clock read two calls down taints
//! it (render_table → helper_mid → helper_src). The per-file scan has
//! nothing to say about this file. The second sink, `render_lookup`,
//! reaches the pragma-waived maps in src/suppressed.rs and the
//! look-alikes in src/tricky.rs, none of which is a finding. The third,
//! `render_rows`, reaches a clock read through a fn whose signature takes
//! `impl FnMut` (render_rows → for_each_row → stamp_row): the collector
//! must not mistake that `impl` for an impl block and drop the fn.
//! Expected: determinism-taint x2.

pub fn render_table() -> String {
    helper_mid()
}

pub fn render_lookup() -> String {
    format!("{:?} {} {} {}", lookup(7), distinct(&[7]), describe(), raw())
        + &lookalikes(None).0.to_string()
}

pub fn render_rows() -> String {
    let mut out = String::new();
    for_each_row(|row| out.push_str(&row));
    out
}

fn for_each_row(mut f: impl FnMut(String)) {
    f(stamp_row());
}

fn stamp_row() -> String {
    format!("{:?}", std::time::SystemTime::now())
}

fn helper_mid() -> String {
    helper_src()
}

fn helper_src() -> String {
    let t = std::time::Instant::now();
    format!("{:?}", t.elapsed())
}
