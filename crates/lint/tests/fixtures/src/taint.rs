//! Fixture: transitive nondeterminism. `render_table` is declared an
//! artifact sink in lint.toml; the wall-clock read two calls down taints
//! it (render_table → helper_mid → helper_src). The per-file scan has
//! nothing to say about this file.
//! Expected: determinism-taint x1.

pub fn render_table() -> String {
    helper_mid()
}

fn helper_mid() -> String {
    helper_src()
}

fn helper_src() -> String {
    let t = std::time::Instant::now();
    format!("{:?}", t.elapsed())
}
