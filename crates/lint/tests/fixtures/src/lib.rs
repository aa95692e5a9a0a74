//! Fixture: a crate root without `unsafe_code` or `missing_docs`
//! attributes, which the workspace `[lints]` table now supplies.
//! Expected: clean.

pub fn greet() -> String {
    "hi".to_string()
}
