//! Fixture: a crate root missing both hygiene attributes.
//! Expected: crate-root x2 (line 1).

pub fn greet() -> String {
    "hi".to_string()
}
