//! Fixture: look-alikes that must NOT fire (false-positive guards). The
//! sink `render_lookup` in src/taint.rs reaches this file, where a
//! `HashMap` mention in code would be hash-order taint.
//! Expected: clean.

/// Banned tokens inside strings are data, not code.
pub fn describe() -> &'static str {
    "never iterate a HashMap or HashSet when rendering"
}

/// Raw-string bodies are not code either.
pub fn raw() -> &'static str {
    r#"HashMap<u8, u8> and fields[0]"#
}

/// Identifiers that merely contain the token are other names, and `'a'`
/// here is a char literal, not a lifetime that would derail the scrubber.
pub struct MyHashMap(char);

pub fn lookalikes(o: Option<char>) -> MyHashMap {
    MyHashMap(o.unwrap_or('a'))
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_use_unordered_maps() {
        let m: std::collections::HashMap<u8, u8> = Default::default();
        assert!(m.is_empty());
    }
}
