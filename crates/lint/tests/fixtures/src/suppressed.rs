//! Fixture: justified pragmas suppress findings, both standalone (covers
//! the next code line) and trailing (covers its own line). lint.toml
//! audits this file for dead pub items, and nothing references either
//! function, so each would otherwise be a dead-pub finding.
//! Expected: clean.

// lint:allow(dead-pub): the corpus's public entry point, kept for callers outside it
pub fn lookup(key: u32) -> Option<u32> {
    key.checked_sub(1)
}

pub fn distinct(keys: &[u32]) -> usize { // lint:allow(dead-pub): only the count leaves
    keys.len()
}
