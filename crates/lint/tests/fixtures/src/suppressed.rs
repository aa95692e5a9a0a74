//! Fixture: justified pragmas suppress findings, both standalone (covers
//! the next code line) and trailing (covers its own line). The sink
//! `render_lookup` in src/taint.rs reaches both functions, so each
//! unordered-map mention would otherwise be a determinism-taint finding.
//! Expected: clean.

pub fn lookup(key: u32) -> Option<u32> {
    // lint:allow(determinism-taint): keyed lookups only, never iterated into output
    let m: std::collections::HashMap<u32, u32> = Default::default();
    m.get(&key).copied()
}

pub fn distinct(keys: &[u32]) -> usize {
    keys.iter().collect::<std::collections::HashSet<_>>().len() // lint:allow(determinism-taint): only the count leaves
}
