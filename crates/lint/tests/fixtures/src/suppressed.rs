//! Fixture: justified pragmas suppress findings, both standalone (covers
//! the next code line) and trailing (covers its own line). This file is
//! in the render scope, so each unordered map would otherwise be a
//! hash-iter finding. Expected: clean.

// lint:allow(hash-iter): keyed lookups only, never iterated into output
use std::collections::HashMap;

pub fn lookup(m: &HashMap<u32, u32>) -> Option<u32> { // lint:allow(hash-iter): keyed lookup
    m.get(&7).copied()
}
