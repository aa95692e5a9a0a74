//! Fixture: pragma misuse. A pragma without a justification, one naming
//! an unknown rule and two naming retired rules are themselves findings,
//! and none suppresses anything. Expected: bare-allow x4.

pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(dead-pub)
    o.unwrap()
}

// lint:allow(not-a-rule): the rule id does not exist
pub fn g() {}

// lint:allow(hash-iter): retired to clippy's disallowed_types
pub fn h() {}

// lint:allow(determinism-taint): retired to clippy's disallowed_types
pub fn k() {}
