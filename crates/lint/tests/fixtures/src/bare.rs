//! Fixture: pragma misuse. A pragma without a justification and one
//! naming an unknown rule are themselves findings, and neither suppresses
//! anything. Expected: bare-allow x2.

pub fn f(o: Option<u32>) -> u32 {
    // lint:allow(panic-reach)
    o.unwrap()
}

// lint:allow(not-a-rule): the rule id does not exist
pub fn g() {}
