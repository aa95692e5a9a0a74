//! Fixture: the binary, and the corpus's panic-reach entry point.
//! Expected: clean here (the chain it reaches ends in src/chain.rs).

fn main() {
    chain_entry();
}
