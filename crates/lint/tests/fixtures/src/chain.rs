//! Fixture: a transitive panic. This file is in no lint.toml scope and
//! nothing in it is a per-line finding; only the call-graph analysis can
//! see that `main` reaches the unwrap two hops down
//! (main → chain_entry → chain_helper).
//! Expected: panic-reach x1.

pub fn chain_entry() {
    chain_helper(std::env::args().next());
}

fn chain_helper(o: Option<String>) {
    let _ = o.unwrap();
}
