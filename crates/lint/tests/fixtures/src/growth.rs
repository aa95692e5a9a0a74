//! Fixture: bounded growth. A long-running pump grows a queue no
//! reachable path ever shrinks, beside a growth site a local capacity
//! check excuses. Expected: unbounded-growth x1.

// The corpus's declared long-running root: its backlog only ever grows —
// no cap check here, no shrink anywhere downstream or in a caller.
fn pump(backlog: &mut Vec<u32>, overflow: &mut Vec<u32>, cap: usize) {
    loop {
        backlog.push(1);
        pump_bounded(overflow, cap);
    }
}

// A growth site guarded by a local capacity check is excused.
fn pump_bounded(overflow: &mut Vec<u32>, cap: usize) {
    if overflow.len() < cap {
        overflow.push(2);
    }
}
