//! Fixture: look-alikes that must NOT fire (false-positive guards). Were
//! strings, comments or test code read as code, the condvar waits and
//! the sleep below would trip condvar-wait-loop and
//! lock-across-blocking.
//! Expected: clean.

/// Calls inside strings are data, not code.
pub fn describe() -> &'static str {
    "let g = m.lock().unwrap(); cv.wait(g); std::thread::sleep(d);"
}

/// Raw-string bodies are not code either.
pub fn raw() -> &'static str {
    r#"cv.wait(guard) and fields[0]"#
}

/// `'a'` here is a char literal, not a lifetime that would derail the
/// scrubber, and the comment is prose.
pub fn lookalikes(o: Option<char>) -> char {
    // cv.wait(guard) outside a loop, in a comment
    o.unwrap_or('a')
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_wait_without_a_loop() {
        let m = std::sync::Mutex::new(false);
        let cv = std::sync::Condvar::new();
        let g = m.lock().unwrap();
        let _ = cv.wait_timeout(g, std::time::Duration::from_millis(1));
    }
}
