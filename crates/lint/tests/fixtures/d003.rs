//! D003 fixture: thread creation outside the sanctioned files.
//! Linted under the synthetic path `crates/credit/src/fixture.rs`; the same
//! content linted as `crates/sim/src/scenario.rs` must be clean.
use std::thread;

pub fn violation_spawn() {
    thread::spawn(|| {}); // <- D003
}

pub fn violation_scope() {
    std::thread::scope(|_scope| {}); // <- D003
}

pub fn suppressed() {
    // exchange-lint: allow(D003, reason = "fixture: sanctioned one-off helper")
    thread::spawn(|| {});
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        std::thread::scope(|_scope| {});
    }
}
