//! D001 fixture: maps written with a custom hasher are still HashMaps.
//! Linted under the synthetic path `crates/sim/src/fixture.rs`.
use std::collections::HashMap;

use exchange::FastState;

pub struct Bookkeeping {
    pub transfers: HashMap<u64, u32, FastState>,
    pub by_want: HashMap<(u32, u32), Vec<u64>, FastState>,
}

pub fn violation_iter(state: &Bookkeeping) -> usize {
    state.transfers.iter().count() // <- D001
}

pub fn violation_values(state: &Bookkeeping) -> usize {
    state.by_want.values().map(Vec::len).sum() // <- D001
}

pub fn violation_local() -> Vec<u64> {
    let scratch: HashMap<u64, u64, FastState> = HashMap::default();
    scratch.into_keys().collect() // <- D001
}

pub fn probes_are_fine(state: &Bookkeeping) -> bool {
    state.transfers.contains_key(&7) && state.by_want.get(&(1, 2)).is_some()
}
