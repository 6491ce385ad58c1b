//! The arithmetic shared by the weighted population mixes,
//! [`crate::BehaviorMix`] and [`crate::ClassMix`]: validation and
//! largest-remainder head counts over `(item, weight)` entries.

use std::fmt::Display;

/// Checks a mix's entries: at least one, no item twice, every weight finite
/// and non-negative, and not all zero.  `noun` names the items in the error
/// ("behavior", "class").
pub(crate) fn validate<T: PartialEq + Display>(
    noun: &str,
    entries: &[(T, f64)],
) -> Result<(), String> {
    if entries.is_empty() {
        return Err(format!("a {noun} mix needs at least one entry"));
    }
    for (item, weight) in entries {
        if !weight.is_finite() || *weight < 0.0 {
            return Err(format!(
                "{noun} weight for {item} must be finite and non-negative, got {weight}"
            ));
        }
        if entries.iter().filter(|(other, _)| other == item).count() > 1 {
            return Err(format!("{noun} {item} appears more than once in the mix"));
        }
    }
    let total: f64 = entries.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return Err(format!("{noun} weights must not all be zero"));
    }
    Ok(())
}

/// Per-item head counts for `num_peers`, in entry order, by largest-remainder
/// rounding; they always sum to `num_peers`.
pub(crate) fn counts<T: Copy>(entries: &[(T, f64)], num_peers: usize) -> Vec<(T, usize)> {
    let total: f64 = entries.iter().map(|(_, w)| w).sum();
    let mut counts: Vec<(T, usize)> = Vec::with_capacity(entries.len());
    let mut fractions: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
    let mut assigned = 0usize;
    for (index, (item, weight)) in entries.iter().enumerate() {
        let ideal = weight / total * num_peers as f64;
        let floor = ideal.floor() as usize;
        assigned += floor;
        counts.push((*item, floor));
        fractions.push((index, ideal - floor as f64));
    }
    // Hand the leftover heads to the largest fractional parts; ties go to
    // the earlier entry, which reproduces round() for the legacy two-entry
    // free-rider mix.
    fractions.sort_by(|(ia, fa), (ib, fb)| {
        fb.partial_cmp(fa)
            .expect("mix fractions are finite")
            .then(ia.cmp(ib))
    });
    for (index, _) in fractions
        .into_iter()
        .take(num_peers.saturating_sub(assigned))
    {
        counts[index].1 += 1;
    }
    counts
}
