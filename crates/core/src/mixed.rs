//! Mixed object-and-capacity exchanges (Table I / Figure 3 of the paper).
//!
//! A peer with upload capacity but no exchangeable content can still take
//! part in an exchange by *forwarding*: a provider sends it the object it
//! wants, and it relays that object onward to other peers, who in return
//! serve the provider.  Everyone is at least as well off as in the pure
//! object exchange, and two peers that would otherwise be excluded get
//! served.  This module contains a small planner that recognises the
//! structure and produces the resulting flow assignment.

use std::collections::BTreeMap;

use crate::Key;

/// What one peer brings to a prospective mixed exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerSpec<P, O> {
    /// The peer.
    pub peer: P,
    /// Upload capacity available for the exchange (arbitrary rate units; the
    /// paper's example uses 5 or 10).
    pub upload_capacity: f64,
    /// Objects the peer stores and is willing to serve.
    pub has: Vec<O>,
    /// Objects the peer wants.
    pub wants: Vec<O>,
}

/// One directed flow in a mixed exchange plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow<P, O> {
    /// The sending peer.
    pub from: P,
    /// The receiving peer.
    pub to: P,
    /// The object carried by this flow.
    pub object: O,
    /// The rate of the flow (same units as [`PeerSpec::upload_capacity`]).
    pub rate: f64,
}

/// A complete mixed-exchange plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedExchangePlan<P: Key, O: Key> {
    flows: Vec<Flow<P, O>>,
}

impl<P: Key, O: Key> MixedExchangePlan<P, O> {
    /// The individual flows of the plan.
    #[must_use]
    pub fn flows(&self) -> &[Flow<P, O>] {
        &self.flows
    }

    /// Total download rate each peer receives under the plan.
    #[must_use]
    pub fn download_rate_of(&self, peer: &P) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.to == *peer)
            .map(|f| f.rate)
            .sum()
    }

    /// Total upload rate each peer contributes under the plan.
    #[must_use]
    pub fn upload_rate_of(&self, peer: &P) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.from == *peer)
            .map(|f| f.rate)
            .sum()
    }
}

/// The download rate each peer would get from the best *pure* pairwise object
/// exchange among `specs` (the baseline the mixed plan is compared against).
///
/// Two peers can exchange directly if each has an object the other wants; the
/// exchange runs at the lower of the two upload capacities.  Each peer is
/// assumed to join at most one pairwise exchange (the paper's example has a
/// single feasible pair).
#[must_use]
pub fn pure_exchange_rates<P: Key, O: Key>(specs: &[PeerSpec<P, O>]) -> BTreeMap<P, f64> {
    let mut rates: BTreeMap<P, f64> = specs.iter().map(|s| (s.peer, 0.0)).collect();
    let mut used: Vec<P> = Vec::new();
    for (i, a) in specs.iter().enumerate() {
        if used.contains(&a.peer) {
            continue;
        }
        for b in specs.iter().skip(i + 1) {
            if used.contains(&b.peer) {
                continue;
            }
            let a_serves_b = a.has.iter().any(|o| b.wants.contains(o));
            let b_serves_a = b.has.iter().any(|o| a.wants.contains(o));
            if a_serves_b && b_serves_a {
                let rate = a.upload_capacity.min(b.upload_capacity);
                rates.insert(a.peer, rate);
                rates.insert(b.peer, rate);
                used.push(a.peer);
                used.push(b.peer);
                break;
            }
        }
    }
    rates
}

/// Plans a mixed object-and-capacity exchange over `specs`, if the structure
/// of Table I is present:
///
/// * a *forwarder* that wants an object but has nothing anyone else wants;
/// * a *provider* that has the forwarder's wanted object and wants some other
///   object;
/// * one or more *suppliers* that have the provider's wanted object and also
///   want the forwarder's wanted object.
///
/// The provider sends the object to the forwarder, the forwarder relays it to
/// the suppliers (using its otherwise-idle upload capacity), and the
/// suppliers serve the provider in parallel.  Returns `None` when the pattern
/// does not apply.
#[must_use]
pub fn plan_mixed_exchange<P: Key, O: Key>(
    specs: &[PeerSpec<P, O>],
) -> Option<MixedExchangePlan<P, O>> {
    // Identify the forwarder: wants something, but owns nothing that any
    // other peer wants.
    let forwarder = specs.iter().find(|s| {
        !s.wants.is_empty()
            && specs
                .iter()
                .filter(|other| other.peer != s.peer)
                .all(|other| !s.has.iter().any(|o| other.wants.contains(o)))
    })?;
    // The object the forwarder wants, and a provider that has it.
    let (wanted, provider) = forwarder.wants.iter().find_map(|o| {
        specs
            .iter()
            .find(|s| s.peer != forwarder.peer && s.has.contains(o))
            .map(|p| (*o, p))
    })?;
    // The object the provider wants in return.
    let provider_want = provider.wants.first().copied()?;
    // Suppliers: have what the provider wants and want what the forwarder wants.
    let suppliers: Vec<&PeerSpec<P, O>> = specs
        .iter()
        .filter(|s| {
            s.peer != forwarder.peer
                && s.peer != provider.peer
                && s.has.contains(&provider_want)
                && s.wants.contains(&wanted)
        })
        .collect();
    if suppliers.is_empty() {
        return None;
    }

    let mut flows = Vec::new();
    // Provider -> forwarder at the provider's full upload capacity.
    let provider_rate = provider.upload_capacity;
    flows.push(Flow {
        from: provider.peer,
        to: forwarder.peer,
        object: wanted,
        rate: provider_rate,
    });
    // Forwarder relays to each supplier, splitting its upload capacity evenly
    // (but never faster than it receives).
    let per_supplier = (forwarder.upload_capacity / suppliers.len() as f64).min(provider_rate);
    for s in &suppliers {
        flows.push(Flow {
            from: forwarder.peer,
            to: s.peer,
            object: wanted,
            rate: per_supplier,
        });
    }
    // Each supplier serves the provider with the object it wants.
    for s in &suppliers {
        flows.push(Flow {
            from: s.peer,
            to: provider.peer,
            object: provider_want,
            rate: s.upload_capacity.min(per_supplier.max(provider_rate)),
        });
    }
    Some(MixedExchangePlan { flows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact scenario of Table I: A(10,-,x) B(5,x,y) C(10,y,x) D(10,y,x).
    fn table_one() -> Vec<PeerSpec<&'static str, char>> {
        vec![
            PeerSpec {
                peer: "A",
                upload_capacity: 10.0,
                has: vec![],
                wants: vec!['x'],
            },
            PeerSpec {
                peer: "B",
                upload_capacity: 5.0,
                has: vec!['x'],
                wants: vec!['y'],
            },
            PeerSpec {
                peer: "C",
                upload_capacity: 10.0,
                has: vec!['y'],
                wants: vec!['x'],
            },
            PeerSpec {
                peer: "D",
                upload_capacity: 10.0,
                has: vec!['y'],
                wants: vec!['x'],
            },
        ]
    }

    #[test]
    fn pure_exchange_only_serves_b_and_one_supplier() {
        let rates = pure_exchange_rates(&table_one());
        // B exchanges x<->y with C (or D) at B's upload limit of 5.
        assert_eq!(rates["B"], 5.0);
        assert_eq!(rates["A"], 0.0, "A has nothing to trade in a pure exchange");
        let supplied = (rates["C"] > 0.0) as u32 + (rates["D"] > 0.0) as u32;
        assert_eq!(supplied, 1, "only one of C/D can pair with B");
    }

    #[test]
    fn mixed_plan_reproduces_figure_3() {
        let plan = plan_mixed_exchange(&table_one()).expect("Table I structure is present");
        // B sends x to A at 5.
        assert_eq!(plan.download_rate_of(&"A"), 5.0);
        // A forwards x to C and D at 5 each, spending its 10 units of upload.
        assert_eq!(plan.download_rate_of(&"C"), 5.0);
        assert_eq!(plan.download_rate_of(&"D"), 5.0);
        assert_eq!(plan.upload_rate_of(&"A"), 10.0);
        // C and D send y to B at 5 each: B downloads at 10, twice the pure rate.
        assert_eq!(plan.download_rate_of(&"B"), 10.0);
    }

    #[test]
    fn mixed_plan_beats_or_matches_pure_exchange_for_everyone() {
        let specs = table_one();
        let pure = pure_exchange_rates(&specs);
        let plan = plan_mixed_exchange(&specs).unwrap();
        for spec in &specs {
            assert!(
                plan.download_rate_of(&spec.peer) + 1e-9 >= pure[&spec.peer],
                "{} must not be worse off under the mixed plan",
                spec.peer
            );
        }
    }

    #[test]
    fn no_forwarder_means_no_plan() {
        // Everyone has something someone else wants: the pure ring suffices.
        let specs = vec![
            PeerSpec {
                peer: 1u32,
                upload_capacity: 5.0,
                has: vec![1u32],
                wants: vec![2u32],
            },
            PeerSpec {
                peer: 2u32,
                upload_capacity: 5.0,
                has: vec![2u32],
                wants: vec![1u32],
            },
        ];
        assert!(plan_mixed_exchange(&specs).is_none());
    }

    #[test]
    fn no_supplier_means_no_plan() {
        // A forwarder and a provider exist, but nobody has what the provider wants.
        let specs = vec![
            PeerSpec {
                peer: 1u32,
                upload_capacity: 10.0,
                has: vec![],
                wants: vec![7u32],
            },
            PeerSpec {
                peer: 2u32,
                upload_capacity: 5.0,
                has: vec![7u32],
                wants: vec![8u32],
            },
        ];
        assert!(plan_mixed_exchange(&specs).is_none());
    }

    #[test]
    fn flows_respect_upload_capacities() {
        let plan = plan_mixed_exchange(&table_one()).unwrap();
        let specs = table_one();
        for spec in &specs {
            assert!(
                plan.upload_rate_of(&spec.peer) <= spec.upload_capacity + 1e-9,
                "{} exceeds its upload capacity",
                spec.peer
            );
        }
    }
}
