//! Assertion properties and monitor construction.
//!
//! Assertion (safety) properties — bus-contention checks, internal don't-care
//! validation, invariant checking — are expressed as a single-bit *monitor*
//! net synthesised into the design, exactly as the paper's
//! property-to-constraint converter turns a linear temporal assertion into
//! value requirements. An [`Property`] then simply states that the monitor
//! must always be 1 (`Always`) or should eventually become 1 (`Eventually`,
//! used for witness generation). Environment constraints (one-hot inputs,
//! fixed control values) are monitors as well, required to be 1 in every
//! time-frame.

use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};

/// The temporal shape of a property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// The monitor must hold in every reachable time-frame (safety assertion).
    Always,
    /// A witness is sought in which the monitor becomes 1 within the bound.
    Eventually,
}

/// An assertion property over a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Property {
    /// Name used in reports (e.g. `p1`, `p9`).
    pub name: String,
    /// Temporal shape.
    pub kind: PropertyKind,
    /// The single-bit monitor net inside the design's netlist.
    pub monitor: NetId,
}

impl Property {
    /// Creates a safety assertion: `monitor` must always be 1.
    ///
    /// # Panics
    ///
    /// Panics if `monitor` is not a single-bit net of `netlist`.
    pub fn always(netlist: &Netlist, name: impl Into<String>, monitor: NetId) -> Self {
        assert_eq!(netlist.net_width(monitor), 1, "monitor must be single-bit");
        Property {
            name: name.into(),
            kind: PropertyKind::Always,
            monitor,
        }
    }

    /// Creates a witness objective: find an execution making `monitor` 1.
    ///
    /// # Panics
    ///
    /// Panics if `monitor` is not a single-bit net of `netlist`.
    pub fn eventually(netlist: &Netlist, name: impl Into<String>, monitor: NetId) -> Self {
        assert_eq!(netlist.net_width(monitor), 1, "monitor must be single-bit");
        Property {
            name: name.into(),
            kind: PropertyKind::Eventually,
            monitor,
        }
    }
}

/// A design bundled with the property to check and its environment
/// constraints (each environment net must be 1 in every time-frame).
#[derive(Debug, Clone)]
pub struct Verification {
    /// The design, including any synthesised monitor logic.
    pub netlist: Netlist,
    /// The property under check.
    pub property: Property,
    /// Environment constraint monitors (single-bit nets required to be 1 in
    /// every frame), e.g. one-hot input constraints.
    pub environment: Vec<NetId>,
}

impl Verification {
    /// Bundles a netlist with a property and no environment constraints.
    pub fn new(mut netlist: Netlist, property: Property) -> Self {
        // The design is done being built: release the builder's spare
        // capacity, since a job may keep it alive for a long time.
        netlist.shrink_to_fit();
        Verification {
            netlist,
            property,
            environment: Vec::new(),
        }
    }

    /// Adds an environment constraint monitor.
    ///
    /// # Panics
    ///
    /// Panics if the net is not single-bit.
    pub fn with_environment(mut self, monitor: NetId) -> Self {
        assert_eq!(
            self.netlist.net_width(monitor),
            1,
            "environment monitor must be single-bit"
        );
        self.environment.push(monitor);
        self
    }
}

/// Monitor-building helpers used by the benchmark circuits and by user code.
///
/// Each helper adds gates to the netlist and returns a single-bit net that is
/// 1 exactly when the described condition holds.
pub mod monitor {
    use super::*;

    /// Monitor that is 1 when **at most one** of `signals` is 1.
    ///
    /// # Panics
    ///
    /// Panics when `signals` is empty or contains a multi-bit net.
    pub fn at_most_one_hot(netlist: &mut Netlist, signals: &[NetId]) -> NetId {
        assert!(!signals.is_empty(), "at_most_one_hot needs signals");
        let mut violation: Option<NetId> = None;
        for (i, a) in signals.iter().enumerate() {
            assert_eq!(
                netlist.net_width(*a),
                1,
                "one-hot signals must be single-bit"
            );
            for b in signals.iter().skip(i + 1) {
                let both = netlist.and2(*a, *b);
                violation = Some(match violation {
                    None => both,
                    Some(v) => netlist.or2(v, both),
                });
            }
        }
        match violation {
            None => netlist.constant_bit(true),
            Some(v) => netlist.not(v),
        }
    }

    /// Monitor that is 1 when **exactly one** of `signals` is 1.
    ///
    /// # Panics
    ///
    /// Panics when `signals` is empty or contains a multi-bit net.
    pub fn exactly_one_hot(netlist: &mut Netlist, signals: &[NetId]) -> NetId {
        let at_most = at_most_one_hot(netlist, signals);
        let mut any = signals[0];
        for s in &signals[1..] {
            any = netlist.or2(any, *s);
        }
        netlist.and2(at_most, any)
    }

    /// Monitor that is 1 when `net` differs from the constant `value`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn never_value(netlist: &mut Netlist, net: NetId, value: &Bv) -> NetId {
        let constant = netlist.constant(value);
        netlist.ne(net, constant)
    }

    /// Monitor that is 1 when `net` equals the constant `value`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn reaches_value(netlist: &mut Netlist, net: NetId, value: &Bv) -> NetId {
        let constant = netlist.constant(value);
        netlist.eq(net, constant)
    }

    /// Bus-contention monitor: 1 when the tri-state bus is safe, i.e. for
    /// every pair of drivers either at most one enable is active or their
    /// data values agree ("consensus", property p11–p13 of the paper).
    ///
    /// # Panics
    ///
    /// Panics when `enables` and `data` differ in length, are empty, or an
    /// enable is not single-bit.
    pub fn bus_contention_free(netlist: &mut Netlist, enables: &[NetId], data: &[NetId]) -> NetId {
        assert_eq!(enables.len(), data.len(), "one enable per data source");
        assert!(!enables.is_empty(), "bus needs at least one driver");
        let mut violation: Option<NetId> = None;
        for i in 0..enables.len() {
            assert_eq!(
                netlist.net_width(enables[i]),
                1,
                "enables must be single-bit"
            );
            for j in i + 1..enables.len() {
                let both = netlist.and2(enables[i], enables[j]);
                let differ = netlist.ne(data[i], data[j]);
                let clash = netlist.and2(both, differ);
                violation = Some(match violation {
                    None => clash,
                    Some(v) => netlist.or2(v, clash),
                });
            }
        }
        match violation {
            None => netlist.constant_bit(true),
            Some(v) => netlist.not(v),
        }
    }

    /// Monitor that is 1 when `implication` holds: `antecedent -> consequent`.
    pub fn implies(netlist: &mut Netlist, antecedent: NetId, consequent: NetId) -> NetId {
        let not_a = netlist.not(antecedent);
        netlist.or2(not_a, consequent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wlac_sim::simulate;

    #[test]
    fn property_constructors_validate_width() {
        let mut nl = Netlist::new("t");
        let ok = nl.input("ok", 1);
        let p = Property::always(&nl, "p1", ok);
        assert_eq!(p.kind, PropertyKind::Always);
        let w = Property::eventually(&nl, "p2", ok);
        assert_eq!(w.kind, PropertyKind::Eventually);
        let v = Verification::new(nl, p).with_environment(ok);
        assert_eq!(v.environment.len(), 1);
    }

    #[test]
    #[should_panic(expected = "single-bit")]
    fn wide_monitor_rejected() {
        let mut nl = Netlist::new("t");
        let wide = nl.input("wide", 4);
        let _ = Property::always(&nl, "bad", wide);
    }

    #[test]
    fn one_hot_monitors_behave() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let c = nl.input("c", 1);
        let at_most = monitor::at_most_one_hot(&mut nl, &[a, b, c]);
        let exactly = monitor::exactly_one_hot(&mut nl, &[a, b, c]);
        nl.mark_output("at_most", at_most);
        nl.mark_output("exactly", exactly);
        for bits in 0..8u64 {
            let inputs: HashMap<_, _> = [
                (a, Bv::from_u64(1, bits & 1)),
                (b, Bv::from_u64(1, (bits >> 1) & 1)),
                (c, Bv::from_u64(1, (bits >> 2) & 1)),
            ]
            .into_iter()
            .collect();
            let run = simulate(&nl, &[], &[inputs]).unwrap();
            let ones = bits.count_ones();
            assert_eq!(
                run.value(0, at_most).to_u64(),
                Some((ones <= 1) as u64),
                "at_most_one_hot for {bits:03b}"
            );
            assert_eq!(
                run.value(0, exactly).to_u64(),
                Some((ones == 1) as u64),
                "exactly_one_hot for {bits:03b}"
            );
        }
    }

    #[test]
    fn bus_contention_monitor_behaviour() {
        let mut nl = Netlist::new("t");
        let e0 = nl.input("e0", 1);
        let e1 = nl.input("e1", 1);
        let d0 = nl.input("d0", 8);
        let d1 = nl.input("d1", 8);
        let ok = monitor::bus_contention_free(&mut nl, &[e0, e1], &[d0, d1]);
        nl.mark_output("ok", ok);
        let run_case = |e0v: u64, e1v: u64, d0v: u64, d1v: u64| {
            let inputs: HashMap<_, _> = [
                (e0, Bv::from_u64(1, e0v)),
                (e1, Bv::from_u64(1, e1v)),
                (d0, Bv::from_u64(8, d0v)),
                (d1, Bv::from_u64(8, d1v)),
            ]
            .into_iter()
            .collect();
            simulate(&nl, &[], &[inputs]).unwrap().value(0, ok).to_u64()
        };
        assert_eq!(run_case(1, 0, 3, 200), Some(1)); // single driver: fine
        assert_eq!(run_case(1, 1, 42, 42), Some(1)); // both drive, consensus
        assert_eq!(run_case(1, 1, 42, 43), Some(0)); // contention
        assert_eq!(run_case(0, 0, 1, 2), Some(1)); // idle bus
    }

    #[test]
    fn value_monitors() {
        let mut nl = Netlist::new("t");
        let x = nl.input("x", 5);
        let never13 = monitor::never_value(&mut nl, x, &Bv::from_u64(5, 13));
        let is13 = monitor::reaches_value(&mut nl, x, &Bv::from_u64(5, 13));
        nl.mark_output("never13", never13);
        nl.mark_output("is13", is13);
        for v in [0u64, 12, 13, 31] {
            let inputs: HashMap<_, _> = [(x, Bv::from_u64(5, v))].into_iter().collect();
            let run = simulate(&nl, &[], &[inputs]).unwrap();
            assert_eq!(run.value(0, never13).to_u64(), Some((v != 13) as u64));
            assert_eq!(run.value(0, is13).to_u64(), Some((v == 13) as u64));
        }
    }

    #[test]
    fn implies_monitor() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let imp = monitor::implies(&mut nl, a, b);
        nl.mark_output("imp", imp);
        for (av, bv, expect) in [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)] {
            let inputs: HashMap<_, _> = [(a, Bv::from_u64(1, av)), (b, Bv::from_u64(1, bv))]
                .into_iter()
                .collect();
            let run = simulate(&nl, &[], &[inputs]).unwrap();
            assert_eq!(run.value(0, imp).to_u64(), Some(expect));
        }
    }
}
