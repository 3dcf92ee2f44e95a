//! Cycle-based simulation of word-level netlists.

use crate::eval::eval_gate;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use wlac_bv::Bv;
use wlac_netlist::{GateKind, NetId, Netlist};

/// Error returned when the netlist cannot be simulated (combinational cycle)
/// or an input vector is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulateError {
    message: String,
}

impl SimulateError {
    fn new(message: impl Into<String>) -> Self {
        SimulateError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl Error for SimulateError {}

/// Values of every net for each simulated cycle.
#[derive(Debug, Clone)]
pub struct SimRun {
    frames: Vec<Vec<Bv>>,
}

impl SimRun {
    /// Number of simulated cycles.
    pub fn cycles(&self) -> usize {
        self.frames.len()
    }

    /// Value of `net` during `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` or the net index is out of range.
    pub fn value(&self, cycle: usize, net: NetId) -> &Bv {
        &self.frames[cycle][net.index()]
    }

    /// All net values during `cycle`.
    pub fn frame(&self, cycle: usize) -> &[Bv] {
        &self.frames[cycle]
    }
}

/// A cycle-accurate simulator for a sequential word-level netlist.
///
/// Unknown inputs default to zero, flip-flops start at their declared initial
/// value (or zero when unconstrained), and each call to [`Simulator::step`]
/// evaluates one clock cycle.
///
/// # Examples
///
/// ```
/// use wlac_bv::Bv;
/// use wlac_netlist::Netlist;
/// use wlac_sim::Simulator;
///
/// # fn main() -> Result<(), wlac_sim::SimulateError> {
/// // A 4-bit counter with synchronous enable.
/// let mut nl = Netlist::new("counter");
/// let en = nl.input("en", 1);
/// let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
/// let one = nl.constant(&Bv::from_u64(4, 1));
/// let plus = nl.add(q, one);
/// let next = nl.mux(en, plus, q);
/// nl.connect_dff_data(ff, next);
/// nl.mark_output("count", q);
///
/// let mut sim = Simulator::new(&nl)?;
/// for _ in 0..3 {
///     sim.step(&[(en, Bv::from_u64(1, 1))])?;
/// }
/// assert_eq!(sim.net_value(q).to_u64(), Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<wlac_netlist::GateId>,
    /// Current value of every net (combinational nets refreshed per step).
    values: Vec<Bv>,
    /// Next-state value latched for each flip-flop gate.
    pending_state: Vec<(usize, Bv)>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator and resets the state to the initial values.
    ///
    /// # Errors
    ///
    /// Returns an error when the netlist has a combinational cycle.
    pub fn new(netlist: &'a Netlist) -> Result<Self, SimulateError> {
        let order = netlist
            .combinational_order()
            .map_err(|e| SimulateError::new(e.to_string()))?;
        let values = netlist
            .nets()
            .map(|n| Bv::zero(netlist.net_width(n)))
            .collect();
        let mut sim = Simulator {
            netlist,
            order,
            values,
            pending_state: Vec::new(),
        };
        sim.reset();
        Ok(sim)
    }

    /// Resets every flip-flop to its initial value (zero when unconstrained)
    /// and clears all other nets to zero.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = Bv::zero(v.width());
        }
        for (_, gate) in self.netlist.gates() {
            if let GateKind::Dff { init } = &gate.kind {
                let width = self.netlist.net_width(gate.output);
                self.values[gate.output.index()] = init.clone().unwrap_or_else(|| Bv::zero(width));
            }
        }
        self.pending_state.clear();
    }

    /// Overrides the current value of a flip-flop output (used to start from
    /// an arbitrary state, e.g. when replaying an ATPG counter-example whose
    /// initial state is not the reset state).
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the net width.
    pub fn set_state(&mut self, net: NetId, value: Bv) {
        assert_eq!(
            self.netlist.net_width(net),
            value.width(),
            "state width mismatch"
        );
        self.values[net.index()] = value;
    }

    /// The current value of a net (combinational nets reflect the values
    /// computed by the most recent [`Simulator::step`]).
    pub fn net_value(&self, net: NetId) -> &Bv {
        &self.values[net.index()]
    }

    /// Simulates one clock cycle with the given primary-input values:
    /// [`Simulator::settle`] then [`Simulator::clock`]. Missing inputs keep
    /// their previous value (zero initially).
    ///
    /// # Errors
    ///
    /// Returns an error when an input width does not match its net.
    pub fn step(&mut self, inputs: &[(NetId, Bv)]) -> Result<(), SimulateError> {
        self.settle(inputs)?;
        self.clock();
        Ok(())
    }

    /// Applies the given primary-input values and evaluates the
    /// combinational logic for the current state, without clocking the
    /// flip-flops: afterwards [`Simulator::net_value`] reads every net's
    /// value during this cycle. Missing inputs keep their previous value.
    ///
    /// # Errors
    ///
    /// Returns an error when an input width does not match its net.
    pub fn settle(&mut self, inputs: &[(NetId, Bv)]) -> Result<(), SimulateError> {
        for (net, value) in inputs {
            if self.netlist.net_width(*net) != value.width() {
                return Err(SimulateError::new(format!(
                    "input {net} expects width {}, got {}",
                    self.netlist.net_width(*net),
                    value.width()
                )));
            }
            self.values[net.index()] = value.clone();
        }
        // Combinational evaluation in topological order.
        for gate_id in &self.order {
            let gate = self.netlist.gate(*gate_id);
            let inputs: Vec<Bv> = gate
                .inputs
                .iter()
                .map(|n| self.values[n.index()].clone())
                .collect();
            let out_w = self.netlist.net_width(gate.output);
            self.values[gate.output.index()] = eval_gate(&gate.kind, &inputs, out_w);
        }
        Ok(())
    }

    /// Clocks every flip-flop: latches its data input as settled by the
    /// last [`Simulator::settle`], then commits (two-phase, to model
    /// simultaneous clocking).
    pub fn clock(&mut self) {
        self.pending_state.clear();
        for (_, gate) in self.netlist.gates() {
            if gate.kind.is_flip_flop() {
                let next = self.values[gate.inputs[0].index()].clone();
                self.pending_state.push((gate.output.index(), next));
            }
        }
        for (net, value) in self.pending_state.drain(..) {
            self.values[net] = value;
        }
    }

    /// Evaluates only the combinational logic for the current state and the
    /// given inputs, without clocking the flip-flops. Returns the value of
    /// every net.
    pub fn evaluate_combinational(
        &mut self,
        inputs: &[(NetId, Bv)],
    ) -> Result<Vec<Bv>, SimulateError> {
        self.settle(inputs)?;
        Ok(self.values.clone())
    }
}

/// Simulates `netlist` for several cycles from its reset state and records
/// every net value per cycle.
///
/// `inputs_per_cycle[t]` maps input nets to their value during cycle `t`;
/// missing inputs default to zero. `state_overrides` replaces selected
/// flip-flop outputs before the first cycle.
///
/// # Errors
///
/// Propagates [`SimulateError`] from construction or stepping.
pub fn simulate(
    netlist: &Netlist,
    state_overrides: &[(NetId, Bv)],
    inputs_per_cycle: &[HashMap<NetId, Bv>],
) -> Result<SimRun, SimulateError> {
    let mut sim = Simulator::new(netlist)?;
    for (net, value) in state_overrides {
        sim.set_state(*net, value.clone());
    }
    let mut frames = Vec::with_capacity(inputs_per_cycle.len());
    for cycle_inputs in inputs_per_cycle {
        let inputs: Vec<(NetId, Bv)> = cycle_inputs.iter().map(|(n, v)| (*n, v.clone())).collect();
        // Record the pre-clock (combinational) view of the cycle.
        frames.push(sim.evaluate_combinational(&inputs)?);
        sim.clock();
    }
    Ok(SimRun { frames })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new("counter");
        let en = nl.input("en", 1);
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let plus = nl.add(q, one);
        let next = nl.mux(en, plus, q);
        nl.connect_dff_data(ff, next);
        nl.mark_output("count", q);
        (nl, en, q)
    }

    #[test]
    fn counter_counts_only_when_enabled() {
        let (nl, en, q) = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.step(&[(en, Bv::from_u64(1, 1))]).unwrap();
        sim.step(&[(en, Bv::from_u64(1, 0))]).unwrap();
        sim.step(&[(en, Bv::from_u64(1, 1))]).unwrap();
        assert_eq!(sim.net_value(q).to_u64(), Some(2));
    }

    #[test]
    fn counter_wraps_modulo_16() {
        let (nl, en, q) = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        for _ in 0..20 {
            sim.step(&[(en, Bv::from_u64(1, 1))]).unwrap();
        }
        assert_eq!(sim.net_value(q).to_u64(), Some(4));
    }

    #[test]
    fn reset_and_state_override() {
        let (nl, en, q) = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_state(q, Bv::from_u64(4, 9));
        sim.step(&[(en, Bv::from_u64(1, 1))]).unwrap();
        assert_eq!(sim.net_value(q).to_u64(), Some(10));
        sim.reset();
        assert_eq!(sim.net_value(q).to_u64(), Some(0));
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let (nl, en, _) = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        assert!(sim.step(&[(en, Bv::from_u64(2, 1))]).is_err());
    }

    #[test]
    fn simulate_records_per_cycle_values() {
        let (nl, en, q) = counter();
        let one = Bv::from_u64(1, 1);
        let cycles: Vec<HashMap<NetId, Bv>> = (0..3)
            .map(|_| {
                let mut m = HashMap::new();
                m.insert(en, one.clone());
                m
            })
            .collect();
        let run = simulate(&nl, &[], &cycles).unwrap();
        assert_eq!(run.cycles(), 3);
        // The recorded value is the pre-clock (current state) view.
        assert_eq!(run.value(0, q).to_u64(), Some(0));
        assert_eq!(run.value(1, q).to_u64(), Some(1));
        assert_eq!(run.value(2, q).to_u64(), Some(2));
        assert_eq!(run.frame(2).len(), nl.net_count());
    }

    #[test]
    fn combinational_evaluation_does_not_clock() {
        let (nl, en, q) = counter();
        let mut sim = Simulator::new(&nl).unwrap();
        let values = sim
            .evaluate_combinational(&[(en, Bv::from_u64(1, 1))])
            .unwrap();
        assert_eq!(values[q.index()].to_u64(), Some(0));
        assert_eq!(sim.net_value(q).to_u64(), Some(0));
    }
}
