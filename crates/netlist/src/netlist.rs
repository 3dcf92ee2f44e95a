//! The word-level RTL netlist data model.

use crate::gate::{Gate, GateKind};
use crate::ids::{GateId, NetId};
use crate::inputs::{Fanouts, GateInputs};
use crate::stats::CircuitStats;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use wlac_bv::Bv;

/// Information attached to a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetInfo {
    /// Width of the signal in bits.
    pub width: usize,
    /// Optional human-readable name (primary inputs and outputs always have one).
    pub name: Option<String>,
}

/// Error produced when a gate is added with inconsistent widths or pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateShapeError {
    message: String,
}

impl GateShapeError {
    fn new(message: impl Into<String>) -> Self {
        GateShapeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for GateShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid gate shape: {}", self.message)
    }
}

impl Error for GateShapeError {}

/// Error produced when a combinational cycle is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinationalCycleError {
    /// A net that participates in the cycle.
    pub net: NetId,
}

impl fmt::Display for CombinationalCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "combinational cycle through net {}", self.net)
    }
}

impl Error for CombinationalCycleError {}

/// A word-level RTL netlist: nets, gates, primary inputs and outputs.
///
/// The netlist is the common structure shared by the front end, the
/// simulator, the ATPG engine and the baselines. Gates are word-level
/// primitives ([`GateKind`]); every net has a fixed width.
///
/// # Examples
///
/// Build a comparator fed by an adder and inspect the structure:
///
/// ```
/// use wlac_netlist::{GateKind, Netlist};
/// use wlac_bv::Bv;
///
/// let mut nl = Netlist::new("demo");
/// let a = nl.input("a", 4);
/// let b = nl.input("b", 4);
/// let sum = nl.add(a, b);
/// let limit = nl.constant(&Bv::from_u64(4, 9));
/// let over = nl.gt(sum, limit);
/// nl.mark_output("over", over);
///
/// assert_eq!(nl.net_width(sum), 4);
/// assert_eq!(nl.net_width(over), 1);
/// assert_eq!(nl.stats().inputs, 8); // input *bits*: two 4-bit ports
/// assert!(nl.combinational_order().is_ok());
/// ```
///
/// The storage is copy-on-write: a clone costs O(1) and shares it with the
/// original until either side is modified, so a frozen design can be handed
/// to many checks, jobs and caches without copying its gates.
#[derive(Debug, Clone)]
pub struct Netlist {
    data: Arc<NetlistData>,
    /// Estimated number of HDL source lines for the design, used only for
    /// reporting Table 1 statistics.
    source_lines: usize,
}

/// The shared storage of a [`Netlist`].
#[derive(Debug, Clone)]
struct NetlistData {
    name: String,
    nets: Vec<NetInfo>,
    gates: Vec<Gate>,
    driver: Vec<Option<GateId>>,
    fanouts: Vec<Fanouts>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            data: Arc::new(NetlistData {
                name: name.into(),
                nets: Vec::new(),
                gates: Vec::new(),
                driver: Vec::new(),
                fanouts: Vec::new(),
                inputs: Vec::new(),
                outputs: Vec::new(),
            }),
            source_lines: 0,
        }
    }

    /// Write access to the storage, copying it first when it is shared
    /// with a clone.
    fn data_mut(&mut self) -> &mut NetlistData {
        Arc::make_mut(&mut self.data)
    }

    /// Releases the spare capacity of every buffer, for a netlist that is
    /// done being built. Storage shared with a clone is left as it is:
    /// compacting it would mean copying it.
    pub fn shrink_to_fit(&mut self) {
        let Some(data) = Arc::get_mut(&mut self.data) else {
            return;
        };
        data.name.shrink_to_fit();
        data.nets.shrink_to_fit();
        data.gates.shrink_to_fit();
        for gate in &mut data.gates {
            gate.inputs.shrink_to_fit();
        }
        data.driver.shrink_to_fit();
        data.fanouts.shrink_to_fit();
        for fanouts in &mut data.fanouts {
            fanouts.shrink_to_fit();
        }
        data.inputs.shrink_to_fit();
        data.outputs.shrink_to_fit();
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.data.name
    }

    /// Sets the estimated HDL line count reported by [`Netlist::stats`].
    pub fn set_source_lines(&mut self, lines: usize) {
        self.source_lines = lines;
    }

    /// Adds an anonymous net of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn add_net(&mut self, width: usize) -> NetId {
        self.add_named_net(width, None::<String>)
    }

    /// Adds a net with an optional name.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn add_named_net(&mut self, width: usize, name: Option<impl Into<String>>) -> NetId {
        assert!(width > 0, "net width must be positive");
        let data = self.data_mut();
        let id = NetId(data.nets.len() as u32);
        data.nets.push(NetInfo {
            width,
            name: name.map(Into::into),
        });
        data.driver.push(None);
        data.fanouts.push(Fanouts::new());
        id
    }

    /// Declares a primary input of the given width and returns its net.
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> NetId {
        let id = self.add_named_net(width, Some(name));
        self.data_mut().inputs.push(id);
        id
    }

    /// Marks a net as a primary output under the given name.
    pub fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.data_mut().outputs.push((name.into(), net));
    }

    /// Marks an existing, undriven net as a primary input.
    ///
    /// Used by the time-frame expansion, which first creates all per-frame
    /// nets and then declares the frame-0 flip-flop outputs and per-frame
    /// copies of the original inputs as inputs of the expanded circuit.
    ///
    /// # Panics
    ///
    /// Panics if the net already has a driver.
    pub fn mark_input(&mut self, net: NetId) {
        assert!(
            self.driver(net).is_none(),
            "net {net} already has a driver and cannot be an input"
        );
        if !self.data.inputs.contains(&net) {
            self.data_mut().inputs.push(net);
        }
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.data.nets.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.data.gates.len()
    }

    /// Width of a net.
    pub fn net_width(&self, net: NetId) -> usize {
        self.data.nets[net.index()].width
    }

    /// Name of a net, if any.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.data.nets[net.index()].name.as_deref()
    }

    /// Finds a net by name (inputs, outputs and named internal nets).
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.data
            .nets
            .iter()
            .position(|n| n.name.as_deref() == Some(name))
            .map(|i| NetId(i as u32))
            .or_else(|| {
                self.data
                    .outputs
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, id)| *id)
            })
    }

    /// The primary inputs in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.data.inputs
    }

    /// The primary outputs as `(name, net)` pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.data.outputs
    }

    /// The gate with the given id.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.data.gates[id.index()]
    }

    /// Iterator over `(GateId, &Gate)`.
    pub fn gates(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.data
            .gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// Iterator over all net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.data.nets.len() as u32).map(NetId)
    }

    /// The gate driving a net, or `None` for primary inputs and floating nets.
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.data.driver[net.index()]
    }

    /// The gates reading a net.
    pub fn fanouts(&self, net: NetId) -> &[GateId] {
        &self.data.fanouts[net.index()]
    }

    /// `true` when the net is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.driver(net).is_none() && self.data.inputs.contains(&net)
    }

    /// `true` when the net is single-bit, which is the paper's notion of a
    /// *control* signal (decision candidates are restricted to these).
    pub fn is_control_net(&self, net: NetId) -> bool {
        self.net_width(net) == 1
    }

    /// All flip-flop gates.
    pub fn flip_flops(&self) -> Vec<GateId> {
        self.gates()
            .filter(|(_, g)| g.kind.is_flip_flop())
            .map(|(id, _)| id)
            .collect()
    }

    /// Adds a gate after validating its shape (pin count and widths).
    ///
    /// Inputs are anything convertible into [`GateInputs`] — a `Vec`, a
    /// slice, or a fixed-size array (`[a, b]`), the latter avoiding a heap
    /// allocation for gates of up to [`GateInputs::INLINE`] pins.
    ///
    /// # Errors
    ///
    /// Returns [`GateShapeError`] when the pin count or widths are
    /// inconsistent for the gate kind, or when the output net already has a
    /// driver.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: impl Into<GateInputs>,
        output: NetId,
    ) -> Result<GateId, GateShapeError> {
        let inputs = inputs.into();
        self.validate_gate(&kind, &inputs, output)?;
        let id = GateId(self.data.gates.len() as u32);
        if self.data.driver[output.index()].is_some() {
            return Err(GateShapeError::new(format!(
                "net {output} already has a driver"
            )));
        }
        let data = self.data_mut();
        data.driver[output.index()] = Some(id);
        for input in &inputs {
            data.fanouts[input.index()].push(id);
        }
        data.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        Ok(id)
    }

    fn validate_gate(
        &self,
        kind: &GateKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<(), GateShapeError> {
        let w = |n: NetId| self.net_width(n);
        let out_w = w(output);
        let expect = |cond: bool, msg: String| -> Result<(), GateShapeError> {
            if cond {
                Ok(())
            } else {
                Err(GateShapeError::new(msg))
            }
        };
        match kind {
            GateKind::Const(v) => expect(
                inputs.is_empty() && v.width() == out_w,
                format!("const expects 0 inputs and width {out_w}"),
            ),
            GateKind::Not | GateKind::Buf => expect(
                inputs.len() == 1 && w(inputs[0]) == out_w,
                "unary gate expects one input of the output width".into(),
            ),
            GateKind::And | GateKind::Or | GateKind::Xor => expect(
                inputs.len() >= 2 && inputs.iter().all(|i| w(*i) == out_w),
                "n-ary bitwise gate expects >=2 inputs of the output width".into(),
            ),
            GateKind::ReduceAnd | GateKind::ReduceOr | GateKind::ReduceXor => expect(
                inputs.len() == 1 && out_w == 1,
                "reduction gate expects one input and a 1-bit output".into(),
            ),
            GateKind::Add | GateKind::Sub | GateKind::Mul => expect(
                inputs.len() == 2 && w(inputs[0]) == out_w && w(inputs[1]) == out_w,
                "arithmetic gate expects two inputs of the output width".into(),
            ),
            GateKind::Shl | GateKind::Shr => expect(
                inputs.len() == 2 && w(inputs[0]) == out_w,
                "shift gate expects [value, amount] with value of the output width".into(),
            ),
            GateKind::Eq
            | GateKind::Ne
            | GateKind::Lt
            | GateKind::Le
            | GateKind::Gt
            | GateKind::Ge => expect(
                inputs.len() == 2 && w(inputs[0]) == w(inputs[1]) && out_w == 1,
                "comparator expects two equal-width inputs and a 1-bit output".into(),
            ),
            GateKind::Mux => expect(
                inputs.len() == 3
                    && w(inputs[0]) == 1
                    && w(inputs[1]) == out_w
                    && w(inputs[2]) == out_w,
                "mux expects [sel(1), then, else] with data of the output width".into(),
            ),
            GateKind::Concat => expect(
                inputs.len() == 2 && w(inputs[0]) + w(inputs[1]) == out_w,
                "concat expects two inputs whose widths sum to the output width".into(),
            ),
            GateKind::Slice { lo } => expect(
                inputs.len() == 1 && lo + out_w <= w(inputs[0]),
                "slice range exceeds the input width".into(),
            ),
            GateKind::ZeroExt => expect(
                inputs.len() == 1 && w(inputs[0]) <= out_w,
                "zero extension expects a narrower input".into(),
            ),
            GateKind::Dff { init } => expect(
                inputs.len() == 1
                    && w(inputs[0]) == out_w
                    && init.as_ref().map(|v| v.width() == out_w).unwrap_or(true),
                "dff expects one data input of the output width".into(),
            ),
        }
    }

    // --- Convenience constructors -------------------------------------------------
    //
    // These create the output net and panic on shape errors; they are meant
    // for programmatic circuit construction where a width mismatch is a bug
    // in the construction code.

    /// Adds a constant gate and returns its output net.
    pub fn constant(&mut self, value: &Bv) -> NetId {
        let out = self.add_net(value.width());
        self.add_gate(GateKind::Const(value.clone()), GateInputs::new(), out)
            .expect("const gate");
        out
    }

    /// Single-bit constant.
    pub fn constant_bit(&mut self, b: bool) -> NetId {
        self.constant(&Bv::from_bool(b))
    }

    fn binary(&mut self, kind: GateKind, a: NetId, b: NetId, out_width: usize) -> NetId {
        let out = self.add_net(out_width);
        self.add_gate(kind, [a, b], out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Bitwise AND of two equal-width nets.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::And, a, b, w)
    }

    /// Bitwise AND of two or more equal-width nets.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two nets are supplied or widths differ.
    pub fn and_many(&mut self, nets: &[NetId]) -> NetId {
        assert!(nets.len() >= 2, "and_many needs at least two nets");
        let w = self.net_width(nets[0]);
        let out = self.add_net(w);
        self.add_gate(GateKind::And, nets, out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Bitwise OR of two equal-width nets.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Or, a, b, w)
    }

    /// Bitwise OR of two or more equal-width nets.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two nets are supplied or widths differ.
    pub fn or_many(&mut self, nets: &[NetId]) -> NetId {
        assert!(nets.len() >= 2, "or_many needs at least two nets");
        let w = self.net_width(nets[0]);
        let out = self.add_net(w);
        self.add_gate(GateKind::Or, nets, out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Bitwise XOR of two equal-width nets.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Xor, a, b, w)
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: NetId) -> NetId {
        let w = self.net_width(a);
        let out = self.add_net(w);
        self.add_gate(GateKind::Not, [a], out).expect("not gate");
        out
    }

    /// Identity buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        let w = self.net_width(a);
        let out = self.add_net(w);
        self.add_gate(GateKind::Buf, [a], out).expect("buf");
        out
    }

    /// Reduction OR (any bit set).
    pub fn reduce_or(&mut self, a: NetId) -> NetId {
        let out = self.add_net(1);
        self.add_gate(GateKind::ReduceOr, [a], out)
            .expect("reduce_or");
        out
    }

    /// Reduction AND (all bits set).
    pub fn reduce_and(&mut self, a: NetId) -> NetId {
        let out = self.add_net(1);
        self.add_gate(GateKind::ReduceAnd, [a], out)
            .expect("reduce_and");
        out
    }

    /// Reduction XOR (parity).
    pub fn reduce_xor(&mut self, a: NetId) -> NetId {
        let out = self.add_net(1);
        self.add_gate(GateKind::ReduceXor, [a], out)
            .expect("reduce_xor");
        out
    }

    /// Modular adder.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn add(&mut self, a: NetId, b: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Add, a, b, w)
    }

    /// Modular subtractor `a - b`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn sub(&mut self, a: NetId, b: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Sub, a, b, w)
    }

    /// Modular multiplier.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn mul(&mut self, a: NetId, b: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Mul, a, b, w)
    }

    /// Logical shift left by a net amount.
    pub fn shl(&mut self, a: NetId, amount: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Shl, a, amount, w)
    }

    /// Logical shift right by a net amount.
    pub fn shr(&mut self, a: NetId, amount: NetId) -> NetId {
        let w = self.net_width(a);
        self.binary(GateKind::Shr, a, amount, w)
    }

    /// Equality comparator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn eq(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(GateKind::Eq, a, b, 1)
    }

    /// Disequality comparator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn ne(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(GateKind::Ne, a, b, 1)
    }

    /// Unsigned less-than comparator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn lt(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(GateKind::Lt, a, b, 1)
    }

    /// Unsigned less-or-equal comparator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn le(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(GateKind::Le, a, b, 1)
    }

    /// Unsigned greater-than comparator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn gt(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(GateKind::Gt, a, b, 1)
    }

    /// Unsigned greater-or-equal comparator.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn ge(&mut self, a: NetId, b: NetId) -> NetId {
        self.binary(GateKind::Ge, a, b, 1)
    }

    /// Two-way multiplexor `sel ? then_value : else_value`.
    ///
    /// # Panics
    ///
    /// Panics if `sel` is not single-bit or the data widths differ.
    pub fn mux(&mut self, sel: NetId, then_value: NetId, else_value: NetId) -> NetId {
        let w = self.net_width(then_value);
        let out = self.add_net(w);
        self.add_gate(GateKind::Mux, [sel, then_value, else_value], out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Concatenation with `high` in the upper bits.
    pub fn concat(&mut self, high: NetId, low: NetId) -> NetId {
        let w = self.net_width(high) + self.net_width(low);
        self.binary(GateKind::Concat, high, low, w)
    }

    /// Bit slice `[lo, lo + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds the input width.
    pub fn slice(&mut self, a: NetId, lo: usize, width: usize) -> NetId {
        let out = self.add_net(width);
        self.add_gate(GateKind::Slice { lo }, [a], out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Single-bit extraction.
    pub fn bit(&mut self, a: NetId, index: usize) -> NetId {
        self.slice(a, index, 1)
    }

    /// Zero extension to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the input width.
    pub fn zext(&mut self, a: NetId, width: usize) -> NetId {
        let out = self.add_net(width);
        self.add_gate(GateKind::ZeroExt, [a], out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// D flip-flop with an optional initial value; returns the `q` output net.
    ///
    /// The data input may be connected later with [`Netlist::connect_dff_data`]
    /// to allow feedback loops; pass the eventual data net here when it is
    /// already known.
    pub fn dff(&mut self, d: NetId, init: Option<Bv>) -> NetId {
        let w = self.net_width(d);
        let out = self.add_net(w);
        self.add_gate(GateKind::Dff { init }, [d], out)
            .unwrap_or_else(|e| panic!("{e}"));
        out
    }

    /// Creates a flip-flop whose data input is connected later (for feedback
    /// paths). Returns `(q, placeholder_d)`: drive logic from `q`, then call
    /// [`Netlist::connect_dff_data`] with the real next-state net.
    pub fn dff_deferred(&mut self, width: usize, init: Option<Bv>) -> (NetId, GateId) {
        let d_placeholder = self.add_net(width);
        let out = self.add_net(width);
        let gate = self
            .add_gate(GateKind::Dff { init }, [d_placeholder], out)
            .expect("dff");
        (out, gate)
    }

    /// Re-points the data input of a deferred flip-flop to `data`.
    ///
    /// # Panics
    ///
    /// Panics if the gate is not a flip-flop or the widths differ.
    pub fn connect_dff_data(&mut self, dff: GateId, data: NetId) {
        assert!(
            self.data.gates[dff.index()].kind.is_flip_flop(),
            "gate {dff} is not a flip-flop"
        );
        assert_eq!(
            self.net_width(self.data.gates[dff.index()].output),
            self.net_width(data),
            "flip-flop data width mismatch"
        );
        let storage = self.data_mut();
        let old = storage.gates[dff.index()].inputs[0];
        storage.fanouts[old.index()].retain(|g| *g != dff);
        storage.gates[dff.index()].inputs[0] = data;
        storage.fanouts[data.index()].push(dff);
    }

    // --- Analysis ------------------------------------------------------------------

    /// Topological order of all non-flip-flop gates, treating primary inputs
    /// and flip-flop outputs as sources.
    ///
    /// # Errors
    ///
    /// Returns [`CombinationalCycleError`] when the combinational logic
    /// contains a cycle.
    pub fn combinational_order(&self) -> Result<Vec<GateId>, CombinationalCycleError> {
        let mut indegree = vec![0usize; self.data.gates.len()];
        for (gi, gate) in self.data.gates.iter().enumerate() {
            if gate.kind.is_flip_flop() {
                continue;
            }
            for input in &gate.inputs {
                if let Some(driver) = self.data.driver[input.index()] {
                    if !self.data.gates[driver.index()].kind.is_flip_flop() {
                        indegree[gi] += 1;
                    }
                }
            }
        }
        let mut queue: VecDeque<usize> = (0..self.data.gates.len())
            .filter(|i| !self.data.gates[*i].kind.is_flip_flop() && indegree[*i] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(gi) = queue.pop_front() {
            order.push(GateId(gi as u32));
            let out = self.data.gates[gi].output;
            for reader in &self.data.fanouts[out.index()] {
                let ri = reader.index();
                if self.data.gates[ri].kind.is_flip_flop() {
                    continue;
                }
                indegree[ri] -= 1;
                if indegree[ri] == 0 {
                    queue.push_back(ri);
                }
            }
        }
        let comb_total = self
            .data
            .gates
            .iter()
            .filter(|g| !g.kind.is_flip_flop())
            .count();
        if order.len() != comb_total {
            // Find a gate still blocked to report a cycle witness.
            let blocked = (0..self.data.gates.len())
                .find(|i| !self.data.gates[*i].kind.is_flip_flop() && indegree[*i] > 0)
                .map(|i| self.data.gates[i].output)
                .unwrap_or(NetId(0));
            return Err(CombinationalCycleError { net: blocked });
        }
        Ok(order)
    }

    /// Nets forming the control/datapath interface: comparator outputs
    /// (data-to-control) and multiplexor select inputs (control-to-data).
    pub fn interface_nets(&self) -> Vec<NetId> {
        let mut nets = Vec::new();
        for (_, gate) in self.gates() {
            if gate.kind.is_comparator() {
                nets.push(gate.output);
            }
            if gate.kind == GateKind::Mux {
                nets.push(gate.inputs[0]);
            }
        }
        nets.sort();
        nets.dedup();
        nets
    }

    /// Aggregate statistics in the shape of the paper's Table 1.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            name: self.data.name.clone(),
            lines: self.source_lines,
            gates: self
                .data
                .gates
                .iter()
                .filter(|g| !g.kind.is_flip_flop())
                .count(),
            flip_flop_bits: self
                .data
                .gates
                .iter()
                .filter(|g| g.kind.is_flip_flop())
                .map(|g| self.net_width(g.output))
                .sum(),
            inputs: self.data.inputs.iter().map(|n| self.net_width(*n)).sum(),
            outputs: self
                .data
                .outputs
                .iter()
                .map(|(_, n)| self.net_width(*n))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Netlist {
        let mut nl = Netlist::new("demo");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let sum = nl.add(a, b);
        let nine = nl.constant(&Bv::from_u64(4, 9));
        let over = nl.gt(sum, nine);
        nl.mark_output("over", over);
        nl
    }

    #[test]
    fn build_and_query() {
        let nl = demo();
        assert_eq!(nl.gate_count(), 3);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 1);
        let over = nl.outputs()[0].1;
        assert_eq!(nl.net_width(over), 1);
        assert!(nl.is_control_net(over));
        assert!(!nl.is_control_net(nl.inputs()[0]));
        assert_eq!(nl.find_net("a"), Some(nl.inputs()[0]));
        assert_eq!(nl.find_net("over"), Some(over));
        assert!(nl.find_net("missing").is_none());
    }

    #[test]
    fn drivers_and_fanouts() {
        let nl = demo();
        let a = nl.inputs()[0];
        assert!(nl.driver(a).is_none());
        assert_eq!(nl.fanouts(a).len(), 1);
        let over = nl.outputs()[0].1;
        let drv = nl.driver(over).unwrap();
        assert!(nl.gate(drv).kind.is_comparator());
    }

    #[test]
    fn clones_share_storage_until_one_is_modified() {
        let original = demo();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.data, &copy.data));
        let a = copy.inputs()[0];
        let extra = copy.add(a, a);
        copy.mark_output("extra", extra);
        assert!(!Arc::ptr_eq(&original.data, &copy.data));
        assert_eq!(original.gate_count(), 3);
        assert_eq!(original.outputs().len(), 1);
        assert_eq!(original.fanouts(a).len(), 1);
        assert_eq!(copy.gate_count(), 4);
        assert_eq!(copy.fanouts(a).len(), 3);
    }

    #[test]
    fn shrink_to_fit_keeps_the_structure() {
        let mut nl = demo();
        let before = format!("{:?}", nl.data);
        let shared = nl.clone();
        nl.shrink_to_fit(); // shared: left as it is
        assert!(Arc::ptr_eq(&nl.data, &shared.data));
        drop(shared);
        nl.shrink_to_fit();
        assert_eq!(nl.data.gates.capacity(), nl.gate_count());
        assert_eq!(nl.data.fanouts.capacity(), nl.net_count());
        assert_eq!(format!("{:?}", nl.data), before);
    }

    #[test]
    fn shape_validation() {
        let mut nl = Netlist::new("bad");
        let a = nl.input("a", 4);
        let b = nl.input("b", 8);
        let out = nl.add_net(4);
        assert!(nl.add_gate(GateKind::Add, vec![a, b], out).is_err());
        let out1 = nl.add_net(1);
        assert!(nl.add_gate(GateKind::Eq, vec![a, b], out1).is_err());
        // Output already driven.
        let c = nl.constant(&Bv::from_u64(4, 1));
        let drv = nl.driver(c).unwrap();
        assert!(nl.gate(drv).inputs.is_empty());
        assert!(nl
            .add_gate(GateKind::Const(Bv::from_u64(4, 2)), GateInputs::new(), c)
            .is_err());
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let nl = demo();
        let order = nl.combinational_order().unwrap();
        assert_eq!(order.len(), 3);
        let pos = |id: GateId| order.iter().position(|g| *g == id).expect("gate in order");
        // The comparator reads the adder output, so the adder must come first.
        let over = nl.outputs()[0].1;
        let cmp = nl.driver(over).unwrap();
        let sum_net = nl.gate(cmp).inputs[0];
        let adder = nl.driver(sum_net).unwrap();
        assert!(pos(adder) < pos(cmp));
    }

    #[test]
    fn flip_flop_feedback_is_not_a_cycle() {
        let mut nl = Netlist::new("counter");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let next = nl.add(q, one);
        nl.connect_dff_data(ff, next);
        nl.mark_output("count", q);
        assert!(nl.combinational_order().is_ok());
        assert_eq!(nl.flip_flops().len(), 1);
        assert_eq!(nl.stats().flip_flop_bits, 4);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("loop");
        let a = nl.input("a", 1);
        let fb = nl.add_net(1);
        let x = nl.add_net(1);
        nl.add_gate(GateKind::And, vec![a, fb], x).unwrap();
        nl.add_gate(GateKind::Buf, vec![x], fb).unwrap();
        assert!(nl.combinational_order().is_err());
    }

    #[test]
    fn interface_nets_collect_comparators_and_mux_selects() {
        let mut nl = Netlist::new("iface");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let sel = nl.lt(a, b);
        let m = nl.mux(sel, a, b);
        nl.mark_output("m", m);
        let iface = nl.interface_nets();
        assert_eq!(iface, vec![sel]);
    }

    #[test]
    fn stats_shape() {
        let mut nl = demo();
        nl.set_source_lines(52);
        let s = nl.stats();
        assert_eq!(s.name, "demo");
        assert_eq!(s.lines, 52);
        assert_eq!(s.gates, 3);
        assert_eq!(s.flip_flop_bits, 0);
        assert_eq!(s.inputs, 8);
        assert_eq!(s.outputs, 1);
    }
}
