//! Strongly-typed identifiers for nets and gates.

use std::fmt;

/// Identifier of a net (a named, fixed-width signal) inside a [`crate::Netlist`].
///
/// The default id is index 0; it only fills unused inline list slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index of the net, usable to index per-net side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NetId` from a raw index.
    ///
    /// Intended for side tables that were created from [`NetId::index`];
    /// passing an index that does not belong to the owning netlist results in
    /// panics or wrong answers on later lookups.
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate (an instance of a word-level primitive).
///
/// The default id is index 0; it only fills unused inline list slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Raw index of the gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `GateId` from a raw index (see [`NetId::from_index`]).
    pub fn from_index(index: usize) -> Self {
        GateId(index as u32)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index_roundtrip() {
        let n = NetId::from_index(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.to_string(), "n7");
        let g = GateId::from_index(3);
        assert_eq!(g.index(), 3);
        assert_eq!(g.to_string(), "g3");
    }
}
