//! The bond relation (`BD` in the paper's queries).

use bondlab::{Bond, BondUniverse};

/// The bonds a query ranges over: one row per bond, in insertion order.
#[derive(Clone, Debug)]
pub struct BondRelation {
    bonds: Vec<Bond>,
}

impl BondRelation {
    /// Builds the relation from a universe.
    #[must_use]
    pub fn from_universe(universe: &BondUniverse) -> Self {
        Self::from_bonds(universe.bonds().to_vec())
    }

    /// Builds the relation from an explicit bond list (catalog-defined
    /// relations, where bonds arrive over the wire instead of from a
    /// seeded universe).
    #[must_use]
    pub fn from_bonds(bonds: Vec<Bond>) -> Self {
        Self { bonds }
    }

    /// Appends one bond (the catalog's `ADD BOND`).
    pub fn push(&mut self, bond: Bond) {
        self.bonds.push(bond);
    }

    /// The underlying bonds (the model arguments).
    #[must_use]
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// Cardinality.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bonds.len()
    }

    /// Whether the relation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bonds.is_empty()
    }
}
