//! GO term identity and metadata.

use std::fmt;

/// Dense index of a term within an [`crate::OntologyDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The three GO namespaces (aspects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Namespace {
    /// `biological_process`
    #[default]
    BiologicalProcess,
    /// `molecular_function`
    MolecularFunction,
    /// `cellular_component`
    CellularComponent,
}

impl Namespace {
    /// The OBO spelling of the namespace.
    pub fn as_obo(&self) -> &'static str {
        match self {
            Namespace::BiologicalProcess => "biological_process",
            Namespace::MolecularFunction => "molecular_function",
            Namespace::CellularComponent => "cellular_component",
        }
    }
}

impl fmt::Display for Namespace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_obo())
    }
}

/// One ontology term.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// Accession, e.g. `GO:0006950`.
    pub accession: String,
    /// Human-readable name, e.g. `response to stress`.
    pub name: String,
    /// Namespace / aspect.
    pub namespace: Namespace,
    /// Optional definition text.
    pub definition: String,
    /// Obsolete terms are kept for accession stability but excluded from
    /// traversal and enrichment.
    pub obsolete: bool,
}

impl Term {
    /// Convenience constructor for a non-obsolete term with empty definition.
    pub fn new(
        accession: impl Into<String>,
        name: impl Into<String>,
        namespace: Namespace,
    ) -> Self {
        Term {
            accession: accession.into(),
            name: name.into(),
            namespace,
            definition: String::new(),
            obsolete: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_obo() {
        assert_eq!(
            Namespace::MolecularFunction.to_string(),
            "molecular_function"
        );
    }

    #[test]
    fn term_new_defaults() {
        let t = Term::new(
            "GO:0006950",
            "response to stress",
            Namespace::BiologicalProcess,
        );
        assert!(!t.obsolete);
        assert!(t.definition.is_empty());
        assert_eq!(t.accession, "GO:0006950");
    }

    #[test]
    fn term_id_index() {
        assert_eq!(TermId(7).index(), 7);
    }
}
