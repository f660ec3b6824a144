//! DC operating-point analysis by modified nodal analysis.
//!
//! Power-grid decks have a restricted topology: resistive mesh, ideal
//! voltage-source **pads** referenced to ground, and ideal current-source
//! **loads**. Voltage sources are eliminated by pinning their node (keeping
//! the system symmetric positive definite so the workspace's sparse
//! Cholesky applies), which is exactly the structure the paper's Monte
//! Carlo re-solves thousands of times.

use std::error::Error;
use std::fmt;

use emgrid_sparse::{CsrMatrix, FactorOptions, SparseError, TripletMatrix};

use crate::lint::Dsu;
use crate::netlist::{Element, Netlist, Node};

/// Errors from building or solving the MNA system.
#[derive(Debug, Clone, PartialEq)]
pub enum MnaError {
    /// A voltage source connects two non-ground nodes (unsupported in the
    /// benchmark subset).
    UnsupportedSource(String),
    /// A node is pinned to two different voltages.
    ConflictingPins(String),
    /// A node has no resistive path to a pad or ground, so its voltage is
    /// undefined (the lowest-numbered such node is named).
    Floating(String),
    /// The linear solve failed: the conductance matrix is not numerically
    /// positive definite, or CG did not converge.
    Singular(SparseError),
    /// The deck has no unknowns to solve for.
    Empty,
}

impl fmt::Display for MnaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MnaError::UnsupportedSource(n) => {
                write!(f, "voltage source `{n}` must have one grounded terminal")
            }
            MnaError::ConflictingPins(n) => {
                write!(f, "node `{n}` pinned to conflicting voltages")
            }
            MnaError::Floating(n) => {
                write!(f, "node `{n}` has no resistive path to a pad or ground")
            }
            MnaError::Singular(e) => write!(f, "conductance matrix is singular: {e}"),
            MnaError::Empty => write!(f, "netlist has no solvable nodes"),
        }
    }
}

impl Error for MnaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MnaError::Singular(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for MnaError {
    fn from(e: SparseError) -> Self {
        MnaError::Singular(e)
    }
}

/// The assembled DC system of a netlist.
#[derive(Debug, Clone)]
pub struct DcAnalysis {
    /// Pinned voltage per node id (`None` = unknown).
    pinned: Vec<Option<f64>>,
    /// Unknown-vector index per node id.
    unknown_index: Vec<Option<usize>>,
    /// Node id per unknown index.
    unknown_node: Vec<u32>,
    matrix: CsrMatrix,
    rhs: Vec<f64>,
}

impl DcAnalysis {
    /// Builds the reduced conductance system for a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnsupportedSource`] or
    /// [`MnaError::ConflictingPins`] for malformed sources,
    /// [`MnaError::Empty`] when nothing is solvable, and
    /// [`MnaError::Floating`] when some unknown has no resistive path to a
    /// pinned node. That check is structural, so a floating island fails
    /// here whichever engine would have solved the system: the direct
    /// factor would meet a zero pivot, and CG would return an unloaded
    /// island's zero start as its voltage (or not converge on a loaded
    /// one).
    pub fn new(netlist: &Netlist) -> Result<Self, MnaError> {
        let nn = netlist.node_count();
        let mut pinned: Vec<Option<f64>> = vec![None; nn];

        // Pass 1: voltage sources pin nodes.
        for (index, e) in netlist.elements().iter().enumerate() {
            if let Element::VoltageSource { pos, neg, value } = e {
                let (node, v) = match (pos, neg) {
                    (Node::Id(i), Node::Ground) => (*i, *value),
                    (Node::Ground, Node::Id(i)) => (*i, -*value),
                    (Node::Ground, Node::Ground) => continue,
                    _ => {
                        return Err(MnaError::UnsupportedSource(
                            netlist.element_name(index).to_owned(),
                        ))
                    }
                };
                let slot = &mut pinned[node as usize];
                match slot {
                    Some(existing) if (*existing - v).abs() > 1e-12 => {
                        return Err(MnaError::ConflictingPins(
                            netlist.node_name(node).to_owned(),
                        ))
                    }
                    _ => *slot = Some(v),
                }
            }
        }

        // Pass 2: number unknowns.
        let mut unknown_index = vec![None; nn];
        let mut unknown_node = Vec::new();
        for id in 0..nn {
            if pinned[id].is_none() {
                unknown_index[id] = Some(unknown_node.len());
                unknown_node.push(id as u32);
            }
        }
        if unknown_node.is_empty() {
            return Err(MnaError::Empty);
        }
        let n = unknown_node.len();

        // Pass 3: stamp.
        let mut g = TripletMatrix::with_capacity(n, n, netlist.elements().len() * 4);
        let mut rhs = vec![0.0f64; n];
        // Ensure every unknown appears on the diagonal (possibly zero) so
        // the factorization reports dangling nodes as non-PD pivots rather
        // than panicking on pattern holes.
        for i in 0..n {
            g.push(i, i, 0.0);
        }
        let classify = |node: Node| -> NodeClass {
            match node {
                Node::Ground => NodeClass::Fixed(0.0),
                Node::Id(i) => match pinned[i as usize] {
                    Some(v) => NodeClass::Fixed(v),
                    None => NodeClass::Unknown(unknown_index[i as usize].expect("numbered")),
                },
            }
        };
        // Components of the conducting graph over the unknowns, with slot
        // `n` standing for every pinned node (and ground).
        let mut islands = Dsu::new(n + 1);
        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b, value, .. } => {
                    let cond = 1.0 / value;
                    match (classify(*a), classify(*b)) {
                        (NodeClass::Unknown(i), NodeClass::Unknown(j)) => {
                            g.push(i, i, cond);
                            g.push(j, j, cond);
                            g.push(i, j, -cond);
                            g.push(j, i, -cond);
                            if cond != 0.0 {
                                islands.union(i, j);
                            }
                        }
                        (NodeClass::Unknown(i), NodeClass::Fixed(v))
                        | (NodeClass::Fixed(v), NodeClass::Unknown(i)) => {
                            g.push(i, i, cond);
                            rhs[i] += cond * v;
                            if cond != 0.0 {
                                islands.union(i, n);
                            }
                        }
                        (NodeClass::Fixed(_), NodeClass::Fixed(_)) => {}
                    }
                }
                Element::CurrentSource {
                    pos, neg, value, ..
                } => {
                    if let NodeClass::Unknown(i) = classify(*pos) {
                        rhs[i] -= value;
                    }
                    if let NodeClass::Unknown(i) = classify(*neg) {
                        rhs[i] += value;
                    }
                }
                Element::VoltageSource { .. } => {}
            }
        }
        let anchored = islands.find(n);
        if let Some(i) = (0..n).find(|&i| islands.find(i) != anchored) {
            return Err(MnaError::Floating(
                netlist.node_name(unknown_node[i]).to_owned(),
            ));
        }

        Ok(DcAnalysis {
            pinned,
            unknown_index,
            unknown_node,
            matrix: g.to_csr(),
            rhs,
        })
    }

    /// The reduced SPD conductance matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The reduced right-hand side.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// Number of unknown node voltages.
    pub fn unknown_count(&self) -> usize {
        self.unknown_node.len()
    }

    /// The unknown-vector index of a node, `None` for pinned/ground nodes.
    pub fn unknown_index(&self, node: Node) -> Option<usize> {
        node.id().and_then(|i| self.unknown_index[i as usize])
    }

    /// The pinned voltage of a node (`Some` for pads and ground).
    pub fn pinned_voltage(&self, node: Node) -> Option<f64> {
        match node {
            Node::Ground => Some(0.0),
            Node::Id(i) => self.pinned[i as usize],
        }
    }

    /// Solves the system with the engine picked by problem size: the direct
    /// factorization up to [`emgrid_sparse::method::AUTO_DIRECT_LIMIT`]
    /// unknowns, AMG-preconditioned CG above it — a chip-scale grid's
    /// operating point stays `O(nnz)` in time and memory instead of paying
    /// a million-unknown factor's fill. Both engines are deterministic for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] when either engine fails (a
    /// non-positive pivot, or CG not converging).
    pub fn solve(&self) -> Result<DcSolution, MnaError> {
        let x = emgrid_sparse::solve_spd(
            &self.matrix,
            &self.rhs,
            emgrid_sparse::Method::Auto,
            &FactorOptions::default(),
            &emgrid_sparse::CgOptions::default(),
        )?;
        Ok(self.solution_from_unknowns(&x))
    }

    /// Assembles a [`DcSolution`] from an externally-computed unknown vector
    /// (used by incremental re-solvers).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.unknown_count()`.
    pub fn solution_from_unknowns(&self, x: &[f64]) -> DcSolution {
        assert_eq!(x.len(), self.unknown_count(), "unknown vector length");
        let mut voltages = vec![0.0f64; self.pinned.len()];
        for (id, v) in voltages.iter_mut().enumerate() {
            *v = match self.pinned[id] {
                Some(pin) => pin,
                None => x[self.unknown_index[id].expect("unknown numbered")],
            };
        }
        DcSolution { voltages }
    }
}

enum NodeClass {
    Unknown(usize),
    Fixed(f64),
}

/// Node voltages of a solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    voltages: Vec<f64>,
}

impl DcSolution {
    /// Voltage at a node.
    pub fn voltage(&self, node: Node) -> f64 {
        match node {
            Node::Ground => 0.0,
            Node::Id(i) => self.voltages[i as usize],
        }
    }

    /// Voltage by interned node id.
    pub fn voltage_of(&self, node: Node) -> f64 {
        self.voltage(node)
    }

    /// All node voltages, indexed by interned id.
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current through a resistor element, positive from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `element` is not a resistor.
    pub fn resistor_current(&self, element: &Element) -> f64 {
        match element {
            Element::Resistor { a, b, value, .. } => (self.voltage(*a) - self.voltage(*b)) / value,
            _ => panic!("element is not a resistor"),
        }
    }

    /// Minimum voltage over all interned nodes (worst supply level).
    pub fn min_voltage(&self) -> f64 {
        self.voltages.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn voltage_divider() {
        let n = parse("V1 a 0 2.0\nR1 a b 1k\nR2 b 0 3k\n").unwrap();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        let b = n.node_id("b").unwrap();
        assert!((s.voltage(b) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ladder_ir_drop_is_quadratic() {
        // Pad at one end, uniform loads: drop follows the discrete
        // quadratic profile; check endpoint value against hand calculation.
        // 3 segments of 1Ω, loads 1 mA at each of 3 interior nodes.
        let deck = "\
V1 p 0 1.0
Rp p n1 1.0
R1 n1 n2 1.0
R2 n2 n3 1.0
I1 n1 0 0.001
I2 n2 0 0.001
I3 n3 0 0.001
";
        let n = parse(deck).unwrap();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        // Segment currents: 3mA, 2mA, 1mA → cumulative drops 3,5,6 mV.
        let v = |name: &str| s.voltage(n.node_id(name).unwrap());
        assert!((v("n1") - 0.997).abs() < 1e-12);
        assert!((v("n2") - 0.995).abs() < 1e-12);
        assert!((v("n3") - 0.994).abs() < 1e-12);
        assert!((s.min_voltage() - 0.994).abs() < 1e-12);
    }

    #[test]
    fn resistor_current_signs() {
        let n = parse("V1 a 0 1.0\nR1 a b 2.0\nR2 b 0 2.0\n").unwrap();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        let (_, r) = n.resistors().next().unwrap();
        assert!((s.resistor_current(r) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn floating_island_is_reported_by_name() {
        // `c`–`d` conduct only between themselves; `e` is touched by a
        // load alone. Both float; the first island is named.
        let n = parse("V1 a 0 1.0\nR1 a b 1.0\nR2 c d 1.0\nI1 e 0 1m\n").unwrap();
        let err = DcAnalysis::new(&n).unwrap_err();
        assert_eq!(err, MnaError::Floating("c".into()));
        assert_eq!(
            err.to_string(),
            "node `c` has no resistive path to a pad or ground"
        );
        let n = parse("V1 a 0 1.0\nR1 a b 1.0\nI1 e 0 1m\n").unwrap();
        assert_eq!(
            DcAnalysis::new(&n).unwrap_err(),
            MnaError::Floating("e".into())
        );
        // A chain reaching a pad only through other unknowns is anchored.
        let n = parse("V1 a 0 1.0\nR1 b c 1.0\nR2 c d 1.0\nR3 d a 1.0\n").unwrap();
        assert!(DcAnalysis::new(&n).is_ok());
    }

    #[test]
    fn vsource_between_nodes_rejected() {
        let n = parse("V1 a b 1.0\nR1 a 0 1.0\nR2 b 0 1.0\n").unwrap();
        let err = DcAnalysis::new(&n).unwrap_err();
        assert!(matches!(err, MnaError::UnsupportedSource(_)));
    }

    #[test]
    fn conflicting_pins_rejected() {
        let n = parse("V1 a 0 1.0\nV2 a 0 2.0\nR1 a 0 1.0\n").unwrap();
        let err = DcAnalysis::new(&n).unwrap_err();
        assert!(matches!(err, MnaError::ConflictingPins(_)));
    }

    #[test]
    fn duplicate_consistent_pins_allowed() {
        let n = parse("V1 a 0 1.0\nV2 a 0 1.0\nR1 a b 1.0\nR2 b 0 1.0\n").unwrap();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        assert!((s.voltage(n.node_id("b").unwrap()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reversed_vsource_pins_negative() {
        let n = parse("V1 0 a 1.5\nR1 a b 1.0\nR2 b 0 1.0\n").unwrap();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        assert!((s.voltage(n.node_id("a").unwrap()) + 1.5).abs() < 1e-12);
    }

    #[test]
    fn all_pinned_deck_is_empty() {
        let n = parse("V1 a 0 1.0\nR1 a 0 1.0\n").unwrap();
        assert!(matches!(DcAnalysis::new(&n), Err(MnaError::Empty)));
    }

    #[test]
    fn superposition_of_current_sources() {
        // Linearity: doubling all loads doubles every drop.
        let deck_1 = "V1 p 0 1.0\nR1 p a 1.0\nR2 a b 1.0\nI1 b 0 0.001\n";
        let deck_2 = "V1 p 0 1.0\nR1 p a 1.0\nR2 a b 1.0\nI1 b 0 0.002\n";
        let n1 = parse(deck_1).unwrap();
        let n2 = parse(deck_2).unwrap();
        let s1 = DcAnalysis::new(&n1).unwrap().solve().unwrap();
        let s2 = DcAnalysis::new(&n2).unwrap().solve().unwrap();
        let d1 = 1.0 - s1.voltage(n1.node_id("b").unwrap());
        let d2 = 1.0 - s2.voltage(n2.node_id("b").unwrap());
        assert!((d2 / d1 - 2.0).abs() < 1e-9);
    }
}
