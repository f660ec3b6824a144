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

use emgrid_sparse::{
    solve_spd, CgOptions, CsrMatrix, FactorOptions, Method, Ordering, SparseError,
};

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

        let classify = |node: Node| -> NodeClass {
            match node {
                Node::Ground => NodeClass::Fixed(0.0),
                Node::Id(i) => match pinned[i as usize] {
                    Some(v) => NodeClass::Fixed(v),
                    None => NodeClass::Unknown(unknown_index[i as usize].expect("numbered")),
                },
            }
        };
        // Pass 3: count each row's entries: its diagonal slot (kept even
        // when zero, so the factorization reports a dangling node as a
        // non-PD pivot rather than panicking on a pattern hole) and one
        // off-diagonal entry per resistor to another unknown.
        let mut row_ptr = vec![0usize; n + 1];
        for e in netlist.elements() {
            if let Element::Resistor { a, b, .. } = e {
                if let (NodeClass::Unknown(i), NodeClass::Unknown(j)) = (classify(*a), classify(*b))
                {
                    if i != j {
                        row_ptr[i + 1] += 1;
                        row_ptr[j + 1] += 1;
                    }
                }
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i] + 1;
        }

        // Pass 4: stamp in element order. A row's diagonal slot comes first
        // and sums its conductances in place, starting from zero; its
        // off-diagonals follow in arrival order, and a repeated column
        // (parallel resistors) sums in that order when the row is sorted
        // (`CsrMatrix::from_unsorted_rows`). Every entry is the same sum,
        // in the same order, as stamping each contribution separately.
        let mut col_idx = vec![0u32; row_ptr[n]];
        let mut values = vec![0.0f64; row_ptr[n]];
        let mut next: Vec<usize> = row_ptr[..n].iter().map(|&p| p + 1).collect();
        for i in 0..n {
            col_idx[row_ptr[i]] = i as u32;
        }
        let mut stamp = |row: usize, col: usize, v: f64| {
            if row == col {
                values[row_ptr[row]] += v;
            } else {
                col_idx[next[row]] = col as u32;
                values[next[row]] = v;
                next[row] += 1;
            }
        };
        let mut rhs = vec![0.0f64; n];
        // Components of the conducting graph over the unknowns, with slot
        // `n` standing for every pinned node (and ground).
        let mut islands = Dsu::new(n + 1);
        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b, value, .. } => {
                    let cond = 1.0 / value;
                    match (classify(*a), classify(*b)) {
                        (NodeClass::Unknown(i), NodeClass::Unknown(j)) => {
                            stamp(i, i, cond);
                            stamp(j, j, cond);
                            stamp(i, j, -cond);
                            stamp(j, i, -cond);
                            if cond != 0.0 {
                                islands.union(i, j);
                            }
                        }
                        (NodeClass::Unknown(i), NodeClass::Fixed(v))
                        | (NodeClass::Fixed(v), NodeClass::Unknown(i)) => {
                            stamp(i, i, cond);
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
            matrix: CsrMatrix::from_unsorted_rows(n, n, row_ptr, col_idx, values),
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

    /// Solves the system with the engine `method` resolves to
    /// ([`solve_spd`]): the direct factorization under `ordering`, or
    /// AMG-preconditioned CG to the default 1e-10 relative residual. Both
    /// run on one thread and are deterministic, and the thread count of
    /// either engine never changes a bit of its result.
    ///
    /// CG starts every unknown at the highest fixed voltage (the supply of
    /// a power grid, ground included), not at zero: a grid's nodes sit
    /// within its IR drop of the supply, so the start's error is a few
    /// percent of a zero start's, and the relative-residual target is met
    /// 4–5 AMG-CG iterations sooner on chip-scale grids (pg100k 18 → 14,
    /// the 270k-unknown stack 22 → 17).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] when the engine fails (a
    /// non-positive pivot, or CG not converging).
    pub fn solve_with(&self, method: Method, ordering: Ordering) -> Result<DcSolution, MnaError> {
        let n = self.unknown_count();
        let start = (method.resolve(n) == Method::Cg).then(|| {
            let supply = self.pinned.iter().flatten().copied().fold(0.0, f64::max);
            vec![supply; n]
        });
        let x = solve_spd(
            &self.matrix,
            &self.rhs,
            start.as_deref(),
            method,
            &FactorOptions::default().with_ordering(ordering),
            &CgOptions::default(),
        )?;
        Ok(self.solution_from_unknowns(&x))
    }

    /// The default engine (`auto` under AMD), for tests.
    #[cfg(test)]
    pub(crate) fn solve(&self) -> Result<DcSolution, MnaError> {
        self.solve_with(Method::Auto, Ordering::Amd)
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
    use crate::benchgen::GridSpec;
    use crate::parser::parse;
    use crate::writer::write_string;
    use emgrid_sparse::TripletMatrix;

    /// The triplet assembly that stamping straight into CSR replaced: a
    /// zero diagonal per unknown, then four triplets per resistor between
    /// unknowns and one per resistor end at a pin, summed by
    /// `TripletMatrix::to_csr`.
    fn triplet_system(netlist: &Netlist, dc: &DcAnalysis) -> (CsrMatrix, Vec<f64>) {
        let n = dc.unknown_count();
        let mut g = TripletMatrix::new(n, n);
        let mut rhs = vec![0.0f64; n];
        for i in 0..n {
            g.push(i, i, 0.0);
        }
        let pin = |node: Node| dc.pinned_voltage(node).expect("pinned");
        for e in netlist.elements() {
            match e {
                Element::Resistor { a, b, value, .. } => {
                    let cond = 1.0 / value;
                    match (dc.unknown_index(*a), dc.unknown_index(*b)) {
                        (Some(i), Some(j)) => {
                            g.push(i, i, cond);
                            g.push(j, j, cond);
                            g.push(i, j, -cond);
                            g.push(j, i, -cond);
                        }
                        (Some(i), None) => {
                            g.push(i, i, cond);
                            rhs[i] += cond * pin(*b);
                        }
                        (None, Some(j)) => {
                            g.push(j, j, cond);
                            rhs[j] += cond * pin(*a);
                        }
                        (None, None) => {}
                    }
                }
                Element::CurrentSource {
                    pos, neg, value, ..
                } => {
                    if let Some(i) = dc.unknown_index(*pos) {
                        rhs[i] -= value;
                    }
                    if let Some(i) = dc.unknown_index(*neg) {
                        rhs[i] += value;
                    }
                }
                Element::VoltageSource { .. } => {}
            }
        }
        (g.to_csr(), rhs)
    }

    #[test]
    fn csr_stamping_matches_the_triplet_build_bit_for_bit() {
        // Generated grids (pads pin the top-layer perimeter through their
        // contact resistors), plus parallel resistors in both orientations,
        // a self-loop, resistors to a pad and to ground, and a hub node with
        // 3 parallel triples and 18 more branches: 23 entries in its row
        // before summing (its diagonal already summed in place from 27
        // stamps) and 18 after, where any reordering of a sum would show in
        // its bits.
        let mut extra = String::from(
            "Rpar1 n1_1_1 n1_2_1 3.0\nRpar2 n1_2_1 n1_1_1 7.0\nRpar3 n1_1_1 n1_2_1 0.3\n\
             Rself n1_2_1 n1_2_1 4.0\nRpin n1_3_3 pad_0 5.0\nRgnd n1_2_2 0 100\n\
             Ihub hub 0 1m\n",
        );
        for (k, r) in [1.1, 2.3, 3.7].iter().enumerate() {
            for node in ["n1_0_0", "n3_1_2", "pad_1"] {
                extra.push_str(&format!("Rh{k}{node} hub {node} {r}\n"));
            }
        }
        for x in 0..4 {
            for y in 0..4 {
                extra.push_str(&format!(
                    "Rs{x}{y} n1_{x}_{y} hub {}\n",
                    0.7 + 0.13 * (x * 4 + y) as f64
                ));
            }
        }
        extra.push_str("Rsg hub 0 17.0\nRsp pad_2 hub 0.9\n");
        for spec in [
            GridSpec::custom("t", 6, 5),
            GridSpec::pg1(),
            GridSpec {
                layers: 3,
                ..GridSpec::custom("stack", 9, 7)
            },
        ] {
            let deck = write_string(&spec.generate());
            for text in [deck.clone(), format!("{deck}{extra}")] {
                let netlist = parse(&text).unwrap();
                let dc = DcAnalysis::new(&netlist).unwrap();
                let (matrix, rhs) = triplet_system(&netlist, &dc);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let label = &spec.name;
                assert_eq!(dc.matrix().row_ptr(), matrix.row_ptr(), "{label}");
                assert_eq!(dc.matrix().col_idx(), matrix.col_idx(), "{label}");
                assert_eq!(bits(dc.matrix().values()), bits(matrix.values()), "{label}");
                assert_eq!(bits(dc.rhs()), bits(&rhs), "{label}");
            }
        }
        let netlist = parse(&format!(
            "{}{extra}",
            write_string(&GridSpec::custom("t", 6, 5).generate())
        ))
        .unwrap();
        let dc = DcAnalysis::new(&netlist).unwrap();
        let hub = dc.unknown_index(netlist.node_id("hub").unwrap()).unwrap();
        let row = dc.matrix().row_ptr()[hub]..dc.matrix().row_ptr()[hub + 1];
        assert_eq!(row.len(), 18, "the hub's entries after summing");
    }

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
    fn cg_starts_at_the_supply_voltage() {
        // Without loads every node sits at the pad voltage, which is where
        // CG starts: it stops before its first iteration, exactly there,
        // while the direct engine lands within rounding of it.
        let n = parse("V1 p 0 1.2\nR1 p a 1.0\nR2 a b 3.0\nR3 b c 0.5\n").unwrap();
        let dc = DcAnalysis::new(&n).unwrap();
        let s = dc.solve_with(Method::Cg, Ordering::Amd).unwrap();
        for node in ["a", "b", "c"] {
            assert_eq!(s.voltage(n.node_id(node).unwrap()), 1.2, "{node}");
        }
        let d = dc.solve_with(Method::Direct, Ordering::Amd).unwrap();
        assert!((d.voltage(n.node_id("c").unwrap()) - 1.2).abs() < 1e-12);
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
