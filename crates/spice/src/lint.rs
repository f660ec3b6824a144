//! Netlist validation and repair.
//!
//! The paper notes (§5.2) that *"the via connections in some of the
//! original circuit netlists are short-circuited, implying the vias are
//! represented by zero resistance. We have modified the netlist to alter
//! the resistance of the vias according to the nominal resistance value"*.
//! [`repair_shorted_vias`] automates exactly that retrofit, and [`lint`]
//! surfaces the structural problems a deck can have before DC analysis:
//! floating nodes, unreachable subnetworks, duplicate instance names and
//! suspicious via resistances.

use std::collections::HashMap;

use crate::netlist::{Element, Netlist, Node};

/// A problem found in a netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum LintIssue {
    /// A node is touched only by current sources: its voltage is undefined.
    FloatingNode {
        /// Node name.
        node: String,
    },
    /// A resistive island with no path to any pad or ground.
    UnreachableIsland {
        /// A representative node of the island.
        representative: String,
        /// Number of nodes in the island.
        nodes: usize,
    },
    /// Two elements share an instance name.
    DuplicateName {
        /// The repeated name.
        name: String,
    },
    /// An inter-layer (via) resistor whose value is suspiciously small —
    /// the "short-circuited via" case the paper repairs.
    ShortedVia {
        /// Element name.
        name: String,
        /// Its resistance, Ω.
        value: f64,
    },
    /// A voltage source of zero volts (usually a netlist bug).
    ZeroVoltSource {
        /// Element name.
        name: String,
    },
}

impl std::fmt::Display for LintIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintIssue::FloatingNode { node } => write!(f, "floating node `{node}`"),
            LintIssue::UnreachableIsland {
                representative,
                nodes,
            } => write!(
                f,
                "{nodes} nodes around `{representative}` unreachable from any pad"
            ),
            LintIssue::DuplicateName { name } => write!(f, "duplicate element name `{name}`"),
            LintIssue::ShortedVia { name, value } => {
                write!(f, "via `{name}` nearly shorted ({value:e} ohm)")
            }
            LintIssue::ZeroVoltSource { name } => write!(f, "zero-volt source `{name}`"),
        }
    }
}

/// Threshold below which an inter-layer resistor counts as shorted, Ω.
pub const SHORTED_VIA_THRESHOLD: f64 = 1e-3;

/// Scans a netlist for structural problems.
pub fn lint(netlist: &Netlist) -> Vec<LintIssue> {
    let nn = netlist.node_count();
    let mut issues = Vec::new();
    // Each name's first element index and use count.
    let mut names: HashMap<&str, (usize, usize)> = HashMap::new();
    let mut touched_resistively = vec![false; nn];
    let mut touched = vec![false; nn];
    let mut dsu = Dsu::new(nn + 1); // extra slot for ground/pads
    let ground = nn;

    for (index, e) in netlist.elements().iter().enumerate() {
        let name = netlist.element_name(index);
        names.entry(name).or_insert((index, 0)).1 += 1;
        match e {
            Element::Resistor { a, b, value } => {
                for n in [a, b] {
                    if let Some(i) = n.id() {
                        touched_resistively[i as usize] = true;
                        touched[i as usize] = true;
                    }
                }
                let ia = a.id().map_or(ground, |i| i as usize);
                let ib = b.id().map_or(ground, |i| i as usize);
                dsu.union(ia, ib);
                if is_via(netlist, *a, *b) && *value < SHORTED_VIA_THRESHOLD {
                    issues.push(LintIssue::ShortedVia {
                        name: name.to_owned(),
                        value: *value,
                    });
                }
            }
            Element::VoltageSource { pos, neg, value } => {
                for n in [pos, neg] {
                    if let Some(i) = n.id() {
                        touched[i as usize] = true;
                        touched_resistively[i as usize] = true;
                        // A pinned node is as good as grounded for
                        // reachability.
                        dsu.union(i as usize, ground);
                    }
                }
                if *value == 0.0 {
                    issues.push(LintIssue::ZeroVoltSource {
                        name: name.to_owned(),
                    });
                }
            }
            Element::CurrentSource { pos, neg, .. } => {
                for n in [pos, neg] {
                    if let Some(i) = n.id() {
                        touched[i as usize] = true;
                    }
                }
            }
        }
    }

    // Duplicates in the order each name first appears in the deck: the
    // table's iteration order changes from one call to the next.
    let mut duplicates: Vec<(usize, &str)> = names
        .into_iter()
        .filter(|&(_, (_, count))| count > 1)
        .map(|(name, (first, _))| (first, name))
        .collect();
    duplicates.sort_unstable();
    for (_, name) in duplicates {
        issues.push(LintIssue::DuplicateName {
            name: name.to_owned(),
        });
    }
    #[allow(clippy::needless_range_loop)]
    for i in 0..nn {
        if touched[i] && !touched_resistively[i] {
            issues.push(LintIssue::FloatingNode {
                node: netlist.node_name(i as u32).to_owned(),
            });
        }
    }
    // Islands: resistively-touched nodes not connected to ground/pads.
    let mut island_sizes: HashMap<usize, (usize, u32)> = HashMap::new();
    let ground_root = dsu.find(ground);
    #[allow(clippy::needless_range_loop)]
    for i in 0..nn {
        if touched_resistively[i] {
            let root = dsu.find(i);
            if root != ground_root {
                let entry = island_sizes.entry(root).or_insert((0, i as u32));
                entry.0 += 1;
            }
        }
    }
    let mut islands: Vec<_> = island_sizes.into_values().collect();
    islands.sort_by_key(|&(_, rep)| rep);
    for (nodes, rep) in islands {
        issues.push(LintIssue::UnreachableIsland {
            representative: netlist.node_name(rep).to_owned(),
            nodes,
        });
    }
    issues
}

/// Sets every shorted inter-layer resistor to `nominal` Ω (the paper's
/// retrofit); returns how many were repaired.
pub fn repair_shorted_vias(netlist: &mut Netlist, nominal: f64) -> usize {
    // Collect indices first to sidestep the borrow on `netlist`.
    let shorted: Vec<usize> = netlist
        .elements()
        .iter()
        .enumerate()
        .filter_map(|(idx, e)| match e {
            Element::Resistor { a, b, value }
                if *value < SHORTED_VIA_THRESHOLD && is_via(netlist, *a, *b) =>
            {
                Some(idx)
            }
            _ => None,
        })
        .collect();
    let count = shorted.len();
    for idx in shorted {
        if let Element::Resistor { value, .. } = &mut netlist.elements_mut()[idx] {
            *value = nominal;
        }
    }
    count
}

/// Whether a resistor joins nodes on different metal layers.
fn is_via(netlist: &Netlist, a: Node, b: Node) -> bool {
    let (Some(ia), Some(ib)) = (a.id(), b.id()) else {
        return false;
    };
    match (netlist.node_layer(ia), netlist.node_layer(ib)) {
        (Some(x), Some(y)) => x != y,
        _ => false,
    }
}

/// Minimal union-find (shared with the MNA builder's floating-island
/// check).
pub(crate) struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn clean_generated_deck_lints_clean() {
        let n = crate::benchgen::GridSpec::custom("t", 6, 6).generate();
        assert!(lint(&n).is_empty(), "{:?}", lint(&n));
    }

    #[test]
    fn detects_floating_node() {
        let n = parse("V1 a 0 1.0\nR1 a b 1.0\nR2 b 0 1.0\nI1 c 0 1m\n").unwrap();
        let issues = lint(&n);
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::FloatingNode { node } if node == "c")));
    }

    #[test]
    fn detects_unreachable_island() {
        let n = parse("V1 a 0 1.0\nR1 a b 1.0\nR2 c d 1.0\nR3 d e 1.0\n").unwrap();
        let issues = lint(&n);
        let island = issues
            .iter()
            .find(|i| matches!(i, LintIssue::UnreachableIsland { .. }))
            .expect("island found");
        if let LintIssue::UnreachableIsland { nodes, .. } = island {
            assert_eq!(*nodes, 3); // c, d, e
        }
    }

    #[test]
    fn detects_duplicate_names_and_zero_sources() {
        let n = parse("R1 a b 1.0\nR1 b 0 1.0\nV1 a 0 0.0\n").unwrap();
        let issues = lint(&n);
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::DuplicateName { name } if name == "R1")));
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::ZeroVoltSource { name } if name == "V1")));
    }

    #[test]
    fn duplicate_names_are_listed_in_first_appearance_order() {
        // Six names, each used twice, first seen out of alphabetical order
        // and repeated in yet another order.
        let deck = "V1 a 0 1.0\n\
                    Rd a b 1.0\nRa b c 1.0\nRf c d 1.0\nRb d e 1.0\nRe e f 1.0\nRc f 0 1.0\n\
                    Rb a c 1.0\nRe b d 1.0\nRa c e 1.0\nRc d f 1.0\nRf e 0 1.0\nRd f a 1.0\n";
        let first_seen = ["Rd", "Ra", "Rf", "Rb", "Re", "Rc"];
        let netlist = parse(deck).unwrap();
        let duplicates = |issues: Vec<LintIssue>| -> Vec<String> {
            issues
                .into_iter()
                .map(|i| match i {
                    LintIssue::DuplicateName { name } => name,
                    other => panic!("unexpected issue {other}"),
                })
                .collect()
        };
        let rejection = |_| {
            crate::ingest::ingest(deck, &crate::ingest::IngestOptions::default())
                .unwrap_err()
                .to_string()
        };
        let lists: Vec<Vec<String>> = (0..8).map(|_| duplicates(lint(&netlist))).collect();
        let rejections: Vec<String> = (0..8).map(rejection).collect();
        for list in &lists {
            assert_eq!(list, &first_seen, "{lists:?}");
        }
        let listed: String = first_seen
            .iter()
            .map(|name| format!(" duplicate element name `{name}`;"))
            .collect();
        for text in &rejections {
            assert_eq!(
                text,
                &format!("netlist rejected by lint (6 issues):{listed}"),
                "{rejections:?}"
            );
        }
    }

    #[test]
    fn detects_and_repairs_shorted_vias() {
        // An inter-layer resistor at 1 µΩ: the paper's "short-circuited via".
        let mut n =
            parse("V1 n3_0_0 0 1.8\nRv n1_0_0 n3_0_0 1e-6\nR1 n1_0_0 n1_1_0 0.5\nI1 n1_1_0 0 1m\n")
                .unwrap();
        let issues = lint(&n);
        assert!(issues
            .iter()
            .any(|i| matches!(i, LintIssue::ShortedVia { name, .. } if name == "Rv")));

        let repaired = repair_shorted_vias(&mut n, 0.5);
        assert_eq!(repaired, 1);
        assert!(lint(&n)
            .iter()
            .all(|i| !matches!(i, LintIssue::ShortedVia { .. })));
        // The repaired deck now solves with a sensible via drop.
        let s = crate::mna::DcAnalysis::new(&n).unwrap().solve().unwrap();
        let v = s.voltage(n.node_id("n1_0_0").unwrap());
        assert!(v < 1.8 && v > 1.7);
    }

    #[test]
    fn same_layer_small_resistor_is_not_a_via_short() {
        let n = parse("V1 n1_0_0 0 1.0\nR1 n1_0_0 n1_1_0 1e-6\nI1 n1_1_0 0 1m\n").unwrap();
        assert!(lint(&n)
            .iter()
            .all(|i| !matches!(i, LintIssue::ShortedVia { .. })));
    }

    #[test]
    fn issue_display_strings() {
        let i = LintIssue::FloatingNode { node: "x".into() };
        assert_eq!(i.to_string(), "floating node `x`");
        let i = LintIssue::ShortedVia {
            name: "Rv".into(),
            value: 1e-6,
        };
        assert!(i.to_string().contains("nearly shorted"));
    }
}
