//! The netlist data model.
//!
//! A chip-scale deck has hundreds of thousands of cards, so the netlist
//! keeps no string per element or node. Element names and node names each
//! live end to end in one arena, addressed by index; node names are found
//! through one open-addressing table of `u32` ids; and each node's metal
//! layer is parsed once, when the name is interned, into a layer table.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A circuit node: ground or an interned named node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// The reference node (`0` or `gnd` in the deck).
    Ground,
    /// An interned node: an index into the netlist's name table (see
    /// [`Netlist::node_name`]).
    Id(u32),
}

impl Node {
    /// The interned index, or `None` for ground.
    pub fn id(self) -> Option<u32> {
        match self {
            Node::Ground => None,
            Node::Id(i) => Some(i),
        }
    }
}

/// Layer/position metadata decoded from an IBM-style node name
/// `n<layer>_<x>_<y>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeInfo {
    /// Metal layer number.
    pub layer: u32,
    /// X coordinate (grid units).
    pub x: i64,
    /// Y coordinate (grid units).
    pub y: i64,
}

impl NodeInfo {
    /// Parses `n<layer>_<x>_<y>`; returns `None` for other shapes.
    pub fn parse(name: &str) -> Option<NodeInfo> {
        let rest = name.strip_prefix(['n', 'N'])?;
        let mut parts = rest.split('_');
        let layer = parts.next()?.parse().ok()?;
        let x = parts.next()?.parse().ok()?;
        let y = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(NodeInfo { layer, x, y })
    }
}

/// One circuit element. Its instance name is kept by the netlist (see
/// [`Netlist::element_name`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// A resistor between `a` and `b` (Ω).
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance, Ω.
        value: f64,
    },
    /// An ideal voltage source: `pos` is held `value` volts above `neg`.
    VoltageSource {
        /// Positive terminal.
        pos: Node,
        /// Negative terminal.
        neg: Node,
        /// Source voltage, V.
        value: f64,
    },
    /// An ideal current source driving `value` amperes out of `pos`,
    /// through the source, into `neg` (SPICE convention).
    CurrentSource {
        /// Positive terminal.
        pos: Node,
        /// Negative terminal.
        neg: Node,
        /// Source current, A.
        value: f64,
    },
}

/// Strings stored end to end in one buffer, each addressed by its index.
#[derive(Debug, Clone, Default)]
struct Arena {
    text: String,
    /// `ends[i]` is the byte offset one past string `i`.
    ends: Vec<u32>,
}

impl Arena {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends `s`, returning its index.
    ///
    /// # Panics
    ///
    /// Panics past 4 GiB of text or 2³² − 1 strings, which `u32` offsets
    /// and ids cannot address.
    fn push(&mut self, s: &str) -> u32 {
        let index = u32::try_from(self.ends.len())
            .ok()
            .filter(|&i| i != EMPTY)
            .expect("netlist arena holds fewer than 2^32 - 1 strings");
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("netlist arena text fits u32 offsets");
        self.ends.push(end);
        index
    }

    fn get(&self, i: usize) -> &str {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.text[start..self.ends[i] as usize]
    }
}

/// The free-slot marker of [`NodeTable`], and the layer-table marker of a
/// name that is not IBM-style.
const EMPTY: u32 = u32::MAX;

/// Name → id lookup: open addressing with linear probing over a
/// power-of-two array of node ids, at most half full. Names are hashed
/// with std's keyed SipHash, so a deck crafted to collide (the daemon
/// parses untrusted ones) cannot turn lookups quadratic.
#[derive(Debug, Clone, Default)]
struct NodeTable {
    slots: Vec<u32>,
    hasher: RandomState,
}

impl NodeTable {
    /// `name`'s id, or the free slot where it belongs.
    fn probe(&self, names: &Arena, name: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(name) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if names.get(id as usize) == name => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Makes room for one more name: doubles the table (re-inserting
    /// every id) once it would pass half full.
    fn reserve_one(&mut self, names: &Arena) {
        if (names.len() + 1) * 2 <= self.slots.len() {
            return;
        }
        self.slots = vec![EMPTY; (self.slots.len() * 2).max(16)];
        let mask = self.slots.len() - 1;
        for id in 0..names.len() {
            let mut slot = self.hasher.hash_one(names.get(id)) as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32;
        }
    }
}

/// Whether `name` is one of the ground aliases `0` and `gnd`
/// (case-insensitive).
fn is_ground(name: &str) -> bool {
    name == "0" || name.eq_ignore_ascii_case("gnd")
}

/// A parsed or generated netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    elements: Vec<Element>,
    element_names: Arena,
    node_names: Arena,
    /// Each node's metal layer, parsed once at intern time; [`EMPTY`] for
    /// a name that is not IBM-style.
    node_layers: Vec<u32>,
    node_ids: NodeTable,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// An empty netlist with room for `elements` elements and, as a
    /// power-grid deck has, about one node per two of them: the node table
    /// and node vectors are sized for that, the name buffers start at a
    /// page, and all grow by doubling past it. Sized from upper bounds
    /// instead (two nodes per element, the deck's bytes of names), their
    /// unused capacity would outweigh what they hold.
    pub(crate) fn with_capacity(elements: usize) -> Self {
        const PAGE: usize = 4096;
        // Half full at `elements / 2` nodes, and at least a page.
        let slots = elements.next_power_of_two().max(PAGE / 4);
        Netlist {
            elements: Vec::with_capacity(elements),
            element_names: Arena {
                text: String::with_capacity(PAGE),
                ends: Vec::with_capacity(elements),
            },
            node_names: Arena {
                text: String::with_capacity(PAGE),
                ends: Vec::with_capacity(slots / 2),
            },
            node_layers: Vec::with_capacity(slots / 2),
            node_ids: NodeTable {
                slots: vec![EMPTY; slots],
                hasher: RandomState::new(),
            },
        }
    }

    /// Interns a node name, returning its [`Node`]. `"0"` and `"gnd"`
    /// (case-insensitive) intern to [`Node::Ground`]; other names get ids
    /// in order of first appearance.
    ///
    /// # Panics
    ///
    /// Panics past 4 GiB of node names or 2³² − 1 nodes.
    pub fn intern(&mut self, name: &str) -> Node {
        if is_ground(name) {
            return Node::Ground;
        }
        self.node_ids.reserve_one(&self.node_names);
        match self.node_ids.probe(&self.node_names, name) {
            Ok(id) => Node::Id(id),
            Err(slot) => {
                let id = self.node_names.push(name);
                self.node_ids.slots[slot] = id;
                let layer = NodeInfo::parse(name).map_or(EMPTY, |info| info.layer);
                self.node_layers.push(layer);
                Node::Id(id)
            }
        }
    }

    /// Looks up an existing node id by name.
    pub fn node_id(&self, name: &str) -> Option<Node> {
        if is_ground(name) {
            return Some(Node::Ground);
        }
        if self.node_ids.slots.is_empty() {
            return None;
        }
        self.node_ids
            .probe(&self.node_names, name)
            .ok()
            .map(Node::Id)
    }

    /// The name of an interned node.
    pub fn node_name(&self, id: u32) -> &str {
        self.node_names.get(id as usize)
    }

    /// Number of interned (non-ground) nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// The metal layer of an interned node, if its name is IBM-style
    /// (`NodeInfo::parse(node_name(id)).map(|i| i.layer)`, parsed once at
    /// intern time).
    pub fn node_layer(&self, id: u32) -> Option<u32> {
        match self.node_layers[id as usize] {
            // A name whose layer is `u32::MAX` itself shares the marker.
            EMPTY => NodeInfo::parse(self.node_name(id)).map(|info| info.layer),
            layer => Some(layer),
        }
    }

    /// Appends an element with its instance name.
    ///
    /// # Panics
    ///
    /// Panics past 4 GiB of element names or 2³² − 1 elements.
    pub fn push(&mut self, name: &str, element: Element) {
        self.element_names.push(name);
        self.elements.push(element);
    }

    /// The instance name of element `index` (deck order).
    pub fn element_name(&self, index: usize) -> &str {
        self.element_names.get(index)
    }

    /// All elements in deck order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable access to the elements (used to retrofit via resistances
    /// into benchmark decks whose vias are shorted, per the paper §5.2).
    pub fn elements_mut(&mut self) -> &mut [Element] {
        &mut self.elements
    }

    /// Iterator over resistor elements with their element indices.
    pub fn resistors(&self) -> impl Iterator<Item = (usize, &Element)> + '_ {
        self.elements
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Element::Resistor { .. }))
    }

    /// Counts elements of each kind: `(resistors, vsources, isources)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut r = 0;
        let mut v = 0;
        let mut i = 0;
        for e in &self.elements {
            match e {
                Element::Resistor { .. } => r += 1,
                Element::VoltageSource { .. } => v += 1,
                Element::CurrentSource { .. } => i += 1,
            }
        }
        (r, v, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_ground_aware() {
        let mut n = Netlist::new();
        let a = n.intern("n1_2_3");
        let b = n.intern("n1_2_3");
        assert_eq!(a, b);
        assert_eq!(n.node_count(), 1);
        assert_eq!(n.intern("0"), Node::Ground);
        assert_eq!(n.intern("GND"), Node::Ground);
        assert_eq!(n.intern("gnd"), Node::Ground);
        assert_eq!(n.node_count(), 1);
        assert_eq!(n.node_layer(0), Some(1));
        assert_eq!(n.node_id("n1_2_4"), None);
        assert_eq!(Netlist::new().node_id("a"), None);
    }

    #[test]
    fn node_info_parses_ibm_names() {
        assert_eq!(
            NodeInfo::parse("n3_120_455"),
            Some(NodeInfo {
                layer: 3,
                x: 120,
                y: 455
            })
        );
        assert_eq!(NodeInfo::parse("N1_0_0").map(|i| i.layer), Some(1));
        assert_eq!(NodeInfo::parse("vdd"), None);
        assert_eq!(NodeInfo::parse("n1_2"), None);
        assert_eq!(NodeInfo::parse("n1_2_3_4"), None);
        assert_eq!(NodeInfo::parse("n1_a_3"), None);
    }

    #[test]
    fn layer_table_agrees_with_the_name_parse_at_the_marker_value() {
        let mut n = Netlist::new();
        for name in ["n4294967295_1_2", "pad_0", "n4294967294_0_0"] {
            let Node::Id(id) = n.intern(name) else {
                panic!("{name} is not ground");
            };
            assert_eq!(
                n.node_layer(id),
                NodeInfo::parse(name).map(|i| i.layer),
                "{name}"
            );
        }
    }

    #[test]
    fn counts_by_kind() {
        let mut n = Netlist::new();
        let a = n.intern("a");
        let b = n.intern("b");
        n.push("R1", Element::Resistor { a, b, value: 1.0 });
        n.push(
            "V1",
            Element::VoltageSource {
                pos: a,
                neg: Node::Ground,
                value: 1.8,
            },
        );
        n.push(
            "I1",
            Element::CurrentSource {
                pos: b,
                neg: Node::Ground,
                value: 1e-3,
            },
        );
        assert_eq!(n.counts(), (1, 1, 1));
        assert_eq!(n.resistors().count(), 1);
        let names: Vec<&str> = (0..3).map(|i| n.element_name(i)).collect();
        assert_eq!(names, ["R1", "V1", "I1"]);
    }
}
