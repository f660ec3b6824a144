//! Netlist writer (round-trips with [`crate::parser`]).

use std::fmt::Write as _;

use crate::netlist::{Element, Netlist, Node};

/// Renders a netlist as a SPICE deck string, ending with `.end`.
pub fn write_string(netlist: &Netlist) -> String {
    let mut out = String::new();
    let node = |n: Node| match n {
        Node::Ground => "0",
        Node::Id(i) => netlist.node_name(i),
    };
    for (index, e) in netlist.elements().iter().enumerate() {
        let (p, q, value) = match *e {
            Element::Resistor { a, b, value } => (a, b, value),
            Element::VoltageSource { pos, neg, value }
            | Element::CurrentSource { pos, neg, value } => (pos, neg, value),
        };
        let name = netlist.element_name(index);
        let _ = writeln!(out, "{name} {} {} {value:e}", node(p), node(q));
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn round_trips_through_parser() {
        let deck = "\
R1 n1_0_0 n1_1_0 0.5
Rv n1_1_0 n2_1_0 1.25
V1 n2_0_0 0 1.8
I1 n1_1_0 0 0.0003
.end
";
        let first = parse(deck).unwrap();
        let rendered = write_string(&first);
        let second = parse(&rendered).unwrap();
        assert_eq!(first.counts(), second.counts());
        assert_eq!(first.node_count(), second.node_count());
        // Values survive the round trip exactly (Rust float formatting).
        for (a, b) in first.elements().iter().zip(second.elements()) {
            if let (
                crate::netlist::Element::Resistor { value: va, .. },
                crate::netlist::Element::Resistor { value: vb, .. },
            ) = (a, b)
            {
                assert_eq!(va, vb)
            }
        }
    }

    #[test]
    fn ends_with_end_directive() {
        let n = Netlist::new();
        assert!(write_string(&n).ends_with(".end\n"));
    }
}
