//! Property tests for the netlist's name storage: element and node names
//! in arenas, node ids found through the open-addressing table, and each
//! node's layer parsed once at intern time.

use std::collections::HashSet;

use emgrid_spice::writer::write_string;
use emgrid_spice::{parse, Element, Netlist, Node, NodeInfo};
use proptest::prelude::*;

/// Each deck names at least this many distinct nodes, most cards two new
/// ones, so the id table (sized for one new node per two cards) doubles
/// at least twice while one is parsed.
const MIN_NODES: usize = 20_000;

const GROUND_ALIASES: [&str; 4] = ["0", "gnd", "GND", "Gnd"];

/// `word` with each letter's case drawn at random.
fn mixed_case(rng: &mut TestRng, word: &str) -> String {
    word.chars()
        .map(|c| match rng.next_below(2) {
            0 => c.to_ascii_uppercase(),
            _ => c.to_ascii_lowercase(),
        })
        .collect()
}

/// A node name built around the unique number `i`, in one of the shapes
/// decks use or get wrong: IBM-style `n<layer>_<x>_<y>` in either case
/// (negative coordinates and the layer `u32::MAX` included), and names
/// that only look like it or are free-form.
fn node_name(rng: &mut TestRng, i: usize) -> String {
    let n = if rng.next_below(2) == 0 { "n" } else { "N" };
    let layer = rng.next_below(6);
    let y = rng.next_below(1000);
    match rng.next_below(7) {
        0 | 1 => format!("{n}{layer}_{i}_{y}"),
        2 => format!("{n}{layer}_-{i}_{y}"),
        3 => format!("n{}_{i}_{y}", u32::MAX),
        4 => format!("n{}_{i}_{y}", u64::from(u32::MAX) + 1),
        5 => format!("{n}{layer}_{i}"),
        _ => {
            let word = ["pad_vdd", "vss", "core", "x"][rng.next_below(4) as usize];
            format!("{}{i}", mixed_case(rng, word))
        }
    }
}

/// A value field the parser accepts: plain, exponent or suffixed, in
/// either case.
fn value_field(rng: &mut TestRng, positive: bool) -> String {
    let v = 1e-3 + rng.next_f64() * 1e3;
    let v = if positive || rng.next_below(3) > 0 {
        v
    } else {
        -v
    };
    match rng.next_below(4) {
        0 => format!("{v}"),
        1 => format!("{v:e}"),
        2 => format!("{v:E}"),
        _ => {
            let suffix = ["f", "P", "n", "u", "M", "k", "MEG", "g", "t"];
            let suffix = suffix[rng.next_below(suffix.len() as u64) as usize];
            format!("{}{}", (v * 100.0).round() / 100.0, mixed_case(rng, suffix))
        }
    }
}

/// A deck over at least [`MIN_NODES`] distinct nodes: random element and
/// node names in mixed case, duplicate element names, ground aliases,
/// comments, directives and blank lines.
fn deck() -> impl Strategy<Value = String> {
    FnStrategy(|rng: &mut TestRng| {
        let target = MIN_NODES + rng.next_below(4_000) as usize;
        let mut seen = HashSet::new();
        let mut nodes = Vec::with_capacity(target);
        let mut i = 0;
        while nodes.len() < target {
            let name = node_name(rng, i);
            i += 1;
            if seen.insert(name.clone()) {
                nodes.push(name);
            }
        }
        // Terminal pairs: mostly two new nodes, now and then a node with
        // ground or with any node, so names repeat. Every node appears.
        let mut terminals = Vec::new();
        for pair in nodes.chunks(2) {
            let draw = rng.next_below(8);
            if pair.len() == 2 && draw > 1 {
                terminals.push((pair[0].as_str(), pair[1].as_str()));
                continue;
            }
            for node in pair {
                let other = match draw {
                    0 => GROUND_ALIASES[rng.next_below(4) as usize],
                    _ => &nodes[rng.next_below(nodes.len() as u64) as usize],
                };
                terminals.push((node.as_str(), other));
            }
        }
        let mut text = String::from("* generated deck\n");
        for (k, &(node, other)) in terminals.iter().enumerate() {
            let (letter, positive) = match rng.next_below(10) {
                0 => ("V", false),
                1 => ("I", false),
                _ => ("R", true),
            };
            // Small numbers repeat, so some instance names are duplicates.
            let tail = match rng.next_below(3) {
                0 => rng.next_below(64).to_string(),
                1 => format!("{}_{k}", mixed_case(rng, "via")),
                _ => format!("_{k}"),
            };
            let name = format!("{}{tail}", mixed_case(rng, letter));
            let (a, b) = if rng.next_below(2) == 0 {
                (node, other)
            } else {
                (other, node)
            };
            let value = value_field(rng, positive);
            match rng.next_below(50) {
                0 => text.push_str("\n.op\n"),
                1 => text.push_str("* a comment\n"),
                _ => {}
            }
            text.push_str(&format!("{name} {a}  {b}\t{value}\n"));
        }
        text.push_str(".end\n");
        text
    })
}

/// Terminals and value bits of an element, whatever its kind.
fn parts(e: &Element) -> (u8, Node, Node, u64) {
    match *e {
        Element::Resistor { a, b, value } => (0, a, b, value.to_bits()),
        Element::VoltageSource { pos, neg, value } => (1, pos, neg, value.to_bits()),
        Element::CurrentSource { pos, neg, value } => (2, pos, neg, value.to_bits()),
    }
}

/// The deck's node names in order of first appearance, ground excluded.
fn first_appearances(deck: &str) -> Vec<&str> {
    let mut seen = HashSet::new();
    deck.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with(['*', '.']))
        .flat_map(|l| l.split_whitespace().skip(1).take(2))
        .filter(|n| !GROUND_ALIASES.contains(n) && seen.insert(*n))
        .collect()
}

fn node_names(n: &Netlist) -> Vec<&str> {
    (0..n.node_count() as u32)
        .map(|id| n.node_name(id))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn decks_round_trip_through_the_writer(text in deck()) {
        let first = parse(&text).expect("generated deck parses");
        let second = parse(&write_string(&first)).expect("written deck parses");
        prop_assert!(first.node_count() >= MIN_NODES);
        prop_assert_eq!(node_names(&first), first_appearances(&text));
        prop_assert_eq!(node_names(&first), node_names(&second));
        prop_assert_eq!(first.elements().len(), second.elements().len());
        for (k, (x, y)) in first.elements().iter().zip(second.elements()).enumerate() {
            prop_assert_eq!(first.element_name(k), second.element_name(k));
            prop_assert_eq!(parts(x), parts(y));
        }
    }

    #[test]
    fn node_ids_find_every_interned_name_and_no_other(text in deck()) {
        let n = parse(&text).expect("generated deck parses");
        let names: HashSet<&str> = node_names(&n).into_iter().collect();
        for id in 0..n.node_count() as u32 {
            let name = n.node_name(id);
            prop_assert_eq!(n.node_id(name), Some(Node::Id(id)));
            // Names are case-sensitive, and a prefix or extension of a
            // name is another name.
            for absent in [name.to_ascii_uppercase(), format!("{name}_"), name[1..].to_owned()] {
                if !names.contains(absent.as_str()) && !GROUND_ALIASES.contains(&absent.as_str()) {
                    prop_assert_eq!(n.node_id(&absent), None);
                }
            }
        }
        for alias in GROUND_ALIASES {
            prop_assert_eq!(n.node_id(alias), Some(Node::Ground));
        }
    }

    #[test]
    fn the_layer_table_matches_the_name_parse(text in deck()) {
        let n = parse(&text).expect("generated deck parses");
        for id in 0..n.node_count() as u32 {
            prop_assert_eq!(
                n.node_layer(id),
                NodeInfo::parse(n.node_name(id)).map(|info| info.layer)
            );
        }
    }
}
