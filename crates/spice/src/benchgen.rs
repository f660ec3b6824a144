//! Synthetic IBM-style power-grid benchmark generator.
//!
//! The original benchmarks of Nassif (ASP-DAC 2008) are not redistributable,
//! so this generator reproduces their structural properties at configurable
//! scale: a metal stack of alternating-direction stripe layers (odd stack
//! positions run along x, even along y), a via array at every intersection
//! of consecutive layers, voltage pads (with contact resistance) on the
//! top-layer perimeter, and per-node current loads with a deterministic
//! hotspot — tuned, as the paper tunes its decks, "to obtain a reasonable
//! IR drop" (§5.2).
//!
//! The classic profiles (`pg1`, `pg2`, `pg5`) are two-layer meshes at the
//! paper's scale; the chip-scale profiles (`pg100k`, `pg1m`) grow the same
//! structure to multi-layer grids of 10⁵–10⁶ nodes for the screening
//! subsystem. Segment resistance is interpolated geometrically from the
//! thin lower layer to the thick top metal, so intermediate layers behave
//! like real mid-stack metal.
//!
//! Electrical defaults are chosen so the **via current densities** land
//! around the paper's characterization point (`1×10¹⁰ A/m²` for a 1 µm²
//! array): thick low-resistance top metal and a dense perimeter pad ring
//! spread the pad current over many vias, as real flip-chip grids do.

use crate::netlist::{Element, Netlist};

/// A synthetic power-grid specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Benchmark name (used in reports).
    pub name: String,
    /// Intersections along x.
    pub nx: usize,
    /// Intersections along y.
    pub ny: usize,
    /// Metal layers in the stack (2 for the classic profiles).
    pub layers: usize,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Lower-layer stripe segment resistance between intersections, Ω.
    pub lower_segment_resistance: f64,
    /// Upper-layer (thick top metal) stripe segment resistance, Ω.
    pub upper_segment_resistance: f64,
    /// Nominal via-array resistance at each intersection, Ω.
    pub via_resistance: f64,
    /// Pad contact resistance, Ω.
    pub pad_resistance: f64,
    /// Place a pad at every k-th top-layer perimeter node.
    pub pad_spacing: usize,
    /// Average load current per lower-layer node, A.
    pub load_current: f64,
    /// Relative amplitude of the central load hotspot (0 = uniform).
    pub hotspot: f64,
}

impl GridSpec {
    /// A custom two-layer grid with the default electrical parameters.
    pub fn custom(name: impl Into<String>, nx: usize, ny: usize) -> Self {
        GridSpec {
            name: name.into(),
            nx,
            ny,
            layers: 2,
            vdd: 1.8,
            lower_segment_resistance: 1.5,
            upper_segment_resistance: 0.06,
            via_resistance: 2.0,
            pad_resistance: 0.15,
            pad_spacing: 2,
            load_current: 4.0e-3,
            hotspot: 0.8,
        }
    }

    /// `pg1`: the smallest profile (24×24 mesh, 1 152 nodes) — scaled-down
    /// stand-in for the paper's PG1.
    pub fn pg1() -> Self {
        GridSpec::custom("pg1", 24, 24)
    }

    /// `pg2`: medium profile (32×32 mesh, 2 048 nodes), slightly lighter
    /// per-node loading.
    pub fn pg2() -> Self {
        GridSpec {
            load_current: 3.2e-3,
            ..GridSpec::custom("pg2", 32, 32)
        }
    }

    /// `pg5`: large profile (40×40 mesh, 3 200 nodes) with the lightest
    /// load per node (bigger grids spread their current), giving it the
    /// longest lifetimes — matching PG5's role in the paper's Table 2.
    pub fn pg5() -> Self {
        GridSpec {
            load_current: 2.0e-3,
            ..GridSpec::custom("pg5", 40, 40)
        }
    }

    /// `pg100k`: chip-scale screening profile — a 180×180, 3-layer stack
    /// of 97 200 nodes. Per-node load shrinks with grid area so the total
    /// current (and thus the IR drop across the top-metal spreading mesh)
    /// stays in the tuned regime.
    pub fn pg100k() -> Self {
        GridSpec {
            layers: 3,
            load_current: 1.0e-4,
            hotspot: 0.6,
            ..GridSpec::custom("pg100k", 180, 180)
        }
    }

    /// `pg1m`: the million-node profile — 512×512 intersections across a
    /// 4-layer stack (1 048 576 nodes). The regime the screening
    /// subsystem exists for: far past what per-via Monte Carlo can price
    /// directly.
    pub fn pg1m() -> Self {
        GridSpec {
            layers: 4,
            load_current: 1.4e-5,
            hotspot: 0.6,
            ..GridSpec::custom("pg1m", 512, 512)
        }
    }

    /// The built-in profile named `name`, if any.
    pub fn profile(name: &str) -> Option<GridSpec> {
        match name {
            "pg1" => Some(GridSpec::pg1()),
            "pg2" => Some(GridSpec::pg2()),
            "pg5" => Some(GridSpec::pg5()),
            "pg100k" => Some(GridSpec::pg100k()),
            "pg1m" => Some(GridSpec::pg1m()),
            _ => None,
        }
    }

    /// The built-in profile labels, in size order.
    pub const PROFILES: [&'static str; 5] = ["pg1", "pg2", "pg5", "pg100k", "pg1m"];

    /// Number of via-array intersections (per via level).
    pub fn intersection_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Total grid nodes across the stack (excluding pad nodes).
    pub fn node_count(&self) -> usize {
        self.nx * self.ny * self.layers
    }

    /// The layer *label* of stack position `i` (0-based, bottom first).
    /// Two-layer grids keep the classic `n1`/`n3` naming; deeper stacks
    /// number their layers contiguously from 1.
    fn layer_label(&self, i: usize) -> usize {
        if self.layers == 2 {
            [1, 3][i]
        } else {
            i + 1
        }
    }

    /// Grid node name at stack position `i`.
    fn node(&self, i: usize, x: usize, y: usize) -> String {
        let l = self.layer_label(i);
        format!("n{l}_{x}_{y}")
    }

    /// Lower-layer node name.
    pub fn lower_node(&self, x: usize, y: usize) -> String {
        self.node(0, x, y)
    }

    /// Upper-layer node name.
    pub fn upper_node(&self, x: usize, y: usize) -> String {
        self.node(self.layers - 1, x, y)
    }

    /// Stripe segment resistance at stack position `i`: geometric
    /// interpolation from the thin lower layer to the thick top metal
    /// (exactly the two endpoints for a two-layer stack).
    pub fn segment_resistance(&self, i: usize) -> f64 {
        if i == 0 {
            return self.lower_segment_resistance;
        }
        if i == self.layers - 1 {
            return self.upper_segment_resistance;
        }
        let t = i as f64 / (self.layers as f64 - 1.0);
        self.lower_segment_resistance
            * (self.upper_segment_resistance / self.lower_segment_resistance).powf(t)
    }

    /// Load current at intersection `(x, y)`: the average load modulated by
    /// a deterministic central hotspot and a small tile-to-tile ripple.
    pub fn load_at(&self, x: usize, y: usize) -> f64 {
        let cx = (self.nx as f64 - 1.0) / 2.0;
        let cy = (self.ny as f64 - 1.0) / 2.0;
        let sx = self.nx as f64 / 6.0;
        let sy = self.ny as f64 / 6.0;
        let dx = (x as f64 - cx) / sx;
        let dy = (y as f64 - cy) / sy;
        let bump = (-0.5 * (dx * dx + dy * dy)).exp();
        let ripple = ((x * 7 + y * 13) % 10) as f64 / 100.0; // 0..0.09
        self.load_current * (1.0 + self.hotspot * bump + ripple)
    }

    /// Generates the SPICE netlist.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×2, has fewer than 2 layers, or
    /// `pad_spacing == 0`.
    pub fn generate(&self) -> Netlist {
        assert!(self.nx >= 2 && self.ny >= 2, "grid must be at least 2x2");
        assert!(self.layers >= 2, "grid needs at least 2 layers");
        assert!(self.pad_spacing > 0, "pad spacing must be positive");
        let mut n = Netlist::new();

        // Stripes, bottom layer first; odd stack positions run along x,
        // even along y (the classic lower-along-x / upper-along-y layout).
        for i in 0..self.layers {
            let label = self.layer_label(i);
            let r = self.segment_resistance(i);
            if i % 2 == 0 {
                for y in 0..self.ny {
                    for x in 0..self.nx - 1 {
                        let a = n.intern(&self.node(i, x, y));
                        let b = n.intern(&self.node(i, x + 1, y));
                        n.push(
                            &format!("R{label}_{x}_{y}"),
                            Element::Resistor { a, b, value: r },
                        );
                    }
                }
            } else {
                for x in 0..self.nx {
                    for y in 0..self.ny - 1 {
                        let a = n.intern(&self.node(i, x, y));
                        let b = n.intern(&self.node(i, x, y + 1));
                        n.push(
                            &format!("R{label}_{x}_{y}"),
                            Element::Resistor { a, b, value: r },
                        );
                    }
                }
            }
        }
        // Via arrays at every intersection of consecutive layers. The
        // two-layer profiles keep the historical `Rv_` names; deeper
        // stacks tag the via's lower layer label.
        for i in 0..self.layers - 1 {
            let label = self.layer_label(i);
            for y in 0..self.ny {
                for x in 0..self.nx {
                    let a = n.intern(&self.node(i, x, y));
                    let b = n.intern(&self.node(i + 1, x, y));
                    let name = if self.layers == 2 {
                        format!("Rv_{x}_{y}")
                    } else {
                        format!("Rv{label}_{x}_{y}")
                    };
                    n.push(
                        &name,
                        Element::Resistor {
                            a,
                            b,
                            value: self.via_resistance,
                        },
                    );
                }
            }
        }
        // Pads on the top-layer perimeter.
        let mut pad = 0usize;
        let mut place_pad = |n: &mut Netlist, x: usize, y: usize| {
            let pad_node = n.intern(&format!("pad_{pad}"));
            let grid = n.intern(&self.upper_node(x, y));
            n.push(
                &format!("Vp_{pad}"),
                Element::VoltageSource {
                    pos: pad_node,
                    neg: crate::netlist::Node::Ground,
                    value: self.vdd,
                },
            );
            n.push(
                &format!("Rp_{pad}"),
                Element::Resistor {
                    a: pad_node,
                    b: grid,
                    value: self.pad_resistance,
                },
            );
            pad += 1;
        };
        for x in (0..self.nx).step_by(self.pad_spacing) {
            place_pad(&mut n, x, 0);
            place_pad(&mut n, x, self.ny - 1);
        }
        for y in (0..self.ny).step_by(self.pad_spacing) {
            if y != 0 && y != self.ny - 1 {
                place_pad(&mut n, 0, y);
                place_pad(&mut n, self.nx - 1, y);
            }
        }
        // Loads at every lower-layer node.
        for y in 0..self.ny {
            for x in 0..self.nx {
                let node = n.intern(&self.lower_node(x, y));
                n.push(
                    &format!("I_{x}_{y}"),
                    Element::CurrentSource {
                        pos: node,
                        neg: crate::netlist::Node::Ground,
                        value: self.load_at(x, y),
                    },
                );
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::DcAnalysis;

    #[test]
    fn element_counts_match_structure() {
        let spec = GridSpec::custom("t", 4, 5);
        let n = spec.generate();
        let (r, v, i) = n.counts();
        // Stripes: 5*(4-1) + 4*(5-1) = 31; vias: 20; pads contribute 1 R
        // each; loads: 20 current sources.
        assert_eq!(i, 20);
        assert_eq!(r, 31 + 20 + v);
        assert!(v > 0);
    }

    #[test]
    fn multi_layer_counts_match_structure() {
        let spec = GridSpec {
            layers: 4,
            ..GridSpec::custom("t4", 5, 6)
        };
        let n = spec.generate();
        let (r, v, i) = n.counts();
        assert_eq!(i, 30);
        assert_eq!(spec.node_count(), 120);
        // Stripes: x-layers (positions 0, 2): 6*(5-1)=24 each; y-layers
        // (1, 3): 5*(6-1)=25 each. Vias: 3 levels of 30.
        assert_eq!(r, 2 * 24 + 2 * 25 + 3 * 30 + v);
        assert!(v > 0);
        // Every grid node exists under its layered name.
        for l in 1..=4 {
            assert!(n.node_id(&format!("n{l}_2_3")).is_some(), "layer {l}");
        }
    }

    #[test]
    fn nominal_ir_drop_is_reasonable() {
        // The paper tunes wire geometry for "a reasonable IR drop"; the
        // default profiles must land comfortably inside the 10% Vdd failure
        // threshold but not be trivially over-designed.
        for spec in [GridSpec::pg1(), GridSpec::pg2(), GridSpec::pg5()] {
            let n = spec.generate();
            let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
            let drop = (spec.vdd - s.min_voltage()) / spec.vdd;
            assert!(
                drop > 0.02 && drop < 0.09,
                "{}: nominal IR drop {:.1}% of Vdd",
                spec.name,
                drop * 100.0
            );
        }
    }

    #[test]
    fn chip_scale_profile_ir_drop_is_reasonable() {
        // pg100k is the largest profile a unit test can afford to solve;
        // pg1m shares its structure and tuning law and is exercised by the
        // release-mode screen smoke job.
        let spec = GridSpec::pg100k();
        let n = spec.generate();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        let drop = (spec.vdd - s.min_voltage()) / spec.vdd;
        assert!(
            drop > 0.01 && drop < 0.09,
            "pg100k: nominal IR drop {:.1}% of Vdd",
            drop * 100.0
        );
    }

    #[test]
    fn via_current_densities_straddle_the_characterization_point() {
        // DESIGN.md §2: the generator is tuned so via current densities for
        // a 1 µm² array bracket the paper's 1e10 A/m² reference.
        let spec = GridSpec::pg1();
        let n = spec.generate();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        let mut currents: Vec<f64> = n
            .resistors()
            .filter(|&(i, _)| n.element_name(i).starts_with("Rv"))
            .map(|(_, e)| s.resistor_current(e).abs())
            .collect();
        currents.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = currents[currents.len() / 2] / 1e-12;
        let max = currents.last().expect("non-empty") / 1e-12;
        assert!(
            median > 1e9 && median < 2e10,
            "median via j = {median:.2e} A/m²"
        );
        assert!(max > 5e9 && max < 8e10, "max via j = {max:.2e} A/m²");
    }

    #[test]
    fn hotspot_center_sees_the_worst_voltage() {
        let spec = GridSpec::pg1();
        let n = spec.generate();
        let s = DcAnalysis::new(&n).unwrap().solve().unwrap();
        let v_center = s.voltage(
            n.node_id(&spec.lower_node(spec.nx / 2, spec.ny / 2))
                .unwrap(),
        );
        let v_corner = s.voltage(n.node_id(&spec.lower_node(1, 1)).unwrap());
        assert!(v_center < v_corner);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GridSpec::pg1().generate();
        let b = GridSpec::pg1().generate();
        assert_eq!(a.counts(), b.counts());
        let wa = crate::writer::write_string(&a);
        let wb = crate::writer::write_string(&b);
        assert_eq!(wa, wb);
    }

    #[test]
    fn two_layer_output_keeps_the_classic_names() {
        // The multi-layer generalization must not disturb the classic
        // profiles: layer labels stay n1/n3 and vias stay `Rv_`, so decks
        // generated before and after the change are byte-identical.
        let deck = crate::writer::write_string(&GridSpec::custom("t", 4, 4).generate());
        assert!(deck.contains("n1_0_0"), "{deck}");
        assert!(deck.contains("n3_0_0"), "{deck}");
        assert!(!deck.contains("n2_"), "{deck}");
        assert!(deck.contains("Rv_0_0"), "{deck}");
        assert!(!deck.contains("Rv1_"), "{deck}");
    }

    #[test]
    fn profiles_resolve_by_name() {
        for name in GridSpec::PROFILES {
            let spec = GridSpec::profile(name).unwrap();
            assert_eq!(spec.name, name);
        }
        assert!(GridSpec::profile("pg9").is_none());
        assert!(GridSpec::profile("pg1m").unwrap().node_count() >= 1_000_000);
    }

    #[test]
    fn round_trips_through_parser_and_solves_identically() {
        let spec = GridSpec::custom("rt", 6, 6);
        let n = spec.generate();
        let deck = crate::writer::write_string(&n);
        let reparsed = crate::parser::parse(&deck).unwrap();
        let s1 = DcAnalysis::new(&n).unwrap().solve().unwrap();
        let s2 = DcAnalysis::new(&reparsed).unwrap().solve().unwrap();
        let center = spec.lower_node(3, 3);
        let v1 = s1.voltage(n.node_id(&center).unwrap());
        let v2 = s2.voltage(reparsed.node_id(&center).unwrap());
        assert!((v1 - v2).abs() < 1e-12);
    }

    #[test]
    fn bigger_profiles_have_more_vias() {
        assert!(GridSpec::pg5().intersection_count() > GridSpec::pg2().intersection_count());
        assert!(GridSpec::pg2().intersection_count() > GridSpec::pg1().intersection_count());
    }

    #[test]
    fn segment_resistance_interpolates_monotonically() {
        let spec = GridSpec::pg1m();
        let mut last = f64::INFINITY;
        for i in 0..spec.layers {
            let r = spec.segment_resistance(i);
            assert!(r < last, "layer {i}: {r} not below {last}");
            last = r;
        }
        assert_eq!(spec.segment_resistance(0), spec.lower_segment_resistance);
        assert_eq!(
            spec.segment_resistance(spec.layers - 1),
            spec.upper_segment_resistance
        );
    }

    #[test]
    fn load_ripple_is_bounded_and_positive() {
        let spec = GridSpec::pg1();
        for y in 0..spec.ny {
            for x in 0..spec.nx {
                let load = spec.load_at(x, y);
                assert!(load > 0.0);
                assert!(load < spec.load_current * 2.0);
            }
        }
    }
}
