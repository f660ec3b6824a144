//! The power-grid model: netlist, DC system, via-site detection.

use std::error::Error;
use std::fmt;

use emgrid_spice::mna::{DcAnalysis, DcSolution, MnaError};
use emgrid_spice::netlist::{Element, Netlist, Node};

/// Errors from building or analyzing a power grid.
#[derive(Debug, Clone, PartialEq)]
pub enum PgError {
    /// The underlying MNA build/solve failed.
    Mna(MnaError),
    /// No via sites were found (nothing for the EM analysis to fail).
    NoViaSites,
    /// No voltage pads were found (IR drop is undefined).
    NoPads,
}

impl fmt::Display for PgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgError::Mna(e) => write!(f, "dc analysis failed: {e}"),
            PgError::NoViaSites => write!(f, "netlist contains no inter-layer via resistors"),
            PgError::NoPads => write!(f, "netlist contains no voltage pads"),
        }
    }
}

impl Error for PgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PgError::Mna(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MnaError> for PgError {
    fn from(e: MnaError) -> Self {
        PgError::Mna(e)
    }
}

/// One via-array site: a resistor joining nodes on different metal layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaSite {
    /// Index of the resistor element in the netlist.
    pub element_index: usize,
    /// Lower-layer terminal.
    pub lower: Node,
    /// Upper-layer terminal.
    pub upper: Node,
    /// Nominal resistance, Ω.
    pub resistance: f64,
}

/// A power grid ready for reliability analysis.
#[derive(Debug, Clone)]
pub struct PowerGrid {
    netlist: Netlist,
    dc: DcAnalysis,
    via_sites: Vec<ViaSite>,
    vdd: f64,
    nominal: DcSolution,
}

impl PowerGrid {
    /// Builds the grid model: runs via-site detection (resistors whose two
    /// terminals carry IBM-style names on different layers) and the nominal
    /// DC solve.
    ///
    /// # Errors
    ///
    /// Returns [`PgError::NoViaSites`] / [`PgError::NoPads`] for decks this
    /// analysis cannot apply to, and [`PgError::Mna`] if the nominal solve
    /// fails.
    pub fn from_netlist(netlist: Netlist) -> Result<Self, PgError> {
        let mut via_sites = Vec::new();
        for (idx, e) in netlist.resistors() {
            let Element::Resistor { a, b, value } = e else {
                continue;
            };
            let (Some(ia), Some(ib)) = (a.id(), b.id()) else {
                continue;
            };
            let (Some(la), Some(lb)) = (netlist.node_layer(ia), netlist.node_layer(ib)) else {
                continue;
            };
            if la != lb {
                let (lower, upper) = if la < lb { (*a, *b) } else { (*b, *a) };
                via_sites.push(ViaSite {
                    element_index: idx,
                    lower,
                    upper,
                    resistance: *value,
                });
            }
        }
        if via_sites.is_empty() {
            return Err(PgError::NoViaSites);
        }
        let dc = DcAnalysis::new(&netlist)?;
        let vdd = netlist
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VoltageSource { value, .. } => Some(*value),
                _ => None,
            })
            .fold(f64::NEG_INFINITY, f64::max);
        if !vdd.is_finite() || vdd <= 0.0 {
            return Err(PgError::NoPads);
        }
        // Auto-select the nominal solve engine by size: below the
        // crossover this is the usual (bit-identical) direct factor;
        // chip-scale grids take AMG-preconditioned CG so construction stays
        // linear instead of paying a million-unknown factor's fill.
        let nominal = dc.solve_auto()?;
        Ok(PowerGrid {
            netlist,
            dc,
            via_sites,
            vdd,
            nominal,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The assembled DC system.
    pub fn dc(&self) -> &DcAnalysis {
        &self.dc
    }

    /// Detected via-array sites.
    pub fn via_sites(&self) -> &[ViaSite] {
        &self.via_sites
    }

    /// Supply voltage (largest pad voltage), V.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The nominal (failure-free) DC solution.
    pub fn nominal_solution(&self) -> &DcSolution {
        &self.nominal
    }

    /// Current (A, absolute value) through each via site in a solution.
    pub fn via_currents(&self, solution: &DcSolution) -> Vec<f64> {
        self.via_sites
            .iter()
            .map(|site| {
                let e = &self.netlist.elements()[site.element_index];
                solution.resistor_current(e).abs()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_spice::benchgen::GridSpec;
    use emgrid_spice::parser::parse;

    #[test]
    fn detects_all_generated_via_sites() {
        let spec = GridSpec::custom("t", 6, 7);
        let grid = PowerGrid::from_netlist(spec.generate()).unwrap();
        assert_eq!(grid.via_sites().len(), 42);
        for site in grid.via_sites() {
            assert!(grid
                .netlist()
                .element_name(site.element_index)
                .starts_with("Rv"));
            assert_eq!(site.resistance, spec.via_resistance);
        }
    }

    #[test]
    fn via_orientation_is_lower_then_upper() {
        let spec = GridSpec::custom("t", 4, 4);
        let grid = PowerGrid::from_netlist(spec.generate()).unwrap();
        for site in grid.via_sites() {
            let li = grid.netlist().node_layer(site.lower.id().unwrap()).unwrap();
            let ui = grid.netlist().node_layer(site.upper.id().unwrap()).unwrap();
            assert!(li < ui);
        }
    }

    #[test]
    fn no_via_deck_is_rejected() {
        let n = parse("V1 a 0 1.0\nR1 a b 1.0\nR2 b 0 1.0\n").unwrap();
        assert!(matches!(
            PowerGrid::from_netlist(n),
            Err(PgError::NoViaSites)
        ));
    }

    #[test]
    fn pads_define_vdd() {
        let spec = GridSpec::pg1();
        let grid = PowerGrid::from_netlist(spec.generate()).unwrap();
        assert_eq!(grid.vdd(), 1.8);
    }

    #[test]
    fn via_currents_are_positive_and_load_scaled() {
        let spec = GridSpec::pg1();
        let grid = PowerGrid::from_netlist(spec.generate()).unwrap();
        let currents = grid.via_currents(grid.nominal_solution());
        assert_eq!(currents.len(), grid.via_sites().len());
        let max = currents.iter().fold(0.0f64, |m, &v| m.max(v));
        let total_load: f64 = currents.iter().sum();
        // Every ampere of load passes through exactly one layer of vias, so
        // the via currents must sum to roughly the total load current.
        assert!(max > 1e-3, "max via current {max} A");
        assert!(total_load > 1.0, "total via current {total_load} A");
    }
}
