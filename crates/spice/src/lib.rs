//! SPICE power-grid netlist substrate.
//!
//! The paper evaluates on the industrial power-grid benchmarks of Nassif
//! (ASP-DAC 2008), which are distributed as SPICE decks of resistors,
//! voltage-source pads and current-source loads with layered node names
//! (`n<layer>_<x>_<y>`). This crate supplies everything needed to work with
//! that format from scratch:
//!
//! * a netlist data model ([`netlist::Netlist`]) with layered node metadata,
//! * a parser ([`parser::parse`]) and writer ([`writer::write_string`]) for
//!   the benchmark subset of SPICE (R/V/I elements, engineering suffixes,
//!   comments, `.op`/`.end`),
//! * a DC operating-point solver ([`mna::DcAnalysis`]) built on modified
//!   nodal analysis with voltage-source elimination, producing node
//!   voltages and element currents,
//! * a synthetic benchmark generator ([`benchgen::GridSpec`]) that emits
//!   IBM-style two-layer mesh grids (profiles `pg1`/`pg2`/`pg5`) — the
//!   original decks are not redistributable, so the generator reproduces
//!   their structural properties (mesh redundancy, via arrays at every
//!   intersection, perimeter pads, tuned nominal IR drop; see DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use emgrid_sparse::{Method, Ordering};
//! use emgrid_spice::{parser, mna::DcAnalysis};
//!
//! let deck = "\
//! * trivial divider
//! V1 top 0 1.8
//! R1 top mid 1k
//! R2 mid 0 1k
//! .end";
//! let netlist = parser::parse(deck)?;
//! let solution = DcAnalysis::new(&netlist)?.solve_with(Method::Auto, Ordering::Amd)?;
//! let mid = netlist.node_id("mid").expect("node exists");
//! assert!((solution.voltage_of(mid) - 0.9).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod benchgen;
pub mod ingest;
pub mod lint;
pub mod mna;
pub mod netlist;
pub mod parser;
pub mod writer;

pub use benchgen::GridSpec;
pub use ingest::{ingest, IngestError, IngestLimits, IngestOptions, Ingested};
pub use lint::{lint, repair_shorted_vias, LintIssue};
pub use mna::{DcAnalysis, DcSolution, MnaError};
pub use netlist::{Element, Netlist, Node, NodeInfo};
pub use parser::{parse, ParseError};
