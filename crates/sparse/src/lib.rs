//! Sparse and dense linear algebra substrate for the `emgrid` workspace.
//!
//! The published analysis flow needs three numerical kernels that the paper
//! takes for granted:
//!
//! * a **direct sparse solver** for the symmetric positive definite (SPD)
//!   systems produced by modified nodal analysis of power grids and by the
//!   finite-element assembly of the Cu dual-damascene stack
//!   ([`ldl::LdlFactor`]),
//! * an **iterative solver** for the larger finite-element systems
//!   ([`cg::conjugate_gradient`]), with a coarse-space deflation
//!   ([`deflation::Deflation`], [`cg::deflated_conjugate_gradient`]) that
//!   removes the rigid-body error IC(0) leaves in elasticity,
//! * an **incremental solver** that updates a factored system after a
//!   low-rank modification — each electromigration failure event changes a
//!   single conductance, which is a rank-1 update handled by the
//!   Sherman–Morrison–Woodbury identity ([`smw::IncrementalSolver`]).
//!
//! Everything is built from scratch on plain `Vec`-based storage: a triplet
//! builder ([`coo::TripletMatrix`]), compressed sparse row storage
//! ([`csr::CsrMatrix`]), fill-reducing orderings (reverse Cuthill–McKee and
//! minimum degree, [`ordering`]), a blocked supernodal numeric engine behind
//! [`ldl::LdlFactor::factor_with`] and small dense kernels
//! ([`dense::DenseMatrix`]) used for element matrices and Woodbury
//! capacitance systems.
//!
//! # Example
//!
//! Solve a tiny SPD system with the direct factorization:
//!
//! ```
//! # fn main() -> Result<(), emgrid_sparse::SparseError> {
//! use emgrid_sparse::{FactorOptions, TripletMatrix, LdlFactor};
//!
//! let mut a = TripletMatrix::new(2, 2);
//! a.push(0, 0, 4.0);
//! a.push(0, 1, 1.0);
//! a.push(1, 0, 1.0);
//! a.push(1, 1, 3.0);
//! let a = a.to_csr();
//!
//! let factor = LdlFactor::factor_with(&a, &FactorOptions::default())?;
//! let x = factor.solve(&[1.0, 2.0]);
//! let r = a.residual_norm(&x, &[1.0, 2.0]);
//! assert!(r < 1e-12);
//! # Ok(())
//! # }
//! ```

// Indexed loops over multiple parallel arrays are the clearest form for
// these numerical kernels; silence clippy's iterator suggestion crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod amg;
pub mod cg;
pub mod coo;
pub mod csr;
pub mod deflation;
pub mod dense;
pub mod error;
pub mod ic0;
pub mod kernels;
pub mod ldl;
pub mod method;
pub mod ordering;
pub(crate) mod panel;
pub mod smw;
pub(crate) mod supernodal;

pub use amg::Amg;
pub use cg::{
    conjugate_gradient, deflated_conjugate_gradient, CgOptions, CgOutcome, Preconditioner,
};
pub use coo::TripletMatrix;
pub use csr::CsrMatrix;
pub use deflation::Deflation;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use ic0::Ic0;
pub use ldl::{FactorOptions, LdlFactor, Ordering};
pub use method::{solve_spd, Method};
pub use ordering::{amd, nested_dissection, reverse_cuthill_mckee, Permutation};
pub use smw::IncrementalSolver;
