//! Current redistribution inside a via array.
//!
//! When vias fail, the survivors carry the array current. The paper's
//! Algorithm 1 recomputes component currents after every failure; this
//! module supplies the two models used for that step:
//!
//! * [`CurrentModel::Uniform`] — surviving vias share the current equally
//!   (the paper's first-order model: TTF scales by `(n/(n−n_f))²`),
//! * [`CurrentModel::Network`] — the via array as a resistor network: two
//!   conducting plates (the wire segments above and below) connected by the
//!   surviving vias. Solving the network captures **current crowding**: vias
//!   near the feeding edges carry more than interior vias (the effect
//!   studied by the multi-via model of the paper's reference \[4\]).
//!
//! [`CurrentModel::via_currents`] solves the network from scratch for one
//! alive mask. The Monte Carlo instead factors the all-alive network once
//! per run and applies each via failure as a rank-1 update of that factor
//! (`ViaCurrents`), as the grid Monte Carlo does one level up.

use emgrid_sparse::{CsrMatrix, FactorOptions, IncrementalSolver, LdlFactor, TripletMatrix};

/// Parameters of the plate-network redistribution model (conductances in
/// siemens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Conductance of one via.
    pub via_conductance: f64,
    /// Conductance of one inter-via plate segment (both plates).
    pub plate_conductance: f64,
    /// Conductance tying the collection edge to the external circuit.
    pub contact_conductance: f64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        // A 0.25 µm Cu via is ~0.1 Ω; a via-pitch square of 0.3 µm plate is
        // ~0.1 Ω/sq. Their ratio — not the absolute values — sets the
        // crowding strength.
        NetworkParams {
            via_conductance: 8.0,
            plate_conductance: 10.0,
            contact_conductance: 100.0,
        }
    }
}

/// How current redistributes across surviving vias.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CurrentModel {
    /// Equal sharing among survivors.
    #[default]
    Uniform,
    /// Plate-network solve with current crowding.
    Network(NetworkParams),
}

impl CurrentModel {
    /// Per-via currents (A) for a `rows × cols` array given the alive mask,
    /// normalized so alive currents sum to `total_current`. Dead vias carry
    /// zero.
    ///
    /// Current enters the array from the upper wire (running along the row
    /// direction: the first and last rows of the upper plate) and leaves by
    /// the lower wire (the first and last columns of the lower plate),
    /// matching the Plus-intersection topology.
    ///
    /// # Panics
    ///
    /// Panics if `alive.len() != rows * cols`, if no via is alive, or if
    /// `total_current <= 0`.
    pub fn via_currents(
        &self,
        rows: usize,
        cols: usize,
        alive: &[bool],
        total_current: f64,
    ) -> Vec<f64> {
        let n = rows * cols;
        assert_eq!(alive.len(), n, "alive mask length mismatch");
        assert!(total_current > 0.0, "total current must be positive");
        let alive_count = alive.iter().filter(|&&a| a).count();
        assert!(alive_count > 0, "at least one via must be alive");
        match self {
            CurrentModel::Uniform => {
                let share = total_current / alive_count as f64;
                alive.iter().map(|&a| if a { share } else { 0.0 }).collect()
            }
            CurrentModel::Network(p) => network_currents(rows, cols, alive, total_current, p),
        }
    }
}

/// Solves the two-plate resistor network and returns per-via currents.
fn network_currents(
    rows: usize,
    cols: usize,
    alive: &[bool],
    total_current: f64,
    p: &NetworkParams,
) -> Vec<f64> {
    let (matrix, rhs) = plate_network(rows, cols, alive, total_current, p);
    let v = LdlFactor::factor_with(&matrix, &FactorOptions::default())
        .expect("plate network is SPD while any via is alive")
        .solve(&rhs);
    currents_from_voltages(&v, alive, total_current, p)
}

/// The conductance matrix and right-hand side of the two-plate network:
/// node `r * cols + c` is the upper plate above via `(r, c)`, node
/// `rows * cols + r * cols + c` the lower plate below it.
fn plate_network(
    rows: usize,
    cols: usize,
    alive: &[bool],
    total_current: f64,
    p: &NetworkParams,
) -> (CsrMatrix, Vec<f64>) {
    let n = rows * cols;
    let upper = |r: usize, c: usize| r * cols + c;
    let lower = |r: usize, c: usize| n + r * cols + c;
    let mut g = TripletMatrix::new(2 * n, 2 * n);
    let mut stamp = |a: usize, b: usize, cond: f64| {
        g.push(a, a, cond);
        g.push(b, b, cond);
        g.push(a, b, -cond);
        g.push(b, a, -cond);
    };
    // Plate meshes (both plates identical).
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                stamp(upper(r, c), upper(r, c + 1), p.plate_conductance);
                stamp(lower(r, c), lower(r, c + 1), p.plate_conductance);
            }
            if r + 1 < rows {
                stamp(upper(r, c), upper(r + 1, c), p.plate_conductance);
                stamp(lower(r, c), lower(r + 1, c), p.plate_conductance);
            }
        }
    }
    // Vias.
    for r in 0..rows {
        for c in 0..cols {
            if alive[r * cols + c] {
                stamp(upper(r, c), lower(r, c), p.via_conductance);
            }
        }
    }
    // Ground ties at the collection edge (lower plate, first & last column).
    let mut rhs = vec![0.0; 2 * n];
    for r in 0..rows {
        for c in [0, cols.saturating_sub(1)] {
            let node = lower(r, c);
            g.push(node, node, p.contact_conductance);
        }
    }
    // Injection at the feed edge (upper plate, first & last row).
    let feed_rows: Vec<usize> = if rows == 1 {
        vec![0]
    } else {
        vec![0, rows - 1]
    };
    let feed_count = (feed_rows.len() * cols) as f64;
    for &r in &feed_rows {
        for c in 0..cols {
            rhs[upper(r, c)] += total_current / feed_count;
        }
    }
    (g.to_csr(), rhs)
}

/// Per-via currents from the plate voltages `v`: zero for dead vias,
/// normalized so the alive ones sum to `total_current`.
fn currents_from_voltages(
    v: &[f64],
    alive: &[bool],
    total_current: f64,
    p: &NetworkParams,
) -> Vec<f64> {
    let n = alive.len();
    let mut currents = vec![0.0; n];
    let mut sum = 0.0;
    for (idx, current) in currents.iter_mut().enumerate() {
        if alive[idx] {
            let i = p.via_conductance * (v[idx] - v[n + idx]);
            *current = i;
            sum += i;
        }
    }
    // Normalize out the tiny current lost to numerical residue so the
    // invariant Σ I_via = I_total holds exactly.
    let scale = total_current / sum;
    for i in &mut currents {
        *i *= scale;
    }
    currents
}

/// One array's via currents kept current across a sequence of failures:
/// the incremental form of [`CurrentModel::via_currents`] that the Monte
/// Carlo runs. Build it once per run and clone it per trial.
#[derive(Debug, Clone)]
pub(crate) struct ViaCurrents {
    rows: usize,
    cols: usize,
    total_current: f64,
    /// The plate network for [`CurrentModel::Network`]; `None` for
    /// [`CurrentModel::Uniform`], which needs no state. Boxed so a uniform
    /// trial's state stays a few words to clone and move.
    network: Option<Box<PlateNetwork>>,
}

/// The all-alive plate network factored once, with its right-hand side;
/// the factor then follows every via failure by a rank-1 update.
#[derive(Debug, Clone)]
struct PlateNetwork {
    params: NetworkParams,
    solver: IncrementalSolver,
    rhs: Vec<f64>,
}

impl ViaCurrents {
    /// Every via of a `rows × cols` array alive, carrying `total_current`
    /// under `model`. The network model factors the plate network and
    /// solves it here, so a clone starts from the all-alive solution.
    ///
    /// # Panics
    ///
    /// Panics if `total_current <= 0`.
    pub(crate) fn new(model: &CurrentModel, rows: usize, cols: usize, total_current: f64) -> Self {
        assert!(total_current > 0.0, "total current must be positive");
        let network = match model {
            CurrentModel::Uniform => None,
            CurrentModel::Network(params) => {
                let alive = vec![true; rows * cols];
                let (matrix, rhs) = plate_network(rows, cols, &alive, total_current, params);
                let mut solver = IncrementalSolver::new(&matrix)
                    .expect("plate network is SPD while any via is alive");
                solver.solve(&rhs).expect("rhs matches the network");
                Some(Box::new(PlateNetwork {
                    params: *params,
                    solver,
                    rhs,
                }))
            }
        };
        ViaCurrents {
            rows,
            cols,
            total_current,
            network,
        }
    }

    /// Removes via `via` (row-major index) from the array: for the network
    /// model, the rank-1 update that takes its conductance out of the
    /// factor, `update_edge(upper, lower, −g_via)`.
    ///
    /// # Panics
    ///
    /// Panics if the update disconnects the plates, which only the last
    /// alive via's failure does.
    pub(crate) fn fail(&mut self, via: usize) {
        if let Some(net) = &mut self.network {
            let n = self.rows * self.cols;
            net.solver
                .update_edge(via, n + via, -net.params.via_conductance)
                .expect("plate network stays SPD while any via is alive");
        }
    }

    /// Per-via currents for `alive`, which must be the all-alive mask minus
    /// the vias passed to [`ViaCurrents::fail`]. Matches
    /// [`CurrentModel::via_currents`] for the same mask: bit for bit under
    /// the uniform model, to rounding under the network model.
    ///
    /// # Panics
    ///
    /// As [`CurrentModel::via_currents`].
    pub(crate) fn currents(&mut self, alive: &[bool]) -> Vec<f64> {
        let Some(net) = &mut self.network else {
            return CurrentModel::Uniform.via_currents(
                self.rows,
                self.cols,
                alive,
                self.total_current,
            );
        };
        assert_eq!(
            alive.len(),
            self.rows * self.cols,
            "alive mask length mismatch"
        );
        assert!(alive.contains(&true), "at least one via must be alive");
        let v = net.solver.solve(&net.rhs).expect("rhs matches the network");
        currents_from_voltages(&v, alive, self.total_current, &net.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shares_equally_and_skips_dead() {
        let alive = vec![true, false, true, true];
        let i = CurrentModel::Uniform.via_currents(2, 2, &alive, 9.0);
        assert_eq!(i, vec![3.0, 0.0, 3.0, 3.0]);
    }

    #[test]
    fn currents_sum_to_total_for_both_models() {
        let alive = vec![true; 16];
        for model in [
            CurrentModel::Uniform,
            CurrentModel::Network(NetworkParams::default()),
        ] {
            let i = model.via_currents(4, 4, &alive, 0.01);
            let sum: f64 = i.iter().sum();
            assert!((sum - 0.01).abs() < 1e-12, "{model:?}: {sum}");
        }
    }

    #[test]
    fn network_model_crowds_current_at_the_perimeter() {
        let alive = vec![true; 16];
        let i = CurrentModel::Network(NetworkParams::default()).via_currents(4, 4, &alive, 1.0);
        // Feed rows are 0 and 3; collection columns are 0 and 3. A corner
        // via (0,0) must beat the interior via (1,1).
        assert!(i[0] > i[5], "corner {} vs interior {}", i[0], i[5]);
        // All currents positive.
        assert!(i.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn failure_shifts_current_to_neighbors() {
        let mut alive = vec![true; 16];
        let model = CurrentModel::Network(NetworkParams::default());
        let before = model.via_currents(4, 4, &alive, 1.0);
        alive[0] = false; // corner via dies
        let after = model.via_currents(4, 4, &alive, 1.0);
        assert_eq!(after[0], 0.0);
        // Its neighbors (0,1) and (1,0) pick up current.
        assert!(after[1] > before[1]);
        assert!(after[4] > before[4]);
        // Totals conserved.
        let sum: f64 = after.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_via_carries_everything() {
        for model in [
            CurrentModel::Uniform,
            CurrentModel::Network(NetworkParams::default()),
        ] {
            let i = model.via_currents(1, 1, &[true], 2.5);
            assert!((i[0] - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn last_survivor_takes_all() {
        let mut alive = vec![false; 16];
        alive[5] = true;
        let model = CurrentModel::Network(NetworkParams::default());
        let i = model.via_currents(4, 4, &alive, 1.0);
        assert!((i[5] - 1.0).abs() < 1e-9);
        assert!(i.iter().enumerate().all(|(k, &v)| k == 5 || v == 0.0));
    }

    /// A failure order: a deterministic shuffle of `0..n`, one per `salt`.
    fn failure_order(n: usize, salt: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        order
    }

    #[test]
    fn incremental_currents_match_a_fresh_factor_at_every_failure() {
        let total = 0.37;
        let models = [
            CurrentModel::Uniform,
            CurrentModel::Network(NetworkParams::default()),
        ];
        for model in &models {
            for (rows, cols) in [(1, 1), (4, 4), (8, 8)] {
                let n = rows * cols;
                let all_alive = ViaCurrents::new(model, rows, cols, total);
                for salt in 0..12 {
                    let mut state = all_alive.clone();
                    let mut alive = vec![true; n];
                    // A trial fails every via but the last one it reaches.
                    for (step, &victim) in failure_order(n, salt).iter().enumerate() {
                        let label = format!("{model:?} {rows}x{cols} order {salt} step {step}");
                        let kept = state.currents(&alive);
                        let fresh = model.via_currents(rows, cols, &alive, total);
                        let scale = fresh.iter().fold(0.0f64, |m, i| m.max(i.abs()));
                        for (k, (u, v)) in kept.iter().zip(&fresh).enumerate() {
                            assert!(
                                (u - v).abs() <= 1e-12 * scale,
                                "{label} via {k}: {u} vs {v}"
                            );
                            assert_eq!(*u == 0.0, !alive[k], "{label} via {k}");
                        }
                        let sum: f64 = kept.iter().sum();
                        assert!((sum - total).abs() <= 1e-12 * total, "{label}: sum {sum}");
                        if step + 1 == n {
                            break;
                        }
                        alive[victim] = false;
                        state.fail(victim);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one via must be alive")]
    fn all_dead_panics() {
        CurrentModel::Uniform.via_currents(2, 2, &[false; 4], 1.0);
    }

    #[test]
    fn stronger_plates_reduce_crowding() {
        let alive = vec![true; 16];
        let weak = CurrentModel::Network(NetworkParams {
            plate_conductance: 2.0,
            ..NetworkParams::default()
        })
        .via_currents(4, 4, &alive, 1.0);
        let strong = CurrentModel::Network(NetworkParams {
            plate_conductance: 1000.0,
            ..NetworkParams::default()
        })
        .via_currents(4, 4, &alive, 1.0);
        let spread = |v: &[f64]| {
            let max = v.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
            let min = v.iter().fold(f64::INFINITY, |m, &x| m.min(x));
            max / min
        };
        assert!(spread(&weak) > spread(&strong));
        // With near-ideal plates the distribution approaches uniform.
        assert!(spread(&strong) < 1.05);
    }
}
