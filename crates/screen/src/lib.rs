//! Chip-scale EM screening: a linear-time steady-state stress prefilter
//! that ranks a power grid's via arrays **before** any Monte Carlo runs.
//!
//! The paper's hierarchical flow prices every via array with a
//! precharacterized TTF distribution and plays failures forward — accurate,
//! but the grid-level Monte Carlo still touches every site. On
//! million-node grids almost all arrays are electromigration-cold: their
//! steady-state EM stress never approaches the critical stress, so they
//! cannot nucleate voids on any relevant horizon. This crate computes that
//! steady-state stress for **every** branch from a single DC solve — no
//! transient analysis — and aggregates it into a deterministic per-via
//! criticality ranking the MC engines use to pick their working set
//! (filter-then-simulate).
//!
//! # The steady-state shortcut
//!
//! Korhonen's equation on an interconnect tree drives atoms with the EM
//! wind force `eZ*ρj/Ω` and blocks them at tree boundaries (vias and pads
//! are diffusion barriers in dual-damascene Cu). At `t → ∞` the atomic
//! flux vanishes everywhere, which integrates to a stress profile that is
//! a pure function of the **electric potential** along the tree
//! (Kirchhoff's voltage law absorbs `ρjL = IR`):
//!
//! ```text
//! σ_ss(x) = β · (V̄ − V(x)),    β = e·Z* / Ω
//! ```
//!
//! where `V̄` is the length-weighted average potential over the tree —
//! the same closed form the fast power-grid EM checkers use (Sukharev &
//! Najm; arXiv 2112.13451 turns it into a linear-time pass). With uniform
//! resistance per length, length-weighting equals resistance-weighting,
//! so `V̄` needs only the branch resistances and the node voltages.
//!
//! The whole screen is therefore: one DC solve ([`emgrid_sparse::solve_spd`]
//! — direct or AMG-preconditioned CG, picked by problem size; usually the
//! one [`PowerGrid`] already ran), one union-find over
//! same-layer branches to recover the trees ([`InterconnectTrees`]), and
//! two passes to form `V̄` and the per-node stresses. Every step is
//! deterministic and bit-identical across thread counts, so a screening
//! report is byte-stable run to run.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use emgrid_em::constants::ELEMENTARY_CHARGE;
use emgrid_em::Technology;
use emgrid_pg::PowerGrid;
use emgrid_runtime::obs;
use emgrid_sparse::{solve_spd, CgOptions, FactorOptions, Method, SparseError};
use emgrid_spice::mna::DcSolution;
use emgrid_spice::netlist::{Element, Netlist, Node};

/// Errors from a screening pass.
#[derive(Debug, Clone, PartialEq)]
pub enum ScreenError {
    /// The DC operating-point solve failed.
    Solve(SparseError),
}

impl fmt::Display for ScreenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScreenError::Solve(e) => write!(f, "screening dc solve failed: {e}"),
        }
    }
}

impl Error for ScreenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScreenError::Solve(e) => Some(e),
        }
    }
}

impl From<SparseError> for ScreenError {
    fn from(e: SparseError) -> Self {
        ScreenError::Solve(e)
    }
}

/// Configuration for one screening pass.
#[derive(Debug, Clone, Default)]
pub struct ScreenOptions {
    /// Linear-solve engine for the operating point (default `auto`:
    /// direct below [`emgrid_sparse::method::AUTO_DIRECT_LIMIT`] unknowns,
    /// CG preconditioned by smoothed-aggregation AMG above). When it
    /// resolves to the engine `auto` picks, with that engine's options at
    /// their defaults apart from `threads`, the grid's nominal solution is
    /// reused instead of solving again.
    pub method: Method,
    /// Direct-path factorization options.
    pub factor: FactorOptions,
    /// Iterative-path CG options.
    pub cg: CgOptions,
    /// Keep only the `k` highest-stress via arrays (`None` = keep all).
    pub top_k: Option<usize>,
    /// Keep only arrays whose steady-state stress reaches this many Pa
    /// (`None` = no stress floor). Combined with `top_k`, both must hold.
    pub stress_threshold: Option<f64>,
}

/// The interconnect trees of a netlist: connected components of
/// **same-layer** resistive branches. Vias and pad straps join different
/// layers (or unnamed pad nodes) and act as diffusion barriers, so they
/// delimit the trees exactly as the dual-damascene liner does.
#[derive(Debug, Clone)]
pub struct InterconnectTrees {
    /// Dense tree id per netlist node id; `u32::MAX` = not on any tree.
    tree_of: Vec<u32>,
    count: usize,
}

const NO_TREE: u32 = u32::MAX;

impl InterconnectTrees {
    /// Runs the union-find decomposition over `netlist`'s resistors.
    pub fn build(netlist: &Netlist) -> Self {
        let n = netlist.node_count();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut in_tree = vec![false; n];
        fn find(parent: &mut [u32], mut v: u32) -> u32 {
            while parent[v as usize] != v {
                let up = parent[parent[v as usize] as usize];
                parent[v as usize] = up;
                v = up;
            }
            v
        }
        for (a, b, _) in same_layer_branches(netlist) {
            in_tree[a as usize] = true;
            in_tree[b as usize] = true;
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra != rb {
                // Deterministic union: the smaller root wins, so the
                // representative is the least node id of the component.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi as usize] = lo;
            }
        }
        // Dense ids in ascending least-node-id order.
        let mut tree_of = vec![NO_TREE; n];
        let mut dense_of_root = vec![NO_TREE; n];
        let mut count = 0u32;
        for v in 0..n as u32 {
            if !in_tree[v as usize] {
                continue;
            }
            let root = find(&mut parent, v);
            if dense_of_root[root as usize] == NO_TREE {
                dense_of_root[root as usize] = count;
                count += 1;
            }
            tree_of[v as usize] = dense_of_root[root as usize];
        }
        InterconnectTrees {
            tree_of,
            count: count as usize,
        }
    }

    /// Number of trees found.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The tree containing `node`, if it lies on one.
    pub fn tree_of(&self, node: Node) -> Option<usize> {
        let id = node.id()?;
        match self.tree_of[id as usize] {
            NO_TREE => None,
            t => Some(t as usize),
        }
    }

    /// Resistance-weighted average node voltage per tree — the `V̄` of the
    /// steady-state stress formula. Each branch contributes its resistance
    /// (∝ length at uniform resistance per length) times the mean of its
    /// endpoint voltages, the trapezoid rule for `(1/L)∫V dx`.
    pub fn average_voltages(&self, netlist: &Netlist, solution: &DcSolution) -> Vec<f64> {
        let mut weight = vec![0.0f64; self.count];
        let mut weighted_v = vec![0.0f64; self.count];
        let mut edges = vec![0usize; self.count];
        let mut plain_v = vec![0.0f64; self.count];
        for (a, b, r) in same_layer_branches(netlist) {
            let t = self.tree_of[a as usize] as usize;
            let mid = 0.5 * (solution.voltage(Node::Id(a)) + solution.voltage(Node::Id(b)));
            weight[t] += r;
            weighted_v[t] += r * mid;
            edges[t] += 1;
            plain_v[t] += mid;
        }
        (0..self.count)
            .map(|t| {
                if weight[t] > 0.0 {
                    weighted_v[t] / weight[t]
                } else {
                    // Degenerate all-zero-resistance tree: unweighted mean.
                    plain_v[t] / edges[t] as f64
                }
            })
            .collect()
    }
}

/// Same-layer resistive branches `(a, b, resistance)`, in element order.
fn same_layer_branches(netlist: &Netlist) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
    netlist.resistors().filter_map(move |(_, e)| {
        let Element::Resistor { a, b, value } = e else {
            return None;
        };
        let (ia, ib) = (a.id()?, b.id()?);
        (netlist.node_layer(ia)? == netlist.node_layer(ib)?).then_some((ia, ib, *value))
    })
}

/// One via array's screening result.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaScore {
    /// Index into [`PowerGrid::via_sites`].
    pub site: usize,
    /// Via element instance name.
    pub name: String,
    /// Steady-state EM stress at the worse of the two tree endpoints, Pa
    /// (positive = tensile, the void-nucleating sign).
    pub stress_pa: f64,
    /// `stress_pa` over the technology's median critical stress — the
    /// dimensionless criticality the ranking is read in.
    pub criticality: f64,
    /// Nominal via current, A.
    pub current_a: f64,
}

/// A ranked screening report.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Grid node count (the DC unknowns come from these).
    pub nodes: usize,
    /// Interconnect trees found.
    pub trees: usize,
    /// `β = e·Z*/Ω`, Pa per volt.
    pub beta_pa_per_v: f64,
    /// Median critical stress used for [`ViaScore::criticality`], Pa.
    pub critical_stress_pa: f64,
    /// Echo of [`ScreenOptions::top_k`].
    pub top_k: Option<usize>,
    /// Echo of [`ScreenOptions::stress_threshold`].
    pub stress_threshold: Option<f64>,
    scores: Vec<ViaScore>,
    selected: usize,
}

impl ScreenReport {
    /// Every via array, ranked: descending stress, ties broken by
    /// ascending site index.
    pub fn ranked(&self) -> &[ViaScore] {
        &self.scores
    }

    /// The selected (to-be-simulated) prefix of [`ScreenReport::ranked`].
    pub fn selected_scores(&self) -> &[ViaScore] {
        &self.scores[..self.selected]
    }

    /// Selected site indices in ascending order — the exact argument for
    /// `PowerGridMc::with_active_sites`. Empty when the stress threshold
    /// excluded every array.
    pub fn selected_sites(&self) -> Vec<usize> {
        let mut sites: Vec<usize> = self.selected_scores().iter().map(|s| s.site).collect();
        sites.sort_unstable();
        sites
    }

    /// Deterministic JSON document: summary plus the selected scores in
    /// rank order. Identical reports render to identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"kind\":\"screen\"");
        let _ = write!(
            out,
            ",\"nodes\":{},\"via_sites\":{},\"trees\":{}",
            self.nodes,
            self.scores.len(),
            self.trees
        );
        let _ = write!(out, ",\"beta_pa_per_v\":{}", fmt_num(self.beta_pa_per_v));
        let _ = write!(
            out,
            ",\"critical_stress_pa\":{}",
            fmt_num(self.critical_stress_pa)
        );
        match self.top_k {
            Some(k) => {
                let _ = write!(out, ",\"top_k\":{k}");
            }
            None => out.push_str(",\"top_k\":null"),
        }
        match self.stress_threshold {
            Some(s) => {
                let _ = write!(out, ",\"stress_threshold\":{}", fmt_num(s));
            }
            None => out.push_str(",\"stress_threshold\":null"),
        }
        let _ = write!(out, ",\"selected\":{},\"scores\":[", self.selected);
        for (i, s) in self.selected_scores().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"site\":{},\"name\":\"{}\",\"stress_pa\":{},\"criticality\":{},\"current_a\":{}}}",
                s.site,
                s.name,
                fmt_num(s.stress_pa),
                fmt_num(s.criticality),
                fmt_num(s.current_a)
            );
        }
        out.push_str("]}");
        out
    }

    /// Human-readable ranked table (at most [`RENDER_ROWS`] rows), built
    /// with fixed-precision formatting so equal reports render to equal
    /// bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EM screen: {} via arrays over {} nodes, {} interconnect trees",
            self.scores.len(),
            self.nodes,
            self.trees
        );
        let _ = writeln!(
            out,
            "beta {:.4e} Pa/V, median critical stress {:.4e} Pa",
            self.beta_pa_per_v, self.critical_stress_pa
        );
        let top_k = match self.top_k {
            Some(k) => k.to_string(),
            None => "-".to_string(),
        };
        let threshold = match self.stress_threshold {
            Some(s) => format!("{s:.4e} Pa"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "selected {} of {} sites (top_k {}, stress_threshold {})",
            self.selected,
            self.scores.len(),
            top_k,
            threshold
        );
        let _ = writeln!(
            out,
            "{:>6}  {:>8}  {:<16} {:>12}  {:>11}  {:>11}",
            "rank", "site", "name", "stress_MPa", "criticality", "current_mA"
        );
        for (rank, s) in self.selected_scores().iter().take(RENDER_ROWS).enumerate() {
            let _ = writeln!(
                out,
                "{:>6}  {:>8}  {:<16} {:>12.4}  {:>11.6}  {:>11.6}",
                rank + 1,
                s.site,
                s.name,
                s.stress_pa / 1e6,
                s.criticality,
                s.current_a * 1e3
            );
        }
        if self.selected > RENDER_ROWS {
            let _ = writeln!(out, "... and {} more", self.selected - RENDER_ROWS);
        }
        out
    }
}

/// Row cap for [`ScreenReport::render`]; `to_json` always carries the
/// full selection.
pub const RENDER_ROWS: usize = 64;

/// Shortest-round-trip float formatting (integral values drop the
/// fraction) — a pure function of the bits, like the daemon's JSON writer.
fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() <= 9.007199254740992e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Whether a screen of an `n`-unknown grid can take the solution
/// `PowerGrid::from_netlist` computed instead of solving again: `options`
/// must resolve to the engine `Method::Auto` picks, with that engine's
/// options equal to the defaults apart from `threads`. That is exactly the
/// solve the grid ran, and a thread count never changes a bit of either
/// engine's result.
fn reuses_nominal(options: &ScreenOptions, n: usize) -> bool {
    let engine = options.method.resolve(n);
    engine == Method::Auto.resolve(n)
        && match engine {
            Method::Direct => {
                FactorOptions {
                    threads: 1,
                    ..options.factor
                } == FactorOptions::default()
            }
            _ => {
                CgOptions {
                    threads: 1,
                    ..options.cg.clone()
                } == CgOptions::default()
            }
        }
}

/// Screens `grid` at its DC operating point: solves once, decomposes into
/// interconnect trees, forms the steady-state stress at every via array's
/// tree endpoints and ranks the arrays by criticality.
///
/// Runs in `O(solve + elements)` — no transient analysis and no sampling —
/// and is bit-deterministic for any thread count in `options`.
///
/// # Errors
///
/// Returns [`ScreenError::Solve`] if the operating-point solve fails.
pub fn screen_grid(
    grid: &PowerGrid,
    tech: &Technology,
    options: &ScreenOptions,
) -> Result<ScreenReport, ScreenError> {
    let _span = obs::span("screen");
    obs::counter("emgrid_screen_runs_total", "screening passes run").inc();
    let dc = grid.dc();
    let solved;
    let solution: &DcSolution = if reuses_nominal(options, dc.unknown_count()) {
        grid.nominal_solution()
    } else {
        let x = {
            let _s = obs::span("screen-solve");
            solve_spd(
                dc.matrix(),
                dc.rhs(),
                options.method,
                &options.factor,
                &options.cg,
            )?
        };
        solved = dc.solution_from_unknowns(&x);
        &solved
    };

    let (trees, vbar) = {
        let _s = obs::span("screen-trees");
        let trees = InterconnectTrees::build(grid.netlist());
        let vbar = trees.average_voltages(grid.netlist(), solution);
        (trees, vbar)
    };

    let beta = ELEMENTARY_CHARGE * tech.effective_charge / tech.atomic_volume;
    let critical = tech.critical_stress_distribution().median();
    let currents = grid.via_currents(solution);
    let end_stress = |node: Node| -> f64 {
        match trees.tree_of(node) {
            Some(t) => beta * (vbar[t] - solution.voltage(node)),
            None => 0.0,
        }
    };
    let mut scores: Vec<ViaScore> = {
        let _s = obs::span("screen-rank");
        grid.via_sites()
            .iter()
            .enumerate()
            .map(|(k, site)| {
                let stress = end_stress(site.lower).max(end_stress(site.upper));
                ViaScore {
                    site: k,
                    name: grid.netlist().element_name(site.element_index).to_owned(),
                    stress_pa: stress,
                    criticality: stress / critical,
                    current_a: currents[k],
                }
            })
            .collect()
    };
    scores.sort_by(|a, b| {
        b.stress_pa
            .total_cmp(&a.stress_pa)
            .then(a.site.cmp(&b.site))
    });
    obs::counter(
        "emgrid_screen_sites_total",
        "via arrays scored by screening",
    )
    .add(scores.len() as u64);

    let mut selected = match options.stress_threshold {
        Some(threshold) => scores.partition_point(|s| s.stress_pa >= threshold),
        None => scores.len(),
    };
    if let Some(k) = options.top_k {
        selected = selected.min(k);
    }
    obs::counter(
        "emgrid_screen_selected_total",
        "via arrays selected for simulation by screening",
    )
    .add(selected as u64);

    Ok(ScreenReport {
        nodes: grid.netlist().node_count(),
        trees: trees.count(),
        beta_pa_per_v: beta,
        critical_stress_pa: critical,
        top_k: options.top_k,
        stress_threshold: options.stress_threshold,
        scores,
        selected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emgrid_spice::benchgen::GridSpec;
    use emgrid_spice::NodeInfo;
    use proptest::prelude::*;

    fn grid(nx: usize, ny: usize) -> PowerGrid {
        PowerGrid::from_netlist(GridSpec::custom("t", nx, ny).generate()).unwrap()
    }

    #[test]
    fn tree_decomposition_finds_every_stripe() {
        // A two-layer mesh has one tree per lower-layer row (x stripes)
        // and one per upper-layer column (y stripes): ny + nx trees.
        let g = grid(7, 5);
        let trees = InterconnectTrees::build(g.netlist());
        assert_eq!(trees.count(), 5 + 7);
        // Via endpoints land on trees of different layers.
        for site in g.via_sites() {
            let lo = trees.tree_of(site.lower).unwrap();
            let up = trees.tree_of(site.upper).unwrap();
            assert_ne!(lo, up);
        }
        // Pad nodes are not on any tree.
        let pad = g.netlist().node_id("pad_0").unwrap();
        assert_eq!(trees.tree_of(pad), None);
    }

    #[test]
    fn tree_stress_has_zero_resistance_weighted_mass() {
        // Mass conservation: the steady-state stress integrates to zero
        // over each tree. Discretely: Σ_branches R·(σ_a+σ_b)/2 = 0.
        let g = grid(8, 6);
        let tech = Technology::default();
        let report = screen_grid(&g, &tech, &ScreenOptions::default()).unwrap();
        let trees = InterconnectTrees::build(g.netlist());
        let vbar = trees.average_voltages(g.netlist(), g.nominal_solution());
        let beta = report.beta_pa_per_v;
        let mut mass = vec![0.0f64; trees.count()];
        let mut scale = vec![0.0f64; trees.count()];
        for (a, b, r) in super::same_layer_branches(g.netlist()) {
            let t = trees.tree_of(Node::Id(a)).unwrap();
            let sa = beta * (vbar[t] - g.nominal_solution().voltage(Node::Id(a)));
            let sb = beta * (vbar[t] - g.nominal_solution().voltage(Node::Id(b)));
            mass[t] += r * 0.5 * (sa + sb);
            scale[t] += r * 0.5 * (sa.abs() + sb.abs());
        }
        for t in 0..trees.count() {
            assert!(
                mass[t].abs() <= 1e-9 * scale[t].max(1.0),
                "tree {t}: residual mass {}",
                mass[t]
            );
        }
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let g = grid(10, 10);
        let tech = Technology::default();
        let a = screen_grid(&g, &tech, &ScreenOptions::default()).unwrap();
        let b = screen_grid(&g, &tech, &ScreenOptions::default()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.ranked().len(), g.via_sites().len());
        assert_eq!(a.selected_sites().len(), g.via_sites().len());
        // Ranked non-increasing; every stress finite.
        for w in a.ranked().windows(2) {
            assert!(w[0].stress_pa >= w[1].stress_pa);
        }
        assert!(a.ranked().iter().all(|s| s.stress_pa.is_finite()));
        // The worst array is under real tensile stress.
        assert!(a.ranked()[0].stress_pa > 0.0);
    }

    #[test]
    fn hotspot_vias_rank_first() {
        // The load hotspot sits at the grid center; the most critical
        // arrays must cluster there, not at the pad ring.
        let spec = GridSpec::pg1();
        let g = PowerGrid::from_netlist(spec.generate()).unwrap();
        let report = screen_grid(&g, &Technology::default(), &ScreenOptions::default()).unwrap();
        let top = &report.ranked()[0];
        let site = &g.via_sites()[top.site];
        let info =
            NodeInfo::parse(g.netlist().node_name(site.lower.id().unwrap())).expect("grid node");
        let (cx, cy) = (spec.nx as i64 / 2, spec.ny as i64 / 2);
        let dist = (info.x - cx).abs().max((info.y - cy).abs());
        assert!(
            dist <= spec.nx as i64 / 4,
            "top-ranked via at ({}, {}), {dist} from center",
            info.x,
            info.y
        );
    }

    #[test]
    fn selection_honours_top_k_and_threshold() {
        let g = grid(9, 9);
        let tech = Technology::default();
        let all = screen_grid(&g, &tech, &ScreenOptions::default()).unwrap();
        let median_stress = all.ranked()[all.ranked().len() / 2].stress_pa;

        let top = screen_grid(
            &g,
            &tech,
            &ScreenOptions {
                top_k: Some(5),
                ..ScreenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(top.selected_scores().len(), 5);
        assert_eq!(
            top.selected_scores(),
            &all.ranked()[..5],
            "top-k must be the ranking prefix"
        );

        let floored = screen_grid(
            &g,
            &tech,
            &ScreenOptions {
                stress_threshold: Some(median_stress),
                ..ScreenOptions::default()
            },
        )
        .unwrap();
        assert!(floored
            .selected_scores()
            .iter()
            .all(|s| s.stress_pa >= median_stress));
        assert!(!floored.selected_scores().is_empty());
        assert!(floored.selected_scores().len() < all.ranked().len());

        let both = screen_grid(
            &g,
            &tech,
            &ScreenOptions {
                top_k: Some(3),
                stress_threshold: Some(median_stress),
                ..ScreenOptions::default()
            },
        )
        .unwrap();
        assert_eq!(both.selected_scores().len(), 3);

        // An impossible threshold selects nothing (the caller decides what
        // an empty selection means).
        let none = screen_grid(
            &g,
            &tech,
            &ScreenOptions {
                stress_threshold: Some(1e12),
                ..ScreenOptions::default()
            },
        )
        .unwrap();
        assert!(none.selected_sites().is_empty());
    }

    #[test]
    fn report_bytes_are_identical_across_threads() {
        // The screening determinism contract: thread counts move wall
        // time, never bytes — on either engine. The grid is past the AMG
        // coarse-level size, so CG runs real V-cycles.
        let g = grid(28, 24);
        assert!(g.dc().unknown_count() > emgrid_sparse::amg::MAX_COARSE);
        let tech = Technology::default();
        for method in [Method::Auto, Method::Cg] {
            let mut reports = Vec::new();
            for threads in [1usize, 4] {
                let mut options = ScreenOptions {
                    method,
                    top_k: Some(25),
                    ..ScreenOptions::default()
                };
                options.factor.threads = threads;
                options.cg.threads = threads;
                let r = screen_grid(&g, &tech, &options).unwrap();
                reports.push((r.to_json(), r.render()));
            }
            for pair in reports.windows(2) {
                assert_eq!(pair[0].0, pair[1].0, "{method:?}: json bytes differ");
                assert_eq!(pair[0].1, pair[1].1, "{method:?}: rendered bytes differ");
            }
        }
    }

    #[test]
    fn nominal_reuse_follows_the_resolved_engine() {
        use emgrid_sparse::method::AUTO_DIRECT_LIMIT;
        use emgrid_sparse::{Ordering, Preconditioner};
        let (small, large) = (AUTO_DIRECT_LIMIT, AUTO_DIRECT_LIMIT + 1);
        let with = |f: &dyn Fn(&mut ScreenOptions)| {
            let mut o = ScreenOptions::default();
            f(&mut o);
            o
        };
        let cases: Vec<(&str, ScreenOptions, bool, bool)> = vec![
            ("defaults", ScreenOptions::default(), true, true),
            ("direct", with(&|o| o.method = Method::Direct), true, false),
            ("cg", with(&|o| o.method = Method::Cg), false, true),
            (
                "threads",
                with(&|o| {
                    o.factor.threads = 4;
                    o.cg.threads = 8;
                }),
                true,
                true,
            ),
            // Options of the engine that does not run are irrelevant.
            (
                "nd ordering",
                with(&|o| o.factor.ordering = Ordering::Nd),
                false,
                true,
            ),
            (
                "cg tolerance",
                with(&|o| o.cg.tolerance = 1e-12),
                true,
                false,
            ),
            (
                "ic0",
                with(&|o| {
                    o.method = Method::Cg;
                    o.cg.preconditioner = Preconditioner::IncompleteCholesky;
                }),
                false,
                false,
            ),
            // Selection knobs never touch the solve.
            ("top_k", with(&|o| o.top_k = Some(3)), true, true),
        ];
        for (label, options, at_small, at_large) in cases {
            assert_eq!(
                reuses_nominal(&options, small),
                at_small,
                "{label}, n = {small}"
            );
            assert_eq!(
                reuses_nominal(&options, large),
                at_large,
                "{label}, n = {large}"
            );
        }
    }

    #[test]
    fn reused_and_resolved_screens_have_identical_bytes() {
        // The rule's premise: the engine `auto` picks, at default options
        // and any thread count, reproduces the grid's nominal solution bit
        // for bit, so reusing it leaves every report byte where a second
        // solve would have put it.
        let g = grid(14, 12);
        let dc = g.dc();
        let bits = |s: &DcSolution| s.voltages().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let again = solve_spd(
            dc.matrix(),
            dc.rhs(),
            Method::Direct,
            &FactorOptions::default().with_threads(4),
            &CgOptions::default(),
        )
        .unwrap();
        assert_eq!(
            bits(&dc.solution_from_unknowns(&again)),
            bits(g.nominal_solution())
        );

        let tech = Technology::default();
        let bytes = |options: ScreenOptions| screen_grid(&g, &tech, &options).unwrap().to_json();
        let reference = bytes(ScreenOptions::default());
        let mut direct = ScreenOptions {
            method: Method::Direct,
            ..ScreenOptions::default()
        };
        direct.factor.threads = 4;
        assert_eq!(bytes(direct), reference);
        let mut threaded = ScreenOptions::default();
        threaded.cg.threads = 4;
        assert_eq!(bytes(threaded), reference);
    }

    #[test]
    fn direct_and_cg_screens_agree_on_the_ranking() {
        let g = grid(10, 8);
        let tech = Technology::default();
        let direct = screen_grid(
            &g,
            &tech,
            &ScreenOptions {
                method: Method::Direct,
                ..ScreenOptions::default()
            },
        )
        .unwrap();
        let mut cg_options = ScreenOptions {
            method: Method::Cg,
            ..ScreenOptions::default()
        };
        cg_options.cg.tolerance = 1e-12;
        let cg = screen_grid(&g, &tech, &cg_options).unwrap();
        // Engines differ in round-off (near-ties may legally swap ranks),
        // so compare per-site stresses and the top of the ranking.
        let m = direct.ranked().len();
        let mut direct_by_site = vec![0.0f64; m];
        let mut cg_by_site = vec![0.0f64; m];
        for s in direct.ranked() {
            direct_by_site[s.site] = s.stress_pa;
        }
        for s in cg.ranked() {
            cg_by_site[s.site] = s.stress_pa;
        }
        let peak = direct_by_site.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for k in 0..m {
            assert!(
                (direct_by_site[k] - cg_by_site[k]).abs() < 1e-6 * peak,
                "site {k}: direct {} vs cg {}",
                direct_by_site[k],
                cg_by_site[k]
            );
        }
        assert_eq!(direct.ranked()[0].site, cg.ranked()[0].site);
    }

    #[test]
    fn json_document_is_well_formed() {
        let g = grid(5, 5);
        let report = screen_grid(
            &g,
            &Technology::default(),
            &ScreenOptions {
                top_k: Some(4),
                stress_threshold: Some(0.0),
                ..ScreenOptions::default()
            },
        )
        .unwrap();
        let json = report.to_json();
        assert!(json.starts_with("{\"kind\":\"screen\""), "{json}");
        assert!(json.contains("\"selected\":4"), "{json}");
        assert!(json.contains("\"top_k\":4"), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert_eq!(json.matches("\"site\":").count(), 4);
        let rendered = report.render();
        assert!(rendered.contains("selected 4 of"), "{rendered}");
    }

    /// Explicit-Euler Korhonen transient on a 1-D line of `n` nodes with
    /// unit segment lengths, blocked ends, and the EM force implied by the
    /// node potentials `v`. Returns the stress per node at time `t_end`
    /// (κ = 1; only the time scale depends on it).
    fn korhonen_transient(v: &[f64], beta: f64, t_end: f64) -> Vec<f64> {
        let n = v.len();
        let mut sigma = vec![0.0f64; n];
        // Segment EM force g_e = −β dV/dx; flux_e = dσ/dx − g_e.
        let g: Vec<f64> = (0..n - 1).map(|e| -beta * (v[e + 1] - v[e])).collect();
        // Finite-volume node cells: half-length at the blocked ends, so the
        // conserved mass Σ wᵢσᵢ is the trapezoid integral of σ.
        let w = |i: usize| if i == 0 || i == n - 1 { 0.5 } else { 1.0 };
        let dt = 0.2; // stable: worst Gershgorin eigenvalue is 4 (end cells)
        let steps = (t_end / dt).ceil() as usize;
        for _ in 0..steps {
            let flux: Vec<f64> = (0..n - 1).map(|e| sigma[e + 1] - sigma[e] - g[e]).collect();
            let mut next = sigma.clone();
            for i in 0..n {
                let inflow = if i > 0 { flux[i - 1] } else { 0.0 };
                let outflow = if i < n - 1 { flux[i] } else { 0.0 };
                next[i] += dt * (outflow - inflow) / w(i);
            }
            sigma = next;
        }
        sigma
    }

    proptest! {
        /// The screening formula σ_ss = β(V̄ − V) is the t→∞ limit of the
        /// Korhonen transient on the same tree: evolve a random potential
        /// profile to long time and compare.
        #[test]
        fn steady_state_matches_transient_korhonen_limit(
            volts in proptest::collection::vec(0.0f64..1.0, 3..14),
        ) {
            let n = volts.len();
            let beta = 2.0; // arbitrary scale; the limit is linear in β
            // Long-time: the slowest Korhonen mode on a blocked line of
            // length L decays as exp(−π²κt/L²); t = 3L² leaves < 1e-12.
            let t_end = 3.0 * (n as f64 - 1.0).powi(2);
            let transient = korhonen_transient(&volts, beta, t_end);
            // Trapezoid length-average of the potential (unit segments).
            let mut vbar = 0.0;
            for e in 0..n - 1 {
                vbar += 0.5 * (volts[e] + volts[e + 1]);
            }
            vbar /= n as f64 - 1.0;
            // The discrete transient conserves Σ node masses with half
            // weights at the blocked ends (the same trapezoid rule), so it
            // converges to the screen's closed form node for node.
            for i in 0..n {
                let steady = beta * (vbar - volts[i]);
                prop_assert!(
                    (transient[i] - steady).abs() < 1e-6 * beta.max(1.0),
                    "node {i}: transient {} vs steady {}",
                    transient[i],
                    steady
                );
            }
        }
    }
}
