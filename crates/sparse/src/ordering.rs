//! Fill-reducing orderings and permutations.
//!
//! Power-grid conductance matrices and finite-element stiffness matrices are
//! mesh-structured. Two orderings keep their Cholesky fill low: approximate
//! minimum degree ([`amd`], the default) and nested dissection
//! ([`nested_dissection`], whose fill grows as `O(n log n)` on planar
//! meshes).

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A permutation of `0..n`.
///
/// `perm[new] = old`: position `new` of the permuted object holds element
/// `old` of the original (the convention used by
/// [`CsrMatrix::permute_symmetric`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    map: Vec<usize>,
}

impl Permutation {
    /// Validates and wraps a permutation vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if `map` is not a bijection
    /// on `0..map.len()`.
    pub fn new(map: Vec<usize>) -> Result<Self, SparseError> {
        let n = map.len();
        let mut seen = vec![false; n];
        for &v in &map {
            if v >= n || seen[v] {
                return Err(SparseError::IndexOutOfBounds { index: v, bound: n });
            }
            seen[v] = true;
        }
        Ok(Permutation { map })
    }

    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            map: (0..n).collect(),
        }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maps a new index to the old index it draws from.
    ///
    /// # Panics
    ///
    /// Panics if `new` is out of bounds.
    pub fn map(&self, new: usize) -> usize {
        self.map[new]
    }

    /// Returns the inverse permutation (old index -> new index).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.map.len()];
        for (new, &old) in self.map.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { map: inv }
    }

    /// Gathers `x` into permuted order: `out[new] = x[perm[new]]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.map.len());
        self.map.iter().map(|&old| x[old]).collect()
    }

    /// Scatters `x` back to original order: `out[perm[new]] = x[new]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn apply_inverse(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.map.len());
        let mut out = vec![0.0; x.len()];
        for (new, &old) in self.map.iter().enumerate() {
            out[old] = x[new];
        }
        out
    }

    /// Exposes the raw `new -> old` map.
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }
}

/// Symmetrized adjacency lists (pattern of `a | aᵀ`, self-loops dropped,
/// each list sorted and deduplicated) — the graph view every ordering here
/// works on.
fn symmetric_adjacency(a: &CsrMatrix) -> Vec<Vec<u32>> {
    let n = a.rows();
    let t = a.transpose();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in 0..n {
        for (c, _) in a.row(r) {
            if c != r {
                adj[r].push(c as u32);
            }
        }
        for (c, _) in t.row(r) {
            if c != r {
                adj[r].push(c as u32);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// Computes an approximate-minimum-degree (AMD) fill-reducing ordering of a
/// symmetric sparsity pattern.
///
/// The input is interpreted as an undirected graph (pattern of `a | aᵀ`);
/// values are ignored. This is the Amestoy–Davis–Duff algorithm on the
/// quotient graph: eliminating a pivot `p` replaces it and its adjacent
/// elements by one new element with boundary `Lp`, and the external degree of
/// each boundary variable `v` is then *approximated* as
/// `|A_v| + |Lp \ v| + Σ_e |Le \ Lp|`, where every `|Le \ Lp|` is obtained
/// for all affected elements in a single sweep over their boundaries. That
/// bound is what makes AMD near-linear — recomputing exact degrees by set
/// union is quadratic on finite-element graphs. Elements whose boundary falls
/// entirely inside `Lp` are absorbed, and boundary variables with identical
/// quotient-graph adjacency are merged into supervariables (bucketed by an
/// order-independent checksum, then compared exactly), which is what keeps
/// boundaries short on mesh-structured matrices.
///
/// Determinism: pivots come off a heap keyed `(degree, vertex index)` with
/// smallest-index tie-breaks, supervariable classes merge toward their
/// smallest member index, and no randomized container is involved anywhere,
/// so the returned permutation is a pure function of the sparsity pattern —
/// never of thread count.
///
/// Returns a [`Permutation`] in the `perm[new] = old` convention of
/// [`CsrMatrix::permute_symmetric`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn amd(a: &CsrMatrix) -> Permutation {
    assert_eq!(a.rows(), a.cols(), "AMD needs a square matrix");
    let n = a.rows();
    let mut adj = symmetric_adjacency(a);

    const NONE: u32 = u32::MAX;
    // Quotient-graph state. An eliminated pivot p becomes element p with
    // boundary `bound[p]`; `elems[v]` lists the elements adjacent to variable
    // v; `adj[v]` keeps only original edges not yet covered by an element.
    // Lists may hold stale ids (eliminated, merged, or absorbed); every scan
    // filters on the state arrays instead of eagerly rewriting other lists.
    let mut elems: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut bound: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut absorbed_elem = vec![false; n];
    // Supervariables: `merged_into[v] != NONE` means v was found
    // indistinguishable from a lower-indexed variable and rides along with it
    // from here on; `size[v]` counts the members of a principal variable,
    // which sit on an intrusive chain so elimination emits them together.
    let mut merged_into = vec![NONE; n];
    let mut size = vec![1u32; n];
    let mut chain_next = vec![NONE; n];
    let mut chain_tail: Vec<u32> = (0..n as u32).collect();

    let mut degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();
    let mut stamp = vec![0u64; n]; // variable visitation stamps (Lp membership)
    let mut estamp = vec![0u64; n]; // element visitation stamps (w sweep)
    let mut w = vec![0usize; n]; // |Le \ Lp| per element, valid for one pivot
    let mut cur = 0u64;
    let mut live = n; // vertices not yet eliminated

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> =
        (0..n).map(|v| Reverse((degree[v], v as u32))).collect();
    let mut order = Vec::with_capacity(n);
    let mut lp: Vec<u32> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let mut buckets: Vec<(u32, u32)> = Vec::new();

    while let Some(Reverse((d, p))) = heap.pop() {
        let p = p as usize;
        // Lazy deletion: skip stale entries and variables merged away.
        if eliminated[p] || merged_into[p] != NONE || d != degree[p] {
            continue;
        }

        // Form the new element's boundary Lp: the pivot's remaining variable
        // neighbors plus the boundaries of its adjacent elements, which the
        // new element absorbs (their boundaries are subsets of Lp ∪ {p}).
        cur += 1;
        stamp[p] = cur;
        lp.clear();
        for &v in &adj[p] {
            let v = v as usize;
            if !eliminated[v] && merged_into[v] == NONE && stamp[v] != cur {
                stamp[v] = cur;
                lp.push(v as u32);
            }
        }
        for &e in &elems[p] {
            let e = e as usize;
            if absorbed_elem[e] {
                continue;
            }
            for &v in &bound[e] {
                let v = v as usize;
                if !eliminated[v] && merged_into[v] == NONE && stamp[v] != cur {
                    stamp[v] = cur;
                    lp.push(v as u32);
                }
            }
            absorbed_elem[e] = true;
            bound[e] = Vec::new();
        }
        eliminated[p] = true;
        live -= size[p] as usize;
        adj[p] = Vec::new();
        elems[p] = Vec::new();
        // Emit the pivot and every variable merged into it, in merge order.
        let mut m = p as u32;
        while m != NONE {
            order.push(m as usize);
            m = chain_next[m as usize];
        }
        let lp_total: usize = lp.iter().map(|&v| size[v as usize] as usize).sum();

        // One sweep computes w[e] = |Le \ Lp| for every element adjacent to
        // a boundary variable — the approximation that gives AMD its "A".
        // Each such boundary is scanned once per pivot (compacting stale ids
        // in passing), then discounted by the sizes of its Lp members.
        touched.clear();
        for &v in &lp {
            let v = v as usize;
            for &e in &elems[v] {
                let e = e as usize;
                if absorbed_elem[e] {
                    continue;
                }
                if estamp[e] != cur {
                    estamp[e] = cur;
                    touched.push(e as u32);
                    let mut total = 0usize;
                    bound[e].retain(|&u| {
                        let u = u as usize;
                        if eliminated[u] || merged_into[u] != NONE {
                            return false;
                        }
                        total += size[u] as usize;
                        true
                    });
                    w[e] = total;
                }
                w[e] -= size[v] as usize;
            }
        }
        // Aggressive absorption: an element with no boundary outside Lp is
        // made redundant by the new one.
        for &e in &touched {
            if w[e as usize] == 0 {
                absorbed_elem[e as usize] = true;
                bound[e as usize] = Vec::new();
            }
        }

        // Prune each boundary variable's lists — edges inside Lp are now
        // covered by element p, absorbed elements drop out — and attach p.
        for &v in &lp {
            let v = v as usize;
            adj[v].retain(|&u| {
                let u = u as usize;
                !eliminated[u] && merged_into[u] == NONE && stamp[u] != cur
            });
            elems[v].retain(|&e| !absorbed_elem[e as usize]);
            elems[v].push(p as u32);
            elems[v].sort_unstable();
        }
        bound[p] = lp.clone();

        // Supervariable detection: bucket boundary variables by an order-
        // independent checksum of their quotient adjacency, compare
        // equal-checksum candidates exactly (both lists are sorted), and
        // merge duplicates into the smallest member index.
        buckets.clear();
        for &v in &lp {
            let v = v as usize;
            let mut h = 0u32;
            for &u in &adj[v] {
                h = h.wrapping_add(u);
            }
            for &e in &elems[v] {
                h = h.wrapping_add(e);
            }
            buckets.push((h, v as u32));
        }
        buckets.sort_unstable();
        let mut i = 0;
        while i < buckets.len() {
            let mut j = i + 1;
            while j < buckets.len() && buckets[j].0 == buckets[i].0 {
                j += 1;
            }
            for x in i..j {
                let u = buckets[x].1 as usize;
                if merged_into[u] != NONE {
                    continue;
                }
                for y in (x + 1)..j {
                    let v = buckets[y].1 as usize;
                    if merged_into[v] != NONE {
                        continue;
                    }
                    if adj[u] == adj[v] && elems[u] == elems[v] {
                        merged_into[v] = u as u32;
                        size[u] += size[v];
                        chain_next[chain_tail[u] as usize] = v as u32;
                        chain_tail[u] = chain_tail[v];
                        adj[v] = Vec::new();
                        elems[v] = Vec::new();
                    }
                }
            }
            i = j;
        }

        // Approximate external degrees for the surviving boundary variables.
        for &v in &lp {
            let v = v as usize;
            if merged_into[v] != NONE {
                continue;
            }
            let a_ext: usize = adj[v].iter().map(|&u| size[u as usize] as usize).sum();
            let e_ext: usize = elems[v]
                .iter()
                .filter(|&&e| e as usize != p)
                .map(|&e| w[e as usize])
                .sum();
            let dv = (a_ext + (lp_total - size[v] as usize) + e_ext).min(live - size[v] as usize);
            degree[v] = dv;
            heap.push(Reverse((dv, v as u32)));
        }
    }
    debug_assert_eq!(order.len(), n);
    Permutation { map: order }
}

/// Pieces at or below this size stop recursing and are ordered locally by
/// minimum degree; dissecting further would only add separator overhead.
const ND_BASE: usize = 64;

/// Computes a nested-dissection fill-reducing ordering of a symmetric
/// sparsity pattern.
///
/// The input is interpreted as an undirected graph (pattern of `a | aᵀ`);
/// values are ignored. This is George-style level-set dissection: each
/// piece runs a BFS from a pseudo-peripheral vertex, splits its level
/// structure at the median level, takes as vertex separator the median-
/// level vertices with a neighbor on the far side, orders the two halves
/// recursively and the separator *last*. On planar-ish meshes (power
/// grids, FEA stiffness graphs) separators have size `O(√n)`, which bounds
/// Cholesky fill by `O(n log n)` — the asymptotics that matter once grids
/// reach millions of nodes. Pieces of at most 64 vertices (`ND_BASE`) are
/// ordered by [`amd`] on the extracted subgraph.
///
/// Determinism: BFS frontiers expand in sorted adjacency order, ties in
/// the peripheral search break toward the smallest vertex index, and the
/// separator is emitted in ascending index order, so the permutation is a
/// pure function of the sparsity pattern.
///
/// Returns a [`Permutation`] in the `perm[new] = old` convention of
/// [`CsrMatrix::permute_symmetric`].
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn nested_dissection(a: &CsrMatrix) -> Permutation {
    assert_eq!(
        a.rows(),
        a.cols(),
        "nested dissection needs a square matrix"
    );
    let n = a.rows();
    let adj = symmetric_adjacency(a);

    let mut map = vec![0usize; n];
    // Membership stamps: `piece_stamp[v] == cur` means v belongs to the
    // piece being processed; `level[v]` is only valid under the same stamp.
    // `visit_stamp` marks BFS visitation (two sweeps per piece, so it gets
    // its own counter).
    let mut piece_stamp = vec![0u64; n];
    let mut visit_stamp = vec![0u64; n];
    let mut level = vec![0u32; n];
    let mut cur = 0u64;
    let mut vcur = 0u64;
    // Work list of (vertices, output offset); a piece owns the output
    // positions `[offset, offset + len)`.
    let mut stack: Vec<(Vec<u32>, usize)> = Vec::new();
    if n > 0 {
        stack.push(((0..n as u32).collect(), 0));
    }

    while let Some((verts, offset)) = stack.pop() {
        if verts.len() <= ND_BASE {
            order_base_case(&adj, &verts, &mut map[offset..offset + verts.len()]);
            continue;
        }
        cur += 1;
        for &v in &verts {
            piece_stamp[v as usize] = cur;
        }

        // BFS 1: from the piece's minimum-degree vertex to a farthest
        // vertex (pseudo-peripheral); BFS 2 from there gives the level
        // structure actually split. Both expand sorted adjacency, so the
        // levels are deterministic.
        let start = *verts
            .iter()
            .min_by_key(|&&v| (adj[v as usize].len(), v))
            .expect("piece is non-empty");
        vcur += 1;
        let (reached, _) = bfs_levels(
            &adj,
            start,
            cur,
            &piece_stamp,
            vcur,
            &mut visit_stamp,
            &mut level,
        );
        if reached.len() < verts.len() {
            // Disconnected piece: peel the reached component off and keep
            // the rest as its own piece. Both are strictly smaller. The BFS
            // stamped exactly the reached vertices with `vcur`.
            let rest: Vec<u32> = verts
                .iter()
                .copied()
                .filter(|&v| visit_stamp[v as usize] != vcur)
                .collect();
            let split = reached.len();
            stack.push((reached, offset));
            stack.push((rest, offset + split));
            continue;
        }
        let far = *reached.last().expect("component is non-empty");
        vcur += 1;
        let (ordered, depth) = bfs_levels(
            &adj,
            far,
            cur,
            &piece_stamp,
            vcur,
            &mut visit_stamp,
            &mut level,
        );

        // Split at the level where the cumulative count first reaches half
        // the piece; the separator is the median-level vertices adjacent to
        // the far side.
        if depth < 2 {
            // Complete-graph-like piece: no useful separator exists.
            order_base_case(&adj, &verts, &mut map[offset..offset + verts.len()]);
            continue;
        }
        let mut counts = vec![0usize; depth as usize + 1];
        for &v in &ordered {
            counts[level[v as usize] as usize] += 1;
        }
        let mut split_level = 0u32;
        let mut seen = 0usize;
        for (l, &c) in counts.iter().enumerate() {
            seen += c;
            if seen * 2 >= ordered.len() {
                split_level = (l as u32).min(depth - 1);
                break;
            }
        }

        let mut low: Vec<u32> = Vec::new();
        let mut high: Vec<u32> = Vec::new();
        let mut sep: Vec<u32> = Vec::new();
        for &v in &ordered {
            let lv = level[v as usize];
            if lv < split_level {
                low.push(v);
            } else if lv > split_level {
                high.push(v);
            } else if adj[v as usize]
                .iter()
                .any(|&u| piece_stamp[u as usize] == cur && level[u as usize] == lv + 1)
            {
                sep.push(v);
            } else {
                low.push(v);
            }
        }
        if low.is_empty() || high.is_empty() {
            order_base_case(&adj, &verts, &mut map[offset..offset + verts.len()]);
            continue;
        }
        // Layout: low half, high half, separator last (it is the piece's
        // elimination frontier, so it must come after both halves).
        sep.sort_unstable();
        let sep_at = offset + low.len() + high.len();
        for (i, &v) in sep.iter().enumerate() {
            map[sep_at + i] = v as usize;
        }
        let high_at = offset + low.len();
        stack.push((low, offset));
        stack.push((high, high_at));
    }

    debug_assert_eq!(
        {
            let mut seen = map.clone();
            seen.sort_unstable();
            seen
        },
        (0..n).collect::<Vec<_>>()
    );
    Permutation { map }
}

/// BFS over one piece from `start`, writing levels under `stamp` into
/// `level` and returning the reached vertices in visitation order plus the
/// maximum level.
#[allow(clippy::too_many_arguments)]
fn bfs_levels(
    adj: &[Vec<u32>],
    start: u32,
    stamp: u64,
    piece_stamp: &[u64],
    vstamp: u64,
    visit_stamp: &mut [u64],
    level: &mut [u32],
) -> (Vec<u32>, u32) {
    let mut reached = vec![start];
    visit_stamp[start as usize] = vstamp;
    level[start as usize] = 0;
    let mut head = 0;
    let mut depth = 0;
    while head < reached.len() {
        let v = reached[head];
        head += 1;
        for &u in &adj[v as usize] {
            let u = u as usize;
            if piece_stamp[u] == stamp && visit_stamp[u] != vstamp {
                visit_stamp[u] = vstamp;
                level[u] = level[v as usize] + 1;
                depth = depth.max(level[u]);
                reached.push(u as u32);
            }
        }
    }
    (reached, depth)
}

/// Orders a small piece by [`amd`] on the extracted subgraph, writing the
/// resulting original-vertex ids into `out` (`out[i]` = old id in position
/// `offset + i` of the global ordering).
fn order_base_case(adj: &[Vec<u32>], verts: &[u32], out: &mut [usize]) {
    use crate::coo::TripletMatrix;
    debug_assert_eq!(verts.len(), out.len());
    let mut local = std::collections::HashMap::with_capacity(verts.len());
    for (i, &v) in verts.iter().enumerate() {
        local.insert(v, i);
    }
    let mut t = TripletMatrix::new(verts.len(), verts.len());
    for (i, &v) in verts.iter().enumerate() {
        t.push(i, i, 1.0);
        for &u in &adj[v as usize] {
            if let Some(&j) = local.get(&u) {
                t.push(i, j, -1.0);
            }
        }
    }
    let p = amd(&t.to_csr());
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = verts[p.map(i)] as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use crate::ldl::{FactorOptions, LdlFactor, Ordering};
    use proptest::prelude::*;

    fn grid_graph(nx: usize, ny: usize) -> CsrMatrix {
        let id = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(nx * ny, nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                t.push(id(x, y), id(x, y), 4.0);
                if x + 1 < nx {
                    t.push_sym(id(x, y), id(x + 1, y), -1.0);
                }
                if y + 1 < ny {
                    t.push_sym(id(x, y), id(x, y + 1), -1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn permutation_rejects_non_bijection() {
        assert!(Permutation::new(vec![0, 0, 1]).is_err());
        assert!(Permutation::new(vec![0, 3]).is_err());
        assert!(Permutation::new(vec![1, 0, 2]).is_ok());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::new(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        for i in 0..4 {
            assert_eq!(inv.map(p.map(i)), i);
        }
    }

    #[test]
    fn apply_then_apply_inverse_round_trips() {
        let p = Permutation::new(vec![2, 0, 3, 1]).unwrap();
        let x = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(p.apply_inverse(&p.apply(&x)), x);
    }

    #[test]
    fn amd_is_a_permutation_and_deterministic() {
        let m = grid_graph(9, 7);
        let p1 = amd(&m);
        let p2 = amd(&m);
        assert_eq!(p1, p2, "AMD must be deterministic on identical input");
        let mut seen = p1.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..63).collect::<Vec<_>>());
    }

    /// Off-diagonal nonzeros of `m`'s factor under `ordering`, or under
    /// no permutation at all for `None`.
    fn fill(m: &CsrMatrix, ordering: Option<Ordering>) -> usize {
        let opts = FactorOptions::default();
        match ordering {
            Some(o) => LdlFactor::factor_with(m, &opts.with_ordering(o)),
            None => LdlFactor::factor_permuted(m, Permutation::identity(m.rows()), &opts),
        }
        .unwrap()
        .l_nnz()
    }

    #[test]
    fn amd_beats_natural_fill_on_grid() {
        let m = grid_graph(24, 24);
        let natural_fill = fill(&m, None);
        let amd_fill = fill(&m, Some(Ordering::Amd));
        assert!(
            amd_fill < natural_fill,
            "amd fill {amd_fill} vs natural fill {natural_fill}"
        );
    }

    #[test]
    fn amd_handles_disconnected_and_diagonal_graphs() {
        // Pure diagonal: any order is fine, must still be a permutation.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        let p = amd(&t.to_csr());
        let mut seen = p.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);

        // Two disjoint paths.
        let mut t = TripletMatrix::new(6, 6);
        for i in 0..2 {
            t.push_sym(i, i + 1, -1.0);
        }
        for i in 3..5 {
            t.push_sym(i, i + 1, -1.0);
        }
        for i in 0..6 {
            t.push(i, i, 2.0);
        }
        let p = amd(&t.to_csr());
        let mut seen = p.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn nested_dissection_is_a_permutation_and_deterministic() {
        let m = grid_graph(17, 23);
        let p1 = nested_dissection(&m);
        let p2 = nested_dissection(&m);
        assert_eq!(p1, p2, "ND must be deterministic on identical input");
        let mut seen = p1.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..17 * 23).collect::<Vec<_>>());
    }

    #[test]
    fn nested_dissection_fill_is_competitive_on_grids() {
        let m = grid_graph(32, 32);
        let natural_fill = fill(&m, None);
        let nd_fill = fill(&m, Some(Ordering::Nd));
        assert!(
            nd_fill < natural_fill,
            "nd fill {nd_fill} vs natural fill {natural_fill}"
        );
        // On a 32×32 grid ND should land in the same regime as AMD, not
        // degenerate toward natural-order fill.
        let amd_fill = fill(&m, Some(Ordering::Amd));
        assert!(
            nd_fill <= amd_fill * 3 / 2,
            "nd fill {nd_fill} vs amd fill {amd_fill}"
        );
    }

    #[test]
    fn nested_dissection_handles_disconnected_and_tiny_graphs() {
        // Pure diagonal.
        let mut t = TripletMatrix::new(4, 4);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        let p = nested_dissection(&t.to_csr());
        let mut seen = p.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);

        // Two disjoint grids, each above the base-case size.
        let nx = 12usize;
        let block = nx * nx;
        let mut t = TripletMatrix::new(2 * block, 2 * block);
        for b in 0..2 {
            let id = |x: usize, y: usize| b * block + y * nx + x;
            for y in 0..nx {
                for x in 0..nx {
                    t.push(id(x, y), id(x, y), 4.0);
                    if x + 1 < nx {
                        t.push_sym(id(x, y), id(x + 1, y), -1.0);
                    }
                    if y + 1 < nx {
                        t.push_sym(id(x, y), id(x, y + 1), -1.0);
                    }
                }
            }
        }
        let p = nested_dissection(&t.to_csr());
        let mut seen = p.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..2 * block).collect::<Vec<_>>());

        // 300 disjoint 4-vertex paths: peeled one component at a time
        // until the rest fits the base case.
        let n = 300 * 4;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i % 4 != 3 {
                t.push_sym(i, i + 1, -1.0);
            }
        }
        let p = nested_dissection(&t.to_csr());
        let mut seen = p.as_slice().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        assert_eq!(p, nested_dissection(&t.to_csr()));

        // Empty matrix.
        let p = nested_dissection(&TripletMatrix::new(0, 0).to_csr());
        assert!(p.is_empty());
    }

    proptest! {
        #[test]
        fn nested_dissection_is_always_a_permutation(
            edges in proptest::collection::vec((0u32..90, 0u32..90), 0..300)
        ) {
            // 90 vertices beats ND_BASE, so dissection paths actually run.
            let mut t = TripletMatrix::new(90, 90);
            for i in 0..90 {
                t.push(i, i, 1.0);
            }
            for (a, b) in edges {
                t.push(a as usize, b as usize, -1.0);
            }
            let p = nested_dissection(&t.to_csr());
            let mut seen = p.as_slice().to_vec();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..90).collect::<Vec<_>>());
        }

        #[test]
        fn amd_is_always_a_permutation(
            edges in proptest::collection::vec((0u32..12, 0u32..12), 0..40)
        ) {
            let mut t = TripletMatrix::new(12, 12);
            for i in 0..12 {
                t.push(i, i, 1.0);
            }
            for (a, b) in edges {
                t.push(a as usize, b as usize, -1.0);
            }
            let p = amd(&t.to_csr());
            let mut seen = p.as_slice().to_vec();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..12).collect::<Vec<_>>());
        }
    }
}
