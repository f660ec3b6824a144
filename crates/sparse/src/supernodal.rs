//! Supernodal symbolic analysis and blocked numeric LDLᵀ kernels.
//!
//! A symbolic pass over the elimination tree groups columns with nested
//! sparsity patterns into *supernodes*, and the numeric pass factors each
//! supernode as a small dense panel with blocked, cache-contiguous update
//! kernels (a left-looking supernodal factorization in the style of
//! CHOLMOD). This is the one numeric engine behind
//! [`crate::ldl::LdlFactor::factor_with`].
//!
//! Two properties matter for the rest of the workspace:
//!
//! * **Plain CSC output.** The numeric pass writes its result into
//!   compressed-column arrays (one `col_ptr` from the column counts, rows
//!   sorted ascending within each column), so the triangular solves and
//!   the in-place rank-1 updates need not know about supernodes.
//! * **Determinism.** The supernode partition is a pure function of the
//!   permuted sparsity pattern (a fixed merge rule over the elimination tree),
//!   and the numeric pass is sequential with a fixed descendant-update order —
//!   thread counts never enter; bit-identical results are structural, not
//!   incidental.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::panel::PanelKernels;

/// Elimination-tree and supernode structure of a permuted matrix.
pub(crate) struct Symbolic {
    /// Elimination tree; `usize::MAX` marks a root.
    pub parent: Vec<usize>,
    /// CSC column pointers of the strictly-lower part of `L` (`n + 1` long).
    pub col_ptr: Vec<usize>,
    /// Supernode column boundaries: supernode `s` spans columns
    /// `sn_ptr[s]..sn_ptr[s + 1]`.
    pub sn_ptr: Vec<usize>,
    /// Offsets into [`Symbolic::sn_rows`] per supernode (`nsn + 1` long).
    pub sn_rows_ptr: Vec<usize>,
    /// Concatenated, sorted below-supernode row indices per supernode.
    pub sn_rows: Vec<u32>,
}

impl Symbolic {
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    pub fn supernode_count(&self) -> usize {
        self.sn_ptr.len().saturating_sub(1)
    }
}

/// Cap on supernode width in the supernodal engine. Wider panels amortize
/// better but waste work on patterns that only almost match; 48 keeps the
/// dense diagonal block (48×48 f64 ≈ 18 KiB) comfortably in L1/L2. The cap
/// shapes the supernode partition — and thus the panels — but never the
/// factor's CSC layout.
pub(crate) const MAX_SUPERNODE_WIDTH: usize = 48;

/// Computes the elimination tree, column counts, and the supernode
/// partition with per-supernode row patterns for `pa`, the already permuted
/// matrix. `pa` must be square; values are ignored except for their
/// pattern. `max_width` caps supernode width (the factor passes
/// [`MAX_SUPERNODE_WIDTH`]).
pub(crate) fn analyze(pa: &CsrMatrix, max_width: usize) -> Symbolic {
    let max_width = max_width.max(1);
    let n = pa.rows();
    let none = usize::MAX;

    // Elimination tree and per-column counts: for row k, walk the tree
    // upward from every i < k with A(k, i) != 0.
    let mut parent = vec![none; n];
    let mut flag = vec![none; n];
    let mut lnz = vec![0usize; n];
    for k in 0..n {
        flag[k] = k;
        for (i, _) in pa.row(k) {
            if i >= k {
                break;
            }
            let mut j = i;
            while flag[j] != k {
                if parent[j] == none {
                    parent[j] = k;
                }
                lnz[j] += 1;
                flag[j] = k;
                j = parent[j];
            }
        }
    }
    let mut col_ptr = vec![0usize; n + 1];
    for k in 0..n {
        col_ptr[k + 1] = col_ptr[k] + lnz[k];
    }

    // Fundamental supernodes: merge column j into the running supernode when
    // it is the etree parent of j-1 and the two column patterns are nested
    // (count differs by exactly the diagonal position). Both conditions are
    // functions of the pattern only, so the partition is deterministic.
    let mut sn_ptr = vec![0usize];
    for j in 1..n {
        let start = *sn_ptr.last().unwrap();
        let mergeable = parent[j - 1] == j && lnz[j - 1] == lnz[j] + 1 && j - start < max_width;
        if !mergeable {
            sn_ptr.push(j);
        }
    }
    if n > 0 {
        sn_ptr.push(n);
    }
    let nsn = sn_ptr.len() - 1;

    let mut sn_of = vec![0u32; n];
    for s in 0..nsn {
        for j in sn_ptr[s]..sn_ptr[s + 1] {
            sn_of[j] = s as u32;
        }
    }

    // Per-supernode row pattern (rows strictly below the supernode's last
    // column): the union of the supernode's own entries in A and the row
    // tails of its child supernodes in the assembly tree. Processing
    // supernodes in ascending order makes every child available in time.
    let mut sn_rows_ptr = vec![0usize; nsn + 1];
    let mut sn_rows: Vec<u32> = Vec::new();
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); nsn];
    let mut mark = vec![usize::MAX; n];
    for s in 0..nsn {
        let (first, last) = (sn_ptr[s], sn_ptr[s + 1] - 1);
        let base = sn_rows.len();
        for j in first..=last {
            // A is symmetric: row j of the CSR upper part enumerates the
            // below-diagonal entries of column j.
            for (i, _) in pa.row(j) {
                if i > last && mark[i] != s {
                    mark[i] = s;
                    sn_rows.push(i as u32);
                }
            }
        }
        for ci in 0..children[s].len() {
            let d = children[s][ci] as usize;
            for t in sn_rows_ptr[d]..sn_rows_ptr[d + 1] {
                let r = sn_rows[t] as usize;
                if r > last && mark[r] != s {
                    mark[r] = s;
                    sn_rows.push(r as u32);
                }
            }
        }
        sn_rows[base..].sort_unstable();
        sn_rows_ptr[s + 1] = sn_rows.len();
        if let Some(&r0) = sn_rows.get(base) {
            children[sn_of[r0 as usize] as usize].push(s as u32);
        }
        // Sanity: the last column's count must equal the row-tail length.
        debug_assert_eq!(lnz[last], sn_rows.len() - base);
    }

    Symbolic {
        parent,
        col_ptr,
        sn_ptr,
        sn_rows_ptr,
        sn_rows,
    }
}

/// Numeric factor payload `(row_idx, values, diag)` in CSC layout (rows
/// sorted ascending within each column).
pub(crate) type NumericFactor = (Vec<u32>, Vec<f64>, Vec<f64>);

/// Blocked left-looking supernodal numeric factorization of `pa` under the
/// symbolic structure `sym`. Returns `(row_idx, values, diag)` laid out
/// under `sym.col_ptr` (rows sorted ascending within each column).
///
/// All dense panel arithmetic runs through `kernels`: the blocked kernels in
/// production, the reference loops in the tests that check them (both give
/// the same factor bytes, see [`crate::panel`]).
pub(crate) fn factor_numeric<K: PanelKernels>(
    pa: &CsrMatrix,
    sym: &Symbolic,
    kernels: &K,
) -> Result<NumericFactor, SparseError> {
    let n = sym.n();
    let nsn = sym.supernode_count();
    let nnz = sym.col_ptr[n];
    let mut row_idx = vec![0u32; nnz];
    let mut values = vec![0.0f64; nnz];
    let mut diag = vec![0.0f64; n];

    // Left-looking descendant lists: `head[s]` chains (via `next`) the
    // descendant supernodes whose active row window currently lands in
    // supernode s; `cursor[d]` is the index into d's row list where that
    // window starts. Insertion order is a fixed function of the sequential
    // supernode sweep, so the floating-point update order is deterministic.
    let none = u32::MAX;
    let mut head = vec![none; nsn];
    let mut next = vec![none; nsn];
    let mut cursor = vec![0usize; nsn];

    // Scratch reused across supernodes: the frontal panel F (column-major,
    // m × w), a packed update buffer, the descendant tail list handed to the
    // rank-update kernel, and the global row -> panel-slot map.
    let mut front: Vec<f64> = Vec::new();
    let mut update: Vec<f64> = Vec::new();
    let mut tails: Vec<(usize, f64)> = Vec::new();
    let mut slot = vec![0usize; n];

    for s in 0..nsn {
        let first = sym.sn_ptr[s];
        let last = sym.sn_ptr[s + 1] - 1;
        let w = last - first + 1;
        let rows = &sym.sn_rows[sym.sn_rows_ptr[s]..sym.sn_rows_ptr[s + 1]];
        let m = w + rows.len();

        front.clear();
        front.resize(m * w, 0.0);
        for j in first..=last {
            slot[j] = j - first;
        }
        for (t, &r) in rows.iter().enumerate() {
            slot[r as usize] = w + t;
        }

        // Scatter the supernode's columns of A into the panel.
        for j in first..=last {
            let col = (j - first) * m;
            for (i, v) in pa.row(j) {
                if i >= j {
                    front[col + slot[i]] = v;
                }
            }
        }

        // Apply updates from descendant supernodes whose row window starts
        // here. Each contributes the outer product of its active row block
        // scaled by its D entries; the product is accumulated into a packed
        // buffer with contiguous inner loops, then scattered into the panel.
        let mut d = head[s];
        while d != none {
            let dn = next[d as usize];
            let ds = d as usize;
            let d_first = sym.sn_ptr[ds];
            let d_last = sym.sn_ptr[ds + 1] - 1;
            let d_rows = &sym.sn_rows[sym.sn_rows_ptr[ds]..sym.sn_rows_ptr[ds + 1]];
            let p0 = cursor[ds];
            // Active window: rows of d inside this supernode's column span.
            let p1 = p0
                + d_rows[p0..]
                    .iter()
                    .take_while(|&&r| (r as usize) <= last)
                    .count();
            let act = p1 - p0; // update targets (columns of s)
            let len = d_rows.len() - p0; // full update height
            update.clear();
            update.resize(act * len, 0.0);
            tails.clear();
            for k in d_first..=d_last {
                // The row tail of column k of d sits at the end of its CSC
                // column, after the within-supernode interior entries.
                let base = sym.col_ptr[k] + (d_last - k);
                tails.push((base + p0, diag[k]));
            }
            kernels.rank_update(&mut update, len, act, &values, &tails);
            for q in 0..act {
                let col = slot[d_rows[p0 + q] as usize] * m;
                let ucol = &update[q * len..(q + 1) * len];
                for t in q..len {
                    front[col + slot[d_rows[p0 + t] as usize]] -= ucol[t];
                }
            }
            cursor[ds] = p1;
            if p1 < d_rows.len() {
                let anc = sn_of_row(sym, d_rows[p1] as usize);
                next[ds] = head[anc];
                head[anc] = d;
            }
            d = dn;
        }

        // Dense LDLᵀ of the w × w diagonal block, then the triangular solve
        // of the rectangular part against it.
        kernels
            .panel_ldl(&mut front, m, w, &mut diag[first..=last])
            .map_err(|(q, pivot)| SparseError::NotPositiveDefinite {
                column: first + q,
                pivot,
            })?;
        kernels.panel_trsolve(&mut front, m, w, &diag[first..=last]);

        // Store the panel into the shared CSC layout: interior rows first
        // (ascending), then the sorted row tail.
        for q in 0..w {
            let j = first + q;
            let colq = q * m;
            let mut dst = sym.col_ptr[j];
            for t in (q + 1)..w {
                row_idx[dst] = (first + t) as u32;
                values[dst] = front[colq + t];
                dst += 1;
            }
            for (t, &r) in rows.iter().enumerate() {
                row_idx[dst] = r;
                values[dst] = front[colq + w + t];
                dst += 1;
            }
            debug_assert_eq!(dst, sym.col_ptr[j + 1]);
        }

        if !rows.is_empty() {
            let anc = sn_of_row(sym, rows[0] as usize);
            next[s] = head[anc];
            head[anc] = s as u32;
            cursor[s] = 0;
        }
    }

    Ok((row_idx, values, diag))
}

/// Supernode containing column `j`, by binary search over the partition.
fn sn_of_row(sym: &Symbolic, j: usize) -> usize {
    // partition_point returns the first supernode whose start exceeds j.
    sym.sn_ptr.partition_point(|&start| start <= j) - 1
}

/// A structural plan for solving with the forward/backward sweeps split into
/// independent elimination-tree subtrees plus a shared "top" separator.
///
/// The partition is a pure function of the elimination tree and a fixed
/// threshold — thread counts never enter — and the solve routines fold
/// per-subtree contributions in subtree order, so results are bit-identical
/// for any worker count (the same contract as `runtime::par`).
#[derive(Debug, Clone)]
pub(crate) struct SolvePlan {
    /// Columns of the shared top separator, ascending.
    pub top_cols: Vec<u32>,
    /// Offsets into [`SolvePlan::sub_cols`] per subtree.
    pub sub_ptr: Vec<usize>,
    /// Concatenated subtree columns, ascending within each subtree.
    pub sub_cols: Vec<u32>,
    /// Column -> owning subtree, or `u32::MAX` for the top.
    pub home: Vec<u32>,
    /// Column -> index within its home list (top list for top columns).
    pub slot: Vec<u32>,
}

pub(crate) const TOP: u32 = u32::MAX;

impl SolvePlan {
    pub fn subtree_count(&self) -> usize {
        self.sub_ptr.len() - 1
    }

    pub fn sub_cols(&self, c: usize) -> &[u32] {
        &self.sub_cols[self.sub_ptr[c]..self.sub_ptr[c + 1]]
    }
}

/// Minimum system size before a parallel solve plan is worth building.
const PLAN_MIN_N: usize = 4096;

/// Builds the subtree partition for `parent`, or `None` when the system is
/// too small or the tree does not decompose (for example a single path).
pub(crate) fn build_solve_plan(parent: &[usize]) -> Option<SolvePlan> {
    let n = parent.len();
    if n < PLAN_MIN_N {
        return None;
    }
    let none = usize::MAX;
    // Subtree sizes in one pass: children precede parents.
    let mut size = vec![1usize; n];
    for j in 0..n {
        if parent[j] != none {
            let sz = size[j];
            size[parent[j]] += sz;
        }
    }
    // A column is "top" when its subtree is too large to be one work unit.
    // The threshold aims for roughly 64 subtrees; being ancestor-closed is
    // automatic because size is monotone along root paths.
    let threshold = std::cmp::max(n / 64, 512);
    let is_top: Vec<bool> = size.iter().map(|&s| s > threshold).collect();

    let mut home = vec![TOP; n];
    let mut roots: Vec<usize> = Vec::new();
    // Ascending scan: a subtree root is a non-top column whose parent is top
    // (or absent); children inherit their parent's subtree. Parents have
    // larger indices, so propagate top-down by scanning descending.
    for j in (0..n).rev() {
        if is_top[j] {
            continue;
        }
        let p = parent[j];
        if p == none || is_top[p] {
            home[j] = roots.len() as u32;
            roots.push(j);
        } else {
            home[j] = home[p];
        }
    }
    if roots.len() < 2 {
        return None;
    }
    // Reindex subtrees by ascending root column so the fold order is the
    // natural column order.
    let mut by_root: Vec<usize> = (0..roots.len()).collect();
    by_root.sort_unstable_by_key(|&c| roots[c]);
    let mut renum = vec![0u32; roots.len()];
    for (newc, &oldc) in by_root.iter().enumerate() {
        renum[oldc] = newc as u32;
    }

    let nsub = roots.len();
    let mut counts = vec![0usize; nsub];
    let mut top_count = 0usize;
    for j in 0..n {
        if home[j] == TOP {
            top_count += 1;
        } else {
            home[j] = renum[home[j] as usize];
            counts[home[j] as usize] += 1;
        }
    }
    let mut sub_ptr = vec![0usize; nsub + 1];
    for c in 0..nsub {
        sub_ptr[c + 1] = sub_ptr[c] + counts[c];
    }
    let mut sub_cols = vec![0u32; sub_ptr[nsub]];
    let mut top_cols = Vec::with_capacity(top_count);
    let mut fill = sub_ptr.clone();
    let mut slot = vec![0u32; n];
    for j in 0..n {
        if home[j] == TOP {
            slot[j] = top_cols.len() as u32;
            top_cols.push(j as u32);
        } else {
            let c = home[j] as usize;
            slot[j] = (fill[c] - sub_ptr[c]) as u32;
            sub_cols[fill[c]] = j as u32;
            fill[c] += 1;
        }
    }

    Some(SolvePlan {
        top_cols,
        sub_ptr,
        sub_cols,
        home,
        slot,
    })
}
