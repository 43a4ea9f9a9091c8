//! The ForestView session: every loaded dataset plus all interaction state.
//!
//! A `Session` owns the merged dataset interface, per-dataset display
//! orders (identity until clustered, then dendrogram leaf order), gene
//! trees, the current selection, the synchronization flag, the shared zoom
//! scroll position, and pane display preferences — everything Figure 1's
//! boxes above the dataset layer need.

use crate::prefs::PrefsStore;
use crate::selection::{Selection, SelectionOrigin};
use fv_cluster::distance::{condensed_distances, Metric};
use fv_cluster::linkage::{cluster_condensed, Linkage};
use fv_cluster::order::improve_order;
use fv_cluster::tree::ClusterTree;
use fv_expr::merged::MergedDatasets;
use fv_expr::universe::GeneId;
use fv_expr::Dataset;
use fv_expr::ExprError;
use fv_expr::ExprMatrix;
use std::sync::Arc;

/// Which axis of a dataset's matrix a clustering runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Rows: the gene dendrogram and display-row order.
    Genes,
    /// Columns: the array dendrogram (Figure 2) and display-column order.
    Arrays,
}

/// What clustering one axis of one matrix derives — a pure function of
/// (matrix content, axis, metric, linkage), so any number of sessions
/// may hold one behind an [`Arc`] ([`Session::install_clustering`]).
#[derive(Debug, PartialEq)]
pub struct Clustering {
    /// The dendrogram over the axis' rows or columns.
    pub tree: ClusterTree,
    /// Its flip-improved leaf order: display position → row (or column).
    pub order: Vec<usize>,
}

impl Clustering {
    /// Distance matrix → NN-chain linkage → leaf ordering; arrays
    /// cluster the transposed matrix under the same metric.
    pub fn derive(matrix: &ExprMatrix, axis: Axis, metric: Metric, linkage: Linkage) -> Self {
        let distances = match axis {
            Axis::Genes => condensed_distances(matrix, metric),
            Axis::Arrays => condensed_distances(&matrix.transpose(), metric),
        };
        let tree = cluster_condensed(distances.clone(), linkage);
        let (order, _flips) = improve_order(&tree, &distances, 2);
        Clustering { tree, order }
    }
}

/// The application state.
#[derive(Debug)]
pub struct Session {
    merged: MergedDatasets,
    /// Pane display preferences.
    pub prefs: PrefsStore,
    selection: Option<Selection>,
    sync_enabled: bool,
    /// Pane order: indices into the merged dataset list.
    dataset_order: Vec<usize>,
    /// Per dataset: display row → matrix row.
    display_order: Vec<Vec<usize>>,
    /// Per dataset: display position of each matrix row (inverse of
    /// `display_order`), kept for O(1) mark placement.
    display_pos: Vec<Vec<usize>>,
    /// Per dataset: the gene clustering, once installed (shared; its
    /// order is copied out into `display_order`).
    gene_trees: Vec<Option<Arc<Clustering>>>,
    /// Per dataset: the array (condition) clustering, once installed.
    array_trees: Vec<Option<Arc<Clustering>>>,
    /// Per dataset: display column → matrix column.
    col_order: Vec<Vec<usize>>,
    /// Shared zoom scroll offset (in zoom rows).
    scroll: usize,
    /// Distance metric used by parameterless clustering entry points.
    metric: Metric,
    /// Linkage criterion used by parameterless clustering entry points.
    linkage: Linkage,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Empty session with synchronization on (the paper's default view).
    pub fn new() -> Self {
        Session {
            merged: MergedDatasets::new(),
            prefs: PrefsStore::new(),
            selection: None,
            sync_enabled: true,
            dataset_order: Vec::new(),
            display_order: Vec::new(),
            display_pos: Vec::new(),
            gene_trees: Vec::new(),
            array_trees: Vec::new(),
            col_order: Vec::new(),
            scroll: 0,
            metric: Metric::Pearson,
            linkage: Linkage::Average,
        }
    }

    /// Load a dataset into the session (appended as the rightmost pane).
    pub fn load_dataset(&mut self, ds: Dataset) -> Result<usize, ExprError> {
        self.load_shared_dataset(Arc::new(ds))
    }

    /// Load a *shared* dataset handle — the zero-copy path dataset caches
    /// use so many sessions reference one parsed copy. In-place transforms
    /// ([`Session::dataset_matrix_mut`]) copy-on-write, so sharing is
    /// invisible to session semantics.
    pub fn load_shared_dataset(&mut self, ds: Arc<Dataset>) -> Result<usize, ExprError> {
        let n_rows = ds.n_genes();
        let n_cols = ds.n_conditions();
        let idx = self.merged.add_shared(ds)?;
        self.dataset_order.push(idx);
        self.display_order.push((0..n_rows).collect());
        self.display_pos.push((0..n_rows).collect());
        self.gene_trees.push(None);
        self.array_trees.push(None);
        self.col_order.push((0..n_cols).collect());
        Ok(idx)
    }

    /// The merged dataset interface (Figure 1's middle layer).
    pub fn merged(&self) -> &MergedDatasets {
        &self.merged
    }

    /// Number of datasets loaded.
    pub fn n_datasets(&self) -> usize {
        self.merged.n_datasets()
    }

    /// Dataset accessor.
    pub fn dataset(&self, d: usize) -> &Dataset {
        self.merged.dataset(d)
    }

    /// The shared handle behind dataset `d` (see
    /// [`fv_expr::merged::MergedDatasets::dataset_handle`]).
    pub fn dataset_handle(&self, d: usize) -> &Arc<Dataset> {
        self.merged.dataset_handle(d)
    }

    /// Mutable access to dataset `d`'s expression matrix for
    /// shape-preserving in-place transforms (imputation, normalization).
    /// Existing dendrograms are kept; callers that change values should
    /// re-cluster to refresh display orders.
    pub fn dataset_matrix_mut(&mut self, d: usize) -> &mut fv_expr::ExprMatrix {
        self.merged.matrix_mut(d)
    }

    /// Pane order (indices into the dataset list).
    pub fn dataset_order(&self) -> &[usize] {
        &self.dataset_order
    }

    /// Reorder panes. `order` must be a permutation of `0..n_datasets`.
    pub fn set_dataset_order(&mut self, order: Vec<usize>) {
        assert_eq!(
            order.len(),
            self.n_datasets(),
            "order must cover all datasets"
        );
        let mut seen = vec![false; self.n_datasets()];
        for &d in &order {
            assert!(
                d < self.n_datasets() && !seen[d],
                "order must be a permutation"
            );
            seen[d] = true;
        }
        self.dataset_order = order;
    }

    /// Display row → matrix row mapping for dataset `d`.
    pub fn display_order(&self, d: usize) -> &[usize] {
        &self.display_order[d]
    }

    /// Display position of a matrix row in dataset `d`.
    pub fn display_pos_of_row(&self, d: usize, row: usize) -> usize {
        self.display_pos[d][row]
    }

    /// The gene of a display row in dataset `d`.
    pub fn gene_at_display_row(&self, d: usize, display_row: usize) -> Option<GeneId> {
        let row = *self.display_order[d].get(display_row)?;
        let id = &self.merged.dataset(d).genes[row].id;
        self.merged.universe().lookup(id)
    }

    /// Gene dendrogram of dataset `d`, if clustered.
    pub fn gene_tree(&self, d: usize) -> Option<&ClusterTree> {
        self.gene_trees[d].as_ref().map(|c| &c.tree)
    }

    /// Make `clustering` — derived from `d`'s current matrix on `axis`,
    /// the caller vouches — its dendrogram and display order there. The
    /// session's own vectors are overwritten in place: nothing is allocated.
    pub fn install_clustering(&mut self, d: usize, axis: Axis, clustering: Arc<Clustering>) {
        match axis {
            Axis::Genes => {
                self.display_order[d].clone_from(&clustering.order);
                let pos = &mut self.display_pos[d];
                pos.clear();
                pos.resize(clustering.order.len(), 0);
                for (display, &row) in clustering.order.iter().enumerate() {
                    pos[row] = display;
                }
                self.gene_trees[d] = Some(clustering);
            }
            Axis::Arrays => {
                self.col_order[d].clone_from(&clustering.order);
                self.array_trees[d] = Some(clustering);
            }
        }
    }

    fn cluster_axis(&mut self, d: usize, axis: Axis, metric: Metric, linkage: Linkage) {
        let matrix = &self.merged.dataset(d).matrix;
        let clustering = Clustering::derive(matrix, axis, metric, linkage);
        self.install_clustering(d, axis, Arc::new(clustering));
    }

    /// Hierarchically cluster dataset `d`'s genes and reorder its display
    /// rows to the (flip-improved) dendrogram leaf order.
    pub fn cluster_dataset(&mut self, d: usize, metric: Metric, linkage: Linkage) {
        self.cluster_axis(d, Axis::Genes, metric, linkage);
    }

    /// Cluster every dataset with the session's current cluster settings
    /// (the microarray defaults — Pearson distance, average linkage —
    /// unless changed via [`Session::set_metric`] / [`Session::set_linkage`]).
    pub fn cluster_all(&mut self) {
        let (metric, linkage) = self.cluster_settings();
        for d in 0..self.n_datasets() {
            self.cluster_dataset(d, metric, linkage);
        }
    }

    /// Current `(metric, linkage)` pair used by parameterless clustering.
    pub fn cluster_settings(&self) -> (Metric, Linkage) {
        (self.metric, self.linkage)
    }

    /// Set the distance metric for subsequent parameterless clustering.
    /// Already-clustered datasets keep their trees until re-clustered.
    pub fn set_metric(&mut self, metric: Metric) {
        self.metric = metric;
    }

    /// Set the linkage criterion for subsequent parameterless clustering.
    /// Already-clustered datasets keep their trees until re-clustered.
    pub fn set_linkage(&mut self, linkage: Linkage) {
        self.linkage = linkage;
    }

    /// Array (condition) dendrogram of dataset `d`, if clustered.
    pub fn array_tree(&self, d: usize) -> Option<&ClusterTree> {
        self.array_trees[d].as_ref().map(|c| &c.tree)
    }

    /// Display column → matrix column mapping for dataset `d`.
    pub fn col_order(&self, d: usize) -> &[usize] {
        &self.col_order[d]
    }

    /// Hierarchically cluster dataset `d`'s **conditions** (the array tree
    /// of Figure 2) and reorder its display columns to the dendrogram
    /// leaf order. Uses the transposed matrix under the same metric.
    pub fn cluster_arrays(&mut self, d: usize, metric: Metric, linkage: Linkage) {
        self.cluster_axis(d, Axis::Arrays, metric, linkage);
    }

    /// Export dataset `d` as a clustered-data-table bundle: `(cdt, gtr,
    /// atr)` texts, rows in gene-tree order and columns in array-tree
    /// order, with `GENE<i>X` / `ARRY<j>X` identities linking them — the
    /// TreeView-compatible persistence of a clustered pane. Tree files are
    /// `None` for axes that have not been clustered.
    pub fn export_clustered_cdt(&self, d: usize) -> (String, Option<String>, Option<String>) {
        let ds = self.merged.dataset(d);
        let row_order = &self.display_order[d];
        let col_order = &self.col_order[d];
        let reordered = ds
            .subset_rows(row_order, ds.name.clone())
            .expect("display order in bounds");
        let reordered = Dataset::new(
            reordered.name.clone(),
            reordered
                .matrix
                .select_cols(col_order)
                .expect("col order in bounds"),
            reordered.genes.clone(),
            col_order
                .iter()
                .map(|&c| ds.conditions[c].clone())
                .collect(),
        )
        .expect("shapes agree");
        let gene_leaf = self.gene_tree(d).map(|_| row_order.as_slice());
        let array_leaf = self.array_tree(d).map(|_| col_order.as_slice());
        let cdt = fv_formats::cdt::write_cdt(&reordered, gene_leaf, array_leaf);
        let gtr = self
            .gene_tree(d)
            .map(|t| fv_formats::tree_files::write_tree(t, fv_formats::tree_files::GENE_PREFIX));
        let atr = self
            .array_tree(d)
            .map(|t| fv_formats::tree_files::write_tree(t, fv_formats::tree_files::ARRAY_PREFIX));
        (cdt, gtr, atr)
    }

    // ── selection ───────────────────────────────────────────────────────

    /// Current selection.
    pub fn selection(&self) -> Option<&Selection> {
        self.selection.as_ref()
    }

    /// Replace the selection.
    pub fn set_selection(&mut self, sel: Selection) {
        self.scroll = 0;
        self.selection = Some(sel);
    }

    /// Clear the selection.
    pub fn clear_selection(&mut self) {
        self.selection = None;
        self.scroll = 0;
    }

    /// Select a display-row range of dataset `d`'s global view (the mouse
    /// highlight path of Section 2). Rows are display rows; the selection
    /// preserves their on-screen order. Returns the selection size.
    pub fn select_region(&mut self, d: usize, start_row: usize, end_row: usize) -> usize {
        let n = self.display_order[d].len();
        let start = start_row.min(n);
        let end = end_row.min(n);
        let genes: Vec<GeneId> = (start..end)
            .filter_map(|dr| self.gene_at_display_row(d, dr))
            .collect();
        let sel = Selection::new(
            genes,
            SelectionOrigin::Region {
                dataset: d,
                start_row: start,
                end_row: end,
            },
        );
        let len = sel.len();
        self.set_selection(sel);
        len
    }

    /// Select genes by name (exact id/common-name match through the
    /// universe). Unknown names are dropped. Returns the selection size.
    pub fn select_genes(&mut self, names: &[&str], origin: SelectionOrigin) -> usize {
        let genes = self.merged.resolve_genes(names);
        let sel = Selection::new(genes, origin);
        let len = sel.len();
        self.set_selection(sel);
        len
    }

    /// Search every dataset's gene metadata (substring, case-insensitive)
    /// and select the union of hits. Returns the selection size.
    pub fn search_and_select(&mut self, query: &str) -> usize {
        let genes = crate::search::search_genes(&self.merged, query);
        let sel = Selection::new(
            genes,
            SelectionOrigin::Search {
                query: query.to_string(),
            },
        );
        let len = sel.len();
        self.set_selection(sel);
        len
    }

    // ── synchronization & scrolling ─────────────────────────────────────

    /// Whether synchronized viewing is on.
    pub fn sync_enabled(&self) -> bool {
        self.sync_enabled
    }

    /// Toggle synchronized viewing; returns the new state.
    pub fn toggle_sync(&mut self) -> bool {
        self.sync_enabled = !self.sync_enabled;
        self.sync_enabled
    }

    /// Set synchronized viewing.
    pub fn set_sync(&mut self, on: bool) {
        self.sync_enabled = on;
    }

    /// Shared zoom scroll offset (rows).
    pub fn scroll(&self) -> usize {
        self.scroll
    }

    /// Scroll the synchronized zoom views by `delta` rows, clamped to the
    /// selection size.
    pub fn scroll_by(&mut self, delta: i64) {
        let max = self
            .selection
            .as_ref()
            .map_or(0, |s| s.len().saturating_sub(1));
        let next = self.scroll as i64 + delta;
        self.scroll = next.clamp(0, max as i64) as usize;
    }

    // ── export ──────────────────────────────────────────────────────────

    /// Export the current selection as a plain gene list.
    pub fn export_gene_list(&self) -> String {
        match &self.selection {
            Some(sel) => fv_formats::export::export_gene_list(&self.merged, sel.genes()),
            None => String::new(),
        }
    }

    /// Export the current selection's expression across all datasets.
    pub fn export_merged_selection(&self) -> String {
        match &self.selection {
            Some(sel) => fv_formats::export::export_merged(&self.merged, sel.genes()),
            None => String::new(),
        }
    }

    /// Load the current selection back in as a new dataset drawn from
    /// dataset `d` (Section 2's "loaded into the ForestView display as a
    /// dataset"). Returns the new dataset index.
    pub fn selection_as_new_dataset(
        &mut self,
        d: usize,
        name: &str,
    ) -> Result<Option<usize>, ExprError> {
        let Some(sel) = &self.selection else {
            return Ok(None);
        };
        let ds = fv_formats::export::selection_as_dataset(&self.merged, d, sel.genes(), name);
        Ok(Some(self.load_dataset(ds)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_expr::matrix::ExprMatrix;
    use fv_expr::meta::{ConditionMeta, GeneMeta};

    fn ds(name: &str, ids: &[&str], vals: &[f32], n_cols: usize) -> Dataset {
        let m = ExprMatrix::from_rows(ids.len(), n_cols, vals).unwrap();
        let genes = ids
            .iter()
            .map(|&i| GeneMeta::new(i, format!("N{i}"), format!("annotation for {i}")))
            .collect();
        let conds = (0..n_cols)
            .map(|c| ConditionMeta::new(format!("c{c}")))
            .collect();
        Dataset::new(name, m, genes, conds).unwrap()
    }

    fn session() -> Session {
        let mut s = Session::new();
        s.load_dataset(ds(
            "a",
            &["G1", "G2", "G3", "G4"],
            &[
                1.0, 2.0, 3.0, 4.0, //
                1.1, 2.1, 3.1, 4.1, //
                4.0, 3.0, 2.0, 1.0, //
                4.2, 3.1, 2.2, 1.1,
            ],
            4,
        ))
        .unwrap();
        s.load_dataset(ds(
            "b",
            &["G3", "G1", "G5"],
            &[1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.5, 0.5, 0.6],
            3,
        ))
        .unwrap();
        s
    }

    #[test]
    fn load_assigns_identity_order() {
        let s = session();
        assert_eq!(s.n_datasets(), 2);
        assert_eq!(s.display_order(0), &[0, 1, 2, 3]);
        assert_eq!(s.dataset_order(), &[0, 1]);
    }

    #[test]
    fn cluster_reorders_display() {
        let mut s = session();
        s.cluster_dataset(0, Metric::Pearson, Linkage::Average);
        let order = s.display_order(0).to_vec();
        // correlated pairs (0,1) and (2,3) must be adjacent
        let pos: Vec<usize> = (0..4)
            .map(|r| order.iter().position(|&x| x == r).unwrap())
            .collect();
        assert_eq!((pos[0] as i64 - pos[1] as i64).abs(), 1);
        assert_eq!((pos[2] as i64 - pos[3] as i64).abs(), 1);
        assert!(s.gene_tree(0).is_some());
        // display_pos is the inverse permutation
        for r in 0..4 {
            assert_eq!(order[s.display_pos_of_row(0, r)], r);
        }
    }

    #[test]
    fn select_region_maps_display_rows_to_genes() {
        let mut s = session();
        let n = s.select_region(0, 1, 3);
        assert_eq!(n, 2);
        let sel = s.selection().unwrap();
        let names: Vec<&str> = sel
            .genes()
            .iter()
            .map(|&g| s.merged().universe().name(g))
            .collect();
        assert_eq!(names, vec!["G2", "G3"]);
    }

    #[test]
    fn select_region_clamps_range() {
        let mut s = session();
        let n = s.select_region(1, 0, 99);
        assert_eq!(n, 3);
    }

    #[test]
    fn select_genes_drops_unknown() {
        let mut s = session();
        let n = s.select_genes(&["G1", "NOPE", "G5"], SelectionOrigin::List);
        assert_eq!(n, 2);
    }

    #[test]
    fn search_and_select_across_datasets() {
        let mut s = session();
        // "G3" appears in both datasets; union should contain it once.
        let n = s.search_and_select("G3");
        assert_eq!(n, 1);
        // annotation text matches everything containing "annotation"
        let n_all = s.search_and_select("annotation for");
        assert_eq!(n_all, 5); // G1..G5 across both datasets
    }

    #[test]
    fn sync_toggle_and_scroll_clamp() {
        let mut s = session();
        assert!(s.sync_enabled());
        assert!(!s.toggle_sync());
        s.set_sync(true);
        assert!(s.sync_enabled());

        s.select_region(0, 0, 4);
        s.scroll_by(2);
        assert_eq!(s.scroll(), 2);
        s.scroll_by(100);
        assert_eq!(s.scroll(), 3); // clamped to len-1
        s.scroll_by(-100);
        assert_eq!(s.scroll(), 0);
    }

    #[test]
    fn new_selection_resets_scroll() {
        let mut s = session();
        s.select_region(0, 0, 4);
        s.scroll_by(3);
        s.select_region(0, 0, 2);
        assert_eq!(s.scroll(), 0);
    }

    #[test]
    fn export_gene_list_matches_selection() {
        let mut s = session();
        s.select_genes(&["G3", "G1"], SelectionOrigin::List);
        assert_eq!(s.export_gene_list(), "G3\nG1\n");
        s.clear_selection();
        assert_eq!(s.export_gene_list(), "");
    }

    #[test]
    fn export_merged_selection_has_all_datasets() {
        let mut s = session();
        s.select_genes(&["G1"], SelectionOrigin::List);
        let text = s.export_merged_selection();
        let header = text.lines().next().unwrap();
        assert!(header.contains("a::c0"));
        assert!(header.contains("b::c2"));
    }

    #[test]
    fn selection_as_new_dataset_loads_pane() {
        let mut s = session();
        s.select_genes(&["G1", "G3"], SelectionOrigin::List);
        let idx = s.selection_as_new_dataset(0, "picked").unwrap().unwrap();
        assert_eq!(idx, 2);
        assert_eq!(s.n_datasets(), 3);
        assert_eq!(s.dataset(2).n_genes(), 2);
        assert_eq!(s.dataset_order(), &[0, 1, 2]);
    }

    #[test]
    fn set_dataset_order_validates() {
        let mut s = session();
        s.set_dataset_order(vec![1, 0]);
        assert_eq!(s.dataset_order(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_dataset_order_panics() {
        let mut s = session();
        s.set_dataset_order(vec![0, 0]);
    }

    #[test]
    fn cluster_arrays_reorders_columns() {
        let mut s = Session::new();
        // 4 conditions: c0≈c3 and c1≈c2 (columns as condition profiles)
        let m = ExprMatrix::from_rows(
            4,
            4,
            &[
                1.0, 5.0, 5.1, 1.1, //
                2.0, 7.0, 7.2, 2.1, //
                3.0, 4.0, 4.1, 3.1, //
                0.0, 9.0, 9.1, 0.2,
            ],
        )
        .unwrap();
        s.load_dataset(Dataset::with_default_meta("d", m)).unwrap();
        assert_eq!(s.col_order(0), &[0, 1, 2, 3]);
        s.cluster_arrays(0, Metric::Euclidean, Linkage::Average);
        assert!(s.array_tree(0).is_some());
        let order = s.col_order(0).to_vec();
        // similar condition pairs end up adjacent
        let pos: Vec<usize> = (0..4)
            .map(|c| order.iter().position(|&x| x == c).unwrap())
            .collect();
        assert_eq!(
            (pos[0] as i64 - pos[3] as i64).abs(),
            1,
            "c0/c3 adjacent: {order:?}"
        );
        assert_eq!(
            (pos[1] as i64 - pos[2] as i64).abs(),
            1,
            "c1/c2 adjacent: {order:?}"
        );
    }

    #[test]
    fn export_clustered_cdt_roundtrips() {
        let mut s = session();
        s.cluster_dataset(0, Metric::Pearson, Linkage::Average);
        s.cluster_arrays(0, Metric::Euclidean, Linkage::Average);
        let (cdt, gtr, atr) = s.export_clustered_cdt(0);
        assert!(gtr.is_some() && atr.is_some());
        let parsed = fv_formats::cdt::parse_cdt("a", &cdt).unwrap();
        assert_eq!(parsed.gene_leaf.as_deref(), Some(s.display_order(0)));
        assert_eq!(parsed.array_leaf.as_deref(), Some(s.col_order(0)));
        // trees parse against the CDT dimensions
        let gt = fv_formats::tree_files::parse_tree(
            &gtr.unwrap(),
            fv_formats::tree_files::GENE_PREFIX,
            parsed.dataset.n_genes(),
        )
        .unwrap();
        assert_eq!(gt.leaf_order(), s.display_order(0));
        let at = fv_formats::tree_files::parse_tree(
            &atr.unwrap(),
            fv_formats::tree_files::ARRAY_PREFIX,
            parsed.dataset.n_conditions(),
        )
        .unwrap();
        assert_eq!(at.n_leaves(), 4);
        // first CDT row is the gene that sits first in display order
        let first_orig = s.display_order(0)[0];
        assert_eq!(
            parsed.dataset.genes[0].id,
            s.dataset(0).genes[first_orig].id
        );
    }

    #[test]
    fn export_unclustered_cdt_has_no_trees() {
        let s = session();
        let (cdt, gtr, atr) = s.export_clustered_cdt(1);
        assert!(gtr.is_none() && atr.is_none());
        assert!(cdt.starts_with("ID\tNAME"));
    }

    #[test]
    fn gene_at_display_row_resolves() {
        let s = session();
        let g = s.gene_at_display_row(1, 0).unwrap();
        assert_eq!(s.merged().universe().name(g), "G3");
        assert!(s.gene_at_display_row(1, 10).is_none());
    }
}
