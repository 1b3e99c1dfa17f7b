//! Parameter blocks used by the paper's cost models.
//!
//! * [`SystemParams`] — Table 2 of the paper: per-operation CPU times, I/O
//!   operation times, and the universal fudge factor `F`.
//! * [`RelationShape`] — sizes of the relations R and S in the join study.
//! * [`AccessGeometry`] — the §2 relation characteristics
//!   (`||R||, K, T, Pg, P`).
//! * [`CostWeights`] — the §4 Selinger-style objective `W·CPU + IO`.
//! * [`JoinAlgorithm`] — the four §3 join algorithms, one type for the
//!   closed-form model, the optimizer's plans and the executor.
//! * [`CommitPolicy`] — how a §5.2 commit becomes durable, one type for
//!   the closed-form model, the virtual-time recovery manager and the
//!   wall-clock engine.

/// Per-operation costs, Table 2 of the paper. CPU times are in
/// **microseconds**, I/O times in **milliseconds**; accessors convert to
/// seconds so downstream arithmetic is unit-safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// `comp` — time to compare keys, µs.
    pub comp_us: f64,
    /// `hash` — time to hash a key, µs.
    pub hash_us: f64,
    /// `move` — time to move a tuple, µs.
    pub move_us: f64,
    /// `swap` — time to swap two tuples, µs.
    pub swap_us: f64,
    /// `IOseq` — sequential I/O operation time, ms.
    pub io_seq_ms: f64,
    /// `IOrand` — random I/O operation time, ms.
    pub io_rand_ms: f64,
    /// `F` — universal fudge factor for hash tables / sort structures.
    pub fudge: f64,
}

impl SystemParams {
    /// The exact Table 2 settings: comp 3 µs, hash 9 µs, move 20 µs,
    /// swap 60 µs, IOseq 10 ms, IOrand 25 ms, F = 1.2.
    pub fn table2() -> Self {
        SystemParams {
            comp_us: 3.0,
            hash_us: 9.0,
            move_us: 20.0,
            swap_us: 60.0,
            io_seq_ms: 10.0,
            io_rand_ms: 25.0,
            fudge: 1.2,
        }
    }

    /// `comp` in seconds.
    pub fn comp(&self) -> f64 {
        self.comp_us * 1e-6
    }

    /// `hash` in seconds.
    pub fn hash(&self) -> f64 {
        self.hash_us * 1e-6
    }

    /// `move` in seconds.
    pub fn mv(&self) -> f64 {
        self.move_us * 1e-6
    }

    /// `swap` in seconds.
    pub fn swap(&self) -> f64 {
        self.swap_us * 1e-6
    }

    /// `IOseq` in seconds.
    pub fn io_seq(&self) -> f64 {
        self.io_seq_ms * 1e-3
    }

    /// `IOrand` in seconds.
    pub fn io_rand(&self) -> f64 {
        self.io_rand_ms * 1e-3
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams::table2()
    }
}

/// Shapes of the two relations joined in §3, Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationShape {
    /// `|R|` — pages in the smaller relation R.
    pub r_pages: u64,
    /// `|S|` — pages in the larger relation S.
    pub s_pages: u64,
    /// `||R||/|R|` — R tuples per page.
    pub r_tuples_per_page: u64,
    /// `||S||/|S|` — S tuples per page.
    pub s_tuples_per_page: u64,
}

impl RelationShape {
    /// Table 2: `|R| = |S| = 10 000` pages, 40 tuples per page.
    pub fn table2() -> Self {
        RelationShape {
            r_pages: 10_000,
            s_pages: 10_000,
            r_tuples_per_page: 40,
            s_tuples_per_page: 40,
        }
    }

    /// `||R||` — total tuples in R.
    pub fn r_tuples(&self) -> u64 {
        self.r_pages * self.r_tuples_per_page
    }

    /// `||S||` — total tuples in S.
    pub fn s_tuples(&self) -> u64 {
        self.s_pages * self.s_tuples_per_page
    }
}

impl Default for RelationShape {
    fn default() -> Self {
        RelationShape::table2()
    }
}

/// §2 relation characteristics for the access-method study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessGeometry {
    /// `||R||` — number of tuples in the relation.
    pub tuples: u64,
    /// `K` — key width, bytes.
    pub key_width: u64,
    /// `T` — tuple width, bytes.
    pub tuple_width: u64,
    /// `Pg` — page size, bytes.
    pub page_size: u64,
    /// `P` — pointer width, bytes.
    pub pointer_width: u64,
}

impl AccessGeometry {
    /// A representative 1984-flavoured default: one million 100-byte tuples
    /// with 8-byte keys, 4 KB pages and 4-byte pointers.
    pub fn standard() -> Self {
        AccessGeometry {
            tuples: 1_000_000,
            key_width: 8,
            tuple_width: 100,
            page_size: 4096,
            pointer_width: 4,
        }
    }

    /// AVL node width: tuple plus two child pointers (§2).
    pub fn avl_node_width(&self) -> u64 {
        self.tuple_width + 2 * self.pointer_width
    }

    /// `S` — pages occupied by the AVL structure:
    /// `ceil(||R|| · (T + 2P) / Pg)`.
    pub fn avl_pages(&self) -> u64 {
        let total = self.tuples * self.avl_node_width();
        total.div_ceil(self.page_size)
    }

    /// B+-tree fanout under Yao's 69 % average occupancy:
    /// `floor(0.69 · Pg / (K + P))`, at least 2.
    pub fn btree_fanout(&self) -> u64 {
        let f = (0.69 * self.page_size as f64 / (self.key_width + self.pointer_width) as f64)
            .floor() as u64;
        f.max(2)
    }

    /// Tuples per 69 %-full B+-tree leaf.
    pub fn btree_leaf_capacity(&self) -> u64 {
        ((0.69 * self.page_size as f64 / self.tuple_width as f64).floor() as u64).max(1)
    }

    /// `D` — number of leaf pages of the B+-tree.
    pub fn btree_leaves(&self) -> u64 {
        self.tuples.div_ceil(self.btree_leaf_capacity())
    }

    /// Height of the B+-tree *index* (levels above the leaves):
    /// `ceil(log_fanout(D))`.
    pub fn btree_height(&self) -> u64 {
        let d = self.btree_leaves() as f64;
        let f = self.btree_fanout() as f64;
        if d <= 1.0 {
            return 0;
        }
        (d.ln() / f.ln()).ceil() as u64
    }

    /// `S'` — total pages of the B+-tree. The paper's first approximation is
    /// `S' = D`; we add the (small) interior-node term `D·f/(f−1) − D`.
    pub fn btree_pages(&self) -> u64 {
        let d = self.btree_leaves();
        let f = self.btree_fanout();
        // Geometric series of interior levels on top of D leaves.
        let mut pages = d;
        let mut level = d;
        while level > 1 {
            level = level.div_ceil(f);
            pages += level;
        }
        pages
    }

    /// `C = log2(||R||) + 0.25` — AVL comparisons per random lookup (Knuth).
    pub fn avl_comparisons(&self) -> f64 {
        (self.tuples as f64).log2() + 0.25
    }

    /// `C' = log2(||R||)` — B+-tree comparisons per random lookup (the
    /// paper's simplifying assumption `C = C' = log2 ||R||`).
    pub fn btree_comparisons(&self) -> f64 {
        (self.tuples as f64).log2()
    }
}

impl Default for AccessGeometry {
    fn default() -> Self {
        AccessGeometry::standard()
    }
}

/// Weights for the §4 planning objective `W·|CPU| + |I/O|` (Selinger).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// `W` — relative weight of a second of CPU versus one I/O operation.
    pub cpu_weight: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // One I/O ≈ 10 ms; weighting CPU seconds at 100 makes 10 ms of CPU
        // equal one sequential I/O, a balanced 1984-era default.
        CostWeights { cpu_weight: 100.0 }
    }
}

/// One of the four §3 join algorithms: what the model prices, the
/// optimizer chooses and the executor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgorithm {
    /// §3.4 standard sort-merge.
    SortMerge,
    /// §3.5 multipass simple hash.
    SimpleHash,
    /// §3.6 GRACE hash (hashing used in phase 2, per the paper).
    GraceHash,
    /// §3.7 the paper's new hybrid hash.
    HybridHash,
}

impl JoinAlgorithm {
    /// All four, in the paper's presentation order.
    pub const ALL: [JoinAlgorithm; 4] = [
        JoinAlgorithm::SortMerge,
        JoinAlgorithm::SimpleHash,
        JoinAlgorithm::GraceHash,
        JoinAlgorithm::HybridHash,
    ];

    /// Short lowercase name, for reports and plans.
    pub fn name(&self) -> &'static str {
        match self {
            JoinAlgorithm::SortMerge => "sort-merge",
            JoinAlgorithm::SimpleHash => "simple-hash",
            JoinAlgorithm::GraceHash => "grace-hash",
            JoinAlgorithm::HybridHash => "hybrid-hash",
        }
    }
}

/// How a commit becomes durable (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitPolicy {
    /// Every commit forces its own log page and the committer waits for
    /// the write — the paper's 100 tps baseline, one page write per
    /// transaction.
    Synchronous,
    /// Commit records share log pages: one page write commits whatever
    /// arrived since the previous one left, and the committer is
    /// *pre-committed* in between, holding no locks. A page leaves when
    /// it fills, or — partial — once somebody is blocked on it and a
    /// device is free (on the wall clock, also once the group window is
    /// open).
    Group,
    /// Group commit over `devices` log devices, the §5.2 recipe for
    /// pushing past one device's page rate: up to `devices` pages are in
    /// flight at once. Durability stays one LSN prefix across all of them.
    Partitioned {
        /// Number of log devices.
        devices: usize,
    },
}

impl CommitPolicy {
    /// Number of log devices this policy writes.
    pub fn devices(&self) -> usize {
        match self {
            CommitPolicy::Synchronous | CommitPolicy::Group => 1,
            CommitPolicy::Partitioned { devices } => (*devices).max(1),
        }
    }

    /// Short lowercase name, for reports and file names.
    pub fn name(&self) -> &'static str {
        match self {
            CommitPolicy::Synchronous => "sync",
            CommitPolicy::Group => "group",
            CommitPolicy::Partitioned { .. } => "partitioned",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_device_counts() {
        assert_eq!(CommitPolicy::Synchronous.devices(), 1);
        assert_eq!(CommitPolicy::Group.devices(), 1);
        assert_eq!(CommitPolicy::Partitioned { devices: 4 }.devices(), 4);
        assert_eq!(CommitPolicy::Partitioned { devices: 0 }.devices(), 1);
    }

    #[test]
    fn table2_matches_paper() {
        let p = SystemParams::table2();
        assert_eq!(p.comp_us, 3.0);
        assert_eq!(p.hash_us, 9.0);
        assert_eq!(p.move_us, 20.0);
        assert_eq!(p.swap_us, 60.0);
        assert_eq!(p.io_seq_ms, 10.0);
        assert_eq!(p.io_rand_ms, 25.0);
        assert_eq!(p.fudge, 1.2);
        // Unit conversions.
        assert!((p.comp() - 3e-6).abs() < 1e-15);
        assert!((p.io_rand() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn relation_shape_tuple_counts() {
        let s = RelationShape::table2();
        assert_eq!(s.r_tuples(), 400_000);
        assert_eq!(s.s_tuples(), 400_000);
    }

    #[test]
    fn avl_pages_standard() {
        let g = AccessGeometry::standard();
        // 1e6 tuples * 108 bytes / 4096 = 26 368 pages (ceil).
        assert_eq!(g.avl_node_width(), 108);
        assert_eq!(g.avl_pages(), (1_000_000u64 * 108).div_ceil(4096));
    }

    #[test]
    fn btree_geometry_standard() {
        let g = AccessGeometry::standard();
        // fanout = floor(0.69*4096/12) = 235
        assert_eq!(g.btree_fanout(), 235);
        // leaf capacity = floor(0.69*4096/100) = 28
        assert_eq!(g.btree_leaf_capacity(), 28);
        let d = 1_000_000u64.div_ceil(28);
        assert_eq!(g.btree_leaves(), d);
        // height = ceil(log_235(35715)) = 2
        assert_eq!(g.btree_height(), 2);
        // S' slightly exceeds D.
        assert!(g.btree_pages() > d);
        assert!(g.btree_pages() < d + d / 100);
    }

    #[test]
    fn avl_structure_is_smaller_than_btree() {
        // With T >> P and 69 % B+-tree occupancy, S ≈ 0.69 · S' (§2).
        let g = AccessGeometry::standard();
        let ratio = g.avl_pages() as f64 / g.btree_pages() as f64;
        assert!(
            (0.6..0.8).contains(&ratio),
            "S/S' = {ratio} out of expected band"
        );
    }

    #[test]
    fn comparison_counts() {
        let g = AccessGeometry::standard();
        assert!((g.avl_comparisons() - (1e6f64.log2() + 0.25)).abs() < 1e-9);
        assert!(g.avl_comparisons() > g.btree_comparisons());
    }

    #[test]
    fn degenerate_single_page_tree() {
        let g = AccessGeometry {
            tuples: 10,
            key_width: 8,
            tuple_width: 100,
            page_size: 4096,
            pointer_width: 4,
        };
        assert_eq!(g.btree_leaves(), 1);
        assert_eq!(g.btree_height(), 0);
        assert_eq!(g.btree_pages(), 1);
    }
}
