//! The four §3 join algorithms, plus a nested-loops reference.
//!
//! Each algorithm has one core, generic over its [`Row`] type and its
//! [`Meter`], that hands every matching pair to an `emit(&Tuple, &Tuple)`
//! sink: the SQL layer runs the cores unmetered over rows lent from its
//! cache and builds only the projected output row, while the
//! `&MemRelation` functions — what the 1984 experiments and their
//! `CostMeter` pins call — are wrappers whose sink pushes the
//! concatenated pair into a result relation. All of them
//! take the same inputs — `R` (smaller) and `S`, a [`JoinSpec`] naming
//! the key columns, and an [`crate::ExecContext`] — and produce the same
//! pairs, so every algorithm is testable against every other. They differ
//! only in what they charge to the meter.

pub mod grace;
pub mod hybrid;
pub mod nested_loops;
pub mod simple_hash;
pub mod sort_merge;

pub use grace::grace_hash_join;
pub use hybrid::hybrid_hash_join;
pub use nested_loops::nested_loops_join;
pub use simple_hash::simple_hash_join;
pub use sort_merge::sort_merge_join;

use crate::partition::hash_key;
use crate::{ExecContext, MemRelation, Meter, Row, Rows};
use mmdb_types::{JoinAlgorithm, Result, Schema, Tuple};
use std::borrow::Borrow;

/// Which columns join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSpec {
    /// Key column index in R.
    pub r_key: usize,
    /// Key column index in S.
    pub s_key: usize,
}

impl JoinSpec {
    /// Joins on column `r_key` of R and `s_key` of S.
    pub fn new(r_key: usize, s_key: usize) -> Self {
        JoinSpec { r_key, s_key }
    }

    /// Schema of the join output.
    pub fn output_schema(&self, r: &MemRelation, s: &MemRelation) -> Schema {
        r.schema().join(s.schema())
    }
}

/// Builds the output relation container for a join. Result tuples are not
/// charged (§3.2: the cost of writing the result is ignored).
fn output_relation(spec: &JoinSpec, r: &MemRelation, s: &MemRelation) -> MemRelation {
    MemRelation::new(
        spec.output_schema(r, s),
        r.tuples_per_page().max(s.tuples_per_page()),
    )
}

/// The sink every core hands its matching pairs to, `R`'s row first.
pub trait Emit: FnMut(&Tuple, &Tuple) -> Result<()> {}

impl<F: FnMut(&Tuple, &Tuple) -> Result<()>> Emit for F {}

/// No entry: the end of a chain, or an empty bucket.
const NIL: u32 = u32::MAX;

/// An in-memory chained hash table for build/probe phases over a
/// borrowed build side: it holds positions in `tuples`, never the rows
/// themselves. Each bucket is a chain head and a chain tail; each
/// inserted position has its key's hash and the next position of its
/// chain, so a chain keeps insertion order and a probe compares a key
/// only where the stored hash matches. It charges its meter: the
/// *caller* charges `hash` when it computes the key hash; the table
/// charges `move` per insertion and `comp` per chain comparison during
/// probes.
#[derive(Debug)]
pub(crate) struct ProbeTable<'a, T, M> {
    tuples: &'a [T],
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// By position in `tuples`; meaningful only for inserted positions.
    hashes: Vec<u64>,
    next: Vec<u32>,
    meter: M,
    key_col: usize,
}

impl<'a, T: Borrow<Tuple>, M: Meter> ProbeTable<'a, T, M> {
    /// A table over `tuples` expecting about `expected` of them to be
    /// inserted.
    pub fn new(meter: M, key_col: usize, expected: usize, tuples: &'a [T]) -> Self {
        assert!(
            tuples.len() < NIL as usize,
            "build side too large for u32 positions"
        );
        let n = expected.next_power_of_two().max(16);
        ProbeTable {
            tuples,
            heads: vec![NIL; n],
            tails: vec![NIL; n],
            hashes: vec![0; tuples.len()],
            next: vec![NIL; tuples.len()],
            meter,
            key_col,
        }
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash & (self.heads.len() as u64 - 1)) as usize
    }

    /// Inserts the build tuple at position `pos`, whose key hashed to
    /// `hash` (one `move`). Each position is inserted at most once.
    pub fn insert(&mut self, pos: usize, hash: u64) {
        self.meter.charge_moves(1);
        let b = self.bucket(hash);
        let at = pos as u32;
        self.hashes[pos] = hash;
        match self.tails[b] {
            NIL => self.heads[b] = at,
            tail => self.next[tail as usize] = at,
        }
        self.tails[b] = at;
    }

    /// Probes with a key hash and the probing tuple's key value; invokes
    /// `on_match` for every matching build tuple, in insertion order,
    /// stopping at the first error. Charges one `comp` per chain entry
    /// whose hash matches (the key comparison the paper prices at
    /// `F · comp` on average).
    pub fn probe(
        &self,
        hash: u64,
        key: &mmdb_types::Value,
        mut on_match: impl FnMut(&'a Tuple) -> Result<()>,
    ) -> Result<()> {
        let mut at = self.heads[self.bucket(hash)];
        while at != NIL {
            let pos = at as usize;
            if self.hashes[pos] == hash {
                self.meter.charge_comparisons(1);
                let t: &'a Tuple = self.tuples[pos].borrow();
                if t.get(self.key_col) == key {
                    on_match(t)?;
                }
            }
            at = self.next[pos];
        }
        Ok(())
    }
}

/// Hashes the join key of `tuple`, charging one `hash`.
pub(crate) fn charged_hash(meter: &impl Meter, tuple: &Tuple, key_col: usize) -> u64 {
    meter.charge_hashes(1);
    hash_key(tuple.get(key_col))
}

/// Test helper: canonical (sorted) multiset of a relation's tuples, so two
/// join outputs can be compared regardless of production order.
pub fn canonical(rel: &MemRelation) -> Vec<Tuple> {
    let mut v = rel.tuples().to_vec();
    v.sort();
    v
}

/// Runs the selected algorithm's core, handing each matching pair to
/// `emit`.
pub fn join_rows<T: Row, M: Meter>(
    algo: JoinAlgorithm,
    r: Rows<'_, T>,
    s: Rows<'_, T>,
    spec: JoinSpec,
    ctx: &ExecContext<M>,
    emit: impl Emit,
) -> Result<()> {
    match algo {
        JoinAlgorithm::SortMerge => sort_merge::join_rows(r, s, spec, ctx, emit),
        JoinAlgorithm::SimpleHash => simple_hash::join_rows(r, s, spec, ctx, emit),
        JoinAlgorithm::GraceHash => grace::join_rows(r, s, spec, ctx, emit),
        JoinAlgorithm::HybridHash => hybrid::join_rows(r, s, spec, ctx, emit).map(drop),
    }
}

/// Runs the selected join algorithm over two relations, collecting each
/// matching pair concatenated into the result relation.
pub fn run_join(
    algo: JoinAlgorithm,
    r: &MemRelation,
    s: &MemRelation,
    spec: JoinSpec,
    ctx: &ExecContext,
) -> Result<MemRelation> {
    let mut out = output_relation(&spec, r, s);
    join_rows(
        algo,
        r.into(),
        s.into(),
        spec,
        ctx,
        |rt: &Tuple, st: &Tuple| out.push(rt.concat(st)),
    )?;
    Ok(out)
}

#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use mmdb_types::{DataType, WorkloadRng};

    /// A keyed relation of `n` tuples with keys drawn from `[0, key_space)`.
    pub fn keyed(seed: u64, n: usize, key_space: i64, per_page: usize) -> MemRelation {
        let mut rng = WorkloadRng::seeded(seed);
        let schema = Schema::of(&[("k", DataType::Int), ("payload", DataType::Int)]);
        MemRelation::from_tuples(schema, per_page, rng.keyed_tuples(n, key_space)).unwrap()
    }

    /// Asserts `algo(r, s)` produces exactly the nested-loops result.
    pub fn assert_matches_reference(
        algo: fn(&MemRelation, &MemRelation, JoinSpec, &ExecContext) -> Result<MemRelation>,
        r: &MemRelation,
        s: &MemRelation,
        mem_pages: usize,
    ) {
        let spec = JoinSpec::new(0, 0);
        let ref_ctx = ExecContext::new(usize::MAX / 2, 1.2);
        let want = canonical(&nested_loops_join(r, s, spec, &ref_ctx).unwrap());
        let ctx = ExecContext::new(mem_pages, 1.2);
        let got = canonical(&algo(r, s, spec, &ctx).unwrap());
        assert_eq!(
            got.len(),
            want.len(),
            "cardinality mismatch: {} vs {}",
            got.len(),
            want.len()
        );
        assert_eq!(got, want);
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::keyed;
    use super::*;
    use crate::CostSnapshot;

    /// A snapshot with no swaps, in the order the meter prints.
    fn snap(
        comparisons: u64,
        hashes: u64,
        moves: u64,
        seq_ios: u64,
        rand_ios: u64,
    ) -> CostSnapshot {
        CostSnapshot {
            comparisons,
            hashes,
            moves,
            swaps: 0,
            seq_ios,
            rand_ios,
        }
    }

    /// What the three hash joins charge on fixed inputs, in memory and
    /// partitioned. The §3 cost model prices hashes, moves, comparisons
    /// and I/O, not how the hash table holds its build side, so these
    /// figures are the paper's and must not move with the table's layout.
    #[test]
    fn hash_joins_charge_the_meter_as_pinned() {
        let in_memory = (keyed(80, 1_000, 300, 40), keyed(81, 1_500, 300, 40), 1_000);
        let partitioned = (keyed(82, 4_000, 500, 40), keyed(83, 6_000, 500, 40), 30);
        let cases = [
            (
                &in_memory,
                JoinAlgorithm::HybridHash,
                5_058,
                snap(5_058, 2_500, 1_000, 0, 0),
            ),
            (
                &in_memory,
                JoinAlgorithm::SimpleHash,
                5_058,
                snap(5_058, 2_500, 1_000, 0, 0),
            ),
            (
                &in_memory,
                JoinAlgorithm::GraceHash,
                5_058,
                snap(5_058, 4_980, 3_500, 488, 493),
            ),
            (
                &partitioned,
                JoinAlgorithm::HybridHash,
                47_900,
                snap(47_900, 17_957, 11_957, 203, 203),
            ),
            (
                &partitioned,
                JoinAlgorithm::SimpleHash,
                47_900,
                snap(47_900, 24_422, 18_422, 726, 0),
            ),
            (
                &partitioned,
                JoinAlgorithm::GraceHash,
                47_900,
                snap(47_900, 20_000, 14_000, 280, 280),
            ),
        ];
        for ((r, s, mem), algo, rows, want) in cases {
            let ctx = ExecContext::new(*mem, 1.2);
            let out = run_join(algo, r, s, JoinSpec::new(0, 0), &ctx).unwrap();
            assert_eq!(out.tuple_count(), rows, "{} at {mem} pages", algo.name());
            assert_eq!(ctx.meter.snapshot(), want, "{} at {mem} pages", algo.name());
        }

        // Zipf-skewed keys in 8 pages: hybrid's spilled partitions overflow
        // and are re-partitioned, so the recursive build-and-probe is pinned
        // too.
        let schema = Schema::of(&[
            ("k", mmdb_types::DataType::Int),
            ("payload", mmdb_types::DataType::Int),
        ]);
        let zipf = |seed| {
            let tuples = mmdb_types::WorkloadRng::seeded(seed).zipf_tuples(6_000, 2_000, 1.1);
            MemRelation::from_tuples(schema.clone(), 40, tuples).unwrap()
        };
        let ctx = ExecContext::new(8, 1.2);
        let (out, stats) =
            hybrid::hybrid_hash_join_with_stats(&zipf(70), &zipf(71), JoinSpec::new(0, 0), &ctx)
                .unwrap();
        assert!(stats.recursive_partitionings > 0, "{stats:?}");
        assert_eq!(out.tuple_count(), 1_489_593);
        assert_eq!(
            ctx.meter.snapshot(),
            snap(1_489_593, 48_856, 42_857, 995, 995)
        );
    }

    /// Every core fed rows lent as `&Tuple` — what the SQL layer hands
    /// them — emits exactly the pairs nested loops finds over the owned
    /// relations, in memory and partitioned (spills then hold references).
    #[test]
    fn borrowed_cores_match_nested_loops() {
        let (r, s) = (keyed(90, 3_000, 400, 40), keyed(91, 4_000, 400, 40));
        let spec = JoinSpec::new(0, 0);
        let reference = ExecContext::new(usize::MAX / 2, 1.2);
        let want = canonical(&nested_loops_join(&r, &s, spec, &reference).unwrap());
        let r_lent: Vec<&Tuple> = r.tuples().iter().collect();
        let s_lent: Vec<&Tuple> = s.tuples().iter().collect();
        for algo in JoinAlgorithm::ALL {
            for mem in [1_000, 20] {
                let ctx = ExecContext::new(mem, 1.2);
                let mut got = Vec::new();
                join_rows(
                    algo,
                    Rows::new(&r_lent, 40),
                    Rows::new(&s_lent, 40),
                    spec,
                    &ctx,
                    |rt: &Tuple, st: &Tuple| {
                        got.push(rt.concat(st));
                        Ok(())
                    },
                )
                .unwrap();
                got.sort();
                assert_eq!(got, want, "{} at {mem} pages", algo.name());
                if mem == 20 {
                    assert!(ctx.meter.snapshot().total_ios() > 0, "{}", algo.name());
                }
            }
        }
    }
}
