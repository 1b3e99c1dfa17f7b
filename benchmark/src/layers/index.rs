//! `mmdb-index`: point lookups in the §2 access methods at 100k keys.
//! Off the request path today; this is the baseline for the day
//! `point_read` gets an index.

use crate::probe::{per_call_ns, Reading};
use mmdb_benchmark::gen::Rng;
use mmdb_index::{AvlTree, BPlusTree};
use std::hint::black_box;

const KEYS: u64 = 100_000;

pub fn probe(seed: u64) -> Vec<Reading> {
    let mut rng = Rng::new(seed ^ 0x1D8);
    // Inserted in random order, as a live table would be.
    let mut keys: Vec<u64> = (0..KEYS).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut avl: AvlTree<u64, u64> = AvlTree::new();
    let mut bpt: BPlusTree<u64, u64> = BPlusTree::new(64, 64);
    for &k in &keys {
        avl.insert(k, k);
        bpt.insert(k, k);
    }
    let lookups: Vec<u64> = (0..4096).map(|_| rng.below(KEYS)).collect();
    let mut i = 0usize;
    let avl_get = per_call_ns(50_000, || {
        i = (i + 1) % lookups.len();
        black_box(avl.get(&lookups[i]));
    });
    let bpt_get = per_call_ns(50_000, || {
        i = (i + 1) % lookups.len();
        black_box(bpt.get(&lookups[i]));
    });
    vec![
        ("index.avl_get_ns", avl_get, "ns"),
        ("index.bptree_get_ns", bpt_get, "ns"),
    ]
}
