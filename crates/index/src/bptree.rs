//! A page-based B+-tree.
//!
//! The incumbent §2 access method: every node is one logical page, interior
//! nodes hold only keys and child pointers (fanout `≈ 0.69·Pg/(K+P)` at
//! Yao's steady-state occupancy), and leaves hold the tuples, chained for
//! sequential access. Under random insertion the occupancy converges to
//! ~69 % full — Yao's classic result, which the paper cites; the
//! [`BPlusTree::occupancy`] accessor lets experiments verify it.

use crate::AccessTrace;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Node<K, V> {
    Internal {
        keys: Vec<K>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
        next: Option<u32>,
    },
}

/// A B+-tree with configurable branching factor and leaf capacity, one
/// logical page per node.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<u32>,
    root: u32,
    branching: usize,
    leaf_capacity: usize,
    len: usize,
}

/// What `insert_at` tells its parent.
enum InsertResult<K, V> {
    /// No structural change; optional displaced value.
    Done(Option<V>),
    /// The child split: route keys ≥ `sep` to `right`.
    Split { sep: K, right: u32, old: Option<V> },
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// An empty tree. `branching` is the maximum number of children of an
    /// interior node (≥ 3); `leaf_capacity` the maximum entries per leaf
    /// (≥ 2).
    pub fn new(branching: usize, leaf_capacity: usize) -> Self {
        assert!(branching >= 3, "branching factor must be at least 3");
        assert!(leaf_capacity >= 2, "leaves must hold at least 2 entries");
        let root_node = Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            next: None,
        };
        BPlusTree {
            nodes: vec![Some(root_node)],
            free: Vec::new(),
            root: 0,
            branching,
            leaf_capacity,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live nodes — i.e. logical pages (`S'` in §2).
    pub fn pages(&self) -> u64 {
        (self.nodes.len() - self.free.len()) as u64
    }

    /// Height of the *index*: edges from root to leaf (0 when the root is
    /// itself a leaf) — matching the paper's `height = ceil(log_fanout D)`.
    pub fn height(&self) -> u32 {
        let mut h = 0;
        let mut cur = self.root;
        loop {
            match self.node(cur) {
                Node::Internal { children, .. } => {
                    h += 1;
                    cur = children[0];
                }
                Node::Leaf { .. } => return h,
            }
        }
    }

    /// Average leaf occupancy in `[0, 1]`. Yao predicts ≈ 0.69 under
    /// random insertion.
    pub fn occupancy(&self) -> f64 {
        let mut used = 0usize;
        let mut cap = 0usize;
        for n in self.nodes.iter().flatten() {
            if let Node::Leaf { keys, .. } = n {
                used += keys.len();
                cap += self.leaf_capacity;
            }
        }
        if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        }
    }

    fn node(&self, i: u32) -> &Node<K, V> {
        self.nodes[i as usize].as_ref().expect("live node")
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<K, V> {
        self.nodes[i as usize].as_mut().expect("live node")
    }

    fn alloc(&mut self, node: Node<K, V>) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Some(node);
            i
        } else {
            self.nodes.push(Some(node));
            (self.nodes.len() - 1) as u32
        }
    }

    fn dealloc(&mut self, i: u32) -> Node<K, V> {
        let n = self.nodes[i as usize].take().expect("live node");
        self.free.push(i);
        n
    }

    /// Binary search counting actual comparisons into `trace` (when given).
    fn search_keys(keys: &[K], key: &K, trace: Option<&mut AccessTrace>) -> Result<usize, usize> {
        let mut comps = 0u64;
        let mut lo = 0usize;
        let mut hi = keys.len();
        let mut result = Err(keys.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            comps += 1;
            match keys[mid].cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    result = Ok(mid);
                    break;
                }
            }
        }
        if result.is_err() {
            result = Err(lo);
        }
        if let Some(t) = trace {
            t.compare(comps);
        }
        result
    }

    /// Child index to follow for `key` in an internal node with `keys`.
    fn child_slot(keys: &[K], key: &K, trace: Option<&mut AccessTrace>) -> usize {
        match Self::search_keys(keys, key, trace) {
            Ok(i) => i + 1, // keys[i] == key routes right
            Err(i) => i,
        }
    }

    /// Looks a key up.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_impl(key, None)
    }

    /// Looks a key up, recording one page visit per node and the actual
    /// binary-search comparisons.
    pub fn get_traced(&self, key: &K, trace: &mut AccessTrace) -> Option<&V> {
        // Work around the borrow checker: collect trace via raw option.
        self.get_impl(key, Some(trace))
    }

    fn get_impl(&self, key: &K, mut trace: Option<&mut AccessTrace>) -> Option<&V> {
        let mut cur = self.root;
        loop {
            if let Some(t) = trace.as_deref_mut() {
                t.visit(cur as u64);
            }
            match self.node(cur) {
                Node::Internal { keys, children } => {
                    let slot = Self::child_slot(keys, key, trace.as_deref_mut());
                    cur = children[slot];
                }
                Node::Leaf { keys, values, .. } => {
                    return match Self::search_keys(keys, key, trace.as_deref_mut()) {
                        Ok(i) => Some(&values[i]),
                        Err(_) => None,
                    };
                }
            }
        }
    }

    /// Inserts `key -> value`; returns the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let root = self.root;
        match self.insert_at(root, key, value) {
            InsertResult::Done(old) => {
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
            InsertResult::Split { sep, right, old } => {
                let new_root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![self.root, right],
                });
                self.root = new_root;
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
        }
    }

    fn insert_at(&mut self, i: u32, key: K, value: V) -> InsertResult<K, V> {
        match self.node(i) {
            Node::Leaf { keys, .. } => {
                let pos = Self::search_keys(keys, &key, None);
                let leaf_capacity = self.leaf_capacity;
                let Node::Leaf { keys, values, next } = self.node_mut(i) else {
                    unreachable!()
                };
                match pos {
                    Ok(p) => {
                        let old = std::mem::replace(&mut values[p], value);
                        InsertResult::Done(Some(old))
                    }
                    Err(p) => {
                        keys.insert(p, key);
                        values.insert(p, value);
                        if keys.len() <= leaf_capacity {
                            return InsertResult::Done(None);
                        }
                        // Split the overfull leaf.
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_values = values.split_off(mid);
                        let old_next = *next;
                        let sep = right_keys[0].clone();
                        let right = self.alloc(Node::Leaf {
                            keys: right_keys,
                            values: right_values,
                            next: old_next,
                        });
                        let Node::Leaf { next, .. } = self.node_mut(i) else {
                            unreachable!()
                        };
                        *next = Some(right);
                        InsertResult::Split {
                            sep,
                            right,
                            old: None,
                        }
                    }
                }
            }
            Node::Internal { keys, children } => {
                let slot = Self::child_slot(keys, &key, None);
                let child = children[slot];
                match self.insert_at(child, key, value) {
                    InsertResult::Done(old) => InsertResult::Done(old),
                    InsertResult::Split { sep, right, old } => {
                        let branching = self.branching;
                        let Node::Internal { keys, children } = self.node_mut(i) else {
                            unreachable!()
                        };
                        keys.insert(slot, sep);
                        children.insert(slot + 1, right);
                        if children.len() <= branching {
                            return InsertResult::Done(old);
                        }
                        // Split the overfull internal node: the middle key
                        // moves up.
                        let mid = keys.len() / 2;
                        let up_key = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // drop the key that moved up
                        let right_children = children.split_off(mid + 1);
                        let right = self.alloc(Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        });
                        InsertResult::Split {
                            sep: up_key,
                            right,
                            old,
                        }
                    }
                }
            }
        }
    }

    /// Removes a key, returning its value. Underflowing nodes borrow from
    /// or merge with a sibling; the tree shrinks when the root empties.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let root = self.root;
        let removed = self.remove_at(root, key);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a childless root.
            if let Node::Internal { children, .. } = self.node(self.root) {
                if children.len() == 1 {
                    let only = children[0];
                    self.dealloc(self.root);
                    self.root = only;
                }
            }
        }
        removed
    }

    fn min_leaf_keys(&self) -> usize {
        self.leaf_capacity / 2
    }

    fn min_children(&self) -> usize {
        self.branching.div_ceil(2)
    }

    fn remove_at(&mut self, i: u32, key: &K) -> Option<V> {
        match self.node(i) {
            Node::Leaf { keys, .. } => {
                let pos = Self::search_keys(keys, key, None).ok()?;
                let Node::Leaf { keys, values, .. } = self.node_mut(i) else {
                    unreachable!()
                };
                keys.remove(pos);
                Some(values.remove(pos))
            }
            Node::Internal { keys, children } => {
                let slot = Self::child_slot(keys, key, None);
                let child = children[slot];
                let removed = self.remove_at(child, key)?;
                self.fix_underflow(i, slot);
                Some(removed)
            }
        }
    }

    fn child_is_underfull(&self, child: u32) -> bool {
        match self.node(child) {
            Node::Leaf { keys, .. } => keys.len() < self.min_leaf_keys(),
            Node::Internal { children, .. } => children.len() < self.min_children(),
        }
    }

    /// Repairs child `slot` of internal node `parent` if it underflowed.
    fn fix_underflow(&mut self, parent: u32, slot: usize) {
        let (child, n_children) = {
            let Node::Internal { children, .. } = self.node(parent) else {
                unreachable!()
            };
            (children[slot], children.len())
        };
        if !self.child_is_underfull(child) {
            return;
        }
        // Prefer borrowing from the left sibling, then right; merge if
        // neither can spare.
        if slot > 0 && self.can_lend(self.sibling(parent, slot - 1)) {
            self.borrow_from_left(parent, slot);
        } else if slot + 1 < n_children && self.can_lend(self.sibling(parent, slot + 1)) {
            self.borrow_from_right(parent, slot);
        } else if slot > 0 {
            self.merge_children(parent, slot - 1);
        } else {
            self.merge_children(parent, slot);
        }
    }

    fn sibling(&self, parent: u32, slot: usize) -> u32 {
        let Node::Internal { children, .. } = self.node(parent) else {
            unreachable!()
        };
        children[slot]
    }

    fn can_lend(&self, i: u32) -> bool {
        match self.node(i) {
            Node::Leaf { keys, .. } => keys.len() > self.min_leaf_keys(),
            Node::Internal { children, .. } => children.len() > self.min_children(),
        }
    }

    fn borrow_from_left(&mut self, parent: u32, slot: usize) {
        let (left, right) = (self.sibling(parent, slot - 1), self.sibling(parent, slot));
        match self.dealloc_pair_for_edit(left, right) {
            (
                Node::Leaf {
                    keys: mut lk,
                    values: mut lv,
                    next: ln,
                },
                Node::Leaf {
                    keys: mut rk,
                    values: mut rv,
                    next: rn,
                },
            ) => {
                let k = lk.pop().expect("lender non-empty");
                let v = lv.pop().expect("lender non-empty");
                rk.insert(0, k.clone());
                rv.insert(0, v);
                self.restore_pair(
                    left,
                    Node::Leaf {
                        keys: lk,
                        values: lv,
                        next: ln,
                    },
                    right,
                    Node::Leaf {
                        keys: rk,
                        values: rv,
                        next: rn,
                    },
                );
                self.set_parent_key(parent, slot - 1, k);
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: mut rk,
                    children: mut rc,
                },
            ) => {
                let sep = self.parent_key(parent, slot - 1);
                let k = lk.pop().expect("lender non-empty");
                let c = lc.pop().expect("lender non-empty");
                rk.insert(0, sep);
                rc.insert(0, c);
                self.restore_pair(
                    left,
                    Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                    right,
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                );
                self.set_parent_key(parent, slot - 1, k);
            }
            _ => unreachable!("siblings are the same kind"),
        }
    }

    fn borrow_from_right(&mut self, parent: u32, slot: usize) {
        let (left, right) = (self.sibling(parent, slot), self.sibling(parent, slot + 1));
        match self.dealloc_pair_for_edit(left, right) {
            (
                Node::Leaf {
                    keys: mut lk,
                    values: mut lv,
                    next: ln,
                },
                Node::Leaf {
                    keys: mut rk,
                    values: mut rv,
                    next: rn,
                },
            ) => {
                let k = rk.remove(0);
                let v = rv.remove(0);
                lk.push(k);
                lv.push(v);
                let new_sep = rk[0].clone();
                self.restore_pair(
                    left,
                    Node::Leaf {
                        keys: lk,
                        values: lv,
                        next: ln,
                    },
                    right,
                    Node::Leaf {
                        keys: rk,
                        values: rv,
                        next: rn,
                    },
                );
                self.set_parent_key(parent, slot, new_sep);
            }
            (
                Node::Internal {
                    keys: mut lk,
                    children: mut lc,
                },
                Node::Internal {
                    keys: mut rk,
                    children: mut rc,
                },
            ) => {
                let sep = self.parent_key(parent, slot);
                let k = rk.remove(0);
                let c = rc.remove(0);
                lk.push(sep);
                lc.push(c);
                self.restore_pair(
                    left,
                    Node::Internal {
                        keys: lk,
                        children: lc,
                    },
                    right,
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                );
                self.set_parent_key(parent, slot, k);
            }
            _ => unreachable!("siblings are the same kind"),
        }
    }

    /// Merges children `slot` and `slot + 1` of `parent` into the left one.
    fn merge_children(&mut self, parent: u32, slot: usize) {
        let (left, right) = (self.sibling(parent, slot), self.sibling(parent, slot + 1));
        // The separator key comes down between merged internal halves.
        let sep = self.parent_key(parent, slot);
        let right_node = self.dealloc(right);
        match (self.node_mut(left), right_node) {
            (
                Node::Leaf { keys, values, next },
                Node::Leaf {
                    keys: rk,
                    values: rv,
                    next: rn,
                },
            ) => {
                keys.extend(rk);
                values.extend(rv);
                *next = rn;
            }
            (
                Node::Internal { keys, children },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                keys.push(sep);
                keys.extend(rk);
                children.extend(rc);
            }
            _ => unreachable!("siblings are the same kind"),
        }
        let Node::Internal { keys, children } = self.node_mut(parent) else {
            unreachable!()
        };
        keys.remove(slot);
        children.remove(slot + 1);
    }

    fn dealloc_pair_for_edit(&mut self, left: u32, right: u32) -> (Node<K, V>, Node<K, V>) {
        let l = self.nodes[left as usize].take().expect("live node");
        let r = self.nodes[right as usize].take().expect("live node");
        (l, r)
    }

    fn restore_pair(&mut self, left: u32, l: Node<K, V>, right: u32, r: Node<K, V>) {
        self.nodes[left as usize] = Some(l);
        self.nodes[right as usize] = Some(r);
    }

    fn parent_key(&self, parent: u32, idx: usize) -> K {
        let Node::Internal { keys, .. } = self.node(parent) else {
            unreachable!()
        };
        keys[idx].clone()
    }

    fn set_parent_key(&mut self, parent: u32, idx: usize, key: K) {
        let Node::Internal { keys, .. } = self.node_mut(parent) else {
            unreachable!()
        };
        keys[idx] = key;
    }

    fn leftmost_leaf(&self) -> u32 {
        let mut cur = self.root;
        loop {
            match self.node(cur) {
                Node::Internal { children, .. } => cur = children[0],
                Node::Leaf { .. } => return cur,
            }
        }
    }

    /// In-order iteration over `(key, value)` pairs via the leaf chain.
    pub fn iter(&self) -> BPlusIter<'_, K, V> {
        self.range_bounds(Bound::Unbounded, Bound::Unbounded)
    }

    /// Sequential access (§2 case 2): descends to the smallest key `≥ from`
    /// then follows the leaf chain, recording one page visit per node
    /// touched and one comparison per entry yielded (the prefix check).
    pub fn scan_from_traced(
        &self,
        from: &K,
        limit: usize,
        trace: &mut AccessTrace,
    ) -> Vec<(&K, &V)> {
        // Descend.
        let mut cur = self.root;
        loop {
            trace.visit(cur as u64);
            match self.node(cur) {
                Node::Internal { keys, children } => {
                    let slot = Self::child_slot(keys, from, Some(trace));
                    cur = children[slot];
                }
                Node::Leaf { .. } => break,
            }
        }
        let mut out = Vec::with_capacity(limit);
        let mut leaf = Some(cur);
        let mut start = match self.node(cur) {
            Node::Leaf { keys, .. } => match Self::search_keys(keys, from, Some(trace)) {
                Ok(i) | Err(i) => i,
            },
            _ => unreachable!(),
        };
        while let Some(l) = leaf {
            trace.visit(l as u64);
            let Node::Leaf { keys, values, next } = self.node(l) else {
                unreachable!()
            };
            for i in start..keys.len() {
                if out.len() >= limit {
                    return out;
                }
                trace.compare(1);
                out.push((&keys[i], &values[i]));
            }
            start = 0;
            leaf = *next;
        }
        out
    }

    /// All entries with `lo ≤ key ≤ hi`, in order, via the leaf chain.
    pub fn range<'a>(&'a self, lo: &K, hi: &'a K) -> Vec<(&'a K, &'a V)> {
        self.range_bounds(Bound::Included(lo), Bound::Included(hi))
            .collect()
    }

    /// The entries whose keys lie between `lo` and `hi`, in key order:
    /// one descent to the first key the low end admits, then the leaf
    /// chain until the high end stops it. Either end may be open
    /// (`Unbounded`), inclusive or exclusive; `lo > hi` yields nothing.
    pub fn range_bounds<'a>(&'a self, lo: Bound<&K>, hi: Bound<&'a K>) -> BPlusIter<'a, K, V> {
        let mut leaf = self.root;
        let idx = match lo {
            Bound::Unbounded => {
                leaf = self.leftmost_leaf();
                0
            }
            Bound::Included(key) | Bound::Excluded(key) => {
                while let Node::Internal { keys, children } = self.node(leaf) {
                    leaf = children[Self::child_slot(keys, key, None)];
                }
                let Node::Leaf { keys, .. } = self.node(leaf) else {
                    unreachable!()
                };
                match (Self::search_keys(keys, key, None), lo) {
                    (Ok(i), Bound::Excluded(_)) => i + 1,
                    (Ok(i) | Err(i), _) => i,
                }
            }
        };
        BPlusIter {
            tree: self,
            leaf: Some(leaf),
            idx,
            hi,
        }
    }

    /// Bulk-loads a tree from sorted pairs at a target `fill` fraction per
    /// leaf (Yao's steady state is 0.69). Keys must be strictly increasing.
    pub fn bulk_load(
        branching: usize,
        leaf_capacity: usize,
        fill: f64,
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> Self {
        assert!((0.1..=1.0).contains(&fill), "fill fraction out of range");
        let mut tree = BPlusTree::new(branching, leaf_capacity);
        let per_leaf = ((leaf_capacity as f64 * fill).round() as usize).clamp(1, leaf_capacity);

        // Build the leaf level.
        let mut leaves: Vec<(K, u32)> = Vec::new(); // (min key, node)
        let mut keys = Vec::with_capacity(per_leaf);
        let mut values = Vec::with_capacity(per_leaf);
        let mut count = 0usize;
        let mut last_key: Option<K> = None;
        for (k, v) in pairs {
            if let Some(prev) = &last_key {
                assert!(*prev < k, "bulk_load requires strictly increasing keys");
            }
            last_key = Some(k.clone());
            keys.push(k);
            values.push(v);
            count += 1;
            if keys.len() == per_leaf {
                let min = keys[0].clone();
                let node = tree.alloc(Node::Leaf {
                    keys: std::mem::take(&mut keys),
                    values: std::mem::take(&mut values),
                    next: None,
                });
                leaves.push((min, node));
            }
        }
        if !keys.is_empty() {
            let min = keys[0].clone();
            let node = tree.alloc(Node::Leaf {
                keys,
                values,
                next: None,
            });
            leaves.push((min, node));
        }
        if leaves.is_empty() {
            return tree; // fresh empty tree already has a leaf root
        }
        // Chain the leaves.
        for w in 0..leaves.len().saturating_sub(1) {
            let next = leaves[w + 1].1;
            let Node::Leaf { next: n, .. } = tree.node_mut(leaves[w].1) else {
                unreachable!()
            };
            *n = Some(next);
        }
        // The initial empty root leaf is garbage now.
        tree.dealloc(0);

        // Build interior levels at the same fill fraction. Chunk sizes are
        // chosen so no node (in particular the last one of a level) falls
        // below the deletion-time minimum child count.
        let per_node =
            ((branching as f64 * fill).round() as usize).clamp(tree.min_children(), branching);
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(K, u32)> = Vec::new();
            let n = level.len();
            let mut start = 0usize;
            while start < n {
                let remaining = n - start;
                let take = if remaining <= branching {
                    remaining
                } else if remaining - per_node < tree.min_children() {
                    // A full chunk would leave an underfull tail: split the
                    // remainder evenly instead.
                    remaining / 2
                } else {
                    per_node
                };
                let chunk = &level[start..start + take];
                let min = chunk[0].0.clone();
                let children: Vec<u32> = chunk.iter().map(|(_, node)| *node).collect();
                let keys: Vec<K> = chunk[1..].iter().map(|(k, _)| k.clone()).collect();
                let node = tree.alloc(Node::Internal { keys, children });
                next_level.push((min, node));
                start += take;
            }
            level = next_level;
        }
        tree.root = level[0].1;
        tree.len = count;
        tree
    }

    /// Diagnostic: checks key ordering, child counts, leaf-chain coverage
    /// and the length bookkeeping.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: std::fmt::Debug,
    {
        fn walk<K: Ord + Clone + std::fmt::Debug, V>(
            t: &BPlusTree<K, V>,
            i: u32,
            lo: Option<&K>,
            hi: Option<&K>,
            is_root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> Result<usize, String> {
            match t.node(i) {
                Node::Leaf { keys, values, .. } => {
                    if keys.len() != values.len() {
                        return Err("leaf key/value length mismatch".into());
                    }
                    if !is_root && keys.len() > t.leaf_capacity {
                        return Err("overfull leaf".into());
                    }
                    match leaf_depth {
                        Some(d) if *d != depth => return Err("leaves at differing depths".into()),
                        None => *leaf_depth = Some(depth),
                        _ => {}
                    }
                    for w in keys.windows(2) {
                        if w[0] >= w[1] {
                            return Err(format!("unsorted leaf keys {:?} {:?}", w[0], w[1]));
                        }
                    }
                    if let (Some(lo), Some(first)) = (lo, keys.first()) {
                        if first < lo {
                            return Err(format!("leaf key {first:?} below bound {lo:?}"));
                        }
                    }
                    if let (Some(hi), Some(last)) = (hi, keys.last()) {
                        if last >= hi {
                            return Err(format!("leaf key {last:?} not below bound {hi:?}"));
                        }
                    }
                    Ok(keys.len())
                }
                Node::Internal { keys, children } => {
                    if children.len() != keys.len() + 1 {
                        return Err("internal arity mismatch".into());
                    }
                    if children.len() > t.branching {
                        return Err("overfull internal node".into());
                    }
                    if !is_root && children.len() < t.min_children() {
                        return Err("underfull internal node".into());
                    }
                    for w in keys.windows(2) {
                        if w[0] >= w[1] {
                            return Err("unsorted internal keys".into());
                        }
                    }
                    let mut total = 0;
                    for (c, child) in children.iter().enumerate() {
                        let clo = if c == 0 { lo } else { Some(&keys[c - 1]) };
                        let chi = if c == keys.len() { hi } else { Some(&keys[c]) };
                        total += walk(t, *child, clo, chi, false, depth + 1, leaf_depth)?;
                    }
                    Ok(total)
                }
            }
        }
        let mut leaf_depth = None;
        let count = walk(self, self.root, None, None, true, 0, &mut leaf_depth)?;
        if count != self.len {
            return Err(format!("len {} but {count} entries reachable", self.len));
        }
        let chained = self.iter().count();
        if chained != self.len {
            return Err(format!(
                "leaf chain yields {chained} entries but len is {}",
                self.len
            ));
        }
        Ok(())
    }
}

impl<K: Ord + Clone + std::fmt::Debug, V> mmdb_types::Auditable for BPlusTree<K, V> {
    /// Delegates to [`BPlusTree::check_invariants`], wrapping its report
    /// in the engine-wide [`mmdb_types::AuditViolation`] shape.
    fn audit(&self) -> Result<(), mmdb_types::AuditViolation> {
        self.check_invariants()
            .map_err(|detail| mmdb_types::AuditViolation::new("BPlusTree", "structure", detail))
    }
}

/// Iterator over a stretch of a [`BPlusTree`]'s leaf chain: the whole
/// chain ([`BPlusTree::iter`]) or the keys up to an end
/// ([`BPlusTree::range_bounds`]).
pub struct BPlusIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<u32>,
    idx: usize,
    hi: Bound<&'a K>,
}

impl<'a, K: Ord + Clone, V> Iterator for BPlusIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            let Node::Leaf { keys, values, next } = self.tree.node(leaf) else {
                unreachable!()
            };
            if let Some(key) = keys.get(self.idx) {
                let past_end = match self.hi {
                    Bound::Unbounded => false,
                    Bound::Included(hi) => key > hi,
                    Bound::Excluded(hi) => key >= hi,
                };
                if past_end {
                    self.leaf = None;
                    return None;
                }
                let i = self.idx;
                self.idx += 1;
                return Some((key, &values[i]));
            }
            self.leaf = *next;
            self.idx = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_types::WorkloadRng;

    fn small() -> BPlusTree<i64, i64> {
        BPlusTree::new(4, 4)
    }

    #[test]
    fn insert_get_basic() {
        let mut t = small();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(2, 20), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(&1), Some(&11));
        assert_eq!(t.get(&3), None);
        assert_eq!(t.len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn splits_grow_height() {
        let mut t = small();
        for i in 0..100 {
            t.insert(i, i);
            t.check_invariants().unwrap();
        }
        assert!(t.height() >= 2);
        let got: Vec<i64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn random_workload_against_btreemap_oracle() {
        let mut rng = WorkloadRng::seeded(21);
        let mut t = BPlusTree::new(5, 4);
        let mut oracle = std::collections::BTreeMap::new();
        for step in 0..6000 {
            let k = rng.int_in(0, 700);
            if rng.chance(0.35) {
                assert_eq!(t.remove(&k), oracle.remove(&k), "step {step}");
            } else {
                let v = rng.int_in(0, 1 << 30);
                assert_eq!(t.insert(k, v), oracle.insert(k, v), "step {step}");
            }
            if step % 500 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        let got: Vec<_> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<_> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_down_to_empty() {
        let mut t = small();
        for i in 0..50 {
            t.insert(i, i);
        }
        for i in 0..50 {
            assert_eq!(t.remove(&i), Some(i));
            t.check_invariants().unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.remove(&0), None);
        // Tree is reusable after emptying.
        t.insert(9, 9);
        assert_eq!(t.get(&9), Some(&9));
        t.check_invariants().unwrap();
    }

    #[test]
    fn height_matches_paper_formula() {
        // height ≈ ceil(log_fanout(leaves)).
        let mut t = BPlusTree::new(10, 10);
        let mut rng = WorkloadRng::seeded(3);
        let mut keys: Vec<i64> = (0..20_000).collect();
        rng.shuffle(&mut keys);
        for k in keys {
            t.insert(k, k);
        }
        t.check_invariants().unwrap();
        let leaves = (t.len() as f64 / (10.0 * t.occupancy())).ceil();
        let model = leaves.log2() / (10.0f64 * t.occupancy()).log2();
        let h = t.height() as f64;
        assert!(
            (h - model.ceil()).abs() <= 1.0,
            "height {h} vs model {}",
            model.ceil()
        );
    }

    #[test]
    fn random_insertion_occupancy_approaches_yao_69_percent() {
        let mut t = BPlusTree::new(20, 20);
        let mut rng = WorkloadRng::seeded(17);
        let mut keys: Vec<i64> = (0..30_000).collect();
        rng.shuffle(&mut keys);
        for k in keys {
            t.insert(k, ());
        }
        let occ = t.occupancy();
        assert!(
            (0.62..0.76).contains(&occ),
            "occupancy {occ}, Yao predicts ≈ 0.69"
        );
    }

    #[test]
    fn traced_lookup_visits_height_plus_one_pages() {
        let mut t = BPlusTree::new(16, 16);
        let mut rng = WorkloadRng::seeded(8);
        let mut keys: Vec<i64> = (0..10_000).collect();
        rng.shuffle(&mut keys);
        for k in keys {
            t.insert(k, k);
        }
        let h = t.height() as u64;
        for _ in 0..100 {
            let mut tr = AccessTrace::default();
            let k = rng.int_in(0, 10_000);
            assert!(t.get_traced(&k, &mut tr).is_some());
            assert_eq!(tr.page_reads(), h + 1, "root-to-leaf path");
            assert!(tr.comparisons >= 1);
        }
    }

    #[test]
    fn traced_comparisons_close_to_log2_n() {
        let mut t = BPlusTree::new(64, 64);
        let mut rng = WorkloadRng::seeded(9);
        let n = 50_000i64;
        let mut keys: Vec<i64> = (0..n).collect();
        rng.shuffle(&mut keys);
        for k in keys {
            t.insert(k, k);
        }
        let mut total = 0u64;
        let probes = 300;
        for _ in 0..probes {
            let mut tr = AccessTrace::default();
            t.get_traced(&rng.int_in(0, n), &mut tr);
            total += tr.comparisons;
        }
        let avg = total as f64 / probes as f64;
        let model = (n as f64).log2();
        // Binary search in a B+-tree does slightly more than log2(n) total
        // comparisons (per-level rounding); the paper assumes C' = log2(n).
        assert!(
            (avg - model).abs() < 6.0,
            "avg {avg} too far from log2(n) = {model}"
        );
    }

    #[test]
    fn scan_from_follows_leaf_chain() {
        let mut t = BPlusTree::new(4, 4);
        for k in 0..200 {
            t.insert(k, k * 3);
        }
        let mut tr = AccessTrace::default();
        let run = t.scan_from_traced(&77, 30, &mut tr);
        let keys: Vec<i64> = run.iter().map(|(k, _)| **k).collect();
        assert_eq!(keys, (77..107).collect::<Vec<_>>());
        // 30 tuples over 4-entry leaves: far fewer pages than an AVL would
        // touch, thanks to clustering.
        assert!(tr.page_reads() < 30);
    }

    #[test]
    fn scan_from_past_end_is_empty() {
        let mut t = small();
        t.insert(1, 1);
        let mut tr = AccessTrace::default();
        assert!(t.scan_from_traced(&100, 5, &mut tr).is_empty());
    }

    #[test]
    fn bulk_load_produces_valid_tree_at_target_fill() {
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i, i * 2)).collect();
        let t = BPlusTree::bulk_load(20, 20, 0.69, pairs);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get(&5_000), Some(&10_000));
        let occ = t.occupancy();
        assert!((0.64..0.74).contains(&occ), "occupancy {occ}");
        let got: Vec<i64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let t: BPlusTree<i64, ()> = BPlusTree::bulk_load(4, 4, 0.7, Vec::new());
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        let t = BPlusTree::bulk_load(4, 4, 0.7, vec![(1, ()), (2, ())]);
        assert_eq!(t.len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bulk_load_rejects_unsorted() {
        let _ = BPlusTree::bulk_load(4, 4, 0.7, vec![(2, ()), (1, ())]);
    }

    #[test]
    fn mutation_after_bulk_load() {
        let pairs: Vec<(i64, i64)> = (0..1000).map(|i| (i * 2, i)).collect();
        let mut t = BPlusTree::bulk_load(8, 8, 0.69, pairs);
        t.insert(999, -1); // odd key between bulk entries
        assert_eq!(t.get(&999), Some(&-1));
        assert_eq!(t.remove(&0), Some(0));
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn range_matches_btreemap_range() {
        let mut t = BPlusTree::new(5, 4);
        let mut oracle = std::collections::BTreeMap::new();
        let mut rng = WorkloadRng::seeded(41);
        for _ in 0..800 {
            let k = rng.int_in(0, 300);
            t.insert(k, k);
            oracle.insert(k, k);
        }
        for _ in 0..50 {
            let a = rng.int_in(0, 300);
            let b = rng.int_in(0, 300);
            let (lo, hi) = (a.min(b), a.max(b));
            let got: Vec<i64> = t.range(&lo, &hi).into_iter().map(|(k, _)| *k).collect();
            let want: Vec<i64> = oracle.range(lo..=hi).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
        assert!(t.range(&500, &600).is_empty());
    }

    /// Every `Bound` kind at each end, as a `BTreeMap` would take it.
    fn bounds_of(a: i64, b: i64, kinds: (u8, u8)) -> (Bound<i64>, Bound<i64>) {
        let end = |kind, key| match kind {
            0 => Bound::Unbounded,
            1 => Bound::Included(key),
            _ => Bound::Excluded(key),
        };
        (end(kinds.0, a), end(kinds.1, b))
    }

    #[test]
    fn range_bounds_matches_btreemap_on_every_kind_of_end() {
        let mut t = BPlusTree::new(4, 4);
        let mut oracle = std::collections::BTreeMap::new();
        let mut rng = WorkloadRng::seeded(43);
        for _ in 0..400 {
            let k = rng.int_in(0, 200) * 2; // even keys: odd bounds fall between
            t.insert(k, k);
            oracle.insert(k, k);
        }
        assert!(t.height() >= 2, "the walks below cross leaves and levels");
        for _ in 0..300 {
            let (a, b) = (rng.int_in(-5, 405), rng.int_in(-5, 405));
            for kinds in [
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (2, 0),
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 2),
            ] {
                let (lo, hi) = bounds_of(a, b, kinds);
                let got: Vec<i64> = t
                    .range_bounds(lo.as_ref(), hi.as_ref())
                    .map(|(k, _)| *k)
                    .collect();
                // `BTreeMap::range` panics on an empty or inverted range;
                // the walk yields nothing there.
                let empty = match (lo, hi) {
                    (Bound::Included(l), Bound::Included(h)) => l > h,
                    (
                        Bound::Included(l) | Bound::Excluded(l),
                        Bound::Included(h) | Bound::Excluded(h),
                    ) => l >= h,
                    _ => false,
                };
                let want: Vec<i64> = if empty {
                    Vec::new()
                } else {
                    oracle.range((lo, hi)).map(|(k, _)| *k).collect()
                };
                assert_eq!(got, want, "{lo:?} .. {hi:?}");
            }
        }
    }

    #[test]
    fn range_bounds_walks_duplicate_values_and_a_null_first_key() {
        use mmdb_types::Value;
        // A SQL column index: `(value, rid)` pairs, so a value repeats
        // once per row that holds it, and `NULL` sorts below every number.
        let pairs: Vec<((Value, u32), ())> = (0..300u32)
            .map(|rid| {
                let value = match rid % 7 {
                    0 => Value::Null,
                    r => Value::Int(i64::from(r)),
                };
                ((value, rid), ())
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
            .collect();
        let t = BPlusTree::bulk_load(4, 4, 0.69, pairs);
        let walk = |lo: Bound<&(Value, u32)>, hi: Bound<&(Value, u32)>| -> Vec<(Value, u32)> {
            t.range_bounds(lo, hi).map(|(k, ())| k.clone()).collect()
        };
        let value_of = |rid: u32| match rid % 7 {
            0 => Value::Null,
            r => Value::Int(i64::from(r)),
        };
        let rids_where = |keep: &dyn Fn(&Value) -> bool| -> Vec<u32> {
            let mut v: Vec<(Value, u32)> = (0..300).map(|rid| (value_of(rid), rid)).collect();
            v.sort();
            v.into_iter()
                .filter(|(x, _)| keep(x))
                .map(|(_, rid)| rid)
                .collect()
        };
        let rids =
            |keys: Vec<(Value, u32)>| keys.into_iter().map(|(_, rid)| rid).collect::<Vec<_>>();

        // `v < 3`: an open low end starts at `NULL`, and an exclusive
        // high end `(3, rid 0)` stops before every row holding 3.
        let lt3 = walk(Bound::Unbounded, Bound::Excluded(&(Value::Int(3), 0)));
        assert_eq!(lt3.first().map(|(v, _)| v), Some(&Value::Null));
        assert_eq!(rids(lt3), rids_where(&|v| *v < Value::Int(3)));
        // `v <= 3` and `v > 3`: `(3, u32::MAX)` is past every rid of 3.
        let le3 = walk(
            Bound::Unbounded,
            Bound::Included(&(Value::Int(3), u32::MAX)),
        );
        assert_eq!(rids(le3), rids_where(&|v| *v <= Value::Int(3)));
        let gt3 = walk(
            Bound::Excluded(&(Value::Int(3), u32::MAX)),
            Bound::Unbounded,
        );
        assert_eq!(rids(gt3), rids_where(&|v| *v > Value::Int(3)));
        // `2 <= v <= 2`: every duplicate of 2, across leaves, in rid order.
        let eq2 = walk(
            Bound::Included(&(Value::Int(2), 0)),
            Bound::Included(&(Value::Int(2), u32::MAX)),
        );
        assert_eq!(eq2.len(), 43);
        assert_eq!(rids(eq2), rids_where(&|v| *v == Value::Int(2)));
        // `v >= 5 AND v < 2`: low end above the high end.
        let none = walk(
            Bound::Included(&(Value::Int(5), 0)),
            Bound::Excluded(&(Value::Int(2), 0)),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn pages_count_live_nodes() {
        let mut t = BPlusTree::new(4, 4);
        let single_leaf = t.pages();
        assert_eq!(single_leaf, 1);
        for i in 0..64 {
            t.insert(i, i);
        }
        assert!(t.pages() > 8);
    }
}
