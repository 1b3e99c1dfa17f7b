//! Property-based testing of the storage substrate: buffer-pool
//! coherence and capacity.

use mmdb_storage::{BufferPool, CostMeter, IoKind, ReplacementPolicy, SimDisk};
use mmdb_types::PageId;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #[test]
    fn buffer_pool_never_loses_writes(
        policy_pick in 0u8..3,
        writes in prop::collection::vec((0u8..12, any::<u8>()), 1..120,),
        capacity in 1usize..6,
    ) {
        let policy = match policy_pick {
            0 => ReplacementPolicy::Random { seed: 42 },
            1 => ReplacementPolicy::Lru,
            _ => ReplacementPolicy::Clock,
        };
        let meter = Arc::new(CostMeter::new());
        let mut disk = SimDisk::new(meter);
        let mut pool = BufferPool::new(capacity, policy);
        let pages: Vec<PageId> = (0..12).map(|_| disk.allocate()).collect();
        let mut oracle = [0u8; 12];
        for (p, byte) in writes {
            let id = pages[p as usize];
            let frame = pool.get_mut(&mut disk, id, IoKind::Random).unwrap();
            frame[0] = byte;
            oracle[p as usize] = byte;
        }
        pool.flush_all(&mut disk).unwrap();
        for (i, id) in pages.iter().enumerate() {
            prop_assert_eq!(disk.peek(*id).unwrap()[0], oracle[i], "page {}", i);
        }
    }

    #[test]
    fn pool_capacity_is_never_exceeded(
        accesses in prop::collection::vec(0u8..30, 1..300),
        capacity in 1usize..8,
    ) {
        let meter = Arc::new(CostMeter::new());
        let mut disk = SimDisk::new(meter);
        let pages: Vec<PageId> = (0..30).map(|_| disk.allocate()).collect();
        let mut pool = BufferPool::new(capacity, ReplacementPolicy::Random { seed: 1 });
        for a in accesses {
            pool.get(&mut disk, pages[a as usize], IoKind::Random).unwrap();
            prop_assert!(pool.resident_count() <= capacity);
        }
    }
}
