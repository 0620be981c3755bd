//! Property-style tests: every primitive must agree with a sequential
//! reference implementation, both on an ordinary thread (where the
//! primitives degrade to sequential loops) and inside a multi-worker
//! [`forkjoin::Pool`] (where they actually fork).

use forkjoin::Pool;

/// Deterministic pseudo-random u64s (SplitMix64) so failures replay exactly.
fn pseudo_random(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Runs `check` once on the calling thread and once installed in a 4-worker
/// pool; the inputs are big enough that the pooled run really forks.
fn outside_and_inside_pool(check: impl Fn() + Send + Sync) {
    check();
    let pool = Pool::new(4).unwrap();
    pool.install(&check);
}

const N: usize = 100_000;

#[test]
fn map_matches_sequential_map() {
    let input = pseudo_random(1, N);
    outside_and_inside_pool(|| {
        let expected: Vec<u64> = input.iter().map(|x| x ^ (x >> 7)).collect();
        assert_eq!(parprim::map(&input, |x| x ^ (x >> 7)), expected);
    });
}

#[test]
fn map_tasks_matches_sequential_map() {
    // Far fewer elements than `map`'s heuristic would ever fork over: the
    // pooled run forks once per element all the same.
    let input = pseudo_random(3, 300);
    outside_and_inside_pool(|| {
        let expected: Vec<u64> = input.iter().map(|x| x.rotate_left(9)).collect();
        assert_eq!(parprim::map_tasks(&input, |x| x.rotate_left(9)), expected);
        assert!(parprim::map_tasks(&[] as &[u64], |x| *x).is_empty());
    });
}

#[test]
fn for_each_mut_visits_every_element_once() {
    outside_and_inside_pool(|| {
        for len in [0, 1, 2, N] {
            let mut values = pseudo_random(2, len);
            let expected: Vec<u64> = values.iter().map(|x| x.wrapping_mul(3)).collect();
            parprim::for_each_task(&mut values, |x| *x = x.wrapping_mul(3));
            assert_eq!(values, expected, "len {len}");
        }
    });
}

#[test]
fn merge_matches_sequential_merge() {
    let mut a: Vec<u64> = pseudo_random(7, N).iter().map(|x| x % 50_000).collect();
    let mut b: Vec<u64> = pseudo_random(8, N / 2).iter().map(|x| x % 50_000).collect();
    a.sort_unstable();
    b.sort_unstable();
    outside_and_inside_pool(|| {
        let mut expected = [a.as_slice(), b.as_slice()].concat();
        expected.sort(); // stable sort of a-then-b == stable merge
        assert_eq!(parprim::merge(&a, &b), expected);
    });
}

#[test]
fn merge_is_stable_on_ties() {
    // Pair each key with its origin; Ord looks only at the key.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Tagged {
        key: u64,
        from_a: bool,
    }
    impl PartialOrd for Tagged {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tagged {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }
    let a: Vec<Tagged> = (0..30_000u64)
        .map(|i| Tagged {
            key: i / 3,
            from_a: true,
        })
        .collect();
    let b: Vec<Tagged> = (0..30_000u64)
        .map(|i| Tagged {
            key: i / 2,
            from_a: false,
        })
        .collect();
    outside_and_inside_pool(|| {
        let merged = parprim::merge(&a, &b);
        assert_eq!(merged.len(), a.len() + b.len());
        // Sorted, and within every run of equal keys all a-elements precede
        // all b-elements.
        for w in merged.windows(2) {
            assert!(w[0].key <= w[1].key);
            if w[0].key == w[1].key {
                assert!(w[0].from_a >= w[1].from_a, "b before a on key {}", w[0].key);
            }
        }
    });
}

#[test]
fn merge_with_empty_side() {
    let a: Vec<u64> = (0..10_000).collect();
    assert_eq!(parprim::merge(&a, &[]), a);
    assert_eq!(parprim::merge(&[], &a), a);
}

#[test]
fn filter_matches_sequential_filter() {
    let input = pseudo_random(9, N);
    outside_and_inside_pool(|| {
        let expected: Vec<u64> = input.iter().filter(|x| *x % 3 == 0).copied().collect();
        assert_eq!(parprim::filter(&input, |x| x % 3 == 0), expected);
    });
}

#[test]
fn filter_edge_cases() {
    assert!(parprim::filter(&[] as &[u64], |_| true).is_empty());
    let input: Vec<u64> = (0..10_000).collect();
    assert_eq!(parprim::filter(&input, |_| true), input);
    assert!(parprim::filter(&input, |_| false).is_empty());
}

#[test]
fn panic_in_map_closure_propagates_and_pool_survives() {
    let input: Vec<u64> = (0..50_000).collect();
    let pool = Pool::new(4).unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            parprim::map(&input, |x| {
                if *x == 40_123 {
                    panic!("poisoned element");
                }
                *x
            })
        })
    }));
    assert!(caught.is_err());
    assert_eq!(
        pool.install(|| parprim::map(&input[..10], |x| x + 1)),
        (1..=10).collect::<Vec<u64>>()
    );
}
