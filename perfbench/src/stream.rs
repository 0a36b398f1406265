//! The benchmark's inputs, generated from the Table II networks and the
//! run seed: the unique operator classes in network order, and the
//! served op stream with its network order permuted by the seed.

use polyject_codegen::Config;
use polyject_workloads::{all_networks, op_key, Network, OpClass};
use std::collections::HashMap;

/// The three compile configurations, in Table II column order.
pub const CONFIGS: [Config; 3] = [Config::Isl, Config::NoVec, Config::Influenced];

/// Every Table II network's operators, deduplicated to unique classes.
pub struct Population {
    /// The networks, in Table I order.
    pub nets: Vec<Network>,
    /// Unique operator classes in first-seen network order.
    pub unique: Vec<OpClass>,
    /// For each network, the index into `unique` of each of its ops.
    pub op_index: Vec<Vec<usize>>,
}

impl Population {
    /// Builds the population from [`all_networks`].
    pub fn new() -> Population {
        Population::from_networks(all_networks())
    }

    /// Builds the population from the given networks.
    pub fn from_networks(nets: Vec<Network>) -> Population {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut unique = Vec::new();
        let op_index = nets
            .iter()
            .map(|net| {
                net.ops
                    .iter()
                    .map(|op| {
                        *index.entry(op_key(op)).or_insert_with(|| {
                            unique.push(op.clone());
                            unique.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        Population {
            nets,
            unique,
            op_index,
        }
    }

    /// Total operators over all networks (duplicates kept).
    pub fn total_ops(&self) -> usize {
        self.op_index.iter().map(Vec::len).sum()
    }
}

impl Default for Population {
    fn default() -> Population {
        Population::new()
    }
}

/// SplitMix64: the benchmark's own seeded generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator from a seed.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
        v
    }
}

/// One request of the served stream.
#[derive(Clone, Debug)]
pub struct StreamItem {
    /// Index of the operator class in [`Population::unique`].
    pub op: usize,
    /// Index into [`CONFIGS`].
    pub config: usize,
}

/// The network the served streams leave out. Every cache entry a
/// daemon writes costs a synchronous fsync + rename-over on the cache
/// index, and every file the fleet leaves costs another synchronous
/// block discard when it is removed (about 50 ms each on a disk mounted
/// with `discard`); 58 of the 114 unique classes occur only in BERT, so
/// leaving it out keeps a serve run inside the benchmark's time budget.
/// The in-process workloads cover it.
pub const NOT_SERVED: &str = "BERT";

/// Indices (into [`Population::nets`]) of the served networks.
pub fn served_networks(pop: &Population) -> Vec<usize> {
    (0..pop.nets.len())
        .filter(|&n| pop.nets[n].name != NOT_SERVED)
        .collect()
}

/// The served op stream: the served networks in a seed-permuted order,
/// each network's ops in order × the three configs. Returned per
/// network, so the cold workload can send each as one batch.
pub fn served_stream(pop: &Population, seed: u64) -> Vec<Vec<StreamItem>> {
    let nets = served_networks(pop);
    let order = Rng::new(seed ^ 0x5e7e_0a11_5eed).permutation(nets.len());
    order
        .into_iter()
        .map(|i| nets[i])
        .map(|n| {
            pop.op_index[n]
                .iter()
                .flat_map(|&op| (0..CONFIGS.len()).map(move |config| StreamItem { op, config }))
                .collect()
        })
        .collect()
}
