//! Multi-table LSH index.
//!
//! Section 4.1 of the paper hashes every group tag signature vector into `l` hash tables
//! indexed by independently drawn `d′`-bit hyperplane families. Traditional LSH then
//! answers nearest-neighbour queries; the paper's SM-LSH instead *enumerates the
//! buckets* of every table and ranks them with the mining scoring function, so the index
//! exposes bucket enumeration ([`LshIndex::buckets`], [`LshIndex::all_buckets`]) rather
//! than nearest-neighbour queries.

use std::collections::HashMap;

use crate::hyperplane::HyperplaneFamily;
use crate::signature::BitSignature;
use crate::SparseVector;

/// Configuration of an [`LshIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// Dimensionality of the hashed vectors.
    pub dims: usize,
    /// Number of hash bits `d′` per table.
    pub num_bits: usize,
    /// Number of hash tables `l`.
    pub num_tables: usize,
    /// RNG seed for hyperplane generation.
    pub seed: u64,
}

impl LshConfig {
    fn validate(&self) {
        assert!(self.dims > 0, "LSH needs a positive dimensionality");
        assert!(self.num_bits > 0, "LSH needs at least one hash bit");
        assert!(self.num_tables > 0, "LSH needs at least one table");
    }
}

/// One hash table: buckets keyed by bit signature.
#[derive(Debug, Clone)]
struct Table {
    family: HyperplaneFamily,
    buckets: HashMap<BitSignature, Vec<usize>>,
}

/// A multi-table random-hyperplane LSH index over a fixed set of items.
#[derive(Debug, Clone)]
pub struct LshIndex {
    num_items: usize,
    tables: Vec<Table>,
}

impl LshIndex {
    /// Build an index over `items` (each item is a sparse vector). Item indices in the
    /// returned buckets refer to positions in `items`.
    pub fn build<'a, I>(config: LshConfig, items: I) -> Self
    where
        I: IntoIterator<Item = SparseVector<'a>>,
        I::IntoIter: Clone,
    {
        config.validate();
        let items_iter = items.into_iter();
        let mut tables: Vec<Table> = (0..config.num_tables)
            .map(|t| Table {
                family: HyperplaneFamily::new(
                    config.dims,
                    config.num_bits,
                    config
                        .seed
                        .wrapping_add(t as u64)
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(1),
                ),
                buckets: HashMap::new(),
            })
            .collect();

        let mut num_items = 0;
        for (idx, item) in items_iter.enumerate() {
            num_items = idx + 1;
            for table in &mut tables {
                let sig = table.family.hash(item);
                table.buckets.entry(sig).or_default().push(idx);
            }
        }

        LshIndex { num_items, tables }
    }

    /// Number of hash tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The buckets of one table, as `(signature, member item indices)` pairs, sorted by
    /// signature for determinism.
    pub fn buckets(&self, table: usize) -> Vec<(&BitSignature, &[usize])> {
        let mut out: Vec<(&BitSignature, &[usize])> = self.tables[table]
            .buckets
            .iter()
            .map(|(sig, members)| (sig, members.as_slice()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Every bucket of every table (table-major order).
    pub fn all_buckets(&self) -> Vec<&[usize]> {
        (0..self.num_tables())
            .flat_map(|t| self.buckets(t).into_iter().map(|(_, members)| members))
            .collect()
    }

    /// The average bucket occupancy of one table (diagnostic for choosing `d′`).
    pub fn mean_bucket_size(&self, table: usize) -> f64 {
        let t = &self.tables[table];
        if t.buckets.is_empty() {
            return 0.0;
        }
        self.num_items as f64 / t.buckets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three clusters of vectors in 6 dimensions.
    fn clustered_items() -> Vec<Vec<(u32, f64)>> {
        let mut items = Vec::new();
        for i in 0..10 {
            items.push(vec![(0u32, 1.0), (1, 0.9 + 0.01 * i as f64)]);
        }
        for i in 0..10 {
            items.push(vec![(2u32, 1.0), (3, 0.9 + 0.01 * i as f64)]);
        }
        for i in 0..10 {
            items.push(vec![(4u32, 1.0), (5, 0.9 + 0.01 * i as f64)]);
        }
        items
    }

    fn build(num_bits: usize, num_tables: usize) -> LshIndex {
        let items = clustered_items();
        LshIndex::build(
            LshConfig {
                dims: 6,
                num_bits,
                num_tables,
                seed: 99,
            },
            items.iter().map(|v| v.as_slice()),
        )
    }

    #[test]
    fn every_item_lands_in_exactly_one_bucket_per_table() {
        let index = build(8, 3);
        assert_eq!(index.num_items, 30);
        assert_eq!(index.num_tables(), 3);
        for t in 0..3 {
            let total: usize = index.buckets(t).iter().map(|(_, m)| m.len()).sum();
            assert_eq!(total, 30);
        }
    }

    #[test]
    fn same_cluster_items_share_buckets() {
        let index = build(6, 1);
        let items = clustered_items();
        // Items 0 and 5 are nearly parallel: same signature.
        let family = &index.tables[0].family;
        assert_eq!(
            family.hash(items[0].as_slice()),
            family.hash(items[5].as_slice())
        );
    }

    #[test]
    fn more_bits_means_more_smaller_buckets() {
        let coarse = build(2, 1);
        let fine = build(16, 1);
        assert!(fine.buckets(0).len() >= coarse.buckets(0).len());
        assert!(fine.mean_bucket_size(0) <= coarse.mean_bucket_size(0) + 1e-9);
    }

    #[test]
    fn build_is_deterministic() {
        let a = build(8, 2);
        let b = build(8, 2);
        for t in 0..2 {
            let ba: Vec<_> = a
                .buckets(t)
                .into_iter()
                .map(|(s, m)| (s.clone(), m.to_vec()))
                .collect();
            let bb: Vec<_> = b
                .buckets(t)
                .into_iter()
                .map(|(s, m)| (s.clone(), m.to_vec()))
                .collect();
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn all_buckets_spans_every_table() {
        let index = build(4, 2);
        let buckets = index.all_buckets();
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 2 * 30);
    }

    #[test]
    #[should_panic(expected = "positive dimensionality")]
    fn zero_dims_config_panics() {
        LshIndex::build(
            LshConfig {
                dims: 0,
                num_bits: 4,
                num_tables: 1,
                seed: 0,
            },
            std::iter::empty::<&[(u32, f64)]>(),
        );
    }
}
