//! Corpus generation. The generator (`lshe_datagen::CorpusStream`) emits
//! domains as sets of 64-bit values; the server's API takes strings and
//! hashes them itself. So every generated value goes over the wire as its
//! 16-digit hex string, and the indexed domain is `Domain::from_strs` of
//! those strings: exactly what the server computes from a request body.
//! The map value → string is a bijection, so the generator's power-law
//! sizes and clustered overlap carry over unchanged.

use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use std::ops::RangeInclusive;

pub struct Corpus {
    /// Generator values of each domain, in id order.
    pub values: Vec<Vec<u64>>,
    /// Each domain as the server indexes it, with its provenance.
    pub pairs: Vec<(Domain, DomainMeta)>,
}

pub fn value_string(value: u64) -> String {
    format!("{value:016x}")
}

/// The domain the server derives from `values` sent as strings.
pub fn indexed_domain(values: &[u64]) -> Domain {
    let strings: Vec<String> = values.iter().copied().map(value_string).collect();
    Domain::from_strs(strings.iter().map(String::as_str))
}

impl Corpus {
    /// `CorpusConfig::wdc_web_tables_like(domains)` (power law α = 2,
    /// clustered overlap) under `seed`, sizes restricted to `sizes`.
    pub fn generate(domains: usize, seed: u64, sizes: RangeInclusive<u64>) -> Self {
        let config = CorpusConfig {
            seed,
            min_size: *sizes.start(),
            max_size: *sizes.end(),
            ..CorpusConfig::wdc_web_tables_like(domains)
        };
        let mut values = Vec::with_capacity(domains);
        let mut pairs = Vec::with_capacity(domains);
        for (raw, meta) in CorpusStream::new(config) {
            pairs.push((indexed_domain(raw.hashes()), meta));
            values.push(raw.hashes().to_vec());
        }
        Self { values, pairs }
    }

    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Ids of domains whose size lies in `sizes`, ascending.
    pub fn ids_with_size(&self, sizes: &RangeInclusive<usize>) -> Vec<u32> {
        (0u32..)
            .zip(&self.values)
            .filter(|(_, v)| sizes.contains(&v.len()))
            .map(|(id, _)| id)
            .collect()
    }

    /// The catalog `ExactIndex` is built from: this corpus followed by
    /// `appended`, so catalog ids equal the ids the server assigns to
    /// domains inserted in that order.
    pub fn catalog_with(&self, appended: &[(Domain, DomainMeta)]) -> Catalog {
        let mut catalog = Catalog::new();
        for (domain, meta) in self.pairs.iter().chain(appended) {
            catalog.push(domain.clone(), meta.clone());
        }
        catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PARTITIONS;
    use lshe_serve::IndexContainer;

    #[test]
    fn overlap_structure_survives_the_string_round_trip() {
        let corpus = Corpus::generate(300, 9, 1..=1 << 14);
        assert_eq!(corpus.len(), 300);
        let raw: Vec<Domain> = corpus
            .values
            .iter()
            .map(|v| Domain::from_hashes(v.clone()))
            .collect();
        for i in 0..corpus.len() {
            assert_eq!(corpus.pairs[i].0.len(), raw[i].len());
            let j = (i + 1) % corpus.len();
            assert_eq!(
                corpus.pairs[i].0.intersection_size(&corpus.pairs[j].0),
                raw[i].intersection_size(&raw[j])
            );
        }
    }

    #[test]
    fn index_file_bytes_repeat_for_a_seed() {
        let file = |seed| {
            let corpus = Corpus::generate(400, seed, 1..=1 << 14);
            IndexContainer::from_stream(corpus.pairs, PARTITIONS, true).to_bytes()
        };
        assert!(file(21) == file(21), "same seed, different index file");
        assert!(file(21) != file(22), "different seeds, same index file");
    }

    #[test]
    fn same_seed_same_corpus_and_other_seed_differs() {
        let a = Corpus::generate(200, 4, 1..=1 << 14);
        let b = Corpus::generate(200, 4, 1..=1 << 14);
        let c = Corpus::generate(200, 5, 1..=1 << 14);
        assert_eq!(a.values, b.values);
        assert_ne!(a.values, c.values);
    }
}
