//! Synthetic web-log corpus — stand-in for the paper's 2.9 TB Wikipedia
//! web logs (PUMA datasets).
//!
//! What the MapReduce experiment needs from the data is (a) Zipfian word
//! frequencies (irregular per-process intermediate output), (b) a file-size
//! distribution between 256 MB and 1 GB (irregular input work), and (c)
//! deterministic regeneration. The corpus separates **nominal** bytes (the
//! sizes that drive the I/O and compute models, at paper scale) from
//! **actual** tokens (the real words the histogram is computed over, kept
//! small enough to run thousands of simulated ranks in one address space).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::samplers::Zipf;

/// One input file: a nominal on-disk size and a deterministic token
/// stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FileSpec {
    pub id: u64,
    /// Nominal size driving the filesystem model.
    pub bytes: u64,
    /// Number of *actual* tokens the map operation will really hash.
    pub tokens: usize,
}

/// A seeded corpus description.
#[derive(Clone, Debug)]
pub struct Corpus {
    seed: u64,
    vocab: usize,
    zipf: Zipf,
    files: Vec<FileSpec>,
}

/// Parameters for corpus construction.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    pub seed: u64,
    /// Vocabulary size (distinct words).
    pub vocab: usize,
    /// Zipf exponent (~1.0 for natural language).
    pub exponent: f64,
    /// Number of files.
    pub n_files: usize,
    /// Nominal file sizes are uniform in this range (paper: 256 MB–1 GB).
    pub min_file_bytes: u64,
    pub max_file_bytes: u64,
    /// Actual tokens per nominal gigabyte (scales real work down).
    pub tokens_per_gb: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x1234_5678,
            vocab: 20_000,
            exponent: 1.0,
            n_files: 64,
            min_file_bytes: 256 << 20,
            max_file_bytes: 1 << 30,
            tokens_per_gb: 20_000,
        }
    }
}

impl Corpus {
    pub fn new(cfg: CorpusConfig) -> Corpus {
        assert!(cfg.n_files > 0 && cfg.vocab > 0);
        assert!(cfg.min_file_bytes <= cfg.max_file_bytes);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let files = (0..cfg.n_files as u64)
            .map(|id| {
                let bytes = rng.gen_range(cfg.min_file_bytes..=cfg.max_file_bytes);
                let tokens = ((bytes as f64 / (1u64 << 30) as f64) * cfg.tokens_per_gb as f64)
                    .ceil()
                    .max(1.0) as usize;
                FileSpec { id, bytes, tokens }
            })
            .collect();
        Corpus { seed: cfg.seed, vocab: cfg.vocab, zipf: Zipf::new(cfg.vocab, cfg.exponent), files }
    }

    /// All files of the corpus.
    pub fn files(&self) -> &[FileSpec] {
        &self.files
    }

    /// Total nominal bytes over all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The files assigned to `rank` of `nranks` (blocked round-robin, like
    /// a typical input-split assignment).
    pub fn files_for(&self, rank: usize, nranks: usize) -> Vec<FileSpec> {
        self.files.iter().copied().filter(|f| (f.id as usize) % nranks == rank).collect()
    }

    /// Deterministically regenerate the token stream of `file` — word ids
    /// in `0..vocab`. Independent of which rank calls it. Drawn lazily, one
    /// token per `next`, so a mapper can count a file chunk by chunk
    /// without holding all of it.
    pub fn tokens_of(&self, file: &FileSpec) -> impl Iterator<Item = u32> + '_ {
        let mut rng = StdRng::seed_from_u64(self.seed ^ file.id.wrapping_mul(0x9E37_79B9));
        (0..file.tokens).map(move |_| self.zipf.sample(&mut rng) as u32)
    }

    /// Serial oracle: the exact global histogram over every file.
    pub fn serial_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.vocab];
        for f in &self.files {
            for t in self.tokens_of(f) {
                hist[t as usize] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::new(CorpusConfig {
            n_files: 10,
            vocab: 100,
            tokens_per_gb: 1000,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn file_sizes_stay_in_band() {
        let c = small();
        for f in c.files() {
            assert!(f.bytes >= 256 << 20 && f.bytes <= 1 << 30);
            assert!(f.tokens >= 1);
        }
        assert!(c.total_bytes() >= 10 * (256 << 20));
    }

    #[test]
    fn token_streams_are_deterministic() {
        let a = small();
        let b = small();
        for (fa, fb) in a.files().iter().zip(b.files()) {
            assert_eq!(fa, fb);
            assert!(a.tokens_of(fa).eq(b.tokens_of(fb)));
        }
    }

    #[test]
    fn different_files_have_different_streams() {
        let c = small();
        assert!(c.tokens_of(&c.files()[0]).ne(c.tokens_of(&c.files()[1])));
    }

    #[test]
    fn file_assignment_partitions_everything() {
        let c = small();
        let nranks = 3;
        let mut seen = Vec::new();
        for r in 0..nranks {
            for f in c.files_for(r, nranks) {
                seen.push(f.id);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_histogram_counts_every_token() {
        let c = small();
        let hist = c.serial_histogram();
        let total: u64 = hist.iter().sum();
        let tokens: usize = c.files().iter().map(|f| f.tokens).sum();
        assert_eq!(total, tokens as u64);
        // Zipf: word 0 strictly most frequent over a reasonable sample.
        let max_idx = (0..hist.len()).max_by_key(|&i| hist[i]).unwrap();
        assert_eq!(max_idx, 0, "histogram head: {:?}", &hist[..5]);
    }
}
