//! Seeded inputs, all from `kanon-workloads`' census generator: the same
//! seed gives the same bytes.

use kanon_relation::csv::write_record;
use kanon_workloads::{census_table, CensusParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Census columns, in generator order.
pub const CENSUS_COLUMNS: [&str; 8] = [
    "age",
    "sex",
    "race",
    "marital",
    "education",
    "occupation",
    "hours",
    "zip",
];

/// The seed of input `index` of `stream` in a run seeded with `seed`.
/// Mixing (the SplitMix64 finalizer) keeps runs with nearby seeds from
/// sharing inputs, as `seed + index` would.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mix = |mut z: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    mix(mix(mix(seed) ^ stream) ^ index)
}

/// Rows generated per call into the generator, so a million-row input
/// never exists as a table of owned strings.
const CHUNK: usize = 8192;

/// Streams `rows` census rows from `rng` into CSV lines (no header).
fn census_rows(rng: &mut StdRng, rows: usize, regions: usize, out: &mut String) {
    let mut left = rows;
    while left > 0 {
        let n = left.min(CHUNK);
        let table = census_table(rng, &CensusParams { n, regions });
        for row in table.rows() {
            write_record(out, row.iter().map(String::as_str));
        }
        left -= n;
    }
}

/// A census CSV (header plus `rows` rows) generated from `seed`.
pub fn census_csv(seed: u64, rows: usize, regions: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(rows * 56 + 64);
    write_record(&mut out, CENSUS_COLUMNS.iter().copied());
    census_rows(&mut rng, rows, regions, &mut out);
    out.into_bytes()
}

/// One batch of table ops, rendered as the ops CSV the service parses.
pub struct OpBatch {
    /// The request body.
    pub body: Vec<u8>,
    /// Whether the batch carries updates or deletes.
    pub rewrite: bool,
    /// Rows inserted.
    pub inserted: usize,
    /// Rows deleted.
    pub deleted: usize,
    /// Rows updated.
    pub updated: usize,
}

/// Shape of the table op stream.
pub struct OpStream {
    /// Rows in the table the stream starts from (ids `0..initial_rows`).
    pub initial_rows: usize,
    /// Batches to generate.
    pub batches: usize,
    /// Rows per insert-only batch.
    pub insert_rows: usize,
    /// Every this-many batches, one is a rewrite batch instead.
    pub rewrite_every: usize,
    /// Deletes in a rewrite batch.
    pub deletes: usize,
    /// Updates in a rewrite batch.
    pub updates: usize,
    /// Zip regions of generated rows.
    pub regions: usize,
}

impl OpStream {
    /// Generates the batches from `seed`, tracking live row ids the way the
    /// store assigns them: initial rows get `0..n`, inserts the next id in
    /// op order, and deletes and updates name rows live before their batch.
    pub fn generate(&self, seed: u64) -> Vec<OpBatch> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<u64> = (0..self.initial_rows as u64).collect();
        let mut next_id = self.initial_rows as u64;
        let blanks = ",".repeat(CENSUS_COLUMNS.len());
        let mut header = String::new();
        write_record(
            &mut header,
            ["op", "id"]
                .into_iter()
                .chain(CENSUS_COLUMNS.iter().copied()),
        );
        (0..self.batches)
            .map(|b| {
                let rewrite = b % self.rewrite_every == self.rewrite_every - 1;
                let mut body = header.clone();
                let (inserts, deletes, updates) = if rewrite {
                    (0, self.deletes, self.updates)
                } else {
                    (self.insert_rows, 0, 0)
                };
                let mut rows = String::new();
                census_rows(&mut rng, inserts + updates, self.regions, &mut rows);
                let mut fresh = rows.lines();
                // Deleted and updated ids are distinct rows live before
                // the batch; swap_remove keeps the pick O(1).
                let mut touched = Vec::with_capacity(deletes + updates);
                for _ in 0..deletes + updates {
                    let at = rng.gen_range(0..live.len());
                    touched.push(live.swap_remove(at));
                }
                for &id in &touched[..deletes] {
                    body.push_str(&format!("delete,{id}{blanks}\n"));
                }
                for &id in &touched[deletes..] {
                    let fields = fresh.next().expect("one generated row per update");
                    body.push_str(&format!("update,{id},{fields}\n"));
                    live.push(id);
                }
                for fields in fresh {
                    body.push_str(&format!("insert,,{fields}\n"));
                    live.push(next_id);
                    next_id += 1;
                }
                OpBatch {
                    body: body.into_bytes(),
                    rewrite,
                    inserted: inserts,
                    deleted: deletes,
                    updated: updates,
                }
            })
            .collect()
    }
}

/// `count` distinct row indices below `n`, drawn from `seed`, sorted.
pub fn sample_rows(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count.min(n) {
        picked.insert(rng.gen_range(0..n));
    }
    picked.into_iter().collect()
}
