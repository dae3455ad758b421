//! Helpers shared by the integration test binaries.
#![allow(dead_code)]

pub mod typed_chase;

use gtgd::data::DenseTrie;

/// The rows of a dense trie of `depth` levels in sorted order, as codes:
/// one per leaf entry, read upwards through the child offsets (a
/// relation's rows are distinct, so each non-leaf entry has a child and
/// the offsets ascend strictly).
pub fn trie_codes(t: &DenseTrie, depth: usize) -> Vec<Vec<u32>> {
    if depth == 0 {
        return vec![Vec::new(); t.rows()];
    }
    (0..t.entry_keys(depth - 1).len())
        .map(|mut e| {
            let mut row = vec![0; depth];
            for l in (0..depth).rev() {
                row[l] = t.entry_keys(l)[e];
                if l > 0 {
                    e = t
                        .entry_child_offsets(l - 1)
                        .partition_point(|&o| o as usize <= e)
                        - 1;
                }
            }
            row
        })
        .collect()
}
