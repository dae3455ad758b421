//! Columnar tuple storage.
//!
//! The row-oriented [`crate::Instance`] indexes (`by_pred`,
//! `by_pred_pos_val`) serve point probes: "which atoms have value `v` at
//! position `pos`?". Worst-case-optimal join execution needs a different
//! access path — *ordered* iteration over a predicate's tuples under an
//! arbitrary attribute order. [`PredColumns`] is the column-major source
//! of that path: the dense store ([`crate::dense`]) encodes it into
//! dictionary codes and sorts the codes into tries.

use crate::value::Value;

/// Columnar mirror of one predicate's tuples (at one arity): `cols[j][r]`
/// is argument `j` of the `r`-th inserted tuple. Row order is insertion
/// order, which makes row ids stable — an index built over rows `0..n`
/// stays valid when rows `n..m` are appended.
#[derive(Debug, Clone, Default)]
pub struct PredColumns {
    cols: Vec<Vec<Value>>,
    rows: usize,
}

impl PredColumns {
    /// Number of rows (tuples).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The values of column `j` (argument position `j`), in row order.
    pub fn col(&self, j: usize) -> &[Value] {
        &self.cols[j]
    }

    /// Reserves capacity for `n` further rows in every column, so a bulk
    /// load ([`crate::Instance::insert_batch`]) grows each column vector
    /// once instead of once per appended tuple.
    pub(crate) fn reserve(&mut self, n: usize) {
        for c in &mut self.cols {
            c.reserve(n);
        }
    }

    /// Appends one tuple. All tuples must share one arity (the caller keys
    /// arenas by `(predicate, arity)`).
    pub(crate) fn push(&mut self, args: &[Value]) {
        if self.cols.is_empty() && !args.is_empty() {
            self.cols = vec![Vec::new(); args.len()];
        }
        debug_assert_eq!(self.cols.len(), args.len());
        for (c, &v) in self.cols.iter_mut().zip(args) {
            c.push(v);
        }
        self.rows += 1;
    }

    /// Removes the rows at the given sorted, distinct indexes; the
    /// survivors keep their order ([`crate::Instance::retract_atoms`]).
    pub(crate) fn remove_rows(&mut self, dead: &[usize]) {
        for c in &mut self.cols {
            remove_sorted(c, dead);
        }
        self.rows -= dead.len();
    }
}

/// Removes the elements at the given sorted, distinct indexes in one
/// order-preserving pass.
pub(crate) fn remove_sorted<T>(v: &mut Vec<T>, dead: &[usize]) {
    let mut at = 0;
    let mut next_dead = dead.iter().peekable();
    v.retain(|_| {
        let gone = next_dead.peek() == Some(&&at);
        if gone {
            next_dead.next();
        }
        at += 1;
        !gone
    });
}
