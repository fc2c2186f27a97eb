use core::cell::RefCell;

use crate::{CodeVector, Gf2Error};

std::thread_local! {
    /// Reduction scratch shared by every innovation check on the thread: the
    /// incoming vector's words are copied here and reduced in place, so the
    /// receive-path `is_innovative` calls allocate nothing after warm-up.
    static REDUCE_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Index of the lowest set bit across `words`, or `None` when all are zero.
#[inline]
fn first_one_in_words(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(wi, &w)| wi * 64 + w.trailing_zeros() as usize)
}

/// XORs `src` into `dst` word by word.
#[inline]
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a ^= *b;
    }
}

/// A full Gaussian-elimination solver that tracks, for every reduced row, the
/// combination of *original* inserted rows it corresponds to.
///
/// This is what the RLNC decoder needs: once full rank is reached, the solver
/// reports, for each native packet `x_i`, which subset of the received encoded
/// packets must be XOR-ed to recover it. The payload work (the `O(m·k²)` part)
/// is then performed by the caller using that recipe, so the data cost can be
/// measured separately from the control cost, exactly as in Figure 8 of the
/// paper.
#[derive(Clone, Debug)]
pub struct Gf2Solver {
    k: usize,
    /// Reduced code vectors (row-echelon form, one per pivot).
    rows: Vec<CodeVector>,
    /// For each reduced row, the combination of original rows (by insertion index).
    combos: Vec<CodeVector>,
    /// pivot column -> index into rows/combos
    pivots: Vec<Option<usize>>,
    /// Maximum number of original rows the combination bitmaps can address.
    capacity: usize,
    row_ops: u64,
}

impl Gf2Solver {
    /// Creates a solver for `k` unknowns able to track up to `capacity` received rows.
    #[must_use]
    pub fn new(k: usize, capacity: usize) -> Self {
        Gf2Solver {
            k,
            rows: Vec::new(),
            combos: Vec::new(),
            pivots: vec![None; k],
            capacity,
            row_ops: 0,
        }
    }

    /// Number of unknowns.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.k
    }

    /// Current rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the system is solvable.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.rank() == self.k
    }

    /// Number of rows stored so far: the id the next innovative row gets.
    #[must_use]
    pub fn inserted(&self) -> usize {
        self.rows.len()
    }

    /// Total row XOR operations spent (control-structure cost).
    #[must_use]
    pub fn row_ops(&self) -> u64 {
        self.row_ops
    }

    /// Returns `true` when the vector would increase the rank.
    ///
    /// Reduces into a reused scratch buffer: no clone, no allocation.
    #[must_use]
    pub fn is_innovative(&self, vector: &CodeVector) -> bool {
        self.reduce(vector, |_| {}, |_, _| ()).is_some()
    }

    /// Reduce-once insertion for the receive path: reduces `vector` against
    /// the current pivots a single time and stores it only when innovative,
    /// returning the id assigned to the stored row. Redundant vectors consume
    /// no id (callers that keep payload buffers aligned with ids drop the
    /// packet in that case), and the row XORs spent reducing are counted in
    /// [`Gf2Solver::row_ops`] either way.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `k`, or if the row would be
    /// innovative and `capacity` rows have already been inserted.
    pub fn insert_if_innovative(&mut self, vector: &CodeVector) -> Option<usize> {
        assert_eq!(vector.len(), self.k, "row length must match code length");
        let mut used_rows: Vec<usize> = Vec::new();
        let residual =
            self.reduce(vector, |row| used_rows.push(row), |col, words| (col, words.to_vec()));
        self.row_ops += used_rows.len() as u64;
        let (col, words) = residual?;
        let id = self.rows.len();
        assert!(id < self.capacity, "solver capacity exceeded");
        let mut combo = CodeVector::singleton(self.capacity, id);
        for &row in &used_rows {
            combo.xor_assign(&self.combos[row]);
        }
        self.pivots[col] = Some(id);
        self.rows.push(CodeVector::from_words(self.k, words));
        self.combos.push(combo);
        Some(id)
    }

    /// Reduces `vector` against the pivot rows in the thread-local scratch,
    /// calling `on_xor` with each pivot row XOR-ed in. When a non-zero
    /// residual remains, returns `residual(leading column, residual words)`;
    /// returns `None` when the vector reduces to zero.
    fn reduce<R>(
        &self,
        vector: &CodeVector,
        mut on_xor: impl FnMut(usize),
        residual: impl FnOnce(usize, &[u64]) -> R,
    ) -> Option<R> {
        REDUCE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.extend_from_slice(vector.as_words());
            loop {
                let col = first_one_in_words(&scratch)?;
                let Some(row) = self.pivots[col] else {
                    return Some(residual(col, &scratch));
                };
                xor_words(&mut scratch, self.rows[row].as_words());
                on_xor(row);
            }
        })
    }

    /// Solves the full-rank system by back-substitution and returns, for each
    /// native packet index `i`, the set of original row ids whose payloads must
    /// be XOR-ed to recover `x_i`.
    ///
    /// Textbook back-substitution eliminates the pivot columns from the
    /// highest down, XOR-ing pivot row `c` (and its combination) into every
    /// earlier row with bit `c` set. When column `c` is processed, its pivot
    /// row has already been reduced to the unit vector `e_c`, so each such
    /// XOR only clears bit `c` of the destination, and that bit is still the
    /// one the destination had after forward reduction. This solver does
    /// exactly those XORs on the combinations and skips the code-vector
    /// halves: the recipe of `x_col` is the combination of the row whose
    /// leading one is `col`, XOR-ed with the (final) recipe of every other
    /// column set in that row. Each of those XORs is one row operation in
    /// [`Gf2Solver::row_ops`], the same count as the row-by-row elimination,
    /// and none of them clones or allocates.
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::NotFullRank`] when fewer than `k` innovative rows
    /// have been inserted.
    pub fn solve(&mut self) -> Result<Vec<CodeVector>, Gf2Error> {
        if !self.is_full_rank() {
            return Err(Gf2Error::NotFullRank { rank: self.rank(), needed: self.k });
        }
        let mut recipes = vec![CodeVector::zero(self.capacity); self.k];
        for col in (0..self.k).rev() {
            let r = self.pivots[col].expect("full rank implies pivot in every column");
            // `done[i]` is the final recipe of column `col + 1 + i`.
            let (head, done) = recipes.split_at_mut(col + 1);
            let recipe = &mut head[col];
            recipe.xor_assign(&self.combos[r]);
            // The row's leading one is `col`; every other one lies above it.
            for above in self.rows[r].iter_ones().skip(1) {
                recipe.xor_assign(&done[above - col - 1]);
                self.row_ops += 1;
            }
        }
        Ok(recipes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cv(k: usize, idx: &[usize]) -> CodeVector {
        CodeVector::from_indices(k, idx)
    }

    /// Textbook row-by-row back-substitution, cloning the source row and its
    /// combination for every row XOR: the reference `solve` must match.
    /// Returns the recipes and the row XORs spent, without touching the
    /// solver.
    fn reference_solve(s: &Gf2Solver) -> (Vec<CodeVector>, u64) {
        let (mut rows, mut combos) = (s.rows.clone(), s.combos.clone());
        let pivot_of_col: Vec<usize> = s.pivots.iter().map(|p| p.unwrap()).collect();
        let mut row_ops = 0;
        for col in (0..s.k).rev() {
            let src = pivot_of_col[col];
            for &dst in &pivot_of_col[..col] {
                if rows[dst].contains(col) {
                    let (src_row, src_combo) = (rows[src].clone(), combos[src].clone());
                    rows[dst].xor_assign(&src_row);
                    combos[dst].xor_assign(&src_combo);
                    row_ops += 1;
                }
            }
        }
        (pivot_of_col.iter().map(|&r| combos[r].clone()).collect(), row_ops)
    }

    /// Payload recovery with one `xor_assign` per recipe bit, the work the
    /// RLNC decoder charges as payload XORs. Returns the natives and that count.
    fn reference_recover(recipes: &[CodeVector], payloads: &[Payload]) -> (Vec<Payload>, u64) {
        let mut xors = 0;
        let natives = recipes
            .iter()
            .map(|recipe| {
                let mut acc = Payload::zero(payloads[0].len());
                for id in recipe.iter_ones() {
                    acc.xor_assign(&payloads[id]);
                    xors += 1;
                }
                acc
            })
            .collect();
        (natives, xors)
    }

    #[test]
    fn empty_matrix_has_rank_zero() {
        let s = Gf2Solver::new(5, 8);
        assert_eq!(s.rank(), 0);
        assert!(!s.is_full_rank());
        assert_eq!(s.code_length(), 5);
    }

    #[test]
    fn inserting_independent_rows_increases_rank() {
        let mut s = Gf2Solver::new(3, 8);
        assert!(s.insert_if_innovative(&cv(3, &[0, 1])).is_some());
        assert!(s.insert_if_innovative(&cv(3, &[1, 2])).is_some());
        assert!(s.insert_if_innovative(&cv(3, &[2])).is_some());
        assert!(s.is_full_rank());
    }

    #[test]
    fn dependent_row_is_not_innovative() {
        let mut s = Gf2Solver::new(3, 8);
        s.insert_if_innovative(&cv(3, &[0, 1]));
        s.insert_if_innovative(&cv(3, &[1, 2]));
        // = row0 + row1
        assert_eq!(s.insert_if_innovative(&cv(3, &[0, 2])), None);
        assert_eq!(s.rank(), 2);
    }

    #[test]
    fn zero_row_is_never_innovative() {
        let mut s = Gf2Solver::new(4, 8);
        assert_eq!(s.insert_if_innovative(&cv(4, &[])), None);
        assert!(!s.is_innovative(&cv(4, &[])));
    }

    #[test]
    fn is_innovative_matches_insert() {
        let mut s = Gf2Solver::new(4, 8);
        s.insert_if_innovative(&cv(4, &[0, 1]));
        s.insert_if_innovative(&cv(4, &[1, 2]));
        assert!(!s.is_innovative(&cv(4, &[0, 2])));
        assert!(s.is_innovative(&cv(4, &[3])));
        assert!(s.is_innovative(&cv(4, &[0, 3])));
    }

    #[test]
    fn row_ops_are_counted() {
        let mut s = Gf2Solver::new(4, 8);
        s.insert_if_innovative(&cv(4, &[0]));
        let before = s.row_ops();
        // requires one reduction against pivot 0
        s.insert_if_innovative(&cv(4, &[0, 1]));
        assert!(s.row_ops() > before);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn insert_wrong_length_panics() {
        let mut s = Gf2Solver::new(4, 8);
        s.insert_if_innovative(&cv(5, &[0]));
    }

    #[test]
    fn echelon_rows_have_distinct_pivots() {
        let mut s = Gf2Solver::new(6, 8);
        s.insert_if_innovative(&cv(6, &[0, 3, 5]));
        s.insert_if_innovative(&cv(6, &[0, 1]));
        s.insert_if_innovative(&cv(6, &[1, 2, 3]));
        let pivots: Vec<usize> = s.rows.iter().map(|r| r.first_one().unwrap()).collect();
        let mut sorted = pivots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pivots.len(), s.rank());
        assert_eq!(sorted.len(), pivots.len());
    }

    #[test]
    fn solver_recovers_identity_recipes() {
        // Insert unit vectors: recipe for x_i is exactly row i.
        let mut s = Gf2Solver::new(3, 8);
        for i in 0..3 {
            assert_eq!(s.insert_if_innovative(&cv(3, &[i])), Some(i));
        }
        let recipes = s.solve().unwrap();
        for (i, r) in recipes.iter().enumerate() {
            assert_eq!(r.ones(), vec![i]);
        }
    }

    #[test]
    fn solver_recovers_combined_recipes() {
        // y0 = x0+x1, y1 = x1, y2 = x1+x2
        // => x0 = y0+y1, x1 = y1, x2 = y1+y2
        let mut s = Gf2Solver::new(3, 8);
        s.insert_if_innovative(&cv(3, &[0, 1]));
        s.insert_if_innovative(&cv(3, &[1]));
        s.insert_if_innovative(&cv(3, &[1, 2]));
        let recipes = s.solve().unwrap();
        assert_eq!(recipes[0].ones(), vec![0, 1]);
        assert_eq!(recipes[1].ones(), vec![1]);
        assert_eq!(recipes[2].ones(), vec![1, 2]);
    }

    #[test]
    fn solver_not_full_rank_error() {
        let mut s = Gf2Solver::new(3, 8);
        s.insert_if_innovative(&cv(3, &[0, 1]));
        let err = s.solve().unwrap_err();
        assert_eq!(err, Gf2Error::NotFullRank { rank: 1, needed: 3 });
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn solver_capacity_is_enforced() {
        let mut s = Gf2Solver::new(2, 1);
        s.insert_if_innovative(&cv(2, &[0]));
        s.insert_if_innovative(&cv(2, &[1]));
    }

    #[test]
    fn insert_if_innovative_skips_redundant_rows_without_consuming_ids() {
        let mut s = Gf2Solver::new(3, 8);
        assert_eq!(s.insert_if_innovative(&cv(3, &[0, 1])), Some(0));
        assert_eq!(s.insert_if_innovative(&cv(3, &[1, 2])), Some(1));
        // row0 + row1 is dependent: rejected, no id consumed, rank unchanged.
        assert_eq!(s.insert_if_innovative(&cv(3, &[0, 2])), None);
        assert_eq!(s.inserted(), 2);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.insert_if_innovative(&cv(3, &[2])), Some(2));
        assert!(s.is_full_rank());
    }

    #[test]
    fn insert_if_innovative_matches_insert_solutions() {
        // Filtering with `is_innovative` first must not change what
        // `insert_if_innovative` stores or the recipes it solves to.
        let rows: &[&[usize]] = &[&[0, 1], &[1], &[1, 2], &[0, 2], &[2]];
        let mut a = Gf2Solver::new(3, 8);
        let mut b = Gf2Solver::new(3, 8);
        for r in rows {
            let innovative = a.is_innovative(&cv(3, r));
            if innovative {
                assert!(a.insert_if_innovative(&cv(3, r)).is_some());
            }
            assert_eq!(b.insert_if_innovative(&cv(3, r)).is_some(), innovative);
        }
        assert_eq!(a.solve().unwrap(), b.solve().unwrap());
    }

    #[test]
    fn insert_if_innovative_counts_row_ops_on_both_paths() {
        let mut s = Gf2Solver::new(3, 8);
        s.insert_if_innovative(&cv(3, &[0]));
        let before = s.row_ops();
        // Redundant row still pays its reduction.
        assert_eq!(s.insert_if_innovative(&cv(3, &[0])), None);
        assert!(s.row_ops() > before);
    }

    #[test]
    fn insert_if_innovative_rejects_zero_row() {
        let mut s = Gf2Solver::new(4, 8);
        assert_eq!(s.insert_if_innovative(&cv(4, &[])), None);
        assert_eq!(s.inserted(), 0);
    }

    /// Pins the XOR set of `solve` to the clone-based reference on seeded
    /// RLNC streams (uniformly random code vectors, as the RLNC source
    /// emits): the same recipes and row XOR count, and so the same natives
    /// and payload XOR count when the payloads are recovered bit by bit.
    #[test]
    fn solve_matches_clone_based_reference() {
        let m = 8;
        for (k, seed) in [(32usize, 32u64), (256, 256), (1024, 1024)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let natives: Vec<Payload> = (0..k)
                .map(|_| {
                    let mut bytes = vec![0u8; m];
                    rng.fill(&mut bytes[..]);
                    Payload::from_vec(bytes)
                })
                .collect();
            let mut s = Gf2Solver::new(k, k);
            let mut payloads = Vec::with_capacity(k);
            while !s.is_full_rank() {
                let vector = CodeVector::from_indices(
                    k,
                    &(0..k).filter(|_| rng.gen_bool(0.5)).collect::<Vec<_>>(),
                );
                if s.insert_if_innovative(&vector).is_some() {
                    let mut payload = Payload::zero(m);
                    for i in vector.iter_ones() {
                        payload.xor_assign(&natives[i]);
                    }
                    payloads.push(payload);
                }
            }
            let (want_recipes, want_ops) = reference_solve(&s);
            let before = s.row_ops();
            let recipes = s.solve().unwrap();
            assert_eq!(recipes, want_recipes, "k = {k}");
            assert_eq!(s.row_ops() - before, want_ops, "k = {k}");
            let (got, xors) = reference_recover(&recipes, &payloads);
            let (want, want_xors) = reference_recover(&want_recipes, &payloads);
            assert_eq!(got, natives, "k = {k}");
            assert_eq!(got, want, "k = {k}");
            assert_eq!(xors, want_xors, "k = {k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rank never exceeds min(#rows, k) and innovation implies rank increase.
        #[test]
        fn prop_rank_bounds(rows in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 0..8), 0..32)) {
            let mut s = Gf2Solver::new(16, 16);
            let mut innovative_count = 0;
            for r in &rows {
                let before = s.rank();
                if s.insert_if_innovative(&cv(16, r)).is_some() {
                    innovative_count += 1;
                    prop_assert_eq!(s.rank(), before + 1);
                } else {
                    prop_assert_eq!(s.rank(), before);
                }
            }
            prop_assert_eq!(s.rank(), innovative_count);
            prop_assert!(s.rank() <= 16);
        }

        /// When the solver reaches full rank, the recipes actually reconstruct
        /// the unit vectors from the original stored rows.
        #[test]
        fn prop_solver_recipes_reconstruct_unit_vectors(seed_rows in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..6), 24..40)) {
            let k = 8;
            let mut s = Gf2Solver::new(k, k);
            let mut originals: Vec<CodeVector> = Vec::new();
            // Top up with unit vectors to guarantee full rank.
            for v in seed_rows.iter().map(|r| cv(k, r)).chain((0..k).map(|i| cv(k, &[i]))) {
                if s.insert_if_innovative(&v).is_some() {
                    originals.push(v);
                }
            }
            let recipes = s.solve().unwrap();
            for (i, recipe) in recipes.iter().enumerate() {
                let mut acc = CodeVector::zero(k);
                for row_id in recipe.iter_ones() {
                    acc.xor_assign(&originals[row_id]);
                }
                prop_assert_eq!(acc.ones(), vec![i]);
            }
        }
    }
}
