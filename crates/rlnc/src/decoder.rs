use ltnc_gf2::{EncodedPacket, Gf2Solver, Payload};
use ltnc_metrics::{OpCounters, OpKind};

use crate::RlncError;

/// Incremental Gaussian-elimination decoder over GF(2).
///
/// Received code vectors are reduced against the current row-echelon form as
/// they arrive (the partial Gaussian reduction the paper's RLNC baseline uses
/// to drop non-innovative packets immediately). Payloads of innovative packets
/// are buffered; once the matrix reaches full rank, [`GaussianDecoder::decode`]
/// back-substitutes and reconstructs every native payload.
///
/// Costs are recorded in an [`OpCounters`]: [`OpKind::RowReduction`] for every
/// row XOR on the code matrix (control plane) and [`OpKind::PayloadXor`] for
/// every `m`-byte XOR during payload recovery (data plane).
#[derive(Debug, Clone)]
pub struct GaussianDecoder {
    k: usize,
    payload_size: usize,
    solver: Gf2Solver,
    payloads: Vec<Payload>,
    decoded: Option<Vec<Payload>>,
    received: u64,
    redundant: u64,
    counters: OpCounters,
}

impl GaussianDecoder {
    /// Creates a decoder for `k` native packets of `payload_size` bytes each.
    #[must_use]
    pub fn new(k: usize, payload_size: usize) -> Self {
        GaussianDecoder {
            k,
            payload_size,
            solver: Gf2Solver::new(k, k),
            payloads: Vec::with_capacity(k),
            decoded: None,
            received: 0,
            redundant: 0,
            counters: OpCounters::new(),
        }
    }

    /// Code length `k`.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.k
    }

    /// Payload size `m` in bytes.
    #[must_use]
    pub fn payload_size(&self) -> usize {
        self.payload_size
    }

    /// Current rank of the code matrix.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.solver.rank()
    }

    /// Returns `true` once `k` innovative packets have been received.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.solver.is_full_rank()
    }

    /// Number of packets handed to [`GaussianDecoder::insert`].
    #[must_use]
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Number of received packets rejected as non-innovative.
    #[must_use]
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// The operation counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// Returns `true` when the packet would increase the rank of the code
    /// matrix. This is the check a receiver runs on the code vector alone
    /// (before the payload is transferred) when a feedback channel is
    /// available.
    #[must_use]
    pub fn is_innovative(&self, packet: &EncodedPacket) -> bool {
        packet.code_length() == self.k && self.solver.is_innovative(packet.vector())
    }

    /// Inserts a packet. Returns `true` when it was innovative (and stored).
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::PacketMismatch`] when the code length or payload
    /// size does not match.
    pub fn insert(&mut self, packet: &EncodedPacket) -> Result<bool, RlncError> {
        if packet.code_length() != self.k {
            return Err(RlncError::PacketMismatch {
                expected: self.k,
                found: packet.code_length(),
            });
        }
        if packet.payload_size() != self.payload_size {
            return Err(RlncError::PacketMismatch {
                expected: self.payload_size,
                found: packet.payload_size(),
            });
        }
        self.received += 1;
        // Single reduction against the echelon form: the innovation check IS
        // the insertion. The row ops spent reducing are charged whether or not
        // the packet is kept — that is exactly the cost of the partial
        // Gaussian reduction.
        let ops_before = self.solver.row_ops();
        let stored = self.solver.insert_if_innovative(packet.vector());
        self.counters.add(OpKind::RowReduction, self.solver.row_ops() - ops_before);
        let Some(id) = stored else {
            self.redundant += 1;
            return Ok(false);
        };
        debug_assert_eq!(id, self.payloads.len(), "solver ids align with payload buffer");
        self.payloads.push(packet.payload().clone());
        self.decoded = None;
        Ok(true)
    }

    /// Recovers every native payload by back-substitution.
    ///
    /// The result is cached: calling `decode` again returns a clone of the
    /// cached vector without re-doing the elimination.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::NotFullRank`] when fewer than `k` innovative
    /// packets have been received.
    pub fn decode(&mut self) -> Result<Vec<Payload>, RlncError> {
        if let Some(cached) = &self.decoded {
            return Ok(cached.clone());
        }
        if !self.solver.is_full_rank() {
            return Err(RlncError::NotFullRank { rank: self.solver.rank(), needed: self.k });
        }
        let ops_before = self.solver.row_ops();
        let recipes = self.solver.solve().expect("full-rank system must be solvable");
        self.counters.add(OpKind::RowReduction, self.solver.row_ops() - ops_before);

        let mut natives = Vec::with_capacity(self.k);
        for recipe in &recipes {
            let mut acc = Payload::zero(self.payload_size);
            for row_id in recipe.iter_ones() {
                acc.xor_assign(&self.payloads[row_id]);
                self.counters.incr(OpKind::PayloadXor);
            }
            natives.push(acc);
        }
        self.decoded = Some(natives.clone());
        Ok(natives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltnc_gf2::CodeVector;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 37 + j * 11 + 3) as u8).collect()))
            .collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    #[test]
    fn rejects_mismatched_packets() {
        let mut dec = GaussianDecoder::new(4, 2);
        let nat = natives(5, 2);
        assert_eq!(
            dec.insert(&packet(5, &[0], &nat)).unwrap_err(),
            RlncError::PacketMismatch { expected: 4, found: 5 }
        );
        let nat4 = natives(4, 3);
        assert_eq!(
            dec.insert(&packet(4, &[0], &nat4)).unwrap_err(),
            RlncError::PacketMismatch { expected: 2, found: 3 }
        );
    }

    #[test]
    fn innovative_packets_increase_rank() {
        let k = 4;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        assert!(dec.insert(&packet(k, &[0, 1], &nat)).unwrap());
        assert!(dec.insert(&packet(k, &[1, 2], &nat)).unwrap());
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_full_rank());
    }

    #[test]
    fn non_innovative_packets_are_rejected_and_counted() {
        let k = 4;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        dec.insert(&packet(k, &[0, 1], &nat)).unwrap();
        dec.insert(&packet(k, &[1, 2], &nat)).unwrap();
        assert!(!dec.insert(&packet(k, &[0, 2], &nat)).unwrap());
        assert_eq!(dec.redundant_count(), 1);
        assert_eq!(dec.rank(), 2);
        assert!(!dec.is_innovative(&packet(k, &[0, 2], &nat)));
        assert!(dec.is_innovative(&packet(k, &[3], &nat)));
    }

    #[test]
    fn zero_packet_is_never_innovative() {
        let k = 4;
        let mut dec = GaussianDecoder::new(k, 2);
        let zero = EncodedPacket::new(CodeVector::zero(k), Payload::zero(2));
        assert!(!dec.is_innovative(&zero));
        assert!(!dec.insert(&zero).unwrap());
    }

    #[test]
    fn decode_before_full_rank_fails() {
        let k = 3;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        dec.insert(&packet(k, &[0], &nat)).unwrap();
        assert_eq!(dec.decode().unwrap_err(), RlncError::NotFullRank { rank: 1, needed: 3 });
    }

    #[test]
    fn decode_recovers_natives_from_unit_packets() {
        let k = 5;
        let nat = natives(k, 4);
        let mut dec = GaussianDecoder::new(k, 4);
        for i in 0..k {
            dec.insert(&packet(k, &[i], &nat)).unwrap();
        }
        assert_eq!(dec.decode().unwrap(), nat);
    }

    #[test]
    fn decode_recovers_natives_from_combined_packets() {
        let k = 4;
        let nat = natives(k, 8);
        let mut dec = GaussianDecoder::new(k, 8);
        dec.insert(&packet(k, &[0, 1], &nat)).unwrap();
        dec.insert(&packet(k, &[1, 2], &nat)).unwrap();
        dec.insert(&packet(k, &[2, 3], &nat)).unwrap();
        dec.insert(&packet(k, &[3], &nat)).unwrap();
        assert!(dec.is_full_rank());
        assert_eq!(dec.decode().unwrap(), nat);
    }

    #[test]
    fn decode_is_cached() {
        let k = 3;
        let nat = natives(k, 2);
        let mut dec = GaussianDecoder::new(k, 2);
        for i in 0..k {
            dec.insert(&packet(k, &[i], &nat)).unwrap();
        }
        let first = dec.decode().unwrap();
        let ops_after_first = dec.counters().total_ops();
        let second = dec.decode().unwrap();
        assert_eq!(first, second);
        assert_eq!(dec.counters().total_ops(), ops_after_first);
    }

    #[test]
    fn counters_record_row_and_payload_work() {
        let k = 8;
        let nat = natives(k, 16);
        let mut dec = GaussianDecoder::new(k, 16);
        let mut rng = SmallRng::seed_from_u64(3);
        while !dec.is_full_rank() {
            let indices: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
            if indices.is_empty() {
                continue;
            }
            dec.insert(&packet(k, &indices, &nat)).unwrap();
        }
        dec.decode().unwrap();
        assert!(dec.counters().get(OpKind::RowReduction) > 0);
        assert!(dec.counters().get(OpKind::PayloadXor) > 0);
        assert!(dec.counters().data_ops() > 0);
        assert!(dec.counters().control_ops() > 0);
    }

    /// `decode` charges exactly the solver's row XORs as `RowReduction` and
    /// one `PayloadXor` per recipe bit, so the Fig. 8 counts follow the
    /// solver's XOR set (pinned to a reference in `ltnc_gf2`'s matrix tests).
    #[test]
    fn decode_charges_solver_row_ops_and_one_payload_xor_per_recipe_bit() {
        for (k, seed) in [(32usize, 32u64), (256, 256), (1024, 1024)] {
            let nat = natives(k, 8);
            let mut dec = GaussianDecoder::new(k, 8);
            let mut solver = Gf2Solver::new(k, k);
            let mut rng = SmallRng::seed_from_u64(seed);
            while !dec.is_full_rank() {
                let indices: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
                let p = packet(k, &indices, &nat);
                let stored = solver.insert_if_innovative(p.vector()).is_some();
                assert_eq!(dec.insert(&p).unwrap(), stored);
            }
            let recipes = solver.solve().unwrap();
            assert_eq!(dec.decode().unwrap(), nat, "k = {k}");
            assert_eq!(dec.counters().get(OpKind::RowReduction), solver.row_ops(), "k = {k}");
            let recipe_bits: u64 = recipes.iter().map(|r| r.degree() as u64).sum();
            assert_eq!(dec.counters().get(OpKind::PayloadXor), recipe_bits, "k = {k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random dense packets decode to exactly the original natives once
        /// full rank is reached, regardless of the arrival order.
        #[test]
        fn prop_random_packets_decode_correctly(seed in any::<u64>(), k in 2usize..24) {
            let m = 4;
            let nat = natives(k, m);
            let mut dec = GaussianDecoder::new(k, m);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut attempts = 0;
            while !dec.is_full_rank() {
                attempts += 1;
                prop_assert!(attempts < 50 * k, "did not reach full rank");
                let indices: Vec<usize> = (0..k).filter(|_| rng.gen_bool(0.5)).collect();
                if indices.is_empty() {
                    continue;
                }
                dec.insert(&packet(k, &indices, &nat)).unwrap();
            }
            prop_assert_eq!(dec.decode().unwrap(), nat);
        }
    }
}
