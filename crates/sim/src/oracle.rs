//! The atomic-durability oracle.
//!
//! While the engine executes, the oracle records every transaction's write
//! set and commit status. After a crash + recovery, [`TxOracle::verify`]
//! checks the PM image for the paper's correctness property (§II-A):
//! *all* writes of committed transactions present, *no* writes of
//! uncommitted transactions surviving.

use silo_pm::PmDevice;
use silo_types::{FxHashMap, PhysAddr, TxTag, Word, BUF_LINE_BYTES};

/// Sequential word peeks over a sorted address stream, fetched one buffer
/// line at a time: crash verification scans tens of thousands of footprint
/// words per crash point, and one media-page lookup per *line* beats one
/// per word. Logical values are identical to [`PmDevice::peek_word`].
struct LinePeeker {
    line: [u8; BUF_LINE_BYTES],
    base: u64,
}

impl LinePeeker {
    fn new() -> Self {
        LinePeeker {
            line: [0u8; BUF_LINE_BYTES],
            base: u64::MAX,
        }
    }

    fn word(&mut self, pm: &PmDevice, addr: PhysAddr) -> Word {
        let base = addr.as_u64() / BUF_LINE_BYTES as u64 * BUF_LINE_BYTES as u64;
        let off = (addr.as_u64() - base) as usize;
        if off + 8 > BUF_LINE_BYTES {
            return pm.peek_word(addr); // straddles two lines
        }
        if base != self.base {
            pm.peek_into(PhysAddr::new(base), &mut self.line);
            self.base = base;
        }
        Word::from_le_bytes(
            self.line[off..off + 8]
                .try_into()
                .expect("word within line"),
        )
    }
}

/// One transaction's observed execution, as the oracle saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// The transaction's identity.
    pub tag: TxTag,
    /// Final value per distinct written word (in execution order of the
    /// *last* write to each word).
    pub writes: Vec<(PhysAddr, Word)>,
    /// Whether `Tx_end` was reached before the crash (committed).
    pub committed: bool,
    /// Durability-event index (the engine's global event counter) at which
    /// the transaction committed, was cut by the crash, or raced the power
    /// failure.
    pub event: u64,
}

/// Committed-write-lost rule: a committed word lost its value.
const COMMITTED_LOST: &str = "committed write lost or corrupted";
/// Rollback rule: a word of a cut-off transaction kept its new value.
const PARTIAL_SURVIVED: &str = "partial update of uncommitted transaction survived";
/// Ambiguous rule: a commit that raced the power failure tore.
const TORN_COMMIT: &str = "ambiguous commit applied partially (torn commit)";

/// One word whose recovered value is outside its legal set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending word address.
    pub addr: PhysAddr,
    /// The values atomic durability allows at this word after recovery:
    /// the one required value, or `[rollback, new]` for a word of a torn
    /// commit that raced the power failure.
    pub legal: Vec<Word>,
    /// The value actually found in PM.
    pub actual: Word,
    /// Durability-event index of the word's last commit, rollback or
    /// ambiguous transition.
    pub event: u64,
    /// Which acceptance rule failed ("committed write lost or corrupted",
    /// "partial update of uncommitted transaction survived", "ambiguous
    /// commit applied partially (torn commit)").
    pub kind: &'static str,
}

/// The verification result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Distinct word addresses checked.
    pub words_checked: usize,
    /// Violations found (empty = atomic durability held), sorted by
    /// `(addr, kind)`.
    pub violations: Vec<Violation>,
}

impl ConsistencyReport {
    /// Whether the recovered image satisfied atomic durability.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The lowest-addressed offending word, if any.
    pub fn first_offender(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

/// Tracks per-word expected values across committed transactions and the
/// addresses touched by uncommitted ones.
///
/// The oracle relies on the paper's isolation assumption (§III-A: conflict
/// isolation is provided by software locking), which our workloads satisfy
/// by partitioning addresses across threads: a word written by an
/// uncommitted (in-flight) transaction of one core is never concurrently
/// written by another. The oracle does not check this itself;
/// `tests/workload_coverage.rs::per_core_streams_touch_disjoint_regions`
/// and `crates/workloads/src/registry.rs::core_regions_are_disjoint` do.
///
/// Each word also keeps the durability-event index of its last
/// transition, so a [`Violation`] is localized to the word, its legal
/// values and the event that set them.
///
/// The [`Engine`](crate::Engine) feeds an oracle only on runs that can read
/// it: crash-plan runs, from scratch or resumed, and checkpoint-recording
/// runs, whose checkpoints carry the oracle into resumed crash runs. Clean
/// runs, fork captures and clean continuations leave it unfed, so their
/// commits build no write-set records.
///
/// # Examples
///
/// ```
/// use silo_sim::{TxOracle, TxRecord};
/// use silo_types::{PhysAddr, ThreadId, TxId, TxTag, Word};
///
/// let mut oracle = TxOracle::default();
/// oracle.observe(TxRecord {
///     tag: TxTag::new(ThreadId::new(0), TxId::new(1)),
///     writes: vec![(PhysAddr::new(0), Word::new(7))],
///     committed: true,
///     event: 1,
/// });
/// assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TxOracle {
    /// Expected post-recovery value per word: the last committed write,
    /// with its commit's event index.
    committed_state: FxHashMap<u64, (Word, u64)>,
    /// Words touched by uncommitted transactions, with the value they must
    /// roll back to and the event index of the cut.
    uncommitted_touched: FxHashMap<u64, (Word, u64)>,
    /// Write sets of transactions whose commit raced the power failure.
    /// Either outcome is legal, but it must be all-or-nothing per
    /// transaction.
    ambiguous_groups: Vec<AmbiguousGroup>,
    /// Totals for reporting.
    committed_txs: u64,
    uncommitted_txs: u64,
    ambiguous_txs: u64,
}

/// The write set of one transaction whose commit raced the power failure.
#[derive(Clone, Debug)]
struct AmbiguousGroup {
    /// Durability-event index of the race.
    event: u64,
    /// `(word key, rollback value, new value)` per write.
    words: Vec<(u64, Word, Word)>,
}

impl TxOracle {
    /// Records a finished (or crash-interrupted) transaction.
    pub fn observe(&mut self, record: TxRecord) {
        let event = record.event;
        if record.committed {
            self.committed_txs += 1;
            for (addr, value) in record.writes {
                let key = addr.word_aligned().as_u64();
                self.committed_state.insert(key, (value, event));
            }
        } else {
            self.uncommitted_txs += 1;
            for (addr, _) in record.writes {
                let key = addr.word_aligned().as_u64();
                let rollback = self.rollback_value(key);
                self.uncommitted_touched.insert(key, (rollback, event));
            }
        }
    }

    /// Records a transaction whose `Tx_end` raced the power failure: the
    /// scheme may legally have persisted its commit or not, but the
    /// recovered image must reflect one outcome *atomically*. The record's
    /// writes are checked as a group by [`verify`](Self::verify) and
    /// excluded from the unambiguous-state checks.
    pub fn observe_ambiguous(&mut self, record: TxRecord) {
        self.ambiguous_txs += 1;
        let words = record
            .writes
            .iter()
            .map(|&(addr, new)| {
                let key = addr.word_aligned().as_u64();
                (key, self.rollback_value(key), new)
            })
            .collect();
        self.ambiguous_groups.push(AmbiguousGroup {
            event: record.event,
            words,
        });
    }

    /// The last committed value of the word at `key`, or zero.
    fn rollback_value(&self, key: u64) -> Word {
        self.committed_state
            .get(&key)
            .map_or(Word::ZERO, |&(value, _)| value)
    }

    /// The value atomic durability requires at `addr` after recovery.
    pub fn expected_value(&self, addr: PhysAddr) -> Word {
        let key = addr.word_aligned().as_u64();
        self.committed_state
            .get(&key)
            .or_else(|| self.uncommitted_touched.get(&key))
            .map_or(Word::ZERO, |&(value, _)| value)
    }

    /// Checks the PM image against the expected state. Words written by an
    /// ambiguous transaction (see [`observe_ambiguous`]
    /// (Self::observe_ambiguous)) are checked per group — all-new or
    /// all-rollback — instead of against a single expected value.
    pub fn verify(&self, pm: &PmDevice) -> ConsistencyReport {
        // Ambiguous word -> event index of its group's race.
        let ambiguous: FxHashMap<u64, u64> = self
            .ambiguous_groups
            .iter()
            .flat_map(|g| g.words.iter().map(|&(key, _, _)| (key, g.event)))
            .collect();
        // A word's last transition is its latest one across the three maps.
        let last_event = |key: u64| {
            [
                self.committed_state.get(&key).map(|&(_, e)| e),
                self.uncommitted_touched.get(&key).map(|&(_, e)| e),
                ambiguous.get(&key).copied(),
            ]
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0)
        };
        let violation = |key: u64, legal: Vec<Word>, actual: Word, kind: &'static str| Violation {
            addr: PhysAddr::new(key),
            legal,
            actual,
            event: last_event(key),
            kind,
        };
        let mut report = ConsistencyReport::default();
        let mut peeker = LinePeeker::new();
        let mut keys: Vec<u64> = self.committed_state.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            if ambiguous.contains_key(&key) {
                continue; // group-checked below
            }
            let expected = self.committed_state[&key].0;
            let actual = peeker.word(pm, PhysAddr::new(key));
            report.words_checked += 1;
            if actual != expected {
                report
                    .violations
                    .push(violation(key, vec![expected], actual, COMMITTED_LOST));
            }
        }
        let mut ukeys: Vec<u64> = self.uncommitted_touched.keys().copied().collect();
        ukeys.sort_unstable();
        let mut peeker = LinePeeker::new();
        for key in ukeys {
            if self.committed_state.contains_key(&key) || ambiguous.contains_key(&key) {
                continue; // already checked against the committed value
            }
            let expected = self.uncommitted_touched[&key].0;
            let actual = peeker.word(pm, PhysAddr::new(key));
            report.words_checked += 1;
            if actual != expected {
                report
                    .violations
                    .push(violation(key, vec![expected], actual, PARTIAL_SURVIVED));
            }
        }
        for group in &self.ambiguous_groups {
            let mut all_new = true;
            let mut all_old = true;
            for &(key, rollback, new) in &group.words {
                let actual = pm.peek_word(PhysAddr::new(key));
                report.words_checked += 1;
                if actual != new {
                    all_new = false;
                }
                if actual != rollback {
                    all_old = false;
                }
            }
            if !all_new && !all_old {
                // Torn: flag every word that did not make it to the new
                // value (at least one exists, since `all_new` is false).
                for &(key, rollback, new) in &group.words {
                    let actual = pm.peek_word(PhysAddr::new(key));
                    if actual != new {
                        report.violations.push(violation(
                            key,
                            vec![rollback, new],
                            actual,
                            TORN_COMMIT,
                        ));
                    }
                }
            }
        }
        report.violations.sort_by_key(|v| (v.addr.as_u64(), v.kind));
        report
    }

    /// `(committed, uncommitted)` transaction counts observed.
    pub fn tx_counts(&self) -> (u64, u64) {
        (self.committed_txs, self.uncommitted_txs)
    }

    /// Transactions whose commit raced the power failure.
    pub fn ambiguous_txs(&self) -> u64 {
        self.ambiguous_txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_pm::PmDeviceConfig;
    use silo_types::{ThreadId, TxId};

    fn tag(tid: u8, txid: u16) -> TxTag {
        TxTag::new(ThreadId::new(tid), TxId::new(txid))
    }

    fn record(addr: u64, value: u64, committed: bool, event: u64) -> TxRecord {
        TxRecord {
            tag: tag(0, 1),
            writes: vec![(PhysAddr::new(addr), Word::new(value))],
            committed,
            event,
        }
    }

    fn committed(addr: u64, value: u64) -> TxRecord {
        record(addr, value, true, 1)
    }

    fn blank_pm() -> PmDevice {
        PmDevice::new(PmDeviceConfig::default())
    }

    #[test]
    fn committed_writes_must_be_present() {
        let mut oracle = TxOracle::default();
        oracle.observe(record(0, 7, true, 2));
        let report = oracle.verify(&blank_pm());
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("one violation");
        assert_eq!(v.kind, COMMITTED_LOST);
        assert_eq!(v.addr, PhysAddr::new(0));
        assert_eq!(v.legal, vec![Word::new(7)]);
        assert_eq!(v.actual, Word::ZERO);
        assert_eq!(v.event, 2, "last transition was the commit at event 2");

        let mut pm2 = blank_pm();
        pm2.write_word(PhysAddr::new(0), Word::new(7));
        assert!(oracle.verify(&pm2).is_consistent());
    }

    #[test]
    fn uncommitted_writes_must_roll_back_to_zero() {
        let mut oracle = TxOracle::default();
        oracle.observe(record(8, 5, false, 3));
        let mut pm = blank_pm();
        pm.write_word(PhysAddr::new(8), Word::new(5)); // leaked partial update
        let report = oracle.verify(&pm);
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("one violation");
        assert_eq!(v.kind, PARTIAL_SURVIVED);
        assert_eq!(v.legal, vec![Word::ZERO]);
        assert_eq!(v.event, 3, "the rollback at the cut");
    }

    #[test]
    fn uncommitted_rolls_back_to_last_committed_value() {
        let mut oracle = TxOracle::default();
        oracle.observe(record(0, 3, true, 2));
        oracle.observe(record(0, 9, false, 4));
        assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(3));
        let mut pm = blank_pm();
        pm.write_word(PhysAddr::new(0), Word::new(3));
        assert!(oracle.verify(&pm).is_consistent());
        // The leaked partial update is flagged with the rollback value as
        // the only legal one, at the event of the rollback (the word's
        // last transition), not of the earlier commit.
        let mut leaked = blank_pm();
        leaked.write_word(PhysAddr::new(0), Word::new(9));
        let report = oracle.verify(&leaked);
        let v = report.first_offender().expect("violation");
        assert_eq!(v.legal, vec![Word::new(3)]);
        assert_eq!(v.kind, COMMITTED_LOST);
        assert_eq!(v.event, 4);
    }

    #[test]
    fn later_committed_tx_wins() {
        let mut oracle = TxOracle::default();
        for i in 0..20u64 {
            oracle.observe(record(0, i, true, 2 * i + 1));
        }
        assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(19));
        let report = oracle.verify(&blank_pm());
        let v = report.first_offender().expect("violation");
        assert_eq!(v.legal, vec![Word::new(19)], "last committed value wins");
        assert_eq!(v.event, 39, "last transition is the final commit");
    }

    #[test]
    fn counts_and_checked_words() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 1));
        oracle.observe(TxRecord {
            tag: tag(1, 1),
            writes: vec![(PhysAddr::new(64), Word::new(2))],
            committed: false,
            event: 2,
        });
        assert_eq!(oracle.tx_counts(), (1, 1));
        let mut pm = blank_pm();
        pm.write_word(PhysAddr::new(0), Word::new(1));
        let report = oracle.verify(&pm);
        assert_eq!(report.words_checked, 2);
        assert!(report.is_consistent());
    }

    #[test]
    fn expected_value_of_untouched_word_is_zero() {
        let oracle = TxOracle::default();
        assert_eq!(oracle.expected_value(PhysAddr::new(12345 * 8)), Word::ZERO);
    }

    #[test]
    fn violations_are_sorted_and_first_offender_is_lowest_address() {
        let mut oracle = TxOracle::default();
        for (i, addr) in [64u64, 0, 128].into_iter().enumerate() {
            oracle.observe(record(addr, 5, true, i as u64));
        }
        // A rolled-back word below all of them, observed last.
        oracle.observe(record(8, 6, false, 9));
        let mut pm = blank_pm();
        pm.write_word(PhysAddr::new(8), Word::new(6));
        let report = oracle.verify(&pm);
        let addrs: Vec<u64> = report.violations.iter().map(|v| v.addr.as_u64()).collect();
        assert_eq!(addrs, vec![0, 8, 64, 128]);
        assert_eq!(report.first_offender().unwrap().addr, PhysAddr::new(0));
    }

    fn ambiguous_two_words(oracle: &mut TxOracle) {
        oracle.observe(committed(0, 3));
        oracle.observe_ambiguous(TxRecord {
            tag: tag(0, 2),
            writes: vec![
                (PhysAddr::new(0), Word::new(9)),
                (PhysAddr::new(8), Word::new(10)),
            ],
            committed: false,
            event: 5,
        });
    }

    #[test]
    fn ambiguous_commit_accepts_both_outcomes() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        assert_eq!(oracle.ambiguous_txs(), 1);

        // Fully rolled back: word 0 = last committed (3), word 8 = zero.
        let mut old = blank_pm();
        old.write_word(PhysAddr::new(0), Word::new(3));
        assert!(oracle.verify(&old).is_consistent());

        // Fully applied.
        let mut new = blank_pm();
        new.write_word(PhysAddr::new(0), Word::new(9));
        new.write_word(PhysAddr::new(8), Word::new(10));
        assert!(oracle.verify(&new).is_consistent());
    }

    #[test]
    fn ambiguous_commit_rejects_torn_mix() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        // Word 0 applied, word 8 rolled back: torn.
        let mut pm = blank_pm();
        pm.write_word(PhysAddr::new(0), Word::new(9));
        let report = oracle.verify(&pm);
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("violation");
        assert_eq!(v.kind, TORN_COMMIT);
        assert_eq!(v.addr, PhysAddr::new(8), "the word left behind");
        assert_eq!(
            v.legal,
            vec![Word::ZERO, Word::new(10)],
            "{{rollback, new}}"
        );
        assert_eq!(v.event, 5, "the commit that raced the power failure");
    }

    #[test]
    fn ambiguous_keys_are_excluded_from_plain_checks() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        // Word 0 holds the ambiguous-new value: the committed-state check
        // (which expects 3) must not fire.
        let mut pm = blank_pm();
        pm.write_word(PhysAddr::new(0), Word::new(9));
        pm.write_word(PhysAddr::new(8), Word::new(10));
        let report = oracle.verify(&pm);
        assert!(
            report.violations.iter().all(|v| v.kind != COMMITTED_LOST),
            "{:?}",
            report.violations
        );
    }
}
