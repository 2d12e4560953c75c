//! Property tests: the PM device against a flat-memory oracle.

#![cfg(feature = "proptest")]

use std::collections::HashMap;

use proptest::prelude::*;
use silo_pm::{LineMask, Media, PmDevice, PmDeviceConfig};
use silo_types::{PhysAddr, BUF_LINE_BYTES};

#[derive(Debug, Clone)]
enum WriteKind {
    Staged,
    Through,
}

fn write_strategy() -> impl Strategy<Value = (u64, Vec<u8>, WriteKind)> {
    (
        0u64..4096,
        prop::collection::vec(any::<u8>(), 1..80),
        prop_oneof![Just(WriteKind::Staged), Just(WriteKind::Through)],
    )
}

proptest! {
    /// Any interleaving of coalesced and write-through writes must read
    /// back exactly like a flat byte array, both before and after a full
    /// buffer drain.
    #[test]
    fn device_matches_flat_memory_oracle(
        writes in prop::collection::vec(write_strategy(), 1..60),
        buffer_lines in 1usize..8,
    ) {
        let mut pm = PmDevice::new(PmDeviceConfig {
            buffer_lines,
            log_region_start: None,
        });
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        for (addr, bytes, kind) in &writes {
            match kind {
                WriteKind::Staged => pm.write(PhysAddr::new(*addr), bytes),
                WriteKind::Through => {
                    pm.write_through(PhysAddr::new(*addr), bytes);
                }
            }
            for (i, b) in bytes.iter().enumerate() {
                oracle.insert(addr + i as u64, *b);
            }
        }
        // Read-through view.
        for probe in 0..5000u64 {
            let expected = oracle.get(&probe).copied().unwrap_or(0);
            prop_assert_eq!(pm.peek(PhysAddr::new(probe), 1)[0], expected);
        }
        // Post-drain view.
        pm.flush_all();
        for probe in 0..5000u64 {
            let expected = oracle.get(&probe).copied().unwrap_or(0);
            prop_assert_eq!(pm.peek(PhysAddr::new(probe), 1)[0], expected);
        }
    }

    /// Data-comparison-write: re-writing identical content through the
    /// direct path never programs the media again.
    #[test]
    fn dcw_suppresses_idempotent_rewrites(
        addr in 0u64..1024,
        bytes in prop::collection::vec(any::<u8>(), 1..64),
        repeats in 1usize..5,
    ) {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_through(PhysAddr::new(addr), &bytes);
        let after_first = pm.stats().media_line_writes;
        for _ in 0..repeats {
            pm.write_through(PhysAddr::new(addr), &bytes);
        }
        prop_assert_eq!(pm.stats().media_line_writes, after_first);
    }

    /// Coalescing never inflates media traffic: the number of media line
    /// programs for staged writes is bounded by the number of distinct
    /// 256 B lines touched.
    #[test]
    fn staged_media_writes_bounded_by_touched_lines(
        writes in prop::collection::vec((0u64..8192, 1usize..64), 1..80),
    ) {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut lines = std::collections::HashSet::new();
        for (addr, len) in &writes {
            pm.write(PhysAddr::new(*addr), &vec![0xAB; *len]);
            for b in *addr..(*addr + *len as u64) {
                lines.insert(b / 256);
            }
        }
        pm.flush_all();
        prop_assert!(pm.stats().media_line_writes as usize <= lines.len());
    }
}

/// One step of the paged-media differential: a masked write, a full line
/// program, a crash-time revert, or a copy-on-write snapshot.
#[derive(Debug, Clone)]
enum MediaOp {
    WriteMasked {
        line: u64,
        offset: usize,
        bytes: Vec<u8>,
    },
    ProgramLine {
        line: u64,
        data: Vec<u8>,
        valid: Vec<bool>,
    },
    Revert {
        addr: u64,
        bytes: Vec<u8>,
    },
    Snapshot,
}

/// Lines the differential plays over (spanning several 4 KiB pages).
const MODEL_LINES: u64 = 24;

fn media_op_strategy() -> impl Strategy<Value = MediaOp> {
    // A tiny byte alphabet so identical rewrites (DCW suppressions) and
    // zero-delta programs actually occur.
    let small = 0u8..4;
    prop_oneof![
        3 => (0..MODEL_LINES, 0..BUF_LINE_BYTES, prop::collection::vec(small.clone(), 1..64))
            .prop_map(|(line, offset, bytes)| MediaOp::WriteMasked { line, offset, bytes }),
        2 => (
            0..MODEL_LINES,
            prop::collection::vec(small.clone(), BUF_LINE_BYTES),
            prop::collection::vec(any::<bool>(), BUF_LINE_BYTES),
        )
            .prop_map(|(line, data, valid)| MediaOp::ProgramLine { line, data, valid }),
        1 => (0..MODEL_LINES * BUF_LINE_BYTES as u64, prop::collection::vec(small, 1..300))
            .prop_map(|(addr, bytes)| MediaOp::Revert { addr, bytes }),
        1 => Just(MediaOp::Snapshot),
    ]
}

/// The flat byte-map model the paged media is checked against: bytes plus
/// an independent recount of the durability counters.
#[derive(Default, Clone)]
struct ModelMedia {
    bytes: HashMap<u64, u8>,
    touched: std::collections::HashSet<u64>,
    line_writes: u64,
    bits_programmed: u64,
    dcw_suppressed: u64,
}

impl ModelMedia {
    fn write(&mut self, base: u64, new: &[(u64, u8)]) -> bool {
        let changed: u64 = new
            .iter()
            .map(|&(a, b)| (self.bytes.get(&a).copied().unwrap_or(0) ^ b).count_ones() as u64)
            .sum();
        self.touched.insert(base / BUF_LINE_BYTES as u64);
        if changed == 0 {
            self.dcw_suppressed += 1;
            return false;
        }
        for &(a, b) in new {
            self.bytes.insert(a, b);
        }
        self.line_writes += 1;
        self.bits_programmed += changed;
        true
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (addr..addr + len as u64)
            .map(|a| self.bytes.get(&a).copied().unwrap_or(0))
            .collect()
    }
}

proptest! {
    /// The paged, Arc-shared, copy-on-write media against a flat byte-map
    /// model: any interleaving of masked writes, line programs, crash-time
    /// reverts, and mid-sequence snapshots yields an identical image, an
    /// identical durability-counter recount (line programs drive the
    /// `LineProgram` event stream, so equal counts mean equal event
    /// counts), and snapshots that stay frozen while the live media keeps
    /// mutating.
    #[test]
    fn paged_media_matches_byte_map_model(
        ops in prop::collection::vec(media_op_strategy(), 1..80),
    ) {
        let mut media = Media::new();
        let mut model = ModelMedia::default();
        let mut snapshots: Vec<(Media, ModelMedia)> = Vec::new();
        let span = (MODEL_LINES * BUF_LINE_BYTES as u64) as usize;
        for op in &ops {
            match op {
                MediaOp::WriteMasked { line, offset, bytes } => {
                    let len = bytes.len().min(BUF_LINE_BYTES - offset);
                    let base = line * BUF_LINE_BYTES as u64;
                    let got = media.write_masked(
                        PhysAddr::new(base),
                        &bytes[..len],
                        *offset,
                    );
                    let new: Vec<(u64, u8)> = bytes[..len]
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| (base + (offset + i) as u64, b))
                        .collect();
                    prop_assert_eq!(got, model.write(base, &new), "write_masked verdict");
                }
                MediaOp::ProgramLine { line, data, valid } => {
                    let base = line * BUF_LINE_BYTES as u64;
                    let mut d = [0u8; BUF_LINE_BYTES];
                    d.copy_from_slice(data);
                    let mut v = LineMask::EMPTY;
                    for (i, _) in valid.iter().enumerate().filter(|(_, &on)| on) {
                        v.set_range(i, 1);
                    }
                    let got = media.program_line(PhysAddr::new(base), &d, &v);
                    let new: Vec<(u64, u8)> = (0..BUF_LINE_BYTES)
                        .filter(|&i| v.contains(i))
                        .map(|i| (base + i as u64, d[i]))
                        .collect();
                    prop_assert_eq!(got, model.write(base, &new), "program_line verdict");
                }
                MediaOp::Revert { addr, bytes } => {
                    media.revert(PhysAddr::new(*addr), bytes);
                    for (i, &b) in bytes.iter().enumerate() {
                        let a = addr + i as u64;
                        model.bytes.insert(a, b);
                        model.touched.insert(a / BUF_LINE_BYTES as u64);
                    }
                }
                MediaOp::Snapshot => snapshots.push((media.clone(), model.clone())),
            }
        }
        prop_assert_eq!(media.read(PhysAddr::new(0), span), model.read(0, span));
        prop_assert_eq!(media.line_writes(), model.line_writes, "line programs");
        prop_assert_eq!(media.bits_programmed(), model.bits_programmed);
        prop_assert_eq!(media.dcw_suppressed(), model.dcw_suppressed);
        prop_assert_eq!(media.touched_lines(), model.touched.len());
        // Copy-on-write snapshots froze the image they were taken from.
        for (snap, snap_model) in &snapshots {
            prop_assert_eq!(
                snap.read(PhysAddr::new(0), span),
                snap_model.read(0, span),
                "snapshot image drifted after later writes"
            );
            prop_assert_eq!(snap.line_writes(), snap_model.line_writes);
        }
    }
}
