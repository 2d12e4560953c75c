//! Workload lookup and the per-core PM partitioning.

use crate::{
    ArrayWorkload, BankWorkload, BtreeWorkload, CtrieWorkload, HashWorkload, MixWorkload,
    MsQueueWorkload, QueueWorkload, RbtreeWorkload, RtreeWorkload, TatpWorkload, TpccWorkload,
    TreiberWorkload, Workload, YcsbWorkload,
};

/// Bytes of private PM data region per core (64 MiB). Cores touch disjoint
/// regions, satisfying the paper's §III-A isolation assumption.
pub const CORE_REGION_BYTES: u64 = 64 << 20;

/// Base address of `core`'s private region.
///
/// # Panics
///
/// Panics if the region would reach the log region (8 GiB boundary).
pub(crate) fn core_base(core: usize) -> u64 {
    let base = core as u64 * CORE_REGION_BYTES;
    assert!(
        base + CORE_REGION_BYTES <= 8 << 30,
        "core {core} region exceeds the data region"
    );
    base
}

/// One row of the workload table: lookup name, figure-set membership, and
/// a constructor. Adding a workload is one new row here — `fig11_set`,
/// `fig4_set`, and `workload_by_name` are all views over this table.
struct WorkloadDesc {
    /// Lookup key (case-insensitive) and, for figure-set members, the
    /// display order key.
    name: &'static str,
    /// Member of the seven-benchmark Fig 11 set.
    fig11: bool,
    /// Member of the eleven-workload Fig 4 write-size set.
    fig4: bool,
    make: fn() -> Box<dyn Workload>,
}

/// Rows are in figure order: the Fig 11 seven first, then the four extra
/// Fig 4 workloads, then lookup-only rows — the tpcc-mix alias and the
/// memento-style zoo (msqueue, treiber, zipfmix, zipfmix-mt), which are
/// not paper figures but flow through the same crashfuzz/latency matrices.
const WORKLOADS: &[WorkloadDesc] = &[
    WorkloadDesc {
        name: "array",
        fig11: true,
        fig4: true,
        make: || Box::new(ArrayWorkload::default()),
    },
    WorkloadDesc {
        name: "btree",
        fig11: true,
        fig4: true,
        make: || Box::new(BtreeWorkload::default()),
    },
    WorkloadDesc {
        name: "hash",
        fig11: true,
        fig4: true,
        make: || Box::new(HashWorkload::default()),
    },
    WorkloadDesc {
        name: "queue",
        fig11: true,
        fig4: true,
        make: || Box::new(QueueWorkload::default()),
    },
    WorkloadDesc {
        name: "rbtree",
        fig11: true,
        fig4: true,
        make: || Box::new(RbtreeWorkload::default()),
    },
    WorkloadDesc {
        name: "tpcc",
        fig11: true,
        fig4: true,
        make: || Box::new(TpccWorkload::default()),
    },
    WorkloadDesc {
        name: "ycsb",
        fig11: true,
        fig4: true,
        make: || Box::new(YcsbWorkload::default()),
    },
    WorkloadDesc {
        name: "rtree",
        fig11: false,
        fig4: true,
        make: || Box::new(RtreeWorkload::default()),
    },
    WorkloadDesc {
        name: "ctrie",
        fig11: false,
        fig4: true,
        make: || Box::new(CtrieWorkload::default()),
    },
    WorkloadDesc {
        name: "tatp",
        fig11: false,
        fig4: true,
        make: || Box::new(TatpWorkload::default()),
    },
    WorkloadDesc {
        name: "bank",
        fig11: false,
        fig4: true,
        make: || Box::new(BankWorkload::default()),
    },
    WorkloadDesc {
        name: "tpcc-mix",
        fig11: false,
        fig4: false,
        make: || Box::new(TpccWorkload::all_types()),
    },
    WorkloadDesc {
        name: "msqueue",
        fig11: false,
        fig4: false,
        make: || Box::new(MsQueueWorkload::default()),
    },
    WorkloadDesc {
        name: "treiber",
        fig11: false,
        fig4: false,
        make: || Box::new(TreiberWorkload::default()),
    },
    WorkloadDesc {
        name: "zipfmix",
        fig11: false,
        fig4: false,
        make: || Box::new(MixWorkload::default()),
    },
    WorkloadDesc {
        name: "zipfmix-mt",
        fig11: false,
        fig4: false,
        make: || Box::new(MixWorkload::multi_tenant()),
    },
];

/// The seven benchmarks of Fig 11 / Fig 12 / Fig 13 / Fig 14 / Fig 15.
pub fn fig11_set() -> Vec<Box<dyn Workload>> {
    WORKLOADS
        .iter()
        .filter(|d| d.fig11)
        .map(|d| (d.make)())
        .collect()
}

/// The eleven workloads of the Fig 4 write-size study.
pub fn fig4_set() -> Vec<Box<dyn Workload>> {
    WORKLOADS
        .iter()
        .filter(|d| d.fig4)
        .map(|d| (d.make)())
        .collect()
}

/// Looks up a workload by its figure-row name (case-insensitive).
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    let lower = name.to_ascii_lowercase();
    WORKLOADS
        .iter()
        .find(|d| d.name == lower)
        .map(|d| (d.make)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_sets_have_paper_cardinalities() {
        assert_eq!(fig11_set().len(), 7);
        assert_eq!(fig4_set().len(), 11);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for w in fig4_set() {
            assert!(seen.insert(w.name().to_string()), "duplicate {}", w.name());
            assert!(
                workload_by_name(w.name()).is_some(),
                "unresolvable {}",
                w.name()
            );
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn zoo_workloads_resolve_outside_the_figure_sets() {
        for name in ["msqueue", "treiber", "zipfmix", "zipfmix-mt"] {
            let w = workload_by_name(name).unwrap_or_else(|| panic!("unresolvable {name}"));
            assert!(
                !fig11_set()
                    .iter()
                    .any(|f| f.trace_ident() == w.trace_ident()),
                "{name} must not join the Fig 11 seven"
            );
        }
        assert_eq!(
            workload_by_name("zipfmix-mt").unwrap().name(),
            workload_by_name("zipfmix").unwrap().name(),
            "both mixes share a display name"
        );
    }

    #[test]
    fn tpcc_mix_resolves_to_the_five_type_mix() {
        let mix = workload_by_name("tpcc-mix").expect("tpcc-mix resolvable");
        assert_eq!(mix.name(), "TPCC");
        assert_ne!(
            mix.trace_ident(),
            workload_by_name("tpcc").unwrap().trace_ident(),
            "mix must not alias New-Order-only in trace identity"
        );
    }

    #[test]
    fn trace_idents_are_unique_across_the_table() {
        let mut seen = std::collections::HashSet::new();
        for d in WORKLOADS {
            let ident = (d.make)().trace_ident();
            assert!(seen.insert(ident.clone()), "duplicate trace ident {ident}");
        }
    }

    /// The prefix contract on `Workload::raw_streams` that steady-state
    /// deltas rely on: each core's N-stream is the first `len - N`
    /// transactions of its 2N-stream.
    #[test]
    fn n_streams_are_prefixes_of_2n_streams() {
        const N: usize = 7;
        for d in WORKLOADS {
            let w = (d.make)();
            for cores in [1, 2, 4, 8] {
                let short = w.raw_streams(cores, N, 17);
                let long = w.raw_streams(cores, 2 * N, 17);
                assert_eq!(short.len(), long.len());
                for (core, (s, l)) in short.iter().zip(&long).enumerate() {
                    let what = format!("{} at {cores} cores, core {core}", d.name);
                    assert_eq!(l.len() - s.len(), N, "{what}: not N transactions longer");
                    assert!(l[..s.len()] == s[..], "{what}: N-stream is not a prefix");
                }
            }
        }
    }

    #[test]
    fn core_regions_are_disjoint() {
        assert_eq!(core_base(0), 0);
        assert_eq!(core_base(1), 64 << 20);
        assert!(core_base(7) + CORE_REGION_BYTES <= 8 << 30);
    }

    #[test]
    #[should_panic(expected = "exceeds the data region")]
    fn oversized_core_index_panics() {
        core_base(1000);
    }
}
