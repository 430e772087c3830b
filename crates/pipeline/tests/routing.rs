//! The sink's routing contract: a launch and every record of it go to
//! the shard of their GPU stream, where the shard's own correlation
//! window binds and resolves the correlation.
//!
//! * launches into one stream share a shard whichever thread makes them,
//!   and every record resolves;
//! * one thread over three streams occupies three shards;
//! * a sampling record one batch behind its kernel record still resolves;
//! * a `Free` record, which no launch binds, is an orphan;
//! * peak accounting charges every shard's correlation window at what it
//!   holds, the holes interleaved streams leave included
//!   ([`IdWindow::held_bytes`](deepcontext_core::IdWindow::held_bytes)),
//!   whether or not a batch touched the shard;
//! * after a flush boundary every shard's window is trimmed: the holes
//!   interleaved streams leave in each other's windows cost nothing once
//!   their ids retire;
//! * a flush boundary notes the peak, so a shard only CPU samples reached
//!   enters it at its size at the boundary.

use std::sync::Arc;

use deepcontext_core::{Frame, FrameKind, Interner, MetricKind, PathHandle, StallReason, TimeNs};
use deepcontext_pipeline::ShardedSink;
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, PcSample, StreamId};

/// The calling context thread `tid` launches from: its own script and
/// its own kernel.
fn context(interner: &Interner, tid: u64) -> PathHandle {
    interner.paths().intern(&[
        Frame::python(&format!("worker{tid}.py"), 10, "step", interner),
        Frame::gpu_kernel(&format!("kernel_{tid}"), "module.so", 0x100 + tid, interner),
    ])
}

fn origin(tid: u64, stream: Option<u32>, corr: u64) -> EventOrigin {
    EventOrigin {
        tid: Some(tid),
        stream: stream.map(StreamId),
        correlation: Some(CorrelationId(corr)),
    }
}

fn record(corr: u64, kind: ActivityKind) -> Activity {
    Activity {
        correlation_id: CorrelationId(corr),
        device: DeviceId(0),
        kind,
    }
}

fn kernel(corr: u64, stream: u32) -> Activity {
    let start = TimeNs(corr * 10);
    record(
        corr,
        ActivityKind::Kernel {
            name: Arc::from("kernel"),
            module: Arc::from("module.so"),
            entry_pc: 0x100,
            stream: StreamId(stream),
            start,
            end: start + TimeNs(4),
        },
    )
}

fn sampling(corr: u64, stream: u32, pcs: &[u64]) -> Activity {
    let sample = |&pc| PcSample {
        pc,
        stall: StallReason::MemoryDependency,
    };
    record(
        corr,
        ActivityKind::PcSampling {
            name: Arc::from("kernel"),
            stream: StreamId(stream),
            samples: pcs.iter().map(sample).collect(),
        },
    )
}

#[test]
fn two_threads_launching_into_one_stream_share_a_shard() {
    const PER_THREAD: u64 = 500;
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let producers: Vec<_> = (1..=2u64)
        .map(|tid| {
            let (sink, interner) = (Arc::clone(&sink), Arc::clone(&interner));
            std::thread::spawn(move || {
                let path = context(&interner, tid);
                (0..PER_THREAD)
                    .map(|k| {
                        let corr = tid * 10_000 + k;
                        sink.gpu_launch(&origin(tid, Some(3), corr), path, ApiKind::LaunchKernel);
                        kernel(corr, 3)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let records: Vec<Activity> = producers
        .into_iter()
        .flat_map(|producer| producer.join().expect("producer"))
        .collect();
    assert_eq!(sink.shards_occupied(), 1, "one stream, one shard");
    assert_eq!(sink.correlation_entries(), 2 * PER_THREAD as usize);

    sink.activity_batch(records);
    assert_eq!(sink.shards_occupied(), 1, "the records follow their stream");
    let counters = sink.counters();
    assert_eq!(counters.activities, 2 * PER_THREAD);
    assert_eq!(counters.orphans, 0, "every record resolved");
    // Each thread's kernels landed at its own context.
    let cct = sink.snapshot();
    let kernels = cct.nodes_of_kind(FrameKind::GpuKernel);
    assert_eq!(kernels.len(), 2);
    for node in kernels {
        let stat = |kind| cct.metric(node, kind).map(|s| (s.count, s.sum));
        assert_eq!(stat(MetricKind::KernelLaunches), Some((PER_THREAD, 500.0)));
        assert_eq!(stat(MetricKind::GpuTime).map(|(n, _)| n), Some(PER_THREAD));
    }
}

#[test]
fn one_thread_over_three_streams_occupies_three_shards() {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let path = context(&interner, 1);
    let mut batch = Vec::new();
    for corr in 1..=300u64 {
        let stream = (corr % 3) as u32;
        sink.gpu_launch(&origin(1, Some(stream), corr), path, ApiKind::LaunchKernel);
        batch.push(kernel(corr, stream));
    }
    assert_eq!(sink.shards_occupied(), 3);
    sink.activity_batch(batch);
    assert_eq!(sink.shards_occupied(), 3);
    assert_eq!(sink.counters().orphans, 0);
    sink.epoch_complete();
    assert_eq!(sink.correlation_entries(), 0, "every shard retired its own");
}

#[test]
fn a_sampling_record_one_batch_behind_its_kernel_record_still_resolves() {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let path = context(&interner, 1);
    sink.gpu_launch(&origin(1, Some(2), 1), path, ApiKind::LaunchKernel);
    sink.activity_batch(vec![kernel(1, 2)]);
    sink.activity_batch(vec![sampling(1, 2, &[0x8, 0x10, 0x8])]);
    let counters = sink.counters();
    assert_eq!((counters.orphans, counters.instruction_samples), (0, 3));
    // That second batch retired the kernel record's correlation: a third
    // record of it is an orphan.
    assert_eq!(sink.correlation_entries(), 0);
    sink.activity_batch(vec![sampling(1, 2, &[0x8])]);
    assert_eq!(sink.counters().orphans, 1);
    let cct = sink.snapshot();
    let instructions = cct.nodes_of_kind(FrameKind::Instruction);
    let under_kernel = |node| cct.node(cct.node(node).parent().unwrap()).frame().kind();
    assert!(instructions
        .iter()
        .all(|&node| under_kernel(node) == FrameKind::GpuKernel));
}

#[test]
fn a_free_record_with_no_binding_is_an_orphan() {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let path = context(&interner, 1);
    // An allocation has no stream: its launch and its record meet in the
    // one shard allocations go to. A free is never bound.
    sink.gpu_launch(&origin(1, None, 1), path, ApiKind::MemAlloc);
    let at = TimeNs(5);
    sink.activity_batch(vec![
        record(1, ActivityKind::Malloc { bytes: 256, at }),
        record(2, ActivityKind::Free { bytes: 256, at }),
    ]);
    let counters = sink.counters();
    assert_eq!((counters.activities, counters.orphans), (2, 1));
    assert_eq!(
        sink.shards_occupied(),
        1,
        "the orphan joined the allocation"
    );
    assert_eq!(sink.snapshot().total(MetricKind::GpuAllocBytes), 256.0);
}

#[test]
fn a_flush_boundary_notes_the_peak_of_sample_only_shards() {
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    for tid in 1..=3 {
        for n in 0..20 {
            let origin = origin(tid, None, 0);
            let metric = if n % 2 == 0 {
                MetricKind::CpuTime
            } else {
                MetricKind::HwInstructions
            };
            sink.cpu_sample(&origin, context(&interner, tid), metric, 1_000.0);
        }
    }
    sink.epoch_complete();
    let peak = sink.counters().peak_bytes;
    assert!(peak > 0);
    assert_eq!(peak, sink.approx_bytes());
}

#[test]
fn peak_bytes_charge_every_shards_window_holes_included() {
    // Two sinks fed the same launches, one binding their correlations
    // and one not, then the same stray record on a fourth stream: the
    // peaks differ by exactly the three windows, though the batch touched
    // none of the three launch shards. Three streams interleave, so each
    // shard's window spans 88 ids to hold 30 of them.
    const LAUNCHES: u64 = 90;
    let interner = Interner::new();
    let path = context(&interner, 1);
    let peak = |bind: bool| {
        let sink = ShardedSink::new(Arc::clone(&interner), 16);
        for corr in 1..=LAUNCHES {
            let mut origin = origin(1, Some((corr % 3) as u32), corr);
            if !bind {
                origin.correlation = None;
            }
            sink.gpu_launch(&origin, path, ApiKind::LaunchKernel);
        }
        assert_eq!(sink.shards_occupied(), 3);
        sink.activity_batch(vec![kernel(1_000_000, 3)]);
        assert_eq!(sink.shards_occupied(), 4);
        sink.counters().peak_bytes
    };
    let unbound = peak(false);
    // A slot is a 4-byte `Option<Bound>`: the context and its
    // retirement stamp in one word.
    assert_eq!(peak(true) - unbound, 3 * (LAUNCHES as usize - 2) * 4);
}

#[test]
fn a_flush_boundary_trims_every_shards_window_to_the_idle_level() {
    // Three interleaved streams: each shard binds every third id, so its
    // window spans all of them, holes included.
    let interner = Interner::new();
    let sink = ShardedSink::new(Arc::clone(&interner), 16);
    let path = context(&interner, 1);
    let mut next = 1u64;
    let mut round = |launches: u64, batches: usize| {
        let records: Vec<Activity> = (next..next + launches)
            .map(|corr| {
                let stream = (corr % 3) as u32;
                sink.gpu_launch(&origin(1, Some(stream), corr), path, ApiKind::LaunchKernel);
                kernel(corr, stream)
            })
            .collect();
        next += launches;
        let held = sink.approx_bytes();
        for chunk in records.chunks(records.len().div_ceil(batches)) {
            sink.activity_batch(chunk.to_vec());
        }
        sink.epoch_complete();
        assert_eq!(sink.correlation_entries(), 0);
        held
    };
    // Warm: every context, metric and queue exists; the windows stay
    // below the size a trim shrinks.
    round(30, 1);
    let idle = sink.approx_bytes();
    let held = round(12_000, 6);
    assert!(
        held > idle + 3 * 4_000 * 4,
        "three windows of 12 000 ids each held: {held} vs idle {idle}"
    );
    assert!(
        sink.approx_bytes() <= idle,
        "after the boundary: {} > idle {idle}",
        sink.approx_bytes()
    );
}
