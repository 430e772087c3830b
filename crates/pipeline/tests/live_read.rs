//! A live timeline read resolves every interval it returns.
//!
//! One thread launches from a context never seen before, each time, and
//! delivers that launch's kernel record at once; another thread keeps
//! reading the timeline beside it. Every interval a read returns must
//! carry a context, and that context must be a node of the tree
//! `with_snapshot` serves right after: the kernel frame the interval's
//! name was taken from. A read that folds the shards first and reads the
//! rings afterwards loses the contexts recorded in between.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use deepcontext_core::{Frame, Interner, TimeNs};
use deepcontext_pipeline::{ShardedSink, SinkOptions, TimelineConfig};
use dlmonitor::EventOrigin;
use sim_gpu::{Activity, ActivityKind, ApiKind, CorrelationId, DeviceId, StreamId};

/// Launches (and kernel records) the writer makes.
const LAUNCHES: u64 = 3_000;

fn kernel(corr: u64) -> Activity {
    let start = TimeNs(corr * 10);
    Activity {
        correlation_id: CorrelationId(corr),
        device: DeviceId(0),
        kind: ActivityKind::Kernel {
            name: Arc::from("kernel"),
            module: Arc::from("module.so"),
            entry_pc: corr,
            stream: StreamId(0),
            start,
            end: start + TimeNs(4),
        },
    }
}

/// Reads the timeline until the writer is done, checking every interval
/// of every read.
fn read_while_writing(sink: &ShardedSink, writing: &AtomicBool) {
    let mut reads = 0;
    loop {
        // Loaded before the read: the last read starts after the last
        // record.
        let last = !writing.load(Ordering::Acquire);
        let timeline = sink.timeline_snapshot().expect("recording is on");
        sink.with_snapshot(|cct| {
            for interval in timeline.tracks().iter().flat_map(|t| t.intervals()) {
                let node = interval.context.unwrap_or_else(|| {
                    panic!(
                        "read {reads}: correlation {} lost its context",
                        interval.correlation
                    )
                });
                assert!(
                    node.index() < cct.node_count(),
                    "read {reads}: context {node:?} is not in the tree"
                );
                assert_eq!(
                    cct.node(node).frame().gpu_kernel_name(),
                    Some(interval.name),
                    "read {reads}: correlation {} resolved to another node",
                    interval.correlation
                );
            }
        });
        reads += 1;
        if last {
            assert_eq!(timeline.interval_count() as u64, LAUNCHES);
            return;
        }
    }
}

fn every_interval_of_a_live_read_resolves(shards: usize) {
    let interner = Interner::new();
    let sink = ShardedSink::with(
        Arc::clone(&interner),
        SinkOptions {
            shards,
            timeline: TimelineConfig::enabled(),
        },
    );
    let writing = AtomicBool::new(true);
    let reading = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            reading.wait();
            for corr in 1..=LAUNCHES {
                let path = interner.paths().intern(&[
                    Frame::python("train.py", 10, "step", &interner),
                    Frame::gpu_kernel(&format!("kernel_{corr}"), "module.so", corr, &interner),
                ]);
                let origin = EventOrigin {
                    tid: Some(1),
                    stream: Some(StreamId(0)),
                    correlation: Some(CorrelationId(corr)),
                };
                sink.gpu_launch(&origin, path, ApiKind::LaunchKernel);
                sink.activity_batch(vec![kernel(corr)]);
            }
            writing.store(false, Ordering::Release);
        });
        reading.wait();
        read_while_writing(&sink, &writing);
    });
    assert_eq!(sink.counters().orphans, 0);
}

#[test]
fn every_interval_of_a_live_read_resolves_at_one_shard() {
    every_interval_of_a_live_read_resolves(1);
}

#[test]
fn every_interval_of_a_live_read_resolves_at_sixteen_shards() {
    every_interval_of_a_live_read_resolves(16);
}
