//! Asynchronous activity records (the CUPTI Activity API analogue).
//!
//! GPU metrics "are gathered asynchronously without blocking GPU API calls
//! from the CPU. When the GPU buffer storing metrics is full, DeepContext
//! flushes the metrics, using the correlation ID to link and aggregate
//! them with the corresponding call path" (paper §4.2). The runtime
//! buffers [`Activity`] records and hands full buffers to the registered
//! handler, mirroring `cuptiActivityRegisterCallbacks`.

use std::sync::Arc;

use deepcontext_core::TimeNs;

use crate::runtime::{CorrelationId, DeviceId, StreamId};
use crate::sampling::PcSample;

/// One asynchronous activity record.
#[derive(Debug, Clone)]
pub struct Activity {
    /// Correlation id linking back to the launching API call.
    pub correlation_id: CorrelationId,
    /// Device the activity ran on.
    pub device: DeviceId,
    /// What happened.
    pub kind: ActivityKind,
}

/// Payload of an activity record.
#[derive(Debug, Clone)]
pub enum ActivityKind {
    /// A kernel execution.
    Kernel {
        /// Kernel name.
        name: Arc<str>,
        /// Module providing the kernel.
        module: Arc<str>,
        /// Kernel entry address.
        entry_pc: u64,
        /// Stream it ran on.
        stream: StreamId,
        /// Device-side start time.
        start: TimeNs,
        /// Device-side end time.
        end: TimeNs,
        /// Blocks launched.
        blocks: u32,
        /// Warps launched.
        warps: u64,
        /// The occupancy the four limiters allow, 0..=1 (see
        /// `KernelCost::occupancy`).
        occupancy: f64,
        /// Shared memory per block, bytes.
        shared_mem_per_block: u64,
        /// Registers per thread.
        registers_per_thread: u32,
    },
    /// An async memcpy.
    Memcpy {
        /// Bytes moved.
        bytes: u64,
        /// Stream used.
        stream: StreamId,
        /// Start time.
        start: TimeNs,
        /// End time.
        end: TimeNs,
    },
    /// A device allocation.
    Malloc {
        /// Bytes allocated.
        bytes: u64,
        /// Time of the call.
        at: TimeNs,
    },
    /// A device free.
    Free {
        /// Bytes released.
        bytes: u64,
        /// Time of the call.
        at: TimeNs,
    },
    /// A batch of instruction samples for one kernel execution.
    PcSampling {
        /// Kernel name the samples belong to.
        name: Arc<str>,
        /// Stream the sampled kernel ran on.
        stream: StreamId,
        /// Samples.
        samples: Vec<PcSample>,
    },
}

impl Activity {
    /// End (completion) time of the activity, if it has a duration.
    pub fn end_time(&self) -> Option<TimeNs> {
        match &self.kind {
            ActivityKind::Kernel { end, .. } | ActivityKind::Memcpy { end, .. } => Some(*end),
            ActivityKind::Malloc { at, .. } | ActivityKind::Free { at, .. } => Some(*at),
            ActivityKind::PcSampling { .. } => None,
        }
    }

    /// The stream a kernel, memcpy or sampling record ran on; `None` for
    /// allocation records, which have no stream.
    pub fn stream(&self) -> Option<StreamId> {
        match &self.kind {
            ActivityKind::Kernel { stream, .. }
            | ActivityKind::Memcpy { stream, .. }
            | ActivityKind::PcSampling { stream, .. } => Some(*stream),
            ActivityKind::Malloc { .. } | ActivityKind::Free { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_activity(start: u64, end: u64) -> Activity {
        Activity {
            correlation_id: CorrelationId(1),
            device: DeviceId(0),
            kind: ActivityKind::Kernel {
                name: Arc::from("sgemm"),
                module: Arc::from("m.so"),
                entry_pc: 0x10,
                stream: StreamId(0),
                start: TimeNs(start),
                end: TimeNs(end),
                blocks: 8,
                warps: 64,
                occupancy: 0.5,
                shared_mem_per_block: 0,
                registers_per_thread: 32,
            },
        }
    }

    #[test]
    fn duration_and_end_time() {
        let a = kernel_activity(100, 350);
        assert_eq!(a.end_time(), Some(TimeNs(350)));
        assert_eq!(a.end_time().unwrap() - TimeNs(100), TimeNs(250));
        assert_eq!(a.stream(), Some(StreamId(0)));
    }

    #[test]
    fn malloc_has_no_duration() {
        let a = Activity {
            correlation_id: CorrelationId(2),
            device: DeviceId(0),
            kind: ActivityKind::Malloc {
                bytes: 1024,
                at: TimeNs(5),
            },
        };
        // An allocation ends where it happens.
        assert_eq!(a.end_time(), Some(TimeNs(5)));
        assert_eq!(a.stream(), None, "allocations have no stream");
    }
}
