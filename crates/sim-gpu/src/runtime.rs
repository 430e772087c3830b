//! The simulated GPU runtime: devices, streams, launches, memory, and the
//! profiling hooks (callbacks + buffered activities).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use deepcontext_core::{Subscribers, TimeNs, VirtualClock};

use crate::activity::{Activity, ActivityKind};
use crate::callback::{ApiKind, CallbackData, CallbackSite, SubscriberId};
use crate::cost::kernel_cost;
use crate::error::GpuError;
use crate::kernel::KernelDesc;
use crate::sampling::{sample_kernel, SamplingConfig};
use crate::spec::DeviceSpec;

/// Host↔device transfer bandwidth (PCIe/NVLink blend), bytes/s.
const TRANSFER_BANDWIDTH: f64 = 25e9;

/// Identifier of a device within one runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub u32);

/// Identifier of a stream within one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

/// Correlation id linking API callbacks to activity records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CorrelationId(pub u64);

/// An opaque device memory pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

struct DeviceState {
    spec: DeviceSpec,
    /// Per-stream "busy until" horizon.
    streams: Vec<TimeNs>,
    allocated: u64,
    allocations: HashMap<u64, u64>,
    next_ptr: u64,
    busy_total: TimeNs,
    kernel_count: u64,
}

impl DeviceState {
    fn new(spec: DeviceSpec) -> Self {
        DeviceState {
            spec,
            streams: vec![TimeNs::ZERO], // default stream 0
            allocated: 0,
            allocations: HashMap::new(),
            next_ptr: 0x10_0000,
            busy_total: TimeNs::ZERO,
            kernel_count: 0,
        }
    }

    fn horizon(&self) -> TimeNs {
        self.streams.iter().copied().max().unwrap_or(TimeNs::ZERO)
    }
}

type Callback = Arc<dyn Fn(&CallbackData) + Send + Sync>;
type ActivityHandler = Arc<dyn Fn(Vec<Activity>) + Send + Sync>;

/// The simulated GPU runtime.
///
/// One runtime hosts one or more devices (all of the same vendor in
/// practice, like a real driver stack). It exposes the CUPTI-like
/// subscriber interface used by DLMonitor and the profiler.
///
/// # Examples
///
/// ```
/// use sim_gpu::{DeviceSpec, GpuRuntime, KernelDesc, LaunchConfig, DeviceId, StreamId};
/// use deepcontext_core::VirtualClock;
/// use std::sync::Arc;
///
/// let clock = VirtualClock::new();
/// let gpu = GpuRuntime::new(clock.clone(), vec![DeviceSpec::a100_sxm()]);
/// let kernel = Arc::new(
///     KernelDesc::new("sgemm", "libtorch_cuda.so", 0x100, LaunchConfig::new(256, 256))
///         .with_flops(1e9),
/// );
/// let corr = gpu.launch_kernel(DeviceId(0), StreamId(0), kernel)?;
/// gpu.synchronize(DeviceId(0))?;
/// assert!(gpu.device_busy_time(DeviceId(0))?.as_nanos() > 0);
/// # let _ = corr;
/// # Ok::<(), sim_gpu::GpuError>(())
/// ```
pub struct GpuRuntime {
    clock: VirtualClock,
    devices: Mutex<Vec<DeviceState>>,
    callbacks: Subscribers<(SubscriberId, Callback)>,
    next_subscriber: AtomicU64,
    next_correlation: AtomicU64,
    buffer: Mutex<Vec<Activity>>,
    buffer_capacity: AtomicU64,
    activity_handler: RwLock<Option<ActivityHandler>>,
    sampling: RwLock<Option<SamplingConfig>>,
}

impl GpuRuntime {
    /// Creates a runtime hosting `specs` devices.
    pub fn new(clock: VirtualClock, specs: Vec<DeviceSpec>) -> Arc<Self> {
        Arc::new(GpuRuntime {
            clock,
            devices: Mutex::new(specs.into_iter().map(DeviceState::new).collect()),
            callbacks: Subscribers::default(),
            next_subscriber: AtomicU64::new(0),
            next_correlation: AtomicU64::new(0),
            buffer: Mutex::new(Vec::new()),
            buffer_capacity: AtomicU64::new(8192),
            activity_handler: RwLock::new(None),
            sampling: RwLock::new(None),
        })
    }

    /// The runtime's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.lock().len()
    }

    /// The spec of a device.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown ids.
    pub fn device_spec(&self, device: DeviceId) -> Result<DeviceSpec, GpuError> {
        self.devices
            .lock()
            .get(device.0 as usize)
            .map(|d| d.spec.clone())
            .ok_or(GpuError::NoSuchDevice(device.0))
    }

    /// Subscribes to API callbacks (the `cuptiSubscribe` analogue).
    pub fn subscribe(&self, cb: impl Fn(&CallbackData) + Send + Sync + 'static) -> SubscriberId {
        let id = SubscriberId(self.next_subscriber.fetch_add(1, Ordering::SeqCst));
        self.callbacks.push((id, Arc::new(cb)));
        id
    }

    /// Removes a subscriber.
    pub fn unsubscribe(&self, id: SubscriberId) {
        self.callbacks.retain(|(sid, _)| *sid != id);
    }

    /// Installs the buffer-completed handler for activity delivery.
    pub fn set_activity_handler(&self, handler: impl Fn(Vec<Activity>) + Send + Sync + 'static) {
        *self.activity_handler.write() = Some(Arc::new(handler));
    }

    /// Sets the activity buffer capacity; a full buffer is handed to the
    /// activity handler automatically.
    pub fn set_buffer_capacity(&self, capacity: usize) {
        self.buffer_capacity
            .store(capacity as u64, Ordering::SeqCst);
    }

    /// Enables (`Some`) or disables (`None`) instruction sampling.
    pub fn set_sampling(&self, config: Option<SamplingConfig>) {
        *self.sampling.write() = config;
    }

    /// Creates an additional stream on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn create_stream(&self, device: DeviceId) -> Result<StreamId, GpuError> {
        let mut devices = self.devices.lock();
        let dev = devices
            .get_mut(device.0 as usize)
            .ok_or(GpuError::NoSuchDevice(device.0))?;
        dev.streams.push(TimeNs::ZERO);
        Ok(StreamId(dev.streams.len() as u32 - 1))
    }

    /// Ensures `device` has at least `count` streams, creating any
    /// missing ones (multi-stream workloads declare how many streams
    /// they launch into; harnesses call this before running them).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn ensure_streams(&self, device: DeviceId, count: usize) -> Result<(), GpuError> {
        let mut devices = self.devices.lock();
        let dev = devices
            .get_mut(device.0 as usize)
            .ok_or(GpuError::NoSuchDevice(device.0))?;
        while dev.streams.len() < count {
            dev.streams.push(TimeNs::ZERO);
        }
        Ok(())
    }

    fn fire(&self, data: &CallbackData) {
        self.callbacks.deliver(|(_, cb)| cb(data));
    }

    fn push_activity(&self, activity: Activity) {
        let cap = self.buffer_capacity.load(Ordering::SeqCst) as usize;
        let full = {
            let mut buf = self.buffer.lock();
            buf.push(activity);
            buf.len() >= cap
        };
        if full {
            let drained = std::mem::take(&mut *self.buffer.lock());
            if let Some(handler) = self.activity_handler.read().clone() {
                handler(drained);
            } else {
                // No handler: drop records (a real tracer would overwrite).
            }
        }
    }

    /// Launches `kernel` on `device`/`stream`, returning the correlation
    /// id. Fires Enter/Exit callbacks, schedules the kernel on the stream
    /// timeline, and buffers the kernel (and optional sampling) activity.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] / [`GpuError::NoSuchStream`] for
    /// bad targets.
    pub fn launch_kernel(
        &self,
        device: DeviceId,
        stream: StreamId,
        kernel: Arc<KernelDesc>,
    ) -> Result<CorrelationId, GpuError> {
        let corr = CorrelationId(self.next_correlation.fetch_add(1, Ordering::SeqCst) + 1);
        let enter = CallbackData {
            site: CallbackSite::Enter,
            api: ApiKind::LaunchKernel,
            correlation_id: corr,
            device,
            stream: Some(stream),
            kernel: Some(Arc::clone(&kernel)),
            bytes: None,
            timestamp: self.clock.now(),
        };
        self.fire(&enter);

        // CPU-side cost of the driver call, then async scheduling.
        let (activity, sampling_activity) = {
            let mut devices = self.devices.lock();
            let dev = devices
                .get_mut(device.0 as usize)
                .ok_or(GpuError::NoSuchDevice(device.0))?;
            if stream.0 as usize >= dev.streams.len() {
                return Err(GpuError::NoSuchStream(stream.0));
            }
            self.clock.advance(TimeNs(dev.spec.launch_overhead_ns));
            let cost = kernel_cost(&dev.spec, &kernel);
            let start = self.clock.now().max(dev.streams[stream.0 as usize]);
            let end = start + cost.duration;
            dev.streams[stream.0 as usize] = end;
            dev.busy_total += cost.duration;
            dev.kernel_count += 1;

            let activity = Activity {
                correlation_id: corr,
                device,
                kind: ActivityKind::Kernel {
                    name: Arc::clone(&kernel.name),
                    module: Arc::clone(&kernel.module),
                    entry_pc: kernel.entry_pc,
                    stream,
                    start,
                    end,
                    blocks: cost.blocks,
                    warps: cost.warps,
                    occupancy: cost.occupancy,
                    shared_mem_per_block: kernel.shared_mem_per_block,
                    registers_per_thread: kernel.registers_per_thread,
                },
            };
            let sampling_activity = self.sampling.read().as_ref().and_then(|cfg| {
                let samples = sample_kernel(&kernel.instruction_profile, cost.duration, cfg, corr);
                if samples.is_empty() {
                    None
                } else {
                    Some(Activity {
                        correlation_id: corr,
                        device,
                        kind: ActivityKind::PcSampling {
                            name: Arc::clone(&kernel.name),
                            samples,
                        },
                    })
                }
            });
            (activity, sampling_activity)
        };
        self.push_activity(activity);
        if let Some(sa) = sampling_activity {
            self.push_activity(sa);
        }

        let exit = CallbackData {
            site: CallbackSite::Exit,
            timestamp: self.clock.now(),
            ..enter
        };
        self.fire(&exit);
        Ok(corr)
    }

    /// Enqueues an async host↔device copy of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] / [`GpuError::NoSuchStream`] for
    /// bad targets.
    pub fn memcpy_async(
        &self,
        device: DeviceId,
        stream: StreamId,
        bytes: u64,
    ) -> Result<CorrelationId, GpuError> {
        let corr = CorrelationId(self.next_correlation.fetch_add(1, Ordering::SeqCst) + 1);
        let enter = CallbackData {
            site: CallbackSite::Enter,
            api: ApiKind::MemcpyAsync,
            correlation_id: corr,
            device,
            stream: Some(stream),
            kernel: None,
            bytes: Some(bytes),
            timestamp: self.clock.now(),
        };
        self.fire(&enter);

        let activity = {
            let mut devices = self.devices.lock();
            let dev = devices
                .get_mut(device.0 as usize)
                .ok_or(GpuError::NoSuchDevice(device.0))?;
            if stream.0 as usize >= dev.streams.len() {
                return Err(GpuError::NoSuchStream(stream.0));
            }
            self.clock.advance(TimeNs(dev.spec.launch_overhead_ns / 2));
            let duration = TimeNs::from_secs_f64(bytes as f64 / TRANSFER_BANDWIDTH);
            let start = self.clock.now().max(dev.streams[stream.0 as usize]);
            let end = start + duration;
            dev.streams[stream.0 as usize] = end;
            Activity {
                correlation_id: corr,
                device,
                kind: ActivityKind::Memcpy {
                    bytes,
                    stream,
                    start,
                    end,
                },
            }
        };
        self.push_activity(activity);

        let exit = CallbackData {
            site: CallbackSite::Exit,
            timestamp: self.clock.now(),
            ..enter
        };
        self.fire(&exit);
        Ok(corr)
    }

    /// Allocates device memory.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::OutOfMemory`] if the device is exhausted, and
    /// [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn malloc(&self, device: DeviceId, bytes: u64) -> Result<DevicePtr, GpuError> {
        let corr = CorrelationId(self.next_correlation.fetch_add(1, Ordering::SeqCst) + 1);
        let enter = CallbackData {
            site: CallbackSite::Enter,
            api: ApiKind::MemAlloc,
            correlation_id: corr,
            device,
            stream: None,
            kernel: None,
            bytes: Some(bytes),
            timestamp: self.clock.now(),
        };
        self.fire(&enter);
        let (ptr, activity) = {
            let mut devices = self.devices.lock();
            let dev = devices
                .get_mut(device.0 as usize)
                .ok_or(GpuError::NoSuchDevice(device.0))?;
            let capacity = dev.spec.memory_bytes;
            if dev.allocated + bytes > capacity {
                return Err(GpuError::OutOfMemory {
                    device: device.0,
                    requested: bytes,
                    available: capacity - dev.allocated,
                });
            }
            dev.allocated += bytes;
            let ptr = dev.next_ptr;
            dev.next_ptr += bytes.max(256);
            dev.allocations.insert(ptr, bytes);
            (
                DevicePtr(ptr),
                Activity {
                    correlation_id: corr,
                    device,
                    kind: ActivityKind::Malloc {
                        bytes,
                        at: self.clock.now(),
                    },
                },
            )
        };
        self.push_activity(activity);
        let exit = CallbackData {
            site: CallbackSite::Exit,
            timestamp: self.clock.now(),
            ..enter
        };
        self.fire(&exit);
        Ok(ptr)
    }

    /// Frees device memory.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidFree`] for unknown pointers and
    /// [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn free(&self, device: DeviceId, ptr: DevicePtr) -> Result<(), GpuError> {
        let corr = CorrelationId(self.next_correlation.fetch_add(1, Ordering::SeqCst) + 1);
        let (bytes, activity) = {
            let mut devices = self.devices.lock();
            let dev = devices
                .get_mut(device.0 as usize)
                .ok_or(GpuError::NoSuchDevice(device.0))?;
            let bytes = dev
                .allocations
                .remove(&ptr.0)
                .ok_or(GpuError::InvalidFree(ptr.0))?;
            dev.allocated -= bytes;
            (
                bytes,
                Activity {
                    correlation_id: corr,
                    device,
                    kind: ActivityKind::Free {
                        bytes,
                        at: self.clock.now(),
                    },
                },
            )
        };
        let enter = CallbackData {
            site: CallbackSite::Enter,
            api: ApiKind::MemFree,
            correlation_id: corr,
            device,
            stream: None,
            kernel: None,
            bytes: Some(bytes),
            timestamp: self.clock.now(),
        };
        self.fire(&enter);
        self.push_activity(activity);
        let exit = CallbackData {
            site: CallbackSite::Exit,
            timestamp: self.clock.now(),
            ..enter
        };
        self.fire(&exit);
        Ok(())
    }

    /// Blocks (advances virtual time) until all streams of `device` are
    /// idle.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn synchronize(&self, device: DeviceId) -> Result<(), GpuError> {
        let corr = CorrelationId(self.next_correlation.fetch_add(1, Ordering::SeqCst) + 1);
        let enter = CallbackData {
            site: CallbackSite::Enter,
            api: ApiKind::Synchronize,
            correlation_id: corr,
            device,
            stream: None,
            kernel: None,
            bytes: None,
            timestamp: self.clock.now(),
        };
        self.fire(&enter);
        let horizon = {
            let devices = self.devices.lock();
            devices
                .get(device.0 as usize)
                .ok_or(GpuError::NoSuchDevice(device.0))?
                .horizon()
        };
        self.clock.advance_to(horizon);
        let exit = CallbackData {
            site: CallbackSite::Exit,
            timestamp: self.clock.now(),
            ..enter
        };
        self.fire(&exit);
        Ok(())
    }

    /// Drains buffered activities whose completion time is ≤ `now`
    /// (the periodic `cuptiActivityFlushAll(0)` analogue).
    pub fn flush_completed(&self) -> Vec<Activity> {
        let now = self.clock.now();
        let mut buf = self.buffer.lock();
        let (done, pending): (Vec<_>, Vec<_>) = buf
            .drain(..)
            .partition(|a| a.end_time().map(|t| t <= now).unwrap_or(true));
        *buf = pending;
        done
    }

    /// Drains every buffered activity (the flush-on-finalize analogue).
    pub fn flush_all(&self) -> Vec<Activity> {
        std::mem::take(&mut *self.buffer.lock())
    }

    /// Currently buffered (undelivered) activity count.
    pub fn buffered_activities(&self) -> usize {
        self.buffer.lock().len()
    }

    /// Total kernel launches on a device.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn kernel_count(&self, device: DeviceId) -> Result<u64, GpuError> {
        self.devices
            .lock()
            .get(device.0 as usize)
            .map(|d| d.kernel_count)
            .ok_or(GpuError::NoSuchDevice(device.0))
    }

    /// Accumulated busy time across kernels on a device.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn device_busy_time(&self, device: DeviceId) -> Result<TimeNs, GpuError> {
        self.devices
            .lock()
            .get(device.0 as usize)
            .map(|d| d.busy_total)
            .ok_or(GpuError::NoSuchDevice(device.0))
    }

    /// Bytes currently allocated on a device.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::NoSuchDevice`] for unknown devices.
    pub fn allocated_bytes(&self, device: DeviceId) -> Result<u64, GpuError> {
        self.devices
            .lock()
            .get(device.0 as usize)
            .map(|d| d.allocated)
            .ok_or(GpuError::NoSuchDevice(device.0))
    }
}

impl std::fmt::Debug for GpuRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuRuntime")
            .field("devices", &self.device_count())
            .field("buffered_activities", &self.buffered_activities())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{InstructionProfile, LaunchConfig};
    use std::sync::atomic::AtomicUsize;

    fn runtime() -> Arc<GpuRuntime> {
        GpuRuntime::new(VirtualClock::new(), vec![DeviceSpec::a100_sxm()])
    }

    fn kernel(name: &str) -> Arc<KernelDesc> {
        Arc::new(
            KernelDesc::new(name, "libtest.so", 0x100, LaunchConfig::new(512, 256))
                .with_flops(1e10),
        )
    }

    #[test]
    fn launch_fires_enter_and_exit_callbacks_with_kernel_info() {
        let rt = runtime();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        rt.subscribe(move |data| {
            s.lock().push((data.site, data.api, data.correlation_id));
        });
        let corr = rt
            .launch_kernel(DeviceId(0), StreamId(0), kernel("k1"))
            .unwrap();
        let events = seen.lock().clone();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            (CallbackSite::Enter, ApiKind::LaunchKernel, corr)
        );
        assert_eq!(events[1], (CallbackSite::Exit, ApiKind::LaunchKernel, corr));
    }

    #[test]
    fn correlation_ids_are_unique_and_increasing() {
        let rt = runtime();
        let a = rt
            .launch_kernel(DeviceId(0), StreamId(0), kernel("a"))
            .unwrap();
        let b = rt
            .launch_kernel(DeviceId(0), StreamId(0), kernel("b"))
            .unwrap();
        let c = rt.memcpy_async(DeviceId(0), StreamId(0), 1024).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn kernels_on_one_stream_serialize() {
        let rt = runtime();
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("a"))
            .unwrap();
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("b"))
            .unwrap();
        rt.synchronize(DeviceId(0)).unwrap();
        let acts = rt.flush_all();
        let kernels: Vec<_> = acts
            .iter()
            .filter_map(|a| match &a.kind {
                ActivityKind::Kernel { start, end, .. } => Some((*start, *end)),
                _ => None,
            })
            .collect();
        assert_eq!(kernels.len(), 2);
        assert!(
            kernels[1].0 >= kernels[0].1,
            "second starts after first ends"
        );
    }

    #[test]
    fn kernels_on_different_streams_overlap() {
        let rt = runtime();
        let s1 = rt.create_stream(DeviceId(0)).unwrap();
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("a"))
            .unwrap();
        rt.launch_kernel(DeviceId(0), s1, kernel("b")).unwrap();
        rt.synchronize(DeviceId(0)).unwrap();
        let acts = rt.flush_all();
        let kernels: Vec<_> = acts
            .iter()
            .filter_map(|a| match &a.kind {
                ActivityKind::Kernel { start, end, .. } => Some((*start, *end)),
                _ => None,
            })
            .collect();
        // Second launch happens a launch-overhead later but before the
        // first kernel completes.
        assert!(kernels[1].0 < kernels[0].1);
    }

    #[test]
    fn synchronize_advances_clock_to_horizon() {
        let rt = runtime();
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("a"))
            .unwrap();
        let before = rt.clock().now();
        rt.synchronize(DeviceId(0)).unwrap();
        let after = rt.clock().now();
        assert!(after > before);
        // All activities now completed.
        let done = rt.flush_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(rt.buffered_activities(), 0);
    }

    #[test]
    fn flush_completed_leaves_pending_kernels() {
        let rt = runtime();
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("a"))
            .unwrap();
        // Kernel ends in the future; nothing completed yet.
        let done = rt.flush_completed();
        assert!(done.is_empty());
        assert_eq!(rt.buffered_activities(), 1);
        rt.synchronize(DeviceId(0)).unwrap();
        assert_eq!(rt.flush_completed().len(), 1);
    }

    #[test]
    fn buffer_overflow_invokes_handler() {
        let rt = runtime();
        rt.set_buffer_capacity(4);
        let batches = Arc::new(AtomicUsize::new(0));
        let records = Arc::new(AtomicUsize::new(0));
        let b = Arc::clone(&batches);
        let r = Arc::clone(&records);
        rt.set_activity_handler(move |acts| {
            b.fetch_add(1, Ordering::SeqCst);
            r.fetch_add(acts.len(), Ordering::SeqCst);
        });
        for i in 0..10 {
            rt.launch_kernel(DeviceId(0), StreamId(0), kernel(&format!("k{i}")))
                .unwrap();
        }
        assert_eq!(batches.load(Ordering::SeqCst), 2);
        assert_eq!(records.load(Ordering::SeqCst), 8);
        assert_eq!(rt.buffered_activities(), 2);
    }

    #[test]
    fn malloc_free_accounting_and_oom() {
        let clock = VirtualClock::new();
        let mut spec = DeviceSpec::a100_sxm();
        spec.memory_bytes = 1_000;
        let rt = GpuRuntime::new(clock, vec![spec]);
        let p1 = rt.malloc(DeviceId(0), 600).unwrap();
        assert_eq!(rt.allocated_bytes(DeviceId(0)).unwrap(), 600);
        let err = rt.malloc(DeviceId(0), 600).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { available: 400, .. }));
        rt.free(DeviceId(0), p1).unwrap();
        assert_eq!(rt.allocated_bytes(DeviceId(0)).unwrap(), 0);
        assert!(matches!(
            rt.free(DeviceId(0), p1).unwrap_err(),
            GpuError::InvalidFree(_)
        ));
    }

    #[test]
    fn sampling_produces_pc_activity_when_enabled() {
        let rt = runtime();
        rt.set_sampling(Some(SamplingConfig {
            period: TimeNs(100),
            max_samples_per_kernel: 1000,
        }));
        let k = Arc::new(
            KernelDesc::new("cast", "m.so", 0x10, LaunchConfig::new(2048, 256))
                .with_flops(1e10)
                .with_profile(InstructionProfile::cast_kernel()),
        );
        rt.launch_kernel(DeviceId(0), StreamId(0), k).unwrap();
        rt.synchronize(DeviceId(0)).unwrap();
        let acts = rt.flush_all();
        let sampling: Vec<_> = acts
            .iter()
            .filter(|a| matches!(a.kind, ActivityKind::PcSampling { .. }))
            .collect();
        assert_eq!(sampling.len(), 1);
        // Disabled: no sampling records.
        rt.set_sampling(None);
        let k2 = Arc::new(
            KernelDesc::new("cast2", "m.so", 0x20, LaunchConfig::new(2048, 256))
                .with_flops(1e10)
                .with_profile(InstructionProfile::cast_kernel()),
        );
        rt.launch_kernel(DeviceId(0), StreamId(0), k2).unwrap();
        rt.synchronize(DeviceId(0)).unwrap();
        assert!(rt
            .flush_all()
            .iter()
            .all(|a| !matches!(a.kind, ActivityKind::PcSampling { .. })));
    }

    #[test]
    fn bad_targets_error() {
        let rt = runtime();
        assert!(matches!(
            rt.launch_kernel(DeviceId(9), StreamId(0), kernel("x")),
            Err(GpuError::NoSuchDevice(9))
        ));
        assert!(matches!(
            rt.launch_kernel(DeviceId(0), StreamId(7), kernel("x")),
            Err(GpuError::NoSuchStream(7))
        ));
        assert!(matches!(
            rt.synchronize(DeviceId(3)),
            Err(GpuError::NoSuchDevice(3))
        ));
    }

    #[test]
    fn unsubscribe_stops_callbacks() {
        let rt = runtime();
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let id = rt.subscribe(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("a"))
            .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
        rt.unsubscribe(id);
        rt.launch_kernel(DeviceId(0), StreamId(0), kernel("b"))
            .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn kernel_count_and_busy_time_accumulate() {
        let rt = runtime();
        for i in 0..3 {
            rt.launch_kernel(DeviceId(0), StreamId(0), kernel(&format!("k{i}")))
                .unwrap();
        }
        assert_eq!(rt.kernel_count(DeviceId(0)).unwrap(), 3);
        assert!(rt.device_busy_time(DeviceId(0)).unwrap() > TimeNs::ZERO);
    }
}
