//! Analytic kernel cost model.
//!
//! Duration is a roofline estimate — the larger of compute time and memory
//! time at the device's peaks — degraded by occupancy and parallelism,
//! multiplied by the kernel's serialization factor, plus a fixed
//! launch-to-start latency:
//!
//! ```text
//! ideal   = max(flops / peak_flops, bytes / (mem_bandwidth * pattern_eff))
//! util    = min(1, resident_warps / (total_warp_slots * SATURATION))
//! t       = ideal / max(util, MIN_UTIL) * serialization + latency
//! ```
//!
//! Occupancy (resident warps per SM over the maximum) is limited by
//! threads, blocks, shared memory and registers per SM — the standard CUDA
//! occupancy calculation; the same resident-block limit bounds `util`.
//! Because AMD's warp size is 64, a block of fixed thread count yields
//! half the warps it does on Nvidia; under-saturated kernels therefore
//! run at lower `util` on MI250, which reproduces the §6.5
//! `instance_norm` case study.

use deepcontext_core::TimeNs;

use crate::kernel::KernelDesc;
use crate::spec::DeviceSpec;

/// Fraction of total warp slots needed to saturate the device.
const SATURATION: f64 = 0.25;
/// Utilization floor, so tiny kernels stay finite.
const MIN_UTIL: f64 = 0.02;

/// The outcome of costing one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Device-side execution duration.
    pub duration: TimeNs,
    /// Warps launched.
    pub warps: u64,
    /// Blocks launched.
    pub blocks: u32,
    /// The occupancy the four limiters allow, 0..=1: resident warps per
    /// SM over `max_warps_per_sm`, a multiple of `1 / max_warps_per_sm`.
    pub occupancy: f64,
    /// Device utilization used for the duration estimate, 0..=1.
    pub utilization: f64,
}

/// Resident blocks per SM given all four occupancy limiters.
fn blocks_per_sm(spec: &DeviceSpec, desc: &KernelDesc) -> u32 {
    let by_threads = spec.max_threads_per_sm / desc.config.block.max(1);
    let by_blocks = spec.max_blocks_per_sm;
    let by_shared = spec
        .shared_mem_per_sm
        .checked_div(desc.shared_mem_per_block)
        .map_or(u32::MAX, |n| n as u32);
    let regs_per_block = u64::from(desc.registers_per_thread) * u64::from(desc.config.block);
    let by_regs = spec
        .registers_per_sm
        .checked_div(regs_per_block)
        .map_or(u32::MAX, |n| n as u32);
    by_threads.min(by_blocks).min(by_shared).min(by_regs)
}

/// Costs one launch of `desc` on `spec`.
pub fn kernel_cost(spec: &DeviceSpec, desc: &KernelDesc) -> KernelCost {
    let blocks = desc.config.grid;
    let warps_per_block = u64::from(desc.config.block.div_ceil(spec.warp_size));
    let warps = u64::from(blocks) * warps_per_block;

    let resident_blocks = blocks_per_sm(spec, desc);
    let occupancy = if resident_blocks == 0 {
        // Kernel cannot fit at all (e.g. shared memory larger than SM);
        // model as serialized single-block residency.
        1.0 / f64::from(spec.max_warps_per_sm)
    } else {
        let resident_warps = u64::from(resident_blocks) * warps_per_block;
        (resident_warps as f64 / f64::from(spec.max_warps_per_sm)).min(1.0)
    };

    // Device-wide parallelism: how many of the warp slots this grid can
    // actually cover, relative to the saturation point.
    let resident_total =
        warps.min(u64::from(resident_blocks.max(1)) * warps_per_block * u64::from(spec.sm_count));
    let utilization = (resident_total as f64 / (spec.total_warp_slots() as f64 * SATURATION))
        .clamp(MIN_UTIL, 1.0);

    let compute_time = desc.flops / spec.peak_flops;
    let bw_efficiency = match desc.memory_pattern {
        crate::kernel::MemoryPattern::Coalesced => spec.coalesced_efficiency,
        crate::kernel::MemoryPattern::Strided => spec.strided_efficiency,
    };
    let memory_time = desc.bytes / (spec.mem_bandwidth * bw_efficiency);
    let ideal = compute_time.max(memory_time);
    let duration_s = ideal / utilization * desc.serialization_factor;
    let duration = TimeNs(spec.kernel_latency_ns + (duration_s * 1e9).round() as u64);

    KernelCost {
        duration,
        warps,
        blocks,
        occupancy,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchConfig;

    fn big_kernel(grid: u32, block: u32) -> KernelDesc {
        KernelDesc::new("k", "m", 0, LaunchConfig::new(grid, block))
            .with_flops(1e12)
            .with_bytes(1e9)
    }

    #[test]
    fn more_flops_means_longer() {
        let spec = DeviceSpec::a100_sxm();
        let a = kernel_cost(&spec, &big_kernel(1024, 256).with_flops(1e11));
        let b = kernel_cost(&spec, &big_kernel(1024, 256).with_flops(2e11));
        assert!(b.duration > a.duration);
    }

    #[test]
    fn memory_bound_kernel_limited_by_bandwidth() {
        let spec = DeviceSpec::a100_sxm();
        let k = big_kernel(2048, 256).with_flops(1.0).with_bytes(2e9);
        let cost = kernel_cost(&spec, &k);
        // 2 GB at 2 TB/s x 0.9 coalesced efficiency, saturated (+latency).
        let expected_ns = 1e9 * (2e9 / (2e12 * 0.9));
        let got = cost.duration.as_nanos() as f64 - spec.kernel_latency_ns as f64;
        assert!((got - expected_ns).abs() / expected_ns < 0.05, "got {got}");
    }

    #[test]
    fn serialization_scales_duration() {
        let spec = DeviceSpec::a100_sxm();
        let base = kernel_cost(&spec, &big_kernel(1024, 256));
        let ser = kernel_cost(&spec, &big_kernel(1024, 256).with_serialization(10.0));
        let base_ns = base.duration.as_nanos() - spec.kernel_latency_ns;
        let ser_ns = ser.duration.as_nanos() - spec.kernel_latency_ns;
        assert!((ser_ns as f64 / base_ns as f64 - 10.0).abs() < 0.01);
    }

    #[test]
    fn small_grid_underutilises_device() {
        let spec = DeviceSpec::a100_sxm();
        let small = kernel_cost(&spec, &big_kernel(4, 128));
        let large = kernel_cost(&spec, &big_kernel(4096, 128));
        assert!(small.utilization < large.utilization);
        assert!(small.duration > large.duration);
    }

    #[test]
    fn warp64_reduces_parallelism_for_nvidia_tuned_blocks() {
        // The §6.5 case study: same kernel template (512-thread CTAs, grid
        // sized below saturation) on both devices. On AMD each CTA yields
        // 8 warps (512/64) instead of 16 (512/32), so utilization of an
        // under-sized grid is lower relative to the saturation point.
        let nv = DeviceSpec::a100_sxm();
        let amd = DeviceSpec::mi250();
        let k = big_kernel(64, 512);
        let nv_cost = kernel_cost(&nv, &k);
        let amd_cost = kernel_cost(&amd, &k);
        // Same total threads, but fewer warps on AMD.
        assert_eq!(nv_cost.warps, 64 * 16);
        assert_eq!(amd_cost.warps, 64 * 8);
        assert!(amd_cost.utilization < nv_cost.utilization);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let spec = DeviceSpec::a100_sxm();
        let light = big_kernel(1024, 256);
        let heavy = big_kernel(1024, 256).with_shared_mem(82 * 1024); // 2 blocks/SM max
        let lo = kernel_cost(&spec, &light);
        let ho = kernel_cost(&spec, &heavy);
        assert!(ho.occupancy < lo.occupancy);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let spec = DeviceSpec::a100_sxm();
        let light = big_kernel(1024, 256).with_registers(32);
        let heavy = big_kernel(1024, 256).with_registers(255);
        assert!(kernel_cost(&spec, &heavy).occupancy < kernel_cost(&spec, &light).occupancy);
    }

    /// Occupancy is a whole number of warp slots over a power-of-two
    /// slot count, on every spec and whether or not a block fits.
    #[test]
    fn occupancy_is_a_whole_number_of_warp_slots_on_every_spec() {
        for spec in [DeviceSpec::a100_sxm(), DeviceSpec::mi250()] {
            let slots = spec.max_warps_per_sm;
            assert!(slots.is_power_of_two(), "{}: {slots} warp slots", spec.name);
            let too_much_shared = spec.shared_mem_per_sm + 1;
            let mut fits = [false, false];
            for block in [
                1, 31, 32, 33, 64, 96, 128, 200, 256, 384, 512, 1024, 2048, 4096,
            ] {
                for registers in [0, 16, 32, 64, 100, 128, 255] {
                    for shared in [0, 1024, 48 * 1024, 82 * 1024, too_much_shared] {
                        let desc = big_kernel(1024, block)
                            .with_registers(registers)
                            .with_shared_mem(shared);
                        let occupancy = kernel_cost(&spec, &desc).occupancy;
                        let warps = occupancy * f64::from(slots);
                        assert_eq!(
                            warps,
                            warps.trunc(),
                            "{}: block {block}, {registers} registers, {shared} B shared",
                            spec.name
                        );
                        assert!((0.0..=1.0).contains(&occupancy));
                        fits[usize::from(blocks_per_sm(&spec, &desc) > 0)] = true;
                    }
                }
            }
            assert_eq!(fits, [true, true], "{}: both sides swept", spec.name);
        }
    }

    #[test]
    fn duration_includes_fixed_latency() {
        let spec = DeviceSpec::a100_sxm();
        let tiny = KernelDesc::new("nop", "m", 0, LaunchConfig::new(1, 32));
        let cost = kernel_cost(&spec, &tiny);
        assert_eq!(cost.duration.as_nanos(), spec.kernel_latency_ns);
    }
}
