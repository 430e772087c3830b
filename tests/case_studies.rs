//! Table 3 case studies: every optimization the paper derives from
//! DeepContext's analyses must reproduce in direction (and roughly in
//! magnitude) on the simulated platforms.

use deepcontext::prelude::*;

fn gpu_time(workload: &dyn Workload, opts: &WorkloadOptions, spec: DeviceSpec) -> f64 {
    let bed = TestBed::new(spec);
    let stats = bed.run_eager(workload, opts, 2).expect("run");
    stats.gpu_busy.as_secs_f64()
}

#[test]
fn case1_dlrm_index_select_speedup() {
    // Paper: 73.2s -> 44.0s GPU time (1.66x).
    let base = gpu_time(
        &DlrmSmall,
        &WorkloadOptions::default(),
        DeviceSpec::a100_sxm(),
    );
    let fixed = gpu_time(
        &DlrmSmall,
        &WorkloadOptions {
            use_index_select: true,
            ..Default::default()
        },
        DeviceSpec::a100_sxm(),
    );
    let speedup = base / fixed;
    assert!(
        (1.2..3.0).contains(&speedup),
        "DLRM index fix speedup {speedup:.2}x out of expected band"
    );
}

#[test]
fn case2_gnn_index_select_modest_speedup() {
    // Paper: 3.97s -> 3.71s (1.07x).
    let base = gpu_time(&Gnn, &WorkloadOptions::default(), DeviceSpec::a100_sxm());
    let fixed = gpu_time(
        &Gnn,
        &WorkloadOptions {
            use_index_select: true,
            ..Default::default()
        },
        DeviceSpec::a100_sxm(),
    );
    let speedup = base / fixed;
    assert!(
        (1.0..1.5).contains(&speedup),
        "GNN index fix speedup {speedup:.2}x out of expected band"
    );
}

#[test]
fn case3_unet_channels_last_speedup() {
    // Paper: 54s -> 42s end-to-end (1.28x) by removing layout conversions.
    let base = gpu_time(&UNet, &WorkloadOptions::default(), DeviceSpec::a100_sxm());
    let fixed = gpu_time(
        &UNet,
        &WorkloadOptions {
            channels_last: true,
            ..Default::default()
        },
        DeviceSpec::a100_sxm(),
    );
    let speedup = base / fixed;
    assert!(
        (1.05..2.0).contains(&speedup),
        "UNet layout fix speedup {speedup:.2}x out of expected band"
    );
}

#[test]
fn case4_unet_worker_count_speedup() {
    // Paper: 54s -> 47s end-to-end (1.15x) matching workers to cores.
    let wall = |workers: usize| {
        let bed = TestBed::new(DeviceSpec::a100_sxm());
        bed.run_eager(
            &UNet,
            &WorkloadOptions {
                dataloader_workers: workers,
                ..Default::default()
            },
            3,
        )
        .expect("run")
        .wall
        .as_secs_f64()
    };
    let oversubscribed = wall(16);
    let matched = wall(8);
    let speedup = oversubscribed / matched;
    assert!(
        (1.02..1.6).contains(&speedup),
        "worker fix speedup {speedup:.2}x out of expected band"
    );
}

#[test]
fn case5_transformer_fused_loss_speedup() {
    // Paper: 30.5s -> 23.9s GPU time after fusing the loss kernels.
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let base = bed
        .run_eager(&TransformerBig, &WorkloadOptions::default(), 2)
        .unwrap();
    let bed2 = TestBed::new(DeviceSpec::a100_sxm());
    let fused = bed2
        .run_eager(
            &TransformerBig,
            &WorkloadOptions {
                fused_loss: true,
                ..Default::default()
            },
            2,
        )
        .unwrap();
    assert!(fused.kernels < base.kernels, "fusion must reduce launches");
    assert!(
        fused.gpu_busy <= base.gpu_busy,
        "fusion must not slow the GPU"
    );
}

#[test]
fn case6_llama_stall_analysis_finds_cast_stalls() {
    // Paper §6.7: constant-memory misses + math-dependency stalls in the
    // torch.to conversions inside LlamaRMSNorm. N/A speedup — the
    // deliverable is the finding.
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let config = ProfilerConfig {
        instruction_sampling: Some(SamplingConfig {
            period: TimeNs(500),
            max_samples_per_kernel: 1024,
        }),
        ..ProfilerConfig::deepcontext_native()
    };
    let profiler = Profiler::attach(config, bed.env(), &monitor, bed.gpu());
    bed.run_eager(&Llama3, &WorkloadOptions::default(), 2)
        .unwrap();
    let db = profiler.finish(ProfileMeta::default());

    assert!(
        db.cct()
            .total(MetricKind::Stall(StallReason::ConstantMemory))
            > 0.0
    );
    assert!(
        db.cct()
            .total(MetricKind::Stall(StallReason::MathDependency))
            > 0.0
    );

    let report = Analyzer::with_default_rules().analyze(&db);
    let stalls = report.by_rule("fine-grained-stall");
    assert!(!stalls.is_empty(), "stall analysis found nothing");
}

/// One eager U-Net iteration on `spec`, native call paths included.
fn unet_profile(spec: DeviceSpec) -> ProfileDb {
    let platform = spec.platform_tag();
    let bed = TestBed::new(spec);
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    monitor.attach_framework(bed.eager().core().callbacks());
    monitor.attach_gpu(bed.gpu());
    let profiler = Profiler::attach(
        ProfilerConfig::deepcontext_native(),
        bed.env(),
        &monitor,
        bed.gpu(),
    );
    bed.run_eager(&UNet, &WorkloadOptions::default(), 1)
        .unwrap();
    profiler.finish(ProfileMeta {
        platform,
        ..Default::default()
    })
}

#[test]
fn case7_amd_norm_share_exceeds_nvidia_norm_share() {
    // Paper §6.5 / Figure 10: on MI250 the instance_norm template becomes
    // the hotspot; on A100 conv2d stays on top.
    fn operator_share(spec: DeviceSpec, op_label: &str) -> f64 {
        let db = unet_profile(spec);
        let cct = db.cct();
        let interner = cct.interner();
        let total = cct.total(MetricKind::GpuTime);
        cct.nodes_of_kind(FrameKind::Operator)
            .into_iter()
            .filter(|n| {
                matches!(
                    cct.node(*n).frame(),
                    deepcontext::core::Frame::Operator {
                        phase: OpPhase::Forward,
                        ..
                    }
                ) && cct.node(*n).frame().short_label(&interner) == op_label
            })
            .map(|n| cct.node(n).metrics().sum(MetricKind::GpuTime))
            .sum::<f64>()
            / total
    }

    let nv_norm = operator_share(DeviceSpec::a100_sxm(), "aten::instance_norm");
    let nv_conv = operator_share(DeviceSpec::a100_sxm(), "aten::conv2d");
    let amd_norm = operator_share(DeviceSpec::mi250(), "aten::instance_norm");
    let amd_conv = operator_share(DeviceSpec::mi250(), "aten::conv2d");
    assert!(
        nv_conv > nv_norm,
        "A100 hotspot should be conv2d ({nv_conv:.2} vs {nv_norm:.2})"
    );
    assert!(
        amd_norm > amd_conv,
        "MI250 hotspot should be instance_norm ({amd_norm:.2} vs {amd_conv:.2})"
    );
}

#[test]
fn case7_unet_diff_pairs_every_context_across_vendors() {
    // The same comparison as a diff: every path below an operator runs
    // through `cuLaunchKernel` on A100 and `hipModuleLaunchKernel` on
    // MI250, and the diff still pairs each context with its namesake.
    let diff = ProfileDiff::compare(
        &unet_profile(DeviceSpec::a100_sxm()),
        &unet_profile(DeviceSpec::mi250()),
        MetricKind::GpuTime,
    );
    assert!(!diff.entries().is_empty());
    for e in diff.entries() {
        assert!(
            e.baseline > 0.0 && e.candidate > 0.0,
            "one-sided: {}",
            e.path
        );
    }
    assert!(diff.regressions().any(|e| {
        let (above, kernel) = e.path.rsplit_once(" > ").unwrap_or_default();
        kernel.starts_with("batch_norm_")
            && kernel.ends_with("_template")
            && above.contains("aten::instance_norm")
    }));
}

#[test]
fn case8_jit_needs_fewer_kernels_than_eager() {
    // Paper §6.6: the JAX version consistently requires fewer kernel
    // operations than its PyTorch counterpart.
    for name in ["dlrm-small", "unet", "gnn", "resnet"] {
        let workload = workload_by_name(name).unwrap();
        let bed = TestBed::new(DeviceSpec::a100_sxm());
        let eager = bed
            .run_eager(workload.as_ref(), &WorkloadOptions::default(), 1)
            .unwrap();
        let bed2 = TestBed::new(DeviceSpec::a100_sxm());
        let jit = bed2
            .run_jit(workload.as_ref(), &WorkloadOptions::default(), 1)
            .unwrap();
        assert!(
            jit.kernels < eager.kernels,
            "{name}: jit {} !< eager {}",
            jit.kernels,
            eager.kernels
        );
    }
}
