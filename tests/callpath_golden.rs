//! Golden equivalence of DLMonitor's unified call paths.
//!
//! For every paper workload × {eager: cache on/off × native on/off; JIT:
//! native on/off} at 3 iterations, every call path built at the launch-API
//! enter sites the profiler filters on is rendered and folded into one
//! FNV-1a hash together with the monitor's three activity counters. The 60
//! constants below were generated at commit `08d4bff` (the string-snapshot
//! monitor); a rewrite of the call-path hot path must leave all of them
//! unchanged.

use std::sync::Arc;

use deepcontext_core::Interner;
use dl_models::{all_workloads, TestBed, WorkloadOptions};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain};
use parking_lot::Mutex;
use sim_gpu::{ApiKind, CallbackSite, DeviceSpec};

const ITERATIONS: u32 = 3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[derive(Clone, Copy)]
struct Config {
    jit: bool,
    cache: bool,
    native: bool,
}

/// Eager: cache on/off × native on/off; JIT: native on/off.
const CONFIGS: [Config; 6] = [
    Config {
        jit: false,
        cache: true,
        native: false,
    },
    Config {
        jit: false,
        cache: true,
        native: true,
    },
    Config {
        jit: false,
        cache: false,
        native: false,
    },
    Config {
        jit: false,
        cache: false,
        native: true,
    },
    Config {
        jit: true,
        cache: true,
        native: false,
    },
    Config {
        jit: true,
        cache: true,
        native: true,
    },
];

fn run(workload: &dyn dl_models::Workload, config: Config) -> u64 {
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    let callbacks = if config.jit {
        bed.jit().core().callbacks()
    } else {
        bed.eager().core().callbacks()
    };
    monitor.attach_framework(callbacks);
    monitor.attach_gpu(bed.gpu());
    monitor.set_sources(if config.native {
        CallPathSources::all()
    } else {
        CallPathSources::without_native()
    });
    monitor.set_cache_enabled(config.cache);

    let hash = Arc::new(Mutex::new(Fnv::new()));
    let (h, mon) = (Arc::clone(&hash), Arc::clone(&monitor));
    monitor.callback_register(Domain::Gpu, move |event| {
        let DlEvent::Gpu(gpu) = event else { return };
        if gpu.data.site != CallbackSite::Enter
            || !matches!(
                gpu.data.api,
                ApiKind::LaunchKernel | ApiKind::MemcpyAsync | ApiKind::MemAlloc
            )
        {
            return;
        }
        let rendered = mon.callpath_for_gpu(gpu).render(&mon.interner());
        let mut h = h.lock();
        h.bytes(rendered.as_bytes());
        h.bytes(b"\n");
    });

    let opts = WorkloadOptions::default();
    if config.jit {
        bed.run_jit(workload, &opts, ITERATIONS)
    } else {
        bed.run_eager(workload, &opts, ITERATIONS)
    }
    .expect("paper workloads run");

    let stats = monitor.stats();
    monitor.finalize();
    let mut h = hash.lock();
    h.u64(stats.callpaths_built);
    h.u64(stats.cache_hits);
    h.u64(stats.assoc_hits);
    h.0
}

/// `[workload][config]`, workloads in `all_workloads()` order, configs in
/// `CONFIGS` order.
#[rustfmt::skip]
const GOLDEN: [[u64; 6]; 10] = [
    // conformer
    [0x9ebb13287ef9f3dd, 0x4a469aef0b28f45d, 0x46217d3dd0e13242, 0xf1ad05045d1032c2, 0x984e07e995922790, 0x984e07e995922790],
    // dlrm-small
    [0x52a41f0a68ff8448, 0xa9bf2d5b35bee70e, 0xba2184f1e3e059eb, 0x56395818d9bf3b2d, 0x5e036369e5e3e96b, 0x5e036369e5e3e96b],
    // unet
    [0x0fccf8b93e9d6070, 0x5fac3f425c004d36, 0x6c5b099ff2d7051d, 0xf723155aa5ec0267, 0xc0c39077adb29fe1, 0xc0c39077adb29fe1],
    // gnn
    [0xa0d8dc611b578054, 0x9e3c943dc80770cd, 0xa8d178f425e027fb, 0x99b69c96f5420762, 0x1ce2b5fd71cbaf15, 0x1ce2b5fd71cbaf15],
    // resnet
    [0x707c4d82df63270e, 0xd618d1c2301082ed, 0xf5d94222ff50dd8b, 0xd4ffb820ab64cbf0, 0x013d27fcbf96543f, 0x013d27fcbf96543f],
    // vit
    [0x8d1efab19aa56c5c, 0x6ced1c66eb72825c, 0x83cc13750e318ee5, 0x639a352a5efea4e5, 0x0dcb3ae2c35fabd9, 0x0dcb3ae2c35fabd9],
    // transformer-big
    [0x4ccd0525cd272565, 0xf7855f704a348cb7, 0x55a614b6097802c4, 0xd92b4d00d5de6cb2, 0x3ac036ea82627899, 0x3ac036ea82627899],
    // llama3-8b
    [0x8ee7b05b96e3fd0c, 0x4dbbae41999b72a0, 0x9ca67939b203bba7, 0xc257afcc2dbadd3b, 0xb3795484217964ba, 0xb3795484217964ba],
    // gemma-7b
    [0x233ad69c6497aef8, 0x15b8f6d10a3df59c, 0x4633ebf3461e00aa, 0x2083cd08914547fe, 0x5bc6ee03f694bf34, 0x5bc6ee03f694bf34],
    // nanogpt
    [0xcd84ec0166a3a59e, 0xb0027f884f3af78e, 0x91e88899aae9e117, 0x74661c2093813307, 0x04eb4ea0944928af, 0x04eb4ea0944928af],
];

#[test]
fn call_paths_match_the_parent_commit_on_all_sixty_configurations() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), GOLDEN.len());
    let actual: Vec<[u64; 6]> = workloads
        .iter()
        .map(|w| CONFIGS.map(|config| run(w.as_ref(), config)))
        .collect();
    if actual != GOLDEN {
        let table: String = workloads
            .iter()
            .zip(&actual)
            .map(|(w, row)| {
                let cells: Vec<String> = row.iter().map(|v| format!("{v:#018x}")).collect();
                format!("    // {}\n    [{}],\n", w.name(), cells.join(", "))
            })
            .collect();
        panic!("call-path hashes differ from the committed golden table; actual:\n{table}");
    }
}
