//! Reproduces the paper's Figure 1 / Figure 3 contrast: the same kernel
//! launch seen (a) as a bare native call path and (b) as DeepContext's
//! unified call path with Python, framework-operator, native, GPU-API and
//! kernel frames. Then (c) extends DLMonitor to a driver with no vendor
//! callbacks through a configuration file (§4.1's custom interception).
//!
//! ```text
//! cargo run --release --example callpath_integration
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use deepcontext::prelude::*;
use dl_framework::FrameworkCore;
use dlmonitor::CustomInterceptor;
use parking_lot::Mutex;
use sim_gpu::{ApiKind, CallbackSite};

fn collect_launch_path(
    monitor: &Arc<DlMonitor>,
    sources: CallPathSources,
    bed: &TestBed,
    core: &Arc<FrameworkCore>,
) -> CallPath {
    monitor.set_sources(sources);
    let paths = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&paths);
    let m = Arc::clone(monitor);
    let reg = monitor.callback_register(Domain::Gpu, move |event| {
        if let DlEvent::Gpu(gpu_event) = event {
            if gpu_event.data.api == ApiKind::LaunchKernel
                && gpu_event.data.site == CallbackSite::Enter
            {
                sink.lock().push(m.callpath_for_gpu(gpu_event));
            }
        }
    });

    let main = bed.main_thread();
    let _bind = ThreadRegistry::bind_current(main);
    {
        let _s1 = core.python().frame(main, "train.py", 12, "train_step");
        let _s2 = core.python().frame(main, "model.py", 87, "forward");
        let _s3 = core.python().frame(main, "conv_layer.py", 45, "__call__");
        bed.eager()
            .op(
                Op::new(OpKind::Conv2d).with_weight([64, 32, 3, 3]),
                &[TensorMeta::new([4, 32, 56, 56]).with_layout(Layout::ChannelsLast)],
            )
            .expect("conv");
    }
    monitor.callback_unregister(reg);
    let first = paths.lock()[0];
    first.to_call_path(&monitor.interner())
}

fn main() {
    let bed = TestBed::new(DeviceSpec::a100_sxm());
    let monitor = DlMonitor::init(bed.env(), Interner::new());
    let core = Arc::clone(bed.eager().core());
    monitor.attach_framework(core.callbacks());
    monitor.attach_gpu(bed.gpu());
    let interner = monitor.interner();

    println!("(a) hot call path WITHOUT framework context (native-only, Figure 3a):\n");
    let native_only = collect_launch_path(
        &monitor,
        CallPathSources {
            python: false,
            framework: false,
            native: true,
        },
        &bed,
        &core,
    );
    print!("{}", native_only.render(&interner));

    println!("\n(b) hot call path WITH DLMonitor's unified context (Figure 3b):\n");
    let unified = collect_launch_path(&monitor, CallPathSources::all(), &bed, &core);
    print!("{}", unified.render(&interner));

    println!("\nlayers in (a): {:?}", layer_set(&native_only));
    println!("layers in (b): {:?}", layer_set(&unified));

    custom_driver(&bed);
}

/// A driver DLMonitor has no callback API for: its functions are named
/// in a configuration file, armed when the library loads, and each call
/// to one reaches the registered callbacks.
fn custom_driver(bed: &TestBed) {
    let config = "# custom NPU driver\nlibnpu.so  npuLaunchKernel\nlibnpu.so  npuMemcpy\n";
    let interceptor = CustomInterceptor::parse(config).expect("config");
    interceptor.install(bed.env().libraries());
    bed.env().load_library("/opt/npu/libnpu.so", 0x1000);
    assert_eq!(
        interceptor.armed(),
        interceptor.hooks(),
        "load arms every hook"
    );

    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    interceptor.on_intercept(move |hook, thread| {
        println!(
            "  intercepted {}::{} on tid {}",
            hook.library,
            hook.function,
            thread.tid()
        );
        seen.fetch_add(1, Ordering::Relaxed);
    });
    println!("\n(c) custom driver interception (§4.1):\n");
    let intercepted = interceptor.driver_call("libnpu.so", "npuLaunchKernel", bed.main_thread());
    assert!(
        intercepted && calls.load(Ordering::Relaxed) == 1,
        "driver call not intercepted"
    );
}

fn layer_set(path: &CallPath) -> Vec<FrameKind> {
    let mut kinds: Vec<FrameKind> = path.frames().iter().map(|f| f.kind()).collect();
    kinds.dedup();
    kinds
}
