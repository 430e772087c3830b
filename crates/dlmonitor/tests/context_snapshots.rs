//! Behaviour of the interned, version-keyed context snapshots: staleness,
//! thread isolation, callback re-entrancy, teardown, and the association
//! table's visible size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use deepcontext_core::{CallPath, FrameKind, Interner, OpPhase, ThreadRole, TimeNs};
use dl_framework::{
    CallbackRegistry, EagerEngine, FrameworkCore, Op, OpEvent, OpKind, Site, TensorMeta,
};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain, GpuCallbackEvent};
use parking_lot::Mutex;
use sim_gpu::{
    ApiKind, CallbackData, CallbackSite, CorrelationId, DeviceId, DeviceSpec, GpuRuntime,
    KernelDesc, LaunchConfig, Vendor,
};
use sim_runtime::{
    NativeFrameGuard, NativeFrameInfo, PyFrameGuard, PyFrameInfo, RuntimeEnv, ThreadCtx,
    ThreadRegistry,
};

struct Rig {
    env: RuntimeEnv,
    core: Arc<FrameworkCore>,
    engine: Arc<EagerEngine>,
    monitor: Arc<DlMonitor>,
}

fn rig() -> Rig {
    let env = RuntimeEnv::new();
    let gpu = GpuRuntime::new(env.clock().clone(), vec![DeviceSpec::a100_sxm()]);
    let core = FrameworkCore::new(
        env.clone(),
        Arc::clone(&gpu),
        DeviceId(0),
        "/lib/libtorch_cpu.so",
        "libtorch_cuda.so",
        TimeNs(3_000),
    );
    let engine = EagerEngine::new(Arc::clone(&core));
    let monitor = DlMonitor::init(&env, Interner::new());
    monitor.attach_framework(core.callbacks());
    monitor.attach_gpu(&gpu);
    monitor.set_sources(CallPathSources::without_native());
    Rig {
        env,
        core,
        engine,
        monitor,
    }
}

/// Collects the call path of every kernel launch.
fn launch_paths(rig: &Rig) -> Arc<Mutex<Vec<CallPath>>> {
    let paths = Arc::new(Mutex::new(Vec::new()));
    let (p, monitor) = (Arc::clone(&paths), Arc::clone(&rig.monitor));
    rig.monitor.callback_register(Domain::Gpu, move |event| {
        let DlEvent::Gpu(gpu) = event else { return };
        if gpu.data.api == ApiKind::LaunchKernel && gpu.data.site == CallbackSite::Enter {
            let path = monitor.callpath_for_gpu(gpu);
            p.lock().push(path.to_call_path(&monitor.interner()));
        }
    });
    paths
}

fn relu(rig: &Rig) {
    rig.engine
        .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
        .unwrap();
}

fn labels(path: &CallPath, interner: &Interner) -> Vec<String> {
    path.frames()
        .iter()
        .map(|f| f.short_label(interner))
        .collect()
}

fn op_event(
    name: &str,
    phase: OpPhase,
    seq_id: u64,
    site: Site,
    thread: &Arc<ThreadCtx>,
) -> OpEvent {
    OpEvent {
        name: Arc::from(name),
        phase,
        seq_id: Some(seq_id),
        site,
        thread: Arc::clone(thread),
        inputs: Vec::new(),
    }
}

#[test]
fn enabling_the_cache_mid_operator_keeps_the_python_context() {
    let rig = rig();
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    let paths = launch_paths(&rig);
    let _scope = rig.core.python().frame(&main, "train.py", 12, "main");

    // Off at Enter, switched on between Enter and the launch.
    rig.monitor.set_cache_enabled(false);
    let monitor = Arc::clone(&rig.monitor);
    let toggle = rig
        .monitor
        .callback_register(Domain::Framework, move |event| {
            if matches!(event, DlEvent::Op(op) if op.site == Site::Enter) {
                monitor.set_cache_enabled(true);
            }
        });
    relu(&rig);
    rig.monitor.callback_unregister(toggle);

    // The untoggled reference: the cache on throughout.
    relu(&rig);

    let paths = paths.lock();
    assert_eq!(paths[0], paths[1]);
    assert_eq!(paths[0].frames()[0].kind(), FrameKind::Python);
}

#[test]
fn every_python_stack_mutation_between_operators_changes_the_next_path() {
    let rig = rig();
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    let paths = launch_paths(&rig);
    let interner = rig.monitor.interner();
    let _scope = rig.core.python().frame(&main, "train.py", 12, "main");

    relu(&rig);
    main.python().set_line(13);
    relu(&rig);
    {
        let _inner = rig.core.python().frame(&main, "model.py", 7, "forward");
        relu(&rig);
    }
    relu(&rig);
    // Same version as the previous operator: the same path again.
    relu(&rig);

    let paths = paths.lock();
    let python: Vec<Vec<String>> = paths
        .iter()
        .map(|p| {
            let mut l = labels(p, &interner);
            l.truncate(l.iter().position(|s| s == "aten::relu").unwrap());
            l
        })
        .collect();
    assert_eq!(
        python,
        vec![
            vec!["train.py:12"],
            vec!["train.py:13"],
            vec!["train.py:13", "model.py:7"],
            vec!["train.py:13"],
            vec!["train.py:13"],
        ]
    );
    assert_eq!(rig.monitor.stats().cache_hits, 5);
}

#[test]
fn concurrent_forward_and_backward_threads_keep_their_own_shadow_stacks() {
    const ROUNDS: u64 = 200;
    let rig = rig();
    let registry = Arc::clone(rig.core.callbacks());
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let backward = rig.env.threads().spawn(ThreadRole::Backward);
    let interner = rig.monitor.interner();

    // Forward context for every sequence id the backward thread will use.
    {
        let _scope = rig.core.python().frame(&main, "train.py", 12, "train_step");
        for seq in 0..ROUNDS {
            registry.fire_op(&op_event(
                "aten::index",
                OpPhase::Forward,
                seq,
                Site::Enter,
                &main,
            ));
            registry.fire_op(&op_event(
                "aten::index",
                OpPhase::Forward,
                seq,
                Site::Exit,
                &main,
            ));
        }
    }

    // Each round both threads enter their operator, meet, build their
    // path while the other thread's operator is still open, meet again,
    // and exit. Nothing is asserted between the barriers: a panicking
    // thread would strand its peer there.
    let barrier = Barrier::new(2);
    let run = |thread: &Arc<ThreadCtx>, name: &str, phase: OpPhase, first_seq: u64| {
        let mut paths = Vec::new();
        for round in 0..ROUNDS {
            let seq = first_seq + round;
            registry.fire_op(&op_event(name, phase, seq, Site::Enter, thread));
            barrier.wait();
            let depth = rig.monitor.shadow_depth(thread.tid());
            let path = rig.monitor.callpath_get(thread).to_call_path(&interner);
            paths.push((depth, labels(&path, &interner)));
            barrier.wait();
            registry.fire_op(&op_event(name, phase, seq, Site::Exit, thread));
        }
        paths
    };
    let (fwd, bwd) = std::thread::scope(|s| {
        let fwd = s.spawn(|| {
            let _scope = rig.core.python().frame(&main, "eval.py", 3, "validate");
            run(&main, "aten::relu", OpPhase::Forward, ROUNDS)
        });
        let bwd = s.spawn(|| run(&backward, "aten::index", OpPhase::Backward, 0));
        (fwd.join().unwrap(), bwd.join().unwrap())
    });

    for (depth, path) in fwd {
        assert_eq!(depth, 1);
        assert_eq!(path, vec!["eval.py:3", "aten::relu"]);
    }
    for (depth, path) in bwd {
        assert_eq!(depth, 1);
        // Opens with the forward context, then only its own operator.
        assert_eq!(path, vec!["train.py:12", "aten::index", "aten::index~bwd"]);
    }
    assert_eq!(rig.monitor.stats().assoc_hits, ROUNDS);
}

#[test]
fn callbacks_may_register_and_unregister_others_while_an_event_is_delivered() {
    let rig = rig();
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    let counts: Arc<[AtomicUsize; 3]> = Arc::default();
    let count = |slot: usize| {
        let counts = Arc::clone(&counts);
        move |_: &DlEvent| {
            counts[slot].fetch_add(1, Ordering::SeqCst);
        }
    };

    let doomed = rig.monitor.callback_register(Domain::Framework, count(0));
    let (monitor, counts_a, late) = (Arc::clone(&rig.monitor), Arc::clone(&counts), count(2));
    let late = Mutex::new(Some(late));
    rig.monitor.callback_register(Domain::Framework, move |_| {
        counts_a[1].fetch_add(1, Ordering::SeqCst);
        if let Some(late) = late.lock().take() {
            monitor.callback_unregister(doomed);
            monitor.callback_register(Domain::Framework, late);
        }
    });

    // One Framework event per allocation.
    let meta = TensorMeta::new([256]);
    for _ in 0..3 {
        rig.engine.alloc_tensor(&meta).unwrap();
    }

    let seen: Vec<usize> = counts.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    // The unregistered callback still sees the event in flight, once; the
    // one registered mid-delivery sees every later event, once each.
    assert_eq!(seen, vec![1, 3, 2]);
}

#[test]
fn finalize_clears_per_thread_state_and_ignores_later_events() {
    let rig = rig();
    let registry = Arc::clone(rig.core.callbacks());
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let enter = op_event("aten::relu", OpPhase::Forward, 1, Site::Enter, &main);

    registry.fire_op(&enter);
    assert_eq!(rig.monitor.shadow_depth(main.tid()), 1);
    assert_eq!(rig.monitor.stats().assoc_live, 1);

    rig.monitor.finalize();
    assert_eq!(rig.monitor.shadow_depth(main.tid()), 0);
    assert_eq!(rig.monitor.stats().assoc_live, 0);

    // Re-attaching a finalized monitor does not revive it.
    rig.monitor.attach_framework(&registry);
    registry.fire_op(&enter);
    assert_eq!(rig.monitor.shadow_depth(main.tid()), 0);
    assert_eq!(rig.monitor.stats().assoc_live, 0);
    assert!(rig.monitor.callpath_get(&main).is_empty());
}

#[test]
fn assoc_live_counts_every_taped_forward_operator() {
    let rig = rig();
    let main = rig.env.threads().spawn(ThreadRole::Main);
    let _bind = ThreadRegistry::bind_current(&main);
    let taped = Arc::new(AtomicUsize::new(0));
    let t = Arc::clone(&taped);
    rig.monitor
        .callback_register(Domain::Framework, move |event| {
            if let DlEvent::Op(op) = event {
                if op.site == Site::Enter && op.phase == OpPhase::Forward && op.seq_id.is_some() {
                    t.fetch_add(1, Ordering::SeqCst);
                }
            }
        });

    let _paths = launch_paths(&rig);

    relu(&rig); // not taped: no record
    assert_eq!(rig.monitor.stats().assoc_live, 0);

    rig.engine.set_grad_enabled(true);
    for iteration in 1..=4u64 {
        for _ in 0..5 {
            relu(&rig);
        }
        // The tape being recorded, and the one the last pass walked.
        let live = rig.monitor.stats().assoc_live;
        assert_eq!(live, if iteration == 1 { 5 } else { 10 });
        // Backward operators reuse their forward op's id: nothing is
        // added, and the first retires the tapes walked before this one.
        rig.engine.backward().unwrap();
        assert_eq!(rig.monitor.stats().assoc_live, 5);
        // Every backward launch still found its forward context.
        assert_eq!(rig.monitor.stats().assoc_hits, 5 * iteration);
    }
    assert_eq!(taped.load(Ordering::SeqCst), 20);

    rig.monitor.clear_associations();
    assert_eq!(rig.monitor.stats().assoc_live, 0);
}

#[test]
fn a_libpython_loaded_after_a_path_was_built_cuts_the_next_one_over() {
    // The monitor learns where libpython is at `init` and from the load
    // callback after it: a "not Python" answer for a PC must not outlive
    // the load that makes it Python — whether the frames are integrated
    // afresh (no operator) or remembered (under one).
    for operator in [None, Some("aten::relu")] {
        let env = RuntimeEnv::new();
        let registry = CallbackRegistry::new();
        let monitor = DlMonitor::init(&env, Interner::new());
        monitor.attach_framework(&registry);
        let interner = monitor.interner();
        let main = env.threads().spawn(ThreadRole::Main);
        let _py = PyFrameGuard::enter(main.python(), PyFrameInfo::new("train.py", 3, "main"));
        if let Some(name) = operator {
            registry.fire_op(&op_event(name, OpPhase::Forward, 1, Site::Enter, &main));
        }
        let _native: Vec<NativeFrameGuard> = [
            ("/usr/lib/libpython3.12.so", 0x7000_0100, "_PyEval_Eval"),
            ("/lib/libtorch_cpu.so", 0x9000_0040, "at::native::relu"),
        ]
        .into_iter()
        .map(|(lib, pc, symbol)| {
            NativeFrameGuard::enter(main.native(), NativeFrameInfo::new(lib, pc, symbol))
        })
        .collect();
        let path = || {
            labels(
                &monitor.callpath_get(&main).to_call_path(&interner),
                &interner,
            )
        };
        let expect = |native: &[&str]| -> Vec<String> {
            let frames = ["train.py:3"]
                .into_iter()
                .chain(operator)
                .chain(native.iter().copied());
            frames.map(str::to_owned).collect()
        };

        // Nothing is mapped at the eval frame's PC yet: the native path
        // is kept whole.
        assert_eq!(path(), expect(&["_PyEval_Eval", "at::native::relu"]));
        env.libraries()
            .register("/lib/libtorch_cpu.so", 0x9000_0000, 0x1000);
        assert_eq!(path(), expect(&["_PyEval_Eval", "at::native::relu"]));

        env.libraries()
            .register("/usr/lib/libpython3.12.so", 0x7000_0000, 0x1000);
        assert_eq!(path(), expect(&["at::native::relu"]));
    }
}

/// A monitor on a bare registry, every source on, and a thread.
fn native_rig() -> (Arc<CallbackRegistry>, Arc<DlMonitor>, Arc<ThreadCtx>) {
    let env = RuntimeEnv::new();
    let registry = CallbackRegistry::new();
    let monitor = DlMonitor::init(&env, Interner::new());
    monitor.attach_framework(&registry);
    let main = env.threads().spawn(ThreadRole::Main);
    (registry, monitor, main)
}

fn enter_native(thread: &ThreadCtx, frames: &[(&str, u64)]) -> Vec<NativeFrameGuard> {
    let enter = |&(symbol, pc): &(&str, u64)| {
        let frame = NativeFrameInfo::new("/lib/libtorch_cpu.so", pc, symbol);
        NativeFrameGuard::enter(thread.native(), frame)
    };
    frames.iter().map(enter).collect()
}

#[test]
fn native_tails_sharing_an_operator_a_leaf_and_a_length_keep_their_own_contexts() {
    let (registry, monitor, main) = native_rig();
    let interner = monitor.interner();
    let enter = op_event("aten::conv2d", OpPhase::Forward, 1, Site::Enter, &main);
    registry.fire_op(&enter);
    let under = |middle: (&str, u64)| {
        let _frames = enter_native(&main, &[middle, ("cudaLaunchKernel", 0x30)]);
        monitor.callpath_get(&main)
    };

    let (v8, v7) = (under(("cudnn::v8", 0x10)), under(("cudnn::v7", 0x20)));
    assert_ne!(v8, v7);
    assert_eq!(
        labels(&v7.to_call_path(&interner), &interner),
        vec!["aten::conv2d", "cudnn::v7", "cudaLaunchKernel"]
    );
    let contexts = interner.paths().len();
    for _ in 0..3 {
        assert_eq!(under(("cudnn::v8", 0x10)), v8);
        assert_eq!(under(("cudnn::v7", 0x20)), v7);
    }
    assert_eq!(interner.paths().len(), contexts);
}

#[test]
fn a_remembered_native_tail_is_not_reused_when_operators_interleave_with_it() {
    // The same operators over the same three frames twice, but the first
    // time the outer operator was entered deeper in the native stack than
    // the inner one, so it belongs between the frames.
    let (registry, monitor, main) = native_rig();
    let interner = monitor.interner();
    let op = |name: &str, site| op_event(name, OpPhase::Forward, 1, site, &main);
    let tail = [("x", 0x10), ("y", 0x20), ("z", 0x30)];
    let path = || {
        labels(
            &monitor.callpath_get(&main).to_call_path(&interner),
            &interner,
        )
    };

    let deep = enter_native(&main, &[("a", 0x1), ("b", 0x2), ("c", 0x3)]);
    registry.fire_op(&op("aten::linear", Site::Enter));
    drop(deep);
    let _shallow = enter_native(&main, &[("a", 0x1)]);
    registry.fire_op(&op("aten::matmul", Site::Enter));
    let frames = enter_native(&main, &tail);
    let interleaved = vec!["x", "y", "aten::linear", "aten::matmul", "z"];
    assert_eq!(path(), interleaved);
    drop(frames);
    registry.fire_op(&op("aten::matmul", Site::Exit));
    registry.fire_op(&op("aten::linear", Site::Exit));

    registry.fire_op(&op("aten::linear", Site::Enter));
    registry.fire_op(&op("aten::matmul", Site::Enter));
    let _frames = enter_native(&main, &tail);
    let nested = vec!["aten::linear", "aten::matmul", "x", "y", "z"];
    assert_eq!(path(), nested);
    assert_eq!(path(), nested);
}

#[test]
fn kernels_sharing_an_entry_pc_across_modules_keep_their_own_frames() {
    // Entry PCs are unique per module only: the eager and JIT kernel
    // registries both start at 0x1000.
    let rig = rig();
    let interner = rig.monitor.interner();
    let launch = |name: &str, module: &str| {
        let data = CallbackData {
            site: CallbackSite::Enter,
            api: ApiKind::LaunchKernel,
            correlation_id: CorrelationId(1),
            device: DeviceId(0),
            stream: None,
            kernel: Some(Arc::new(KernelDesc::new(
                name,
                module,
                0x1000,
                LaunchConfig::new(1, 32),
            ))),
            bytes: None,
            timestamp: TimeNs(0),
        };
        let event = GpuCallbackEvent {
            data: &data,
            vendor: Vendor::Nvidia,
            thread: None,
        };
        rig.monitor
            .callpath_for_gpu(&event)
            .to_call_path(&interner)
            .leaf()
            .expect("API and kernel frames")
            .label(&interner)
    };
    let torch = launch("sgemm", "libtorch_cuda.so");
    let xla = launch("fusion_0", "libxla.so");
    assert_ne!(torch, xla);
    for _ in 0..3 {
        assert_eq!(launch("sgemm", "libtorch_cuda.so"), torch);
        assert_eq!(launch("fusion_0", "libxla.so"), xla);
    }
}
