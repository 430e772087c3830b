//! The incremental Python snapshot against a walk built from scratch.
//!
//! A script of Python pushes, pops and `set_line`s draws from a small
//! `(file, line)` pool: frames are pushed again with fresh `Arc`s, and two
//! files meet at one line under one parent. After every step an operator
//! is entered and a kernel launched, with the call-path cache on or off,
//! and the launch's Python prefix must be the handle the path table gives
//! the thread's current stack interned frame by frame from the root.

use std::sync::Arc;

use deepcontext_core::{Frame, FrameKind, Interner, PathHandle, PathId, ThreadRole, TimeNs};
use dl_framework::{EagerEngine, FrameworkCore, Op, OpKind, TensorMeta};
use dlmonitor::{CallPathSources, DlEvent, DlMonitor, Domain};
use parking_lot::Mutex;
use proptest::prelude::*;
use sim_gpu::{ApiKind, DeviceId, DeviceSpec, GpuRuntime};
use sim_runtime::{PyFrameInfo, RuntimeEnv, ThreadRegistry};

const FILES: [&str; 2] = ["model.py", "layer.py"];
const LINES: [u32; 2] = [7, 8];

#[derive(Debug, Clone)]
enum Step {
    Push { file: usize, line: usize },
    Pop,
    SetLine(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..FILES.len(), 0..LINES.len()).prop_map(|(file, line)| Step::Push { file, line }),
        Just(Step::Pop),
        (0..LINES.len()).prop_map(Step::SetLine),
    ]
}

/// `path` cut to its first `depth` frames, and the kind of the frame
/// after them.
fn split(interner: &Interner, path: PathHandle, depth: usize) -> (PathId, Option<FrameKind>) {
    let entries = interner.paths().entries();
    let mut ids: Vec<PathId> = entries.leaf_to_root(path.id()).collect();
    ids.reverse();
    let prefix = depth.checked_sub(1).map_or(PathId::ROOT, |i| ids[i]);
    (prefix, ids.get(depth).map(|&id| entries.frame(id).kind()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_launch_starts_from_the_stack_interned_from_scratch(
        script in prop::collection::vec((arb_step(), prop::bool::ANY), 1..40),
    ) {
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
        let interner = monitor.interner();
        let main = env.threads().spawn(ThreadRole::Main);
        let _bind = ThreadRegistry::bind_current(&main);

        let launches = Arc::new(Mutex::new(Vec::new()));
        let (seen, m) = (Arc::clone(&launches), Arc::clone(&monitor));
        monitor.callback_register(Domain::Gpu, move |event| {
            let DlEvent::Gpu(gpu) = event else { return };
            if gpu.data.api == ApiKind::LaunchKernel {
                seen.lock().push(m.callpath_for_gpu(gpu).handle());
            }
        });

        let python = main.python();
        python.push(PyFrameInfo::new("train.py", 1, "main"));
        for (step, cache) in script {
            match step {
                Step::Push { file, line } => {
                    python.push(PyFrameInfo::new(FILES[file], LINES[line], "f"));
                }
                Step::Pop => {
                    python.pop();
                }
                Step::SetLine(line) => python.set_line(LINES[line]),
            }
            monitor.set_cache_enabled(cache);
            engine
                .op(Op::new(OpKind::Relu), &[TensorMeta::new([64])])
                .unwrap();

            let walk: Vec<Frame> = python
                .walk()
                .iter()
                .map(|f| Frame::python(&f.file, f.line, &f.function, &interner))
                .collect();
            let expected = interner.paths().intern(&walk);
            let launch = launches.lock().pop().expect("one launch per step");
            prop_assert_eq!(
                split(&interner, launch, walk.len()),
                (expected.id(), Some(FrameKind::Operator)),
                "{:?}",
                python.walk()
            );
        }
    }
}
