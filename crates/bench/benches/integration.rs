//! Cost of the pure call-path integration merge (paper §4.1, "Call Path
//! Integration") at varying stack depths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::cell::RefCell;
use std::time::Duration;

use deepcontext_core::{Frame, Interner, PathHandle, PathMemo};
use dlmonitor::{integrate_call_path, ShadowOp};
use sim_runtime::NativeFrameInfo;

const INTERP_PC: u64 = 0x1;

struct Input {
    python: PathHandle,
    operators: Vec<ShadowOp>,
    native: Vec<NativeFrameInfo>,
    /// The measuring thread's memo, warm after the first merge.
    memo: RefCell<PathMemo>,
}

fn input(py_depth: usize, native_depth: usize, interner: &Interner) -> Input {
    let python: Vec<Frame> = (0..py_depth)
        .map(|i| Frame::python("model.py", i as u32, "layer", interner))
        .collect();
    let python = interner.paths().intern(&python);
    let mut memo = PathMemo::default();
    let mut native = vec![NativeFrameInfo::new(
        "libpython3.11.so",
        INTERP_PC,
        "_PyEval_EvalFrameDefault",
    )];
    native.extend(
        (0..native_depth).map(|i| NativeFrameInfo::new("libtorch.so", 0x100 + i as u64, "impl")),
    );
    Input {
        python,
        operators: vec![ShadowOp::enter(
            Frame::operator("aten::conv2d", interner),
            1,
            python,
            &[],
            &mut memo,
            interner,
        )],
        native,
        memo: RefCell::new(memo),
    }
}

fn bench_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("integration");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let interner = Interner::new();
    for depth in [4usize, 16, 64] {
        let inp = input(depth, depth, &interner);
        group.bench_with_input(BenchmarkId::new("merge_depth", depth), &inp, |b, inp| {
            b.iter(|| {
                integrate_call_path(
                    inp.python,
                    &inp.operators,
                    &inp.native,
                    0,
                    |pc| pc == INTERP_PC,
                    &mut inp.memo.borrow_mut(),
                    &interner,
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_integration);
criterion_main!(benches);
