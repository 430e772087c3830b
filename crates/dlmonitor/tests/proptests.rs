//! Property tests for the call-path integration algorithm: for any
//! combination of Python stack, shadow operator stack and native stack,
//! the unified path preserves ordering, loses no operators, and respects
//! the libpython cutover.

use deepcontext_core::{Frame, FrameKind, Interner, LivePath, OpPhase, PathMemo};
use dlmonitor::{integrate_call_path, ShadowOp};
use proptest::prelude::*;
use sim_runtime::NativeFrameInfo;

const INTERP_PC: u64 = 0x1;

/// Source shapes; frames are interned per run against a fresh interner.
#[derive(Debug, Clone)]
struct Scenario {
    n_python: usize,
    n_operators: usize,
    n_native_tail: usize,
    has_interp: bool,
}

impl Scenario {
    fn integrate(&self, interner: &Interner) -> Vec<Frame> {
        let python: Vec<Frame> = (0..self.n_python)
            .map(|i| Frame::python("model.py", i as u32, "fn", interner))
            .collect();
        let mut native = Vec::new();
        if self.has_interp {
            native.push(NativeFrameInfo::new(
                "libpython3.11.so",
                INTERP_PC,
                "_PyEval_EvalFrameDefault",
            ));
        }
        let base = native.len();
        native.extend(
            (0..self.n_native_tail)
                .map(|i| NativeFrameInfo::new("libtorch.so", 0x100 + i as u64, "impl")),
        );
        // Operators anchored at increasing depths within the tail, all
        // entered under the scenario's Python path.
        let python = interner.paths().intern(&python);
        let mut memo = PathMemo::default();
        let mut operators: Vec<ShadowOp> = Vec::new();
        for i in 0..self.n_operators {
            let phase = if i % 2 == 0 {
                OpPhase::Forward
            } else {
                OpPhase::Backward
            };
            let op = ShadowOp::enter(
                Frame::operator_with(&format!("aten::op{i}"), phase, Some(i as u64), interner),
                base + (i * self.n_native_tail.max(1) / self.n_operators.max(1)),
                python,
                &operators,
                &mut memo,
                interner,
            );
            operators.push(op);
        }
        let path = integrate_call_path(
            python,
            &operators,
            &native,
            0,
            |pc| pc == INTERP_PC,
            &mut memo,
            interner,
        );
        LivePath::new(path, None).frames(interner)
    }
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        0usize..6,       // python frames
        0usize..4,       // operators
        0usize..8,       // native frames below the interpreter
        prop::bool::ANY, // whether an interpreter frame exists at all
    )
        .prop_map(
            |(n_python, n_operators, n_native_tail, has_interp)| Scenario {
                n_python,
                n_operators,
                n_native_tail,
                has_interp,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn integration_preserves_counts_and_order(scenario in arb_scenario()) {
        let interner = Interner::new();
        let path = scenario.integrate(&interner);
        let kinds: Vec<FrameKind> = path.iter().map(|f| f.kind()).collect();

        // Counts: every python frame, every operator, and every native
        // frame below the cutover appears exactly once.
        let n_py = kinds.iter().filter(|k| **k == FrameKind::Python).count();
        let n_op = kinds.iter().filter(|k| **k == FrameKind::Operator).count();
        let n_native = kinds.iter().filter(|k| **k == FrameKind::Native).count();
        prop_assert_eq!(n_py, scenario.n_python);
        prop_assert_eq!(n_op, scenario.n_operators);
        prop_assert!(n_native <= scenario.n_native_tail + 1);

        // Ordering: all Python frames come before any operator or native
        // frame (Python is always the outermost layer).
        if let Some(first_non_py) = kinds.iter().position(|k| *k != FrameKind::Python) {
            prop_assert!(kinds[first_non_py..].iter().all(|k| *k != FrameKind::Python));
        }

        // Operators retain shadow-stack order.
        let op_labels: Vec<String> = path
            .iter()
            .filter(|f| f.kind() == FrameKind::Operator)
            .map(|f| f.short_label(&interner))
            .collect();
        let mut sorted = op_labels.clone();
        sorted.sort_by_key(|l| {
            l.trim_start_matches("aten::op")
                .trim_end_matches("~bwd")
                .parse::<u64>()
                .unwrap_or(0)
        });
        prop_assert_eq!(op_labels, sorted);
    }

    #[test]
    fn interpreter_frames_never_survive_integration(scenario in arb_scenario()) {
        let interner = Interner::new();
        let path = scenario.integrate(&interner);
        // The libpython frame must be replaced by the Python source path.
        prop_assert!(path
            .iter()
            .all(|f| !f.label(&interner).contains("_PyEval_EvalFrameDefault")));
    }

    #[test]
    fn integration_is_deterministic(scenario in arb_scenario()) {
        let interner = Interner::new();
        let a = scenario.integrate(&interner);
        let b = scenario.integrate(&interner);
        prop_assert_eq!(a, b);
    }
}
