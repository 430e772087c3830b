//! The Table 1 capability matrix.
//!
//! "Comparison of DeepContext (our tool) with existing profiling tools."

/// Capabilities a profiling tool may have (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfilerFeatures {
    /// Tool name.
    pub name: &'static str,
    /// Captures Python call context.
    pub python_context: bool,
    /// Captures framework (operator) context.
    pub framework_context: bool,
    /// Captures C++ native context.
    pub cpp_context: bool,
    /// Captures device (GPU kernel/instruction) context.
    pub device_context: bool,
    /// Works across GPU vendors.
    pub cross_gpus: bool,
    /// Works across frameworks.
    pub cross_frameworks: bool,
    /// Profiles CPU activity.
    pub cpu_profiling: bool,
}

/// The paper's Table 1 rows.
pub fn table1() -> Vec<ProfilerFeatures> {
    vec![
        ProfilerFeatures {
            name: "Nsight Systems",
            python_context: true,
            framework_context: false,
            cpp_context: true,
            device_context: false,
            cross_gpus: false,
            cross_frameworks: true,
            cpu_profiling: true,
        },
        ProfilerFeatures {
            name: "RocTracer",
            python_context: false,
            framework_context: false,
            cpp_context: false,
            device_context: false,
            cross_gpus: false,
            cross_frameworks: false,
            cpu_profiling: false,
        },
        ProfilerFeatures {
            name: "JAX profiler",
            python_context: true,
            framework_context: false,
            cpp_context: false,
            device_context: false,
            cross_gpus: true,
            cross_frameworks: false,
            cpu_profiling: true,
        },
        ProfilerFeatures {
            name: "PyTorch profiler",
            python_context: true,
            framework_context: true,
            cpp_context: false,
            device_context: false,
            cross_gpus: true,
            cross_frameworks: false,
            cpu_profiling: true,
        },
        ProfilerFeatures {
            name: "DeepContext",
            python_context: true,
            framework_context: true,
            cpp_context: true,
            device_context: true,
            cross_gpus: true,
            cross_frameworks: true,
            cpu_profiling: true,
        },
    ]
}

/// Renders the matrix as an aligned text table (the Table 1
/// regeneration target).
pub fn render_table1() -> String {
    let rows = table1();
    let headers = [
        "Profiling Tool",
        "Python",
        "Framework",
        "C++",
        "Device",
        "Cross GPUs",
        "Cross Frameworks",
        "CPU Profiling",
    ];
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18}{:<8}{:<11}{:<6}{:<8}{:<12}{:<18}{:<14}\n",
        headers[0],
        headers[1],
        headers[2],
        headers[3],
        headers[4],
        headers[5],
        headers[6],
        headers[7]
    ));
    let mark = |b: bool| if b { "yes" } else { "-" };
    for r in rows {
        out.push_str(&format!(
            "{:<18}{:<8}{:<11}{:<6}{:<8}{:<12}{:<18}{:<14}\n",
            r.name,
            mark(r.python_context),
            mark(r.framework_context),
            mark(r.cpp_context),
            mark(r.device_context),
            mark(r.cross_gpus),
            mark(r.cross_frameworks),
            mark(r.cpu_profiling),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of supported capabilities.
    fn score(f: &ProfilerFeatures) -> usize {
        [
            f.python_context,
            f.framework_context,
            f.cpp_context,
            f.device_context,
            f.cross_gpus,
            f.cross_frameworks,
            f.cpu_profiling,
        ]
        .into_iter()
        .filter(|b| *b)
        .count()
    }

    #[test]
    fn deepcontext_supports_everything() {
        let rows = table1();
        let dc = rows.iter().find(|r| r.name == "DeepContext").unwrap();
        assert_eq!(score(dc), 7);
        // And strictly dominates every other tool.
        for other in rows.iter().filter(|r| r.name != "DeepContext") {
            assert!(score(other) < score(dc), "{}", other.name);
        }
    }

    #[test]
    fn paper_values_spot_checks() {
        let rows = table1();
        let nsight = rows.iter().find(|r| r.name == "Nsight Systems").unwrap();
        assert!(nsight.python_context && nsight.cpp_context);
        assert!(!nsight.framework_context && !nsight.device_context && !nsight.cross_gpus);
        let torch = rows.iter().find(|r| r.name == "PyTorch profiler").unwrap();
        assert!(torch.framework_context && !torch.cpp_context && !torch.cross_frameworks);
    }

    #[test]
    fn table_renders_all_rows() {
        let text = render_table1();
        for name in [
            "Nsight Systems",
            "RocTracer",
            "JAX profiler",
            "PyTorch profiler",
            "DeepContext",
        ] {
            assert!(text.contains(name));
        }
        assert_eq!(text.lines().count(), 6);
    }
}
