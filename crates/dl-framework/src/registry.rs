//! Kernel name → entry-address registry.
//!
//! Real GPU kernels live at fixed addresses in loaded modules; profilers
//! collapse kernel frames on (module, entry PC). The registry assigns each
//! distinct kernel name a stable simulated entry address within its
//! module.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use sim_gpu::{KernelDesc, LaunchConfig};

/// Allocates and remembers kernel entry addresses for one module.
#[derive(Debug)]
pub struct KernelRegistry {
    module: Arc<str>,
    next_pc: AtomicU64,
    map: Mutex<HashMap<String, u64>>,
}

impl KernelRegistry {
    /// Creates a registry for `module` (e.g. `libtorch_cuda.so`).
    pub fn new(module: &str) -> Self {
        KernelRegistry {
            module: Arc::from(module),
            next_pc: AtomicU64::new(0x1000),
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The entry PC for `name`, allocating one on first use.
    pub fn entry_pc(&self, name: &str) -> u64 {
        let mut map = self.map.lock();
        if let Some(&pc) = map.get(name) {
            return pc;
        }
        let pc = self.next_pc.fetch_add(0x1000, Ordering::SeqCst);
        map.insert(name.to_owned(), pc);
        pc
    }

    /// Builds a kernel descriptor bound to this module.
    pub fn kernel(&self, name: &str, config: LaunchConfig) -> KernelDesc {
        KernelDesc::new(name, &self.module, self.entry_pc(name), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_pcs_are_stable_and_distinct() {
        let reg = KernelRegistry::new("libtorch_cuda.so");
        let a1 = reg.entry_pc("sgemm");
        let b = reg.entry_pc("hgemm");
        let a2 = reg.entry_pc("sgemm");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(reg.map.lock().len(), 2);
    }

    #[test]
    fn kernel_builder_binds_module_and_pc() {
        let reg = KernelRegistry::new("libxla.so");
        let k = reg.kernel("fusion_0", LaunchConfig::new(8, 128));
        assert_eq!(k.module.as_ref(), "libxla.so");
        assert_eq!(k.entry_pc, reg.entry_pc("fusion_0"));
    }
}
