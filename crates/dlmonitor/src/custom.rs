//! Custom driver interception.
//!
//! "To extend DLMonitor for hardware that does not have a vendor-provided
//! callback mechanism, users can define the function signature of the
//! driver function ... in a configuration file. DLMonitor will register
//! custom callbacks using LD_AUDIT for all functions recorded in the
//! configuration file" (paper §4.1).
//!
//! The configuration format is one hook per line:
//!
//! ```text
//! # comments and blank lines ignored
//! libmydriver.so  myLaunchKernel
//! libmydriver.so  myMemcpy
//! ```

use std::sync::Arc;

use deepcontext_core::Subscribers;
use parking_lot::Mutex;

use sim_runtime::{LibraryMap, ThreadCtx};

/// One configured interception point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomHook {
    /// Library basename the function lives in.
    pub library: String,
    /// Driver function name to intercept.
    pub function: String,
}

type HookCallback = Arc<dyn Fn(&CustomHook, &Arc<ThreadCtx>) + Send + Sync>;

/// Parses hook configurations and dispatches interceptions for libraries
/// observed by the `LD_AUDIT`-style library map.
pub struct CustomInterceptor {
    hooks: Vec<CustomHook>,
    armed: Arc<Mutex<Vec<CustomHook>>>,
    callbacks: Subscribers<HookCallback>,
}

impl CustomInterceptor {
    /// Parses a configuration file's text.
    ///
    /// # Errors
    ///
    /// Returns a message for lines that are neither comments nor
    /// `library function` pairs.
    pub fn parse(config: &str) -> Result<Self, String> {
        let mut hooks = Vec::new();
        for (lineno, line) in config.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let library = parts
                .next()
                .ok_or_else(|| format!("line {}: missing library", lineno + 1))?;
            let function = parts
                .next()
                .ok_or_else(|| format!("line {}: missing function", lineno + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing tokens", lineno + 1));
            }
            hooks.push(CustomHook {
                library: library.to_owned(),
                function: function.to_owned(),
            });
        }
        Ok(CustomInterceptor {
            hooks,
            armed: Arc::new(Mutex::new(Vec::new())),
            callbacks: Subscribers::default(),
        })
    }

    /// The configured hooks.
    pub fn hooks(&self) -> &[CustomHook] {
        &self.hooks
    }

    /// Installs the interceptor on a library map: hooks become *armed*
    /// when their library is observed loading (the `la_objopen` moment).
    pub fn install(&self, libraries: &LibraryMap) {
        // Arm for libraries already loaded.
        for lib in libraries.snapshot() {
            arm(&self.hooks, &self.armed, lib.basename());
        }
        let (hooks, armed) = (self.hooks.clone(), Arc::clone(&self.armed));
        libraries.on_load(move |info| arm(&hooks, &armed, info.basename()));
    }

    /// Hooks currently armed (their libraries are loaded).
    pub fn armed(&self) -> Vec<CustomHook> {
        self.armed.lock().clone()
    }

    /// Registers a callback fired when an armed driver function executes.
    pub fn on_intercept(&self, cb: impl Fn(&CustomHook, &Arc<ThreadCtx>) + Send + Sync + 'static) {
        self.callbacks.push(Arc::new(cb));
    }

    /// Called by a simulated custom driver at function entry; fires
    /// callbacks if the (library, function) pair is armed.
    /// Returns whether the call was intercepted.
    pub fn driver_call(&self, library: &str, function: &str, thread: &Arc<ThreadCtx>) -> bool {
        let armed = self.armed.lock();
        let found = armed
            .iter()
            .find(|h| h.library == library && h.function == function);
        let Some(hook) = found.cloned() else {
            return false;
        };
        drop(armed);
        self.callbacks.deliver(|cb| cb(&hook, thread));
        true
    }
}

/// Arms the `hooks` whose library is `basename`, once each.
fn arm(hooks: &[CustomHook], armed: &Mutex<Vec<CustomHook>>, basename: &str) {
    let mut armed = armed.lock();
    for hook in hooks {
        if hook.library == basename && !armed.contains(hook) {
            armed.push(hook.clone());
        }
    }
}

impl std::fmt::Debug for CustomInterceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CustomInterceptor")
            .field("hooks", &self.hooks)
            .field("armed", &self.armed.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcontext_core::ThreadRole;
    use sim_runtime::RuntimeEnv;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const CONFIG: &str =
        "\n# custom NPU driver\nlibnpu.so  npuLaunchKernel\nlibnpu.so  npuMemcpy\n";

    #[test]
    fn parse_accepts_comments_and_pairs() {
        let interceptor = CustomInterceptor::parse(CONFIG).unwrap();
        assert_eq!(interceptor.hooks().len(), 2);
        assert_eq!(interceptor.hooks()[0].function, "npuLaunchKernel");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(CustomInterceptor::parse("libx.so").is_err());
        assert!(CustomInterceptor::parse("libx.so f extra").is_err());
    }

    #[test]
    fn hooks_arm_on_library_load_and_intercept_calls() {
        let env = RuntimeEnv::new();
        let interceptor = CustomInterceptor::parse(CONFIG).unwrap();
        interceptor.install(env.libraries());
        assert!(interceptor.armed().is_empty());

        env.load_library("/opt/npu/libnpu.so", 0x1000);
        assert_eq!(interceptor.armed().len(), 2);

        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        interceptor.on_intercept(move |hook, _thread| {
            assert_eq!(hook.library, "libnpu.so");
            f.fetch_add(1, Ordering::SeqCst);
        });
        let t = env.threads().spawn(ThreadRole::Main);
        assert!(interceptor.driver_call("libnpu.so", "npuLaunchKernel", &t));
        assert!(!interceptor.driver_call("libnpu.so", "unknownFn", &t));
        assert!(!interceptor.driver_call("libother.so", "npuLaunchKernel", &t));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn already_loaded_libraries_arm_at_install() {
        let env = RuntimeEnv::new();
        env.load_library("/opt/npu/libnpu.so", 0x1000);
        let interceptor = CustomInterceptor::parse(CONFIG).unwrap();
        interceptor.install(env.libraries());
        assert_eq!(interceptor.armed().len(), 2);
    }
}
