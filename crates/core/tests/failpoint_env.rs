//! A `DEEPCONTEXT_FAILPOINTS` spec with a typo fails loudly.
//!
//! The spec is read from the environment once per process, so this file
//! holds exactly one test: it sets the variable before anything reads it.

use deepcontext_core::Failpoints;

#[test]
fn a_misspelled_site_panics_naming_the_variable_and_the_clause() {
    std::env::set_var(
        "DEEPCONTEXT_FAILPOINTS",
        "store_io_err@first;store_raed_err@first",
    );
    std::env::remove_var("DEEPCONTEXT_FAILPOINT_SEED");
    for _ in 0..2 {
        let panic = std::panic::catch_unwind(Failpoints::from_env)
            .expect_err("a spec naming no site must not run as if injection were off");
        let message = panic
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(message.contains("DEEPCONTEXT_FAILPOINTS"), "{message}");
        assert!(message.contains("`store_raed_err@first`"), "{message}");
    }
}
