//! A `DEEPCONTEXT_TEST_SHARDS` value that is not a shard count fails
//! loudly.
//!
//! The test sets the variable, so this file holds exactly one test: it
//! owns its process's environment.

use deepcontext_profiler::{default_ingestion_shards, ProfilerConfig};

#[test]
fn shard_override_takes_a_positive_integer_and_panics_on_anything_else() {
    std::env::remove_var("DEEPCONTEXT_TEST_SHARDS");
    assert_eq!(default_ingestion_shards(), 16, "unset means 16");
    std::env::set_var("DEEPCONTEXT_TEST_SHARDS", " 3 ");
    assert_eq!(default_ingestion_shards(), 3);
    std::env::set_var("DEEPCONTEXT_TEST_SHARDS", "1");
    assert_eq!(ProfilerConfig::default().ingestion_shards, 1);
    for bad in ["0", "abc", "-2", "1.5", ""] {
        std::env::set_var("DEEPCONTEXT_TEST_SHARDS", bad);
        let panic = std::panic::catch_unwind(default_ingestion_shards)
            .expect_err("a value that is no shard count must not run as if it meant 16");
        let message = panic
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(message.contains("DEEPCONTEXT_TEST_SHARDS"), "{message}");
        assert!(message.contains(&format!("`{bad}`")), "{message}");
    }
}
