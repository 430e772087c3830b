//! A `DEEPCONTEXT_TIMELINE` value that is not a switch fails loudly.
//!
//! The test sets the variable, so this file holds exactly one test: it
//! owns its process's environment.

use deepcontext_timeline::{default_timeline_config, default_timeline_enabled};

#[test]
fn timeline_switch_reads_six_words_in_any_case_and_panics_on_anything_else() {
    std::env::remove_var("DEEPCONTEXT_TIMELINE");
    assert!(!default_timeline_enabled(), "unset means off");
    let on = ["1", "true", "TRUE", "On", " on "];
    let off = ["0", "false", "False", "OFF", "off\n"];
    for (value, enabled) in on
        .map(|v| (v, true))
        .into_iter()
        .chain(off.map(|v| (v, false)))
    {
        std::env::set_var("DEEPCONTEXT_TIMELINE", value);
        assert_eq!(default_timeline_enabled(), enabled, "{value:?}");
        assert_eq!(default_timeline_config().enabled, enabled, "{value:?}");
    }
    for bad in ["", "yes", "no", "2", "enabled", "o n"] {
        std::env::set_var("DEEPCONTEXT_TIMELINE", bad);
        let panic = std::panic::catch_unwind(default_timeline_enabled)
            .expect_err("a value that is no switch must not run as if it meant off");
        let message = panic
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(message.contains("DEEPCONTEXT_TIMELINE"), "{message}");
        assert!(message.contains(&format!("`{bad}`")), "{message}");
    }
}
