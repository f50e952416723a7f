//! Configuration composition with the environment knobs: unset
//! options default from the env at build time, set options always win
//! (the `EngineConfig` precedence rule), and the deprecated
//! `SystemBuilder` setters keep working as thin shims.
//!
//! One `#[test]` on purpose — the cases mutate process-global env vars
//! and would race if the harness ran them on parallel threads.

use mastro::{EboxMode, EngineConfig, QueryEngine, SystemBuilder};
use obda_dllite::parse_tbox;
use obda_genont::random_abox;
use obda_obs::SinkKind;

#[test]
fn explicit_config_wins_over_env_knobs() {
    let tbox = parse_tbox("concept A B\nrole p").unwrap();
    let abox = random_abox(7, &tbox, 3, 8);

    // lint: allow(R4.read, "the test exercises the env-default path itself; the knob literal is the subject under test")
    std::env::set_var("QUONTO_TIMINGS", "1");
    // lint: allow(R4.read, "same: proves QUONTO_EBOX is the fallback layer under explicit settings")
    std::env::set_var("QUONTO_EBOX", "infer");

    // Unset config options inherit the env defaults at build time.
    let from_env = EngineConfig::new().build_abox(tbox.clone(), abox.clone());
    assert_eq!(from_env.stats().ebox, "infer");
    assert!(
        from_env.trace_sink().enabled(),
        "QUONTO_TIMINGS=1 should select an emitting sink"
    );

    // Explicit config options beat the same knobs.
    let explicit = EngineConfig::new()
        .ebox(EboxMode::Off)
        .trace(SinkKind::Off)
        .build_abox(tbox.clone(), abox.clone());
    assert_eq!(
        explicit.stats().ebox,
        "off",
        "config-set Off must win over QUONTO_EBOX=infer"
    );
    assert!(
        !explicit.trace_sink().enabled(),
        "config-set Off sink must win over QUONTO_TIMINGS=1"
    );

    // The deprecated SystemBuilder setters are shims over the same
    // config — identical layering, pinned here until the shims go.
    #[allow(deprecated)]
    let shimmed = SystemBuilder::new()
        .trace(SinkKind::Off)
        .build_abox(tbox.clone(), abox.clone());
    assert_eq!(
        shimmed.stats().ebox,
        "infer",
        "shim leaves ebox unset, so the knob still applies"
    );
    assert!(!shimmed.trace_sink().enabled());
    #[allow(deprecated)]
    let wrapped = SystemBuilder::from_config(EngineConfig::new().ebox(EboxMode::On))
        .trace(SinkKind::Off)
        .build_abox(tbox.clone(), abox.clone());
    assert_eq!(
        wrapped.stats().ebox,
        "on",
        "the wrapped config's ebox must win over QUONTO_EBOX=infer"
    );

    // A malformed QUONTO_EBOX value is a validation error, not a
    // silent fallback to off.
    // lint: allow(R4.read, "same: the knob's error path is the subject under test")
    std::env::set_var("QUONTO_EBOX", "sideways");
    assert!(EngineConfig::new().validate().is_err());
    assert!(EngineConfig::new().resolved_ebox().is_err());

    // With the knobs gone, the documented fallbacks apply.
    // lint: allow(R4.read, "restores the env for the rest of the process")
    std::env::remove_var("QUONTO_TIMINGS");
    // lint: allow(R4.read, "restores the env for the rest of the process")
    std::env::remove_var("QUONTO_EBOX");
    let bare = EngineConfig::new().build_abox(tbox, abox);
    assert_eq!(bare.stats().ebox, "off");
    assert!(!bare.trace_sink().enabled());
}
