//! The workspace's detlint configuration.
//!
//! There is one configuration and it lives here, in code:
//! [`Config::default`] is what the CLI and the tier-1 gate scan the
//! workspace with. A rule or scope change is made once, in this file.
//! Tests that scan synthetic trees start from the default and override
//! the fields they exercise.

/// Scan and rule configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Directories (relative to the root) to scan for `.rs` files.
    pub scan: Vec<String>,
    /// Path substrings that are never scanned (e.g. `target`).
    pub skip: Vec<String>,
    /// Files exempt from D1 (wall-clock types), relative to the root.
    pub d1_exempt: Vec<String>,
    /// Files exempt from D2 (ambient RNG), relative to the root.
    pub d2_exempt: Vec<String>,
    /// Per-event hot-path files that must stay panic-free (S2).
    pub s2_paths: Vec<String>,
    /// Hot-path entry points for the S3 reachability walk, written as
    /// `crate::function` (the crate is the directory under `crates/`).
    pub s3_entries: Vec<String>,
    /// The wire codec module whose encoder W1 pins, relative to the
    /// root.
    pub w1_wire: String,
    /// The committed schema snapshot W1 compares against, relative to
    /// the root.
    pub w1_schema: String,
    /// Rule IDs disabled entirely.
    pub disabled: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let strings = |items: &[&str]| items.iter().map(|s| (*s).to_owned()).collect();
        Config {
            scan: strings(&["crates", "tests"]),
            // `fixtures` holds detlint's own deliberately-violating
            // rule fixtures; scanning them would fail the gate.
            skip: strings(&["target", "fixtures"]),
            // Wall-clock types are only legal inside the simulated clock.
            d1_exempt: strings(&["crates/sim-core/src/clock.rs"]),
            // Ambient randomness is only legal inside the seeded RNG
            // wrapper.
            d2_exempt: strings(&["crates/sim-core/src/rng.rs"]),
            s2_paths: strings(&[
                "crates/phy80211p/src/edca.rs",
                "crates/phy80211p/src/channel.rs",
                "crates/phy80211p/src/dcc.rs",
                "crates/phy80211p/src/ofdm.rs",
                "crates/geonet/src/forwarding.rs",
                "crates/geonet/src/headers.rs",
                "crates/geonet/src/btp.rs",
                "crates/geonet/src/bytesio.rs",
                "crates/geonet/src/loctable.rs",
                "crates/uper/src/bits.rs",
                "crates/uper/src/fields.rs",
            ]),
            // Everything transitively callable from one of these must be
            // free of panic!/unwrap/expect/[]-indexing, or carry a
            // justified allow.
            s3_entries: strings(&[
                // The event-loop dispatch target every handler runs under.
                "core::handle",
                // EDCA, channel, DCC and the city's spatial grid.
                "phy80211p::transmit",
                "phy80211p::transmit_cached",
                "phy80211p::deliver",
                "phy80211p::frame_link",
                "phy80211p::access_time",
                "phy80211p::observe_busy",
                "phy80211p::update_state",
                "phy80211p::step_state",
                "phy80211p::gate",
                "phy80211p::on_transmitted",
                "phy80211p::record_busy",
                "phy80211p::cbr",
                "phy80211p::candidates_within",
                "phy80211p::relocate",
                "phy80211p::cutoff_radius_m",
                "phy80211p::delivery_floor_snr_db",
                // The city's structure-of-arrays station state.
                "core::note_busy",
                "core::gate_open",
                "core::record_tx",
                "core::record_rx",
                "core::roll_windows",
                "core::position_of",
                // Codec entry points fed by untrusted bytes.
                "geonet::from_bytes",
                "geonet::gbc_forward_decision",
                "uper::encode",
                "uper::decode",
                "its-messages::decode",
                "its-messages::from_bytes",
                // The event queue.
                "sim-core::schedule_at",
                "sim-core::schedule_after",
                "sim-core::pop_next",
                "sim-core::pop_batch",
                "sim-core::reset",
                // The shard frames, the campaign service and its
                // submission codec.
                "shard::encode_assignment",
                "shard::decode_assignment",
                "shard::encode_results",
                "shard::decode_results",
                "shard::decode_result_stream",
                "shard::send_frame",
                "shard::collect_frame",
                "shard::collect_chunk",
                "core::encode_submission",
                "core::decode_submission",
                "campaignd::try_enqueue",
                "campaignd::next_job",
                "campaignd::run_flat",
                "campaignd::submit_route",
                // Facilities codecs and cooperative perception.
                "facilities::to_bytes",
                "facilities::from_bytes",
                "core::on_cpm_rx",
                "core::generate_cpm",
                // The line follower's vision.
                "vehicle::steering",
                "vehicle::scan_edges_into",
                "vehicle::best_line",
            ]),
            // The RunRecord wire codec and its committed layout snapshot,
            // regenerated deliberately with `detlint --update-schema`.
            w1_wire: "crates/core/src/wire.rs".into(),
            w1_schema: "wire.schema".into(),
            disabled: Vec::new(),
        }
    }
}
