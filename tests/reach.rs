//! The reach census as a gate (`cio_study::reach`): every `pub` item and
//! every crate edge has a production user, or an exemption here that says
//! why it stays. An exemption that names something gone, or something
//! production code now reaches, fails too, so the table cannot rot.

const ORACLE: &str = "oracle: the reference that crypto's kernel and lane tests check against";
const ITEM_8: &str = "item 8: tests/hotswap.rs checks page ownership through it";
const ITEM_10: &str = "item 10 deletes SimpleFs when E12 moves to the KV plane";
const ITEM_11: &str = "item 11: counted in virtio-hardened's transport, the ratio pin's base";
const LOCK: &str = "item 18(a): cio_benchmark/Cargo.lock records it";

/// `pub` items that only tests reach, each with why it stays: the test or
/// experiment that reads it, its role as an oracle, or the ROADMAP item
/// that claims it. Every other unreached item is deleted.
#[rustfmt::skip]
const EXEMPT: &[(&str, &str)] = &[
    ("chacha20::keystream_block", ORACLE),
    ("x25519::public_key", ORACLE),
    ("x25519::shared_secret", ORACLE),
    ("aead::seal_fused", ORACLE),
    ("aead::open_fused", ORACLE),
    ("sha256::kernel_blocks", "handshake_hashes_on_the_sha_kernel counts SHA-NI blocks by it"),
    ("assemble::hot_swap_device", "E14: tests/hotswap.rs swaps the dual boundary's device"),
    ("reach::census", "the gate itself: tests/reach.rs runs it"),
    ("record::records_received", "record_adapters_are_the_run_primitive_at_a_run_of_one reads it"),
    ("session::from_raw_parts", "tests/sessions.rs::forged_handles_are_rejected forges with it"),
    ("telemetry::observing", "tests/security.rs and tests/export_pins.rs read the timeline arm"),
    ("memory::page_state", "tests/hotswap.rs counts the world's shared pages by it"),
    ("world::session_stats", "tests/sessions.rs checks slot reuse and one probe per lookup"),
    ("world::draining_sockets", "tests/sessions.rs and tests/crossing.rs wait on socket teardown"),
    ("world::dual_compartments", ITEM_8),
    ("compartment::check_access", ITEM_8),
    ("fs::mount", ITEM_10),
    ("fs::list", ITEM_10),
    ("virtqueue::F_RING_INDIRECT_DESC", ITEM_11),
    ("virtqueue::F_RING_EVENT_IDX", ITEM_11),
    ("virtqueue::F_NET_CSUM", ITEM_11),
    ("virtqueue::STATUS_NEEDS_RESET", ITEM_11),
    ("virtqueue::avail_flags", ITEM_11),
    ("virtqueue::used_flags", ITEM_11),
    ("virtqueue::total_size", ITEM_11),
    ("virtqueue::host_write_status", ITEM_11),
    ("hardened::audit_config", ITEM_11),
];

/// `[dependencies]` edges that no production code uses, each with why it
/// stays.
const EXEMPT_EDGES: &[(&str, &str)] =
    &[("cio -> cio-crypto", LOCK), ("cio-sim -> cio-crypto", LOCK)];

#[test]
fn every_pub_item_and_crate_edge_is_reached_or_exempt() {
    let census = cio_study::reach::census(&cio_study::tcb::default_crates_dir().join(".."));
    println!("{}", census.report.join("\n"));
    let exempt: Vec<&str> = EXEMPT.iter().chain(EXEMPT_EDGES).map(|e| e.0).collect();
    let mut violations = Vec::new();
    for u in census
        .unreached
        .iter()
        .filter(|u| !exempt.contains(&u.as_str()))
    {
        violations.push(format!("{u} has no production use"));
    }
    for e in exempt {
        if !census.known.iter().any(|k| k == e) {
            violations.push(format!("exempt {e} no longer exists"));
        } else if !census.unreached.iter().any(|u| u == e) {
            violations.push(format!("exempt {e} now has a production use"));
        }
    }
    assert!(violations.is_empty(), "{}", violations.join("\n"));
}
