//! TCB accounting for the reproduced Figure 5.
//!
//! The paper annotates each design point with the TCB its boundary
//! placement implies. The reproduction measures the real thing: the lines
//! of (non-test) Rust in this repository that sit inside each design's
//! *application-trusted* domain, counted **by file** from the two things a
//! design is — its *transport* (P2: what the one TCP/IP stack runs over)
//! and its *crossing* (P1: what separates the application from that
//! stack) — under one rule, [`measure`], which is the paper's
//! ternary-trust argument written once.

use std::path::{Path, PathBuf};

/// Lines of non-test Rust code in the file `path`, or under the directory
/// `path` (recursively).
///
/// Counting rules: `.rs` files only; `#[cfg(test)] mod tests` blocks are
/// excluded by a brace-tracking scan; blank lines and pure-comment lines
/// are excluded. Rough but uniform — the comparison is relative.
pub fn count_loc(path: &Path) -> u64 {
    rust_files(path)
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .map(|src| count_file(&src))
        .sum()
}

/// `path` itself when it is a `.rs` file; every `.rs` file below it when
/// it is a directory.
fn rust_files(path: &Path) -> Vec<PathBuf> {
    if path.is_dir() {
        let entries = std::fs::read_dir(path).into_iter().flatten().flatten();
        entries.flat_map(|e| rust_files(&e.path())).collect()
    } else if path.extension().is_some_and(|e| e == "rs") {
        vec![path.to_path_buf()]
    } else {
        Vec::new()
    }
}

fn count_file(src: &str) -> u64 {
    let mut loc = 0u64;
    let mut in_tests = false;
    let mut depth = 0i32;
    let mut lines = src.lines().peekable();
    while let Some(line) = lines.next() {
        let trimmed = line.trim();
        if !in_tests && trimmed.starts_with("#[cfg(test)]") {
            // Skip until the matching block closes.
            in_tests = true;
            depth = 0;
            // The mod line may follow on the next line(s).
            for l in lines.by_ref() {
                depth += braces(l);
                if l.contains('{') {
                    break;
                }
            }
            continue;
        }
        if in_tests {
            // A brace in a comment closes nothing.
            if !trimmed.starts_with("//") {
                depth += braces(line);
            }
            if depth <= 0 {
                in_tests = false;
            }
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        loc += 1;
    }
    loc
}

fn braces(line: &str) -> i32 {
    let mut d = 0;
    for c in line.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

/// What separates the application from the stack serving its sockets —
/// the same three values `cio::world` charges socket calls by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// Nothing: stack and transport share the application's domain.
    None,
    /// The intra-TEE compartment boundary: stack and transport are
    /// semi-trusted (their compromise costs observability, not data).
    Compartment,
    /// The host/TEE boundary: the stack is host software, outside any
    /// trusted domain.
    Host,
}

/// A design, as the two things it is. Paths are source files or
/// directories relative to the workspace `crates/` dir.
#[derive(Debug, Clone)]
pub struct TcbSpec {
    /// Design name (matches `BoundaryKind` display names).
    pub design: &'static str,
    /// What the guest runs to move frames: ring or queue, its driver, and
    /// whatever they alone pull in.
    pub transport: &'static [&'static str],
    /// Where the application/stack boundary sits.
    pub crossing: Crossing,
}

/// Trusted by every confidential workload whatever the design: the
/// application-side cTLS and crypto, the TEE runtime and attestation, and
/// the guest-memory model.
pub const COMMON: &[&str] = &[
    "crypto/src",
    "ctls/src",
    "tee/src/lib.rs",
    "tee/src/attest.rs",
    "mem/src/lib.rs",
    "mem/src/memory.rs",
];

/// The TCP/IP stack, and the module the device adapters hang off.
pub const STACK: &[&str] = &["netstack/src", "cio/src/dev/mod.rs"];

/// What enforces a compartment crossing.
pub const COMPARTMENT: &[&str] = &["tee/src/compartment.rs"];

const VRING: &str = "vring/src/lib.rs";
const VIRTQUEUE: &str = "vring/src/virtqueue/mod.rs";
const VIRTQUEUE_DRIVER: &str = "vring/src/virtqueue/driver.rs";
const CIORING: &str = "vring/src/cioring.rs";

/// The seven designs of Figure 5.
pub const TCB_SPECS: [TcbSpec; 7] = [
    TcbSpec {
        design: "l5-host",
        transport: &[],
        crossing: Crossing::Host,
    },
    TcbSpec {
        design: "virtio-unhardened",
        transport: &[VRING, VIRTQUEUE, VIRTQUEUE_DRIVER, "cio/src/dev/virtio.rs"],
        crossing: Crossing::None,
    },
    TcbSpec {
        design: "virtio-hardened",
        transport: &[
            VRING,
            VIRTQUEUE,
            VIRTQUEUE_DRIVER,
            "vring/src/hardened.rs",
            "mem/src/bounce.rs",
            "cio/src/dev/hardened.rs",
        ],
        crossing: Crossing::None,
    },
    TcbSpec {
        design: "cio-ring",
        transport: &[VRING, CIORING, "cio/src/dev/cioring.rs"],
        crossing: Crossing::None,
    },
    TcbSpec {
        design: "dual-boundary",
        transport: &[VRING, CIORING, "cio/src/dev/cioring.rs"],
        crossing: Crossing::Compartment,
    },
    TcbSpec {
        design: "tunneled",
        transport: &[VRING, CIORING, "cio/src/dev/tunnel.rs"],
        crossing: Crossing::None,
    },
    TcbSpec {
        design: "dda",
        transport: &["tee/src/dda.rs", "cio/src/dev/ide.rs"],
        crossing: Crossing::None,
    },
];

/// Source under the counted trees that no design runs in its guest, each
/// with the reason — the coverage test fails on any file that is neither
/// here nor charged to some design, so nothing is "charged to nobody" by
/// accident.
pub const NOT_RUN_BY_ANY_DESIGN: [(&str, &str); 4] = [
    (
        "vring/src/netvsc.rs",
        "Figure 3's NetVSC scenario only; no BoundaryKind runs over it",
    ),
    (
        "vring/src/cioring/revoke.rs",
        "the cio ring's revocation receive arm (E7): no world's device runs it",
    ),
    (
        "vring/src/virtqueue/device.rs",
        "the host's model of the device side: untrusted by definition",
    ),
    (
        "tee/src/trust.rs",
        "the trust relation as a model tests assert; no dataplane code calls it",
    ),
];

/// Measured TCB sizes for one design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbReport {
    /// Design name.
    pub design: &'static str,
    /// LoC the application must trust with its data.
    pub app_trusted_loc: u64,
    /// LoC whose compromise costs only observability (dual boundary).
    pub semi_trusted_loc: u64,
    /// LoC of the transport alone, wherever the crossing puts it.
    pub transport_loc: u64,
}

/// The rule: the application always trusts [`COMMON`]; with no crossing
/// it also trusts the stack and the transport; a compartment crossing
/// costs the application [`COMPARTMENT`] and demotes stack and transport
/// to semi-trusted; a host crossing puts the stack outside every trusted
/// domain.
pub fn measure(crates_dir: &Path, spec: &TcbSpec) -> TcbReport {
    let sum =
        |paths: &[&str]| -> u64 { paths.iter().map(|p| count_loc(&crates_dir.join(p))).sum() };
    let transport = sum(spec.transport);
    let (app, semi) = match spec.crossing {
        Crossing::Host => (0, 0),
        Crossing::None => (sum(STACK) + transport, 0),
        Crossing::Compartment => (sum(COMPARTMENT), sum(STACK) + transport),
    };
    TcbReport {
        design: spec.design,
        app_trusted_loc: sum(COMMON) + app,
        semi_trusted_loc: semi,
        transport_loc: transport,
    }
}

/// Measures every design's TCB against the crates under `crates_dir`.
pub fn measure_all(crates_dir: &Path) -> Vec<TcbReport> {
    TCB_SPECS.iter().map(|s| measure(crates_dir, s)).collect()
}

/// Locates the workspace `crates/` directory from the current executable's
/// environment (CARGO_MANIFEST_DIR at compile time, falling back to CWD).
pub fn default_crates_dir() -> PathBuf {
    let compile_time = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if compile_time.join("sim").exists() {
        return compile_time;
    }
    PathBuf::from("crates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_not_tests_or_comments() {
        let src = r#"
// A comment.
pub fn real() -> u32 {
    42
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        // A lone } in a comment does not end the block.
        assert_eq!(super::real(), 42);
    }
}
"#;
        // `pub fn real`, `42`, `}` = 3 lines of code.
        assert_eq!(count_file(src), 3);
    }

    #[test]
    fn cfg_test_attribute_on_fn_is_skipped() {
        let src = "#[cfg(test)]\nfn helper() {\n    body();\n}\nfn live() {}\n";
        assert_eq!(count_file(src), 1);
    }

    fn report(design: &str) -> TcbReport {
        let spec = TCB_SPECS.iter().find(|s| s.design == design);
        measure(&default_crates_dir(), spec.expect("a Figure 5 design"))
    }

    #[test]
    fn the_rule_orders_this_workspace_as_figure_5_does() {
        let dir = default_crates_dir();
        let (l5, dual) = (report("l5-host"), report("dual-boundary"));
        // The dual boundary costs the application exactly the compartment
        // mechanism over the L5 design's TCB...
        let compartment: u64 = COMPARTMENT.iter().map(|p| count_loc(&dir.join(p))).sum();
        assert!(compartment > 0);
        assert_eq!(dual.app_trusted_loc, l5.app_trusted_loc + compartment);
        assert_eq!((l5.semi_trusted_loc, l5.transport_loc), (0, 0));
        // ...which keeps it strictly below every design that holds the
        // stack in the application's domain, and no two of those tie.
        let single: Vec<TcbReport> = TCB_SPECS
            .iter()
            .filter(|s| s.crossing == Crossing::None)
            .map(|s| measure(&dir, s))
            .collect();
        for (i, r) in single.iter().enumerate() {
            assert!(dual.app_trusted_loc < r.app_trusted_loc, "{r:?}");
            assert_eq!(r.semi_trusted_loc, 0, "{r:?}");
            for other in &single[i + 1..] {
                assert_ne!(r.app_trusted_loc, other.app_trusted_loc, "{r:?} {other:?}");
            }
        }
        // What the single-domain cio-ring design trusts is what the dual
        // design splits between the application and the I/O compartment.
        let cio = report("cio-ring");
        assert_eq!(
            cio.app_trusted_loc + compartment,
            dual.app_trusted_loc + dual.semi_trusted_loc
        );
    }

    /// ROADMAP item 3's gate, as found: the cio ring's guest transport is
    /// *larger* than virtio plus its hardening retrofit (it carries
    /// batching, two positioning modes and event-idx that this tree's
    /// virtqueue never implemented). The bound pins the ratio where it was
    /// last measured (930 / 783 = 1.188 once the device's mode switches
    /// went and revocation moved to a file no design runs), so it can only
    /// go down.
    #[test]
    fn cio_transport_is_no_larger_against_hardened_virtio_than_recorded() {
        let (cio, virtio) = (report("cio-ring"), report("virtio-hardened"));
        let ratio = cio.transport_loc as f64 / virtio.transport_loc as f64;
        assert!(
            ratio <= 1.19,
            "cio-ring transport {} vs virtio-hardened {}: {ratio:.3}x",
            cio.transport_loc,
            virtio.transport_loc
        );
    }

    /// Every source file under the trees a guest can run is either charged
    /// to some design or on the reasoned not-run list — never neither,
    /// never both — and every listed path exists (a rename cannot
    /// silently shrink a TCB to zero).
    #[test]
    fn every_file_is_charged_or_excused() {
        let dir = default_crates_dir();
        let listed = |paths: &[&str]| -> Vec<PathBuf> {
            for p in paths {
                assert!(dir.join(p).exists(), "listed path {p} does not exist");
            }
            paths
                .iter()
                .flat_map(|p| rust_files(&dir.join(p)))
                .collect()
        };
        let mut charged = listed(COMMON);
        charged.extend(listed(STACK));
        charged.extend(listed(COMPARTMENT));
        for spec in &TCB_SPECS {
            charged.extend(listed(spec.transport));
        }
        let excused = listed(&NOT_RUN_BY_ANY_DESIGN.map(|(path, _why)| path));
        let trees = [
            "crypto/src",
            "ctls/src",
            "tee/src",
            "mem/src",
            "netstack/src",
            "vring/src",
            "cio/src/dev",
        ];
        for file in listed(&trees) {
            assert_ne!(
                charged.contains(&file),
                excused.contains(&file),
                "{} must be charged to a design or excused, not both or neither",
                file.display()
            );
        }
    }
}
