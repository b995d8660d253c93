//! The E10 attack-resilience harness: the adversary suite against every
//! boundary design.
//!
//! Each scenario builds a full [`World`], establishes an encrypted echo
//! session, launches one [`AttackKind`] from the host's position, keeps
//! the workload running, and classifies what happened:
//!
//! * [`Outcome::NoSurface`] — the design removed the attacked mechanism
//!   entirely (no completion ids to forge, no config space to mutate).
//! * [`Outcome::Prevented`] — the attack executed but was neutralized by
//!   construction (masking, fixed config, idempotent handlers): no
//!   violation even needed *detecting*.
//! * [`Outcome::Detected`] — the boundary validated and rejected the
//!   hostile input (`violations_detected` grew; no corruption).
//! * [`Outcome::Undetected`] — the oracle recorded a violation the design
//!   never noticed (`violations_undetected` grew): in C, memory
//!   corruption; here, wrapped accesses and poisoned state.
//!
//! The expected headline (the paper's Table-equivalent): the unhardened
//! virtio baseline bleeds `Undetected` results, the hardened retrofit
//! converts them to `Detected` at a copy/validation tax, and the cio-ring
//! designs mostly answer `NoSurface`/`Prevented` — safety *by
//! construction* rather than by vigilance.

use crate::world::{BoundaryKind, SessionId, World, WorldOptions, ECHO_PORT};
use crate::CioError;
use cio_host::adversary::AttackKind;
use cio_host::fabric::LinkParams;
use cio_host::VirtioNetBackend;
use cio_sim::{verify_audit_chain, AuditViolation, Cycles, EventKind, Telemetry};
use cio_vring::cioring::{BatchPolicy, CioRing};

pub use cio_host::adversary::ALL_ATTACKS;

/// Classified result of one attack scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The design has no such mechanism to attack.
    NoSurface,
    /// Attack executed; neutralized by construction.
    Prevented,
    /// Attack executed; validated and rejected.
    Detected,
    /// Attack executed; the design acted on hostile data unknowingly.
    Undetected,
}

impl Outcome {
    /// Stable wire code, carried as the `b` payload word of the
    /// [`EventKind::AttackVerdict`] flight event (and therefore
    /// authenticated by the audit chain).
    pub fn code(self) -> u64 {
        match self {
            Outcome::NoSurface => 0,
            Outcome::Prevented => 1,
            Outcome::Detected => 2,
            Outcome::Undetected => 3,
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Outcome::NoSurface => "no-surface",
            Outcome::Prevented => "prevented",
            Outcome::Detected => "detected",
            Outcome::Undetected => "UNDETECTED",
        };
        f.write_str(s)
    }
}

/// One row of the attack matrix.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// The design under attack.
    pub boundary: BoundaryKind,
    /// The attack class.
    pub attack: AttackKind,
    /// What happened.
    pub outcome: Outcome,
    /// Whether the echo workload still completed correctly afterwards.
    pub workload_survived: bool,
    /// Whether the verdict landed in the world's tamper-evident audit
    /// chain and the whole chain verified afterwards (trivially `true`
    /// for `NoSurface` scenarios, which never build a world).
    pub audit_ok: bool,
}

/// The world profile the adversary suite runs on: a short lossless link
/// and the event timeline armed, so every verdict lands in the audit
/// chain. The base for [`run_scenario_on`] / [`run_matrix`] variations.
pub fn attack_opts() -> WorldOptions {
    WorldOptions {
        link: LinkParams {
            latency: Cycles(1_000),
            loss: 0.0,
        },
        observe: true,
        ..WorldOptions::default()
    }
}

/// Index of `attack` in [`ALL_ATTACKS`], carried as the `a` payload word
/// of the [`EventKind::AttackVerdict`] timeline event.
fn attack_index(attack: AttackKind) -> u64 {
    ALL_ATTACKS
        .iter()
        .position(|&a| a == attack)
        .unwrap_or(ALL_ATTACKS.len()) as u64
}

/// Records the classification verdict in the world's event timeline
/// (which appends it to the tamper-evident audit chain, `AttackVerdict`
/// being a security event) and checks that the chain verifies end to end
/// with the fresh verdict as its newest link.
fn seal_verdict(timeline: &Telemetry, attack: AttackKind, outcome: Outcome) -> bool {
    let (scenario, code) = (attack_index(attack), outcome.code());
    timeline.record(0, EventKind::AttackVerdict, scenario, code);
    timeline.verify_audit().is_ok()
        && timeline
            .audit_records()
            .last()
            .is_some_and(|r| r.kind == EventKind::AttackVerdict && r.a == scenario && r.b == code)
}

/// Whether this design exposes the mechanism this attack targets.
fn has_surface(boundary: BoundaryKind, attack: AttackKind) -> bool {
    use AttackKind::*;
    use BoundaryKind::*;
    match attack {
        CompletionIdOob | CompletionLenOverrun | SpuriousCompletion | DescChainCorruption => {
            matches!(boundary, L2VirtioUnhardened | L2VirtioHardened)
        }
        ConfigDoubleFetch => matches!(boundary, L2VirtioUnhardened | L2VirtioHardened),
        PayloadDoubleFetch => matches!(boundary, L2VirtioUnhardened | L2CioRing | DualBoundary),
        IndexJump | SlotForgery => matches!(
            boundary,
            L2CioRing | DualBoundary | Tunneled | L2VirtioUnhardened | L2VirtioHardened
        ),
        NotificationStorm => matches!(boundary, L2VirtioHardened | L2CioRing | DualBoundary),
    }
}

/// Downcasts the world's backend to the virtio device model, if that is
/// what it runs (exercises the [`World::backend_mut`] trait-object path).
fn virtio_of(world: &mut World) -> Option<&mut VirtioNetBackend> {
    world.backend_mut().as_any_mut().downcast_mut()
}

/// Launches one attack against a running world. Returns false if the
/// design offers no surface (nothing was attempted).
///
/// Ring-targeted attacks aim at the *last* cio queue, so multi-queue
/// worlds prove every queue independently preserves the §3.2 defenses
/// (queue 0 is covered by the single-queue matrix).
fn launch(world: &mut World, attack: AttackKind) -> Result<bool, CioError> {
    use AttackKind::*;
    let mem = world.guest_memory().clone();
    let host = mem.host();
    match attack {
        CompletionIdOob => {
            let Some(b) = virtio_of(world) else {
                return Ok(false);
            };
            b.tx_device().complete(1000, 0)?;
            b.rx_device().complete(4999, 0)?;
        }
        CompletionLenOverrun => {
            let Some(b) = virtio_of(world) else {
                return Ok(false);
            };
            // Claim an enormous write into whatever chain 0 is.
            b.rx_device().complete(0, 1 << 24)?;
        }
        SpuriousCompletion => {
            let Some(b) = virtio_of(world) else {
                return Ok(false);
            };
            // Double-complete descriptor 0 on both queues.
            b.tx_device().complete(0, 0)?;
            b.tx_device().complete(0, 0)?;
        }
        DescChainCorruption => {
            let Some((tx_layout, rx_layout, _)) = world.anatomy().virtio else {
                return Ok(false);
            };
            for q in [tx_layout, rx_layout] {
                for i in 0..q.qsize {
                    host.write(q.desc(i).add(14), &0xFFFFu16.to_le_bytes())?;
                }
            }
        }
        ConfigDoubleFetch => {
            let Some((_, _, cfg_page)) = world.anatomy().virtio else {
                return Ok(false);
            };
            // Inflate the MTU after negotiation.
            host.write(
                cfg_page.add(cio_vring::virtqueue::ConfigSpace::MTU),
                &60_000u16.to_le_bytes(),
            )?;
        }
        PayloadDoubleFetch => {
            // Handled by the dedicated micro-scenario (`payload_toctou`):
            // the full-stack worlds copy/revoke at well-defined points, so
            // the interesting TOCTOU comparison is at the ring level.
            return Ok(false);
        }
        IndexJump => {
            if let Some((_, rx_ring)) = world.anatomy().cio_queues.last().cloned() {
                // Lie about the producer index on the guest's RX ring.
                host.write(rx_ring.prod_idx_addr(), &1_000_000u32.to_le_bytes())?;
            } else if let Some((_, rx_layout, _)) = world.anatomy().virtio {
                // Jump the used index far ahead of reality.
                let cur = {
                    let mut b = [0u8; 2];
                    host.read(rx_layout.used_idx(), &mut b)?;
                    u16::from_le_bytes(b)
                };
                host.write(rx_layout.used_idx(), &(cur.wrapping_add(300)).to_le_bytes())?;
            } else {
                return Ok(false);
            }
        }
        SlotForgery => {
            if let Some((_, rx_ring)) = world.anatomy().cio_queues.last().cloned() {
                // Scribble hostile offset/len pairs over every RX slot.
                for i in 0..rx_ring.config().slots {
                    let slot = rx_ring.slot_addr(i);
                    host.write(slot, &0xFFFF_FFF0u32.to_le_bytes())?;
                    host.write(slot.add(4), &0xFFFF_FFFFu32.to_le_bytes())?;
                }
            } else if let Some((_, rx_layout, _)) = world.anatomy().virtio {
                // Forge used entries wholesale.
                for i in 0..rx_layout.qsize {
                    let entry = rx_layout.used_ring(i);
                    host.write(entry, &0xDEAD_BEEFu32.to_le_bytes())?;
                    host.write(entry.add(4), &0xFFFF_FFFFu32.to_le_bytes())?;
                }
            } else {
                return Ok(false);
            }
        }
        NotificationStorm => {
            // Inject a burst of spurious notifications/doorbells.
            let cost = world.cost().clone();
            for _ in 0..64 {
                world.clock().advance(cost.interrupt_inject);
                world.meter().interrupts_received(1);
            }
            // For cio rings the handler is the idempotent drain; exercise
            // it through normal steps below.
        }
    }
    Ok(true)
}

/// Runs one attack scenario on the suite's own world profile
/// ([`attack_opts`]) and classifies the outcome.
///
/// # Errors
///
/// Only infrastructure failures; attack effects are the *result*.
pub fn run_scenario(boundary: BoundaryKind, attack: AttackKind) -> Result<AttackReport, CioError> {
    run_scenario_on(boundary, attack, attack_opts())
}

/// Runs one attack scenario on a world built from `opts` — start from
/// [`attack_opts`] and vary the profile under test (queue count, worker
/// threads, data positioning, batch discipline): every defense must
/// classify identically across profiles. Designs without multi-queue
/// support run single-queue on the stepping thread regardless (the
/// matrix stays complete). Ring attacks hit the last queue — see
/// `launch`.
///
/// # Errors
///
/// Only infrastructure failures; attack effects are the *result*.
pub fn run_scenario_on(
    boundary: BoundaryKind,
    attack: AttackKind,
    mut opts: WorldOptions,
) -> Result<AttackReport, CioError> {
    if !has_surface(boundary, attack) {
        return Ok(AttackReport {
            boundary,
            attack,
            outcome: Outcome::NoSurface,
            workload_survived: true,
            audit_ok: true,
        });
    }

    if !matches!(
        boundary,
        BoundaryKind::L2CioRing | BoundaryKind::DualBoundary
    ) {
        (opts.queues, opts.parallel) = (1, 0);
    }
    let mut world = World::new(boundary, opts)?;
    let conn = world.connect(ECHO_PORT)?;
    world.establish(conn, 3_000)?;

    // Warm-up traffic.
    world.send(conn, b"before attack")?;
    let warm = world.recv_exact(conn, 13, 3_000)?;
    debug_assert_eq!(&warm, b"before attack");

    let before = world.meter().snapshot();
    let attempted = launch(&mut world, attack)?;
    if !attempted {
        let audit_ok = seal_verdict(world.telemetry(), attack, Outcome::NoSurface);
        return Ok(AttackReport {
            boundary,
            attack,
            outcome: Outcome::NoSurface,
            workload_survived: true,
            audit_ok,
        });
    }

    // Let the attack land and keep the workload running.
    let _ = world.run(200);
    let mut survived = false;
    if world.send(conn, b"after attack").is_ok() {
        if let Ok(got) = world.recv_exact(conn, 12, 4_000) {
            survived = got == b"after attack";
        }
    }
    let delta = world.meter().snapshot().delta(&before);

    let outcome = if delta.violations_undetected > 0 {
        Outcome::Undetected
    } else if delta.violations_detected > 0 {
        Outcome::Detected
    } else {
        Outcome::Prevented
    };
    let audit_ok = seal_verdict(world.telemetry(), attack, outcome);
    Ok(AttackReport {
        boundary,
        attack,
        outcome,
        workload_survived: survived,
        audit_ok,
    })
}

/// Runs the full matrix on worlds built from `opts` (see
/// [`run_scenario_on`]).
///
/// # Errors
///
/// Infrastructure failures only.
pub fn run_matrix(
    boundaries: &[BoundaryKind],
    opts: &WorldOptions,
) -> Result<Vec<AttackReport>, CioError> {
    let mut out = Vec::new();
    for &b in boundaries {
        for &a in &ALL_ATTACKS {
            out.push(run_scenario_on(b, a, opts.clone())?);
        }
    }
    Ok(out)
}

/// The dedicated payload-TOCTOU micro-scenario (ring level).
///
/// Returns `(unhardened_outcome, cio_copy_outcome, cio_revoke_outcome)`:
/// the shared-buffer design lets the host flip payload bytes between the
/// guest's validation and use; the cio-ring's early copy closes the window
/// after the fetch; revocation removes it entirely.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn payload_toctou() -> Result<(Outcome, Outcome, Outcome), CioError> {
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

    // --- Unhardened shared buffer: validate, host flips, use. ---
    let unhardened = {
        let mem = GuestMemory::new(8, Clock::new(), CostModel::default(), Meter::new());
        mem.share_range(GuestAddr(0), 2 * PAGE_SIZE)?;
        let g = mem.guest();
        let h = mem.host();
        // Host delivers a payload; guest validates it in place.
        h.write(GuestAddr(64), b"AMOUNT=00100")?;
        let mut check = [0u8; 12];
        g.read(GuestAddr(64), &mut check)?;
        let valid = &check == b"AMOUNT=00100";
        // Double-fetch window: host flips after the check.
        h.write(GuestAddr(64), b"AMOUNT=99999")?;
        // Guest "uses" the validated data — fetching it again.
        let mut used = [0u8; 12];
        g.read(GuestAddr(64), &mut used)?;
        if valid && &used != b"AMOUNT=00100" {
            Outcome::Undetected
        } else {
            Outcome::Prevented
        }
    };

    // --- cio-ring early copy: single fetch, then private. ---
    let cio_copy = {
        let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 8,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 2048,
            area_size: 1 << 14,
            ..RingConfig::default()
        };
        let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64))?;
        mem.share_range(GuestAddr(0), ring.ring_bytes())?;
        mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())?;
        let mut host_p = Producer::new(ring.clone(), mem.host())?;
        let mut guest_c = Consumer::new(ring.clone(), mem.guest())?;
        guest_c.set_copy_policy(cio_mem::CopyPolicy::CopyEarly);
        host_p.produce(b"AMOUNT=00100")?;
        // The early copy happens inside consume(); afterwards the host may
        // flip the shared area all it wants.
        let private = guest_c.consume()?.expect("payload");
        mem.host().write(ring.payload_addr(0), b"AMOUNT=99999")?;
        if private == b"AMOUNT=00100" {
            Outcome::Prevented
        } else {
            Outcome::Undetected
        }
    };

    // --- cio-ring revocation: the pages stop being host-writable. ---
    let cio_revoke = {
        let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
        let cfg = RingConfig {
            slots: 8,
            slot_size: 16,
            mode: DataMode::SharedArea,
            mtu: 4096,
            area_size: 8 * PAGE_SIZE as u32,
            page_aligned_payloads: true,
            ..RingConfig::default()
        };
        let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64))?;
        mem.share_range(GuestAddr(0), ring.ring_bytes())?;
        mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())?;
        let mut host_p = Producer::new(ring.clone(), mem.host())?;
        let mut guest_c = Consumer::new(ring, mem.guest())?;
        host_p.produce(b"AMOUNT=00100")?;
        let r = guest_c.consume_revoking()?.expect("payload");
        // The host's flip attempt faults on the revoked page.
        let flip = mem.host().write(r.addr, b"AMOUNT=99999");
        let mut used = vec![0u8; r.len as usize];
        mem.guest().read(r.addr, &mut used)?;
        if flip.is_err() && used == b"AMOUNT=00100" {
            Outcome::Prevented
        } else {
            Outcome::Undetected
        }
    };

    Ok((unhardened, cio_copy, cio_revoke))
}

/// The payload-TOCTOU micro-scenario for the seal-in-slot path: the
/// guest consumes the record *in place* (no early copy), but the single
/// fetch happens under the memory lock and anything the guest keeps is
/// copied into private memory before the closure returns — the host's
/// post-consume flip lands on already-consumed slot bytes.
///
/// This is the data-positioning argument for why the zero-copy dataplane
/// does not reopen the double-fetch window the early copy closed.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn payload_toctou_in_slot() -> Result<Outcome, CioError> {
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

    let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
    let cfg = RingConfig {
        slots: 8,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: 2048,
        area_size: 1 << 14,
        ..RingConfig::default()
    };
    let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64))?;
    mem.share_range(GuestAddr(0), ring.ring_bytes())?;
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())?;
    let mut host_p = Producer::new(ring.clone(), mem.host())?;
    let mut guest_c = Consumer::new(ring.clone(), mem.guest())?;
    host_p.produce(b"AMOUNT=00100")?;
    // Single fetch: validate and extract in one in-place pass.
    let private = guest_c
        .consume_in_place(|payload| (payload == b"AMOUNT=00100").then(|| payload.to_vec()))?
        .expect("payload");
    // The host flips the slot after consumption; the guest never
    // re-fetches it.
    mem.host().write(ring.payload_addr(0), b"AMOUNT=99999")?;
    Ok(match private {
        Some(used) if used == b"AMOUNT=00100" => Outcome::Prevented,
        _ => Outcome::Undetected,
    })
}

/// The mid-batch poisoning micro-scenario for the batched dataplane: the
/// host corrupts one slot of a committed multi-record run before the
/// guest's batched consume. The batch open must fail closed for exactly
/// the poisoned record — every other record in the run decrypts to the
/// right plaintext, in the original order. Amortizing the lock, index
/// publish, and AEAD setup across the run must not widen the blast
/// radius of a single hostile slot.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn batch_partial_poison() -> Result<Outcome, CioError> {
    use cio_ctls::{Channel, RecordScratch};
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::cioring::{CioRing, Consumer, DataMode, Producer, RingConfig};

    const N: usize = 5;
    const POISONED: usize = 2;

    let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
    let cfg = RingConfig {
        slots: 8,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: 2048,
        area_size: 1 << 14,
        ..RingConfig::default()
    };
    let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64))?;
    mem.share_range(GuestAddr(0), ring.ring_bytes())?;
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())?;
    let mut host_p = Producer::new(ring.clone(), mem.host())?;
    let mut guest_c = Consumer::new(ring.clone(), mem.guest())?;
    let mut sealer = Channel::from_secrets([3; 32], [4; 32], false, None);
    let mut opener = Channel::from_secrets([3; 32], [4; 32], true, None);

    // The host (gateway role) seals an N-record run into the slots and
    // commits it as one batch.
    let payloads: Vec<Vec<u8>> = (0..N)
        .map(|i| format!("AMOUNT=0010{i}").into_bytes())
        .collect();
    let pts: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    let cap = payloads[0].len() + cio_ctls::RECORD_OVERHEAD;
    let grant = host_p.reserve_batch(cap, N)?;
    debug_assert_eq!(grant.len(), N);
    let mut lens = [0usize; N];
    host_p.with_batch_mut(&grant, |slots| {
        sealer.seal_batch_into_slots(&pts, slots, &mut lens)
    })??;
    host_p.commit_batch(grant, &lens)?;
    host_p.kick();

    // Mid-batch corruption: flip one ciphertext byte of the third record
    // after the commit, before the guest drains the run.
    let poison_at = GuestAddr(ring.payload_addr(POISONED as u32).0 + 6);
    let mut byte = [0u8; 1];
    mem.host().read(poison_at, &mut byte)?;
    mem.host().write(poison_at, &[byte[0] ^ 0xA5])?;

    // Batched single-fetch drain + batched open.
    let mut outs: Vec<RecordScratch> = std::iter::repeat_with(RecordScratch::new).take(N).collect();
    let mut results = [Ok(()); N];
    let consumed = guest_c.consume_batch_in_place(N, |slots| {
        let recs: Vec<&[u8]> = slots.iter().map(|s| &**s).collect();
        opener.open_batch_in_slots(&recs, &mut outs, &mut results);
    })?;

    let poisoned_rejected = results[POISONED].is_err() && outs[POISONED].as_slice().is_empty();
    let rest_intact = (0..N)
        .filter(|&i| i != POISONED)
        .all(|i| results[i].is_ok() && outs[i].as_slice() == payloads[i].as_slice());
    Ok(if consumed == N && poisoned_rejected && rest_intact {
        Outcome::Detected
    } else {
        Outcome::Undetected
    })
}

/// Report from one storage-plane attack scenario (the E24 additions to
/// the adversary suite: the batched block ring under the same hostile
/// host the network dataplane faces).
#[derive(Debug, Clone, Copy)]
pub struct BlkAttackReport {
    /// The attack class whose wire code seals the verdict (the block
    /// scenarios reuse the established codes — `SlotForgery` for
    /// response aliasing, `PayloadDoubleFetch` for mid-batch poison,
    /// `SpuriousCompletion` for rollback — so `ALL_ATTACKS` and every
    /// pinned matrix artifact stay unchanged).
    pub attack: AttackKind,
    /// Classification against the fail-closed contract.
    pub outcome: Outcome,
    /// The hostile read was refused with the right verdict and no
    /// falsified byte reached the caller.
    pub fail_closed: bool,
    /// Untouched data still reads back correctly afterwards (the blast
    /// radius is the attacked blocks, not the store).
    pub intact_elsewhere: bool,
    /// Verdict sealed into a verified audit chain.
    pub audit_ok: bool,
}

/// A single-lane encrypted block stack for the storage adversary suite:
/// [`cio_block::CryptStore`] over a batched in-slot ring pair over the
/// host's [`cio_block::RamDisk`] — the same layers `cio::kv` deploys,
/// minus the engine, so scenarios can aim at exact physical blocks.
fn blk_crypt_fixture() -> Result<
    (
        cio_mem::GuestMemory,
        cio_block::CryptStore<cio_block::transport::RingBlockStore>,
    ),
    CioError,
> {
    use cio_block::blockdev::BLOCK_SIZE;
    use cio_block::transport::{
        BlkProfile, CioBlkBackend, CioBlkFrontend, RingBlockStore, BLK_HDR,
    };
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::cioring::{Consumer, DataMode, Producer, RingConfig};

    let profile = BlkProfile::batched(8);
    let mem = GuestMemory::new(600, Clock::new(), CostModel::default(), Meter::new());
    let cfg = RingConfig {
        slots: 16,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: (BLOCK_SIZE + BLK_HDR) as u32,
        area_size: 1 << 17,
        notify: profile.notify,
        ..RingConfig::default()
    };
    let req_ring = CioRing::new(cfg.clone(), GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64))?;
    let resp_ring = CioRing::new(
        cfg,
        GuestAddr(8 * PAGE_SIZE as u64),
        GuestAddr(64 * PAGE_SIZE as u64),
    )?;
    mem.share_range(GuestAddr(0), req_ring.ring_bytes())?;
    mem.share_range(GuestAddr(8 * PAGE_SIZE as u64), resp_ring.ring_bytes())?;
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), req_ring.area_bytes())?;
    mem.share_range(GuestAddr(64 * PAGE_SIZE as u64), resp_ring.area_bytes())?;
    let front = CioBlkFrontend::with_profile(
        Producer::new(req_ring.clone(), mem.guest())?,
        Consumer::new(resp_ring.clone(), mem.guest())?,
        profile,
    );
    let back = CioBlkBackend::with_profile(
        Consumer::new(req_ring, mem.host())?,
        Producer::new(resp_ring, mem.host())?,
        cio_block::RamDisk::new(512),
        profile,
    );
    let ring = RingBlockStore::new(front, back);
    Ok((mem, cio_block::CryptStore::new(ring, [0x5C; 32])?))
}

fn blk_pattern(seed: usize, blocks: usize) -> Vec<u8> {
    use cio_block::blockdev::BLOCK_SIZE;
    (0..blocks * BLOCK_SIZE)
        .map(|j| ((seed * 131 + j * 7) % 251) as u8)
        .collect()
}

/// Seals a block-scenario verdict into a fresh tamper-evident audit chain
/// (the block fixture runs below the [`World`] layer, so it carries its
/// own timeline — same chain discipline, same verification).
fn seal_blk_verdict(attack: AttackKind, outcome: Outcome) -> bool {
    let timeline = Telemetry::with_arming(&cio_sim::Clock::new(), 1, false, true);
    seal_verdict(&timeline, attack, outcome)
}

/// Response-aliasing TOCTOU on the batched block ring (sealed under the
/// [`AttackKind::SlotForgery`] code): the host answers the request for
/// one block with the ciphertext it stored for *another* — a splice
/// attack on the response path, the storage twin of forging a slot's
/// offset to alias a different record. The AEAD binds LBA (AAD) and
/// generation (nonce) into every block, so the aliased ciphertext cannot
/// authenticate at its new address: the batched gather-open must refuse
/// the read, and blocks the alias never touched must keep reading back
/// byte-identical.
///
/// # Errors
///
/// Infrastructure failures only; attack effects are the *result*.
pub fn blk_response_alias() -> Result<BlkAttackReport, CioError> {
    use cio_block::blockdev::BLOCK_SIZE;
    use cio_block::BlockError;

    let (_mem, mut store) = blk_crypt_fixture()?;
    let run_a = blk_pattern(1, 16);
    let run_b = blk_pattern(2, 16);
    store.write_run(0, &run_a)?;
    store.write_run(16, &run_b)?;

    // The splice: physical block 3's ciphertext is served for block 19.
    let disk = store.inner_mut().backend_mut().disk_mut();
    let alias = disk.snapshot_block(3)?;
    disk.restore_block(19, &alias)?;

    let mut out = vec![0u8; 16 * BLOCK_SIZE];
    let verdict = store.read_run(16, &mut out);
    let fail_closed = verdict == Err(BlockError::IntegrityViolation)
        && !out
            .chunks_exact(BLOCK_SIZE)
            .zip(run_a.chunks_exact(BLOCK_SIZE))
            .any(|(got, aliased)| got == aliased);

    // The untouched run is unharmed.
    let mut intact = vec![0u8; 16 * BLOCK_SIZE];
    let intact_elsewhere = store.read_run(0, &mut intact).is_ok() && intact == run_a;

    let outcome = if fail_closed && intact_elsewhere {
        Outcome::Detected
    } else {
        Outcome::Undetected
    };
    let audit_ok = seal_blk_verdict(AttackKind::SlotForgery, outcome);
    Ok(BlkAttackReport {
        attack: AttackKind::SlotForgery,
        outcome,
        fail_closed,
        intact_elsewhere,
        audit_ok,
    })
}

/// Mid-batch poison on the block ring (sealed under the
/// [`AttackKind::PayloadDoubleFetch`] code): the host corrupts one
/// ciphertext block in the middle of a committed 16-block run before the
/// guest's batched gather-open. Amortizing one lock and one doorbell over
/// the run must not widen the blast radius of one hostile slot: blocks
/// ahead of the poison (each independently authenticated) are delivered,
/// the poisoned block fails the whole read closed, and not one byte past
/// the failure point reaches the caller — the tail is zeroed, and the
/// run reads clean again only after being rewritten.
///
/// # Errors
///
/// Infrastructure failures only; attack effects are the *result*.
pub fn blk_mid_batch_poison() -> Result<BlkAttackReport, CioError> {
    use cio_block::blockdev::BLOCK_SIZE;
    use cio_block::BlockError;

    const POISONED: usize = 7;
    let (_mem, mut store) = blk_crypt_fixture()?;
    let run = blk_pattern(3, 16);
    store.write_run(0, &run)?;

    store
        .inner_mut()
        .backend_mut()
        .disk_mut()
        .tamper(POISONED as u64, 1234, 0xA5)?;

    let mut out = vec![0u8; 16 * BLOCK_SIZE];
    let verdict = store.read_run(0, &mut out);
    let fail_closed = verdict == Err(BlockError::IntegrityViolation)
        && out[..POISONED * BLOCK_SIZE] == run[..POISONED * BLOCK_SIZE]
        && out[POISONED * BLOCK_SIZE..].iter().all(|&b| b == 0);

    // Fail closed *until rewritten*: a fresh seal of the run recovers it.
    let rewritten = blk_pattern(4, 16);
    store.write_run(0, &rewritten)?;
    let mut again = vec![0u8; 16 * BLOCK_SIZE];
    let intact_elsewhere = store.read_run(0, &mut again).is_ok() && again == rewritten;

    let outcome = if fail_closed && intact_elsewhere {
        Outcome::Detected
    } else {
        Outcome::Undetected
    };
    let audit_ok = seal_blk_verdict(AttackKind::PayloadDoubleFetch, outcome);
    Ok(BlkAttackReport {
        attack: AttackKind::PayloadDoubleFetch,
        outcome,
        fail_closed,
        intact_elsewhere,
        audit_ok,
    })
}

/// Rollback under batching (sealed under the
/// [`AttackKind::SpuriousCompletion`] code): the host snapshots a run's
/// complete generation-1 state — data blocks *and* the tag metadata
/// block — lets the guest overwrite it through the batched path, then
/// restores the stale snapshot wholesale. Every restored block is validly
/// sealed, just old: a freshness defense is the only thing that can catch
/// it. The crypt layer's in-TEE generation counters must classify the
/// read as [`cio_block::BlockError::Rollback`] (not a mere integrity
/// failure), and blocks outside the rolled-back run must stay writable
/// and readable.
///
/// # Errors
///
/// Infrastructure failures only; attack effects are the *result*.
pub fn blk_rollback_under_batching() -> Result<BlkAttackReport, CioError> {
    use cio_block::blockdev::{BlockStore, BLOCK_SIZE};
    use cio_block::BlockError;

    let (_mem, mut store) = blk_crypt_fixture()?;
    let gen1 = blk_pattern(5, 16);
    store.write_run(0, &gen1)?;

    // The host's rollback kit: the full generation-1 state of the run.
    let tag_block = store.blocks(); // tags for LBAs 0..256 live here
    let mut snapshots = Vec::with_capacity(17);
    {
        let disk = store.inner_mut().backend_mut().disk_mut();
        for lba in 0..16u64 {
            snapshots.push((lba, disk.snapshot_block(lba)?));
        }
        snapshots.push((tag_block, disk.snapshot_block(tag_block)?));
    }

    let gen2 = blk_pattern(6, 16);
    store.write_run(0, &gen2)?;

    {
        let disk = store.inner_mut().backend_mut().disk_mut();
        for (lba, snap) in &snapshots {
            disk.restore_block(*lba, snap)?;
        }
    }

    let mut out = vec![0u8; 16 * BLOCK_SIZE];
    let verdict = store.read_run(0, &mut out);
    // The stale-but-valid snapshot must classify as rollback, and the
    // gen-1 plaintext must not be served as current.
    let fail_closed = verdict == Err(BlockError::Rollback) && out != gen1;

    // Blocks outside the rolled-back run still work end to end.
    let fresh = blk_pattern(7, 16);
    store.write_run(32, &fresh)?;
    let mut again = vec![0u8; 16 * BLOCK_SIZE];
    let intact_elsewhere = store.read_run(32, &mut again).is_ok() && again == fresh;

    let outcome = if fail_closed && intact_elsewhere {
        Outcome::Detected
    } else {
        Outcome::Undetected
    };
    let audit_ok = seal_blk_verdict(AttackKind::SpuriousCompletion, outcome);
    Ok(BlkAttackReport {
        attack: AttackKind::SpuriousCompletion,
        outcome,
        fail_closed,
        intact_elsewhere,
        audit_ok,
    })
}

/// Runs the storage adversary suite: all three block-ring scenarios.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn run_blk_suite() -> Result<Vec<BlkAttackReport>, CioError> {
    Ok(vec![
        blk_response_alias()?,
        blk_mid_batch_poison()?,
        blk_rollback_under_batching()?,
    ])
}

/// The live-race scenario for the thread-per-queue host: a hostile OS
/// thread hammers the last queue's RX ring — producer-index forgery and
/// slot offset/len scribbles — *concurrently* with the guest committing
/// batched records and the parallel host's worker threads servicing the
/// queues. Every serial attack in the matrix lands between steps; this
/// one lands mid-round, interleaved with worker execution at the memory
/// layer's actual lock granularity.
///
/// The safety argument is the paper's: the hardened consumer re-validates
/// indices and masks slot fields on every fetch, and all shared-memory
/// access goes through the striped [`cio_mem::GuestMemory`] locks, so a
/// racing writer can only produce the same hostile values a sequential
/// writer could — there is no interleaving that bypasses validation.
/// Returns the classified report plus how many mutation sweeps landed;
/// the workload-survival flag is probed on a flow steered *away* from
/// the attacked queue (the blast radius must stay per-queue).
///
/// # Errors
///
/// Only infrastructure failures; attack effects are the *result*.
pub fn parallel_hostile_mutation(threads: usize) -> Result<(AttackReport, u64), CioError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const QUEUES: usize = 4;
    let opts = WorldOptions {
        queues: QUEUES,
        parallel: threads,
        batch: BatchPolicy::Fixed(8),
        ..attack_opts()
    };
    let mut world = World::new(BoundaryKind::L2CioRing, opts)?;
    // Enough flows that some steer to the attacked queue and some away.
    let conns: Vec<_> = (0..6)
        .map(|_| world.connect(ECHO_PORT))
        .collect::<Result<_, _>>()?;
    for &c in &conns {
        world.establish(c, 20_000)?;
        world.send(c, b"before attack")?;
        let warm = world.recv_exact(c, 13, 20_000)?;
        debug_assert_eq!(&warm, b"before attack");
    }

    let before = world.meter().snapshot();
    let attacked = QUEUES - 1;
    let (_, rx_ring) = world
        .anatomy()
        .cio_queues
        .last()
        .cloned()
        .expect("cio queues");
    let mem = world.guest_memory().clone();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let attacker = std::thread::spawn(move || {
        let host = mem.host();
        let mut sweeps = 0u64;
        while !stop_flag.load(Ordering::Relaxed) {
            // Forge the producer index, then scribble hostile offset/len
            // pairs over every slot — racing whichever worker owns this
            // queue through the striped memory locks.
            let _ = host.write(rx_ring.prod_idx_addr(), &1_000_000u32.to_le_bytes());
            for i in 0..rx_ring.config().slots {
                let slot = rx_ring.slot_addr(i);
                let _ = host.write(slot, &0xFFFF_FFF0u32.to_le_bytes());
                let _ = host.write(slot.add(4), &0xFFFF_FFFFu32.to_le_bytes());
            }
            sweeps += 1;
            std::thread::yield_now();
        }
        sweeps
    });
    // Keep the whole dataplane running while the attacker races it.
    let _ = world.run(200);
    stop.store(true, Ordering::Relaxed);
    let sweeps = attacker.join().expect("attacker thread");

    // Recovery window, then prove liveness on a flow the RSS hash steers
    // away from the attacked queue.
    let _ = world.run(50);
    let mut survived = false;
    if let Some(&probe) = conns
        .iter()
        .find(|&&c| world.conn_lane(c).is_some_and(|l| l != attacked))
    {
        if world.send(probe, b"after attack").is_ok() {
            if let Ok(got) = world.recv_exact(probe, 12, 40_000) {
                survived = got == b"after attack";
            }
        }
    }
    let delta = world.meter().snapshot().delta(&before);
    let outcome = if delta.violations_undetected > 0 {
        Outcome::Undetected
    } else if delta.violations_detected > 0 {
        Outcome::Detected
    } else {
        Outcome::Prevented
    };
    let audit_ok = seal_verdict(world.telemetry(), AttackKind::IndexJump, outcome);
    Ok((
        AttackReport {
            boundary: BoundaryKind::L2CioRing,
            attack: AttackKind::IndexJump,
            outcome,
            workload_survived: survived,
            audit_ok,
        },
        sweeps,
    ))
}

/// Hostile mutation applied to the consumer-published event-index word
/// by [`event_idx_hostile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventIdxAttack {
    /// Freeze the word at its last legitimate value: the host stops
    /// reporting progress, so the producer's kicks are suppressed long
    /// after the consumer went idle. Liveness must come from the
    /// re-poll heartbeat — a missed-then-recovered wakeup, never a hang.
    Stuck,
    /// Jump the word far *behind* the producer's validated shadow: a
    /// wrapped distance outside the `[seen, next]` window, rejected
    /// fail-closed (kick anyway, count the violation).
    Backwards,
    /// Pin the word at `0xFFFF_FFFF`: the classic all-ones scribble,
    /// outside the window for any live ring position.
    MaxValue,
    /// Hammer the word from a hostile OS thread — max-value, backwards,
    /// and zero in rotation — while live parallel workers service the
    /// queues. Racing writers must produce only values a sequential
    /// writer could; no interleaving bypasses the window check.
    Racing,
}

impl std::fmt::Display for EventIdxAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EventIdxAttack::Stuck => "stuck",
            EventIdxAttack::Backwards => "backwards-jump",
            EventIdxAttack::MaxValue => "max-value",
            EventIdxAttack::Racing => "racing",
        };
        f.write_str(s)
    }
}

/// Report from one [`event_idx_hostile`] scenario.
#[derive(Debug, Clone, Copy)]
pub struct EventIdxHostileReport {
    /// The mutation applied.
    pub attack: EventIdxAttack,
    /// Classification against the violation oracle.
    pub outcome: Outcome,
    /// The echo workload still completed correctly afterwards (a
    /// hostile index may delay delivery by at most the re-poll
    /// heartbeat — never lose it).
    pub workload_survived: bool,
    /// Verdict sealed into the verified audit chain.
    pub audit_ok: bool,
    /// Fail-closed rejections of the hostile word during the scenario.
    pub violations_detected: u64,
    /// Kicks legitimately suppressed while the attack ran.
    pub suppressed_kicks: u64,
    /// Doorbells that woke a consumer with nothing to do.
    pub spurious_wakeups: u64,
}

/// The event-idx adversary suite (E23): the suppression machinery adds
/// exactly one host-writable word per ring — the consumer's published
/// progress — and this scenario family proves the §3.2 discipline holds
/// for it. The producer validates the word against its own monotone
/// shadow on every read (wrapped-window containment) and fails *toward*
/// notification: a hostile value can cause a spurious doorbell or a
/// wakeup delayed until the adaptive controller's re-poll heartbeat,
/// never a hang, livelock, or safety violation.
///
/// `Stuck` classifies `Prevented` (the frozen word stays inside the
/// valid window, so nothing needs detecting — the heartbeat restores
/// liveness); `Backwards` and `MaxValue` classify `Detected`
/// (`violations_detected` grows, the kick is rung anyway). `Racing` runs
/// the mutation from a hostile OS thread against a live thread-per-queue
/// host (2 workers x 4 queues) and must classify `Detected` with the
/// blast radius contained to delay, exactly like the serial arms.
///
/// # Errors
///
/// Only infrastructure failures; attack effects are the *result*.
pub fn event_idx_hostile(attack: EventIdxAttack) -> Result<EventIdxHostileReport, CioError> {
    use cio_vring::cioring::{NotifyMode, NotifyPolicy};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const QUEUES: usize = 4;
    let racing = attack == EventIdxAttack::Racing;
    let opts = WorldOptions {
        queues: QUEUES,
        parallel: if racing { 2 } else { 0 },
        notify: NotifyMode::Doorbell,
        notify_policy: NotifyPolicy::Adaptive,
        batch: BatchPolicy::Fixed(8),
        ..attack_opts()
    };
    let mut world = World::new(BoundaryKind::L2CioRing, opts)?;
    let conns: Vec<_> = (0..6)
        .map(|_| world.connect(ECHO_PORT))
        .collect::<Result<_, _>>()?;
    for &c in &conns {
        world.establish(c, 20_000)?;
        world.send(c, b"before attack")?;
        let warm = world.recv_exact(c, 13, 20_000)?;
        debug_assert_eq!(&warm, b"before attack");
    }

    // Attack the queue a live flow actually publishes on, so the
    // producer-side validation is exercised every round.
    let lane = world.conn_lane(conns[0]).expect("victim is live");
    let (tx_ring, rx_ring) = world.anatomy().cio_queues[lane].clone();
    let targets = [tx_ring.event_idx_addr(), rx_ring.event_idx_addr()];
    let mem = world.guest_memory().clone();
    let before = world.meter().snapshot();

    if racing {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let attacker = std::thread::spawn(move || {
            let host = mem.host();
            let hostile = [0xFFFF_FFFFu32, 0x8000_0000, 0];
            let mut i = 0usize;
            while !stop_flag.load(Ordering::Relaxed) {
                for &addr in &targets {
                    let _ = host.write(addr, &hostile[i % hostile.len()].to_le_bytes());
                    i += 1;
                }
                std::thread::yield_now();
            }
        });
        let _ = world.run(200);
        stop.store(true, Ordering::Relaxed);
        attacker.join().expect("attacker thread");
        // One deterministic parting scribble so the classification never
        // depends on which interleavings the OS happened to schedule.
        let host = world.guest_memory().host();
        for &addr in &targets {
            host.write(addr, &0xFFFF_FFFFu32.to_le_bytes())?;
        }
        let _ = world.run(50);
    } else {
        let host = world.guest_memory().host();
        // Freeze targets at whatever the words held after warm-up: the
        // consumer's organic re-arms are overwritten every step, so the
        // producer sees progress reporting stop dead.
        let mut frozen = [0u32; 2];
        for (f, &addr) in frozen.iter_mut().zip(&targets) {
            let mut b = [0u8; 4];
            host.read(addr, &mut b)?;
            *f = u32::from_le_bytes(b);
        }
        for _ in 0..100 {
            for (&addr, &init) in targets.iter().zip(&frozen) {
                let hostile = match attack {
                    EventIdxAttack::Stuck => init,
                    EventIdxAttack::Backwards => {
                        let mut b = [0u8; 4];
                        host.read(addr, &mut b)?;
                        u32::from_le_bytes(b).wrapping_sub(1_000)
                    }
                    EventIdxAttack::MaxValue => 0xFFFF_FFFF,
                    EventIdxAttack::Racing => unreachable!(),
                };
                host.write(addr, &hostile.to_le_bytes())?;
            }
            world.step()?;
        }
    }

    // Liveness probe on the attacked lane itself: delivery may be
    // delayed by the re-poll heartbeat, never lost.
    let mut survived = false;
    if world.send(conns[0], b"after attack").is_ok() {
        if let Ok(got) = world.recv_exact(conns[0], 12, 40_000) {
            survived = got == b"after attack";
        }
    }
    let delta = world.meter().snapshot().delta(&before);
    let outcome = if delta.violations_undetected > 0 {
        Outcome::Undetected
    } else if delta.violations_detected > 0 {
        Outcome::Detected
    } else {
        Outcome::Prevented
    };
    // Sealed under the notification-surface attack class: the event-idx
    // word is notification state, and extending `ALL_ATTACKS` would
    // re-pin every existing matrix artifact.
    let audit_ok = seal_verdict(world.telemetry(), AttackKind::NotificationStorm, outcome);
    Ok(EventIdxHostileReport {
        attack,
        outcome,
        workload_survived: survived,
        audit_ok,
        violations_detected: delta.violations_detected,
        suppressed_kicks: delta.suppressed_kicks,
        spurious_wakeups: delta.spurious_wakeups,
    })
}

/// Report from the [`audit_chain_tamper`] micro-scenario.
#[derive(Debug, Clone, Copy)]
pub struct AuditTamperReport {
    /// Records in the audit chain when it was tampered with.
    pub chain_len: usize,
    /// Whether the untouched chain verified against its head.
    pub clean_ok: bool,
    /// The link whose payload was mutated.
    pub tampered_link: usize,
    /// Whether the verifier flagged exactly that link (`BadDigest`).
    pub flagged_exact: bool,
}

/// Chain-tamper micro-scenario: runs the mid-handshake record poisoning
/// with the event timeline armed — so the chain carries the organic
/// security events (handshake failure, session quarantine) plus the
/// sealed verdict — then mutates a single audit record in a copy of the
/// chain and checks the verifier pinpoints exactly that link — i.e. a
/// forensic log an attacker edited after the fact cannot pass for the
/// one the dataplane wrote.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn audit_chain_tamper() -> Result<AuditTamperReport, CioError> {
    let mut world = World::new(BoundaryKind::L2CioRing, attack_opts())?;
    let victim = world.connect(ECHO_PORT)?;
    let poisoned = step_until_poisoned(&mut world, 0, ECHO_PORT, 3_000)?;
    debug_assert!(poisoned, "no handshake frame appeared to poison");
    let est = world.establish(victim, 3_000);
    debug_assert!(est.is_err(), "poisoned handshake completed");
    seal_verdict(
        world.telemetry(),
        AttackKind::PayloadDoubleFetch,
        Outcome::Detected,
    );

    let head = world.telemetry().audit_head();
    let mut records = world.telemetry().audit_records();
    let clean_ok = verify_audit_chain(&records, &head).is_ok();
    let tampered_link = records.len() / 2;
    records[tampered_link].a ^= 1;
    let flagged_exact = matches!(
        verify_audit_chain(&records, &head),
        Err(AuditViolation::BadDigest { link }) if link == tampered_link as u64
    );
    Ok(AuditTamperReport {
        chain_len: records.len(),
        clean_ok,
        tampered_link,
        flagged_exact,
    })
}

/// Scans a guest-bound RX ring for a pending (produced, not yet consumed)
/// TCP data frame from `from_port` and flips one byte of its TCP payload,
/// patching the TCP checksum afterwards. The patch is the point: a
/// checksum-valid frame sails through the in-TEE netstack, so the
/// corruption lands where a hostile host wants it — past the transport,
/// on the cTLS record layer of one specific session. Returns `true` once
/// a frame was poisoned.
///
/// The inter-step window this exploits is real and deterministic: the
/// backend produces RX records during step `N`, the guest consumes them
/// at the start of step `N+1`, and the host owns the shared area the
/// whole time.
fn poison_pending_rx_record(
    world: &World,
    ring: &CioRing,
    from_port: u16,
) -> Result<bool, CioError> {
    use cio_mem::MemView;
    use cio_netstack::wire::{
        transport_checksum, IpProto, Ipv4Addr, ETH_HDR_LEN, IPV4_HDR_LEN, TCP_HDR_LEN,
    };

    let host = world.guest_memory().host();
    let slots = ring.config().slots;
    let prod = host.read_u32(ring.prod_idx_addr())?;
    let cons = host.read_u32(ring.cons_idx_addr())?;
    let pending = prod.wrapping_sub(cons).min(slots);
    for i in 0..pending {
        let masked = cons.wrapping_add(i) & (slots - 1);
        let slot = ring.slot_addr(masked);
        let offset = host.read_u32(slot)?;
        let len = host.read_u32(slot.add(4))? as usize;
        if len < ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN || len > ring.config().mtu as usize {
            continue;
        }
        let frame_addr = ring.payload_addr(0).add(u64::from(offset));
        let mut frame = vec![0u8; len];
        host.read(frame_addr, &mut frame)?;
        // Ethernet II / IPv4 / TCP, no IP options (the stack's fixed wire
        // format) — anything else is not the record we are hunting.
        if frame[12..14] != [0x08, 0x00] || frame[ETH_HDR_LEN] != 0x45 {
            continue;
        }
        if frame[ETH_HDR_LEN + 9] != 6 {
            continue;
        }
        let total_len = usize::from(u16::from_be_bytes([
            frame[ETH_HDR_LEN + 2],
            frame[ETH_HDR_LEN + 3],
        ]));
        if total_len < IPV4_HDR_LEN + TCP_HDR_LEN || ETH_HDR_LEN + total_len > len {
            continue;
        }
        let src = Ipv4Addr([
            frame[ETH_HDR_LEN + 12],
            frame[ETH_HDR_LEN + 13],
            frame[ETH_HDR_LEN + 14],
            frame[ETH_HDR_LEN + 15],
        ]);
        let dst = Ipv4Addr([
            frame[ETH_HDR_LEN + 16],
            frame[ETH_HDR_LEN + 17],
            frame[ETH_HDR_LEN + 18],
            frame[ETH_HDR_LEN + 19],
        ]);
        let seg_start = ETH_HDR_LEN + IPV4_HDR_LEN;
        let segment = &mut frame[seg_start..ETH_HDR_LEN + total_len];
        let src_port = u16::from_be_bytes([segment[0], segment[1]]);
        let data_off = usize::from(segment[12] >> 4) * 4;
        if src_port != from_port || data_off < TCP_HDR_LEN || data_off >= segment.len() {
            continue;
        }
        // Flip the last payload byte (inside the AEAD tag or ciphertext —
        // either way the record layer must reject it), then forge a valid
        // checksum so the transport does not.
        let last = segment.len() - 1;
        segment[last] ^= 0xA5;
        segment[16] = 0;
        segment[17] = 0;
        let csum = transport_checksum(src, dst, IpProto::Tcp, segment);
        segment[16..18].copy_from_slice(&csum.to_be_bytes());
        host.write(frame_addr, &frame)?;
        return Ok(true);
    }
    Ok(false)
}

/// Steps the world until [`poison_pending_rx_record`] lands on the given
/// queue's RX ring (or the step budget runs out). Returns whether a
/// record was poisoned.
fn step_until_poisoned(
    world: &mut World,
    queue: usize,
    from_port: u16,
    max_steps: usize,
) -> Result<bool, CioError> {
    let (_, rx_ring) = world.anatomy().cio_queues[queue].clone();
    for _ in 0..max_steps {
        world.step()?;
        if poison_pending_rx_record(world, &rx_ring, from_port)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Outcome of one session-poisoning scenario (the session-scale additions
/// to the adversary suite).
#[derive(Debug, Clone, Copy)]
pub struct SessionAttackReport {
    /// Classification: `Detected` when the hostile record was rejected at
    /// the record layer and the victim failed closed; `Undetected` if
    /// corrupted plaintext reached the application or the blast radius
    /// spread beyond the victim.
    pub outcome: Outcome,
    /// The victim's handle answers [`CioError::Session`] afterwards (the
    /// slot was quarantined, never left half-open).
    pub victim_failed_closed: bool,
    /// A session on the *same shard* still echoes correctly afterwards.
    pub neighbor_survived: bool,
    /// `session_failures` metered by the quarantine.
    pub session_failures: u64,
}

/// Mid-handshake poisoning: the hostile host corrupts the ServerHello
/// while it sits in the RX ring during connection establishment. The
/// half-open session must fail closed — [`World::establish`] answers
/// [`CioError::Session`], the slot is reclaimed — and the world must
/// remain fully usable for subsequent sessions.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn session_mid_handshake() -> Result<SessionAttackReport, CioError> {
    let mut world = World::new(BoundaryKind::L2CioRing, attack_opts())?;
    let before = world.meter().snapshot();
    let victim = world.connect(ECHO_PORT)?;
    let poisoned = step_until_poisoned(&mut world, 0, ECHO_PORT, 3_000)?;
    debug_assert!(poisoned, "no ServerHello frame appeared to poison");

    let est = world.establish(victim, 3_000);
    let victim_failed_closed = matches!(est, Err(CioError::Session(_)))
        && matches!(world.send(victim, b"probe"), Err(CioError::Session(_)));

    // The failure is contained to the one session: a fresh handshake on
    // the same world (same rings, same shard) completes and echoes.
    let fresh = world.connect(ECHO_PORT)?;
    world.establish(fresh, 3_000)?;
    world.send(fresh, b"after attack")?;
    let neighbor_survived = world
        .recv_exact(fresh, 12, 4_000)
        .is_ok_and(|got| got == b"after attack");

    let delta = world.meter().snapshot().delta(&before);
    let outcome = classify_session_poison(
        &delta,
        poisoned && victim_failed_closed && neighbor_survived,
    );
    Ok(SessionAttackReport {
        outcome,
        victim_failed_closed,
        neighbor_survived,
        session_failures: delta.session_failures,
    })
}

/// Mid-rekey poisoning: with an aggressively short key-rotation interval,
/// the hostile host corrupts the record that crosses an epoch boundary.
/// Epoch bookkeeping must not soften fail-closed behavior: the victim is
/// quarantined exactly as in steady state, and a fresh session keeps
/// rotating keys on the same world afterwards.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn session_mid_rekey() -> Result<SessionAttackReport, CioError> {
    const REKEY_EVERY: u64 = 4;
    let opts = WorldOptions {
        rekey_interval: Some(REKEY_EVERY),
        ..attack_opts()
    };
    let mut world = World::new(BoundaryKind::L2CioRing, opts)?;
    let victim = world.connect(ECHO_PORT)?;
    world.establish(victim, 3_000)?;

    // Drive the victim across at least one epoch boundary first: the
    // attack must land on a session whose channels have already rotated.
    for i in 0..REKEY_EVERY + 1 {
        let msg = format!("rekey round {i}");
        world.send(victim, msg.as_bytes())?;
        let got = world.recv_exact(victim, msg.len(), 4_000)?;
        debug_assert_eq!(got, msg.as_bytes());
    }
    let epoch = world.session_epoch(victim).unwrap_or(0);
    debug_assert!(epoch >= 1, "victim never rotated (epoch {epoch})");

    let before = world.meter().snapshot();
    // Next echo crosses the boundary again; poison its response in the
    // ring, mid-epoch-switch.
    world.send(victim, b"poisoned round")?;
    let poisoned = step_until_poisoned(&mut world, 0, ECHO_PORT, 3_000)?;
    debug_assert!(poisoned, "no rekey-window frame appeared to poison");
    let _ = world.run(200);

    let victim_failed_closed = matches!(world.send(victim, b"probe"), Err(CioError::Session(_)));

    // A fresh session on the same world still rotates keys and echoes.
    let fresh = world.connect(ECHO_PORT)?;
    world.establish(fresh, 3_000)?;
    let mut fresh_ok = true;
    for i in 0..REKEY_EVERY + 1 {
        let msg = format!("fresh round {i}");
        world.send(fresh, msg.as_bytes())?;
        fresh_ok &= world
            .recv_exact(fresh, msg.len(), 4_000)
            .is_ok_and(|got| got == msg.as_bytes());
    }
    let neighbor_survived = fresh_ok && world.session_epoch(fresh).unwrap_or(0) >= 1;

    let delta = world.meter().snapshot().delta(&before);
    let outcome = classify_session_poison(
        &delta,
        poisoned && victim_failed_closed && neighbor_survived,
    );
    Ok(SessionAttackReport {
        outcome,
        victim_failed_closed,
        neighbor_survived,
        session_failures: delta.session_failures,
    })
}

/// Steady-state churn poisoning on a multiqueue world: many live
/// sessions, one victim's echo response corrupted in its shard's RX ring.
/// Exactly one session must die (fail closed, metered), and the same
/// shard's other sessions must keep echoing — per-session blast radius,
/// not per-shard, not per-world.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn session_churn_poison() -> Result<SessionAttackReport, CioError> {
    const QUEUES: usize = 4;
    let opts = WorldOptions {
        queues: QUEUES,
        ..attack_opts()
    };
    let mut world = World::new(BoundaryKind::L2CioRing, opts)?;
    // Open sessions until some shard holds two (deterministic RSS makes
    // this a fixed, small number).
    let mut sessions: Vec<SessionId> = Vec::new();
    let (mut victim, mut neighbor) = (None, None);
    for _ in 0..16 {
        let c = world.connect(ECHO_PORT)?;
        world.establish(c, 20_000)?;
        if let Some(&twin) = sessions
            .iter()
            .find(|&&s| world.conn_lane(s) == world.conn_lane(c))
        {
            victim = Some(c);
            neighbor = Some(twin);
            break;
        }
        sessions.push(c);
    }
    let victim = victim.expect("no shard collision in 16 sessions");
    let neighbor = neighbor.expect("victim implies neighbor");
    let lane = world.conn_lane(victim).expect("victim is live");

    // Warm both flows.
    for &c in &[victim, neighbor] {
        world.send(c, b"before attack")?;
        let warm = world.recv_exact(c, 13, 20_000)?;
        debug_assert_eq!(&warm, b"before attack");
    }

    let before = world.meter().snapshot();
    // Only the victim has traffic in flight; poison its echo response on
    // the shard's RX ring.
    world.send(victim, b"poison target")?;
    let poisoned = step_until_poisoned(&mut world, lane, ECHO_PORT, 20_000)?;
    debug_assert!(poisoned, "no victim frame appeared to poison");
    let _ = world.run(200);

    let victim_failed_closed = matches!(world.send(victim, b"probe"), Err(CioError::Session(_)));
    let mut neighbor_survived = false;
    if world.send(neighbor, b"after attack").is_ok() {
        if let Ok(got) = world.recv_exact(neighbor, 12, 40_000) {
            neighbor_survived = got == b"after attack";
        }
    }

    let delta = world.meter().snapshot().delta(&before);
    let contained =
        poisoned && victim_failed_closed && neighbor_survived && delta.session_failures == 1;
    let outcome = classify_session_poison(&delta, contained);
    Ok(SessionAttackReport {
        outcome,
        victim_failed_closed,
        neighbor_survived,
        session_failures: delta.session_failures,
    })
}

/// Shared classification for the session-poisoning scenarios: the oracle
/// must show no undetected violations, and containment (victim failed
/// closed, neighbors healthy) upgrades the verdict to `Detected` — the
/// record layer caught the corruption and the session layer contained it.
fn classify_session_poison(delta: &cio_sim::MeterSnapshot, contained: bool) -> Outcome {
    if delta.violations_undetected > 0 || !contained {
        Outcome::Undetected
    } else {
        Outcome::Detected
    }
}

/// The NetVSC offset-forgery micro-scenario (the Figure 3 driver family's
/// signature attack): the host aims a receive descriptor at private guest
/// memory. Returns `(unhardened, hardened)` outcomes.
///
/// # Errors
///
/// Infrastructure failures only.
pub fn netvsc_offset_forgery() -> Result<(Outcome, Outcome), CioError> {
    use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
    use cio_sim::{Clock, CostModel, Meter};
    use cio_vring::netvsc::netvsc_pair;

    let run = |hardened: bool| -> Result<Outcome, CioError> {
        let mem = GuestMemory::new(256, Clock::new(), CostModel::default(), Meter::new());
        mem.share_range(GuestAddr(0), 32 * PAGE_SIZE)?;
        let recv_buf = GuestAddr(64 * PAGE_SIZE as u64);
        let recv_len = 16 * PAGE_SIZE as u32;
        mem.share_range(recv_buf, recv_len as usize)?;
        let secret_addr = GuestAddr(128 * PAGE_SIZE as u64);
        mem.guest().write(secret_addr, b"SEALING-KEY")?;

        let (mut guest, mut host) =
            netvsc_pair(&mem, GuestAddr(0), recv_buf, recv_len, 1514, hardened)?;
        let offset = (secret_addr.0 - recv_buf.0) as u32;
        host.forge_descriptor(offset, 11)?;

        Ok(match guest.recv() {
            Ok(Some(data)) if data == b"SEALING-KEY" => Outcome::Undetected,
            Ok(_) => Outcome::Prevented,
            Err(cio_vring::RingError::HostViolation(_)) => Outcome::Detected,
            Err(e) => return Err(e.into()),
        })
    };
    Ok((run(false)?, run(true)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::ALL_BOUNDARIES;

    #[test]
    fn unhardened_virtio_bleeds_undetected_violations() {
        for attack in [
            AttackKind::CompletionIdOob,
            AttackKind::CompletionLenOverrun,
            AttackKind::SpuriousCompletion,
            AttackKind::ConfigDoubleFetch,
        ] {
            let r = run_scenario(BoundaryKind::L2VirtioUnhardened, attack).unwrap();
            assert_eq!(
                r.outcome,
                Outcome::Undetected,
                "unhardened vs {attack}: {:?}",
                r
            );
        }
    }

    #[test]
    fn hardened_virtio_detects_completion_attacks() {
        for attack in [
            AttackKind::CompletionIdOob,
            AttackKind::CompletionLenOverrun,
            AttackKind::SpuriousCompletion,
        ] {
            let r = run_scenario(BoundaryKind::L2VirtioHardened, attack).unwrap();
            assert_eq!(r.outcome, Outcome::Detected, "hardened vs {attack}: {r:?}");
        }
    }

    #[test]
    fn hardened_virtio_immune_to_config_mutation() {
        let r = run_scenario(
            BoundaryKind::L2VirtioHardened,
            AttackKind::ConfigDoubleFetch,
        )
        .unwrap();
        // Cached config: the mutation has no effect at all.
        assert_eq!(r.outcome, Outcome::Prevented, "{r:?}");
        assert!(r.workload_survived);
    }

    #[test]
    fn cio_ring_has_no_virtio_surfaces() {
        for attack in [
            AttackKind::CompletionIdOob,
            AttackKind::SpuriousCompletion,
            AttackKind::DescChainCorruption,
            AttackKind::ConfigDoubleFetch,
        ] {
            let r = run_scenario(BoundaryKind::DualBoundary, attack).unwrap();
            assert_eq!(r.outcome, Outcome::NoSurface, "{attack}: {r:?}");
        }
    }

    #[test]
    fn cio_ring_detects_index_jump() {
        for b in [
            BoundaryKind::L2CioRing,
            BoundaryKind::DualBoundary,
            BoundaryKind::Tunneled,
        ] {
            let r = run_scenario(b, AttackKind::IndexJump).unwrap();
            assert_eq!(r.outcome, Outcome::Detected, "{b}: {r:?}");
        }
    }

    #[test]
    fn cio_ring_contains_slot_forgery() {
        let r = run_scenario(BoundaryKind::DualBoundary, AttackKind::SlotForgery).unwrap();
        // Masked and clamped: garbage in, bounded garbage out, and the
        // oracle must show zero undetected violations.
        assert_ne!(r.outcome, Outcome::Undetected, "{r:?}");
    }

    #[test]
    fn virtio_used_index_jump_is_undetected_unhardened() {
        let r = run_scenario(BoundaryKind::L2VirtioUnhardened, AttackKind::IndexJump).unwrap();
        assert_eq!(r.outcome, Outcome::Undetected, "{r:?}");
    }

    #[test]
    fn netvsc_leak_is_the_figure3_story() {
        let (unhardened, hardened) = netvsc_offset_forgery().unwrap();
        assert_eq!(unhardened, Outcome::Undetected, "private memory leaks");
        assert_eq!(hardened, Outcome::Detected, "the hardening commit works");
    }

    #[test]
    fn payload_toctou_comparison() {
        let (unhardened, copy, revoke) = payload_toctou().unwrap();
        assert_eq!(unhardened, Outcome::Undetected);
        assert_eq!(copy, Outcome::Prevented);
        assert_eq!(revoke, Outcome::Prevented);
    }

    #[test]
    fn multiqueue_preserves_every_defense() {
        // The §3.2 defenses are per-queue state machines; attacking the
        // last of 4 queues must classify exactly like the single-queue
        // matrix does.
        let designs = [BoundaryKind::L2CioRing, BoundaryKind::DualBoundary];
        let four_queues = WorldOptions {
            queues: 4,
            ..attack_opts()
        };
        let reports = run_matrix(&designs, &four_queues).unwrap();
        assert_eq!(reports.len(), designs.len() * ALL_ATTACKS.len());
        for r in &reports {
            assert_ne!(
                r.outcome,
                Outcome::Undetected,
                "4-queue {} fell to {}",
                r.boundary,
                r.attack
            );
            if r.attack == AttackKind::IndexJump {
                assert_eq!(
                    r.outcome,
                    Outcome::Detected,
                    "index forgery on the last queue must still be caught ({})",
                    r.boundary
                );
            }
        }
    }

    #[test]
    fn mid_handshake_poison_fails_closed() {
        let r = session_mid_handshake().unwrap();
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.victim_failed_closed, "{r:?}");
        assert!(r.neighbor_survived, "{r:?}");
        assert!(r.session_failures >= 1, "{r:?}");
    }

    #[test]
    fn mid_rekey_poison_fails_closed() {
        let r = session_mid_rekey().unwrap();
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.victim_failed_closed, "{r:?}");
        assert!(r.neighbor_survived, "{r:?}");
    }

    #[test]
    fn churn_poison_kills_exactly_one_session() {
        let r = session_churn_poison().unwrap();
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.victim_failed_closed, "{r:?}");
        assert!(r.neighbor_survived, "{r:?}");
        assert_eq!(r.session_failures, 1, "{r:?}");
    }

    #[test]
    fn full_matrix_runs_and_safe_designs_have_no_undetected() {
        let reports = run_matrix(&ALL_BOUNDARIES, &attack_opts()).unwrap();
        assert_eq!(reports.len(), ALL_BOUNDARIES.len() * ALL_ATTACKS.len());
        for r in &reports {
            let safe = matches!(
                r.boundary,
                BoundaryKind::L2CioRing
                    | BoundaryKind::DualBoundary
                    | BoundaryKind::Tunneled
                    | BoundaryKind::L5Host
                    | BoundaryKind::Dda
            );
            if safe {
                assert_ne!(
                    r.outcome,
                    Outcome::Undetected,
                    "safe design {} fell to {}",
                    r.boundary,
                    r.attack
                );
            }
        }
        // And the unhardened baseline must show at least 4 undetected.
        let bled = reports
            .iter()
            .filter(|r| {
                r.boundary == BoundaryKind::L2VirtioUnhardened && r.outcome == Outcome::Undetected
            })
            .count();
        assert!(bled >= 4, "unhardened undetected count = {bled}");
    }

    #[test]
    fn every_verdict_lands_in_the_audit_chain() {
        let reports = run_matrix(&[BoundaryKind::L2CioRing], &attack_opts()).unwrap();
        for r in &reports {
            assert!(
                r.audit_ok,
                "{} vs {}: verdict missing from verified audit chain",
                r.boundary, r.attack
            );
        }
    }

    #[test]
    fn event_idx_stuck_is_prevented_and_recovers() {
        let r = event_idx_hostile(EventIdxAttack::Stuck).unwrap();
        // The frozen word stays inside the valid window: nothing to
        // detect, and the re-poll heartbeat keeps delivery alive — a
        // missed-then-recovered wakeup, never a hang.
        assert_eq!(r.outcome, Outcome::Prevented, "{r:?}");
        assert!(r.workload_survived, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
    }

    #[test]
    fn event_idx_backwards_jump_is_detected() {
        let r = event_idx_hostile(EventIdxAttack::Backwards).unwrap();
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.workload_survived, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
        assert!(r.violations_detected > 0, "{r:?}");
    }

    #[test]
    fn event_idx_max_value_is_detected() {
        let r = event_idx_hostile(EventIdxAttack::MaxValue).unwrap();
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.workload_survived, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
        assert!(r.violations_detected > 0, "{r:?}");
    }

    #[test]
    fn event_idx_racing_under_parallel_workers_is_detected() {
        let r = event_idx_hostile(EventIdxAttack::Racing).unwrap();
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.workload_survived, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
    }

    #[test]
    fn tampered_audit_chain_is_pinpointed() {
        let t = audit_chain_tamper().unwrap();
        assert!(t.chain_len >= 1, "{t:?}");
        assert!(t.clean_ok, "{t:?}");
        assert!(t.flagged_exact, "{t:?}");
    }

    #[test]
    fn blk_response_alias_is_detected() {
        let r = blk_response_alias().unwrap();
        assert_eq!(r.attack, AttackKind::SlotForgery);
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.fail_closed, "{r:?}");
        assert!(r.intact_elsewhere, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
    }

    #[test]
    fn blk_mid_batch_poison_is_detected() {
        let r = blk_mid_batch_poison().unwrap();
        assert_eq!(r.attack, AttackKind::PayloadDoubleFetch);
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.fail_closed, "{r:?}");
        assert!(r.intact_elsewhere, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
    }

    #[test]
    fn blk_rollback_under_batching_is_detected() {
        let r = blk_rollback_under_batching().unwrap();
        assert_eq!(r.attack, AttackKind::SpuriousCompletion);
        assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        assert!(r.fail_closed, "{r:?}");
        assert!(r.intact_elsewhere, "{r:?}");
        assert!(r.audit_ok, "{r:?}");
    }

    #[test]
    fn blk_suite_all_detected() {
        for r in run_blk_suite().unwrap() {
            assert_eq!(r.outcome, Outcome::Detected, "{r:?}");
        }
    }
}
