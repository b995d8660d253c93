//! Steady-state allocation audit for the record dataplane.
//!
//! The one-pass rework threads reusable scratches through the whole
//! record path: cTLS seal into a [`RecordScratch`], produce onto a cio
//! ring, `consume_batch_into` a reused buffer on the host side, and open back
//! into a scratch. After warm-up (buffers grown to their high-water
//! marks), pushing records through that loop must hit the heap zero
//! times. A counting `#[global_allocator]` enforces it, counting only
//! threads that armed the audit flag (the harness main thread lazily
//! allocates channel-parking state at a racy moment); this file holds
//! only this test so no sibling test can arm the flag unexpectedly. The
//! final phase arms the flag on multiple worker threads at once: the
//! thread-per-queue dataplane must stay off the heap from every armed
//! thread simultaneously.
//!
//! The telemetry layer rides the same audit: spans, AEAD cycle
//! attribution, and histogram recording run inside the measured loop, so
//! enabling observability provably costs zero steady-state allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cio::session::{SessionId, SessionTable};
use cio_ctls::{Channel, RecordScratch, SimHooks, RECORD_OVERHEAD};
use cio_host::backend::Admission;
use cio_mem::{CopyPolicy, GuestAddr, GuestMemory, PAGE_SIZE};
use cio_sim::flight::FLIGHT_RING_CAPACITY;
use cio_sim::{Clock, CostModel, Cycles, EventKind, Meter, Stage, Telemetry};
use cio_vring::cioring::{
    CioRing, Consumer, DataMode, NotifyMode, NotifyPolicy, Producer, RingConfig,
};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Armed only on the audited test thread. The libtest harness's main
    /// thread parks on its result channel and lazily allocates parking
    /// state (`mpmc` context + waker entry) at a point that races with
    /// the measured loop; a const-init bool TLS flag (no lazy allocation,
    /// no destructor) keeps those out of the audit without losing any
    /// allocation the dataplane itself performs.
    static AUDITED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

// SAFETY: defers all allocation to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if AUDITED.with(std::cell::Cell::get) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if AUDITED.with(std::cell::Cell::get) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if AUDITED.with(std::cell::Cell::get) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_record_path_does_not_allocate() {
    AUDITED.with(|a| a.set(true));
    // Setup may allocate freely: ring, shared memory, channels.
    let clock = Clock::new();
    let cost = CostModel::default();
    let meter = Meter::new();
    let cfg = RingConfig {
        mtu: 2048,
        mode: DataMode::SharedArea,
        ..RingConfig::default()
    };
    let area_pages = cfg.area_size as usize / PAGE_SIZE;
    let mem = GuestMemory::new(32 + area_pages, clock.clone(), cost.clone(), meter.clone());
    let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64)).unwrap();
    mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())
        .unwrap();
    let mut producer = Producer::new(ring.clone(), mem.guest()).unwrap();
    let mut consumer = Consumer::new(ring, mem.host()).unwrap();
    // Phase 1 runs copy-early endpoints: their private staging grows to
    // the largest run during warm-up, never on the steady-state path.
    producer.set_copy_policy(CopyPolicy::CopyEarly);
    consumer.set_copy_policy(CopyPolicy::CopyEarly);

    // Telemetry rides along: spans, flat attribution (via the cTLS AEAD
    // hooks), and histogram recording all happen inside the measured loop
    // and must stay off the heap too.
    let telemetry = Telemetry::new(clock.clone(), 1);
    producer.set_telemetry(telemetry.clone(), 0);
    consumer.set_telemetry(telemetry.clone(), 0);
    let hooks = SimHooks {
        clock,
        cost,
        meter,
        telemetry: telemetry.clone(),
    };
    let mut guest = Channel::from_secrets([3; 32], [4; 32], true, Some(hooks.clone()));
    let mut host = Channel::from_secrets([3; 32], [4; 32], false, Some(hooks));

    let payload = vec![0x42u8; 1024];
    let mut rec = RecordScratch::new();
    let mut plain = RecordScratch::new();
    let mut blob: Vec<u8> = Vec::new();

    let mut cycle = |rec: &mut RecordScratch, plain: &mut RecordScratch, blob: &mut Vec<u8>| {
        let _span = telemetry.span(0, Stage::GuestSend);
        guest.seal_into(&payload, rec).expect("seal");
        producer.produce(rec.as_slice()).expect("produce");
        let n = consumer
            .consume_batch_into(std::slice::from_mut(blob))
            .expect("consume");
        assert_eq!(n, 1, "record available");
        host.open_into(blob, plain).expect("open");
        telemetry.record_rtt(0, cio_sim::Cycles(blob.len() as u64));
        telemetry.record_batch(0, 1);
        assert_eq!(plain.as_slice(), &payload[..]);
    };

    // Warm-up: grow every reused buffer to its high-water mark.
    for _ in 0..32 {
        cycle(&mut rec, &mut plain, &mut blob);
    }

    let before = allocations();
    for _ in 0..1_000 {
        cycle(&mut rec, &mut plain, &mut blob);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state record send/recv must not touch the heap \
         ({during} allocations over 1000 records)"
    );

    // Phase 2: the seal-in-slot steady state, telemetry still armed. The
    // record is sealed directly into a reserved slot and opened in place
    // out of slot memory — no scratch-to-slot staging, no consume buffer,
    // and still zero heap traffic once warm.
    producer.set_copy_policy(CopyPolicy::InPlace);
    consumer.set_copy_policy(CopyPolicy::InPlace);
    let mut in_slot_cycle = |plain: &mut RecordScratch| {
        let _span = telemetry.span(0, Stage::GuestSend);
        let grant = producer
            .reserve(payload.len() + RECORD_OVERHEAD)
            .expect("slot reservation");
        let n = producer
            .with_slot_mut(&grant, |slot| guest.seal_into_slot(&payload, slot))
            .expect("slot access")
            .expect("seal in slot");
        producer.commit(grant, n).expect("commit");
        consumer
            .consume_in_place(|record| host.open_in_slot(record, plain).expect("open in slot"))
            .expect("consume")
            .expect("record available");
        telemetry.record_batch(0, 1);
        assert_eq!(plain.as_slice(), &payload[..]);
    };
    for _ in 0..32 {
        in_slot_cycle(&mut plain);
    }

    let before = allocations();
    for _ in 0..1_000 {
        in_slot_cycle(&mut plain);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state seal-in-slot send/recv must not touch the heap \
         ({during} allocations over 1000 records)"
    );

    // Phase 3: the same audit over a 4-queue ring set, with records
    // steered to queues by the RSS flow hash exactly as the multi-queue
    // device does. Per-queue reused buffers stand in for per-queue pools;
    // once warm, no queue's path may allocate. This lives in the same
    // test because this file's allocator counter is process-global.
    const QUEUES: usize = 4;
    let mq_clock = Clock::new();
    let mq_telemetry = Telemetry::new(mq_clock.clone(), QUEUES);
    let mut lanes = Vec::new();
    for q in 0..QUEUES {
        let cfg = RingConfig {
            mtu: 2048,
            mode: DataMode::SharedArea,
            ..RingConfig::default()
        };
        let area_pages = cfg.area_size as usize / PAGE_SIZE;
        let mem = GuestMemory::new(
            32 + area_pages,
            mq_clock.clone(),
            CostModel::default(),
            Meter::new(),
        );
        let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64)).unwrap();
        mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
        mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())
            .unwrap();
        let mut producer = Producer::new(ring.clone(), mem.guest()).unwrap();
        let mut consumer = Consumer::new(ring, mem.host()).unwrap();
        producer.set_telemetry(mq_telemetry.clone(), q);
        consumer.set_telemetry(mq_telemetry.clone(), q);
        producer.set_copy_policy(CopyPolicy::CopyEarly);
        consumer.set_copy_policy(CopyPolicy::CopyEarly);
        lanes.push((producer, consumer, Vec::<u8>::new(), mem));
    }
    // Eight synthetic flows, hashed to queues like connect() assigns lanes.
    let flows: Vec<usize> = (0..8u16)
        .map(|i| {
            cio_netstack::rss::flow_hash(
                (cio_netstack::Ipv4Addr([10, 0, 0, 1]), 40_000 + i),
                (cio_netstack::Ipv4Addr([10, 0, 0, 2]), 443),
            ) as usize
                & (QUEUES - 1)
        })
        .collect();

    let mut mq_cycle = |rec: &mut RecordScratch, plain: &mut RecordScratch| {
        for &q in &flows {
            let (producer, consumer, blob, _) = &mut lanes[q];
            let _span = mq_telemetry.span(q, Stage::GuestSend);
            guest.seal_into(&payload, rec).expect("seal");
            producer.produce(rec.as_slice()).expect("produce");
            let n = consumer
                .consume_batch_into(std::slice::from_mut(blob))
                .expect("consume");
            assert_eq!(n, 1, "record available");
            host.open_into(blob, plain).expect("open");
            mq_telemetry.record_batch(q, 1);
            assert_eq!(plain.as_slice(), &payload[..]);
        }
    };
    for _ in 0..32 {
        mq_cycle(&mut rec, &mut plain);
    }

    let before = allocations();
    for _ in 0..250 {
        mq_cycle(&mut rec, &mut plain);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "4-queue steady-state record path must not touch the heap \
         ({during} allocations over 2000 steered records)"
    );

    // Phase 4: the batched steady state, telemetry still armed. Eight
    // records per boundary crossing: one reserved run sealed by one
    // shared-keystream AEAD pass, one index publish, one locked consume
    // pass, one batched open. All per-batch bookkeeping lives in stack
    // arrays; the per-record scratches are grown during warm-up.
    const BATCH: usize = 8;
    let mut outs: Vec<RecordScratch> = (0..BATCH).map(|_| RecordScratch::new()).collect();
    let mut batch_cycle = |outs: &mut [RecordScratch]| {
        let _span = telemetry.span(0, Stage::GuestSend);
        let grant = producer
            .reserve_batch(payload.len() + RECORD_OVERHEAD, BATCH)
            .expect("batch reservation");
        let g = grant.len().min(BATCH);
        let pts: [&[u8]; BATCH] = [&payload; BATCH];
        let mut lens = [0usize; BATCH];
        producer
            .with_batch_mut(&grant, |slots| {
                guest.seal_batch_into_slots(&pts[..g], &mut slots[..g], &mut lens[..g])
            })
            .expect("batch slot access")
            .expect("batch seal");
        producer
            .commit_batch(grant, &lens[..g])
            .expect("batch commit");
        let consumed = consumer
            .consume_batch_in_place(BATCH, |slots| {
                let k = slots.len();
                let mut recs: [&[u8]; BATCH] = [&[]; BATCH];
                for (i, s) in slots.iter().enumerate() {
                    recs[i] = s;
                }
                let mut results: [Result<(), cio_ctls::CtlsError>; BATCH] = [Ok(()); BATCH];
                host.open_batch_in_slots(&recs[..k], &mut outs[..k], &mut results[..k]);
                for r in &results[..k] {
                    assert!(r.is_ok(), "batch open");
                }
            })
            .expect("batch consume");
        assert_eq!(consumed, g, "committed run must drain in one pass");
        for out in outs[..g].iter() {
            assert_eq!(out.as_slice(), &payload[..]);
        }
    };
    for _ in 0..32 {
        batch_cycle(&mut outs);
    }

    let before = allocations();
    for _ in 0..250 {
        batch_cycle(&mut outs);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "batched steady-state send/recv must not touch the heap \
         ({during} allocations over 2000 batched records)"
    );

    // Phase 5: the thread-per-queue steady state. Worker threads arm the
    // audit flag on their own thread-local, warm their queues, rendezvous
    // on a pre-allocated [`Barrier`] (futex-backed mutex + condvar:
    // waiting allocates nothing once faulted in by the warm-up round),
    // then pump records concurrently through one shared lock-striped
    // guest memory — each queue's ring and payload area on private
    // stripes, per-queue lane clocks and telemetry forks, exactly the
    // parallel host's memory discipline. Once warm, no armed worker may
    // touch the heap.
    const THREADS: usize = 2;
    const PQUEUES: usize = 4;
    const REGION_PAGES: usize = 256; // 4 stripes: ring on one, area on its own
    struct LanePipe {
        q: usize,
        producer: Producer<cio_mem::GuestView>,
        consumer: Consumer<cio_mem::HostView>,
        guest: Channel,
        host: Channel,
        plain: RecordScratch,
        fork: Telemetry,
    }
    fn pump(p: &mut LanePipe, payload: &[u8]) {
        let LanePipe {
            q,
            producer,
            consumer,
            guest,
            host,
            plain,
            fork,
        } = p;
        let _span = fork.span(*q, Stage::GuestSend);
        let grant = producer
            .reserve(payload.len() + RECORD_OVERHEAD)
            .expect("slot reservation");
        let n = producer
            .with_slot_mut(&grant, |slot| guest.seal_into_slot(payload, slot))
            .expect("slot access")
            .expect("seal in slot");
        producer.commit(grant, n).expect("commit");
        consumer
            .consume_in_place(|record| host.open_in_slot(record, plain).expect("open in slot"))
            .expect("consume")
            .expect("record available");
        fork.record_batch(*q, 1);
        assert_eq!(plain.as_slice(), payload);
    }

    let par_clock = Clock::new();
    let par_telemetry = Telemetry::new(par_clock.clone(), PQUEUES);
    let shared = GuestMemory::new(
        PQUEUES * REGION_PAGES,
        par_clock,
        CostModel::default(),
        Meter::new(),
    );
    let mut shards: Vec<Vec<LanePipe>> = (0..THREADS).map(|_| Vec::new()).collect();
    for q in 0..PQUEUES {
        let qclock = Clock::new();
        let qmem = shared.with_clock(qclock.clone());
        let ring_base = GuestAddr((q * REGION_PAGES * PAGE_SIZE) as u64);
        let area_base = GuestAddr(((q * REGION_PAGES + 64) * PAGE_SIZE) as u64);
        let cfg = RingConfig {
            mtu: 2048,
            mode: DataMode::SharedArea,
            ..RingConfig::default()
        };
        let ring = CioRing::new(cfg, ring_base, area_base).unwrap();
        shared.share_range(ring_base, ring.ring_bytes()).unwrap();
        shared.share_range(area_base, ring.area_bytes()).unwrap();
        let fork = par_telemetry.fork(qclock.clone());
        let mut producer = Producer::new(ring.clone(), qmem.guest()).unwrap();
        let mut consumer = Consumer::new(ring, qmem.host()).unwrap();
        producer.set_telemetry(fork.clone(), q);
        consumer.set_telemetry(fork.clone(), q);
        let hooks = SimHooks {
            clock: qclock,
            cost: CostModel::default(),
            meter: Meter::new(),
            telemetry: fork.clone(),
        };
        let seed = (q as u8).wrapping_mul(29);
        shards[q % THREADS].push(LanePipe {
            q,
            producer,
            consumer,
            guest: Channel::from_secrets(
                [seed.wrapping_add(3); 32],
                [seed.wrapping_add(4); 32],
                true,
                Some(hooks.clone()),
            ),
            host: Channel::from_secrets(
                [seed.wrapping_add(3); 32],
                [seed.wrapping_add(4); 32],
                false,
                Some(hooks),
            ),
            plain: RecordScratch::new(),
            fork,
        });
    }

    let barrier = std::sync::Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        let barrier = &barrier;
        let payload = &payload;
        for mut shard in shards {
            s.spawn(move || {
                // Warm-up: high-water marks, thread-local and sync state
                // all faulted in before the audit arms.
                for _ in 0..32 {
                    for p in &mut shard {
                        pump(p, payload);
                    }
                }
                barrier.wait();
                AUDITED.with(|a| a.set(true));
                barrier.wait();
                for _ in 0..250 {
                    for p in &mut shard {
                        pump(p, payload);
                    }
                }
                AUDITED.with(|a| a.set(false));
                barrier.wait();
            });
        }
        barrier.wait(); // workers warm
        let before = allocations();
        barrier.wait(); // workers armed, measured loops start
        barrier.wait(); // measured loops done
        let during = allocations() - before;
        assert_eq!(
            during, 0,
            "thread-per-queue steady state must not touch the heap \
             ({during} allocations over 2000 records across {THREADS} armed workers)"
        );
    });

    // Phase 6: steady-state session churn. The control plane joins the
    // audit: opening a session is a pooled-state insert into the
    // RSS-sharded [`SessionTable`], every record resolves its
    // generational handle through the counted O(1) hot-path lookup, and
    // closing reclaims the slot and hands the keyed state back to the
    // pool. After warm-up (shard slot arrays, free lists, pooled
    // channels and scratches all at their high-water marks), a complete
    // open → send → close lifecycle must never touch the heap — churn
    // is metered steady state, not an allocation event.
    const CHURN_SESSIONS: usize = 8;
    const CHURN_SHARDS: usize = 4;
    struct PooledSession {
        guest: Channel,
        host: Channel,
        rec: RecordScratch,
        plain: RecordScratch,
    }
    let mut pool: Vec<PooledSession> = (0..CHURN_SESSIONS)
        .map(|i| {
            let s = (i as u8).wrapping_mul(17);
            PooledSession {
                guest: Channel::from_secrets(
                    [s.wrapping_add(5); 32],
                    [s.wrapping_add(6); 32],
                    true,
                    None,
                ),
                host: Channel::from_secrets(
                    [s.wrapping_add(5); 32],
                    [s.wrapping_add(6); 32],
                    false,
                    None,
                ),
                rec: RecordScratch::new(),
                plain: RecordScratch::new(),
            }
        })
        .collect();
    let mut table: SessionTable<PooledSession> = SessionTable::new(CHURN_SHARDS);
    let mut handles: Vec<SessionId> = Vec::with_capacity(CHURN_SESSIONS);
    let mut churn_cycle = |table: &mut SessionTable<PooledSession>,
                           pool: &mut Vec<PooledSession>,
                           handles: &mut Vec<SessionId>,
                           blob: &mut Vec<u8>| {
        // Open: every pooled session becomes a live flow-table entry.
        for q in 0..CHURN_SESSIONS {
            let sess = pool.pop().expect("session pool");
            handles.push(table.insert(q & (CHURN_SHARDS - 1), sess));
        }
        // Send one record per live session through the shared lane; the
        // handle resolves via the counted single-probe lookup.
        for &id in handles.iter() {
            let sess = table.get_mut(id).expect("live handle");
            let _span = telemetry.span(0, Stage::GuestSend);
            sess.guest.seal_into(&payload, &mut sess.rec).expect("seal");
            producer.produce(sess.rec.as_slice()).expect("produce");
            let n = consumer
                .consume_batch_into(std::slice::from_mut(blob))
                .expect("consume");
            assert_eq!(n, 1, "record available");
            sess.host.open_into(blob, &mut sess.plain).expect("open");
            assert_eq!(sess.plain.as_slice(), &payload[..]);
        }
        // Close: reclaim every slot; the keyed state returns to the pool.
        for id in handles.drain(..) {
            pool.push(table.remove(id).expect("live handle"));
        }
    };
    for _ in 0..32 {
        churn_cycle(&mut table, &mut pool, &mut handles, &mut blob);
    }

    let before = allocations();
    for _ in 0..250 {
        churn_cycle(&mut table, &mut pool, &mut handles, &mut blob);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state session churn (open → send → close) must not touch \
         the heap ({during} allocations over 2000 session lifecycles)"
    );
    // The table's own accounting confirms reclamation: thousands of
    // lifecycles, slot capacity still bounded by peak concurrency.
    assert!(table.created() >= 2_000);
    assert_eq!(table.created(), table.reclaimed());
    assert!(table.capacity() as u64 <= table.peak_live());
    assert_eq!(table.probes(), table.lookups());

    // Phase 7: the whole observation domain armed — instruments, event
    // timeline, and a worker fork absorbed every cycle join the audit.
    // Recording an event is a mutex lock plus a write into a preallocated
    // ring; absorbing a fork drains its rings into the parent's. Once
    // warm, none of it touches the heap.
    let obs_clock = Clock::new();
    let observed = Telemetry::with_arming(&obs_clock, 1, true, true);
    let fork = observed.fork(obs_clock.clone());
    let mut observe_cycle = |plain: &mut RecordScratch| {
        let _span = observed.span(0, Stage::GuestSend);
        let grant = producer
            .reserve(payload.len() + RECORD_OVERHEAD)
            .expect("slot reservation");
        let n = producer
            .with_slot_mut(&grant, |slot| guest.seal_into_slot(&payload, slot))
            .expect("slot access")
            .expect("seal in slot");
        producer.commit(grant, n).expect("commit");
        observed.record(0, EventKind::SealOk, payload.len() as u64, 1);
        consumer
            .consume_in_place(|record| host.open_in_slot(record, plain).expect("open in slot"))
            .expect("consume")
            .expect("record available");
        observed.record(0, EventKind::OpenOk, payload.len() as u64, 0);
        // The host half of the cycle lands in the worker fork, and the
        // absorb drains it inside the measured loop.
        fork.record_batch(0, 1);
        fork.record(0, EventKind::BatchCommit, 1, 0);
        fork.record(0, EventKind::SessionQuarantine, 7, 0);
        observed.absorb(&fork);
        observed.record_rtt(0, Cycles(1_000));
        obs_clock.advance(Cycles(50_000));
        assert_eq!(plain.as_slice(), &payload[..]);
    };
    for _ in 0..32 {
        observe_cycle(&mut plain);
    }

    let before = allocations();
    for _ in 0..250 {
        observe_cycle(&mut plain);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady state with timeline + fork/absorb armed must not touch the \
         heap ({during} allocations over 250 observed records)"
    );
    // 282 cycles x 4 events overflowed the 1024-slot ring mid-audit, so
    // the zero-allocation figure covers eviction too.
    assert_eq!(
        observed.total_dropped(),
        282 * 4 - FLIGHT_RING_CAPACITY as u64
    );

    // The host-visibility tally is not instrumentation — it is always on,
    // once per frame — so it rides the audit unconditionally: after the
    // first sighting of each kind, a record is one lock and one in-place
    // update.
    let tally = cio_host::Recorder::new();
    let kinds = ["frame.tx", "frame.rx", "tlp", "blk.read", "sock.send"];
    for kind in kinds {
        tally.record(kind, 36);
    }
    let before = allocations();
    for i in 0..100_000usize {
        tally.record(kinds[i % kinds.len()], 36);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "the host-visibility tally must not touch the heap ({during} \
         allocations over 100000 records)"
    );
    assert_eq!(tally.summary().events, 100_005);

    // Phase 8: the adaptive notify controller armed. An event-idx ring
    // plus the hosts' [`Admission`] is the full notification economy: the
    // consumer re-arms by publishing its progress on every empty drain,
    // the producer window-validates the (host-writable) event word and
    // suppresses provably-redundant kicks, the admission turns door words
    // and drain sizes into service decisions. Arming, suppressing,
    // ringing, taking the doorbell, and the gate's hot/cold bookkeeping
    // are all writes into preexisting ring words and fixed-size
    // controller state — zero heap traffic once warm.
    let notify_meter = Meter::new();
    let notify_clock = Clock::new();
    let cfg = RingConfig {
        mtu: 2048,
        mode: DataMode::SharedArea,
        notify: NotifyMode::EventIdx,
        ..RingConfig::default()
    };
    let area_pages = cfg.area_size as usize / PAGE_SIZE;
    let mem = GuestMemory::new(
        32 + area_pages,
        notify_clock,
        CostModel::default(),
        notify_meter.clone(),
    );
    let ring = CioRing::new(cfg, GuestAddr(0), GuestAddr(16 * PAGE_SIZE as u64)).unwrap();
    mem.share_range(GuestAddr(0), ring.ring_bytes()).unwrap();
    mem.share_range(GuestAddr(16 * PAGE_SIZE as u64), ring.area_bytes())
        .unwrap();
    let mut admission = Admission::new(mem.host(), NotifyPolicy::Adaptive, [&ring].into_iter());
    let mut producer = Producer::new(ring.clone(), mem.guest()).unwrap();
    let mut consumer = Consumer::new(ring, mem.host()).unwrap();
    producer.set_telemetry(telemetry.clone(), 0);
    consumer.set_telemetry(telemetry.clone(), 0);
    let mut notify_cycle = |plain: &mut RecordScratch| {
        // Two publishes, one doorbell: the first kick crosses the armed
        // event index and rings; the second finds the consumer provably
        // awake and is suppressed.
        for _ in 0..2 {
            let grant = producer
                .reserve(payload.len() + RECORD_OVERHEAD)
                .expect("slot reservation");
            let n = producer
                .with_slot_mut(&grant, |slot| guest.seal_into_slot(&payload, slot))
                .expect("slot access")
                .expect("seal in slot");
            producer.commit(grant, n).expect("commit");
            producer.kick();
        }
        // Host side: the admission reads the door word and admits the
        // queue, and the empty drain at the end re-arms the event index.
        assert!(
            admission.admit(0, true).is_some(),
            "admission refused live work"
        );
        let mut moved = 0usize;
        while consumer
            .consume_in_place(|record| host.open_in_slot(record, plain).expect("open in slot"))
            .expect("consume")
            .is_some()
        {
            moved += 1;
        }
        admission.observe(0, moved);
        assert_eq!(moved, 2, "both published records drained");
        // One empty follow-up pass exercises the controller's idle
        // bookkeeping (hot re-poll or budgeted skip) — also heap-free.
        if admission.admit(0, false).is_some() {
            admission.observe(0, 0);
        }
        assert_eq!(plain.as_slice(), &payload[..]);
    };
    for _ in 0..32 {
        notify_cycle(&mut plain);
    }

    let before = allocations();
    for _ in 0..250 {
        notify_cycle(&mut plain);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady state with the adaptive notify controller armed must not \
         touch the heap ({during} allocations over 500 gated records)"
    );
    let snap = notify_meter.snapshot();
    assert!(snap.suppressed_kicks > 0, "event-idx never suppressed");
    assert!(snap.notifications_sent > 0, "event-idx never rang");
    assert_eq!(snap.violations_detected, 0, "honest run flagged hostile");

    // Phase 9: the confidential KV plane — steady-state churn over the
    // batched block path. A full put_sealed → service → flush →
    // get_sealed_into round is the E24 ingest loop end to end: cTLS
    // records opened into reused scratches, the segment sealed directly
    // into ring-slot memory as one batched run, event-idx-gated host
    // service, and gather-open reads back out of response slots. The log
    // wraps and evicts as it churns; the index updates live entries in
    // place and staged-key buffers recycle through a pool — so once the
    // working set is warm, a complete KV lifecycle (including wraps)
    // never touches the heap.
    use cio::kv::{KvConfig, KvWorld};
    const KV_KEYS: usize = 8;
    // A small per-lane disk (~250 logical blocks) so the log wraps every
    // ~15 flush rounds: eviction is part of the steady state under audit.
    let mut kv = KvWorld::new(
        KvConfig::batched(8).with_disk_blocks(256),
        CostModel::default(),
    )
    .expect("kv world");
    let kv_payload = vec![0x6Bu8; 2048];
    let mut kv_out: Vec<u8> = Vec::new();
    let kv_keys: Vec<Vec<u8>> = (0..KV_KEYS)
        .map(|i| format!("churn-key-{i}").into_bytes())
        .collect();
    let kv_cycle = |kv: &mut KvWorld, out: &mut Vec<u8>, keys: &[Vec<u8>]| {
        for key in keys.iter() {
            kv.put_sealed(key, &kv_payload).expect("put sealed");
        }
        kv.service().expect("service");
        kv.flush().expect("flush");
        for key in keys.iter() {
            assert!(
                kv.get_sealed_into(key, out).expect("get sealed"),
                "live key"
            );
            assert_eq!(out.as_slice(), &kv_payload[..]);
        }
    };
    for _ in 0..32 {
        kv_cycle(&mut kv, &mut kv_out, &kv_keys);
    }
    assert!(
        kv.wraps() > 0,
        "warm-up must already exercise the wrap path"
    );

    let before = allocations();
    for _ in 0..250 {
        kv_cycle(&mut kv, &mut kv_out, &kv_keys);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state KV churn over the batched block path must not touch \
         the heap ({during} allocations over 250 put/flush/get rounds)"
    );

    // Phase 10: in-band rekeying. Every fourth record each direction
    // derives its next traffic key (HKDF extract + expand) on the
    // dataplane, so sealing and opening across key generations must stay
    // off the heap too.
    let mut tx = Channel::from_secrets([7; 32], [8; 32], true, None);
    let mut rx = Channel::from_secrets([7; 32], [8; 32], false, None);
    tx.set_rekey_interval(Some(4));
    rx.set_rekey_interval(Some(4));
    let mut rekey_cycle = |wire: &mut RecordScratch, opened: &mut RecordScratch| {
        tx.seal_into(&payload, wire).expect("seal");
        rx.open_into(wire.as_slice(), opened).expect("open");
        assert_eq!(opened.as_slice(), &payload[..]);
    };
    for _ in 0..8 {
        rekey_cycle(&mut rec, &mut plain);
    }
    let before = allocations();
    for _ in 0..16 {
        rekey_cycle(&mut rec, &mut plain);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "sealing and opening across in-band rekeys must not touch the heap \
         ({during} allocations over 16 records, 4 key generations)"
    );
    assert_eq!(
        tx.tx_generation(),
        5,
        "the audited records crossed 4 rekeys"
    );

    // Phase 11: the cio-ring guest device at the guest↔host frame limit.
    // Frames of FRAME_LIMIT bytes cross both ways in runs of four; a
    // receive swaps the caller's buffer for the device's, so once the
    // buffers in circulation have grown to the limit neither direction
    // touches the heap.
    use cio::dev::CioRingDevice;
    use cio::world::{BatchPolicy, FRAME_LIMIT};
    use cio_netstack::NetDevice;
    let cfg = RingConfig {
        slots: 16,
        mtu: FRAME_LIMIT as u32,
        mode: DataMode::SharedArea,
        area_size: (16 * FRAME_LIMIT) as u32,
        ..RingConfig::default()
    };
    let area = cfg.area_size as usize;
    let dev_mem = GuestMemory::new(
        4 + 2 * area / PAGE_SIZE,
        Clock::new(),
        CostModel::default(),
        Meter::new(),
    );
    let ring_at = |i: u64| {
        let base = GuestAddr(i * PAGE_SIZE as u64);
        let payload = GuestAddr((4 * PAGE_SIZE + i as usize * area) as u64);
        let ring = CioRing::new(cfg.clone(), base, payload).unwrap();
        dev_mem.share_range(base, ring.ring_bytes()).unwrap();
        dev_mem.share_range(payload, ring.area_bytes()).unwrap();
        ring
    };
    let (tx_ring, rx_ring) = (ring_at(0), ring_at(1));
    let mut dev = CioRingDevice::new(vec![(
        Producer::new(tx_ring.clone(), dev_mem.guest()).unwrap(),
        Consumer::new(rx_ring.clone(), dev_mem.guest()).unwrap(),
    )])
    .unwrap();
    dev.set_batch_policy(BatchPolicy::Fixed(4));
    assert_eq!(dev.mtu() + 14, FRAME_LIMIT);
    let mut host_tx = Consumer::new(tx_ring, dev_mem.host()).unwrap();
    let mut host_rx = Producer::new(rx_ring, dev_mem.host()).unwrap();
    let frame = vec![0xC5u8; FRAME_LIMIT];
    let mut got = Vec::new();
    let mut device_cycle = |got: &mut Vec<u8>| {
        for _ in 0..4 {
            dev.transmit(&frame).expect("room on the ring");
            host_rx.stage(&frame).expect("room on the ring");
        }
        host_rx.publish().expect("publish");
        let drained = host_tx
            .consume_batch_in_place(4, |slots| assert!(slots.iter().all(|s| **s == frame[..])))
            .expect("consume");
        assert_eq!(drained, 4);
        for _ in 0..4 {
            assert!(dev.receive(got), "frame delivered");
            assert_eq!(got.len(), FRAME_LIMIT);
        }
        assert!(!dev.receive(got));
    };
    for _ in 0..8 {
        device_cycle(&mut got);
    }
    let before = allocations();
    for _ in 0..250 {
        device_cycle(&mut got);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "the cio-ring device must move frame-limit frames off the heap \
         ({during} allocations over 2000 frames)"
    );
}
