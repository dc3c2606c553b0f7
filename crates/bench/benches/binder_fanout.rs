//! Perf-regression harness for the zero-copy hot paths (ISSUE 1):
//! Binder fast-path transactions, shared telemetry fan-out, and the
//! streaming codec.
//!
//! The seed implementations these paths replaced (deep-clone
//! parcels, two-pass `BTreeMap` handle translation, `Vec::drain`
//! codec buffering, per-client per-message telemetry deep clones) no
//! longer exist in the tree, so each baseline is reconstructed here
//! from the seed's algorithm:
//!
//! - `echo_roundtrip/seed_replica` runs the *same* driver dispatch
//!   as the optimized bench and adds exactly the per-hop value-vector
//!   copies and object-reference scans the seed's `translate_parcel`
//!   performed, plus a service-side deep clone in place of the COW
//!   `Rc` bump. The ratio therefore isolates the copying the fast
//!   path removed (the seed's slower `BTreeMap` handle resolution is
//!   *not* charged to the baseline — the ratio is conservative).
//! - `codec_decode/drain` is a field-for-field replica of the seed
//!   parser whose consumed bytes were removed with `buf.drain(..)`,
//!   memmoving the whole tail once per frame (O(n²) per burst).
//! - `fanout/deep_n*` replicates the seed's `MavProxy::step` loop:
//!   every client gets `vfc.transform_telemetry(msg, pos)` (an owned
//!   deep clone per message) pushed into a per-client outbox held in
//!   the same `BTreeMap<String, _>` shape the proxy uses.
//!
//! Results are written to `BENCH_binder_fanout.json` (override with
//! `ANDRONE_BENCH_OUT`) including the speedup ratios the acceptance
//! criteria gate on: ≥2× on the Binder echo round-trip, ≥3× on the
//! 8-client fan-out and ≥1.8× on cached parcel translation. Each
//! gate reads the median of at least 11 alternating-pair ratios
//! (both sides timed back to back, the leading side flipping every
//! pair); the ratios of the per-bench medians are reported ungated.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the pair-ratio gates time host wall-clock with Instant; no simulation state reads it"
)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use androne::binder::{
    add_service, get_service, BinderDriver, BinderError, BinderService, PValue, Parcel,
    ServiceManager, TransactionContext,
};
use androne::container::DeviceNamespaceId;
use androne::flight::{CommandWhitelist, Geofence, MavProxy, Vfc};
use androne::hal::GeoPoint;
use androne::mavlink::crc::{accumulate, CRC_INIT};
use androne::mavlink::{FlightMode, Frame, MavError, Message, Parser, STX};
use androne::simkern::{ContainerId, Euid, Pid};
use criterion::{black_box, Criterion};
use serde_json::Value;

// ---------------------------------------------------------------
// Binder: echo round-trip and parcel clone/translate
// ---------------------------------------------------------------

/// Optimized echo: `data.clone()` is an `Rc` bump under COW.
struct Echo;

impl BinderService for Echo {
    fn on_transact(
        &mut self,
        _code: u32,
        data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        Ok(data.clone())
    }
}

/// Seed-replica echo: rebuilds the reply value by value, which is
/// what `Parcel::clone` cost before the storage became shared.
struct DeepEcho;

impl BinderService for DeepEcho {
    fn on_transact(
        &mut self,
        _code: u32,
        data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        Ok(deep_copy(data))
    }
}

/// A sink for translate benches: the reply carries no payload, so
/// the measured work is request-side translation plus dispatch.
struct Sink;

impl BinderService for Sink {
    fn on_transact(
        &mut self,
        _code: u32,
        _data: &Parcel,
        _ctx: &TransactionContext,
        _driver: &mut BinderDriver,
    ) -> Result<Parcel, BinderError> {
        Ok(Parcel::new())
    }
}

/// Per-value parcel copy, as the seed's `Vec<PValue>` clone did it.
fn deep_copy(p: &Parcel) -> Parcel {
    let mut out = Parcel::new();
    for v in p.values() {
        match v {
            PValue::I32(x) => out.push_i32(*x),
            PValue::I64(x) => out.push_i64(*x),
            PValue::F64(x) => out.push_f64(*x),
            PValue::Str(s) => out.push_str(s.clone()),
            PValue::Blob(b) => out.push_blob(b.clone()),
            PValue::Binder(h) => out.push_binder(*h),
            PValue::Fd(fd) => out.push_fd(*fd),
        };
    }
    out
}

/// The seed's per-hop translation: copy the value vector, then scan
/// it for object references (two passes: collect, then rewrite).
fn seed_translate_hop(p: &Parcel) -> Parcel {
    let copied = deep_copy(p);
    let objrefs: Vec<(usize, u32)> = copied
        .values()
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v {
            PValue::Binder(h) | PValue::Fd(h) => Some((i, *h)),
            _ => None,
        })
        .collect();
    black_box(objrefs);
    copied
}

/// A realistic camera-service request: code, service name, capture
/// timestamp, and a small parameter blob.
fn make_request() -> Parcel {
    let mut p = Parcel::new();
    p.push_i32(7)
        .push_str("camera")
        .push_i64(1_234_567_890)
        .push_blob(vec![0u8; 64]);
    p
}

struct BinderFixture {
    driver: BinderDriver,
    client: Pid,
    echo: u32,
    deep_echo: u32,
    sink: u32,
    /// Handles the client may embed in parcels (objref translation).
    extra: [u32; 4],
    /// The seed's handle tables for `extra`: `BTreeMap`s in both
    /// directions.
    seed_src: BTreeMap<u32, u64>,
    seed_dst: BTreeMap<u64, u32>,
}

fn binder_fixture() -> BinderFixture {
    let mut driver = BinderDriver::new();
    let server = Pid(1);
    let client = Pid(2);
    driver.open(server, Euid(1000), ContainerId(1), DeviceNamespaceId(1));
    driver.open(client, Euid(10_000), ContainerId(1), DeviceNamespaceId(1));
    let sm = ServiceManager::new(server);
    let sm_handle = driver
        .create_node(server, Rc::new(RefCell::new(sm)))
        .unwrap();
    driver.set_context_manager(server, sm_handle).unwrap();
    for (name, svc) in [
        (
            "echo",
            Rc::new(RefCell::new(Echo)) as Rc<RefCell<dyn BinderService>>,
        ),
        ("deep_echo", Rc::new(RefCell::new(DeepEcho))),
        ("sink", Rc::new(RefCell::new(Sink))),
    ] {
        let node = driver.create_node(server, svc).unwrap();
        add_service(&mut driver, server, name, node).unwrap();
    }
    let echo = get_service(&mut driver, client, "echo").unwrap();
    let deep_echo = get_service(&mut driver, client, "deep_echo").unwrap();
    let sink = get_service(&mut driver, client, "sink").unwrap();
    // Extra client-side handles so translate benches can embed
    // object references in parcels.
    let mut extra = [0u32; 4];
    for slot in &mut extra {
        let node = driver
            .create_node(server, Rc::new(RefCell::new(Sink)))
            .unwrap();
        let name = format!("extra{node:?}");
        add_service(&mut driver, server, &name, node).unwrap();
        *slot = get_service(&mut driver, client, &name).unwrap();
    }
    let mut fx = BinderFixture {
        driver,
        client,
        echo,
        deep_echo,
        sink,
        extra,
        seed_src: extra.iter().map(|&h| (h, u64::from(h) + 100)).collect(),
        seed_dst: extra
            .iter()
            .map(|&h| (u64::from(h) + 100, h + 50))
            .collect(),
    };
    // Warm the translation cache once before measuring.
    translate_op(&mut fx, false);
    fx
}

/// One echo round-trip. Optimized (`slow = false`): the scalar fast
/// path skips translation and the service reply is a COW `Rc` bump.
/// Seed replica: the same dispatch plus the per-hop copies and scans
/// the seed's `translate_parcel` performed (request hop and reply
/// hop) and a deep clone in the service.
fn echo_op(fx: &mut BinderFixture, slow: bool) {
    if slow {
        let p = seed_translate_hop(&make_request());
        let reply = fx.driver.transact(fx.client, fx.deep_echo, 1, p).unwrap();
        black_box(seed_translate_hop(&reply));
    } else {
        let p = make_request();
        black_box(fx.driver.transact(fx.client, fx.echo, 1, p).unwrap());
    }
}

/// A request carrying the fixture's extra handles as object
/// references.
fn objref_request(fx: &BinderFixture) -> Parcel {
    let mut p = Parcel::new();
    p.push_i32(42);
    for h in fx.extra {
        p.push_binder(h);
    }
    p
}

/// One objref-carrying transaction. Optimized: the driver memoizes
/// (src, dst) handle pairs, so a repeat translation is one cache hit
/// per reference. Seed replica: the per-hop copy and two-pass scan,
/// each handle resolved through both seed `BTreeMap`s, on top of the
/// same dispatch.
fn translate_op(fx: &mut BinderFixture, slow: bool) {
    let mut p = objref_request(fx);
    if slow {
        p = seed_translate_hop(&p);
        // Second pass of the seed's two-pass rewrite.
        let rewritten: Vec<u32> = p
            .values()
            .iter()
            .filter_map(|v| match v {
                PValue::Binder(h) => {
                    let node = fx.seed_src.get(h)?;
                    fx.seed_dst.get(node).copied()
                }
                _ => None,
            })
            .collect();
        black_box(&rewritten);
        p.push_i32(rewritten.len() as i32);
    }
    black_box(fx.driver.transact(fx.client, fx.sink, 1, p).unwrap());
}

fn bench_binder(c: &mut Criterion) {
    let mut fx = binder_fixture();
    c.bench_function("echo_roundtrip/optimized", |b| {
        b.iter(|| echo_op(&mut fx, false))
    });
    c.bench_function("echo_roundtrip/seed_replica", |b| {
        b.iter(|| echo_op(&mut fx, true))
    });

    // Parcel clone: COW Rc bump vs the seed's per-value rebuild.
    let template = {
        let mut p = make_request();
        p.push_str("device-ns=vd1").push_f64(3.25);
        p
    };
    c.bench_function("parcel_clone/cow", |b| {
        b.iter(|| black_box(template.clone()))
    });
    c.bench_function("parcel_clone/deep", |b| {
        b.iter(|| black_box(deep_copy(&template)))
    });

    c.bench_function("parcel_translate/objref_cached", |b| {
        b.iter(|| translate_op(&mut fx, false))
    });
    c.bench_function("parcel_translate/objref_seed_tables", |b| {
        b.iter(|| translate_op(&mut fx, true))
    });
}

// ---------------------------------------------------------------
// Codec: cursor parser vs the seed's drain-based parser
// ---------------------------------------------------------------

/// Replica of the seed parser: consumed bytes are removed from the
/// front with `drain`, memmoving the entire tail once per frame.
#[derive(Default)]
struct DrainParser {
    buf: Vec<u8>,
    dropped: u64,
}

impl DrainParser {
    fn push(&mut self, bytes: &[u8]) -> Vec<Frame> {
        self.buf.extend_from_slice(bytes);
        let mut frames = Vec::new();
        loop {
            match self.buf.iter().position(|&b| b == STX) {
                Some(0) => {}
                Some(i) => {
                    self.buf.drain(..i);
                }
                None => {
                    self.buf.clear();
                    break;
                }
            }
            if self.buf.len() < 8 {
                break;
            }
            let len = self.buf[1] as usize;
            let total = 8 + len;
            if self.buf.len() < total {
                break;
            }
            match decode_frame_replica(&self.buf[..total]) {
                Ok(frame) => frames.push(frame),
                Err(_) => self.dropped += 1,
            }
            self.buf.drain(..total);
        }
        frames
    }
}

fn decode_frame_replica(b: &[u8]) -> Result<Frame, MavError> {
    let len = b[1] as usize;
    let (seq, sysid, compid, msg_id) = (b[2], b[3], b[4], b[5]);
    let payload = &b[6..6 + len];
    let received = u16::from(b[6 + len]) | (u16::from(b[7 + len]) << 8);
    let mut crc = CRC_INIT;
    for &x in &b[1..6 + len] {
        crc = accumulate(crc, x);
    }
    crc = accumulate(crc, Message::crc_extra(msg_id)?);
    if crc != received {
        return Err(MavError::BadChecksum {
            computed: crc,
            received,
        });
    }
    Ok(Frame {
        seq,
        sysid,
        compid,
        msg: Message::decode_payload(msg_id, payload)?,
    })
}

/// One simulated telemetry burst: 128 mixed frames delivered in a
/// single read, as a TCP segment carrying buffered telemetry would.
fn telemetry_burst() -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..128u32 {
        let msg = match i % 4 {
            0 => Message::Heartbeat {
                mode: FlightMode::Guided,
                armed: true,
                system_status: 4,
            },
            1 => Message::SysStatus {
                voltage_mv: 12_400,
                current_ca: 1_800,
                battery_remaining: 87,
            },
            2 => Message::Attitude {
                time_boot_ms: i * 25,
                roll: 0.02,
                pitch: -0.01,
                yaw: 1.57,
            },
            _ => Message::GlobalPositionInt {
                time_boot_ms: i * 25,
                lat: 374_200_000,
                lon: -1_220_800_000,
                relative_alt: 30_000,
                vx: 120,
                vy: -40,
                vz: 0,
            },
        };
        bytes.extend(
            Frame {
                seq: i as u8,
                sysid: 1,
                compid: 1,
                msg,
            }
            .encode(),
        );
    }
    bytes
}

fn bench_codec(c: &mut Criterion) {
    let burst = telemetry_burst();
    c.bench_function("codec_decode/cursor", |b| {
        let mut parser = Parser::new();
        b.iter(|| black_box(parser.push(&burst).len()))
    });
    c.bench_function("codec_decode/drain", |b| {
        let mut parser = DrainParser::default();
        b.iter(|| black_box(parser.push(&burst).len()))
    });
}

// ---------------------------------------------------------------
// Telemetry fan-out: Rc sharing vs per-client deep clones
// ---------------------------------------------------------------

const FANOUT_CLIENTS: [usize; 5] = [1, 2, 3, 8, 32];

/// Distribution steps per client drain. The proxy steps at 400 Hz
/// while clients drain at their own poll rate, so one drain covers
/// many steps; amortizing the recv bookkeeping (identical in both
/// implementations) keeps the ratio focused on the distribution
/// path under comparison.
const STEPS_PER_DRAIN: usize = 20;

/// One flight-loop tick's worth of telemetry at the 1 Hz boundary
/// (heartbeat + battery + attitude + position), plus the periodic
/// autopilot notification traffic real streams carry as STATUSTEXT.
fn telemetry_batch() -> Vec<Message> {
    vec![
        Message::Heartbeat {
            mode: FlightMode::Guided,
            armed: true,
            system_status: 4,
        },
        Message::SysStatus {
            voltage_mv: 12_400,
            current_ca: 1_800,
            battery_remaining: 87,
        },
        Message::Attitude {
            time_boot_ms: 400,
            roll: 0.02,
            pitch: -0.01,
            yaw: 1.57,
        },
        Message::GlobalPositionInt {
            time_boot_ms: 400,
            lat: 374_200_000,
            lon: -1_220_800_000,
            relative_alt: 30_000,
            vx: 120,
            vy: -40,
            vz: 0,
        },
        Message::StatusText {
            severity: 6,
            text: "EKF2 IMU0 is using GPS".to_string(),
        },
    ]
}

fn active_vfc(name: &str, center: GeoPoint) -> Vfc {
    let mut vfc = Vfc::new(
        name,
        CommandWhitelist::standard(),
        Geofence::new(center, 200.0),
        false,
    );
    vfc.begin_approach();
    vfc.activate();
    vfc
}

/// Replica of the seed's `MavProxy::step` distribution loop: the
/// same `BTreeMap` client shape, but every client receives an owned
/// message — `transform_telemetry` deep clones on every pass-through.
struct SeedProxy {
    clients: BTreeMap<String, (Option<Vfc>, Vec<Message>)>,
}

impl SeedProxy {
    fn distribute(&mut self, telemetry: &[Message], pos: &GeoPoint) {
        for (vfc, outbox) in self.clients.values_mut() {
            for msg in telemetry {
                match vfc.as_mut() {
                    None => outbox.push(msg.clone()),
                    Some(vfc) => outbox.push(vfc.transform_telemetry(msg, pos)),
                }
            }
        }
    }

    fn recv(&mut self, name: &str) -> Vec<Message> {
        std::mem::take(&mut self.clients.get_mut(name).unwrap().1)
    }
}

/// The shared and seed-replica proxies over the same `n` active VFC
/// clients.
struct FanoutFixture {
    names: Vec<String>,
    center: GeoPoint,
    batch: Vec<Message>,
    batch_rc: Vec<Rc<Message>>,
    proxy: MavProxy,
    seed: SeedProxy,
}

fn fanout_fixture(n: usize) -> FanoutFixture {
    let center = GeoPoint::new(37.42, -122.08, 30.0);
    let batch = telemetry_batch();
    let names: Vec<String> = (0..n).map(|i| format!("vd{i}")).collect();
    let mut proxy = MavProxy::new();
    for name in &names {
        proxy.add_vfc_client(active_vfc(name, center));
    }
    let seed = SeedProxy {
        clients: names
            .iter()
            .map(|name| (name.clone(), (Some(active_vfc(name, center)), Vec::new())))
            .collect(),
    };
    FanoutFixture {
        batch_rc: batch.iter().cloned().map(Rc::new).collect(),
        names,
        center,
        batch,
        proxy,
        seed,
    }
}

/// [`STEPS_PER_DRAIN`] distribution steps, then one drain per client.
/// Optimized: one `Rc` bump per client per message, the active-VFC
/// identity check hoisted per client. Seed replica: an owned
/// per-client, per-message transform.
fn fanout_op(fx: &mut FanoutFixture, slow: bool) {
    for _ in 0..STEPS_PER_DRAIN {
        if slow {
            fx.seed.distribute(&fx.batch, &fx.center);
        } else {
            fx.proxy.distribute_telemetry(&fx.batch_rc, &fx.center);
        }
    }
    for name in &fx.names {
        if slow {
            black_box(fx.seed.recv(name).len());
        } else {
            black_box(fx.proxy.client_recv_shared(name).len());
        }
    }
}

fn bench_fanout(c: &mut Criterion) {
    for n in FANOUT_CLIENTS {
        let mut fx = fanout_fixture(n);
        c.bench_function(&format!("fanout/shared_n{n}"), |b| {
            b.iter(|| fanout_op(&mut fx, false))
        });
        c.bench_function(&format!("fanout/deep_n{n}"), |b| {
            b.iter(|| fanout_op(&mut fx, true))
        });
    }
}

// ---------------------------------------------------------------
// Gates: medians of alternating-pair ratios
// ---------------------------------------------------------------

/// Ns per iteration of `op(slow)` over a batch of `iters`.
fn batch_ns(op: &mut impl FnMut(bool), slow: bool, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op(slow);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A batch size that runs `op(slow)` for about 2 ms.
fn calibrate(op: &mut impl FnMut(bool), slow: bool) -> u64 {
    let mut iters = 1;
    while iters < 1 << 24 && batch_ns(op, slow, iters) * (iters as f64) < 2e6 {
        iters *= 4;
    }
    iters
}

/// `pairs` ratios of the seed replica's ns per iteration over the
/// optimized path's, each pair timing one batch of both back to back.
/// The leading side flips every pair, so a burst of host contention
/// skews one pair rather than one side's whole median.
fn pair_ratios(pairs: usize, mut op: impl FnMut(bool)) -> Vec<f64> {
    let slow_iters = calibrate(&mut op, true);
    let fast_iters = calibrate(&mut op, false);
    (0..pairs)
        .map(|pair| {
            let (slow, fast) = if pair % 2 == 0 {
                let slow = batch_ns(&mut op, true, slow_iters);
                (slow, batch_ns(&mut op, false, fast_iters))
            } else {
                let fast = batch_ns(&mut op, false, fast_iters);
                (batch_ns(&mut op, true, slow_iters), fast)
            };
            slow / fast
        })
        .collect()
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

// ---------------------------------------------------------------
// Runner: collect medians, compute ratios, emit JSON
// ---------------------------------------------------------------

fn obj(entries: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    androne_bench::banner(
        "Binder/fan-out micro",
        "zero-copy hot paths vs reconstructed seed baselines",
    );
    let samples = usize::try_from((30 / androne_bench::scale()).max(3)).unwrap();
    let mut c = Criterion::default().sample_size(samples);
    bench_binder(&mut c);
    bench_codec(&mut c);
    bench_fanout(&mut c);

    let medians: BTreeMap<String, f64> = c
        .results()
        .iter()
        .map(|(name, ns)| (name.clone(), *ns))
        .collect();
    let ns = |name: &str| medians[name];
    let ratio = |slow: &str, fast: &str| ns(slow) / ns(fast);

    let mut ratios: Vec<(String, Value)> = vec![
        (
            "echo_roundtrip".to_string(),
            Value::Number(ratio(
                "echo_roundtrip/seed_replica",
                "echo_roundtrip/optimized",
            )),
        ),
        (
            "parcel_clone".to_string(),
            Value::Number(ratio("parcel_clone/deep", "parcel_clone/cow")),
        ),
        (
            "parcel_translate".to_string(),
            Value::Number(ratio(
                "parcel_translate/objref_seed_tables",
                "parcel_translate/objref_cached",
            )),
        ),
        (
            "codec_decode".to_string(),
            Value::Number(ratio("codec_decode/drain", "codec_decode/cursor")),
        ),
    ];
    for n in FANOUT_CLIENTS {
        ratios.push((
            format!("fanout_n{n}"),
            Value::Number(ratio(
                &format!("fanout/deep_n{n}"),
                &format!("fanout/shared_n{n}"),
            )),
        ));
    }

    // The gates read the median of alternating-pair ratios, not a
    // ratio of two medians taken seconds apart: at 3 samples per
    // bench the latter flipped on an idle host. At least 11 pairs, as
    // the fleet pool gate takes.
    let pairs = usize::try_from((30 / androne_bench::scale()).max(11)).unwrap();
    let mut binder = binder_fixture();
    let echo_ratios = pair_ratios(pairs, |slow| echo_op(&mut binder, slow));
    let translate_ratios = pair_ratios(pairs, |slow| translate_op(&mut binder, slow));
    let mut fanout8 = fanout_fixture(8);
    let fanout8_ratios = pair_ratios(pairs, |slow| fanout_op(&mut fanout8, slow));
    let echo_speedup = median(&echo_ratios);
    let fanout8_speedup = median(&fanout8_ratios);
    let translate_speedup = median(&translate_ratios);
    let list = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Number(x)).collect());

    let report = obj([
        (
            "schema",
            Value::String("androne-bench/binder_fanout/v2".to_string()),
        ),
        (
            "command",
            Value::String("cargo bench --bench binder_fanout".to_string()),
        ),
        ("units", Value::String("ns_per_iter_median".to_string())),
        ("scale", Value::Number(androne_bench::scale() as f64)),
        ("sample_size", Value::Number(samples as f64)),
        (
            "benches",
            Value::Object(
                medians
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v)))
                    .collect(),
            ),
        ),
        (
            "speedup_over_seed_replica",
            Value::Object(ratios.into_iter().collect()),
        ),
        (
            "acceptance",
            obj([
                ("pairs", Value::Number(pairs as f64)),
                ("echo_roundtrip_min", Value::Number(2.0)),
                ("echo_roundtrip_measured", Value::Number(echo_speedup)),
                ("echo_roundtrip_pair_ratios", list(&echo_ratios)),
                ("fanout_n8_min", Value::Number(3.0)),
                ("fanout_n8_measured", Value::Number(fanout8_speedup)),
                ("fanout_n8_pair_ratios", list(&fanout8_ratios)),
                ("parcel_translate_min", Value::Number(1.8)),
                (
                    "parcel_translate_measured",
                    Value::Number(translate_speedup),
                ),
                ("parcel_translate_pair_ratios", list(&translate_ratios)),
                (
                    "pass",
                    Value::Bool(
                        echo_speedup >= 2.0 && fanout8_speedup >= 3.0 && translate_speedup >= 1.8,
                    ),
                ),
            ]),
        ),
    ]);

    let out_path = std::env::var("ANDRONE_BENCH_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_binder_fanout.json"
        )
        .to_string()
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(&out_path, json + "\n").expect("write bench report");
    println!("\nspeedups: echo {echo_speedup:.2}x (gate 2.0x), 8-client fan-out {fanout8_speedup:.2}x (gate 3.0x), parcel translate {translate_speedup:.2}x (gate 1.8x)");
    println!("report written to {out_path}");
}
