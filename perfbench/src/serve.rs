//! `serve-2d`: a `SelfJoinService` on a 1-device pool with two registered
//! 2-D datasets (the SDSS surrogate and uniform, ~16 neighbours per
//! point) and three tenants cycling radii inside the resident index's
//! validity band.
//!
//! Load is open loop — tenants are independent users — with seeded
//! Poisson arrivals at a fixed rate of about a quarter of the service's
//! capacity at the commit that introduced this benchmark. Each query is
//! timed from the instant it was due to be sent to the table in hand, so a stall
//! also charges the queries that arrive behind it. One thread generates
//! the load; a second waits on the tickets in submission order. Bursts
//! measure the capacity: batches submitted at once and drained; the
//! median over the bursts of their correct answers per second of drain
//! time is the capacity.
//!
//! The run is cut into segments of about [`SEGMENT_S`] seconds, each an
//! open-loop piece of the seeded schedule followed by bursts, so both
//! phases sample the host across the whole run. The reported latencies are
//! medians over the segments of each segment's median and p75. The
//! 2-vCPU host this was tuned on has slow spells of seconds to minutes;
//! a spell that covers a minority of the segments leaves these medians
//! where they were.
//!
//! Resident sessions move index build, upload and hoist into set-up, so
//! the per-query fixed costs (serve, session, host runtime fan-out) show
//! here and nowhere else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sim_gpu::{Device, DevicePool, DeviceSpec};
use sj_datasets::sdss::sdss2d;
use sj_datasets::synthetic::uniform;
use sj_datasets::Dataset;
use sj_obs::Json;
use sj_serve::{DatasetId, QueryRequest, QueryTicket, SelfJoinService, ServeError, ServiceConfig};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::check::{calibrate_eps, Reference, BRUTE_FORCE_ROWS};
use crate::layers::{self, LayerInputs, Target};
use crate::report::{end_to_end, value, Report, Tally};
use crate::spans::Tracer;
use crate::stats::{median, quantile, vm_hwm_mb, HeapSampler};
use crate::Args;

pub const NAME: &str = "serve-2d";
const POINTS: usize = 30_000;
const NEIGHBORS: f64 = 16.0;
/// Query radii as fractions of the calibrated ε, largest first; all lie
/// above the session's default reuse floor (0.5), so every query reuses
/// the resident index.
const BAND: [f64; 3] = [1.0, 0.85, 0.7];
const TENANTS: usize = 3;
/// Open-loop arrival rate (queries per second).
const RATE_QPS: f64 = 14.0;
/// Share of the run given to the open-loop phase; the rest is bursts.
const OPEN_SHARE: f64 = 0.85;
/// Seconds of run per segment, and the most segments a run is cut into.
const SEGMENT_S: u64 = 6;
const MAX_SEGMENTS: u64 = 6;
/// Queries per burst.
const BURST: usize = 18;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Tail percentile reported as `op_tail_ms`. A 36 s run has ~430
/// open-loop queries, so p97.5 is the highest percentile with 10 samples
/// beyond it, but on a 2-vCPU virtual machine the upper percentiles move
/// with the host's scheduling noise by more than any gate can hold (p95
/// varied 25% between three runs of one seed at 60k points); p75 has ~18
/// samples beyond it in each of the 6 segments, and the median over the
/// segments is reported. The record also names the highest percentile
/// with ≥ 10 samples beyond it (`top_percentile`).
const TAIL_Q: f64 = 0.75;

/// The (dataset, radius index) a query asks for.
type Combo = (usize, usize);

struct Inputs {
    datasets: [Dataset; 2],
    eps: [[f64; 3]; 2],
    refs: [Vec<Reference>; 2],
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let datasets = [
            sdss2d(POINTS, seed),
            uniform(2, POINTS, seed.wrapping_add(1)),
        ];
        let eps = [0, 1].map(|d| {
            let e = calibrate_eps(&datasets[d], NEIGHBORS);
            BAND.map(|f| e * f)
        });
        let refs = [0, 1].map(|d| {
            eps[d]
                .iter()
                .map(|&e| Reference::compute(&datasets[d], e))
                .collect()
        });
        Self {
            datasets,
            eps,
            refs,
        }
    }

    fn reference(&self, (d, e): Combo) -> &Reference {
        &self.refs[d][e]
    }

    fn json(&self) -> Json {
        let mut datasets = Json::arr();
        for (d, name) in ["sdss2d", "uniform"].into_iter().enumerate() {
            datasets = datasets.push(
                Json::obj()
                    .field("dataset", name)
                    .field("points", POINTS)
                    .field("dim", 2u64)
                    .field("epsilons", self.eps[d].to_vec())
                    .field(
                        "reference_pairs",
                        self.refs[d]
                            .iter()
                            .map(|r| r.table.total_pairs())
                            .collect::<Vec<_>>(),
                    )
                    .field(
                        "brute_force_bad_rows",
                        self.refs[d]
                            .iter()
                            .map(|r| r.brute_force_bad_rows)
                            .collect::<Vec<_>>(),
                    ),
            );
        }
        Json::obj()
            .field("datasets", datasets)
            .field("target_neighbors", NEIGHBORS)
            .field("tenants", TENANTS)
            .field("brute_force_rows", BRUTE_FORCE_ROWS)
    }
}

/// The seeded query mix: arrival offsets of a Poisson process at
/// [`RATE_QPS`] over `span`, conditioned on its mean count in each of
/// `pieces` equal intervals (so each interval holds `RATE_QPS × length`
/// arrivals at independent uniform offsets), each with a random tenant;
/// every tenant cycles through the six (dataset, radius) combinations
/// from its own starting point. The conditioning keeps the offered load
/// the same for every seed: the number of arrivals of an unconditioned
/// process over a run varies by ±6% between seeds, and the queueing
/// delay with it.
fn schedule(seed: u64, span: Duration, pieces: u32) -> Vec<(Duration, usize, Combo)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e4e_2d00);
    let len = span.as_secs_f64() / f64::from(pieces);
    let per_piece = (RATE_QPS * len).round() as usize;
    let mut times = Vec::with_capacity(per_piece * pieces as usize);
    for piece in 0..pieces {
        let lo = len * f64::from(piece);
        let mut t: Vec<f64> = (0..per_piece)
            .map(|_| lo + len * rng.gen::<f64>())
            .collect();
        t.sort_by(f64::total_cmp);
        times.extend(t);
    }
    let mut next = [0usize; TENANTS];
    times
        .into_iter()
        .map(|t| {
            let tenant = rng.gen_range(0..TENANTS);
            let c = (2 * tenant + next[tenant]) % 6;
            next[tenant] += 1;
            (Duration::from_secs_f64(t), tenant, (c % 2, c / 2))
        })
        .collect()
}

fn request(ids: &[DatasetId; 2], inputs: &Inputs, tenant: usize, (d, e): Combo) -> QueryRequest {
    QueryRequest::new(format!("tenant-{tenant}"), ids[d], inputs.eps[d][e])
}

/// The open-loop phase's observations, accumulated over its segments.
#[derive(Default)]
struct OpenLoop {
    /// Due time to table in hand, in ms, in submission order.
    latencies: Vec<f64>,
    modeled: Vec<f64>,
    submit_us: Vec<f64>,
    gen_late_ms: f64,
    tally: Tally,
}

impl OpenLoop {
    /// Sends `piece` of the schedule at its due times (offsets relative to
    /// `origin`) from this thread while a second thread waits on the
    /// tickets in submission order; returns the piece's latencies once
    /// every ticket has resolved.
    fn play(
        &mut self,
        svc: &SelfJoinService,
        ids: &[DatasetId; 2],
        inputs: &Inputs,
        piece: &[(Duration, usize, Combo)],
        origin: Duration,
    ) -> Vec<f64> {
        let (tx, rx) = mpsc::channel::<(Instant, Combo, Result<QueryTicket, ServeError>)>();
        let (latencies, modeled, tally) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut latencies = Vec::new();
                let mut modeled = Vec::new();
                let mut tally = Tally::default();
                for (due, combo, ticket) in rx {
                    let out = ticket.and_then(QueryTicket::wait);
                    let done = Instant::now();
                    match tally.check_served(out, inputs.reference(combo)) {
                        Some(m) => {
                            latencies.push((done - due).as_secs_f64() * 1e3);
                            modeled.push(m);
                        }
                        // A failed or refused query misses any latency limit.
                        None => latencies.push(f64::INFINITY),
                    }
                }
                (latencies, modeled, tally)
            });
            let t0 = Instant::now() + Duration::from_millis(5);
            for &(offset, tenant, combo) in piece {
                let due = t0 + (offset - origin);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                self.gen_late_ms = self.gen_late_ms.max((sent - due).as_secs_f64() * 1e3);
                let ticket = svc.submit(request(ids, inputs, tenant, combo));
                self.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
                tx.send((due, combo, ticket)).expect("waiter alive");
            }
            drop(tx);
            waiter.join().expect("waiter thread")
        });
        self.latencies.extend_from_slice(&latencies);
        self.modeled.extend(modeled);
        self.tally.add(tally);
        latencies
    }
}

/// The burst phase's observations: capacity while a batch submitted at
/// once drains (correct answers ÷ drain wall time), per burst.
#[derive(Default)]
struct Bursts {
    rates: Vec<f64>,
    ok: u64,
    wall_s: f64,
    tally: Tally,
}

impl Bursts {
    fn run(&mut self, svc: &SelfJoinService, ids: &[DatasetId; 2], inputs: &Inputs) {
        let first = self.rates.len() * BURST;
        let combos: Vec<(usize, Combo)> = (first..first + BURST)
            .map(|k| (k % TENANTS, (k % 6 % 2, k % 6 / 2)))
            .collect();
        let reqs = combos
            .iter()
            .map(|&(tenant, combo)| request(ids, inputs, tenant, combo))
            .collect();
        let t = Instant::now();
        let outs: Vec<_> = svc
            .submit_batch(reqs)
            .into_iter()
            .map(|ticket| ticket.and_then(QueryTicket::wait))
            .collect();
        let wall = t.elapsed().as_secs_f64();
        let mut ok = 0u64;
        for (out, &(_, combo)) in outs.into_iter().zip(&combos) {
            if self
                .tally
                .check_served(out, inputs.reference(combo))
                .is_some()
            {
                ok += 1;
            }
        }
        self.ok += ok;
        self.wall_s += wall;
        self.rates.push(ok as f64 / wall);
    }
}

pub fn run(args: &Args) -> Report {
    let inputs = Inputs::new(args.seed);
    let mut tally = Tally::default();

    // Set-up: service, registration, warm passes and one untimed query
    // per dataset, repeated. Dataset copies are made before the clock
    // starts (input generation is the benchmark's).
    let mut setup_s = Vec::new();
    let mut service = None;
    for _ in 0..SETUPS {
        let copies = inputs.datasets.clone();
        let t = Instant::now();
        let svc = SelfJoinService::new(DevicePool::titan_x(1), ServiceConfig::default());
        let ids = copies.map(|d| svc.register_dataset("dataset", d));
        for (d, id) in ids.iter().enumerate() {
            if let Err(e) = svc.warm(*id, &inputs.eps[d]) {
                eprintln!("warm-up failed: {e}");
                tally.attempted += 1;
                tally.errors += 1;
            }
        }
        let warmups: Vec<_> = (0..2)
            .map(|d| {
                svc.submit(request(&ids, &inputs, 0, (d, 0)))
                    .and_then(QueryTicket::wait)
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        for (d, out) in warmups.into_iter().enumerate() {
            tally.check_served(out, inputs.reference((d, 0)));
        }
        service = Some((svc, ids));
    }
    let (svc, ids) = service.expect("at least one set-up");
    svc.reset_metrics();
    if args.trace {
        drop(svc);
        return traced(args, &inputs, tally);
    }

    // The timed phase: the seeded open-loop schedule is played in
    // segments, each followed by bursts, so that both phases sample the
    // host across the whole run.
    let open_span = args.seconds.mul_f64(OPEN_SHARE);
    let segments = (args.seconds.as_secs() / SEGMENT_S).clamp(1, MAX_SEGMENTS) as u32;
    let plan = schedule(args.seed, open_span, segments);
    let burst_budget = args.seconds.saturating_sub(open_span) / segments;
    let mut open = OpenLoop::default();
    let mut seg_p50 = Vec::new();
    let mut seg_tail = Vec::new();
    let mut heap_windows = Vec::new();
    let mut bursts = Bursts::default();
    for seg in 0..segments {
        let lo = open_span * seg / segments;
        let hi = open_span * (seg + 1) / segments;
        let piece = &plan[plan.partition_point(|p| p.0 < lo)..plan.partition_point(|p| p.0 < hi)];
        // Memory is sampled through the open loop only: the bursts hold a
        // whole batch of answers for checking, which is the benchmark's
        // memory, not the service's.
        let heap = HeapSampler::start();
        let lat = open.play(&svc, &ids, &inputs, piece, lo);
        heap_windows.extend(heap.finish_windows());
        if !lat.is_empty() {
            seg_p50.push(median(&lat));
            seg_tail.push(quantile(&lat, TAIL_Q));
        }
        let seg_start = Instant::now();
        let mut n = 0;
        while n == 0 || seg_start.elapsed() < burst_budget {
            bursts.run(&svc, &ids, &inputs);
            n += 1;
        }
    }
    drop(svc);
    tally.add(open.tally);
    tally.add(bursts.tally);
    let latencies = open.latencies;
    let capacity = median(&bursts.rates);
    let heap_mb = median(&heap_windows);

    let mut report = Report::new(tally, Json::Null);
    end_to_end(
        &mut report,
        median(&seg_p50),
        median(&seg_tail),
        capacity,
        &setup_s,
        heap_mb,
    );
    // The highest percentile with at least 10 samples beyond it.
    let n = latencies.len() as f64;
    let top_q = [0.99, 0.98, 0.975, 0.95, 0.9]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.9);
    report.record = inputs
        .json()
        .field("rate_qps", RATE_QPS)
        .field("open_loop_s", open_span.as_secs_f64())
        .field("samples", latencies.len())
        .field("segments", segments)
        .field("tail_percentile", TAIL_Q * 100.0)
        .field("serve_p50_ms", value(median(&latencies), "ms", "wall"))
        .field(
            "serve_p75_ms",
            value(quantile(&latencies, TAIL_Q), "ms", "wall"),
        )
        .field("top_percentile", top_q * 100.0)
        .field(
            "serve_top_ms",
            value(quantile(&latencies, top_q), "ms", "wall"),
        )
        .field("heap_windows", heap_windows.len())
        .field("vm_hwm_mb", value(vm_hwm_mb(), "MiB", "memory"))
        .field("serve_capacity_qps", value(capacity, "1/s", "wall"))
        .field(
            "serve_capacity_pooled_qps",
            value(bursts.ok as f64 / bursts.wall_s, "1/s", "wall"),
        )
        .field("bursts", bursts.rates.len())
        .field("burst_size", BURST)
        .field("serve.gen_late_ms", value(open.gen_late_ms, "ms", "wall"))
        .field(
            "serve.submit_us",
            value(median(&open.submit_us), "us", "wall"),
        )
        .field(
            "modeled_total_ms",
            value(median(&open.modeled), "ms", "modeled"),
        );
    report
}

fn traced(args: &Args, inputs: &Inputs, mut tally: Tally) -> Report {
    let mut tr = Tracer::new();
    let device = Device::new(DeviceSpec::titan_x_pascal());

    // The session layers' set-up, replayed: index, upload and hoist of
    // both datasets at the largest radius, then the sampling estimate at
    // every radius (the warm pass seeds the session's estimate cache).
    let root = tr.begin(layers::SETUP, None);
    let staged: Vec<_> = (0..2)
        .map(|d| {
            layers::stage(
                &mut tr,
                root,
                &device,
                &inputs.datasets[d],
                inputs.eps[d][0],
            )
        })
        .collect::<Result<_, _>>()
        .expect("staging the resident datasets");
    for (d, st) in staged.iter().enumerate() {
        for &e in &inputs.eps[d] {
            layers::sample_estimate(&mut tr, root, st, Some(e)).expect("sampling estimate");
        }
    }
    tr.end(root);

    // The per-query layers on the resident state — kernels sized by the
    // exact count a cached estimate holds, then materialize — for the
    // seeded query mix, for half the run.
    let plan = schedule(args.seed, args.seconds, 1);
    let mut counts = Vec::new();
    let start = Instant::now();
    for &(_, _, (d, e)) in plan.iter().cycle() {
        if start.elapsed() >= args.seconds / 2 && counts.len() >= 3 {
            break;
        }
        let op = tr.begin(layers::OP, None);
        let exact = inputs.reference((d, e)).table.total_pairs() as u64;
        let out = layers::execute(
            &mut tr,
            op,
            &staged[d],
            Some(inputs.eps[d][e]),
            None,
            Some(exact),
        );
        let table = out.map(|(pairs, c)| {
            counts.push(c);
            tr.time("materialize", op, || {
                grid_join::NeighborTable::from_pairs(POINTS, &pairs)
            })
        });
        tr.end(op);
        tally.check(table.as_ref(), inputs.reference((d, e)));
    }
    drop(staged);

    let targets: Vec<Target<'_>> = (0..2)
        .map(|d| Target {
            data: &inputs.datasets[d],
            eps: &inputs.eps[d],
            refs: &inputs.refs[d],
        })
        .collect();
    let stream: Vec<Combo> = plan.iter().take(120).map(|p| p.2).collect();
    let session = layers::session_probe(&mut tr, &targets, &stream, &mut tally);
    let service = layers::service_probe(&mut tr, &targets, &stream, &mut tally);
    let shard = layers::shard_probe(
        &mut tr,
        &inputs.datasets[0],
        inputs.eps[0][0],
        &inputs.refs[0][0],
        3,
        &mut tally,
    );
    let li = LayerInputs {
        counts,
        modeled_ms: service.modeled_ms.clone(),
        untraced_op_ms: service.untraced_ms.clone(),
        traced_op_ms: service.traced_ms.clone(),
        session,
        service,
        shard,
        traced_root: layers::SERVED,
    };
    let mut report = Report::new(tally, Json::Null);
    let breakdown = layers::emit(&mut report, &tr, &li);
    crate::write_trace(args, &tr);
    report.record = inputs.json().field("layers", breakdown);
    report
}
