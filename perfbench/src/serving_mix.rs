//! `serving-mix`: closed-loop multi-tenant serving. Eight clients, two
//! per tenant over four tenants, each keep one job outstanding: submit,
//! call `run_rounds(1)` until its result arrives, submit the next. Every
//! client works through its own seeded list holding the serving bench's
//! three size classes in equal numbers (0.5–32 KB regions), so the total
//! work is the same at every seed and only the order moves.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use serving::{JobId, JobSpec, ServingConfig, ServingRuntime};

use crate::{span, stats, timed_setup, Rep, Workload};

const TENANTS: u32 = 4;
const CLIENTS: usize = 8;
/// Jobs each client submits per repetition; a multiple of the three
/// size classes.
const JOBS_PER_CLIENT: usize = 150;

/// SplitMix64 step: the benchmark's only source of randomness.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The serving bench's size classes: (regions, region_len, steps).
const CLASSES: [(usize, usize, u64); 3] = [(1, 64, 2), (2, 512, 4), (1, 4096, 8)];

/// Client `c`'s job list: equal numbers of each class in a seeded order.
fn client_jobs(seed: u64, c: usize) -> Vec<JobSpec> {
    let mut classes: Vec<usize> = (0..JOBS_PER_CLIENT).map(|i| i % CLASSES.len()).collect();
    let mut state = mix(seed ^ ((c as u64 + 1) << 40));
    for i in (1..classes.len()).rev() {
        state = mix(state);
        classes.swap(i, (state % (i as u64 + 1)) as usize);
    }
    classes
        .into_iter()
        .map(|k| {
            state = mix(state);
            let (regions, len, steps) = CLASSES[k];
            JobSpec::new(c as u32 % TENANTS, regions, len, steps, state)
        })
        .collect()
}

pub struct ServingMix {
    jobs: Vec<Vec<JobSpec>>,
    golden: Vec<Vec<u64>>,
}

impl ServingMix {
    pub fn new(seed: u64) -> Self {
        ServingMix {
            jobs: (0..CLIENTS).map(|c| client_jobs(seed, c)).collect(),
            golden: Vec::new(),
        }
    }
}

/// A job in flight: who submitted it, which of their jobs it is, and when.
struct Pending {
    client: usize,
    index: usize,
    host_submit: Instant,
}

impl Workload for ServingMix {
    fn precheck(&mut self) -> Result<(), String> {
        self.golden = self
            .jobs
            .iter()
            .map(|list| list.iter().map(JobSpec::golden_digest).collect())
            .collect();
        Ok(())
    }

    fn rep(&mut self, traced: bool) -> Result<Rep, String> {
        let (mut rt, setup_s) = timed_setup(1, || ServingRuntime::new(ServingConfig::default()));

        let t_run = Instant::now();
        let mut pending: HashMap<JobId, Pending> = HashMap::with_capacity(CLIENTS);
        let mut next = [0usize; CLIENTS];
        let mut done: Vec<(usize, usize)> = Vec::with_capacity(CLIENTS * JOBS_PER_CLIENT);
        let mut op_ms = Vec::with_capacity(CLIENTS * JOBS_PER_CLIENT);
        let (mut failed, mut rounds, mut seen) = (0u64, 0u64, 0usize);
        let mut submit = |rt: &mut ServingRuntime,
                          pending: &mut HashMap<JobId, Pending>,
                          failed: &mut u64,
                          client: usize| {
            // A refused submission is a failed operation; the client
            // moves on to its next job.
            while next[client] < JOBS_PER_CLIENT {
                let index = next[client];
                next[client] += 1;
                let spec = self.jobs[client][index].clone();
                let host_submit = Instant::now();
                match span::time("serving.submit", || rt.submit(spec)) {
                    Ok(id) => {
                        pending.insert(
                            id,
                            Pending {
                                client,
                                index,
                                host_submit,
                            },
                        );
                        return;
                    }
                    Err(_) => *failed += 1,
                }
            }
        };
        for c in 0..CLIENTS {
            submit(&mut rt, &mut pending, &mut failed, c);
        }
        while !pending.is_empty() {
            let busy = span::time("serving.run_rounds", || rt.run_rounds(1));
            rounds += 1;
            if !busy && seen == rt.results().len() {
                return Err(format!(
                    "runtime idle with {} jobs outstanding",
                    pending.len()
                ));
            }
            while seen < rt.results().len() {
                let job = rt.results()[seen].job;
                seen += 1;
                let p = pending
                    .remove(&job)
                    .ok_or(format!("result for unknown job {job}"))?;
                op_ms.push(p.host_submit.elapsed().as_secs_f64() * 1e3);
                done.push((p.client, p.index));
                submit(&mut rt, &mut pending, &mut failed, p.client);
            }
        }
        let makespan = rt.now();
        let run_s = t_run.elapsed().as_secs_f64();

        // Untimed: every digest against golden, then the latency split.
        let (mut lat, mut wait, mut service) = (Vec::new(), Vec::new(), Vec::new());
        for (r, &(client, index)) in rt.results().iter().zip(&done) {
            match &r.outcome {
                Ok(d) if *d == self.golden[client][index] => {}
                Ok(d) => {
                    return Err(format!(
                        "client {client} job {index}: digest {d:#x} != golden {:#x}",
                        self.golden[client][index]
                    ))
                }
                Err(_) => failed += 1,
            }
            let ms = |t: gpu_sim::SimTime| t.as_ms_f64();
            lat.push(ms(r.latency()));
            if let Some(started) = r.started {
                wait.push(ms(started - r.submitted));
                service.push(ms(r.finished - started));
            }
        }
        let hazards = rt.hazard_counters().total();
        if hazards != 0 || rt.cross_tenant_touches() != 0 {
            return Err(format!(
                "{hazards} hazards, {} cross-tenant touches",
                rt.cross_tenant_touches()
            ));
        }
        let (mut retries, mut preemptions, mut shed) = (0, 0, 0);
        for t in 0..TENANTS {
            let s = rt.tenant_stats(t);
            retries += s.retries;
            preemptions += s.preemptions;
            shed += s.shed_queue_full + s.shed_quota;
        }
        let lat_sum_ns: u64 = rt.results().iter().map(|r| r.latency().as_ns()).sum();

        let mut layer = BTreeMap::new();
        layer.insert("gpu-sim.hazards", hazards as f64);
        layer.insert(
            "serving.sim_job_latency_p50_ms",
            stats::percentile(&lat, 50.0),
        );
        layer.insert(
            "serving.sim_job_latency_p99_ms",
            stats::percentile(&lat, 99.0),
        );
        layer.insert("serving.queue_wait_p99_ms", stats::percentile(&wait, 99.0));
        layer.insert("serving.service_p50_ms", stats::percentile(&service, 50.0));
        layer.insert("serving.retries", retries as f64);
        layer.insert("serving.preemptions", preemptions as f64);
        layer.insert("serving.shed", shed as f64);
        if traced {
            let rr = span::totals("serving.run_rounds");
            layer.insert("serving.run_rounds_ms", rr.total_ns as f64 / 1e6);
            layer.insert(
                "serving.us_per_round",
                rr.total_ns as f64 / 1e3 / rounds as f64,
            );
        }
        Ok(Rep {
            setup_s,
            peak_rss_mb: 0.0,
            run_s,
            op_ms,
            attempted: (CLIENTS * JOBS_PER_CLIENT) as u64,
            failed,
            sim_makespan_ms: makespan.as_ms_f64(),
            model: vec![
                ("makespan_ns", makespan.as_ns()),
                ("latency_sum_ns", lat_sum_ns),
                ("rounds", rounds),
                ("results", rt.results().len() as u64),
                ("retries", retries),
                ("preemptions", preemptions),
                ("shed", shed),
            ],
            layer,
        })
    }

    fn named(&self, e2e: &BTreeMap<&'static str, f64>, first: &Rep) -> Vec<(String, f64, String)> {
        let jobs = (CLIENTS * JOBS_PER_CLIENT) as f64;
        vec![
            (
                "sim_makespan_ms".into(),
                first.sim_makespan_ms,
                "sim_ms".into(),
            ),
            (
                "sim_job_latency_p50_ms".into(),
                first.layer["serving.sim_job_latency_p50_ms"],
                "sim_ms".into(),
            ),
            (
                "sim_job_latency_p99_ms".into(),
                first.layer["serving.sim_job_latency_p99_ms"],
                "sim_ms".into(),
            ),
            (
                "host_jobs_per_s".into(),
                jobs / e2e["host_run_s"],
                "jobs/s".into(),
            ),
        ]
    }
}
