//! `edit-relink`: a CI fleet relinking through an in-process `omd` server
//! on a unix socket. Two closed-loop clients each work through their own
//! seeded sequence of single-module editions of the compile-each 64-module
//! scale program, at OM-full w/sched with verification on. Each edition is
//! requested twice: the first request misses the link cache (a cache
//! write, the unit operation), the second hits it (a cache read, the
//! auxiliary operation).
//!
//! Editions alternate between two kinds: a data-only append to one
//! module's object (as `omfleet` makes them), and an unreferenced procedure
//! appended to one module's source and compiled during set-up, which keeps
//! the behaviour (so the interpreter reference stays valid) while shifting
//! every later address. The seed picks each client's module order.
//!
//! The server's caches are bounded (the link cache at [`WARM`] entries, the
//! module cache at the program's modules plus [`WARM`]) and filled during
//! set-up, so memory in the measured phase does not grow with the number
//! of editions served.
//!
//! Every [`PROBE_EVERY`] the phase holds both clients back between
//! editions and times the host reference kernel alone, so that the run's
//! times can be brought to reference host speed by kernel times taken
//! across the whole phase and not only around it.

use crate::layers::{counters, Counts, Spans};
use crate::probes::layer_probes;
use crate::setup::{compile_each, compile_one, spanned, stdlib, INTERP_STEPS, SIM_LIMIT};
use crate::stats::{geomean, median, permutation, quantile};
use crate::{host, metric, Config, Measured, Metric, Workload};
use om_core::{optimize_and_link_with, OmCaches, OmLevel, OmOptions};
use om_linker::{link_modules, select_modules, Image, LayoutOpts};
use om_objfile::{Archive, Module};
use om_obs::Trace;
use om_omd::{serve, serve_traced, Client, LinkServer, ServerHandle};
use om_sim::run_timed_fast;
use om_workloads::scale::{interp_reference_scale, scale_spec, sources};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Editions linked during set-up to fill the caches; also the link cache's
/// capacity.
pub const WARM: usize = 4;

const LEVEL: OmLevel = OmLevel::FullSched;

/// How often the measured phase pauses both clients between requests to
/// time the host reference kernel.
const PROBE_EVERY: Duration = Duration::from_secs(2);

/// Distinguishes the socket and image paths of set-ups within a process.
static INSTANCE: AtomicUsize = AtomicUsize::new(0);

/// One single-module edition: the object index it replaces, and the new
/// object.
struct Edition {
    index: usize,
    module: Module,
}

impl Edition {
    /// The full request: the base objects with this edition's module in
    /// place.
    fn objects(&self, base: &[Module]) -> Vec<Module> {
        let mut objs = base.to_vec();
        objs[self.index] = self.module.clone();
        objs
    }
}

/// What one client did in one measured phase.
#[derive(Default)]
struct ClientLog {
    edit_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    /// Per request: success, or why it failed.
    outcomes: Vec<Result<(), String>>,
    /// Editions served correctly, with the file holding the served image.
    served: Vec<(usize, PathBuf)>,
}

/// The `edit-relink` workload state.
pub struct EditRelink {
    base: Vec<Module>,
    libs: Vec<Archive>,
    reference: i64,
    /// `editions[phase][client]`.
    editions: Vec<Vec<Vec<Edition>>>,
    server: Arc<LinkServer>,
    handle: Option<ServerHandle>,
    socket: PathBuf,
    /// Where served images wait for their checks (outside the measured
    /// phase, and outside resident memory).
    images: PathBuf,
    /// `served[phase][client]`: filled by `measure`, consumed by `check`.
    served: Vec<Vec<Vec<(usize, PathBuf)>>>,
}

impl Drop for EditRelink {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.images);
    }
}

/// A data-only edition: `tag` appended to the module's `.data`. Nothing
/// references the bytes, so behaviour is unchanged.
fn data_edition(base: &[Module], index: usize, tag: u64) -> Edition {
    let mut module = base[index].clone();
    module.data.extend_from_slice(&tag.to_le_bytes());
    Edition { index, module }
}

/// Links the base program and then `editions` through the socket from
/// [`CLIENTS`] concurrent clients, failing on any error.
fn warm(socket: &Path, base: &[Module], editions: &[Edition]) -> Result<(), String> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
                    let mut requests: Vec<Vec<Module>> = editions
                        .iter()
                        .skip(c)
                        .step_by(CLIENTS)
                        .map(|e| e.objects(base))
                        .collect();
                    if c == 0 {
                        requests.insert(0, base.to_vec());
                    }
                    for objs in requests {
                        spanned("bench.client_link", || client.link(&objs, LEVEL, true))
                            .map_err(|e| e.to_string())?
                            .map_err(|e| format!("warm-up link: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers.into_iter().try_for_each(|w| {
            w.join()
                .map_err(|_| "warm-up client panicked".to_string())?
        })
    })
}

/// What every client of one measured phase shares.
struct Phase<'a> {
    base: &'a [Module],
    socket: &'a Path,
    images: &'a Path,
    start: Instant,
    seconds: f64,
    trace: Option<&'a Trace>,
    /// Held shared by a client for each edition (its two requests and the
    /// write of the served image), and exclusively while the host
    /// reference kernel runs, so the kernel never runs beside the
    /// workload.
    gate: &'a RwLock<()>,
}

/// One client's closed loop: every edition twice (miss, then hit) until
/// `seconds` have passed since `start` (at least one edition).
fn client_loop(p: &Phase<'_>, editions: &[Edition], name: &str) -> ClientLog {
    let _g = p.trace.map(Trace::install);
    let mut log = ClientLog::default();
    let mut client = match Client::connect(p.socket) {
        Ok(c) => c,
        Err(e) => {
            log.outcomes.push(Err(format!("{name}: connect: {e}")));
            return log;
        }
    };
    for (k, e) in editions.iter().enumerate() {
        if k > 0 && p.start.elapsed().as_secs_f64() >= p.seconds {
            break;
        }
        let objs = e.objects(p.base);
        let open = p.gate.read().unwrap_or_else(PoisonError::into_inner);
        let mut request = |want_cached: bool, times: &mut Vec<f64>| {
            let t = Instant::now();
            let r = spanned("bench.client_link", || client.link(&objs, LEVEL, true));
            times.push(t.elapsed().as_secs_f64() * 1e3);
            match r {
                Ok(Ok((cached, image))) if cached == want_cached => Ok(image),
                Ok(Ok((cached, _))) => Err(format!("{name} edition {k}: cached={cached}")),
                Ok(Err(msg)) => Err(format!("{name} edition {k}: {msg}")),
                Err(io) => Err(format!("{name} edition {k}: transport: {io}")),
            }
        };
        let edit = request(false, &mut log.edit_ms);
        let hit = request(true, &mut log.hit_ms);
        let served = match (edit, hit) {
            (Ok(a), Ok(b)) if a == b => Ok(a),
            (Ok(_), Ok(_)) => Err(format!(
                "{name} edition {k}: the hit served a different image"
            )),
            (a, b) => Err(a.err().or(b.err()).unwrap_or_default()),
        };
        let served = served.and_then(|image| {
            let path = p.images.join(format!("{name}-{k}.img"));
            std::fs::write(&path, image.to_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            log.served.push((k, path));
            Ok(())
        });
        drop(open);
        log.outcomes.push(served.clone());
        log.outcomes.push(served);
    }
    log
}

impl Workload for EditRelink {
    fn setup(cfg: &Config) -> Result<EditRelink, String> {
        let spec = scale_spec(cfg.size.edit_modules);
        let libs = stdlib()?;
        let srcs = spanned("bench.gen", || sources(&spec));
        let base = compile_each(&srcs)?;
        let reference = spanned("bench.interp", || {
            interp_reference_scale(&spec, INTERP_STEPS)
        })
        .map_err(|e| format!("{}: interpreter: {e}", spec.name))?;

        // Object i (after crt0) is compiled from srcs[i - 1].
        let user = base.len() - 1;
        let mut tag = 0u64;
        let warm_editions: Vec<Edition> = (0..WARM)
            .map(|w| {
                tag += 1;
                data_edition(&base, 1 + w % user, tag)
            })
            .collect();
        let mut editions = Vec::new();
        for _phase in 0..if cfg.trace { 2 } else { 1 } {
            let mut clients = Vec::new();
            for c in 0..CLIENTS {
                let order = permutation(user, cfg.seed, 1 + c as u64);
                let offset = c * user / CLIENTS;
                let mut seq = Vec::with_capacity(cfg.size.editions);
                for k in 0..cfg.size.editions {
                    tag += 1;
                    let index = 1 + order[(k + offset) % user];
                    seq.push(if k % 2 == 0 {
                        data_edition(&base, index, tag)
                    } else {
                        let (name, src) = &srcs[index - 1];
                        let src = format!(
                            "{src}int ombench_edit_{tag}(int x) {{ return x * 3 + {tag}; }}\n"
                        );
                        Edition {
                            index,
                            module: compile_one(name, &src)?,
                        }
                    });
                }
                clients.push(seq);
            }
            editions.push(clients);
        }

        let selected = select_modules(&base, &libs)
            .map_err(|e| e.to_string())?
            .len();
        let caches = OmCaches::new(selected + WARM, WARM);
        let server = Arc::new(LinkServer::with_caches(libs.clone(), caches));
        let n = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let stem = format!("ombench-{}-{n}", std::process::id());
        let socket = PathBuf::from(format!("{stem}.sock"));
        let images = PathBuf::from(format!("{stem}-images"));
        let handle = serve(&socket, Arc::clone(&server)).map_err(|e| format!("serve: {e}"))?;
        let w = EditRelink {
            base,
            libs,
            reference,
            editions,
            server,
            handle: Some(handle),
            socket,
            images,
            served: Vec::new(),
        };
        warm(&w.socket, &w.base, &warm_editions)?;
        Ok(w)
    }

    fn measure(
        &mut self,
        seconds: f64,
        phase: usize,
        trace: Option<&Trace>,
        _counts: &mut Counts,
    ) -> Result<Measured, String> {
        let editions = self
            .editions
            .get(phase)
            .ok_or("no editions prepared for this phase")?;
        let images = self.images.join(format!("phase{phase}"));
        std::fs::create_dir_all(&images).map_err(|e| format!("{}: {e}", images.display()))?;
        // A traced phase talks to a second socket whose connection threads
        // record into the trace; both sockets share one server and its
        // caches.
        let traced = match trace {
            Some(t) => {
                let path = self.socket.with_extension("traced.sock");
                Some(
                    serve_traced(&path, Arc::clone(&self.server), Some(t.clone()))
                        .map_err(|e| e.to_string())?,
                )
            }
            None => None,
        };
        let socket = traced
            .as_ref()
            .map_or(self.socket.as_path(), ServerHandle::path);
        let p = Phase {
            base: &self.base,
            socket,
            images: &images,
            start: Instant::now(),
            seconds,
            trace,
            gate: &RwLock::new(()),
        };
        let mut host_ms = Vec::new();
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let workers: Vec<_> = editions
                .iter()
                .enumerate()
                .map(|(c, seq)| {
                    let p = &p;
                    s.spawn(move || client_loop(p, seq, &format!("client{c}")))
                })
                .collect();
            let mut last = Instant::now();
            while !workers.iter().all(|w| w.is_finished()) {
                std::thread::sleep(Duration::from_millis(50));
                if last.elapsed() >= PROBE_EVERY {
                    let _quiet = p.gate.write().unwrap_or_else(PoisonError::into_inner);
                    host_ms.push(host::probe_ms());
                    last = Instant::now();
                }
            }
            workers
                .into_iter()
                .map(|w| {
                    w.join().unwrap_or_else(|_| ClientLog {
                        outcomes: vec![Err("client thread panicked".to_string())],
                        ..ClientLog::default()
                    })
                })
                .collect()
        });
        let mut m = Measured {
            phase,
            wall_s: p.start.elapsed().as_secs_f64(),
            probe_s: host_ms.iter().sum::<f64>() / 1e3,
            host_ms,
            ..Measured::default()
        };
        if let Some(h) = traced {
            h.shutdown();
        }
        let mut served = Vec::new();
        for log in logs {
            m.ops += log.outcomes.len() as u64;
            for o in log.outcomes {
                m.tally(o);
            }
            m.op_ms.extend(log.edit_ms);
            m.aux_ms.extend(log.hit_ms);
            served.push(log.served);
        }
        if self.served.len() <= phase {
            self.served.resize_with(phase + 1, Vec::new);
        }
        self.served[phase] = served;
        let q = |v: &[f64], q: f64| quantile(v, q).unwrap_or(0.0);
        m.report = vec![
            metric("edits", m.op_ms.len() as f64, "count"),
            metric("hits", m.aux_ms.len() as f64, "count"),
            metric("relink_edit_ms_p50", q(&m.op_ms, 0.5), "ms"),
            metric("relink_edit_ms_p90", q(&m.op_ms, 0.9), "ms"),
            metric("relink_hit_ms_p50", q(&m.aux_ms, 0.5), "ms"),
            metric("relink_hit_ms_p90", q(&m.aux_ms, 0.9), "ms"),
            metric(
                "relink_rps",
                m.ops as f64 / (m.wall_s - m.probe_s).max(1e-9),
                "1/s",
            ),
        ];
        Ok(m)
    }

    fn check(&mut self, m: &mut Measured, trace: Option<&Trace>, counts: &mut Counts) {
        let served = self
            .served
            .get_mut(m.phase)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut text_ratios = Vec::new();
        for (c, log) in served.iter().enumerate() {
            let editions = &self.editions[m.phase][c];
            // The first and last served editions must be byte-identical to
            // a one-shot link of the same objects. The first one is also
            // the workload's deterministic count slice.
            let ends = match log.len() {
                0 => vec![],
                1 => vec![&log[0]],
                n => vec![&log[0], &log[n - 1]],
            };
            for (i, &(k, ref path)) in ends.into_iter().enumerate() {
                let objs = editions[k].objects(&self.base);
                let before = counters(trace);
                let opts = OmOptions {
                    verify: true,
                    ..OmOptions::default()
                };
                let fresh = spanned("bench.om_link", || {
                    optimize_and_link_with(&objs, &self.libs, LEVEL, &opts)
                });
                let identical = match (fresh, std::fs::read(path)) {
                    (Ok(fresh), Ok(bytes)) => {
                        if i == 0 {
                            counts.add_om(&fresh);
                            counts.add_counters(&before, &counters(trace));
                            let std = spanned("bench.std_link", || {
                                link_modules(&objs, &self.libs, &LayoutOpts::default())
                            });
                            match std {
                                Ok((_, link)) => {
                                    counts.add_link(&link);
                                    text_ratios.push(
                                        fresh.link.text_bytes as f64 / link.text_bytes as f64,
                                    );
                                }
                                Err(e) => m.tally(Err(format!("client{c} standard link: {e}"))),
                            }
                        }
                        if fresh.image.to_bytes() == bytes {
                            Ok(())
                        } else {
                            Err(format!(
                                "client{c} edition {k}: served image differs from a one-shot link"
                            ))
                        }
                    }
                    (Err(e), _) => Err(format!("client{c} edition {k}: one-shot link: {e}")),
                    (_, Err(e)) => Err(format!("{}: {e}", path.display())),
                };
                m.tally(identical);
            }
            // Every served image computes the interpreter's result.
            for (i, (k, path)) in log.iter().enumerate() {
                let before = counters(trace);
                let image = std::fs::read(path)
                    .map_err(|e| e.to_string())
                    .and_then(|b| Image::from_bytes(&b));
                let result = image.and_then(|image| {
                    spanned("bench.sim", || run_timed_fast(&image, SIM_LIMIT))
                        .map_err(|e| e.to_string())
                });
                m.tally(match result {
                    Ok((r, ts)) => {
                        if i == 0 {
                            counts.add_sim(&ts);
                            counts.add_counters(&before, &counters(trace));
                        }
                        if r.result == self.reference {
                            Ok(())
                        } else {
                            Err(format!(
                                "client{c} edition {k}: result {}, want {}",
                                r.result, self.reference
                            ))
                        }
                    }
                    Err(e) => Err(format!("client{c} edition {k}: {e}")),
                });
                let _ = std::fs::remove_file(path);
            }
        }
        m.out_ratio = geomean(&text_ratios);
        if let Some(r) = m.out_ratio {
            m.report.push(metric("text_ratio_full_sched", r, "ratio"));
        }
    }

    fn probes(&self, m: &mut Measured) -> Result<Vec<Metric>, String> {
        let objs = self.editions[0][0][0].objects(&self.base);
        layer_probes(&[(&objs, &self.libs)], m)
    }

    /// The server and cache layers, from the traced phase: server time
    /// per link request (from the `omd.link` spans, split by whether the
    /// request ran the pipeline), the wire share of the client round trip,
    /// bytes per request, and the cache counters.
    fn layer_report(spans: &Spans, m: &Measured) -> Vec<Metric> {
        let links = spans.each("omd.link", "pipeline");
        let server = |edit: bool| {
            let v: Vec<f64> = links.iter().filter(|l| l.1 == edit).map(|l| l.0).collect();
            median(&v).unwrap_or(0.0)
        };
        let (server_edit, server_hit) = (server(true), server(false));
        let n = links.len().max(1) as f64;
        let c = |k: &str| spans.counter(k) as f64;
        let ratio = |a: f64, b: f64| a / (a + b).max(1.0);
        vec![
            metric(
                "omd.server_ms_p50",
                median(&links.iter().map(|l| l.0).collect::<Vec<_>>()).unwrap_or(0.0),
                "ms",
            ),
            metric("omd.server_edit_ms_p50", server_edit, "ms"),
            metric("omd.server_hit_ms_p50", server_hit, "ms"),
            metric(
                "omd.wire_edit_ms_p50",
                median(&m.op_ms).unwrap_or(0.0) - server_edit,
                "ms",
            ),
            metric(
                "omd.wire_hit_ms_p50",
                median(&m.aux_ms).unwrap_or(0.0) - server_hit,
                "ms",
            ),
            metric(
                "omd.bytes_in_per_req",
                spans.arg_sum("omd.link", "bytes_in") as f64 / n,
                "B",
            ),
            metric(
                "omd.bytes_out_per_req",
                spans.arg_sum("omd.link", "bytes_out") as f64 / n,
                "B",
            ),
            metric(
                "core.cache.module_hit_ratio",
                ratio(c("cache.modules.hit"), c("cache.modules.miss")),
                "ratio",
            ),
            metric(
                "core.cache.link_hit_ratio",
                ratio(c("cache.links.hit"), c("cache.links.miss")),
                "ratio",
            ),
            metric(
                "core.cache.module_misses_per_edit",
                c("cache.modules.miss") / c("cache.links.miss").max(1.0),
                "ratio",
            ),
            metric(
                "core.cache.coalesced",
                c("cache.modules.coalesced") + c("cache.links.coalesced"),
                "count",
            ),
        ]
    }
}
