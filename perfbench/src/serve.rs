//! `serve`: an in-process `serve::server::spawn` daemon (default
//! backend, one shard per CPU) under a closed loop of one connection per
//! CPU, each with one request in flight.
//!
//! Traffic is a seeded mix. Most requests repeat the 75 workload × op
//! templates of `bench --serve`, which are translation-cache lookups
//! after the warm-up. The rest carry keys the daemon has never seen:
//! unseen width, mode or jit combinations of the suite workloads, and
//! seeded inline programs. Those are builds plus cache inserts, so the
//! write path stays under load.
//!
//! The oracle replays every line in-process through the same public
//! pieces the daemon uses (`proto::parse_request`, `cache::BuildCache`,
//! `TranslationCache`, `ops::execute_with_backend`, `proto::with_id`)
//! and requires each served response to be byte-identical. The traced
//! run times that replay's calls per layer.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use liquid_simd::BackendKind;
use liquid_simd_perfhist::Json;
use liquid_simd_serve::cache::{BuildCache, CacheEntry, TranslationCache};
use liquid_simd_serve::ops::{self, OpOutput};
use liquid_simd_serve::proto::{self, Op};
use liquid_simd_serve::{spawn, ServeOptions, ServerHandle};
use liquid_simd_workloads::util::XorShift64;

use crate::batch::SETUP_REPS;
use crate::clock::{peak_rss_mb, process_cpu_s, Diag};
use crate::spans::Tracer;
use crate::stats::{geomean, median, tail, Tally};
use crate::yardstick::Slices;
use crate::Metrics;

/// Requests per measured block; `cpu_s` is the mean block's CPU time.
const BLOCK: usize = 40;

/// Measured blocks per `--seconds`: a run of today's daemon (about 0.9 s
/// a block) takes about the seconds asked for. The count depends on the
/// seconds alone, so every run measures the same requests and a faster
/// daemon measures the same work in less time.
const BLOCKS_PER_S: f64 = 1.1;

/// Blocks per unseen workload combination. A combination costs 3 to
/// 370 ms to execute, and a request on the other connection that lands on
/// the same shard waits behind it. With two combinations in every block,
/// these heavy requests and the requests queued behind them filled the
/// top percent of latencies, so the tail moved with the host's speed and
/// with the seed's shard collisions (`req_p99_ms` spread 0.23 over ten
/// runs). A few per run keep the tail among ordinary requests.
const COMBO_EVERY: usize = 8;

/// One request line and whether its key is new to the daemon.
#[derive(Clone, Debug)]
struct Line {
    text: String,
    fresh: bool,
}

/// The 75 request templates of `bench --serve`: five per suite workload.
fn templates() -> Vec<String> {
    let mut out = Vec::new();
    for w in liquid_simd_workloads::all() {
        let n = &w.name;
        out.push(format!(
            r#"{{"op":"translate","workload":"{n}","width":8}}"#
        ));
        out.push(format!(r#"{{"op":"run","workload":"{n}","width":8}}"#));
        out.push(format!(
            r#"{{"op":"run","workload":"{n}","width":8,"report":true}}"#
        ));
        out.push(format!(
            r#"{{"op":"explain","workload":"{n}","widths":[2,8]}}"#
        ));
        out.push(format!(r#"{{"op":"run","workload":"{n}","width":0}}"#));
    }
    out
}

/// Workload requests whose (op, width, mode, jit) the templates never
/// use, in a fixed order in which any 15 consecutive entries cover every
/// suite workload once. Their costs span two orders of magnitude, so the
/// seed does not pick among them: it picks the template repeats and the
/// inline programs, and every run meets the same costly requests.
fn fresh_combos() -> Vec<String> {
    let mut kinds: Vec<String> = Vec::new();
    for width in [2, 4, 16] {
        kinds.push(format!(r#""op":"run","width":{width}"#));
        kinds.push(format!(r#""op":"translate","width":{width}"#));
    }
    for width in [2, 4, 8, 16] {
        kinds.push(format!(r#""op":"run","width":{width},"mode":"native""#));
    }
    kinds.push(r#""op":"run","width":8,"jit":true"#.to_string());
    let names: Vec<String> = liquid_simd_workloads::all()
        .into_iter()
        .map(|w| w.name)
        .collect();
    // Entry `i` pairs workload `i % n` with kind `(i + i / n) % kinds`,
    // a bijection because `n + 1` is invertible modulo the kind count.
    let (n, k) = (names.len(), kinds.len());
    (0..n * k)
        .map(|i| {
            format!(
                r#"{{{},"workload":"{}"}}"#,
                kinds[(i + i / n) % k],
                names[i % n]
            )
        })
        .collect()
}

/// A seeded outlined loop: `B[i] = 2 * A[i] + k`, called `calls` times.
fn inline_program(rng: &mut XorShift64) -> String {
    let a: Vec<String> = (0..16)
        .map(|_| rng.range_i64(-999, 999).to_string())
        .collect();
    let k = rng.range_i64(1, 99);
    let calls = rng.range_i64(2, 8);
    format!(
        ".data\n.i32 A: {}\n.i32 B: {}\n\n.text\nmain:\n    mov r5, #0\nagain:\n    \
         bl.v body\n    add r5, r5, #1\n    cmp r5, #{calls}\n    blt again\n    halt\n\
         body:\n    mov r0, #0\ntop:\n    ldw r1, [A + r0]\n    add r1, r1, r1\n    \
         add r1, r1, #{k}\n    stw [B + r0], r1\n    add r0, r0, #1\n    cmp r0, #16\n    \
         blt top\n    ret\n",
        a.join(", "),
        ["0"; 16].join(", ")
    )
}

/// Splices a string id into a request object as its last field.
fn with_id(request: &str, id: &str) -> String {
    format!("{},\"id\":\"{id}\"}}", &request[..request.len() - 1])
}

/// The id a response echoes, if it is a string.
fn response_id(response: &str) -> Option<String> {
    Json::parse(response)
        .ok()?
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// The seeded request stream.
struct Traffic {
    rng: XorShift64,
    templates: Vec<String>,
    combos: Vec<String>,
    next_combo: usize,
    /// Blocks made so far.
    blocks: usize,
    /// Template indices still to repeat in the current round.
    deck: Vec<usize>,
    next_id: u64,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        Traffic {
            rng: XorShift64::new(seed ^ 0x5E4E_5EED),
            templates: templates(),
            combos: fresh_combos(),
            next_combo: 0,
            blocks: 0,
            deck: Vec::new(),
            next_id: 0,
        }
    }

    fn line(&mut self, request: &str, fresh: bool) -> Line {
        self.next_id += 1;
        Line {
            text: with_id(request, &format!("q{}", self.next_id)),
            fresh,
        }
    }

    /// The next template to repeat: rounds of every template once, each
    /// round in a seeded order, so the seed changes which templates a
    /// block holds but not how often a run repeats each one.
    fn next_repeat(&mut self) -> usize {
        if self.deck.is_empty() {
            self.deck = crate::shuffled(self.templates.len(), self.rng.next_u64());
        }
        self.deck.pop().expect("a refilled deck is not empty")
    }

    /// Every template once: fills the daemon's caches.
    fn warm_up(&mut self) -> Vec<Line> {
        let templates = self.templates.clone();
        templates.iter().map(|t| self.line(t, true)).collect()
    }

    /// One block: per twenty requests, four inline programs and sixteen
    /// template repeats; in every [`COMBO_EVERY`]th block the first inline
    /// program gives way to the next unseen workload combination (while
    /// the schedule lasts). Most fresh keys are cheap inline programs, so
    /// `miss_p50_ms` sits inside one population rather than on the edge
    /// between two.
    fn block(&mut self) -> Vec<Line> {
        let with_combo = self.blocks.is_multiple_of(COMBO_EVERY);
        self.blocks += 1;
        (0..BLOCK)
            .map(|i| match i % 20 {
                0 if i == 0 && with_combo && self.next_combo < self.combos.len() => {
                    let combo = self.combos[self.next_combo].clone();
                    self.next_combo += 1;
                    self.line(&combo, true)
                }
                0 | 5 | 10 | 15 => {
                    let program = Json::Str(inline_program(&mut self.rng)).write();
                    let width = [2, 4, 8, 16][self.rng.range_usize(0, 4)];
                    let name = format!("inline{}", self.next_id + 1);
                    let request = format!(
                        r#"{{"op":"run","program":{program},"name":"{name}","width":{width}}}"#
                    );
                    self.line(&request, true)
                }
                _ => {
                    let i = self.next_repeat();
                    let t = self.templates[i].clone();
                    self.line(&t, false)
                }
            })
            .collect()
    }
}

/// One closed-loop client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    /// Sends one request and waits for its response.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(resp.trim_end_matches(['\r', '\n']).to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// One answered request: wall latency and the response line.
struct Answer {
    ms: f64,
    response: String,
}

/// Sends `lines` over every connection at once, request `i` on
/// connection `i % conns`, each connection closed-loop. Answers come
/// back in line order; a response must echo its own request's id.
fn send(conns: &mut [Conn], lines: &[Line]) -> Result<Vec<Answer>, String> {
    let n = conns.len();
    let per_conn: Vec<Result<Vec<(usize, Answer)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, line) in lines.iter().enumerate().skip(c).step_by(n) {
                        let t0 = Instant::now();
                        let response = conn.call(&line.text)?;
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        out.push((i, Answer { ms, response }));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut answers: Vec<(usize, Answer)> = Vec::with_capacity(lines.len());
    for conn in per_conn {
        answers.extend(conn?);
    }
    answers.sort_by_key(|(i, _)| *i);
    Ok(answers.into_iter().map(|(_, a)| a).collect())
}

/// The daemon with its client connections.
struct Rig {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

impl Rig {
    fn start(cpus: usize) -> Result<Rig, String> {
        let handle = spawn(ServeOptions {
            shards: cpus,
            ..ServeOptions::default()
        })?;
        let conns = (0..cpus)
            .map(|_| Conn::open(handle.addr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig { handle, conns })
    }

    /// Closes the connections and waits for the daemon to exit.
    fn stop(self) -> Result<liquid_simd_serve::ServeSummary, String> {
        self.handle.shutdown();
        drop(self.conns);
        self.handle.join()
    }
}

/// One replayed line: the response the daemon must have sent, and the
/// output it came from.
struct Replayed {
    response: String,
    output: std::sync::Arc<CacheEntry>,
    hit: bool,
}

/// The daemon's request path, in-process, on one thread.
struct Replay {
    builds: BuildCache,
    cache: TranslationCache,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            builds: BuildCache::default(),
            cache: TranslationCache::with_capacity(0),
        }
    }

    fn line(&self, tr: &mut Tracer, line: &str) -> Result<Replayed, String> {
        let req = tr.span("serve.parse_s", |_| proto::parse_request(line))?;
        let program = if req.op == Op::Conform {
            None
        } else {
            Some(
                tr.span("serve.build_s", |_| match (&req.workload, &req.program) {
                    (Some(name), _) => self.builds.workload(name),
                    (None, Some(src)) => self.builds.inline(src, req.name.as_deref()),
                    (None, None) => Err("missing program".to_string()),
                })?,
            )
        };
        let (key, hit) = tr.span("serve.probe_s", |_| {
            let prog_hash = program.as_ref().map_or(req.seed, |p| p.hash);
            let cfg_hash = ops::machine_config(req.mode, req.lanes, req.jit).fingerprint();
            let key = proto::canonical_key(&req, prog_hash, cfg_hash);
            let hit = self.cache.lookup(&key);
            (key, hit)
        });
        let (output, was_hit) = match hit {
            Some(entry) => (entry, true),
            None => {
                let output: OpOutput = tr.span("serve.execute_s", |_| {
                    let placeholder;
                    let (prog, name) = match &program {
                        Some(p) => (&p.program, p.name.as_str()),
                        None => {
                            placeholder = ops::assemble_inline(".text\nmain:\n    halt\n")?;
                            (&placeholder, "<none>")
                        }
                    };
                    Ok::<_, String>(ops::execute_with_backend(
                        &req,
                        prog,
                        name,
                        BackendKind::Interp,
                    ))
                })?;
                let entry = CacheEntry {
                    output,
                    microcode: Vec::new(),
                };
                (
                    tr.span("serve.insert_s", |_| self.cache.insert(&key, entry).0),
                    false,
                )
            }
        };
        let response = tr.span("serve.respond_s", |_| {
            proto::with_id(&output.output.body, req.id.as_ref())
        });
        Ok(Replayed {
            response,
            output,
            hit: was_hit,
        })
    }
}

/// Replays `lines` in order; returns each line's result and wall ms.
fn replay(tr: &mut Tracer, lines: &[Line]) -> Result<Vec<(Replayed, f64)>, String> {
    let r = Replay::new();
    lines
        .iter()
        .map(|l| {
            let t0 = Instant::now();
            let out = r.line(tr, &l.text)?;
            Ok((out, t0.elapsed().as_secs_f64() * 1e3))
        })
        .collect()
}

/// Counters the traced run reports for serve: summed over the warm-up's
/// template outputs, so they do not depend on the seed.
const OUTPUT_COUNTERS: &[(&str, &str)] = &[
    ("retired", "sim.retired"),
    ("cycles", "sim.cycles"),
    ("translator.attempts", "translator.attempts"),
    ("translator.successes", "translator.successes"),
    ("translator.aborted", "translator.aborts"),
    ("mcache.hits", "mcache.hits"),
    ("mcache.misses", "mcache.misses"),
    ("mcache.evictions", "mcache.evictions"),
    ("blocks.fallback.translator", "blocks.fallback_translator"),
    ("blocks.fallback.control", "blocks.fallback_control"),
];

/// Runs the serve workload.
///
/// # Errors
///
/// Returns transport, daemon or replay failures.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<(Metrics, Tally), String> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut made = None;
    for _ in 0..SETUP_REPS {
        if let Some((rig, _, _)) = made.take() {
            Rig::stop(rig)?;
        }
        let t0 = process_cpu_s();
        let mut traffic = Traffic::new(seed);
        let warm = traffic.warm_up();
        let rig = Rig::start(cpus)?;
        let cpu = process_cpu_s() - t0;
        setups.push(cpu * Slices::one().factor());
        made = Some((rig, traffic, warm));
    }
    let (mut rig, mut traffic, mut sent) = made.expect("SETUP_REPS > 0");
    let mut answers = send(&mut rig.conns, &sent)?;

    let diag = Diag::start();
    let blocks = ((seconds * BLOCKS_PER_S).round() as usize).max(2);
    // A yardstick slice before the first block and after every block:
    // block `b` runs between slices `b` and `b + 1`.
    let mut slices = Slices::one();
    let (mut block_cpu, mut block_wall) = (Vec::new(), Vec::new());
    let measured_from = sent.len();
    for b in 0..blocks {
        let lines = traffic.block();
        let (t0, w0) = (process_cpu_s(), Instant::now());
        let got = send(&mut rig.conns, &lines)?;
        let (cpu, wall) = (process_cpu_s() - t0, w0.elapsed());
        slices.run();
        block_cpu.push(cpu * slices.factor_between(b + 1));
        block_wall.push(wall);
        sent.extend(lines);
        answers.extend(got);
    }
    let (wall_s, wait_s) = diag.read();
    let summary = rig.stop()?;

    // Oracle: byte-identical to the in-process replay, a success body,
    // and the request's own id echoed.
    let replay_t0 = process_cpu_s();
    let expected = replay(&mut Tracer::off(), &sent)?;
    // Normalised by a yardstick slice, like the traced replay below, so
    // host drift between the two replays does not read as overhead.
    let replay_norm = (process_cpu_s() - replay_t0) * Slices::one().factor();
    let mut tally = Tally::default();
    for ((line, answer), (want, _)) in sent.iter().zip(&answers).zip(&expected) {
        let id = response_id(&line.text);
        tally.check(
            answer.response == want.response
                && want.output.output.ok
                && response_id(&answer.response) == id,
            || format!("served {} != replayed {}", answer.response, want.response),
        );
    }
    tally.check(summary.errors == 0, || {
        format!("daemon answered {} errors", summary.errors)
    });

    let measured = &answers[measured_from..];
    let latencies: Vec<f64> = measured.iter().map(|a| a.ms).collect();
    let misses: Vec<f64> = measured
        .iter()
        .zip(&sent[measured_from..])
        .filter(|(_, l)| l.fresh)
        .map(|(a, _)| a.ms)
        .collect();
    let (tail_pct, tail_ms) = tail(&latencies);
    eprintln!(
        "perfbench: {blocks} blocks of {BLOCK}, {cpus} connections, tail = p{tail_pct:.2}, \
         harness.wall_s={wall_s:.3} harness.sched_wait_s={wait_s:.3}",
    );

    if trace {
        let mut tr = Tracer::on();
        let t0 = process_cpu_s();
        let traced = replay(&mut tr, &sent)?;
        let traced_cpu = process_cpu_s() - t0;
        let traced_norm = traced_cpu * Slices::one().factor();
        let mut metrics: Metrics = crate::TIMED_LAYERS
            .iter()
            .map(|&layer| (layer, tr.self_s(layer)))
            .collect();
        let warm = &traced[..measured_from];
        for &(key, name) in OUTPUT_COUNTERS {
            let total: u64 = warm
                .iter()
                .map(|(r, _)| r.output.output.counters.get(key).copied().unwrap_or(0))
                .sum();
            metrics.push((name, total as f64));
        }
        let in_process: Vec<f64> = expected[measured_from..]
            .iter()
            .map(|(_, ms)| *ms)
            .collect();
        let hits = traced.iter().filter(|(r, _)| r.hit).count();
        metrics.extend([
            ("verify.checks", tally.attempted as f64),
            (
                "serve.transport_ms",
                median(&latencies) - median(&in_process),
            ),
            ("serve.hit_frac", hits as f64 / traced.len() as f64),
            ("harness.traced_cpu_s", traced_cpu),
            ("harness.unattributed_s", traced_cpu - tr.total_self_s()),
            (
                "harness.trace_overhead_frac",
                traced_norm / replay_norm - 1.0,
            ),
            ("harness.wall_s", wall_s),
            ("harness.sched_wait_s", wait_s),
            ("harness.yardstick_s", slices.mean_s()),
        ]);
        return Ok((metrics, tally));
    }

    let served_instr: u64 = expected[measured_from..]
        .iter()
        .map(|(r, _)| {
            r.output
                .output
                .counters
                .get("retired")
                .copied()
                .unwrap_or(0)
        })
        .sum();
    // Scalar over liquid cycles at 8 lanes, per suite workload, from the
    // warm-up's `run` templates (width 0 and width 8).
    let cycles_of = |request: &str| {
        sent[..measured_from]
            .iter()
            .position(|l| l.text.starts_with(&request[..request.len() - 1]))
            .map(|i| expected[i].0.output.output.cycles as f64)
    };
    let speedups: Vec<f64> = liquid_simd_workloads::all()
        .iter()
        .filter_map(|w| {
            let n = &w.name;
            let scalar = cycles_of(&format!(r#"{{"op":"run","workload":"{n}","width":0}}"#))?;
            let liquid = cycles_of(&format!(r#"{{"op":"run","workload":"{n}","width":8}}"#))?;
            Some(scalar / liquid)
        })
        .collect();
    let cpu_total: f64 = block_cpu.iter().sum();
    let wall_total: f64 = block_wall.iter().map(Duration::as_secs_f64).sum();
    Ok((
        vec![
            ("cpu_s", cpu_total / block_cpu.len() as f64),
            (
                "sim_minstr_per_cpu_s",
                served_instr as f64 / cpu_total / 1e6,
            ),
            ("speedup_geomean_w8", geomean(&speedups)),
            ("req_p50_ms", median(&latencies)),
            ("req_p99_ms", tail_ms),
            ("miss_p50_ms", median(&misses)),
            ("req_per_s", latencies.len() as f64 / wall_total),
            ("ok_frac", tally.ok_frac()),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb()?),
        ],
        tally,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_splice_into_requests_and_echo_back() {
        let line = with_id(r#"{"op":"run","workload":"FIR","width":8}"#, "q7");
        assert_eq!(line, r#"{"op":"run","workload":"FIR","width":8,"id":"q7"}"#);
        let req = proto::parse_request(&line).unwrap();
        let body = proto::ok_body(Op::Run, Vec::new());
        let response = proto::with_id(&body, req.id.as_ref());
        assert_eq!(response_id(&response).as_deref(), Some("q7"));
        assert_eq!(response_id(&body), None);
        assert_eq!(response_id("not json"), None);
    }

    #[test]
    fn fresh_combos_are_distinct_and_unseen() {
        let combos = fresh_combos();
        let distinct: std::collections::BTreeSet<&String> = combos.iter().collect();
        assert_eq!(distinct.len(), 11 * 15);
        let templates = templates();
        for c in &combos {
            assert!(!templates.contains(c), "{c}");
        }
    }

    #[test]
    fn traffic_is_seeded_and_keeps_its_mix() {
        let (mut a, mut b) = (Traffic::new(3), Traffic::new(3));
        let (x, y) = (a.block(), b.block());
        assert_eq!(
            x.iter().map(|l| &l.text).collect::<Vec<_>>(),
            y.iter().map(|l| &l.text).collect::<Vec<_>>()
        );
        assert_eq!(x.iter().filter(|l| l.fresh).count(), BLOCK / 5);
        assert_ne!(x[1].text, Traffic::new(4).block()[1].text);
    }

    #[test]
    fn template_repeats_come_in_rounds() {
        let mut t = Traffic::new(9);
        let n = t.templates.len();
        let mut round: Vec<usize> = (0..n).map(|_| t.next_repeat()).collect();
        round.sort_unstable();
        assert_eq!(round, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn every_kind_of_line_replays_successfully() {
        let mut t = Traffic::new(1);
        let mut lines = t.block();
        lines.truncate(11);
        let out = replay(&mut Tracer::off(), &lines).unwrap();
        for (r, _) in &out {
            assert!(r.output.output.ok, "{}", r.response);
        }
    }

    #[test]
    fn closed_loop_answers_match_their_requests() {
        let mut rig = Rig::start(2).unwrap();
        let mut t = Traffic::new(5);
        let mut lines = t.block();
        lines.truncate(6);
        let answers = send(&mut rig.conns, &lines).unwrap();
        let want = replay(&mut Tracer::off(), &lines).unwrap();
        for ((line, a), (w, _)) in lines.iter().zip(&answers).zip(&want) {
            assert_eq!(response_id(&a.response), response_id(&line.text));
            assert_eq!(a.response, w.response);
        }
        rig.stop().unwrap();
    }
}
