//! `dynamips` — regenerate the paper's tables and figures from simulation.
//!
//! ```text
//! dynamips [--seed N] [--atlas-scale X] [--cdn-scale Y] <artifact>...
//! dynamips all            # everything
//! dynamips table1 fig5    # a subset
//! dynamips --threads 8 --timings all   # parallel engine + wall-time table
//! dynamips chaos --rate 0.01 --seeds 5   # adversarial-ingest sweep
//! dynamips chaos-serve --seed 7          # network-fault serving sweep
//! dynamips lint [--format json]          # workspace invariant checker
//! dynamips serve --addr 127.0.0.1:0      # HTTP serving layer
//! dynamips loadtest --url http://127.0.0.1:8311/artifacts/fig1
//! dynamips loadtest --open-loop --rate-rps 600 --url http://127.0.0.1:8311/healthz
//! dynamips bench-check BENCH_all.json    # validate a bench record
//! dynamips bench-check BENCH_serve.json --baseline BENCH_serve_baseline.json
//! ```
//!
//! Artifact names and `--out` writability are validated *before* any
//! analysis runs, so a typo exits immediately with code 2 instead of
//! after minutes of computation.
//!
//! Exit codes: `0` on success, `1` on a run failure (I/O error, failed
//! `check` predicates, failed `chaos` or `chaos-serve` sweep), `2` on a
//! usage error.

// Panic-freedom, as in the library crate (tests are exempt via
// clippy.toml); a binary may print.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use dynamips_experiments::{
    chaos, chaos_serve, engine, extended, ipam_service, ipam_sim, service, ExperimentConfig,
};

/// The nonzero exit codes; success is returning from `main`.
enum Exit {
    /// Run failures (I/O, failed check/chaos assertions).
    RunFailure = 1,
    /// Usage errors (bad flags, unknown artifacts).
    Usage = 2,
}

/// Terminate with `code`: the binary's only call to `process::exit`.
#[allow(
    clippy::disallowed_methods,
    reason = "the binary's single exit point; its codes are `Exit` variants"
)]
fn exit(code: Exit) -> ! {
    std::process::exit(code as i32)
}

fn usage() -> ! {
    eprintln!(
        "usage: dynamips [--seed N] [--atlas-scale X] [--cdn-scale Y] <artifact>...\n\
         artifacts: {} {} claims check all\n\
         extended:  {} (share the engine's cached world)\n\
         datasets:  dump-atlas <path> | dump-cdn <path>\n\
         chaos:     chaos [--rate R]... [--seeds N] [--fail-threshold T]\n\
         \x20          (corrupt the TSV dumps, re-ingest through the lossy\n\
         \x20          loaders, verify the paper shapes survive; defaults to\n\
         \x20          the reference scale: seed 2020, scales 0.2/0.15)\n\
         chaos-serve: chaos-serve [--rate R]... [--requests N]\n\
         \x20          [--timeout-ms N] [--fail-threshold T] [--bench-out PATH]\n\
         \x20          (route loadtest traffic through a fault-injecting TCP\n\
         \x20          proxy at each rate; every 2xx must be byte-identical to\n\
         \x20          the warm engine, no client-visible 5xx, clean drain;\n\
         \x20          writes BENCH_chaos_serve.json)\n\
         lint:      lint [--format text|json|sarif] [--explain RULE]\n\
         \x20          (check the workspace's call-graph invariants: dead pub\n\
         \x20          items, lock order, blocking calls, condvar loops and\n\
         \x20          bounded growth, against lint.toml; --explain prints\n\
         \x20          one rule's rationale and pragma syntax)\n\
         serve:     serve [--addr A] [--serve-workers N] [--queue N]\n\
         \x20          [--max-conns N] [--cache-cap N] [--read-timeout-ms N]\n\
         \x20          [--write-timeout-ms N]\n\
         \x20          (HTTP server over the engine at the reference scale by\n\
         \x20          default; GET /shutdown drains and exits)\n\
         loadtest:  loadtest --url U [--concurrency N] [--requests N]\n\
         \x20          [--timeout-ms N] [--bench-out PATH]\n\
         \x20          [--open-loop --rate-rps R] [--seed N]\n\
         \x20          (closed-loop by default; --open-loop sends on a seeded\n\
         \x20          Poisson arrival schedule over keep-alive connections\n\
         \x20          and measures latency from each request's *scheduled*\n\
         \x20          start, so server stalls are charged, not hidden;\n\
         \x20          writes BENCH_serve.json)\n\
         bench:     bench-check <path> [--baseline PATH]\n\
         \x20          (validate a dynamips-bench-v1 record; with --baseline,\n\
         \x20          fail on any `-ms` ceiling / `-rps` floor regression)\n\
         ipam-sim:  ipam-sim [--seed N] [--subscribers N] [--ticks N]\n\
         \x20          [--shards N] [--bench-out PATH]\n\
         \x20          (churn a subscriber population against the live IPAM\n\
         \x20          allocator twice with one seed; asserts byte-identical\n\
         \x20          allocation digests, full-population peak concurrency,\n\
         \x20          and free/leased/standby/excluded conservation after\n\
         \x20          every sweep; writes BENCH_ipam.json)\n\
         \x20        ipam-sim --url U [--cycles N] [--timeout-ms N]\n\
         \x20          (drive POST/PUT/DELETE lease cycles against a running\n\
         \x20          `dynamips serve`, then assert the leases_active gauge\n\
         \x20          drained to zero and GET /pools conserves)\n\
         options:   --out DIR writes each artifact to DIR/<artifact>.txt\n\
         \x20          --threads N engine worker threads (default: all cores,\n\
         \x20          or DYNAMIPS_THREADS); --timings prints the per-stage\n\
         \x20          wall-time table to stderr and writes BENCH_all.json\n\
         extra:     seeds (robustness across seeds; not part of `all`)\n\
         exit code: 0 success, 1 run failure (I/O, failed check or chaos), 2 usage",
        engine::ATLAS_ARTIFACTS.join(" "),
        engine::CDN_ARTIFACTS.join(" "),
        engine::EXTENDED_ARTIFACTS.join(" "),
    );
    exit(Exit::Usage);
}

fn main() {
    // Flags are collected as overrides so subcommands can pick their own
    // defaults (chaos defaults to the reference scale, artifacts to the
    // paper scale).
    let mut seed: Option<u64> = None;
    let mut atlas_scale: Option<f64> = None;
    let mut cdn_scale: Option<f64> = None;
    let mut chaos_opts = chaos::ChaosOptions::default();
    let mut chaos_rates: Vec<f64> = Vec::new();
    // Shared by `chaos` and `chaos-serve`, whose defaults differ.
    let mut fail_threshold: Option<f64> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut timings = false;
    let mut lint_format: Option<String> = None;
    let mut lint_explain: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut serve_workers: Option<usize> = None;
    let mut queue_cap: Option<usize> = None;
    let mut max_conns: Option<usize> = None;
    let mut cache_cap: Option<usize> = None;
    let mut read_timeout_ms: Option<u64> = None;
    let mut write_timeout_ms: Option<u64> = None;
    let mut lt_url: Option<String> = None;
    let mut lt_concurrency: Option<usize> = None;
    let mut lt_requests: Option<usize> = None;
    let mut lt_timeout_ms: Option<u64> = None;
    let mut lt_open_loop = false;
    let mut lt_rate_rps: Option<f64> = None;
    let mut bench_out: Option<std::path::PathBuf> = None;
    let mut bench_baseline: Option<std::path::PathBuf> = None;
    let mut ipam_subscribers: Option<u64> = None;
    let mut ipam_ticks: Option<u64> = None;
    let mut ipam_shards: Option<usize> = None;
    let mut ipam_cycles: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(args.next().map(Into::into).unwrap_or_else(|| usage())),
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--atlas-scale" => {
                atlas_scale = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--cdn-scale" => {
                cdn_scale = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--threads" => {
                threads = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--timings" => timings = true,
            "--format" => lint_format = Some(args.next().unwrap_or_else(|| usage())),
            "--explain" => lint_explain = Some(args.next().unwrap_or_else(|| usage())),
            "--addr" => serve_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--serve-workers" => {
                serve_workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--queue" => {
                queue_cap = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--max-conns" => {
                max_conns = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--cache-cap" => {
                cache_cap = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--read-timeout-ms" => {
                read_timeout_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--write-timeout-ms" => {
                write_timeout_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--url" => lt_url = Some(args.next().unwrap_or_else(|| usage())),
            "--concurrency" => {
                lt_concurrency = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--requests" => {
                lt_requests = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--timeout-ms" => {
                lt_timeout_ms = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--bench-out" => {
                bench_out = Some(args.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--open-loop" => lt_open_loop = true,
            "--rate-rps" => {
                lt_rate_rps = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--baseline" => {
                bench_baseline = Some(args.next().map(Into::into).unwrap_or_else(|| usage()))
            }
            "--subscribers" => {
                ipam_subscribers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--ticks" => {
                ipam_ticks = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--shards" => {
                ipam_shards = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--cycles" => {
                ipam_cycles = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--rate" => chaos_rates.push(
                args.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage()),
            ),
            "--seeds" => {
                chaos_opts.seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--fail-threshold" => {
                fail_threshold = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }

    let mut cfg = ExperimentConfig::default();

    // The lint subcommand takes over the whole invocation: it reads
    // source, not simulation, and mirrors the standalone `dynamips-lint`
    // binary (and its 0/1/2 exit contract).
    if wanted[0] == "lint" {
        if wanted.len() != 1 {
            usage();
        }
        if let Some(id) = lint_explain {
            match dynamips_lint::explain(&id) {
                Some(text) => {
                    print!("{text}");
                    return;
                }
                None => {
                    eprintln!(
                        "dynamips lint: unknown rule {id:?} (see `dynamips-lint --list-rules`)"
                    );
                    exit(Exit::Usage);
                }
            }
        }
        let format = match lint_format.as_deref() {
            None => dynamips_lint::Format::Text,
            Some(word) => dynamips_lint::Format::parse(word).unwrap_or_else(|| usage()),
        };
        let Some(root) = std::env::current_dir()
            .ok()
            .and_then(|cwd| dynamips_lint::find_root(&cwd))
        else {
            eprintln!("dynamips lint: no lint.toml found above the current directory");
            exit(Exit::Usage);
        };
        let config_text = match std::fs::read_to_string(root.join("lint.toml")) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dynamips lint: cannot read lint.toml: {e}");
                exit(Exit::Usage);
            }
        };
        match dynamips_lint::run(&root, &config_text, format) {
            Ok(outcome) => {
                print!("{}", outcome.report);
                if outcome.denies > 0 {
                    exit(Exit::RunFailure);
                }
            }
            Err(e) => {
                eprintln!("dynamips lint: {e}");
                exit(Exit::Usage);
            }
        }
        return;
    }
    if lint_format.is_some() || lint_explain.is_some() {
        // --format and --explain only mean something to `lint`.
        usage();
    }

    // The chaos sweep takes over the whole invocation.
    if wanted[0] == "chaos" {
        if wanted.len() != 1 {
            usage();
        }
        // Reference scale: the smallest configuration whose shape
        // predicates are all known to hold on uncorrupted data.
        cfg = ExperimentConfig {
            seed: seed.unwrap_or(2020),
            atlas_scale: atlas_scale.unwrap_or(0.2),
            cdn_scale: cdn_scale.unwrap_or(0.15),
        };
        if !chaos_rates.is_empty() {
            chaos_opts.rates = chaos_rates;
        }
        if let Some(t) = fail_threshold {
            chaos_opts.fail_threshold = t;
        }
        eprintln!(
            "[dynamips] chaos sweep over rates {:?} ({} seeds each)...",
            chaos_opts.rates, chaos_opts.seeds
        );
        let outcome = chaos::run(&cfg, &chaos_opts);
        println!("{}", outcome.text);
        if !outcome.ok {
            exit(Exit::RunFailure);
        }
        return;
    }

    // The network-chaos serving sweep takes over the whole invocation.
    if wanted[0] == "chaos-serve" {
        if wanted.len() != 1 {
            usage();
        }
        // A deliberately small scale: the sweep rebuilds a session per
        // rate, and it measures fault handling, not engine throughput.
        cfg = ExperimentConfig {
            seed: seed.unwrap_or(7),
            atlas_scale: atlas_scale.unwrap_or(0.02),
            cdn_scale: cdn_scale.unwrap_or(0.02),
        };
        let mut cs_opts = chaos_serve::ChaosServeOptions::default();
        if !chaos_rates.is_empty() {
            cs_opts.rates = chaos_rates;
        }
        if let Some(n) = lt_requests {
            cs_opts.requests = n;
        }
        if let Some(ms) = lt_timeout_ms {
            cs_opts.timeout_ms = ms;
        }
        if let Some(t) = fail_threshold {
            cs_opts.fail_threshold = t;
        }
        // Usage errors exit 2 before any socket is bound or world built.
        if cs_opts.rates.is_empty() || cs_opts.requests == 0 || cs_opts.timeout_ms == 0 {
            eprintln!("chaos-serve: --rate, --requests, --timeout-ms must be >= 1");
            exit(Exit::Usage);
        }
        let bench_path = bench_out.unwrap_or_else(|| "BENCH_chaos_serve.json".into());
        let probe_dir = match bench_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let probe = probe_dir.join(".dynamips-write-probe");
        if let Err(e) = std::fs::write(&probe, b"").and_then(|()| std::fs::remove_file(&probe)) {
            eprintln!(
                "chaos-serve: --bench-out {} is not writable: {e}",
                bench_path.display()
            );
            exit(Exit::Usage);
        }
        eprintln!(
            "[dynamips] chaos-serve sweep over rates {:?} ({} request(s) each)...",
            cs_opts.rates, cs_opts.requests
        );
        let outcome = chaos_serve::run(&cfg, &cs_opts, engine::worker_count(threads));
        print!("{}", outcome.text);
        match std::fs::write(&bench_path, outcome.perf.to_json()) {
            Ok(()) => eprintln!("[dynamips] wrote {}", bench_path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", bench_path.display());
                exit(Exit::RunFailure);
            }
        }
        if !outcome.ok {
            exit(Exit::RunFailure);
        }
        return;
    }

    // The IPAM churn simulation takes over the whole invocation.
    if wanted[0] == "ipam-sim" {
        if wanted.len() != 1 {
            usage();
        }
        // HTTP mode: drive lease cycles against a running server.
        if let Some(url) = lt_url {
            let cycles = ipam_cycles.unwrap_or(4_000);
            let timeout_ms = lt_timeout_ms.unwrap_or(10_000);
            if cycles == 0 || timeout_ms == 0 {
                eprintln!("ipam-sim: --cycles and --timeout-ms must be >= 1");
                exit(Exit::Usage);
            }
            if let Err(e) = dynamips_serve::client::split_url(&url) {
                eprintln!("ipam-sim: {e}");
                exit(Exit::Usage);
            }
            match ipam_sim::run_url(&url, cycles, timeout_ms) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("ipam-sim: {e}");
                    exit(Exit::RunFailure);
                }
            }
            return;
        }
        let mut opts = ipam_sim::IpamSimOptions::default();
        if let Some(s) = seed {
            opts.seed = s;
        }
        if let Some(n) = ipam_subscribers {
            opts.subscribers = n;
        }
        if let Some(n) = ipam_ticks {
            opts.ticks = n;
        }
        if let Some(n) = ipam_shards {
            opts.shards = n;
        }
        // Usage errors exit 2 before any allocator is built.
        if opts.subscribers == 0 || opts.ticks == 0 || opts.shards == 0 {
            eprintln!("ipam-sim: --subscribers, --ticks, --shards must be >= 1");
            exit(Exit::Usage);
        }
        let bench_path = bench_out.unwrap_or_else(|| "BENCH_ipam.json".into());
        let probe_dir = match bench_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let probe = probe_dir.join(".dynamips-write-probe");
        if let Err(e) = std::fs::write(&probe, b"").and_then(|()| std::fs::remove_file(&probe)) {
            eprintln!(
                "ipam-sim: --bench-out {} is not writable: {e}",
                bench_path.display()
            );
            exit(Exit::Usage);
        }
        eprintln!(
            "[dynamips] ipam-sim: {} subscriber(s), {} tick(s), seed {} (two passes)...",
            opts.subscribers, opts.ticks, opts.seed
        );
        match ipam_sim::run(&opts) {
            Ok(outcome) => {
                print!("{}", outcome.text);
                match std::fs::write(&bench_path, outcome.perf.to_json()) {
                    Ok(()) => eprintln!("[dynamips] wrote {}", bench_path.display()),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", bench_path.display());
                        exit(Exit::RunFailure);
                    }
                }
                if !outcome.ok {
                    exit(Exit::RunFailure);
                }
            }
            Err(e) => {
                eprintln!("ipam-sim: {e}");
                exit(Exit::RunFailure);
            }
        }
        return;
    }

    // The serving layer takes over the whole invocation: start the HTTP
    // server over a warm engine and block until `GET /shutdown` drains it.
    if wanted[0] == "serve" {
        if wanted.len() != 1 {
            usage();
        }
        // Reference scale by default: small enough that a cold artifact
        // request warms in seconds, shapes known to hold.
        cfg = ExperimentConfig {
            seed: seed.unwrap_or(2020),
            atlas_scale: atlas_scale.unwrap_or(0.2),
            cdn_scale: cdn_scale.unwrap_or(0.15),
        };
        let serve_cfg = dynamips_serve::ServeConfig {
            workers: serve_workers.unwrap_or(4),
            queue_cap: queue_cap.unwrap_or(64),
            max_conns: max_conns.unwrap_or(256),
            read_timeout_ms: read_timeout_ms.unwrap_or(5_000),
            write_timeout_ms: write_timeout_ms.unwrap_or(5_000),
            ..dynamips_serve::ServeConfig::default()
        };
        // Usage errors exit 2 before any socket is bound.
        if serve_cfg.workers == 0
            || serve_cfg.queue_cap == 0
            || serve_cfg.max_conns == 0
            || cache_cap == Some(0)
        {
            eprintln!("serve: --serve-workers, --queue, --max-conns, --cache-cap must be >= 1");
            exit(Exit::Usage);
        }
        let metrics = std::sync::Arc::new(dynamips_serve::Metrics::new());
        let artifacts = service::ArtifactService::over_engine(
            cfg,
            engine::worker_count(threads),
            cache_cap.unwrap_or(4),
            std::sync::Arc::clone(&metrics),
        );
        // The IPAM allocator is mounted beside the artifact engine:
        // one process serves `/artifacts/*` and `/leases*` both.
        let pools = match ipam_service::default_pools() {
            Ok(pools) => pools,
            Err(e) => {
                eprintln!("serve: bad IPAM pool layout: {e}");
                exit(Exit::RunFailure);
            }
        };
        let ipam = match dynamips_ipam::Ipam::build(dynamips_ipam::IpamConfig::default(), pools) {
            Ok(ipam) => std::sync::Arc::new(ipam),
            Err(e) => {
                eprintln!("serve: cannot build the IPAM allocator: {e}");
                exit(Exit::RunFailure);
            }
        };
        let handler = std::sync::Arc::new(ipam_service::DualHandler::new(
            ipam_service::IpamService::new(ipam),
            artifacts,
        ));
        let addr = serve_addr.unwrap_or_else(|| "127.0.0.1:8311".to_string());
        let server = match dynamips_serve::Server::start(&addr, serve_cfg, handler, metrics) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("serve: cannot bind {addr}: {e}");
                exit(Exit::RunFailure);
            }
        };
        // The resolved address goes to stdout so scripts driving an
        // ephemeral-port server (--addr 127.0.0.1:0) can scrape it.
        println!("dynamips-serve listening on http://{}", server.local_addr());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        eprintln!(
            "[dynamips] serving seed {} scales {}/{}; GET /shutdown to drain and exit",
            cfg.seed, cfg.atlas_scale, cfg.cdn_scale
        );
        let summary = server.join();
        eprintln!(
            "[dynamips] serve drained: {} served, {} rejected, {} disconnect(s)",
            summary.served, summary.rejected, summary.disconnects
        );
        return;
    }

    // The load generator takes over the whole invocation.
    if wanted[0] == "loadtest" {
        if wanted.len() != 1 {
            usage();
        }
        let Some(url) = lt_url else {
            eprintln!("loadtest: --url is required");
            exit(Exit::Usage);
        };
        let ltcfg = dynamips_serve::LoadtestConfig {
            url,
            concurrency: lt_concurrency.unwrap_or(16),
            requests: lt_requests.unwrap_or(100),
            timeout_ms: lt_timeout_ms.unwrap_or(10_000),
            open_loop: lt_open_loop,
            rate_rps: lt_rate_rps.unwrap_or(0.0),
            seed: seed.unwrap_or(42),
        };
        // Usage errors exit 2 before any socket is opened.
        if ltcfg.concurrency == 0 || ltcfg.requests == 0 {
            eprintln!("loadtest: --concurrency and --requests must be >= 1");
            exit(Exit::Usage);
        }
        if ltcfg.open_loop && !(ltcfg.rate_rps.is_finite() && ltcfg.rate_rps > 0.0) {
            eprintln!("loadtest: --open-loop requires --rate-rps R with R > 0");
            exit(Exit::Usage);
        }
        if !ltcfg.open_loop && lt_rate_rps.is_some() {
            eprintln!("loadtest: --rate-rps only means something with --open-loop");
            exit(Exit::Usage);
        }
        if let Err(e) = dynamips_serve::client::split_url(&ltcfg.url) {
            eprintln!("loadtest: {e}");
            exit(Exit::Usage);
        }
        let bench_path = bench_out.unwrap_or_else(|| "BENCH_serve.json".into());
        let probe_dir = match bench_path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let probe = probe_dir.join(".dynamips-write-probe");
        if let Err(e) = std::fs::write(&probe, b"").and_then(|()| std::fs::remove_file(&probe)) {
            eprintln!(
                "loadtest: --bench-out {} is not writable: {e}",
                bench_path.display()
            );
            exit(Exit::Usage);
        }
        match dynamips_serve::run_loadtest(&ltcfg) {
            Ok(report) => {
                print!("{}", report.render_text());
                match std::fs::write(&bench_path, report.to_perf_record().to_json()) {
                    Ok(()) => eprintln!("[dynamips] wrote {}", bench_path.display()),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", bench_path.display());
                        exit(Exit::RunFailure);
                    }
                }
                if !report.all_ok() {
                    eprintln!("loadtest: not every request was answered 2xx");
                    exit(Exit::RunFailure);
                }
            }
            Err(e) => {
                eprintln!("loadtest: {e}");
                exit(Exit::RunFailure);
            }
        }
        return;
    }

    // Bench-record validation: parse a dynamips-bench-v1 document.
    if wanted[0] == "bench-check" {
        let (Some(path), 2) = (wanted.get(1), wanted.len()) else {
            usage()
        };
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| dynamips_core::perf::PerfRecord::parse(&text));
        let record = match parsed {
            Ok(record) => {
                println!(
                    "{path}: dynamips-bench-v1 ok ({} phase(s), {} artifact entr(ies), {:.1} ms total)",
                    record.phases.len(),
                    record.artifacts.len(),
                    record.total_ms
                );
                record
            }
            Err(e) => {
                eprintln!("bench-check {path}: {e}");
                exit(Exit::RunFailure);
            }
        };
        // With --baseline, enforce the regression thresholds it encodes:
        // `-ms` phases are ceilings, `-rps` phases are floors.
        if let Some(bpath) = bench_baseline {
            let baseline = std::fs::read_to_string(&bpath)
                .map_err(|e| e.to_string())
                .and_then(|text| dynamips_core::perf::PerfRecord::parse(&text));
            let baseline = match baseline {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("bench-check: baseline {}: {e}", bpath.display());
                    exit(Exit::RunFailure);
                }
            };
            let violations = dynamips_core::perf::regression_violations(&record, &baseline);
            if violations.is_empty() {
                println!("{path}: within baseline {}", bpath.display());
            } else {
                for v in &violations {
                    eprintln!("bench-check {path}: regression: {v}");
                }
                exit(Exit::RunFailure);
            }
        }
        return;
    }

    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(s) = atlas_scale {
        cfg.atlas_scale = s;
    }
    if let Some(s) = cdn_scale {
        cfg.cdn_scale = s;
    }

    let ran_all = wanted.iter().any(|w| w == "all");
    if ran_all {
        wanted = engine::all_artifacts();
    }

    // Dataset dumps take a path operand and short-circuit.
    if wanted[0] == "dump-atlas" || wanted[0] == "dump-cdn" {
        let Some(path) = wanted.get(1) else { usage() };
        let result = if wanted[0] == "dump-atlas" {
            extended::dump_atlas(&cfg, std::path::Path::new(path))
        } else {
            extended::dump_cdn(&cfg, std::path::Path::new(path))
        };
        match result {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("dump failed: {e}");
                exit(Exit::RunFailure);
            }
        }
        return;
    }

    // Validate the whole request *before* computing anything: a typo'd
    // artifact or an unwritable --out must not cost minutes of analysis.
    for artifact in &wanted {
        if !engine::is_known_artifact(artifact) {
            eprintln!("unknown artifact {artifact:?}");
            usage();
        }
    }
    if let Some(dir) = &out_dir {
        let probe = dir.join(".dynamips-write-probe");
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&probe, b""))
            .and_then(|()| std::fs::remove_file(&probe))
        {
            eprintln!("--out {} is not writable: {e}", dir.display());
            exit(Exit::RunFailure);
        }
    }

    let workers = engine::worker_count(threads);
    eprintln!(
        "[dynamips] engine: {} artifact(s), {} worker(s), seed {}, scales {}/{}",
        wanted.len(),
        workers,
        cfg.seed,
        cfg.atlas_scale,
        cfg.cdn_scale
    );
    let output = engine::run(&cfg, &wanted, workers);

    let mut run_failed = false;
    for artifact in &output.artifacts {
        println!("{}", "=".repeat(72));
        println!("{}", artifact.text);
        if !artifact.ok {
            run_failed = true;
        }
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(dir.join(format!("{}.txt", artifact.name)), &artifact.text)
            }) {
                eprintln!("failed to write {}.txt: {e}", artifact.name);
                exit(Exit::RunFailure);
            }
        }
    }

    // Timings go to stderr (and the bench record to disk) so stdout stays
    // byte-identical across worker counts and --timings settings.
    if timings {
        eprintln!("{}", engine::render_timings(&output.perf));
    }
    if timings || ran_all {
        let path = out_dir
            .as_deref()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join("BENCH_all.json");
        match std::fs::write(&path, output.perf.to_json()) {
            Ok(()) => eprintln!("[dynamips] wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                exit(Exit::RunFailure);
            }
        }
    }

    if run_failed {
        eprintln!("[dynamips] self-check failed");
        exit(Exit::RunFailure);
    }
}
