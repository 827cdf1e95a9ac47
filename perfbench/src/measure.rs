//! The untraced run: set-up time, engine throughput, peak memory and
//! delivery, with every engine call's digest checked.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::catalog::{emit, END_TO_END};
use crate::stats::{median, peak_rss_mib, quantile_sorted, ratio};
use crate::workload::{Prepared, Scale, Workload, DEFAULT_SEED};

/// Timed engine calls a run makes at least, however short `--seconds`.
const MIN_CALLS: usize = 3;

/// Room reserved for per-call and per-set-up figures before the timed
/// calls start: a vector growing between calls would land small blocks
/// where the next call's large ones go, and move the peak RSS from run
/// to run.
const MAX_CALLS: usize = 1024;

/// Share of a run's time spent repeating set-up between timed calls.
const SETUP_SHARE: f64 = 0.15;

/// The quantile of the run's per-call rates reported as `flows_per_s`.
const RATE_QUANTILE: f64 = 0.9;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Its input size.
    pub scale: Scale,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: f64,
    /// Where a traced run writes its spans; `None` keeps them in memory
    /// only.
    pub spans_dir: Option<PathBuf>,
}

impl RunOptions {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// One run's result, in the shape the last output line takes.
#[derive(Debug)]
pub struct Outcome {
    /// Every engine call matched its expected digest.
    pub correct: bool,
    /// Engine calls made.
    pub attempted: u64,
    /// Engine calls whose digest did not match.
    pub failed: u64,
    /// The first engine call's report digest.
    pub digest: Option<u64>,
    /// `(name, value, unit)`; empty when the run was not correct.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Tallies engine calls against the digest the run must reproduce.
///
/// At [`DEFAULT_SEED`] the expected digest is the pinned one. At any
/// other seed it is the first 1-worker call's digest, and
/// [`DigestCheck::finish`] adds a 2-worker call that must agree.
pub struct DigestCheck {
    expected: Option<u64>,
    /// The first checked call's digest.
    pub first: Option<u64>,
    /// Engine calls checked so far.
    pub attempted: u64,
    /// Calls whose digest differed from the expected one.
    pub failed: u64,
}

impl DigestCheck {
    /// A check for a run of `p`'s workload at `p`'s seed.
    pub fn new(p: &Prepared) -> Self {
        DigestCheck {
            expected: (p.seed == DEFAULT_SEED).then(|| p.workload.pinned_digest(p.scale)),
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one engine call's digest.
    pub fn call(&mut self, digest: u64) {
        self.first.get_or_insert(digest);
        let expected = *self.expected.get_or_insert(digest);
        self.attempted += 1;
        if digest != expected {
            self.failed += 1;
        }
    }

    /// Off the default seed, runs `p` once on 2 workers and checks its
    /// digest too. Returns whether every call so far matched.
    pub fn finish(&mut self, p: &Prepared) -> bool {
        if p.seed != DEFAULT_SEED {
            self.call(p.run(2).digest);
        }
        self.failed == 0
    }
}

/// Times one set-up of the workload.
fn timed_prepare(opts: &RunOptions, setups: &mut Vec<f64>) -> Prepared {
    let started = Instant::now();
    let p = opts.workload.prepare(opts.scale, opts.seed);
    setups.push(started.elapsed().as_secs_f64());
    p
}

/// The fastest of `values`; 0 for an empty slice.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The untraced run: the end-to-end metrics.
///
/// The whole run — first set-up, the timed calls, repeated set-ups and
/// the closing 2-worker check — fits in `--seconds`: a call starts only
/// while the window still has room for it and for the check. Every
/// 1-worker call is timed; the first fixes the digest and the delivery
/// rate.
///
/// The host this benchmark was built on runs the engines up to 1.7x
/// slower in phases of seconds to minutes while other tenants are busy,
/// and a run's median follows whatever share of the run the host was
/// slow for. The fast end does not move: it is the code's own speed. So
/// set-up is repeated between the timed calls, one world alive at a
/// time, taking [`SETUP_SHARE`] of the run, and `setup_s` is the
/// fastest of these set-ups; `flows_per_s` is the [`RATE_QUANTILE`]
/// quantile of the per-call rates, which a single fast call cannot set
/// once a run has ten calls or more.
pub fn run(opts: &RunOptions) -> Outcome {
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();
    let window = opts.window().as_secs_f64();
    let mut setups = Vec::with_capacity(MAX_CALLS);
    let mut rates = Vec::with_capacity(MAX_CALLS);
    let mut p = timed_prepare(opts, &mut setups);
    eprintln!(
        "{:<22} world: {} buildings, {} APs; {} flows per engine call",
        opts.workload.name(),
        p.exp.map().len(),
        p.exp.aps().len(),
        p.flows.len()
    );
    let mut check = DigestCheck::new(&p);

    let (mut delivery_rate, mut reserve, mut peak_rss) = (0.0, 0.0, None);
    loop {
        let r = p.run(1);
        check.call(r.digest);
        rates.push(r.flows_per_s());
        if rates.len() == 1 {
            delivery_rate = ratio(r.delivered as f64, r.offered as f64);
            // Room the closing 2-worker check needs (off the default
            // seed); two workers take about 0.6 of one worker's time.
            if p.seed != DEFAULT_SEED {
                reserve = 0.7 * r.elapsed_secs;
            }
            continue;
        }
        // Peak memory of one world and its first two calls, read before
        // set-up is first repeated: worlds rebuilt between calls leave
        // the heap in states that moved the peak by up to 2 MiB from run
        // to run.
        peak_rss.get_or_insert_with(|| peak_rss_mib().unwrap_or(0.0));
        if opts.scale == Scale::Full {
            while setups.iter().sum::<f64>() < SETUP_SHARE * elapsed() {
                drop(p);
                p = timed_prepare(opts, &mut setups);
            }
        }
        if rates.len() >= MIN_CALLS && elapsed() + r.elapsed_secs + reserve > window {
            break;
        }
    }
    eprintln!(
        "{:<22} flows_per_s by call {:?}; {} set-ups, fastest {:.6} s, median {:.6} s",
        opts.workload.name(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        setups.len(),
        fastest(&setups),
        median(&setups),
    );
    let correct = check.finish(&p);
    eprintln!("{:<22} run took {:.1} s", opts.workload.name(), elapsed());

    rates.sort_by(f64::total_cmp);
    let values = [
        ("flows_per_s", quantile_sorted(&rates, RATE_QUANTILE)),
        ("setup_s", fastest(&setups)),
        ("peak_rss_mib", peak_rss.unwrap_or(0.0)),
        ("delivery_rate", delivery_rate),
    ];
    let metrics = if correct {
        emit(END_TO_END, &values)
    } else {
        Vec::new()
    };
    Outcome {
        correct,
        attempted: check.attempted,
        failed: check.failed,
        digest: check.first,
        metrics,
    }
}
