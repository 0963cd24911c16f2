//! Design-point queries: the request grammar, parameter validation,
//! canonical cache keys, and evaluation against the deterministic core.
//!
//! A request is one line, `op key=value ...`:
//!
//! ```text
//! ping
//! health
//! drain
//! eval f_clk_mhz=500 capacity_kb=64 ci_g_per_kwh=380 workload=matmul-int
//! mc samples=256 seed=42 capacity_kb=128
//! poison
//! ```
//!
//! Every omitted key takes the paper's nominal value, so the empty `eval`
//! query reproduces Table II's comparison point. Evaluation is a pure
//! function of the parameters — the same query returns byte-identical
//! bytes at any concurrency, which the response cache then makes cheap.
//!
//! Deadlines thread through as [`RunBudget`]s: evaluation polls the budget
//! between pipeline steps (and the Monte-Carlo engine polls at chunk
//! boundaries), so an expired request surfaces as
//! [`PpatcError::Interrupted`] with partial-progress counts instead of
//! pinning a worker.

use ppatc::montecarlo::{self, MonteCarloConfig, UncertaintyRanges};
use ppatc::{
    CaseStudy, EmbodiedPipeline, Lifetime, PpatcError, RunBudget, Supervisor, SystemDesign,
    Technology, UsagePattern,
};
use ppatc_edram::Organization;
use ppatc_pdk::SiVtFlavor;
use ppatc_units::{CarbonIntensity, Frequency};
use ppatc_workloads::{Workload, WorkloadRun};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Servable clock range, MHz. Designs outside it are rejected as invalid
/// before any characterization runs (timing failures *inside* the range
/// still surface as typed `eval_failed` responses).
const F_CLK_MHZ_RANGE: (f64, f64) = (1.0, 4096.0);
/// Servable per-macro eDRAM capacity range, kB. The capacity must also be
/// even so the 2 kB sub-array divides it ([`Organization::new`]'s
/// contract, enforced here so the worker never reaches that panic).
const CAPACITY_KB_RANGE: (u32, u32) = (2, 1024);
/// Sub-array size fixed by the paper's organization, bytes.
const SUBARRAY_BYTES: u32 = 2 * 1024;
/// Word width fixed by the paper's organization, bits.
const WORD_BITS: u32 = 32;
/// Servable lifetime range, months.
const LIFETIME_MONTHS_RANGE: (f64, f64) = (1.0, 1200.0);
/// Upper bound on Monte-Carlo samples per request; larger sweeps belong in
/// the batch binaries, not a shared server.
const MAX_MC_SAMPLES: usize = 65_536;
/// Pipeline steps of one `eval` query (workload, all-Si design, M3D
/// design, study assembly) — the `total` of a partial-progress report.
const EVAL_STEPS: usize = 4;

/// How a request line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The line violates the grammar: unknown op, missing `=`, duplicate
    /// or unknown key.
    Malformed {
        /// What was wrong, for the `msg` response field.
        msg: String,
    },
    /// The grammar was fine but a parameter is outside the servable range.
    Invalid {
        /// The offending key.
        field: &'static str,
        /// What the key requires, for the `msg` response field.
        msg: String,
    },
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Malformed { msg } => write!(f, "malformed request: {msg}"),
            Self::Invalid { field, msg } => write!(f, "invalid '{field}': {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The design-point parameters of an `eval` (and `mc`) query. Defaults
/// are the paper's nominal comparison point.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalParams {
    /// Evaluation clock, MHz.
    pub f_clk_mhz: f64,
    /// Per-macro eDRAM capacity, kB (program and data memories both).
    pub capacity_kb: u32,
    /// Use-phase carbon intensity, gCO₂e/kWh.
    pub ci_g_per_kwh: f64,
    /// Active hours per day.
    pub hours_per_day: f64,
    /// Workload name (any member of [`Workload::suite`]).
    pub workload: String,
    /// Comparison lifetime, months.
    pub lifetime_months: f64,
}

impl Default for EvalParams {
    fn default() -> Self {
        Self {
            f_clk_mhz: 500.0,
            capacity_kb: 64,
            ci_g_per_kwh: 380.0,
            hours_per_day: 2.0,
            workload: "matmul-int".to_string(),
            lifetime_months: 24.0,
        }
    }
}

/// A parsed query.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Liveness probe; answered inline.
    Ping,
    /// Health-counter snapshot; answered inline.
    Health,
    /// Ask the server to drain (stop accepting, finish in-flight work).
    Drain,
    /// Deliberately panic inside the evaluator (chaos testing; the server
    /// rejects it unless spawned with poison enabled).
    Poison,
    /// Deliberately exit the worker thread that picks this job up (chaos
    /// testing for the supervisor's respawn path; gated like `poison`).
    KillWorker,
    /// One deterministic design-point evaluation.
    Eval(EvalParams),
    /// A Monte-Carlo sweep over the paper's uncertainty ranges around a
    /// design point.
    MonteCarlo {
        /// The design point swept around.
        params: EvalParams,
        /// Samples to draw.
        samples: usize,
        /// PRNG seed (equal seeds reproduce the sweep exactly).
        seed: u64,
    },
}

/// A parsed request: the query plus its transport options.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// What to evaluate.
    pub query: Query,
    /// Client-requested deadline, ms — may only lower the server's
    /// per-request deadline, never raise it.
    pub deadline_ms: Option<u64>,
}

/// Splits `key=value` tokens, rejecting duplicates and unknown keys.
fn collect_fields<'a>(
    tokens: impl Iterator<Item = &'a str>,
    known: &[&str],
) -> Result<HashMap<&'a str, &'a str>, QueryError> {
    let mut fields = HashMap::new();
    for tok in tokens {
        let Some((key, value)) = tok.split_once('=') else {
            return Err(QueryError::Malformed {
                msg: format!("token `{tok}` is not key=value"),
            });
        };
        if !known.contains(&key) {
            return Err(QueryError::Malformed {
                msg: format!("unknown key `{key}`"),
            });
        }
        if fields.insert(key, value).is_some() {
            return Err(QueryError::Malformed {
                msg: format!("duplicate key `{key}`"),
            });
        }
    }
    Ok(fields)
}

/// Parses one field as `f64` within an inclusive range.
fn f64_field(
    fields: &HashMap<&str, &str>,
    field: &'static str,
    default: f64,
    range: (f64, f64),
) -> Result<f64, QueryError> {
    let Some(raw) = fields.get(field) else {
        return Ok(default);
    };
    let value = raw.parse::<f64>().map_err(|_| QueryError::Invalid {
        field,
        msg: format!("`{raw}` is not a number"),
    })?;
    if !(value.is_finite() && value >= range.0 && value <= range.1) {
        return Err(QueryError::Invalid {
            field,
            msg: format!("{value} is not in [{}, {}]", range.0, range.1),
        });
    }
    Ok(value)
}

/// Parses one field as `u64` (no range beyond the type's).
fn u64_field(
    fields: &HashMap<&str, &str>,
    field: &'static str,
    default: u64,
) -> Result<u64, QueryError> {
    let Some(raw) = fields.get(field) else {
        return Ok(default);
    };
    raw.parse::<u64>().map_err(|_| QueryError::Invalid {
        field,
        msg: format!("`{raw}` is not a non-negative integer"),
    })
}

/// The shared `eval`/`mc` design-point keys.
const EVAL_KEYS: &[&str] = &[
    "f_clk_mhz",
    "capacity_kb",
    "ci_g_per_kwh",
    "hours_per_day",
    "workload",
    "lifetime_months",
    "deadline_ms",
];

/// Extra keys accepted by `mc`.
const MC_KEYS: &[&str] = &[
    "samples",
    "seed",
    "f_clk_mhz",
    "capacity_kb",
    "ci_g_per_kwh",
    "hours_per_day",
    "workload",
    "lifetime_months",
    "deadline_ms",
];

/// Builds [`EvalParams`] from parsed fields, validating every range.
fn eval_params(fields: &HashMap<&str, &str>) -> Result<EvalParams, QueryError> {
    let defaults = EvalParams::default();
    let f_clk_mhz = f64_field(fields, "f_clk_mhz", defaults.f_clk_mhz, F_CLK_MHZ_RANGE)?;
    let capacity_kb = match fields.get("capacity_kb") {
        None => defaults.capacity_kb,
        Some(raw) => {
            let kb = raw.parse::<u32>().map_err(|_| QueryError::Invalid {
                field: "capacity_kb",
                msg: format!("`{raw}` is not a positive integer"),
            })?;
            let (lo, hi) = CAPACITY_KB_RANGE;
            if kb < lo || kb > hi || kb % 2 != 0 {
                return Err(QueryError::Invalid {
                    field: "capacity_kb",
                    msg: format!("{kb} is not an even capacity in [{lo}, {hi}] kB"),
                });
            }
            kb
        }
    };
    let ci_g_per_kwh = f64_field(
        fields,
        "ci_g_per_kwh",
        defaults.ci_g_per_kwh,
        (0.0, 100_000.0), // gCO₂e/kWh — far above any real grid
    )?;
    let hours_per_day = f64_field(
        fields,
        "hours_per_day",
        defaults.hours_per_day,
        (0.01, 24.0),
    )?;
    let lifetime_months = f64_field(
        fields,
        "lifetime_months",
        defaults.lifetime_months,
        LIFETIME_MONTHS_RANGE,
    )?;
    let workload = match fields.get("workload") {
        None => defaults.workload,
        Some(name) => {
            if workload_by_name(name).is_none() {
                let suite = Workload::suite()
                    .iter()
                    .map(Workload::name)
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(QueryError::Invalid {
                    field: "workload",
                    msg: format!("unknown workload `{name}`; the suite is: {suite}"),
                });
            }
            (*name).to_string()
        }
    };
    Ok(EvalParams {
        f_clk_mhz,
        capacity_kb,
        ci_g_per_kwh,
        hours_per_day,
        workload,
        lifetime_months,
    })
}

/// Parses one request line.
///
/// # Errors
///
/// [`QueryError::Malformed`] for grammar violations, [`QueryError::Invalid`]
/// for out-of-range parameters.
#[must_use = "this returns a Result that must be handled"]
pub fn try_parse_request(line: &str) -> Result<Request, QueryError> {
    let mut tokens = line.split_ascii_whitespace();
    let Some(op) = tokens.next() else {
        return Err(QueryError::Malformed {
            msg: "empty request".to_string(),
        });
    };
    match op {
        "ping" | "health" | "drain" | "poison" | "kill_worker" => {
            if tokens.next().is_some() {
                return Err(QueryError::Malformed {
                    msg: format!("`{op}` takes no arguments"),
                });
            }
            let query = match op {
                "ping" => Query::Ping,
                "health" => Query::Health,
                "drain" => Query::Drain,
                "kill_worker" => Query::KillWorker,
                _ => Query::Poison,
            };
            Ok(Request {
                query,
                deadline_ms: None,
            })
        }
        "eval" => {
            let fields = collect_fields(tokens, EVAL_KEYS)?;
            let deadline_ms = deadline_field(&fields)?;
            Ok(Request {
                query: Query::Eval(eval_params(&fields)?),
                deadline_ms,
            })
        }
        "mc" => {
            let fields = collect_fields(tokens, MC_KEYS)?;
            let deadline_ms = deadline_field(&fields)?;
            let samples = u64_field(&fields, "samples", 256)? as usize;
            if samples == 0 || samples > MAX_MC_SAMPLES {
                return Err(QueryError::Invalid {
                    field: "samples",
                    msg: format!("{samples} is not in [1, {MAX_MC_SAMPLES}]"),
                });
            }
            let seed = u64_field(&fields, "seed", 42)?;
            Ok(Request {
                query: Query::MonteCarlo {
                    params: eval_params(&fields)?,
                    samples,
                    seed,
                },
                deadline_ms,
            })
        }
        other => Err(QueryError::Malformed {
            msg: format!("unknown op `{other}`"),
        }),
    }
}

/// Parses the optional `deadline_ms` transport key (must be >= 1).
fn deadline_field(fields: &HashMap<&str, &str>) -> Result<Option<u64>, QueryError> {
    match fields.get("deadline_ms") {
        None => Ok(None),
        Some(_) => {
            let ms = u64_field(fields, "deadline_ms", 0)?;
            if ms == 0 {
                return Err(QueryError::Invalid {
                    field: "deadline_ms",
                    msg: "a deadline must be at least 1 ms".to_string(),
                });
            }
            Ok(Some(ms))
        }
    }
}

/// The canonical cache key of a query: every parameter in a fixed order,
/// floats as exact bit patterns — two requests share a key iff their
/// answers are bit-identical by construction. Control queries get
/// distinct, uncacheable keys.
pub fn canonical_key(query: &Query) -> String {
    fn eval_part(p: &EvalParams) -> String {
        format!(
            "cap={} ci={:016x} f={:016x} h={:016x} life={:016x} wl={}",
            p.capacity_kb,
            p.ci_g_per_kwh.to_bits(),
            p.f_clk_mhz.to_bits(),
            p.hours_per_day.to_bits(),
            p.lifetime_months.to_bits(),
            p.workload
        )
    }
    match query {
        Query::Ping => "ping".to_string(),
        Query::Health => "health".to_string(),
        Query::Drain => "drain".to_string(),
        Query::Poison => "poison".to_string(),
        Query::KillWorker => "kill_worker".to_string(),
        Query::Eval(p) => format!("eval {}", eval_part(p)),
        Query::MonteCarlo {
            params,
            samples,
            seed,
        } => format!("mc n={samples} seed={seed} {}", eval_part(params)),
    }
}

/// Looks a workload up by its suite name.
fn workload_by_name(name: &str) -> Option<Workload> {
    Workload::suite().into_iter().find(|w| w.name() == name)
}

/// Recovers a possibly poisoned mutex guard (map inserts are single
/// statements; a panicking sibling cannot leave the map incoherent).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Executes a workload once per process and memoizes the run — the serve
/// generalization of `ppatc-bench`'s `matmul_run` `OnceLock`.
fn memoized_run(name: &str) -> Result<Arc<WorkloadRun>, PpatcError> {
    static RUNS: OnceLock<Mutex<HashMap<String, Arc<WorkloadRun>>>> = OnceLock::new();
    let runs = RUNS.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(run) = lock_unpoisoned(runs).get(name) {
        return Ok(Arc::clone(run));
    }
    // Execute outside the lock: concurrent first-misses duplicate work but
    // never block each other, and the result is deterministic either way.
    let workload = workload_by_name(name).ok_or(PpatcError::Validation(
        ppatc::ValidationError::new("workload", f64::NAN, "a member of the workload suite"),
    ))?;
    let run = Arc::new(workload.execute()?);
    lock_unpoisoned(runs)
        .entry(name.to_string())
        .or_insert_with(|| Arc::clone(&run));
    Ok(run)
}

/// Maps a budget poll failure into [`PpatcError::Interrupted`] carrying
/// the steps finished so far.
fn step_checkpoint(budget: &RunBudget, done: usize) -> Result<(), PpatcError> {
    budget.check().map_err(|reason| PpatcError::Interrupted {
        reason,
        completed: if done == 0 {
            Vec::new()
        } else {
            vec![(0, done)]
        },
        total: EVAL_STEPS,
    })
}

/// Builds the case study and lifetime for a design point, polling `budget`
/// between pipeline steps.
fn build_study(
    params: &EvalParams,
    budget: &RunBudget,
) -> Result<(CaseStudy, Lifetime), PpatcError> {
    step_checkpoint(budget, 0)?;
    let run = memoized_run(&params.workload)?;
    step_checkpoint(budget, 1)?;
    // Safe by construction: capacity_kb is validated even and in range, so
    // the organization's divisibility contract holds.
    let org = Organization::new(params.capacity_kb * 1024, SUBARRAY_BYTES, WORD_BITS);
    let f = Frequency::from_megahertz(params.f_clk_mhz);
    let si =
        SystemDesign::with_flavor_and_memory(Technology::AllSi, f, SiVtFlavor::Rvt, org.clone())?;
    step_checkpoint(budget, 2)?;
    let m3d =
        SystemDesign::with_flavor_and_memory(Technology::M3dIgzoCnfetSi, f, SiVtFlavor::Rvt, org)?;
    step_checkpoint(budget, 3)?;
    let usage = UsagePattern::try_new(
        params.hours_per_day,
        CarbonIntensity::from_g_per_kwh(params.ci_g_per_kwh),
    )?;
    let lifetime = Lifetime::try_months(params.lifetime_months)?;
    let study = CaseStudy::from_designs(si, m3d, &run, EmbodiedPipeline::paper_default(), usage);
    Ok((study, lifetime))
}

/// Evaluates a query against the deterministic core under `budget`.
/// Control queries ([`Query::Ping`]/[`Query::Health`]/[`Query::Drain`])
/// never reach this — the server answers them inline.
///
/// # Errors
///
/// [`PpatcError::Interrupted`] with partial-progress counts when the
/// budget expires, [`PpatcError::Validation`] for model-level rejections,
/// and any evaluation error from the core (timing, failure budgets, ...).
#[must_use = "this returns a Result that must be handled"]
pub fn try_evaluate(query: &Query, budget: &RunBudget) -> Result<String, PpatcError> {
    match query {
        Query::Ping | Query::Health | Query::Drain | Query::KillWorker => Ok(String::new()),
        Query::Poison => {
            poison_panic();
        }
        Query::Eval(params) => {
            let (study, lifetime) = build_study(params, budget)?;
            let ratio = study.tcdp_ratio(lifetime);
            let mut body = String::new();
            body.push_str(&format!("workload={}\n", params.workload));
            body.push_str(&format!("f_clk_mhz={}\n", params.f_clk_mhz));
            body.push_str(&format!("capacity_kb={}\n", params.capacity_kb));
            body.push_str(&format!("ci_g_per_kwh={}\n", params.ci_g_per_kwh));
            body.push_str(&format!("hours_per_day={}\n", params.hours_per_day));
            body.push_str(&format!("lifetime_months={}\n", params.lifetime_months));
            body.push_str(&format!("tcdp_ratio={ratio}\n"));
            body.push_str(&format!("m3d_wins={}\n", u8::from(ratio < 1.0)));
            body.push_str(&format!(
                "area_si_mm2={}\n",
                study
                    .design(Technology::AllSi)
                    .area()
                    .as_square_millimeters()
            ));
            body.push_str(&format!(
                "area_m3d_mm2={}\n",
                study
                    .design(Technology::M3dIgzoCnfetSi)
                    .area()
                    .as_square_millimeters()
            ));
            body.push_str(&format!(
                "embodied_si_g={}\n",
                study.embodied(Technology::AllSi).per_good_die().as_grams()
            ));
            body.push_str(&format!(
                "embodied_m3d_g={}\n",
                study
                    .embodied(Technology::M3dIgzoCnfetSi)
                    .per_good_die()
                    .as_grams()
            ));
            Ok(body)
        }
        Query::MonteCarlo {
            params,
            samples,
            seed,
        } => {
            let (study, lifetime) = build_study(params, budget)?;
            let map = study.tcdp_map(lifetime);
            let config = MonteCarloConfig::new(*samples, *seed)?;
            // jobs = 1: the worker pool is the server's parallelism; the
            // engine still guarantees byte-identical reductions.
            let supervisor = Supervisor::new().with_budget(budget.clone());
            let result = montecarlo::try_run(
                &map,
                &UncertaintyRanges::paper_default(),
                &config,
                1,
                &supervisor,
            )?;
            let mut body = String::new();
            body.push_str(&format!("samples={}\n", result.samples));
            body.push_str(&format!("evaluated={}\n", result.evaluated));
            body.push_str(&format!("failed={}\n", result.failures.total()));
            body.push_str(&format!("p_m3d_wins={}\n", result.p_m3d_wins));
            body.push_str(&format!("ratio_p05={}\n", result.ratio_quantiles.0));
            body.push_str(&format!("ratio_p50={}\n", result.ratio_quantiles.1));
            body.push_str(&format!("ratio_p95={}\n", result.ratio_quantiles.2));
            Ok(body)
        }
    }
}

/// The poison query's panic site, kept separate so the panic contract is
/// explicit and the worker's `catch_unwind` boundary is what contains it.
///
/// # Panics
///
/// Always — that is the point of the `poison` chaos query.
fn poison_panic() -> ! {
    panic!("poison query: deliberate evaluator panic for chaos testing")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc::eval::CancelToken;
    use std::time::{Duration, Instant};

    #[test]
    fn empty_eval_takes_the_paper_defaults() {
        let req = try_parse_request("eval").expect("parses");
        assert_eq!(req.query, Query::Eval(EvalParams::default()));
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn control_ops_parse_and_reject_arguments() {
        assert_eq!(
            try_parse_request("ping").expect("parses").query,
            Query::Ping
        );
        assert_eq!(
            try_parse_request("health").expect("parses").query,
            Query::Health
        );
        assert_eq!(
            try_parse_request("drain").expect("parses").query,
            Query::Drain
        );
        assert_eq!(
            try_parse_request("poison").expect("parses").query,
            Query::Poison
        );
        assert!(matches!(
            try_parse_request("ping now"),
            Err(QueryError::Malformed { .. })
        ));
    }

    #[test]
    fn grammar_violations_are_malformed() {
        for line in [
            "",
            "warp",
            "eval f_clk_mhz",
            "eval nope=1",
            "eval f_clk_mhz=1 f_clk_mhz=2",
        ] {
            assert!(
                matches!(try_parse_request(line), Err(QueryError::Malformed { .. })),
                "{line:?} must be malformed"
            );
        }
    }

    #[test]
    fn out_of_range_parameters_are_invalid_with_field_names() {
        for (line, field) in [
            ("eval f_clk_mhz=0", "f_clk_mhz"),
            ("eval f_clk_mhz=nan", "f_clk_mhz"),
            ("eval capacity_kb=63", "capacity_kb"),
            ("eval capacity_kb=0", "capacity_kb"),
            ("eval capacity_kb=2048", "capacity_kb"),
            ("eval hours_per_day=25", "hours_per_day"),
            ("eval lifetime_months=-1", "lifetime_months"),
            ("eval workload=fft", "workload"),
            ("mc samples=0", "samples"),
            ("eval deadline_ms=0", "deadline_ms"),
        ] {
            match try_parse_request(line) {
                Err(QueryError::Invalid { field: got, .. }) => {
                    assert_eq!(got, field, "{line}");
                }
                other => panic!("{line}: expected Invalid({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_workload_message_lists_the_suite() {
        let err = try_parse_request("eval workload=fft").expect_err("rejected");
        let QueryError::Invalid { msg, .. } = err else {
            panic!("wrong kind");
        };
        assert!(msg.contains("matmul-int"), "{msg}");
    }

    #[test]
    fn canonical_keys_are_order_insensitive_and_value_exact() {
        let a = try_parse_request("eval capacity_kb=128 f_clk_mhz=600").expect("parses");
        let b = try_parse_request("eval f_clk_mhz=600.0 capacity_kb=128").expect("parses");
        assert_eq!(canonical_key(&a.query), canonical_key(&b.query));
        let c = try_parse_request("eval f_clk_mhz=600.5 capacity_kb=128").expect("parses");
        assert_ne!(canonical_key(&a.query), canonical_key(&c.query));
        // deadline_ms is transport, not identity.
        let d =
            try_parse_request("eval capacity_kb=128 f_clk_mhz=600 deadline_ms=5").expect("parses");
        assert_eq!(canonical_key(&a.query), canonical_key(&d.query));
    }

    #[test]
    fn mc_and_eval_cache_keys_never_collide() {
        let e = try_parse_request("eval").expect("parses");
        let m = try_parse_request("mc").expect("parses");
        assert_ne!(canonical_key(&e.query), canonical_key(&m.query));
    }

    #[test]
    fn paper_point_eval_matches_the_case_study() {
        let req = try_parse_request("eval").expect("parses");
        let body =
            try_evaluate(&req.query, &RunBudget::unlimited()).expect("paper point evaluates");
        let ratio_line = body
            .lines()
            .find(|l| l.starts_with("tcdp_ratio="))
            .expect("ratio line");
        let ratio: f64 = ratio_line
            .trim_start_matches("tcdp_ratio=")
            .parse()
            .expect("numeric ratio");
        let expected = ppatc_bench_free_reference();
        assert!(
            (ratio - expected).abs() < 1e-12,
            "served {ratio} vs direct {expected}"
        );
    }

    /// The same paper-point ratio computed directly against the core.
    fn ppatc_bench_free_reference() -> f64 {
        let run = memoized_run("matmul-int").expect("matmul runs");
        let study = CaseStudy::paper(&run).expect("paper study builds");
        study.tcdp_ratio(Lifetime::months(24.0))
    }

    #[test]
    fn evaluation_is_deterministic_across_repeats() {
        let req = try_parse_request("eval capacity_kb=32").expect("parses");
        let a = try_evaluate(&req.query, &RunBudget::unlimited()).expect("evaluates");
        let b = try_evaluate(&req.query, &RunBudget::unlimited()).expect("evaluates");
        assert_eq!(a, b, "byte-identical on repeat");
    }

    #[test]
    fn expired_budget_interrupts_with_progress_counts() {
        let budget = RunBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let req = try_parse_request("eval").expect("parses");
        match try_evaluate(&req.query, &budget) {
            Err(PpatcError::Interrupted {
                completed, total, ..
            }) => {
                assert_eq!(total, EVAL_STEPS);
                assert!(completed.is_empty(), "no step finished: {completed:?}");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_mc_reports_partial_samples() {
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel(&token);
        let req = try_parse_request("mc samples=64").expect("parses");
        match try_evaluate(&req.query, &budget) {
            Err(PpatcError::Interrupted { total, .. }) => assert_eq!(total, EVAL_STEPS),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn mc_with_equal_seeds_is_byte_identical() {
        let req = try_parse_request("mc samples=32 seed=7").expect("parses");
        let a = try_evaluate(&req.query, &RunBudget::unlimited()).expect("runs");
        let b = try_evaluate(&req.query, &RunBudget::unlimited()).expect("runs");
        assert_eq!(a, b);
        assert!(a.contains("samples=32"), "{a}");
    }

    #[test]
    fn poison_panics_and_is_catchable() {
        let caught = std::panic::catch_unwind(|| {
            let _ = try_evaluate(&Query::Poison, &RunBudget::unlimited());
        });
        assert!(caught.is_err(), "poison must panic");
    }
}
