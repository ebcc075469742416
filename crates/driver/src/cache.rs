//! Content-addressed result cache.
//!
//! A cache key is a 64-bit FNV-1a hash of the *normalized analysis input*:
//! the transition-system content (variable names, cut points, per-transition
//! formulas — not the program name), the invariants, the engine
//! configuration, every option that can change the verdict, and — for jobs
//! that carry their program and hence can earn a conditional verdict — the
//! program content itself (the refinement pipeline sees the whole CFG, not
//! just the cut-point transition system). Two benchmarks with the same
//! analysis input therefore share one entry even across suites, and
//! repeated batch runs are near-free.
//!
//! The store is an in-memory map behind a mutex, optionally persisted to a
//! JSON file ([`ResultCache::load`] / [`ResultCache::save`]) so cache state
//! survives across `termite` CLI invocations. Saves are atomic
//! (write-then-rename), and long-lived consumers recover from a corrupt
//! file via [`ResultCache::load_or_quarantine`] — the damaged file is moved
//! aside and the service starts with an empty cache instead of dying.

use crate::job::AnalysisJob;
use crate::json::Json;
use crate::lock;
use crate::portfolio::EngineSelection;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use termite_core::{
    AnalysisOptions, Precondition, RankingFunction, SynthesisStats, TerminationReport,
    UnknownReason, Verdict,
};
use termite_linalg::QVector;
use termite_num::Rational;
use termite_polyhedra::{Constraint, ConstraintKind, Polyhedron};

/// Version stamp of the on-disk format: bump it whenever the schema changes.
/// Every entry can be recomputed, so a file stamped with any other version
/// is not migrated: it loads as an empty cache (cold, never wrong), and the
/// next save replaces it.
const FORMAT_VERSION: f64 = 3.0;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The content-addressed key of one (job, engine configuration) pair.
///
/// Hashes the transition-system *content* — deliberately not the program
/// name, so identical programs submitted under different names share a cache
/// entry.
pub fn cache_key(
    job: &AnalysisJob,
    engines: &EngineSelection,
    options: &AnalysisOptions,
) -> String {
    let mut text = String::new();
    let ts = &job.ts;
    let _ = write!(
        text,
        "vars:{:?};locs:{};",
        ts.var_names(),
        ts.num_locations()
    );
    for t in ts.transitions() {
        let _ = write!(text, "t:{}->{}:{};", t.from, t.to, t.formula);
    }
    for inv in &job.invariants {
        let _ = write!(text, "inv:{inv};");
    }
    let _ = write!(text, "engines:{engines};");
    let _ = write!(
        text,
        "opts:iters={},disjuncts={},inv={:?};",
        options.max_iterations_per_dim, options.max_eager_disjuncts, options.invariants
    );
    // The pre-optimizer rewrites the transition system the engines see, so an
    // optimized job and its raw twin must never share an entry (their stats
    // differ even when the verdicts agree), and any change to the pass
    // pipeline (`OPT_PIPELINE_VERSION`) invalidates optimized entries.
    match &job.provenance {
        Some(_) => {
            let _ = write!(text, "opt:{};", termite_ir::OPT_PIPELINE_VERSION);
        }
        None => {
            let _ = write!(text, "opt:off;");
        }
    }
    // Conditional termination changes what a verdict can be: the refinement
    // pipeline re-derives everything from the program CFG, so two different
    // programs can share a cut-point transition system and one-shot
    // invariants (e.g. an entry havoc is invisible to both) yet earn
    // different preconditions. Program-carrying jobs therefore key on the
    // program itself, never just on its transition system.
    match &job.program {
        // Everything except the name (cache hits are re-labelled with the
        // requesting job's name, so the key must stay name-independent).
        Some(program) => {
            let _ = write!(
                text,
                "refine:vars={:?},init={:?},body={:?},budget={};",
                program.vars, program.init, program.body, options.max_refinements
            );
        }
        None => {
            let _ = write!(text, "refine:none,budget={};", options.max_refinements);
        }
    }
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// Hit/miss counters of one cache (monotonic, shared across threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a stored report.
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Reports inserted.
    pub stores: usize,
    /// Entries dropped by the size budget (least-recently-used first).
    pub evictions: usize,
}

/// One stored report plus its serialized footprint: `entry_bytes` is the
/// exact number of bytes the entry contributes to the on-disk document
/// (`"key":<report json>`, i.e. the quoted key, the colon, and the report),
/// maintained so [`ResultCache::serialized_bytes`] is O(1) instead of a full
/// serialization per probe.
struct CacheEntry {
    report: TerminationReport,
    entry_bytes: usize,
    /// Logical timestamp of the last lookup or store that touched this
    /// entry; the eviction loop drops the smallest first.
    last_used: u64,
}

/// Map plus the running sum of every entry's serialized footprint.
#[derive(Default)]
struct CacheMap {
    entries: HashMap<String, CacheEntry>,
    payload_bytes: usize,
    /// Monotonic counter handing out `last_used` stamps.
    tick: u64,
}

impl CacheMap {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Serialized document size, computed under the lock the caller already
    /// holds (the public [`ResultCache::serialized_bytes`] takes the lock
    /// itself and must not be called from the store path).
    fn serialized_bytes(&self) -> usize {
        ENVELOPE_BYTES + self.payload_bytes + self.entries.len().saturating_sub(1)
    }
}

/// Serialized size of the document envelope around the entries:
/// `{"entries":{` + `},"version":3}` (the `Json::Object` is a `BTreeMap`, so
/// `entries` always prints before `version`, and the integral version prints
/// without a fraction). Pinned against the real serializer by a test.
const ENVELOPE_BYTES: usize = r#"{"entries":{"#.len() + r#"},"version":3}"#.len();

/// Exact serialized footprint of one entry (quoted key, colon, report JSON).
fn entry_bytes(key: &str, report: &TerminationReport) -> usize {
    key.len() + "\"\":".len() + report_to_json(report).to_string().len()
}

/// Thread-safe content-addressed store of [`TerminationReport`]s.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<CacheMap>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stores: AtomicUsize,
    evictions: AtomicUsize,
    /// Serialized-size budget; `None` means unbounded (the default).
    max_bytes: Option<usize>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Caps the cache's serialized size: whenever a store pushes
    /// [`serialized_bytes`](Self::serialized_bytes) past the budget, the
    /// least-recently-used entries (lookups count as use) are dropped until
    /// it fits. The entry just stored is never evicted — a budget smaller
    /// than a single report degrades to caching exactly one entry rather
    /// than silently caching nothing. `None` removes the cap.
    pub fn with_max_bytes(mut self, max_bytes: Option<usize>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// Looks up a key, counting a hit or a miss. A hit freshens the entry's
    /// LRU stamp.
    pub fn lookup(&self, key: &str) -> Option<TerminationReport> {
        let mut map = lock(&self.map);
        let tick = map.next_tick();
        let found = map.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            e.report.clone()
        });
        drop(map);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a report under a key, then enforces the size budget (if one is
    /// set) by evicting least-recently-used entries. The entry's serialized
    /// footprint is measured here, once per store, so size probes stay O(1).
    pub fn store(&self, key: String, report: TerminationReport) {
        let bytes = entry_bytes(&key, &report);
        let mut map = lock(&self.map);
        let tick = map.next_tick();
        if let Some(old) = map.entries.insert(
            key.clone(),
            CacheEntry {
                report,
                entry_bytes: bytes,
                last_used: tick,
            },
        ) {
            map.payload_bytes -= old.entry_bytes;
        }
        map.payload_bytes += bytes;
        let mut evicted = 0usize;
        if let Some(budget) = self.max_bytes {
            while map.serialized_bytes() > budget && map.entries.len() > 1 {
                let victim = map
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else { break };
                if let Some(old) = map.entries.remove(&victim) {
                    map.payload_bytes -= old.entry_bytes;
                    evicted += 1;
                }
            }
        }
        drop(map);
        self.stores.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        lock(&self.map).entries.len()
    }

    /// `true` when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss/store counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Loads a cache previously written by [`save`](Self::save). A missing
    /// file, or one stamped with another format version, yields an empty
    /// cache; a malformed file is an error (rather than silently serving
    /// wrong verdicts).
    pub fn load(path: &Path) -> Result<Self, String> {
        if !path.exists() {
            return Ok(ResultCache::new());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
        let version = doc
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path:?}: missing cache format version"))?;
        if version != FORMAT_VERSION {
            return Ok(ResultCache::new());
        }
        let cache = ResultCache::new();
        let Some(Json::Object(entries)) = doc.get("entries") else {
            return Err(format!("{path:?}: missing `entries` object"));
        };
        let mut map = lock(&cache.map);
        for (key, value) in entries {
            let report = report_from_json(value)?;
            let bytes = entry_bytes(key, &report);
            let tick = map.next_tick();
            map.entries.insert(
                key.clone(),
                CacheEntry {
                    report,
                    entry_bytes: bytes,
                    last_used: tick,
                },
            );
            map.payload_bytes += bytes;
        }
        drop(map);
        Ok(cache)
    }

    /// [`load`](Self::load) for long-lived consumers: a corrupt or
    /// unreadable cache file is *quarantined* — renamed to `<path>.corrupt`
    /// with a stderr warning — and an empty cache is returned, so the
    /// service starts degraded instead of dying on a torn write left by a
    /// crash. `load` itself stays strict: a batch run asked to use a
    /// specific cache file should fail loudly, not silently recompute.
    pub fn load_or_quarantine(path: &Path) -> Self {
        let error = match ResultCache::load(path) {
            Ok(cache) => return cache,
            Err(error) => error,
        };
        let mut quarantine = PathBuf::from(path.as_os_str().to_os_string());
        quarantine.as_mut_os_string().push(".corrupt");
        match std::fs::rename(path, &quarantine) {
            Ok(()) => eprintln!(
                "termite: cache {path:?} is unusable ({error}); quarantined to {quarantine:?}, \
                 starting with an empty cache"
            ),
            Err(rename_error) => eprintln!(
                "termite: cache {path:?} is unusable ({error}) and could not be quarantined \
                 ({rename_error}); starting with an empty cache"
            ),
        }
        ResultCache::new()
    }

    /// The whole cache as one on-disk JSON document.
    fn to_json(&self) -> Json {
        let map = lock(&self.map);
        Json::Object(
            [
                ("version".to_string(), Json::Number(FORMAT_VERSION)),
                (
                    "entries".to_string(),
                    Json::Object(
                        map.entries
                            .iter()
                            .map(|(k, v)| (k.clone(), report_to_json(&v.report)))
                            .collect(),
                    ),
                ),
            ]
            .into_iter()
            .collect(),
        )
    }

    /// Size of the cache in its serialized (on-disk JSON) form, in bytes —
    /// the sizing signal for the ROADMAP's "cache eviction & sizing" work,
    /// the number the service logs at shutdown, and (since the live stats
    /// surface) a field of every `{"stats": true}` snapshot. Computed in
    /// O(1) from per-entry footprints maintained at store/load time — a
    /// probe never re-serializes the cache. Pinned byte-exact against the
    /// real serializer by a test.
    pub fn serialized_bytes(&self) -> usize {
        lock(&self.map).serialized_bytes()
    }

    /// One-line human summary (entries, hit/miss counters, serialized size),
    /// logged by long-lived consumers at shutdown. `serialized_bytes` is the
    /// figure [`save`](Self::save) returns — pass it through rather than
    /// re-measuring with [`serialized_bytes`](Self::serialized_bytes) when a
    /// save just happened.
    pub fn summary(&self, serialized_bytes: usize) -> String {
        let stats = self.stats();
        format!(
            "{} entries, {} hits, {} misses, {} evicted, {} bytes serialized",
            self.len(),
            stats.hits,
            stats.misses,
            stats.evictions,
            serialized_bytes
        )
    }

    /// Persists every entry as JSON (atomically: write-then-rename) and
    /// returns the number of bytes written. When no usable file exists at
    /// `path` this is exactly the
    /// [`serialized_bytes`](Self::serialized_bytes) figure, measured for
    /// free on the document just built.
    ///
    /// A save **merges** with the file already at `path`: entries on disk
    /// but not in memory (evicted under the byte budget, or written by an
    /// earlier run with a different workload) are preserved; a file of
    /// another format version contributes nothing. The merge is abandoned
    /// — the file is **compacted** to just the live entries — when the merged
    /// document would exceed twice the live footprint: past that point the
    /// preserved tail is mostly dead weight, and carrying it forward on
    /// every save would grow the file without bound.
    pub fn save(&self, path: &Path) -> Result<usize, String> {
        let live_bytes = self.serialized_bytes();
        let live_doc = self.to_json();
        let text = match merged_document(path, &live_doc) {
            Some(merged) => {
                let merged_text = merged.to_string();
                if merged_text.len() > 2 * live_bytes {
                    live_doc.to_string()
                } else {
                    merged_text
                }
            }
            None => live_doc.to_string(),
        };
        let bytes = text.len();
        // The `cache_torn_write` fault simulates a crash mid-save: half the
        // document lands *directly at the destination*, skipping the
        // write-then-rename discipline — exactly the corruption the rename
        // exists to prevent and `load_or_quarantine` exists to survive.
        // (Byte slicing is safe: the torn file is meant to be garbage.)
        if crate::faults::cache_torn_write(&path.to_string_lossy()) {
            let torn = &text.as_bytes()[..bytes / 2];
            std::fs::write(path, torn).map_err(|e| format!("write {path:?}: {e}"))?;
            return Ok(bytes / 2);
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, text).map_err(|e| format!("write {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {path:?}: {e}"))?;
        Ok(bytes)
    }
}

/// The live document plus every entry already at `path` that the live
/// cache does not supersede. `None` when the disk file is missing,
/// unreadable, of another format version, or adds nothing — the save then
/// just writes the live document. Individually malformed disk entries are dropped rather
/// than failing the save: preserving stale entries is best-effort.
fn merged_document(path: &Path, live_doc: &Json) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let disk = Json::parse(&text).ok()?;
    if disk.get("version").and_then(Json::as_f64) != Some(FORMAT_VERSION) {
        return None;
    }
    let Some(Json::Object(disk_entries)) = disk.get("entries") else {
        return None;
    };
    let Json::Object(top) = live_doc else {
        return None;
    };
    let Some(Json::Object(live_entries)) = top.get("entries") else {
        return None;
    };
    let mut merged = live_entries.clone();
    let mut added = false;
    for (key, value) in disk_entries {
        if merged.contains_key(key) {
            continue;
        }
        let Ok(report) = report_from_json(value) else {
            continue;
        };
        merged.insert(key.clone(), report_to_json(&report));
        added = true;
    }
    if !added {
        return None;
    }
    let mut doc = top.clone();
    doc.insert("entries".to_string(), Json::Object(merged));
    Some(Json::Object(doc))
}

/// Serializes a polyhedron as its constraint list.
pub fn polyhedron_to_json(p: &Polyhedron) -> Json {
    Json::object([
        ("dim", Json::Number(p.dim() as f64)),
        (
            "constraints",
            Json::Array(
                p.constraints()
                    .iter()
                    .map(|c| {
                        Json::object([
                            (
                                "coeffs",
                                Json::Array(
                                    c.coeffs
                                        .iter()
                                        .map(|v| Json::String(v.to_string()))
                                        .collect(),
                                ),
                            ),
                            ("rhs", Json::String(c.rhs.to_string())),
                            (
                                "kind",
                                Json::String(
                                    match c.kind {
                                        ConstraintKind::GreaterEq => "ge",
                                        ConstraintKind::Equality => "eq",
                                    }
                                    .to_string(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Deserializes a polyhedron written by [`polyhedron_to_json`].
pub fn polyhedron_from_json(json: &Json) -> Result<Polyhedron, String> {
    let dim = json
        .get("dim")
        .and_then(Json::as_usize)
        .ok_or("precondition without `dim`")?;
    let constraints = json
        .get("constraints")
        .and_then(Json::as_array)
        .ok_or("precondition without `constraints`")?
        .iter()
        .map(|c| {
            let coeffs = c
                .get("coeffs")
                .and_then(Json::as_array)
                .ok_or("constraint without coeffs")?
                .iter()
                .map(rational)
                .collect::<Result<Vec<_>, _>>()?;
            let rhs = rational(c.get("rhs").ok_or("constraint without rhs")?)?;
            let coeffs = QVector::from_vec(coeffs);
            match c.get("kind").and_then(Json::as_str) {
                Some("ge") => Ok(Constraint::ge(coeffs, rhs)),
                Some("eq") => Ok(Constraint::eq(coeffs, rhs)),
                other => Err(format!("unknown constraint kind {other:?}")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Polyhedron::from_constraints(dim, constraints))
}

/// The canonical short name of a verdict, shared by the cache schema, the
/// `suite --json` reports, `bench-diff` and the CI verdict gate.
pub fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Terminates(_) => "terminates",
        Verdict::TerminatesIf { .. } => "conditional",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// Orders verdict names on the `Terminates ⊒ TerminatesIf ⊒ Unknown`
/// lattice; unknown strings rank lowest (conservative).
pub fn verdict_rank(name: &str) -> u8 {
    match name {
        "terminates" => 2,
        "conditional" => 1,
        _ => 0,
    }
}

/// Serializes a ranking function (shared by the report-level `ranking`
/// field and the per-disjunct rankings of a conditional verdict).
fn ranking_to_json(rf: &RankingFunction) -> Json {
    let components: Vec<Json> = (0..rf.dimension())
        .map(|d| {
            Json::Array(
                (0..rf.num_locations())
                    .map(|k| {
                        let (lambda, lambda0) = rf.component(d, k);
                        Json::object([
                            (
                                "lambda",
                                Json::Array(
                                    lambda.iter().map(|c| Json::String(c.to_string())).collect(),
                                ),
                            ),
                            ("lambda0", Json::String(lambda0.to_string())),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    Json::object([
        ("num_vars", Json::Number(rf.num_vars() as f64)),
        (
            "var_names",
            Json::Array(
                rf.var_names()
                    .iter()
                    .map(|n| Json::String(n.clone()))
                    .collect(),
            ),
        ),
        ("components", Json::Array(components)),
    ])
}

/// Serializes a report (verdict, ranking function, disjunctive
/// preconditions, statistics).
pub fn report_to_json(report: &TerminationReport) -> Json {
    let ranking = match report.ranking_function() {
        None => Json::Null,
        Some(rf) => ranking_to_json(rf),
    };
    let preconditions = match &report.verdict {
        Verdict::TerminatesIf { disjuncts, .. } => Json::Array(
            disjuncts
                .iter()
                .map(|d| {
                    Json::object([
                        ("clause", polyhedron_to_json(&d.clause)),
                        (
                            "ranking",
                            match &d.ranking {
                                Some(rf) => ranking_to_json(rf),
                                None => Json::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        ),
        _ => Json::Null,
    };
    let s = &report.stats;
    let unknown_reason = match &report.verdict {
        Verdict::Unknown { reason } => Json::String(
            match reason {
                UnknownReason::NoRankingFunction => "no-ranking-function",
                UnknownReason::Cancelled => "cancelled",
                UnknownReason::ResourceBudget => "resource-budget",
                UnknownReason::EngineFailure => "engine-failure",
            }
            .to_string(),
        ),
        _ => Json::Null,
    };
    Json::object([
        ("program", Json::String(report.program.clone())),
        (
            "verdict",
            Json::String(verdict_name(&report.verdict).to_string()),
        ),
        ("terminating", Json::Bool(report.proved())),
        ("unknown_reason", unknown_reason),
        ("preconditions", preconditions),
        ("ranking", ranking),
        (
            "stats",
            Json::object([
                ("iterations", Json::Number(s.iterations as f64)),
                ("lp_instances", Json::Number(s.lp_instances as f64)),
                ("lp_pivots", Json::Number(s.lp_pivots as f64)),
                ("lp_warm_hits", Json::Number(s.lp_warm_hits as f64)),
                ("basis_reuses", Json::Number(s.basis_reuses as f64)),
                (
                    "farkas_cache_hits",
                    Json::Number(s.farkas_cache_hits as f64),
                ),
                ("lp_rows_avg", Json::Number(s.lp_rows_avg)),
                ("lp_cols_avg", Json::Number(s.lp_cols_avg)),
                ("lp_max_rows", Json::Number(s.lp_max.0 as f64)),
                ("lp_max_cols", Json::Number(s.lp_max.1 as f64)),
                ("smt_queries", Json::Number(s.smt_queries as f64)),
                ("counterexamples", Json::Number(s.counterexamples as f64)),
                ("dimension", Json::Number(s.dimension as f64)),
                ("refinements", Json::Number(s.refinements as f64)),
                ("synthesis_millis", Json::Number(s.synthesis_millis)),
                ("smt_millis", Json::Number(s.smt_millis)),
                ("lp_millis", Json::Number(s.lp_millis)),
                ("invariant_millis", Json::Number(s.invariant_millis)),
                ("ir_nodes_before", Json::Number(s.ir_nodes_before as f64)),
                ("ir_nodes_after", Json::Number(s.ir_nodes_after as f64)),
                ("ir_vars_before", Json::Number(s.ir_vars_before as f64)),
                ("ir_vars_after", Json::Number(s.ir_vars_after as f64)),
                (
                    "engine_won",
                    match &s.engine_won {
                        Some(e) => Json::String(e.clone()),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
    ])
}

fn rational(json: &Json) -> Result<Rational, String> {
    json.as_str()
        .ok_or_else(|| "expected a rational string".to_string())?
        .parse::<Rational>()
        .map_err(|e| format!("bad rational: {e:?}"))
}

/// Deserializes a non-null ranking function written by [`ranking_to_json`].
fn ranking_from_json(rf: &Json) -> Result<RankingFunction, String> {
    let num_vars = rf
        .get("num_vars")
        .and_then(Json::as_usize)
        .ok_or("missing num_vars")?;
    let var_names = rf
        .get("var_names")
        .and_then(Json::as_array)
        .ok_or("missing var_names")?
        .iter()
        .map(|n| n.as_str().map(String::from).ok_or("bad var name"))
        .collect::<Result<Vec<_>, _>>()?;
    let components = rf
        .get("components")
        .and_then(Json::as_array)
        .ok_or("missing components")?
        .iter()
        .map(|per_loc| {
            per_loc
                .as_array()
                .ok_or_else(|| "bad component".to_string())?
                .iter()
                .map(|c| {
                    let lambda = c
                        .get("lambda")
                        .and_then(Json::as_array)
                        .ok_or("missing lambda")?
                        .iter()
                        .map(rational)
                        .collect::<Result<Vec<_>, _>>()?;
                    let lambda0 = rational(c.get("lambda0").ok_or("missing lambda0")?)?;
                    Ok::<_, String>((QVector::from_vec(lambda), lambda0))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RankingFunction::new(num_vars, var_names, components))
}

/// Deserializes the `preconditions` array of a conditional verdict.
fn preconditions_from_json(json: &Json) -> Result<Vec<Precondition>, String> {
    let disjuncts = json
        .get("preconditions")
        .and_then(Json::as_array)
        .ok_or("`conditional` verdict without `preconditions`")?
        .iter()
        .map(|d| {
            let clause =
                polyhedron_from_json(d.get("clause").ok_or("precondition without `clause`")?)?;
            let ranking = match d.get("ranking") {
                None | Some(Json::Null) => None,
                Some(rf) => Some(ranking_from_json(rf)?),
            };
            Ok::<_, String>(Precondition { clause, ranking })
        })
        .collect::<Result<Vec<_>, _>>()?;
    if disjuncts.is_empty() {
        return Err("`conditional` verdict with an empty `preconditions` array".to_string());
    }
    Ok(disjuncts)
}

/// Deserializes a report written by [`report_to_json`].
pub fn report_from_json(json: &Json) -> Result<TerminationReport, String> {
    let program = json
        .get("program")
        .and_then(Json::as_str)
        .ok_or("missing `program`")?
        .to_string();
    let ranking = match json.get("ranking") {
        None | Some(Json::Null) => None,
        Some(rf) => Some(ranking_from_json(rf)?),
    };
    let verdict = match json.get("verdict").and_then(Json::as_str) {
        Some("terminates") => {
            Verdict::Terminates(ranking.ok_or("`terminates` verdict without `ranking`")?)
        }
        Some("conditional") => Verdict::TerminatesIf {
            disjuncts: preconditions_from_json(json)?,
            ranking: ranking.ok_or("`conditional` verdict without `ranking`")?,
        },
        Some("unknown") => {
            Verdict::unknown(match json.get("unknown_reason").and_then(Json::as_str) {
                Some("no-ranking-function") => UnknownReason::NoRankingFunction,
                Some("cancelled") => UnknownReason::Cancelled,
                Some("resource-budget") => UnknownReason::ResourceBudget,
                Some("engine-failure") => UnknownReason::EngineFailure,
                other => return Err(format!("unknown `unknown_reason` {other:?}")),
            })
        }
        Some(other) => return Err(format!("unknown verdict `{other}`")),
        None => return Err("missing `verdict`".to_string()),
    };
    let stats_json = json.get("stats").ok_or("missing `stats`")?;
    let field = |name: &str| -> Result<f64, String> {
        stats_json
            .get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing stats field `{name}`"))
    };
    let stats = SynthesisStats {
        iterations: field("iterations")? as usize,
        lp_instances: field("lp_instances")? as usize,
        lp_pivots: field("lp_pivots")? as usize,
        lp_warm_hits: field("lp_warm_hits")? as usize,
        basis_reuses: field("basis_reuses")? as usize,
        farkas_cache_hits: field("farkas_cache_hits")? as usize,
        lp_rows_avg: field("lp_rows_avg")?,
        lp_cols_avg: field("lp_cols_avg")?,
        lp_max: (
            field("lp_max_rows")? as usize,
            field("lp_max_cols")? as usize,
        ),
        smt_queries: field("smt_queries")? as usize,
        counterexamples: field("counterexamples")? as usize,
        dimension: field("dimension")? as usize,
        refinements: field("refinements")? as usize,
        synthesis_millis: field("synthesis_millis")?,
        smt_millis: field("smt_millis")?,
        lp_millis: field("lp_millis")?,
        invariant_millis: field("invariant_millis")?,
        ir_nodes_before: field("ir_nodes_before")? as usize,
        ir_nodes_after: field("ir_nodes_after")? as usize,
        ir_vars_before: field("ir_vars_before")? as usize,
        ir_vars_after: field("ir_vars_after")? as usize,
        // Null outside portfolio races.
        engine_won: stats_json
            .get("engine_won")
            .and_then(Json::as_str)
            .map(String::from),
    };
    Ok(TerminationReport {
        program,
        verdict,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use termite_core::{prove_transition_system, Engine};
    use termite_invariants::InvariantOptions;
    use termite_ir::{parse_named_program, parse_program};

    fn job(src: &str) -> AnalysisJob {
        let p = parse_program(src).unwrap();
        AnalysisJob::from_program(&p, &InvariantOptions::default())
    }

    #[test]
    fn key_ignores_program_name_but_not_content() {
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let a = AnalysisJob::from_program(
            &parse_named_program("var x; while (x > 0) { x = x - 1; }", "alpha").unwrap(),
            &InvariantOptions::default(),
        );
        let b = AnalysisJob::from_program(
            &parse_named_program("var x; while (x > 0) { x = x - 1; }", "beta").unwrap(),
            &InvariantOptions::default(),
        );
        let c = job("var x; while (x > 0) { x = x - 2; }");
        assert_eq!(cache_key(&a, &sel, &opts), cache_key(&b, &sel, &opts));
        assert_ne!(cache_key(&a, &sel, &opts), cache_key(&c, &sel, &opts));
        // Different engine configuration → different key.
        let other = EngineSelection::single(Engine::Eager);
        assert_ne!(cache_key(&a, &sel, &opts), cache_key(&a, &other, &opts));
    }

    #[test]
    fn key_separates_programs_sharing_a_transition_system() {
        // An entry havoc is invisible to the cut-point transition system and
        // (from the unconstrained entry) to the forward invariants, but the
        // refinement pipeline treats the two programs very differently: the
        // demonic havoc co-transfer blocks any precondition on `y`. The keys
        // must not collide, or the havocked program would be served the
        // other's conditional verdict.
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let plain = job("var x, y; while (x > 0) { x = x + y; }");
        let havocked = job("var x, y; y = nondet(); while (x > 0) { x = x + y; }");
        assert_eq!(
            plain.ts.transitions().len(),
            havocked.ts.transitions().len()
        );
        assert_ne!(
            cache_key(&plain, &sel, &opts),
            cache_key(&havocked, &sel, &opts)
        );
    }

    #[test]
    fn string_rank_agrees_with_core_verdict_rank() {
        // `bench-diff` and the CI verdict gate order verdict *names* with
        // `verdict_rank`; `termite_core::Verdict::rank` orders the values.
        // The two lattices must never drift apart.
        use termite_core::{RankingFunction, UnknownReason, Verdict};
        let ranking = RankingFunction::new(1, vec!["x".into()], Vec::new());
        let verdicts = [
            Verdict::Terminates(ranking.clone()),
            Verdict::terminates_if(termite_polyhedra::Polyhedron::universe(1), ranking),
            Verdict::unknown(UnknownReason::NoRankingFunction),
        ];
        for v in &verdicts {
            assert_eq!(verdict_rank(verdict_name(v)), v.rank(), "{v:?}");
        }
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ResultCache::new();
        let j = job("var x; assume x >= 0; while (x > 0) { x = x - 1; }");
        let report = prove_transition_system(&j.ts, &j.invariants, &AnalysisOptions::default());
        let key = cache_key(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        assert!(cache.lookup(&key).is_none());
        cache.store(key.clone(), report.clone());
        assert_eq!(cache.lookup(&key), Some(report));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn report_roundtrips_through_json_identically() {
        for src in [
            "var x; while (x > 0) { x = x - 1; }",
            "var x; assume x >= 1; while (x > 0) { x = x + 1; }",
        ] {
            let j = job(src);
            let report = prove_transition_system(&j.ts, &j.invariants, &AnalysisOptions::default());
            let json = report_to_json(&report);
            let text = json.to_string();
            let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, report, "JSON roundtrip must be lossless for {src}");
        }
    }

    #[test]
    fn cache_persists_to_disk_and_back() {
        let dir = std::env::temp_dir().join("termite-driver-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = std::fs::remove_file(&path);

        let cache = ResultCache::new();
        let j = job("var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }");
        let report = prove_transition_system(&j.ts, &j.invariants, &AnalysisOptions::default());
        let key = cache_key(
            &j,
            &EngineSelection::single(Engine::Termite),
            &AnalysisOptions::default(),
        );
        cache.store(key.clone(), report.clone());
        cache.save(&path).unwrap();

        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.lookup(&key), Some(report));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conditional_report_roundtrips_with_precondition() {
        let p = parse_program("var x, y; while (x > 0) { x = x + y; }").unwrap();
        let report = termite_core::prove_termination(&p, &AnalysisOptions::default());
        assert!(
            report.precondition().is_some(),
            "x += y must get a conditional verdict"
        );
        let back =
            report_from_json(&Json::parse(&report_to_json(&report).to_string()).unwrap()).unwrap();
        assert_eq!(back, report, "conditional verdicts must round-trip");
    }

    #[test]
    fn old_schema_cache_file_reads_as_cold() {
        // A hand-written v2 file: a well-formed document of an older schema
        // (one conjunctive `precondition`, no `preconditions` array).
        let v2 = r#"{
          "version": 2,
          "entries": {
            "00000000000000cc": {
              "program": "old_conditional",
              "verdict": "conditional",
              "terminating": true,
              "unknown_reason": null,
              "precondition": {
                "dim": 1,
                "constraints": [{"coeffs": ["-1"], "rhs": "0", "kind": "ge"}]
              },
              "ranking": {
                "num_vars": 1,
                "var_names": ["x"],
                "components": [[{"lambda": ["1"], "lambda0": "0"}]]
              },
              "stats": {
                "iterations": 2, "lp_instances": 2, "lp_rows_avg": 1.0,
                "lp_cols_avg": 2.0, "lp_max_rows": 1, "lp_max_cols": 2,
                "smt_queries": 3, "counterexamples": 1, "dimension": 1,
                "synthesis_millis": 0.5
              }
            },
            "00000000000000dd": {
              "program": "old_unknown",
              "verdict": "unknown",
              "terminating": false,
              "unknown_reason": "no-ranking-function",
              "ranking": null,
              "stats": {
                "iterations": 1, "lp_instances": 0, "lp_rows_avg": 0.0,
                "lp_cols_avg": 0.0, "lp_max_rows": 0, "lp_max_cols": 0,
                "smt_queries": 1, "counterexamples": 0, "dimension": 0,
                "synthesis_millis": 0.1
              }
            }
          }
        }"#;
        let dir = std::env::temp_dir().join("termite-driver-old-schema-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let quarantine = dir.join("cache.json.corrupt");
        let _ = std::fs::remove_file(&quarantine);
        std::fs::write(&path, v2).unwrap();

        // Every lookup misses, and the file is not treated as damaged.
        let cache = ResultCache::load_or_quarantine(&path);
        assert!(ResultCache::load(&path).is_ok());
        for key in ["00000000000000cc", "00000000000000dd"] {
            assert_eq!(cache.lookup(key), None, "{key} must miss");
        }
        assert_eq!(cache.stats().misses, 2);
        assert!(path.exists());
        assert!(!quarantine.exists(), "an old schema is not corruption");

        // The next save writes the current schema with only live entries.
        let j = job("var x; while (x > 0) { x = x - 1; }");
        let opts = AnalysisOptions::default();
        let live_key = cache_key(&j, &EngineSelection::single(Engine::Termite), &opts);
        cache.store(
            live_key.clone(),
            prove_transition_system(&j.ts, &j.invariants, &opts),
        );
        cache.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"version\":3"), "{text}");
        assert!(text.contains(&live_key));
        assert!(!text.contains("00000000000000cc") && !text.contains("00000000000000dd"));
        assert_eq!(ResultCache::load(&path).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_merges_with_disk_and_compacts_when_stale_bytes_dominate() {
        let dir = std::env::temp_dir().join("termite-driver-cache-merge-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let _ = std::fs::remove_file(&path);

        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let keyed = |src: &str| {
            let j = job(src);
            let report = prove_transition_system(&j.ts, &j.invariants, &opts);
            (cache_key(&j, &sel, &opts), report)
        };
        let (old_key, old_report) = keyed("var x; while (x > 0) { x = x - 1; }");
        let fresh = [
            keyed("var x; while (x > 2) { x = x - 2; }"),
            keyed("var x; while (x > 3) { x = x - 3; }"),
            keyed("var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }"),
        ];

        // Seed the disk with one entry, then save a cache that does not
        // contain it: the merge must preserve the disk entry because the
        // union is well under twice the (three-entry) live footprint.
        let seed = ResultCache::new();
        seed.store(old_key.clone(), old_report.clone());
        seed.save(&path).unwrap();
        let live = ResultCache::new();
        for (k, r) in &fresh {
            live.store(k.clone(), r.clone());
        }
        live.save(&path).unwrap();
        let merged = ResultCache::load(&path).unwrap();
        assert_eq!(merged.len(), 4, "merge must preserve the stale entry");
        assert_eq!(merged.lookup(&old_key), Some(old_report.clone()));

        // Now save a single-entry cache over the four-entry file: the
        // union would exceed twice the live footprint, so the save
        // compacts to live-only.
        let small = ResultCache::new();
        small.store(old_key.clone(), old_report.clone());
        let written = small.save(&path).unwrap();
        assert_eq!(
            written,
            small.serialized_bytes(),
            "a compacted save writes exactly the live document"
        );
        let compacted = ResultCache::load(&path).unwrap();
        assert_eq!(compacted.len(), 1, "stale entries must be dropped");
        assert_eq!(compacted.lookup(&old_key), Some(old_report));

        // Byte-identical reload: re-saving what was just loaded must
        // reproduce the compacted file exactly.
        let first = std::fs::read_to_string(&path).unwrap();
        compacted.save(&path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "compacted file must round-trip by byte");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incremental_serialized_bytes_matches_full_serialization() {
        let cache = ResultCache::new();
        // Empty cache: just the envelope.
        assert_eq!(
            cache.serialized_bytes(),
            cache.to_json().to_string().len(),
            "empty cache"
        );

        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let sources = [
            "var x; while (x > 0) { x = x - 1; }",
            "var x; assume x >= 1; while (x > 0) { x = x + 1; }",
            "var x, y; assume x >= 0 && y >= 0; while (x > 0 && y > 0) { choice { x = x - 1; } or { y = y - 1; } }",
        ];
        for src in sources {
            let j = job(src);
            let report = prove_transition_system(&j.ts, &j.invariants, &opts);
            cache.store(cache_key(&j, &sel, &opts), report);
            assert_eq!(
                cache.serialized_bytes(),
                cache.to_json().to_string().len(),
                "after storing {src}"
            );
        }

        // Overwriting an existing key must subtract the old footprint.
        let j = job(sources[0]);
        let replacement =
            prove_transition_system(&job(sources[1]).ts, &job(sources[1]).invariants, &opts);
        cache.store(cache_key(&j, &sel, &opts), replacement);
        assert_eq!(
            cache.len(),
            sources.len(),
            "overwrite must not grow the map"
        );
        assert_eq!(
            cache.serialized_bytes(),
            cache.to_json().to_string().len(),
            "after overwriting an entry"
        );

        // A reloaded cache rebuilds the same footprint, and save() returns it.
        let path = std::env::temp_dir().join("termite-driver-incremental-bytes.json");
        let saved = cache.save(&path).unwrap();
        assert_eq!(saved, cache.serialized_bytes());
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.serialized_bytes(), cache.serialized_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn refinement_aware_jobs_get_distinct_keys() {
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let with_program = job("var x; while (x > 0) { x = x - 1; }");
        let mut one_shot = with_program.clone();
        one_shot.program = None;
        assert_ne!(
            cache_key(&with_program, &sel, &opts),
            cache_key(&one_shot, &sel, &opts),
            "pipeline-enabled jobs must not share entries with one-shot jobs"
        );
    }

    #[test]
    fn missing_file_loads_empty_and_garbage_errors() {
        let missing = std::env::temp_dir().join("termite-driver-no-such-cache.json");
        let _ = std::fs::remove_file(&missing);
        assert!(ResultCache::load(&missing).unwrap().is_empty());

        let garbage = std::env::temp_dir().join("termite-driver-garbage-cache.json");
        std::fs::write(&garbage, "{\"entries\": {}}").unwrap();
        assert!(ResultCache::load(&garbage).is_err());
        let _ = std::fs::remove_file(&garbage);
    }

    #[test]
    fn corrupt_cache_is_quarantined_not_fatal() {
        let path = std::env::temp_dir().join("termite-driver-quarantine-cache.json");
        let quarantine = std::env::temp_dir().join("termite-driver-quarantine-cache.json.corrupt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);

        // A healthy file survives load_or_quarantine untouched.
        ResultCache::new().save(&path).unwrap();
        assert!(ResultCache::load_or_quarantine(&path).is_empty());
        assert!(path.exists());
        assert!(!quarantine.exists());

        // A torn file is moved aside and an empty cache comes back.
        std::fs::write(&path, "{\"version\": 2, \"entri").unwrap();
        let cache = ResultCache::load_or_quarantine(&path);
        assert!(cache.is_empty());
        assert!(!path.exists(), "the corrupt file must be moved away");
        assert!(quarantine.exists(), "the corrupt file must be preserved");

        // With the corruption quarantined, the path is usable again.
        cache.save(&path).unwrap();
        assert!(ResultCache::load(&path).is_ok());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn torn_write_fault_produces_a_file_quarantine_recovers_from() {
        let path = std::env::temp_dir().join("termite-driver-torn-write-cache.json");
        let _ = std::fs::remove_file(&path);
        let quarantine = std::env::temp_dir().join("termite-driver-torn-write-cache.json.corrupt");
        let _ = std::fs::remove_file(&quarantine);

        let cache = ResultCache::new();
        let j = job("var x; while (x > 0) { x = x - 1; }");
        let report = prove_transition_system(&j.ts, &j.invariants, &AnalysisOptions::default());
        cache.store("00000000000000cc".to_string(), report);
        let full_bytes = cache.serialized_bytes();

        {
            // Path-scoped: a concurrently running test saving its own cache
            // file must not consume this point.
            let _faults = crate::faults::arm("cache_torn_write=torn-write-cache").unwrap();
            let written = cache.save(&path).unwrap();
            assert_eq!(written, full_bytes / 2, "the save must be truncated");
        }
        assert!(
            ResultCache::load(&path).is_err(),
            "a torn file must not parse"
        );
        assert!(ResultCache::load_or_quarantine(&path).is_empty());
        assert!(quarantine.exists());

        // Disarmed, the same save is atomic again and round-trips.
        assert_eq!(cache.save(&path).unwrap(), full_bytes);
        assert_eq!(ResultCache::load(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantine);
    }

    #[test]
    fn optimized_and_raw_jobs_never_share_a_key() {
        // Flipping the optimize switch must miss: the engines see different
        // transition systems and the stats differ even when verdicts agree.
        let opts = AnalysisOptions::default();
        let sel = EngineSelection::single(Engine::Termite);
        let src = "var x, d; assume x >= 0; while (x > 0) { x = x - 1; d = x + 1; }";
        let p = parse_program(src).unwrap();
        let raw = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), false);
        let optimized = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true);
        assert!(raw.provenance.is_none());
        assert!(optimized.provenance.is_some());
        assert_ne!(
            cache_key(&raw, &sel, &opts),
            cache_key(&optimized, &sel, &opts),
            "the optimize boundary must not be crossed by cache hits"
        );
        // Both keys are stable across reconstruction (content-addressing).
        let again = AnalysisJob::from_program_with(&p, &InvariantOptions::default(), true);
        assert_eq!(
            cache_key(&optimized, &sel, &opts),
            cache_key(&again, &sel, &opts)
        );
    }

    fn report_for(src: &str) -> TerminationReport {
        let j = job(src);
        prove_transition_system(&j.ts, &j.invariants, &AnalysisOptions::default())
    }

    #[test]
    fn size_budget_evicts_least_recently_used_first() {
        let r = report_for("var x; while (x > 0) { x = x - 1; }");
        let one = entry_bytes("a", &r);
        // Room for two entries (plus envelope and one comma), not three.
        let budget = ENVELOPE_BYTES + 2 * one + 1;
        let cache = ResultCache::new().with_max_bytes(Some(budget));
        cache.store("a".to_string(), r.clone());
        cache.store("b".to_string(), r.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);

        // Freshen `a`, then overflow: `b` is now the least recently used.
        assert!(cache.lookup("a").is_some());
        cache.store("c".to_string(), r.clone());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup("a").is_some(), "freshened entry must survive");
        assert!(cache.lookup("b").is_none(), "LRU entry must be evicted");
        assert!(
            cache.lookup("c").is_some(),
            "just-stored entry must survive"
        );
        assert!(cache.serialized_bytes() <= budget);
    }

    #[test]
    fn tiny_budget_degrades_to_caching_the_newest_entry() {
        let r = report_for("var x; while (x > 0) { x = x - 1; }");
        // Smaller than a single entry: each store evicts everything else but
        // keeps itself, so the cache still serves repeats of the last job.
        let cache = ResultCache::new().with_max_bytes(Some(1));
        cache.store("a".to_string(), r.clone());
        cache.store("b".to_string(), r.clone());
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("b").is_some());
        assert!(cache.lookup("a").is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let r = report_for("var x; while (x > 0) { x = x - 1; }");
        let cache = ResultCache::new();
        for i in 0..16 {
            cache.store(format!("{i:016x}"), r.clone());
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.stats().evictions, 0);
    }
}
