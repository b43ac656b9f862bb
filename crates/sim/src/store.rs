//! The persistent content-addressed result store (`SEESAW_STORE=<dir>`).
//!
//! The runner's memo cache is process-wide and in-memory: a killed sweep
//! loses every completed cell. This module backs it with an on-disk
//! store so a re-launched sweep resumes from what already finished —
//! across processes and across unrelated sweeps that happen to contain
//! the same configuration (cross-run dedupe). Design:
//!
//! * **Content addressing.** Records are keyed by the existing
//!   [`fingerprint`](crate::runner::fingerprint) of the `RunConfig`,
//!   qualified by [`MODEL_EPOCH`]; the file name is the key's 128-bit
//!   FNV-1a digest (`r-<digest>.rec` for results, `f-<digest>.rec` for
//!   checker failures) and the payload repeats the full key, which
//!   [`Store::get`] verifies — a digest collision or a record from
//!   another epoch degrades to a miss, never a wrong answer.
//! * **Append-only record files, atomic commits.** A record is written
//!   to a private `.tmp-<pid>-<n>` file and `rename`d into place, so a
//!   record either exists completely or not at all — a `SIGKILL` mid-
//!   write leaves at worst a stale tmp file. Committed records are never
//!   modified (only atomically replaced by an identical re-computation),
//!   and every commit appends one line to `journal.log`, the store's
//!   audit trail.
//! * **Per-record checksums, corruption-tolerant loading.** Each record
//!   carries its payload length and FNV-1a checksum in the header. A
//!   truncated, garbled, or version-skewed record is *skipped* (counted
//!   in [`StoreStats::corrupt`]) and transparently rewritten when the
//!   cell is re-simulated — corruption is never a panic and never an
//!   error surfaced to the sweep.
//! * **Bit-exact round-trips.** Every `u64` is decimal text and every
//!   `f64` is its IEEE bit pattern in hex (`f<16 hex digits>`), so a
//!   result served from disk is indistinguishable from the result a
//!   fresh simulation would produce — the property the chaos tests pin
//!   (`tests/chaos.rs`: kill-and-resume must be bit-identical to an
//!   undisturbed serial run). Results carrying a captured event trace
//!   ([`RunResult::trace`]) are deliberately not persisted: traces are
//!   debugging artifacts, orders of magnitude larger than the counters,
//!   and traced configs never recur across sweeps.
//!
//! Checker failures persist too, as lightweight markers (violation kind,
//! instruction, detail, autosaved bundle path): a resumed sweep learns a
//! cell is known-bad without re-simulating it, and keeps the pointer to
//! the repro bundle the failing run already saved. The marker's
//! rehydrated [`Violation`] carries an empty event history — the full
//! diagnostic lives in the bundle the path points at.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use seesaw_cache::CacheStats;
use seesaw_check::{CheckerSummary, InjectionStats, ReproBundle, Violation, ViolationKind};
use seesaw_coherence::CoherenceStats;
use seesaw_core::{SeesawStats, TftStats};
use seesaw_cpu::RunTotals;
use seesaw_energy::EnergyBreakdown;
use seesaw_tlb::TlbStats;
use seesaw_trace::{Collect, Log2Histogram, MetricsRegistry, MetricValue};

use crate::stats::{CoreResult, Sample};
use crate::{RunResult, SimError};

const MAGIC: &str = "seesaw-store";
const VERSION: u32 = 1;

/// The simulator-semantics epoch every record is keyed under. Bump it
/// whenever a change is meant to move simulated results, that is, in the
/// same change that regenerates `results/digests.txt`: records written
/// under any other epoch are then plain misses and are re-simulated,
/// never served. A unit test pins the golden digest file to this epoch.
pub const MODEL_EPOCH: u32 = 1;

/// The store's FNV-1a-64 checksum of `results/digests.txt` as of
/// [`MODEL_EPOCH`]; re-pinned with every epoch bump (only a test reads
/// it).
#[cfg_attr(not(test), allow(dead_code))]
const GOLDEN_DIGESTS_FNV1A: u64 = 0xe3f7_5279_868f_ac9d;

/// Process-wide tmp-file sequence, so two handles on the same directory
/// never collide on a tmp name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What the store hashes for a record's file name and embeds as its
/// key: the configuration fingerprint qualified by the model epoch.
fn record_key(epoch: u32, fingerprint: &str) -> String {
    format!("epoch{epoch} {fingerprint}")
}

/// 128-bit FNV-1a digest of a string, as 32 hex digits — of a record
/// key, the record's file-name stem; of a fingerprint, the short form
/// of the configuration attached to supervisor reports.
pub fn digest(text: &str) -> String {
    format!("{:032x}", fnv1a128(text.as_bytes()))
}

/// The low 64 bits of [`digest`], for seeding the deterministic backoff
/// jitter.
pub fn digest64(fingerprint: &str) -> u64 {
    fnv1a128(fingerprint.as_bytes()) as u64
}

fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Counters of one [`Store`]'s traffic, exported under the `store.*`
/// namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Results served from disk.
    pub hits: u64,
    /// Failure markers served from disk.
    pub failure_hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Records committed (results + failures).
    pub writes: u64,
    /// Commits that failed at the filesystem level (warned, not fatal).
    pub write_errors: u64,
    /// Records skipped because they were truncated, garbled, or
    /// version-skewed.
    pub corrupt: u64,
    /// Results not persisted because they carry a captured event trace.
    pub traced_skipped: u64,
}

impl Collect for StoreStats {
    fn collect(&self, prefix: &str, out: &mut MetricsRegistry) {
        let StoreStats {
            hits,
            failure_hits,
            misses,
            writes,
            write_errors,
            corrupt,
            traced_skipped,
        } = *self;
        out.set_u64(&format!("{prefix}.hits"), hits);
        out.set_u64(&format!("{prefix}.failure_hits"), failure_hits);
        out.set_u64(&format!("{prefix}.misses"), misses);
        out.set_u64(&format!("{prefix}.writes"), writes);
        out.set_u64(&format!("{prefix}.write_errors"), write_errors);
        out.set_u64(&format!("{prefix}.corrupt"), corrupt);
        out.set_u64(&format!("{prefix}.traced_skipped"), traced_skipped);
    }
}

/// What a [`Store::get`] found for a fingerprint.
#[derive(Debug)]
pub enum StoredOutcome {
    /// A completed result, bit-identical to the run that produced it
    /// (boxed: a `RunResult` is ~2 KB and the failure arm is small).
    Result(Box<RunResult>),
    /// A known checker failure, rehydrated as [`SimError::Check`] (empty
    /// event history; the autosaved bundle carries the full diagnostic).
    Failure(SimError),
}

/// A handle on one on-disk store directory (see the module docs).
/// Cheap to share behind an `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    journal: Mutex<()>,
    hits: AtomicU64,
    failure_hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    corrupt: AtomicU64,
    traced_skipped: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    /// Returns the I/O error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            journal: Mutex::new(()),
            hits: AtomicU64::new(0),
            failure_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            traced_skipped: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of this handle's traffic counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            failure_hits: self.failure_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            traced_skipped: self.traced_skipped.load(Ordering::Relaxed),
        }
    }

    /// Looks up a fingerprint: a completed result first, then a failure
    /// marker. Corrupt records are skipped (counted), never an error;
    /// records from another [`MODEL_EPOCH`] are misses.
    pub fn get(&self, fingerprint: &str) -> Option<StoredOutcome> {
        let key = record_key(MODEL_EPOCH, fingerprint);
        let d = digest(&key);
        if let Some(payload) = self.read_record(&self.dir.join(format!("r-{d}.rec"))) {
            match decode_result(&payload, &key) {
                Ok(Some(result)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(StoredOutcome::Result(Box::new(result)));
                }
                Ok(None) => {} // digest collision: some other config's record
                Err(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if let Some(payload) = self.read_record(&self.dir.join(format!("f-{d}.rec"))) {
            match decode_failure(&payload, &key) {
                Ok(Some(error)) => {
                    self.failure_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(StoredOutcome::Failure(error));
                }
                Ok(None) => {}
                Err(_) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Persists a completed result (best-effort: filesystem trouble is a
    /// warning, never an error — the in-memory result is already safe).
    /// Results carrying a captured event trace are not persisted.
    pub fn put_result(&self, fingerprint: &str, result: &RunResult) {
        let key = record_key(MODEL_EPOCH, fingerprint);
        let Some(payload) = encode_result(&key, result) else {
            self.traced_skipped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.commit(&format!("r-{}.rec", digest(&key)), "result", &payload);
    }

    /// Persists a checker-failure marker with its autosaved bundle path.
    /// Non-checker failures (allocation, page fault — configuration
    /// bugs, not sweep outcomes) are not persisted.
    pub fn put_failure(&self, fingerprint: &str, error: &SimError) {
        let SimError::Check(v) = error else {
            return;
        };
        let key = record_key(MODEL_EPOCH, fingerprint);
        let payload = encode_failure(&key, v);
        self.commit(&format!("f-{}.rec", digest(&key)), "failure", &payload);
    }

    /// Scans every record file, returning `(valid, corrupt)` counts —
    /// the integrity audit `chaos_smoke` runs after crash-recovery.
    pub fn verify(&self) -> (usize, usize) {
        let (mut valid, mut corrupt) = (0, 0);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.ends_with(".rec") {
                continue;
            }
            match self.read_record_quiet(&entry.path()) {
                Some(_) => valid += 1,
                None => corrupt += 1,
            }
        }
        (valid, corrupt)
    }

    /// Number of committed record files.
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".rec"))
            .count()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically commits one checksummed record: header + payload
    /// written to a private `.tmp-<pid>-<seq>` file, fsynced, then
    /// renamed to `name`, with one journal line per commit.
    fn commit(&self, name: &str, kind: &str, payload: &str) {
        let crc = fnv1a64(payload.as_bytes());
        let header = format!("{MAGIC} {VERSION} {kind} {} {crc:016x}\n", payload.len());
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let finished = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(payload.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            fs::rename(&tmp, self.dir.join(name))?;
            Ok(())
        })();
        match finished {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                let _guard = self.journal.lock().expect("store journal lock");
                let line = format!("{kind} {name} {} {crc:016x}\n", payload.len());
                let _ = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join("journal.log"))
                    .and_then(|mut j| j.write_all(line.as_bytes()));
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
                eprintln!(
                    "warning: SEESAW_STORE write of {name} failed ({e}); \
                     the sweep continues without persisting this cell"
                );
            }
        }
    }

    /// Reads and validates one record file; `None` for absent, truncated,
    /// garbled, or version-skewed records (the corrupt counter is bumped
    /// by the callers that distinguish absent from damaged).
    fn read_record(&self, path: &Path) -> Option<String> {
        if !path.exists() {
            return None;
        }
        match self.read_record_quiet(path) {
            Some(p) => Some(p),
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn read_record_quiet(&self, path: &Path) -> Option<String> {
        let bytes = fs::read(path).ok()?;
        let text = String::from_utf8(bytes).ok()?;
        let (header, rest) = text.split_once('\n')?;
        let mut fields = header.split(' ');
        if fields.next() != Some(MAGIC) {
            return None;
        }
        if fields.next()?.parse::<u32>().ok()? != VERSION {
            return None;
        }
        let _kind = fields.next()?;
        let len: usize = fields.next()?.parse().ok()?;
        let crc = u64::from_str_radix(fields.next()?, 16).ok()?;
        if fields.next().is_some() || rest.len() < len {
            return None;
        }
        let payload = &rest[..len];
        if fnv1a64(payload.as_bytes()) != crc {
            return None;
        }
        Some(payload.to_string())
    }
}

/// The process-wide store named by `SEESAW_STORE=<dir>` (read once; an
/// unopenable directory warns and disables persistence). `None` when the
/// variable is unset or empty.
pub fn process_store() -> Option<&'static std::sync::Arc<Store>> {
    use std::sync::{Arc, OnceLock};
    static STORE: OnceLock<Option<Arc<Store>>> = OnceLock::new();
    STORE
        .get_or_init(|| {
            let dir = std::env::var("SEESAW_STORE").ok()?;
            if dir.is_empty() {
                return None;
            }
            match Store::open(&dir) {
                Ok(s) => Some(Arc::new(s)),
                Err(e) => {
                    eprintln!(
                        "warning: SEESAW_STORE={dir} could not be opened ({e}); \
                         sweeps will run without persistence"
                    );
                    None
                }
            }
        })
        .as_ref()
}

// ---------------------------------------------------------------------------
// Payload codec: flat `key value` lines, one per scalar.
// ---------------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

struct Enc {
    out: String,
}

impl Enc {
    fn new(key: &str) -> Enc {
        let mut e = Enc { out: String::new() };
        e.s("fingerprint", key);
        e
    }

    fn line(&mut self, key: &str, value: impl std::fmt::Display) {
        self.out.push_str(key);
        self.out.push(' ');
        self.out.push_str(&value.to_string());
        self.out.push('\n');
    }

    fn u(&mut self, key: &str, v: u64) {
        self.line(key, v);
    }

    fn f(&mut self, key: &str, v: f64) {
        self.line(key, format_args!("f{:016x}", v.to_bits()));
    }

    fn s(&mut self, key: &str, v: &str) {
        self.line(key, esc(v));
    }

    fn opt_f(&mut self, key: &str, v: Option<f64>) {
        match v {
            Some(x) => self.f(key, x),
            None => self.line(key, "none"),
        }
    }
}

struct Dec<'a> {
    map: HashMap<&'a str, &'a str>,
}

type DecErr = String;

impl<'a> Dec<'a> {
    fn new(payload: &'a str) -> Dec<'a> {
        let mut map = HashMap::new();
        for line in payload.lines() {
            if let Some((k, v)) = line.split_once(' ') {
                map.insert(k, v);
            }
        }
        Dec { map }
    }

    fn raw(&self, key: &str) -> Result<&'a str, DecErr> {
        self.map
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    fn u(&self, key: &str) -> Result<u64, DecErr> {
        self.raw(key)?
            .parse()
            .map_err(|_| format!("key {key:?}: bad integer"))
    }

    fn f(&self, key: &str) -> Result<f64, DecErr> {
        parse_f(self.raw(key)?).ok_or_else(|| format!("key {key:?}: bad float bits"))
    }

    fn s(&self, key: &str) -> Result<String, DecErr> {
        Ok(unesc(self.raw(key)?))
    }

    fn opt_f(&self, key: &str) -> Result<Option<f64>, DecErr> {
        match self.raw(key)? {
            "none" => Ok(None),
            v => parse_f(v)
                .map(Some)
                .ok_or_else(|| format!("key {key:?}: bad float bits")),
        }
    }
}

fn parse_f(v: &str) -> Option<f64> {
    let hex = v.strip_prefix('f')?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

fn enc_totals(e: &mut Enc, p: &str, t: &RunTotals) {
    let RunTotals {
        cycles,
        instructions,
        squashes,
    } = *t;
    e.u(&format!("{p}.cycles"), cycles);
    e.u(&format!("{p}.instructions"), instructions);
    e.u(&format!("{p}.squashes"), squashes);
}

fn dec_totals(d: &Dec, p: &str) -> Result<RunTotals, DecErr> {
    Ok(RunTotals {
        cycles: d.u(&format!("{p}.cycles"))?,
        instructions: d.u(&format!("{p}.instructions"))?,
        squashes: d.u(&format!("{p}.squashes"))?,
    })
}

fn enc_cache(e: &mut Enc, p: &str, c: &CacheStats) {
    let CacheStats {
        hits,
        misses,
        fills,
        evictions,
        writebacks,
        ways_probed,
        coherence_probes,
        coherence_ways_probed,
        coherence_invalidations,
    } = *c;
    e.u(&format!("{p}.hits"), hits);
    e.u(&format!("{p}.misses"), misses);
    e.u(&format!("{p}.fills"), fills);
    e.u(&format!("{p}.evictions"), evictions);
    e.u(&format!("{p}.writebacks"), writebacks);
    e.u(&format!("{p}.ways_probed"), ways_probed);
    e.u(&format!("{p}.coherence_probes"), coherence_probes);
    e.u(&format!("{p}.coherence_ways_probed"), coherence_ways_probed);
    e.u(
        &format!("{p}.coherence_invalidations"),
        coherence_invalidations,
    );
}

fn dec_cache(d: &Dec, p: &str) -> Result<CacheStats, DecErr> {
    Ok(CacheStats {
        hits: d.u(&format!("{p}.hits"))?,
        misses: d.u(&format!("{p}.misses"))?,
        fills: d.u(&format!("{p}.fills"))?,
        evictions: d.u(&format!("{p}.evictions"))?,
        writebacks: d.u(&format!("{p}.writebacks"))?,
        ways_probed: d.u(&format!("{p}.ways_probed"))?,
        coherence_probes: d.u(&format!("{p}.coherence_probes"))?,
        coherence_ways_probed: d.u(&format!("{p}.coherence_ways_probed"))?,
        coherence_invalidations: d.u(&format!("{p}.coherence_invalidations"))?,
    })
}

fn enc_tlb(e: &mut Enc, p: &str, t: &TlbStats) {
    let TlbStats {
        hits,
        misses,
        fills,
        evictions,
        invalidations,
        flushes,
    } = *t;
    e.u(&format!("{p}.hits"), hits);
    e.u(&format!("{p}.misses"), misses);
    e.u(&format!("{p}.fills"), fills);
    e.u(&format!("{p}.evictions"), evictions);
    e.u(&format!("{p}.invalidations"), invalidations);
    e.u(&format!("{p}.flushes"), flushes);
}

fn dec_tlb(d: &Dec, p: &str) -> Result<TlbStats, DecErr> {
    Ok(TlbStats {
        hits: d.u(&format!("{p}.hits"))?,
        misses: d.u(&format!("{p}.misses"))?,
        fills: d.u(&format!("{p}.fills"))?,
        evictions: d.u(&format!("{p}.evictions"))?,
        invalidations: d.u(&format!("{p}.invalidations"))?,
        flushes: d.u(&format!("{p}.flushes"))?,
    })
}

fn enc_seesaw(e: &mut Enc, p: &str, s: &SeesawStats) {
    let SeesawStats {
        super_tft_hit_cache_hit,
        super_tft_hit_cache_miss,
        super_tft_miss,
        base_page,
        super_tft_miss_l1_miss,
        sweeps,
        swept_lines,
    } = *s;
    e.u(&format!("{p}.super_tft_hit_cache_hit"), super_tft_hit_cache_hit);
    e.u(
        &format!("{p}.super_tft_hit_cache_miss"),
        super_tft_hit_cache_miss,
    );
    e.u(&format!("{p}.super_tft_miss"), super_tft_miss);
    e.u(&format!("{p}.base_page"), base_page);
    e.u(&format!("{p}.super_tft_miss_l1_miss"), super_tft_miss_l1_miss);
    e.u(&format!("{p}.sweeps"), sweeps);
    e.u(&format!("{p}.swept_lines"), swept_lines);
}

fn dec_seesaw(d: &Dec, p: &str) -> Result<SeesawStats, DecErr> {
    Ok(SeesawStats {
        super_tft_hit_cache_hit: d.u(&format!("{p}.super_tft_hit_cache_hit"))?,
        super_tft_hit_cache_miss: d.u(&format!("{p}.super_tft_hit_cache_miss"))?,
        super_tft_miss: d.u(&format!("{p}.super_tft_miss"))?,
        base_page: d.u(&format!("{p}.base_page"))?,
        super_tft_miss_l1_miss: d.u(&format!("{p}.super_tft_miss_l1_miss"))?,
        sweeps: d.u(&format!("{p}.sweeps"))?,
        swept_lines: d.u(&format!("{p}.swept_lines"))?,
    })
}

fn enc_tft(e: &mut Enc, p: &str, t: &TftStats) {
    let TftStats {
        hits,
        misses,
        fills,
        invalidations,
        flushes,
    } = *t;
    e.u(&format!("{p}.hits"), hits);
    e.u(&format!("{p}.misses"), misses);
    e.u(&format!("{p}.fills"), fills);
    e.u(&format!("{p}.invalidations"), invalidations);
    e.u(&format!("{p}.flushes"), flushes);
}

fn dec_tft(d: &Dec, p: &str) -> Result<TftStats, DecErr> {
    Ok(TftStats {
        hits: d.u(&format!("{p}.hits"))?,
        misses: d.u(&format!("{p}.misses"))?,
        fills: d.u(&format!("{p}.fills"))?,
        invalidations: d.u(&format!("{p}.invalidations"))?,
        flushes: d.u(&format!("{p}.flushes"))?,
    })
}

fn enc_energy(e: &mut Enc, p: &str, en: &EnergyBreakdown) {
    let EnergyBreakdown {
        l1_cpu_nj,
        l1_coherence_nj,
        l1_fill_nj,
        translation_nj,
        tft_nj,
        outer_cache_nj,
        dram_nj,
        leakage_nj,
    } = *en;
    e.f(&format!("{p}.l1_cpu_nj"), l1_cpu_nj);
    e.f(&format!("{p}.l1_coherence_nj"), l1_coherence_nj);
    e.f(&format!("{p}.l1_fill_nj"), l1_fill_nj);
    e.f(&format!("{p}.translation_nj"), translation_nj);
    e.f(&format!("{p}.tft_nj"), tft_nj);
    e.f(&format!("{p}.outer_cache_nj"), outer_cache_nj);
    e.f(&format!("{p}.dram_nj"), dram_nj);
    e.f(&format!("{p}.leakage_nj"), leakage_nj);
}

fn dec_energy(d: &Dec, p: &str) -> Result<EnergyBreakdown, DecErr> {
    Ok(EnergyBreakdown {
        l1_cpu_nj: d.f(&format!("{p}.l1_cpu_nj"))?,
        l1_coherence_nj: d.f(&format!("{p}.l1_coherence_nj"))?,
        l1_fill_nj: d.f(&format!("{p}.l1_fill_nj"))?,
        translation_nj: d.f(&format!("{p}.translation_nj"))?,
        tft_nj: d.f(&format!("{p}.tft_nj"))?,
        outer_cache_nj: d.f(&format!("{p}.outer_cache_nj"))?,
        dram_nj: d.f(&format!("{p}.dram_nj"))?,
        leakage_nj: d.f(&format!("{p}.leakage_nj"))?,
    })
}

fn enc_hist(e: &mut Enc, p: &str, h: &Log2Histogram) {
    e.u(&format!("{p}.count"), h.count());
    e.u(&format!("{p}.sum"), h.sum());
    let buckets: Vec<String> = h.buckets().iter().map(u64::to_string).collect();
    e.line(&format!("{p}.buckets"), buckets.join(","));
}

fn dec_hist(d: &Dec, p: &str) -> Result<Log2Histogram, DecErr> {
    let count = d.u(&format!("{p}.count"))?;
    let sum = d.u(&format!("{p}.sum"))?;
    let raw = d.raw(&format!("{p}.buckets"))?;
    let mut buckets = [0u64; Log2Histogram::BUCKETS];
    let mut n = 0;
    for (i, part) in raw.split(',').enumerate() {
        if i >= buckets.len() {
            return Err(format!("key {p:?}.buckets: too many buckets"));
        }
        buckets[i] = part
            .parse()
            .map_err(|_| format!("key {p:?}.buckets: bad integer"))?;
        n = i + 1;
    }
    if n != buckets.len() {
        return Err(format!("key {p:?}.buckets: expected {} buckets", buckets.len()));
    }
    Ok(Log2Histogram::from_parts(buckets, count, sum))
}

fn enc_injection(e: &mut Enc, p: &str, s: &InjectionStats) {
    let InjectionStats {
        splinters,
        promotions,
        shootdowns,
        tft_storms,
        context_switches,
        mem_pressure,
        mem_releases,
    } = *s;
    e.u(&format!("{p}.splinters"), splinters);
    e.u(&format!("{p}.promotions"), promotions);
    e.u(&format!("{p}.shootdowns"), shootdowns);
    e.u(&format!("{p}.tft_storms"), tft_storms);
    e.u(&format!("{p}.context_switches"), context_switches);
    e.u(&format!("{p}.mem_pressure"), mem_pressure);
    e.u(&format!("{p}.mem_releases"), mem_releases);
}

fn dec_injection(d: &Dec, p: &str) -> Result<InjectionStats, DecErr> {
    Ok(InjectionStats {
        splinters: d.u(&format!("{p}.splinters"))?,
        promotions: d.u(&format!("{p}.promotions"))?,
        shootdowns: d.u(&format!("{p}.shootdowns"))?,
        tft_storms: d.u(&format!("{p}.tft_storms"))?,
        context_switches: d.u(&format!("{p}.context_switches"))?,
        mem_pressure: d.u(&format!("{p}.mem_pressure"))?,
        mem_releases: d.u(&format!("{p}.mem_releases"))?,
    })
}

fn enc_checker(e: &mut Enc, p: &str, c: &CheckerSummary) {
    let CheckerSummary {
        loads_checked,
        stores_tracked,
        audits,
        violations,
    } = *c;
    e.u(&format!("{p}.loads_checked"), loads_checked);
    e.u(&format!("{p}.stores_tracked"), stores_tracked);
    e.u(&format!("{p}.audits"), audits);
    let seesaw_check::ViolationCounters {
        stale_translation,
        tft_claims_base_page,
        data_divergence,
        use_after_free,
        swept_line_resident,
        partition_unreachable,
        stale_physical_mapping,
        way_prediction_alias,
    } = violations;
    e.u(&format!("{p}.v.stale_translation"), stale_translation);
    e.u(&format!("{p}.v.tft_claims_base_page"), tft_claims_base_page);
    e.u(&format!("{p}.v.data_divergence"), data_divergence);
    e.u(&format!("{p}.v.use_after_free"), use_after_free);
    e.u(&format!("{p}.v.swept_line_resident"), swept_line_resident);
    e.u(&format!("{p}.v.partition_unreachable"), partition_unreachable);
    e.u(&format!("{p}.v.stale_physical_mapping"), stale_physical_mapping);
    e.u(&format!("{p}.v.way_prediction_alias"), way_prediction_alias);
}

fn dec_checker(d: &Dec, p: &str) -> Result<CheckerSummary, DecErr> {
    Ok(CheckerSummary {
        loads_checked: d.u(&format!("{p}.loads_checked"))?,
        stores_tracked: d.u(&format!("{p}.stores_tracked"))?,
        audits: d.u(&format!("{p}.audits"))?,
        violations: seesaw_check::ViolationCounters {
            stale_translation: d.u(&format!("{p}.v.stale_translation"))?,
            tft_claims_base_page: d.u(&format!("{p}.v.tft_claims_base_page"))?,
            data_divergence: d.u(&format!("{p}.v.data_divergence"))?,
            use_after_free: d.u(&format!("{p}.v.use_after_free"))?,
            swept_line_resident: d.u(&format!("{p}.v.swept_line_resident"))?,
            partition_unreachable: d.u(&format!("{p}.v.partition_unreachable"))?,
            stale_physical_mapping: d.u(&format!("{p}.v.stale_physical_mapping"))?,
            // Absent from records persisted before the way-prediction
            // invariant existed; treat those as zero rather than refusing
            // to resume the sweep.
            way_prediction_alias: d.u(&format!("{p}.v.way_prediction_alias")).unwrap_or(0),
        },
    })
}

fn enc_coherence(e: &mut Enc, p: &str, c: &CoherenceStats) {
    let CoherenceStats {
        transactions,
        probes_delivered,
        probe_ways,
        invalidations,
        writebacks,
    } = *c;
    e.u(&format!("{p}.transactions"), transactions);
    e.u(&format!("{p}.probes_delivered"), probes_delivered);
    e.u(&format!("{p}.probe_ways"), probe_ways);
    e.u(&format!("{p}.invalidations"), invalidations);
    e.u(&format!("{p}.writebacks"), writebacks);
}

fn dec_coherence(d: &Dec, p: &str) -> Result<CoherenceStats, DecErr> {
    Ok(CoherenceStats {
        transactions: d.u(&format!("{p}.transactions"))?,
        probes_delivered: d.u(&format!("{p}.probes_delivered"))?,
        probe_ways: d.u(&format!("{p}.probe_ways"))?,
        invalidations: d.u(&format!("{p}.invalidations"))?,
        writebacks: d.u(&format!("{p}.writebacks"))?,
    })
}

fn enc_samples(e: &mut Enc, p: &str, samples: &[Sample]) {
    e.u(&format!("{p}.len"), samples.len() as u64);
    for (i, s) in samples.iter().enumerate() {
        let Sample {
            instructions,
            cpi,
            mpki,
            tft_hit_rate,
            walk_mpki,
            ways_per_access,
        } = *s;
        let q = format!("{p}.{i}");
        e.u(&format!("{q}.instructions"), instructions);
        e.f(&format!("{q}.cpi"), cpi);
        e.f(&format!("{q}.mpki"), mpki);
        e.f(&format!("{q}.tft_hit_rate"), tft_hit_rate);
        e.f(&format!("{q}.walk_mpki"), walk_mpki);
        e.f(&format!("{q}.ways_per_access"), ways_per_access);
    }
}

fn dec_samples(d: &Dec, p: &str) -> Result<Vec<Sample>, DecErr> {
    let len = d.u(&format!("{p}.len"))? as usize;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let q = format!("{p}.{i}");
        out.push(Sample {
            instructions: d.u(&format!("{q}.instructions"))?,
            cpi: d.f(&format!("{q}.cpi"))?,
            mpki: d.f(&format!("{q}.mpki"))?,
            tft_hit_rate: d.f(&format!("{q}.tft_hit_rate"))?,
            walk_mpki: d.f(&format!("{q}.walk_mpki"))?,
            ways_per_access: d.f(&format!("{q}.ways_per_access"))?,
        });
    }
    Ok(out)
}

fn enc_metrics(e: &mut Enc, p: &str, m: &MetricsRegistry) {
    e.u(&format!("{p}.len"), m.len() as u64);
    for (key, value) in m.iter() {
        match value {
            MetricValue::U64(v) => e.line(&format!("{p}.k.{key}"), format_args!("u{v}")),
            MetricValue::F64(v) => e.line(&format!("{p}.k.{key}"), format_args!("f{:016x}", v.to_bits())),
        }
    }
}

fn dec_metrics(d: &Dec, p: &str) -> Result<MetricsRegistry, DecErr> {
    let len = d.u(&format!("{p}.len"))? as usize;
    let prefix = format!("{p}.k.");
    let mut out = MetricsRegistry::new();
    for (k, v) in &d.map {
        let Some(key) = k.strip_prefix(prefix.as_str()) else {
            continue;
        };
        if let Some(hex) = v.strip_prefix('f') {
            let bits = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("metric {key:?}: bad float bits"))?;
            out.set_f64(key, f64::from_bits(bits));
        } else if let Some(dec) = v.strip_prefix('u') {
            let n: u64 = dec
                .parse()
                .map_err(|_| format!("metric {key:?}: bad integer"))?;
            out.set_u64(key, n);
        } else {
            return Err(format!("metric {key:?}: unknown value tag"));
        }
    }
    if out.len() != len {
        return Err(format!(
            "metrics: expected {len} keys, decoded {}",
            out.len()
        ));
    }
    Ok(out)
}

fn enc_core(e: &mut Enc, p: &str, c: &CoreResult) {
    let CoreResult {
        core,
        totals,
        l1,
        tlb_l1,
        walks,
        seesaw,
        tft,
        coherence_probes,
        superpage_ref_fraction,
        way_prediction_accuracy,
        faults,
        checker,
        samples,
    } = c;
    e.u(&format!("{p}.core"), *core as u64);
    enc_totals(e, &format!("{p}.totals"), totals);
    enc_cache(e, &format!("{p}.l1"), l1);
    enc_tlb(e, &format!("{p}.tlb_l1"), tlb_l1);
    e.u(&format!("{p}.walks"), *walks);
    enc_seesaw(e, &format!("{p}.seesaw"), seesaw);
    enc_tft(e, &format!("{p}.tft"), tft);
    e.u(&format!("{p}.coherence_probes"), *coherence_probes);
    e.f(&format!("{p}.superpage_ref_fraction"), *superpage_ref_fraction);
    e.opt_f(&format!("{p}.way_prediction_accuracy"), *way_prediction_accuracy);
    match faults {
        Some(f) => {
            e.line(&format!("{p}.faults"), "some");
            enc_injection(e, &format!("{p}.faults"), f);
        }
        None => e.line(&format!("{p}.faults"), "none"),
    }
    match checker {
        Some(c) => {
            e.line(&format!("{p}.checker"), "some");
            enc_checker(e, &format!("{p}.checker"), c);
        }
        None => e.line(&format!("{p}.checker"), "none"),
    }
    enc_samples(e, &format!("{p}.samples"), samples);
}

fn dec_core(d: &Dec, p: &str) -> Result<CoreResult, DecErr> {
    Ok(CoreResult {
        core: d.u(&format!("{p}.core"))? as usize,
        totals: dec_totals(d, &format!("{p}.totals"))?,
        l1: dec_cache(d, &format!("{p}.l1"))?,
        tlb_l1: dec_tlb(d, &format!("{p}.tlb_l1"))?,
        walks: d.u(&format!("{p}.walks"))?,
        seesaw: dec_seesaw(d, &format!("{p}.seesaw"))?,
        tft: dec_tft(d, &format!("{p}.tft"))?,
        coherence_probes: d.u(&format!("{p}.coherence_probes"))?,
        superpage_ref_fraction: d.f(&format!("{p}.superpage_ref_fraction"))?,
        way_prediction_accuracy: d.opt_f(&format!("{p}.way_prediction_accuracy"))?,
        faults: match d.raw(&format!("{p}.faults"))? {
            "none" => None,
            _ => Some(dec_injection(d, &format!("{p}.faults"))?),
        },
        checker: match d.raw(&format!("{p}.checker"))? {
            "none" => None,
            _ => Some(dec_checker(d, &format!("{p}.checker"))?),
        },
        samples: dec_samples(d, &format!("{p}.samples"))?,
    })
}

/// Serializes a result payload; `None` when the result carries a trace
/// (not persisted — see the module docs). The exhaustive destructuring
/// is deliberate: adding a field to `RunResult` breaks this function at
/// compile time, forcing the codec — both directions — to learn it.
fn encode_result(fingerprint: &str, r: &RunResult) -> Option<String> {
    let RunResult {
        totals,
        runtime_ns,
        energy,
        l1,
        l1_mpki,
        tlb_l1,
        walks,
        seesaw,
        tft,
        superpage_coverage,
        superpage_ref_fraction,
        way_prediction_accuracy,
        coherence_probes,
        demotions,
        faults,
        checker,
        samples,
        walk_latency,
        miss_penalty,
        metrics,
        trace,
        coherence,
        cores,
    } = r;
    if trace.is_some() {
        return None;
    }
    let mut e = Enc::new(fingerprint);
    enc_totals(&mut e, "totals", totals);
    e.f("runtime_ns", *runtime_ns);
    enc_energy(&mut e, "energy", energy);
    enc_cache(&mut e, "l1", l1);
    e.f("l1_mpki", *l1_mpki);
    enc_tlb(&mut e, "tlb_l1", tlb_l1);
    e.u("walks", *walks);
    enc_seesaw(&mut e, "seesaw", seesaw);
    enc_tft(&mut e, "tft", tft);
    e.f("superpage_coverage", *superpage_coverage);
    e.f("superpage_ref_fraction", *superpage_ref_fraction);
    e.opt_f("way_prediction_accuracy", *way_prediction_accuracy);
    e.u("coherence_probes", *coherence_probes);
    e.u("demotions", *demotions);
    match faults {
        Some(f) => {
            e.line("faults", "some");
            enc_injection(&mut e, "faults", f);
        }
        None => e.line("faults", "none"),
    }
    match checker {
        Some(c) => {
            e.line("checker", "some");
            enc_checker(&mut e, "checker", c);
        }
        None => e.line("checker", "none"),
    }
    enc_samples(&mut e, "samples", samples);
    enc_hist(&mut e, "walk_latency", walk_latency);
    enc_hist(&mut e, "miss_penalty", miss_penalty);
    enc_metrics(&mut e, "metrics", metrics);
    match coherence {
        Some(c) => {
            e.line("coherence", "some");
            enc_coherence(&mut e, "coherence", c);
        }
        None => e.line("coherence", "none"),
    }
    e.u("cores.len", cores.len() as u64);
    for (i, c) in cores.iter().enumerate() {
        enc_core(&mut e, &format!("cores.{i}"), c);
    }
    Some(e.out)
}

/// Rebuilds a result from a payload. `Ok(None)` when the payload belongs
/// to a different fingerprint (digest collision).
fn decode_result(payload: &str, fingerprint: &str) -> Result<Option<RunResult>, DecErr> {
    let d = Dec::new(payload);
    if d.s("fingerprint")? != fingerprint {
        return Ok(None);
    }
    let cores_len = d.u("cores.len")? as usize;
    let mut cores = Vec::with_capacity(cores_len);
    for i in 0..cores_len {
        cores.push(dec_core(&d, &format!("cores.{i}"))?);
    }
    Ok(Some(RunResult {
        totals: dec_totals(&d, "totals")?,
        runtime_ns: d.f("runtime_ns")?,
        energy: dec_energy(&d, "energy")?,
        l1: dec_cache(&d, "l1")?,
        l1_mpki: d.f("l1_mpki")?,
        tlb_l1: dec_tlb(&d, "tlb_l1")?,
        walks: d.u("walks")?,
        seesaw: dec_seesaw(&d, "seesaw")?,
        tft: dec_tft(&d, "tft")?,
        superpage_coverage: d.f("superpage_coverage")?,
        superpage_ref_fraction: d.f("superpage_ref_fraction")?,
        way_prediction_accuracy: d.opt_f("way_prediction_accuracy")?,
        coherence_probes: d.u("coherence_probes")?,
        demotions: d.u("demotions")?,
        faults: match d.raw("faults")? {
            "none" => None,
            _ => Some(dec_injection(&d, "faults")?),
        },
        checker: match d.raw("checker")? {
            "none" => None,
            _ => Some(dec_checker(&d, "checker")?),
        },
        samples: dec_samples(&d, "samples")?,
        walk_latency: dec_hist(&d, "walk_latency")?,
        miss_penalty: dec_hist(&d, "miss_penalty")?,
        metrics: dec_metrics(&d, "metrics")?,
        trace: None,
        coherence: match d.raw("coherence")? {
            "none" => None,
            _ => Some(dec_coherence(&d, "coherence")?),
        },
        cores,
    }))
}

fn encode_failure(fingerprint: &str, v: &Violation) -> String {
    let mut e = Enc::new(fingerprint);
    e.s("violation.kind", v.kind.name());
    e.u("violation.instruction", v.instruction);
    e.s("violation.detail", &v.detail);
    match &v.autosaved {
        Some(path) => e.s("bundle.path", &path.to_string_lossy()),
        None => e.line("bundle.path", "none"),
    }
    e.out
}

fn decode_failure(payload: &str, fingerprint: &str) -> Result<Option<SimError>, DecErr> {
    let d = Dec::new(payload);
    if d.s("fingerprint")? != fingerprint {
        return Ok(None);
    }
    let kind_name = d.s("violation.kind")?;
    let kind = ViolationKind::from_name(&kind_name)
        .ok_or_else(|| format!("unknown violation kind {kind_name:?}"))?;
    let autosaved = match d.raw("bundle.path")? {
        "none" => None,
        raw => Some(PathBuf::from(unesc(raw))),
    };
    // Rehydrate the full bundle from its autosaved file when it is still
    // readable; a moved or deleted bundle degrades to `repro: None`.
    let repro = autosaved
        .as_ref()
        .and_then(|p| fs::read_to_string(p).ok())
        .and_then(|text| ReproBundle::from_json(&text).ok())
        .map(Box::new);
    Ok(Some(SimError::Check(Box::new(Violation {
        kind,
        instruction: d.u("violation.instruction")?,
        detail: d.s("violation.detail")?,
        history: Vec::new(),
        repro,
        autosaved,
    }))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::fingerprint;
    use crate::{RunConfig, System};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "seesaw-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        let a = digest("config-a");
        assert_eq!(a, digest("config-a"));
        assert_ne!(a, digest("config-b"));
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn result_round_trips_bit_exactly() {
        let cfg = RunConfig::quick("astar").instructions(40_000);
        let result = System::build(&cfg).unwrap().run().unwrap();
        let fp = fingerprint(&cfg);
        let payload = encode_result(&fp, &result).expect("untraced result encodes");
        let back = decode_result(&payload, &fp).unwrap().expect("fp matches");
        assert_eq!(result.totals.cycles, back.totals.cycles);
        assert_eq!(result.runtime_ns.to_bits(), back.runtime_ns.to_bits());
        assert_eq!(
            result.energy.total_nj().to_bits(),
            back.energy.total_nj().to_bits()
        );
        assert_eq!(result.metrics.len(), back.metrics.len());
        // The codec is injective on its own output: re-encoding the
        // decoded value reproduces the payload byte for byte.
        assert_eq!(payload, encode_result(&fp, &back).unwrap());
        // A different fingerprint is a collision, not a wrong answer.
        assert!(decode_result(&payload, "other").unwrap().is_none());
    }

    #[test]
    fn golden_digests_are_pinned_to_the_model_epoch() {
        let golden = fnv1a64(include_str!("../../../results/digests.txt").as_bytes());
        assert_eq!(
            golden, GOLDEN_DIGESTS_FNV1A,
            "results/digests.txt changed (FNV-1a {golden:#018x}) but MODEL_EPOCH is still \
             {MODEL_EPOCH}: bump MODEL_EPOCH so stored results from the old model are \
             never served, then re-pin GOLDEN_DIGESTS_FNV1A to {golden:#018x}"
        );
    }

    #[test]
    fn records_from_another_epoch_are_plain_misses() {
        let cfg = RunConfig::quick("astar").instructions(30_000);
        let result = System::build(&cfg).unwrap().run().unwrap();
        let fp = fingerprint(&cfg);
        let store = Store::open(tmp_dir("epoch")).unwrap();
        let stale = record_key(MODEL_EPOCH + 1, &fp);
        let payload = encode_result(&stale, &result).unwrap();
        // The other epoch's record under its own name, and the same
        // record planted under this epoch's name: both are misses.
        store.commit(&format!("r-{}.rec", digest(&stale)), "result", &payload);
        assert!(store.get(&fp).is_none());
        let current = format!("r-{}.rec", digest(&record_key(MODEL_EPOCH, &fp)));
        store.commit(&current, "result", &payload);
        assert!(store.get(&fp).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (0, 2, 0));
        // This epoch's put replaces the planted record and is served.
        store.put_result(&fp, &result);
        assert!(matches!(store.get(&fp), Some(StoredOutcome::Result(_))));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn traced_results_are_not_persisted() {
        let cfg = RunConfig::quick("astar").instructions(30_000).with_trace();
        let result = System::build(&cfg).unwrap().run().unwrap();
        assert!(encode_result(&fingerprint(&cfg), &result).is_none());
        let store = Store::open(tmp_dir("traced")).unwrap();
        store.put_result(&fingerprint(&cfg), &result);
        assert_eq!(store.stats().traced_skipped, 1);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn store_get_put_and_corruption_tolerance() {
        let cfg = RunConfig::quick("gups").instructions(30_000);
        let result = System::build(&cfg).unwrap().run().unwrap();
        let fp = fingerprint(&cfg);
        let store = Store::open(tmp_dir("corrupt")).unwrap();
        assert!(store.get(&fp).is_none());
        store.put_result(&fp, &result);
        assert_eq!(store.len(), 1);
        let Some(StoredOutcome::Result(back)) = store.get(&fp) else {
            panic!("expected a stored result");
        };
        assert_eq!(result.totals.cycles, back.totals.cycles);
        assert_eq!((1, 0), store.verify());

        // Truncate the record: the store must skip it, not panic.
        let rec = store
            .dir()
            .join(format!("r-{}.rec", digest(&record_key(MODEL_EPOCH, &fp))));
        let bytes = fs::read(&rec).unwrap();
        fs::write(&rec, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.get(&fp).is_none());
        assert!(store.stats().corrupt >= 1);
        assert_eq!((0, 1), store.verify());

        // Garble the payload under an intact header: checksum catches it.
        let mut garbled = bytes.clone();
        let n = garbled.len();
        garbled[n - 20] ^= 0xff;
        fs::write(&rec, &garbled).unwrap();
        assert!(store.get(&fp).is_none());

        // Rewriting (the resumed sweep's fresh simulation) repairs it.
        store.put_result(&fp, &result);
        assert!(matches!(store.get(&fp), Some(StoredOutcome::Result(_))));
        assert_eq!((1, 0), store.verify());
        assert!(store
            .dir()
            .join("journal.log")
            .exists());
        let _ = fs::remove_dir_all(store.dir());
    }
}
