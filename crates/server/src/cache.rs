//! The compiled-program cache.
//!
//! Each distinct program source gets one long-lived [`rapwam::Session`]
//! (symbol table + parsed program + compiled-query cache) behind a
//! read/write lock.  Compiling a new query takes the write lock briefly;
//! running a prepared query takes the read lock, so any number of requests
//! for the same program execute concurrently once their queries are
//! compiled — the engines are per-request, only the immutable compilation
//! output and the symbol table are shared.

use pwam_compiler::CompiledProgram;
use pwam_obs::Counter;
use rapwam::session::{Session, SessionError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// One cached program.
pub struct CacheEntry {
    /// The session holding the parsed program, symbol table and compiled
    /// queries.  Write-lock to compile, read-lock to run.
    pub(crate) session: RwLock<Session>,
    /// Compiled-query fast path: a hit here needs neither session lock, so
    /// requests for already-compiled queries never wait behind in-flight
    /// engine runs (which hold the session's read lock for their whole
    /// duration, making a write-lock `prepare` call block on them).
    queries: Mutex<HashMap<(String, bool), Arc<CompiledProgram>>>,
}

/// Upper bound on compiled queries cached per program entry: the server is
/// long-running, so an unbounded map keyed by client-supplied query text
/// would be a slow memory leak.  Overflow drops the whole map (rare, and
/// recompiling is cheap next to running).
const QUERIES_PER_ENTRY: usize = 256;

impl CacheEntry {
    /// Compile `query` (or return the cached compilation) without blocking
    /// behind concurrent engine runs on a hit.
    pub fn prepared(&self, query: &str, parallel: bool) -> Result<Arc<CompiledProgram>, SessionError> {
        if let Some(c) = self.queries.lock().unwrap().get(&(query.to_string(), parallel)) {
            return Ok(Arc::clone(c));
        }
        // Miss: the brief write lock waits for in-flight runs of this
        // program to drain — once per distinct query, not per request.
        let compiled = self.session.write().unwrap().prepare(query, parallel)?;
        let mut queries = self.queries.lock().unwrap();
        if queries.len() >= QUERIES_PER_ENTRY {
            queries.clear();
        }
        queries.insert((query.to_string(), parallel), Arc::clone(&compiled));
        Ok(compiled)
    }
}

/// The cache: program source text → `CacheEntry`.
pub struct ProgramCache {
    entries: Mutex<Inner>,
    /// Lookups that found the program already parsed.
    pub(crate) program_hits: Arc<Counter>,
    /// Lookups that had to parse (and admit) a new program.
    pub(crate) program_misses: Arc<Counter>,
    /// Entries evicted to stay within the capacity bound.
    pub(crate) evictions: Arc<Counter>,
    capacity: usize,
}

struct Inner {
    map: HashMap<String, Arc<CacheEntry>>,
    /// Insertion order, for FIFO eviction.
    order: Vec<String>,
}

impl ProgramCache {
    /// A cache holding at most `capacity` programs (FIFO eviction).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache needs at least one slot");
        ProgramCache {
            entries: Mutex::new(Inner { map: HashMap::new(), order: Vec::new() }),
            program_hits: Arc::default(),
            program_misses: Arc::default(),
            evictions: Arc::default(),
            capacity,
        }
    }

    /// Look a program up, parsing and admitting it on first sight.
    ///
    /// Parsing happens outside the cache lock, so a big program being
    /// admitted does not stall lookups of already-cached ones; if two
    /// requests race to admit the same program, the first insert wins and
    /// the loser's parse is discarded.
    pub fn entry(&self, program_src: &str) -> Result<Arc<CacheEntry>, SessionError> {
        if let Some(entry) = self.entries.lock().unwrap().map.get(program_src) {
            self.program_hits.inc();
            return Ok(Arc::clone(entry));
        }
        let session = Session::new(program_src)?;
        let entry =
            Arc::new(CacheEntry { session: RwLock::new(session), queries: Mutex::new(HashMap::new()) });
        let mut inner = self.entries.lock().unwrap();
        if let Some(existing) = inner.map.get(program_src) {
            // Lost the admission race; use the winner.
            self.program_hits.inc();
            return Ok(Arc::clone(existing));
        }
        self.program_misses.inc();
        if inner.map.len() >= self.capacity {
            let victim = inner.order.remove(0);
            inner.map.remove(&victim);
            self.evictions.inc();
        }
        inner.map.insert(program_src.to_string(), Arc::clone(&entry));
        inner.order.push(program_src.to_string());
        Ok(entry)
    }

    /// Programs currently cached.
    pub(crate) fn programs(&self) -> usize {
        self.entries.lock().unwrap().map.len()
    }

    /// Compiled queries currently cached across all programs.
    ///
    /// The per-entry counts are read from the entries' own maps after the
    /// cache lock is released: touching a session lock while holding the
    /// entries mutex would let one long-running engine (whose read lock
    /// blocks a queued compile writer, which in turn blocks new readers)
    /// stall every cache lookup behind a scrape.
    pub(crate) fn compiled_queries(&self) -> usize {
        let entries: Vec<Arc<CacheEntry>> = self.entries.lock().unwrap().map.values().cloned().collect();
        entries.iter().map(|e| e.queries.lock().unwrap().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_lookups_hit() {
        let cache = ProgramCache::new(4);
        let a1 = cache.entry("p(1).").unwrap();
        let a2 = cache.entry("p(1).").unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.program_hits.get(), 1);
        assert_eq!(cache.program_misses.get(), 1);
        assert_eq!(cache.programs(), 1);
    }

    #[test]
    fn parse_errors_surface_and_are_not_cached() {
        let cache = ProgramCache::new(4);
        assert!(cache.entry("p(1").is_err());
        assert_eq!(cache.programs(), 0);
    }

    #[test]
    fn capacity_is_enforced_fifo() {
        let cache = ProgramCache::new(2);
        cache.entry("a(1).").unwrap();
        cache.entry("b(2).").unwrap();
        cache.entry("c(3).").unwrap();
        assert_eq!(cache.programs(), 2);
        assert_eq!(cache.evictions.get(), 1);
        // The oldest entry was evicted; re-admitting it is a miss.
        cache.entry("a(1).").unwrap();
        assert_eq!(cache.program_misses.get(), 4);
    }

    #[test]
    fn prepared_queries_are_counted() {
        let cache = ProgramCache::new(2);
        let entry = cache.entry("p(1).\np(2).").unwrap();
        entry.prepared("p(X)", true).unwrap();
        entry.prepared("p(X)", false).unwrap();
        entry.prepared("p(X)", false).unwrap();
        assert_eq!(cache.compiled_queries(), 2);
    }

    #[test]
    fn per_entry_query_cache_is_bounded() {
        let cache = ProgramCache::new(2);
        let entry = cache.entry("p(1).\np(2).").unwrap();
        for i in 0..(QUERIES_PER_ENTRY + 10) {
            entry.prepared(&format!("p({i})"), true).unwrap();
        }
        assert!(cache.compiled_queries() <= QUERIES_PER_ENTRY);
    }

    #[test]
    fn prepared_hits_do_not_touch_the_session_locks() {
        let cache = ProgramCache::new(2);
        let entry = cache.entry("p(1).\np(2).").unwrap();
        let first = entry.prepared("p(X)", true).unwrap();
        // Hold the session's write lock: a cached query must still resolve
        // (the fast path goes through the entry's own map).
        let _guard = entry.session.write().unwrap();
        let second = entry.prepared("p(X)", true).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }
}
