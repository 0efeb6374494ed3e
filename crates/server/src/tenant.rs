//! Per-tenant admission quotas.
//!
//! The engine pool bounds *global* concurrency; this table bounds how much
//! of that capacity any one tenant may hold at once, so a single noisy
//! client cannot starve everyone else out of the pool.  A request that
//! carries a `tenant` header is admitted only while the tenant's in-flight
//! count is below the quota; anonymous requests bypass the table entirely
//! (single-user deployments never pay for it).
//!
//! Admission is scoped by an RAII guard: the count is held exactly while
//! the handler runs and drops with the guard on every exit path, including
//! panics unwinding out of an engine run.  A parked cursor does *not*
//! count against its tenant — parked means "not executing", which is the
//! same reason it does not hold a pool slot.

use pwam_obs::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The per-tenant in-flight table.
pub(crate) struct TenantTable {
    /// Per-tenant concurrent-request quota; `0` disables the quota (every
    /// tenant is admitted, counts are still kept for the gauges).
    max_active: usize,
    active: Mutex<HashMap<String, u64>>,
    /// Tenant-carrying requests admitted.
    pub(crate) admitted: Arc<Counter>,
    /// Tenant-carrying requests turned away at quota.
    pub(crate) rejected: Arc<Counter>,
}

impl TenantTable {
    /// A table admitting at most `max_active` concurrent requests per
    /// tenant (`0` = unlimited).
    pub(crate) fn new(max_active: usize) -> Self {
        TenantTable {
            max_active,
            active: Mutex::new(HashMap::new()),
            admitted: Arc::default(),
            rejected: Arc::default(),
        }
    }

    /// Admit a request.  `Ok` returns the guard holding the tenant's slot;
    /// `Err` carries the tenant's current in-flight count for the error
    /// message.  Anonymous requests always get a (no-op) guard.
    pub(crate) fn admit(&self, tenant: Option<&str>) -> Result<TenantGuard<'_>, u64> {
        let Some(name) = tenant else {
            return Ok(TenantGuard { table: self, tenant: None });
        };
        let mut active = self.active.lock().unwrap();
        let count = active.entry(name.to_string()).or_insert(0);
        if self.max_active != 0 && *count as usize >= self.max_active {
            let now = *count;
            if now == 0 {
                active.remove(name);
            }
            self.rejected.inc();
            return Err(now);
        }
        *count += 1;
        self.admitted.inc();
        Ok(TenantGuard { table: self, tenant: Some(name.to_string()) })
    }

    /// Every tenant with in-flight work right now, with its count.
    pub(crate) fn active_snapshot(&self) -> Vec<(String, u64)> {
        let active = self.active.lock().unwrap();
        let mut out: Vec<(String, u64)> = active.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort();
        out
    }

    fn release(&self, name: &str) {
        let mut active = self.active.lock().unwrap();
        if let Some(count) = active.get_mut(name) {
            *count -= 1;
            // Idle tenants leave the table (and the exposition) entirely.
            if *count == 0 {
                active.remove(name);
            }
        }
    }
}

/// An admitted request's hold on its tenant's quota.  Dropping it releases
/// the slot; the anonymous variant holds nothing.
pub(crate) struct TenantGuard<'a> {
    table: &'a TenantTable,
    tenant: Option<String>,
}

impl Drop for TenantGuard<'_> {
    fn drop(&mut self) {
        if let Some(name) = self.tenant.take() {
            self.table.release(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-flight tenant-carrying requests, summed over tenants.
    fn active(table: &TenantTable) -> u64 {
        table.active_snapshot().iter().map(|(_, n)| n).sum()
    }

    #[test]
    fn quota_admits_up_to_the_cap_and_releases_on_drop() {
        let table = TenantTable::new(2);
        let a1 = table.admit(Some("a")).unwrap();
        let _a2 = table.admit(Some("a")).unwrap();
        assert_eq!(table.admit(Some("a")).err(), Some(2), "third concurrent request is over quota");
        // Another tenant is unaffected by a's saturation.
        let _b1 = table.admit(Some("b")).unwrap();
        drop(a1);
        let a3 = table.admit(Some("a"));
        assert!(a3.is_ok(), "released slot is reusable");
        assert_eq!(table.admitted.get(), 4);
        assert_eq!(table.rejected.get(), 1);
        assert_eq!(active(&table), 3);
    }

    #[test]
    fn anonymous_requests_bypass_the_quota() {
        let table = TenantTable::new(1);
        let guards: Vec<_> = (0..8).map(|_| table.admit(None).unwrap()).collect();
        assert_eq!(active(&table), 0, "anonymous requests hold nothing");
        assert_eq!(table.admitted.get(), 0);
        drop(guards);
    }

    #[test]
    fn zero_quota_means_unlimited() {
        let table = TenantTable::new(0);
        let guards: Vec<_> = (0..16).map(|_| table.admit(Some("a")).unwrap()).collect();
        assert_eq!(active(&table), 16);
        drop(guards);
        assert_eq!(active(&table), 0);
    }

    #[test]
    fn idle_tenants_leave_the_snapshot() {
        let table = TenantTable::new(4);
        let a = table.admit(Some("a")).unwrap();
        let _b = table.admit(Some("b")).unwrap();
        assert_eq!(table.active_snapshot(), vec![("a".to_string(), 1), ("b".to_string(), 1)]);
        drop(a);
        assert_eq!(table.active_snapshot(), vec![("b".to_string(), 1)]);
    }

    #[test]
    fn rejected_admission_does_not_leak_a_zero_entry() {
        let table = TenantTable::new(0);
        let _ = table.admit(Some("ghost"));
        // max_active 0 admits; use a real cap to exercise the reject path.
        let table = TenantTable::new(1);
        let _held = table.admit(Some("a")).unwrap();
        assert!(table.admit(Some("a")).is_err());
        drop(_held);
        assert!(table.active_snapshot().is_empty(), "no stale entries after release");
    }
}
