//! Per-tenant fuel metering and admission control.
//!
//! Fuel is the service's unit of account (exactly the paper's machine
//! semantics clock): a tenant's *budget* bounds reserved-plus-spent
//! fuel over the server's lifetime, reservations are taken at admission
//! for the job's full requested fuel and settled down to the
//! instructions actually retired at completion. Admission also bounds
//! the tenant's in-flight job count, so one tenant cannot monopolise
//! the shared queue. Cache hits bypass metering entirely — a served
//! result retires no instructions.

use std::collections::HashMap;
use std::sync::Mutex;

/// Knobs bounding what one tenant may consume. One policy applies to
/// every tenant (tenants are created on first sight).
#[derive(Clone, Copy, Debug)]
pub struct TenantPolicy {
    /// Lifetime fuel budget: `reserved + spent` never exceeds this.
    pub fuel_budget: u64,
    /// Maximum jobs a tenant may have queued or running.
    pub max_in_flight: usize,
    /// Largest fuel a single job may request.
    pub max_job_fuel: u64,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            fuel_budget: 1 << 40,
            max_in_flight: 64,
            max_job_fuel: 4_000_000_000,
        }
    }
}

/// Why admission refused a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The job's fuel exceeds the per-job cap.
    JobFuel {
        /// Fuel the job asked for.
        asked: u64,
        /// The per-job cap.
        cap: u64,
    },
    /// The tenant's remaining budget cannot cover the job.
    FuelBudget {
        /// Fuel the job asked for.
        asked: u64,
        /// Budget still unreserved.
        remaining: u64,
    },
    /// The tenant already has too many jobs in flight.
    QueueDepth {
        /// The in-flight cap.
        cap: usize,
    },
}

#[derive(Default)]
struct TenantState {
    reserved: u64,
    spent: u64,
    in_flight: usize,
    completed: u64,
}

/// The metering table: tenant name → accounting state.
pub struct TenantTable {
    policy: TenantPolicy,
    inner: Mutex<HashMap<String, TenantState>>,
}

impl TenantTable {
    /// A table applying `policy` to every tenant.
    #[must_use]
    pub fn new(policy: TenantPolicy) -> TenantTable {
        TenantTable { policy, inner: Mutex::new(HashMap::new()) }
    }

    /// Tries to admit a job of `fuel` for `tenant`, reserving the fuel
    /// and an in-flight slot on success. Every success must be paired
    /// with exactly one [`settle`](TenantTable::settle).
    ///
    /// # Errors
    ///
    /// The first violated bound, per [`AdmitError`].
    pub fn admit(&self, tenant: &str, fuel: u64) -> Result<(), AdmitError> {
        if fuel > self.policy.max_job_fuel {
            return Err(AdmitError::JobFuel { asked: fuel, cap: self.policy.max_job_fuel });
        }
        let mut inner = self.inner.lock().expect("tenant lock");
        let st = inner.entry(tenant.to_string()).or_default();
        let committed = st.reserved.saturating_add(st.spent);
        let remaining = self.policy.fuel_budget.saturating_sub(committed);
        if fuel > remaining {
            return Err(AdmitError::FuelBudget { asked: fuel, remaining });
        }
        if st.in_flight >= self.policy.max_in_flight {
            return Err(AdmitError::QueueDepth { cap: self.policy.max_in_flight });
        }
        st.reserved += fuel;
        st.in_flight += 1;
        Ok(())
    }

    /// Settles a completed (or abandoned) job: releases the
    /// reservation, charges the fuel actually spent, frees the
    /// in-flight slot.
    pub fn settle(&self, tenant: &str, reserved: u64, spent: u64) {
        let mut inner = self.inner.lock().expect("tenant lock");
        let st = inner.entry(tenant.to_string()).or_default();
        st.reserved = st.reserved.saturating_sub(reserved);
        st.spent = st.spent.saturating_add(spent);
        st.in_flight = st.in_flight.saturating_sub(1);
        st.completed += 1;
    }

    /// Per-tenant `(name, fuel_spent, jobs_completed, in_flight)`,
    /// sorted by name for deterministic reporting.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64, u64, usize)> {
        let inner = self.inner.lock().expect("tenant lock");
        let mut rows: Vec<_> = inner
            .iter()
            .map(|(name, st)| (name.clone(), st.spent, st.completed, st.in_flight))
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(budget: u64, depth: usize, job_cap: u64) -> TenantTable {
        TenantTable::new(TenantPolicy {
            fuel_budget: budget,
            max_in_flight: depth,
            max_job_fuel: job_cap,
        })
    }

    #[test]
    fn budget_reserves_then_settles_to_actual_spend() {
        let t = table(1000, 8, 1000);
        t.admit("a", 600).expect("first job fits");
        assert_eq!(
            t.admit("a", 600),
            Err(AdmitError::FuelBudget { asked: 600, remaining: 400 }),
            "reservation counts against the budget"
        );
        t.settle("a", 600, 50);
        t.admit("a", 600).expect("after settling to 50 spent, 950 remains");
        let rows = t.snapshot();
        assert_eq!(rows, vec![("a".to_string(), 50, 1, 1)]);
    }

    #[test]
    fn queue_depth_and_job_cap_are_enforced_per_tenant() {
        let t = table(1 << 30, 2, 100);
        assert_eq!(t.admit("a", 101), Err(AdmitError::JobFuel { asked: 101, cap: 100 }));
        t.admit("a", 10).unwrap();
        t.admit("a", 10).unwrap();
        assert_eq!(t.admit("a", 10), Err(AdmitError::QueueDepth { cap: 2 }));
        t.admit("b", 10).expect("depth is per tenant");
    }
}
