package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"melody"
	"melody/internal/verify"
)

// seasonDigest folds every run's outcome digest into one short hash.
func seasonDigest(digests map[string]string) string {
	ids := make([]string, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s:%s\n", id, digests[id])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDigests compares the live runs' outcomes with the serial reference.
func checkDigests(live, ref map[string]string) error {
	if len(live) != len(ref) {
		return fmt.Errorf("live rep finished %d runs, reference %d", len(live), len(ref))
	}
	for id, want := range ref {
		if got := live[id]; got != want {
			return fmt.Errorf("run %s outcome differs from the serial reference:\n live %s\n  ref %s", id, got, want)
		}
	}
	return nil
}

// checkRecovered holds a scheduler restarted from the WAL to the live one:
// completed runs, every ledger balance and a sample of quality estimates
// must be identical.
func checkRecovered(in inputs, live, rec *melody.RunScheduler) error {
	if l, r := live.CompletedRuns(), rec.CompletedRuns(); l != r {
		return fmt.Errorf("recovered %d completed runs, live %d", r, l)
	}
	la, ra := live.Ledger().Accounts(), rec.Ledger().Accounts()
	if len(la) != len(ra) {
		return fmt.Errorf("recovered ledger has %d accounts, live %d", len(ra), len(la))
	}
	for i := range la {
		if la[i] != ra[i] {
			return fmt.Errorf("recovered ledger account %s = %.17g, live %s = %.17g",
				ra[i].Account, ra[i].Balance, la[i].Account, la[i].Balance)
		}
	}
	for _, ti := range in.tenants {
		for i := 0; i < len(ti.workers); i += 1 + len(ti.workers)/16 {
			w := ti.workers[i]
			lq, lerr := live.Quality(ti.name, w)
			rq, rerr := rec.Quality(ti.name, w)
			if lerr != nil || rerr != nil {
				return fmt.Errorf("quality %s/%s: live %v, recovered %v", ti.name, w, lerr, rerr)
			}
			if lq != rq {
				return fmt.Errorf("recovered quality %s/%s = %.17g, live %.17g", ti.name, w, rq, lq)
			}
		}
	}
	return nil
}

// checkBooks flushes the epoch pool and checks money conservation, full
// settlement and every tenant's budget quota.
func checkBooks(sched *melody.RunScheduler) error {
	if err := sched.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	money := sched.Ledger()
	if err := verify.CheckMoneyConservation(money); err != nil {
		return err
	}
	if err := verify.CheckSettlementDrained(money); err != nil {
		return err
	}
	var usages []verify.TenantUsage
	for _, st := range sched.TenantStatuses() {
		u := verify.TenantUsage{Tenant: st.Tenant, Spent: st.Spent, Escrowed: st.Escrowed, RunsOpened: st.RunsOpened}
		if st.HasPolicy {
			if q := st.Policy.BudgetQuota; q >= 0 {
				u.HasQuota, u.Quota = true, q
			}
			u.MaxRuns = st.Policy.MaxRuns
		}
		usages = append(usages, u)
	}
	return verify.CheckTenantQuotas(usages)
}
