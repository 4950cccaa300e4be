package bench

// Crash-recovery robustness figure: opposed transfer workers run under
// pseudo-random thread-death injection (the faultinject Orphan action) at
// every commit-protocol point while a 1 ms ticker sweeps the runtime with
// ReapDead, reclaiming the orphans' records nobody is waiting on. The
// measurement reports the usual throughput counters plus the recovery
// profile — workers lost, records stolen back, escalations — and checks the
// two safety invariants every run must satisfy regardless of where threads
// died: the bank's total balance is conserved, and every ownership record
// ends the run back in the Shared state.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conflict"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

// CrashSpec configures one crash-recovery measurement.
type CrashSpec struct {
	Versioning    string `json:"versioning"`       // runtime name (stmapi.Runtimes)
	Policy        string `json:"policy,omitempty"` // contention policy (conflict.ByName); empty = backoff
	Workers       int    `json:"workers"`
	Accounts      int    `json:"accounts"`
	TxnsPerWorker int    `json:"txns_per_worker"`
	CrashRate     uint64 `json:"crash_rate"`           // per-point Orphan probability, 1/1024ths per arrival
	DelayRate     uint64 `json:"delay_rate,omitempty"` // per-point Delay probability, 1/1024ths; widens lock-hold windows
	EscalateAfter int    `json:"escalate_after,omitempty"`
	Seed          uint64 `json:"seed"` // fault-injection seed
}

func (s *CrashSpec) defaults() {
	if s.Versioning == "" {
		s.Versioning = "eager"
	}
	if s.Workers <= 0 {
		s.Workers = 8
	}
	if s.Accounts <= 0 {
		s.Accounts = 64
	}
	if s.TxnsPerWorker <= 0 {
		s.TxnsPerWorker = 2000
	}
	if s.CrashRate == 0 {
		s.CrashRate = 1 // ≈0.1% per point per arrival ≈ 1% per transaction
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// CrashResult is one crash-recovery measurement, flattened for JSON.
type CrashResult struct {
	CrashSpec
	ElapsedNs        int64 `json:"elapsed_ns"`
	Commits          int64 `json:"commits"`
	Aborts           int64 `json:"aborts"`
	Orphans          int64 `json:"orphans"`
	ReaperSteals     int64 `json:"reaper_steals"`
	Escalations      int64 `json:"escalations"`
	BalanceConserved bool  `json:"balance_conserved"`
	RecordsShared    bool  `json:"records_shared"`
}

const crashInitBalance = 1_000

// RunCrash executes one crash-recovery measurement. The returned error is
// non-nil when a safety invariant is violated (conservation or record
// state), so callers exit non-zero on a broken run; injection-induced
// worker deaths are expected and never an error. Options are the STAMP
// sweep's: WithTracer attaches a tracer (and through it any
// flight-recorder sink) to the runtime, which makes the crash figure the
// richest causal fixture in the suite: dooms, steals, and validation
// aborts all fire here.
func RunCrash(spec CrashSpec, opts ...Option) (CrashResult, error) {
	spec.defaults()
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "CAcct",
		Fields: []objmodel.Field{{Name: "bal"}},
	})
	accts := make([]*objmodel.Object, spec.Accounts)
	for i := range accts {
		accts[i] = h.New(cls)
		accts[i].StoreSlot(0, crashInitBalance)
	}

	rules := make([]faultinject.Rule, 0, 2*len(faultinject.Points))
	for _, p := range faultinject.Points {
		rules = append(rules, faultinject.Rule{Point: p, Action: faultinject.Orphan, Rate: spec.CrashRate})
	}
	if spec.DelayRate > 0 {
		// Delay while records are held: transfers are otherwise so short
		// that contenders almost never observe a live owner, and arbitration
		// policies never fire. The sleeps recreate the long-hold regime where
		// the policy (not just the reaper) decides who aborts whom.
		for _, p := range []faultinject.Point{faultinject.PostAcquire, faultinject.PreValidate} {
			rules = append(rules, faultinject.Rule{Point: p, Action: faultinject.Delay, Rate: spec.DelayRate})
		}
	}
	in := faultinject.New(spec.Seed, rules...)
	pol, err := conflict.ByName(spec.Policy)
	if err != nil {
		return CrashResult{}, fmt.Errorf("bench: %w", err)
	}
	common := stmapi.CommonConfig{Handler: pol, EscalateAfter: spec.EscalateAfter}

	api, err := stmapi.New(spec.Versioning, h, common)
	if err != nil {
		return CrashResult{}, fmt.Errorf("bench: %w", err)
	}
	api.SetInjector(in)
	attach(api, opts)

	// The background reaper: a driver's ticker over ReapDead.
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				api.ReapDead()
			}
		}
	}()

	var orphaned atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < spec.Workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := spec.Seed ^ uint64(w)<<32
			// One iteration per demanded transaction. A thread that dies to
			// the Orphan injection is replaced (recover + continue models the
			// respawn); its in-flight transaction is lost to the reaper, so
			// under sustained deaths commits ≈ demanded - orphans - aborts.
			for i := 0; i < spec.TxnsPerWorker; i++ {
				from := int(splitmix(&rng) % uint64(spec.Accounts))
				to := int(splitmix(&rng) % uint64(spec.Accounts))
				if to == from {
					to = (to + 1) % spec.Accounts
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(faultinject.OrphanError); !ok {
								panic(r)
							}
							orphaned.Add(1)
						}
					}()
					_ = api.Atomic(func(tx stmapi.Txn) error {
						tx.Write(accts[from], 0, tx.Read(accts[from], 0)-1)
						tx.Write(accts[to], 0, tx.Read(accts[to], 0)+1)
						return nil
					})
				}()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	close(stop)
	<-swept
	// Drain: sweep until two consecutive sweeps reap nothing, so deaths at
	// the tail of the run are reclaimed before the invariant check.
	for dry := 0; dry < 2; {
		if api.ReapDead() == 0 {
			dry++
		} else {
			dry = 0
		}
	}

	var total uint64
	shared := true
	for _, o := range accts {
		if !txrec.IsShared(o.Rec.Load()) {
			shared = false
		}
		total += o.LoadSlot(0)
	}
	s := api.Stats()
	res := CrashResult{
		CrashSpec:        spec,
		ElapsedNs:        elapsed.Nanoseconds(),
		Commits:          s.Commits,
		Aborts:           s.Aborts,
		Orphans:          orphaned.Load(),
		ReaperSteals:     s.ReaperSteals,
		Escalations:      s.Escalations,
		BalanceConserved: total == uint64(spec.Accounts)*crashInitBalance,
		RecordsShared:    shared,
	}
	if !res.BalanceConserved {
		return res, fmt.Errorf("bench: %s crash run violated conservation: total %d, want %d",
			spec.Versioning, total, uint64(spec.Accounts)*crashInitBalance)
	}
	if !res.RecordsShared {
		return res, fmt.Errorf("bench: %s crash run left records unshared after recovery", spec.Versioning)
	}
	return res, nil
}

// CrashSpecs builds the default crash figure: every registered runtime at
// the given seed, with and without escalation, plus a high-contention
// timestamp-policy run per runtime. The timestamp configs abort younger
// conflicting writers outright instead of waiting, so the figure exercises
// the policy-abort recovery path (and, with a tracer attached, yields
// aborted-by causal edges alongside the reaper's stolen-from edges).
func CrashSpecs(seed uint64) []CrashSpec {
	var specs []CrashSpec
	for _, v := range stmapi.Runtimes() {
		for _, esc := range []int{0, 8} {
			specs = append(specs, CrashSpec{Versioning: v, EscalateAfter: esc, Seed: seed})
		}
		specs = append(specs, CrashSpec{Versioning: v, Policy: "timestamp", Accounts: 8, DelayRate: 256, Seed: seed})
	}
	return specs
}

// RunCrashSweep runs each spec in order, failing on the first violated
// invariant. Options apply to every measurement.
func RunCrashSweep(specs []CrashSpec, opts ...Option) ([]CrashResult, error) {
	results := make([]CrashResult, 0, len(specs))
	for _, spec := range specs {
		res, err := RunCrash(spec, opts...)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// FormatCrash renders crash results as an aligned table.
func FormatCrash(results []CrashResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-4s %8s %10s %10s %8s %8s %6s %6s\n",
		"vers", "policy", "esc", "workers", "commits", "aborts", "orphans", "steals", "bal", "recs")
	okStr := map[bool]string{true: "ok", false: "FAIL"}
	for _, r := range results {
		pol := r.Policy
		if pol == "" {
			pol = "backoff"
		}
		fmt.Fprintf(&b, "%-6s %-10s %-4d %8d %10d %10d %8d %8d %6s %6s\n",
			r.Versioning, pol, r.EscalateAfter, r.Workers, r.Commits, r.Aborts,
			r.Orphans, r.ReaperSteals, okStr[r.BalanceConserved], okStr[r.RecordsShared])
	}
	return b.String()
}
