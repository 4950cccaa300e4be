package conflict

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		NonTxnRead:  "non-txn-read",
		NonTxnWrite: "non-txn-write",
		TxnRead:     "txn-read",
		TxnWrite:    "txn-write",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if !strings.HasPrefix(Kind(9).String(), "Kind(") {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

// TestBackoffWaitsAndReturns: the default handler returns at every kind and
// every stage of WaitAttempt, so the caller retries the access.
func TestBackoffWaitsAndReturns(t *testing.T) {
	b := &Backoff{}
	for _, k := range []Kind{NonTxnRead, NonTxnWrite, TxnRead, TxnWrite} {
		for _, attempt := range []int{0, 3, 4, 10} {
			b.HandleConflict(Info{Kind: k, Attempt: attempt})
		}
	}
}

func TestBackoffEscalates(t *testing.T) {
	// High attempt numbers must sleep (bounded); just verify it returns
	// promptly and takes at least a microsecond-ish pause.
	b := &Backoff{}
	start := time.Now()
	b.HandleConflict(Info{Kind: TxnRead, Attempt: 20})
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("backoff slept too long: %v", d)
	}
}

func TestPanicHandler(t *testing.T) {
	p := &Panic{}
	defer func() {
		r := recover()
		re, ok := r.(RaceError)
		if !ok {
			t.Fatalf("recovered %T, want RaceError", r)
		}
		if re.Info.Kind != NonTxnWrite || !strings.Contains(re.Error(), "non-txn-write") {
			t.Errorf("race error = %v", re)
		}
	}()
	p.HandleConflict(Info{Kind: NonTxnWrite, Record: 0x2a})
}

// BenchmarkWaitAttempt times one wait at an attempt number from each stage:
// spin, yield, and the sleeps, where what the timer actually delivers is the
// floor of every wait (a sub-millisecond time.Sleep may take a millisecond).
func BenchmarkWaitAttempt(b *testing.B) {
	for _, attempt := range []int{0, 3, 4, 10, 14, 17, 22} {
		b.Run(fmt.Sprintf("attempt=%d", attempt), func(b *testing.B) {
			for range b.N {
				WaitAttempt(attempt)
			}
		})
	}
}

func TestWaitAttemptAllPhases(t *testing.T) {
	// Spin, yield, and sleep phases must all return.
	for _, attempt := range []int{0, 2, 5, 9, 10, 15, 30} {
		WaitAttempt(attempt)
	}
}
