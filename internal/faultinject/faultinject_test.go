package faultinject

import (
	"testing"
	"time"
)

func TestEveryFiresPeriodically(t *testing.T) {
	in := New(1, Rule{Point: PreAcquire, Action: Abort, Every: 3})
	var got []Action
	for i := 0; i < 9; i++ {
		got = append(got, in.Fire(PreAcquire, 7))
	}
	for i, a := range got {
		want := None
		if i%3 == 0 {
			want = Abort
		}
		if a != want {
			t.Errorf("arrival %d: got %v, want %v", i, a, want)
		}
	}
	if in.Arrivals(PreAcquire) != 9 {
		t.Errorf("arrivals = %d, want 9", in.Arrivals(PreAcquire))
	}
	if in.Fired(PreAcquire, Abort) != 3 {
		t.Errorf("fired = %d, want 3", in.Fired(PreAcquire, Abort))
	}
}

func TestRateIsDeterministicPerSeed(t *testing.T) {
	pattern := func(seed uint64) []Action {
		in := New(seed, Rule{Point: PreValidate, Action: Abort, Rate: 512})
		out := make([]Action, 256)
		for i := range out {
			out[i] = in.Fire(PreValidate, 1)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical 256-arrival patterns")
	}
	// Rate=512 of 1024 should land near half; allow a broad band.
	fired := 0
	for _, x := range a {
		if x == Abort {
			fired++
		}
	}
	if fired < 64 || fired > 192 {
		t.Errorf("rate 512/1024 fired %d/256 arrivals, expected roughly half", fired)
	}
}

func TestUnarmedPointIsNone(t *testing.T) {
	in := New(0, Rule{Point: PreAcquire, Action: Orphan})
	if a := in.Fire(PostCommitPoint, 1); a != None {
		t.Fatalf("unarmed point fired %v", a)
	}
	if in.TotalFired() != 0 {
		t.Fatalf("TotalFired = %d, want 0", in.TotalFired())
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	in := New(0,
		Rule{Point: PreRelease, Action: Abort, Every: 2},
		Rule{Point: PreRelease, Action: Orphan}) // always fires when reached
	if a := in.Fire(PreRelease, 1); a != Abort {
		t.Fatalf("arrival 0: got %v, want Abort (first rule)", a)
	}
	if a := in.Fire(PreRelease, 1); a != Orphan {
		t.Fatalf("arrival 1: got %v, want Orphan (second rule)", a)
	}
}

func TestDelayPerformsSleep(t *testing.T) {
	in := New(0, Rule{Point: PostAcquire, Action: Delay, Sleep: 2 * time.Millisecond})
	start := time.Now()
	if a := in.Fire(PostAcquire, 1); a != Delay {
		t.Fatalf("got %v, want Delay", a)
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("Delay slept %v, want >= 2ms", d)
	}
}

func TestOrphanFiresAndCounts(t *testing.T) {
	in := New(0, Rule{Point: PostCommitPoint, Action: Orphan, Every: 2})
	if a := in.Fire(PostCommitPoint, 1); a != Orphan {
		t.Fatalf("arrival 0: got %v, want Orphan", a)
	}
	if a := in.Fire(PostCommitPoint, 1); a != None {
		t.Fatalf("arrival 1: got %v, want None", a)
	}
	if in.Fired(PostCommitPoint, Orphan) != 1 {
		t.Fatalf("fired = %d, want 1", in.Fired(PostCommitPoint, Orphan))
	}
	if in.TotalFired() != 1 {
		t.Fatalf("TotalFired = %d, want 1", in.TotalFired())
	}
	if Orphan.String() != "orphan" {
		t.Fatalf("Orphan.String() = %q", Orphan.String())
	}
	e := OrphanError{Point: PostCommitPoint, Txn: 9}
	if e.Error() == "" || e.Point != PostCommitPoint {
		t.Fatalf("bad OrphanError: %v", e)
	}
}

func TestInvalidPointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New with invalid point should panic")
		}
	}()
	New(0, Rule{Point: NumPoints, Action: Abort})
}
