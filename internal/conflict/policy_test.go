package conflict

import (
	"testing"
)

func TestByName(t *testing.T) {
	for _, name := range append([]string{""}, PolicyNames...) {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p == nil {
			t.Fatalf("ByName(%q) returned nil policy", name)
		}
	}
	if _, err := ByName("lottery"); err == nil {
		t.Fatalf("ByName(lottery) should fail")
	}
	// Fresh instances each call: policies carry per-runtime stats.
	a, _ := ByName("timestamp")
	b, _ := ByName("timestamp")
	if a == b {
		t.Fatalf("ByName must construct fresh policies")
	}
}

func TestAsPolicy(t *testing.T) {
	b := &Backoff{}
	if AsPolicy(b) != Policy(b) {
		t.Fatalf("AsPolicy should return a Policy unchanged")
	}
	p := AsPolicy(&Panic{})
	defer func() {
		if recover() == nil {
			t.Fatalf("wrapped Panic handler should still panic")
		}
	}()
	p.Resolve(Info{Kind: TxnWrite})
}

func TestBackoffResolveAlwaysWaits(t *testing.T) {
	b := &Backoff{}
	for attempt := 0; attempt < 8; attempt++ {
		info := Info{Kind: TxnWrite, Attempt: attempt, Self: 9, Owner: 3, OwnerActive: true}
		if d := b.Resolve(info); d != Wait {
			t.Fatalf("Backoff.Resolve attempt %d = %v, want Wait", attempt, d)
		}
	}
}

func TestTimestampResolve(t *testing.T) {
	ts := &Timestamp{}
	cases := []struct {
		name string
		info Info
		want Decision
	}{
		{"older contender dooms owner", Info{Self: 3, Owner: 9, OwnerActive: true}, AbortOther},
		{"younger contender yields", Info{Self: 9, Owner: 3, OwnerActive: true}, SelfAbort},
		{"anonymous owner waits", Info{Self: 3, Owner: 0}, Wait},
		{"finished owner waits", Info{Self: 3, Owner: 9, OwnerActive: false}, Wait},
		{"non-transactional contender waits", Info{Self: 0, Owner: 9, OwnerActive: true}, Wait},
	}
	for _, c := range cases {
		if d := ts.Resolve(c.info); d != c.want {
			t.Errorf("%s: got %v, want %v", c.name, d, c.want)
		}
	}
	if ts.Stats.Total() != int64(len(cases)) {
		t.Errorf("stats recorded %d conflicts, want %d", ts.Stats.Total(), len(cases))
	}
}

func TestKarmaResolve(t *testing.T) {
	k := &Karma{}
	cases := []struct {
		name string
		info Info
		want Decision
	}{
		{"outranked contender waits",
			Info{Self: 3, Owner: 9, OwnerActive: true, SelfPrio: 1, OwnerPrio: 10, Attempt: 2}, Wait},
		{"rank grows with attempts until doom",
			Info{Self: 3, Owner: 9, OwnerActive: true, SelfPrio: 1, OwnerPrio: 10, Attempt: 10}, AbortOther},
		{"equal rank ties break by age (older wins)",
			Info{Self: 3, Owner: 9, OwnerActive: true, SelfPrio: 5, OwnerPrio: 5, Attempt: 0}, AbortOther},
		{"equal rank younger waits",
			Info{Self: 9, Owner: 3, OwnerActive: true, SelfPrio: 5, OwnerPrio: 5, Attempt: 0}, Wait},
		{"no live owner waits",
			Info{Self: 3, Owner: 9, OwnerActive: false, SelfPrio: 100, OwnerPrio: 0}, Wait},
	}
	for _, c := range cases {
		if d := k.Resolve(c.info); d != c.want {
			t.Errorf("%s: got %v, want %v", c.name, d, c.want)
		}
	}
}
