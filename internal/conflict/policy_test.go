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
		{"irrevocable owner outranks age", Info{Self: 3, Owner: 9, OwnerActive: true, OwnerIrrevocable: true}, Wait},
	}
	for _, c := range cases {
		if d := ts.Resolve(c.info); d != c.want {
			t.Errorf("%s: got %v, want %v", c.name, d, c.want)
		}
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
		{"irrevocable owner outranks karma",
			Info{Self: 3, Owner: 9, OwnerActive: true, OwnerIrrevocable: true, SelfPrio: 100, OwnerPrio: 0}, Wait},
	}
	for _, c := range cases {
		if d := k.Resolve(c.info); d != c.want {
			t.Errorf("%s: got %v, want %v", c.name, d, c.want)
		}
	}
}
