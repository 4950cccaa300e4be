package stmapi

import (
	"strings"
	"testing"
)

func TestNormalizeDefaults(t *testing.T) {
	var c CommonConfig
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Granularity != 1 {
		t.Errorf("Granularity = %d, want 1", c.Granularity)
	}
	if c.SelfAbortAfter != DefaultSelfAbortAfter {
		t.Errorf("SelfAbortAfter = %d, want %d", c.SelfAbortAfter, DefaultSelfAbortAfter)
	}
	if c.EscalateAfter != 0 {
		t.Errorf("EscalateAfter = %d, want 0 (disabled)", c.EscalateAfter)
	}
}

func TestNormalizeEscalationEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		cfg     CommonConfig
		wantErr string // substring; "" means valid
	}{
		{"zero escalation stays disabled", CommonConfig{EscalateAfter: 0}, ""},
		{"positive escalation accepted", CommonConfig{EscalateAfter: 3}, ""},
		{"negative escalation rejected", CommonConfig{EscalateAfter: -1}, "negative EscalateAfter"},
		{"negative self-abort rejected", CommonConfig{SelfAbortAfter: -2}, "negative SelfAbortAfter"},
		{"granularity out of range", CommonConfig{Granularity: MaxGranularity + 1}, "unsupported granularity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Normalize()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestNormalizeIsIdempotent(t *testing.T) {
	c := CommonConfig{EscalateAfter: 4, SelfAbortAfter: 10}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	before := c
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c != before {
		t.Fatalf("second Normalize changed the config: %+v -> %+v", before, c)
	}
}

func TestStatsSnapshotFieldsCoverRecoveryCounters(t *testing.T) {
	s := StatsSnapshot{ReaperSteals: 1, Escalations: 2, IrrevocableTxns: 3, IrrevocableNs: 4}
	got := map[string]int64{}
	for _, f := range s.Fields() {
		got[f.Name] = f.Value
	}
	for name, want := range map[string]int64{
		"reaper_steals": 1, "escalations": 2, "irrevocable_txns": 3, "irrevocable_ns": 4,
	} {
		if got[name] != want {
			t.Errorf("Fields()[%q] = %d, want %d", name, got[name], want)
		}
	}
}
