package bench

import "testing"

// TestRunStampSmoke runs each workload briefly on both runtimes and checks
// the commit accounting and validation profile.
func TestRunStampSmoke(t *testing.T) {
	for _, spec := range StampSpecs(2, 500) {
		if spec.Goroutines != 2 {
			continue
		}
		res, err := RunStamp(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits != int64(spec.Txns) {
			t.Errorf("%s/%s: commits = %d, want %d", spec.Workload, spec.Versioning, res.Commits, spec.Txns)
		}
		// mvstm has no commit-time validation (snapshot isolation); its
		// activity signal is the snapshot read path instead.
		if spec.Versioning == "mvstm" {
			if res.SnapshotReads == 0 {
				t.Errorf("%s/%s: snapshot reads = 0", spec.Workload, spec.Versioning)
			}
		} else if res.FastpathValidations == 0 {
			t.Errorf("%s/%s: fastpath validations = 0 in clock mode", spec.Workload, spec.Versioning)
		}
		if res.TxnsPerSec <= 0 {
			t.Errorf("%s/%s: txns/sec = %v", spec.Workload, spec.Versioning, res.TxnsPerSec)
		}
	}
}

func TestRunStampUnknown(t *testing.T) {
	if _, err := RunStamp(StampSpec{Workload: "nope"}); err == nil {
		t.Error("unknown workload did not error")
	}
}
