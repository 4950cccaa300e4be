package interproc_test

import (
	"testing"

	"repro/internal/elide"
	"repro/internal/vetstm"
	"repro/internal/vetstm/interproc"
	"repro/internal/vetstm/vetload"
)

func loadFixture(t *testing.T) []*vetstm.Package {
	t.Helper()
	root, err := vetload.ModuleDir(".")
	if err != nil {
		t.Fatalf("ModuleDir: %v", err)
	}
	pkgs, err := vetload.Load(root, "./internal/vetstm/interproc/testdata/handoff")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return pkgs
}

func analyze(t *testing.T, opts interproc.Options) *interproc.Result {
	t.Helper()
	res, err := interproc.Analyze(loadFixture(t), opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func handoffSites(res *interproc.Result) []*interproc.SiteInfo {
	var out []*interproc.SiteInfo
	for _, si := range res.Sites {
		if si.File == "handoff.go" {
			out = append(out, si)
		}
	}
	return out
}

// The parity test: the Go embedding must reproduce the toy-IR data-handoff
// result (internal/analysis's TestDataHandoffNAITBeatsTL) — the handed-off
// item is thread-shared, so TL alone must keep its barriers, but NAIT
// elides it because no transaction ever touches it.
func TestDataHandoffParity(t *testing.T) {
	res := analyze(t, interproc.Options{})
	sites := handoffSites(res)
	if len(sites) != 5 {
		t.Fatalf("found %d handoff sites, want 5: %+v", len(sites), sites)
	}
	// res.Sites is sorted by file/line; the fixture allocates in order
	// item, scratch, counter, local, pub.
	item, scratch, counter, local, pub := sites[0], sites[1], sites[2], sites[3], sites[4]

	if item.Class != elide.ClassNAIT {
		t.Errorf("item class = %q, want nait (%s)", item.Class, item.Reason)
	}
	if !item.Shared {
		t.Errorf("item not thread-shared: TL alone should have to keep it")
	}
	if item.TxnRead || item.TxnWrite {
		t.Errorf("item marked transactional: read=%v write=%v", item.TxnRead, item.TxnWrite)
	}

	if scratch.Class != elide.ClassNAITTL {
		t.Errorf("scratch class = %q, want nait+tl (%s)", scratch.Class, scratch.Reason)
	}
	if counter.Class != elide.ClassMixed {
		t.Errorf("counter class = %q, want mixed (%s)", counter.Class, counter.Reason)
	}
	if !counter.TxnWrite || !counter.Shared {
		t.Errorf("counter facts = txnWrite:%v shared:%v, want both", counter.TxnWrite, counter.Shared)
	}
	if local.Class != elide.ClassTL {
		t.Errorf("local class = %q, want tl (%s)", local.Class, local.Reason)
	}
	if pub.Class != elide.ClassMixed || pub.Kind != interproc.SiteNewPublic {
		t.Errorf("pub = class %q kind %v, want mixed NewPublic", pub.Class, pub.Kind)
	}

	// Manifest: every site except the NewPublic one, under stable IDs.
	idx := res.Manifest.Index()
	if _, ok := idx[pub.ID]; ok {
		t.Errorf("NewPublic site %s leaked into the manifest", pub.ID)
	}
	for _, si := range []*interproc.SiteInfo{item, scratch, counter, local} {
		entry, ok := idx[si.ID]
		if !ok {
			t.Errorf("site %s missing from manifest", si.ID)
			continue
		}
		if entry.Class != si.Class {
			t.Errorf("manifest class for %s = %q, want %q", si.ID, entry.Class, si.Class)
		}
	}
	if res.Stats.Elidable != 3 {
		t.Errorf("Stats.Elidable = %d, want 3 (item, scratch, local)", res.Stats.Elidable)
	}
}
