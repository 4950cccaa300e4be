package elide_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/elide"
	"repro/internal/objmodel"
)

// hinted is a manifest `stmvet elide ./internal/workloads/elidewl` wrote while
// mixed sites still carried "hot" and "granularity" keys.
const hinted = "testdata/elidewl_hinted.json"

func known(class string) bool { return elide.Elidable(class) || class == elide.ClassMixed }

// FuzzReadManifest: whatever bytes a manifest file holds, ReadFile either
// returns an error or a manifest whose sites all have a known class and an
// ID, installing that manifest on a heap does not panic, and its index holds
// only known classes.
func FuzzReadManifest(f *testing.F) {
	// Manifests already written keep loading: the retired keys are ignored.
	if m, err := elide.ReadFile(hinted); err != nil || len(m.Sites) != 4 {
		f.Fatalf("%s: %v, want its 4 sites", hinted, err)
	}
	seed, err := os.ReadFile(hinted)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"sites":[{"file":"a.go","line":3,"class":"tl"}]}`))
	f.Add([]byte(`{"version":1,"sites":[{"id":"x.go:1","class":"nait"},{"id":"x.go:1","class":"tl"}]}`))
	f.Add([]byte(`{"version":1,"sites":[{"id":"x.go:1","class":"private"}]}`))
	f.Add([]byte(`{"version":2,"sites":[]}`))
	path := filepath.Join(f.TempDir(), "manifest.json") // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := elide.ReadFile(path)
		if err != nil {
			return
		}
		for _, s := range m.Sites {
			if !known(s.Class) || s.ID == "" {
				t.Fatalf("ReadFile accepted site %+v", s)
			}
		}
		for id, s := range m.Index() {
			if !known(s.Class) {
				t.Fatalf("Index()[%q] has class %q", id, s.Class)
			}
		}
		objmodel.NewHeap().ApplyManifest(m)
	})
}
