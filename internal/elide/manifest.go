// Package elide defines the barrier-elision manifest exchanged between the
// stmvet inter-procedural analyses (internal/vetstm/interproc) and the
// runtime (internal/objmodel, internal/strong).
//
// The manifest is the Go-embedding analogue of the paper's Section 5
// compiler/runtime contract: the not-accessed-in-transaction (NAIT,
// Figure 12) and thread-local (TL, §5.4) analyses classify object
// *allocation sites*, and the runtime uses the classification to decide the
// birth state of each object's transaction record. Sites classified NAIT or
// TL are born Private (the all-ones record of Figure 10) and ride the
// zero-synchronization fast paths; "mixed" sites keep the default birth
// state. Manifests written with the retired "hot" and "granularity" keys
// still load: the decoder ignores them.
//
// The package is a leaf: it imports only the standard library, so both the
// analysis side (which must not depend on the runtime) and the runtime side
// (which must not depend on the analyzer) can share the schema.
package elide

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Site classifications. The analysis emits the strongest sound claim:
//
//   - ClassNAITTL: never accessed inside any Atomic* body AND never crosses
//     goroutines — eligible for private birth with no publication concerns.
//   - ClassNAIT: never accessed transactionally, but shared across
//     goroutines. Still eligible for private birth: non-transactional
//     barriers publish a private object the moment its reference is written
//     into a public one (Figure 10b), so cross-goroutine handoff through the
//     managed heap re-enters the protected state automatically.
//   - ClassTL: accessed transactionally but provably thread-local. Eligible
//     for private birth: both runtimes treat Private records as direct
//     access inside transactions (undo-logged writes, unlogged reads), which
//     is sound when only the allocating goroutine can reach the object.
//   - ClassMixed: accessed transactionally and shared — no elision.
const (
	ClassNAITTL = "nait+tl"
	ClassNAIT   = "nait"
	ClassTL     = "tl"
	ClassMixed  = "mixed"
)

// Version is the manifest schema version this package reads and writes.
const Version = 1

// Site is one classified allocation site.
type Site struct {
	// ID is the stable allocation-site key: "basename.go:line". Basenames
	// (not full paths) keep the ID stable across checkouts; the runtime
	// resolves allocation PCs to the same form via runtime.Caller.
	ID string `json:"id"`

	Pkg  string `json:"pkg"`  // import path of the allocating package
	Func string `json:"func"` // fully qualified enclosing function
	File string `json:"file"` // file basename
	Line int    `json:"line"`

	// Class is one of the Class* constants above.
	Class string `json:"class"`

	// Reason is a human-readable justification emitted by the analysis
	// ("no txn access", "escapes via go stmt", ...). Informational only.
	Reason string `json:"reason,omitempty"`
}

// Manifest is the full analysis result for one module.
type Manifest struct {
	Version  int      `json:"version"`
	Tool     string   `json:"tool"`
	Module   string   `json:"module,omitempty"`
	Packages []string `json:"packages,omitempty"`
	Sites    []Site   `json:"sites"`
}

// Sort orders sites by (File, Line, Pkg) for deterministic output.
func (m *Manifest) Sort() {
	sort.Slice(m.Sites, func(i, j int) bool {
		a, b := &m.Sites[i], &m.Sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Pkg < b.Pkg
	})
}

// Elidable reports whether class names a private-birth-eligible site.
func Elidable(class string) bool {
	switch class {
	case ClassNAITTL, ClassNAIT, ClassTL:
		return true
	}
	return false
}

// SiteID builds the stable key for an allocation at file:line.
func SiteID(file string, line int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(file), line)
}

// Index maps stable site IDs to their classification. Distinct sites that
// collide on "basename.go:line" (same-named files in different packages)
// are degraded to the weakest classification so the runtime never elides a
// site the analysis did not prove out.
func (m *Manifest) Index() map[string]Site {
	idx := make(map[string]Site, len(m.Sites))
	for _, s := range m.Sites {
		if prev, dup := idx[s.ID]; dup {
			idx[s.ID] = weaker(prev, s)
			continue
		}
		idx[s.ID] = s
	}
	return idx
}

// weaker merges two colliding sites conservatively: any disagreement on
// elidability yields mixed, and among elidable classes the intersection of
// guarantees wins (nait+tl ⊃ nait, nait+tl ⊃ tl, nait ∩ tl = mixed).
func weaker(a, b Site) Site {
	out := a
	out.Class = meetClass(a.Class, b.Class)
	if !Elidable(out.Class) && out.Class != ClassMixed {
		out.Class = ClassMixed
	}
	return out
}

func meetClass(a, b string) string {
	if a == b {
		return a
	}
	// nait+tl is the top elidable class; meeting it with anything yields
	// the other operand.
	if a == ClassNAITTL {
		return b
	}
	if b == ClassNAITTL {
		return a
	}
	// nait ∩ tl, or anything involving mixed/unknown: no elision.
	return ClassMixed
}

// WriteFile writes the manifest as indented JSON, sorted.
func (m *Manifest) WriteFile(path string) error {
	m.Sort()
	if m.Version == 0 {
		m.Version = Version
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a manifest, rejecting unknown schema versions and unknown
// classifications (an old runtime must not misread a newer analyzer).
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("elide: parsing %s: %w", path, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("elide: %s: unsupported manifest version %d (want %d)", path, m.Version, Version)
	}
	for i := range m.Sites {
		s := &m.Sites[i]
		switch s.Class {
		case ClassNAITTL, ClassNAIT, ClassTL, ClassMixed:
		default:
			return nil, fmt.Errorf("elide: %s: site %s has unknown class %q", path, s.ID, s.Class)
		}
		if s.ID == "" {
			s.ID = SiteID(s.File, s.Line)
		}
	}
	return &m, nil
}
