package stmapi

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/objmodel"
)

// Factory constructs a runtime bound to heap with the given configuration.
type Factory func(heap *objmodel.Heap, cfg CommonConfig) (Runtime, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a runtime factory under name. Each runtime package registers
// itself from an init function, so importing a runtime (directly or blankly)
// is what makes it visible to Runtimes and New — drivers written against the
// registry pick up new runtimes without a code change. Register panics on an
// empty name, a nil factory, or a duplicate registration: all three are
// programmer errors at package-initialization time.
func Register(name string, f Factory) {
	if name == "" {
		panic("stmapi: Register with empty runtime name")
	}
	if f == nil {
		panic("stmapi: Register with nil factory for " + name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("stmapi: duplicate runtime registration for " + name)
	}
	registry[name] = f
}

// Runtimes returns the registered runtime names in sorted order. The sweep
// and litmus matrices iterate this instead of hardcoding a name list, so a
// newly registered runtime joins every matrix automatically.
func Runtimes() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}

// New constructs the runtime registered under name, bound to heap. An
// unknown name is an error listing the registered runtimes (mirroring
// conflict.ByName); every entry point must surface it rather than silently
// falling back to a default.
func New(name string, heap *objmodel.Heap, cfg CommonConfig) (Runtime, error) {
	registryMu.RLock()
	f := registry[name]
	registryMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("stmapi: unknown runtime %q (have %v)", name, Runtimes())
	}
	return f(heap, cfg)
}

// ReadOnlyRuntime is the optional capability interface of runtimes with a
// dedicated read-only transaction mode: AtomicRead executes body against a
// consistent snapshot chosen at begin, with no validation, no aborts, and no
// writes to shared metadata. The body must not write (Write, WriteRef) or
// call BecomeIrrevocable; doing so panics. Drivers probe for this interface
// with a type assertion and fall back to Atomic when it is absent.
type ReadOnlyRuntime interface {
	Runtime

	// AtomicRead executes body as a read-only snapshot transaction and
	// returns its error, if any. The body runs exactly once: snapshot reads
	// cannot conflict, so there are no retries.
	AtomicRead(body func(Txn) error) error
}
