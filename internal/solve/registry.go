package solve

import (
	"fmt"
	"sort"
	"sync"
)

// Factory creates a fresh kernel instance (kernels are stateful: Solve builds
// a new one per call, callers that retain one re-run it through Run).
type Factory func() Kernel

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register adds a named kernel factory to the registry.  Solver packages
// call it from init(); registering the same name twice panics, as that is
// always a programming error.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || f == nil {
		panic("solve: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solve: solver %q registered twice", name))
	}
	registry[name] = f
}

// New instantiates the named kernel.
func New(name string) (Kernel, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("solve: unknown solver %q (registered: %v)", name, Names())
	}
	return f(), nil
}

// Registered reports whether a solver name is known.
func Registered(name string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names lists the registered solver names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
