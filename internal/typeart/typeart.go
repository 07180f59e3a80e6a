// Package typeart reproduces TypeART (paper §II-C): a type registry plus
// a runtime table of instrumented memory allocations.
//
// The compiler-pass half of TypeART — statically collecting allocations
// and serializing type layouts — corresponds here to the typed allocation
// helpers of the toolchain (core.Session) and the CUDA runtime, which
// invoke the Track/Release callbacks with (address, count, type id),
// exactly the callback signature the paper describes. The runtime half is
// this package's allocation table: MUST queries it to check MPI datatype
// compatibility and buffer extents, and CuSan queries it for device
// allocation sizes when annotating kernel argument memory ranges.
package typeart

import (
	"fmt"
	"sort"
	"sync"

	"cusango/internal/memspace"
)

// TypeID identifies a registered type layout.
type TypeID int32

// Builtin type ids, known to every Registry.
const (
	TypeInvalid TypeID = iota
	TypeUint8
	TypeInt32
	TypeInt64
	TypeFloat32
	TypeFloat64
	firstUserType
)

// Field is one member of a struct layout.
type Field struct {
	Name   string
	Offset int64
	Type   TypeID
}

// Info describes a registered type.
type Info struct {
	ID     TypeID
	Name   string
	Size   int64
	Fields []Field // empty for builtins
}

// builtins are the builtin layouts, indexed by id: compile-time data
// shared read-only by every Registry.
var builtins = [firstUserType]Info{
	TypeUint8:   {ID: TypeUint8, Name: "uint8", Size: 1},
	TypeInt32:   {ID: TypeInt32, Name: "int32", Size: 4},
	TypeInt64:   {ID: TypeInt64, Name: "int64", Size: 8},
	TypeFloat32: {ID: TypeFloat32, Name: "float32", Size: 4},
	TypeFloat64: {ID: TypeFloat64, Name: "float64", Size: 8},
}

// Registry holds the serialized compile-time type information
// (paper Fig. 2, step 1): the builtin layouts plus any registered user
// structs. Its maps are made by the first RegisterStruct.
type Registry struct {
	mu     sync.RWMutex
	types  map[TypeID]*Info
	byName map[string]TypeID
	next   TypeID
}

// NewRegistry returns a registry that knows the builtin types.
func NewRegistry() *Registry {
	return &Registry{next: firstUserType}
}

// RegisterStruct registers a user-defined layout and returns its id.
// Re-registering the same name returns the existing id.
func (r *Registry) RegisterStruct(name string, size int64, fields []Field) TypeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id := r.idByName(name); id != TypeInvalid {
		return id
	}
	if r.types == nil {
		r.types, r.byName = map[TypeID]*Info{}, map[string]TypeID{}
	}
	id := r.next
	r.next++
	r.types[id] = &Info{ID: id, Name: name, Size: size, Fields: fields}
	r.byName[name] = id
	return id
}

// Info returns the type's layout, or nil for unknown ids. Builtin
// layouts are shared: callers must not modify them.
func (r *Registry) Info(id TypeID) *Info {
	if id > TypeInvalid && id < firstUserType {
		return &builtins[id]
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.types[id]
}

// IDByName resolves a type name, or TypeInvalid.
func (r *Registry) IDByName(name string) TypeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.idByName(name)
}

func (r *Registry) idByName(name string) TypeID {
	for i := range builtins {
		if b := &builtins[i]; b.ID != TypeInvalid && b.Name == name {
			return b.ID
		}
	}
	return r.byName[name]
}

// Record is one tracked allocation.
type Record struct {
	Base  memspace.Addr
	Type  TypeID
	Count int64
	Kind  memspace.Kind
	// ElemSize caches the type's size.
	ElemSize int64
}

// Bytes returns the allocation payload size.
func (rec *Record) Bytes() int64 { return rec.Count * rec.ElemSize }

// End returns the first address past the allocation.
func (rec *Record) End() memspace.Addr { return rec.Base + memspace.Addr(rec.Bytes()) }

// Stats counts runtime events.
type Stats struct {
	Tracked  int64
	Released int64
	Lookups  int64
	Misses   int64
}

// Runtime is the allocation-tracking runtime (paper Fig. 2, step 2).
// A rank's host goroutine is the only caller, so no locking is needed on
// the table; the shared Registry is locked independently.
type Runtime struct {
	Reg  *Registry
	recs []*Record // sorted by Base
	last *Record
	st   Stats
}

// NewRuntime creates an empty tracking runtime over reg.
func NewRuntime(reg *Registry) *Runtime {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Runtime{Reg: reg}
}

// Track records an allocation of count elements of type id at base
// (the instrumentation callback).
func (rt *Runtime) Track(base memspace.Addr, id TypeID, count int64, kind memspace.Kind) error {
	info := rt.Reg.Info(id)
	if info == nil {
		return fmt.Errorf("typeart: Track with unknown type id %d", id)
	}
	if count < 0 {
		return fmt.Errorf("typeart: Track with negative count %d", count)
	}
	rec := &Record{Base: base, Type: id, Count: count, Kind: kind, ElemSize: info.Size}
	i := sort.Search(len(rt.recs), func(i int) bool { return rt.recs[i].Base > base })
	if i > 0 && rt.recs[i-1].Base == base {
		return fmt.Errorf("typeart: duplicate Track at 0x%x", uint64(base))
	}
	rt.recs = append(rt.recs, nil)
	copy(rt.recs[i+1:], rt.recs[i:])
	rt.recs[i] = rec
	rt.st.Tracked++
	return nil
}

// Release removes the allocation record at base (the de-allocation
// callback).
func (rt *Runtime) Release(base memspace.Addr) error {
	i := sort.Search(len(rt.recs), func(i int) bool { return rt.recs[i].Base > base })
	i--
	if i < 0 || rt.recs[i].Base != base {
		return fmt.Errorf("typeart: Release of untracked 0x%x", uint64(base))
	}
	if rt.last == rt.recs[i] {
		rt.last = nil
	}
	rt.recs = append(rt.recs[:i], rt.recs[i+1:]...)
	rt.st.Released++
	return nil
}

// Retype refines the type of an already-tracked allocation. CUDA
// allocations are first tracked as byte arrays (cudaMalloc is untyped);
// when the toolchain observes the typed use (the bitcast, in LLVM terms),
// it refines the record so MUST's datatype checks see the real element
// type. The new layout must cover exactly the same byte extent.
func (rt *Runtime) Retype(base memspace.Addr, id TypeID, count int64) error {
	info := rt.Reg.Info(id)
	if info == nil {
		return fmt.Errorf("typeart: Retype with unknown type id %d", id)
	}
	rec, off, ok := rt.Lookup(base)
	if !ok || off != 0 {
		return fmt.Errorf("typeart: Retype of untracked base 0x%x", uint64(base))
	}
	if count*info.Size != rec.Bytes() {
		return fmt.Errorf("typeart: Retype extent mismatch: %d*%d != %d",
			count, info.Size, rec.Bytes())
	}
	rec.Type = id
	rec.Count = count
	rec.ElemSize = info.Size
	return nil
}

// Lookup resolves addr (interior pointers allowed) to its allocation
// record and byte offset. This is the query MUST issues per intercepted
// MPI call (paper Fig. 2, step 4).
func (rt *Runtime) Lookup(addr memspace.Addr) (rec *Record, offset int64, ok bool) {
	rt.st.Lookups++
	if r := rt.last; r != nil && addr >= r.Base && addr < r.End() {
		return r, int64(addr - r.Base), true
	}
	i := sort.Search(len(rt.recs), func(i int) bool { return rt.recs[i].Base > addr })
	i--
	if i >= 0 {
		r := rt.recs[i]
		if addr >= r.Base && addr < r.End() {
			rt.last = r
			return r, int64(addr - r.Base), true
		}
	}
	rt.st.Misses++
	return nil, 0, false
}

// RemainingBytes returns the bytes from addr to the end of its
// allocation, which is the extent CuSan annotates for device pointers.
func (rt *Runtime) RemainingBytes(addr memspace.Addr) (int64, bool) {
	rec, off, ok := rt.Lookup(addr)
	if !ok {
		return 0, false
	}
	return rec.Bytes() - off, true
}

// RemainingCount returns the element count from addr (rounded down to a
// whole element boundary) to the end of the allocation.
func (rt *Runtime) RemainingCount(addr memspace.Addr) (int64, TypeID, bool) {
	rec, off, ok := rt.Lookup(addr)
	if !ok {
		return 0, TypeInvalid, false
	}
	if rec.ElemSize == 0 {
		return 0, rec.Type, true
	}
	return rec.Count - off/rec.ElemSize, rec.Type, true
}

// NumTracked returns the number of live tracked allocations.
func (rt *Runtime) NumTracked() int { return len(rt.recs) }

// Stats returns a snapshot of the event counters.
func (rt *Runtime) Stats() Stats { return rt.st }
