// Package tsan is a ThreadSanitizer analog: a happens-before data race
// detector with the fiber and annotation API surface that MUST and CuSan
// program against (paper §II-A).
//
// The detector keeps shadow memory over the simulated address space:
// every 8-byte granule stores up to K shadow cells recording the most
// recent accesses ((fiber, epoch, write?, byte-mask) tuples); the
// default engine stores runs of granules with equal cells once. A new access
// races with a stored one iff the accesses conflict (at least one write,
// overlapping bytes) and the accessor's vector clock has not absorbed the
// stored access's epoch — i.e. no happens-before path exists.
//
// User-defined concurrency is modeled with fibers. Switching fibers does
// NOT imply synchronization (paper §II-A); ordering is established only by
// the release/acquire annotation pair HappensBefore/HappensAfter, keyed by
// a synchronization address. As in TSan's plain annotation API, every
// range annotation walks the shadow of its range and every release is a
// full vector-clock join.
//
// One Sanitizer instance belongs to one rank and is driven only from that
// rank's goroutine, mirroring TSan's per-process runtime.
package tsan

import (
	"fmt"
	"sort"
	"strings"

	"cusango/internal/memspace"
	"cusango/internal/vclock"
)

// SyncKey identifies a synchronization object. TSan's annotation API keys
// synchronization on memory addresses; tools may also mint synthetic keys
// (for stream arcs, events, launch tokens) via MakeKey.
type SyncKey uint64

// KeyFromAddr derives a synchronization key from an application address.
func KeyFromAddr(a memspace.Addr) SyncKey { return SyncKey(a) }

// MakeKey mints a synthetic synchronization key in a reserved region of
// the key space that can never collide with application addresses.
func MakeKey(class uint8, id uint64) SyncKey {
	return SyncKey(uint64(0xF0|class)<<56 | (id & 0x00FFFFFFFFFFFFFF))
}

// Fiber is one logical execution context: the host thread, a CUDA stream,
// or a non-blocking MPI operation.
type Fiber struct {
	id    int
	name  string
	clock *vclock.Clock
}

// ID returns the fiber's dense id (its vector-clock component index).
func (f *Fiber) ID() int { return f.id }

// Name returns the diagnostic name given at creation.
func (f *Fiber) Name() string { return f.name }

// Clock exposes the fiber's vector clock (read-only use by tests).
func (f *Fiber) Clock() *vclock.Clock { return f.clock }

func (f *Fiber) String() string { return fmt.Sprintf("fiber %d (%s)", f.id, f.name) }

// AccessInfo describes the source context of an annotated access, used in
// race reports. Tools create one per annotation site and reuse it; the
// pointer identity participates in report deduplication (the analog of
// TSan's stack-trace dedup).
type AccessInfo struct {
	// Site names the code location, e.g. "MPI_Isend" or "kernel jacobi_step".
	Site string
	// Object names the accessed object, e.g. "arg 0 (d_out)" or "recv buffer".
	Object string
}

func (ai *AccessInfo) String() string {
	if ai == nil {
		return "<unknown>"
	}
	if ai.Object == "" {
		return ai.Site
	}
	return ai.Site + " " + ai.Object
}

// Stats collects the runtime event counters the paper reports in Table I.
type Stats struct {
	FibersCreated   int64
	FiberSwitches   int64
	HappensBefore   int64
	HappensAfter    int64
	ReadRangeCalls  int64
	WriteRangeCalls int64
	ReadBytes       int64
	WriteBytes      int64
	ScalarReads     int64
	ScalarWrites    int64
	RacesReported   int64
	RacesDeduped    int64
	RacesSuppressed int64

	// Batched range-engine counters (all zero under EngineSlow).
	EnginePages        int64 // 32-KiB shadow windows touched
	EngineGranules     int64 // granules covered
	EngineFastGranules int64 // granules updated in bulk through a multi-granule run
	EngineSameGranules int64 // granules in runs that already held the new state (no store)
	EngineRuns         int64 // run checks performed

	// RangeCacheHits and ReleasesBatched are always 0: nothing counts
	// them. They stay only because the benchmark module (e2ebench)
	// still reads them.
	RangeCacheHits  int64
	ReleasesBatched int64
}

// AvgReadKB returns the average tracked bytes per read-range call, in KiB.
func (s *Stats) AvgReadKB() float64 {
	if s.ReadRangeCalls == 0 {
		return 0
	}
	return float64(s.ReadBytes) / float64(s.ReadRangeCalls) / 1024
}

// AvgWriteKB returns the average tracked bytes per write-range call, in KiB.
func (s *Stats) AvgWriteKB() float64 {
	if s.WriteRangeCalls == 0 {
		return 0
	}
	return float64(s.WriteBytes) / float64(s.WriteRangeCalls) / 1024
}

// Access is one half of a race report.
type Access struct {
	Fiber *Fiber
	Write bool
	Info  *AccessInfo
}

func (a Access) opString() string {
	if a.Write {
		return "write"
	}
	return "read"
}

// Report describes one detected data race.
type Report struct {
	Addr     memspace.Addr
	Current  Access
	Previous Access
}

// String renders the report in a TSan-like format.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WARNING: data race at 0x%x (%s)\n", uint64(r.Addr), memspace.KindOf(r.Addr))
	fmt.Fprintf(&b, "  %s by %s at %s\n", r.Current.opString(), r.Current.Fiber, r.Current.Info)
	fmt.Fprintf(&b, "  previous %s by %s at %s", r.Previous.opString(), r.Previous.Fiber, r.Previous.Info)
	return b.String()
}

// Suppressions filters reports by substring match on the access sites,
// the analog of TSan suppression lists (paper artifact description).
type Suppressions struct {
	patterns []string
}

// NewSuppressions builds a suppression list from patterns.
func NewSuppressions(patterns ...string) *Suppressions {
	return &Suppressions{patterns: patterns}
}

// Match reports whether the report should be suppressed.
func (sup *Suppressions) Match(r *Report) bool {
	if sup == nil {
		return false
	}
	for _, p := range sup.patterns {
		if strings.Contains(r.Current.Info.String(), p) || strings.Contains(r.Previous.Info.String(), p) {
			return true
		}
	}
	return false
}

// Engine selects the shadow-range annotation engine.
type Engine uint8

const (
	// EngineBatched is the default: the run engine stores runs of
	// granules with equal shadow cells and checks an access once per run
	// it overlaps (engine.go).
	EngineBatched Engine = iota
	// EngineSlow is the granule-at-a-time reference walk (the original
	// implementation). It is kept as the differential-testing oracle and
	// for the §V-B engine ablation; both engines must produce identical
	// race reports and identical shadow post-state.
	EngineSlow
)

func (e Engine) String() string {
	if e == EngineSlow {
		return "slow"
	}
	return "batched"
}

// ParseEngine resolves an engine name (case-insensitive).
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "batched", "fast":
		return EngineBatched, nil
	case "slow", "reference", "oracle":
		return EngineSlow, nil
	default:
		return EngineBatched, fmt.Errorf("tsan: unknown engine %q", s)
	}
}

// Config tunes the detector.
type Config struct {
	// CellsPerGranule is the number of shadow cells kept per 8-byte
	// granule (TSan uses 4; we default to 2). More cells remember more
	// concurrent accessors at higher memory cost.
	CellsPerGranule int
	// MaxReports caps stored reports (further races are counted only).
	MaxReports int
	// OnReport, if set, is invoked for every non-suppressed race.
	OnReport func(*Report)
	// Suppressions filters reports.
	Suppressions *Suppressions
	// Engine selects the range engine; the zero value is the batched
	// run engine.
	Engine Engine
}

const (
	defaultCells   = 2
	defaultReports = 128
)

// Sanitizer is the per-rank race detector instance.
type Sanitizer struct {
	cfg      Config
	fibers   []*Fiber
	cur      *Fiber
	syncVars map[SyncKey]*vclock.Clock // each key's release clock
	shadow   shadowMap                 // the batched engine's run store
	slow     slowShadow                // the slow engine's per-granule store
	reports  []*Report
	seen     map[dedupKey]struct{}
	stats    Stats
	// ignoreDepth > 0 disables access recording (IgnoreBegin/End).
	ignoreDepth int

	// Access-site interning: shadow cells store 32-bit indexes into
	// infoTab instead of *AccessInfo pointers (no GC write barriers on
	// the store path). Index 0 is reserved for "no site".
	infoTab  []*AccessInfo
	infoIDs  map[*AccessInfo]uint32
	lastInfo *AccessInfo
	lastID   uint32

	// Object arenas: fibers and the vector clocks of fibers and sync vars
	// are carved from chunked slabs owned by this sanitizer, so the clean
	// access path — annotate a range over warm shadow, release and
	// acquire existing sync vars, switch fibers — performs no heap
	// allocation (TestCleanPathZeroAllocs). The MPI layer creates a
	// fiber per non-blocking operation, so creation is on a hot path.
	clockArena *vclock.Arena
	fiberSlab  []Fiber
}

type dedupKey struct {
	curInfo, prevInfo   *AccessInfo
	curWrite, prevWrite bool
}

// New creates a Sanitizer whose initial current fiber is the host thread.
func New(cfg Config) *Sanitizer {
	if cfg.CellsPerGranule <= 0 {
		cfg.CellsPerGranule = defaultCells
	}
	if cfg.CellsPerGranule > maxCells {
		cfg.CellsPerGranule = maxCells
	}
	if cfg.MaxReports <= 0 {
		cfg.MaxReports = defaultReports
	}
	s := &Sanitizer{
		cfg:        cfg,
		syncVars:   make(map[SyncKey]*vclock.Clock),
		seen:       make(map[dedupKey]struct{}),
		infoTab:    []*AccessInfo{nil},
		infoIDs:    make(map[*AccessInfo]uint32),
		clockArena: vclock.NewArena(4),
	}
	if cfg.Engine == EngineSlow {
		s.slow.init(cfg.CellsPerGranule)
	} else {
		s.shadow.init(cfg.CellsPerGranule)
	}
	host := s.CreateFiber("host thread")
	s.cur = host
	s.stats.FiberSwitches = 0 // creating the host fiber is not a switch
	return s
}

const fiberSlabChunk = 16

// CreateFiber instantiates a new fiber. The fiber's epoch starts at 1 so
// its very first access is distinguishable from "never synchronized".
// Fiber objects and their clocks come from the sanitizer's arenas: the
// MPI layer creates a fiber per non-blocking operation, so fiber
// creation sits on the request hot path.
func (s *Sanitizer) CreateFiber(name string) *Fiber {
	if len(s.fiberSlab) == 0 {
		s.fiberSlab = make([]Fiber, fiberSlabChunk)
	}
	f := &s.fiberSlab[0]
	s.fiberSlab = s.fiberSlab[1:]
	f.id, f.name, f.clock = len(s.fibers), name, s.clockArena.New()
	f.clock.Tick(f.id)
	s.fibers = append(s.fibers, f)
	s.stats.FibersCreated++
	if f.id > maxFiberID {
		panic(fmt.Sprintf("tsan: fiber id %d exceeds shadow encoding capacity", f.id))
	}
	// Later clocks should start with room for every live fiber, so a
	// first Join doesn't immediately re-allocate.
	s.clockArena.SetHint(len(s.fibers) + 4)
	return f
}

// internInfo resolves an access site to its stable 32-bit shadow id.
// A one-entry cache makes the per-range cost one pointer compare: tools
// reuse one AccessInfo per annotation site.
func (s *Sanitizer) internInfo(info *AccessInfo) uint32 {
	if info == s.lastInfo {
		return s.lastID
	}
	id, ok := s.infoIDs[info]
	if !ok {
		id = uint32(len(s.infoTab))
		s.infoTab = append(s.infoTab, info)
		s.infoIDs[info] = id
	}
	s.lastInfo, s.lastID = info, id
	return id
}

// HostFiber returns the implicit host-thread fiber.
func (s *Sanitizer) HostFiber() *Fiber { return s.fibers[0] }

// CurrentFiber returns the fiber the executing thread currently represents.
func (s *Sanitizer) CurrentFiber() *Fiber { return s.cur }

// SwitchFiber makes f the current execution context. Switching implies no
// synchronization (paper §II-A) — this is the FiberSwitchNoSync mode that
// MUST and CuSan use to model concurrency.
func (s *Sanitizer) SwitchFiber(f *Fiber) {
	s.switchFiber(f, false)
}

// SwitchFiberSync switches to f and additionally joins the departing
// context's clock into f — TSan's default fiber-switch behaviour (the
// __tsan_switch_to_fiber flags=0 mode). CuSan uses it for the host->
// stream direction of a kernel launch, where CUDA guarantees prior host
// work is visible to the launched kernel.
func (s *Sanitizer) SwitchFiberSync(f *Fiber) {
	s.switchFiber(f, true)
}

func (s *Sanitizer) switchFiber(f *Fiber, sync bool) {
	if f == nil {
		panic("tsan: SwitchFiber(nil)")
	}
	if f != s.cur {
		if sync {
			f.clock.Join(s.cur.clock)
		}
		s.cur = f
	}
	s.stats.FiberSwitches++
}

// NumFibers returns the number of fibers created so far.
func (s *Sanitizer) NumFibers() int { return len(s.fibers) }

// HappensBefore is the release half of a synchronization annotation
// (AnnotateHappensBefore): the current fiber's clock is merged into the
// sync variable identified by key, then the fiber's own epoch advances so
// accesses performed after the release are distinguishable from the
// released state.
func (s *Sanitizer) HappensBefore(key SyncKey) {
	s.stats.HappensBefore++
	sv, ok := s.syncVars[key]
	if !ok {
		sv = s.clockArena.New()
		s.syncVars[key] = sv
	}
	sv.Join(s.cur.clock)
	s.cur.clock.Tick(s.cur.id)
}

// HappensAfter is the acquire half (AnnotateHappensAfter): the sync
// variable's clock is merged into the current fiber's clock. Acquiring a
// never-released key is a no-op, as in TSan.
func (s *Sanitizer) HappensAfter(key SyncKey) {
	s.stats.HappensAfter++
	if sv, ok := s.syncVars[key]; ok {
		s.cur.clock.Join(sv)
	}
}

// epoch returns the current fiber's own logical time.
func (s *Sanitizer) epoch() vclock.Epoch { return s.cur.clock.Get(s.cur.id) }

// ReadRange annotates a read of n bytes at a by the current fiber
// (tsan_read_range analog).
func (s *Sanitizer) ReadRange(a memspace.Addr, n int64, info *AccessInfo) {
	s.stats.ReadRangeCalls++
	s.stats.ReadBytes += n
	s.accessRange(a, n, false, info)
}

// WriteRange annotates a write of n bytes at a by the current fiber
// (tsan_write_range analog).
func (s *Sanitizer) WriteRange(a memspace.Addr, n int64, info *AccessInfo) {
	s.stats.WriteRangeCalls++
	s.stats.WriteBytes += n
	s.accessRange(a, n, true, info)
}

// Read annotates a scalar read of size bytes (1, 2, 4, or 8) at a. This is
// what the compiler instrumentation of host code lowers to.
func (s *Sanitizer) Read(a memspace.Addr, size int, info *AccessInfo) {
	s.stats.ScalarReads++
	s.accessRange(a, int64(size), false, info)
}

// Write annotates a scalar write of size bytes at a.
func (s *Sanitizer) Write(a memspace.Addr, size int, info *AccessInfo) {
	s.stats.ScalarWrites++
	s.accessRange(a, int64(size), true, info)
}

// accessRange records an access to [a, a+n), dispatching to the
// configured range engine.
func (s *Sanitizer) accessRange(a memspace.Addr, n int64, write bool, info *AccessInfo) {
	if n <= 0 || s.ignoreDepth > 0 {
		return
	}
	if s.cfg.Engine == EngineSlow {
		s.accessRangeSlow(a, n, write, info)
		return
	}
	s.accessRangeBatched(a, n, write, info)
}

// accessRangeSlow is the granule-at-a-time reference walk over its own
// per-granule store, recomputing the partial-mask condition each step.
// Kept as the differential-testing oracle for the batched engine.
func (s *Sanitizer) accessRangeSlow(a memspace.Addr, n int64, write bool, info *AccessInfo) {
	f := s.cur
	ep := s.epoch()
	infoID := s.internInfo(info)
	k := s.cfg.CellsPerGranule
	start := uint64(a)
	end := start + uint64(n)
	g := start >> granuleShift
	gLast := (end - 1) >> granuleShift
	for ; g <= gLast; g++ {
		mask := fullMask
		gBase := g << granuleShift
		if gBase < start || gBase+granuleBytes > end {
			mask = partialMask(gBase, start, end)
		}
		cells, infos := s.slow.granule(g)
		slot, _ := s.checkCells(cells, infos, mask, write, f, infoID, memspace.Addr(gBase))
		if slot < 0 {
			slot = int(g % uint64(k))
		}
		if cells[0] == 0 {
			// A granule's first access takes slot 0, which is never
			// emptied again.
			s.slow.touched++
		}
		cells[slot], infos[slot] = encodeCell(f.id, ep, write, mask), infoID
	}
}

// checkCells races an access with byte mask mask against the K cells of
// one granule — or of one run, whose granules all hold these cells —
// reporting each conflict at gAddr. It returns the slot the access is
// stored in, or -1 when every cell holds a concurrent access from
// another fiber (the caller then evicts slot g % K), and the number of
// conflicting cells. Both engines decide through this, so slot
// selection, reporting, and eviction are identical by construction.
func (s *Sanitizer) checkCells(cells []uint64, infos []uint32, mask uint8, write bool,
	f *Fiber, infoID uint32, gAddr memspace.Addr) (slot, conflicts int) {
	sameSlot := -1
	emptySlot := -1
	orderedSlot := -1
	for i, c := range cells {
		if c == 0 {
			if emptySlot < 0 {
				emptySlot = i
			}
			continue
		}
		cFiber, cEpoch, cWrite, cMask := decodeCell(c)
		if cFiber == f.id {
			// Same execution context: program order applies, no race.
			if cWrite == write {
				sameSlot = i
			}
			continue
		}
		if f.clock.Get(cFiber) >= cEpoch {
			if orderedSlot < 0 {
				orderedSlot = i
			}
			continue
		}
		// Concurrent with the stored access: race iff conflicting.
		if (write || cWrite) && mask&cMask != 0 {
			conflicts++
			s.report(gAddr, write, s.infoTab[infoID], cFiber, cWrite, s.infoTab[infos[i]])
		}
	}
	switch {
	case sameSlot >= 0:
		return sameSlot, conflicts
	case emptySlot >= 0:
		return emptySlot, conflicts
	default:
		return orderedSlot, conflicts
	}
}

func (s *Sanitizer) report(addr memspace.Addr, curWrite bool, curInfo *AccessInfo,
	prevFiberID int, prevWrite bool, prevInfo *AccessInfo) {
	key := dedupKey{curInfo: curInfo, prevInfo: prevInfo, curWrite: curWrite, prevWrite: prevWrite}
	if _, dup := s.seen[key]; dup {
		s.stats.RacesDeduped++
		return
	}
	s.seen[key] = struct{}{}
	r := &Report{
		Addr:     addr,
		Current:  Access{Fiber: s.cur, Write: curWrite, Info: curInfo},
		Previous: Access{Fiber: s.fibers[prevFiberID], Write: prevWrite, Info: prevInfo},
	}
	if s.cfg.Suppressions.Match(r) {
		s.stats.RacesSuppressed++
		return
	}
	s.stats.RacesReported++
	if len(s.reports) < s.cfg.MaxReports {
		s.reports = append(s.reports, r)
	}
	if s.cfg.OnReport != nil {
		s.cfg.OnReport(r)
	}
}

// Reports returns the stored race reports in detection order.
func (s *Sanitizer) Reports() []*Report {
	out := make([]*Report, len(s.reports))
	copy(out, s.reports)
	return out
}

// RaceCount returns the number of distinct races reported (including any
// beyond the stored-report cap).
func (s *Sanitizer) RaceCount() int64 { return s.stats.RacesReported }

// Stats returns a snapshot of the event counters.
func (s *Sanitizer) Stats() Stats { return s.stats }

// ShadowBytes estimates the live shadow-memory footprint, for the memory
// overhead experiment (Fig. 11): 12 bytes per slot, K slots per run
// plus its start offset under the batched engine, K slots per touched
// granule under the slow one.
func (s *Sanitizer) ShadowBytes() int64 {
	if s.cfg.Engine == EngineSlow {
		return s.slow.bytes()
	}
	return s.shadow.bytes()
}

// SyncVarCount returns the number of distinct synchronization keys seen.
func (s *Sanitizer) SyncVarCount() int { return len(s.syncVars) }

// FiberNames lists fiber names in id order (diagnostics).
func (s *Sanitizer) FiberNames() []string {
	names := make([]string, len(s.fibers))
	for i, f := range s.fibers {
		names[i] = f.name
	}
	return names
}

// DumpSyncKeys renders the sync-variable table for debugging.
func (s *Sanitizer) DumpSyncKeys() string {
	keys := make([]SyncKey, 0, len(s.syncVars))
	for k := range s.syncVars {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "0x%x -> %s\n", uint64(k), s.syncVars[k])
	}
	return b.String()
}

// IgnoreBegin suppresses recording and checking of subsequent memory
// accesses on this sanitizer until the matching IgnoreEnd — the
// AnnotateIgnoreReadsAndWritesBegin analog tools use around library
// internals whose synchronization is handled out of band. Calls nest.
func (s *Sanitizer) IgnoreBegin() { s.ignoreDepth++ }

// IgnoreEnd closes the innermost IgnoreBegin. Unbalanced calls panic:
// an unmatched end indicates broken tool instrumentation.
func (s *Sanitizer) IgnoreEnd() {
	if s.ignoreDepth == 0 {
		panic("tsan: IgnoreEnd without IgnoreBegin")
	}
	s.ignoreDepth--
}

// Ignoring reports whether accesses are currently ignored.
func (s *Sanitizer) Ignoring() bool { return s.ignoreDepth > 0 }
