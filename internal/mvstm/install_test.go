package mvstm

// The install path: the slice write set, the newest version read off the
// object, and chains pruned where they grow. Run under -race in CI, repeated,
// because the two concurrent tests assert on interleavings the runner has to
// be given chances to produce.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// chainNodes walks every object's chain (callers are at quiescence) and
// returns the total node count and the longest chain.
func chainNodes(h *objmodel.Heap) (total, longest int) {
	for i := 1; i <= h.Len(); i++ {
		n := chainLen(h.Get(objmodel.Ref(i)))
		total += n
		longest = max(longest, n)
	}
	return total, longest
}

// reachable returns the nodes of o's chain a snapshot read at rv may load, by
// snapshotRead's own rules: none while the record is Shared at a version rv
// covers, or Exclusive under a head at or below rv (the read waits); otherwise
// the chain from its head down to the newest node at or below rv.
func reachable(o *objmodel.Object, rv uint64) (nodes []*objmodel.MVVersion) {
	w := o.Rec.Load()
	head := o.MVHead.Load()
	if txrec.IsShared(w) && txrec.Version(w) <= rv || !txrec.IsShared(w) && (head == nil || head.TS.Load() <= rv) {
		return nil
	}
	for n := head; n != nil; n = n.Prev() {
		nodes = append(nodes, n)
		if n.TS.Load() <= rv {
			break
		}
	}
	return nodes
}

// TestInstallPrunesBelowWatermark: writers alone, GC never called. Installs
// prune against the cached watermark, so the live-version gauge is the number
// of nodes on chains throughout, and once no descheduled writer's snapshot
// holds the watermark back every chain ends one or two nodes long.
func TestInstallPrunesBelowWatermark(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	const writers, perWriter, commits = 4, 512, 1500
	objs := make([]*objmodel.Object, writers*perWriter)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Round-robin over the writer's own partition: an object is
			// rewritten long after the watermark has passed its last install.
			mine := objs[g*perWriter : (g+1)*perWriter]
			for i := 0; i < commits; i++ {
				a, b := mine[2*i%perWriter], mine[(2*i+1)%perWriter]
				if err := f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(a, 0, tx.Read(a, 0)+1)
					tx.Write(b, 1, tx.Read(b, 1)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// With more writers than processors one is always descheduled inside a
	// transaction, pinning what the others push meanwhile. A last pass by one
	// writer finds the watermark within a refresh period of the clock.
	check := func(when string, installs int64) {
		t.Helper()
		total, _ := chainNodes(f.heap)
		s := f.rt.Stats()
		if s.VersionsInstalled != installs {
			t.Errorf("%s: VersionsInstalled = %d, want %d (one per written object per commit)", when, s.VersionsInstalled, installs)
		}
		if s.VersionsGCd == 0 {
			t.Errorf("%s: installs reclaimed nothing", when)
		}
		if s.VersionsLive != int64(total) {
			t.Errorf("%s: VersionsLive = %d, a heap walk counts %d nodes", when, s.VersionsLive, total)
		}
	}
	check("after the concurrent writers", 2*writers*commits)
	for _, o := range objs {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, 0); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	check("after the last pass", 2*writers*commits+int64(len(objs)))
	if _, longest := chainNodes(f.heap); longest > 2 {
		t.Errorf("longest chain = %d nodes, want at most 2 without any GC() call", longest)
	}
}

// TestInstallReusesDeadHead: one goroutine writes round-robin over objects
// each rewritten long after the watermark has passed its last install, so
// every install after an object's first finds the whole chain dead and
// rewrites its head in place: the same node, one node long, holding the image
// the commit overwrote, and in steady state a writing commit allocates
// nothing.
func TestInstallReusesDeadHead(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	const perCommit = 8
	objs := make([]*objmodel.Object, 2*perCommit*gcEvery) // an object is rewritten every 2*gcEvery commits
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	next := 0
	commit := func() {
		batch := objs[next : next+perCommit]
		next = (next + perCommit) % len(objs)
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			for _, o := range batch {
				tx.Write(o, 0, tx.Read(o, 0)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	pass := func() {
		for range len(objs) / perCommit {
			commit()
		}
	}
	pass() // warm-up: an object's first install allocates its node
	heads := make([]*objmodel.MVVersion, len(objs))
	for i, o := range objs {
		heads[i] = o.MVHead.Load()
	}
	const passes = 3
	for p := 2; p <= passes; p++ {
		pass()
		for i, o := range objs {
			head := o.MVHead.Load()
			if head != heads[i] {
				t.Fatalf("pass %d, object %d: head is a new node, want the first one rewritten", p, i)
			}
			if o.MVLen != 1 || head.Prev() != nil {
				t.Fatalf("pass %d, object %d: MVLen = %d, %d nodes on the chain, want 1 and 1", p, i, o.MVLen, chainLen(o))
			}
			if got, ver := head.TS.Load(), txrec.Version(o.Rec.Load()); got == 1 || got >= ver {
				t.Fatalf("pass %d, object %d: head TS = %d, want the previous commit's stamp, below the record's %d", p, i, got, ver)
			}
			if got := head.Vals[0].Load(); got != uint64(p-1) {
				t.Fatalf("pass %d, object %d: head image = %d, want the overwritten value %d", p, i, got, p-1)
			}
		}
	}
	s := f.rt.Stats()
	if want := int64(passes * len(objs)); s.VersionsInstalled != want {
		t.Errorf("VersionsInstalled = %d, want %d: a rewrite counts as an install", s.VersionsInstalled, want)
	}
	if s.VersionsLive != int64(len(objs)) {
		t.Errorf("VersionsLive = %d, want one per object (%d)", s.VersionsLive, len(objs))
	}
	if raceEnabled {
		return // the detector's instrumentation allocates
	}
	if avg := testing.AllocsPerRun(100, commit); avg != 0 {
		t.Errorf("a commit writing %d objects allocates %.1f times, want 0", perCommit, avg)
	}
}

// TestHotInstallRewritesInPlace: one goroutine rewrites the same 16 objects on
// every commit, so each install's sv is the previous commit's stamp, above a
// watermark cached up to gcEvery commits back. No other snapshot is live, and
// the horizon the commit computes for its first install clears every head:
// each object keeps one node, rewritten in place, and a commit allocates
// nothing.
func TestHotInstallRewritesInPlace(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	objs := make([]*objmodel.Object, 16)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	commit := func() {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			for _, o := range objs {
				tx.Write(o, 0, tx.Read(o, 0)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	commit() // an object's first install allocates its node
	heads := make([]*objmodel.MVVersion, len(objs))
	for i, o := range objs {
		heads[i] = o.MVHead.Load()
	}
	for c := 2; c <= 3*gcEvery; c++ {
		commit()
		for i, o := range objs {
			if o.MVHead.Load() != heads[i] || o.MVLen != 1 {
				t.Fatalf("commit %d, object %d: head replaced or MVLen = %d, want the first node rewritten and 1", c, i, o.MVLen)
			}
			if got := heads[i].Vals[0].Load(); got != uint64(c-1) {
				t.Fatalf("commit %d, object %d: head image = %d, want the overwritten value %d", c, i, got, c-1)
			}
		}
	}
	if live := f.rt.Stats().VersionsLive; live != int64(len(objs)) {
		t.Errorf("VersionsLive = %d, want one per object (%d)", live, len(objs))
	}
	if raceEnabled {
		return // the detector's instrumentation allocates
	}
	if avg := testing.AllocsPerRun(100, commit); avg != 0 {
		t.Errorf("a commit rewriting %d hot objects allocates %.1f times, want 0", len(objs), avg)
	}
}

type countSink struct{ appends int }

func (c *countSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	c.appends++
	return uint64(c.appends), nil
}

func (c *countSink) WaitDurable(seq uint64) error { return nil }

// TestMVDisabledHooksAllocFree pins the disabled tracer and commit-sink
// hooks on the multi-version runtime's own paths, AtomicRead and the chain
// head rewritten in place (the cross-runtime sink gate is internal/txn's
// TestDisabledSinkAllocFree): a transaction that does not write —
// through Atomic, through AtomicRead, and through AtomicRead called on the
// stmapi.ReadOnlyRuntime interface — allocates nothing, including after a tracer and a sink have been
// installed and removed again. So does a writing commit in steady state:
// these objects are rewritten by every commit and no other snapshot is
// live, so each install rewrites its object's head in place
// (TestHotInstallRewritesInPlace), and the write set, its sort and the
// pruning allocate nothing.
func TestMVDisabledHooksAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; exact alloc count only meaningful without -race")
	}
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	if err := f.rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, 1); return nil }); err != nil {
		t.Fatal(err) // gives o a version chain, so the reads below walk one
	}
	var api stmapi.ReadOnlyRuntime = f.rt
	reader := func(tx stmapi.Txn) error { _ = tx.Read(o, 0); return nil }
	writer := func(tx stmapi.Txn) error { tx.Write(o, 0, tx.Read(o, 0)+1); return nil }
	var eight [8]*objmodel.Object
	for i := range eight {
		eight[i] = f.heap.New(f.cls)
	}
	writer8 := func(tx stmapi.Txn) error {
		for _, o := range eight {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			tx.Write(o, 1, tx.Read(o, 1)+1)
		}
		return nil
	}
	paths := []struct {
		name string
		want float64
		run  func() error
	}{
		{"Atomic read-only", 0, func() error { return f.rt.Atomic(reader) }},
		{"AtomicRead", 0, func() error { return f.rt.AtomicRead(reader) }},
		{"AtomicRead through stmapi", 0, func() error { return api.AtomicRead(reader) }},
		{"Atomic writing", 0, func() error { return f.rt.Atomic(writer) }},
		{"Atomic writing 8 objects", 0, func() error { return f.rt.Atomic(writer8) }},
	}
	measure := func(when string) {
		for _, p := range paths {
			for i := 0; i < 10; i++ { // warm the descriptor pool
				if err := p.run(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				if err := p.run(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > p.want {
				t.Errorf("%s, %s: %.1f allocations per transaction, want at most %.0f", when, p.name, avg, p.want)
			}
		}
	}
	measure("no hooks ever installed")

	sink := &countSink{}
	f.rt.SetCommitSink(sink)
	f.rt.SetTracer(trace.New(trace.Config{Shards: 1, ShardCapacity: 64}))
	for i := 0; i < 20; i++ {
		if err := f.rt.Atomic(writer); err != nil {
			t.Fatal(err)
		}
	}
	if sink.appends == 0 {
		t.Fatal("sink never saw a redo append while installed")
	}
	f.rt.SetCommitSink(nil)
	f.rt.SetTracer(nil)
	measure("hooks installed and removed")
}

// TestAbortedAttemptDoesNotPin: an attempt that aborted into a user Retry
// holds no history back while it waits, and the attempts after it read
// consistent snapshots while a writer rewrites the heads under them. The
// first attempt is held just past its rollback (a synchronous sink at its
// EvAbort) while the clock moves on: Watermark passes its snapshot. Then every
// later attempt reads a and b, which the writer keeps equal, on both sides of
// several of the writer's commits, and never finds the version its snapshot
// needs reclaimed (an EvValidation from the snapshot read's restart).
func TestAbortedAttemptDoesNotPin(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	a, b := f.heap.New(f.cls), f.heap.New(f.cls)
	write := func(v uint64) {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(a, 0, v)
			tx.Write(b, 0, v)
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
	write(1)
	parked, resume := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	var stale atomic.Int64
	f.traceSink(func(ev trace.Event) {
		switch {
		case ev.Kind == trace.EvValidation:
			stale.Add(1)
		case ev.Kind == trace.EvAbort && held.CompareAndSwap(false, true):
			close(parked)
			<-resume
		}
	})
	const retries = 50
	var rv0 atomic.Uint64
	done := make(chan error, 1)
	go func() {
		done <- f.rt.Atomic(func(stx stmapi.Txn) error {
			tx := stx.(*Txn)
			if tx.Attempt() == 0 {
				rv0.Store(tx.RV)
			}
			x := tx.Read(a, 0)
			for start := f.rt.Clock.Load(); tx.Attempt() > 0 && f.rt.Clock.Load() < start+3; {
				runtime.Gosched() // let the writer commit over what was read
			}
			if y, x2 := tx.Read(b, 0), tx.Read(a, 0); y != x || x2 != x {
				t.Errorf("attempt %d at snapshot %d read a = %d, b = %d, a again = %d", tx.Attempt(), tx.RV, x, y, x2)
			}
			if tx.Attempt() < retries {
				tx.Retry()
			}
			return nil
		})
	}()
	<-parked
	for v := uint64(2); v < 10; v++ {
		write(v)
	}
	if w := f.rt.Watermark(); w <= rv0.Load() {
		t.Errorf("watermark %d with the clock at %d: an attempt waiting to retry still pins its snapshot %d", w, f.rt.Clock.Load(), rv0.Load())
	}
	close(resume)
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for v := uint64(10); !stop.Load(); v++ {
			write(v)
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	<-writerDone
	if n := stale.Load(); n != 0 {
		t.Errorf("%d snapshot reads found the version they needed reclaimed", n)
	}
	if s := f.rt.Stats(); s.VersionsLive != int64(chainLen(a)+chainLen(b)) {
		t.Errorf("VersionsLive = %d, a heap walk counts %d nodes", s.VersionsLive, chainLen(a)+chainLen(b))
	}
}

// parkSink is a commit sink whose first WaitDurable parks until resume is
// closed; every other returns at once.
type parkSink struct {
	seq            atomic.Uint64
	held           atomic.Bool
	parked, resume chan struct{}
}

func (s *parkSink) AppendRedo(_, _ uint64, _ []stmapi.RedoWrite) (uint64, error) {
	return s.seq.Add(1), nil
}

func (s *parkSink) WaitDurable(uint64) error {
	if s.held.CompareAndSwap(false, true) {
		close(s.parked)
		<-s.resume
	}
	return nil
}

// TestCommittedAttemptDoesNotPin: a committed transaction waiting for its redo
// record to be durable reads nothing more, so it holds no history back. A
// commits a write to a 4096-slot array and parks in the sink's WaitDurable;
// meanwhile the watermark passes A's snapshot, and of B's two commits to the
// array the second finds the head B's first left dead and rewrites it in
// place, where a pin at A's snapshot would have it push a fresh 4096-slot
// node over it.
func TestCommittedAttemptDoesNotPin(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	arr := f.heap.NewArray(4096, false)
	sink := &parkSink{parked: make(chan struct{}), resume: make(chan struct{})}
	f.rt.SetCommitSink(sink)
	var rvA atomic.Uint64
	done := make(chan error, 1)
	go func() {
		done <- f.rt.Atomic(func(stx stmapi.Txn) error {
			rvA.Store(stx.(*Txn).RV)
			stx.Write(arr, 0, 1)
			return nil
		})
	}()
	<-sink.parked
	write := func(slot int) {
		t.Helper()
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(arr, slot, tx.Read(arr, slot)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	if w := f.rt.Watermark(); w <= rvA.Load() {
		t.Errorf("watermark %d with the clock at %d: a committed transaction waiting on durability still pins its snapshot %d", w, f.rt.Clock.Load(), rvA.Load())
	}
	head := arr.MVHead.Load()
	write(2)
	if arr.MVHead.Load() != head || arr.MVLen != 1 {
		t.Errorf("B's second install: head replaced = %v, MVLen = %d; want the head rewritten in place and 1", arr.MVHead.Load() != head, arr.MVLen)
	}
	close(sink.resume)
	if err := <-done; err != nil {
		t.Errorf("A returned %v after its durability wait, want nil", err)
	}
	f.rt.SetCommitSink(nil)
}

// TestInPlaceRewriteLeavesFullImage: a head rewritten in place holds the whole
// image its commit overwrote, not only the slots that commit wrote. Each
// commit writes different slots of a 64-slot array, so the image a commit
// saves differs from the one already in the head in the slots the commit
// before it wrote. A reader begins between two commits; once the second has
// rewritten the head, the reader reads every slot off it, and each value must
// be the one the model history holds at the reader's snapshot.
func TestInPlaceRewriteLeavesFullImage(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	const slots, commits = 64, 200
	arr := f.heap.NewArray(slots, false)
	model := make([]uint64, slots)
	written := func(k int) []int { return []int{3 * k % slots, (3*k + 1) % slots, (7*k + 5) % slots} }
	commit := func(k int) {
		t.Helper()
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			for _, s := range written(k) {
				tx.Write(arr, s, uint64(k*slots+s))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, s := range written(k) {
			model[s] = uint64(k*slots + s)
		}
	}
	commit(0) // the array's first install allocates its node
	head := arr.MVHead.Load()
	for k := 1; k < commits; k++ {
		want := append([]uint64(nil), model...) // the state the reader's snapshot covers
		begun, release := make(chan struct{}), make(chan struct{})
		got := make(chan []uint64, 1)
		go func() {
			vals := make([]uint64, slots)
			_ = f.rt.AtomicRead(func(tx stmapi.Txn) error {
				close(begun)
				<-release
				for s := range vals {
					vals[s] = tx.Read(arr, s)
				}
				return nil
			})
			got <- vals // unpinned now: the next commit may rewrite the head again
		}()
		<-begun
		commit(k)
		if arr.MVHead.Load() != head || arr.MVLen != 1 {
			t.Fatalf("commit %d: head replaced or MVLen = %d, want the head rewritten in place and 1", k, arr.MVLen)
		}
		close(release)
		vals := <-got
		for s := range vals {
			if vals[s] != want[s] {
				t.Fatalf("commit %d: slot %d reads %d off the rewritten head, the model history holds %d", k, s, vals[s], want[s])
			}
		}
	}
}

// TestPinnedReaderSurvivesInstallPrune is TestGCPinnedByLongReader against
// pruning at install: a reader pinned at snapshot S keeps reading every
// object at its S value while writers push thousands of versions over them
// (each push prunes), and the chains shrink once it has finished. While it is
// pinned no node it can reach is ever written again: an install rewrites a
// head only when no live snapshot can need it (gc.go).
func TestPinnedReaderSurvivesInstallPrune(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	f.rt.gcEvery = 1 // every commit prunes against a fresh watermark
	const nObjs, writers, commits = 8, 3, 400
	objs := make([]*objmodel.Object, nObjs)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	writeAll := func(v func(i int) uint64) {
		t.Helper()
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			for i, o := range objs {
				tx.Write(o, 0, v(i))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	writeAll(func(i int) uint64 { return uint64(100 + i) })

	pinned := make(chan struct{})
	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		_ = f.rt.AtomicRead(func(stx stmapi.Txn) error {
			tx := stx.(*Txn)
			// Every node met so far on a path snapshotRead can take, as it
			// was when first met; all of them are compared again on every
			// pass, cut off the chain since or not.
			type image struct {
				ts   uint64
				vals [3]uint64
			}
			imageOf := func(n *objmodel.MVVersion) image {
				return image{n.TS.Load(), [3]uint64{n.Vals[0].Load(), n.Vals[1].Load(), n.Vals[2].Load()}}
			}
			seen := map[*objmodel.MVVersion]image{}
			for pass := 0; ; pass++ {
				last := stop.Load() // one full pass after the writers are done
				for i, o := range objs {
					if got := tx.Read(o, 0); got != uint64(100+i) {
						t.Errorf("pass %d: object %d reads %d at the pinned snapshot, want %d", pass, i, got, 100+i)
						return nil
					}
					for _, n := range reachable(o, tx.RV) {
						if _, met := seen[n]; !met {
							seen[n] = imageOf(n)
						}
					}
				}
				for n, was := range seen {
					if now := imageOf(n); now != was {
						t.Errorf("pass %d: node %p was %v when the pinned reader could first reach it, is %v now", pass, n, was, now)
						return nil
					}
				}
				if pass == 0 {
					close(pinned)
				}
				if last {
					return nil
				}
			}
		})
	}()
	<-pinned

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				a, b := objs[(g+i)%nObjs], objs[(g+i+3)%nObjs]
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(a, 0, tx.Read(a, 0)+1000)
					tx.Write(b, 0, tx.Read(b, 0)+1000)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-readerDone
	if _, longest := chainNodes(f.heap); longest <= 2 {
		t.Errorf("longest chain = %d while a reader pinned the history, want it kept", longest)
	}
	if n := f.rt.Stats().ReadOnlyAborts; n != 0 {
		t.Errorf("read-only aborts = %d, want 0", n)
	}

	// The pin is gone: the next install on each object drops the history,
	// and keeps the head it found for the image it saves.
	heads := make([]*objmodel.MVVersion, nObjs)
	for i, o := range objs {
		heads[i] = o.MVHead.Load()
	}
	writeAll(func(int) uint64 { return 0 })
	total, longest := chainNodes(f.heap)
	if longest != 1 {
		t.Errorf("longest chain = %d after the reader finished and one more install, want 1", longest)
	}
	for i, o := range objs {
		if o.MVHead.Load() != heads[i] {
			t.Errorf("object %d: the install after the reader finished allocated a head, want the dead one rewritten", i)
		}
	}
	if live := f.rt.Stats().VersionsLive; live != int64(total) {
		t.Errorf("VersionsLive = %d, a heap walk counts %d nodes", live, total)
	}
}

// TestSnapshotReadInlineVsChain drives a snapshot read into another commit's
// window, between its write version and its release, and checks the value
// read and whether the read waited, for snapshots on every side of the
// in-flight write version. Commit A has written 10 over 0 at version vA;
// commit B, in flight, writes 20. Before B's install the chain head is A's
// pre-image (timestamp 1); after it, B's (timestamp vA). In the last two
// cases every commit prunes against a fresh watermark, which vA is then under:
// B's install rewrites A's node in place, and the reader, whose snapshot the
// old timestamp and the new are both at or below, waits on either.
func TestSnapshotReadInlineVsChain(t *testing.T) {
	type when int
	const (
		beforeA   when = iota // rv < vA: older than the image B overwrites
		beforeB               // vA <= rv < B's write version
		inWindow              // rv == B's write version
		afterTick             // rv > B's write version (an unrelated commit ticked the clock)
	)
	cases := []struct {
		name        string
		begin       when
		afterInstal bool // probe at B's EvWriteBack, not its EvCommitPoint
		wantWait    bool
		want        uint64
		deadHead    bool // B finds the chain dead and rewrites its head
	}{
		// A chain node above rv is the one case that does not wait.
		{"rv below pre-image, after install", beforeA, true, false, 0, false},
		{"rv below pre-image, before install", beforeA, false, true, 0, false},
		{"rv below write version, after install", beforeB, true, true, 10, false},
		{"rv below write version, before install", beforeB, false, true, 10, false},
		{"rv equals write version, after install", inWindow, true, true, 20, false},
		{"rv equals write version, before install", inWindow, false, true, 20, false},
		{"rv above write version, after install", afterTick, true, true, 20, false},
		{"rv above write version, before install", afterTick, false, true, 20, false},
		{"dead head rewritten, rv below write version", beforeB, true, true, 10, true},
		{"dead head rewritten, rv equals write version", inWindow, true, true, 20, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var probe func()
			var rv, wvB uint64
			armed := false // only commit B is probed, and once
			at := trace.EvCommitPoint
			if c.afterInstal {
				at = trace.EvWriteBack
			}
			f := newFixture(t, stmapi.CommonConfig{})
			if c.deadHead {
				f.rt.gcEvery = 1
			}
			// The kind is tested first: the readers' events come from other
			// goroutines and must not touch armed.
			f.traceSink(func(ev trace.Event) {
				if ev.Kind == trace.EvCommitPoint && armed {
					wvB = ev.Ver // B's write version
				}
				if ev.Kind == at && armed {
					armed = false
					probe()
				}
			})
			o, other := f.heap.New(f.cls), f.heap.New(f.cls)
			write := func(o *objmodel.Object, v uint64) {
				t.Helper()
				if err := f.rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, v); return nil }); err != nil {
					t.Fatal(err)
				}
			}

			// reader begins a read-only transaction, reports its snapshot,
			// and reads o once released.
			type result struct{ rv, val uint64 }
			begun, release, res := make(chan uint64, 1), make(chan struct{}), make(chan result, 1)
			reader := func() {
				_ = f.rt.AtomicRead(func(stx stmapi.Txn) error {
					tx := stx.(*Txn)
					begun <- tx.RV
					<-release
					res <- result{tx.RV, tx.Read(o, 0)}
					return nil
				})
			}
			waited := false
			probe = func() {
				switch c.begin {
				case inWindow:
					go reader()
					rv = <-begun
				case afterTick:
					write(other, 1)
					go reader()
					rv = <-begun
				}
				close(release)
				select {
				case r := <-res:
					res <- r
				case <-time.After(30 * time.Millisecond):
					waited = true // still parked behind B's record, which this sink is holding
				}
			}

			if c.begin == beforeA {
				go reader()
				rv = <-begun
			}
			write(o, 10) // commit A
			if c.begin == beforeB {
				go reader()
				rv = <-begun
			}
			headA := o.MVHead.Load()
			armed = true
			write(o, 20) // commit B, probed from inside
			r := <-res
			if c.deadHead && (o.MVHead.Load() != headA || headA.Prev() != nil || headA.Vals[0].Load() != 10) {
				t.Errorf("B's install left %d nodes, head image %d; want A's node rewritten with the image 10", chainLen(o), o.MVHead.Load().Vals[0].Load())
			}

			switch c.begin {
			case beforeA, beforeB:
				if rv >= wvB {
					t.Fatalf("snapshot %d is not below the write version %d", rv, wvB)
				}
			case inWindow:
				if rv != wvB {
					t.Fatalf("snapshot %d, want the in-flight write version %d", rv, wvB)
				}
			case afterTick:
				if rv <= wvB {
					t.Fatalf("snapshot %d is not above the write version %d", rv, wvB)
				}
			}
			if r.val != c.want {
				t.Errorf("read %d at snapshot %d (write version %d), want %d", r.val, rv, wvB, c.want)
			}
			if waited != c.wantWait {
				t.Errorf("read waited = %v, want %v", waited, c.wantWait)
			}
		})
	}
}
