// Package interproc implements the whole-program analyses behind `stmvet
// elide`: a CHA-style callgraph plus a flow-insensitive, Andersen-style
// points-to analysis over the type-checked packages vetload produces
// (constraints generated here, solved by internal/pta, the solver the
// toy-IR pipeline in internal/analysis also runs on), and the two
// barrier-elision clients ported from that pipeline to the Go embedding:
//
//   - nait (Figure 12): allocation sites whose points-to set is never read
//     or written inside any Atomic* body;
//   - threadlocal (§5.4): allocation sites whose objects provably never
//     cross goroutines.
//
// The result is an elide.Manifest keyed by stable "basename.go:line"
// allocation-site IDs, which internal/objmodel loads to decide each
// object's birth state (private for NAIT/TL sites — the Figure 10
// zero-synchronization fast paths).
//
// Deliberate conservatisms, all in the sound direction (a site is only
// elided when every approximation agrees it is safe):
//
//   - One context per function instead of the paper's Txn/NonTxn pair: a
//     function reachable from any Atomic* body has all its naked accesses
//     treated as transactional.
//   - The managed heap is field-insensitive: one points-to node per
//     allocation site covers every reference slot of every object born
//     there (the runtime elides whole sites, never single slots).
//   - Go struct fields and channels are treated as thread-shared storage,
//     like the toy analysis treats statics ("TL typically treats a static
//     field as thread-shared even if only one thread ever uses it").
//   - Calls into packages outside the analyzed set mark their arguments
//     thread-shared.
//   - Interface and func-value calls resolve by name/arity against every
//     compatible function in the program (CHA over-approximation).
package interproc

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/elide"
	"repro/internal/pta"
	"repro/internal/vetstm"
)

// Options configures a whole-program run.
type Options struct {
	// Tool is recorded in the manifest's Tool field.
	Tool string
}

// SiteKind discriminates the allocation intrinsics.
type SiteKind uint8

// Allocation intrinsics.
const (
	SiteNew SiteKind = iota
	SiteNewArray
	SiteNewPublic
)

// SiteInfo is the analysis view of one allocation site.
type SiteInfo struct {
	ID   string
	Pkg  string
	Func string
	File string
	Line int
	Kind SiteKind

	TxnRead  bool // some Atomic* body may read an object born here
	TxnWrite bool // some Atomic* body may write one
	Shared   bool // objects born here may cross goroutines

	Class  string // elide.Class* classification
	Reason string
}

// Stats summarizes a run.
type Stats struct {
	Packages     int
	Functions    int
	TxnReachable int // functions reachable from transactional code
	Sites        int
	Elidable     int // sites classified nait/tl/nait+tl
}

// Result is the full output of Analyze.
type Result struct {
	Manifest *elide.Manifest
	Sites    []*SiteInfo
	Stats    Stats
}

// Analyze runs the whole-program pipeline over the type-checked packages.
func Analyze(pkgs []*vetstm.Package, opts Options) (*Result, error) {
	if opts.Tool == "" {
		opts.Tool = "stmvet elide"
	}
	a := &analyzer{
		opts:      opts,
		pkgs:      pkgs,
		funcs:     make(map[string]*funcInfo),
		byNode:    make(map[ast.Node]*funcInfo),
		siteOf:    make(map[ast.Node]int),
		nodeByKey: make(map[string]pta.Node),
		nodeByObj: make(map[types.Object]pta.Node),
	}
	a.buildUniverse()
	a.collectSites()
	a.sol = pta.New(len(a.sites))
	a.mfield = make([]pta.Node, len(a.sites))
	for i := range a.mfield {
		a.mfield[i] = -1
	}
	// Result nodes must exist before generation: callers bind their
	// callees' return nodes regardless of generation order.
	for _, fi := range a.funcList {
		for i := range fi.retNodes {
			fi.retNodes[i] = a.sol.NewNode()
		}
	}
	for _, fi := range a.funcList {
		a.generate(fi)
	}
	a.bindDynamicCalls()
	a.sol.Solve()
	a.propagateReachTxn()
	a.markAccesses()
	shared := a.computeShared()
	return a.classify(shared), nil
}

// funcInfo is one function or function literal in the program.
type funcInfo struct {
	key       string
	name      string // display name
	pkg       *vetstm.Package
	decl      *ast.FuncDecl
	lit       *ast.FuncLit
	body      *ast.BlockStmt
	ftype     *ast.FuncType
	recv      types.Object   // receiver var, nil for functions/literals
	params    []types.Object // parameter vars in order (excluding receiver)
	retNodes  []pta.Node
	addrTaken bool
	hasTxnArg bool // signature carries a transaction handle
	reachTxn  bool
}

type callEdge struct {
	caller *funcInfo
	callee *funcInfo
	spawn  bool // go statement: the callee starts outside any transaction
	txn    bool // Atomic* body argument: the callee runs transactionally
}

type accessKind uint8

const (
	accTxn   accessKind = iota // tx.Read/Write: transactional by construction
	accNT                      // strong barrier: non-transactional access
	accNaked                   // LoadSlot/StoreSlot: context decides
)

type accessRec struct {
	fn    *funcInfo
	node  pta.Node
	store bool
	kind  accessKind
}

type siteRec struct {
	info *SiteInfo
}

// dynCall is a call through a func value (or an Atomic* body passed as a
// value), resolved against address-taken functions after generation.
type dynCall struct {
	caller   *funcInfo
	recvNode pta.Node // -1 if none
	argNodes []pta.Node
	resNodes []pta.Node
	nargs    int
	spawn    bool
	txn      bool
}

type analyzer struct {
	opts Options
	pkgs []*vetstm.Package

	funcs    map[string]*funcInfo
	funcList []*funcInfo
	byNode   map[ast.Node]*funcInfo

	sites  []*siteRec
	siteOf map[ast.Node]int

	// sol is the constraint graph. The managed heap is field-insensitive:
	// mfield maps a site to the one node standing for every ref-holding slot
	// of every object allocated there (-1 until a load or store needs it).
	// The runtime keys elision by allocation site, never by slot, so slot
	// precision would buy nothing.
	sol    *pta.Graph
	mfield []pta.Node

	nodeByKey map[string]pta.Node
	nodeByObj map[types.Object]pta.Node

	sharedRoots []pta.Node
	accesses    []accessRec
	calls       []callEdge
	dynCalls    []*dynCall
}

// ---- universe ----

func (a *analyzer) buildUniverse() {
	for _, pkg := range a.pkgs {
		for _, f := range pkg.Files {
			var stack []*funcInfo
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return true
					}
					fn, _ := pkg.Info.Defs[n.Name].(*types.Func)
					if fn == nil {
						return true
					}
					fi := &funcInfo{
						key:   fn.FullName(),
						name:  fn.FullName(),
						pkg:   pkg,
						decl:  n,
						body:  n.Body,
						ftype: n.Type,
					}
					a.registerFunc(fi, fn.Signature(), n.Recv)
					stack = append(stack, fi)
				case *ast.FuncLit:
					pos := pkg.Fset.Position(n.Pos())
					key := fmt.Sprintf("lit:%s:%s:%d:%d", pkg.PkgPath, filepath.Base(pos.Filename), pos.Line, pos.Column)
					name := key
					if len(stack) > 0 {
						name = stack[len(stack)-1].name + "$lit"
					}
					sig, _ := pkg.Info.Types[n].Type.(*types.Signature)
					fi := &funcInfo{
						key:   key,
						name:  name,
						pkg:   pkg,
						lit:   n,
						body:  n.Body,
						ftype: n.Type,
					}
					a.registerFunc(fi, sig, nil)
					stack = append(stack, fi)
				}
				return true
			})
			_ = stack
		}
	}
}

func (a *analyzer) registerFunc(fi *funcInfo, sig *types.Signature, recv *ast.FieldList) {
	info := fi.pkg.Info
	if recv != nil && len(recv.List) > 0 && len(recv.List[0].Names) > 0 {
		fi.recv = info.Defs[recv.List[0].Names[0]]
		if fi.recv != nil && vetstm.IsTxnType(fi.recv.Type()) {
			// Methods on a transaction handle run transactionally.
			fi.hasTxnArg = true
		}
	}
	if fi.ftype.Params != nil {
		for _, field := range fi.ftype.Params.List {
			if len(field.Names) == 0 {
				fi.params = append(fi.params, nil) // unnamed: unbound
				continue
			}
			for _, name := range field.Names {
				obj := info.Defs[name]
				fi.params = append(fi.params, obj)
				if obj != nil && vetstm.IsTxnType(obj.Type()) {
					fi.hasTxnArg = true
				}
			}
		}
	}
	if sig != nil {
		for i := 0; i < sig.Results().Len(); i++ {
			fi.retNodes = append(fi.retNodes, -1) // real nodes allocated in Analyze
		}
	}
	a.funcs[fi.key] = fi
	a.funcList = append(a.funcList, fi)
	a.byNode[nodeOf(fi)] = fi
}

func nodeOf(fi *funcInfo) ast.Node {
	if fi.decl != nil {
		return fi.decl
	}
	return fi.lit
}

// collectSites pre-scans every file for allocation intrinsics so the
// points-to universe is known before constraint generation.
func (a *analyzer) collectSites() {
	for _, pkg := range a.pkgs {
		for _, f := range pkg.Files {
			var enclosing []*funcInfo
			ast.Inspect(f, func(n ast.Node) bool {
				if fi, ok := a.byNode[n]; ok {
					enclosing = append(enclosing, fi)
					return true
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, ok := allocKind(pkg.Info, call)
				if !ok {
					return true
				}
				pos := pkg.Fset.Position(call.Pos())
				fnName := "<init>"
				// The innermost enclosing function whose span contains the call.
				for i := len(enclosing) - 1; i >= 0; i-- {
					fn := enclosing[i]
					if nodeOf(fn).Pos() <= call.Pos() && call.End() <= nodeOf(fn).End() {
						fnName = fn.name
						break
					}
				}
				base := filepath.Base(pos.Filename)
				si := &SiteInfo{
					ID:   elide.SiteID(base, pos.Line),
					Pkg:  pkg.PkgPath,
					Func: fnName,
					File: base,
					Line: pos.Line,
					Kind: kind,
				}
				a.siteOf[call] = len(a.sites)
				a.sites = append(a.sites, &siteRec{info: si})
				return true
			})
		}
	}
}

// allocKind recognizes the heap-allocation intrinsics.
func allocKind(info *types.Info, call *ast.CallExpr) (SiteKind, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || !vetstm.PathHasTail(fn.Pkg().Path(), vetstm.PkgObjModel) {
		return 0, false
	}
	if recv := fn.Signature().Recv(); recv == nil || !namedIs(recv.Type(), "Heap") {
		return 0, false
	}
	switch fn.Name() {
	case "New":
		return SiteNew, true
	case "NewArray":
		return SiteNewArray, true
	case "NewPublic":
		return SiteNewPublic, true
	}
	return 0, false
}

// ---- the managed heap ----

func (a *analyzer) mfieldNode(site int) pta.Node {
	if a.mfield[site] < 0 {
		a.mfield[site] = a.sol.NewNode()
	}
	return a.mfield[site]
}

// addLoad states dst ⊇ mfield(site) for every site in pts(base).
func (a *analyzer) addLoad(base, dst pta.Node) {
	a.sol.Each(base, func(site int) { a.sol.Copy(a.mfieldNode(site), dst) })
}

// addStore states mfield(site) ⊇ src for every site in pts(base).
func (a *analyzer) addStore(base, src pta.Node) {
	a.sol.Each(base, func(site int) { a.sol.Copy(src, a.mfieldNode(site)) })
}

// ---- reachTxn propagation ----

func (a *analyzer) propagateReachTxn() {
	var work []*funcInfo
	seed := func(fi *funcInfo) {
		if fi != nil && !fi.reachTxn {
			fi.reachTxn = true
			work = append(work, fi)
		}
	}
	for _, fi := range a.funcList {
		if fi.hasTxnArg {
			seed(fi)
		}
	}
	for _, e := range a.calls {
		if e.txn {
			seed(e.callee)
		}
	}
	// Successor lists over the static callgraph; spawn edges reset the
	// context (a spawned goroutine starts outside any transaction).
	succ := make(map[*funcInfo][]*funcInfo)
	for _, e := range a.calls {
		if !e.spawn {
			succ[e.caller] = append(succ[e.caller], e.callee)
		}
	}
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range succ[fi] {
			seed(callee)
		}
	}
}

// markAccesses folds the recorded access expressions into per-site
// transactional-access facts.
func (a *analyzer) markAccesses() {
	for _, rec := range a.accesses {
		isTxn := rec.kind == accTxn || (rec.fn != nil && rec.fn.reachTxn)
		if rec.node < 0 || !isTxn {
			continue
		}
		a.sol.PointsTo(rec.node).ForEach(func(site int) {
			si := a.sites[site].info
			if rec.store {
				si.TxnWrite = true
			} else {
				si.TxnRead = true
			}
		})
	}
}

// computeShared is the TL analysis (§5.4): a site is thread-shared if its
// objects are reachable from a shared root (globals, channels, Go struct
// fields, spawn arguments and captures, external-call escapes, public-born
// objects), transitively through managed reference slots.
func (a *analyzer) computeShared() pta.Set {
	roots := pta.NewSet(len(a.sites))
	for _, n := range a.sharedRoots {
		a.sol.PointsTo(n).ForEach(func(site int) { roots.Add(site) })
	}
	for i, s := range a.sites {
		if s.info.Kind == SiteNewPublic {
			roots.Add(i)
		}
	}
	return a.sol.Closure(roots, func(site int) []pta.Node {
		if mf := a.mfield[site]; mf >= 0 {
			return []pta.Node{mf}
		}
		return nil
	})
}

// classify derives the per-site class and assembles the manifest.
func (a *analyzer) classify(shared pta.Set) *Result {
	res := &Result{Sites: make([]*SiteInfo, 0, len(a.sites))}
	m := &elide.Manifest{Version: elide.Version, Tool: a.opts.Tool}
	for _, pkg := range a.pkgs {
		m.Packages = append(m.Packages, pkg.PkgPath)
	}
	sort.Strings(m.Packages)
	res.Stats.Packages = len(a.pkgs)
	res.Stats.Functions = len(a.funcList)
	for _, fi := range a.funcList {
		if fi.reachTxn {
			res.Stats.TxnReachable++
		}
	}
	for i, s := range a.sites {
		si := s.info
		si.Shared = shared.Has(i)
		txn := si.TxnRead || si.TxnWrite
		switch {
		case si.Kind == SiteNewPublic:
			si.Class = elide.ClassMixed
			si.Reason = "public-born (NewPublic)"
		case !txn && !si.Shared:
			si.Class = elide.ClassNAITTL
			si.Reason = "no transactional access; never crosses goroutines"
		case !txn:
			si.Class = elide.ClassNAIT
			si.Reason = "no transactional access (crosses goroutines; publication re-protects)"
		case !si.Shared:
			si.Class = elide.ClassTL
			si.Reason = "never crosses goroutines (transactional access is single-threaded)"
		default:
			si.Class = elide.ClassMixed
			si.Reason = "transactional access on a thread-shared object"
		}
		res.Sites = append(res.Sites, si)
		if si.Kind == SiteNewPublic {
			continue // NewPublic forces shared birth; never in the manifest
		}
		entry := elide.Site{
			ID:     si.ID,
			Pkg:    si.Pkg,
			Func:   si.Func,
			File:   si.File,
			Line:   si.Line,
			Class:  si.Class,
			Reason: si.Reason,
		}
		if elide.Elidable(si.Class) {
			res.Stats.Elidable++
		}
		m.Sites = append(m.Sites, entry)
	}
	res.Stats.Sites = len(a.sites)
	m.Sort()
	res.Manifest = m
	sort.Slice(res.Sites, func(i, j int) bool {
		x, y := res.Sites[i], res.Sites[j]
		if x.File != y.File {
			return x.File < y.File
		}
		return x.Line < y.Line
	})
	return res
}

// ---- small type helpers (the STM package and type tables are vetstm's) ----

// namedIs reports whether t (through pointers and aliases) is a named type
// with the given name.
func namedIs(t types.Type, name string) bool {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == name
}

// calleeFunc resolves the *types.Func a call invokes, or nil for dynamic
// calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
