package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockSafe runs a forward dataflow over every function's CFG tracking
// the set of sync.Mutex/sync.RWMutex locks held at each program point:
//
//   - every Lock must reach an Unlock on all paths out of the
//     function, counting a deferred Unlock (which also covers the
//     panic exits) as releasing;
//   - no blocking operation may execute while a lock is held: channel
//     sends and receives, selects without a default, time.Sleep,
//     WaitGroup.Wait, direct net dials/reads/writes/accepts, and
//     Run/Solve-family entry points (the repo's long-running calls).
//
// The blocking set is deliberately narrow and intra-procedural: file
// IO, Close, and same-package wrapper methods are not in it, so
// designs that intentionally serialize IO under a mutex (a writer
// that holds its lock across a file write and Close) stay legal while
// holding a lock across a solver run or a channel operation is
// flagged.
//
// Held locks are a may-set (union at joins: held on some path) so a
// leak on any one path is caught. Each held lock carries its own
// pending-deferred-unlock flag, joined by intersection per key: a
// path that holds the lock without the defer still leaks even when
// another path registered one, while a path that never took the lock
// cannot veto the defer on the path that did.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "every mutex Lock reaches an Unlock on all paths (deferred " +
		"unlocks count), and no channel, sleep, Wait, net, or Run/Solve-" +
		"family call blocks while a lock is held",
	Run: runLockSafe,
}

// lockInfo is one held lock: where it was taken and whether a
// deferred unlock will release it on every exit from here on.
type lockInfo struct {
	pos      token.Pos
	deferred bool
}

// lockState is the dataflow lattice element: the locks that may be
// held at a program point.
type lockState struct {
	held map[string]lockInfo
}

func runLockSafe(pass *Pass) {
	for _, file := range pass.Files() {
		// Every function body — declarations and literals alike — is
		// analyzed independently with an empty entry state. Literals
		// are found by walking the file, not the CFG: CFG nodes never
		// contain nested function bodies.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lockSafeFunc(pass, fd.Body)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				lockSafeFunc(pass, fl.Body)
			}
			return true
		})
	}
}

// lockSafeFunc analyzes one function body. Findings are collected in
// a set keyed by position+message (the transfer function reruns under
// fixpoint iteration) and reported in source order afterwards.
func lockSafeFunc(pass *Pass, body *ast.BlockStmt) {
	g := buildCFG(body)
	findings := map[token.Pos]string{}

	ops := flowOps[lockState]{
		Clone: cloneLockState,
		Join:  joinLockState,
		Equal: equalLockState,
		Transfer: func(s lockState, n ast.Node) lockState {
			return lockTransfer(pass, s, n, findings)
		},
	}
	in, reached := forwardFlow(g, lockState{held: map[string]lockInfo{}}, ops)

	// Exit check: a lock possibly held at function exit without a
	// deferred unlock escaped some path.
	if reached[g.exit.index] {
		for key, info := range in[g.exit.index].held {
			if !info.deferred {
				findings[info.pos] = fmt.Sprintf(
					"%s.Lock() is not released on every path: add an Unlock or defer the Unlock", key)
			}
		}
	}

	positions := make([]token.Pos, 0, len(findings))
	for pos := range findings {
		positions = append(positions, pos)
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	for _, pos := range positions {
		pass.Reportf(pos, "%s", findings[pos])
	}
}

func cloneLockState(s lockState) lockState {
	c := lockState{held: make(map[string]lockInfo, len(s.held))}
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// joinLockState unions held locks (may-analysis, keeping the earliest
// Lock position for deterministic reports). The deferred flag joins
// per key by intersection: it survives only when every path holding
// the lock registered the defer. It mutates and returns a, which is
// always a fresh clone.
func joinLockState(a, b lockState) lockState {
	for k, bi := range b.held {
		ai, ok := a.held[k]
		if !ok {
			a.held[k] = bi
			continue
		}
		if bi.pos < ai.pos {
			ai.pos = bi.pos
		}
		ai.deferred = ai.deferred && bi.deferred
		a.held[k] = ai
	}
	return a
}

func equalLockState(a, b lockState) bool {
	if len(a.held) != len(b.held) {
		return false
	}
	for k, v := range a.held {
		if w, ok := b.held[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// lockTransfer applies one CFG node to the lock state, recording
// blocking-while-held findings as it goes.
func lockTransfer(pass *Pass, s lockState, n ast.Node, findings map[token.Pos]string) lockState {
	switch n := n.(type) {
	case *ast.SelectStmt:
		// Kept whole by the CFG contract: one blocking point unless a
		// default clause makes it non-blocking. Never traversed.
		if !selectHasDefault(n) {
			reportBlocked(s, n.Pos(), "select without default", findings)
		}
		return s

	case *ast.DeferStmt:
		// A deferred unlock (direct, or inside a deferred closure)
		// releases the lock on every exit, including panics.
		for _, key := range deferredUnlockKeys(pass, n.Call) {
			if info, ok := s.held[key]; ok {
				info.deferred = true
				s.held[key] = info
			}
		}
		return s

	case *ast.GoStmt:
		// The goroutine body runs concurrently; the launch itself does
		// not block. Argument evaluation is synchronous but loads only.
		return s

	case *ast.SendStmt:
		reportBlocked(s, n.Arrow, "channel send", findings)
		ast.Inspect(n.Chan, func(m ast.Node) bool { return lockScan(pass, s, m, findings) })
		ast.Inspect(n.Value, func(m ast.Node) bool { return lockScan(pass, s, m, findings) })
		return s
	}

	ast.Inspect(n, func(m ast.Node) bool { return lockScan(pass, s, m, findings) })
	return s
}

// lockScan inspects one sub-node during transfer: lock/unlock calls
// mutate the state, blocking operations report against it. Nested
// function literals are skipped — they execute at another time and
// are analyzed as their own functions.
func lockScan(pass *Pass, s lockState, m ast.Node, findings map[token.Pos]string) bool {
	switch m := m.(type) {
	case *ast.FuncLit:
		return false
	case *ast.UnaryExpr:
		if m.Op == token.ARROW {
			reportBlocked(s, m.OpPos, "channel receive", findings)
		}
	case *ast.SendStmt:
		reportBlocked(s, m.Arrow, "channel send", findings)
	case *ast.CallExpr:
		if key, op, ok := lockOp(pass, m); ok {
			switch op {
			case "Lock", "RLock":
				if _, dup := s.held[key]; !dup {
					s.held[key] = lockInfo{pos: m.Pos()}
				}
			case "Unlock", "RUnlock":
				delete(s.held, key)
			}
			return true
		}
		if desc, ok := blockingCall(pass, m); ok {
			reportBlocked(s, m.Pos(), desc, findings)
		}
	}
	return true
}

// reportBlocked records one blocking-while-held finding per held lock.
func reportBlocked(s lockState, pos token.Pos, what string, findings map[token.Pos]string) {
	if len(s.held) == 0 {
		return
	}
	keys := make([]string, 0, len(s.held))
	for k := range s.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	findings[pos] = fmt.Sprintf("%s may block while holding %s; release the lock first", what, keys[0])
}

// lockOp classifies call as Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex (directly or embedded), returning the
// canonical key of the lock expression. Locks whose receiver is not a
// stable selector chain (map entries, function results) are not
// tracked.
func lockOp(pass *Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, _ := pass.Info().Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	if name := obj.Name(); name != "Mutex" && name != "RWMutex" {
		return "", "", false
	}
	key, ok = lockKey(pass, sel.X)
	if !ok {
		return "", "", false
	}
	if op == "RLock" || op == "RUnlock" {
		key += " (read)"
	}
	return key, op, true
}

// lockKey canonicalizes the receiver expression of a lock operation
// into a selector-chain string rooted at a variable ("c.mu", "mu").
func lockKey(pass *Pass, e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.Info().Uses[e]
		if obj == nil {
			obj = pass.Info().Defs[e]
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return "", false
		}
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := lockKey(pass, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return lockKey(pass, e.X)
	case *ast.StarExpr:
		return lockKey(pass, e.X)
	}
	return "", false
}

// deferredUnlockKeys returns the lock keys released by a deferred
// call: `defer mu.Unlock()` directly, or any unlock inside a deferred
// closure body (`defer func() { ...; mu.Unlock() }()`).
func deferredUnlockKeys(pass *Pass, call *ast.CallExpr) []string {
	var keys []string
	if key, op, ok := lockOp(pass, call); ok && (op == "Unlock" || op == "RUnlock") {
		keys = append(keys, key)
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				if key, op, ok := lockOp(pass, c); ok && (op == "Unlock" || op == "RUnlock") {
					keys = append(keys, key)
				}
			}
			return true
		})
	}
	return keys
}

// selectHasDefault reports whether sel carries a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls in the narrow blocking set. The test
// is intra-procedural on purpose: wrapper methods one level down are
// not chased, so intentionally serialized IO under a lock stays out.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel {
		obj := pass.Info().Uses[sel.Sel]
		if obj != nil && obj.Pkg() != nil {
			switch path := obj.Pkg().Path(); {
			case path == "time" && obj.Name() == "Sleep":
				return "time.Sleep", true
			case path == "net" && (obj.Name() == "Dial" || obj.Name() == "DialTimeout"):
				return "net." + obj.Name(), true
			}
			if fn, ok := obj.(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if named := namedOf(sig.Recv().Type()); named != nil {
						o := named.Obj()
						if o.Pkg() != nil {
							switch {
							case o.Pkg().Path() == "sync" && o.Name() == "WaitGroup" && fn.Name() == "Wait":
								return "WaitGroup.Wait", true
							case o.Pkg().Path() == "net" &&
								(fn.Name() == "Read" || fn.Name() == "Write" || fn.Name() == "Accept"):
								return "net " + fn.Name(), true
							}
						}
					}
				}
			}
		}
	}
	if name := calleeName(call); runFamily(name) {
		return name + " (Run/Solve-family entry point)", true
	}
	return "", false
}
