package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the statement-level control-flow-graph builder the
// dataflow analyzers (locksafe foremost) run on. It deliberately
// mirrors the shape of golang.org/x/tools/go/cfg without depending on
// it: a function body becomes basic blocks of straight-line nodes
// joined by successor/predecessor edges, with structured control flow
// (if/for/range/switch/select), labeled break/continue, goto,
// fallthrough, and terminating statements (return, panic, os.Exit)
// all lowered to edges.
//
// Blocks hold ast.Nodes rather than ast.Stmts because compound
// statements are decomposed: an if contributes its init statement and
// condition expression to the current block while its branches become
// separate blocks; a for contributes init/cond/post to the
// head/post blocks; a range contributes its operand. Two compound
// forms are kept whole, by contract with the analyzers:
//
//   - *ast.SelectStmt appears as a single node in the block where the
//     select blocks, so analyzers can treat it as one (possibly
//     blocking) program point; its communication clauses' bodies are
//     ordinary successor blocks. Analyzers must not traverse into it.
//   - *ast.DeferStmt and *ast.GoStmt appear whole; their function
//     literals run at another time, so analyzers must not traverse
//     into those either.

// cfgBlock is one basic block: a maximal straight-line node sequence.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// cfg is the control-flow graph of one function body. entry is always
// blocks[0] and exit blocks[1]; every return, panic, and fallen-off
// body end has an edge to exit, so a forward analysis sees the join
// of all terminating paths in exit's input state.
type cfg struct {
	blocks      []*cfgBlock
	entry, exit *cfgBlock
}

// cfgBuilder carries the in-progress graph plus the label/branch
// resolution state.
type cfgBuilder struct {
	g *cfg
	// branchTargets is a stack of enclosing breakable/continuable
	// constructs, innermost last.
	branchTargets []branchTarget
	// fallthroughs is a stack of fallthrough targets: the next case
	// body of each enclosing switch (nil for its last case).
	fallthroughs []*cfgBlock
	// labels maps label names to the block starting at the labeled
	// statement; gotos resolve against it after the walk.
	labels map[string]*cfgBlock
	gotos  []pendingGoto
}

// branchTarget records where break and continue jump for one
// enclosing for/range/switch/select statement.
type branchTarget struct {
	label      string    // enclosing label, "" when unlabeled
	breakTo    *cfgBlock // the after-block; nil for constructs break cannot target
	continueTo *cfgBlock // the post/head block; nil for switch/select
	isLoop     bool      // continue may target only loops
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG lowers body into basic blocks.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{
		g:      &cfg{},
		labels: map[string]*cfgBlock{},
	}
	entry := b.newBlock()
	exit := b.newBlock()
	b.g.entry, b.g.exit = entry, exit
	if end := b.stmtList(entry, body.List); end != nil {
		b.edge(end, exit)
	}
	for _, g := range b.gotos {
		if target := b.labels[g.label]; target != nil {
			b.edge(g.from, target)
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// edge records from → to once; duplicate edges collapse.
func (b *cfgBuilder) edge(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// stmtList lowers a statement sequence, returning the block that falls
// off its end, or nil when control cannot reach past it.
func (b *cfgBuilder) stmtList(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// stmt lowers one statement into the graph starting at cur (nil when
// the statement is unreachable; it still gets blocks, pred-less, so
// positions stay addressable) and returns the fall-through block, or
// nil when control cannot continue past s.
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt, label string) *cfgBlock {
	if cur == nil {
		cur = b.newBlock() // dead code: blocks with no predecessors
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		// A label opens a new block so gotos have a target.
		lb := b.newBlock()
		b.edge(cur, lb)
		b.labels[s.Label.Name] = lb
		return b.stmt(lb, s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.g.exit)
		return nil

	case *ast.BranchStmt:
		return b.branch(cur, s)

	case *ast.IfStmt:
		return b.ifStmt(cur, s)

	case *ast.ForStmt:
		return b.forStmt(cur, s, label)

	case *ast.RangeStmt:
		return b.rangeStmt(cur, s, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchBody(cur, s.Body, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchBody(cur, s.Body, label, false)

	case *ast.SelectStmt:
		return b.selectStmt(cur, s, label)

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if terminatesFlow(s.X) {
			b.edge(cur, b.g.exit)
			return nil
		}
		return cur

	default:
		// Assignments, declarations, sends, incdec, defer, go, empty:
		// straight-line nodes.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// branch lowers break/continue/goto/fallthrough.
func (b *cfgBuilder) branch(cur *cfgBlock, s *ast.BranchStmt) *cfgBlock {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.branchTargets) - 1; i >= 0; i-- {
			t := b.branchTargets[i]
			if name == "" || t.label == name {
				b.edge(cur, t.breakTo)
				return nil
			}
		}
	case token.CONTINUE:
		for i := len(b.branchTargets) - 1; i >= 0; i-- {
			t := b.branchTargets[i]
			if !t.isLoop {
				continue
			}
			if name == "" || t.label == name {
				b.edge(cur, t.continueTo)
				return nil
			}
		}
	case token.GOTO:
		b.gotos = append(b.gotos, pendingGoto{from: cur, label: name})
		return nil
	case token.FALLTHROUGH:
		if n := len(b.fallthroughs); n > 0 && b.fallthroughs[n-1] != nil {
			b.edge(cur, b.fallthroughs[n-1])
		}
		return nil
	}
	return nil // malformed branch in ill-typed code: treat as terminating
}

func (b *cfgBuilder) ifStmt(cur *cfgBlock, s *ast.IfStmt) *cfgBlock {
	if s.Init != nil {
		cur.nodes = append(cur.nodes, s.Init)
	}
	cur.nodes = append(cur.nodes, s.Cond)
	after := b.newBlock()
	then := b.newBlock()
	b.edge(cur, then)
	if end := b.stmtList(then, s.Body.List); end != nil {
		b.edge(end, after)
	}
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cur, els)
		if end := b.stmt(els, s.Else, ""); end != nil {
			b.edge(end, after)
		}
	} else {
		b.edge(cur, after)
	}
	return after
}

func (b *cfgBuilder) forStmt(cur *cfgBlock, s *ast.ForStmt, label string) *cfgBlock {
	if s.Init != nil {
		cur.nodes = append(cur.nodes, s.Init)
	}
	head := b.newBlock()
	b.edge(cur, head)
	if s.Cond != nil {
		head.nodes = append(head.nodes, s.Cond)
	}
	body := b.newBlock()
	b.edge(head, body)
	after := b.newBlock()
	if s.Cond != nil {
		b.edge(head, after) // for {} without cond exits only via break
	}
	post := b.newBlock()
	if s.Post != nil {
		post.nodes = append(post.nodes, s.Post)
	}
	b.edge(post, head)
	b.branchTargets = append(b.branchTargets,
		branchTarget{label: label, breakTo: after, continueTo: post, isLoop: true})
	end := b.stmtList(body, s.Body.List)
	b.branchTargets = b.branchTargets[:len(b.branchTargets)-1]
	if end != nil {
		b.edge(end, post)
	}
	return after
}

func (b *cfgBuilder) rangeStmt(cur *cfgBlock, s *ast.RangeStmt, label string) *cfgBlock {
	head := b.newBlock()
	b.edge(cur, head)
	head.nodes = append(head.nodes, s.X)
	body := b.newBlock()
	b.edge(head, body)
	after := b.newBlock()
	b.edge(head, after)
	b.branchTargets = append(b.branchTargets,
		branchTarget{label: label, breakTo: after, continueTo: head, isLoop: true})
	end := b.stmtList(body, s.Body.List)
	b.branchTargets = b.branchTargets[:len(b.branchTargets)-1]
	if end != nil {
		b.edge(end, head)
	}
	return after
}

// switchBody lowers the case clauses of a switch or type switch.
// allowFallthrough distinguishes expression switches.
func (b *cfgBuilder) switchBody(cur *cfgBlock, body *ast.BlockStmt, label string, allowFallthrough bool) *cfgBlock {
	after := b.newBlock()
	b.branchTargets = append(b.branchTargets,
		branchTarget{label: label, breakTo: after})

	// Create every case's body block first so fallthrough can target
	// the lexically next case.
	var clauses []*ast.CaseClause
	var bodies []*cfgBlock
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		bb := b.newBlock()
		b.edge(cur, bb)
		for _, e := range cc.List {
			bb.nodes = append(bb.nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		bodies = append(bodies, bb)
	}
	if !hasDefault {
		b.edge(cur, after)
	}
	for i, cc := range clauses {
		if allowFallthrough {
			var next *cfgBlock
			if i+1 < len(bodies) {
				next = bodies[i+1]
			}
			b.fallthroughs = append(b.fallthroughs, next)
		}
		if end := b.stmtList(bodies[i], cc.Body); end != nil {
			b.edge(end, after)
		}
		if allowFallthrough {
			b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
		}
	}
	b.branchTargets = b.branchTargets[:len(b.branchTargets)-1]
	return after
}

func (b *cfgBuilder) selectStmt(cur *cfgBlock, s *ast.SelectStmt, label string) *cfgBlock {
	// The whole select is one node in cur — the (possibly blocking)
	// program point. Clause bodies are successor blocks.
	cur.nodes = append(cur.nodes, s)
	if len(s.Body.List) == 0 {
		return nil // select{} blocks forever
	}
	after := b.newBlock()
	b.branchTargets = append(b.branchTargets,
		branchTarget{label: label, breakTo: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		bb := b.newBlock()
		b.edge(cur, bb)
		if end := b.stmtList(bb, cc.Body); end != nil {
			b.edge(end, after)
		}
	}
	b.branchTargets = b.branchTargets[:len(b.branchTargets)-1]
	return after
}

// terminatesFlow reports whether the expression statement x never
// returns: panic(...), os.Exit(...), log.Fatal*(...), runtime.Goexit().
func terminatesFlow(x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fn.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fn.Sel.Name, "Fatal"):
			return true
		case pkg.Name == "runtime" && fn.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}

// dump renders the graph as one edge-list line per block, for tests
// and debugging: "0 -> 2 3" sorted by block index.
func (g *cfg) dump() string {
	var sb strings.Builder
	for _, blk := range g.blocks {
		succs := make([]int, 0, len(blk.succs))
		for _, s := range blk.succs {
			succs = append(succs, s.index)
		}
		sort.Ints(succs)
		fmt.Fprintf(&sb, "%d:", blk.index)
		for _, s := range succs {
			fmt.Fprintf(&sb, " %d", s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
