// Package dataflow is the flow-sensitive tier under the tradeoffvet
// analyzers: a dependency-free control-flow-graph builder over
// go/ast, plus the two solvers the analyzers share — reaching
// definitions (which assignments may reach a use) and must-reach-exit
// (does every path from a statement to the function's exit pass
// through a satisfying node). The PR-2 analyzers are syntactic and
// type-based; this tier is what lets spanleak see "End() on all
// paths", lockguard see "mutex held here", detorder see "sorted
// before encoded", and hotalloc see "defined without capacity when
// the loop appends".
//
// The graph is per-function and intraprocedural. Blocks hold
// ast.Nodes in execution order; composite statements (if, for, range,
// switch, select) contribute only their guard parts — Cond, Tag, the
// range operand — to the block that evaluates them, while their
// bodies get blocks of their own. Function literals are opaque: their
// bodies are not traversed (analyzers build separate graphs for
// them), matching x/tools/go/cfg.
//
// Panic calls and calls that never return (os.Exit, log.Fatal*,
// runtime.Goexit) terminate their block with no successor: a path
// that dies there never reaches Exit, so must-reach-exit treats it as
// vacuously satisfied, the same stance x/tools' lostcancel takes.
package dataflow

import (
	"go/ast"
	"go/token"
)

// A Block is a maximal straight-line sequence of nodes: execution
// enters at the first node and leaves at the last, branching only to
// the successor blocks.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "body", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	Exit  *Block
	// Blocks lists every block in creation order (deterministic for a
	// given source file, which the golden tests pin).
	Blocks []*Block
	// Defers collects every deferred call in the body, in source
	// order. Deferred calls run on every path that reaches Exit, so
	// the must-reach solver consults them before walking the graph.
	Defers []*ast.CallExpr

	nodeBlock map[ast.Node]*Block // simple node → the block holding it
	guard     map[ast.Stmt]*Block // composite stmt → block evaluating its guard
	follow    map[ast.Stmt]*Block // composite stmt → the block execution resumes in
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{
		nodeBlock: map[ast.Node]*Block{},
		guard:     map[ast.Stmt]*Block{},
		follow:    map[ast.Stmt]*Block{},
	}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = g.newBlock("entry")
	g.Exit = g.newBlock("exit")
	b.cur = g.Entry
	b.stmtList(body.List)
	b.jumpTo(g.Exit) // implicit return at the end of the body
	for _, pending := range b.gotos {
		if li := b.labels[pending.label]; li != nil && li.target != nil {
			b.edge(pending.from, li.target)
		}
	}
	return g
}

// FollowBlock returns the block where execution resumes after a
// composite statement completes (the loop exit, the if join), or nil.
func (g *Graph) FollowBlock(s ast.Stmt) *Block { return g.follow[s] }

func (g *Graph) newBlock(kind string) *Block {
	b := &Block{Index: len(g.Blocks), Kind: kind}
	g.Blocks = append(g.Blocks, b)
	return b
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the iteration order under which forward dataflow
// problems converge fastest.
func (g *Graph) ReversePostorder() []*Block {
	var post []*Block
	seen := make([]bool, len(g.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// labelInfo tracks one label's targets while building.
type labelInfo struct {
	target         *Block // the labeled statement's first block (goto target)
	breakTarget    *Block // break <label>
	continueTarget *Block // continue <label>
}

// pendingGoto is a goto seen before its label.
type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g   *Graph
	cur *Block

	// loop/switch nesting for unlabeled break and continue.
	breaks    []*Block
	continues []*Block

	labels map[string]*labelInfo
	gotos  []pendingGoto

	// label pending attachment to the next loop/switch statement.
	curLabel *labelInfo
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to. The current block
// becomes a fresh unreachable block, so statements after a return or
// break still get blocks (they just have no predecessors).
func (b *builder) jump(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.g.newBlock("unreachable")
}

// add records a simple node in the current block.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.nodeBlock[n] = b.cur
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminates reports whether call never returns: panic and the
// conventional process-enders.
func terminates(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		name := fun.Sel.Name
		switch {
		case pkg.Name == "os" && name == "Exit":
			return true
		case pkg.Name == "log" && (name == "Fatal" || name == "Fatalf" || name == "Fatalln" || name == "Panic" || name == "Panicf" || name == "Panicln"):
			return true
		case pkg.Name == "runtime" && name == "Goexit":
			return true
		}
	}
	return false
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.curLabel
	b.curLabel = nil

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		start := b.g.newBlock("label." + s.Label.Name)
		b.jumpTo(start)
		b.cur = start
		li.target = start
		b.curLabel = li
		b.stmt(s.Stmt)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.breakTarget != nil {
					b.jump(li.breakTarget)
					return
				}
			} else if n := len(b.breaks); n > 0 {
				b.jump(b.breaks[n-1])
				return
			}
			b.cur = b.g.newBlock("unreachable")
		case token.CONTINUE:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.continueTarget != nil {
					b.jump(li.continueTarget)
					return
				}
			} else if n := len(b.continues); n > 0 {
				b.jump(b.continues[n-1])
				return
			}
			b.cur = b.g.newBlock("unreachable")
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.cur = b.g.newBlock("unreachable")
		case token.FALLTHROUGH:
			// Handled by the switch builder: the clause block already
			// received an edge to the next clause.
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && terminates(call) {
			b.cur = b.g.newBlock("unreachable") // path dies here
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		b.g.guard[s] = b.cur
		condB := b.cur
		join := b.g.newBlock("if.join")
		b.g.follow[s] = join

		thenB := b.g.newBlock("if.then")
		b.edge(condB, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.jumpTo(join)

		if s.Else != nil {
			elseB := b.g.newBlock("if.else")
			b.edge(condB, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.jumpTo(join)
		} else {
			b.edge(condB, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.g.newBlock("for.head")
		b.jumpTo(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.g.nodeBlock[s.Cond] = head
		}
		b.g.guard[s] = head
		exit := b.g.newBlock("for.exit")
		b.g.follow[s] = exit
		var post *Block
		backEdge := head
		if s.Post != nil {
			post = b.g.newBlock("for.post")
			backEdge = post
		}

		body := b.g.newBlock("for.body")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit) // cond false
		}
		if label != nil {
			label.breakTarget, label.continueTarget = exit, backEdge
		}
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, backEdge)
		b.cur = body
		b.stmtList(s.Body.List)
		b.jumpTo(backEdge)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]

		if post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.jumpTo(head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		head := b.g.newBlock("range.head")
		b.jumpTo(head)
		head.Nodes = append(head.Nodes, s.X)
		b.g.nodeBlock[s.X] = head
		b.g.guard[s] = head
		exit := b.g.newBlock("range.exit")
		b.g.follow[s] = exit
		body := b.g.newBlock("range.body")
		b.edge(head, body)
		b.edge(head, exit) // range exhausted
		if label != nil {
			label.breakTarget, label.continueTarget = exit, head
		}
		b.breaks = append(b.breaks, exit)
		b.continues = append(b.continues, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.jumpTo(head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.g.guard[s] = b.cur
		b.switchClauses(s, s.Body.List, label, func(clause *ast.CaseClause, cb *Block) {
			for _, e := range clause.List {
				cb.Nodes = append(cb.Nodes, e)
				b.g.nodeBlock[e] = cb
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.g.guard[s] = b.cur
		b.switchClauses(s, s.Body.List, label, nil)

	case *ast.SelectStmt:
		entry := b.cur
		b.g.guard[s] = entry
		join := b.g.newBlock("select.join")
		b.g.follow[s] = join
		if label != nil {
			label.breakTarget = join
		}
		b.breaks = append(b.breaks, join)
		hasDefault := false
		for _, c := range s.Body.List {
			clause := c.(*ast.CommClause)
			cb := b.g.newBlock("select.case")
			b.edge(entry, cb)
			b.cur = cb
			if clause.Comm != nil {
				b.stmt(clause.Comm)
			} else {
				hasDefault = true
			}
			b.stmtList(clause.Body)
			b.jumpTo(join)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		_ = hasDefault // select blocks until a case is ready; every path goes through a clause
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no edge to join.
			b.cur = b.g.newBlock("unreachable")
			return
		}
		b.cur = join

	default:
		// Assign, Decl, IncDec, Send, Go, Empty, Expr...: straight-line.
		b.add(s)
	}
}

// switchClauses builds the clause blocks shared by switch and type
// switch. Clause list expressions are attributed via onClause (nil for
// type switches, whose case types carry no evaluation).
func (b *builder) switchClauses(s ast.Stmt, clauses []ast.Stmt, label *labelInfo, onClause func(*ast.CaseClause, *Block)) {
	entry := b.cur
	join := b.g.newBlock("switch.join")
	b.g.follow[s] = join
	if label != nil {
		label.breakTarget = join
	}
	b.breaks = append(b.breaks, join)

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		clause := c.(*ast.CaseClause)
		kind := "switch.case"
		if clause.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		blocks[i] = b.g.newBlock(kind)
		b.edge(entry, blocks[i])
		if onClause != nil {
			onClause(clause, blocks[i])
		}
	}
	if !hasDefault {
		b.edge(entry, join) // no case matched
	}
	for i, c := range clauses {
		clause := c.(*ast.CaseClause)
		b.cur = blocks[i]
		fallsThrough := false
		for _, st := range clause.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		b.stmtList(clause.Body)
		if fallsThrough && i+1 < len(blocks) {
			b.jumpTo(blocks[i+1])
		} else {
			b.jumpTo(join)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

// jumpTo adds an edge from the current block to `to` unless the
// current block is a fresh unreachable continuation (a block with no
// predecessors and no nodes created after a jump) — in that case the
// edge would fabricate a path that cannot execute. Unlike jump, the
// current block is left in place for the caller to replace.
func (b *builder) jumpTo(to *Block) {
	if b.cur.Kind == "unreachable" && len(b.cur.Preds) == 0 && len(b.cur.Nodes) == 0 {
		return
	}
	b.edge(b.cur, to)
}
