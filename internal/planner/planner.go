package planner

import (
	"errors"
	"fmt"
	"strings"

	"couchgo/internal/n1ql"
)

// ErrNoUsableIndex is returned when a query needs a scan but the
// keyspace has neither a qualifying secondary index nor a primary
// index — the real system's "no index available" planning error.
var ErrNoUsableIndex = errors.New("planner: no index available on keyspace (create a primary or secondary index)")

// ErrNoSuchKeyspace rejects queries over unknown buckets.
var ErrNoSuchKeyspace = errors.New("planner: keyspace not found")

// PlanSelect builds the execution plan for a SELECT.
func PlanSelect(sel *n1ql.Select, cat Catalog) (*SelectPlan, error) {
	p := &SelectPlan{
		Keyspace:   sel.Keyspace,
		Alias:      sel.Alias,
		Joins:      sel.Joins,
		Unnests:    sel.Unnests,
		Where:      sel.Where,
		GroupBy:    sel.GroupBy,
		Having:     sel.Having,
		Projection: sel.Projection,
		Raw:        sel.Raw,
		Distinct:   sel.Distinct,
		OrderBy:    sel.OrderBy,
		Limit:      sel.Limit,
		Offset:     sel.Offset,
	}
	if err := collectAggregates(p, sel); err != nil {
		return nil, err
	}
	if sel.Keyspace == "" {
		// FROM-less SELECT: a single empty row flows through the
		// pipeline (SELECT 1+1).
		return p, nil
	}
	if !cat.KeyspaceExists(sel.Keyspace) {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchKeyspace, sel.Keyspace)
	}

	// Access path 1 (§4.5.3 Keyscan): USE KEYS.
	if sel.UseKeys != nil {
		p.Scan = &KeyScan{Keys: sel.UseKeys}
		p.Fetch = true
		return p, nil
	}

	// Access paths 2 and 3: qualifying IndexScan, else PrimaryScan.
	conjuncts := n1ql.ConjunctsOf(sel.Where)
	best := chooseIndex(cat.Indexes(sel.Keyspace), conjuncts, sel)
	if best == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoUsableIndex, sel.Keyspace)
	}
	p.Scan = best.scan
	p.Fetch = !best.covering
	if best.covering {
		applyCoverRewrite(p, best)
	}
	if best.orderFromIndex {
		p.OrderFromIndex = true
	}
	return p, nil
}

// candidate scores one possible access path.
type candidate struct {
	info           IndexInfo
	scan           Scan
	span           Span
	eqKeys         int // number of leading equality keys
	hasRange       bool
	covering       bool
	orderFromIndex bool
	coverNames     []string
	coverIDName    string
	rewrites       map[string]string // canonical -> binding name
	alias          string
}

// chooseIndex picks the best access path: most leading equality keys,
// then a range beats none, then covering beats fetching, with the
// primary index as the fallback of last resort.
func chooseIndex(indexes []IndexInfo, conjuncts []n1ql.Expr, sel *n1ql.Select) *candidate {
	var best *candidate
	var primary *IndexInfo
	for i := range indexes {
		info := indexes[i]
		if !info.Built {
			continue
		}
		if info.IsPrimary && primary == nil {
			primary = &indexes[i]
		}
		c := sargIndex(info, conjuncts, sel)
		if c == nil {
			continue
		}
		if best == nil || betterCandidate(c, best) {
			best = c
		}
	}
	if best != nil {
		return best
	}
	if primary != nil {
		// PrimaryScan; meta().id predicates still restrict the span.
		c := sargIndex(*primary, conjuncts, sel)
		if c == nil {
			c = &candidate{info: *primary, span: Span{Exact: len(conjuncts) == 0}, alias: sel.Alias}
		}
		return &candidate{
			info:           c.info,
			scan:           &PrimaryScan{Index: primary.Name, Using: primary.Using, Span: c.span},
			span:           c.span,
			covering:       c.covering,
			coverNames:     c.coverNames,
			coverIDName:    c.coverIDName,
			rewrites:       c.rewrites,
			orderFromIndex: c.orderFromIndex,
			alias:          sel.Alias,
		}
	}
	return nil
}

func betterCandidate(a, b *candidate) bool {
	if a.eqKeys != b.eqKeys {
		return a.eqKeys > b.eqKeys
	}
	if a.hasRange != b.hasRange {
		return a.hasRange
	}
	if a.covering != b.covering {
		return a.covering
	}
	// Prefer secondary over primary when otherwise equal.
	if a.info.IsPrimary != b.info.IsPrimary {
		return !a.info.IsPrimary
	}
	return false
}

// sargIndex determines whether the index qualifies for the query and
// builds its scan span ("sargable": search-argument-able).
func sargIndex(info IndexInfo, conjuncts []n1ql.Expr, sel *n1ql.Select) *candidate {
	alias := sel.Alias
	// A partial index applies only when its predicate appears verbatim
	// among the query's conjuncts (simple but sound implication).
	if info.WhereCanonical != "" {
		found := false
		for _, cj := range conjuncts {
			if canonicalOf(cj, alias) == info.WhereCanonical {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	if len(info.SecCanonical) == 0 {
		return nil
	}

	// Match conjuncts against the leading index keys, position by
	// position: equalities extend the prefix; the first range stops it.
	c := &candidate{info: info, alias: alias}
	var equals []n1ql.Expr
	used := make([]bool, len(conjuncts))
	highOnly := false
	for pos := 0; pos < len(info.SecCanonical); pos++ {
		m := matchKey(info.SecCanonical[pos], conjuncts, alias, info.IsArray && pos == 0)
		for _, i := range m.used {
			used[i] = true
		}
		if m.eq != nil {
			equals = append(equals, m.eq)
			continue
		}
		if m.lo != nil || m.hi != nil {
			c.hasRange = true
			highOnly = m.lo == nil
			c.span.Low, c.span.LowIncl = rangeBound(equals, m.lo, m.loIncl)
			c.span.High, c.span.HighIncl = rangeBound(equals, m.hi, m.hiIncl)
		}
		break
	}
	c.eqKeys = len(equals)
	if len(equals) == len(info.SecCanonical) && len(equals) > 0 {
		c.span = Span{Equal: equals}
	} else if len(equals) > 0 && !c.hasRange {
		// Equality on a leading prefix only: scan that prefix range.
		c.span = Span{Low: equals, High: equals, LowIncl: true, HighIncl: true}
		c.hasRange = true
	}
	c.span.Exact = exactSpan(info, used, highOnly)
	if c.eqKeys == 0 && !c.hasRange && !info.IsPrimary {
		// The index doesn't filter anything. It can still win as a
		// covering full-index scan; otherwise reject.
		if !tryCovering(c, sel) {
			return nil
		}
		c.scan = &IndexScan{Index: info.Name, Using: info.Using, Span: c.span, Covering: true}
		c.orderFromIndex = orderMatchesIndex(sel, info)
		return c
	}
	tryCovering(c, sel)
	c.orderFromIndex = orderMatchesIndex(sel, info)
	if info.IsPrimary {
		c.scan = &PrimaryScan{Index: info.Name, Using: info.Using, Span: c.span}
	} else {
		c.scan = &IndexScan{Index: info.Name, Using: info.Using, Span: c.span, Covering: c.covering}
	}
	return c
}

// exactSpan reports whether the span alone guarantees the WHERE
// clause: every conjunct was encoded into it in full, the index holds
// one entry per document (not an array index), and the range has a low
// bound unless the index is primary. A High-only range on a secondary
// index also admits entries whose key is NULL or MISSING, which the
// filter drops; primary keys are document IDs, always strings.
func exactSpan(info IndexInfo, used []bool, highOnly bool) bool {
	if info.IsArray || (highOnly && !info.IsPrimary) {
		return false
	}
	for _, u := range used {
		if !u {
			return false
		}
	}
	return true
}

// rangeBound extends the equality prefix with one end of a range. A
// range without that end leaves the prefix itself as an inclusive
// bound, or no bound at all when there is no prefix.
func rangeBound(equals []n1ql.Expr, end n1ql.Expr, incl bool) ([]n1ql.Expr, bool) {
	if end == nil {
		if len(equals) == 0 {
			return nil, false
		}
		return append([]n1ql.Expr{}, equals...), true
	}
	return append(append([]n1ql.Expr{}, equals...), end), incl
}

func canonicalOf(e n1ql.Expr, alias string) string {
	return n1ql.Formalize(e, alias).String()
}

// keyMatch is what the conjuncts say about one index key: an equality
// or range bounds, and which conjuncts the span encodes in full.
type keyMatch struct {
	eq, lo, hi     n1ql.Expr
	loIncl, hiIncl bool
	// used indexes the conjuncts taken whole. A conjunct that lands
	// only partly in the span (a second bound on the same key, or the
	// other end of a BETWEEN) is left out: it stays a filter.
	used []int
}

// matchKey scans the conjuncts for predicates sargable on one index
// key, returning an equality expression or range bounds.
func matchKey(keyCanon string, conjuncts []n1ql.Expr, alias string, arrayKey bool) keyMatch {
	var m keyMatch
	for i, cj := range conjuncts {
		if arrayKey {
			if e := matchArrayPredicate(keyCanon, cj, alias); e != nil {
				return keyMatch{eq: e, used: []int{i}}
			}
			continue
		}
		var lo, hi n1ql.Expr
		var loIncl, hiIncl bool
		switch t := cj.(type) {
		case *n1ql.Binary:
			constSide, op, ok := orientBinary(t, keyCanon, alias)
			if !ok {
				continue
			}
			switch op {
			case n1ql.OpEq:
				return keyMatch{eq: constSide, used: []int{i}}
			case n1ql.OpGt:
				lo = constSide
			case n1ql.OpGe:
				lo, loIncl = constSide, true
			case n1ql.OpLt:
				hi = constSide
			case n1ql.OpLe:
				hi, hiIncl = constSide, true
			}
		case *n1ql.Between:
			if t.Not || canonicalOf(t.Operand, alias) != keyCanon || !n1ql.IsConstant(t.Lo) || !n1ql.IsConstant(t.Hi) {
				continue
			}
			lo, hi, loIncl, hiIncl = t.Lo, t.Hi, true, true
		default:
			continue
		}
		whole := true
		if lo != nil {
			if m.lo == nil {
				m.lo, m.loIncl = lo, loIncl
			} else {
				whole = false
			}
		}
		if hi != nil {
			if m.hi == nil {
				m.hi, m.hiIncl = hi, hiIncl
			} else {
				whole = false
			}
		}
		if whole {
			m.used = append(m.used, i)
		}
	}
	return m
}

// orientBinary normalizes `key op const` / `const op key` comparisons.
func orientBinary(b *n1ql.Binary, keyCanon, alias string) (constSide n1ql.Expr, op n1ql.BinOp, ok bool) {
	flip := map[n1ql.BinOp]n1ql.BinOp{
		n1ql.OpEq: n1ql.OpEq, n1ql.OpLt: n1ql.OpGt, n1ql.OpLe: n1ql.OpGe,
		n1ql.OpGt: n1ql.OpLt, n1ql.OpGe: n1ql.OpLe,
	}
	if _, known := flip[b.Op]; !known {
		return nil, 0, false
	}
	if canonicalOf(b.LHS, alias) == keyCanon && n1ql.IsConstant(b.RHS) {
		return b.RHS, b.Op, true
	}
	if canonicalOf(b.RHS, alias) == keyCanon && n1ql.IsConstant(b.LHS) {
		return b.LHS, flip[b.Op], true
	}
	return nil, 0, false
}

// matchArrayPredicate matches `ANY v IN coll SATISFIES v = const END`
// against an array index whose key is `ARRAY v FOR v IN coll END`
// (§6.1.2).
func matchArrayPredicate(keyCanon string, cj n1ql.Expr, alias string) n1ql.Expr {
	cp, ok := cj.(*n1ql.CollPredicate)
	if !ok || cp.Kind != n1ql.CollAny {
		return nil
	}
	sat, ok := cp.Satisfies.(*n1ql.Binary)
	if !ok || sat.Op != n1ql.OpEq {
		return nil
	}
	var elemConst n1ql.Expr
	if id, isIdent := sat.LHS.(*n1ql.Ident); isIdent && id.Name == cp.Var && n1ql.IsConstant(sat.RHS) {
		elemConst = sat.RHS
	} else if id, isIdent := sat.RHS.(*n1ql.Ident); isIdent && id.Name == cp.Var && n1ql.IsConstant(sat.LHS) {
		elemConst = sat.LHS
	}
	if elemConst == nil {
		return nil
	}
	// The predicate's comprehension form must match the index key:
	// ARRAY <var> FOR <var> IN <coll> END.
	equivalent := &n1ql.ArrayComprehension{
		Mapper: &n1ql.Ident{Name: cp.Var},
		Var:    cp.Var,
		Coll:   cp.Coll,
	}
	if canonicalOf(equivalent, alias) != normalizeArrayVar(keyCanon, cp.Var) {
		return nil
	}
	return elemConst
}

// normalizeArrayVar rewrites the index key's bound variable name to the
// predicate's so the canonical comparison is alpha-insensitive.
func normalizeArrayVar(keyCanon, wantVar string) string {
	// keyCanon looks like "ARRAY x FOR x IN self.field END".
	const prefix = "ARRAY "
	if !strings.HasPrefix(keyCanon, prefix) {
		return keyCanon
	}
	rest := keyCanon[len(prefix):]
	sp := strings.Index(rest, " FOR ")
	if sp < 0 {
		return keyCanon
	}
	mapper := rest[:sp]
	rest2 := rest[sp+len(" FOR "):]
	sp2 := strings.Index(rest2, " IN ")
	if sp2 < 0 {
		return keyCanon
	}
	v := rest2[:sp2]
	if mapper != v {
		return keyCanon // only plain element indexes normalize
	}
	tail := rest2[sp2:]
	return prefix + wantVar + " FOR " + wantVar + tail
}

// orderMatchesIndex reports whether ORDER BY is exactly an ascending
// prefix of the index keys (index order can replace the Sort).
func orderMatchesIndex(sel *n1ql.Select, info IndexInfo) bool {
	if len(sel.OrderBy) == 0 || len(sel.OrderBy) > len(info.SecCanonical) {
		return false
	}
	for i, ot := range sel.OrderBy {
		if ot.Desc {
			return false
		}
		if canonicalOf(ot.Expr, sel.Alias) != info.SecCanonical[i] {
			return false
		}
	}
	// Joins/unnests multiply rows unpredictably; keep the Sort then.
	return len(sel.Joins) == 0 && len(sel.Unnests) == 0
}

// tryCovering checks §5.1.2: "a covering index includes all of the
// information needed to satisfy the query". On success it fills the
// candidate's cover bindings.
func tryCovering(c *candidate, sel *n1ql.Select) bool {
	if c.info.IsArray {
		return false // array index entries don't reconstruct the array
	}
	if len(sel.Joins) > 0 {
		return false // joined keyspaces need fetched documents
	}
	keys := map[string]int{}
	for i, k := range c.info.SecCanonical {
		keys[k] = i
	}
	// Every expression the query evaluates must be derivable.
	exprs := collectQueryExprs(sel)
	for _, e := range exprs {
		if !coveredExpr(e, c.alias, keys) {
			return false
		}
	}
	c.covering = true
	c.coverIDName = "$cover:id"
	for i := range c.info.SecCanonical {
		c.coverNames = append(c.coverNames, fmt.Sprintf("$cover:%d", i))
	}
	return true
}

func collectQueryExprs(sel *n1ql.Select) []n1ql.Expr {
	var out []n1ql.Expr
	for _, rt := range sel.Projection {
		if rt.Star {
			// SELECT * needs the whole document.
			out = append(out, &n1ql.Self{})
			continue
		}
		out = append(out, rt.Expr)
	}
	if sel.Where != nil {
		out = append(out, sel.Where)
	}
	for _, g := range sel.GroupBy {
		out = append(out, g)
	}
	if sel.Having != nil {
		out = append(out, sel.Having)
	}
	for _, ot := range sel.OrderBy {
		out = append(out, ot.Expr)
	}
	for _, u := range sel.Unnests {
		out = append(out, u.Expr)
	}
	return out
}

// coveredExpr reports whether e can be computed from the index keys
// plus meta().id.
func coveredExpr(e n1ql.Expr, alias string, keys map[string]int) bool {
	if e == nil {
		return true
	}
	canon := canonicalOf(e, alias)
	if _, ok := keys[canon]; ok {
		return true
	}
	if canon == "meta().id" {
		return true
	}
	if n1ql.IsConstant(e) {
		return true
	}
	switch t := e.(type) {
	case *n1ql.Binary:
		return coveredExpr(t.LHS, alias, keys) && coveredExpr(t.RHS, alias, keys)
	case *n1ql.Unary:
		return coveredExpr(t.Operand, alias, keys)
	case *n1ql.Is:
		return coveredExpr(t.Operand, alias, keys)
	case *n1ql.Between:
		return coveredExpr(t.Operand, alias, keys) && coveredExpr(t.Lo, alias, keys) && coveredExpr(t.Hi, alias, keys)
	case *n1ql.FuncCall:
		for _, a := range t.Args {
			if !coveredExpr(a, alias, keys) {
				return false
			}
		}
		return true
	case *n1ql.ArrayConstruct:
		for _, el := range t.Elems {
			if !coveredExpr(el, alias, keys) {
				return false
			}
		}
		return true
	case *n1ql.ObjectConstruct:
		for _, v := range t.Vals {
			if !coveredExpr(v, alias, keys) {
				return false
			}
		}
		return true
	case *n1ql.CaseExpr:
		if !coveredExpr(t.Operand, alias, keys) || !coveredExpr(t.Else, alias, keys) {
			return false
		}
		for i := range t.Whens {
			if !coveredExpr(t.Whens[i], alias, keys) || !coveredExpr(t.Thens[i], alias, keys) {
				return false
			}
		}
		return true
	}
	// Any other doc reference (bare field, comprehension, meta().cas)
	// requires the document.
	return false
}

// applyCoverRewrite rewrites the plan's expressions so covered
// sub-expressions read from scan bindings instead of the document.
func applyCoverRewrite(p *SelectPlan, c *candidate) {
	keys := map[string]int{}
	for i, k := range c.info.SecCanonical {
		keys[k] = i
	}
	rw := func(e n1ql.Expr) n1ql.Expr { return coverRewrite(e, c.alias, keys, c) }
	p.Where = rw(p.Where)
	p.Having = rw(p.Having)
	for i := range p.GroupBy {
		p.GroupBy[i] = rw(p.GroupBy[i])
	}
	proj := make([]n1ql.ResultTerm, len(p.Projection))
	copy(proj, p.Projection)
	for i := range proj {
		if !proj[i].Star {
			// Pin the derived result name before the rewrite hides the
			// original field reference behind a cover binding.
			if proj[i].Alias == "" {
				switch t := proj[i].Expr.(type) {
				case *n1ql.Ident:
					proj[i].Alias = t.Name
				case *n1ql.Field:
					proj[i].Alias = t.Name
				}
			}
			proj[i].Expr = rw(proj[i].Expr)
		}
	}
	p.Projection = proj
	ob := make([]n1ql.OrderTerm, len(p.OrderBy))
	copy(ob, p.OrderBy)
	for i := range ob {
		ob[i].Expr = rw(ob[i].Expr)
	}
	p.OrderBy = ob
	for i := range p.Aggregates {
		rewritten := rw(p.Aggregates[i])
		if fc, ok := rewritten.(*n1ql.FuncCall); ok {
			p.Aggregates[i] = fc
		}
	}
	p.CoverIDName = c.coverIDName
	p.CoverNames = c.coverNames
}

// coverRewrite replaces covered sub-expressions with Ident references
// to the scan's cover bindings.
func coverRewrite(e n1ql.Expr, alias string, keys map[string]int, c *candidate) n1ql.Expr {
	if e == nil {
		return nil
	}
	canon := canonicalOf(e, alias)
	if i, ok := keys[canon]; ok {
		return &n1ql.Ident{Name: fmt.Sprintf("$cover:%d", i)}
	}
	if canon == "meta().id" {
		return &n1ql.Ident{Name: "$cover:id"}
	}
	switch t := e.(type) {
	case *n1ql.Binary:
		return &n1ql.Binary{Op: t.Op, LHS: coverRewrite(t.LHS, alias, keys, c), RHS: coverRewrite(t.RHS, alias, keys, c)}
	case *n1ql.Unary:
		return &n1ql.Unary{Op: t.Op, Operand: coverRewrite(t.Operand, alias, keys, c)}
	case *n1ql.Is:
		return &n1ql.Is{Kind: t.Kind, Operand: coverRewrite(t.Operand, alias, keys, c)}
	case *n1ql.Between:
		return &n1ql.Between{
			Operand: coverRewrite(t.Operand, alias, keys, c),
			Lo:      coverRewrite(t.Lo, alias, keys, c),
			Hi:      coverRewrite(t.Hi, alias, keys, c),
			Not:     t.Not,
		}
	case *n1ql.FuncCall:
		out := &n1ql.FuncCall{Name: t.Name, Distinct: t.Distinct, Star: t.Star}
		for _, a := range t.Args {
			out.Args = append(out.Args, coverRewrite(a, alias, keys, c))
		}
		return out
	case *n1ql.ArrayConstruct:
		out := &n1ql.ArrayConstruct{}
		for _, el := range t.Elems {
			out.Elems = append(out.Elems, coverRewrite(el, alias, keys, c))
		}
		return out
	case *n1ql.ObjectConstruct:
		out := &n1ql.ObjectConstruct{Names: t.Names}
		for _, v := range t.Vals {
			out.Vals = append(out.Vals, coverRewrite(v, alias, keys, c))
		}
		return out
	case *n1ql.CaseExpr:
		out := &n1ql.CaseExpr{
			Operand: coverRewrite(t.Operand, alias, keys, c),
			Else:    coverRewrite(t.Else, alias, keys, c),
		}
		for i := range t.Whens {
			out.Whens = append(out.Whens, coverRewrite(t.Whens[i], alias, keys, c))
			out.Thens = append(out.Thens, coverRewrite(t.Thens[i], alias, keys, c))
		}
		return out
	}
	return e
}

// collectAggregates finds aggregate calls in projection/having/order
// and validates aggregate placement.
func collectAggregates(p *SelectPlan, sel *n1ql.Select) error {
	seen := map[string]*n1ql.FuncCall{}
	var order []*n1ql.FuncCall
	collect := func(e n1ql.Expr) {
		n1ql.WalkExpr(e, func(x n1ql.Expr) bool {
			if fc, ok := x.(*n1ql.FuncCall); ok && n1ql.IsAggregate(fc.Name) {
				if _, dup := seen[fc.String()]; !dup {
					seen[fc.String()] = fc
					order = append(order, fc)
				}
				return false
			}
			return true
		})
	}
	for _, rt := range sel.Projection {
		if !rt.Star {
			collect(rt.Expr)
		}
	}
	collect(sel.Having)
	for _, ot := range sel.OrderBy {
		collect(ot.Expr)
	}
	if sel.Where != nil && n1ql.HasAggregate(sel.Where) {
		return &PlanError{Part: "WHERE", Err: errors.New("aggregates are not allowed in WHERE")}
	}
	p.Aggregates = order
	return nil
}
