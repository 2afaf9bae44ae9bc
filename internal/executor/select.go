package executor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// row is one item flowing through the pipeline.
type row struct {
	ctx *n1ql.Context
	// projected and sortKey are filled late in the pipeline.
	projected any
	sortKey   []any
}

// ExecuteSelect runs a planned SELECT and returns the result values
// (one JSON value per row).
func ExecuteSelect(p *planner.SelectPlan, ds Datastore, opts Options) ([]any, error) {
	ex := &selectExec{p: p, ds: ds, opts: opts}
	return ex.run()
}

type selectExec struct {
	p    *planner.SelectPlan
	ds   Datastore
	opts Options
}

func (ex *selectExec) paramCtx() *n1ql.Context {
	return &n1ql.Context{Params: ex.opts.Params}
}

func (ex *selectExec) run() ([]any, error) {
	p := ex.p

	limit, offset, err := ex.limitOffset()
	if err != nil {
		return nil, err
	}

	rows, err := ex.scanAndAssemble(limit, offset)
	if err != nil {
		return nil, err
	}

	// Join / Nest / Unnest expand or restructure rows.
	for _, j := range p.Joins {
		t0 := time.Now()
		rows, err = ex.join(rows, j)
		if err != nil {
			return nil, err
		}
		ex.opts.Record("join", t0, len(rows))
	}
	for _, u := range p.Unnests {
		t0 := time.Now()
		rows, err = ex.unnest(rows, u)
		if err != nil {
			return nil, err
		}
		ex.opts.Record("unnest", t0, len(rows))
	}

	// Filter.
	if p.Where != nil {
		t0 := time.Now()
		rows, err = filterRows(rows, p.Where)
		if err != nil {
			return nil, err
		}
		ex.opts.Record("filter", t0, len(rows))
	}

	// Group / aggregate.
	if len(p.GroupBy) > 0 || len(p.Aggregates) > 0 {
		t0 := time.Now()
		rows, err = ex.group(rows)
		if err != nil {
			return nil, err
		}
		if p.Having != nil {
			having := aggRewrite(p.Having, p.Aggregates)
			rows, err = filterRows(rows, having)
			if err != nil {
				return nil, err
			}
		}
		ex.opts.Record("group", t0, len(rows))
	}

	// Offset / Limit go before Project when nothing after Project
	// needs every row: no Distinct, and no Sort of its own.
	trimFirst := !p.Distinct && (len(p.OrderBy) == 0 || p.OrderFromIndex)
	if trimFirst {
		rows = trimRows(rows, limit, offset)
	}

	// Project (and compute sort keys while contexts are still around).
	tProject := time.Now()
	if err := ex.project(rows); err != nil {
		return nil, err
	}

	// Distinct.
	if p.Distinct {
		rows = distinctRows(rows)
	}
	ex.opts.Record("project", tProject, len(rows))

	// Sort.
	if len(p.OrderBy) > 0 && !p.OrderFromIndex {
		tSort := time.Now()
		sort.SliceStable(rows, func(i, j int) bool {
			for k := range rows[i].sortKey {
				c := value.Compare(rows[i].sortKey[k], rows[j].sortKey[k])
				if c == 0 {
					continue
				}
				if ex.p.OrderBy[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		ex.opts.Record("sort", tSort, len(rows))
	}

	if !trimFirst {
		rows = trimRows(rows, limit, offset)
	}

	out := make([]any, len(rows))
	for i := range rows {
		out[i] = rows[i].projected
	}
	return out, nil
}

// trimRows applies OFFSET then LIMIT (-1 = no limit).
func trimRows(rows []row, limit, offset int) []row {
	if offset >= len(rows) {
		return nil
	}
	rows = rows[offset:]
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// limitOffset evaluates LIMIT/OFFSET expressions (-1 = no limit).
func (ex *selectExec) limitOffset() (limit, offset int, err error) {
	limit = -1
	if ex.p.Limit != nil {
		v, err := n1ql.Eval(ex.p.Limit, ex.paramCtx())
		if err != nil {
			return 0, 0, err
		}
		f, ok := value.AsNumber(v)
		if !ok || f < 0 {
			return 0, 0, fmt.Errorf("executor: LIMIT must be a non-negative number, got %v", v)
		}
		limit = int(f)
	}
	if ex.p.Offset != nil {
		v, err := n1ql.Eval(ex.p.Offset, ex.paramCtx())
		if err != nil {
			return 0, 0, err
		}
		f, ok := value.AsNumber(v)
		if !ok || f < 0 {
			return 0, 0, fmt.Errorf("executor: OFFSET must be a non-negative number, got %v", v)
		}
		offset = int(f)
	}
	return limit, offset, nil
}

// scanAndAssemble runs the access path and builds initial row contexts
// (including the parallel Fetch of Figure 11 when the scan does not
// cover the query).
func (ex *selectExec) scanAndAssemble(limit, offset int) ([]row, error) {
	p := ex.p
	if p.Scan == nil {
		// FROM-less SELECT: one empty row.
		ctx := &n1ql.Context{Bindings: map[string]any{}, Params: ex.opts.Params}
		return []row{{ctx: ctx}}, nil
	}

	tScan := time.Now()
	switch scan := p.Scan.(type) {
	case *planner.KeyScan:
		ids, err := ex.keyScanIDs(scan)
		if err != nil {
			return nil, err
		}
		ex.opts.Record("scan", tScan, len(ids))
		return ex.fetchRows(ids)
	case *planner.IndexScan:
		entries, err := ex.indexScan(scan.Index, scan.Using, scan.Span, scan.Reverse, limit, offset)
		if err != nil {
			return nil, err
		}
		ex.opts.Record("scan", tScan, len(entries))
		if scan.Covering {
			return ex.coverRows(entries), nil
		}
		ids := make([]string, len(entries))
		for i, e := range entries {
			ids[i] = e.ID
		}
		return ex.fetchRows(ids)
	case *planner.PrimaryScan:
		entries, err := ex.indexScan(scan.Index, scan.Using, scan.Span, false, limit, offset)
		if err != nil {
			return nil, err
		}
		ex.opts.Record("scan", tScan, len(entries))
		if !ex.p.Fetch {
			return ex.coverRows(entries), nil
		}
		ids := make([]string, len(entries))
		for i, e := range entries {
			ids[i] = e.ID
		}
		return ex.fetchRows(ids)
	}
	return nil, fmt.Errorf("executor: unknown scan %T", p.Scan)
}

func (ex *selectExec) keyScanIDs(scan *planner.KeyScan) ([]string, error) {
	v, err := n1ql.Eval(scan.Keys, ex.paramCtx())
	if err != nil {
		return nil, err
	}
	switch t := v.(type) {
	case string:
		return []string{t}, nil
	case []any:
		var ids []string
		for _, el := range t {
			if s, ok := el.(string); ok {
				ids = append(ids, s)
			}
		}
		return ids, nil
	}
	return nil, fmt.Errorf("executor: USE KEYS requires a string or array of strings, got %s", value.KindOf(v))
}

// indexScan evaluates the span and runs the scan, pushing LIMIT+OFFSET
// down when the plan allows it.
func (ex *selectExec) indexScan(index string, using n1ql.IndexUsing, span planner.Span, reverse bool, limit, offset int) ([]IndexEntry, error) {
	opts := IndexScanOpts{Reverse: reverse}
	evalAll := func(es []n1ql.Expr) ([]any, error) {
		out := make([]any, len(es))
		for i, e := range es {
			v, err := n1ql.Eval(e, ex.paramCtx())
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var err error
	if span.Equal != nil {
		if opts.EqualKey, err = evalAll(span.Equal); err != nil {
			return nil, err
		}
		opts.HasEqual = true
	} else {
		if span.Low != nil {
			if opts.Low, err = evalAll(span.Low); err != nil {
				return nil, err
			}
			opts.LowIncl = span.LowIncl
		}
		if span.High != nil {
			if opts.High, err = evalAll(span.High); err != nil {
				return nil, err
			}
			opts.HighIncl = span.HighIncl
		}
	}
	if ex.p.LimitPushable() {
		if limit == 0 {
			return nil, nil // IndexScanOpts.Limit 0 would mean "all"
		}
		opts.Limit = limit + offset
	}
	if ex.opts.Consistency == RequestPlus {
		opts.Wait = ex.ds.ConsistencyVector(ex.p.Keyspace)
	}
	return ex.ds.ScanIndex(ex.opts.Context(), ex.p.Keyspace, index, using, opts)
}

// coverRows builds rows straight from index entries (§5.1.2: "covered
// queries ... deliver better performance" by skipping the fetch).
func (ex *selectExec) coverRows(entries []IndexEntry) []row {
	tCover := time.Now()
	rows := make([]row, len(entries))
	for i, e := range entries {
		ctx := &n1ql.Context{
			Bindings: map[string]any{},
			Metas:    map[string]n1ql.Meta{ex.p.Alias: {ID: e.ID}},
			Params:   ex.opts.Params,
			Default:  ex.p.Alias,
		}
		ctx.Bind(ex.p.CoverIDName, e.ID)
		for k, name := range ex.p.CoverNames {
			if k < len(e.SecKey) {
				ctx.Bind(name, e.SecKey[k])
			} else {
				ctx.Bind(name, value.Missing)
			}
		}
		rows[i] = row{ctx: ctx}
	}
	ex.opts.Record("cover", tCover, len(rows))
	return rows
}

// fetchRows is the parallel Fetch operator: it retrieves documents by
// ID with a worker pool, preserving scan order. Missing IDs drop out.
func (ex *selectExec) fetchRows(ids []string) ([]row, error) {
	tFetch := time.Now()
	par := ex.opts.FetchParallelism
	if par <= 0 {
		par = 8
	}
	type slot struct {
		doc  any
		meta n1ql.Meta
		ok   bool
	}
	slots := make([]slot, len(ids))
	var wg sync.WaitGroup
	sem := make(chan struct{}, par)
	for i := range ids {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			doc, meta, err := ex.ds.Fetch(ex.opts.Context(), ex.p.Keyspace, ids[i])
			if err == nil {
				slots[i] = slot{doc: doc, meta: meta, ok: true}
			}
		}(i)
	}
	wg.Wait()
	rows := make([]row, 0, len(ids))
	for i := range slots {
		if !slots[i].ok {
			continue
		}
		ctx := &n1ql.Context{
			Bindings: map[string]any{ex.p.Alias: slots[i].doc},
			Metas:    map[string]n1ql.Meta{ex.p.Alias: slots[i].meta},
			Params:   ex.opts.Params,
			Default:  ex.p.Alias,
		}
		rows = append(rows, row{ctx: ctx})
	}
	ex.opts.Record("fetch", tFetch, len(rows))
	return rows, nil
}

// join is the nested-loop key join of §4.5.3: "for each of the
// qualifying documents from [the outer keyspace], a KEYSCAN will occur
// on [the inner] based on the key in the [outer] document." General
// (ON <cond>) joins divert to the analytics join path.
func (ex *selectExec) join(rows []row, j n1ql.JoinTerm) ([]row, error) {
	if j.OnCond != nil {
		return ex.generalJoin(rows, j)
	}
	var out []row
	for _, r := range rows {
		keysVal, err := n1ql.Eval(j.OnKeys, r.ctx)
		if err != nil {
			return nil, err
		}
		var ids []string
		switch t := keysVal.(type) {
		case string:
			ids = []string{t}
		case []any:
			for _, el := range t {
				if s, ok := el.(string); ok {
					ids = append(ids, s)
				}
			}
		}
		var docs []any
		var metas []n1ql.Meta
		for _, id := range ids {
			doc, meta, err := ex.ds.Fetch(ex.opts.Context(), j.Keyspace, id)
			if err != nil {
				continue
			}
			docs = append(docs, doc)
			metas = append(metas, meta)
		}
		if j.Nest {
			// NEST: "it produces a single result for each left-hand
			// input while its right-hand input is collected into an
			// array and nested".
			if len(docs) == 0 {
				if j.Kind == n1ql.JoinLeftOuter {
					nr := r
					nr.ctx = r.ctx.Child(j.Alias, value.Missing)
					out = append(out, nr)
				}
				continue
			}
			nr := r
			nr.ctx = r.ctx.Child(j.Alias, docs)
			out = append(out, nr)
			continue
		}
		// JOIN: one result per matched inner document.
		if len(docs) == 0 {
			if j.Kind == n1ql.JoinLeftOuter {
				nr := r
				nr.ctx = r.ctx.Child(j.Alias, value.Missing)
				out = append(out, nr)
			}
			continue
		}
		for i, doc := range docs {
			nr := r
			nr.ctx = r.ctx.Child(j.Alias, doc)
			nr.ctx.Metas = withMeta(r.ctx.Metas, j.Alias, metas[i])
			out = append(out, nr)
		}
	}
	return out, nil
}

func withMeta(m map[string]n1ql.Meta, alias string, meta n1ql.Meta) map[string]n1ql.Meta {
	out := make(map[string]n1ql.Meta, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	out[alias] = meta
	return out
}

// unnest flattens a nested array: "a join operation between a parent
// and a child object containing a nested array ... the parent object is
// repeated for each child array item."
func (ex *selectExec) unnest(rows []row, u n1ql.UnnestTerm) ([]row, error) {
	var out []row
	for _, r := range rows {
		v, err := n1ql.Eval(u.Expr, r.ctx)
		if err != nil {
			return nil, err
		}
		arr, ok := v.([]any)
		if !ok || len(arr) == 0 {
			if u.Kind == n1ql.JoinLeftOuter {
				nr := r
				nr.ctx = r.ctx.Child(u.Alias, value.Missing)
				out = append(out, nr)
			}
			continue
		}
		for _, el := range arr {
			nr := r
			nr.ctx = r.ctx.Child(u.Alias, el)
			out = append(out, nr)
		}
	}
	return out, nil
}

func filterRows(rows []row, cond n1ql.Expr) ([]row, error) {
	out := rows[:0]
	for _, r := range rows {
		v, err := n1ql.Eval(cond, r.ctx)
		if err != nil {
			return nil, err
		}
		if value.Truthy(v) {
			out = append(out, r)
		}
	}
	return out, nil
}

// group implements the Group operator: hash grouping on the GROUP BY
// keys with one Aggregator per aggregate call per group.
func (ex *selectExec) group(rows []row) ([]row, error) {
	p := ex.p
	type groupState struct {
		first *n1ql.Context
		aggs  []*n1ql.Aggregator
	}
	groups := map[string]*groupState{}
	var order []string
	for _, r := range rows {
		keyParts := make([]any, len(p.GroupBy))
		for i, g := range p.GroupBy {
			v, err := n1ql.Eval(g, r.ctx)
			if err != nil {
				return nil, err
			}
			keyParts[i] = v
		}
		key := string(value.EncodeKey(keyParts))
		gs, ok := groups[key]
		if !ok {
			gs = &groupState{first: r.ctx}
			for _, fc := range p.Aggregates {
				gs.aggs = append(gs.aggs, n1ql.NewAggregator(fc))
			}
			groups[key] = gs
			order = append(order, key)
		}
		for i, fc := range p.Aggregates {
			if fc.Star {
				gs.aggs[i].Add(true) // COUNT(*) counts rows
				continue
			}
			v, err := n1ql.Eval(fc.Args[0], r.ctx)
			if err != nil {
				return nil, err
			}
			gs.aggs[i].Add(v)
		}
	}
	// Aggregate-only query over zero rows still yields one row
	// (SELECT COUNT(*) ... on an empty set returns 0).
	if len(groups) == 0 && len(p.GroupBy) == 0 {
		gs := &groupState{first: &n1ql.Context{Bindings: map[string]any{}, Params: ex.opts.Params, Default: p.Alias}}
		for _, fc := range p.Aggregates {
			gs.aggs = append(gs.aggs, n1ql.NewAggregator(fc))
		}
		groups[""] = gs
		order = append(order, "")
	}
	var out []row
	for _, key := range order {
		gs := groups[key]
		ctx := gs.first
		for i, fc := range p.Aggregates {
			ctx = ctx.Child(aggName(fc), gs.aggs[i].Result())
		}
		out = append(out, row{ctx: ctx})
	}
	return out, nil
}

func aggName(fc *n1ql.FuncCall) string { return "$agg:" + fc.String() }

// aggRewrite replaces aggregate calls with references to the group's
// computed bindings.
func aggRewrite(e n1ql.Expr, aggs []*n1ql.FuncCall) n1ql.Expr {
	if e == nil {
		return nil
	}
	for _, fc := range aggs {
		if e.String() == fc.String() {
			return &n1ql.Ident{Name: aggName(fc)}
		}
	}
	switch t := e.(type) {
	case *n1ql.Binary:
		return &n1ql.Binary{Op: t.Op, LHS: aggRewrite(t.LHS, aggs), RHS: aggRewrite(t.RHS, aggs)}
	case *n1ql.Unary:
		return &n1ql.Unary{Op: t.Op, Operand: aggRewrite(t.Operand, aggs)}
	case *n1ql.Is:
		return &n1ql.Is{Kind: t.Kind, Operand: aggRewrite(t.Operand, aggs)}
	case *n1ql.FuncCall:
		out := &n1ql.FuncCall{Name: t.Name, Distinct: t.Distinct, Star: t.Star}
		for _, a := range t.Args {
			out.Args = append(out.Args, aggRewrite(a, aggs))
		}
		return out
	case *n1ql.CaseExpr:
		out := &n1ql.CaseExpr{Operand: aggRewrite(t.Operand, aggs), Else: aggRewrite(t.Else, aggs)}
		for i := range t.Whens {
			out.Whens = append(out.Whens, aggRewrite(t.Whens[i], aggs))
			out.Thens = append(out.Thens, aggRewrite(t.Thens[i], aggs))
		}
		return out
	}
	return e
}

// project fills each row's projected value and sort key. This is
// InitialProject + FinalProject: shrink to the referenced fields, then
// shape the result JSON.
func (ex *selectExec) project(rows []row) error {
	p := ex.p
	sortExprs := make([]n1ql.Expr, len(p.OrderBy))
	for i, ot := range p.OrderBy {
		sortExprs[i] = aggRewrite(ot.Expr, p.Aggregates)
	}
	projTerms := make([]n1ql.ResultTerm, len(p.Projection))
	copy(projTerms, p.Projection)
	for i := range projTerms {
		if !projTerms[i].Star {
			projTerms[i].Expr = aggRewrite(projTerms[i].Expr, p.Aggregates)
		}
	}
	for i := range rows {
		ctx := rows[i].ctx
		if p.Raw {
			v, err := n1ql.Eval(projTerms[0].Expr, ctx)
			if err != nil {
				return err
			}
			if value.IsMissing(v) {
				v = nil
			}
			rows[i].projected = v
		} else {
			obj := make(map[string]any)
			for ti, rt := range projTerms {
				if rt.Star {
					if err := projectStar(obj, rt, ctx); err != nil {
						return err
					}
					continue
				}
				v, err := n1ql.Eval(rt.Expr, ctx)
				if err != nil {
					return err
				}
				if value.IsMissing(v) {
					continue // MISSING projections are omitted
				}
				obj[resultName(rt, ti)] = v
			}
			rows[i].projected = obj
		}
		if len(sortExprs) > 0 && !p.OrderFromIndex {
			key := make([]any, len(sortExprs))
			for k, se := range sortExprs {
				v, err := n1ql.Eval(se, ctx)
				if err != nil {
					return err
				}
				key[k] = v
			}
			rows[i].sortKey = key
		}
	}
	return nil
}

// projectStar merges * or alias.* into the result object. Plain *
// yields {alias: document} per N1QL semantics; alias.* splices the
// document's own fields.
func projectStar(obj map[string]any, rt n1ql.ResultTerm, ctx *n1ql.Context) error {
	if rt.Expr == nil {
		// Plain *: every keyspace/join/unnest binding under its alias.
		// Internal bindings ($cover:…, $agg:…) are not part of *.
		for name, doc := range ctx.Bindings {
			if len(name) > 0 && name[0] == '$' {
				continue
			}
			if !value.IsMissing(doc) {
				obj[name] = doc
			}
		}
		return nil
	}
	v, err := n1ql.Eval(rt.Expr, ctx)
	if err != nil {
		return err
	}
	if m, ok := v.(map[string]any); ok {
		for k, f := range m {
			obj[k] = f
		}
	}
	return nil
}

// resultName derives a projection's field name: explicit alias, else
// the trailing path component, else $<position> (1-based).
func resultName(rt n1ql.ResultTerm, pos int) string {
	if rt.Alias != "" {
		return rt.Alias
	}
	switch t := rt.Expr.(type) {
	case *n1ql.Ident:
		return t.Name
	case *n1ql.Field:
		return t.Name
	}
	return fmt.Sprintf("$%d", pos+1)
}

func distinctRows(rows []row) []row {
	seen := map[string]bool{}
	out := rows[:0]
	for _, r := range rows {
		key := string(value.EncodeKey(r.projected))
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}
