package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"couchgo/internal/executor"
	"couchgo/internal/n1ql"
	"couchgo/internal/value"
)

// limitFixture loads documents whose fields mix numbers, strings,
// booleans, arrays, objects, NULL and MISSING, under a primary index,
// a one-key index, a composite index and an array index.
func limitFixture(t *testing.T, rng *rand.Rand) *Engine {
	t.Helper()
	s := newMemStore("d")
	e := NewEngine(s)
	for _, ddl := range []string{
		"CREATE PRIMARY INDEX ON d",
		"CREATE INDEX byA ON d(a)",
		"CREATE INDEX byBA ON d(b, a)",
		"CREATE INDEX byTags ON d(ARRAY t FOR t IN tags END)",
	} {
		mustExec(t, e, ddl)
	}
	for i := 0; i < 80; i++ {
		var fields []string
		for _, f := range []string{"a", "b", "c"} {
			if v := randomJSON(rng); v != "" {
				fields = append(fields, fmt.Sprintf("%q: %s", f, v))
			}
		}
		if rng.Intn(3) > 0 {
			fields = append(fields, fmt.Sprintf(`"tags": [%s, %s]`, randomScalar(rng), randomScalar(rng)))
		}
		s.put("d", fmt.Sprintf("k%03d", rng.Intn(1000)), "{"+strings.Join(fields, ", ")+"}")
	}
	return e
}

// randomJSON returns a field value of any JSON type, or "" for MISSING.
// Small domains make duplicate keys common.
func randomJSON(rng *rand.Rand) string {
	switch rng.Intn(8) {
	case 0:
		return ""
	case 1:
		return "null"
	case 2:
		return []string{"true", "false"}[rng.Intn(2)]
	case 3:
		return fmt.Sprintf("[%d, %s]", rng.Intn(3), randomScalar(rng))
	case 4:
		return fmt.Sprintf(`{"x": %d}`, rng.Intn(3))
	}
	return randomScalar(rng)
}

func randomScalar(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprint(rng.Intn(10))
	}
	return fmt.Sprintf("%q", string(rune('a'+rng.Intn(6))))
}

// randomParam binds a parameter to a string, a number, NULL or MISSING.
func randomParam(rng *rand.Rand) any {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return value.Missing
	case 2, 3, 4:
		return fmt.Sprintf("k%03d", rng.Intn(1000)) // document-ID shaped
	case 5, 6:
		return string(rune('a' + rng.Intn(6)))
	}
	return float64(rng.Intn(10))
}

// randomWhere builds a predicate over parameters $p and $q: every
// comparison and BETWEEN on the primary key and on each index key, an
// equality prefix plus a range on the composite index, a duplicated
// range on one key, non-sargable conjuncts and an array predicate.
func randomWhere(rng *rand.Rand) string {
	key := []string{"meta().id", "a", "b"}[rng.Intn(3)]
	rangeOn := func(k, p string) string {
		return k + " " + []string{">", ">=", "<", "<="}[rng.Intn(4)] + " " + p
	}
	switch rng.Intn(8) {
	case 0, 1:
		return rangeOn(key, "$p")
	case 2:
		return key + " BETWEEN $p AND $q"
	case 3:
		return "b = $p AND " + rangeOn("a", "$q")
	case 4:
		return "b = $p AND a BETWEEN $p AND $q"
	case 5:
		return rangeOn(key, "$p") + " AND " + rangeOn(key, "$q")
	case 6:
		return rangeOn(key, "$p") + " AND " + []string{"c != $q", "c IS NOT NULL", "a IN [1, 2, \"c\"]"}[rng.Intn(3)]
	}
	return "ANY t IN tags SATISFIES t = $p END"
}

func queryRows(t *testing.T, e *Engine, stmt string, params map[string]any) ([]any, []executor.PhaseTiming) {
	t.Helper()
	res, err := e.Execute(stmt, executor.Options{Params: params, Prof: executor.NewProfile()})
	if err != nil {
		t.Fatalf("Execute(%q, %v): %v", stmt, params, err)
	}
	return res.Rows, res.Profile
}

// TestLimitPushdownDifferential: for random range queries, each
// `... LIMIT n OFFSET m` returns rows m..m+n of the same query run
// without LIMIT/OFFSET, in index order. A span wrongly marked exact
// lets the scan stop before the rows the filter keeps, and the
// limited query comes back short or shifted.
func TestLimitPushdownDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := limitFixture(t, rng)
	pushed, stopped := 0, 0
	for iter := 0; iter < 600; iter++ {
		// The first two are covered by some of the indexes, the last
		// by none: the limit reaches only covering scans.
		proj := []string{"meta().id AS id", "meta().id AS id, b, a", "meta().id AS id, a, b, c"}[rng.Intn(3)]
		base := "SELECT " + proj + " FROM d WHERE " + randomWhere(rng)
		if rng.Intn(4) == 0 {
			base += " ORDER BY " + []string{"a", "b", "meta().id"}[rng.Intn(3)]
		}
		params := map[string]any{"p": randomParam(rng), "q": randomParam(rng)}
		full, _ := queryRows(t, e, base, params)

		n, m := rng.Intn(6), rng.Intn(4)
		stmt := fmt.Sprintf("%s LIMIT %d OFFSET %d", base, n, m)
		got, prof := queryRows(t, e, stmt, params)
		want := []any{}
		if m < len(full) {
			want = full[m:min(m+n, len(full))]
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s with %v:\n got  %v\n want %v (full %v)", stmt, params, got, want, full)
		}

		plan := mustExec(t, e, "EXPLAIN "+stmt).Rows[0].(map[string]any)
		if plan["operators"].([]any)[0].(map[string]any)["limit"] != true {
			continue
		}
		pushed++
		for _, ph := range prof {
			if ph.Operator != "scan" {
				continue
			}
			if ph.Items > n+m {
				t.Fatalf("%s with %v: pushed scan returned %d entries, want at most %d", stmt, params, ph.Items, n+m)
			}
			if ph.Items <= n+m && len(full) > n+m {
				stopped++
			}
		}
	}
	t.Logf("limit pushed in %d plans, scan stopped early %d times", pushed, stopped)
	// The pushdown must actually run: many plans push the limit, and
	// many scans stop short of the rows an unlimited scan returns.
	if pushed < 100 || stopped < 30 {
		t.Fatalf("limit pushed in %d plans, scan stopped early %d times; the test exercises too little", pushed, stopped)
	}
}

// laggingStore serves index scans from documents as they were indexed
// and fetches from KV as it is now: ids in changed map to their current
// document, or to nil once deleted. A not_bounded GSI scan can run this
// far behind KV.
type laggingStore struct {
	*memStore
	changed map[string]any
}

func (s laggingStore) Fetch(ctx context.Context, keyspace, id string) (any, n1ql.Meta, error) {
	doc, ok := s.changed[id]
	if !ok {
		return s.memStore.Fetch(ctx, keyspace, id)
	}
	if doc == nil {
		return nil, n1ql.Meta{}, executor.ErrNotFound
	}
	return doc, n1ql.Meta{ID: id}, nil
}

// TestLimitOverLaggingIndex: when the index still holds a document
// deleted or changed since it was indexed, a fetching scan loses that
// row after the fetch. LIMIT must not have stopped the scan early, so
// later rows take its place and the query still returns LIMIT rows.
func TestLimitOverLaggingIndex(t *testing.T) {
	s := newMemStore("Profile")
	for i := 0; i < 20; i++ {
		s.put("Profile", fmt.Sprintf("u%02d", i), fmt.Sprintf(`{"age": %d}`, 20+i))
	}
	e := NewEngine(laggingStore{s, map[string]any{"u10": nil, "u11": map[string]any{"age": 5.0}}})
	mustExec(t, e, "CREATE PRIMARY INDEX ON Profile")
	mustExec(t, e, "CREATE INDEX byAge ON Profile(age)")
	for _, tc := range []struct {
		stmt string
		rows int // of the 10 indexed in range
	}{
		{"SELECT * FROM Profile WHERE age >= 30", 8},                     // u10 deleted, u11 moved out
		{`SELECT age FROM Profile WHERE meta().id >= "u10"`, 9},          // u10 deleted
		{`SELECT meta().id AS id, age FROM Profile WHERE age >= 30`, 10}, // covering: no fetch
	} {
		full := mustExec(t, e, tc.stmt).Rows
		got := mustExec(t, e, tc.stmt+" LIMIT 5").Rows
		if len(full) != tc.rows || !reflect.DeepEqual(got, full[:5]) {
			t.Errorf("%s LIMIT 5: got %v, want the first 5 of %d rows %v", tc.stmt, got, tc.rows, full)
		}
	}
}

// TestLimitBeforeProject: with a residual filter that keeps many rows
// and a LIMIT that keeps few, the rows are the same as trimming the
// unlimited result, and Project only sees the rows the query returns.
func TestLimitBeforeProject(t *testing.T) {
	e, s := fixture(t)
	for i := 0; i < 50; i++ {
		s.put("Profile", fmt.Sprintf("u%03d", i), fmt.Sprintf(`{"name": "n%02d", "age": %d}`, i%10, 20+i))
	}
	mustExec(t, e, "CREATE INDEX byAge ON Profile(age)")
	for _, tc := range []struct {
		base        string
		projectSees int // rows Project handles for LIMIT 3 OFFSET 2
	}{
		// LIKE is not sargable: the span is not exact, the filter keeps
		// most rows and Offset/Limit trim before Project.
		{`SELECT name, age FROM Profile WHERE age > 25 AND name LIKE "n%"`, 3},
		{`SELECT name, age FROM Profile WHERE age > 25 AND name LIKE "n%" ORDER BY age`, 3},
		// Sort and Distinct need every projected row.
		{`SELECT name, age FROM Profile WHERE age > 25 AND name LIKE "n%" ORDER BY name`, 44},
		{`SELECT DISTINCT name FROM Profile WHERE age > 25 AND name LIKE "n%"`, 10},
	} {
		full := mustExec(t, e, tc.base).Rows
		got, prof := queryRows(t, e, tc.base+" LIMIT 3 OFFSET 2", nil)
		if !reflect.DeepEqual(got, full[2:5]) {
			t.Errorf("%s: got %v, want %v", tc.base, got, full[2:5])
		}
		for _, ph := range prof {
			if ph.Operator == "project" && ph.Items != tc.projectSees {
				t.Errorf("%s: project saw %d rows, want %d", tc.base, ph.Items, tc.projectSees)
			}
		}
	}
}

// TestCoverPhaseProfiled: covered-row assembly is its own profile
// phase, so it is not lost between scan and filter.
func TestCoverPhaseProfiled(t *testing.T) {
	e, _ := fixture(t)
	_, prof := queryRows(t, e, "SELECT meta().id AS id FROM Profile WHERE meta().id >= $1 LIMIT $2",
		map[string]any{"1": "c", "2": 2.0})
	var ops []string
	for _, ph := range prof {
		ops = append(ops, ph.Operator)
		if ph.Operator == "cover" && ph.Items != 2 {
			t.Errorf("cover phase built %d rows, want 2", ph.Items)
		}
	}
	if !strings.Contains(strings.Join(ops, ","), "scan,cover,filter,project") {
		t.Errorf("profile phases %v, want scan,cover,filter,project", ops)
	}
}
