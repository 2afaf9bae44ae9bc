package couchgo

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// newPublicCluster spins up an n-node everything-everywhere cluster
// through the public API only.
func newPublicCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{Dir: t.TempDir(), NumVBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < nodes; i++ {
		if err := c.AddNode(fmt.Sprintf("node%d", i), AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", BucketOptions{NumReplicas: min(nodes-1, 1)}); err != nil {
		t.Fatal(err)
	}
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPublicKVRoundTrip(t *testing.T) {
	c := newPublicCluster(t, 2)
	b, err := c.Bucket("default")
	if err != nil {
		t.Fatal(err)
	}
	type profile struct {
		Name  string `json:"name"`
		Email string `json:"email"`
	}
	cas, err := b.Upsert("user::1", profile{Name: "Dipti", Email: "dipti@couchbase.com"})
	if err != nil || cas == 0 {
		t.Fatal(err)
	}
	doc, err := b.Get("user::1")
	if err != nil {
		t.Fatal(err)
	}
	var p profile
	if err := doc.Decode(&p); err != nil || p.Name != "Dipti" {
		t.Fatalf("decode: %+v %v", p, err)
	}
	// Insert conflicts; Replace works; Remove removes.
	if _, err := b.Insert("user::1", p); err != ErrKeyExists {
		t.Errorf("insert existing: %v", err)
	}
	if _, err := b.Replace("user::1", profile{Name: "D2"}, doc.CAS); err != nil {
		t.Errorf("replace with cas: %v", err)
	}
	if _, err := b.Replace("user::1", profile{Name: "D3"}, doc.CAS); err != ErrCASMismatch {
		t.Errorf("stale cas: %v", err)
	}
	if err := b.Remove("user::1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("user::1"); err != ErrKeyNotFound {
		t.Errorf("after remove: %v", err)
	}
}

func TestPublicDurability(t *testing.T) {
	c := newPublicCluster(t, 2)
	b, _ := c.Bucket("default")
	if _, err := b.Write("k", map[string]any{"v": 1}, WriteOptions{
		Durability: DurabilityOptions{ReplicateTo: 1, PersistTo: true, Timeout: 10 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicN1QL(t *testing.T) {
	c := newPublicCluster(t, 2)
	b, _ := c.Bucket("default")
	for i := 0; i < 10; i++ {
		b.Upsert(fmt.Sprintf("p%02d", i), map[string]any{"name": fmt.Sprintf("u%02d", i), "age": 20 + i})
	}
	if _, err := c.Query("CREATE PRIMARY INDEX ON `default`"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE INDEX byAge ON `default`(age)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryWithOptions(
		"SELECT name FROM `default` WHERE age >= $min ORDER BY age",
		QueryOptions{Args: map[string]any{"min": 25.0}, Consistency: RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	// DML.
	res, err = c.QueryWithOptions("DELETE FROM `default` WHERE age > 27", QueryOptions{Consistency: RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if res.MutationCount != 2 {
		t.Fatalf("deleted %d", res.MutationCount)
	}
}

func TestPublicViews(t *testing.T) {
	c := newPublicCluster(t, 2)
	b, _ := c.Bucket("default")
	if err := b.DefineView("byCity", ViewDefinition{
		Filter: "doc.city IS NOT MISSING",
		Key:    "doc.city",
		Value:  "doc.name",
		Reduce: "_count",
	}); err != nil {
		t.Fatal(err)
	}
	b.Upsert("a", map[string]any{"city": "SF", "name": "A"})
	b.Upsert("b", map[string]any{"city": "NY", "name": "B"})
	b.Upsert("c", map[string]any{"city": "SF", "name": "C"})
	rows, err := b.ViewQuery("byCity", ViewQueryOptions{Stale: StaleFalse, Key: "SF", HasKey: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	rows, _ = b.ViewQuery("byCity", ViewQueryOptions{Stale: StaleFalse, Reduce: true})
	if rows[0].Value != 3.0 {
		t.Fatalf("reduce: %+v", rows)
	}
	if err := b.DropView("byCity"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSearch(t *testing.T) {
	c := newPublicCluster(t, 1)
	b, _ := c.Bucket("default")
	if err := b.CreateSearchIndex("content", "title"); err != nil {
		t.Fatal(err)
	}
	b.Upsert("d1", map[string]any{"title": "distributed database systems"})
	b.Upsert("d2", map[string]any{"title": "cache invalidation"})
	hits, err := b.Search("content", SearchTerm, "database", 10, true)
	if err != nil || len(hits) != 1 || hits[0].ID != "d1" {
		t.Fatalf("hits: %+v %v", hits, err)
	}
	hits, _ = b.Search("content", SearchPrefix, "cach", 10, true)
	if len(hits) != 1 || hits[0].ID != "d2" {
		t.Fatalf("prefix hits: %+v", hits)
	}
	hits, _ = b.Search("content", SearchPhrase, "database systems", 10, true)
	if len(hits) != 1 {
		t.Fatalf("phrase hits: %+v", hits)
	}
	if err := b.DropSearchIndex("content"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicXDCR(t *testing.T) {
	west := newPublicCluster(t, 1)
	east := newPublicCluster(t, 2)
	rep, err := west.ReplicateTo(east, "default", "default", XDCROptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()
	wb, _ := west.Bucket("default")
	eb, _ := east.Bucket("default")
	wb.Upsert("traveler", map[string]any{"from": "west"})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := eb.Get("traveler"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replication timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rep.Stats(); st.Applied == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPublicTopologyOps(t *testing.T) {
	c := newPublicCluster(t, 3)
	b, _ := c.Bucket("default")
	for i := 0; i < 30; i++ {
		if _, err := b.Write(fmt.Sprintf("k%02d", i), map[string]any{"i": i}, WriteOptions{
			Durability: DurabilityOptions{ReplicateTo: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Orchestrator() != "node0" {
		t.Errorf("orchestrator: %s", c.Orchestrator())
	}
	c.Kill("node2")
	if err := c.Failover("node2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := b.Get(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("get after failover+rebalance: %v", err)
		}
	}
}

func TestPublicLocks(t *testing.T) {
	c := newPublicCluster(t, 1)
	b, _ := c.Bucket("default")
	b.Upsert("doc", map[string]any{"v": 1})
	locked, err := b.GetAndLock("doc", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Upsert("doc", map[string]any{"v": 2}); err != ErrLocked {
		t.Errorf("write while locked: %v", err)
	}
	if err := b.Unlock("doc", locked.CAS); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Upsert("doc", map[string]any{"v": 2}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExpiry(t *testing.T) {
	c := newPublicCluster(t, 1)
	b, _ := c.Bucket("default")
	if _, err := b.Write("ephemeral", map[string]any{"v": 1}, WriteOptions{
		Expiry: time.Now().Unix() - 1, // already expired
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("ephemeral"); err != ErrKeyNotFound {
		t.Errorf("expired doc: %v", err)
	}
}

func TestPublicAnalytics(t *testing.T) {
	c := newPublicCluster(t, 2)
	b, _ := c.Bucket("default")
	for i := 0; i < 3; i++ {
		b.Upsert(fmt.Sprintf("dept::%d", i), map[string]any{"type": "dept", "did": i, "name": fmt.Sprintf("D%d", i)})
	}
	for i := 0; i < 9; i++ {
		b.Upsert(fmt.Sprintf("emp::%d", i), map[string]any{"type": "emp", "dept": i % 3, "salary": (i + 1) * 100})
	}
	if err := c.EnableAnalytics("default"); err != nil {
		t.Fatal(err)
	}
	// The general join that the operational query service rejects.
	if _, err := c.Query("SELECT * FROM `default` e JOIN `default` d ON e.dept = d.did"); err == nil {
		t.Fatal("query service should reject general joins")
	}
	rows, err := c.AnalyticsQuery("default", `
		SELECT d.name, SUM(e.salary) AS payroll
		FROM `+"`default`"+` e JOIN `+"`default`"+` d ON e.dept = d.did
		WHERE e.type = "emp" AND d.type = "dept"
		GROUP BY d.name ORDER BY d.name`,
		AnalyticsOptions{Consistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	total := 0.0
	for _, r := range rows {
		total += r.(map[string]any)["payroll"].(float64)
	}
	if total != 4500.0 {
		t.Fatalf("payroll total: %v", total)
	}
}

func TestPublicSubdocAPI(t *testing.T) {
	c := newPublicCluster(t, 2)
	b, _ := c.Bucket("default")
	b.Upsert("profile", map[string]any{"name": "A", "logins": 0, "tags": []any{"new"}})
	// Path-level lookup without fetching the document.
	v, err := b.LookupIn("profile", "name")
	if err != nil || v != "A" {
		t.Fatalf("lookup: %v %v", v, err)
	}
	// Atomic counter.
	for i := 0; i < 5; i++ {
		if _, err := b.Increment("profile", "logins", 1); err != nil {
			t.Fatal(err)
		}
	}
	n, _ := b.LookupIn("profile", "logins")
	if n != 5.0 {
		t.Fatalf("counter: %v", n)
	}
	// Deep mutate-in creates structure.
	if _, err := b.MutateIn("profile", "prefs.theme", "dark", 0); err != nil {
		t.Fatal(err)
	}
	v, _ = b.LookupIn("profile", "prefs.theme")
	if v != "dark" {
		t.Fatalf("mutate-in: %v", v)
	}
	// Array append + remove.
	if _, err := b.ArrayAppendIn("profile", "tags", "vip", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RemoveIn("profile", "prefs.theme", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LookupIn("profile", "prefs.theme"); err == nil {
		t.Fatal("removed path still present")
	}
	// Sub-document mutations are real mutations: indexes see them.
	if _, err := c.Query("CREATE INDEX byLogins ON `default`(logins)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryWithOptions("SELECT logins FROM `default` WHERE logins = 5",
		QueryOptions{Consistency: RequestPlus})
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("index after subdoc: %v %v", res, err)
	}
}

func TestPublicTouchAndAppend(t *testing.T) {
	c := newPublicCluster(t, 1)
	b, _ := c.Bucket("default")
	b.Upsert("doc", map[string]any{"v": 1})
	if err := b.Touch("doc", time.Now().Unix()+3600); err != nil {
		t.Fatal(err)
	}
	d, _ := b.Get("doc")
	if d.Expiry == 0 {
		t.Fatal("touch did not set expiry")
	}
	// Raw byte append via the internal client surface.
	cl := c.Internal()
	bcl, _ := cl.OpenBucket("default")
	bcl.Set(context.Background(), "log", []byte("a"), 0)
	bcl.Append(context.Background(), "log", []byte("b"), 0)
	bcl.Prepend(context.Background(), "log", []byte("-"), 0)
	it, _ := bcl.Get(context.Background(), "log")
	if string(it.Value) != "-ab" {
		t.Fatalf("concat: %q", it.Value)
	}
}

func TestPublicDurabilityTimeoutError(t *testing.T) {
	// A single-node bucket can never satisfy ReplicateTo(1): the wait
	// must surface as the public ErrTimeout.
	c := newPublicCluster(t, 1)
	b, _ := c.Bucket("default")
	_, err := b.Write("k", map[string]any{"v": 1}, WriteOptions{
		Durability: DurabilityOptions{ReplicateTo: 1, Timeout: 50 * time.Millisecond},
	})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestAutoFailoverOrchestratorCrash crashes the orchestrator itself
// under ClusterOptions.FailoverTimeout: the next node is elected, the
// health watchdog fails the crashed node over, and every document
// written with ReplicateTo=1 stays readable.
func TestAutoFailoverOrchestratorCrash(t *testing.T) {
	c, err := NewCluster(ClusterOptions{
		Dir:             t.TempDir(),
		NumVBuckets:     8,
		FailoverTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.AddNode(fmt.Sprintf("node%d", i), AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	b, err := c.Bucket("default")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := b.Write(fmt.Sprintf("k%d", i), "v", WriteOptions{
			Durability: DurabilityOptions{ReplicateTo: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Orchestrator() != "node0" {
		t.Fatalf("orchestrator = %s", c.Orchestrator())
	}
	// Crash the orchestrator itself: a new one takes over and the node
	// is failed over automatically.
	if err := c.Kill("node0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.Orchestrator() == "node1" {
			m, err := c.Internal().BucketMap("default")
			if err != nil {
				t.Fatal(err)
			}
			if len(m.ActiveVBuckets("node0")) == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-failover did not complete")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		if _, err := b.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("get after auto-failover: %v", err)
		}
	}
}
