package transport

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/vbucket"
)

// reconcileEnv is a three-node cluster whose replicas stream through
// one kind of core.ReplicaSource.
type reconcileEnv struct {
	client *core.Client
	// curMap is the cluster map the nodes reconcile against.
	curMap func() *cmap.Map
	// copyOf returns a node's copy of a vBucket (nil when it holds none).
	copyOf func(id cmap.NodeID, vb int) *vbucket.VBucket
	// spare is a node that must not be failed over ("" for none).
	spare cmap.NodeID
	// failover crashes a node and fails it over.
	failover func(id cmap.NodeID)
}

const reconcileVBs = 8

// TestReconcileOverBothSources runs one reconcile scenario over both
// replica sources — the in-process producer and RemoteProducer on a
// served cluster: create the bucket, write with ReplicateTo=1, fail
// over the active a replica streams from, and check that every
// surviving node's vBucket copies match the map and every write is
// still readable.
func TestReconcileOverBothSources(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T) reconcileEnv
	}{
		{"loopback", loopbackEnv},
		{"remote", remoteEnv},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := tc.setup(t)
			waitFor(t, 10*time.Second, func() bool { return copiesMatchMap(env) == nil })

			ctx := context.Background()
			const writes = 32
			for i := 0; i < writes; i++ {
				if _, err := env.client.SetWithOptions(ctx, fmt.Sprintf("doc-%d", i), []byte(fmt.Sprintf(`{"i":%d}`, i)),
					0, 0, 0, core.DurabilityOptions{ReplicateTo: 1, Timeout: 10 * time.Second}); err != nil {
					t.Fatalf("durable Set doc-%d: %v", i, err)
				}
			}

			// The source of vb's replica is its active copy.
			m := env.curMap()
			var victim cmap.NodeID
			for vb := 0; vb < m.NumVBuckets && victim == ""; vb++ {
				if a := m.Active(vb); a != env.spare && len(m.Replicas(vb)) > 0 {
					victim = a
				}
			}
			env.failover(victim)
			waitFor(t, 15*time.Second, func() bool {
				m := env.curMap()
				for vb := 0; vb < m.NumVBuckets; vb++ {
					if m.Active(vb) == victim || slices.Contains(m.Replicas(vb), victim) {
						return false
					}
				}
				return copiesMatchMap(env) == nil
			})
			if err := copiesMatchMap(env); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < writes; i++ {
				key, want := fmt.Sprintf("doc-%d", i), fmt.Sprintf(`{"i":%d}`, i)
				waitFor(t, 10*time.Second, func() bool {
					it, err := env.client.Get(ctx, key)
					return err == nil && string(it.Value) == want
				})
			}
		})
	}
}

// copiesMatchMap checks every mapped node's copies against the map:
// Active on the active, Replica on each replica, none elsewhere.
func copiesMatchMap(env reconcileEnv) error {
	m := env.curMap()
	if m == nil {
		return fmt.Errorf("no map yet")
	}
	mapped := map[cmap.NodeID]bool{}
	for vb := 0; vb < m.NumVBuckets; vb++ {
		mapped[m.Active(vb)] = true
		for _, r := range m.Replicas(vb) {
			mapped[r] = true
		}
	}
	for id := range mapped {
		for vb := 0; vb < m.NumVBuckets; vb++ {
			want := "none"
			switch {
			case m.Active(vb) == id:
				want = vbucket.Active.String()
			case slices.Contains(m.Replicas(vb), id):
				want = vbucket.Replica.String()
			}
			got := "none"
			if c := env.copyOf(id, vb); c != nil {
				got = c.State().String()
			}
			if got != want {
				return fmt.Errorf("node %s vb %d: copy is %s, map says %s", id, vb, got, want)
			}
		}
	}
	return nil
}

// loopbackEnv is an in-process cluster: replicas stream from the
// active's local *dcp.Producer.
func loopbackEnv(t *testing.T) reconcileEnv {
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: reconcileVBs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	return reconcileEnv{
		client: cl,
		curMap: func() *cmap.Map {
			m, _ := c.BucketMap("default")
			return m
		},
		copyOf: func(id cmap.NodeID, vb int) *vbucket.VBucket {
			v, _ := c.NodeVB(id, "default", vb)
			return v
		},
		failover: func(id cmap.NodeID) {
			if err := c.Kill(id); err != nil {
				t.Fatal(err)
			}
			if err := c.Failover(id); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// remoteEnv is three single-node clusters joined over the wire:
// replicas stream from RemoteProducer.
func remoteEnv(t *testing.T) reconcileEnv {
	locals := map[cmap.NodeID]*core.Cluster{}
	nodes := map[cmap.NodeID]*ClusterNode{}
	start := func(opts NodeOptions) *ClusterNode {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: reconcileVBs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.AddNode("local", cmap.AllServices); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		opts.Cluster, opts.LocalNode, opts.Bucket = c, "local", "default"
		opts.KVAddr = "127.0.0.1:0"
		opts.HeartbeatInterval = 50 * time.Millisecond
		n, err := StartNode(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		locals[cmap.NodeID(n.KVAddr())] = c
		nodes[cmap.NodeID(n.KVAddr())] = n
		return n
	}
	seed := start(NodeOptions{ClusterSize: 3, FailoverAfter: time.Minute})
	for i := 1; i < 3; i++ {
		start(NodeOptions{Join: seed.KVAddr()})
	}
	waitFor(t, 10*time.Second, func() bool {
		m := seed.member.CurrentMap()
		if m == nil || len(m.Nodes) != 3 {
			return false
		}
		for _, n := range nodes {
			if nm := n.member.CurrentMap(); nm == nil || nm.Rev != m.Rev {
				return false
			}
		}
		return true
	})
	return reconcileEnv{
		client: core.NewClient(seed.Router(), "default"),
		curMap: seed.member.CurrentMap,
		copyOf: func(id cmap.NodeID, vb int) *vbucket.VBucket {
			v, _ := locals[id].NodeVB("local", "default", vb)
			return v
		},
		spare: cmap.NodeID(seed.KVAddr()),
		failover: func(id cmap.NodeID) {
			nodes[id].Close()
			seed.coord.failover(string(id))
			// Every survivor must have applied the new map.
			waitFor(t, 10*time.Second, func() bool {
				rev := seed.member.CurrentMap().Rev
				for addr, n := range nodes {
					if addr != id && n.member.CurrentMap().Rev != rev {
						return false
					}
				}
				return true
			})
		},
	}
}

// TestApplyMapNotHeldByHungPeer: a replica source that accepts
// connections but never answers (a stopped process keeps its listening
// socket) holds up neither applying the map that makes the local
// copies replicas of it nor the next map, which promotes them while
// their replica loops are still waiting on the source.
func TestApplyMapNotHeldByHungPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})

	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: reconcileVBs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.AddNode("local", cmap.AllServices); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	t.Cleanup(pool.Close)
	const self = "127.0.0.1:1"
	mb := &Member{
		cluster:   c,
		localNode: "local",
		bucket:    "default",
		self:      self,
		pool:      pool,
		router:    NewRouter("default", nil, pool),
		closed:    make(chan struct{}),
	}
	t.Cleanup(mb.close)

	hung := cmap.NodeID(ln.Addr().String())
	m := &cmap.Map{Rev: 1, NumVBuckets: reconcileVBs, NumReplicas: 1, Nodes: []cmap.NodeID{hung, self}}
	for vb := 0; vb < reconcileVBs; vb++ {
		m.Chains = append(m.Chains, []int{0, 1})
	}
	apply := func(m *cmap.Map, want vbucket.State) {
		t.Helper()
		start := time.Now()
		if err := mb.ApplyMap(m); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("ApplyMap rev %d took %v with a hung replica source", m.Rev, d)
		}
		for vb := 0; vb < reconcileVBs; vb++ {
			v, _ := c.NodeVB("local", "default", vb)
			if v == nil || v.State() != want {
				t.Fatalf("rev %d: vb %d is %v, want %v", m.Rev, vb, v, want)
			}
		}
	}
	apply(m, vbucket.Replica)
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(conns) > 0
	})
	apply(m.FailoverNode(hung), vbucket.Active)
}
