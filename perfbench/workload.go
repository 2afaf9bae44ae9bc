package main

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/query"
	"couchgo/internal/ycsb"
)

// workload is one traffic mix and the system it runs against. The
// table below records why each exists; BENCHMARK.json repeats it.
type workload struct {
	name    string
	records int64
	// nodes/replicas/quotaMB shape the in-process cluster; wire runs one
	// cbserver process instead.
	nodes    int
	replicas int
	quotaMB  int64
	wire     bool
	// index builds the primary GSI index scans run through.
	index bool
	// durable makes every update wait for PersistTo.
	durable bool
	// Mix in percent; inserts take the remainder.
	readPct, updatePct, scanPct int
	// warmupOps is the fixed op count run after load, before space_amp
	// is taken; fixing it fixes the number of acknowledged mutations
	// space_amp is charged for.
	warmupOps int
}

var workloads = []workload{
	// YCSB A in process, fits in memory: the core client, vbucket,
	// cache and DCP replication do nearly all the work; no wire.
	{name: "kv-mem", records: 50000, nodes: 2, replicas: 1, readPct: 50, updatePct: 50, warmupOps: 20000},
	// YCSB A over one loopback TCP connection to a cbserver process:
	// transport and memcproto carry most of each op.
	{name: "kv-wire", records: 50000, nodes: 1, wire: true, readPct: 50, updatePct: 50, warmupOps: 10000},
	// YCSB E: N1QL range scans over the primary index plus inserts
	// feeding the index; n1ql/planner/executor/gsi dominate.
	{name: "query-range", records: 20000, nodes: 2, replicas: 1, index: true, scanPct: 95, warmupOps: 100},
	// 80/20 with PersistTo, data ~3.5x a 32 MB cache: storage dominates
	// (an update waits for its flush to the data file; bgfetch, eviction,
	// compaction). Flushes are not fsynced: on a shared virtual disk the
	// fsync time follows the neighbours' I/O, and the runs measured that
	// rather than the program.
	{name: "kv-durable", records: 100000, nodes: 1, quotaMB: 32, durable: true, readPct: 80, updatePct: 20, warmupOps: 4000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// copies is how many copies of each document the cluster stores.
func (w workload) copies() int { return 1 + w.replicas }

const bucketName = "bench"

// numVBuckets is the partition count of every workload's bucket.
const numVBuckets = 64

// scanStatement is the appendix's workload E query.
const scanStatement = "SELECT meta().id AS id FROM `" + bucketName + "` WHERE meta().id >= $1 LIMIT $2"

type opKind int

const (
	opRead opKind = iota
	opUpdate
	opScan
	opInsert
	numOpKinds
)

var opNames = [numOpKinds]string{"read", "update", "scan", "insert"}

func (w workload) pick(r *rand.Rand) opKind {
	p := r.Intn(100)
	switch {
	case p < w.readPct:
		return opRead
	case p < w.readPct+w.updatePct:
		return opUpdate
	case p < w.readPct+w.updatePct+w.scanPct:
		return opScan
	}
	return opInsert
}

// Records are YCSB's 10 x 100 B fields behind a fixed-width stamp of
// the document's own key and a write version, so a read can prove it
// got its own key's document and the final-state gate can tell which
// write survived:
//
//	{"_k":"user000000000042","_v":"00000001000000a3","field0":"...",...}
const (
	fieldCount  = 10
	fieldLength = 100
	keyLen      = 16
	stampKey    = 7             // offset of the key in the record
	stampVer    = stampKey + 24 // offset of the hex version
	recordLen   = stampVer + 17 + fieldCount*(len(`,"field0":""`)+fieldLength) + 1
)

var fieldChars = []byte("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")

func buildRecord(r *rand.Rand, key string, ver uint64) []byte {
	b := make([]byte, 0, recordLen)
	b = append(b, `{"_k":"`...)
	b = append(b, key...)
	b = append(b, `","_v":"`...)
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], ver)
	b = hex.AppendEncode(b, v[:])
	b = append(b, '"')
	for f := 0; f < fieldCount; f++ {
		b = append(b, `,"field`...)
		b = strconv.AppendInt(b, int64(f), 10)
		b = append(b, `":"`...)
		for i := 0; i < fieldLength; i += 10 {
			bits := r.Uint64()
			for j := 0; j < 10; j++ {
				b = append(b, fieldChars[bits&63])
				bits >>= 6
			}
		}
		b = append(b, '"')
	}
	return append(b, '}')
}

// stampedBy reports whether doc carries key's stamp.
func stampedBy(doc []byte, key string) bool {
	return len(doc) == recordLen && string(doc[:stampKey]) == `{"_k":"` && string(doc[stampKey:stampKey+keyLen]) == key
}

// stampVersion extracts the write version from a stamped record.
func stampVersion(doc []byte) (uint64, bool) {
	if len(doc) != recordLen {
		return 0, false
	}
	var v [8]byte
	if _, err := hex.Decode(v[:], doc[stampVer:stampVer+16]); err != nil {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[:]), true
}

// ack is the newest acknowledged write of one key.
type ack struct{ cas, ver uint64 }

// ackTable tracks, per key, the acknowledged write with the highest
// CAS: the write the key must hold once the window ends.
type ackTable struct {
	stripes [256]sync.Mutex
	loaded  []ack
	insMu   sync.Mutex
	ins     map[int64]ack
}

func newAckTable(records int64) *ackTable {
	return &ackTable{loaded: make([]ack, records), ins: map[int64]ack{}}
}

func (a *ackTable) record(k int64, cas, ver uint64) {
	if k < int64(len(a.loaded)) {
		mu := &a.stripes[k%int64(len(a.stripes))]
		mu.Lock()
		if cas > a.loaded[k].cas {
			a.loaded[k] = ack{cas, ver}
		}
		mu.Unlock()
		return
	}
	a.insMu.Lock()
	if cas > a.ins[k].cas {
		a.ins[k] = ack{cas, ver}
	}
	a.insMu.Unlock()
}

// each calls fn for every acknowledged key. Callers run it after all
// writers have stopped.
func (a *ackTable) each(fn func(k int64, want ack)) {
	for k, w := range a.loaded {
		fn(int64(k), w)
	}
	a.insMu.Lock()
	defer a.insMu.Unlock()
	for k, w := range a.ins {
		fn(k, w)
	}
}

// violations collects correctness-gate failures; the first few are
// kept verbatim for the report.
type violations struct {
	n    atomic.Int64
	mu   sync.Mutex
	msgs []string
}

func (v *violations) add(format string, args ...any) {
	if v.n.Add(1) > 5 {
		return
	}
	v.mu.Lock()
	v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

// run is the shared state of one set-up instance's clients.
type run struct {
	w       workload
	seed    int64
	tgt     target
	acks    *ackTable
	chooser *ycsb.ScrambledZipfian
	// nextInsert is the next key number an insert creates.
	nextInsert atomic.Int64
	bad        *violations
}

// client is one closed-loop client: it issues its next op only after
// the previous one returned.
type client struct {
	r   *run
	id  int
	rng *rand.Rand
	cl  *core.Client
	seq uint64
	// start and length of the window, to file each op in its slice.
	start  time.Time
	length time.Duration
	lat    [numOpKinds][numSlices]samples
	done   [numSlices]int64
	ops    int64
	fails  int64
	// Traced-window state: nil tr means untraced.
	tr       *opTrace
	selfLat  samples             // client op minus node calls
	queryLat samples             // query call minus its phases
	children map[string]*samples // node calls and query phases by span name
	examined int64               // scan-phase items
	returned int64               // rows returned by scans
	kept     []span
}

// rngFor derives an independent, reproducible stream from the seed.
func rngFor(seed int64, stream string, id int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id+1)*0xbf58476d1ce4e5b9
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// do runs one op of the mix; rec marks a measured op, whose latency
// is recorded, as against a warm-up op.
func (c *client) do(rec bool) {
	switch op := c.r.w.pick(c.rng); op {
	case opRead:
		key := ycsb.KeyName(c.r.chooser.Next(c.rng))
		ctx := c.beginOp("core.get")
		t0 := time.Now()
		it, err := c.cl.Get(ctx, key)
		c.finish(op, t0, rec, err)
		if err == nil && !stampedBy(it.Value, key) {
			c.r.bad.add("get %s returned a document not stamped with its key", key)
		}
	case opUpdate:
		c.write(op, c.r.chooser.Next(c.rng), rec)
	case opInsert:
		c.write(op, c.r.nextInsert.Add(1)-1, rec)
	case opScan:
		c.scan(rec)
	}
}

func (c *client) beginOp(name string) context.Context {
	if c.tr == nil {
		return context.Background()
	}
	return c.tr.begin(name)
}

func (c *client) write(op opKind, k int64, rec bool) {
	key := ycsb.KeyName(k)
	c.seq++
	ver := uint64(c.id+1)<<40 | c.seq
	doc := buildRecord(c.rng, key, ver)
	dur := core.DurabilityOptions{PersistTo: c.r.w.durable}
	ctx := c.beginOp("core.set")
	t0 := time.Now()
	it, err := c.cl.SetWithOptions(ctx, key, doc, 0, 0, 0, dur)
	c.finish(op, t0, rec, err)
	if err == nil {
		c.r.acks.record(k, it.CAS, ver)
	}
}

// sample counts one measured op and files its latency under the slice
// of the window it completed in.
func (c *client) sample(op opKind, t0 time.Time, err error) {
	end := time.Now()
	s := min(int(int64(end.Sub(c.start))*numSlices/int64(c.length)), numSlices-1)
	c.lat[op][s].add(int64(end.Sub(t0)))
	c.done[s]++
	c.ops++
	if err != nil {
		c.fails++
	}
}

// finish records one KV op's latency and, in the traced window, its
// spans and self time.
func (c *client) finish(op opKind, t0 time.Time, rec bool, err error) {
	if !rec {
		if err != nil {
			c.r.bad.add("%s failed during set-up: %v", opNames[op], err)
		}
		return
	}
	c.sample(op, t0, err)
	if c.tr != nil {
		c.tr.end(err)
		c.selfLat.add(c.tr.self())
		c.tr.childSamples(c.children)
		c.keep()
	}
}

func (c *client) keep() {
	if len(c.kept)+len(c.tr.spans) <= maxKeptSpans {
		c.kept = append(c.kept, c.tr.spans...)
	}
}

func (c *client) scan(rec bool) {
	n := c.r.w.records
	start := c.r.chooser.Next(c.rng)
	limit := int64(1 + c.rng.Intn(100))
	opts := executor.Options{
		Params:      map[string]any{"1": ycsb.KeyName(start), "2": float64(limit)},
		Consistency: executor.NotBounded,
	}
	if c.tr != nil {
		opts.Ctx = c.tr.begin("query")
		opts.Prof = executor.NewProfile()
	}
	t0 := time.Now()
	res, err := c.r.tgt.query(scanStatement, opts)
	if rec {
		c.sample(opScan, t0, err)
	}
	if c.tr != nil {
		c.tr.end(err)
	}
	if err == nil && start+limit <= n {
		checkScan(c.r.bad, res, start, limit)
	}
	if !rec {
		if err != nil {
			c.r.bad.add("scan failed during set-up: %v", err)
		}
		return
	}
	if c.tr != nil {
		if res != nil {
			c.tr.addPhases(res.Profile)
			for _, ph := range res.Profile {
				if ph.Operator == "scan" {
					c.examined += int64(ph.Items)
				}
			}
			c.returned += int64(len(res.Rows))
		}
		c.queryLat.add(c.tr.self())
		c.tr.childSamples(c.children)
		c.keep()
	}
}

// checkScan holds a scan whose range lies inside the loaded keys to
// exactly the expected consecutive keys.
func checkScan(bad *violations, res *query.Result, start, limit int64) {
	if int64(len(res.Rows)) != limit {
		bad.add("scan from %s limit %d returned %d rows", ycsb.KeyName(start), limit, len(res.Rows))
		return
	}
	for i, row := range res.Rows {
		m, _ := row.(map[string]any)
		if id, _ := m["id"].(string); id != ycsb.KeyName(start+int64(i)) {
			bad.add("scan from %s row %d is %q", ycsb.KeyName(start), i, id)
			return
		}
	}
}
