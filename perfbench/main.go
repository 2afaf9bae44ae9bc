// Command perfbench is the repository benchmark: a single-process,
// closed-loop YCSB-derived load generator over four workloads (kv-mem, kv-wire,
// query-range, kv-durable). It runs one client, which waits for each
// reply before it sends the next; checks every result it gets; and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// separate traced run) as the last line of its output.
//
//	bash perfbench/run.sh --workload kv-mem --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare <parent-results-dir> <change-results-dir>
//
// run.sh builds this command and cbserver from the checkout it is run
// in. Every run also writes its full result, with the host and build
// it ran on, under .bench_build/perfbench/results.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"couchgo/internal/executor"
	"couchgo/internal/trace"
	"couchgo/internal/ycsb"
)

// setupRepeats is how many times a timed run sets the system up and
// measures it; each end-to-end metric is the median over instances.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	cbserver string
	workdir  string
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, written beside the results.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Env        map[string]string `json:"env"`
	Violations []string          `json:"violations,omitempty"`
	Samples    map[string]int    `json:"samples"`
	// Parts holds each set-up instance's value of every end-to-end
	// metric; Metrics reports their medians.
	Parts map[string][]float64 `json:"parts,omitempty"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: kv-mem | kv-wire | query-range | kv-durable")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.StringVar(&o.cbserver, "cbserver", "", "cbserver binary for kv-wire")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/perfbench", "directory for data, spans and results")
	flag.StringVar(&o.commit, "commit", "unknown", "identity of the code under test")
	flag.Parse()
	w, err := workloadByName(o.workload)
	if err == nil && (o.seconds < 1 || o.trace < 0 || o.trace > 1) {
		err = errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	if err == nil && w.wire && o.cbserver == "" {
		err = errors.New("kv-wire needs -cbserver")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, err := benchmark(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", v)
	}
	if err := writeRecord(o, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, err := json.Marshal(rec.result)
	if err != nil { // a NaN or Inf metric
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(rec.Env) // strings only; cannot fail
	fmt.Printf("# %s seed=%d env=%s\n", w.name, o.seed, env)
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// benchmark runs one workload end to end. The timed run sets the
// system up setupRepeats times and measures a third of the window on
// each instance, so a disturbance on a shared host that spans one
// instance moves one of three values and the reported median holds.
// The traced run sets up once and measures an untraced half window and
// a traced half window.
func benchmark(w workload, o options) (*record, error) {
	trace.Default.SetRate(0) // the program's own tracer stays off
	runDir, err := filepath.Abs(filepath.Join(o.workdir, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rec := &record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Env: environment(o), Samples: map[string]int{}}
	rec.Metrics = map[string]metric{}
	bad := &violations{}
	window := time.Duration(o.seconds) * time.Second
	if o.trace == 1 {
		err = tracedRun(w, o, filepath.Join(runDir, "traced"), window, bad, rec)
	} else {
		err = timedRun(w, o, runDir, window, bad, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Violations = bad.msgs
	rec.Correct = bad.n.Load() == 0
	return rec, nil
}

func timedRun(w workload, o options, runDir string, window time.Duration, bad *violations, rec *record) error {
	parts := map[string][]float64{}
	for i := 0; i < setupRepeats; i++ {
		err := func() error {
			dir := filepath.Join(runDir, fmt.Sprint(i))
			defer os.RemoveAll(dir)
			r, secs, space, err := setUp(w, o, dir, bad)
			if err != nil {
				return err
			}
			defer r.tgt.close()
			m, err := measure(r, window/setupRepeats, false)
			if err != nil {
				return err
			}
			vals, err := endToEnd(r, m, secs, space)
			if err != nil {
				return err
			}
			for k, v := range vals {
				parts[k] = append(parts[k], v)
			}
			for k := range m.all {
				rec.Samples[opNames[k]] += len(m.all[k])
			}
			rec.Attempted += m.ops
			rec.Failed += m.fails
			return finalGates(r)
		}()
		if err != nil {
			return err
		}
	}
	for name, vs := range parts {
		rec.Metrics[name] = metric{Value: median(vs), Unit: endToEndUnits[name]}
	}
	rec.Parts = parts
	return nil
}

func tracedRun(w workload, o options, dir string, window time.Duration, bad *violations, rec *record) error {
	r, _, _, err := setUp(w, o, dir, bad)
	if err != nil {
		return err
	}
	defer r.tgt.close()
	plain, err := measure(r, window/2, false)
	if err != nil {
		return err
	}
	tr, err := measure(r, window/2, true)
	if err != nil {
		return err
	}
	perLayer(r, plain, tr, rec)
	path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeSpans(path, tr.spans); err != nil {
		return err
	}
	return finalGates(r)
}

// setUp starts the system, loads it, catches the index up, runs the
// fixed warm-up and drains the disk queue. It returns the set-up time
// and the space amplification at that fixed mutation count.
func setUp(w workload, o options, dir string, bad *violations) (*run, float64, float64, error) {
	t0 := time.Now()
	var tgt target
	var err error
	if w.wire {
		tgt, err = startWire(o.cbserver, dir)
	} else {
		tgt, err = startInproc(w, dir)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	r := &run{w: w, seed: o.seed, tgt: tgt, acks: newAckTable(w.records), bad: bad,
		chooser: ycsb.NewScrambledZipfian(w.records)}
	r.nextInsert.Store(w.records)
	fail := func(err error) (*run, float64, float64, error) {
		tgt.close()
		return nil, 0, 0, err
	}
	if w.index {
		if _, err := tgt.query("CREATE PRIMARY INDEX ON `"+bucketName+"`", executor.Options{}); err != nil {
			return fail(err)
		}
	}
	if err := load(r); err != nil {
		return fail(err)
	}
	if w.index {
		// A request_plus scan waits until the index holds every load.
		catchUp := executor.Options{Params: map[string]any{"1": "", "2": 1.0}, Consistency: executor.RequestPlus}
		if _, err := tgt.query(scanStatement, catchUp); err != nil {
			return fail(fmt.Errorf("index catch-up: %w", err))
		}
	}
	clients := r.clients(o.seed, "warmup", false)
	parallel(len(clients), func(i int) {
		for n := 0; n < w.warmupOps/len(clients); n++ {
			clients[i].do(false)
		}
	})
	if err := tgt.drain(); err != nil {
		return fail(err)
	}
	secs := time.Since(t0).Seconds()
	disk, err := dirBytes(tgt.dir())
	if err != nil {
		return fail(err)
	}
	live := float64(r.liveKeys()) * float64(keyLen+recordLen) * float64(w.copies())
	return r, secs, ratio(float64(disk), live), nil
}

// liveKeys counts the documents the run has written.
func (r *run) liveKeys() int64 { return r.nextInsert.Load() }

// load writes every record once, from loaders that share the client's
// connection.
func load(r *run) error {
	loaders := 2 * runtime.NumCPU()
	if r.w.wire {
		loaders = 8 // the wire load is latency-bound, not CPU-bound
	}
	cl := r.tgt.client()
	errs := make([]error, loaders)
	parallel(loaders, func(g int) {
		rng := rngFor(r.seed, "load", g)
		for k := int64(g); k < r.w.records; k += int64(loaders) {
			key := ycsb.KeyName(k)
			it, err := cl.Set(bg, key, buildRecord(rng, key, 0), 0)
			if err != nil {
				errs[g] = fmt.Errorf("load %s: %w", key, err)
				return
			}
			r.acks.record(k, it.CAS, 0)
		}
	})
	return errors.Join(errs...)
}

// numClients is how many closed-loop clients a window runs. One
// client leaves the second CPU of a small host to the work each op
// waits on elsewhere (the flusher on kv-durable, the cbserver process
// on kv-wire, replication and the collector). With a client per CPU
// that work and the clients contend for the processors, and the
// figures measure the scheduler: on a 2-vCPU host, two clients spread
// query-range's scan p50 over 10 runs about half as wide again as one.
const numClients = 1

// clients builds numClients closed-loop clients, each with its own RNG
// stream derived from the seed.
func (r *run) clients(seed int64, stream string, traced bool) []*client {
	out := make([]*client, numClients)
	for i := range out {
		c := &client{r: r, id: i, rng: rngFor(seed, stream, i), cl: r.tgt.client()}
		if traced {
			c.cl = r.tgt.traced()
			c.children = map[string]*samples{}
		}
		out[i] = c
	}
	return out
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// window is what one measured window produced.
type window struct {
	clients             []*client
	elapsed             float64
	ops, fails          int64
	lat                 [numOpKinds][numSlices]samples // merged across clients
	all                 [numOpKinds]samples            // every slice merged
	sliceRate           []float64                      // ops/s per slice
	peakRSS             float64                        // MB, sampled in process
	before, after       promSet                        // the program's metrics (server's for kv-wire)
	cliBefore, cliAfter promSet                        // this process's metrics (the wire client's)
	rtBefore, rtAfter   runtimeSnap
	queueMax            float64
	resident            float64
	spans               []span
}

// measure runs the clients closed-loop for d and gathers what they saw
// along with the program's counters on either side of the window.
func measure(r *run, d time.Duration, traced bool) (*window, error) {
	stream := "window"
	if traced {
		stream = "traced"
	}
	m := &window{clients: r.clients(r.seed, stream, traced)}
	if _, local := r.tgt.(*inproc); local {
		// Start each window from a collected heap returned to the OS, so
		// the window's peak resident set reflects the workload rather
		// than where set-up left the collector.
		runtime.GC()
		debug.FreeOSMemory()
	}
	var err error
	if m.before, err = r.tgt.serverMetrics(); err != nil {
		return nil, err
	}
	m.cliBefore = localMetrics()
	m.rtBefore = readRuntime()
	stop := make(chan struct{})
	type peaks struct{ queue, rss float64 }
	sampled := make(chan peaks, 1)
	go func() {
		q, rss := monitor(r.tgt, stop)
		sampled <- peaks{q, rss}
	}()
	t0 := time.Now()
	deadline := t0.Add(d)
	parallel(len(m.clients), func(i int) {
		c := m.clients[i]
		c.start, c.length = t0, d
		if traced {
			// Op ids carry the client id, so they are unique in the run.
			c.tr = &opTrace{epoch: t0, op: uint64(c.id) << 40}
		}
		for time.Now().Before(deadline) {
			c.do(true)
		}
	})
	m.elapsed = time.Since(t0).Seconds()
	close(stop)
	p := <-sampled
	m.queueMax, m.peakRSS = p.queue, p.rss
	m.rtAfter = readRuntime()
	m.cliAfter = localMetrics()
	if m.after, err = r.tgt.serverMetrics(); err != nil {
		return nil, err
	}
	if ip, ok := r.tgt.(*inproc); ok {
		m.resident = ip.resident()
	} else {
		m.resident = residentRatio(m.after)
	}
	for _, c := range m.clients {
		m.ops += c.ops
		m.fails += c.fails
		m.spans = append(m.spans, c.kept...)
	}
	for k := range m.lat {
		for s := range m.lat[k] {
			parts := make([]samples, len(m.clients))
			for i, c := range m.clients {
				parts[i] = c.lat[k][s]
			}
			m.lat[k][s] = merge(parts...)
		}
		m.all[k] = merge(m.lat[k][:]...)
	}
	for s := 0; s < numSlices; s++ {
		var n int64
		for _, c := range m.clients {
			n += c.done[s]
		}
		m.sliceRate = append(m.sliceRate, float64(n)/(d.Seconds()/numSlices))
	}
	return m, nil
}

// monitor samples, until stop closes, the disk-write queue depth and,
// for an in-process target, this process's resident set; it returns
// the largest of each.
func monitor(t target, stop <-chan struct{}) (queue, rssMB float64) {
	_, local := t.(*inproc)
	every := 5 * time.Millisecond
	if !local {
		every = 250 * time.Millisecond // each read is an HTTP scrape
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return queue, rssMB
		case <-tick.C:
		}
		if !local {
			if m, err := t.serverMetrics(); err == nil {
				queue = max(queue, m.sum("couchgo_flusher_queue_depth", map[string]string{"bucket": bucketName}))
			}
			continue
		}
		queue = max(queue, float64(mQueueDepth.Value()))
		if n%10 == 0 {
			if mb, err := residentMB(); err == nil {
				rssMB = max(rssMB, mb)
			}
		}
	}
}

// residentMB reads this process's current resident set.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

// finalGates checks, after the window, that every key holds its
// highest-CAS acknowledged write, and on kv-durable that every
// PersistTo-acknowledged write reads back after a restart.
func finalGates(r *run) error {
	verify := func(phase string, checkCAS bool) {
		cl := r.tgt.client()
		type kv struct {
			k    int64
			want ack
		}
		var all []kv
		r.acks.each(func(k int64, want ack) { all = append(all, kv{k, want}) })
		n := runtime.NumCPU() * 2
		parallel(n, func(g int) {
			for i := g; i < len(all); i += n {
				key := ycsb.KeyName(all[i].k)
				it, err := cl.Get(bg, key)
				if err != nil {
					r.bad.add("%s: get %s: %v", phase, key, err)
					continue
				}
				ver, ok := stampVersion(it.Value)
				if !ok || !stampedBy(it.Value, key) || ver != all[i].want.ver || (checkCAS && it.CAS != all[i].want.cas) {
					r.bad.add("%s: %s holds version %x cas %d, want version %x cas %d", phase, key, ver, it.CAS, all[i].want.ver, all[i].want.cas)
				}
			}
		})
	}
	verify("final state", true)
	if ip, ok := r.tgt.(*inproc); ok && r.w.durable {
		if err := ip.restart(); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		verify("after restart", false)
	}
	return nil
}

// environment records where and on what a run ran.
func environment(o options) map[string]string {
	env := map[string]string{
		"commit":  o.commit,
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"go":      runtime.Version(),
		"os_arch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}

func writeRecord(o options, rec *record) error {
	dir := filepath.Join(o.workdir, "results", rec.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seed%d-trace%d-%d.json", rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// sortedKeys lists a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
