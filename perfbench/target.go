package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/metrics"
	"couchgo/internal/query"
	"couchgo/internal/transport"
)

// target is the system under test for one set-up instance.
type target interface {
	// client returns the plain smart client; traced returns one whose
	// router is wrapped to time node calls.
	client() *core.Client
	traced() *core.Client
	query(stmt string, opts executor.Options) (*query.Result, error)
	// serverMetrics returns the program's exported metrics as
	// Prometheus text; for kv-wire, the server's /metrics.
	serverMetrics() (promSet, error)
	// drain waits until every acknowledged mutation is on disk.
	drain() error
	dir() string
	close()
}

// localMetrics renders this process's metrics registry as Prometheus
// text. metrics.Default.Snapshot reports histograms as cumulative
// quantiles only; the text form carries the bucket counts that window
// deltas need, so both sides of a run read the one format.
func localMetrics() promSet {
	var buf bytes.Buffer
	metrics.Default.WriteTo(metrics.NewTextWriter(&buf))
	return parseProm(&buf)
}

// --- in-process cluster ---

type inproc struct {
	w   workload
	d   string
	c   *core.Cluster
	cl  *core.Client
	tcl *core.Client
}

func nodeID(i int) cmap.NodeID { return cmap.NodeID(fmt.Sprintf("node%d", i)) }

func startInproc(w workload, dir string) (*inproc, error) {
	t := &inproc{w: w, d: dir}
	return t, t.open()
}

func (t *inproc) open() error {
	c, err := core.NewCluster(core.Config{Dir: t.d, NumVBuckets: numVBuckets})
	if err != nil {
		return err
	}
	t.c = c
	for i := 0; i < t.w.nodes; i++ {
		if _, err := c.AddNode(nodeID(i), cmap.AllServices); err != nil {
			c.Close()
			return err
		}
	}
	if err := c.CreateBucket(bucketName, core.BucketOptions{NumReplicas: t.w.replicas, MemoryQuotaBytes: t.w.quotaMB << 20}); err != nil {
		c.Close()
		return err
	}
	if t.cl, err = c.OpenBucket(bucketName); err != nil {
		c.Close()
		return err
	}
	t.tcl = core.NewClient(tracedRouter{
		bucketMap: func() (*cmap.Map, error) { return c.BucketMap(bucketName) },
		conn:      func(id cmap.NodeID) (core.NodeConn, error) { return c.LoopbackConn(id, bucketName) },
		layer:     "vbucket",
	}, bucketName)
	return nil
}

func (t *inproc) client() *core.Client { return t.cl }
func (t *inproc) traced() *core.Client { return t.tcl }
func (t *inproc) dir() string          { return t.d }

func (t *inproc) query(stmt string, opts executor.Options) (*query.Result, error) {
	return t.c.Query(stmt, opts)
}

func (t *inproc) serverMetrics() (promSet, error) { return localMetrics(), nil }

func (t *inproc) drain() error {
	for i := 0; i < t.w.nodes; i++ {
		for vb := 0; vb < numVBuckets; vb++ {
			v, err := t.c.NodeVB(nodeID(i), bucketName, vb)
			if err != nil {
				continue // this node holds no copy of vb
			}
			if err := v.DrainDisk(time.Minute); err != nil {
				return fmt.Errorf("drain vb %d on %s: %w", vb, nodeID(i), err)
			}
		}
	}
	return nil
}

// restart closes the cluster and reopens it on the same data, so every
// vBucket runs restart warm-up from its files.
func (t *inproc) restart() error {
	t.c.Close()
	return t.open()
}

func (t *inproc) close() { t.c.Close() }

// resident returns the share of items whose value is in memory.
func (t *inproc) resident() float64 {
	var items, nonRes int64
	for _, st := range t.c.Stats(bucketName) {
		items += st.Items
		nonRes += st.NonResident
	}
	return ratio(float64(items-nonRes), float64(items))
}

// --- one cbserver process over the KV wire ---

type wire struct {
	d        string
	cmd      *exec.Cmd
	exited   chan error
	httpAddr string
	pool     *transport.Pool
	router   *transport.NetRouter
	cl, tcl  *core.Client
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startWire(bin, dir string) (*wire, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	kvAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "cbserver.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-listen", httpAddr, "-kv-addr", kvAddr,
		"-replicas", "0", "-vbuckets", strconv.Itoa(numVBuckets), "-bucket", bucketName, "-dir", filepath.Join(dir, "data"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cbserver: %w", err)
	}
	t := &wire{d: dir, cmd: cmd, exited: make(chan error, 1), httpAddr: httpAddr}
	go func() { t.exited <- cmd.Wait() }()
	t.pool = transport.NewPool()
	t.router = transport.NewRouter(bucketName, []string{kvAddr}, t.pool)
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, err := t.router.BucketMap()
		if err == nil {
			_, err = t.serverMetrics()
		}
		if err == nil {
			break
		}
		select {
		case e := <-t.exited:
			t.exited <- e
			t.close()
			return nil, fmt.Errorf("cbserver exited during start: %v", e)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("cbserver not ready: %w", err)
		}
	}
	t.cl = core.NewClient(t.router, bucketName)
	t.tcl = core.NewClient(tracedRouter{bucketMap: t.router.BucketMap, conn: t.router.Conn, layer: "transport"}, bucketName)
	return t, nil
}

func (t *wire) client() *core.Client { return t.cl }
func (t *wire) traced() *core.Client { return t.tcl }
func (t *wire) dir() string          { return filepath.Join(t.d, "data") }

func (t *wire) query(string, executor.Options) (*query.Result, error) {
	return nil, errors.New("the KV wire serves no N1QL")
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func (t *wire) serverMetrics() (promSet, error) {
	resp, err := httpClient.Get("http://" + t.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body), nil
}

// drain polls the server's disk-write queue gauge until it reads 0
// twice in a row.
func (t *wire) drain() error {
	deadline := time.Now().Add(time.Minute)
	zeros := 0
	for zeros < 2 {
		m, err := t.serverMetrics()
		if err != nil {
			return err
		}
		if m.sum("couchgo_flusher_queue_depth", nil) == 0 {
			zeros++
		} else {
			zeros = 0
		}
		if time.Now().After(deadline) {
			return errors.New("server disk queue did not drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// peakRSSMB is the server's peak resident set over its life.
func (t *wire) peakRSSMB() (float64, error) { return vmHWM(strconv.Itoa(t.cmd.Process.Pid)) }

// close stops the server and waits for it to exit.
func (t *wire) close() {
	t.pool.Close()
	_ = t.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-t.exited:
	case <-time.After(10 * time.Second):
		_ = t.cmd.Process.Kill() // last resort; Wait below reaps it
		<-t.exited
	}
}

// vmHWM reads a process's peak resident set from /proc, in MB.
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a compaction temp file, renamed since it was listed
		}
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// --- Prometheus text ---

// promSeries is one sample line: its labels and value.
type promSeries struct {
	labels map[string]string
	value  float64
}

// promSet maps a metric name to its sample lines.
type promSet map[string][]promSeries

func parseProm(r io.Reader) promSet {
	out := promSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], map[string]string{}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels = parseLabels(strings.TrimSuffix(name[i+1:], "}"))
			name = name[:i]
		}
		out[name] = append(out[name], promSeries{labels: labels, value: v})
	}
	return out
}

// parseLabels reads `a="x",b="y"`. Label values here never contain
// escaped quotes, but a backslash escape is honoured anyway.
func parseLabels(s string) map[string]string {
	m := map[string]string{}
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return m
		}
		k := s[:eq]
		var v strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
			}
			v.WriteByte(s[i])
		}
		m[k] = v.String()
		s = strings.TrimPrefix(s[min(i+1, len(s)):], ",")
	}
	return m
}

// match reports whether a series carries every label in want.
func match(labels, want map[string]string) bool {
	for k, v := range want {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of a family that carries the wanted labels.
func (p promSet) sum(name string, want map[string]string) float64 {
	var s float64
	for _, x := range p[name] {
		if match(x.labels, want) {
			s += x.value
		}
	}
	return s
}

// hist merges the cumulative buckets of every matching series of a
// histogram family.
func (p promSet) hist(name string, want map[string]string) []cumBucket {
	byLE := map[float64]float64{}
	for _, x := range p[name+"_bucket"] {
		if !match(x.labels, want) {
			continue
		}
		le, err := strconv.ParseFloat(x.labels["le"], 64)
		if err != nil {
			continue
		}
		byLE[le] += x.value
	}
	out := make([]cumBucket, 0, len(byLE))
	for le, n := range byLE {
		out = append(out, cumBucket{le: le, count: n})
	}
	sortBuckets(out)
	return out
}

// histDeltaCum is the cumulative histogram of the observations made
// between two reads of the same family.
func histDeltaCum(before, after []cumBucket) []cumBucket {
	prev := map[float64]float64{}
	for _, b := range before {
		prev[b.le] = b.count
	}
	out := make([]cumBucket, len(after))
	for i, b := range after {
		out[i] = cumBucket{le: b.le, count: b.count - prev[b.le]}
	}
	return out
}

// histMean is the mean observation between two reads of a family.
func histMean(before, after promSet, name string, want map[string]string) float64 {
	return ratio(after.sum(name+"_sum", want)-before.sum(name+"_sum", want),
		after.sum(name+"_count", want)-before.sum(name+"_count", want))
}

// delta is a counter family's growth between two reads.
func delta(before, after promSet, name string, want map[string]string) float64 {
	return after.sum(name, want) - before.sum(name, want)
}

// quantileBetween is a histogram family's q-quantile over the
// observations made between two reads.
func quantileBetween(before, after promSet, name string, want map[string]string, q float64) float64 {
	return cumQuantile(histDeltaCum(before.hist(name, want), after.hist(name, want)), q)
}
