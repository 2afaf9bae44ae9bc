package core

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/vbucket"
)

// This file is the per-node half of the cluster manager (§4.3.1),
// shared by both transports: one reconciler that drives a node's copy
// of a vBucket to match a cluster map, and one replica-stream loop
// that feeds replica and pending copies from their active copy. The
// in-process Cluster runs the reconciler on every alive data node; a
// transport member runs it on its one local node through ApplyMap.
// Only where a replica's active copy lives differs, and that is the
// ReplicaSource an OpenSource returns.

// ReplicaSource is the active copy a replica streams from: a DCP
// stream source that also carries the replica's acknowledgements back
// for ReplicateTo durability. An in-process vBucket and
// transport.RemoteProducer are the two kinds.
type ReplicaSource interface {
	dcp.StreamSource
	// Ack reports seqno, the highest mutation the named replica has
	// applied from stream s.
	Ack(s dcp.MutationStream, replica string, seqno uint64)
}

// OpenSource resolves the active copy of a bucket's vBucket on node
// src. The replica loop calls it on every (re)connect.
type OpenSource func(src cmap.NodeID, bucket string, vbID int) (ReplicaSource, error)

// localSource is an in-process active copy: its own DCP producer, with
// acknowledgements recorded directly on the vBucket.
type localSource struct {
	*dcp.Producer
	vb *vbucket.VBucket
}

func (s localSource) Ack(_ dcp.MutationStream, replica string, seqno uint64) {
	s.vb.AckReplica(replica, seqno)
}

// openLocal is the in-process OpenSource.
func (c *Cluster) openLocal(src cmap.NodeID, bucket string, vbID int) (ReplicaSource, error) {
	n, err := c.Node(src)
	if err != nil {
		return nil, err
	}
	vb, err := n.kvVB(bucket, vbID)
	if err != nil {
		return nil, err
	}
	return localSource{Producer: vb.Producer(), vb: vb}, nil
}

// reconcile drives this node's copy of vbID to match m, where self is
// the node's identity in m:
//   - active: promote the copy (or create it), or, when it is already
//     active, only refresh its durability ack set;
//   - replica: demote or create the copy and stream it from the active;
//   - neither: drop the copy — unless the partition was lost on every
//     node, in which case whatever copy this node holds is kept.
func (nb *nodeBucket) reconcile(vbID int, m *cmap.Map, self cmap.NodeID, open OpenSource) error {
	active, replicas := m.Active(vbID), m.Replicas(vbID)
	switch {
	case active == self:
		// Stop any inbound stream first: no replica mutation may land
		// on the copy once it serves writes.
		nb.stopReplStream(vbID)
		vb, err := nb.createVB(vbID, vbucket.Active)
		if err != nil {
			return err
		}
		if vb.State() != vbucket.Active {
			nb.promote(vb)
		}
		names := make([]string, len(replicas))
		for i, r := range replicas {
			names[i] = string(r)
		}
		vb.SetReplicaSet(names)
	case slices.Contains(replicas, self):
		vb, err := nb.createVB(vbID, vbucket.Replica)
		if err != nil {
			return err
		}
		if vb.State() == vbucket.Active {
			// Demotion: detach index consumers first.
			nb.detachConsumers(vbID)
		}
		vb.SetState(vbucket.Replica)
		nb.follow(vb, self, active, open)
	case active != "":
		nb.demoteAndDrop(vbID)
	}
	return nil
}

// replLink is one running replica-stream loop feeding a local copy.
type replLink struct {
	src  cmap.NodeID
	stop chan struct{}
	done chan struct{}
	// alive is the owning node's liveness: a loop on a node that is
	// down changes nothing and acknowledges nothing.
	alive *atomic.Bool
	// mu is held while the loop changes the local copy or acks, and
	// while halt marks the link halted.
	mu     sync.Mutex
	halted bool
}

// halt stops the loop. Once halt returns the loop changes nothing on
// the copy and acknowledges nothing, though it may still be finishing
// a network call; halt does not wait for that. Whoever removes a link
// from nodeBucket.replStreams halts it, exactly once.
func (l *replLink) halt() {
	l.mu.Lock()
	l.halted = true
	l.mu.Unlock()
	close(l.stop)
}

// exited reports whether the loop has returned on its own (its copy
// stopped being a replica or pending copy).
func (l *replLink) exited() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// do runs f, a change to the local copy or an ack, unless the link is
// halted or its node is down, and reports whether f ran.
func (l *replLink) do(f func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.halted || !l.alive.Load() {
		return false
	}
	f()
	return true
}

// follow feeds vb from the active copy on src. A running loop whose
// source is unchanged is kept; any other is replaced. An in-process
// source answers at once, so its first stream is opened before follow
// returns: a write made once the map is applied then streams live,
// with its trace, rather than arriving later in a backfill. A remote
// source may hang, so only the loop talks to it.
func (nb *nodeBucket) follow(vb *vbucket.VBucket, self, src cmap.NodeID, open OpenSource) {
	nb.mu.Lock()
	old := nb.replStreams[vb.ID]
	if old != nil && old.src == src && !old.exited() {
		nb.mu.Unlock()
		return
	}
	l := &replLink{src: src, stop: make(chan struct{}), done: make(chan struct{}), alive: nb.alive}
	nb.replStreams[vb.ID] = l
	nb.mu.Unlock()
	if old != nil {
		old.halt()
	}
	rs, err := open(src, nb.bucketName, vb.ID)
	var s dcp.MutationStream
	if _, local := rs.(localSource); err == nil && local {
		// A failed attempt leaves s nil; the loop retries it.
		s, _ = nb.openReplicaStream(vb, self, l, rs)
	}
	go nb.runReplica(vb, self, l, open, rs, s)
}

func (nb *nodeBucket) stopReplStream(vbID int) {
	nb.mu.Lock()
	l := nb.replStreams[vbID]
	delete(nb.replStreams, vbID)
	nb.mu.Unlock()
	if l != nil {
		l.halt()
	}
}

// stopReplStreams halts every inbound replica stream on this node.
func (nb *nodeBucket) stopReplStreams() {
	nb.mu.Lock()
	links := nb.replStreams
	nb.replStreams = make(map[int]*replLink)
	nb.mu.Unlock()
	for _, l := range links {
		l.halt()
	}
}

const (
	replicaMinBackoff = 50 * time.Millisecond
	replicaMaxBackoff = time.Second
	// replicaAckBurst caps how many mutations one ack covers, so a
	// sustained write stream cannot hold back ReplicateTo waiters.
	replicaAckBurst = 64
)

// runReplica is the one replica-stream loop. Each connection adopts
// the active's failover log, resumes at the local high seqno (handling
// one rollback bounce), applies mutations and acknowledges the highest
// seqno applied once per burst. It reconnects with capped backoff
// while the local copy is a replica or pending copy, until halted or
// its node is down. s is a stream from src that follow already
// opened, or nil.
func (nb *nodeBucket) runReplica(vb *vbucket.VBucket, self cmap.NodeID, l *replLink, open OpenSource, src ReplicaSource, s dcp.MutationStream) {
	defer close(l.done)
	backoff := replicaMinBackoff
	for {
		if s != nil {
			backoff = replicaMinBackoff
			if !drainReplicaStream(vb, src, s, string(self), l) {
				return
			}
			s = nil
		}
		select {
		case <-l.stop:
			return
		default:
		}
		if st := vb.State(); st != vbucket.Replica && st != vbucket.Pending {
			return
		}
		var err error
		if src, err = open(l.src, nb.bucketName, vb.ID); err == nil {
			s, err = nb.openReplicaStream(vb, self, l, src)
		}
		if errors.Is(err, errLinkStopped) {
			return
		}
		if err == nil {
			continue
		}
		t := time.NewTimer(backoff)
		select {
		case <-l.stop:
			t.Stop()
			return
		case <-t.C:
		}
		backoff = min(backoff*2, replicaMaxBackoff)
	}
}

var (
	errNoFailoverLog = errors.New("core: replica source returned no failover log")
	errLinkStopped   = errors.New("core: replica stream halted or its node is down")
)

// openReplicaStream opens one stream from src, l's source, into vb.
func (nb *nodeBucket) openReplicaStream(vb *vbucket.VBucket, self cmap.NodeID, l *replLink, src ReplicaSource) (dcp.MutationStream, error) {
	flog := src.FailoverLog()
	if len(flog) == 0 {
		return nil, errNoFailoverLog
	}
	// The replica adopts the active's failover log: if it is later
	// promoted, consumers that resumed on the old active's branch
	// present a (UUID, seqno) the promoted producer can validate.
	var from uint64
	if !l.do(func() {
		vb.Producer().SetFailoverLog(flog)
		from = vb.HighSeqno()
	}) {
		return nil, errLinkStopped
	}
	uuid := flog[len(flog)-1].UUID
	name := "replica:" + string(self)
	s, err := src.ResumeStream(name, uuid, from)
	var rb *dcp.RollbackError
	if errors.As(err, &rb) {
		e := events.New(events.FeedEvent, events.SevWarn, "replica stream rollback")
		e.Node, e.Bucket, e.VB = string(self), nb.bucketName, vb.ID
		e.Fields = map[string]string{
			"rollback_to": strconv.FormatUint(rb.Seqno, 10),
			"uuid":        strconv.FormatUint(rb.UUID, 10),
			"from_seqno":  strconv.FormatUint(from, 10),
		}
		events.Default.Publish(e)
		s, err = src.ResumeStream(name, rb.UUID, rb.Seqno)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// drainReplicaStream applies s into vb until the stream ends (true:
// reconnect) or the link stops (false). Everything already delivered
// is applied before acking: an ack is a high watermark, so one covers
// the whole burst.
func drainReplicaStream(vb *vbucket.VBucket, src ReplicaSource, s dcp.MutationStream, replica string, l *replLink) bool {
	defer s.Close()
	burst := make([]dcp.Mutation, 0, replicaAckBurst)
	for {
		select {
		case m, ok := <-s.C():
			if !ok {
				return true
			}
			burst = append(burst[:0], m)
			ended := false
		more:
			for len(burst) < replicaAckBurst {
				select {
				case m, ok := <-s.C():
					if !ok {
						ended = true
						break more
					}
					burst = append(burst, m)
				default:
					break more
				}
			}
			if !l.do(func() {
				for _, m := range burst {
					vb.ApplyReplica(m)
				}
				src.Ack(s, replica, burst[len(burst)-1].Seqno)
			}) {
				return false
			}
			if ended {
				return true
			}
		case <-l.stop:
			return false
		}
	}
}
