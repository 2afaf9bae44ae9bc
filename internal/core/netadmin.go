package core

import (
	"couchgo/internal/cmap"
	"couchgo/internal/vbucket"
)

// This file is the cluster's exported administration surface for the
// transport layer. A multi-process cluster is N cbserver processes,
// each running a local single-node Cluster; the transport member
// applies every pushed process-level map to the local node through
// ApplyMap, which runs the same reconciler the in-process cluster
// manager does.

// BucketMap returns the bucket's current cluster map — the transport
// server stamps its Rev (the epoch) on every response and ships it
// whole in fat not-my-vbucket replies.
func (c *Cluster) BucketMap(bucket string) (*cmap.Map, error) {
	b, err := c.bucket(bucket)
	if err != nil {
		return nil, err
	}
	return b.Map(), nil
}

// BucketReplicas reports the replica count the bucket was created
// with. The live map's NumReplicas clamps to nodes-1, so a 1-node
// bootstrap map says 0 even when the bucket wants replicas; a
// coordinator minting a multi-process map needs the configured value.
func (c *Cluster) BucketReplicas(bucket string) (int, error) {
	b, err := c.bucket(bucket)
	if err != nil {
		return 0, err
	}
	return b.opts.NumReplicas, nil
}

// NodeVB returns the node's copy of a vBucket in any state, or nil
// with no error when the node holds no copy. The transport server's
// DCP handlers use it.
func (c *Cluster) NodeVB(node cmap.NodeID, bucket string, vbID int) (*vbucket.VBucket, error) {
	n, err := c.Node(node)
	if err != nil {
		return nil, err
	}
	nb, err := n.bucket(bucket)
	if err != nil {
		return nil, err
	}
	return nb.vb(vbID), nil
}

// ApplyMap installs m as the bucket's map and reconciles every vBucket
// copy on node against it, through the same per-node reconciler the
// in-process cluster manager runs. self is the node's identity in m —
// in a multi-process cluster the process's advertised KV address — and
// open reaches the active copies its replicas stream from. Every
// vBucket is reconciled even when one fails; the first error is
// returned.
func (c *Cluster) ApplyMap(node, self cmap.NodeID, bucket string, m *cmap.Map, open OpenSource) error {
	b, err := c.bucket(bucket)
	if err != nil {
		return err
	}
	n, err := c.Node(node)
	if err != nil {
		return err
	}
	nb, err := n.bucket(bucket)
	if err != nil {
		return err
	}
	b.setMap(m)
	var firstErr error
	for vb := 0; vb < m.NumVBuckets; vb++ {
		if err := nb.reconcile(vb, m, self, open); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// LoopbackConn returns the in-process NodeConn for one node — the
// transport server dispatches decoded frames through it so both
// transports execute the identical op path, and hybrid routers use it
// for the one node that lives in their own process.
func (c *Cluster) LoopbackConn(node cmap.NodeID, bucket string) (NodeConn, error) {
	n, err := c.Node(node)
	if err != nil {
		return nil, err
	}
	return loopbackConn{node: n, bucket: bucket}, nil
}
