// Elastic scaling and high availability (§4.1.1, §4.3.1): scale a
// cluster out with rebalance under live traffic, crash a node, and
// watch automatic failover (orchestrator re-election included) keep
// every document readable.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"couchgo"
)

func main() {
	cluster, err := couchgo.NewCluster(couchgo.ClusterOptions{
		NumVBuckets:     64,
		FailoverTimeout: 300 * time.Millisecond, // auto-failover
	})
	must(err)
	defer cluster.Close()
	must(cluster.AddNode("node0", couchgo.AllServices))
	must(cluster.AddNode("node1", couchgo.AllServices))
	must(cluster.CreateBucket("default", couchgo.BucketOptions{NumReplicas: 1}))
	bucket, err := cluster.Bucket("default")
	must(err)

	// Load data with replication durability (so a node crash cannot
	// lose acknowledged writes).
	const docs = 500
	for i := 0; i < docs; i++ {
		_, err := bucket.Write(fmt.Sprintf("doc::%04d", i), map[string]any{"i": i},
			couchgo.WriteOptions{Durability: couchgo.DurabilityOptions{ReplicateTo: 1}})
		must(err)
	}
	fmt.Printf("loaded %d documents on 2 nodes; orchestrator=%s\n", docs, cluster.Orchestrator())

	// Keep a client hammering reads while topology changes happen.
	var reads, readErrors atomic.Int64
	stop := make(chan struct{})
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := bucket.Get(fmt.Sprintf("doc::%04d", i%docs)); err != nil {
				readErrors.Add(1)
			}
			reads.Add(1)
			i++
		}
	}()

	// Scale out: add a third node and rebalance.
	must(cluster.AddNode("node2", couchgo.AllServices))
	start := time.Now()
	must(cluster.Rebalance())
	fmt.Printf("rebalanced onto 3 nodes in %v (reads so far: %d, errors: %d)\n",
		time.Since(start).Round(time.Millisecond), reads.Load(), readErrors.Load())

	// Crash the orchestrator. The health watchdog behind
	// FailoverTimeout fails it over and the next node takes over as
	// orchestrator.
	must(cluster.Kill("node0"))
	deadline := time.Now().Add(10 * time.Second)
	for cluster.Orchestrator() != "node1" {
		if time.Now().After(deadline) {
			log.Fatal("orchestrator never changed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Wait for automatic failover to restore full availability.
	for {
		ok := true
		for i := 0; i < docs; i += 97 {
			if _, err := bucket.Get(fmt.Sprintf("doc::%04d", i)); err != nil {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("auto-failover did not restore availability")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("node0 crashed; auto-failover promoted replicas; orchestrator=%s\n", cluster.Orchestrator())

	// Rebalance the survivors and verify every document.
	must(cluster.Rebalance())
	close(stop)
	missing := 0
	for i := 0; i < docs; i++ {
		if _, err := bucket.Get(fmt.Sprintf("doc::%04d", i)); err != nil {
			missing++
		}
	}
	fmt.Printf("after failover + rebalance: %d/%d documents readable (total reads during chaos: %d)\n",
		docs-missing, docs, reads.Load())
	if missing > 0 {
		log.Fatalf("%d documents lost", missing)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
