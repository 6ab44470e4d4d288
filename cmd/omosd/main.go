// Command omosd runs a persistent OMOS server daemon: a simulated
// machine with the object/meta-object server attached, reachable over
// TCP.  This is the paper's deployment shape — the linker/loader as a
// server that lives across program invocations — with the wire
// protocol standing in for Mach IPC / SysV messages.
//
// Usage:
//
//	omosd [-listen :7070] [-workloads] [-store DIR] [-store-max-bytes N]
//	      [-faults SPEC] [-fault-seed N]
//	      [-max-inflight N] [-queue-depth N] [-build-timeout D]
//	      [-scrub-interval D] [-scrub-per-tick N] [-handlers-per-conn N]
//	      [-peers addr,addr...] [-mesh-secret S] [-mesh-gossip-interval D]
//	omosd -list-faults
//
// With -workloads the daemon boots with the evaluation workloads
// preinstalled (/bin/ls, /bin/codegen, /lib/libc, ...).
//
// With -store the image cache is persistent: every image built is
// written to DIR, and a daemon restarted on the same directory
// attaches them — client instantiations are served from them without a
// single relink.  -store-max-bytes bounds the store (LRU eviction);
// 0 means unlimited.
//
// A running daemon is queried with the client: `omos health` prints
// its state and verdicts, `omos stats` its counters, `omos graph` its
// build-graph report.  The degraded verdict is computed when health
// is asked for: admission queue past 80% of -queue-depth, store past
// 90% of -store-max-bytes, or a build in flight longer than half
// -build-timeout (30s without one).
//
// -max-inflight/-queue-depth size the admission gate (overload
// protection: excess requests are shed with a retry-after hint rather
// than queued without bound).  -handlers-per-conn bounds how many
// tagged requests one connection may have executing at once — the
// per-connection backpressure knob of the pipelined protocol (the
// reader stops consuming frames when the pool is full).
// -build-timeout arms the per-build watchdog.  -scrub-interval enables
// the background store scrubber.
//
// -peers joins the daemon to a federated mesh: the named daemons and
// this one consistent-hash shard the content-addressed store, and a
// placement miss on a non-owning daemon that holds no variant to
// rebase asks the shard owner for its streamed blob before relinking
// locally.  -mesh-secret (or $OMOS_MESH_SECRET)
// authenticates peer traffic; client ops stay open.
// -mesh-gossip-interval sets the anti-entropy period.
//
// -faults (or the OMOS_FAULTS environment variable) arms deterministic
// fault injection for resilience drills.  The spec syntax is
// "site:kind[:p=P|n=N][:count=C][:delay=D]" entries joined by ';',
// e.g. "store.read:error:p=0.01" or "build.link:panic:n=100:count=1".
// -fault-seed makes probabilistic rules reproducible.  -list-faults
// prints every injectable site and kind the build knows and exits —
// the authoritative registry for drill scripts and the fault-matrix
// test.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops
// accepting, lets in-flight requests finish, answers stragglers with
// a clean draining error during a short grace window, and flushes the
// store.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"omos"
	"omos/internal/daemon"
	"omos/internal/fault"
	"omos/internal/ipc"
	"omos/internal/mesh"
	"omos/internal/workload"
)

func main() {
	listen := flag.String("listen", ":7070", "TCP address to listen on")
	workloads := flag.Bool("workloads", false, "preinstall the evaluation workloads")
	storeDir := flag.String("store", "", "directory for the persistent image store (empty: in-memory only)")
	storeMax := flag.Int64("store-max-bytes", 0, "image store capacity in bytes (0: unlimited)")
	listFaults := flag.Bool("list-faults", false, "print every injectable fault site and kind, then exit")
	faults := flag.String("faults", os.Getenv("OMOS_FAULTS"),
		"fault-injection spec, e.g. \"store.read:error:p=0.01;build.link:panic:n=100\" (default $OMOS_FAULTS)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for probabilistic fault rules")
	maxInflight := flag.Int("max-inflight", 64, "admission gate: concurrent instantiations (0: ungated)")
	queueDepth := flag.Int("queue-depth", 256, "admission gate: waiting requests before shedding")
	buildTimeout := flag.Duration("build-timeout", time.Minute, "watchdog bound per image build (0: none)")
	scrubInterval := flag.Duration("scrub-interval", 30*time.Second, "store scrub tick (0: no scrubbing; needs -store)")
	scrubPerTick := flag.Int("scrub-per-tick", 4, "blobs re-verified per scrub tick")
	handlersPerConn := flag.Int("handlers-per-conn", ipc.DefaultHandlerPool,
		"concurrent tagged requests per connection (backpressure: the reader pauses when full)")
	peers := flag.String("peers", "", "comma-separated peer daemon addresses: join the federated mesh")
	meshSecret := flag.String("mesh-secret", os.Getenv("OMOS_MESH_SECRET"),
		"shared secret authenticating mesh peers (default $OMOS_MESH_SECRET)")
	meshGossip := flag.Duration("mesh-gossip-interval", 2*time.Second,
		"anti-entropy gossip period for the mesh (0: manual gossip only)")
	flag.Parse()

	if *listFaults {
		// The registry dump needs no daemon: it is the build's own
		// fault surface, the ground truth the fault-matrix test pins.
		fmt.Printf("sites: %s\n", strings.Join(fault.Sites(), " "))
		fmt.Printf("kinds: %s\n", strings.Join(fault.Kinds(), " "))
		os.Exit(0)
	}

	sys, err := omos.NewSystemWith(omos.Options{
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		FaultSpec:     *faults,
		FaultSeed:     *faultSeed,
		MaxInflight:   *maxInflight,
		QueueDepth:    *queueDepth,
		BuildTimeout:  *buildTimeout,
		ScrubInterval: *scrubInterval,
		ScrubPerTick:  *scrubPerTick,
	})
	if err != nil {
		log.Fatalf("omosd: %v", err)
	}
	if *storeDir != "" {
		log.Printf("omosd: image store at %s (%d images attached)", *storeDir, sys.WarmLoaded)
	}
	if *faults != "" {
		log.Printf("omosd: fault injection armed: %s (seed %d)", *faults, *faultSeed)
	}
	if *workloads {
		if err := daemon.InstallWorkloads(sys, workload.DefaultCodegen()); err != nil {
			log.Fatalf("omosd: installing workloads: %v", err)
		}
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("omosd: %v", err)
	}
	log.Printf("omosd: serving on %s (workloads=%v)", l.Addr(), *workloads)

	b := daemon.New(sys)
	var node *mesh.Node
	if *peers != "" {
		self := *listen
		if strings.HasPrefix(self, ":") {
			self = "127.0.0.1" + self
		}
		node, err = mesh.New(sys.Srv, mesh.Config{
			Self:           self,
			Secret:         *meshSecret,
			GossipInterval: *meshGossip,
			Faults:         sys.Faults,
		})
		if err != nil {
			log.Fatalf("omosd: mesh: %v", err)
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				node.AddPeer(p)
			}
		}
		b.Mesh = node
		// Tell the fleet we own a shard now; peers that are up push the
		// content the new ring assigns to us, stragglers catch up via
		// gossip.
		if err := node.AnnounceMembership(); err != nil {
			log.Printf("omosd: mesh join (will converge via gossip): %v", err)
		}
		node.Start()
		log.Printf("omosd: mesh member %s with peers %s", self, *peers)
	}

	srv := ipc.NewServer(b)
	srv.HandlerPool = *handlersPerConn
	srv.MeshSecret = *meshSecret
	srv.SetFaults(sys.Faults)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigc
		log.Printf("omosd: %v: draining and flushing", sig)
		srv.Shutdown()
		close(done)
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatalf("omosd: %v", err)
	}
	<-done
	if node != nil {
		node.Close()
	}
	if err := sys.Close(); err != nil {
		log.Printf("omosd: closing store: %v", err)
	}
	log.Printf("omosd: shut down cleanly")
}
