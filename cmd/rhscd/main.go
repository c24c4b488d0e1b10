// Command rhscd is the simulation-as-a-service daemon: a multi-tenant
// job server running catalogued simulations on a bounded worker pool
// with admission control and checkpoint-based preemption.
//
//	rhscd -addr :8080 -workers 4 -spool /var/spool/rhscd
//	curl -d '{"problem":"sod","n":256}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j000001/watch
//
// On SIGINT/SIGTERM the daemon stops admitting work, checkpoints every
// in-flight job into the spool directory, and exits 0; the exit code is
// nonzero only when a checkpoint could not be written. A restarted
// daemon re-admits the spooled jobs and resumes parked ones
// bit-exactly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rhsc/internal/durable"
	"rhsc/internal/hetero"
	"rhsc/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		workers = flag.Int("workers", 2, "simulation worker pool size")
		queue   = flag.Int("queue", 64, "queued-job capacity")
		maxCost = flag.Int64("maxcost", 0, "per-job zone-update cost ceiling (0 = unlimited)")
		spool   = flag.String("spool", "rhscd-spool", "directory for drain checkpoints")
		budget  = flag.Int64("budget", 0, "default per-tenant zone-update budget (0 = unlimited)")
		active  = flag.Int("active", 0, "default per-tenant concurrent job cap (0 = unlimited)")
		quotas  = flag.String("quotas", "", "per-tenant overrides, e.g. 'alice=4:1e9,bob=2:0' (maxactive:budget)")
		fleet   = flag.String("fleet", "", "routed device fleet, e.g. 'cpu8,k20,k20-staged,phi'; jobs land on health-scored capacity (GET /v1/fleet)")
		jobTO   = flag.Duration("job-timeout", 0, "per-job running wall-clock cap, e.g. 10m; past it the job is cancelled with a typed timeout (0 = unlimited)")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers: *workers, MaxQueue: *queue, MaxJobCost: *maxCost,
		DefaultQuota: serve.Quota{MaxActive: *active, Budget: *budget},
		JobTimeout:   *jobTO,
	}
	var err error
	if cfg.Quotas, err = parseQuotas(*quotas); err != nil {
		log.Fatal(err)
	}
	if *fleet != "" {
		devs, err := hetero.ParseFleet(*fleet)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Placer = serve.NewFleetPlacer(devs...)
		log.Printf("rhscd: routing jobs across %d device(s): %s", len(devs), *fleet)
	}

	srv := serve.New(cfg)
	if *spool != "" {
		// Boot recovery: verified records re-admit; corrupt or unusable
		// ones are quarantined to <spool>/corrupt/ so a single rotten
		// record can never wedge the boot.
		n, err := srv.LoadSpool(*spool)
		if err != nil {
			log.Printf("rhscd: spool load (damaged entries quarantined to %s): %v",
				filepath.Join(*spool, durable.QuarantineDir), err)
		}
		if n > 0 {
			log.Printf("rhscd: re-admitted %d spooled job(s) from %s", n, *spool)
		}
		if d := srv.DurableMetrics(); d.Quarantined > 0 {
			log.Printf("rhscd: boot quarantined %d spool file(s), skipped %d generation(s)",
				d.Quarantined, d.SkippedGenerations)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: serve.NewMux(srv)}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	log.Printf("rhscd: serving on %s with %d worker(s), spool %q", *addr, *workers, *spool)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("rhscd: %v: draining", sig)
	case err := <-httpErr:
		log.Fatalf("rhscd: http: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("rhscd: http shutdown: %v", err)
	}
	if err := srv.Drain(*spool); err != nil {
		// The one condition worth a nonzero exit: in-flight state that
		// could not be checkpointed is lost.
		log.Printf("rhscd: drain: %v", err)
		os.Exit(1)
	}
	d := srv.DurableMetrics()
	log.Printf("rhscd: drained cleanly (%d durable commit(s), %d byte(s))",
		d.Commits, d.CommitBytes)
}

// parseQuotas decodes 'tenant=maxactive:budget' pairs. The tenant must be
// named, maxactive must be a non-negative integer, and budget a
// non-negative whole number of zone updates (1e9 form allowed) that fits
// an int64.
func parseQuotas(s string) (map[string]serve.Quota, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]serve.Quota)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("rhscd: bad quota %q (want tenant=maxactive:budget)", pair)
		}
		ma, bu, ok := strings.Cut(val, ":")
		if !ok {
			return nil, fmt.Errorf("rhscd: bad quota %q (want tenant=maxactive:budget)", pair)
		}
		var q serve.Quota
		var err error
		if q.MaxActive, err = strconv.Atoi(ma); err != nil {
			return nil, fmt.Errorf("rhscd: bad maxactive in %q: %v", pair, err)
		}
		if q.MaxActive < 0 {
			return nil, fmt.Errorf("rhscd: bad maxactive in %q: negative", pair)
		}
		b, err := strconv.ParseFloat(bu, 64)
		if err != nil {
			return nil, fmt.Errorf("rhscd: bad budget in %q: %v", pair, err)
		}
		// 0x1p63 is MaxInt64+1: the first float64 int64() cannot hold.
		if !(b >= 0 && b < 0x1p63) || b != math.Trunc(b) {
			return nil, fmt.Errorf("rhscd: bad budget in %q: want a whole number in [0, 2^63)", pair)
		}
		q.Budget = int64(b)
		out[name] = q
	}
	return out, nil
}
