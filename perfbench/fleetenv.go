package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"seabed/internal/client"
	"seabed/internal/durable"
	"seabed/internal/engine"
	"seabed/internal/fleet"
	"seabed/internal/server"
	"seabed/internal/translate"
)

const (
	daemons  = 3
	replicas = 2
	// masterSecret keys the proxy; fixed so encrypted sizes and counts
	// depend on the seed alone.
	masterSecret = "perfbench-master-secret-0123456789"
)

// daemon is one in-process seabed-server on a loopback listener.
type daemon struct {
	srv   *server.Server
	store *durable.Store
	done  chan error
}

// env is one set-up: the daemons, the fleet coordinator over them and the
// proxy driving it.
type env struct {
	daemons []*daemon
	fleet   *fleet.Cluster
	proxy   *client.Proxy
	dir     string
}

// setUp starts the daemons, dials the fleet, plans and uploads every table
// and, when the mix joins, runs the join once so the broadcast table is
// shipped. wrap, when non-nil, interposes on the proxy's backend (the traced
// run's timing wrapper). It returns the wall time of all of it.
func setUp(ctx context.Context, w *benchWorkload, ds *dataset, dir string, wrap func(*fleet.Cluster) client.ClusterBackend) (*env, time.Duration, error) {
	start := time.Now()
	e := &env{dir: dir}
	fail := func(err error) (*env, time.Duration, error) {
		e.close()
		return nil, 0, err
	}
	addrs := make([]string, daemons)
	for i := range addrs {
		d := &daemon{srv: server.New(engine.NewCluster(engine.Config{})), done: make(chan error, 1)}
		d.srv.ShardIndex, d.srv.ShardCount = i, daemons
		if w.durable {
			st, err := durable.Open(durable.Options{Dir: filepath.Join(dir, fmt.Sprintf("d%d", i)), Fsync: durable.FsyncBatch})
			if err != nil {
				return fail(err)
			}
			d.store = st
			d.srv.UseDurable(st)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			if d.store != nil {
				d.store.Close() //nolint:errcheck // already failing
			}
			return fail(err)
		}
		go func() { d.done <- d.srv.Serve(ln) }()
		e.daemons = append(e.daemons, d)
		addrs[i] = ln.Addr().String()
	}
	fc, err := fleet.Dial(addrs, fleet.Options{Replicas: replicas})
	if err != nil {
		return fail(err)
	}
	e.fleet = fc
	var backend client.ClusterBackend = fc
	if wrap != nil {
		backend = wrap(fc)
	}
	if e.proxy, err = client.NewProxy([]byte(masterSecret), backend); err != nil {
		return fail(err)
	}
	for _, t := range ds.tables {
		if _, err := e.proxy.CreatePlan(t.schema, t.samples, t.opts); err != nil {
			return fail(fmt.Errorf("plan %s: %w", t.name, err))
		}
	}
	for _, t := range ds.tables {
		if err := e.proxy.Upload(ctx, t.name, t.data, translate.Seabed); err != nil {
			return fail(fmt.Errorf("upload %s: %w", t.name, err))
		}
	}
	if ds.join != nil {
		if _, err := runQuery(ctx, e.proxy, ds.join); err != nil {
			return fail(fmt.Errorf("join broadcast via %s: %w", ds.join.name, err))
		}
	}
	return e, time.Since(start), nil
}

// residentBytes sums the daemons' resident table bytes.
func (e *env) residentBytes() uint64 {
	var n uint64
	for _, d := range e.daemons {
		n += d.srv.Stats().ResidentBytes
	}
	return n
}

// serverStats sums the daemon counters the per-layer report reads.
func (e *env) serverStats() (errs, hits, misses uint64) {
	for _, d := range e.daemons {
		st := d.srv.Stats()
		errs += st.Errors
		hits += st.PlanCacheHits
		misses += st.PlanCacheMisses
	}
	return errs, hits, misses
}

// close stops everything setUp started, waits for the daemons' serve loops
// to return and removes the data directory.
func (e *env) close() error {
	var errs []error
	if e.fleet != nil {
		errs = append(errs, e.fleet.Close())
	}
	for _, d := range e.daemons {
		errs = append(errs, d.srv.Close())
		if err := <-d.done; err != nil {
			errs = append(errs, err)
		}
		if d.store != nil {
			errs = append(errs, d.store.Close())
		}
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}
