package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"wolves/internal/engine"
	"wolves/internal/runs"
	"wolves/internal/server"
	"wolves/internal/storage"
	"wolves/internal/view"
)

// daemon is one in-process wolvesd: the same layers, options and
// wiring as cmd/wolvesd with its default flags, served on a loopback
// TCP listener. With a data dir the registry is durable (fsync mode
// batch, the daemon default); without one it is in-memory.
type daemon struct {
	eng      *engine.Engine
	reg      *engine.Registry
	runs     *runs.Store
	store    *storage.Store // nil without a data dir
	recovery *storage.RecoveryStats
	srv      *http.Server
	base     string // http://127.0.0.1:port
	served   chan error
}

// startDaemon wires and starts a daemon. dataDir "" means in-memory.
// With tr non-nil the handler is wrapped in the tracing middleware and
// the journals in their tracing wrappers.
func startDaemon(dataDir string, tr *tracer) (*daemon, error) {
	eng := engine.New(
		engine.WithWorkers(0),
		engine.WithOracleCache(engine.DefaultCacheSize),
		engine.WithOptimalTimeout(2*time.Second),
	)
	reg := engine.NewRegistry(eng,
		engine.WithRegistryCapacity(engine.DefaultRegistryCapacity),
		engine.WithProbeBackoff(engine.DefaultProbeBackoffMin, engine.DefaultProbeBackoffMax))
	runStore := runs.New(reg, runs.WithWorkers(eng.Workers()))
	d := &daemon{eng: eng, reg: reg, runs: runStore}

	var info *server.RecoveryInfo
	if dataDir != "" {
		mode, err := storage.ParseFsyncMode("batch")
		if err != nil {
			return nil, err
		}
		store, err := storage.Open(dataDir, storage.Options{Fsync: mode})
		if err != nil {
			return nil, fmt.Errorf("open data dir: %w", err)
		}
		store.SetRunProvider(runStore)
		stats, err := store.RecoverWithRuns(reg, runStore)
		if err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("recover %s: %w", dataDir, err)
		}
		if tr != nil {
			j := &tracedJournal{st: store, tr: tr}
			reg.SetJournal(j)
			runStore.SetJournal(j)
		} else {
			reg.SetJournal(store)
			runStore.SetJournal(store)
		}
		d.store, d.recovery = store, stats
		info = &server.RecoveryInfo{
			Workflows:        stats.Workflows,
			Views:            stats.Views,
			Snapshots:        stats.Snapshots,
			SnapshotsDropped: stats.SnapshotsDropped,
			Segments:         stats.Segments,
			RecordsReplayed:  stats.Replayed,
			RecordsSkipped:   stats.Skipped,
			Runs:             stats.Runs,
			TornBytes:        stats.TornBytes,
			Workers:          stats.Workers,
			WallMillis:       stats.WallMillis,
		}
	}

	websrv := server.New(eng,
		server.WithRegistry(reg),
		server.WithRunStore(runStore),
		server.WithRequestTimeout(server.DefaultRequestTimeout),
		server.WithIngestConcurrency(0),
		server.WithRecoveryInfo(info),
	)
	var h http.Handler = websrv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.closeStore() // the listen error is the one to report
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: h, ReadTimeout: 30 * time.Second, ReadHeaderTimeout: 10 * time.Second}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection, waits for the serve
// loop to return, and closes the store without a checkpoint: on disk
// the data dir is left as a kill -9 would leave it.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.closeStore(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (d *daemon) closeStore() error {
	if d.store == nil {
		return nil
	}
	st := d.store
	d.store = nil
	return st.Close()
}

// tracedJournal records a span around every journal call and delegates
// to the store. Installed with SetJournal on the registry and the run
// store, it puts WAL append and fsync wait under the request that
// caused them (the request ID rides in the context).
type tracedJournal struct {
	st *storage.Store
	tr *tracer
}

func (j *tracedJournal) span(ctx context.Context, name string, start time.Time) {
	j.tr.add(reqID(ctx), name, start, time.Now())
}

func (j *tracedJournal) Registered(ctx context.Context, st *engine.LiveState) error {
	t := time.Now()
	defer j.span(ctx, "storage.registered", t)
	return j.st.Registered(ctx, st)
}

func (j *tracedJournal) Committed(ctx context.Context, b *engine.AppliedBatch, st *engine.LiveState) error {
	t := time.Now()
	defer j.span(ctx, "storage.committed", t)
	return j.st.Committed(ctx, b, st)
}

func (j *tracedJournal) ViewAttached(ctx context.Context, st *engine.LiveState, vid string, v *view.View) error {
	t := time.Now()
	defer j.span(ctx, "storage.view_attached", t)
	return j.st.ViewAttached(ctx, st, vid, v)
}

func (j *tracedJournal) ViewDetached(ctx context.Context, st *engine.LiveState, vid string) error {
	t := time.Now()
	defer j.span(ctx, "storage.view_detached", t)
	return j.st.ViewDetached(ctx, st, vid)
}

func (j *tracedJournal) Deleted(ctx context.Context, id string) error {
	t := time.Now()
	defer j.span(ctx, "storage.deleted", t)
	return j.st.Deleted(ctx, id)
}

func (j *tracedJournal) RunIngested(ctx context.Context, wid, rid string, doc []byte) (bool, error) {
	t := time.Now()
	defer j.span(ctx, "storage.run_ingested", t)
	return j.st.RunIngested(ctx, wid, rid, doc)
}

func (j *tracedJournal) RunsIngested(ctx context.Context, wid string, rids []string, docs [][]byte) (bool, error) {
	t := time.Now()
	defer j.span(ctx, "storage.runs_ingested", t)
	return j.st.RunsIngested(ctx, wid, rids, docs)
}

func (j *tracedJournal) SnapshotWorkflow(ctx context.Context, st *engine.LiveState) error {
	t := time.Now()
	defer j.span(ctx, "storage.snapshot", t)
	return j.st.SnapshotWorkflow(ctx, st)
}

// Probe and Resync keep the wrapper an engine.RecoverableJournal, so
// degraded-mode recovery behaves as with the bare store.
func (j *tracedJournal) Probe() error                      { return j.st.Probe() }
func (j *tracedJournal) Resync(reg *engine.Registry) error { return j.st.Resync(reg) }
