package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"seabed/internal/client"
	"seabed/internal/engine"
	"seabed/internal/fleet"
	"seabed/internal/store"
)

// span is one timed call into a layer. Start and End are offsets from the
// recorder's epoch; Parent indexes the recorder's spans, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(parent int, name string) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// timed runs f inside a span and returns the span's duration.
func (r *recorder) timed(parent int, name string, f func()) time.Duration {
	id := r.begin(parent, name)
	f()
	return r.end(id)
}

// selfTimes returns, for every span under root (root included), its duration
// minus the part of it that its children cover, summed by span name.
func (r *recorder) selfTimes(root int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	var walk func(id int)
	walk = func(id int) {
		s := r.spans[id]
		var ivs [][2]time.Duration
		for _, c := range children[id] {
			cs := r.spans[c]
			ivs = append(ivs, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
			walk(c)
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach time.Duration
		reach = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		out[s.Name] += s.dur() - covered
	}
	walk(root)
	return out
}

// write stores the spans as JSON under .bench_build when the run ends.
func (r *recorder) write(workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return writeJSON(workload, seed, "traces", r.spans)
}

// writeJSON stores v as .bench_build/perfbench/<kind>/<workload>-seed<n>.json.
func writeJSON(workload string, seed int64, kind string, v any) error {
	dir := filepath.Join(".bench_build", "perfbench", kind)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}

type parentKey struct{}

func withParent(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int {
	if id, ok := ctx.Value(parentKey{}).(int); ok {
		return id
	}
	return -1
}

// timedBackend is the traced run's ClusterBackend: the fleet, with a span
// around every call, parented by the span the caller put in the context.
type timedBackend struct {
	*fleet.Cluster
	rec *recorder
}

func (b *timedBackend) RegisterTable(ctx context.Context, ref string, t *store.Table) (err error) {
	b.rec.timed(parentOf(ctx), "fleet.RegisterTable", func() { err = b.Cluster.RegisterTable(ctx, ref, t) })
	return err
}

func (b *timedBackend) AppendTable(ctx context.Context, ref string, batch *store.Table) (err error) {
	b.rec.timed(parentOf(ctx), "fleet.AppendTable", func() { err = b.Cluster.AppendTable(ctx, ref, batch) })
	return err
}

func (b *timedBackend) Run(ctx context.Context, pl *engine.Plan) (res *engine.Result, err error) {
	b.rec.timed(parentOf(ctx), "fleet.Run", func() { res, err = b.Cluster.Run(ctx, pl) })
	return res, err
}

func (b *timedBackend) RunStream(ctx context.Context, pl *engine.Plan, sink engine.ScanSink) (res *engine.Result, err error) {
	b.rec.timed(parentOf(ctx), "fleet.RunStream", func() { res, err = b.Cluster.RunStream(ctx, pl, sink) })
	return res, err
}

var _ client.ClusterBackend = (*timedBackend)(nil)
