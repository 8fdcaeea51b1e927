package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"seabed/internal/client"
)

// canonical maps each row's leading columns, joined by "|", to its last
// column, the form the oracle's answers take.
func canonical(rows []client.Row) (map[string]int64, error) {
	out := make(map[string]int64, len(rows))
	for _, r := range rows {
		n := len(r.Values)
		if n == 0 {
			return nil, errors.New("row without values")
		}
		keys := make([]string, n-1)
		for i := range keys {
			keys[i] = r.Values[i].Display()
		}
		k := strings.Join(keys, "|")
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("row key %q repeats", k)
		}
		last := r.Values[n-1]
		if last.Kind != client.Int {
			return nil, fmt.Errorf("row %q: last column is not an integer", k)
		}
		out[k] = last.I64
	}
	return out, nil
}

// fullCheckRows bounds the results the timed loop compares in full every
// time; larger results are compared in full by the warm pass and by row
// count afterwards.
const fullCheckRows = 64

// verify compares rows with the oracle: in full when full is set or the
// result is small, by row count otherwise.
func verify(q *query, rows []client.Row, full bool) error {
	if len(rows) != len(q.want) {
		return fmt.Errorf("%s: %d rows, oracle has %d", q.name, len(rows), len(q.want))
	}
	if !full && len(rows) > fullCheckRows {
		return nil
	}
	got, err := canonical(rows)
	if err != nil {
		return fmt.Errorf("%s: %w", q.name, err)
	}
	for k, v := range q.want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("%s: row %q is %d (present %v), oracle says %d", q.name, k, g, ok, v)
		}
	}
	return nil
}

// counter tallies attempted and failed operations across goroutines and
// keeps the first failure for the report.
type counter struct {
	mu                sync.Mutex
	attempted, failed int
	first             error
}

func (c *counter) add(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.first == nil {
			c.first = err
		}
	}
}

// ledger tracks the ingest writer's progress so concurrent reads can be
// checked: a read that starts after batch k was acknowledged and ends before
// batch m was started sees between base+prefix[k] and base+prefix[m].
type ledger struct {
	mu             sync.Mutex
	base           int64
	sums           []int64
	prefix         []int64
	started, acked int
	ackedRows      int
	latencies      []time.Duration
	// maxLate is how far behind its schedule the writer sent a batch.
	maxLate time.Duration
}

// begin records that the next batch is being sent late after its due time.
func (l *ledger) begin(late time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.maxLate = max(l.maxLate, late)
	l.prefix = append(l.prefix, l.prefix[len(l.prefix)-1]+l.sums[l.started%len(l.sums)])
	l.started++
}

func (l *ledger) ack(rows int, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acked++
	l.ackedRows += rows
	l.latencies = append(l.latencies, d)
}

func (l *ledger) low() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + l.prefix[l.acked]
}

func (l *ledger) high() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + l.prefix[l.started]
}

func newLedger(ds *dataset) *ledger {
	return &ledger{base: ds.reader.want[""], sums: ds.batchSum, prefix: []int64{0}}
}

// checkReader checks the ingest reader's sum against the ledger bounds.
func checkReader(rows []client.Row, lo, hi int64) error {
	got, err := canonical(rows)
	if err != nil {
		return err
	}
	v, ok := got[""]
	if len(got) != 1 || !ok {
		return fmt.Errorf("reader: %d rows, want one ungrouped sum", len(got))
	}
	if v < lo || v > hi {
		return fmt.Errorf("reader: sum %d outside [%d, %d] given the appends acknowledged and started", v, lo, hi)
	}
	return nil
}
