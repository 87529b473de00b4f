package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"valleymap/internal/service"
)

// op is one HTTP request a client made, timed from send to the last
// byte (or NDJSON event) received.
type op struct {
	kind       string
	start, end time.Time
	err        error
	refused    bool // 429/503 from admission control
	traceID    string
	bytes      int64 // trace bytes profiled (uploads and trace_file reads)

	// Sweeps.
	jobID     string
	firstCell time.Time
	ncells    int
	cells     []cellArrival // traced runs only: kept for the ledger
	simInstr  int64         // instructions of cells the daemon simulated (not cached)
	fresh     bool          // cluster mix: a fresh-seed sweep, not a warm repeat
	spans     *sweepSpans

	// Profiles and advice: the library replay that estimates the
	// request's layers.
	replayKey string

	// Traced runs: the server-side intervals attributed to layers.
	leaves []leaf
}

func (o *op) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// cellArrival is one cell event as the client received it.
type cellArrival struct {
	workload, scheme string
	at               time.Time
	cached           bool
	seconds          float64
}

// client is one closed-loop load generator: it sends its next request
// only after the previous one completed. A client is used by one
// goroutine.
type client struct {
	id   int
	b    *bench
	rng  *rand.Rand
	seq  int // ops started, for trace IDs
	iter int // closed-loop iterations started
	ops  []*op
	book []interval // traced runs: time spent on the benchmark's own tracing
	// untraced clients (set-up and comparison runs) skip span fetches.
	untraced bool
	decks    map[string]*deck
}

// deal draws the next choice among len(counts) options from the
// client's deck of that name. A deck holds each option i counts[i]
// times in an order shuffled by the client's seeded generator, so every
// full deck has the mix's exact proportions: the mix is the same in
// every run, and only the order depends on the seed.
func (c *client) deal(name string, counts ...int) int {
	d := c.decks[name]
	if d == nil {
		d = &deck{}
		for i, n := range counts {
			for j := 0; j < n; j++ {
				d.cards = append(d.cards, i)
			}
		}
		d.pos = len(d.cards)
		if c.decks == nil {
			c.decks = map[string]*deck{}
		}
		c.decks[name] = d
	}
	if d.pos == len(d.cards) {
		c.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

type deck struct {
	cards []int
	pos   int
}

// uniform is counts for a deck with each of n options once.
func uniform(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func (c *client) newOp(kind string) *op {
	o := &op{kind: kind, traceID: fmt.Sprintf("%08x%08x%016x", uint32(c.b.opt.seed), uint32(c.id), c.seq)}
	c.seq++
	c.ops = append(c.ops, o)
	return o
}

// call sends one request for o and hands a 200 response body to read.
// Any other status, transport error or read error fails the op.
func (c *client) call(o *op, method, url, ctype string, body io.Reader, read func(io.Reader) error) {
	req, err := http.NewRequestWithContext(c.b.ctx, method, url, body)
	if err != nil {
		o.start, o.end, o.err = time.Now(), time.Now(), err
		return
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set("X-Trace-Id", o.traceID)
	o.start = time.Now()
	resp, err := c.b.hc.Do(req)
	if err != nil {
		o.end, o.err = time.Now(), fmt.Errorf("%s: %w", o.kind, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic only
		drain(resp.Body)
		o.end = time.Now()
		o.refused = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		o.err = fmt.Errorf("%s: HTTP %d: %s", o.kind, resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	if read != nil {
		err = read(resp.Body)
	}
	drain(resp.Body)
	o.end = time.Now()
	if err != nil && o.err == nil {
		o.err = fmt.Errorf("%s: %w", o.kind, err)
	}
}

func decodeInto(v any) func(io.Reader) error {
	return func(r io.Reader) error { return json.NewDecoder(r).Decode(v) }
}

func jsonBody(v any) io.Reader {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always encode
	}
	return bytes.NewReader(b)
}

// sweep posts a streamed sweep to base and checks its event stream and
// grid. It returns the op and the delivered cells (nil on failure).
func (c *client) sweep(base string, req service.SimulateRequest) (*op, []*service.CellResult) {
	o := c.newOp("sweep")
	want := len(req.Workloads) * len(req.Schemes)
	traced := c.b.tracer != nil && !c.untraced
	var cells []*service.CellResult
	c.call(o, "POST", base+"/v1/simulate?stream=1", "application/json", jsonBody(req), func(r io.Reader) error {
		_, err := readStream(r, 0, want, func(ev *service.JobEvent, at time.Time) {
			switch ev.Type {
			case service.EventStart:
				o.jobID = ev.JobID
			case service.EventCell:
				if o.firstCell.IsZero() {
					o.firstCell = at
				}
				cells = append(cells, ev.Cell)
				o.ncells++
				if traced {
					o.cells = append(o.cells, cellArrival{workload: ev.Cell.Workload, scheme: ev.Cell.Scheme, at: at, cached: ev.Cell.Cached, seconds: ev.Cell.Seconds})
				}
				if !ev.Cell.Cached {
					o.simInstr += ev.Cell.Instructions
				}
			}
		})
		if err != nil {
			return err
		}
		return checkGrid(cells, req.Workloads, req.Schemes)
	})
	if o.err != nil {
		return o, nil
	}
	if traced {
		c.traceJob(base, o)
	}
	return o, cells
}

// fail marks o failed with err unless it already failed.
func fail(o *op, err error) {
	if err != nil && o.err == nil {
		o.err = err
	}
}
