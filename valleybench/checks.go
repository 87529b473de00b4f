package main

// Output checks. Each takes what a response carried and what it must
// equal, and returns an error naming the first difference. They are
// pure functions so the self-tests can feed them corrupted responses.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"valleymap/internal/experiments"
	"valleymap/internal/service"
)

// readStream decodes an NDJSON job-event stream that was requested from
// seq from, calling onEvent with each event and its arrival time. It
// checks the stream contract: seqs dense from from, start only at seq
// 0, nothing after the terminal event, the terminal event is done and
// the sweep delivered all wantCells cells. It returns the terminal
// event.
func readStream(r io.Reader, from, wantCells int, onEvent func(ev *service.JobEvent, at time.Time)) (*service.JobEvent, error) {
	br := bufio.NewReader(r)
	next := from
	cells := 0
	var term *service.JobEvent
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			at := time.Now()
			if term != nil {
				return nil, fmt.Errorf("event after terminal seq %d", term.Seq)
			}
			ev := new(service.JobEvent)
			if jerr := json.Unmarshal(line, ev); jerr != nil {
				return nil, fmt.Errorf("undecodable event after seq %d: %v", next-1, jerr)
			}
			if ev.Seq != next {
				return nil, fmt.Errorf("seq %d where %d was due", ev.Seq, next)
			}
			next++
			switch {
			case ev.Type == service.EventStart:
				if ev.Seq != 0 {
					return nil, fmt.Errorf("start event at seq %d", ev.Seq)
				}
			case ev.Seq == 0:
				return nil, fmt.Errorf("seq 0 is %q, not start", ev.Type)
			case ev.Type == service.EventCell:
				if ev.Cell == nil {
					return nil, fmt.Errorf("cell event seq %d without a cell", ev.Seq)
				}
				cells++
			default:
				term = ev
			}
			if onEvent != nil {
				onEvent(ev, at)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reading stream: %w", err)
		}
	}
	if term == nil {
		return nil, fmt.Errorf("stream ended at seq %d without a terminal event", next-1)
	}
	if term.Type != service.EventDone {
		return nil, fmt.Errorf("terminal event %q: %s", term.Type, term.Error)
	}
	if term.Done != wantCells || term.Total != wantCells || term.Seq != wantCells+1 {
		return nil, fmt.Errorf("terminal seq %d reports %d/%d cells, want %d", term.Seq, term.Done, term.Total, wantCells)
	}
	if want := wantCells + 1 - max(from, 1); cells != want {
		return nil, fmt.Errorf("stream carried %d cell events, want %d", cells, want)
	}
	return term, nil
}

// checkGrid checks that cells hold every workload × scheme pair once.
func checkGrid(cells []*service.CellResult, workloads, schemes []string) error {
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Workload + "/" + c.Scheme
		if seen[k] {
			return fmt.Errorf("cell %s delivered twice", k)
		}
		seen[k] = true
	}
	for _, w := range workloads {
		for _, s := range schemes {
			if !seen[w+"/"+s] {
				return fmt.Errorf("cell %s/%s missing", w, s)
			}
		}
	}
	if len(seen) != len(workloads)*len(schemes) {
		return fmt.Errorf("%d cells for a %d×%d grid", len(seen), len(workloads), len(schemes))
	}
	return nil
}

// checkCell checks that a served cell's metrics are bit-equal to the
// reference result for the same key. Go's JSON encoder writes the
// shortest float that round-trips, so equal encodings mean equal bits.
func checkCell(got *service.CellResult, want experiments.ResultJSON) error {
	g, err := json.Marshal(got.ResultJSON)
	if err != nil {
		return fmt.Errorf("cell %s/%s: %v", got.Workload, got.Scheme, err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		return fmt.Errorf("reference %s/%s: %v", got.Workload, got.Scheme, err)
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("cell %s/%s differs from its reference:\n got %s\nwant %s", got.Workload, got.Scheme, g, w)
	}
	return nil
}

// checkProfile checks a profile's content hash and its per-bit entropy,
// bit for bit, against the reference.
func checkProfile(got *service.ProfileResult, wantSHA string, wantPerBit []float64) error {
	if wantSHA != "" && got.Trace.SHA256 != wantSHA {
		return fmt.Errorf("profile sha256 %s, want %s", got.Trace.SHA256, wantSHA)
	}
	if len(got.PerBit) != len(wantPerBit) {
		return fmt.Errorf("profile has %d bits, want %d", len(got.PerBit), len(wantPerBit))
	}
	for i, v := range got.PerBit {
		if math.Float64bits(v) != math.Float64bits(wantPerBit[i]) {
			return fmt.Errorf("per_bit[%d] = %v, want %v", i, v, wantPerBit[i])
		}
	}
	return nil
}

// checkSameJSON checks that two decoded responses encode identically
// (a warm answer against the cold one it must repeat).
func checkSameJSON(what string, got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s differs from the first answer", what)
	}
	return nil
}
