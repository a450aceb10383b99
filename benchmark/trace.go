package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/server/client"
)

// spanKeep is how many traced batches per generator are kept whole for the
// Chrome trace file. The ledger statistics use every traced batch; the file
// holds the first spanKeep of the window so it stays loadable.
const spanKeep = 1024

// batchSpan is one traced batch with its absolute stamps (unix ns).
type batchSpan struct {
	callStart, callEnd int64
	ti                 client.TraceInfo
}

// span is one Chrome trace_event "complete" event. Parent names the span
// that caused this one; spans of one batch share Batch.
type span struct {
	Name   string
	Start  int64 // ns
	End    int64
	Parent string
	Batch  uint64
	Gen    int
}

// spansOf expands one kept batch into its layer spans.
func (b *batchSpan) spansOf(gen int) []span {
	s := b.ti.Server
	id := b.ti.ID
	mk := func(name string, start, end int64) span {
		return span{Name: name, Start: start, End: end, Parent: "batch", Batch: id, Gen: gen}
	}
	return []span{
		{Name: "batch", Start: b.callStart, End: b.callEnd, Batch: id, Gen: gen},
		mk("client.enqueue", b.ti.EnqueueNs, b.ti.SendNs),
		mk("wire.request", b.ti.SendNs, s.RecvNs),
		mk("server.admit", s.RecvNs, s.AdmitNs),
		mk("server.ring_wait", s.AdmitNs, s.StartNs),
		mk("engine.decide", s.StartNs, s.DoneNs),
		mk("server.reply", s.DoneNs, b.ti.ReplyNs),
	}
}

// writeChromeTrace writes the kept spans as one Chrome trace file
// (chrome://tracing, Perfetto), timestamps relative to the first span.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	base := spans[0].Start
	for _, s := range spans {
		if s.Start < base {
			base = s.Start
		}
	}
	type args struct {
		Batch  uint64 `json:"batch"`
		Parent string `json:"parent,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"` // us
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range spans {
		b, err := json.Marshal(event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start-base) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Gen, Args: args{Batch: s.Batch, Parent: s.Parent},
		})
		if err != nil {
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
		w.Write(b)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
