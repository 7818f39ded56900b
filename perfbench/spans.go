package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer: name is the called function, id the
// window, session or request it worked on, and parent the index of the
// enclosing span (-1 for a phase root).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one workload iteration in memory. A nil
// recorder is tracing off: every method returns at once, so untraced runs
// pay one nil check per layer call.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (r *recorder) begin(name, id string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(r.t0))})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].End = int64(time.Since(r.t0))
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Spans on one goroutine nest strictly, so the covered
// part is the sum of the children's durations.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i := range r.spans {
		self[i] += r.spans[i].dur()
		if p := r.spans[i].Parent; p >= 0 {
			self[p] -= r.spans[i].dur()
		}
	}
	return self
}

// selfMS sums self time in milliseconds per key; spans whose key is ""
// are skipped.
func (r *recorder) selfMS(key func(*span) string) map[string]float64 {
	out := map[string]float64{}
	for i, d := range r.selfTimes() {
		if k := key(&r.spans[i]); k != "" {
			out[k] += float64(d) / 1e6
		}
	}
	return out
}

// durationsMS lists, in milliseconds, the durations of the spans named name.
func (r *recorder) durationsMS(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, float64(r.spans[i].dur())/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the median of xs (the mean of the middle pair for even
// lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
