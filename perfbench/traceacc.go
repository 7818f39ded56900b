package main

import (
	"bytes"
	"fmt"

	"exist/internal/binary"
	"exist/internal/decode"
	"exist/internal/memalloc"
	"exist/internal/metrics"
	"exist/internal/node"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/workload"
	"exist/internal/xrand"
)

// trace-accuracy is the paper's accuracy claim (Figure 18): per cloud
// app, one walker-backed, branch-exact EXIST window and one exhaustive
// NHT reference window. Both sessions are shipped through the v2 wire
// format, decoded, and scored with Wall's weight matching. It is the only
// workload that runs the walker and the packed tracer write path, and the
// only one that reads the PT format back; it runs no cluster.

// traceAccuracySize sets how much trace-accuracy simulates.
type traceAccuracySize struct {
	apps int              // leading apps of CloudApps() (0: all)
	dur  simtime.Duration // simulated tracing window
}

var traceAccuracyFull = traceAccuracySize{dur: 500 * simtime.Millisecond}

// accuracyProgSeed fixes the apps' binaries, as the accuracy experiments
// do: the seed varies how each run unfolds (machine, co-runner and
// housekeeping streams), not which program is traced, so every seed does
// comparable work.
const accuracyProgSeed = 0xACC0

// accuracyApp is one app's binary and its two provisioned windows.
type accuracyApp struct {
	name       string
	prog       *binary.Program
	exist, nht *node.Runtime
}

type traceAccuracy struct {
	seed uint64
	size traceAccuracySize
	apps []accuracyApp
}

func newTraceAccuracy(seed uint64, size traceAccuracySize) *traceAccuracy {
	return &traceAccuracy{seed: seed, size: size}
}

func (w *traceAccuracy) setup(rec *recorder) error {
	noise, err := workload.ByName("Cache")
	if err != nil {
		return err
	}
	apps := workload.CloudApps()
	if w.size.apps > 0 {
		apps = apps[:w.size.apps]
	}
	w.apps = w.apps[:0]
	for _, p := range apps {
		sp := rec.begin("binary.Synthesize", p.Name)
		prog := p.Synthesize(accuracyProgSeed)
		rec.end(sp)
		seed := xrand.Split(w.seed, "trace-accuracy/"+p.Name).Uint64()
		base := node.Spec{
			Cores:        16,
			Timeslice:    500 * simtime.Microsecond,
			Workload:     p,
			Walker:       true,
			Scale:        trace.SpaceScale,
			Prog:         prog,
			CoRunners:    []node.CoRunner{{Profile: noise, SeedOffset: 55}},
			Housekeeping: true,
			Dur:          w.size.dur,
			KeepSession:  true,
		}
		// EXIST's high-resolution timer closes its own window; the drain
		// lets the closing event fire before harvest.
		ex := base
		ex.Seed = seed
		ex.Backend = "EXIST"
		ex.Warmup = 100 * simtime.Millisecond
		ex.Drain = 10 * simtime.Millisecond
		mem := memalloc.DefaultConfig()
		ex.Tracer.Mem = &mem
		// The reference is de-phased from the subject, as two captures of
		// a long-running service always are.
		ref := base
		ref.Seed = seed + 7
		ref.Backend = "NHT"
		ref.Tracer.FilterTarget = true
		ref.Warmup = 300 * simtime.Millisecond

		app := accuracyApp{name: p.Name, prog: prog}
		sp = rec.begin("node.Provision", p.Name+"/EXIST")
		app.exist = node.Provision(ex)
		rec.end(sp)
		sp = rec.begin("node.Provision", p.Name+"/NHT")
		app.nht = node.Provision(ref)
		rec.end(sp)
		w.apps = append(w.apps, app)
	}
	return nil
}

// wireCounts accumulates what the wire and decode layers did.
type wireCounts struct {
	wireB, v1B      int64
	keptB, droppedB int64 // core bytes harvested and lost after a stop
	decodedB        int64
	events, resyncs int64
	errors          int
}

func (w *traceAccuracy) run(rec *recorder) outcome {
	out := outcome{layer: map[string]float64{}}
	var wc windowCounts
	var cc wireCounts
	var accSum float64
	scored := 0
	for i := range w.apps {
		app := &w.apps[i]
		var sessions [2]*trace.Session
		for k, rt := range []*node.Runtime{app.exist, app.nht} {
			out.ops++
			id := app.name + "/" + rt.Spec.Backend
			r, err := runWindow(rec, rt, id, &wc)
			if err == nil && r.Session == nil {
				err = fmt.Errorf("no session harvested")
			}
			if err != nil {
				out.failed++
				out.fail("%s: %v", id, err)
				continue
			}
			sp := rec.begin("trace.Marshal", id)
			blob := r.Session.Marshal()
			rec.end(sp)
			cc.wireB += int64(len(blob))
			cc.v1B += int64(trace.V1Size(r.Session))
			for _, c := range r.Session.Cores {
				cc.keptB += int64(len(c.Data))
				cc.droppedB += c.DroppedBytes
			}
			out.ops++
			sessions[k] = receive(rec, r.Session, blob, id, &out)
		}
		app.exist, app.nht = nil, nil
		if sessions[0] == nil || sessions[1] == nil {
			continue
		}
		var dec [2]*decode.Result
		for k, s := range sessions {
			sp := rec.begin("decode.Decode", s.ID)
			dec[k] = decode.Decode(s, app.prog)
			rec.end(sp)
			cc.decodedB += dec[k].BytesDecoded
			cc.events += dec[k].Events
			cc.resyncs += dec[k].Resyncs
			cc.errors += len(dec[k].Errors)
			out.sim = append(out.sim, float64(s.TotalBytes()), float64(dec[k].Events),
				float64(len(dec[k].FuncEntries)), float64(dec[k].Resyncs), float64(len(dec[k].Errors)))
		}
		sp := rec.begin("metrics.WeightMatch", app.name)
		acc := metrics.WeightMatch(dec[1].FuncEntries, dec[0].FuncEntries)
		rec.end(sp)
		out.sim = append(out.sim, acc)
		if !(acc > 0 && acc <= 1) {
			out.fail("%s: accuracy %v outside (0, 1]", app.name, acc)
		}
		accSum += acc
		scored++
	}
	out.sim = append(out.sim, float64(cc.wireB), float64(cc.v1B))
	if scored > 0 {
		out.layer["sim.accuracy"] = accSum / float64(scored)
	}
	if cc.wireB > 0 {
		out.layer["sim.wire_ratio"] = float64(cc.v1B) / float64(cc.wireB)
	}
	out.layer["ipt.dropped_mb"] = float64(cc.droppedB) / (1 << 20)
	if cc.keptB+cc.droppedB > 0 {
		out.layer["ipt.accepted_frac"] = float64(cc.keptB) / float64(cc.keptB+cc.droppedB)
	}
	out.layer["trace.wire_mb"] = float64(cc.wireB) / (1 << 20)
	out.layer["trace.v1_mb"] = float64(cc.v1B) / (1 << 20)
	out.layer["decode.events_m"] = float64(cc.events) / 1e6
	out.layer["decode.resyncs"] = float64(cc.resyncs)
	out.layer["decode.errors"] = float64(cc.errors)
	wc.report(rec, out.layer)
	if rec != nil {
		for k, v := range rec.selfMS(func(s *span) string { return wireSpanMetric[s.Name] }) {
			out.layer[k] = v
		}
		if ms := out.layer["decode.decode_ms"]; ms > 0 {
			out.layer["decode.mb_per_s"] = float64(cc.decodedB) / (1 << 20) / (ms / 1e3)
		}
	}
	return out
}

// receive unmarshals a shipped session and checks that every core's
// packet bytes survived the round trip exactly. A blob that fails either
// check counts as a failed operation and yields nil.
func receive(rec *recorder, sent *trace.Session, blob []byte, id string, out *outcome) *trace.Session {
	sp := rec.begin("trace.UnmarshalSession", id)
	got, err := trace.UnmarshalSession(blob)
	rec.end(sp)
	if err == nil {
		err = sameCoreData(sent, got)
	}
	if err != nil {
		out.failed++
		out.fail("%s: wire round trip: %v", id, err)
		return nil
	}
	return got
}

// sameCoreData reports the first core whose data differs between a and b.
func sameCoreData(a, b *trace.Session) error {
	if len(a.Cores) != len(b.Cores) {
		return fmt.Errorf("%d cores sent, %d received", len(a.Cores), len(b.Cores))
	}
	for i := range a.Cores {
		if !bytes.Equal(a.Cores[i].Data, b.Cores[i].Data) {
			return fmt.Errorf("core %d data differs", a.Cores[i].Core)
		}
	}
	return nil
}

// wireSpanMetric maps binary, wire, decode and scoring span names to their
// self-time metrics.
var wireSpanMetric = map[string]string{
	"binary.Synthesize":      "binary.synthesize_ms",
	"trace.Marshal":          "trace.marshal_ms",
	"trace.UnmarshalSession": "trace.unmarshal_ms",
	"decode.Decode":          "decode.decode_ms",
	"metrics.WeightMatch":    "metrics.weightmatch_ms",
}
