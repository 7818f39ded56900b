// Package trace defines the data model for one intra-service tracing
// session: the per-core packet streams, the five-tuple context-switch
// sidecar, the ground-truth recorder used to score accuracy, and a compact
// serialization for shipping sessions to the cluster's object store.
package trace

import (
	"exist/internal/binary"
	"exist/internal/kernel"
	"exist/internal/simtime"
)

// SpaceScale is the default slow-motion factor shared by accuracy
// experiments: execution materializes SpaceScale of the real branch rate,
// and buffer sizes are multiplied by SpaceScale, so occupancy ratios,
// overflow behaviour, and space results are preserved while a 0.5 s
// window stays simulable. Reported sizes are scaled back by 1/SpaceScale.
const SpaceScale = 1.0 / 1024

// ScaleBytes converts a configured real buffer size to its simulated size.
func ScaleBytes(realBytes int64, scale float64) int {
	v := int(float64(realBytes) * scale)
	if v < 256 {
		v = 256
	}
	return v
}

// UnscaleMB converts simulated bytes back to real megabytes.
func UnscaleMB(simBytes int64, scale float64) float64 {
	return float64(simBytes) / scale / (1 << 20)
}

// Event is one reconstructed (or ground-truth) control transfer,
// attributed to a thread. It is the unit of the accuracy comparison.
type Event struct {
	// TID is the executing thread.
	TID int32
	// Block is the block whose terminator transferred control.
	Block binary.BlockID
	// Target is the destination block.
	Target binary.BlockID
	// Kind is the terminator kind.
	Kind binary.TermKind
	// Taken is the direction for conditional events.
	Taken bool
}

// EventOf converts a walker branch event.
func EventOf(tid int32, ev binary.BranchEvent) Event {
	return Event{TID: tid, Block: ev.Block, Target: ev.Target, Kind: ev.Kind, Taken: ev.Taken}
}

// CoreTrace is the raw output of one core's tracer for a session.
type CoreTrace struct {
	// Core is the logical core ID.
	Core int
	// Data is the packet stream.
	Data []byte
	// Wrapped reports ring-mode overwrite (data starts mid-stream).
	Wrapped bool
	// Stopped reports a compulsory-drop stop.
	Stopped bool
	// DroppedBytes counts output lost after the stop.
	DroppedBytes int64
}

// Session is everything one tracing window produced on one node.
type Session struct {
	// ID identifies the session.
	ID string
	// Node names the node the session ran on.
	Node string
	// Workload names the traced application.
	Workload string
	// PID is the traced process.
	PID int32
	// Start and End bound the tracing window.
	Start, End simtime.Time
	// Scale is the space scale the session ran at.
	Scale float64
	// Cores holds the per-core packet streams.
	Cores []CoreTrace
	// Switches is the five-tuple sidecar.
	Switches kernel.SwitchLog
}

// TotalBytes returns the simulated packet bytes stored across cores.
func (s *Session) TotalBytes() int64 {
	var n int64
	for i := range s.Cores {
		n += int64(len(s.Cores[i].Data))
	}
	return n
}

// SpaceMB returns the session's real-scale memory footprint in MB,
// including the sidecar.
func (s *Session) SpaceMB() float64 {
	scale := s.Scale
	if scale == 0 {
		scale = 1
	}
	return UnscaleMB(s.TotalBytes(), scale) + float64(s.Switches.SizeBytes())/(1<<20)
}

// Duration returns the window length.
func (s *Session) Duration() simtime.Duration { return s.End - s.Start }

// GroundTruth records the true branch stream of a traced process during a
// window, for scoring reconstructions. It is an omniscient observer — the
// real system has no equivalent; it exists to measure accuracy the way the
// paper does against exhaustive tracing.
type GroundTruth struct {
	// ByThread holds each thread's ordered event stream.
	ByThread map[int32][]Event
	// Start and End bound recording; events outside are ignored.
	Start, End simtime.Time
	// FuncEntries is the function occurrence histogram over the window.
	FuncEntries map[int32]int64

	prog *binary.Program
}

// NewGroundTruth returns a recorder for the given program and window.
func NewGroundTruth(prog *binary.Program, start, end simtime.Time) *GroundTruth {
	return &GroundTruth{
		ByThread:    make(map[int32][]Event),
		Start:       start,
		End:         end,
		FuncEntries: make(map[int32]int64),
		prog:        prog,
	}
}

// Record adds one branch event observed at the given time.
func (g *GroundTruth) Record(tid int32, now simtime.Time, ev binary.BranchEvent) {
	if now < g.Start || now >= g.End {
		return
	}
	g.ByThread[tid] = append(g.ByThread[tid], EventOf(tid, ev))
	// Function occurrences count indirect-call entries only — the decoder
	// applies the identical rule, so the histograms are comparable.
	// (Direct calls are silent in PT, and returns restarting the service
	// loop would swamp the histogram with the loop head.)
	if g.prog != nil && ev.Kind == binary.TermIndirectCall {
		if fn, ok := g.prog.EntryFuncOf(ev.Target); ok {
			g.FuncEntries[fn]++
		}
	}
}
