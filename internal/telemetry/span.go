package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one stage of a transaction's (or request's) life. The span
// layer attributes latency and fence counts to phases, so "why was this
// commit slow?" decomposes into "which phase took the time" — the same
// decomposition Marathe et al. use to compare undo/redo/hybrid designs.
type Phase uint8

// Span phases, one per instrumented stage across the stack.
const (
	PhaseNone       Phase = iota
	PhaseRequest          // kvserve: one protocol command, wire to reply
	PhaseExec             // kvserve: verb execution (txn or view inside)
	PhaseView             // mtm: slot-free snapshot read transaction
	PhaseLeaseWait        // mtm: blocked waiting for a free log slot
	PhaseTxn              // mtm: one Atomic call, begin to durable commit
	PhaseBody             // mtm: user closure incl. read/write-set tracking and lock acquisition
	PhaseValidate         // mtm: commit-time read-set validation
	PhaseLogAppend        // mtm: redo-record assembly and log append
	PhaseLogFence         // mtm: the durability fence over the redo record
	PhaseWriteBack        // mtm: in-place store of the write set
	PhaseTruncate         // mtm: commit-path line flushing and log truncation (or its enqueue)
	PhaseGCEnqueue        // mtm: group commit, epoch enqueue to done broadcast
	PhaseGCLead           // mtm: group commit, leader protocol incl. gather window
	PhaseGCFlush          // mtm: group commit, epoch streaming + covering fences
	PhaseAsyncTrunc       // mtm: log-manager batch flush + truncate
	PhaseAlloc            // pheap: pmalloc
	PhaseFree             // pheap: pfree
	PhaseFence            // scm: fence, incl. write-combining drain
	PhaseRawlFlush        // rawl: explicit log flush
	PhaseRawlTrunc        // rawl: log truncation (head rewrite)
	PhaseUndoLog          // mtm: undo mode, old-value batch append + ordering fence
	PhaseUndoApply        // mtm: undo mode, in-place stores + commit marker fence
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseNone:       "none",
	PhaseRequest:    "request",
	PhaseExec:       "exec",
	PhaseView:       "view",
	PhaseLeaseWait:  "lease_wait",
	PhaseTxn:        "txn",
	PhaseBody:       "txn_body",
	PhaseValidate:   "validate",
	PhaseLogAppend:  "log_append",
	PhaseLogFence:   "log_fence",
	PhaseWriteBack:  "write_back",
	PhaseTruncate:   "truncate",
	PhaseGCEnqueue:  "gc_enqueue",
	PhaseGCLead:     "gc_lead",
	PhaseGCFlush:    "gc_flush",
	PhaseAsyncTrunc: "async_trunc",
	PhaseAlloc:      "alloc",
	PhaseFree:       "free",
	PhaseFence:      "scm_fence",
	PhaseRawlFlush:  "rawl_flush",
	PhaseRawlTrunc:  "rawl_truncate",
	PhaseUndoLog:    "undo_log",
	PhaseUndoApply:  "undo_apply",
}

// String returns the phase's attribution name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// spanState is the fused enable word: one atomic load decides everything a
// disabled SpanBegin needs to know. Bits are owned by the three consumers
// of spans — the trace ring, the attribution registry, and the flight
// recorder — so any one can be on without paying for the others.
const (
	spanTraceBit  = 1 << iota // mirror spans into DefaultTracer's ring
	spanAttrBit               // feed phase histograms + the span record ring
	spanRecordBit             // flight recorder is armed (implies ring pushes)
)

var spanState atomic.Uint32

func spanStateSet(bit uint32) {
	for {
		old := spanState.Load()
		if spanState.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func spanStateClear(bit uint32) {
	for {
		old := spanState.Load()
		if spanState.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// SpansOn reports whether any span consumer is enabled; hot paths with
// non-trivial parent bookkeeping may check it first. SpanBegin itself is
// already a single atomic load when everything is off.
func SpansOn() bool { return spanState.Load() != 0 }

// spanEpoch anchors span timestamps; sharing one epoch across all spans
// keeps parent/child intervals directly comparable.
var spanEpoch = time.Now()

func spanNow() int64 { return time.Since(spanEpoch).Nanoseconds() }

// spanIDs mints process-unique span ids. ID 0 is reserved for "no span":
// a zero Span is the disabled sentinel and parent 0 marks a root.
var spanIDs atomic.Uint64

// Span is one live begin/end interval. It is a plain value — beginning a
// span allocates nothing — and must be ended on the goroutine that began
// it. The zero Span is inert: End on it is a no-op, so instrumentation
// does not need to re-check the enable state on every exit path.
type Span struct {
	ID     uint64
	Parent uint64
	Phase  Phase
	TID    uint64
	Start  int64
}

// SpanBegin opens a span of the given phase. tid is the logical thread
// (mtm thread id, scm context id, or 0), parent the enclosing span's ID
// (0 for a root). When every span consumer is disabled it returns the
// zero Span after a single atomic load.
func SpanBegin(ph Phase, tid, parent uint64) Span {
	st := spanState.Load()
	if st == 0 {
		return Span{}
	}
	id := spanIDs.Add(1)
	if st&spanTraceBit != 0 {
		// A/B packing mirrors the ring's two-argument shape:
		// A = id<<8 | phase, B = parent.
		DefaultTracer.Emit(EvSpanBegin, tid, id<<8|uint64(ph), parent)
	}
	return Span{ID: id, Parent: parent, Phase: ph, TID: tid, Start: spanNow()}
}

// End closes the span: it feeds the trace ring, the per-phase latency
// histogram, the span record ring, and — for a root span over the slow
// threshold — the flight recorder. Idempotent: the first End wins, so a
// deferred End backing up an explicit one is safe.
func (sp *Span) End() {
	if sp.ID == 0 {
		return
	}
	id := sp.ID
	sp.ID = 0
	st := spanState.Load()
	if st == 0 {
		return
	}
	end := spanNow()
	dur := end - sp.Start
	if dur < 0 {
		dur = 0
	}
	if st&spanTraceBit != 0 {
		DefaultTracer.Emit(EvSpanEnd, sp.TID, id<<8|uint64(sp.Phase), uint64(dur))
	}
	if st&(spanAttrBit|spanRecordBit) == 0 {
		return
	}
	phaseHist(sp.Phase).Observe(dur)
	spanRingPush(SpanRecord{
		ID: id, Parent: sp.Parent, Phase: sp.Phase, TID: sp.TID,
		Start: sp.Start, End: end,
	})
	if st&spanRecordBit != 0 && sp.Parent == 0 {
		DefaultRecorder.offer(id, sp.Phase, sp.TID, sp.Start, end)
	}
}

// Per-phase attribution instruments: a latency histogram and a fence
// counter per phase, registered in the Default registry so they ride the
// existing Prometheus/expvar/STATS exposition.
var (
	phaseInitOnce sync.Once
	phaseHists    [NumPhases]*Histogram
	phaseFences   [NumPhases]*Counter
)

func phaseInit() {
	phaseInitOnce.Do(func() {
		for p := Phase(0); p < NumPhases; p++ {
			if p == PhaseNone {
				// Unregistered sinks, so a stray PhaseNone cannot nil-deref
				// or pollute the registry.
				phaseHists[p] = &Histogram{name: "phase_none_latency_ns"}
				phaseFences[p] = &Counter{name: "phase_none_fences_total"}
				continue
			}
			name := phaseNames[p]
			phaseHists[p] = NewHistogram("phase_"+name+"_latency_ns",
				"Span latency of the "+name+" phase, ns (recorded while span attribution is enabled).")
			phaseFences[p] = NewCounter("phase_"+name+"_fences_total",
				"Device fences attributed to the "+name+" phase.")
		}
	})
}

func phaseHist(p Phase) *Histogram {
	phaseInit()
	if p >= NumPhases {
		p = PhaseNone
	}
	return phaseHists[p]
}

// CountPhaseFence attributes one device fence to a phase. Unconditional
// (one atomic add on paths that already pay for a fence), so the
// fences-per-phase trajectory is exact and deterministic even with
// attribution off — the perf gate depends on that.
func CountPhaseFence(p Phase) {
	phaseInit()
	if p >= NumPhases {
		p = PhaseNone
	}
	phaseFences[p].Inc()
}

// PhaseFences returns the fence count attributed to a phase.
func PhaseFences(p Phase) uint64 {
	phaseInit()
	if p >= NumPhases {
		p = PhaseNone
	}
	return phaseFences[p].Value()
}

// EnableAttribution turns on per-phase latency attribution: completed
// spans feed the phase histograms and the span record ring (which the
// flight recorder reads). Near-zero overhead remains when off.
func EnableAttribution() {
	phaseInit()
	ensureSpanRing()
	spanStateSet(spanAttrBit)
}

// DisableAttribution stops feeding the phase histograms and span ring;
// already-recorded data remains readable.
func DisableAttribution() { spanStateClear(spanAttrBit) }

// AttributionEnabled reports whether span attribution is on.
func AttributionEnabled() bool { return spanState.Load()&spanAttrBit != 0 }

// PhaseSummary is one phase's attribution snapshot, embedded in mnbench's
// versioned JSON output.
type PhaseSummary struct {
	Count  uint64  `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	MeanNs float64 `json:"mean_ns"`
	Fences uint64  `json:"fences"`
}

// PhaseSummaries returns the attribution state of every phase that saw a
// span or a fence, keyed by phase name.
func PhaseSummaries() map[string]PhaseSummary {
	phaseInit()
	out := make(map[string]PhaseSummary)
	for p := Phase(1); p < NumPhases; p++ {
		h, f := phaseHists[p], phaseFences[p]
		if h.Count() == 0 && f.Value() == 0 {
			continue
		}
		out[phaseNames[p]] = PhaseSummary{
			Count:  h.Count(),
			P50Ns:  h.Quantile(0.50),
			P99Ns:  h.Quantile(0.99),
			MeanNs: h.Mean(),
			Fences: f.Value(),
		}
	}
	return out
}

// SpanRecord is one completed span in the span record ring.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Phase  Phase  `json:"-"`
	TID    uint64 `json:"tid"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanSlot is one seqlock ring entry, mirroring traceSlot: odd seq means
// a write is in flight, so concurrent snapshots skip torn slots.
type spanSlot struct {
	seq                    atomic.Uint64
	id, parent, phase, tid atomic.Uint64
	start, end             atomic.Uint64
}

// spanRing holds the most recent completed spans so the flight recorder
// can reassemble a slow transaction's full tree after the fact. 1<<14
// spans cover thousands of transactions at ~10 spans each.
const spanRingBits = 14

var (
	spanRingMu    sync.Mutex
	spanRingSlots []spanSlot
	spanRingCur   atomic.Uint64
)

func ensureSpanRing() {
	spanRingMu.Lock()
	if spanRingSlots == nil {
		spanRingSlots = make([]spanSlot, 1<<spanRingBits)
	}
	spanRingMu.Unlock()
}

func spanRingPush(r SpanRecord) {
	slots := spanRingSlots
	if slots == nil {
		return
	}
	i := spanRingCur.Add(1) - 1
	s := &slots[i&(1<<spanRingBits-1)]
	s.seq.Add(1)
	s.id.Store(r.ID)
	s.parent.Store(r.Parent)
	s.phase.Store(uint64(r.Phase))
	s.tid.Store(r.TID)
	s.start.Store(uint64(r.Start))
	s.end.Store(uint64(r.End))
	s.seq.Add(1)
}

// spanRingSnapshot copies every stable record out of the span ring.
func spanRingSnapshot() []SpanRecord {
	spanRingMu.Lock()
	slots := spanRingSlots
	spanRingMu.Unlock()
	if slots == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(slots))
	for i := range slots {
		s := &slots[i]
		seq := s.seq.Load()
		if seq == 0 || seq&1 == 1 {
			continue
		}
		r := SpanRecord{
			ID:     s.id.Load(),
			Parent: s.parent.Load(),
			Phase:  Phase(s.phase.Load()),
			TID:    s.tid.Load(),
			Start:  int64(s.start.Load()),
			End:    int64(s.end.Load()),
		}
		if s.seq.Load() != seq {
			continue
		}
		out = append(out, r)
	}
	return out
}
