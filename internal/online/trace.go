package online

import (
	"fmt"
	"io"

	"repro/internal/grid"
)

// EventKind labels a traced simulation event.
type EventKind int

// Trace event kinds.
const (
	// EventServe records one job processed.
	EventServe EventKind = iota + 1
	// EventDone records a vehicle exhausting its energy.
	EventDone
	// EventDead records a Chapter 4 breakdown.
	EventDead
	// EventSearch records the start of a Phase I replacement search.
	EventSearch
	// EventSearchFail records a Phase I search finding no candidate.
	EventSearchFail
	// EventMove records a Phase II relocation.
	EventMove
	// EventRescue records a monitor-initiated search (Section 3.2.5).
	EventRescue
	// EventFailure records an unserved job.
	EventFailure
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventServe:
		return "serve"
	case EventDone:
		return "done"
	case EventDead:
		return "dead"
	case EventSearch:
		return "search"
	case EventSearchFail:
		return "search-fail"
	case EventMove:
		return "move"
	case EventRescue:
		return "rescue"
	case EventFailure:
		return "failure"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Cause tells apart the two variants of EventDead and of EventRescue.
type Cause uint8

// Event causes. The zero Cause is for the kinds that have one variant.
const (
	// CauseServe is a Longevity breakdown while serving a job (EventDead).
	CauseServe Cause = iota + 1
	// CauseArrival is a Longevity breakdown on finishing a Phase II move
	// (EventDead).
	CauseArrival
	// CauseSilent is a rescue of a watched pair whose beacon stopped
	// (EventRescue).
	CauseSilent
	// CauseEvidence is a rescue of a watched pair that kept beaconing while
	// a customer complaint proved it served nothing (EventRescue).
	CauseEvidence
)

// Event is one structured trace record. The runner fills plain fields only;
// the text is rendered by String, so an untraced episode formats nothing.
type Event struct {
	// Arrival is the index of the arrival being processed when the event
	// fired.
	Arrival int
	Kind    EventKind
	// Vehicle is the home cell of the vehicle involved (its identity). For
	// EventFailure it is the job position, like Pos.
	Vehicle grid.Point
	// Pos is the event location (job position, move destination, ...).
	Pos grid.Point
	// Energy is the vehicle's cumulative energy use after the event.
	Energy float64
	// Pair is the pair searched for (EventSearch, EventSearchFail), taken
	// over (EventMove) or rescued (EventRescue).
	Pair int
	// Longevity is the breakdown fraction that was hit (EventDead).
	Longevity float64
	// Cause is the EventDead or EventRescue variant.
	Cause Cause
	// Reason is the Failure.Reason of an EventFailure.
	Reason string
}

// String renders the event as one log line.
func (e Event) String() string {
	s := fmt.Sprintf("[%4d] %-11s vehicle=%v pos=%v energy=%.1f",
		e.Arrival, e.Kind, e.Vehicle, e.Pos, e.Energy)
	switch e.Kind {
	case EventSearch, EventSearchFail:
		s += fmt.Sprintf(" for pair %d", e.Pair)
	case EventMove:
		s += fmt.Sprintf(" takes over pair %d", e.Pair)
	case EventDead:
		s += fmt.Sprintf(" longevity %.2f hit", e.Longevity)
		if e.Cause == CauseArrival {
			s += " on arrival"
		}
	case EventRescue:
		switch e.Cause {
		case CauseSilent:
			s += fmt.Sprintf(" pair %d went silent", e.Pair)
		case CauseEvidence:
			s += fmt.Sprintf(" pair %d beaconed but served nothing", e.Pair)
		}
	case EventFailure:
		if e.Reason != "" {
			s += " " + e.Reason
		}
	}
	return s
}

// Tracer receives simulation events. Implementations must be fast; the
// runner calls them synchronously.
type Tracer interface {
	Emit(Event)
}

// WriterTracer streams rendered events to an io.Writer.
type WriterTracer struct {
	W io.Writer
}

var _ Tracer = (*WriterTracer)(nil)

// Emit implements Tracer.
func (w *WriterTracer) Emit(e Event) {
	fmt.Fprintln(w.W, e.String())
}

// emit hands e, stamped with the current arrival, to the tracer. It is
// nil-safe, and the caller builds e from plain values, so an untraced
// episode pays only the nil check.
func (r *Runner) emit(e Event) {
	if r.opts.Tracer == nil {
		return
	}
	e.Arrival = r.currentArrival
	r.opts.Tracer.Emit(e)
}
