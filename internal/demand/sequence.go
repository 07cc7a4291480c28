package demand

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/grid"
)

// Sequence is an ordered list of unit-job arrivals x_1, x_2, ..., x_k — the
// online input of the thesis (Section 1.3). The demand map it induces is the
// multiset of its positions.
type Sequence struct {
	arrivals []grid.Point
}

// NewSequence builds a sequence from explicit arrival positions (copied).
func NewSequence(arrivals []grid.Point) *Sequence {
	cp := make([]grid.Point, len(arrivals))
	copy(cp, arrivals)
	return &Sequence{arrivals: cp}
}

// Len returns the number of arrivals k.
func (s *Sequence) Len() int { return len(s.arrivals) }

// At returns the i-th arrival position (0-based).
func (s *Sequence) At(i int) grid.Point { return s.arrivals[i] }

// SequenceOf expands a demand map into an arrival sequence using the given
// order policy. The induced map of the result equals m. A map whose total
// exceeds math.MaxInt32, the most arrivals an online runner indexes, is
// refused with an error under every order, before anything is allocated.
func SequenceOf(m *Map, order Order, rng *rand.Rand) (*Sequence, error) {
	total := m.Total()
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("demand: %d jobs exceed a sequence's %d arrivals", total, math.MaxInt32)
	}
	jobs := make([]grid.Point, 0, total)
	for _, p := range m.Support() {
		for i := int64(0); i < m.At(p); i++ {
			jobs = append(jobs, p)
		}
	}
	switch order {
	case OrderSorted:
		// Support() is already sorted; expansion preserved it.
	case OrderShuffled:
		if rng == nil {
			return nil, fmt.Errorf("demand: %v order needs an rng", order)
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	case OrderRoundRobin:
		// Interleave across positions: one job from each support point per
		// round. Adversarial for strategies that commit a vehicle to a spot.
		support := m.Support()
		remaining := make([]int64, len(support))
		for i, p := range support {
			remaining[i] = m.At(p)
		}
		jobs = jobs[:0]
		for {
			progress := false
			for i, p := range support {
				if remaining[i] > 0 {
					jobs = append(jobs, p)
					remaining[i]--
					progress = true
				}
			}
			if !progress {
				break
			}
		}
	default:
		return nil, fmt.Errorf("demand: unknown order %v", order)
	}
	return &Sequence{arrivals: jobs}, nil
}

// Order selects how a demand map is expanded into an arrival sequence.
type Order int

// Arrival order policies.
const (
	// OrderSorted emits all jobs position by position in sorted order.
	OrderSorted Order = iota + 1
	// OrderShuffled emits jobs in a uniformly random order.
	OrderShuffled
	// OrderRoundRobin alternates one job per position per round (the
	// adversarial pattern of thesis Figure 4.1 generalized).
	OrderRoundRobin
)

// String implements fmt.Stringer.
func (o Order) String() string {
	switch o {
	case OrderSorted:
		return "sorted"
	case OrderShuffled:
		return "shuffled"
	case OrderRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}
