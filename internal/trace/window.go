package trace

import "iter"

// Window is a replayable sub-stream of a synthetic trace: the packets of
// the trace whose times fall in [Lo, Hi), rebased to Lo, regenerated from
// the nearest checkpoint of a Checkpoints index at or before Lo. Because
// synthesis is deterministic under its seed, the window yields the same
// records on every iteration, in O(window + active flows) per replay
// however deep the offset — so a consumer that needs one analysis
// interval's packets more than once can replay them on demand instead of
// holding an O(interval) buffer alive.
type Window struct {
	Lo, Hi float64
	ck     *Checkpoints
}

// Records returns the window's packets in time order, with times rebased to
// Lo (so they lie in [0, Hi-Lo)). Each call regenerates them from the
// checkpoint index and yields identical records.
func (w Window) Records() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		w.ck.replay(w.Lo, w.Hi, yield)
	}
}
