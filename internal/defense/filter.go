package defense

import "repro/internal/dvs"

// Filter is the single-stream event-denoiser interface of the
// whole-stream defenses: the background-activity baseline implements
// it, and AQF runs through the AQF function directly. Windowed serving
// does not filter per window — a window viewed as a standalone stream
// would reopen AQF's T2 ms grace period at every boundary, passing
// injected events unfiltered — but feeds the flow through the
// cross-window IncrementalAQF (stream.Options.AQF), which matches the
// whole-stream AQF bit for bit.
type Filter interface {
	// Filter returns a filtered copy; the input is not modified.
	Filter(s *dvs.Stream) *dvs.Stream
}

var _ Filter = (*BackgroundActivityFilter)(nil)
